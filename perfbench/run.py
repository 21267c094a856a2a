"""Benchmark of the `fibjacobi` command line tool, run from a checkout's root.

    python3 perfbench/run.py --workload deep-cover --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run starts fresh worker processes (perfbench/worker.py) that import the
package from ./src; no work is shared between runs.  A run is the whole
blocks of the workload's seeded rounds (workloads.py) that took about
--seconds when the benchmark was added (ROUND_S), so two commits run
identical job lists for a seed and the per-layer counts repeat exactly.  With --trace 0
one worker runs them and the run reports the end-to-end metrics.  With
--trace 1 half as many rounds run once traced and once untraced, each in
its own worker; the run reports per-layer metrics from the traced pass
and the tracing overhead from the pair.  Set-up time is the median over
SETUP_SAMPLES fresh processes that do nothing else.  Workers run with
one BLAS thread.

Timings are wall-clock (time.perf_counter), taken on shared hardware
whose speed drifts by tens of percent over minutes.  Each worker
therefore also times a fixed reference workload that never calls
fibjacobi, four times per second of run time, in the gaps between jobs.
The gated job times are wall times scaled by (REFERENCE_S over the run's
median reference time) to the power DRIFT_EXPONENT[workload]: seconds
at a fixed machine speed.  Each set-up
sample is scaled the same way by the reference timed in its own process
right after it.  The report prints the raw wall figures (*.wall) and the
slowdown beside them.
Per-layer self times are raw wall seconds of the traced pass;
trace.overhead compares the two passes at reference speed.

The report goes to stdout and the full record, with one entry per job
(argv, exit code, error class and first line, wall time, resident memory,
sha256 of the output file), to perfbench/.out/<workload>-seed<seed>-
trace<t>.json.  The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}; correct is false when a
job exited 0 with an output that failed its check.

End-to-end metrics, all over the jobs of one run:
  job_s.p50    median wall time of the jobs that succeeded
  job_s.tail   highest percentile of those with at least 10 jobs beyond it
  ok_per_s     successful jobs over the summed wall time of all jobs
  setup_s      import numpy and fibjacobi and build the parser
  rss_mb.p50   median over jobs of the worker's resident memory after each
The report also prints fail_frac, the worker's peak resident memory, and
the percentiles that count failed jobs as +inf.  These are not gated: the
failures make the latter infinite or put them at the edge between two
job clusters, and the peak is set by the single largest transient
allocation, so it moves by half from seed to seed.

A job succeeds when it exits 0 and its output passes checks.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT_DIR = Path("perfbench/.out")

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170.0
# Reference-work seconds (worker._reference) on a 2-core Xeon in a quiet
# spell; times are reported as if every run had that speed.
REFERENCE_S = 0.02
# How strongly each workload's job times follow the reference's drift: the
# slope of log job time on log slowdown over 30 to 40 runs at the commit
# that added this benchmark.  Deep-cover's Python-heavy band solving slows down
# less than the reference does.
DRIFT_EXPONENT = {"deep-cover": 0.65, "sweep": 1.0, "crosscheck": 1.0}
# Seconds one round takes on that machine, at the commit that added this
# benchmark.
ROUND_S = {"deep-cover": 6.3, "sweep": 1.34, "crosscheck": 1.5}

END_TO_END = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "ok_per_s": "jobs/s",
    "setup_s": "s",
    "rss_mb.p50": "MiB",
}

PER_LAYER = {
    "bands.self_s": "s",
    "bands.calls": "count",
    "bands.bands_out": "count",
    "bands.point_levels_per_band": "1",
    "bands.failed": "count",
    "tracemap.self_s": "s",
    "tracemap.point_levels": "count",
    "tracemap.point_levels_per_s": "1/s",
    "tracemap.failed": "count",
    "fractal.self_s": "s",
    "fractal.box_counts": "count",
    "fractal.failed": "count",
    "transfer.self_s": "s",
    "transfer.site_energies": "count",
    "transfer.site_energies_per_s": "1/s",
    "transfer.cocycle_calls": "count",
    "jacobi.self_s": "s",
    "jacobi.sites2": "count",
    "jacobi.sites2_per_s": "1/s",
    "words.self_s": "s",
    "words.letters": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead": "ratio",
    "trace.accounted": "ratio",
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(*flags: str) -> dict:
    """Run one worker pass to completion and return its result object."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *flags],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(flags)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "timing": f"wall-clock, time.perf_counter, {os.cpu_count()}-core machine",
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scale(run: dict, exponent: float = 1.0) -> float:
    """Factor from a pass's wall seconds to reference-speed seconds."""
    return (REFERENCE_S / statistics.median(run["reference_s"])) ** exponent


def end_to_end(run: dict, setup: list[dict], exponent: float) -> tuple[dict, dict, dict]:
    """Gated metrics of an untraced pass, their sample counts, and reported-only figures."""
    jobs = run["jobs"]
    ok = [j["s"] for j in jobs if j["ok"]]
    if not ok:
        raise BenchError("no job succeeded")
    tail_s, pct = tail(ok)
    f = scale(run, exponent)
    raw = {
        "job_s.p50": statistics.median(ok),
        "job_s.tail": tail_s,
        "ok_per_s": len(ok) / sum(j["s"] for j in jobs),
        "setup_s": statistics.median(r["setup_s"] for r in setup),
    }
    metrics = {
        "job_s.p50": raw["job_s.p50"] * f,
        "job_s.tail": raw["job_s.tail"] * f,
        "ok_per_s": raw["ok_per_s"] / f,
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in setup),
        "rss_mb.p50": statistics.median(j["rss_mb"] for j in jobs),
    }
    samples = {
        "job_s.p50": len(ok),
        "job_s.tail": len(ok),
        "ok_per_s": len(jobs),
        "setup_s": len(setup),
        "rss_mb.p50": len(jobs),
    }
    every = [j["s"] if j["ok"] else math.inf for j in jobs]
    tail_all, pct_all = tail(every)
    extra = {
        "job_s.tail.percentile": pct,
        "fail_frac": 1.0 - len(ok) / len(jobs),
        "peak_rss_mb": run["peak_rss_mb"],
        "job_s.p50_failed_inf": statistics.median(every) * f,
        "job_s.tail_failed_inf": tail_all * f,
        "job_s.tail_failed_inf.percentile": pct_all,
        "slowdown": 1.0 / scale(run),
        **{f"{k}.wall": v for k, v in raw.items()},
    }
    return metrics, samples, extra


def per_layer(traced: dict, plain: dict, exponent: float) -> dict:
    layers = dict(traced["layers"])
    traced_s = sum(j["s"] for j in traced["jobs"])
    plain_s = sum(j["s"] for j in plain["jobs"])
    self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers["cli.bytes_out"] = traced["bytes_out"]
    layers["trace.overhead"] = (
        traced_s * scale(traced, exponent) / (plain_s * scale(plain, exponent)) - 1.0
    )
    layers["trace.accounted"] = self_s / traced_s
    return layers


def failures(run: dict) -> list[dict]:
    return [{k: j[k] for k in ("argv", "rc", "error", "detail", "s")} for j in run["jobs"] if not j["ok"]]


def bench(args) -> dict:
    facts = machine_facts()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    block = workloads.BLOCK[args.workload]
    rounds = block * max(1, round(args.seconds / (block * ROUND_S[args.workload])))
    if args.trace:
        rounds = max(1, rounds // 2)
    common += ["--rounds", str(rounds)]
    if args.trace:
        traced = worker(*common, "--trace", "1", "--spans", f"{stem}.spans.json")
        plain = worker(*common)
        runs = [traced, plain]
        metrics = per_layer(traced, plain, DRIFT_EXPONENT[args.workload])
        units = PER_LAYER
        samples = dict.fromkeys(PER_LAYER, len(traced["jobs"]))
        extra = {}
        counted = traced
    else:
        setup = [worker("--setup-only") for _ in range(SETUP_SAMPLES)]
        plain = worker(*common)
        runs = [plain]
        metrics, samples, extra = end_to_end(plain, setup, DRIFT_EXPONENT[args.workload])
        units = END_TO_END
        counted = plain
    checks_failed = [j for r in runs for j in r["jobs"] if j["error"] == "CheckFailed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
        "machine": {**facts, **plain["numpy"]},
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "samples": samples,
        "extra": extra,
        "failures": failures(counted),
        "passes": runs,
    }
    record_path = f"{stem}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, record_path)
    return {
        "correct": not checks_failed,
        "attempted": len(counted["jobs"]),
        "failed": sum(not j["ok"] for j in counted["jobs"]),
        "metrics": record["metrics"],
    }


def report(record: dict, path: str) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"machine: {m['nproc']} cores, {m['cpu']}, Python {m['python']}, numpy {m['numpy']}, "
          f"BLAS {m['blas']} with {m['blas_threads']} thread(s), load {m['loadavg_start']}")
    print(f"timing: {m['timing']}")
    for name, mv in record["metrics"].items():
        print(f"  {name:32s} {mv['value']:14.6g} {mv['unit']:8s} n={record['samples'][name]}")
    for name, v in record["extra"].items():
        print(f"  {name:32s} {v:14.6g} (not gated)")
    for f in record["failures"]:
        print(f"  failed: {' '.join(f['argv'])}  rc={f['rc']}  {f['error']}: {f['detail']}")
    print(f"record: {path}")


def smoke() -> int:
    """Run each workload's smoke jobs untraced and traced; no timing thresholds."""
    bad = 0
    for w in workloads.WORKLOADS:
        plain = worker("--workload", w, "--smoke")
        traced = worker("--workload", w, "--smoke", "--trace", "1")
        layers = per_layer(traced, plain, DRIFT_EXPONENT[w])
        missing = sorted(set(PER_LAYER) - set(layers))
        for r in (plain, traced):
            for j in r["jobs"]:
                if not j["ok"]:
                    bad += 1
                    print(f"{w}: FAIL {' '.join(j['argv'])}: {j['error']}: {j['detail']}")
        if missing:
            bad += 1
            print(f"{w}: per-layer metrics missing: {missing}")
        print(f"{w}: {len(plain['jobs'])} jobs, accounted {layers['trace.accounted']:.3f}")
    print("smoke: ok" if not bad else f"smoke: {bad} problem(s)")
    return 0 if not bad else 1


def main(argv=None) -> int:
    # On SIGTERM, unwind so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description="fibjacobi benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="exercise the harness in seconds")
    args = ap.parse_args(argv)
    if not (Path("src/fibjacobi").is_dir() and Path("perfbench").is_dir()):
        print("run.py: run from the root of a fibjacobi checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = bench(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
