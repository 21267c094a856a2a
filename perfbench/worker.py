"""One benchmark pass, in a fresh process so no cache carries over.

Run from the root of a checkout; `fibjacobi` is imported from its `src`.
The pass times its own set-up (importing numpy and `fibjacobi`, building
the parser), then runs jobs back to back in this one process through
`fibjacobi.cli.main`: a closed loop with one client and no extra threads.
Only the call to `main` is timed; hashing and output checks happen
between jobs.

Prints one JSON object on its last stdout line: set-up time, peak RSS,
one record per job (with the resident memory right after it), timings of
a fixed reference workload taken between jobs and, when traced, the
per-layer summary.  With
--setup-only it times the set-up, then the reference work, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DETAIL_CHARS = 200
PAGE = os.sysconf("SC_PAGE_SIZE")
# Seconds of run time per sample of the reference work.
REFERENCE_EVERY_S = 0.25
REFERENCE_BURST = 8
# Reference samples taken right after a --setup-only set-up.
SETUP_REFERENCES = 5


def _setup() -> tuple[float, object]:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    from fibjacobi import cli

    cli.build_parser()
    elapsed = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"fibjacobi imported from {cli.__file__}, not from {src}")
    return elapsed, cli


def _capture_errors(cli) -> dict:
    """Wrap the subcommand functions to record the exception main() swallows."""
    seen: dict = {}

    def wrap(fn):
        @functools.wraps(fn)
        def run(args):
            try:
                return fn(args)
            except BaseException as exc:
                seen["exc"] = exc
                raise

        return run

    for name, fn in list(vars(cli).items()):
        if name.startswith("cmd_") and callable(fn):
            setattr(cli, name, wrap(fn))
    return seen


def _numpy_facts() -> dict:
    """numpy version, BLAS library and the BLAS thread count in this process."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def _reference() -> float:
    """Seconds for a fixed mix of numpy and interpreter work that never calls fibjacobi.

    The shared hardware this benchmark runs on changes speed by tens of
    percent over minutes; run.py divides job times by this yardstick,
    sampled through the run, to take that drift out of the gated metrics.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(-3.0, 3.0, 100_000)
    for _ in range(10):
        x = np.sin(x) * 1.0001
    rows = [(i, float(i), str(i)) for i in range(20_000)]
    total = 0
    for i, f, s in rows:
        total += (i * i) % 7 + len(s)
    return time.perf_counter() - t0


def _rss_mb() -> float:
    """Resident memory of this process now, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE / 2**20


def _first_line(text: str) -> str:
    line = text.strip().splitlines()[0] if text.strip() else ""
    return line[:DETAIL_CHARS]


def _jobs(args, workloads) -> list[list[str]]:
    """The smoke list, or the first --rounds rounds of the seeded workload."""
    if args.smoke:
        return list(workloads.SMOKE[args.workload])
    stream = workloads.rounds(args.workload, args.seed)
    return [argv for _ in range(args.rounds) for argv in next(stream)]


def run(args) -> dict:
    setup_s, cli = _setup()
    if args.setup_only:
        return {"setup_s": setup_s, "reference_s": [_reference() for _ in range(SETUP_REFERENCES)]}
    sys.path.insert(0, str(HERE))
    import checks
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    seen = _capture_errors(cli)
    # A fixed relative path per workload: the config embedded in the output
    # names it, so digests compare across checkouts and commits.
    out_file = f"perfbench/.out/job-{args.workload}.out"
    out_path = Path(out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    records = []
    bytes_out = 0
    reference = [_reference()]
    last_reference = start = time.perf_counter()
    for argv in _jobs(args, workloads):
        seen.clear()
        out_path.unlink(missing_ok=True)
        job_out, job_err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = len(records)
        with contextlib.redirect_stdout(job_out), contextlib.redirect_stderr(job_err):
            t0 = time.perf_counter()
            rc = cli.main(argv + ["--out", out_file])
            wall = time.perf_counter() - t0
        rss_mb = _rss_mb()
        if tracer is not None:
            tracer.job = None
        stdout = job_out.getvalue()
        rec = {"argv": argv, "rc": rc, "s": wall, "rss_mb": rss_mb,
               "error": None, "detail": None, "sha256": None}
        if "exc" in seen:
            rec["error"] = type(seen["exc"]).__name__
            rec["detail"] = _first_line(str(seen["exc"]))
        elif rc != 0:
            # A command that reports failure without raising, like verify,
            # says why on stderr or in a FAIL line on stdout.
            rec["error"] = "exit"
            fails = [ln for ln in stdout.splitlines() if ln.startswith("FAIL")]
            rec["detail"] = _first_line(job_err.getvalue() or "\n".join(fails))
        if out_path.exists():
            data = out_path.read_bytes()
            rec["sha256"] = hashlib.sha256(data).hexdigest()
            bytes_out += len(data)
        bytes_out += len(stdout.encode())
        if rc == 0:
            try:
                reason = checks.check(argv, data.decode() if rec["sha256"] else "", stdout)
            except Exception as exc:  # a malformed output is a failed check
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                rec["error"] = "CheckFailed"
                rec["detail"] = reason[:DETAIL_CHARS]
        rec["ok"] = rec["error"] is None
        records.append(rec)
        # One reference sample per REFERENCE_EVERY_S of run time, taken in the
        # gap after each job, at most REFERENCE_BURST at a time.
        owed = int((time.perf_counter() - last_reference) / REFERENCE_EVERY_S)
        for _ in range(min(owed, REFERENCE_BURST)):
            reference.append(_reference())
        if owed:
            last_reference = time.perf_counter()
    reference.append(_reference())
    out_path.unlink(missing_ok=True)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loop_s": time.perf_counter() - start,
        "bytes_out": bytes_out,
        "reference_s": reference,
        "numpy": _numpy_facts(),
        "jobs": records,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the spans here when traced")
    ap.add_argument("--smoke", action="store_true", help="run the workload's smoke jobs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
