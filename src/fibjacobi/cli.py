"""Command-line front end: reproducible runs, JSON/CSV output, self-checks.

Every command resolves its parameters from defaults, then an optional flat
key = value config file, then command-line flags (flags win).  The resolved
configuration is embedded in every output file, JSON under a "config" key
and CSV as leading '# key=value' comment lines, so a result file identifies
the run that produced it.  Identical configurations produce byte-identical
files: no timestamps, no environment lookups, fixed seeds.

Exit codes: 0 success, 2 invalid usage or parameters, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bands import (
    DEFAULT_TOL,
    EnergyWindow,
    bandset_to_dict,
    cover,
    energy_window,
    escape_spectrum,
    lebesgue_measure,
    sigma_k,
)
from .fractal import (
    band_scaling_dimension,
    box_dimension,
    dimension_sweep,
    eps_ladder,
    sweep_to_csv,
)
from .jacobi import build_window, eigenvalues_free, eigenvalues_to_json
from .tracemap import HoppingPair, invariant_expected, trace_value
from .transfer import cayley_hamilton_defect, cocycle, lyapunov_grid
from .words import (
    cyclic_conjugates,
    fib_prefix,
    fibonacci,
    omega_s,
    periodize,
    square_prefix_block,
    square_prefix_check,
    subwords,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PROG = "fibjacobi"


def _warn(msg: str) -> None:
    print(f"{_PROG}: warning: {msg}", file=sys.stderr)


def _config_payload(args: argparse.Namespace) -> dict:
    """Resolved run parameters, for embedding into output files."""
    skip = {"func", "default_format"}
    out = {}
    for key, val in vars(args).items():
        if key in skip or val is None:
            continue
        out[key] = val
    return dict(sorted(out.items()))


def _config_comments(cfg: dict) -> str:
    return "".join(f"# {k}={v}\n" for k, v in cfg.items())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: dict, result: dict, out: str | None) -> None:
    payload = {"config": cfg, "result": result}
    _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", out)


def _emit_csv(cfg: dict, header: str, rows: Sequence[str], out: str | None) -> None:
    _emit(_config_comments(cfg) + header + "\n" + "".join(r + "\n" for r in rows), out)


def _hoppings(args: argparse.Namespace) -> HoppingPair:
    p = HoppingPair(args.a, args.b)
    if args.a == args.b:
        _warn("a = b: degenerate hull, the spectrum is the single free band")
    return p


def _resolve_format(args: argparse.Namespace) -> str:
    return args.format or args.default_format


# -- band-set commands -------------------------------------------------------


def _emit_bandset(args: argparse.Namespace, bs, label: str) -> int:
    cfg = _config_payload(args)
    print(f"{label}: {bs.lo.size} bands, measure {lebesgue_measure(bs):.12g}")
    if _resolve_format(args) == "json":
        _emit_json(cfg, bandset_to_dict(bs), args.out)
    else:
        pairs = zip(bs.lo.tolist(), bs.hi.tolist())
        rows = [f"{i},{lo:.17g},{hi:.17g}" for i, (lo, hi) in enumerate(pairs)]
        _emit_csv(cfg, "band,lo,hi", rows, args.out)
    return EXIT_OK


def cmd_bands(args: argparse.Namespace) -> int:
    p = _hoppings(args)
    return _emit_bandset(args, sigma_k(p, args.k, args.tol), f"sigma_{args.k}")


def cmd_cover(args: argparse.Namespace) -> int:
    p = _hoppings(args)
    return _emit_bandset(args, cover(p, args.k, args.tol), f"cover({args.k})")


def cmd_spectrum(args: argparse.Namespace) -> int:
    p = _hoppings(args)
    window = None
    if (args.emin is None) != (args.emax is None):
        raise ValueError("give both --emin and --emax, or neither")
    if args.emin is not None:
        window = EnergyWindow(args.emin, args.emax)
    bs = escape_spectrum(p, args.kmax, args.grid, window)
    return _emit_bandset(args, bs, f"escape({args.kmax})")


# -- scans -------------------------------------------------------------------


def cmd_lyapunov(args: argparse.Namespace) -> int:
    p = _hoppings(args)
    if not (args.emax > args.emin):
        raise ValueError(f"empty energy window [{args.emin}, {args.emax}]")
    if args.points < 2:
        raise ValueError(f"need at least 2 grid points, got {args.points}")
    energies = np.linspace(args.emin, args.emax, args.points)
    if args.threads > 1:
        chunks = np.array_split(energies, args.threads)
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            parts = list(pool.map(lambda c: lyapunov_grid(p, c, args.length), chunks))
        gamma = np.concatenate([g for g, _, _ in parts])
        residual = np.concatenate([r for _, r, _ in parts])
    else:
        gamma, residual, _ = lyapunov_grid(p, energies, args.length)
    cfg = _config_payload(args)
    print(
        f"lyapunov: {args.points} energies in [{args.emin:g}, {args.emax:g}], "
        f"gamma in [{gamma.min():.6g}, {gamma.max():.6g}]"
    )
    if _resolve_format(args) == "json":
        result = {
            "E": [float(x) for x in energies],
            "gamma": [float(x) for x in gamma],
            "residual": [float(x) for x in residual],
        }
        _emit_json(cfg, result, args.out)
    else:
        rows = [
            f"{e:.17g},{g:.17g},{r:.17g}"
            for e, g, r in zip(energies, gamma, residual)
        ]
        _emit_csv(cfg, "E,gamma,residual", rows, args.out)
    return EXIT_OK


def _parse_sweep(arg: str) -> list[float]:
    parts = arg.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep range must be start:stop:step, got {arg!r}")
    start, stop, step_ = (float(x) for x in parts)
    if step_ <= 0 or stop < start:
        raise ValueError(f"sweep range must have stop >= start and step > 0, got {arg!r}")
    n = int(math.floor((stop - start) / step_ + 1e-9)) + 1
    return [round(start + i * step_, 12) for i in range(n)]


def cmd_dimension(args: argparse.Namespace) -> int:
    cfg = _config_payload(args)
    tol = args.tol
    if args.sweep:
        b_values = _parse_sweep(args.sweep)
        entries = dimension_sweep(args.a, b_values, args.kmax, tol, args.kmin)
        failed = [e for e in entries if e.error]
        fitted = [e for e in entries if e.estimate is not None]
        for e in failed:
            _warn(f"b = {e.b:g}: {e.error}")
        if fitted:
            print(
                f"dimension sweep: {len(fitted)} couplings, values "
                f"{fitted[0].estimate.value:.4f} ({fitted[0].b:g}) -> "
                f"{fitted[-1].estimate.value:.4f} ({fitted[-1].b:g})"
            )
        text = sweep_to_csv(entries, args.kmax, tol)
        if _resolve_format(args) == "json":
            rows = [
                {
                    "b": e.b,
                    "dim_value": e.estimate.value if e.estimate else None,
                    "method": e.estimate.method if e.estimate else "error",
                    "r_squared": e.estimate.r_squared if e.estimate else None,
                    "degenerate": bool(e.estimate.degenerate) if e.estimate else False,
                    "error": e.error,
                }
                for e in entries
            ]
            _emit_json(cfg, {"k_max": args.kmax, "tol": tol, "rows": rows}, args.out)
        else:
            header, _, body = text.partition("\n")
            _emit_csv(cfg, header, body.splitlines(), args.out)
        return EXIT_OK
    p = _hoppings(args)
    scaling = band_scaling_dimension(p, args.kmin, args.kmax, tol)
    if scaling.degenerate:
        _warn("degenerate band scaling (equal hoppings): value 1 by convention")
    covers = [cover(p, args.kmax - 1, tol), cover(p, args.kmax, tol)]
    box = box_dimension(covers, eps_ladder(covers))
    print(
        f"dimension: band-scaling {scaling.value:.4f} (r2 {scaling.r_squared:.4f}), "
        f"box-fit {box.value:.4f} (r2 {box.r_squared:.4f})"
    )
    if _resolve_format(args) == "json":
        rows = [
            {
                "b": args.b,
                "dim_value": est.value,
                "method": est.method,
                "r_squared": est.r_squared,
                "degenerate": est.degenerate,
                "clamped": est.clamped,
            }
            for est in (scaling, box)
        ]
        _emit_json(cfg, {"k_max": args.kmax, "tol": tol, "rows": rows}, args.out)
    else:
        rows = [
            f"{args.b:.10g},{est.value:.10g},{est.method},{est.r_squared:.10g},"
            f"{args.kmax},{tol:.10g}"
            for est in (scaling, box)
        ]
        _emit_csv(cfg, "b,dim_value,method,r_squared,k_max,tol", rows, args.out)
    return EXIT_OK


# -- words and eigenvalues ---------------------------------------------------


def cmd_words(args: argparse.Namespace) -> int:
    prefix = fib_prefix(args.k)
    shown = prefix if len(prefix) <= 64 else prefix[:61] + "..."
    print(f"level {args.k}: length {len(prefix)}  {shown}")
    complexity: dict[str, int] = {}
    bad = []
    for length in range(1, args.complexity + 1):
        count = len(subwords(length))
        complexity[str(length)] = count
        if count != length + 1:
            bad.append((length, count))
        print(f"factors of length {length}: {count}")
    if bad:
        raise ArithmeticError(f"factor counts deviate from L + 1 at {bad}")
    if args.out or args.format == "json":
        cfg = _config_payload(args)
        result = {"k": args.k, "length": len(prefix), "prefix": prefix, "complexity": complexity}
        _emit_json(cfg, result, args.out)
    return EXIT_OK


def cmd_eigs(args: argparse.Namespace) -> int:
    p = _hoppings(args)
    if (args.k is None) == (args.letters is None):
        raise ValueError("give exactly one of --k or --letters")
    letters = fib_prefix(args.k) if args.k is not None else args.letters
    letters = letters * args.repeats
    win = build_window(letters, p)
    eig = eigenvalues_free(win)
    vals = eig.values
    cfg = _config_payload(args)
    print(f"eigs: {len(vals)} eigenvalues in [{vals[0]:.6g}, {vals[-1]:.6g}]")
    if _resolve_format(args) == "json":
        _emit_json(cfg, json.loads(eigenvalues_to_json(eig)), args.out)
    else:
        rows = [f"{i},{v:.17g}" for i, v in enumerate(vals)]
        _emit_csv(cfg, "index,value", rows, args.out)
    return EXIT_OK


# -- verification suite ------------------------------------------------------


def _check_invariant_conservation(p: HoppingPair, perturb: float) -> tuple[bool, str]:
    expected = invariant_expected(p)
    worst = 0.0
    for e in np.linspace(-8.0, 8.0, 41):
        x, y, z = float(e) / (2 * p.a), float(e) / (2 * p.b), (p.a**2 + p.b**2) / (2 * p.a * p.b)
        for _ in range(40):
            x, y, z = 2.0 * x * y - z + perturb, x, y
            if max(abs(x), abs(y), abs(z)) > 1e3:
                break
            drift = abs(x * x + y * y + z * z - 2 * x * y * z - 1.0 - expected)
            worst = max(worst, drift / (1.0 + expected))
    ok = worst <= 1e-9
    return ok, f"max relative drift {worst:.3e} over 41 energies, 40 levels"


def _check_recursion_vs_cocycle(p: HoppingPair) -> tuple[bool, str]:
    worst = 0.0
    for e in np.linspace(-4.0, 4.0, 17) + 0.05:
        for k in range(2, 13):
            # The prefix of length F_k carries the level-k half-trace.
            n = fibonacci(k)
            want = trace_value(p, float(e), k)
            got = cocycle(omega_s(1, n), p, float(e), n).trace_half()
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-9
    return ok, f"max relative error {worst:.3e}, levels 2..12"


def _check_cyclic_traces(p: HoppingPair) -> tuple[bool, str]:
    worst = 0.0
    for e in np.linspace(-3.0, 3.0, 20) + 0.037:
        for k in range(2, 9):
            want = trace_value(p, float(e), k + 1)
            for word in cyclic_conjugates(k):
                win = periodize(word, len(word))
                got = cocycle(win, p, float(e), len(word)).trace_half()
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-9
    return ok, f"max relative spread {worst:.3e} over all conjugates, levels 2..8"


def _check_cayley_hamilton(p: HoppingPair) -> tuple[bool, str]:
    w = omega_s(1, 2 * square_prefix_block(9))
    worst = 0.0
    for e in np.linspace(-4.0, 4.0, 10) + 0.013:
        for k in range(2, 10):
            worst = max(worst, cayley_hamilton_defect(w, p, float(e), k))
    ok = worst <= 1e-8
    return ok, f"max defect {worst:.3e}, levels 2..9"


def _check_square_prefixes(p: HoppingPair) -> tuple[bool, str]:
    failed = [
        k
        for k in range(2, 13)
        if not square_prefix_check(omega_s(1, 2 * square_prefix_block(k)), k)
    ]
    ok = not failed
    return ok, "levels 2..12 all start with squares" if ok else f"failed at {failed}"


def cmd_verify(args: argparse.Namespace) -> int:
    p = _hoppings(args)
    perturb = args.perturb_recursion
    if perturb:
        _warn(f"fault injection: recursion perturbed by {perturb:g}")
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("invariant-conservation", lambda: _check_invariant_conservation(p, perturb)),
        ("recursion-vs-cocycle", lambda: _check_recursion_vs_cocycle(p)),
        ("cyclic-traces", lambda: _check_cyclic_traces(p)),
        ("cayley-hamilton", lambda: _check_cayley_hamilton(p)),
        ("square-prefixes", lambda: _check_square_prefixes(p)),
    ]
    lines = []
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
        lines.append(line)
        print(line)
    verdict = "all checks passed" if all_ok else "verification FAILED"
    print(verdict)
    if args.out:
        cfg = _config_payload(args)
        _emit(_config_comments(cfg) + "\n".join(lines + [verdict]) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# -- parser and dispatch -----------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, default_format: str) -> None:
    sp.add_argument("--a", type=float, default=1.0, help="hopping value for letter a")
    sp.add_argument("--b", type=float, default=2.0, help="hopping value for letter b")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL, help="band-edge tolerance")
    sp.add_argument("--out", type=str, default=None, help="output file path")
    sp.add_argument("--format", choices=("json", "csv"), default=None, help="output format")
    sp.add_argument("--threads", type=int, default=1, help="worker threads for grid sweeps")
    sp.add_argument("--config", type=str, default=None, help="flat key = value config file")
    sp.set_defaults(default_format=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Spectral computations for the off-diagonal Fibonacci Jacobi operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bands", help="bands of sigma_k")
    sp.add_argument("--k", type=int, required=True, help="approximant level")
    _add_common(sp, "json")
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("cover", help="bands of cover(k) = sigma_k union sigma_{k+1}")
    sp.add_argument("--k", type=int, required=True, help="cover level")
    _add_common(sp, "json")
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("spectrum", help="escape-time outer approximation")
    sp.add_argument("--kmax", type=int, required=True, help="escape scan depth")
    sp.add_argument("--grid", type=float, required=True, help="energy grid step")
    sp.add_argument("--emin", type=float, default=None, help="window lower edge")
    sp.add_argument("--emax", type=float, default=None, help="window upper edge")
    _add_common(sp, "json")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("lyapunov", help="Lyapunov exponent scan, CSV E,gamma,residual")
    sp.add_argument("--emin", type=float, default=-4.0, help="scan lower edge")
    sp.add_argument("--emax", type=float, default=4.0, help="scan upper edge")
    sp.add_argument("--points", type=int, default=401, help="energy grid points")
    sp.add_argument("--length", type=int, default=2584, help="cocycle length")
    _add_common(sp, "csv")
    sp.set_defaults(func=cmd_lyapunov)

    sp = sub.add_parser("dimension", help="dimension estimates or coupling sweep")
    sp.add_argument("--kmax", type=int, default=14, help="deepest cover level")
    sp.add_argument("--kmin", type=int, default=6, help="shallowest scaling level")
    sp.add_argument("--sweep", type=str, default=None, help="b sweep as start:stop:step")
    _add_common(sp, "csv")
    sp.set_defaults(func=cmd_dimension)

    sp = sub.add_parser("verify", help="invariant and identity self-checks")
    sp.add_argument(
        "--perturb-recursion",
        type=float,
        default=0.0,
        help="fault injection: add this to every recursion step (negative control)",
    )
    _add_common(sp, "json")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("words", help="substitution prefixes and factor counts")
    sp.add_argument("--k", type=int, required=True, help="prefix level")
    sp.add_argument("--complexity", type=int, default=0, help="check factor counts up to this length")
    _add_common(sp, "json")
    sp.set_defaults(func=cmd_words)

    sp = sub.add_parser("eigs", help="eigenvalues of a finite hopping window")
    sp.add_argument("--k", type=int, default=None, help="use the level-k prefix as the window")
    sp.add_argument("--letters", type=str, default=None, help="explicit hopping word over {a, b}")
    sp.add_argument("--repeats", type=int, default=1, help="repeat the window this many times")
    _add_common(sp, "json")
    sp.set_defaults(func=cmd_eigs)

    return parser


def _read_config_file(path: str) -> list[str]:
    """Flat key = value lines to synthetic argv tokens (flags still win)."""
    tokens: list[str] = []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        tokens += [f"--{key.replace('_', '-')}", value]
    return tokens


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice config-file tokens after the subcommand, before explicit flags."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    tokens = _read_config_file(argv[idx + 1])
    return argv[:1] + tokens + argv[1:]


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
    except (OSError, ValueError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError, OverflowError) as exc:
        print(f"{_PROG}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
