"""Command-line front end: reproducible runs, JSON/CSV output, self-checks.

Every command resolves its parameters from defaults, then an optional flat
key = value config file, then command-line flags (flags win).  The resolved
configuration is embedded in every output file, JSON under a "config" key
and CSV as leading '# key=value' comment lines, so a result file identifies
the run that produced it.  Identical configurations produce byte-identical
files: no timestamps, no environment lookups, fixed seeds.

Exit codes: 0 success, 2 invalid usage or parameters (a run out of memory
included), 3 numerical failure.

Start-up imports neither numpy nor a layer module: each command, each
verify check and the output writer import what they call when they run.
So building the parser, --help and a usage error load none of them, and
a run loads only the layers of its command.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ._defaults import DEFAULT_TOL

if TYPE_CHECKING:
    import numpy as np

    from .tracemap import HoppingPair

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PROG = "fibjacobi"


def _warn(msg: str) -> None:
    print(f"{_PROG}: warning: {msg}", file=sys.stderr)


def _write(
    args: argparse.Namespace,
    summary: Iterable[str],
    result: Callable[[], dict] | None,
    lines: Callable[[], str] | None = None,
) -> None:
    """Write a command's output, with the resolved config, to --out or stdout.

    The output is the JSON payload {"config", "result"} or, in CSV format or
    for a command with only lines, '# key=value' config comments and then the
    text lines() returns, whole lines; only the form written is built.  The
    format is --format, else the command's default; a command without a
    default (verify, words) writes only when --format or --out asks for it.
    The summary lines go to stdout, ahead of the output there, or once the
    --out file is written, so a run whose write fails prints no result.
    """
    stdout = "".join(f"{line}\n" for line in summary)
    fmt = getattr(args, "format", None) or args.default_format
    if fmt or args.out:
        cfg = {k: v for k, v in sorted(vars(args).items()) if v is not None and k != "default_format"}
        if lines is None or fmt == "json":
            payload = {"config": cfg, "result": result()}
            # No array exists while numpy is not loaded, and on an array-free
            # payload _floatjson.dumps is json.dumps, so words loads no numpy.
            if "numpy" in sys.modules:
                from ._floatjson import dumps
            else:
                from json import dumps
            text = dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        else:
            text = "".join(f"# {k}={v}\n" for k, v in cfg.items()) + lines()
        if args.out:
            Path(args.out).write_text(text)
        else:
            stdout += text
    sys.stdout.write(stdout)


def _table(header: str, row: str, rows: Sequence[tuple]) -> str:
    """CSV text: the header line, then each of rows by the printf format row."""
    return f"{header}\n" + (row + "\n") * len(rows) % tuple(itertools.chain.from_iterable(rows))


def _hoppings(args: argparse.Namespace) -> HoppingPair:
    from .tracemap import HoppingPair

    p = HoppingPair(args.a, args.b)
    if args.a == args.b:
        _warn("a = b: degenerate hull, the spectrum is the single free band")
    return p


# -- band-set commands -------------------------------------------------------


def _emit_bandset(args: argparse.Namespace, bs, label: str) -> int:
    from .bands import bandset_to_dict, lebesgue_measure

    _write(
        args,
        [f"{label}: {bs.lo.size} bands, measure {lebesgue_measure(bs):.12g}"],
        lambda: bandset_to_dict(bs),
        lambda: _table(
            "band,lo,hi", "%d,%.17g,%.17g", [(i, lo, hi) for i, (lo, hi) in enumerate(bs.bands.tolist())]
        ),
    )
    return EXIT_OK


def cmd_bands(args: argparse.Namespace) -> int:
    from .bands import sigma_k

    p = _hoppings(args)
    return _emit_bandset(args, sigma_k(p, args.k, args.tol), f"sigma_{args.k}")


def cmd_cover(args: argparse.Namespace) -> int:
    from .bands import cover

    p = _hoppings(args)
    return _emit_bandset(args, cover(p, args.k, args.tol), f"cover({args.k})")


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .bands import escape_spectrum

    p = _hoppings(args)
    bs = escape_spectrum(p, args.kmax, args.grid)
    return _emit_bandset(args, bs, f"escape({args.kmax})")


# -- scans -------------------------------------------------------------------


def cmd_lyapunov(args: argparse.Namespace) -> int:
    import numpy as np

    from .transfer import lyapunov_grid

    p = _hoppings(args)
    if not all(map(math.isfinite, (args.emin, args.emax, args.emax - args.emin))):
        raise ValueError(f"energy window [{args.emin}, {args.emax}] must have finite bounds and width")
    if not (args.emax > args.emin):
        raise ValueError(f"empty energy window [{args.emin}, {args.emax}]")
    if args.points < 2:
        raise ValueError(f"need at least 2 grid points, got {args.points}")
    energies = np.linspace(args.emin, args.emax, args.points)
    gamma, residual, _ = lyapunov_grid(p, energies, args.length)
    summary = [
        f"lyapunov: {args.points} energies in [{args.emin:g}, {args.emax:g}], "
        f"gamma in [{gamma.min():.6g}, {gamma.max():.6g}]"
    ]
    columns = (energies, gamma, residual)
    _write(
        args,
        summary,
        lambda: dict(zip(("E", "gamma", "residual"), columns)),
        lambda: _table("E,gamma,residual", "%.17g,%.17g,%.17g", list(zip(*(c.tolist() for c in columns)))),
    )
    return EXIT_OK


# Each coupling of a sweep solves its own band chain, so a range with more
# couplings than this is a mistyped step, not a dimension curve: it is
# refused before its list of couplings is built.
_SWEEP_MAX = 10_000


def _parse_sweep(arg: str) -> list[float]:
    parts = arg.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep range must be start:stop:step, got {arg!r}")
    bounds = [float(x) for x in parts]
    for name, value in zip(("start", "stop", "step"), bounds):
        if not math.isfinite(value):
            raise ValueError(f"sweep range must have a finite {name}, got {arg!r}")
    start, stop, step_ = bounds
    if step_ <= 0 or stop < start:
        raise ValueError(f"sweep range must have stop >= start and step > 0, got {arg!r}")
    span = (stop - start) / step_ + 1e-9
    if span >= _SWEEP_MAX:  # floor(span) + 1 couplings
        count = math.floor(span) + 1 if span < math.inf else span
        raise ValueError(f"sweep range has {count:.15g} couplings, more than {_SWEEP_MAX}, got {arg!r}")
    return [float(f"{start + i * step_:.12g}") for i in range(math.floor(span) + 1)]


def cmd_dimension(args: argparse.Namespace) -> int:
    from .bands import cover
    from .fractal import band_scaling_dimension, box_dimension, dimension_sweep, eps_ladder

    # rows: (b, estimate or None, JSON keys of the row besides the estimate's).
    if args.sweep:
        entries = dimension_sweep(args.a, _parse_sweep(args.sweep), args.kmax, args.tol, args.kmin)
        for e in entries:
            if e.error:
                _warn(f"b = {e.b:g}: {e.error}")
        fitted = [e for e in entries if e.estimate is not None]
        summary = [
            f"dimension sweep: {len(fitted)} couplings, values "
            f"{fitted[0].estimate.value:.4f} ({fitted[0].b:g}) -> "
            f"{fitted[-1].estimate.value:.4f} ({fitted[-1].b:g})"
        ] if fitted else []
        rows = [(e.b, e.estimate, {"error": e.error}) for e in entries]
    else:
        p = _hoppings(args)
        scaling = band_scaling_dimension(p, args.kmin, args.kmax, args.tol)
        if scaling.degenerate:
            _warn("degenerate band scaling (equal hoppings): value 1 by convention")
        covers = [cover(p, args.kmax - 1, args.tol), cover(p, args.kmax, args.tol)]
        box = box_dimension(covers, eps_ladder(covers))
        summary = [
            f"dimension: band-scaling {scaling.value:.4f} (r2 {scaling.r_squared:.4f}), "
            f"box-fit {box.value:.4f} (r2 {box.r_squared:.4f})"
        ]
        rows = [(args.b, est, {"clamped": est.clamped}) for est in (scaling, box)]
    json_rows = [
        {"b": b, "dim_value": est and est.value, "method": est.method if est else "error",
         "r_squared": est and est.r_squared, "degenerate": bool(est and est.degenerate), **extra}
        for b, est, extra in rows
    ]
    _write(
        args,
        summary,
        lambda: {"k_max": args.kmax, "tol": args.tol, "rows": json_rows},
        lambda: _table(
            "b,dim_value,method,r_squared,k_max,tol",
            "%.10g,%.10g,%s,%.10g,%d,%.10g",
            [
                (b, math.nan, "error", math.nan, args.kmax, args.tol) if est is None
                else (b, est.value, est.method, est.r_squared, args.kmax, args.tol)
                for b, est, _ in rows
            ],
        ),
    )
    return EXIT_OK


# -- words and eigenvalues ---------------------------------------------------


def cmd_words(args: argparse.Namespace) -> int:
    from .words import factor_complexity, fib_prefix

    counts = factor_complexity(args.complexity)
    prefix = fib_prefix(args.k)
    shown = prefix if len(prefix) <= 64 else prefix[:61] + "..."
    summary = [f"level {args.k}: length {len(prefix)}  {shown}"]
    summary += [f"factors of length {length}: {count}" for length, count in enumerate(counts, 1)]
    complexity = {str(length): count for length, count in enumerate(counts, 1)}
    result = {"k": args.k, "length": len(prefix), "prefix": prefix, "complexity": complexity}
    _write(args, summary, lambda: result)
    return EXIT_OK


def cmd_eigs(args: argparse.Namespace) -> int:
    from .jacobi import build_window, eigenvalues_free, eigenvalues_to_dict
    from .words import fib_prefix, periodize

    p = _hoppings(args)
    if (args.k is None) == (args.letters is None):
        raise ValueError("give exactly one of --k or --letters")
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    word = fib_prefix(args.k) if args.k is not None else args.letters
    # periodize checks the letters, and their count against the cap before building them.
    win = build_window(periodize(word, len(word) * args.repeats), p)
    eig = eigenvalues_free(win)
    vals = eig.values
    _write(
        args,
        [f"eigs: {vals.size} eigenvalues in [{vals[0]:.6g}, {vals[-1]:.6g}]"],
        lambda: eigenvalues_to_dict(eig),
        lambda: _table("index,value", "%d,%.17g", list(enumerate(vals.tolist()))),
    )
    return EXIT_OK


# -- verification suite ------------------------------------------------------


def _check_invariant_conservation(p: HoppingPair, perturb: float) -> tuple[bool, str]:
    import numpy as np

    from .tracemap import invariant_expected, trace_value

    expected = invariant_expected(p)
    worst = 0.0
    samples = 0
    energies = np.linspace(-8.0, 8.0, 41)
    for x, y, z in zip(*(trace_value(p, energies, j).tolist() for j in (1, 0, -1))):
        for _ in range(40):
            x, y, z = 2.0 * x * y - z + perturb, x, y
            if max(abs(x), abs(y), abs(z)) > 1e3:
                break
            drift = abs(x * x + y * y + z * z - 2 * x * y * z - 1.0 - expected)
            rel = drift / (1.0 + expected)
            worst = rel if math.isnan(rel) else max(worst, rel)  # max() drops a NaN
            samples += 1
    if not samples:
        return False, "nothing checked: every orbit passed 1e3 at its first step"
    ok = worst <= 1e-9
    return ok, f"max relative drift {worst:.3e} over 41 energies, 40 levels"


def _worst_relative(worst: float, got: np.ndarray, want: np.ndarray) -> float:
    """Largest of worst and every |got - want| / max(1, |want|), NaNs skipped as Python's max skips them."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        rel = np.abs(got - want) / np.fmax(1.0, np.abs(want))
    return float(np.fmax.reduce(rel, axis=None, initial=worst))


def _check_recursion_vs_cocycle(p: HoppingPair) -> tuple[bool, str]:
    """Half-traces of the hull cocycle over 1..F_k against the trace recursion x_k, k = 2..12.

    One cocycles pass gives every prefix at 17 energies; each level's row
    of the table is read as arrays by trace_halves.
    """
    import numpy as np

    from .tracemap import finite_traces
    from .transfer import CocycleRangeError, cocycles, trace_halves
    from .words import fibonacci, omega_s

    energies = np.linspace(-4.0, 4.0, 17) + 0.05
    # The prefix of length F_k carries the level-k half-trace.
    levels = range(2, 13)
    lengths = [fibonacci(k) for k in levels]
    try:
        table = cocycles([omega_s(1, lengths[-1])], p, energies, lengths)[:, :, 0]
    except CocycleRangeError as exc:
        # Name the level whose prefix first reaches the failing position.
        k = next(k for k, n in zip(levels, lengths) if n >= exc.position)
        raise ArithmeticError(f"{exc}, level {k} (F_{k} = {fibonacci(k)})") from None
    worst = 0.0
    for k, rows in zip(levels, table):
        # Level by level, so a diverged recursion is named before a later
        # level's half-traces leave double range.
        want = finite_traces(p, energies, k)
        worst = _worst_relative(worst, trace_halves(rows), want)
    ok = worst <= 1e-9
    return ok, f"max relative error {worst:.3e}, levels 2..12"


def _check_cyclic_traces(p: HoppingPair) -> tuple[bool, str]:
    """Half-traces over every rotation of S^k(a) against x_{k+1}, k = 2..8.

    Per level, one cocycles pass multiplies every rotation at 20 energies
    as one stacked (2, 2, rotations, energies) product, read by
    trace_halves.
    """
    import numpy as np

    from .tracemap import finite_traces
    from .transfer import cocycles, trace_halves
    from .words import cyclic_conjugates, periodize

    energies = np.linspace(-3.0, 3.0, 20) + 0.037
    worst = 0.0
    for k in range(2, 9):
        want = finite_traces(p, energies, k + 1)
        words = cyclic_conjugates(k)
        windows = [periodize(word, len(word)) for word in words]
        prods = cocycles(windows, p, energies, [len(words[0])])[0]
        worst = _worst_relative(worst, trace_halves(prods), want)
    ok = worst <= 1e-9
    return ok, f"max relative spread {worst:.3e} over all conjugates, levels 2..8"


def _check_cayley_hamilton(p: HoppingPair) -> tuple[bool, str]:
    """Largest Cayley-Hamilton defect over the level-k squares, k = 2..9, at 10 energies.

    One cocycles pass records M(n) and M(2n) for every level, over the
    special hull element, which starts with the square at each of them
    (the square-prefixes check).  Where that pass leaves double range, it
    may do so at a later level's position than the first level that fails:
    then each level is one cayley_hamilton_defect call, in order, and the
    check fails with the first failing level's error.
    """
    import numpy as np

    from .transfer import CocycleRangeError, _square_defects, cayley_hamilton_defect, cocycles
    from .words import omega_s, square_prefix_block

    levels = range(2, 10)
    halves = [square_prefix_block(k) for k in levels]
    w = omega_s(1, 2 * halves[-1])
    energies = np.linspace(-4.0, 4.0, 10) + 0.013
    lengths = sorted({*halves, *(2 * n for n in halves)})
    try:
        table = cocycles([w], p, energies, lengths)[:, :, 0]
    except CocycleRangeError:
        table = None
    worst = 0.0
    for k, n in zip(levels, halves):
        if table is None:
            defects = cayley_hamilton_defect(w, p, energies, k)
        else:
            half, full = table[lengths.index(n)], table[lengths.index(2 * n)]
            defects = _square_defects(p, energies, k, half, full)
        worst = max(worst, *defects)
    ok = worst <= 1e-8
    return ok, f"max defect {worst:.3e}, levels 2..9"


def _check_square_prefixes(p: HoppingPair) -> tuple[bool, str]:
    from .words import omega_s, square_prefix_block, square_prefix_check

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
        # A check that leaves double range fails with the error's message,
        # and the remaining checks still run.
        try:
            ok, detail = fn()
        except ArithmeticError as exc:
            print(f"{_PROG}: numerical failure: {exc}", file=sys.stderr)
            ok, detail = False, str(exc)
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not args.out:
            print(lines[-1])
    lines.append("all checks passed" if all_ok else "verification FAILED")
    _write(args, lines if args.out else lines[-1:], None, lambda: "".join(f"{line}\n" for line in lines))
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# -- parser and dispatch -----------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, fmt: str | None, tol=False, hoppings=True) -> None:
    """Register the options a subcommand reads; --format only with a default format fmt."""
    if hoppings:
        sp.add_argument("--a", type=float, default=1.0, help="hopping value for letter a")
        sp.add_argument("--b", type=float, default=2.0, help="hopping value for letter b")
    if tol:
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL, help="band-edge tolerance")
    sp.add_argument("--out", type=str, default=None, help="output file path")
    if fmt:
        sp.add_argument("--format", choices=("json", "csv"), default=None, help="output format")
    sp.set_defaults(default_format=fmt)
    sp.add_argument("--config", type=str, default=None, help="flat key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Spectral computations for the off-diagonal Fibonacci Jacobi operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options are spelled out in full: an abbreviation such as --conf would
    # escape the config-file splice, which matches --config by name.
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add("bands", help="bands of sigma_k")
    sp.add_argument("--k", type=int, required=True, help="approximant level")
    _add_common(sp, "json", tol=True)

    sp = add("cover", help="bands of cover(k) = sigma_k union sigma_{k+1}")
    sp.add_argument("--k", type=int, required=True, help="cover level")
    _add_common(sp, "json", tol=True)

    sp = add("spectrum", help="grid cells an escape scan keeps (not an outer approximation)")
    sp.add_argument("--kmax", type=int, required=True, help="escape scan depth")
    sp.add_argument("--grid", type=float, required=True, help="energy grid step")
    _add_common(sp, "json")

    sp = add("lyapunov", help="Lyapunov exponent scan, CSV E,gamma,residual")
    sp.add_argument("--emin", type=float, default=-4.0, help="scan lower edge")
    sp.add_argument("--emax", type=float, default=4.0, help="scan upper edge")
    sp.add_argument("--points", type=int, default=401, help="energy grid points")
    sp.add_argument("--length", type=int, default=2584, help="cocycle length")
    _add_common(sp, "csv")

    sp = add("dimension", help="dimension estimates or coupling sweep")
    sp.add_argument("--kmax", type=int, default=14, help="deepest cover level")
    sp.add_argument("--kmin", type=int, default=6, help="shallowest scaling level")
    sp.add_argument("--sweep", type=str, default=None, help="b sweep as start:stop:step")
    _add_common(sp, "csv", tol=True)

    sp = add("verify", help="invariant and identity self-checks")
    sp.add_argument(
        "--perturb-recursion",
        type=float,
        default=0.0,
        help="fault injection: add this to every recursion step (negative control)",
    )
    _add_common(sp, None)

    sp = add("words", help="substitution prefixes and factor counts")
    sp.add_argument("--k", type=int, required=True, help="prefix level")
    sp.add_argument("--complexity", type=int, default=0, help="check factor counts up to this length")
    sp.add_argument("--format", choices=("json",), default=None, help="output format")
    _add_common(sp, None, hoppings=False)

    sp = add("eigs", help="eigenvalues of a finite hopping window")
    sp.add_argument("--k", type=int, default=None, help="use the level-k prefix as the window")
    sp.add_argument("--letters", type=str, default=None, help="explicit hopping word over {a, b}")
    sp.add_argument("--repeats", type=int, default=1, help="repeat the window this many times")
    _add_common(sp, "json")

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
    """Splice config-file tokens after the subcommand, before explicit flags.

    The file read is the one argparse records: the last --config PATH or
    --config=PATH.  The parser refuses abbreviations such as --conf.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 == len(argv):
                raise ValueError("--config needs a file path")
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.removeprefix("--config=")
    if path is None:
        return argv
    return argv[:1] + _read_config_file(path) + argv[1:]


# One parser per process: parsing leaves it unchanged, and building it
# costs about as much as a small command.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
    except (OSError, ValueError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # Looked up at each call, so a cmd_* rebound after import is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError, OverflowError) as exc:
        print(f"{_PROG}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"{_PROG}: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
