"""Per-layer spans, recorded from outside the program.

The layers are the modules of the `fibjacobi` package.  `install` wraps
each public function of each layer module and replaces every binding of
it in every loaded `fibjacobi` module, because the modules import each
other's functions with `from .x import y`: wrapping only
`fibjacobi.tracemap.trace_value` would miss every call made from `bands`.
Private helpers (`_chain`, ...) are never wrapped, so a layer's self time
includes them; nor are the scalar helpers in HOT, whose work per call is
smaller than a span's cost.

A span records its function, start, end, parent span and job id.  Spans
stay in memory and are written out when the run ends.  A layer's self
time is the sum over its spans of duration minus the duration of direct
child spans.  Work counts are computed from each call's arguments and
return value.  Calls, failures and outputs are counted at layer entries:
spans whose parent belongs to another layer, so that a layer calling
itself counts once.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "words", "tracemap", "transfer", "bands", "jacobi", "fractal")

HOT = {
    "tracemap.step",
    "tracemap.step_inverse",
    "tracemap.initial_triple",
    "tracemap.invariant_value",
    "transfer.local_matrix",
    "words.fibonacci",
}

# Span fields, stored as lists to keep recording cheap.
NAME, LAYER, JOB, PARENT, START, END, CHILD, WORK, FAILED, OUTPUT = range(10)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Work done by one call, from its arguments (args, kwargs) and result.
WORK_OF = {
    # energies x level for the recursion; cells x K_max for escape scans
    "tracemap.trace_value": lambda a, kw, r: np.size(_arg(a, kw, 1, "E")) * max(_arg(a, kw, 2, "k"), 0),
    "tracemap.escape_grid": lambda a, kw, r: np.size(_arg(a, kw, 1, "E")) * _arg(a, kw, 2, "K_max"),
    # sites x energies of cocycle products
    "transfer.cocycle": lambda a, kw, r: _arg(a, kw, 3, "n"),
    "transfer.evolve_solution": lambda a, kw, r: _arg(a, kw, 5, "n_max"),
    "transfer.lyapunov_grid": lambda a, kw, r: np.size(_arg(a, kw, 1, "E")) * r[2],
    # sites squared of the O(n^2) bisection eigensolver
    "jacobi.eigenvalues_free": lambda a, kw, r: _arg(a, kw, 0, "j").n_sites ** 2,
    "fractal.box_count": lambda a, kw, r: 1,
}


def _bands_out(result) -> int:
    """Bands in the BandSet(s) a bands-layer call returned."""
    if hasattr(result, "bands") and hasattr(result, "kind"):
        return len(result.bands)
    if isinstance(result, (list, tuple)):
        return sum(_bands_out(x) for x in result)
    return 0


def _letters_out(result) -> int:
    """Letters in the word(s) or window a words-layer call returned."""
    if isinstance(result, str):
        return len(result)
    if hasattr(result, "letters"):
        return len(result.letters)
    if isinstance(result, (list, tuple, set, frozenset)):
        return sum(_letters_out(x) for x in result)
    return 0


OUTPUT_OF = {"bands": _bands_out, "words": _letters_out}


class Tracer:
    """Records spans for calls made while a job is running."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None

    def wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(qual)
        work = WORK_OF.get(qual)
        output = OUTPUT_OF.get(layer)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name_id, layer, self.job, parent, 0.0, 0.0, 0.0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = 1
                raise
            else:
                if work is not None:
                    span[WORK] = int(work(args, kwargs, result))
                if output is not None and (parent < 0 or spans[parent][LAYER] != layer):
                    span[OUTPUT] = output(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                span[START], span[END] = t0, t1
                if parent >= 0:
                    spans[parent][CHILD] += t1 - t0

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, in every module holding it."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "fibjacobi" or name.startswith("fibjacobi.")
        }
        replace = {}
        for layer in LAYERS:
            mod = modules[f"fibjacobi.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and f"{layer}.{name}" not in HOT
                ):
                    replace[id(fn)] = self.wrap(layer, name, fn)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])

    def summary(self) -> dict[str, float]:
        """Per-layer self time, work, entries, failures and outputs."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        work = {}
        entries = dict.fromkeys(LAYERS, 0)
        failed = dict.fromkeys(LAYERS, 0)
        output = dict.fromkeys(LAYERS, 0)
        under_bands = [False] * len(self.spans)
        trace_under_bands = 0
        cocycle_calls = 0
        for i, s in enumerate(self.spans):
            layer, parent = s[LAYER], s[PARENT]
            self_s[layer] += (s[END] - s[START]) - s[CHILD]
            name = self.names[s[NAME]]
            work[name] = work.get(name, 0) + s[WORK]
            cocycle_calls += name == "transfer.cocycle"
            if parent >= 0:
                under_bands[i] = under_bands[parent] or self.spans[parent][LAYER] == "bands"
            if under_bands[i] and layer == "tracemap":
                trace_under_bands += s[WORK]
            if parent < 0 or self.spans[parent][LAYER] != layer:
                entries[layer] += 1
                failed[layer] += s[FAILED]
                output[layer] += s[OUTPUT]

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0.0 else 0.0

        point_levels = work.get("tracemap.trace_value", 0) + work.get("tracemap.escape_grid", 0)
        site_energies = sum(work.get(f"transfer.{f}", 0) for f in ("cocycle", "evolve_solution", "lyapunov_grid"))
        sites2 = work.get("jacobi.eigenvalues_free", 0)
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "bands.calls": entries["bands"],
            "bands.bands_out": output["bands"],
            "bands.point_levels_per_band": rate(trace_under_bands, output["bands"]),
            "bands.failed": failed["bands"],
            "tracemap.point_levels": point_levels,
            "tracemap.point_levels_per_s": rate(point_levels, self_s["tracemap"]),
            "tracemap.failed": failed["tracemap"],
            "fractal.box_counts": work.get("fractal.box_count", 0),
            "fractal.failed": failed["fractal"],
            "transfer.site_energies": site_energies,
            "transfer.site_energies_per_s": rate(site_energies, self_s["transfer"]),
            "transfer.cocycle_calls": cocycle_calls,
            "jacobi.sites2": sites2,
            "jacobi.sites2_per_s": rate(sites2, self_s["jacobi"]),
            "words.letters": output["words"],
            "trace.spans": len(self.spans),
        })
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: function names, then one row per span."""
        fields = ["name", "layer", "job", "parent", "start", "end", "child_s", "work", "failed", "output"]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": fields, "spans": self.spans}, fh)
