"""Seeded job streams for the benchmark workloads.

A job is the argv list one `fibjacobi` invocation receives, without the
`--out` flag, which the worker appends.  A workload is a sequence of
blocks of BLOCK[workload] rounds; a round is a short list of jobs of fixed
composition.  Parameters come from a `random.Random` seeded by the
workload name and the seed, so the same seed always gives the same jobs.

Every parameter is stratified over a block: its values are one draw from
each of n equal strata of its range, dealt out in shuffled order.  The
strata make a block's mix of slow, fast and failing jobs nearly the same
for every seed, which keeps medians over a run from jumping between job
clusters; the draws inside the strata still differ from seed to seed.

Floats are written with repr(), the shortest string that reads back as the
same double, so the program receives exactly the values drawn here.  No
job passes `--threads` (slated for removal) or `--tol` (ignored by the
commands that are not band solvers, and left at its default elsewhere).
"""

from __future__ import annotations

import math
import random
from typing import Iterator

WORKLOADS = ("deep-cover", "sweep", "crosscheck")

# Rounds per stratification block; a run is a whole number of blocks.
BLOCK = {"deep-cover": 4, "sweep": 9, "crosscheck": 8}


def _num(x: float) -> str:
    return repr(float(x))


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points of [0, 1), one uniform draw in each of n equal strata, shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + u * (b - a)) for u in _strata(rng, n)]


def _integers(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers spread evenly over lo..hi inclusive."""
    return [lo + int(u * (hi - lo + 1)) for u in _strata(rng, n)]


def _deep_cover_block(rng: random.Random, n: int) -> list[list[list[str]]]:
    # Each round has one cover per depth, and every other round an escape
    # scan; every job is at a fresh coupling, so no work is shared.  With the
    # k=21 covers as the middle of three clusters of job times, and fewer
    # escape scans than covers on either side of it, the median job stays
    # inside that cluster for every seed.  The ratio range stops at 5 so time
    # goes to deep levels; at seed its top fails with RootIsolationError at
    # k = 21 and 22.  Strong coupling is the sweep's job.
    ratios = {k: _log_uniform(rng, 1.2, 5.0, n) for k in (20, 21, 22)}
    scans = n // 2
    scan_ratios = _log_uniform(rng, 1.2, 5.0, scans)
    scan_depths = _integers(rng, 24, 30, scans)
    block = []
    for i in range(n):
        jobs = [["cover", "--b", _num(ratios[k][i]), "--k", str(k)] for k in (20, 21, 22)]
        if i % 2 == 0 and i // 2 < scans:
            jobs.append(
                ["spectrum", "--b", _num(scan_ratios[i // 2]), "--kmax",
                 str(scan_depths[i // 2]), "--grid", "1e-05"]
            )
        rng.shuffle(jobs)
        block.append(jobs)
    return block


FRESH_PER_ROUND = 6
REPEATS_PER_ROUND = 2


def _sweep_block(rng: random.Random, n: int) -> list[list[list[str]]]:
    # Per round, six fresh ratios over the supported range 1.0001..100, each
    # at its own scale, then two of them again at a second scale a * 2^m.
    # Scaling both hoppings by a power of two keeps b/a bit-identical, so only
    # a solver that keys its cache by the ratio shares work with the first
    # visit.  Each coupling runs dimension, which builds the chain to K + 1,
    # then cover(K) and bands(j < K), which hit bands._chain's cache.
    fresh = FRESH_PER_ROUND * n
    ratios = _log_uniform(rng, 1.0001, 100.0, fresh)
    scales = _log_uniform(rng, 0.1, 10.0, fresh)
    couplings = fresh + REPEATS_PER_ROUND * n
    depths = _integers(rng, 14, 16, couplings)
    below = _integers(rng, 1, 4, couplings)
    block = []
    for i in range(n):
        pairs = [(scales[j], scales[j] * ratios[j])
                 for j in range(i * FRESH_PER_ROUND, (i + 1) * FRESH_PER_ROUND)]
        for a, b in rng.sample(pairs, REPEATS_PER_ROUND):
            m = rng.choice([m for m in (-3, -2, -1, 1, 2, 3) if 0.1 <= a * 2.0**m <= 10.0])
            pairs.append((a * 2.0**m, b * 2.0**m))
        jobs = []
        for a, b in pairs:
            k = depths.pop()
            hop = ["--a", _num(a), "--b", _num(b)]
            jobs += [
                ["dimension", *hop, "--kmax", str(k)],
                ["cover", *hop, "--k", str(k)],
                ["bands", *hop, "--k", str(k - below.pop())],
            ]
        block.append(jobs)
    return block


def _crosscheck_block(rng: random.Random, n: int) -> list[list[list[str]]]:
    ratios = {kind: _log_uniform(rng, 1.2, 5.0, n) for kind in ("lyap", "eigs", "word", "verify")}
    points = _integers(rng, 1001, 2001, n)
    lengths = [(17711, 46368)[j] for j in _integers(rng, 0, 1, n)]
    levels = _integers(rng, 14, 16, n)
    word_lengths = _integers(rng, 3, 12, n)
    sites = _integers(rng, 400, 1200, n)
    word_levels = _integers(rng, 20, 26, n)
    factor_lengths = _integers(rng, 20, 200, n)
    block = []
    for i in range(n):
        r = ratios["lyap"][i]
        # The scan reaches 25% past the norm bound 2 max(a, b) = 2 r, so the
        # output check sees energies where gamma must be clearly positive.
        edge = _num(2.5 * r)
        word = "".join(rng.choice("ab") for _ in range(word_lengths[i]))
        jobs = [
            ["lyapunov", "--b", _num(r), "--emin", "-" + edge, "--emax", edge,
             "--points", str(points[i]), "--length", str(lengths[i])],
            ["eigs", "--b", _num(ratios["eigs"][i]), "--k", str(levels[i])],
            ["eigs", "--b", _num(ratios["word"][i]), "--letters", word,
             "--repeats", str(max(1, sites[i] // len(word)))],
            ["verify", "--b", _num(ratios["verify"][i])],
            ["words", "--k", str(word_levels[i]), "--complexity", str(factor_lengths[i])],
        ]
        rng.shuffle(jobs)
        block.append(jobs)
    return block


_BLOCKS = {
    "deep-cover": _deep_cover_block,
    "sweep": _sweep_block,
    "crosscheck": _crosscheck_block,
}


def rounds(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless rounds of jobs for a workload; the same seed gives the same jobs."""
    make = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield from make(rng, BLOCK[workload])


# A few small jobs per workload that cover every job kind and check, for
# exercising the harness in seconds.  Smoke runs do not time anything.
SMOKE = {
    "deep-cover": [
        ["cover", "--b", "2.0", "--k", "10"],
        ["cover", "--b", "4.7", "--k", "9"],
        ["spectrum", "--b", "1.5", "--kmax", "12", "--grid", "0.001"],
    ],
    "sweep": [
        ["dimension", "--a", "0.5", "--b", "1.0", "--kmax", "14"],
        ["cover", "--a", "0.5", "--b", "1.0", "--k", "14"],
        ["bands", "--a", "0.5", "--b", "1.0", "--k", "12"],
        ["dimension", "--a", "2.0", "--b", "4.0", "--kmax", "14"],
    ],
    "crosscheck": [
        ["lyapunov", "--b", "1.5", "--emin", "-3.75", "--emax", "3.75",
         "--points", "101", "--length", "987"],
        ["eigs", "--b", "2.0", "--k", "9"],
        ["eigs", "--b", "1.3", "--letters", "abb", "--repeats", "20"],
        ["verify", "--b", "2.0"],
        ["words", "--k", "12", "--complexity", "12"],
    ],
}
