"""Dimension estimators: box counting, band scaling, local windows, sweeps.

Oracles: the middle-thirds set at triadic scales has exactly 2^j boxes of
size 3^-j, so the box fit must return log 2 / log 3 with r^2 = 1; an
interval must read as dimension 1 and a point as dimension 0.  The
strong-coupling values are cross-checked between the two independent
estimators rather than against any external number.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fibjacobi import bands as bands_module
from fibjacobi import fractal
from fibjacobi.bands import BandSet, cover, sigma_chain
from fibjacobi.fractal import (
    DimensionEstimate,
    SweepEntry,
    band_scaling_dimension,
    box_count,
    box_dimension,
    dimension_sweep,
    eps_ladder,
    local_dimension,
)
from fibjacobi.tracemap import HoppingPair

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def middle_thirds(levels: int) -> BandSet:
    ivs = [(0.0, 1.0)]
    for _ in range(levels):
        ivs = [seg for lo, hi in ivs for seg in ((lo, lo + (hi - lo) / 3.0), (hi - (hi - lo) / 3.0, hi))]
    return BandSet(*np.array(ivs).T, "cover", levels, HoppingPair(1.0, 1.0), 1e-12)


def point_set(x: float) -> BandSet:
    return BandSet([x], [x], "cover", 1, HoppingPair(1.0, 1.0), 1e-12)


def test_estimate_validation():
    scales = ((0, 2, 0.5),)
    with pytest.raises(ValueError):
        DimensionEstimate(1.2, "box-fit", 1.0, scales)
    with pytest.raises(ValueError):
        DimensionEstimate(0.5, "slope", 1.0, scales)
    with pytest.raises(ValueError):
        DimensionEstimate(0.5, "box-fit", 1.5, scales)
    with pytest.raises(ValueError):
        DimensionEstimate(0.5, "box-fit", 1.0, ())


def test_box_count_examples():
    bands = ([0.0], [1.0])
    assert box_count(*bands, 0.25) == 4
    assert box_count(*bands, 1.0) == 1
    assert box_count([0.7], [0.7], 0.1) == 1
    # Two bands inside one box are counted once.
    assert box_count([0.1, 0.3], [0.2, 0.4], 1.0) == 1
    assert box_count([], [], 0.5) == 0
    with pytest.raises(ValueError):
        box_count(*bands, 0.0)


@pytest.mark.parametrize(
    "lo, hi, eps, match",
    [
        ([math.nan], [1.0], 0.1, "invalid interval"),
        ([0.0], [math.inf], 0.1, "invalid interval"),
        ([1.0], [0.0], 0.1, "invalid interval"),
        ([0.0, 0.5], [1.0, 2.0], 0.1, "disjoint and sorted"),
        ([0.0], [1e300], 1e-300, r"2\^62"),
    ],
)
def test_box_count_rejects_what_it_would_miscount(lo, hi, eps, match):
    # Each once gave a wrong count: a huge negative one, 1 box, or 24 where
    # the union of the overlapping bands meets 20.
    with pytest.raises(ValueError, match=match):
        box_count(lo, hi, eps)


def test_box_count_grid_aligned_cantor():
    cs = middle_thirds(8)
    counts = [box_count(cs.lo, cs.hi, 3.0 ** -j) for j in range(1, 8)]
    assert counts == [2, 4, 8, 16, 32, 64, 128]


def test_cantor_fixture_dimension():
    cs = middle_thirds(8)
    est = box_dimension([cs], [3.0 ** -j for j in range(1, 8)])
    assert est.method == "box-fit"
    assert abs(est.value - LOG2_OVER_LOG3) <= 0.02
    assert est.r_squared >= 0.999
    assert not est.clamped and not est.degenerate
    assert len(est.scales_used) == 7


def test_box_dimension_interval_reads_one():
    p = HoppingPair(1.0, 1.0)
    covers = [cover(p, 7), cover(p, 8)]
    est = box_dimension(covers, np.geomspace(1.0, 1e-3, 10))
    assert abs(est.value - 1.0) <= 0.05


def test_box_dimension_point_reads_zero():
    est = box_dimension([point_set(0.7)], np.geomspace(1.0, 1e-4, 8))
    assert est.value <= 0.05
    assert est.r_squared == 1.0


def test_box_dimension_scale_validation():
    cs = middle_thirds(8)
    with pytest.raises(ValueError, match="insufficient scale span"):
        box_dimension([cs], [0.3, 0.1, 0.03])
    with pytest.raises(ValueError, match="insufficient scale span"):
        box_dimension([cs], [0.3, 0.2, 0.1, 0.05])
    # Scales below the cover resolution are clipped, and clipping that
    # destroys the span is an error, not a silent bad fit.
    with pytest.raises(ValueError, match="insufficient scale span"):
        box_dimension([cs], np.geomspace(1e-3, 1e-5, 8))
    with pytest.raises(ValueError):
        box_dimension([], [0.3, 0.1, 0.03, 0.01])
    empty = BandSet([], [], "cover", 1, HoppingPair(1.0, 1.0), 1e-12)
    for covers in ([empty], [cs, "cover"]):
        with pytest.raises(ValueError, match="covers must be nonempty BandSet instances"):
            box_dimension(covers, [0.3, 0.1, 0.03, 0.01])
    for eps in ([], [0.3, 0.1, 0.0], [0.3, -0.1], [math.inf, 0.1], [math.nan, 0.1]):
        with pytest.raises(ValueError, match="box sizes must be positive and finite"):
            box_dimension([cs], eps)
    # One band of length 0.5 among 99 of length 1e-6: boxes down to twice
    # the mean band length span two decades, but the smallest is shorter
    # than the long band.
    lo = np.concatenate(([0.0], np.linspace(0.6, 1.0, 99)))
    lopsided = BandSet(lo, lo + np.concatenate(([0.5], np.full(99, 1e-6))), "cover", 1,
                       HoppingPair(1.0, 1.0), 1e-12)
    with pytest.raises(ValueError, match="smallest box 0.0101 is below the finest cover's longest band 0.5"):
        box_dimension([lopsided], np.geomspace(2.0, 0.0101, 8))


def test_box_dimension_clips_sub_resolution_scales():
    cs = middle_thirds(8)
    ladder = [3.0 ** -j for j in range(1, 8)] + [1e-5]
    est = box_dimension([cs], ladder)
    assert len(est.scales_used) == 7
    assert min(e for _, _, e in est.scales_used) >= 2.0 * 3.0 ** -8
    assert abs(est.value - LOG2_OVER_LOG3) <= 0.02
    assert box_dimension([cs], ladder[::-1] + ladder) == est


def test_dimension_leaves_numpy_ma_unloaded():
    # np.unique without return_index or return_inverse imports numpy.ma on
    # its first call, about 10 ms of every `fibjacobi dimension` run.
    code = (
        "import sys\nfrom fibjacobi.cli import main\n"
        "assert main(['dimension']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_band_scaling_strong_coupling():
    est = band_scaling_dimension(HoppingPair(1.0, 2.0), 6, 14)
    assert est.method == "band-scaling"
    assert 0.05 < est.value < 0.99
    assert abs(est.value - 0.6686) <= 0.02
    assert est.r_squared >= 0.999
    assert not est.degenerate
    ks = [k for k, _, _ in est.scales_used]
    counts = [n for _, n, _ in est.scales_used]
    geos = [g for _, _, g in est.scales_used]
    assert ks == list(range(6, 15))
    assert counts == sorted(counts) and counts[0] < counts[-1]
    assert geos == sorted(geos, reverse=True)


def test_band_scaling_free_case_degenerate():
    est = band_scaling_dimension(HoppingPair(1.0, 1.0), 6, 14)
    assert est.degenerate
    assert est.value == 1.0
    assert est.r_squared == 0.0


def test_band_scaling_scales_no_band_set(monkeypatch):
    # cover builds and scales what the fit reads; at a outside [1, 2) no
    # sigma_chain band sets are scaled only to be discarded: every set
    # _rescale sees is a cover.
    calls = []
    real = bands_module._rescale
    monkeypatch.setattr(bands_module, "_rescale", lambda *args: calls.append(args) or real(*args))
    est = band_scaling_dimension(HoppingPair(0.75, 1.5), 6, 12)
    assert calls and all(bs.kind == "cover" for bs, _, _ in calls)
    assert 0.0 < est.value < 1.0


def test_band_scaling_refuses_a_cover_without_positive_lengths(monkeypatch):
    # Bands of zero length have no geometric mean length to fit.
    def point_cover(p, k, tol):
        return BandSet([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], "cover", k, p, tol)

    monkeypatch.setattr(fractal, "cover", point_cover)
    with pytest.raises(ValueError, match=r"cover\(6\) has no bands of positive length"):
        band_scaling_dimension(HoppingPair(1.0, 2.0), 6, 12)


def test_band_scaling_level_validation():
    p = HoppingPair(1.0, 2.0)
    with pytest.raises(ValueError):
        band_scaling_dimension(p, 6, 21)
    with pytest.raises(ValueError):
        band_scaling_dimension(p, 12, 14)
    with pytest.raises(ValueError):
        band_scaling_dimension(p, 0, 14)


def test_estimators_agree_strong_coupling():
    p = HoppingPair(1.0, 2.0)
    scaling = band_scaling_dimension(p, 6, 14)
    covers = [cover(p, 13), cover(p, 14)]
    box = box_dimension(covers, eps_ladder(covers))
    assert 0.05 < box.value < 0.99
    assert abs(box.value - scaling.value) <= 0.05
    assert box.r_squared >= 0.99


def test_weaker_coupling_reads_higher_dimension():
    weak = band_scaling_dimension(HoppingPair(1.0, 1.05), 6, 14)
    strong = band_scaling_dimension(HoppingPair(1.0, 2.0), 6, 14)
    assert weak.value > strong.value
    assert 0.05 < weak.value < 0.99


def test_local_dimension_free_window_reads_one():
    est = local_dimension(HoppingPair(1.0, 1.0), 0.0, 0.5, k_max=8)
    assert abs(est.value - 1.0) <= 0.05


def test_local_dimension_strong_coupling_center():
    p = HoppingPair(1.0, 2.0)
    covers = [cover(p, 13), cover(p, 14)]
    glob = box_dimension(covers, eps_ladder(covers))
    loc = local_dimension(p, 0.0, 0.5, k_max=14)
    assert 0.05 < loc.value < 0.99
    assert abs(loc.value - glob.value) <= 0.1


def test_local_matches_global_at_five_centers():
    # Self-similarity probe at weak coupling: windows around five spread-out
    # band midpoints read the same dimension as the whole cover.
    p = HoppingPair(1.0, 1.2)
    covers = [cover(p, 19), cover(p, 20)]
    glob = box_dimension(covers, eps_ladder(covers))
    mids = [(lo + hi) / 2.0 for lo, hi in cover(p, 14).bands.tolist()]
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        center = mids[int(q * (len(mids) - 1))]
        loc = local_dimension(p, center, 0.3, k_max=20)
        assert abs(loc.value - glob.value) <= 0.1


def test_local_dimension_window_outside_spectrum():
    with pytest.raises(ValueError, match="does not intersect"):
        local_dimension(HoppingPair(1.0, 2.0), 5.0, 0.1, k_max=10)


@pytest.mark.parametrize(
    "center, delta, k_max, match",
    [
        (math.nan, 0.1, 10, "need a finite window"),
        (0.0, math.inf, 10, "need a finite window"),
        (0.0, 0.0, 10, "need a finite window"),
        (0.0, -0.1, 10, "need a finite window"),
        (0.0, 0.1, 1, "k_max must be at least 2, got 1"),
    ],
)
def test_local_dimension_input_validation(center, delta, k_max, match):
    with pytest.raises(ValueError, match=match):
        local_dimension(HoppingPair(1.0, 2.0), center, delta, k_max=k_max)


def test_local_dimension_window_too_narrow():
    # At k_max = 14 the (1, 1.2) bands are too long for a 0.3-window ladder.
    with pytest.raises(ValueError, match="insufficient scale span"):
        local_dimension(HoppingPair(1.0, 1.2), 0.0, 0.3, k_max=14)


def test_sweep_values_and_trend():
    bs = [1.05, 1.2, 1.5, 2.0, 3.0]
    entries = dimension_sweep(1.0, bs, k_max=14)
    assert [e.b for e in entries] == bs
    vals = []
    for e in entries:
        assert e.error is None
        assert math.isfinite(e.invariant_expected) and e.invariant_expected > 0.0
        assert 0.05 < e.estimate.value < 0.99
        vals.append(e.estimate.value)
    assert vals == sorted(vals, reverse=True)
    assert vals[0] - vals[-1] >= 0.3


def test_sweep_collects_errors_and_continues():
    entries = dimension_sweep(1.0, [2.0, -1.0, 1.5], k_max=14)
    assert entries[0].error is None and entries[2].error is None
    assert entries[1].estimate is None
    assert entries[1].error
    assert math.isnan(entries[1].invariant_expected)


def test_sweep_equal_hoppings_degenerate():
    entries = dimension_sweep(1.0, [1.0], k_max=14)
    assert entries[0].estimate.degenerate
    assert entries[0].estimate.value == 1.0
    assert entries[0].invariant_expected == pytest.approx(0.0, abs=1e-12)


def test_sweep_rejects_options_no_coupling_accepts():
    with pytest.raises(ValueError, match="tol must be a positive finite number, got nan"):
        dimension_sweep(1.0, [2.0], k_max=14, tol=math.nan)
    with pytest.raises(ValueError, match="got \\[6, 21\\]"):
        dimension_sweep(1.0, [], k_max=21)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_sweep_refuses_a_hopping_no_coupling_accepts(a):
    # Refused before the first row, even for an empty sweep.
    for b_values in ([2.0, 3.0], []):
        with pytest.raises(ValueError, match=f"hopping a must be a positive finite real, got {a!r}"):
            dimension_sweep(a, b_values, k_max=14)


def test_sweep_empty():
    assert dimension_sweep(1.0, [], k_max=14) == []


def test_estimates_stay_in_unit_interval():
    for a, b in [(1.0, 1.05), (1.0, 3.0), (2.0, 0.5), (1.7, 1.7)]:
        est = band_scaling_dimension(HoppingPair(a, b), 6, 12)
        assert 0.0 <= est.value <= 1.0
