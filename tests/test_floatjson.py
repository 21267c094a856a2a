"""The vectorized JSON float encoder against json.dumps, byte for byte.

_floatjson.encode must give exactly json.dumps(a.tolist()) for every
float64 array it takes, in both separator forms the package writes; the
band-set and eigenvalue writers and the CLI route their arrays through it.
"""

import json

import numpy as np
import pytest

from fibjacobi import _floatjson
from fibjacobi.bands import bandset_to_dict, bandset_to_json, cover
from fibjacobi.jacobi import build_window, eigenvalues_free, eigenvalues_to_json
from fibjacobi.tracemap import HoppingPair
from fibjacobi.words import fib_prefix

SEPARATORS = (",", ", ")


def assert_same_text(a, seps=SEPARATORS):
    # A float's repr holds no comma, so the two forms differ only at separators.
    plain = json.dumps(a.tolist(), separators=(",", ":"))
    for sep in seps:
        want = plain.replace(",", sep)
        got = _floatjson.encode(a, sep)
        if got != want:
            diff = [(w, g) for w, g in zip(want.split(sep), got.split(sep)) if w != g]
            pytest.fail(f"separator {sep!r}: first differing elements {diff[:5]}")


def special_values():
    tiny = 1e-4
    return np.array(
        [
            0.0, -0.0, tiny, -tiny, np.nextafter(tiny, 0), np.nextafter(tiny, 1),
            np.nextafter(1e16, 0), -np.nextafter(1e16, 0), 1e16, 9999999999999998.0,
            5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
            0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3, 1.5, 100.0, 123456789.0,
            0.999999999999999, 0.9999999999999999, 1e15, 1e15 + 0.5, 4e-10, 1e-10,
        ]
        + [2.0**e for e in range(-40, 60, 3)]
        + [-(2.0**e) for e in range(-40, 60, 7)]
    )


@pytest.mark.parametrize("sep", SEPARATORS)
def test_random_bit_patterns(sep):
    # Every exponent, sign, subnormals, infinities and NaNs; 2e5 patterns
    # over the two forms.  Most need repr's exponent form, so json.dumps
    # writes them inside encode as well.
    rng = np.random.default_rng(len(sep))
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=100_000, dtype=np.int64)
    assert_same_text(bits.view(np.float64), [sep])


def test_random_values_where_repr_has_no_exponent():
    # 1e-4 <= |x| < 1e16, where the integer arithmetic decides nearly every
    # element; short decimals too, where many digits drop.
    rng = np.random.default_rng(3)
    x = 10.0 ** rng.uniform(-4.2, 16.2, 60_000) * rng.choice([-1.0, 1.0], 60_000)
    assert_same_text(x)
    short = rng.integers(-(10**17), 10**17, 40_000) // 10 ** rng.integers(0, 17, 40_000)
    assert_same_text(short / 10.0 ** rng.integers(0, 21, 40_000))


def test_special_values_alone_and_among_many():
    s = special_values()
    assert_same_text(s)
    many = np.tile(s, 20)
    assert_same_text(many)
    assert_same_text(many.reshape(-1, 2))
    assert_same_text(many[: many.size // 5 * 5].reshape(-1, 5))


@pytest.mark.parametrize(
    "a",
    [
        np.zeros(0),
        np.zeros((0, 2)),
        np.array([2.5]),
        np.array([[1.0, 2.0]]),
        np.linspace(-4.0, 4.0, 2000),
        np.linspace(-4.0, 4.0, 2000)[::3],
        np.linspace(-4.0, 4.0, 2000).reshape(-1, 2),
        np.linspace(-4.0, 4.0, 2000).reshape(-1, 2).T,
    ],
    ids=["empty", "empty-rows", "one", "one-row", "line", "strided", "rows", "columns"],
)
def test_shapes(a):
    assert_same_text(a)


def test_small_sizes_take_the_encoder(monkeypatch):
    # Every nonempty float array goes through the encoder, down to one
    # element; at 68-466 floats, the band sets the benchmarks write, as
    # lines and rows.
    rows = []
    real = _floatjson._rows
    monkeypatch.setattr(_floatjson, "_rows", lambda x, ends: rows.append(x.size) or real(x, ends))
    values = np.concatenate((special_values(), np.linspace(-4.1, 4.1, 97) ** 3))
    for n in (0, 1, 2, 68, 178, 288, 466):
        x = np.resize(values, n)
        for a in (x, x[: n - n % 2].reshape(-1, 2)):
            for sep in SEPARATORS:
                rows.clear()
                want = json.dumps(a.tolist(), separators=(sep, ":"))
                assert _floatjson.encode(a, sep) == want, (n, a.shape, sep)
                assert sum(rows) == a.size, (n, a.shape, sep)


@pytest.mark.parametrize("b, k", [(1.0001, 16), (2.0, 16), (4.1, 18)])
def test_covers(b, k):
    # Band edges at weak, middle and strong coupling; at b/a 4.1 some
    # edges lie below 1e-4 and go through repr one by one.
    bs = cover(HoppingPair(1, b), k)
    assert_same_text(bs.bands)
    if b == 4.1:
        assert (np.abs(bs.bands) < 1e-4).any()
    d = bandset_to_dict(bs)
    assert bandset_to_json(bs) == json.dumps({**d, "bands": d["bands"].tolist()})


def test_eigenvalues_json():
    eig = eigenvalues_free(build_window(fib_prefix(14), HoppingPair(1, 2)))
    assert json.loads(eigenvalues_to_json(eig))["values"] == eig.values.tolist()
    assert eigenvalues_to_json(eig) == json.dumps(
        {"n": eig.n_sites, "boundary": eig.boundary, "values": eig.values.tolist(), "tol": eig.residual_bound}
    )


def test_dumps_nested_arrays_and_placeholder_text():
    a = np.linspace(0.0, 1.0, 1000)
    obj = {"config": {"x": "y"}, "result": {"v": a, "w": a[:5], "n": 3}}
    plain = {"config": {"x": "y"}, "result": {"v": a.tolist(), "w": a[:5].tolist(), "n": 3}}
    for kw in ({}, {"sort_keys": True, "separators": (",", ":")}):
        assert _floatjson.dumps(obj, **kw) == json.dumps(plain, **kw)
    # A string that spells the placeholder cannot take the array's place.
    clash = {"config": {"x": _floatjson._PLACEHOLDER % 0}, "result": {"v": a}}
    want = {"config": clash["config"], "result": {"v": a.tolist()}}
    assert _floatjson.dumps(clash, sort_keys=True) == json.dumps(want, sort_keys=True)
