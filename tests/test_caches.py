"""The shape caches: what a set's shape alone decides is computed once per
shape, and a cached value answers exactly as a first call would, cannot
be written through, and the one store keeps within its byte budget."""
import dataclasses
import gc
import inspect
import re
import tracemalloc

import numpy as np
import pytest

from zccs import algebra, construct, correlate
from zccs.boolfn import parse_gbf
from zccs.construct import build_ccc, build_zccs, build_zccs_by_concatenation, family_labels, family_params
from zccs.errors import InvalidModulus, InvalidParams


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


# (ints that warm the cache, a call whose args equal them but are not all ints)
WARM_THEN = [
    ((2, 3, 1, 5), (2, 3, 1, 5.0)),
    ((2, 3, 1, 5, 3), (2, 3, 1, 5, 3.0)),
    ((4, 3, 1), (4.0, 3, 1)),
    ((2, 1, 0), (2, True, 0)),
    ((2, 3, 1), (2, 3, True)),
    ((2, 3, 1, 2, 1), (2, 3, 1, 2, True)),
    ((2, 3, 1, 3), (2, 3, 1, np.int64(3))),
]


@pytest.mark.parametrize("warm, then", WARM_THEN)
def test_warm_family_params_answers_as_a_cold_call(warm, then):
    construct._family_params.cache_clear()
    cold = _outcome(lambda: family_params(*then))
    family_params(*warm)
    assert _outcome(lambda: family_params(*then)) == cold
    if isinstance(cold, tuple):
        assert cold[0] in (TypeError, InvalidParams, InvalidModulus)


@pytest.mark.parametrize("builder, warm, then", [
    (build_zccs, {"p": 5}, {"p": 5.0}),
    (build_zccs, {"p": 5, "s": 3}, {"p": 5, "s": 3.0}),
    (build_zccs, {"p": 3}, {"p": True}),
    (build_zccs_by_concatenation, {"p": 5}, {"p": 5.0}),
    (build_ccc, {}, {"deleted": [0.0]}),
    (build_ccc, {}, {"gamma": 2.0}),
    (build_zccs, {"p": 5}, {"p": 5, "deleted": [0.0]}),
    (build_zccs, {"p": 5}, {"p": 5, "gamma": 2.0}),
    (build_zccs_by_concatenation, {"p": 5}, {"p": 5, "deleted": [0.0]}),
    (build_zccs_by_concatenation, {"p": 5}, {"p": 5, "gamma": 2.0}),
])
def test_warm_builders_refuse_what_a_cold_call_refuses(builder, warm, then):
    f = parse_gbf("x1*x2", 3, 2)
    construct._family_params.cache_clear()
    with pytest.raises((TypeError, InvalidParams)) as cold:
        builder(f, **{"deleted": [0], "gamma": 2, **then})
    builder(f, [0], 2, **warm)
    with pytest.raises(cold.type, match=re.escape(str(cold.value))):
        builder(f, **{"deleted": [0], "gamma": 2, **then})


def _written(target, write):
    """True when ``write(target)`` went through instead of raising."""
    try:
        write(target)
    except (TypeError, ValueError, AttributeError, dataclasses.FrozenInstanceError):
        return False
    return True


def test_cached_values_are_read_only():
    pp = family_params(2, 3, 1, 3)
    labels = family_labels(pp)
    planes = construct._selectors(3, (0,), 2, 2)
    plan = correlate.scan_plan(pp.K, pp.M, pp.N, 1, range(pp.K), pp.Z + 1)
    arrays = [planes, correlate._root_table(20), correlate._lags(0, 9, 32)]
    writes = [
        (pp, lambda v: setattr(v, "K", 1)),
        (labels, lambda v: v.__setitem__(0, v[1])),
        (labels[0], lambda v: setattr(v, "t", 1)),
        (plan, lambda v: setattr(v, "step", 1)),
        (plan.chunks, lambda v: v.__setitem__(0, range(0))),
        (plan.tiles, lambda v: v.__setitem__(0, None)),
        (plan.keep, lambda v: v.__setitem__((0, 0), 0)),
        *((a, lambda v: v.__setitem__(0, v[0])) for a in arrays),
    ]
    assert not [target for target, write in writes if _written(target, write)]
    assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)
    # The plan's values too: every tile, chunk and keep entry is immutable.
    assert all(type(entry) is tuple for entry in plan.tiles)


def test_each_cache_gives_its_first_value_again():
    cached = [
        lambda: family_params(2, 3, 1, 3), lambda: family_labels(family_params(2, 3, 1, 3)),
        lambda: construct._selectors(3, (0,), 2, 2), lambda: correlate.scan_plan(12, 4, 24, 1, range(12), 9),
        lambda: correlate._root_table(20), lambda: correlate._lags(0, 9, 32),
        lambda: algebra.reduction_matrix(20), lambda: algebra.reduction_max(20), lambda: algebra.roots(20),
        lambda: algebra.harmonic_reduction(20),
    ]
    for call in cached:
        assert call() is call()


def test_plans_are_keyed_on_both_budgets(monkeypatch):
    plans = []
    for block_bytes, cache_bytes in ((correlate.BLOCK_BYTES, correlate.CACHE_BYTES), (1, correlate.CACHE_BYTES), (1, 0)):
        monkeypatch.setattr(correlate, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(correlate, "CACHE_BYTES", cache_bytes)
        plans.append(correlate.scan_plan(12, 4, 24, 1, range(12), 9))
        correlate._scan_plan.cache_clear()
        assert correlate.scan_plan(12, 4, 24, 1, range(12), 9) == plans[-1]
    assert plans[0].step > plans[1].step and len(plans[1].keep) > len(plans[2].keep) == 0


def _kept(fill):
    """The bytes still allocated after ``fill()``, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        fill()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _fill_labels():
    # The p = 509 (K = 2036) and other large prime sets the tests build,
    # each label's fields read as the file reader reads them.
    for p in (509, 503, 499, 491, 487, 479, 467):
        for k in (1, 2):
            for label in family_labels(family_params(2, 0, k, p)):
                vars(label)


def _fill_selectors():
    # The 2x2x2**19 CCC's planes take 16 MiB; the 2**16 entries of the
    # others 2 MiB each.
    construct._selectors(19, (), 0, 14)
    for gamma in range(8):
        construct._selectors(16, (), gamma, 4)
    construct._selectors(12, (), 0, 1024)


def _fill_plans():
    # The 2036-code plan of test_plan_holds_one_entry_per_tile, from
    # several first columns.
    for col in range(0, 80, 10):
        correlate.scan_plan(2036, 4, 16288, 1, range(2036), 33, col)


def _fill_tables():
    for delta in (935, 1018, 1024, 20):
        correlate._root_table(delta)


def _fill_lags():
    correlate._lags(0, 1 << 19, 1 << 20)
    for t0 in range(8):
        correlate._lags(t0, 1 << 14, 1 << 15)


def _fill_algebra():
    # R, B and the roots of six large odd root orders: about 100 MB uncapped.
    for delta in (1021, 1019, 1013, 1009, 997, 991):
        algebra.reduction_matrix(delta), algebra.harmonic_reduction(delta), algebra.roots(delta)


FILLS = {"labels": _fill_labels, "selectors": _fill_selectors, "plans": _fill_plans, "tables": _fill_tables,
         "lags": _fill_lags, "algebra": _fill_algebra}
# Every function cached in the store, wherever it is defined.
SHAPE_CACHED = list(dict.fromkeys(
    value for module in (algebra, construct, correlate) for value in vars(module).values()
    if inspect.isfunction(value) and hasattr(value, "cache_clear")
))


@pytest.mark.parametrize("fills", [[fill] for fill in FILLS.values()] + [list(FILLS.values())], ids=[*FILLS, "all"])
def test_the_store_keeps_within_its_budget(fills):
    for cached in SHAPE_CACHED:
        cached.cache_clear()
    kept = _kept(lambda: [fill() for fill in fills])
    budget = algebra.SHAPE_CACHE_BYTES
    assert kept < budget * 1.02 + 65536
    assert algebra._held == sum(nbytes for _, nbytes in algebra._STORE.values()) <= budget
    if _fill_algebra in fills or _fill_tables in fills:
        # Each of these fills would keep more than the budget uncapped.
        assert kept > budget / 2


def test_every_store_function_keeps_its_name_and_doc():
    names = {"reduction_matrix", "reduction_max", "roots", "harmonic_reduction", "_labels", "_selectors",
             "_scan_plan", "_root_table", "_lags"}
    assert {cached.__name__ for cached in SHAPE_CACHED} == names
    for cached in SHAPE_CACHED:
        assert cached.__doc__ is cached.__wrapped__.__doc__ and cached.__name__ == cached.__wrapped__.__name__
        assert cached is not cached.__wrapped__
    # The doctest collector reads the cached function's docstring.
    assert ">>> harmonics, basis = harmonic_reduction(6)" in algebra.harmonic_reduction.__doc__


def test_the_shape_cache_drops_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(algebra, "SHAPE_CACHE_BYTES", 3)
    calls = []

    def record(key, value):
        calls.append(key)
        return value

    sized, other = (algebra.shape_cache(size=lambda value: value)(lambda *args: record(*args)) for _ in range(2))
    sized("a", 1), sized("b", 2), sized("a", 1), sized("c", 1), sized("d", 9)
    assert calls == ["a", "b", "c", "d"]
    sized("a", 1), sized("c", 1), sized("b", 2), sized("d", 9)
    # b was dropped for c, then a for b; d never fits.
    assert calls == ["a", "b", "c", "d", "b", "d"]
    # One store: other's e drops c, then c drops b; clearing other keeps c.
    other("e", 1), sized("c", 1), other.cache_clear(), sized("c", 1), other("e", 1)
    assert calls[6:] == ["e", "c", "e"]
    sized.cache_clear(), other.cache_clear()
