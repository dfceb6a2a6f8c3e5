"""The batched correlation engine against the per-cell reference path.

``code_histograms`` and ``pair_histograms`` must give, cell for cell, the
histograms ``code_accf`` counts, ``code_reductions`` their reductions mod
Phi_delta, and the reports built on them must not depend on whether a
block was accepted from the FFT or recounted exactly.
"""
import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zccs import correlate
from zccs.algebra import MAX_TERMS, reduced_forms, reduction_matrix
from zccs.boolfn import RootSequence, parse_gbf
from zccs.cli import main, write_code_set
from zccs.construct import Code, CodeLabel, build_ccc, build_zccs
from zccs.correlate import code_accf, code_histograms, code_reductions, pair_histograms
from zccs.verify import verify_code_set

from oracles import corrupt_seeded

ENGINE_SETS = {
    "zccs_12x4x24_delta6": lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2),
    "zccs_10x2x20_delta20": lambda: build_zccs(parse_gbf("2*x0*x1 + x1", 2, 4), [], 0, p=5),
    "zccs_14x2x28_delta28": lambda: build_zccs(parse_gbf("2*x0*x1 + 3*x0 + 1", 2, 4), [], 0, p=7),
}


# The exact counter, kept before any test patches it away.
RECOUNT = correlate._recount


def _refuse(*args):
    raise AssertionError("a block failed its recovery check and was recounted")


@pytest.fixture()
def no_fallback(monkeypatch):
    """Fail the test if any block is recounted instead of taken from the FFT."""
    monkeypatch.setattr(correlate, "_recount", _refuse)


def _row(exps, delta, mu1, t0, t1, engine=code_histograms):
    blocks = list(engine(exps, delta, mu1, range(len(exps)), t0, t1))
    assert [mu for block, _ in blocks for mu in block] == list(range(len(exps)))
    return np.concatenate([h for _, h in blocks])


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(ENGINE_SETS))
def test_batched_histograms_match_code_accf(name, seed, no_fallback):
    cs = ENGINE_SETS[name]()
    if seed is not None:
        cs = corrupt_seeded(cs, seed)
    codes, pp = cs.codes, cs.params
    n = pp.N
    rng = np.random.default_rng(seed)
    for mu1 in range(pp.K):
        row = _row(cs.exponents, pp.delta, mu1, 0, n)
        t0 = int(rng.integers(n))
        t1 = int(rng.integers(t0 + 1, n + 1))
        assert np.array_equal(_row(cs.exponents, pp.delta, mu1, t0, t1), row[:, t0:t1])
        for mu2 in range(pp.K):
            both = pair_histograms(codes[mu1], codes[mu2])
            assert both.shape == (2 * n - 1, pp.delta)
            assert np.array_equal(both[n - 1 :], row[mu2])
            for tau in range(-n + 1, n):
                assert np.array_equal(both[tau + n - 1], code_accf(codes[mu1], codes[mu2], tau).coeffs)


@pytest.mark.parametrize("block_bytes", [correlate.BLOCK_BYTES, 1])
@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(ENGINE_SETS))
def test_reductions_match_reduced_code_accf(name, seed, block_bytes, no_fallback, monkeypatch):
    # A budget of one byte puts every harmonic of every code in a chunk of its own.
    monkeypatch.setattr(correlate, "BLOCK_BYTES", block_bytes)
    cs = ENGINE_SETS[name]()
    if seed is not None:
        cs = corrupt_seeded(cs, seed)
    codes, pp = cs.codes, cs.params
    reduce = reduction_matrix(pp.delta)
    rng = np.random.default_rng(seed)
    for mu1 in range(pp.K):
        row = _row(cs.exponents, pp.delta, mu1, 0, pp.N, code_reductions)
        ref = np.array([[code_accf(codes[mu1], b, tau).coeffs for tau in range(pp.N)] for b in codes]) @ reduce
        assert row.dtype == np.int64 and np.array_equal(row, ref)
        t0 = int(rng.integers(pp.N))
        t1 = int(rng.integers(t0 + 1, pp.N + 1))
        assert np.array_equal(_row(cs.exponents, pp.delta, mu1, t0, t1, code_reductions), ref[:, t0:t1])


def test_reductions_of_a_root_order_1024_ccc(no_fallback):
    cs = build_ccc(parse_gbf(" + ".join(f"512*x{i}*x{i + 1}" for i in range(9)), 10, 1024), [])
    pp = cs.params
    assert (pp.K, pp.M, pp.N, pp.delta) == (2, 2, 1024, 1024)
    # The spectra of one code, 512 primitive harmonics of 2 sequences at
    # FFT length 2048, outgrow BLOCK_BYTES, so its harmonics are split.
    assert 16 * 512 * pp.M * 2048 > correlate.BLOCK_BYTES
    for mu1 in range(pp.K):
        row = _row(cs.exponents, pp.delta, mu1, 0, pp.N, code_reductions)
        hist = RECOUNT(cs.exponents, pp.delta, mu1, range(pp.K), 0, pp.N)
        assert np.array_equal(row, reduced_forms(hist))
    tracemalloc.start()
    try:
        report = verify_code_set(cs, compute_max=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_ccc and report.max_zcz == pp.N
    # About 32 MB with the split, 103 MB without it.
    assert peak < 48e6


def test_out_of_bound_reductions_are_recounted(monkeypatch):
    # Adding 2^24 to every harmonic adds 2^24 * x^0 to every reduced form:
    # integers still, but beyond |c| <= M * (N - tau) * max|R| <= 5 * 2^20.
    harmonic_sums = correlate._harmonic_sums

    def shifted(*args):
        for block, sums in harmonic_sums(*args):
            yield block, sums + float(1 << 24)

    cs = corrupt_seeded(ENGINE_SETS["zccs_10x2x20_delta20"](), 2)
    pp = cs.params
    fast = [_row(cs.exponents, pp.delta, mu1, 0, pp.N, code_reductions) for mu1 in range(pp.K)]
    assert 1 << 24 > 5 * MAX_TERMS
    monkeypatch.setattr(correlate, "_harmonic_sums", shifted)
    for mu1 in range(pp.K):
        assert np.array_equal(_row(cs.exponents, pp.delta, mu1, 0, pp.N, code_reductions), fast[mu1])


def test_empty_or_outside_window_is_refused():
    cs = ENGINE_SETS["zccs_12x4x24_delta6"]()
    for engine in (code_histograms, code_reductions):
        for t0, t1 in ((3, 3), (0, 25), (-1, 2)):
            with pytest.raises(ValueError):
                list(engine(cs.exponents, cs.params.delta, 0, range(2), t0, t1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_histograms_of_random_exponent_arrays(data):
    delta = data.draw(st.integers(1, 30), label="delta")
    k = data.draw(st.integers(1, 3), label="K")
    m = data.draw(st.integers(1, 4), label="M")
    n = data.draw(st.integers(1, 24), label="N")
    exps = data.draw(arrays(np.int64, (k, m, n), elements=st.integers(0, delta - 1)), label="exponents")
    codes = [Code(tuple(RootSequence(delta, seq) for seq in code), CodeLabel("C", 0)) for code in exps]
    mu1 = data.draw(st.integers(0, k - 1), label="mu1")
    t0 = data.draw(st.integers(0, n - 1), label="t0")
    t1 = data.draw(st.integers(t0 + 1, n), label="t1")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlate, "_recount", _refuse)
        row = _row(exps, delta, mu1, t0, t1)
        reduced = _row(exps, delta, mu1, t0, t1, code_reductions)
        other = data.draw(st.integers(0, k - 1), label="other")
        both = pair_histograms(codes[mu1], codes[other])
    assert np.array_equal(reduced, row @ reduction_matrix(delta))
    zero = ~reduced.any(axis=-1)
    for mu2 in range(k):
        for tau in range(t0, t1):
            ref = code_accf(codes[mu1], codes[mu2], tau)
            assert np.array_equal(row[mu2, tau - t0], ref.coeffs)
            assert zero[mu2, tau - t0] == ref.is_zero()
    for tau in range(-n + 1, n):
        assert np.array_equal(both[tau + n - 1], code_accf(codes[mu1], codes[other], tau).coeffs)


def _reports_and_rows(cs, path):
    reports = [verify_code_set(cs, z, compute_max=True) for z in (1, cs.params.Z, cs.params.N)]
    rows = []
    for pair in ("0,0", "0,1", "3,2"):
        out = path.with_suffix(f".{pair.replace(',', '_')}.csv")
        assert main(["corr", "--in", str(path), "--pair", pair, "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows.append(list(csv.reader(fh)))
    return reports, rows


@pytest.mark.parametrize("seed", [None, 3])
def test_exact_fallback_reports_the_same(seed, monkeypatch, tmp_path):
    cs = ENGINE_SETS["zccs_12x4x24_delta6"]()
    if seed is not None:
        cs = corrupt_seeded(cs, seed)
    path = tmp_path / "set.json"
    write_code_set(cs, str(path))
    fast = _reports_and_rows(cs, path)

    recounted = []
    recount = correlate._recount

    def counting(*args):
        recounted.append(args)
        return recount(*args)

    monkeypatch.setattr(correlate, "RESIDUAL_TOL", 0.0)
    monkeypatch.setattr(correlate, "_recount", counting)
    exact = _reports_and_rows(cs, path)
    assert recounted
    assert exact == fast
    if seed is not None:
        assert not fast[0][1].is_zccs_at_claimed_z
