"""The batched correlation engine against the per-cell reference path.

``code_histograms`` and ``pair_histograms`` must give, cell for cell, the
histograms ``code_accf`` counts, and the reports built on them must not
depend on whether a block was accepted from the FFT or recounted exactly.
"""
import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zccs import correlate
from zccs.algebra import reduction_matrix
from zccs.boolfn import RootSequence, parse_gbf
from zccs.cli import main, write_code_set
from zccs.construct import Code, CodeLabel, build_zccs
from zccs.correlate import code_accf, code_histograms, pair_histograms
from zccs.verify import verify_code_set

from oracles import corrupt_seeded

ENGINE_SETS = {
    "zccs_12x4x24_delta6": lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2),
    "zccs_10x2x20_delta20": lambda: build_zccs(parse_gbf("2*x0*x1 + x1", 2, 4), [], 0, p=5),
    "zccs_14x2x28_delta28": lambda: build_zccs(parse_gbf("2*x0*x1 + 3*x0 + 1", 2, 4), [], 0, p=7),
}


def _refuse(*args):
    raise AssertionError("a block failed its recovery check and was recounted")


@pytest.fixture()
def no_fallback(monkeypatch):
    """Fail the test if any block is recounted instead of taken from the FFT."""
    monkeypatch.setattr(correlate, "_recount", _refuse)


def _row(exps, delta, mu1, t0, t1):
    blocks = list(code_histograms(exps, delta, mu1, range(len(exps)), t0, t1))
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


def test_empty_or_outside_window_is_refused():
    cs = ENGINE_SETS["zccs_12x4x24_delta6"]()
    for t0, t1 in ((3, 3), (0, 25), (-1, 2)):
        with pytest.raises(ValueError):
            list(code_histograms(cs.exponents, cs.params.delta, 0, range(2), t0, t1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_histograms_of_random_exponent_arrays(data):
    delta = data.draw(st.integers(2, 30), label="delta")
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
        other = data.draw(st.integers(0, k - 1), label="other")
        both = pair_histograms(codes[mu1], codes[other])
    zero = ~(row @ reduction_matrix(delta)).any(axis=-1)
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
