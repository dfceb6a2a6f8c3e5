from dataclasses import replace

import numpy as np
import pytest

from zccs.boolfn import RootSequence, parse_gbf
from zccs.construct import Code, CodeSet, CodeSetParams, build_ccc, build_zccs
from zccs.errors import InvalidZ, NotAZccs, ShapeError
from zccs.verify import check_ccc, check_optimal, check_zccs, max_zcz, verify_code_set

from oracles import first_violation, float_zcz_width, naive_code_accf, to_complex_code


@pytest.fixture(scope="module")
def flagship():
    return build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2)


def corrupt(cs: CodeSet, mu: int, nu: int, pos: int) -> CodeSet:
    codes = list(cs.codes)
    seqs = list(codes[mu].sequences)
    exps = seqs[nu].exponents.copy()
    exps[pos] = (exps[pos] + 1) % cs.params.delta
    seqs[nu] = RootSequence(cs.params.delta, exps)
    codes[mu] = Code(tuple(seqs), codes[mu].label)
    return CodeSet(tuple(codes), cs.params)


class TestCheckZccs:
    def test_flagship_holds_at_claimed_width(self, flagship):
        ok, witness = check_zccs(flagship, 8)
        assert ok and witness is None

    def test_fails_just_past_the_zone(self, flagship):
        ok, witness = check_zccs(flagship, 9)
        assert not ok
        assert witness == (0, 0, 8)

    def test_witness_minimality(self, flagship):
        # the reported first violation is at the exact zone edge
        _, witness = check_zccs(flagship, 9)
        assert check_zccs(flagship, witness[2]).ok

    def test_width_one_needs_peak_and_cross_zero(self, flagship):
        assert check_zccs(flagship, 1).ok

    def test_invalid_width(self, flagship):
        with pytest.raises(InvalidZ):
            check_zccs(flagship, 0)
        with pytest.raises(InvalidZ):
            check_zccs(flagship, 25)

    def test_corrupted_set_yields_first_witness(self, flagship):
        bad = corrupt(flagship, 0, 0, 0)
        ok, witness = check_zccs(bad, 8)
        assert not ok
        assert witness == (0, 0, 1)

    def test_peak_violation_witness(self, flagship):
        # a code one sequence short, whose peak would miss M*N, is refused
        # when the set is built, so the scan never meets it
        codes = list(flagship.codes)
        codes[0] = Code(codes[0].sequences[:3], codes[0].label)
        with pytest.raises(ShapeError):
            CodeSet(tuple(codes), flagship.params)


class TestMaxZcz:
    def test_flagship_exact_width(self, flagship):
        # frozen from the exhaustive floating-point scan oracle
        assert float_zcz_width(flagship) == 8
        assert max_zcz(flagship) == 8

    def test_ccc_reaches_full_length(self):
        cs = build_ccc(parse_gbf("x0*x1", 2, 2), [], 0)
        assert max_zcz(cs) == cs.params.N

    def test_peak_violation_raises(self, flagship):
        codes = list(flagship.codes)
        codes[0] = Code(codes[0].sequences[:3], codes[0].label)
        with pytest.raises(ShapeError):
            CodeSet(tuple(codes), flagship.params)

    def test_cross_violation_at_zero_returns_zero(self):
        # two copies of the same code cross-correlate to the peak at shift 0
        base = build_ccc(parse_gbf("x0*x1", 2, 2), [], 0)
        codes = (base.codes[0], base.codes[0])
        params = CodeSetParams(K=2, M=2, N=4, Z=4, q=2, m=2, k=0, delta=2)
        assert max_zcz(CodeSet(codes, params)) == 0

    def test_agrees_with_float_scan(self, flagship):
        cs = build_zccs(parse_gbf("x0*x1", 2, 2), [], 0, p=2)
        assert max_zcz(cs) == float_zcz_width(cs)


class TestOptimality:
    def test_flagship_optimal_at_claimed_width(self, flagship):
        assert check_optimal(flagship, 8)

    def test_wider_bound_not_met(self, flagship):
        # at Z=4 the bound allows 24 codes, we only have 12
        assert not check_optimal(flagship, 4)

    def test_ccc_is_optimal(self):
        cs = build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2)
        assert check_optimal(cs, cs.params.N)

    def test_requires_verified_set(self, flagship):
        with pytest.raises(NotAZccs):
            check_optimal(flagship, 9)

    def test_bound_never_exceeded(self, flagship):
        pp = flagship.params
        for z in (1, 2, 4, 8):
            assert check_zccs(flagship, z).ok
            assert pp.K <= pp.M * (pp.N // z)


class TestCheckCcc:
    def test_base_construction_passes(self):
        assert check_ccc(build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2))

    def test_extended_set_is_not_ccc(self, flagship):
        assert not check_ccc(flagship)

    def test_broken_peak_fails(self):
        base = build_ccc(parse_gbf("x0*x1", 2, 2), [], 0)
        codes = (base.codes[0], base.codes[0])
        params = CodeSetParams(K=2, M=2, N=4, Z=4, q=2, m=2, k=0, delta=2)
        assert not check_ccc(CodeSet(codes, params))


class TestReport:
    def test_passing_report(self, flagship):
        report = verify_code_set(flagship, compute_max=True)
        assert report.is_zccs_at_claimed_z
        assert report.peak == 96
        assert report.optimal
        assert not report.is_ccc
        assert report.max_zcz == 8
        assert report.witness is None

    def test_failing_report(self, flagship):
        report = verify_code_set(corrupt(flagship, 0, 0, 0))
        assert not report.is_zccs_at_claimed_z
        assert not report.optimal
        assert report.witness == (0, 0, 1)


def corrupt_seeded(cs: CodeSet, seed: int) -> CodeSet:
    """Shift one seeded exponent by a seeded nonzero amount."""
    rng = np.random.default_rng(seed)
    pp = cs.params
    mu, nu, pos = rng.integers(pp.K), rng.integers(pp.M), rng.integers(pp.N)
    codes = list(cs.codes)
    seqs = list(codes[mu].sequences)
    exps = seqs[nu].exponents.copy()
    exps[pos] = (exps[pos] + rng.integers(1, pp.delta)) % pp.delta
    seqs[nu] = RootSequence(pp.delta, exps)
    codes[mu] = Code(tuple(seqs), codes[mu].label)
    return CodeSet(tuple(codes), pp)


def ccc_half(cs: CodeSet) -> CodeSet:
    k = cs.params.K // 2
    return CodeSet(cs.codes[:k], replace(cs.params, K=k))


CROSS_CHECK_SETS = {
    "ccc_2x2x4": lambda: build_ccc(parse_gbf("x0*x1", 2, 2), [], 0),
    "ccc_4x4x8": lambda: build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2),
    "zccs_8x4x8": lambda: build_zccs(parse_gbf("x0*x1", 2, 2), [], 0, p=2),
    # half of a CCC: the zone spans N but K < M, so it is not complete
    "ccc_half_2x4x8": lambda: ccc_half(build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2)),
    "zccs_12x4x24": lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2),
}


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(CROSS_CHECK_SETS))
def test_report_matches_float_oracle(name, seed):
    cs = CROSS_CHECK_SETS[name]()
    if seed is not None:
        cs = corrupt_seeded(cs, seed)
    pp = cs.params
    width = float_zcz_width(cs)
    code0 = to_complex_code(cs.codes[0])
    peak = round(naive_code_accf(code0, code0, 0).real)
    for z in sorted({1, pp.Z, pp.N}):
        witness = first_violation(cs, z)
        for compute_max in (False, True):
            report = verify_code_set(cs, z, compute_max=compute_max)
            assert report.witness == witness
            assert report.is_zccs_at_claimed_z == (witness is None)
            assert report.max_zcz == (width if compute_max else None)
            assert report.is_ccc == (pp.K == pp.M and width == pp.N)
            assert report.peak == peak
