from dataclasses import replace

import numpy as np
import pytest

from zccs.boolfn import parse_gbf
from zccs.construct import CodeSet, CodeSetParams, build_ccc, build_zccs
from zccs.errors import InvalidZ, NotAZccs, ShapeError
from zccs.reference import code_accf
from zccs.verify import check_ccc, check_optimal, check_zccs, max_zcz, verify_code_set

from oracles import corrupt_later_rows, corrupt_seeded, first_violation, float_zcz_width, naive_code_accf, to_complex_code


@pytest.fixture(scope="module")
def flagship():
    return build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2)


def corrupt(cs: CodeSet, mu: int, nu: int, pos: int) -> CodeSet:
    exps = cs.exponents.copy()
    exps[mu, nu, pos] = (exps[mu, nu, pos] + 1) % cs.params.delta
    return CodeSet(exps, cs.labels, cs.params)


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

    def test_a_width_that_is_not_an_integer_is_refused_at_once(self, flagship):
        # 8.5 used to spin in the search for a 5-smooth FFT length of
        # N + 8.5, and 8.0 to raise a raw TypeError from a slice
        for check, z in ((check_zccs, 8.5), (check_optimal, 8.5), (verify_code_set, 8.5), (verify_code_set, 8.0)):
            with pytest.raises(InvalidZ, match="must be an integer"):
                check(flagship, z)
        assert check_zccs(flagship, np.int64(8)).ok and verify_code_set(flagship, np.int32(8)).optimal

    def test_corrupted_set_yields_first_witness(self, flagship):
        bad = corrupt(flagship, 0, 0, 0)
        ok, witness = check_zccs(bad, 8)
        assert not ok
        assert witness == (0, 0, 1)

    def test_peak_violation_witness(self, flagship):
        # codes one sequence short, whose peaks would miss M*N, are refused
        # when the set is built, so the scan never meets them
        with pytest.raises(ShapeError):
            CodeSet(flagship.exponents[:, :3], flagship.labels, flagship.params)


class TestMaxZcz:
    def test_flagship_exact_width(self, flagship):
        # frozen from the exhaustive floating-point scan oracle
        assert float_zcz_width(flagship) == 8
        assert max_zcz(flagship) == 8

    def test_ccc_reaches_full_length(self):
        cs = build_ccc(parse_gbf("x0*x1", 2, 2), [], 0)
        assert max_zcz(cs) == cs.params.N

    def test_peak_violation_raises(self, flagship):
        with pytest.raises(ShapeError):
            CodeSet(flagship.exponents[:, :3], flagship.labels, flagship.params)

    def test_cross_violation_at_zero_returns_zero(self):
        # two copies of the same code cross-correlate to the peak at shift 0
        base = build_ccc(parse_gbf("x0*x1", 2, 2), [], 0)
        exps, labels = base.exponents[[0, 0]], base.labels[:1] * 2
        params = CodeSetParams(K=2, M=2, N=4, Z=4, q=2, m=2, k=0, delta=2)
        assert max_zcz(CodeSet(exps, labels, params)) == 0

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
        exps, labels = base.exponents[[0, 0]], base.labels[:1] * 2
        params = CodeSetParams(K=2, M=2, N=4, Z=4, q=2, m=2, k=0, delta=2)
        assert not check_ccc(CodeSet(exps, labels, params))


class TestReport:
    def test_passing_report(self, flagship):
        report = verify_code_set(flagship, compute_max=True)
        assert report.is_zccs_at_claimed_z
        assert report.peak == 96
        assert report.optimal
        assert not report.is_ccc
        assert report.max_zcz == 8
        assert report.witness is None

    @pytest.mark.parametrize("compute_max", [False, True])
    def test_numpy_width_gives_the_report_of_its_int(self, flagship, compute_max):
        report = verify_code_set(flagship, np.int64(8), compute_max)
        assert report == verify_code_set(flagship, 8, compute_max)
        assert type(report.claimed_z) is int and type(report.peak) is int
        assert {type(v) for v in (report.is_zccs_at_claimed_z, report.optimal, report.is_ccc)} == {bool}
        assert check_optimal(flagship, np.int64(8)) is True

    def test_failing_report(self, flagship):
        report = verify_code_set(corrupt(flagship, 0, 0, 0))
        assert not report.is_zccs_at_claimed_z
        assert not report.optimal
        assert report.witness == (0, 0, 1)


def ccc_half(cs: CodeSet) -> CodeSet:
    k = cs.params.K // 2
    return CodeSet(cs.exponents[:k], cs.labels[:k], replace(cs.params, K=k))


CROSS_CHECK_SETS = {
    "ccc_2x2x4": lambda: build_ccc(parse_gbf("x0*x1", 2, 2), [], 0),
    "ccc_4x4x8": lambda: build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2),
    "zccs_8x4x8": lambda: build_zccs(parse_gbf("x0*x1", 2, 2), [], 0, p=2),
    # half of a CCC: the zone spans N but K < M, so it is not complete
    "ccc_half_2x4x8": lambda: ccc_half(build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2)),
    "zccs_12x4x24": lambda: build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2),
}


# corrupt_later_rows leaves code 0 intact.  Its seeds here, found by a
# seeded search, put the first failure past row 0 at some tested z, where
# a report's width scan resumes from the check's map: at (1, 1, 2) with
# width 2 on ccc_half_2x4x8 (45), (1, 0, 1) on zccs_8x4x8 (1038), (2, 0,
# 1) on ccc_4x4x8 (2064), and at z = 1 on both of those (2574).
@pytest.mark.parametrize(
    "corrupt, seed",
    [pytest.param(None, None, id="None")]
    + [pytest.param(corrupt_seeded, s, id=str(s)) for s in range(4)]
    + [pytest.param(corrupt_later_rows, s, id=f"later_rows{s}") for s in (45, 1038, 2064, 2574)],
)
@pytest.mark.parametrize("name", sorted(CROSS_CHECK_SETS))
def test_report_matches_float_oracle(name, corrupt, seed):
    cs = CROSS_CHECK_SETS[name]()
    if corrupt is not None:
        cs = corrupt(cs, seed)
    pp = cs.params
    width = float_zcz_width(cs)
    code0 = to_complex_code(cs.codes[0])
    peak = round(naive_code_accf(code0, code0, 0).real)
    # z = Z - 1, Z and Z + 1 put the check's extra shift below, at and past
    # the first failure of a built set.
    for z in sorted({1, 2, pp.Z - 1, pp.Z, pp.Z + 1, pp.N} & set(range(1, pp.N + 1))):
        witness = first_violation(cs, z)
        for compute_max in (False, True):
            report = verify_code_set(cs, z, compute_max=compute_max)
            assert report.witness == witness
            assert report.is_zccs_at_claimed_z == (witness is None)
            assert report.max_zcz == (width if compute_max else None)
            assert report.is_ccc == (pp.K == pp.M and width == pp.N)
            assert report.peak == peak


# Found by a seeded search against first_violation.  In both sets row 0
# is clean and the first failure (2, mu2, 1) is the mirror of the ideal
# cell (mu2, 2, 1) at shift -1, which row mu2 finds; row 2 also fails in
# its own upper part, later in order.  In the second set rows 0 and 1
# both find a mirror failure in row 2, and the first one must win.
@pytest.mark.parametrize("name, seed, witness", [("zccs_8x4x8", 1857, (2, 1, 1)), ("ccc_4x4x8", 1131, (2, 0, 1))])
def test_first_failure_in_a_mirror_cell(name, seed, witness):
    cs = corrupt_later_rows(CROSS_CHECK_SETS[name](), seed)
    codes, pp = cs.codes, cs.params
    mu1, mu2, tau = witness
    assert first_violation(cs, 2) == witness
    assert code_accf(codes[mu2], codes[mu1], tau).is_zero()
    assert not code_accf(codes[mu2], codes[mu1], -tau).is_zero()
    assert any(not code_accf(codes[mu1], codes[c], 1).is_zero() for c in range(mu1, pp.K))
    if mu2 == 0:
        assert not code_accf(codes[1], codes[mu1], -1).is_zero()
    assert check_zccs(cs, 2) == (False, witness)
    report = verify_code_set(cs, 2, compute_max=True)
    assert report.witness == witness
    assert report.max_zcz == float_zcz_width(cs)


def test_max_zcz_counts_the_mirror_cells():
    # Code 1 of a CCC moved by one position: every cell (mu1 <= mu2, tau)
    # is ideal at shift 1, so the width 1 shows only at shift -1 of a
    # correlation with mu1 < mu2.
    cs = CROSS_CHECK_SETS["ccc_4x4x8"]()
    exps = cs.exponents.copy()
    exps[1] = np.roll(exps[1], 1, axis=1)
    cs = CodeSet(exps, cs.labels, cs.params)
    codes = cs.codes
    assert all(code_accf(a, b, 1).is_zero() for i, a in enumerate(codes) for b in codes[i:])
    assert max_zcz(cs) == float_zcz_width(cs) == 1
    assert check_zccs(cs, 2).witness == first_violation(cs, 2)


@pytest.mark.parametrize("z", [1, 2, 3, 4, 5, 8])
def test_max_zcz_alone_scans_from_shift_0(z):
    # The check scans one shift past z, and a report's width scan goes on
    # from there; max_zcz has no check before it and starts at shift 0.
    cs = corrupt_later_rows(CROSS_CHECK_SETS["zccs_8x4x8"](), 1857)
    assert max_zcz(cs) == float_zcz_width(cs) == 0
    report = verify_code_set(cs, z, compute_max=True)
    assert report.witness == first_violation(cs, z) and report.max_zcz == 0
