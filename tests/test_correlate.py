import time

import numpy as np
import pytest

from zccs.construct import CodeLabel
from zccs.errors import InvalidParams, ShapeError
from zccs.reference import Code, RootSequence, accf, code_accf, profile, root_sum

from oracles import naive_accf


def seq(delta, exponents):
    return RootSequence(delta, np.array(exponents, dtype=np.int64))


GOLAY_A = seq(2, [0, 0, 0, 1])  # +1 +1 +1 -1
GOLAY_B = seq(2, [0, 0, 1, 0])  # +1 +1 -1 +1


class TestAccf:
    def test_zero_shift_energy(self):
        assert accf(GOLAY_A, GOLAY_A, 0).to_complex() == pytest.approx(4)

    def test_shift_one(self):
        assert accf(GOLAY_A, GOLAY_A, 1).to_complex() == pytest.approx(1)

    def test_out_of_range_is_zero(self):
        assert accf(GOLAY_A, GOLAY_B, 4).is_zero()
        assert accf(GOLAY_A, GOLAY_B, -4).is_zero()

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            accf(GOLAY_A, seq(2, [0, 1]), 0)
        with pytest.raises(ShapeError):
            accf(GOLAY_A, seq(4, [0, 0, 0, 1]), 0)

    def test_matches_float_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            delta = int(rng.integers(1, 31))
            a = seq(delta, rng.integers(0, delta, size=n))
            b = seq(delta, rng.integers(0, delta, size=n))
            for tau in rng.integers(-n, n, size=4):
                exact = accf(a, b, int(tau)).to_complex()
                naive = naive_accf(a.to_complex(), b.to_complex(), int(tau))
                assert abs(exact - naive) < 1e-9 * n

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 65))
            delta = int(rng.integers(1, 20))
            a = seq(delta, rng.integers(0, delta, size=n))
            b = seq(delta, rng.integers(0, delta, size=n))
            for tau in rng.integers(-n + 1, n, size=4):
                assert accf(a, b, -int(tau)) == accf(b, a, int(tau)).conjugate()


class TestCodeAccf:
    def _golay_code(self):
        return Code((GOLAY_A, GOLAY_B), CodeLabel("C", 0))

    def test_peak(self):
        code = self._golay_code()
        assert code_accf(code, code, 0).to_complex() == pytest.approx(8)

    def test_complementary_sidelobes(self):
        code = self._golay_code()
        for tau in (1, 2, 3):
            assert code_accf(code, code, tau).is_zero()

    def test_negated_shift_conjugates(self):
        code = self._golay_code()
        for tau in range(-3, 4):
            assert code_accf(code, code, -tau) == code_accf(code, code, tau).conjugate()

    def test_shape_mismatch(self):
        code = self._golay_code()
        other = Code((GOLAY_A,), CodeLabel("C", 1))
        with pytest.raises(ShapeError):
            code_accf(code, other, 0)


class TestProfile:
    def test_auto_profile_peak(self):
        code = Code((GOLAY_A, GOLAY_B), CodeLabel("C", 0))
        prof = profile(code, code)
        assert sorted(prof.values) == list(range(-3, 4))
        assert prof.values[0].to_complex() == pytest.approx(8)
        assert all(prof.values[tau].is_zero() for tau in prof.values if tau != 0)

    def test_transposed_profile_is_conjugate_mirror(self):
        rng = np.random.default_rng(14)
        a = Code((seq(6, rng.integers(0, 6, 8)), seq(6, rng.integers(0, 6, 8))), CodeLabel("U", 0, 0))
        b = Code((seq(6, rng.integers(0, 6, 8)), seq(6, rng.integers(0, 6, 8))), CodeLabel("U", 1, 0))
        pab = profile(a, b)
        pba = profile(b, a)
        for tau in pab.values:
            assert pab.values[tau] == pba.values[-tau].conjugate()


class TestRootSum:
    def test_nonmultiple_vanishes(self):
        assert root_sum(3, 1).is_zero()

    def test_zero_residue_counts_terms(self):
        assert root_sum(5, 0).to_complex() == pytest.approx(5)
        assert root_sum(3, 3).to_complex() == pytest.approx(3)

    def test_requires_prime(self):
        with pytest.raises(InvalidParams):
            root_sum(6, 1)

    def test_huge_prime_is_refused_before_the_primality_test(self):
        # Trial division up to sqrt(2**61 - 1) would run for minutes;
        # CycInt refuses a root order past MAX_DELTA anyway.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most"):
            root_sum(2**61 - 1, 1)
        assert time.perf_counter() - start < 0.5

    def test_zero_iff_stride_not_divisible(self):
        for p in (2, 3, 5, 7):
            for c in range(-2 * p, 2 * p + 1):
                assert root_sum(p, c).is_zero() == (c % p != 0)
