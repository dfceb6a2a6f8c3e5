from decimal import Decimal, localcontext
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from zccs import algebra
from zccs.algebra import (
    MAX_DELTA,
    MAX_TERMS,
    ROOT_ERROR,
    cyclotomic_poly,
    fft_error,
    form_values,
    harmonic_reduction,
    is_prime,
    reduced_forms,
    reduction_matrix,
    reduction_max,
    roots,
)
from zccs.errors import DeltaMismatch, ZccsError
from zccs.reference import CycInt, RootSequence, owned_int64, root_sum

from oracles import poly_divmod, poly_mul


def ci(delta, coeffs):
    return CycInt(delta, np.array(coeffs, dtype=np.int64))


class TestAddition:
    def test_basis_addition(self):
        a = ci(6, [1, 0, 0, 0, 0, 0])
        b = ci(6, [0, 1, 0, 0, 0, 0])
        assert (a + b).coeffs.tolist() == [1, 1, 0, 0, 0, 0]

    def test_zero_identity(self):
        a = ci(4, [2, -1, 0, 3])
        assert (a + CycInt.zero(4)) == a

    def test_additive_inverse(self):
        a = ci(3, [1, 0, 0])
        b = ci(3, [-1, 0, 0])
        assert (a + b).coeffs.tolist() == [0, 0, 0]

    def test_delta_mismatch(self):
        with pytest.raises(DeltaMismatch):
            ci(3, [1, 0, 0]) + ci(4, [1, 0, 0, 0])
        with pytest.raises(DeltaMismatch):
            ci(3, [1, 0, 0]) - ci(4, [1, 0, 0, 0])
        with pytest.raises(DeltaMismatch):
            ci(3, [1, 0, 0]) * ci(4, [1, 0, 0, 0])


class TestRootMultiplication:
    def test_rotate_one(self):
        assert ci(4, [1, 0, 0, 0]).mul_root(1).coeffs.tolist() == [0, 1, 0, 0]

    def test_wraparound(self):
        assert ci(4, [0, 0, 0, 1]).mul_root(1).coeffs.tolist() == [1, 0, 0, 0]

    def test_shift_by_three(self):
        assert ci(6, [1, 1, 0, 0, 0, 0]).mul_root(3).coeffs.tolist() == [0, 0, 0, 1, 1, 0]

    def test_full_rotation_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            delta = int(rng.integers(1, 30))
            a = ci(delta, rng.integers(-5, 6, size=delta))
            assert a.mul_root(delta).coeffs.tolist() == a.coeffs.tolist()


class TestCyclotomicPoly:
    def test_base_cases(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)

    def test_sixth_by_division_oracle(self):
        # divide x^6 - 1 by the product of the lower cyclotomic factors
        product = poly_mul(poly_mul((-1, 1), (1, 1)), (1, 1, 1))
        quot, rem = poly_divmod((-1, 0, 0, 0, 0, 0, 1), product)
        assert rem == ()
        assert quot == (1, -1, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)

    def test_degree_sum_property(self):
        for n in range(1, 65):
            total = sum(len(cyclotomic_poly(d)) - 1 for d in range(1, n + 1) if n % d == 0)
            assert total == n

    def test_order_below_one_is_refused(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                cyclotomic_poly(n)

    def test_prime_is_all_ones(self):
        assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)


@lru_cache(maxsize=None)
def _divided_cyclotomic(n):
    """Phi_n by long division of x^n - 1 by Phi_d for every proper divisor d."""
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly, rem = poly_divmod(poly, _divided_cyclotomic(d))
            assert rem == ()
    return poly


class TestCyclotomicByDivision:
    @pytest.mark.parametrize("ns", [range(1, 201), (105, 210, 385, 1001)])
    def test_moebius_product_equals_long_division(self, ns):
        for n in ns:
            phi = cyclotomic_poly(n)
            assert phi == _divided_cyclotomic(n)
            assert all(type(c) is int for c in phi)

    def test_first_coefficient_beyond_one(self):
        phi = cyclotomic_poly(105)
        assert [j for j, c in enumerate(phi) if c == -2] == [7, 41]
        assert all(max(map(abs, cyclotomic_poly(n))) == 1 for n in range(1, 105))


class TestZeroTest:
    def test_cube_roots_sum(self):
        assert ci(3, [1, 1, 1]).is_zero()

    def test_embedded_cube_roots(self):
        assert ci(6, [1, 0, 1, 0, 1, 0]).is_zero()

    def test_one_plus_i_squared(self):
        # 1 + w_4^2 = 1 - 1; resolved by the complex-evaluation oracle
        a = ci(4, [1, 0, 1, 0])
        assert abs(a.to_complex()) < 1e-12
        assert a.is_zero()

    def test_nonzero(self):
        assert not ci(4, [1, 1, 0, 0]).is_zero()

    def test_agrees_with_float_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            delta = int(rng.integers(1, 31))
            if rng.random() < 0.5:
                a = ci(delta, rng.integers(-4, 5, size=delta))
            else:
                # an exact zero: a small multiple of the cyclotomic polynomial
                phi = np.array(cyclotomic_poly(delta) + (0,) * delta)[:delta]
                g = int(rng.integers(-3, 4))
                shift = int(rng.integers(0, delta))
                a = ci(delta, g * np.roll(phi, shift))
            bound = 1e-9 * (np.abs(a.coeffs).sum() + 1)
            assert a.is_zero() == (abs(a.to_complex()) < bound)


class TestReductionMatrix:
    def test_rows_are_reduced_powers(self):
        for delta in [*range(1, 41), 210, 330, 630]:
            phi = cyclotomic_poly(delta)
            r = reduction_matrix(delta)
            assert r.shape == (delta, len(phi) - 1)
            for j in range(delta):
                _, rem = poly_divmod((0,) * j + (1,), phi)
                assert tuple(r[j, : len(rem)]) == rem and not r[j, len(rem) :].any()

    def test_column_maxima_are_cached_next_to_r(self):
        for delta in (1, 6, 20, 935, 1024):
            top = reduction_max(delta)
            assert np.array_equal(top, np.abs(reduction_matrix(delta)).max(axis=0))
            assert reduction_max(delta) is top and not top.flags.writeable

    def test_product_decides_zero_like_is_zero(self):
        rng = np.random.default_rng(17)
        for delta in range(1, 31):
            phi = np.array(cyclotomic_poly(delta) + (0,) * delta)[:delta]
            stack = [rng.integers(-4, 5, size=delta) for _ in range(20)]
            stack += [int(rng.integers(-3, 4)) * np.roll(phi, int(rng.integers(delta))) for _ in range(20)]
            zero = ~(np.array(stack) @ reduction_matrix(delta)).any(axis=1)
            assert zero.tolist() == [ci(delta, h).is_zero() for h in stack]


    @pytest.mark.parametrize("delta", [935, 1024])
    def test_float_product_is_exact_at_the_term_limit(self, delta):
        reduce = reduction_matrix(delta)
        rng = np.random.default_rng(delta)
        stack = [rng.multinomial(MAX_TERMS, np.full(delta, 1 / delta)) for _ in range(4)]
        # All terms on one power, and spread over the powers whose entries
        # in the largest column of R share its sign: the largest partial sums.
        col = int(np.abs(reduce).max(axis=0).argmax())
        for sign in (1, -1):
            rows = np.flatnonzero(sign * reduce[:, col] > 0)
            stack.append(np.bincount(rng.choice(rows, MAX_TERMS), minlength=delta))
        stack.append(np.eye(delta, dtype=np.int64)[int(np.abs(reduce[:, col]).argmax())] * MAX_TERMS)
        hist = np.array(stack)
        assert (hist.sum(axis=1) == MAX_TERMS).all()
        assert np.abs(reduce).max() == (5 if delta == 935 else 1)
        assert np.array_equal(reduced_forms(hist), hist @ reduce)
        assert reduced_forms(hist).dtype == np.float64

    def test_counts_at_the_term_limit_are_exact_in_float64_for_every_delta(self):
        # reduced_forms takes h @ R in float64 for counts summing to MAX_TERMS
        assert MAX_TERMS * max(int(reduction_max(d).max()) for d in range(1, MAX_DELTA + 1)) < 2**53

    def test_reduced_forms_is_exact_past_the_float_bound(self):
        rng = np.random.default_rng(52)
        for delta in (12, 105, 935):
            reduce = reduction_matrix(delta)
            # odd values above 2**53 have no exact float64 value
            hist = rng.integers(-(2**60), 2**60, size=(3, delta)) | 1
            hist = np.concatenate([hist, rng.integers(0, 2**50, size=(2, delta))])
            assert (np.abs(hist.astype(float)).sum(axis=1) * np.abs(reduce).max() >= 2.0**52).all()
            phi = cyclotomic_poly(delta)
            for h in hist:
                _, rem = poly_divmod(tuple(h.tolist()), phi)
                assert CycInt(delta, h).reduced() == rem

    @pytest.mark.parametrize("delta", [2, 6, 20, 935, 1024])
    def test_reduced_forms_in_limbs_match_the_python_int_product(self, delta):
        reduce = reduction_matrix(delta).astype(object)
        rng = np.random.default_rng(delta)
        hist = rng.integers(-(2**62), 2**62, size=(4, delta), endpoint=True)
        hist[0] = 2**62  # the largest coefficients, all of one sign
        hist[1, ::2] = -(2**62)
        hist = np.concatenate([hist, rng.integers(2**51, 2**53, size=(2, delta))])
        assert (np.abs(hist.astype(float)).sum(axis=1) * np.abs(reduce).max() >= 2.0**52).all()
        for h, c in zip(hist, hist.astype(object) @ reduce):
            rem = c.tolist()
            while rem and rem[-1] == 0:
                rem.pop()
            assert CycInt(delta, h).reduced() == tuple(rem)


@pytest.fixture(scope="class")
def harmonic_pass():
    # One cold pass over every delta builds each R and B once; both tests of
    # TestHarmonicReduction read what it keeps: the harmonics, the shape of
    # B's interleaved rows, the error of the reduced forms B gives and the
    # largest column sum of |B_r|.
    rng = np.random.default_rng(23)
    kept = {}
    for delta in range(1, MAX_DELTA + 1):
        harmonics, basis = harmonic_reduction(delta)
        hist = rng.integers(0, 1000, size=(3, delta))
        approx = np.ascontiguousarray(np.fft.rfft(hist)[:, harmonics]).view(np.float64) @ basis
        error = float(np.abs(approx - hist @ reduction_matrix(delta)).max())
        gain = float(np.hypot(basis[0::2], basis[1::2]).sum(axis=0).max())
        kept[delta] = (harmonics.tolist(), basis.shape, error, gain)
    return kept


class TestHarmonicReduction:
    def test_keeps_the_primitive_harmonics_up_to_half(self, harmonic_pass):
        for delta in range(1, MAX_DELTA + 1):
            harmonics, shape, _, _ = harmonic_pass[delta]
            assert harmonics == [r for r in range(delta // 2 + 1) if gcd(r, delta) == 1]
            assert shape == (2 * len(harmonics), len(cyclotomic_poly(delta)) - 1)
            if delta >= 3:
                assert shape[0] == shape[1]
        assert harmonic_reduction(1)[0].tolist() == [0]
        assert harmonic_reduction(2)[0].tolist() == [1]

    def test_primitive_harmonics_give_the_reduced_form(self, harmonic_pass):
        worst_gain = 0.0
        for delta in range(1, MAX_DELTA + 1):
            _, _, error, gain = harmonic_pass[delta]
            assert error < 1e-6
            worst_gain = max(worst_gain, gain)
        # The error gain the docstring quotes; harmonic_reduction checks
        # gain * fft_error at the caps <= RESIDUAL_TOL.
        assert 13.1 < worst_gain < 13.2

    def test_a_broken_error_bound_raises(self, monkeypatch):
        # At 2**24 terms fft_error at the caps is 0.031, so the bound holds
        # for delta = 6 (gain 1.15) and breaks for delta = 935 (gain 13.1).
        # The check is not an assert, so it also runs under python -O.
        monkeypatch.setattr(algebra, "MAX_TERMS", 1 << 24)
        assert harmonic_reduction.__wrapped__(6)[0].tolist() == [1]
        with pytest.raises(ZccsError, match="delta=935: harmonic error gain 13.1 "):
            harmonic_reduction.__wrapped__(935)


def _cos_sin(x):
    """cos x and sin x by their Taylor series, in the current decimal context."""
    c, s, term, k = Decimal(0), Decimal(0), Decimal(1), 0
    while abs(term) > Decimal("1e-45"):
        if k % 2 == 0:
            c += term if k % 4 == 0 else -term
        else:
            s += term if k % 4 == 1 else -term
        k += 1
        term = term * x / k
    return c, s


class TestFftError:
    def test_root_table_is_within_its_bound(self):
        # Against w^j at 40 digits, stepped from w by the angle-addition
        # formulas; the worst |error| measured is about 15.7 * 2**-53.
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 40
            pi = Decimal("3.141592653589793238462643383279502884197169399")
            for delta in range(1, MAX_DELTA + 1):
                c1, s1 = _cos_sin(2 * pi / delta)
                c, s = Decimal(1), Decimal(0)
                for value in roots(delta).tolist():
                    worst = max(worst, (Decimal(value.real) - c) ** 2 + (Decimal(value.imag) - s) ** 2)
                    c, s = c * c1 - s * s1, s * c1 + c * s1
        assert worst.sqrt() <= Decimal(ROOT_ERROR) / 2

    def test_the_caps_bound_every_scan(self):
        # harmonic_reduction checks the bound at M*N = MAX_TERMS members and
        # the FFT length 2 * MAX_TERMS; every 5-smooth length up to it and
        # every split of the terms into members give less.
        caps = fft_error(MAX_TERMS, 1, 2 * MAX_TERMS)
        smooth = [2**a * 3**b * 5**c for a in range(22) for b in range(14) for c in range(10)]
        for length in (n for n in smooth if n <= 2 * MAX_TERMS):
            for m in (1 << i for i in range(21)):
                assert fft_error(m, MAX_TERMS // m, length) <= caps
        assert fft_error(1, MAX_TERMS, 2 * MAX_TERMS) < 4e-7 and caps < 2e-4

    def test_other_lengths_are_refused(self):
        for length in (7, 14, 2 * 3 * 5 * 11):
            with pytest.raises(ValueError, match="5-smooth"):
                fft_error(2, 16, length)


class TestPrimeOrbitSums:
    def test_full_orbit_cancels_unless_stride_divides(self):
        for p in (2, 3, 5, 7, 11, 13):
            for c in range(-10, 11):
                total = CycInt.zero(p)
                for alpha in range(p):
                    total = total + CycInt.root(p, c * alpha)
                assert total.is_zero() == (c % p != 0)
                assert total == root_sum(p, c)


class TestExactArithmetic:
    def test_reduced_equals_long_division_remainder(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            delta = int(rng.integers(1, 200))
            coeffs = rng.integers(-(2**60), 2**60, size=delta) >> int(rng.integers(0, 61))
            _, rem = poly_divmod(tuple(coeffs.tolist()), cyclotomic_poly(delta))
            assert ci(delta, coeffs).reduced() == rem

    def test_results_outside_int64_raise(self):
        big = ci(3, [2**32, 0, 0])
        with pytest.raises(OverflowError):
            big * big
        half = ci(2, [2**62, 0])
        with pytest.raises(OverflowError):
            half + half
        with pytest.raises(OverflowError):
            -ci(2, [-(2**63), 0])

    def test_callers_array_stays_writeable_and_unshared(self):
        b = np.array([1, 0, 0, 2])
        value = CycInt(4, b)
        assert b.flags.writeable and not value.coeffs.flags.writeable
        b[0] = 5
        assert value.coeffs.tolist() == [1, 0, 0, 2]

    def test_entries_it_would_change_are_refused(self):
        # the int64 cast used to truncate 0.5 to 0, so this read as zero
        for bad in ([0.5, 0, 0, 0], np.array([1, 0, 0, 0], dtype=float), np.array([1j, 0, 0, 0]), ["1", "0", "0", "0"]):
            with pytest.raises(TypeError):
                CycInt(4, bad)
        with pytest.raises(TypeError):
            CycInt(2, np.array([1, 0.5], dtype=object))
        with pytest.raises(TypeError):
            CycInt(2, np.array([1, 0], dtype=np.uint64))
        with pytest.raises(OverflowError):
            CycInt(2, np.array([2**63, 0], dtype=object))

    def test_from_int_takes_integers_only(self):
        # the value used to be stored with an int64 cast, so 0.5 read as zero
        for bad in (0.5, 1.0, "1", None):
            with pytest.raises(TypeError):
                CycInt.from_int(bad, 4)
        assert CycInt.from_int(np.int64(-3), 4).coeffs.tolist() == [-3, 0, 0, 0]
        assert CycInt.from_int(True, 2).coeffs.tolist() == [1, 0]
        assert CycInt.from_int(2**63 - 1, 2).coeffs.tolist() == [2**63 - 1, 0]
        with pytest.raises(OverflowError):
            CycInt.from_int(2**63, 2)

    def test_integer_entries_convert(self):
        assert CycInt(2, np.array([2**62, -3], dtype=object)).coeffs.tolist() == [2**62, -3]
        assert CycInt(2, np.array([True, False])).coeffs.tolist() == [1, 0]
        assert CycInt(2, np.array([1, 2], dtype=np.uint32)).coeffs.dtype == np.int64
        kept = np.array([1, 2], dtype=np.int64)
        kept.flags.writeable = False
        assert owned_int64(kept) is kept

    @pytest.mark.parametrize("delta", [*range(1, 41), 105, 935, 1001, 1024])
    def test_fold_equals_the_dense_python_int_product(self, delta):
        reduce = reduction_matrix(delta).astype(object)
        rng = np.random.default_rng(delta)
        coeffs = rng.integers(-(2**62), 2**62, size=(3, delta), endpoint=True)
        coeffs[0] = 2**62
        coeffs[1, ::2] = -(2**62)
        coeffs[1, 1::2] = 2**62
        coeffs = np.concatenate([coeffs, rng.integers(-3, 4, size=(2, delta)), np.zeros((1, delta), np.int64)])
        for h, c in zip(coeffs, coeffs.astype(object) @ reduce):
            rem = c.tolist()
            while rem and rem[-1] == 0:
                rem.pop()
            assert CycInt(delta, h).reduced() == tuple(rem)

    def test_coefficient_vector_of_another_length_is_refused(self):
        for coeffs in ([1, 0], [1, 0, 0, 0], [[1, 0, 0]]):
            with pytest.raises(ValueError, match="length delta"):
                CycInt(3, coeffs)

    def test_root_order_is_capped(self):
        assert CycInt.zero(MAX_DELTA).is_zero()
        with pytest.raises(ValueError):
            CycInt(MAX_DELTA + 1, np.zeros(MAX_DELTA + 1, dtype=np.int64))
        with pytest.raises(ValueError):
            root_sum(1031, 1)


# Each reference class built at root order delta (a CycInt of int(delta) zeros).
BUILT_AT = {
    "CycInt": lambda delta: CycInt(delta, np.zeros(int(delta), np.int64)),
    "RootSequence": lambda delta: RootSequence(delta, [0, 1, 5]),
}


class TestRootOrder:
    @pytest.mark.parametrize("built_at", BUILT_AT.values(), ids=BUILT_AT)
    @pytest.mark.parametrize("delta", [6.0, 6.5])
    def test_a_float_root_order_is_a_type_error(self, built_at, delta):
        # both used to keep delta = 6.0 and fail later, in reduced() or accf
        with pytest.raises(TypeError):
            built_at(delta)

    @pytest.mark.parametrize("built_at", BUILT_AT.values(), ids=BUILT_AT)
    def test_a_root_order_past_the_cap_is_refused(self, built_at):
        with pytest.raises(ValueError, match=rf"delta must lie in \[1, {MAX_DELTA}\], got {MAX_DELTA + 1}"):
            built_at(MAX_DELTA + 1)

    @pytest.mark.parametrize("built_at", BUILT_AT.values(), ids=BUILT_AT)
    @pytest.mark.parametrize(
        "delta, kept",
        [pytest.param(np.int64(6), 6, id="int64"), pytest.param(np.int32(6), 6, id="int32"), pytest.param(True, 1, id="True")],
    )
    def test_an_integer_root_order_is_kept_as_an_int(self, built_at, delta, kept):
        value = built_at(delta)
        assert type(value.delta) is int and value.delta == kept
        assert f"delta={kept}," in repr(value)



class TestComplexValue:
    def test_imaginary_unit(self):
        assert ci(4, [0, 1, 0, 0]).to_complex() == pytest.approx(1j)

    def test_zero_vector(self):
        assert CycInt.zero(5).to_complex() == pytest.approx(0j)

    def test_real_combination(self):
        assert ci(2, [3, 1]).to_complex() == pytest.approx(2 + 0j)

    @pytest.mark.parametrize("delta", [6, 20, 105, 935, 1024])
    def test_a_form_has_one_value_alone_or_in_a_batch(self, delta):
        phi = reduction_matrix(delta).shape[1]
        rng = np.random.default_rng(delta)
        forms = rng.integers(-5000, 5001, size=(40, phi))
        forms[::3, phi // 2 :] = 0
        batch = form_values(forms, delta)
        for i, form in enumerate(forms):
            alone = form_values(form, delta)
            assert alone.tobytes() == batch[i].tobytes()
            assert alone.tobytes() == form_values(forms[i : i + 3], delta)[0].tobytes()
            assert alone.tobytes() == form_values(forms[::-1], delta)[-1 - i].tobytes()
            # The reference prints the same value for the same form.
            assert complex(alone) == CycInt(delta, np.concatenate([form, np.zeros(delta - phi, np.int64)])).to_complex()
        w = np.exp(2j * np.pi * np.arange(delta) / delta)
        assert np.allclose(batch, forms @ w[:phi], rtol=0, atol=1e-9)


    @pytest.mark.parametrize("delta", [*range(1, 41), 935, 1024])
    def test_quarter_turns_are_exact(self, delta):
        table = roots(delta)
        assert not table.flags.writeable and roots(delta) is table
        j = np.arange(delta)
        quarter = 4 * j % delta == 0
        assert table[quarter].tolist() == [1j ** (4 * i // delta) for i in j[quarter]]
        floats = np.exp(2j * np.pi * j / delta)
        assert np.array_equal(table[~quarter], floats[~quarter]) and np.abs(table - floats).max() < 1e-14
        # +-2i, -3 and 0 have parts that are exactly zero, and print as 0
        phi = reduction_matrix(delta).shape[1]
        forms = np.zeros((4, phi), np.int64)
        if delta % 4 == 0:
            forms[0, delta // 4], forms[1, delta // 4] = 2, -2
        forms[2, 0] = -3
        for z in form_values(forms, delta).tolist():
            assert "-0" not in ("%.12g,%.12g" % (z.real, z.imag)).split(",")


class TestRingHelpers:
    def test_conjugate_matches_complex(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            delta = int(rng.integers(1, 25))
            a = ci(delta, rng.integers(-4, 5, size=delta))
            assert a.conjugate().to_complex() == pytest.approx(a.to_complex().conjugate())

    def test_product_matches_complex(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            delta = int(rng.integers(1, 20))
            a = ci(delta, rng.integers(-3, 4, size=delta))
            b = ci(delta, rng.integers(-3, 4, size=delta))
            assert (a * b).to_complex() == pytest.approx(a.to_complex() * b.to_complex())

    def test_promotion_preserves_value(self):
        a = ci(3, [2, -1, 4])
        assert a.promoted(12).to_complex() == pytest.approx(a.to_complex())
        with pytest.raises(DeltaMismatch):
            a.promoted(10)

    def test_equality_is_by_value(self):
        # 1 + w_3 and -w_3^2 are the same number in different coordinates
        assert ci(3, [1, 1, 0]) == ci(3, [0, 0, -1])
        assert hash(ci(3, [1, 1, 0])) == hash(ci(3, [0, 0, -1]))
        # an int is not a CycInt, even one with the same value
        assert not ci(3, [3, 0, 0]) == 3 and ci(3, [3, 0, 0]) != 3


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)
