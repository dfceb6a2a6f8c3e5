"""Acceptance suite: one test per advertised guarantee, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import time

import numpy as np
import pytest

from zccs.algebra import is_prime
from zccs.boolfn import GeneralizedBooleanFunction, parse_gbf
from zccs.construct import build_ccc, build_zccs
from zccs.reference import CycInt, RootSequence, accf, build_zccs_by_concatenation, code_accf, root_sum
from zccs.verify import check_ccc, check_optimal, check_zccs

from oracles import naive_accf

GRID = [
    (q, p, m, k)
    for q in (2, 4)
    for p in (2, 3, 5)
    for m in (2, 3, 4)
    for k in (0, 1)
]


def chain_function(m, k, q):
    """Quadratic chain over the last m-k variables, every weight q/2."""
    return GeneralizedBooleanFunction(m, q, {(i, i + 1): q // 2 for i in range(k, m - 1)})


def report(number: int, name: str, ok: bool):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def flagship():
    return build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2)


def test_criterion_1_reference_set(flagship):
    start = time.perf_counter()
    cs = build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2)
    ok_shape = (
        len(cs.codes) == 12
        and all(len(c.sequences) == 4 for c in cs.codes)
        and all(len(s) == 24 for c in cs.codes for s in c.sequences)
        and cs.params.delta == 6
    )
    ok_zone, _ = check_zccs(cs, 8)
    ok_peak = code_accf(cs.codes[0], cs.codes[0], 0) == CycInt.from_int(96, 6)
    ok_optimal = check_optimal(cs, 8)
    elapsed = time.perf_counter() - start
    report(1, "reference 12x4x24 set", ok_shape and ok_zone and ok_peak and ok_optimal and elapsed < 1.0)


def test_criterion_2_prime_extension_grid():
    start = time.perf_counter()
    ok = True
    for q, p, m, k in GRID:
        f = chain_function(m, k, q)
        cs = build_zccs(f, list(range(k)), p=p)
        pp = cs.params
        z = 1 << m
        good = (
            pp.K == p * (2 << k)
            and pp.M == (2 << k)
            and pp.N == (p << m)
            and check_zccs(cs, z).ok
            and pp.K == pp.M * (pp.N // z)
        )
        if not good:
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(2, "prime-extension grid", ok and elapsed < 30.0)


def test_criterion_3_base_family_grid():
    ok = True
    for q in (2, 4):
        for m in (2, 3, 4):
            for k in (0, 1):
                cs = build_ccc(chain_function(m, k, q), list(range(k)))
                if not check_ccc(cs):
                    ok = False
    report(3, "base complementary family grid", ok)


def test_criterion_4_concatenation_equivalence():
    ok = True
    for q, p, m, k in GRID:
        f = chain_function(m, k, q)
        direct = build_zccs(f, list(range(k)), p=p)
        concat = build_zccs_by_concatenation(f, list(range(k)), p=p)
        if direct != concat:
            ok = False
            break
    report(4, "concatenation equivalence", ok)


def test_criterion_5_power_of_two_degeneration():
    ok = True
    for q in (2, 4):
        for m in (2, 3, 4):
            for k in (0, 1):
                f = chain_function(m, k, q)
                cs = build_zccs(f, list(range(k)), p=2)
                pp = cs.params
                step = pp.delta // q
                entries_ok = all(
                    np.all(s.exponents % step == 0) for c in cs.codes for s in c.sequences
                )
                z = 1 << m
                good = (
                    pp.delta == q
                    and entries_ok
                    and pp.K == (4 << k)
                    and pp.N == (2 << m)
                    and check_zccs(cs, z).ok
                    and check_optimal(cs, z)
                )
                if not good:
                    ok = False
    report(5, "p=2 power-of-two degeneration", ok)


def test_criterion_6_floating_oracle_agreement():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        delta = int(rng.integers(1, 31))
        a = RootSequence(delta, rng.integers(0, delta, size=n))
        b = RootSequence(delta, rng.integers(0, delta, size=n))
        ac, bc = a.to_complex(), b.to_complex()
        for tau in range(-n + 1, n):
            exact = accf(a, b, tau).to_complex()
            if abs(exact - naive_accf(ac, bc, tau)) >= 1e-9 * n:
                ok = False
                break
        if not ok:
            break
    report(6, "exact vs floating correlation", ok)


def test_criterion_7_prime_root_sums():
    ok = True
    for p in range(2, 32):
        if not is_prime(p):
            continue
        for c in range(-100, 101):
            if root_sum(p, c).is_zero() != (c % p != 0):
                ok = False
    report(7, "prime root sums", ok)


def _partial_root_sum(p: int, lam: int, lam2: int) -> CycInt:
    """sum over alpha = 0..p-2 of w_p^(lam*(alpha+1) - lam2*alpha)."""
    total = CycInt.zero(p)
    for alpha in range(p - 1):
        total = total + CycInt.root(p, lam * (alpha + 1) - lam2 * alpha)
    return total


def test_criterion_8_block_splitting_identity(flagship):
    # For 0 < tau < 2**m the correlation of two length-p*2**m codes splits
    # into base-code correlations at tau and tau - 2**m, each weighted by a
    # sum of p-th roots of unity.  Both sides are computed independently:
    # the left from the built codes, the right from the base family.
    f = parse_gbf("x1*x2", 3, 2)
    cs = flagship
    base = build_ccc(f, [0], 2)
    p, half_len, delta = 3, 8, 6
    ok = True
    for lam in range(p):
        for t in range(2):
            for lam2 in range(p):
                for t2 in range(2):
                    code_a = cs.codes[lam * 2 + t]
                    code_b = cs.codes[lam2 * 2 + t2]
                    base_a = base.codes[t]
                    base_b = base.codes[t2]

                    def rhs(x, y, l1, l2, tau):
                        full = root_sum(p, l1 - l2).promoted(delta)
                        partial = _partial_root_sum(p, l1, l2).promoted(delta)
                        inner = code_accf(x, y, tau).promoted(delta)
                        wrapped = code_accf(x, y, tau - half_len).promoted(delta)
                        return inner * full + wrapped * partial

                    for tau in range(1, half_len):
                        lhs_pos = code_accf(code_a, code_b, tau)
                        if lhs_pos != rhs(base_a, base_b, lam, lam2, tau):
                            ok = False
                        lhs_neg = code_accf(code_a, code_b, -tau)
                        if lhs_neg != rhs(base_b, base_a, lam2, lam, tau).conjugate():
                            ok = False
    report(8, "block-splitting identity", ok)
