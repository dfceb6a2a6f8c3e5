"""Exhaustive census of the small binary constructions.

For q = 2 and m <= 3 the census enumerates every second-order function
without a constant term (a constant multiplies every sequence by the same
unit, which changes no correlation), every deleted set after which the
remaining vertices certify as a weight-1 path, both end vertices gamma and
p in {2, 3}: 458 base sets and 916 prime-extension sets.  Every set's
batched verdict and maximal width are checked against the float oracle,
together with the optimality bound; the per-member builders and the
``code_accf`` reference cover a seeded sample.

Past that, m = 4 and q = 4 are sampled, not enumerated: for each q in
{2, 4}, m up to 4 and k < m, a seeded stratum of certified bases drawn
uniformly from random functions and deleted sets, each checked the same
way at p in {2, 3}.
"""
import random
from itertools import combinations, product

from zccs.algebra import CycInt
from zccs.boolfn import GeneralizedBooleanFunction, check_path_after_deletion, graph_of
from zccs.construct import build_ccc, build_zccs, build_zccs_by_concatenation
from zccs.errors import NotAPath
from zccs.reference import code_accf
from zccs.verify import check_ccc, verify_code_set

from oracles import float_zcz_width, reference_ccc, reference_zccs

PRIMES = (2, 3)


def census_bases():
    """Every certified (f, deleted, gamma) with q = 2 and m <= 3."""
    for m in (1, 2, 3):
        monomials = [(v,) for v in range(m)] + list(combinations(range(m), 2))
        for coeffs in product((0, 1), repeat=len(monomials)):
            f = GeneralizedBooleanFunction(m, 2, dict(zip(monomials, coeffs)))
            for k in range(m):
                for deleted in combinations(range(m), k):
                    try:
                        cert = check_path_after_deletion(graph_of(f), deleted, 2)
                    except NotAPath:
                        continue
                    for gamma in sorted(set(cert.end_vertices)):
                        yield f, deleted, gamma


def accf_width(cs) -> int:
    """First shift with a non-ideal cell by the reference ``code_accf``, or N."""
    pp = cs.params
    for tau in range(pp.N):
        for mu1, a in enumerate(cs.codes):
            for mu2, b in enumerate(cs.codes):
                ideal = pp.M * pp.N if mu1 == mu2 and tau == 0 else 0
                if code_accf(a, b, tau) != CycInt.from_int(ideal, pp.delta):
                    return tau
    return pp.N


def test_census_of_small_binary_sets():
    bases = list(census_bases())
    assert len(bases) == 458
    for f, deleted, gamma in bases:
        for p in PRIMES:
            cs = build_zccs(f, deleted, gamma, p=p)
            pp = cs.params
            report = verify_code_set(cs, compute_max=True)
            width = float_zcz_width(cs)
            assert report.is_zccs_at_claimed_z == (width >= pp.Z), (f, deleted, gamma, p)
            assert report.max_zcz == width, (f, deleted, gamma, p)
            assert pp.K == pp.M * (pp.N // pp.Z)
            assert report.max_zcz >= pp.Z


def test_census_sample_against_the_references():
    # The per-member builders take about 10 ms a set and code_accf about
    # 0.1 s, so each covers a seeded sample of the census.
    sample = random.Random(2021).sample(list(census_bases()), 12)
    for i, (f, deleted, gamma) in enumerate(sample):
        assert build_ccc(f, deleted, gamma) == reference_ccc(f, deleted, gamma)
        for p in PRIMES:
            cs = build_zccs(f, deleted, gamma, p=p)
            assert cs == reference_zccs(f, deleted, gamma, p=p)
            if i < 3:
                assert verify_code_set(cs, compute_max=True).max_zcz == accf_width(cs)


# The sampled strata (q, m): every k < m of each, with SAMPLE bases a stratum.
STRATA = ((2, 4), (4, 2), (4, 3), (4, 4))
SAMPLE = 16


def sampled_bases(q: int, m: int, k: int, count: int, rng: random.Random):
    """``count`` certified (f, deleted, gamma) over Z_q with m variables and
    k deleted, from uniformly random coefficients and deleted sets."""
    monomials = [(v,) for v in range(m)] + list(combinations(range(m), 2))
    found = []
    while len(found) < count:
        f = GeneralizedBooleanFunction(m, q, {mono: rng.randrange(q) for mono in monomials})
        deleted = tuple(sorted(rng.sample(range(m), k)))
        try:
            cert = check_path_after_deletion(graph_of(f), deleted, q)
        except NotAPath:
            continue
        found.append((f, deleted, rng.choice(sorted(set(cert.end_vertices)))))
    return found


def test_stratified_sample_of_larger_sets():
    rng = random.Random(4)
    for q, m in STRATA:
        for k in range(m):
            for f, deleted, gamma in sampled_bases(q, m, k, SAMPLE, rng):
                base = build_ccc(f, deleted, gamma)
                assert check_ccc(base) and float_zcz_width(base) == base.params.N, (f, deleted, gamma)
                for p in PRIMES:
                    cs = build_zccs(f, deleted, gamma, p=p)
                    pp = cs.params
                    assert cs == build_zccs_by_concatenation(f, deleted, gamma, p=p)
                    report = verify_code_set(cs, compute_max=True)
                    width = float_zcz_width(cs)
                    assert report.is_zccs_at_claimed_z and report.optimal, (f, deleted, gamma, p)
                    assert report.max_zcz == width >= pp.Z, (f, deleted, gamma, p)
