import json
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zccs.boolfn import GeneralizedBooleanFunction, check_path_after_deletion, graph_of, min_blocks_exponent, parse_gbf
from zccs.algebra import MAX_DELTA, MAX_TERMS
from zccs.cli import code_set_from_dict, code_set_to_dict, read_code_set, write_code_set
from zccs.construct import (
    CodeLabel,
    CodeSet,
    CodeSetParams,
    build_ccc,
    build_zccs,
    family_labels,
)
from zccs.errors import InvalidGamma, InvalidParams
from zccs.reference import PbfSpec, build_zccs_by_concatenation, pbf_sequence

from oracles import TOL, float_zcz_width, naive_code_accf, reference_ccc, reference_zccs, to_complex_code


def chain_function(m, k, q):
    """Quadratic chain over the last m-k variables, every weight q/2."""
    return GeneralizedBooleanFunction(m, q, {(i, i + 1): q // 2 for i in range(k, m - 1)})


class TestBuildCcc:
    def test_golay_pair_code(self):
        cs = build_ccc(parse_gbf("x0*x1", 2, 2), [], 0)
        assert cs.params.K == cs.params.M == 2
        assert cs.params.N == 4
        first = [s.exponents.tolist() for s in cs.codes[0].sequences]
        assert first == [[0, 0, 0, 1], [0, 1, 0, 0]]

    def test_golay_case_is_ccc_by_brute_force(self):
        cs = build_ccc(parse_gbf("x0*x1", 2, 2), [], 0)
        assert float_zcz_width(cs) == cs.params.N

    def test_deleted_vertex_case_is_ccc_by_brute_force(self):
        cs = build_ccc(parse_gbf("x1*x2", 3, 2), [0], 2)
        assert cs.params.K == cs.params.M == 4
        assert cs.params.N == 8
        assert float_zcz_width(cs) == 8

    def test_counting(self):
        for m, k, q in [(3, 1, 2), (4, 2, 4), (2, 0, 6)]:
            f = chain_function(m, k, q)
            cs = build_ccc(f, list(range(k)))
            assert len(cs.codes) == 2 * (1 << k)
            assert all(len(c.sequences) == 2 << k for c in cs.codes)
            assert all(len(s) == 1 << m for c in cs.codes for s in c.sequences)

    def test_code_rows_are_views_of_the_exponents(self):
        cs = build_ccc(chain_function(3, 1, 2), [0])
        for mu, code in enumerate(cs.codes):
            for nu, seq in enumerate(code.sequences):
                assert np.shares_memory(seq.exponents, cs.exponents)
                assert np.array_equal(seq.exponents, cs.exponents[mu, nu])

    def test_labels(self):
        cs = build_ccc(chain_function(3, 1, 2), [0])
        assert [c.label for c in cs.codes] == [
            CodeLabel("C", 0), CodeLabel("C", 1), CodeLabel("Cbar", 0), CodeLabel("Cbar", 1),
        ]


class TestBuildZccs:
    def test_flagship_set(self):
        cs = build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3, s=2)
        pp = cs.params
        assert (pp.K, pp.M, pp.N, pp.Z, pp.delta) == (12, 4, 24, 8, 6)
        assert all(s.delta == 6 for c in cs.codes for s in c.sequences)

    def test_power_of_two_case_is_binary(self):
        cs = build_zccs(parse_gbf("x0*x1", 2, 2), [], 0, p=2, s=1)
        pp = cs.params
        assert (pp.K, pp.M, pp.N, pp.delta) == (4, 2, 8, 2)
        for c in cs.codes:
            for s in c.sequences:
                assert set(np.unique(s.exponents)) <= {0, 1}

    def test_counting_identity(self):
        # the bound K = M * floor(N/Z) holds with equality by construction
        for q, p, m, k in [(2, 3, 3, 1), (4, 2, 2, 0), (2, 5, 2, 1)]:
            cs = build_zccs(chain_function(m, k, q), list(range(k)), p=p)
            pp = cs.params
            assert pp.K * pp.Z == pp.M * pp.N

    def test_label_layout(self):
        cs = build_zccs(chain_function(3, 1, 2), [0], p=2)
        labels = [c.label for c in cs.codes]
        assert labels == [
            CodeLabel("U", 0, 0), CodeLabel("U", 1, 0),
            CodeLabel("U", 0, 1), CodeLabel("U", 1, 1),
            CodeLabel("V", 0, 0), CodeLabel("V", 1, 0),
            CodeLabel("V", 0, 1), CodeLabel("V", 1, 1),
        ]

    def test_deterministic(self):
        f = parse_gbf("x1*x2", 3, 2)
        assert build_zccs(f, [0], 2, p=3) == build_zccs(f, [0], 2, p=3)

    def test_rejects_bad_parameters(self):
        f = parse_gbf("x1*x2", 3, 2)
        with pytest.raises(InvalidParams):
            build_zccs(f, [0], 2, p=6)
        with pytest.raises(InvalidParams):
            build_zccs(f, [0], 2, p=5, s=2)
        with pytest.raises(InvalidGamma):
            build_zccs(f, [0], 0, p=3)

    def test_equality_covers_exponents_labels_and_params(self):
        cs = build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3)
        exps = cs.exponents.copy()
        exps[0, 0, 0] += 1
        assert CodeSet(cs.exponents, cs.labels, cs.params) == cs
        assert CodeSet(exps, cs.labels, cs.params) != cs
        assert CodeSet(cs.exponents, cs.labels[::-1], cs.params) != cs
        assert CodeSet(cs.exponents, cs.labels, replace(cs.params, Z=4)) != cs
        assert cs != "cs" and cs.__eq__(cs.exponents) is NotImplemented

    @pytest.mark.parametrize("s", [16, 4096])
    def test_large_s_costs_nothing(self, s):
        f = parse_gbf("x1*x2", 3, 2)
        start = time.perf_counter()
        cs = build_zccs(f, [0], 2, p=3, s=s)
        assert time.perf_counter() - start < 0.5
        default = build_zccs(f, [0], 2, p=3)
        assert cs.params == replace(default.params, s=s)
        assert cs.labels == default.labels
        assert np.array_equal(cs.exponents, default.exponents)

    def test_huge_s_is_checked_without_a_shift(self):
        f = parse_gbf("x1*x2", 3, 2)
        assert build_zccs(f, [0], 2, p=3, s=10**9).params.s == 10**9
        with pytest.raises(InvalidParams):
            build_zccs(f, [0], 2, p=3, s=0)

    @pytest.mark.parametrize("builder", [build_zccs, build_zccs_by_concatenation])
    def test_huge_prime_is_refused_on_delta_before_the_primality_test(self, builder):
        # Trial division up to sqrt(2**61 - 1) would run for minutes.
        f = parse_gbf("x1*x2", 3, 2)
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match="delta"):
            builder(f, [0], 2, p=2**61 - 1)
        assert time.perf_counter() - start < 0.5

    def test_pbf_spec_refuses_a_huge_prime_on_delta_before_the_primality_test(self):
        f = parse_gbf("x1*x2", 3, 2)
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match="delta"):
            PbfSpec(f, 2**61 - 1, 61, 0)
        assert time.perf_counter() - start < 0.5

    def test_default_gamma_is_lower_endpoint(self):
        f = parse_gbf("x1*x2", 3, 2)
        assert build_zccs(f, [0], p=3) == build_zccs(f, [0], 1, p=3)

    def test_numpy_p_and_s_build_the_set_of_their_ints(self, tmp_path):
        f = parse_gbf("x1*x2", 3, 2)
        cs = build_zccs(f, [0], 2, p=np.int64(3), s=np.int64(2))
        assert cs == build_zccs(f, [0], 2, p=3, s=2)
        assert build_zccs_by_concatenation(f, [0], 2, p=np.int32(3)) == cs
        assert {type(v) for v in vars(cs.params).values()} == {int}
        path = tmp_path / "set.json"
        write_code_set(cs, str(path))
        assert read_code_set(str(path)) == cs

    @pytest.mark.parametrize("builder, kwargs", [
        (build_zccs, {"p": 3.0}),
        (build_zccs, {"p": 3, "s": 2.0}),
        (build_zccs_by_concatenation, {"p": 3.0}),
    ])
    def test_float_p_or_s_is_a_type_error(self, builder, kwargs):
        with pytest.raises(TypeError):
            builder(parse_gbf("x1*x2", 3, 2), [0], 2, **kwargs)


def test_every_builder_labels_its_codes_by_family_labels():
    # The grid of the benchmark's design-space sweep: q in (2, 4), m in
    # (2, 3, 4), k < m deleted vertices with k <= 2, p in (2, 3, 5, 7),
    # and K*K*N at most 2048.
    built = 0
    for q in (2, 4):
        for m in (2, 3, 4):
            for k in range(min(m, 3)):
                f = chain_function(m, k, q)
                sets = [build_ccc(f, range(k))]
                for p in (2, 3, 5, 7):
                    if (p * (2 << k)) ** 2 * (1 << m) <= 2048:
                        sets += [build_zccs(f, range(k), p=p), build_zccs_by_concatenation(f, range(k), p=p)]
                for cs in sets:
                    assert cs.labels == family_labels(cs.params), (q, m, k, cs.params.p)
                    assert len(set(cs.labels)) == cs.params.K
                built += len(sets)
    assert built > 30


class TestConcatenationRoute:
    def test_matches_direct_builder_on_grid(self):
        for q in (2, 4):
            for p in (2, 3, 5):
                for m in (2, 3):
                    for k in (0, 1):
                        f = chain_function(m, k, q)
                        direct = build_zccs(f, list(range(k)), p=p)
                        concat = build_zccs_by_concatenation(f, list(range(k)), p=p)
                        assert direct == concat, (q, p, m, k)

    def test_lambda_zero_repeats_base_code(self):
        f = parse_gbf("x1*x2", 3, 2)
        ccc = build_ccc(f, [0], 2)
        cs = build_zccs_by_concatenation(f, [0], 2, p=3)
        for base_code, code in zip(ccc.codes[:2], cs.codes[:2]):
            for base_seq, seq in zip(base_code.sequences, code.sequences):
                promoted = (3 * base_seq.exponents) % 6
                assert seq.exponents.tolist() == np.tile(promoted, 3).tolist()

    def test_p2_blocks_alternate(self):
        f = parse_gbf("x0*x1", 2, 2)
        cs = build_zccs_by_concatenation(f, [], 0, p=2)
        n = 4
        for code in cs.codes:
            lam = code.label.lam
            for seq in code.sequences:
                first, second = seq.exponents[:n], seq.exponents[n:]
                assert second.tolist() == ((first + lam) % 2).tolist()


class TestMinBlocksExponent:
    def test_values(self):
        assert min_blocks_exponent(1) == 1
        assert min_blocks_exponent(2) == 1
        assert min_blocks_exponent(3) == 2
        assert min_blocks_exponent(5) == 3
        assert min_blocks_exponent(8) == 3
        assert min_blocks_exponent(9) == 4


class TestPeak:
    def test_zero_shift_peak_is_set_energy(self):
        cs = build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3)
        for code in cs.codes:
            value = naive_code_accf(to_complex_code(code), to_complex_code(code), 0)
            assert abs(value - cs.params.M * cs.params.N) < TOL


class TestCoefficientBound:
    def test_m_times_n_up_to_the_limit(self):
        at_limit = CodeSetParams(K=1, M=2, N=MAX_TERMS // 2, Z=1, q=2, m=19, k=0, delta=2)
        CodeSet(np.zeros((1, 2, at_limit.N), int), (CodeLabel("C", 0),), at_limit)
        with pytest.raises(InvalidParams):
            replace(at_limit, N=MAX_TERMS, m=20)

    def test_a_set_without_codes_is_refused(self):
        # It would pass every zone check vacuously.
        for k in (0, -1):
            with pytest.raises(InvalidParams, match=f"params.K={k}"):
                CodeSet(np.zeros((0, 2, 4)), (), CodeSetParams(K=k, M=2, N=4, Z=4, q=2, m=2, k=0, delta=2))

    def test_empty_shapes_refused(self):
        for m, n in ((0, 4), (2, 0)):
            with pytest.raises(InvalidParams):
                CodeSet(np.zeros((0, m, n), int), (), CodeSetParams(K=0, M=m, N=n, Z=1, q=2, m=2, k=0, delta=2))

    def test_root_order_within_limits(self):
        exps, labels = np.zeros((1, 2, 4), int), (CodeLabel("C", 0),)
        CodeSet(exps, labels, CodeSetParams(K=1, M=2, N=4, Z=1, q=2, m=2, k=0, delta=MAX_DELTA))
        for delta in (0, -2, MAX_DELTA + 2):
            with pytest.raises(InvalidParams):
                CodeSet(exps, labels, CodeSetParams(K=1, M=2, N=4, Z=1, q=2, m=2, k=0, delta=delta))
        with pytest.raises(InvalidParams):
            build_ccc(parse_gbf(f"{MAX_DELTA // 2 + 1}*x0*x1", 2, MAX_DELTA + 2), [])


class TestParamsRule:
    # A set holding any of these would trip the verifier, the writer or
    # the reader; the params refuse them when they are made.
    @pytest.mark.parametrize("field, value", [
        ("Z", 25), ("Z", 0), ("Z", True), ("Z", np.int64(8)), ("K", np.int64(12)), ("p", 3.0), ("s", "2"), ("q", None),
    ])
    def test_the_params_refuse_what_the_set_could_not_use(self, field, value):
        pp = build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3).params
        with pytest.raises(InvalidParams, match=f"params.{field}"):
            replace(pp, **{field: value})


def _pbf_route(f, deleted, gamma):
    """The members of one (lam, t) pair through the reference's pbf_sequence."""
    cert = check_path_after_deletion(graph_of(f), deleted, f.q)
    k = len(cert.deleted)
    spec = PbfSpec(f, 3, 2, 1)
    return [pbf_sequence(spec, d_vec, (1,) * k, d, cert, gamma) for d_vec in product((0, 1), repeat=k) for d in (0, 1)]


VERTEX_ROUTES = {
    "build_ccc": build_ccc,
    "build_zccs": lambda f, deleted, gamma: build_zccs(f, deleted, gamma, p=3),
    "build_zccs_by_concatenation": lambda f, deleted, gamma: build_zccs_by_concatenation(f, deleted, gamma, p=3),
    "pbf_sequence": _pbf_route,
}


class TestVertexRule:
    # Deleting x1 from x0*x2 over m = 3 leaves the path x0 - x2.  With a
    # float deleted vertex, x0*x1 + x1*x2 would be certified as undeleted
    # while int64 truncation made the builders read x0.
    @pytest.mark.parametrize("route", VERTEX_ROUTES)
    @pytest.mark.parametrize("deleted, gamma", [([0.5], None), ([0.0], None), ([1.0], 2), ([1], 0.5), ([1], 2.0)])
    def test_a_vertex_that_is_not_an_integer_is_a_type_error(self, route, deleted, gamma):
        # raised where the vertex enters, not by numpy or truth_table later
        f = parse_gbf("x0*x1 + x1*x2", 3, 2) if deleted[0] != 1 else parse_gbf("x0*x2", 3, 2)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            VERTEX_ROUTES[route](f, deleted, gamma)

    @pytest.mark.parametrize("route", VERTEX_ROUTES)
    @pytest.mark.parametrize("text, deleted, gamma", [
        ("x0*x2", [np.int64(1)], np.int64(2)), ("x0*x2", [np.int32(1)], np.int32(2)), ("x0*x2", [True], 2),
        ("x0*x2", (np.int64(1),), np.int64(0)), ("x1*x2", [0], True),
    ])
    def test_an_integer_vertex_builds_the_set_of_its_int(self, route, text, deleted, gamma):
        build, f = VERTEX_ROUTES[route], parse_gbf(text, 3, 2)
        assert build(f, deleted, gamma) == build(f, [int(v) for v in deleted], int(gamma))

    def test_the_builders_and_the_reference_refuse_gamma_alike(self):
        f = parse_gbf("x1*x2 + x2*x3", 4, 2)
        messages = set()
        for build in (*VERTEX_ROUTES.values(), reference_ccc, reference_zccs):
            with pytest.raises(InvalidGamma) as refused:
                build(f, [0], 2)
            messages.add(str(refused.value))
        assert messages == {"x2 is not an end vertex of the path"}


@st.composite
def certified_functions(draw, qs=(2, 4)):
    """A second-order function over Z_q, q drawn from qs, whose m - k kept
    vertices form a path with every edge weighing q/2, plus random linear
    and constant terms and random edges at the k deleted vertices;
    returns (f, deleted)."""
    q = draw(st.sampled_from(qs))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, min(2, m - 1)))
    order = draw(st.permutations(range(m)))
    deleted, path = sorted(order[:k]), order[k:]
    terms = {tuple(sorted(edge)): q // 2 for edge in zip(path, path[1:])}
    terms[()] = draw(st.integers(0, q - 1))
    for v in range(m):
        terms[(v,)] = draw(st.integers(0, q - 1))
        for d in deleted:
            if v != d:
                terms[tuple(sorted((d, v)))] = draw(st.integers(0, q - 1))
    return GeneralizedBooleanFunction(m, q, terms), deleted


@settings(max_examples=60, deadline=None)
@given(certified_functions(), st.sampled_from([2, 3, 5]))
def test_round_trip_and_views_of_random_sets(fd, p):
    f, deleted = fd
    cs = build_zccs(f, deleted, p=p)
    assert code_set_from_dict(json.loads(json.dumps(code_set_to_dict(cs)))) == cs
    assert build_zccs_by_concatenation(f, deleted, p=p) == cs
    with pytest.raises(ValueError):
        cs.exponents[0, 0, 0] = 1
    for code in cs.codes:
        for seq in code.sequences:
            assert np.shares_memory(seq.exponents, cs.exponents)
            with pytest.raises(ValueError):
                seq.exponents[0] = 1


@settings(max_examples=80, deadline=None)
@given(certified_functions((2, 4, 8)), st.sampled_from([2, 3, 5, 7]), st.integers(0, 1), st.integers(0, 2))
def test_builders_equal_the_per_member_reference(fd, p, end, extra_s):
    f, deleted = fd
    gamma = check_path_after_deletion(graph_of(f), deleted, f.q).end_vertices[end]
    assert build_ccc(f, deleted, gamma) == reference_ccc(f, deleted, gamma)
    s = min_blocks_exponent(p) + extra_s
    assert build_zccs(f, deleted, gamma, p=p, s=s) == reference_zccs(f, deleted, gamma, p=p, s=s)
