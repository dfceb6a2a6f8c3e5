import cmath
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zccs
from zccs.algebra import MAX_TERMS
from zccs.construct import CodeLabel, family_params
from zccs.boolfn import (
    FunctionGraph,
    GeneralizedBooleanFunction,
    check_path_after_deletion,
    graph_of,
    parse_gbf,
)
from zccs.errors import (
    ArityError,
    InvalidGamma,
    InvalidModulus,
    InvalidParams,
    NotAPath,
    NotSecondOrder,
    ParseError,
    TruncateError,
)
from zccs.reference import Code, PbfSpec, RootSequence, codeword_function, pbf_sequence, sequence_of

from oracles import brute_force_path, monomial_truth_table


def random_gbf(rng, m, q, max_degree=2, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_degree + 1))
        mono = tuple(sorted(rng.choice(m, size=min(deg, m), replace=False))) if deg else ()
        terms[mono] = int(rng.integers(0, q))
    return GeneralizedBooleanFunction(m, q, terms)


class TestParse:
    def test_single_quadratic(self):
        f = parse_gbf("x1*x2", 3, 2)
        assert f.terms == {(1, 2): 1}

    def test_zero_function(self):
        assert parse_gbf("0", 2, 4).terms == {}

    def test_odd_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            parse_gbf("2*x0*x1 + x1 + 1", 2, 3)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse_gbf("x3", 3, 2)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_gbf("x1 ** x2", 3, 2)

    def test_only_ascii_digits(self):
        # r"\d" on a str also matches other scripts' digits, which int() reads
        for text in ("x١*x٢ + ٣", "x1*x2 + ٣", "x１"):
            with pytest.raises(ParseError, match="bad factor"):
                parse_gbf(text, 3, 4)

    @pytest.mark.parametrize("text", ["9" * 5000 + "*x0", "x" + "1" * 5000, "x0 + " + "0" * 4400],
                             ids=["coefficient", "variable", "zeros"])
    def test_an_integer_too_long_to_convert_is_a_parse_error(self, text):
        # int() refuses more than 4300 digits with a bare ValueError
        with pytest.raises(ParseError, match=r"^factor [x0-9]{20}\.\.\. has [0-9]+ characters, too many digits$"):
            parse_gbf(text, 2, 4)

    def test_empty_text_or_dangling_sign_rejected(self):
        for text, why in (("", "empty"), ("  ", "empty"), ("x0 + -", "dangling"), ("+", "dangling")):
            with pytest.raises(ParseError, match=why):
                parse_gbf(text, 2, 2)

    def test_coefficients_reduce(self):
        f = parse_gbf("5*x0 + 2", 1, 4)
        assert f.terms == {(0,): 1, (): 2}

    def test_minus_sign(self):
        f = parse_gbf("x0 - x1", 2, 4)
        assert f.terms == {(0,): 1, (1,): 3}

    def test_printer_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            q = 2 * int(rng.integers(1, 5))
            f = random_gbf(rng, m, q, max_degree=3)
            text = f.to_text()
            again = parse_gbf(text, m, q)
            assert again.terms == f.terms
            assert again.to_text() == text


class TestEvaluate:
    def test_on_point(self):
        f = parse_gbf("x1*x2", 3, 2)
        assert f.evaluate((0, 1, 1)) == 1
        assert f.evaluate((1, 1, 0)) == 0

    def test_constant_only(self):
        f = parse_gbf("x0*x1 + 3", 2, 4)
        assert f.evaluate((0, 0)) == 3

    def test_arity_checked(self):
        with pytest.raises(ArityError):
            parse_gbf("x0", 2, 2).evaluate((1,))

    def test_bits_outside_0_1_are_refused(self):
        f = parse_gbf("x0", 2, 4)
        with pytest.raises(InvalidParams):
            f.evaluate((2, 0))
        with pytest.raises(InvalidParams):
            f.evaluate((-1, 0))
        assert f.evaluate((True, False)) == 1


class TestCoefficients:
    def test_a_coefficient_that_is_not_an_integer_is_refused(self):
        # a float coefficient used to evaluate to 1.5 while the truth
        # table read [0, 1], so the builders built another function's set
        for c in (1.5, 1.0, "1", None, 1j):
            with pytest.raises(TypeError):
                GeneralizedBooleanFunction(1, 4, {(0,): c})

    def test_a_modulus_or_arity_that_is_not_an_integer_is_refused(self):
        # q = 4.0 used to evaluate to 1.0 and m = 1.5 to fail only in truth_table
        for m, q in ((1, 4.0), (1.5, 4), (1, "4"), (None, 4)):
            with pytest.raises(TypeError):
                GeneralizedBooleanFunction(m, q, {(0,): 1})
        f = GeneralizedBooleanFunction(np.int64(1), np.int64(4), {(0,): 1})
        assert (type(f.m), type(f.q)) == (int, int)
        assert f.evaluate((1,)) == 1 and f.truth_table().tolist() == [0, 1]

    def test_integer_types_are_taken_exactly(self):
        f = GeneralizedBooleanFunction(2, 4, {(0,): np.int64(3), (1,): True, (): 2**70 + 1})
        assert f.terms == {(0,): 3, (1,): 1, (): 1}
        assert f.truth_table().tolist() == [f.evaluate((r & 1, r >> 1)) for r in range(4)]

    def test_a_variable_that_is_not_an_integer_is_refused(self):
        # a float vertex passes a range check, and a builder would read
        # the vertex it truncates to
        for mono in ((0.5,), (0.0,), (0, 1.0), ("0",)):
            with pytest.raises(TypeError):
                GeneralizedBooleanFunction(2, 4, {mono: 1})
        with pytest.raises(TypeError):
            parse_gbf("x0", 2, 4).with_term((0.5,), 1)
        f = GeneralizedBooleanFunction(2, 4, {(np.int64(1), True): 1, (np.int32(0),): 3})
        assert f.terms == {(1,): 1, (0,): 3} and {type(v) for mono in f.terms for v in mono} == {int}

    def test_with_term_is_a_sum(self):
        f = parse_gbf("x0*x1 + x0", 2, 4)
        assert f.with_term((1, 0, 1), 3) == f + GeneralizedBooleanFunction(2, 4, {(0, 1): 3}) == parse_gbf("x0", 2, 4)
        assert f.with_term((), -5) == parse_gbf("x0*x1 + x0 + 3", 2, 4)

    def test_repeated_monomials_add_and_may_cancel(self):
        assert GeneralizedBooleanFunction(2, 2, {(0, 1): 1, (1, 0): 1}).terms == {}
        assert GeneralizedBooleanFunction(2, 4, {(0, 1): 1, (1, 0): 1}).terms == {(0, 1): 2}

    def test_negative_arity_or_variable_out_of_range_rejected(self):
        with pytest.raises(InvalidParams, match="non-negative"):
            GeneralizedBooleanFunction(-1, 2)
        for mono in ((2,), (-1, 0)):
            with pytest.raises(InvalidParams, match="out of range"):
                GeneralizedBooleanFunction(2, 2, {mono: 1})

    def test_sum_of_functions(self):
        f, g = parse_gbf("x0*x1 + x0", 2, 4), parse_gbf("3*x0 + 2", 2, 4)
        assert (f + g).terms == {(0, 1): 1, (): 2}
        assert (f + g).truth_table().tolist() == ((f.truth_table() + g.truth_table()) % 4).tolist()
        for other in (parse_gbf("x0", 3, 4), parse_gbf("x0", 2, 2)):
            with pytest.raises(InvalidParams, match="different"):
                f + other

    def test_one_q_rule_for_functions_and_sets(self):
        # parse_gbf, the constructor and family_params share check_modulus;
        # InvalidModulus is an InvalidParams, which the file reader maps
        for q in (3, 0, -2):
            for make in (lambda: parse_gbf("x0*x1", 2, q), lambda: GeneralizedBooleanFunction(2, q), lambda: family_params(q, 2, 0)):
                with pytest.raises(InvalidModulus, match=f"q must be even and >= 2, got {q}"):
                    make()
        assert issubclass(InvalidModulus, InvalidParams)


class TestRestrict:
    def test_cancellation(self):
        f = parse_gbf("x0*x1 + x1", 2, 2)
        assert f.restrict({0: 1}).terms == {}

    def test_untouched(self):
        f = parse_gbf("x1*x2", 3, 2)
        assert f.restrict({0: 0}).terms == f.terms

    def test_substitution(self):
        f = parse_gbf("x0*x1 + x2", 3, 4)
        assert f.restrict({1: 1}).terms == {(0,): 1, (2,): 1}


class TestComplementInputs:
    def test_linear(self):
        f = parse_gbf("x0", 1, 2)
        assert f.complement_inputs().terms == {(): 1, (0,): 1}

    def test_quadratic_expansion(self):
        f = parse_gbf("x1*x2", 3, 2)
        assert f.complement_inputs().terms == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_gbf(rng, 4, 4, max_degree=3)
            assert f.complement_inputs().complement_inputs().terms == f.terms

    def test_index_reversal(self):
        # complementing inputs reverses the sequence index order
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            q = 2 * int(rng.integers(1, 5))
            f = random_gbf(rng, m, q)
            fwd = sequence_of(f).exponents
            rev = sequence_of(f.complement_inputs()).exponents
            assert rev.tolist() == fwd[::-1].tolist()


class TestGraph:
    def test_single_edge(self):
        g = graph_of(parse_gbf("x1*x2", 3, 2))
        assert g.edges == {(1, 2): 1}

    def test_no_edges(self):
        assert graph_of(parse_gbf("0", 3, 2)).edges == {}

    def test_weight_is_coefficient(self):
        g = graph_of(parse_gbf("2*x0*x1", 2, 4))
        assert g.edges == {(0, 1): 2}

    def test_cubic_rejected(self):
        with pytest.raises(NotSecondOrder):
            graph_of(parse_gbf("x0*x1*x2", 3, 2))


class TestPathCheck:
    def test_single_edge_after_deletion(self):
        g = graph_of(parse_gbf("x1*x2", 3, 2))
        cert = check_path_after_deletion(g, [0], 2)
        assert cert.path_order == (1, 2)
        assert set(cert.end_vertices) == {1, 2}

    def test_every_vertex_of_the_certificate_is_an_int(self):
        g = graph_of(parse_gbf("x1*x2", 3, 2))
        cert = check_path_after_deletion(g, [np.int64(0)], 2)
        assert cert.deleted == (0,) and type(cert.deleted[0]) is int
        assert [type(cert.end(gamma)) for gamma in (None, np.int32(2), True)] == [int] * 3

    def test_chain_with_no_deletion(self):
        g = graph_of(parse_gbf("x0*x1 + x1*x2", 3, 2))
        cert = check_path_after_deletion(g, [], 2)
        assert cert.path_order == (0, 1, 2)

    def test_triangle_rejected(self):
        g = graph_of(parse_gbf("x0*x1 + x1*x2 + x0*x2", 3, 2))
        with pytest.raises(NotAPath):
            check_path_after_deletion(g, [], 2)

    def test_wrong_weight_rejected(self):
        g = graph_of(parse_gbf("x0*x1", 2, 4))  # weight 1, needs q/2 = 2
        with pytest.raises(NotAPath):
            check_path_after_deletion(g, [], 4)

    def test_single_vertex_path(self):
        g = graph_of(parse_gbf("0", 2, 2))
        cert = check_path_after_deletion(g, [0], 2)
        assert cert.path_order == (1,)
        assert cert.end_vertices == (1, 1)

    def test_all_vertices_deleted_rejected(self):
        g = graph_of(parse_gbf("0", 2, 2))
        with pytest.raises(NotAPath):
            check_path_after_deletion(g, [0, 1], 2)

    def test_duplicate_deletion_rejected(self):
        g = graph_of(parse_gbf("0", 3, 2))
        with pytest.raises(InvalidParams):
            check_path_after_deletion(g, [0, 0], 2)

    def test_deletion_out_of_range_rejected(self):
        g = graph_of(parse_gbf("0", 3, 2))
        for deleted in ([3], [-1]):
            with pytest.raises(InvalidParams, match="out of range"):
                check_path_after_deletion(g, deleted, 2)

    def test_path_plus_triangle_rejected(self):
        # 5 - 1 = 4 edges, as a path has: only the walk, stopped at the
        # path's far end, tells them apart
        g = graph_of(parse_gbf("x0*x1 + x2*x3 + x3*x4 + x2*x4", 5, 2))
        with pytest.raises(NotAPath, match="walk stopped at vertex 1 after 2 of its 5 vertices"):
            check_path_after_deletion(g, [], 2)

    def test_agrees_with_exhaustive_search_on_every_small_graph(self):
        # every graph on m <= 5 vertices with every deletion that leaves
        # a vertex: 32,767 pairs
        pairs = 0
        for m in range(1, 6):
            slots = [(a, b) for a in range(m) for b in range(a + 1, m)]
            for mask in range(1 << len(slots)):
                edges = {e: 1 for i, e in enumerate(slots) if mask >> i & 1}
                for dmask in range((1 << m) - 1):
                    deleted = [v for v in range(m) if dmask >> v & 1]
                    expect = brute_force_path(edges, [v for v in range(m) if v not in deleted], 1)
                    try:
                        found = check_path_after_deletion(FunctionGraph(m, edges), deleted, 2).path_order
                    except NotAPath:
                        found = None
                    assert (found is None) == (expect is None)
                    if found is not None:
                        assert found in (expect, expect[::-1]) and found[0] <= found[-1]
                    pairs += 1
        assert pairs == 32767

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(5)
        q = 4
        for _ in range(200):
            m = int(rng.integers(2, 7))
            edges = {}
            for a in range(m):
                for b in range(a + 1, m):
                    if rng.random() < 0.35:
                        edges[(a, b)] = int(rng.choice([1, 2, 3]) if rng.random() < 0.3 else 2)
            g = FunctionGraph(m, edges)
            k = int(rng.integers(0, m))
            deleted = sorted(rng.choice(m, size=k, replace=False).tolist())
            remaining = [v for v in range(m) if v not in deleted]
            expect = brute_force_path(edges, remaining, q // 2)
            try:
                cert = check_path_after_deletion(g, deleted, q)
                found = cert.path_order
            except NotAPath:
                found = None
            assert (found is None) == (expect is None)
            if found is not None:
                assert found == expect or found == expect[::-1]


class TestSequenceOf:
    def test_constant_function(self):
        assert sequence_of(parse_gbf("0", 1, 2)).exponents.tolist() == [0, 0]

    def test_two_variable_product(self):
        assert sequence_of(parse_gbf("x0*x1", 2, 2)).exponents.tolist() == [0, 0, 0, 1]

    def test_three_variable_product(self):
        # frozen by evaluating f at r = 0..7 with r = r0 + 2*r1 + 4*r2
        f = parse_gbf("x1*x2", 3, 2)
        expected = [f.evaluate(((r >> 0) & 1, (r >> 1) & 1, (r >> 2) & 1)) for r in range(8)]
        assert expected == [0, 0, 0, 0, 0, 0, 1, 1]
        assert sequence_of(f).exponents.tolist() == expected

    def test_bit_order_contract(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(1, 11))
            q = 2 * int(rng.integers(1, 6))
            f = random_gbf(rng, m, q)
            seq = sequence_of(f)
            assert seq.delta == q
            for r in rng.integers(0, 1 << m, size=8):
                bits = tuple((int(r) >> a) & 1 for a in range(m))
                assert seq.exponents[int(r)] == f.evaluate(bits)


    def test_truth_table_of_any_degree(self):
        # Terms up to degree m: the subset-sum pass against f at every
        # point and against the per-monomial bit-plane sum.
        rng = np.random.default_rng(17)
        for _ in range(300):
            m, q = int(rng.integers(0, 10)), 2 * int(rng.integers(1, 513))
            f = random_gbf(rng, m, q, max_degree=m, n_terms=int(rng.integers(0, 12)))
            table = f.truth_table()
            assert table.dtype == np.int64 and not table.flags.writeable
            assert np.array_equal(sequence_of(f).exponents, table)
            assert np.array_equal(table, monomial_truth_table(f))
            assert table.tolist() == [f.evaluate((r >> a) & 1 for a in range(m)) for r in range(1 << m)]

    def test_truth_table_refuses_coefficients_that_could_wrap(self):
        # Every term of m = 2 at q - 1: entry 3 is their sum, 4 * (q - 1).
        q = 3 << 60  # the sum reaches 2**63; int64 would wrap it
        f = GeneralizedBooleanFunction(2, q, {(): q - 1, (0,): q - 1, (1,): q - 1, (0, 1): q - 1})
        with pytest.raises(InvalidParams, match=r"2\*\*63"):
            f.truth_table()
        with pytest.raises(InvalidParams):
            sequence_of(f)
        q = 1 << 61  # the sum is 2**63 - 4, just under the bound
        f = GeneralizedBooleanFunction(2, q, {(): q - 1, (0,): q - 1, (1,): q - 1, (0, 1): q - 1})
        assert f.truth_table().tolist() == [f.evaluate((r & 1, r >> 1)) for r in range(4)]


class TestOwnership:
    def test_callers_array_stays_writeable_and_unshared(self):
        a = np.array([0, 1, 2, 3])
        seq = RootSequence(4, a)
        assert a.flags.writeable and not seq.exponents.flags.writeable
        a[0] = 3
        assert seq.exponents.tolist() == [0, 1, 2, 3]

    def test_a_view_is_copied(self):
        c = np.array([0, 1, 2, 3])
        seq = RootSequence(4, c[:])
        c[0] = 1
        assert seq.exponents.tolist() == [0, 1, 2, 3]

    def test_a_read_only_array_is_kept(self):
        a = np.array([0, 1, 2, 3])
        a.flags.writeable = False
        assert RootSequence(4, a).exponents is a

    def test_entries_it_would_change_are_refused(self):
        # the int64 cast used to truncate 1.5 to 1
        for bad in ([1.5, 2], np.array([1.0, 2.0]), [1 + 0j, 2], np.array(["1", "2"]), np.array([1, 2.5], dtype=object)):
            with pytest.raises(TypeError):
                RootSequence(4, bad)
        with pytest.raises(OverflowError):
            RootSequence(4, [2**63, 0])
        assert RootSequence(4, np.array([5, 2], dtype=object)).exponents.tolist() == [1, 2]


class TestTruncateConjugate:
    def test_truncate_keeps_prefix(self):
        seq = RootSequence(6, np.arange(32) % 6)
        kept = seq.truncate(24)
        assert len(kept) == 24
        assert kept.exponents.tolist() == (np.arange(24) % 6).tolist()

    def test_truncate_identity(self):
        seq = RootSequence(2, np.array([0, 1, 1]))
        assert seq.truncate(3) == seq

    def test_truncate_zero_rejected(self):
        with pytest.raises(TruncateError):
            RootSequence(2, np.array([0, 1])).truncate(0)

    def test_conjugate_real_entries_fixed(self):
        seq = RootSequence(6, np.array([0, 3]))
        assert seq.conjugate().exponents.tolist() == [0, 3]

    def test_conjugate_negates(self):
        seq = RootSequence(4, np.array([1, 2]))
        assert seq.conjugate().exponents.tolist() == [3, 2]

    def test_conjugate_involution(self):
        rng = np.random.default_rng(8)
        seq = RootSequence(10, rng.integers(0, 10, size=20))
        assert seq.conjugate().conjugate() == seq


class TestReferenceGuards:
    @pytest.mark.parametrize("delta", [0, -4])
    def test_root_order_below_one_refused(self, delta):
        with pytest.raises(ValueError, match="delta"):
            RootSequence(delta, [0, 1])

    @pytest.mark.parametrize("exponents", [[], np.zeros((2, 2), int)], ids=["empty", "2-d"])
    def test_vector_not_1d_and_non_empty_refused(self, exponents):
        with pytest.raises(ValueError, match="1-d and non-empty"):
            RootSequence(4, exponents)

    def test_equality_with_another_type_is_not_implemented(self):
        seq = RootSequence(4, [0, 1])
        assert seq.__eq__([0, 1]) is NotImplemented and seq != "seq"

    def test_promoted_keeps_the_complex_values(self):
        seq = RootSequence(6, np.arange(12) % 6)
        up = seq.promoted(12)
        assert up.delta == 12 and up.exponents.tolist() == (2 * seq.exponents).tolist()
        assert np.allclose(up.to_complex(), seq.to_complex())
        assert seq.promoted(6) == seq
        with pytest.raises(ValueError, match="not a multiple"):
            seq.promoted(8)

    @pytest.mark.parametrize("other", [RootSequence(2, [0, 1, 1]), RootSequence(4, [0, 1])], ids=["length", "delta"])
    def test_code_refuses_mixed_members(self, other):
        with pytest.raises(InvalidParams, match="share length and root order"):
            Code((RootSequence(2, [0, 1]), other), CodeLabel("C", 0))

    def test_codeword_function_guards(self):
        f = parse_gbf("x1*x2", 3, 2)
        with pytest.raises(ArityError):
            codeword_function(f, [0], (), (0,), 0, 2)
        with pytest.raises(ArityError):
            codeword_function(f, [0], (0,), (0, 1), 0, 2)
        for d_vec, t_vec, d in (((2,), (0,), 0), ((0,), (-1,), 0), ((0,), (0,), 2)):
            with pytest.raises(InvalidParams, match="binary"):
                codeword_function(f, [0], d_vec, t_vec, d, 2)
        with pytest.raises(InvalidParams, match="family"):
            codeword_function(f, [0], (0,), (0,), 0, 2, "H")


class TestPbfSequence:
    def _example_setup(self):
        f = parse_gbf("x1*x2", 3, 2)
        cert = check_path_after_deletion(graph_of(f), [0], 2)
        return f, cert

    def test_lambda_zero_repeats_blocks(self):
        f, cert = self._example_setup()
        spec = PbfSpec(f, p=3, s=2, lam=0)
        seq = pbf_sequence(spec, (1,), (0,), 1, cert, 2)
        base = sequence_of(codeword_function(f, cert.deleted, (1,), (0,), 1, 2, "F"))
        promoted = (3 * base.exponents) % 6
        for w in range(4):
            assert seq.exponents[8 * w : 8 * (w + 1)].tolist() == promoted.tolist()

    def test_example_block_structure(self):
        f, cert = self._example_setup()
        spec = PbfSpec(f, p=3, s=2, lam=1)
        seq = pbf_sequence(spec, (0,), (0,), 0, cert, 2)
        assert seq.delta == 6
        assert len(seq) == 32
        base = (3 * sequence_of(f).exponents) % 6
        for w in range(4):
            block = seq.exponents[8 * w : 8 * (w + 1)]
            assert block.tolist() == ((base + 2 * w) % 6).tolist()

    def test_matches_rational_exponent_oracle(self):
        # evaluate the extended function with exact rational arithmetic and
        # compare complex values entry by entry
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            q = 2 * int(rng.integers(1, 4))
            p = int(rng.choice([2, 3, 5]))
            s = int(rng.choice([3]))
            lam = int(rng.integers(0, p))
            chain = {(i, i + 1): q // 2 for i in range(m - 1)}
            f = GeneralizedBooleanFunction(m, q, dict(chain))
            cert = check_path_after_deletion(graph_of(f), [], q)
            gamma = cert.end_vertices[0]
            spec = PbfSpec(f, p, s, lam)
            seq = pbf_sequence(spec, (), (), 1, cert, gamma)
            got = seq.to_complex()
            base = codeword_function(f, (), (), (), 1, gamma, "F")
            for rp in rng.integers(0, len(seq), size=16):
                r = int(rp) % (1 << m)
                w = int(rp) >> m
                bits = tuple((r >> a) & 1 for a in range(m))
                value = Fraction(base.evaluate(bits)) + Fraction(lam * q, p) * w
                expect = cmath.exp(2j * cmath.pi * value / q)
                assert got[int(rp)] == pytest.approx(expect)

    def test_divisible_p_stays_q_valued(self):
        f = parse_gbf("2*x0*x1 + 2*x0", 2, 4)
        cert = check_path_after_deletion(graph_of(f), [], 4)
        spec = PbfSpec(f, p=2, s=1, lam=1)
        seq = pbf_sequence(spec, (), (), 0, cert, 0)
        assert seq.delta == 4  # lcm(2, 4) = q, so entries stay q-th roots

    def test_gamma_must_be_endpoint(self):
        f, cert = self._example_setup()
        spec = PbfSpec(f, p=3, s=2, lam=0)
        with pytest.raises(InvalidGamma):
            pbf_sequence(spec, (0,), (0,), 0, cert, 0)

    def test_one_place_raises_invalid_gamma(self):
        # PathCertificate.end is the gamma rule of the builders, the
        # reference and the oracles alike
        src = Path(zccs.__file__).parent
        raising = {path.name: path.read_text().count("raise InvalidGamma") for path in src.glob("*.py")}
        assert {name: n for name, n in raising.items() if n} == {"boolfn.py": 1}
        for name in ("construct.py", "reference.py"):
            assert "InvalidGamma" not in (src / name).read_text()

    def test_parameter_validation(self):
        f, _ = self._example_setup()
        with pytest.raises(InvalidParams):
            PbfSpec(f, p=4, s=2, lam=0)  # not prime
        with pytest.raises(InvalidParams):
            PbfSpec(f, p=3, s=1, lam=0)  # p > 2**s
        with pytest.raises(InvalidParams):
            PbfSpec(f, p=3, s=2, lam=3)  # lambda out of range
        with pytest.raises(InvalidParams):
            PbfSpec(f, p=3, s=2, lam=0, family="H")

    @pytest.mark.parametrize("s", [18, 10**9])
    def test_more_entries_than_max_terms_are_refused_at_once(self, s):
        f, _ = self._example_setup()
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match="2\\*\\*\\(m\\+s\\)"):
            PbfSpec(f, p=3, s=s, lam=0)
        assert time.perf_counter() - start < 0.05

    def test_max_terms_entries_are_built(self):
        f, cert = self._example_setup()
        spec = PbfSpec(f, p=3, s=MAX_TERMS.bit_length() - 1 - f.m, lam=1)
        seq = pbf_sequence(spec, (0,), (0,), 0, cert, 2)
        assert len(seq) == MAX_TERMS
        short = pbf_sequence(PbfSpec(f, p=3, s=2, lam=1), (0,), (0,), 0, cert, 2)
        assert np.array_equal(seq.exponents[: len(short)], short.exponents)
