"""What a function alone decides is derived once per instance: its truth
table, graph, path certificate per (deleted, q) and base-member array per
(deleted, gamma).  Nothing is shared between two instances, a cached value
cannot go stale through the function's or the graph's inputs, and a
refusal is raised again with the message of a first call."""
import copy
import pickle
from collections import Counter

import numpy as np
import pytest

from zccs import boolfn, construct
from zccs.boolfn import FunctionGraph, GeneralizedBooleanFunction, check_path_after_deletion, graph_of, parse_gbf
from zccs.construct import build_ccc, build_zccs, build_zccs_by_concatenation
from zccs.errors import InvalidParams, NotAPath, NotSecondOrder

# (text, m, q, deleted, p): points of the library sweep, k = 0, 1 and 2
POINTS = [
    ("x1*x2 + x0 + 1", 3, 2, [0], 3),
    ("2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 3*x3 + 1", 4, 4, [], 5),
    ("2*x1*x2 + 2*x0*x3 + x2", 4, 4, [0, 3], 2),
]

# x0 - x1 - x2 - x3, every edge q/2 = 1: deleting x0 or x3 leaves
# different paths, and with nothing deleted both x0 and x3 are ends.
CHAIN = "x0*x1 + x1*x2 + x2*x3"


@pytest.fixture()
def counted(monkeypatch):
    """Counts of the private computations behind each cached value."""
    counts = Counter()

    def counting(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(GeneralizedBooleanFunction, "_table", counting("table", GeneralizedBooleanFunction._table))
    monkeypatch.setattr(boolfn, "_graph", counting("graph", boolfn._graph))
    monkeypatch.setattr(boolfn, "_certify", counting("certificate", boolfn._certify))
    monkeypatch.setattr(construct, "_base_members", counting("members", construct._base_members))
    return counts


def _point(text, m, q, deleted, p):
    """One sweep point: parse, the caller's own certificate, the three builders."""
    f = parse_gbf(text, m, q)
    check_path_after_deletion(graph_of(f), deleted, q)
    build_ccc(f, deleted)
    build_zccs(f, deleted, p=p)
    build_zccs_by_concatenation(f, deleted, p=p)


@pytest.mark.parametrize("text, m, q, deleted, p", POINTS)
def test_each_value_is_derived_once_per_function(counted, text, m, q, deleted, p):
    _point(text, m, q, deleted, p)
    assert counted == {"table": 1, "graph": 1, "certificate": 1, "members": 1}
    # A second parse of the same text is a new function: nothing is shared.
    _point(text, m, q, deleted, p)
    assert counted == {"table": 2, "graph": 2, "certificate": 2, "members": 2}


def test_each_deleted_tuple_and_q_gets_its_own_certificate(counted):
    f = parse_gbf(CHAIN, 4, 2)
    warm = [check_path_after_deletion(graph_of(f), deleted, 2) for deleted in ([0], [3], [], (0,), [np.int64(3)])]
    cold = [check_path_after_deletion(graph_of(parse_gbf(CHAIN, 4, 2)), deleted, 2) for deleted in ([0], [3], [])]
    assert warm == cold + cold[:2]
    assert counted["certificate"] == 3 + 3
    assert [c.path_order for c in cold] == [(1, 2, 3), (0, 1, 2), (0, 1, 2, 3)]
    with pytest.raises(NotAPath, match="expected q/2 = 2"):
        check_path_after_deletion(graph_of(f), [], 4)


def test_each_deleted_tuple_and_gamma_gets_its_own_members(counted):
    f = parse_gbf(CHAIN, 4, 2)
    calls = [([], 0), ([], 3), ([0], None), ([3], None), ([], 0)]
    warm = [build_ccc(f, deleted, gamma) for deleted, gamma in calls]
    cold = [build_ccc(parse_gbf(CHAIN, 4, 2), deleted, gamma) for deleted, gamma in calls]
    assert warm == cold
    assert not np.array_equal(cold[0].exponents, cold[1].exponents)
    assert counted["members"] == 4 + 5


def test_terms_are_read_only_and_compare_as_a_dict():
    source = {(1, 0): 2, (1,): 1, (): 1}
    f = GeneralizedBooleanFunction(2, 4, source)
    source[(0,)] = 3
    for write in (lambda t: t.__setitem__((0,), 1), lambda t: t.__delitem__(()), lambda t: t.clear()):
        with pytest.raises((TypeError, AttributeError)):
            write(f.terms)
    assert f.terms == {(0, 1): 2, (1,): 1, (): 1} and f == parse_gbf("2*x0*x1 + x1 + 1", 2, 4)
    assert repr(f) == "GeneralizedBooleanFunction('1 + x1 + 2*x0*x1', m=2, q=4)"
    table = f.truth_table()
    derived = {
        "+": (f + f, {(1,): 2, (): 2}),
        "with_term": (f.with_term((0,), 3), {(0, 1): 2, (1,): 1, (): 1, (0,): 3}),
        "restrict": (f.restrict({0: 1}), {(1,): 3, (): 1}),
        "complement_inputs": (f.complement_inputs(), {(0,): 2, (1,): 1, (0, 1): 2}),
    }
    for name, (g, terms) in derived.items():
        assert g.terms == terms, name
        with pytest.raises(TypeError):
            g.terms[(0,)] = 1
    assert f.truth_table() is table and table.tolist() == [1, 1, 2, 0]


def test_a_graph_keeps_its_own_copy_of_the_edges():
    edges = {(0, 1): 1, (1, 2): 1}
    graph = FunctionGraph(3, edges)
    cert = check_path_after_deletion(graph, [], 2)
    edges[(0, 2)] = 1  # a triangle, were the graph to read it
    assert graph.edges == {(0, 1): 1, (1, 2): 1}
    assert check_path_after_deletion(graph, [], 2) == cert
    assert check_path_after_deletion(FunctionGraph(3, {(0, 1): 1, (1, 2): 1}), [], 2) == cert
    with pytest.raises(TypeError):
        graph.edges[(0, 2)] = 1
    with pytest.raises(NotAPath):
        check_path_after_deletion(FunctionGraph(3, edges), [], 2)


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


@pytest.mark.parametrize("deleted, q", [
    ([], 4),  # an edge of weight 1, not q/2 = 2
    ([0, 0], 2),
    ([4], 2),
    ([0, 1, 2, 3], 2),
    ([0.0], 2),
    ([1.5], 2),
], ids=["weight", "repeated", "out_of_range", "all_deleted", "float_zero", "float"])
def test_a_warm_graph_refuses_as_a_cold_one(deleted, q):
    cold = _refusal(lambda: check_path_after_deletion(graph_of(parse_gbf(CHAIN, 4, 2)), deleted, q))
    assert cold[0] in (NotAPath, InvalidParams, TypeError)
    graph = graph_of(parse_gbf(CHAIN, 4, 2))
    for warm in ([], [0], [3]):
        check_path_after_deletion(graph, warm, 2)
    assert _refusal(lambda: check_path_after_deletion(graph, deleted, q)) == cold
    assert _refusal(lambda: check_path_after_deletion(graph, deleted, q)) == cold


def test_a_refused_table_or_graph_is_refused_on_every_call():
    wide = GeneralizedBooleanFunction(2, 1 << 64, {(0,): 1 << 62, (1,): 1 << 62, (0, 1): 1})
    cubic = parse_gbf("x0*x1*x2", 3, 2)
    for call, error in ((wide.truth_table, InvalidParams), (lambda: graph_of(cubic), NotSecondOrder)):
        first = _refusal(call)
        assert first[0] is error
        assert _refusal(call) == first
    assert graph_of(wide).edges == {(0, 1): 1}


def test_a_pickle_or_copy_is_a_new_function_that_derives_anew(counted):
    f = parse_gbf(CHAIN + " + 1", 4, 2)
    cs = build_ccc(f, [0])
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and g.terms == f.terms and g is not f
        with pytest.raises(TypeError):
            g.terms[()] = 0
        assert build_ccc(g, [0]) == cs
    graph = graph_of(f)
    assert pickle.loads(pickle.dumps(graph)) == copy.deepcopy(graph) == graph
    assert counted == {"table": 4, "graph": 4, "certificate": 4, "members": 4}
