import random

import pytest

from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.graph import Graph
from atk.treedecomp import (
    NiceTreeDecomposition,
    Remainder,
    TreeDecomposition,
    descend,
    heuristic_td,
    make_nice,
    make_subconnected,
    validate,
)
from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    reference_subtree_vertices,
    star_graph,
)


def test_tree_decomposition_rejects_non_trees():
    with pytest.raises(ValueError):
        TreeDecomposition({1: [1], 2: [1], 3: [1]}, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        TreeDecomposition({1: [1], 2: [1]}, [])  # disconnected


def test_validate_single_bag_triangle():
    g = complete_graph(3)
    td = TreeDecomposition({1: [1, 2, 3]})
    report = validate(g, td)
    assert report.valid and report.width == 2


def test_validate_path_decomposition():
    g = path_graph(3)
    td = TreeDecomposition({1: [1, 2], 2: [2, 3]}, [(1, 2)])
    report = validate(g, td)
    assert report.valid and report.width == 1


def test_validate_reports_each_violation_class():
    g = path_graph(3)
    bad = TreeDecomposition({1: [1], 2: [3]}, [(1, 2)])
    report = validate(g, bad)
    assert not report.valid
    assert 2 in report.uncovered_vertices
    assert (1, 2) in report.uncovered_edges and (2, 3) in report.uncovered_edges
    # broken trace: vertex in two bags connected only through a third
    td2 = TreeDecomposition({1: [1, 2], 2: [2], 3: [2, 3, 1]}, [(1, 2), (2, 3)])
    g2 = path_graph(3)
    rep2 = validate(g2, td2)
    assert 1 in rep2.broken_traces
    # foreign vertex
    td3 = TreeDecomposition({1: [1, 2, 3, 99]})
    rep3 = validate(g, td3)
    assert 99 in rep3.foreign_bag_vertices


def test_make_nice_triangle_contract():
    g = complete_graph(3)
    ntd = make_nice(g, TreeDecomposition({1: [1, 2, 3]}))
    assert ntd.nice_violations() == []
    assert validate(g, ntd.as_td()).valid
    assert ntd.width == 2


def test_make_nice_idempotent_contract():
    g = path_graph(6)
    td = TreeDecomposition({i: [i, i + 1] for i in range(1, 6)}, [(i, i + 1) for i in range(1, 5)])
    ntd = make_nice(g, td)
    again = make_nice(g, ntd.as_td())
    assert again.nice_violations() == []
    assert again.width == ntd.width == 1


def test_make_nice_node_count_linear():
    # frozen from the construction: path decompositions stay within c*width*n
    g = path_graph(10)
    td = TreeDecomposition({i: [i, i + 1] for i in range(1, 10)}, [(i, i + 1) for i in range(1, 9)])
    ntd = make_nice(g, td)
    assert validate(g, ntd.as_td()).valid
    assert ntd.n_nodes <= 6 * 1 * 10


def test_make_nice_rejects_invalid():
    g = path_graph(3)
    with pytest.raises(ValueError):
        make_nice(g, TreeDecomposition({1: [1], 2: [3]}, [(1, 2)]))


def test_make_nice_empty_and_isolated():
    empty = Graph()
    ntd = make_nice(empty, TreeDecomposition({1: []}))
    assert ntd.nice_violations() == []
    iso = Graph([1, 2, 3])
    ntd2 = make_nice(iso, TreeDecomposition({1: [1, 2, 3]}))
    assert validate(iso, ntd2.as_td()).valid


def _v_set(rest, t):
    return rest.local(t) | rest.ntd.bags[t]


def test_subtree_index_basics():
    g = path_graph(5)
    td = TreeDecomposition({i: [i, i + 1] for i in range(1, 5)}, [(i, i + 1) for i in range(1, 4)])
    ntd = make_nice(g, td)
    rest = Remainder(g, ntd)
    assert _v_set(rest, ntd.root) == g.vertex_set
    assert rest.live_local[ntd.root] == g.n
    assert rest.width == ntd.width
    for t in range(ntd.n_nodes):
        assert rest.live_local[t] == len(_v_set(rest, t) - ntd.bags[t])
        if not ntd.children[t]:
            assert _v_set(rest, t) == set()


def test_separator_property_of_subtrees():
    rng = random.Random(2)
    for trial in range(20):
        g, td = gen_partial_ktree(rng.randint(6, 40), rng.choice([1, 2, 3]), 0.8, seed=trial)
        ntd = make_nice(g, td)
        rest = Remainder(g, ntd)
        for t in range(0, ntd.n_nodes, max(1, ntd.n_nodes // 17)):
            inside = rest.local(t)
            outside = g.vertex_set - _v_set(rest, t)
            assert not any(
                (u in inside and v in outside) or (v in inside and u in outside)
                for u, v in g.edges()
            )


def _find_by_local_size(g, lo, hi, td=None):
    """The node ``descend`` stops at on a fresh view, measured by local size."""
    rest = Remainder(g, make_nice(g, heuristic_td(g) if td is None else td))
    t = descend(rest, lambda s: (rest.live_local[s], None), hi, floor=lo)[0]
    return rest, t


def test_find_node_window_root_case():
    rest, t = _find_by_local_size(path_graph(8), 4, 10)
    assert t == rest.root


def test_find_node_window_path_100():
    rest, t = _find_by_local_size(path_graph(100), 10, 20)
    assert 10 <= rest.live_local[t] <= 20
    # direct count agrees with the view
    assert rest.live_local[t] == len(_v_set(rest, t) - rest.ntd.bags[t])


def test_find_node_window_star():
    rest, t = _find_by_local_size(star_graph(50), 5, 10)
    assert 5 <= rest.live_local[t] <= 10


def test_find_node_window_many_random():
    rng = random.Random(13)
    for trial in range(15):
        g, td = gen_partial_ktree(rng.randint(30, 120), rng.choice([1, 2]), 0.85, seed=100 + trial)
        lo = rng.randint(1, 8)
        hi = 2 * lo + rng.randint(0, 6)
        rest, t = _find_by_local_size(g, lo, hi, td)
        assert lo <= rest.live_local[t] <= hi


def test_make_subconnected_two_triangles_bridge():
    g = Graph(range(1, 7), [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
    ntd = make_nice(g, heuristic_td(g))
    sc = make_subconnected(g, ntd)
    assert validate(g, sc).valid and validate(g, sc.as_td()).valid
    children, vsets = reference_subtree_vertices(sc.as_td())
    assert sc.children == children and sc.vsets == vsets
    for t in children:
        sub = g.induced_subgraph(vsets[t])
        assert sub.n == 0 or sub.is_connected()


def test_make_subconnected_child_bound_on_path():
    g = path_graph(6)
    ntd = make_nice(g, heuristic_td(g))
    sc = make_subconnected(g, ntd)
    children, vsets = reference_subtree_vertices(sc.as_td())
    assert sc.children == children and sc.vsets == vsets
    assert all(len(children[t]) <= 2 * ntd.width + 2 for t in children)


def test_make_subconnected_contract_random():
    rng = random.Random(21)
    for trial in range(20):
        k = rng.choice([1, 2, 3])
        n = rng.randint(k + 2, 36)
        g, td = gen_connected_partial_ktree(n, k, 0.7, seed=trial)
        ntd = make_nice(g, td)
        sc = make_subconnected(g, ntd)
        assert validate(g, sc).valid and validate(g, sc.as_td()).valid
        assert sc.width <= ntd.width
        children, vsets = reference_subtree_vertices(sc.as_td())
        assert sc.children == children and sc.vsets == vsets
        for t in children:
            assert len(children[t]) <= 2 * ntd.width + 2
            sub = g.induced_subgraph(vsets[t])
            assert sub.n == 0 or sub.is_connected()


def test_make_subconnected_rejects_disconnected():
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    ntd = make_nice(g, heuristic_td(g))
    with pytest.raises(ValueError):
        make_subconnected(g, ntd)


def test_heuristic_td_examples():
    # min-fill on a tree eliminates leaves: width 1
    rng = random.Random(3)
    vs = list(range(1, 11))
    edges = [(rng.choice(vs[:i]), vs[i]) for i in range(1, 10)]
    tree = Graph(vs, edges)
    td = heuristic_td(tree)
    assert validate(tree, td).valid and td.width == 1
    k5 = complete_graph(5)
    td5 = heuristic_td(k5)
    assert validate(k5, td5).valid and td5.width == 4
    c6 = cycle_graph(6)
    td6 = heuristic_td(c6)
    assert validate(c6, td6).valid and td6.width == 2


def test_heuristic_td_always_valid():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 14)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.3
        ]
        g = Graph(range(1, n + 1), edges)
        assert validate(g, heuristic_td(g)).valid


def test_nice_violations_rejects_children_that_are_not_a_tree():
    empty = [frozenset()] * 3
    twice = NiceTreeDecomposition(empty, [None] * 3, [(1, 1), (), ()], 0)
    detached = NiceTreeDecomposition(empty, [None] * 3, [(), (2,), (1,)], 0)
    for bad in (twice, detached):
        assert bad.nice_violations() == ["children do not form a tree below the root"]


def test_nice_violations_rejects_a_pivot_in_neither_bag():
    bags = [frozenset(), frozenset({1}), frozenset()]
    introduce_2 = NiceTreeDecomposition(bags, [None, 2, 1], [(), (0,), (1,)], 2)
    forget_3 = NiceTreeDecomposition(bags, [None, 1, 3], [(), (0,), (1,)], 2)
    assert introduce_2.nice_violations() == ["node 1 neither introduces nor forgets its pivot"]
    assert forget_3.nice_violations() == ["node 2 neither introduces nor forgets its pivot"]
    fine = NiceTreeDecomposition(bags, [None, 1, 1], [(), (0,), (1,)], 2)
    assert fine.checked_postorder() == ([0, 1, 2], [])
