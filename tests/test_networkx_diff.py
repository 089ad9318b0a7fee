"""Differential tests against networkx, an independent implementation.

Components, pattern copies, the feedback vertex set check, the two
matching bounds of vertex cover and the min-degree decomposition width are
compared on random graphs. networkx is used here only; ``atk`` itself has
no dependencies.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.approximation import treewidth_min_degree

from atk.approx import nt_reduce, vc_2approx
from atk.generate import gen_partial_ktree
from atk.graph import Graph
from atk.problems import FVS, Solution, is_feasible, pattern_copies
from atk.treedecomp import heuristic_td, validate
from helpers import gnp_graph, monomorphic_copies, reference_pattern_copies

CONNECTED_PATTERNS = {  # every connected graph on at most 4 vertices, up to isomorphism
    "k1": Graph([0]),
    "k2": Graph([0, 1], [(0, 1)]),
    "p3": Graph([0, 1, 2], [(0, 1), (1, 2)]),
    "k3": Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)]),
    "p4": Graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)]),
    "star": Graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)]),
    "c4": Graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": Graph([0, 1, 2, 3], [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": Graph([0, 1, 2, 3], [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "k4": Graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


def _nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges())
    return out


@st.composite
def graphs(draw, max_n=30):
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.0, 0.5))
    return gnp_graph(random.Random(draw(st.integers(0, 10_000))), n, p)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_connected_components_match_networkx(g):
    ours = g.connected_components()
    assert sorted(map(sorted, ours)) == sorted(map(sorted, nx.connected_components(_nx(g))))
    assert [min(c) for c in ours] == sorted(min(c) for c in ours)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=12), st.sampled_from(sorted(CONNECTED_PATTERNS)))
def test_pattern_copies_match_subgraph_monomorphisms(g, name):
    pattern = CONNECTED_PATTERNS[name]
    copies = pattern_copies(g, pattern)
    assert copies == monomorphic_copies(g, pattern)
    assert copies == reference_pattern_copies(g, pattern)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=20), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_fvs_feasibility_matches_is_forest(g, frac, salt):
    rng = random.Random(salt)
    removed = frozenset(v for v in g.vertices if rng.random() < frac)
    rest = _nx(g)
    rest.remove_nodes_from(removed)
    # networkx defines no forest on zero vertices; an empty graph has no cycle
    expected = rest.number_of_nodes() == 0 or nx.is_forest(rest)
    assert is_feasible(FVS, g, Solution.of_vertices(removed)) == expected


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_vertex_cover_bounds_bracket_a_maximum_matching(g):
    nu = len(nx.max_weight_matching(_nx(g), maxcardinality=True))
    assert nt_reduce(g).lp_value >= nu
    assert vc_2approx(g).value <= 2 * nu


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 60), st.floats(0.3, 1.0), st.integers(0, 10_000))
def test_min_degree_width_matches_networkx(k, extra, p, seed):
    # In a k-tree every vertex of least degree has degree k and is
    # simplicial, and eliminating it leaves a k-tree, so both find its
    # treewidth k exactly; on its partial subgraphs only validity is
    # certain (ties can be broken differently from networkx's).
    full, _ = gen_partial_ktree(k + 1 + extra, k, 1.0, seed)
    assert heuristic_td(full).width == treewidth_min_degree(_nx(full))[0] == k
    g, _ = gen_partial_ktree(k + 1 + extra, k, p, seed)
    assert validate(g, heuristic_td(g)).valid
