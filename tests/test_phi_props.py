"""Property tests for the phi-approximations that run within a vertex set
of the input graph.

Each must equal itself on the induced subgraph G[within]. The min-degree
order must still match the bucket reference in ``helpers``. Every built-in
friendly problem's phi must lie between its ``phi_floor`` (0 where it
declares none) and the size of any live local set of a ``Remainder``,
before and after cuts, at the view's width. The phi of
every built-in friendly problem must be additive over two vertex sets with
no edge between them, as the friendly engine's split search relies on: the
view's one measure walk (``Remainder.additive``) must give every live node
the answer a fresh phi gives on its live local set, and hold such an
answer for every cached node outside the subtrees cuts removed, which no
view walk reaches. The same walk measures etp's
nodes by the greedy triangle packing of their local packing graphs, under
etp's cuts, which keep the cut node's bag.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from atk.approx import (
    _min_degree_order,
    degeneracy_is,
    eds_2approx,
    greedy_triangle_packing,
    vc_2approx,
)
from atk.friendly import builtin_instances
from atk.generate import gen_partial_ktree
from atk.treedecomp import Remainder, make_nice
from helpers import gnp_graph, reference_degeneracy_order, split_solution


@st.composite
def pieces(draw):
    """A graph and a vertex subset."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        g = gnp_graph(rng, draw(st.integers(0, 40)), draw(st.floats(0.0, 0.6)))
    else:
        k = draw(st.integers(1, 3))
        n, p = draw(st.integers(k + 1, 80)), draw(st.floats(0.3, 1.0))
        g, _ = gen_partial_ktree(n, k, p, rng.randrange(10_000))
    frac = draw(st.floats(0.0, 1.0))
    within = {v for v in g.vertices if rng.random() < frac}
    return g, within


@settings(max_examples=200, deadline=None)
@given(pieces())
def test_degeneracy_is_within_a_set(piece):
    g, within = piece
    sub = g.induced_subgraph(within)
    assert degeneracy_is(g, within) == degeneracy_is(sub)
    assert [v for v, _ in _min_degree_order(g, within)] == reference_degeneracy_order(sub)[0]
    picks = list(_min_degree_order(g))
    assert ([v for v, _ in picks], max((d for _, d in picks), default=0)) == (
        reference_degeneracy_order(g)
    )


@settings(max_examples=150, deadline=None)
@given(pieces())
def test_matching_phis_within_a_set(piece):
    g, within = piece
    sub = g.induced_subgraph(within)
    for phi in (vc_2approx, eds_2approx):
        assert phi(g, within) == phi(sub)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(builtin_instances())), pieces())
def test_every_phi_is_additive_over_unions_without_crossing_edges(name, piece):
    # B is a random set of vertices neither in A nor adjacent to it
    g, a = piece
    rng = random.Random(len(a))
    b = {v for v in g.vertices if v not in a and not g.neighbors(v) & a and rng.random() < 0.7}
    problem = builtin_instances()[name]
    parts = split_solution(problem, problem.phi_approx(g, a | b), a, b)
    assert parts == (problem.phi_approx(g, a), problem.phi_approx(g, b))


def _view_nodes(rest):
    """The nodes of a remainder's tree, walked through its live children."""
    stack, out = [rest.root], []
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(rest[t])
    return out


def _removed(rest, s):
    """Whether s lies in the subtree of a taken node, which a cut removed."""
    while s is not None and s not in rest.taken:
        s = rest.ntd.parent[s]
    return s is not None


def _check_cache(rest, nodes, fresh):
    """Every node the view reaches is outside the removed subtrees, and every
    cached node outside them holds the fresh answer ``fresh(s)``."""
    assert not any(_removed(rest, s) for s in nodes)
    for s, sol in rest.cache.items():
        if not _removed(rest, s):
            assert sol == fresh(s), s


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(builtin_instances())),
    st.integers(1, 3),
    st.integers(0, 26),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.integers(0, 4),
)
def test_phi_lies_between_its_floor_and_the_size_of_every_live_local_set(name, k, extra, p, seed, cuts):
    problem = builtin_instances()[name]
    g, td = gen_partial_ktree(k + 1 + extra, k, p, seed)
    rest = Remainder(g, make_nice(g, td))
    rng = random.Random(seed)
    for round_ in range(cuts + 1):
        nodes = _view_nodes(rest)
        width = rest.width
        for t in nodes:
            local = rest.local(t)
            assert rest.live_local[t] == len(local)
            floor = problem.phi_floor(len(local), width) if problem.phi_floor else 0
            assert floor <= problem.phi_approx(g, local).value <= len(local), (t, len(local), width)
        if round_ < cuts:  # cut V_t, or its local set only as ecc does
            t = rng.choice(nodes)
            bag = rest.ntd.bags[t] & rest.live if rng.random() < 0.5 else set()
            rest.cut(t, rest.local(t) | bag)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(builtin_instances())),
    st.integers(1, 3),
    st.integers(0, 56),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.integers(0, 4),
)
def test_additive_phi_of_every_live_node_is_a_fresh_phi(name, k, extra, p, seed, cuts):
    problem = builtin_instances()[name]
    if name in ("hpack:k3", "hpack:p3"):  # their phi tries every triple of the set
        extra //= 2
    g, td = gen_partial_ktree(k + 1 + extra, k, p, seed)
    rest = Remainder(g, make_nice(g, td))
    rng = random.Random(seed)
    fresh = {}  # a fresh phi per vertex set

    def phi(within):
        key = frozenset(within)
        if key not in fresh:
            fresh[key] = problem.phi_approx(g, within)
        return fresh[key]

    for round_ in range(cuts + 1):
        nodes = _view_nodes(rest)
        for t in rng.sample(nodes, len(nodes)):  # any order, over what earlier walks and cuts cached
            assert rest.additive(t, lambda s: phi(rest.local(s))) == phi(rest.local(t)), t
        _check_cache(rest, nodes, lambda s: phi(rest.local(s)))
        if round_ < cuts:  # a friendly cut: V_t leaves with t's live bag
            t = rng.choice(nodes)
            v_t = rest.local(t) | (rest.ntd.bags[t] & rest.live)
            if rng.random() < 0.5:  # as a query does, whose restrict cuts t's subtree first
                rest.ntd.restrict([frozenset(v_t)], t, rest.taken)
            rest.cut(t, v_t)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 70), st.floats(0.5, 1.0), st.integers(0, 10_000), st.integers(0, 5))
def test_additive_packing_of_every_live_node_is_a_fresh_packing(extra, p, seed, cuts):
    g, td = gen_partial_ktree(3 + extra, 2, p, seed)
    rest = Remainder(g, make_nice(g, td))
    rng = random.Random(seed)

    def packing(t):  # a fresh greedy packing of t's local packing graph
        bag = rest.ntd.bags[t] & rest.live
        return greedy_triangle_packing(
            g.induced_subgraph(rest.local(t) | bag).delete_edges_within(bag)
        )

    for round_ in range(cuts + 1):
        nodes = _view_nodes(rest)
        for t in rng.sample(nodes, len(nodes)):  # any order, over what earlier walks and cuts cached
            assert rest.additive(t, packing) == packing(t), t
        _check_cache(rest, nodes, packing)
        if round_ < cuts:  # an etp cut: t's live local set leaves, its bag stays
            t = rng.choice(nodes)
            rest.cut(t, rest.local(t))
