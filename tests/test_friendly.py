import dataclasses
import inspect
import math
import random
import sys

import pytest

from atk import friendly
from atk.approx import degeneracy_is, eds_2approx
from atk.friendly import approx_friendly_turing, builtin_instances, find_split_node
from atk.generate import gen_partial_ktree
from atk.graph import Graph
from atk.kernels import approx_vc_turing, KernelConfig
from atk.oracles import (
    Oracle,
    brute_force_solve,
    exact_brute_oracle,
    exact_dp_oracle,
    td_dp_solve,
)
from atk.problems import IS, VC, Solution, is_feasible, is_minimization
from atk.treedecomp import Remainder, heuristic_td, make_nice
from helpers import gnp_graph, lift_exact, path_graph, query_size, split_solution, star_graph

REG = builtin_instances()
ALL_NAMES = sorted(REG)


def _shift_graph(g: Graph, offset: int) -> Graph:
    return Graph(
        [v + offset for v in g.vertices],
        [(u + offset, v + offset) for u, v in g.edges()],
    )


def _disjoint_union(g1: Graph, g2: Graph) -> Graph:
    return Graph(
        list(g1.vertices) + list(g2.vertices),
        list(g1.edges()) + list(g2.edges()),
    )


def test_registry_psaks_slots():
    real = {name for name, prob in REG.items() if prob.psaks is not None}
    assert real == {"vc", "is", "cc"}
    assert set(REG) == {"vc", "is", "cc", "fvs", "eds", "hpack:k2", "hpack:k3", "hpack:p3"}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_condition1_union_additivity(name):
    prob = REG[name]
    rng = random.Random(hash(name) % 10000)
    for _ in range(100):
        g1 = gnp_graph(rng, rng.randint(1, 7), 0.4)
        g2 = _shift_graph(gnp_graph(rng, rng.randint(1, 7), 0.4), 100)
        g = _disjoint_union(g1, g2)
        s1 = prob.phi_approx(g1)
        s2 = prob.phi_approx(g2)
        merged = s1.union(s2)
        assert is_feasible(prob.kind, g, merged)
        assert len(merged.payload) == merged.value == s1.value + s2.value
        back1, back2 = split_solution(prob, merged, g1.vertex_set, g2.vertex_set)
        assert back1.value + back2.value == merged.value
        assert is_feasible(prob.kind, g1, back1) and is_feasible(prob.kind, g2, back2)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_condition2_extend_bound(name):
    prob = REG[name]
    rng = random.Random(1 + hash(name) % 10000)
    for _ in range(100):
        g = gnp_graph(rng, rng.randint(2, 9), 0.4)
        size = rng.randint(1, min(5, g.n))
        x = frozenset(rng.sample(g.vertices, size))
        rest = g.remove_vertices(x)
        s_rest = prob.phi_approx(rest)
        if is_minimization(prob.kind):
            out = prob.extend(g, g.vertex_set, x, s_rest)
            assert is_feasible(prob.kind, g, out)
            assert out.value <= s_rest.value + len(x)
        else:
            # any solution of G - X is one of G with equal value
            assert is_feasible(prob.kind, g, s_rest)
            assert len(s_rest.payload) == s_rest.value


@pytest.mark.parametrize("name", ALL_NAMES)
def test_condition4_phi_function_shape(name):
    prob = REG[name]
    for ell in (0, 1, 2, 4):
        for k in (0.0, 1.0, 3.0, 10.0):
            for alpha in (1.5, 2.0, 4.0):
                assert alpha * prob.phi(k, ell) <= prob.phi(alpha * k, ell) + 1e-9
            assert prob.phi(k, ell) <= prob.phi(k + 1, ell)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_phi_approx_contract(name):
    prob = REG[name]
    rng = random.Random(2 + hash(name) % 10000)
    for _ in range(60):
        g = gnp_graph(rng, rng.randint(1, 9), 0.35)
        ell = heuristic_td(g).width
        sol = prob.phi_approx(g)
        assert is_feasible(prob.kind, g, sol)
        opt = brute_force_solve(prob.kind, g).value
        if is_minimization(prob.kind):
            assert sol.value <= prob.phi(opt, ell) + 1e-9
        else:
            assert prob.phi(sol.value, ell) >= opt - 1e-9


@pytest.mark.parametrize("name", ["vc", "is", "cc"])
def test_psaks_one_safety(name):
    prob = REG[name]
    rng = random.Random(3 + hash(name) % 10000)
    for _ in range(80):
        g = gnp_graph(rng, rng.randint(1, 10), 0.35)
        width = heuristic_td(g).width
        opt = brute_force_solve(prob.kind, g).value
        budget = opt + width if name in ("is", "cc") else max(opt, 1)
        red = prob.psaks.reduce(g, budget)
        assert query_size(red) <= max(prob.psaks.size_fn(0.5, budget), 2)
        lifted = lift_exact(red, prob.kind)
        assert is_feasible(prob.kind, g, lifted)
        assert min(lifted.value, budget + 1) == min(opt, budget + 1)


def test_builtin_examples():
    # vertex cover: extend is plain union with X
    vc = REG["vc"]
    g = path_graph(4)
    out = vc.extend(g, g.vertex_set, frozenset({1}), Solution.of_vertices({3}))
    assert out.payload == frozenset({1, 3})
    # only minimization problems declare an extend
    assert [n for n, p in REG.items() if p.extend is None] == [
        n for n, p in REG.items() if not is_minimization(p.kind)]
    # eds extend on a star adds one incident edge for the centre, to its
    # lowest neighbour inside the level's live set
    eds = REG["eds"]
    star = star_graph(4)
    out = eds.extend(star, star.vertex_set, frozenset({0}), Solution.of_family(()))
    assert out.payload == frozenset({frozenset({0, 1})})
    assert is_feasible(eds.kind, star, out)
    live = star.vertex_set - {1}
    out = eds.extend(star, live, frozenset({0}), Solution.of_family(()))
    assert out.payload == frozenset({frozenset({0, 2})})
    assert is_feasible(eds.kind, star.induced_subgraph(live), out)


def test_the_fold_builds_no_level_graph(monkeypatch):
    """The minimization fold reads each level's graph G[live] through the
    view's live set: a run builds no induced subgraph larger than the
    largest piece it queries (before the piece's kernel)."""
    built, pieces = [], []
    induced, query = Graph.induced_subgraph, friendly._query

    def spy_induced(self, s):
        sub = induced(self, s)
        built.append(sub.n)
        return sub

    def spy_query(kind, g, *args):
        pieces.append(g.n)
        return query(kind, g, *args)

    monkeypatch.setattr(Graph, "induced_subgraph", spy_induced)
    monkeypatch.setattr(friendly, "_query", spy_query)
    stand_in = Oracle("eds-2approx", 2.0, math.inf, lambda kind, g, td: eds_2approx(g))
    for name, oracle in (("vc", exact_dp_oracle()), ("eds", stand_in)):
        g, td = gen_partial_ktree(300, 3, 0.9, 1)
        built.clear()
        pieces.clear()
        rep = approx_friendly_turing(g, td, 0.5, REG[name], oracle, 0.1)
        assert rep.recursion_depth >= 3, name
        assert max(built) <= max(pieces) < g.n, (name, max(built), max(pieces))


def test_find_split_node_direct_branch_small():
    vc = REG["vc"]
    g = path_graph(6)
    td = heuristic_td(g)
    ntd = make_nice(g, td)
    t, sol, _ = find_split_node(Remainder(g, ntd), 1 / 3, vc, exact_brute_oracle())
    assert t is None
    assert sol.value == brute_force_solve(VC, g).value


def test_find_split_node_node_branch_is():
    # 50 disjoint edges, delta=1, width 1: k = 5, the node branch triggers
    g = Graph(range(1, 101), [(2 * i + 1, 2 * i + 2) for i in range(50)])
    td = heuristic_td(g)
    ntd = make_nice(g, td)
    is_p = REG["is"]
    rest = Remainder(g, ntd)
    t, sol, local = find_split_node(rest, 1.0, is_p, exact_brute_oracle())
    assert t is not None
    assert local == rest.local(t) and local.isdisjoint(ntd.bags[t])
    sub = g.induced_subgraph(local)
    opt_local = brute_force_solve(IS, sub).value if sub.n <= 18 else None
    assert sol is not None and is_feasible(IS, sub, sol)
    if opt_local is not None:
        # (1+delta)-approximate local answer with an exact oracle
        assert sol.value * 2 >= opt_local


def test_friendly_is_on_a_single_edge_and_an_empty_remainder():
    # the remainder's width reaches -1 here, where is's floor divides by width + 1
    g = Graph([0, 1], [(0, 1)])
    td = heuristic_td(g)
    rep = approx_friendly_turing(g, td, 1.0, REG["is"], exact_dp_oracle(), 0.05)
    assert is_feasible(IS, g, rep.solution)
    rest = Remainder(g, make_nice(g, td))
    rest.cut(rest.root, {0, 1})
    assert rest.width == -1
    t, sol, _ = find_split_node(rest, 1 / 3, REG["is"], exact_dp_oracle())
    assert t is None and sol == Solution.of_vertices(())


def test_friendly_is_runs_phi_only_in_the_window_band():
    # A node whose live local size puts phi over the window runs no phi, so
    # no call sees more than the (w+1)k vertices of a node in the band. A
    # join's phi merges its children's answers, so phi runs once per vertex
    # set that no join splits: at most 2.5 vertices per input vertex in all,
    # growing with the number of levels.
    total = {}
    for n in (1000, 2000):
        sizes = []

        def spy(g, within=None, sizes=sizes):
            sizes.append(g.n if within is None else len(within))
            return degeneracy_is(g, within)

        g, td = gen_partial_ktree(n, 3, 0.9, 7)
        problem = dataclasses.replace(REG["is"], phi_approx=spy)
        rep = approx_friendly_turing(g, td, 0.5, problem, exact_dp_oracle())
        assert max(sizes) <= (rep.width + 1) * rep.thresholds["budget_k"]
        total[n] = sum(sizes)
        assert total[n] <= 2.5 * n
    assert total[2000] <= 3.0 * total[1000]


def test_friendly_vc_is_end_to_end_default_thresholds():
    g, td = gen_partial_ktree(300, 3, 0.9, seed=42)
    opt_vc = td_dp_solve(VC, g, make_nice(g, td)).value
    opt_is = td_dp_solve(IS, g, make_nice(g, td)).value
    for eps in (0.5, 1.0):
        rep = approx_friendly_turing(g, td, eps, REG["vc"], exact_dp_oracle())
        assert is_feasible(VC, g, rep.solution)
        assert rep.solution.value <= (1 + eps) * opt_vc
        rep2 = approx_friendly_turing(g, td, eps, REG["is"], exact_dp_oracle())
        assert is_feasible(IS, g, rep2.solution)
        assert rep2.solution.value * (1 + eps) >= opt_is


def test_friendly_matches_direct_engine_contract():
    # both engines honour the same ratio contract on 50 shared instances
    rng = random.Random(8)
    for trial in range(50):
        g, td = gen_partial_ktree(rng.randint(40, 150), rng.choice([2, 3]), 0.9, seed=trial)
        eps = rng.choice([0.5, 1.0])
        opt = td_dp_solve(VC, g, make_nice(g, td)).value
        rep_f = approx_friendly_turing(g, td, eps, REG["vc"], exact_dp_oracle())
        rep_d = approx_vc_turing(g, td, KernelConfig(eps, exact_dp_oracle()))
        assert rep_f.solution.value <= (1 + eps) * opt
        assert rep_d.solution.value <= (1 + eps) * opt


@pytest.mark.parametrize("name", ["cc", "fvs", "eds", "hpack:k2", "hpack:k3", "hpack:p3"])
def test_friendly_end_to_end_bruteforceable(name):
    prob = REG[name]
    rng = random.Random(11 + hash(name) % 1000)
    for _ in range(25):
        g = gnp_graph(rng, rng.randint(1, 12), 0.35)
        td = heuristic_td(g)
        eps = rng.choice([0.5, 1.0])
        rep = approx_friendly_turing(g, td, eps, prob, exact_brute_oracle())
        opt = brute_force_solve(prob.kind, g).value
        assert is_feasible(prob.kind, g, rep.solution)
        if is_minimization(prob.kind):
            assert rep.solution.value <= (1 + eps) * opt + 1e-9
        else:
            assert rep.solution.value * (1 + eps) >= opt - 1e-9


def test_friendly_progress_on_descent():
    g = Graph(range(1, 121), [(2 * i + 1, 2 * i + 2) for i in range(60)])
    td = heuristic_td(g)
    rep = approx_friendly_turing(g, td, 1.0, REG["is"], exact_dp_oracle())
    assert rep.recursion_depth >= 1
    # optimum is 60; each split may lose its bag vertices, but never more
    # than the (1+eps) guarantee
    assert 2 * rep.solution.value >= 60
    assert rep.recursion_depth <= g.n


def test_friendly_rejects_bad_epsilon():
    g = path_graph(4)
    with pytest.raises(ValueError):
        approx_friendly_turing(g, heuristic_td(g), 0.0, REG["vc"], exact_brute_oracle())


def test_friendly_engine_stack_does_not_grow_with_depth():
    # 77 split levels; a recursive engine needs a frame per level
    g, td = gen_partial_ktree(300, 1, 1.0, seed=3)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        rep = approx_friendly_turing(g, td, 1.0, REG["vc"], exact_dp_oracle(), 0.05)
    finally:
        sys.setrecursionlimit(old_limit)
    assert rep.recursion_depth == 77
