import dataclasses
import math
import random
from collections import Counter
from unittest import mock

import pytest

from atk import kernels
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.graph import Graph
from atk.kernels import (
    KernelConfig,
    _window_pass,
    approx_cvc_turing,
    approx_ecc_turing,
    approx_etp_turing,
    approx_is_turing,
    approx_vc_turing,
    cvc_obtain_approx,
    find_cvc_split_node,
    solve_etp_small,
)
from atk.approx import ApproximateKernel, ReducedInstance, greedy_triangle_packing
from atk.errors import InternalInvariantViolation
from atk.friendly import approx_friendly_turing, builtin_instances
from atk.cli import build_oracle
from atk.oracles import (
    Oracle,
    audited,
    brute_force_solve,
    exact_brute_oracle,
    exact_dp_oracle,
    lossy_wrap,
    td_dp_solve,
    trianglefree_ecc_oracle,
)
from atk.problems import CVC, ECC, ETP, IS, VC, Solution, is_feasible
from atk.treedecomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_td,
    make_nice,
    make_subconnected,
    validate,
)
from helpers import (
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    edgeless_graph,
    gnp_graph,
    path_graph,
    reading,
    reference_subtree_vertices,
    restricted,
    star_graph,
    triangle_chain,
)


def _dp_opt(kind, g, td):
    return td_dp_solve(kind, g, make_nice(g, td)).value


# ---------------------------------------------------------------------------
# The window pass's vc cuts
# ---------------------------------------------------------------------------


def _vc_cuts(g, td, limit):
    """(piece, separator) of every cut the vc pass makes, in cut order."""
    seen = []

    def solve(piece, _ntd, _cut, separator):
        seen.append((piece, separator))
        return frozenset()

    _, cuts = _window_pass(g, make_nice(g, td), limit, True, solve)
    return seen[:cuts]


def test_vc_pass_cuts_disjoint_edges_in_the_window():
    # 40 disjoint edges, eps=1: a cut's local cover is in (16/2 - 2, 16]
    g = Graph(range(1, 81), [(2 * i + 1, 2 * i + 2) for i in range(40)])
    td = heuristic_td(g)
    assert td.width == 1
    cuts = _vc_cuts(g, td, 8 * (td.width + 1) / 1.0)
    assert cuts
    for piece, _ in cuts:
        opt_piece = brute_force_solve(VC, piece).value
        assert 2 * opt_piece > 8 - 2 and opt_piece <= 16


def test_vc_pass_cut_window_verified_by_dp():
    g, td = gen_connected_partial_ktree(60, 2, 0.9, seed=77)
    eps = 0.5
    limit = 8 * (td.width + 1) / eps * 0.5  # at scale 0.5, so that the graph is cut
    cuts = _vc_cuts(g, td, limit)
    assert cuts
    for piece, _ in cuts:
        opt_local = _dp_opt(VC, piece, restricted(td, piece.vertex_set))
        # the local matching's cover is in (limit/2 - 2, limit], and it
        # brackets the optimum: cover/2 <= opt <= cover
        assert opt_local <= limit
        assert 2 * opt_local > limit / 2 - 2


@pytest.mark.parametrize("matching", [True, False])
def test_window_pass_cuts_the_lower_id_on_a_tie_whatever_the_join_lists_first(matching):
    # two branches, each forgetting one edge, under a join that lists the
    # higher id first; each measures 2, together 4 > limit 3
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    e = frozenset()
    bags, pivots, children = [], [], []
    for a, b in ((1, 2), (3, 4)):
        base = len(bags)
        bags += [e, frozenset({a}), e, frozenset({b}), e]
        pivots += [None, a, a, b, b]
        children += [(), (base,), (base + 1,), (base + 2,), (base + 3,)]
    bags.append(e)
    pivots.append(None)
    children.append((9, 4))
    ntd = NiceTreeDecomposition(bags, pivots, children, 10)
    assert not ntd.nice_violations()
    seen = []

    def solve(piece, _ntd, cut, _separator):
        seen.append((cut[0], piece.vertex_set))
        return frozenset()

    _, cuts = _window_pass(g, ntd, 3, matching, solve)
    assert cuts == 1
    assert seen == [(4, frozenset({1, 2})), (10, frozenset({3, 4}))]


# ---------------------------------------------------------------------------
# Vertex cover engine
# ---------------------------------------------------------------------------


def test_vc_engine_edgeless():
    g = edgeless_graph(6)
    rep = approx_vc_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.value == 0
    assert rep.oracle_calls == 0


def test_vc_engine_c4_exact():
    g = cycle_graph(4)
    rep = approx_vc_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.value == 2 == brute_force_solve(VC, g).value


def test_vc_engine_large_with_dp_oracle():
    g, td = gen_partial_ktree(300, 3, 0.9, seed=4)
    opt = _dp_opt(VC, g, td)
    cfg = KernelConfig(0.5, exact_dp_oracle())
    rep = approx_vc_turing(g, td, cfg)
    assert is_feasible(VC, g, rep.solution)
    assert rep.solution.value <= 1.5 * opt
    assert rep.max_query_vertices <= 16 * (td.width + 1) / 0.5
    assert rep.recursion_depth >= 1


def test_vc_engine_lossy_composition():
    g, td = gen_partial_ktree(200, 2, 0.9, seed=15)
    opt = _dp_opt(VC, g, td)
    for eps in (0.5, 1.0):
        cfg = KernelConfig(eps, lossy_wrap(exact_dp_oracle(), 1.5))
        rep = approx_vc_turing(g, td, cfg)
        assert is_feasible(VC, g, rep.solution)
        assert rep.solution.value <= 1.5 * (1 + eps) * opt


@pytest.mark.parametrize("n", [1000, 4000])
def test_vc_query_decompositions_are_sized_by_their_piece(n):
    # Each query gets the subtree of its split node, so its decomposition
    # has O(width) nodes per query vertex however large the graph is.
    g, td = gen_partial_ktree(n, 3, 0.9, seed=7)
    inner = exact_dp_oracle()
    per_vertex = []

    def recording(kind, q, q_td):
        if q_td is not None:
            per_vertex.append(len(q_td.bags) / q.n)
        return inner.solve(kind, q, q_td)

    rep = approx_vc_turing(g, td, KernelConfig(0.5, Oracle("rec", 1.0, inner.size_cap, recording)))
    assert rep.recursion_depth > 0 and per_vertex
    assert max(per_vertex) <= 4 * (rep.width + 1)


@pytest.mark.parametrize("engine, p, scale", [("direct", 0.9, 1.0), ("direct", 0.3, 0.1),
                                              ("friendly", 0.9, 1.0)])
def test_vc_cuts_each_query_decomposition_once_from_the_input(engine, p, scale):
    # Every piece goes through one _query with its cut: the cuts, then the
    # root's piece. A query cuts its tree from the run's input nice
    # decomposition with one restrict call; a piece the kernel answers
    # without a query (at scale 0.1 some are) cuts no tree.
    g, td = gen_partial_ktree(600, 3, p, seed=7)
    made, calls, pieces = [], [], []
    nice, restrict, query = make_nice, NiceTreeDecomposition.restrict, kernels._query

    def recording(*args):
        made.append(nice(*args))
        return made[-1]

    def counting(ntd, parts, t=None, taken=None):
        calls.append((ntd, len(parts), t))
        return restrict(ntd, parts, t, taken)

    def piece(kind, q, q_td, oracle, kernel=None, budget=math.inf, cut=None, hint=None):
        before = len(calls)
        sol = query(kind, q, q_td, oracle, kernel, budget, cut, hint)
        pieces.append((cut[0], calls[before:]))
        return sol

    with mock.patch("atk.kernels.make_nice", recording), \
            mock.patch.object(NiceTreeDecomposition, "restrict", counting), \
            mock.patch("atk.kernels._query", piece), mock.patch("atk.friendly._query", piece):
        if engine == "direct":
            rep = approx_vc_turing(g, td, KernelConfig(0.5, exact_dp_oracle(), scale))
        else:
            vc = builtin_instances()["vc"]
            rep = approx_friendly_turing(g, td, 0.5, vc, exact_dp_oracle())
    [ntd] = made
    assert all(cut is ntd for cut, _, _ in calls)
    assert rep.recursion_depth > 0
    assert [t == ntd.root for t, _ in pieces] == [False] * rep.recursion_depth + [True]
    assert all(cut in ([], [(ntd, 1, t)]) for t, cut in pieces)
    assert len(calls) == rep.oracle_calls
    assert (scale < 1) == (rep.oracle_calls < len(pieces))


def test_vc_engine_rejects_invalid_td():
    g = path_graph(4)
    from atk.treedecomp import TreeDecomposition

    with pytest.raises(ValueError):
        approx_vc_turing(g, TreeDecomposition({1: [1, 2]}), KernelConfig(1.0, exact_brute_oracle()))


def test_vc_engine_feasible_at_odd_scales():
    rng = random.Random(1)
    for scale in (0.05, 0.3, 2.0):
        g, td = gen_partial_ktree(rng.randint(20, 60), 2, 0.85, seed=int(scale * 100))
        cfg = KernelConfig(1.0, exact_dp_oracle(), threshold_scale=scale)
        rep = approx_vc_turing(g, td, cfg)
        assert is_feasible(VC, g, rep.solution)
        assert "threshold-scale-override" in rep.flags
        assert rep.recursion_depth <= g.n


# ---------------------------------------------------------------------------
# Independent set engine
# ---------------------------------------------------------------------------


def test_is_engine_edgeless():
    g = edgeless_graph(7)
    rep = approx_is_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.value == 7


def test_is_engine_two_triangles():
    g = Graph(range(1, 7), [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    rep = approx_is_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.value == 2


def test_is_engine_large_with_dp_oracle():
    g, td = gen_partial_ktree(400, 2, 0.85, seed=51)
    opt = _dp_opt(IS, g, td)
    cfg = KernelConfig(1.0, exact_dp_oracle())
    rep = approx_is_turing(g, td, cfg)
    assert is_feasible(IS, g, rep.solution)
    assert rep.solution.value * 2 >= opt
    assert rep.max_query_vertices <= 10 * (td.width + 1) ** 2
    assert rep.recursion_depth >= 1


# ---------------------------------------------------------------------------
# Edge clique cover engine
# ---------------------------------------------------------------------------


def test_ecc_engine_single_triangle():
    g = complete_graph(3)
    rep = approx_ecc_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.payload == frozenset({frozenset({1, 2, 3})})
    assert brute_force_solve(ECC, g).value == 1


def test_ecc_engine_forest_with_tf_oracle():
    g, td = gen_partial_ktree(600, 1, 0.8, seed=2)
    for eps in (0.5, 1.0):
        cfg = KernelConfig(eps, trianglefree_ecc_oracle())
        rep = approx_ecc_turing(g, td, cfg)
        assert is_feasible(ECC, g, rep.solution)
        assert rep.solution.value <= (1 + eps) * g.m
        assert rep.max_query_vertices <= 4 * (1 + eps) / eps * 16 + 2


def test_ecc_engine_components_add_up():
    tri1 = [(1, 2), (1, 3), (2, 3)]
    tri2 = [(4, 5), (4, 6), (5, 6)]
    g = Graph(range(1, 7), tri1 + tri2)
    rep = approx_ecc_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.value == 2


# ---------------------------------------------------------------------------
# Edge-disjoint triangle packing engine
# ---------------------------------------------------------------------------


def test_solve_etp_small_examples():
    oracle, flags = exact_brute_oracle(), set()
    sol = solve_etp_small(path_graph(5), greedy_triangle_packing(path_graph(5)), oracle, flags)
    assert sol.value == 0 and not flags
    sol = solve_etp_small(complete_graph(4), greedy_triangle_packing(complete_graph(4)), oracle, flags)
    assert sol.value == 1
    two = Graph(range(1, 7), [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    sol = solve_etp_small(two, greedy_triangle_packing(two), oracle, flags)
    assert sol.value == 2 and not flags


def test_solve_etp_small_kernel_refusal_falls_back():
    g = triangle_chain(12)  # 25 vertices, over the oracle's size cap of 18
    flags = set()
    sol = solve_etp_small(g, greedy_triangle_packing(g), exact_brute_oracle(), flags)
    assert "etp-kernel-refusal-3approx-fallback" in flags
    assert is_feasible(ETP, g, sol)
    assert sol.value >= 12 / 3
    k9 = complete_graph(9)  # 9 vertices but 36 edges, over exhaustive search's etp cap of 30
    flags = set()
    sol = solve_etp_small(k9, greedy_triangle_packing(k9), exact_brute_oracle(), flags)
    assert flags == {"etp-kernel-refusal-3approx-fallback"}
    assert sol == greedy_triangle_packing(k9)


def test_etp_engine_trianglefree():
    g, td = gen_partial_ktree(60, 2, 0.35, seed=8)
    if any(g.neighbors(u) & g.neighbors(v) for u, v in g.edges()):
        g = path_graph(30)
        td = heuristic_td(g)
    rep = approx_etp_turing(g, td, KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.value == 0


def test_etp_engine_chain_and_bowtie():
    g = triangle_chain(5)
    rep = approx_etp_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.value == 5
    bow = Graph(range(1, 6), [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    rep2 = approx_etp_turing(bow, heuristic_td(bow), KernelConfig(1.0, exact_brute_oracle()))
    assert rep2.solution.value == 2


def test_etp_engine_ratio_small_graphs():
    rng = random.Random(93)
    checked = 0
    while checked < 60:
        g = gnp_graph(rng, rng.randint(4, 10), 0.5)
        if g.m > 24:
            continue
        checked += 1
        td = heuristic_td(g)
        eps = rng.choice([0.5, 1.0])
        rep = approx_etp_turing(g, td, KernelConfig(eps, exact_brute_oracle()))
        opt = brute_force_solve(ETP, g).value
        assert is_feasible(ETP, g, rep.solution)
        assert rep.solution.value * (1 + eps) >= opt


def test_etp_engine_descent_via_scale_override():
    g = triangle_chain(40)
    td = heuristic_td(g)
    cfg = KernelConfig(1.0, exact_brute_oracle(), threshold_scale=0.08)
    rep = approx_etp_turing(g, td, cfg)
    assert rep.recursion_depth >= 1, "descent not exercised"
    assert is_feasible(ETP, g, rep.solution)
    # the final greedy completion makes the packing maximal: every triangle
    # of g must reuse a packed edge
    used = {frozenset(p) for tri in rep.solution.payload for p in _pairs(tri)}
    for u, v in g.edges():
        for w in g.neighbors(u) & g.neighbors(v):
            tri_edges = [frozenset((u, v)), frozenset((u, w)), frozenset((v, w))]
            assert any(e in used for e in tri_edges)


def test_etp_without_a_cut_packs_g_twice_and_copies_no_graph():
    # a path with a triangle on every 100th spine edge: 30 triangles, under the
    # easy guard, on the path-shaped decomposition of the min-degree order
    n = 3000
    g = Graph(range(n), [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(0, n, 100)])
    packed = []

    def counting(h, *args):
        packed.append(h)
        return greedy_triangle_packing(h, *args)

    with mock.patch("atk.kernels.greedy_triangle_packing", counting), \
            mock.patch.object(Graph, "induced_subgraph", side_effect=AssertionError("copied")):
        rep = approx_etp_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.recursion_depth == 0 and rep.solution.value == 30
    assert len(packed) == 2 and all(h is g for h in packed)  # the level check and the completion


def _pairs(tri):
    a, b, c = sorted(tri)
    return ((a, b), (a, c), (b, c))


# ---------------------------------------------------------------------------
# Connected vertex cover engine
# ---------------------------------------------------------------------------


def test_cvc_obtain_approx_examples():
    oracle = exact_brute_oracle()
    k2 = Graph([1, 2], [(1, 2)])
    sol = cvc_obtain_approx(k2, 1 / 3, oracle, width=1)
    assert sol.value == 1
    star = star_graph(6)
    sol = cvc_obtain_approx(star, 1 / 3, oracle, width=1)
    assert sol.payload == frozenset({0})


def test_cvc_obtain_approx_too_big_signal():
    # genuinely huge instance: the 2-approximation already exceeds the
    # default guard 200*width^2/delta = 600
    g = path_graph(1400)
    res = cvc_obtain_approx(g, 1 / 3, exact_brute_oracle(), width=1)
    assert res is None
    # a scaled-down guard triggers the same certificate on desk-size graphs
    res2 = cvc_obtain_approx(
        path_graph(40), 1 / 3, exact_brute_oracle(), width=1, threshold_scale=0.001
    )
    assert res2 is None


def test_cvc_find_split_caterpillar_scaled():
    g, td = gen_connected_partial_ktree(50, 1, 1.0, seed=33)
    ntd = make_nice(g, td)
    sc = make_subconnected(g, ntd)
    children, vsets = reference_subtree_vertices(sc.as_td())
    assert sc.children == children and sc.vsets == vsets
    t, v_t, sol = find_cvc_split_node(
        g, sc, 1 / 3, exact_brute_oracle(), set(), width=1, threshold_scale=0.01
    )
    assert v_t == vsets[t]
    x_t = sc.bags[t]
    sub = g.induced_subgraph(v_t)
    gx = sub.identify_vertices(x_t, max(g.vertices) + 1) if x_t else sub
    assert is_feasible(CVC, gx, sol)
    assert sol.value >= 10 * 1 / (1 / 3) * 0.01


def test_cvc_engine_p4_star_and_glued_triangles():
    p4 = path_graph(4)
    rep = approx_cvc_turing(p4, heuristic_td(p4), KernelConfig(1.0, exact_brute_oracle()))
    assert rep.solution.payload == frozenset({2, 3})
    star = star_graph(8)
    rep2 = approx_cvc_turing(star, heuristic_td(star), KernelConfig(1.0, exact_brute_oracle()))
    assert rep2.solution.payload == frozenset({0})
    glued = Graph(range(1, 7), [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
    rep3 = approx_cvc_turing(glued, heuristic_td(glued), KernelConfig(1.0, exact_brute_oracle()))
    assert rep3.solution.value == brute_force_solve(CVC, glued).value


def test_cvc_engine_requires_connected():
    g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        approx_cvc_turing(g, heuristic_td(g), KernelConfig(1.0, exact_brute_oracle()))


def test_cvc_engine_ratio_random_small():
    rng = random.Random(5)
    for _ in range(40):
        g = connected_gnp_graph(rng, rng.randint(2, 13), 0.3)
        td = heuristic_td(g)
        eps = rng.choice([0.5, 1.0])
        rep = approx_cvc_turing(g, td, KernelConfig(eps, exact_brute_oracle()))
        opt = brute_force_solve(CVC, g).value
        assert is_feasible(CVC, g, rep.solution)
        assert rep.solution.value <= (1 + eps) * opt


def test_cvc_engine_descent_scaled():
    g, td = gen_connected_partial_ktree(60, 2, 1.0, seed=8)
    cfg = KernelConfig(1.0, exact_brute_oracle(), threshold_scale=0.003)
    rep = approx_cvc_turing(g, td, cfg)
    assert is_feasible(CVC, g, rep.solution)
    assert rep.recursion_depth >= 1


def test_cvc_scaled_descent_falls_back_to_the_union_cover():
    # Every child of the descent answers below the scaled size window, so
    # the scaled run assembles the children's union cover instead of raising.
    g, td = gen_connected_partial_ktree(12, 1, 0.461, 474620)
    rep = approx_cvc_turing(g, td, KernelConfig(1.0, exact_brute_oracle(), 0.001))
    assert "cvc-descent-exhausted-fallback" in rep.flags
    assert is_feasible(CVC, g, rep.solution)
    assert (rep.solution.value, rep.recursion_depth) == (12, 11)


@pytest.mark.parametrize("seed", range(3))
def test_cvc_queries_only_the_children_where_its_descent_stops(seed):
    # A subconnected node has at most 2*width+2 children, and the descent
    # queries the children of one node per cut, plus the last remainder once.
    g, td = gen_connected_partial_ktree(250, 1, 0.9, seed)
    rep = approx_cvc_turing(g, td, KernelConfig(1.0, exact_brute_oracle(), 0.002))
    assert rep.recursion_depth >= 50
    assert rep.oracle_calls <= (rep.recursion_depth + 1) * (2 * rep.width + 2)


# ---------------------------------------------------------------------------
# Cross-engine invariants
# ---------------------------------------------------------------------------


def test_recursion_depth_bounded_by_n():
    g, td = gen_partial_ktree(120, 2, 0.9, seed=44)
    for engine in (approx_vc_turing, approx_is_turing):
        rep = engine(g, td, KernelConfig(1.0, exact_dp_oracle()))
        assert rep.recursion_depth <= g.n


def test_separator_soundness_at_split():
    """At a split, no edge joins the locally solved part to the remainder
    except through the bag (checked by direct edge scan)."""
    rng = random.Random(70)
    from atk.treedecomp import Remainder, descend

    for trial in range(10):
        g, td = gen_partial_ktree(rng.randint(80, 200), rng.choice([2, 3]), 0.9, seed=trial)
        gone: set[int] = set()  # earlier pieces and separators
        cuts = _vc_cuts(g, td, 8 * (td.width + 1))  # eps = 1
        assert cuts
        for piece, separator in cuts:
            local = piece.vertex_set
            for u in local:
                assert g.neighbors(u) <= local | separator | gone
            gone |= local | separator
        ntd = make_nice(g, td)
        rest = Remainder(g, ntd)
        t = descend(rest, lambda s: (rest.live_local[s], None), 11, floor=5)[0]
        local2 = rest.local(t)
        bag2 = ntd.bags[t]
        outside2 = g.vertex_set - local2 - bag2
        for u, v in g.edges():
            assert not ((u in local2 and v in outside2) or (v in local2 and u in outside2))


def test_make_nice_runs_once_per_engine_run(monkeypatch):
    # Rebuilding the decomposition for each cut made the engines quadratic,
    # and the oracle's rebuild of each query's piece cost more than its DP.
    # Every remainder and component is cut from the input's nice
    # decomposition, and cvc cuts and contracts one subconnected
    # decomposition of it, building no tree decomposition per cut.
    import atk.kernels as kernels
    import atk.oracles as oracles
    import atk.treedecomp as treedecomp

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("make_nice", "Remainder", "descend", "make_subconnected"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    monkeypatch.setattr(oracles, "make_nice", counted("make_nice", oracles.make_nice))
    monkeypatch.setattr(
        treedecomp.TreeDecomposition, "__init__",
        counted("TreeDecomposition", treedecomp.TreeDecomposition.__init__),
    )
    reg = builtin_instances()
    big, big_td = gen_partial_ktree(1000, 3, 0.9, seed=7)
    cvc_g, cvc_td = gen_connected_partial_ktree(50, 1, 0.6, seed=0)
    runs = {
        "vc": lambda: approx_vc_turing(big, big_td, KernelConfig(0.5, exact_dp_oracle())),
        "is": lambda: approx_is_turing(big, big_td, KernelConfig(0.5, exact_dp_oracle())),
        "etp": lambda: approx_etp_turing(
            *gen_partial_ktree(60, 2, 0.9, seed=3), KernelConfig(1.0, exact_brute_oracle(), 0.1)
        ),
        "ecc-connected": lambda: approx_ecc_turing(
            *gen_connected_partial_ktree(200, 1, 0.8, seed=4),
            KernelConfig(0.5, trianglefree_ecc_oracle(), 0.05),
        ),
        "ecc-forest": lambda: approx_ecc_turing(
            *gen_partial_ktree(300, 1, 0.8, seed=4),
            KernelConfig(0.5, trianglefree_ecc_oracle(), 0.05),
        ),
        "friendly-vc": lambda: approx_friendly_turing(
            *gen_partial_ktree(200, 2, 0.8, seed=1), 0.5, reg["vc"], exact_dp_oracle(), 0.3
        ),
        "friendly-is": lambda: approx_friendly_turing(
            *gen_partial_ktree(200, 2, 0.8, seed=1), 0.5, reg["is"], exact_dp_oracle(), 0.3
        ),
        "cvc": lambda: approx_cvc_turing(
            cvc_g, cvc_td, KernelConfig(1.0, exact_brute_oracle(), 0.01)
        ),
    }
    for name, run in runs.items():
        calls.clear()
        rep = run()
        assert rep.recursion_depth > 1, name
        assert calls["make_nice"] == 1, name
        if name in ("vc", "is"):
            assert calls == {"make_nice": 1}
        if name == "cvc":
            assert calls == {"make_nice": 1, "make_subconnected": 1}


def test_oracles_declare_whether_they_read_a_decomposition():
    # Only the treewidth DP reads the decomposition it is handed; wrappers
    # pass the inner oracle's declaration on, and a custom oracle reads one.
    names = ("exact-dp", "exact-bf", "exact-tf-ecc", "lossy:2")
    assert [build_oracle(n, "vc").reads_decomposition for n in names] == [True, False, False, True]
    assert not build_oracle("lossy:2", "etp").reads_decomposition
    for inner in (exact_dp_oracle(), exact_brute_oracle(), trianglefree_ecc_oracle()):
        assert audited(inner)[0].reads_decomposition == inner.reads_decomposition
        assert lossy_wrap(inner, 2.0).reads_decomposition == inner.reads_decomposition
    assert Oracle("custom", 1.0, 10, lambda kind, g, td: None).reads_decomposition


def test_no_tree_is_cut_for_an_oracle_that_reads_none(monkeypatch):
    # A query to an oracle that reads no decomposition cuts no tree, and
    # ecc cuts trees only for the components that may chain: a component
    # within base(1) vertices is within the base size of any tree of it.
    cuts = []
    restrict = NiceTreeDecomposition.restrict

    def recorded(ntd, parts, t=None, taken=None):
        cuts.append((t, [len(p) for p in parts]))
        return restrict(ntd, parts, t, taken)

    monkeypatch.setattr(NiceTreeDecomposition, "restrict", recorded)
    rep = approx_vc_turing(
        *gen_partial_ktree(60, 2, 0.9, seed=0), KernelConfig(0.5, exact_brute_oracle(), 0.1)
    )
    assert rep.recursion_depth > 1 and cuts == []
    base1, depth = 2.0 * (1 + 0.5) / 0.5 * 2**4, 0
    cfg = KernelConfig(0.5, trianglefree_ecc_oracle())
    for seed in range(4):
        depth += approx_ecc_turing(*gen_partial_ktree(750, 1, 0.8, seed), cfg).recursion_depth
    assert depth > 4 and cuts
    assert all(t is None and min(sizes) > base1 for t, sizes in cuts)


def test_ecc_and_etp_build_one_view_per_chain(monkeypatch):
    # ecc and etp rebuilt their remainder at every cut: remove_vertices, a
    # whole-tree restrict and a fresh local-set index. A chain of cuts now
    # runs on one view of its decomposition and removes no vertex: etp runs
    # one chain, and ecc one per connected piece over its base size, whose
    # queries all cut their trees with the taken set of the chain's view
    # (for an oracle that reads its decomposition: others get no tree cut).
    import atk.kernels as kernels

    calls, chains = Counter(), []  # chains: the taken sets ecc's queries cut with
    view, remove = kernels.Remainder, Graph.remove_vertices
    restrict = NiceTreeDecomposition.restrict

    def counted_view(*args):
        calls["views"] += 1
        return view(*args)

    def counted_remove(self, x):
        calls["remove_vertices"] += 1
        return remove(self, x)

    def counted_restrict(ntd, parts, t=None, taken=None):
        if t is not None and all(taken is not seen for seen in chains):
            chains.append(taken)
        return restrict(ntd, parts, t, taken)

    monkeypatch.setattr(kernels, "Remainder", counted_view)
    monkeypatch.setattr(Graph, "remove_vertices", counted_remove)
    monkeypatch.setattr(NiceTreeDecomposition, "restrict", counted_restrict)
    rep = approx_ecc_turing(
        *gen_partial_ktree(300, 2, 0.5, seed=0),
        KernelConfig(0.5, reading(exact_brute_oracle()), 0.01),
    )
    assert rep.recursion_depth > len(chains) > 1  # chains of cuts
    assert calls == {"views": len(chains)}
    calls.clear()
    rep = approx_etp_turing(
        *gen_partial_ktree(60, 2, 0.9, seed=3), KernelConfig(1.0, exact_brute_oracle(), 0.1)
    )
    assert rep.recursion_depth > 1
    assert calls == {"views": 1}


def test_each_ecc_fall_apart_costs_one_restrict(monkeypatch):
    # Where a chain's remainder falls apart or fits the base size, one
    # restrict cuts the trees of its components from the chain's own tree;
    # it used to cut the tree of G[live] first and then split that tree.
    # A chain ends at its root's query or in that one component cut, and
    # one more cuts the components of the input; a remainder with no edge
    # left needs no tree. Each query cuts its own tree too, for an oracle
    # that reads it.
    import atk.kernels as kernels

    calls = Counter()
    apart, view, restrict = kernels._apart, kernels.Remainder, NiceTreeDecomposition.restrict
    components = kernels._components

    def counted_apart(*args):
        out = apart(*args)
        calls["fell apart"] += out
        return out

    def counted_view(*args):
        calls["chains"] += 1
        return view(*args)

    def counted_components(*args):
        out = components(*args)
        calls["edgeless ends"] += all(len(c) == 1 for c in out)
        return out

    def counted_restrict(ntd, parts, t=None, taken=None):
        calls["component cuts" if t is None else "queries"] += 1
        calls["root queries"] += t == ntd.root
        return restrict(ntd, parts, t, taken)

    monkeypatch.setattr(kernels, "_apart", counted_apart)
    monkeypatch.setattr(kernels, "Remainder", counted_view)
    monkeypatch.setattr(kernels, "_components", counted_components)
    monkeypatch.setattr(NiceTreeDecomposition, "restrict", counted_restrict)
    g, td = gen_partial_ktree(300, 2, 0.5, seed=0)
    rep = approx_ecc_turing(g, td, KernelConfig(0.5, reading(exact_brute_oracle()), 0.01))
    assert calls["fell apart"] > 1
    assert calls["queries"] == rep.recursion_depth
    assert calls["component cuts"] == (
        1 + calls["chains"] - calls["root queries"] - calls["edgeless ends"]
    )


def test_cvc_validates_each_remainder_once(monkeypatch):
    # Each cut contracts the one subconnected decomposition in place, and
    # the result is validated against the contracted graph once; a cut it
    # rejects is an internal invariant violation.
    import atk.kernels as kernels
    import atk.treedecomp as treedecomp

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    check = counted("validate", treedecomp.validate)
    monkeypatch.setattr(treedecomp, "validate", check)
    monkeypatch.setattr(kernels, "validate", check)
    cut = treedecomp.SubconnectedDecomposition.cut
    monkeypatch.setattr(treedecomp.SubconnectedDecomposition, "cut", counted("cut", cut))
    g, td = gen_connected_partial_ktree(50, 1, 0.6, seed=0)
    approx_cvc_turing(g, td, KernelConfig(1.0, exact_brute_oracle(), 0.01))
    assert calls["cut"] > 1
    assert calls["validate"] == 1 + calls["cut"]  # the input, then one per cut

    def broken(sc, t, z):  # the contraction vertex left in no bag
        cut(sc, t, z)
        for s in sc.occurs[z]:
            sc.bags[s] -= {z}

    monkeypatch.setattr(treedecomp.SubconnectedDecomposition, "cut", broken)
    with pytest.raises(InternalInvariantViolation, match="invalid tree decomposition"):
        approx_cvc_turing(g, td, KernelConfig(1.0, exact_brute_oracle(), 0.01))


def test_audit_counts_match_report():
    g, td = gen_partial_ktree(150, 2, 0.9, seed=3)
    cfg = KernelConfig(0.5, exact_dp_oracle())
    rep = approx_vc_turing(g, td, cfg)
    assert rep.oracle_calls == cfg.audit.call_count
    assert rep.max_query_vertices == cfg.audit.max_query_vertices


def test_drive_gates_the_audited_query_at_scale_one(monkeypatch):
    # Without its NT kernel, direct vc queries a 41-vertex star whole, over
    # the declared 16(w+1)/eps = 32; so does friendly vc behind a kernel
    # that declares 1 vertex and reduces nothing. At scale 1 the engine loop
    # refuses both runs; a scaled run only reports the query.
    import atk.kernels as kernels

    star = star_graph(40)
    td = heuristic_td(star)
    monkeypatch.setattr(kernels, "vc_nt_kernel", lambda: None)
    with pytest.raises(InternalInvariantViolation, match="query size 41 exceeds declared bound 32.0"):
        approx_vc_turing(star, td, KernelConfig(1.0, exact_dp_oracle()))
    rep = approx_vc_turing(star, td, KernelConfig(1.0, exact_dp_oracle(), 0.999))
    assert rep.max_query_vertices == 41 > rep.declared_query_bound
    identity = ApproximateKernel(
        lambda delta, budget: 1.0, lambda g, budget: ReducedInstance(g, lambda s: s)
    )
    vc = dataclasses.replace(builtin_instances()["vc"], psaks=identity)
    with pytest.raises(InternalInvariantViolation, match="exceeds declared bound 1.0"):
        approx_friendly_turing(star, td, 1.0, vc, exact_dp_oracle())
    rep = approx_friendly_turing(star, td, 1.0, vc, exact_dp_oracle(), threshold_scale=0.999)
    assert rep.max_query_vertices > rep.declared_query_bound == 1.0


def _recording(inner: Oracle):
    """An oracle that keeps every (graph, decomposition) it is asked about."""
    queries = []

    def fn(kind, g, td):
        queries.append((g, td))
        return inner.solve(kind, g, td)

    return Oracle("recording", inner.declared_ratio, inner.size_cap, fn), queries


def test_every_query_gets_a_decomposition_of_its_graph():
    direct = {"vc": approx_vc_turing, "is": approx_is_turing, "ecc": approx_ecc_turing}
    cases = [
        ("direct", "vc", 300, 3, 0.9, 0.3, exact_dp_oracle),
        ("direct", "is", 300, 3, 0.9, 0.3, exact_dp_oracle),
        ("direct", "ecc", 300, 1, 0.8, 0.3, trianglefree_ecc_oracle),
        ("friendly", "vc", 300, 3, 0.9, 0.3, exact_dp_oracle),
        ("friendly", "is", 300, 3, 0.9, 0.3, exact_dp_oracle),
        ("friendly", "cc", 120, 1, 0.8, 0.2, exact_brute_oracle),
    ]
    for engine, problem, n, k, p, scale, make_oracle in cases:
        g, td = gen_partial_ktree(n, k, p, seed=5)
        oracle, queries = _recording(make_oracle())
        if engine == "direct":
            rep = direct[problem](g, td, KernelConfig(0.5, oracle, threshold_scale=scale))
        else:
            rep = approx_friendly_turing(g, td, 0.5, builtin_instances()[problem], oracle, scale)
        assert rep.recursion_depth > 1 and len(queries) > 1, (engine, problem)
        for q, q_td in queries:
            assert isinstance(q_td, NiceTreeDecomposition), (engine, problem)
            assert q_td.nice_violations() == [], (engine, problem)
            assert validate(q, q_td).valid, (engine, problem)


def test_ecc_answers_small_components_where_it_splits_them(monkeypatch):
    # Each component used to take a step of its own, which ran
    # connected_components again before querying it. Components within the
    # base size are now answered in the step that cuts their decompositions.
    calls = Counter()
    restrict, components = NiceTreeDecomposition.restrict, Graph.connected_components

    def counted_restrict(self, *args):
        calls["restrict"] += 1
        return restrict(self, *args)

    def counted_components(self):
        calls["connected_components"] += 1
        return components(self)

    monkeypatch.setattr(NiceTreeDecomposition, "restrict", counted_restrict)
    monkeypatch.setattr(Graph, "connected_components", counted_components)
    g, td = gen_partial_ktree(300, 1, 0.6, seed=3)
    comps = [c for c in components(g) if len(c) > 1]
    assert len(comps) > 40 and max(map(len, comps)) <= 2.0 * 1.5 / 0.5 * 2**4  # base(1)
    oracle, queries = _recording(trianglefree_ecc_oracle())
    rep = approx_ecc_turing(g, td, KernelConfig(0.5, oracle))
    assert calls == {"restrict": 1, "connected_components": 1}
    assert rep.oracle_calls == len(queries) == len(comps)
    assert sorted(sorted(q.vertices) for q, _ in queries) == sorted(map(sorted, comps))
    for q, q_td in queries:
        assert isinstance(q_td, NiceTreeDecomposition)
        assert q_td.nice_violations() == []
        assert validate(q, q_td).valid


def test_infeasible_oracle_answer_is_an_internal_invariant_violation():
    g = cycle_graph(7)
    for engine, bad_answer in (
        (approx_vc_turing, lambda q: Solution.of_vertices(())),
        (approx_is_turing, lambda q: Solution.of_vertices(q.vertex_set)),
    ):
        oracle = Oracle("infeasible", 1.0, 100, lambda kind, q, td: bad_answer(q))
        with pytest.raises(InternalInvariantViolation, match="oracle answer"):
            engine(g, heuristic_td(g), KernelConfig(0.5, oracle))
