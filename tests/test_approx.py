import random
from fractions import Fraction
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atk.approx import (
    clique_cover_kernel,
    clique_cover_trivial,
    connectify_vertex_cover,
    cvc_2approx,
    degeneracy_is,
    eds_2approx,
    fvs_2approx,
    greedy_triangle_packing,
    is_degeneracy_kernel,
    maximal_h_packing,
    nt_reduce,
    vc_2approx,
    vc_nt_kernel,
)
from atk.generate import gen_partial_ktree
from atk.graph import Graph
from atk.kernels import _query
from atk.oracles import audited, brute_force_solve, exact_brute_oracle
from atk.problems import (
    CLIQUE_COVER,
    CVC,
    EDS,
    ETP,
    FVS,
    IS,
    VC,
    Solution,
    h_packing,
    is_feasible,
)
from atk.treedecomp import heuristic_td
from helpers import (
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    edgeless_graph,
    gnp_graph,
    lift_exact,
    path_graph,
    query_size,
    reference_degeneracy_order,
    star_graph,
    triangle_chain,
)


# ---------------------------------------------------------------------------
# 2-approximations and greedy packings
# ---------------------------------------------------------------------------


def test_vc_2approx_examples():
    assert vc_2approx(path_graph(3)).value == 2
    assert vc_2approx(edgeless_graph(4)).value == 0
    k4 = complete_graph(4)
    sol = vc_2approx(k4)
    assert sol.value == 4
    assert brute_force_solve(VC, k4).value == 3


def test_degeneracy_is_examples():
    assert degeneracy_is(path_graph(4)).value >= 2
    assert degeneracy_is(complete_graph(4)).value == 1
    assert degeneracy_is(edgeless_graph(5)).value == 5


def test_degeneracy_is_lower_bound():
    rng = random.Random(5)
    for _ in range(80):
        g = gnp_graph(rng, rng.randint(1, 12), 0.3)
        _, d = reference_degeneracy_order(g)
        sol = degeneracy_is(g)
        assert is_feasible(IS, g, sol)
        assert sol.value * (d + 1) >= g.n


def test_degeneracy_order_matches_the_bucket_reference():
    from atk.approx import _min_degree_order

    rng = random.Random(12)
    graphs = [gnp_graph(rng, rng.randint(1, 40), rng.choice([0.1, 0.3, 0.6])) for _ in range(60)]
    graphs += [gen_partial_ktree(n, k, 0.8, seed)[0] for seed, (n, k) in enumerate(
        [(30, 1), (80, 2), (200, 3), (400, 3)])]
    for g in graphs:
        picks = list(_min_degree_order(g))
        order, d = [v for v, _ in picks], max((d for _, d in picks), default=0)
        assert (order, d) == reference_degeneracy_order(g)


def test_greedy_triangle_packing_examples():
    assert greedy_triangle_packing(triangle_chain(2)).value == 2
    assert greedy_triangle_packing(path_graph(6)).value == 0
    sol = greedy_triangle_packing(complete_graph(4))
    assert sol.value == 1
    assert brute_force_solve(ETP, complete_graph(4)).value == 1


def test_all_2approx_ratio_contracts():
    rng = random.Random(41)
    for _ in range(400):
        g = gnp_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.35, 0.5]))
        cover = vc_2approx(g)
        assert is_feasible(VC, g, cover)
        assert cover.value <= 2 * brute_force_solve(VC, g).value
        fvs = fvs_2approx(g)
        assert is_feasible(FVS, g, fvs)
        assert fvs.value <= 2 * brute_force_solve(FVS, g).value
        eds = eds_2approx(g)
        assert is_feasible(EDS, g, eds)
        assert eds.value <= 2 * brute_force_solve(EDS, g).value
        if g.m <= 24:
            pack = greedy_triangle_packing(g)
            assert is_feasible(ETP, g, pack)
            assert 3 * pack.value >= brute_force_solve(ETP, g).value


def test_fvs_2approx_examples():
    forest = Graph(range(1, 7), [(1, 2), (2, 3), (4, 5)])
    assert fvs_2approx(forest).value == 0
    c5 = cycle_graph(5)
    sol = fvs_2approx(c5)
    assert is_feasible(FVS, c5, sol) and sol.value <= 2
    two_c3 = Graph(range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    sol2 = fvs_2approx(two_c3)
    assert is_feasible(FVS, two_c3, sol2) and sol2.value <= 4


def test_eds_2approx_examples():
    single = Graph([1, 2], [(1, 2)])
    assert eds_2approx(single).payload == frozenset({frozenset({1, 2})})
    p4 = path_graph(4)
    sol = eds_2approx(p4)
    assert 1 <= sol.value <= 2
    assert eds_2approx(edgeless_graph(3)).value == 0


# ---------------------------------------------------------------------------
# Half-integral LP reduction
# ---------------------------------------------------------------------------


def enum_half_integral_lp(g: Graph) -> Fraction:
    """Optimal half-integral LP value by brute enumeration over {0,1/2,1}^V."""
    best = None
    verts = g.vertices
    for assignment in product((Fraction(0), Fraction(1, 2), Fraction(1)), repeat=g.n):
        x = dict(zip(verts, assignment))
        if all(x[u] + x[v] >= 1 for u, v in g.edges()):
            total = sum(assignment)
            if best is None or total < best:
                best = total
    return best if best is not None else Fraction(0)


def test_nt_reduce_k2():
    g = Graph([1, 2], [(1, 2)])
    nt = nt_reduce(g)
    assert nt.lp_value == enum_half_integral_lp(g) == 1
    assert nt.vhalf == {1, 2} and not nt.v0 and not nt.v1


def test_nt_reduce_star():
    g = star_graph(3)
    nt = nt_reduce(g)
    assert nt.lp_value == enum_half_integral_lp(g) == 1
    assert nt.v1 == {0} and nt.v0 == {1, 2, 3}


def test_nt_reduce_edgeless():
    g = edgeless_graph(4)
    nt = nt_reduce(g)
    assert nt.lp_value == 0 and nt.v0 == g.vertex_set


def test_nt_reduce_lp_optimum_random():
    rng = random.Random(77)
    for _ in range(50):
        g = gnp_graph(rng, rng.randint(1, 7), 0.4)
        assert nt_reduce(g).lp_value == enum_half_integral_lp(g)


def test_nt_partition_legality_and_persistence():
    rng = random.Random(300)
    for _ in range(150):
        g = gnp_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6]))
        nt = nt_reduce(g)
        assert nt.v0 | nt.vhalf | nt.v1 == g.vertex_set
        assert not (nt.v0 & nt.vhalf) and not (nt.v0 & nt.v1) and not (nt.vhalf & nt.v1)
        for u, v in g.edges():
            assert not (u in nt.v0 and v in nt.v0)
            assert not (u in nt.v0 and v in nt.vhalf)
            assert not (v in nt.v0 and u in nt.vhalf)
        opt = brute_force_solve(VC, g).value
        assert nt.lp_value <= opt <= 2 * nt.lp_value
        assert len(nt.vhalf) <= 2 * opt
        inner = brute_force_solve(VC, g.induced_subgraph(nt.vhalf)).value
        assert opt == len(nt.v1) + inner


@st.composite
def nt_graphs(draw):
    """Disjoint unions of isolated vertices, stars, odd cycles and partial
    k-trees, relabelled by a random permutation."""
    parts = []
    for family in draw(st.lists(st.sampled_from(("isolated", "star", "odd", "ktree")), max_size=4)):
        if family == "isolated":
            parts.append(edgeless_graph(draw(st.integers(1, 3))))
        elif family == "star":
            parts.append(star_graph(draw(st.integers(1, 6))))
        elif family == "odd":
            parts.append(cycle_graph(2 * draw(st.integers(1, 4)) + 1))
        else:
            k = draw(st.integers(1, 3))
            n, p = draw(st.integers(k + 1, 16)), draw(st.floats(0.3, 1.0))
            parts.append(gen_partial_ktree(n, k, p, draw(st.integers(0, 999)))[0])
    vertices, edges = [], []
    for part in parts:
        shift = {v: len(vertices) + i for i, v in enumerate(part.vertices)}
        vertices += shift.values()
        edges += [(shift[u], shift[v]) for u, v in part.edges()]
    perm = draw(st.permutations(vertices))
    return Graph(perm, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(nt_graphs())
def test_nt_reduce_matches_networkx_koenig_cover(g):
    # The double cover's Koenig cover from networkx's Hopcroft-Karp matching
    # gives every vertex the same count of covered copies as nt_reduce.
    dc = nx.Graph()
    left = [("l", v) for v in g.vertices]
    dc.add_nodes_from(left)
    dc.add_nodes_from(("r", v) for v in g.vertices)
    dc.add_edges_from((("l", u), ("r", w)) for u in g.vertices for w in g.neighbors(u))
    matching = nx.bipartite.hopcroft_karp_matching(dc, top_nodes=left)
    cover = nx.bipartite.to_vertex_cover(dc, matching, top_nodes=left)
    counts = {v: (("l", v) in cover) + (("r", v) in cover) for v in g.vertices}
    nt = nt_reduce(g)
    assert nt.v0 == {v for v, c in counts.items() if c == 0}
    assert nt.vhalf == {v for v, c in counts.items() if c == 1}
    assert nt.v1 == {v for v, c in counts.items() if c == 2}
    assert nt.lp_value == Fraction(len(cover), 2)


def test_solve_vc_small_examples():
    oracle = exact_brute_oracle()
    star = star_graph(5)
    assert _query(VC, star, None, oracle, vc_nt_kernel()).value == 1
    assert _query(VC, cycle_graph(6), None, oracle, vc_nt_kernel()).value == 3
    # edgeless instance: empty cover without consulting the oracle
    counted, audit = audited(exact_brute_oracle())
    assert _query(VC, edgeless_graph(4), None, counted, vc_nt_kernel()).value == 0
    assert audit.call_count == 0


def test_solve_vc_small_query_bound():
    rng = random.Random(12)
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(1, 12), 0.3)
        oracle, audit = audited(exact_brute_oracle())
        sol = _query(VC, g, None, oracle, vc_nt_kernel())
        opt = brute_force_solve(VC, g).value
        assert is_feasible(VC, g, sol)
        assert sol.value == opt  # exact oracle: the reduction is lossless
        assert audit.max_query_vertices <= 2 * opt


# ---------------------------------------------------------------------------
# Connected vertex cover helpers
# ---------------------------------------------------------------------------


def test_cvc_2approx_examples():
    k2 = Graph([1, 2], [(1, 2)])
    assert cvc_2approx(k2).value == 1
    star = star_graph(4)
    sol = cvc_2approx(star)
    assert is_feasible(CVC, star, sol) and sol.value <= 2
    p4 = path_graph(4)
    sol2 = cvc_2approx(p4)
    assert is_feasible(CVC, p4, sol2) and sol2.value <= 3
    assert brute_force_solve(CVC, p4).value == 2


def test_cvc_2approx_preconditions():
    with pytest.raises(ValueError):
        cvc_2approx(edgeless_graph(3))
    with pytest.raises(ValueError):
        cvc_2approx(Graph([1, 2, 3, 4], [(1, 2), (3, 4)]))


def test_cvc_2approx_ratio_random():
    rng = random.Random(50)
    for _ in range(300):
        g = connected_gnp_graph(rng, rng.randint(2, 11), 0.3)
        sol = cvc_2approx(g)
        assert is_feasible(CVC, g, sol)
        assert sol.value <= 2 * brute_force_solve(CVC, g).value


def test_connectify_p3_example():
    g = path_graph(3)  # 1-2-3
    gx = g.identify_vertices({1, 3}, 9)
    s = brute_force_solve(CVC, gx)
    out = connectify_vertex_cover(g, {1, 3}, s)
    assert is_feasible(CVC, g, out)
    assert {1, 3} <= out.payload
    assert out.value <= s.value + 4


def test_connectify_contract_random_triples():
    rng = random.Random(60)
    for _ in range(200):
        g = connected_gnp_graph(rng, rng.randint(2, 12), 0.3)
        size = rng.randint(1, max(1, g.n // 2))
        x = frozenset(rng.sample(g.vertices, size))
        z = max(g.vertices) + 1
        gx = g.identify_vertices(x, z)
        if gx.m == 0:
            s = Solution.of_vertices(())
        else:
            s = cvc_2approx(gx)
        out = connectify_vertex_cover(g, x, s)
        assert is_feasible(CVC, g, out)
        assert x <= out.payload
        assert out.value <= s.value + 2 * len(x)


def test_connectify_rejects_bad_inputs():
    g = path_graph(4)
    with pytest.raises(ValueError):
        connectify_vertex_cover(g, (), Solution.of_vertices(()))
    with pytest.raises(ValueError):
        connectify_vertex_cover(g, {1}, Solution.of_vertices({4}))  # not a cover


# ---------------------------------------------------------------------------
# Packings, trivial covers, kernels
# ---------------------------------------------------------------------------


def test_maximal_h_packing_examples():
    k2 = complete_graph(2, start=0)
    k3 = complete_graph(3, start=0)
    p3 = path_graph(3, start=0)
    assert maximal_h_packing(path_graph(4), k2).value == 2
    two_k3 = Graph(range(1, 7), [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert maximal_h_packing(two_k3, k3).value == 2
    assert maximal_h_packing(cycle_graph(4), p3).value == 1
    assert brute_force_solve(h_packing(p3), cycle_graph(4)).value == 1


def test_maximal_h_packing_ratio_random():
    rng = random.Random(70)
    k3 = complete_graph(3, start=0)
    p3 = path_graph(3, start=0)
    for _ in range(120):
        g = gnp_graph(rng, rng.randint(1, 10), 0.4)
        for pattern in (k3, p3):
            kind = h_packing(pattern)
            sol = maximal_h_packing(g, pattern)
            assert is_feasible(kind, g, sol)
            assert pattern.n * sol.value >= brute_force_solve(kind, g).value


def test_maximal_h_packing_cap():
    with pytest.raises(ValueError):
        maximal_h_packing(path_graph(6), path_graph(5, start=0))
    with pytest.raises(ValueError):
        maximal_h_packing(path_graph(6), Graph([0, 1]))  # disconnected pattern


def test_clique_cover_trivial():
    assert clique_cover_trivial(complete_graph(3)).value == 3
    assert clique_cover_trivial(Graph()).value == 0


def _capped(value, k):
    return min(value, k + 1)


def test_kernels_one_safety_small():
    """Lifting an exact solution of the reduced instance is capped-ratio
    exact on the original, for every real kernel slot."""
    rng = random.Random(90)
    for _ in range(120):
        g = gnp_graph(rng, rng.randint(1, 10), 0.35)
        td = heuristic_td(g)
        width = td.width
        # vertex cover with the LP core kernel
        kern = vc_nt_kernel()
        opt = brute_force_solve(VC, g).value
        for budget in {opt, opt + 2, max(0, opt - 1)}:
            red = kern.reduce(g, budget)
            assert query_size(red) <= max(2 * budget, 2)
            lifted = lift_exact(kern.reduce(g, budget), VC)
            assert is_feasible(VC, g, lifted)
            assert _capped(lifted.value, budget) == _capped(opt, budget)
        # independent set kernel: budget is value + width
        kern = is_degeneracy_kernel()
        opt = brute_force_solve(IS, g).value
        budget = opt + width
        red = kern.reduce(g, budget)
        assert query_size(red) <= (budget + 1) ** 2
        lifted = lift_exact(red, IS)
        assert is_feasible(IS, g, lifted)
        assert _capped(lifted.value, budget) == _capped(opt, budget)
        # clique cover kernel
        kern = clique_cover_kernel()
        opt = brute_force_solve(CLIQUE_COVER, g).value
        budget = opt + width
        red = kern.reduce(g, budget)
        assert query_size(red) <= max(budget * (budget + 1), 1)
        lifted = lift_exact(red, CLIQUE_COVER)
        assert is_feasible(CLIQUE_COVER, g, lifted)
        assert _capped(lifted.value, budget) == _capped(opt, budget)


def test_vc_nt_kernel_over_budget_branch():
    g = complete_graph(6)  # OPT 5, LP 3
    kern = vc_nt_kernel()
    red = kern.reduce(g, 1)  # budget below the LP bound
    lifted = lift_exact(red, VC)
    assert is_feasible(VC, g, lifted)
    assert _capped(lifted.value, 1) == _capped(5, 1) == 2
