import math
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atk.errors import OracleRefused
from atk.generate import gen_partial_ktree
from atk.graph import Graph
from atk.oracles import (
    BRUTE_EDGE_CAP,
    BRUTE_VERTEX_CAP,
    Oracle,
    audited,
    brute_force_solve,
    exact_brute_oracle,
    exact_dp_oracle,
    lossy_wrap,
    td_dp_solve,
    trianglefree_ecc_oracle,
)
from atk.problems import (
    CLIQUE_COVER,
    CVC,
    ECC,
    EDS,
    ETP,
    FVS,
    IS,
    VC,
    Solution,
    h_packing,
    is_feasible,
    is_minimization,
)
from atk.treedecomp import heuristic_td, make_nice
from helpers import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    gnp_graph,
    path_graph,
    reference_max_etp,
    reference_min_clique_cover,
    reference_min_ecc,
    reference_min_eds,
    triangle_chain,
)

# ---------------------------------------------------------------------------
# Independent mini-oracles: plain subset enumeration, no branching tricks.
# ---------------------------------------------------------------------------


def subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def enum_min_vc(g: Graph) -> int:
    return min(
        len(s)
        for s in subsets(g.vertices)
        if all(u in s or v in s for u, v in g.edges())
    )


def enum_max_is(g: Graph) -> int:
    return max(
        len(s)
        for s in subsets(g.vertices)
        if not any(u in s and v in s for u, v in g.edges())
    )


def enum_min_ecc(g: Graph) -> int:
    if g.m == 0:
        return 0
    cliques = [
        frozenset(s)
        for s in subsets(g.vertices)
        if len(s) >= 2 and all(g.has_edge(a, b) for a, b in combinations(s, 2))
    ]
    best = g.m
    for fam in subsets(cliques):
        if len(fam) >= best:
            continue
        if all(any(u in c and v in c for c in fam) for u, v in g.edges()):
            best = len(fam)
    return best


def test_brute_vc_on_c5_matches_enumeration():
    g = cycle_graph(5)
    assert enum_min_vc(g) == 3
    assert brute_force_solve(VC, g).value == 3


def test_brute_is_on_edgeless():
    g = edgeless_graph(4)
    assert brute_force_solve(IS, g).value == 4


def test_brute_ecc_on_triangle_matches_enumeration():
    g = complete_graph(3)
    assert enum_min_ecc(g) == 1
    sol = brute_force_solve(ECC, g)
    assert sol.value == 1 and sol.payload == frozenset({frozenset({1, 2, 3})})


def test_brute_against_enumeration_random():
    rng = random.Random(17)
    for _ in range(60):
        g = gnp_graph(rng, rng.randint(1, 7), 0.4)
        assert brute_force_solve(VC, g).value == enum_min_vc(g)
        assert brute_force_solve(IS, g).value == enum_max_is(g)
        if g.m <= 8:
            assert brute_force_solve(ECC, g).value == enum_min_ecc(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, BRUTE_VERTEX_CAP - 4), st.floats(0.1, 1.0),
       st.booleans())
def test_the_two_searches_match_the_searches_they_replaced(seed, n, p, ktree):
    # ecc, cc and eds share one cover search, which must find the very
    # families their own searches found; etp runs the independent-set
    # search, which must find a packing as large as its own search did
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    g = gen_partial_ktree(n + k + 1, k, p, seed)[0] if ktree else gnp_graph(rng, n, p / 2)
    assert brute_force_solve(CLIQUE_COVER, g).payload == reference_min_clique_cover(g)
    assert brute_force_solve(EDS, g).payload == reference_min_eds(g)
    if g.m <= BRUTE_EDGE_CAP:
        assert brute_force_solve(ECC, g).payload == reference_min_ecc(g)
        packing = brute_force_solve(ETP, g)
        assert packing.value == len(reference_max_etp(g))
        assert is_feasible(ETP, g, packing)


def test_brute_solutions_feasible_across_kinds():
    rng = random.Random(23)
    hp = h_packing(complete_graph(3, start=0))
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(1, 9), 0.35)
        for kind in (VC, IS, FVS, EDS, ECC, CLIQUE_COVER, ETP, hp):
            sol = brute_force_solve(kind, g)
            assert is_feasible(kind, g, sol), kind.name


def test_brute_cvc_known_values():
    assert brute_force_solve(CVC, path_graph(4)).value == 2
    assert brute_force_solve(CVC, star_graph_local()).value == 1
    sol = brute_force_solve(CVC, Graph([1, 2, 3, 4], [(1, 2), (3, 4)]))
    assert sol.infeasible  # disconnected query: no-solution sentinel


def star_graph_local():
    return Graph(range(0, 7), [(0, i) for i in range(1, 7)])


def test_brute_etp_values():
    assert brute_force_solve(ETP, complete_graph(4)).value == 1
    assert brute_force_solve(ETP, triangle_chain(2)).value == 2
    bowtie = Graph(range(1, 6), [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert brute_force_solve(ETP, bowtie).value == 2


def test_brute_caps_refuse():
    with pytest.raises(OracleRefused):
        brute_force_solve(VC, edgeless_graph(19))
    with pytest.raises(OracleRefused):
        brute_force_solve(ETP, complete_graph(9))  # 36 edges > 30
    # ETP/ECC are edge-capped, not vertex-capped
    big_sparse = path_graph(25)
    assert brute_force_solve(ECC, big_sparse).value == 24


def test_td_dp_examples():
    p4 = path_graph(4)
    assert td_dp_solve(VC, p4, make_nice(p4, heuristic_td(p4))).value == 2
    c6 = cycle_graph(6)
    assert td_dp_solve(IS, c6, make_nice(c6, heuristic_td(c6))).value == 3
    empty = edgeless_graph(5)
    assert td_dp_solve(VC, empty, make_nice(empty, heuristic_td(empty))).value == 0


def test_td_dp_rejects_invalid_decomposition():
    g = path_graph(4)
    other = make_nice(path_graph(3), heuristic_td(path_graph(3)))
    with pytest.raises(ValueError):
        td_dp_solve(VC, g, other)
    with pytest.raises(ValueError):
        td_dp_solve(ECC, g, make_nice(g, heuristic_td(g)))


def test_dp_brute_equivalence_200_instances():
    rng = random.Random(99)
    for trial in range(200):
        g = gnp_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5]))
        ntd = make_nice(g, heuristic_td(g))
        for kind in (VC, IS):
            a = td_dp_solve(kind, g, ntd)
            b = brute_force_solve(kind, g)
            assert a.value == b.value, (trial, kind.name)
            assert is_feasible(kind, g, a)


def test_lossy_wrap_vc_padding_stays_feasible():
    g = path_graph(3)
    lossy = lossy_wrap(exact_brute_oracle(), 2.0)
    sol = lossy.solve(VC, g)
    assert is_feasible(VC, g, sol)
    assert sol.value <= 2 * brute_force_solve(VC, g).value


def test_lossy_identity_at_ratio_one():
    g = cycle_graph(6)
    lossy = lossy_wrap(exact_brute_oracle(), 1.0)
    assert lossy.solve(VC, g).value == brute_force_solve(VC, g).value


def test_lossy_is_truncation():
    g = edgeless_graph(4)
    lossy = lossy_wrap(exact_brute_oracle(), 2.0)
    sol = lossy.solve(IS, g)
    assert sol.value == 2 and is_feasible(IS, g, sol)


def test_lossy_ratio_contract_random():
    rng = random.Random(3)
    packings = [h_packing(pattern) for pattern in (
        complete_graph(2, start=0), complete_graph(3, start=0), path_graph(3, start=0))]
    kinds = [VC, IS, CVC, FVS, EDS, ETP, ECC, CLIQUE_COVER, *packings]
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(1, 9), 0.35)
        c = rng.choice([1.3, 1.5, 2.0])
        lossy = lossy_wrap(exact_brute_oracle(), c)
        for kind in kinds:
            opt = brute_force_solve(kind, g).value
            sol = lossy.solve(kind, g)
            if opt == math.inf:  # cvc on a disconnected graph: no answer to pad
                assert sol.infeasible
                continue
            assert is_feasible(kind, g, sol) or (opt == 0 and sol.value == 0)
            if is_minimization(kind):
                assert sol.value <= c * opt
            else:
                assert sol.value * c >= opt


def test_lossy_cvc_pads_next_to_the_cover():
    # vertex 1 is isolated: the first vertex outside the cover {3} is not next to it
    g = Graph([1, 2, 3, 4], [(2, 3), (3, 4)])
    inner = Oracle("stub", 1.0, math.inf, lambda kind, g, td: Solution.of_vertices({3}))
    sol = lossy_wrap(inner, 2.0).solve(CVC, g)
    assert sol.payload == {2, 3} and is_feasible(CVC, g, sol)


def test_lossy_rejects_bad_ratio():
    with pytest.raises(ValueError):
        lossy_wrap(exact_brute_oracle(), 0.5)
    with pytest.raises(ValueError):
        lossy_wrap(lossy_wrap(exact_brute_oracle(), 2.0), 1.5)


def test_audited_logging_and_reset():
    inner = exact_brute_oracle()
    oracle, audit = audited(inner)
    assert audit.call_count == 0 and audit.max_query_vertices == 0
    oracle.solve(VC, path_graph(5))
    oracle.solve(VC, path_graph(9))
    assert audit.call_count == 2
    assert audit.max_query_vertices == 9
    audit.reset()
    assert audit.call_count == 0


def test_audited_identical_payloads():
    rng = random.Random(8)
    inner = exact_brute_oracle()
    oracle, _ = audited(inner)
    for _ in range(30):
        g = gnp_graph(rng, rng.randint(1, 9), 0.4)
        kind = rng.choice([VC, IS, EDS, ETP])
        assert oracle.solve(kind, g).payload == inner.solve(kind, g).payload


def test_trianglefree_ecc_oracle():
    g = path_graph(6)
    sol = trianglefree_ecc_oracle().solve(ECC, g)
    assert sol.value == g.m and is_feasible(ECC, g, sol)
    with pytest.raises(OracleRefused):
        trianglefree_ecc_oracle().solve(ECC, complete_graph(3))


def test_dp_oracle_uses_heuristic_when_no_td():
    g = cycle_graph(8)
    sol = exact_dp_oracle().solve(VC, g)
    assert sol.value == 4


def test_dp_oracle_refuses_other_kinds_before_building_a_decomposition(monkeypatch):
    import atk.oracles as oracles

    def unexpected(g):
        raise AssertionError("decomposition built for a query the DP refuses")

    monkeypatch.setattr(oracles, "heuristic_td", unexpected)
    for kind in (ECC, CVC):
        with pytest.raises(ValueError, match="exact-dp supports vc and is only"):
            exact_dp_oracle().solve(kind, cycle_graph(8))
