"""Polynomial-time approximation and reduction subroutines.

These are the helpers the Turing kernels call internally: 2-approximations,
the half-integral LP reduction for vertex cover, greedy packings,
connectification for connected vertex cover, and the generic
reduce-and-lift kernel contract with its built-in instances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

from .graph import Graph
from .problems import CVC, FVS, Solution, h_packing, is_feasible, pattern_copies


# ---------------------------------------------------------------------------
# Matchings and matching-based 2-approximations
# ---------------------------------------------------------------------------


def greedy_matching(
    g: Graph, within: frozenset[int] | None = None
) -> tuple[int, frozenset[int], list[frozenset[int]]]:
    """Greedy maximal matching on g (restricted to ``within`` if given).

    Returns (cover_value, cover, matched_edges) where cover takes both
    endpoints of every matched edge.
    """
    matched: set[int] = set()
    edges: list[frozenset[int]] = []
    verts = g.vertices if within is None else sorted(within)
    for u in verts:
        if u in matched:
            continue
        for v in sorted(g.neighbors(u)):
            if v in matched:
                continue
            if within is not None and v not in within:
                continue
            matched.add(u)
            matched.add(v)
            edges.append(frozenset((u, v)))
            break
    return 2 * len(edges), frozenset(matched), edges


def vc_2approx(g: Graph, within=None) -> Solution:
    """Both endpoints of a greedy maximal matching of G[within] (all of g by
    default): a 2-approximate cover."""
    value, cover, _ = greedy_matching(g, within)
    return Solution(cover, value)


def eds_2approx(g: Graph, within=None) -> Solution:
    """A maximal matching of G[within], which edge-dominates every edge
    (ratio 2)."""
    return Solution.of_family(greedy_matching(g, within)[2])


# ---------------------------------------------------------------------------
# Half-integral vertex-cover LP via the bipartite double cover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NTPartition:
    """The {0, 1/2, 1} vertex classification of an optimal half-integral
    vertex-cover LP solution."""

    v0: frozenset[int]
    vhalf: frozenset[int]
    v1: frozenset[int]
    lp_value: Fraction


def _double_cover_matching(g: Graph) -> tuple[dict[int, int], dict[int, int]]:
    """Maximum matching of the bipartite double cover (left/right vertex copies).

    Each left copy is seeded with its lowest free right neighbour, and
    augmenting paths start only from the copies the seed left free: any
    maximum matching gives ``nt_reduce`` the same partition (Dulmage-Mendelsohn).
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    for u in g.vertices:
        if free := g.neighbors(u) - match_r.keys():
            match_l[u] = w = min(free)
            match_r[w] = u
    for u0 in g.vertices:
        if u0 in match_l:
            continue
        parent: dict[int, int] = {}  # right copy -> the left copy that reached it
        frames, end = [(u0, iter(sorted(g.neighbors(u0))))], None
        while frames and end is None:
            u, it = frames[-1]
            for w in it:
                if w not in parent:
                    break
            else:
                frames.pop()
                continue
            parent[w] = u
            if w in match_r:
                frames.append((match_r[w], iter(sorted(g.neighbors(match_r[w])))))
            else:
                end = w
        while end is not None:  # flip the augmenting path
            u = parent[end]
            match_l[u], match_r[end], end = end, u, match_l.get(u)
    return match_l, match_r


def nt_reduce(g: Graph) -> NTPartition:
    """Solve the vertex-cover LP exactly over half-integral assignments.

    Koenig's theorem on the bipartite double cover yields an optimal
    half-integral solution without a numeric LP solver: a vertex scores
    half for each of its two copies inside the minimum bipartite cover.
    """
    match_l, match_r = _double_cover_matching(g)
    # Alternating reachability from unmatched left copies.
    z_left = {u for u in g.vertices if u not in match_l}
    z_right: set[int] = set()
    queue = list(sorted(z_left))
    while queue:
        u = queue.pop()
        for w in g.neighbors(u):
            if w not in z_right:
                z_right.add(w)
                owner = match_r.get(w)
                if owner is not None and owner not in z_left:
                    z_left.add(owner)
                    queue.append(owner)
    cover_left = g.vertex_set - z_left
    cover_right = frozenset(z_right)
    counts = {v: (v in cover_left) + (v in cover_right) for v in g.vertices}
    return NTPartition(
        v0=frozenset(v for v, c in counts.items() if c == 0),
        vhalf=frozenset(v for v, c in counts.items() if c == 1),
        v1=frozenset(v for v, c in counts.items() if c == 2),
        lp_value=Fraction(len(cover_left) + len(cover_right), 2),
    )


# ---------------------------------------------------------------------------
# Degeneracy-greedy independent set
# ---------------------------------------------------------------------------


def _min_degree_order(g: Graph, within=None):
    """Yield a min-degree elimination order of G[within] (all of g by
    default), each vertex with its degree when picked. Each pick is the
    lowest (degree, id); a heap entry for an older degree is skipped."""
    within = g.vertex_set if within is None else within
    deg = {v: len(g.neighbors(v) & within) for v in within}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if deg.get(v) != d:
            continue
        yield v, d
        del deg[v]
        for w in g.neighbors(v):
            if w in deg:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))


def degeneracy_is(g: Graph, within=None) -> Solution:
    """Greedy independent set of G[within] (all of g by default) along a
    degeneracy order, generated as the picks go.

    For degeneracy d the result has at least |V|/(d+1) vertices: each pick
    discards at most d still-available neighbors.
    """
    removed: set[int] = set()
    picked: list[int] = []
    for v, _ in _min_degree_order(g, within):
        if v in removed:
            continue
        picked.append(v)
        removed.add(v)
        removed |= g.neighbors(v)
    return Solution.of_vertices(picked)


# ---------------------------------------------------------------------------
# Triangle packing
# ---------------------------------------------------------------------------


def greedy_triangle_packing(g: Graph, start: frozenset = frozenset()) -> Solution:
    """A maximal edge-disjoint triangle packing (ratio 3) that extends the
    edge-disjoint packing ``start`` by every triangle whose edges stay free."""
    fam = list(start)
    used = {frozenset(p) for tri in fam for p in combinations(tri, 2)}
    for a, b, c in g.triangles():
        e1, e2, e3 = frozenset((a, b)), frozenset((a, c)), frozenset((b, c))
        if e1 in used or e2 in used or e3 in used:
            continue
        used.update((e1, e2, e3))
        fam.append(frozenset((a, b, c)))
    return Solution.of_family(fam)


# ---------------------------------------------------------------------------
# Connected vertex cover helpers
# ---------------------------------------------------------------------------


def cvc_2approx(g: Graph) -> Solution:
    """Internal vertices of a DFS tree: a connected 2-approximate cover."""
    if g.m == 0:
        raise ValueError("cvc_2approx needs at least one edge")
    root = g.vertices[0]
    parent: dict[int, int | None] = {root: None}
    has_child: set[int] = set()
    frames = [(root, iter(sorted(g.neighbors(root))))]
    while frames:
        u, it = frames[-1]
        advanced = False
        for w in it:
            if w not in parent:
                parent[w] = u
                has_child.add(u)
                frames.append((w, iter(sorted(g.neighbors(w)))))
                advanced = True
                break
        if not advanced:
            frames.pop()
    if len(parent) < g.n:
        raise ValueError("cvc_2approx needs a connected graph")
    return Solution.of_vertices(has_child)


def connectify_vertex_cover(g: Graph, x: Iterable[int], s: Solution) -> Solution:
    """Lift a connected cover of the X-contracted graph back to g.

    Starting from (s minus the contraction vertex) plus X, repeatedly add
    the one vertex that merges two components along a shortest path. The
    result is a connected cover of size at most |s| + 2|X| containing X.
    """
    x = frozenset(x)
    if not x or not (x <= g.vertex_set):
        raise ValueError("X must be a nonempty subset of the vertices")
    if not g.is_connected():
        raise ValueError("connectify requires a connected graph")
    extra = s.payload - g.vertex_set
    if len(extra) > 1:
        raise ValueError("solution uses more than one vertex outside the graph")
    z = next(iter(extra)) if extra else max((*g.vertices, 0)) + 1
    gx = g.identify_vertices(x, z)
    if not is_feasible(CVC, gx, Solution.of_vertices(s.payload)):
        raise ValueError("not a connected vertex cover of the contracted graph")
    cover: set[int] = set(s.payload - {z}) | set(x)
    while True:
        comps = sorted(
            g.induced_subgraph(cover).connected_components(), key=min
        )
        if len(comps) <= 1:
            break
        a, b = min(comps[0]), min(comps[1])
        comp_a = comps[0]
        path = _shortest_path(g, a, b)
        for i in range(1, len(path)):
            if path[i] in cover and path[i] not in comp_a:
                cover.add(path[i - 1])
                break
    return Solution.of_vertices(cover)


def _shortest_path(g: Graph, a: int, b: int) -> list[int]:
    prev: dict[int, int | None] = {a: None}
    queue = [a]
    while queue:
        nxt: list[int] = []
        for u in queue:
            for w in sorted(g.neighbors(u)):
                if w not in prev:
                    prev[w] = u
                    if w == b:
                        path = [b]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        queue = nxt
    raise ValueError(f"no path between {a} and {b}")


# ---------------------------------------------------------------------------
# Feedback vertex set (local-ratio) and remaining phi-approximations
# ---------------------------------------------------------------------------


def fvs_2approx(g: Graph) -> Solution:
    """Local-ratio feedback vertex set: subtract degree-weighted layers,
    collect zero-weight vertices, then minimalize in reverse order."""
    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in g.vertices}
    weight: dict[int, Fraction] = {v: Fraction(1) for v in g.vertices}

    def clean() -> None:
        low = [v for v in adj if len(adj[v]) <= 1]
        while low:
            v = low.pop()
            if v not in adj or len(adj[v]) > 1:
                continue
            for w in adj[v]:
                adj[w].discard(v)
                if len(adj[w]) <= 1:
                    low.append(w)
            del adj[v]

    clean()
    picked_order: list[int] = []
    while adj:
        gamma = min(weight[v] / len(adj[v]) for v in adj)
        zeros: list[int] = []
        for v in sorted(adj):
            weight[v] -= gamma * len(adj[v])
            if weight[v] == 0:
                zeros.append(v)
        for v in zeros:
            for w in adj[v]:
                adj[w].discard(v)
            del adj[v]
        picked_order.extend(zeros)
        clean()
    chosen = set(picked_order)
    for v in reversed(picked_order):
        if is_feasible(FVS, g, Solution.of_vertices(chosen - {v})):
            chosen.discard(v)
    return Solution.of_vertices(chosen)


def maximal_h_packing(g: Graph, h: Graph) -> Solution:
    """A greedy maximal family of vertex-disjoint copies of a connected pattern
    of at most 4 vertices: one pass over its ``pattern_copies`` in order."""
    h_packing(h)  # rejects patterns that are empty, too large or disconnected
    used: set[int] = set()
    fam: list[frozenset[int]] = []
    for cs in pattern_copies(g, h):
        if not cs & used:
            fam.append(cs)
            used |= cs
    return Solution.of_family(fam)


def clique_cover_trivial(g: Graph) -> Solution:
    """The singleton cover; within factor (width+1) of optimal."""
    return Solution.of_family(frozenset([v]) for v in g.vertices)


# ---------------------------------------------------------------------------
# The reduce-and-lift kernel contract
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedInstance:
    """The reduced graph to query and the lift of its solution back to the
    input graph. With ``graph`` None the reducer already has the answer:
    nothing is queried and ``lift`` gets None."""

    graph: Graph | None
    lift: Callable[[Solution | None], Solution]


@dataclass(frozen=True)
class ApproximateKernel:
    """A reduction/solution-lifting pair with size bound h.

    ``size_fn(delta, budget)`` bounds the reduced vertex count.
    """

    size_fn: Callable[[float, float], float]
    reducer: Callable[[Graph, float], ReducedInstance]

    def reduce(self, g: Graph, budget: float) -> ReducedInstance:
        return self.reducer(g, budget)


def vc_nt_kernel() -> ApproximateKernel:
    """Vertex cover kernel with 2k vertices via the half-integral LP core.

    The query graph has at most 2*OPT vertices; its cover plus the
    LP-forced vertices is within the oracle's ratio of optimal.
    """

    def reducer(g: Graph, budget: float) -> ReducedInstance:
        nt = nt_reduce(g)
        if nt.lp_value > budget:
            # Optimum certified above budget: any over-budget answer is fine.
            full = Solution.of_vertices(g.vertex_set)
            return ReducedInstance(None, lambda _: full)
        core = g.induced_subgraph(nt.vhalf)
        if core.m == 0:  # the LP-forced vertices already cover g
            forced = Solution.of_vertices(nt.v1)
            return ReducedInstance(None, lambda _: forced)
        return ReducedInstance(core, lambda s: Solution.of_vertices(s.payload | nt.v1))

    return ApproximateKernel(lambda d, k: 2 * k, reducer)


def is_degeneracy_kernel() -> ApproximateKernel:
    """Independent set kernel with (m+1)^2 vertices, budget m = value + width.

    Larger graphs are guaranteed to hold an independent set of size m+1,
    which the reducer finds greedily without a query.
    """

    def reducer(g: Graph, budget: float) -> ReducedInstance:
        if g.n > (budget + 1) * (budget + 1):  # a product overflows to inf, ** raises
            sol = degeneracy_is(g)
            if sol.value >= int(budget) + 1:
                return ReducedInstance(None, lambda _: sol)
        return ReducedInstance(g, lambda s: s)

    return ApproximateKernel(lambda d, m: (m + 1) * (m + 1), reducer)


def clique_cover_kernel() -> ApproximateKernel:
    """Clique cover kernel with m(m+1) vertices, budget m = value + width."""

    def reducer(g: Graph, budget: float) -> ReducedInstance:
        if g.n > budget * (budget + 1):
            singletons = clique_cover_trivial(g)
            return ReducedInstance(None, lambda _: singletons)
        return ReducedInstance(g, lambda s: s)

    return ApproximateKernel(lambda d, m: m * (m + 1), reducer)
