"""Pluggable approximate solvers with ratio declarations and query auditing.

An oracle answers (kind, graph, decomposition) with a feasible solution
whose value is within its declared ratio of optimal. The decomposition is
None or a nice decomposition of the graph: the engines cut each query's
from the nice decomposition of their step, so no oracle re-makes it.
Exact reference oracles (exhaustive search; treewidth DP for VC/IS) and a
lossiness injector live here, together with the per-run audit that makes
query-size discipline observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .approx import greedy_matching
from .errors import InternalInvariantViolation, OracleRefused
from .graph import Graph
from .problems import ECC, ProblemKind, Solution, pattern_copies
from .treedecomp import NiceTreeDecomposition, heuristic_td, make_nice, validate

BRUTE_VERTEX_CAP = 18
BRUTE_EDGE_CAP = 30
# The treewidth DP keeps up to 2^(w+1) bag subsets per node: vc took 0.3 s and
# 110 MB at width 16, 6.7 s and 1.07 GB at width 23. Wider decompositions are
# refused before any table is built.
DP_WIDTH_CAP = 20


# ---------------------------------------------------------------------------
# Oracle plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRecord:
    problem: str
    n: int
    m: int


class OracleAudit:
    """Per-run log of every oracle query and the largest query seen."""

    def __init__(self):
        self.calls: list[QueryRecord] = []

    @property
    def call_count(self) -> int:
        return len(self.calls)

    @property
    def max_query_vertices(self) -> int:
        return max((r.n for r in self.calls), default=0)

    def reset(self) -> None:
        self.calls.clear()


class Oracle:
    """A named solver with a declared approximation ratio and size cap."""

    def __init__(self, name: str, declared_ratio: float, size_cap: float,
                 fn: Callable[[ProblemKind, Graph, object], Solution]):
        self.name = name
        self.declared_ratio = declared_ratio
        self.size_cap = size_cap
        self._fn = fn

    def solve(
        self, kind: ProblemKind, g: Graph, td: NiceTreeDecomposition | None = None
    ) -> Solution:
        """Answer the query on g; ``td`` is None or a nice decomposition of g."""
        return self._fn(kind, g, td)

    def __repr__(self) -> str:
        return f"Oracle({self.name!r}, c={self.declared_ratio})"


def audited(inner: Oracle) -> tuple[Oracle, OracleAudit]:
    """Forwarding wrapper that logs every call; payloads pass through untouched."""
    audit = OracleAudit()

    def fn(kind, g, td):
        audit.calls.append(QueryRecord(kind.name, g.n, g.m))
        return inner.solve(kind, g, td)

    return Oracle(f"audited({inner.name})", inner.declared_ratio, inner.size_cap, fn), audit


# ---------------------------------------------------------------------------
# Exhaustive exact solvers
# ---------------------------------------------------------------------------


def _bit_adjacency(g: Graph) -> tuple[tuple[int, ...], list[int]]:
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    nbr = [0] * len(verts)
    for u, v in g.edges():
        nbr[pos[u]] |= 1 << pos[v]
        nbr[pos[v]] |= 1 << pos[u]
    return verts, nbr


def _max_independent_set(g: Graph) -> frozenset[int]:
    verts, nbr = _bit_adjacency(g)
    n = len(verts)
    best_mask = 0
    best_size = 0
    stack = [((1 << n) - 1, 0, 0)]  # (avail, cur_mask, cur_size); the branch searched next on top
    while stack:
        avail, cur_mask, cur_size = stack.pop()
        if cur_size + avail.bit_count() <= best_size:
            continue
        if avail == 0:
            best_mask, best_size = cur_mask, cur_size
            continue
        # Degree-<=1 closure: remaining graph is a partial matching.
        max_v, max_deg = -1, -1
        bits = avail
        while bits:
            b = bits & -bits
            i = b.bit_length() - 1
            bits ^= b
            d = (nbr[i] & avail).bit_count()
            if d > max_deg:
                max_v, max_deg = i, d
        if max_deg <= 1:
            mask, size, rest = cur_mask, cur_size, avail
            while rest:
                b = rest & -rest
                i = b.bit_length() - 1
                mask |= b
                size += 1
                rest &= ~(b | (nbr[i] & avail))
            if size > best_size:
                best_mask, best_size = mask, size
            continue
        v_bit = 1 << max_v
        stack.append((avail & ~v_bit, cur_mask, cur_size))
        stack.append((avail & ~(v_bit | nbr[max_v]), cur_mask | v_bit, cur_size + 1))
    return frozenset(verts[i] for i in range(n) if best_mask >> i & 1)


def _min_connected_vertex_cover(g: Graph) -> Solution:
    if len(g.connected_components()) > 1:
        return Solution.no_solution()
    if g.m == 0:
        return Solution.of_vertices(())
    verts, nbr = _bit_adjacency(g)
    n = len(verts)
    full = (1 << n) - 1
    best: list = [None, n + 1]

    def connected(mask: int) -> bool:
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            grow = 0
            bits = frontier
            while bits:
                b = bits & -bits
                bits ^= b
                grow |= nbr[b.bit_length() - 1]
            frontier = grow & mask & ~seen
            seen |= frontier
        return seen == mask

    stack = [(full, 0, 0)]  # (avail, picked, picked_count); the branch searched next on top
    while stack:
        avail, picked, picked_count = stack.pop()
        cover_floor = n - picked_count - avail.bit_count()
        if cover_floor >= best[1]:
            continue
        if avail == 0:
            cover = full & ~picked
            if cover.bit_count() < best[1] and connected(cover):
                best[0], best[1] = cover, cover.bit_count()
            continue
        b = avail & -avail
        i = b.bit_length() - 1
        stack.append((avail & ~b, picked, picked_count))
        stack.append((avail & ~(b | nbr[i]), picked | b, picked_count + 1))
    if best[0] is None:
        return Solution.no_solution()
    return Solution.of_vertices(verts[i] for i in range(n) if best[0] >> i & 1)


def _find_cycle(adj: dict[int, set[int]]) -> list[int] | None:
    """Some cycle's vertex list, or None. Undirected DFS: any non-parent edge
    back to a discovered vertex closes a cycle through ancestors."""
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        parent: dict[int, int | None] = {start: None}
        visited.add(start)
        frames = [(start, iter(sorted(adj[start])))]
        while frames:
            u, it = frames[-1]
            advanced = False
            for w in it:
                if w == parent[u]:
                    continue
                if w in parent:
                    cyc = [u]
                    x = u
                    while x != w:
                        x = parent[x]
                        cyc.append(x)
                    return cyc
                parent[w] = u
                visited.add(w)
                frames.append((w, iter(sorted(adj[w]))))
                advanced = True
                break
            if not advanced:
                frames.pop()
    return None


def _min_fvs(g: Graph) -> frozenset[int]:
    best: list = [None, g.n + 1]
    stack = [({v: set(g.neighbors(v)) for v in g.vertices}, frozenset())]
    while stack:  # depth first, the next branch on top
        adj, removed = stack.pop()
        if len(removed) >= best[1]:
            continue
        cyc = _find_cycle(adj)
        if cyc is None:
            best[0], best[1] = removed, len(removed)
            continue
        for v in sorted(cyc, reverse=True):
            stack.append(({u: ns - {v} for u, ns in adj.items() if u != v}, removed | {v}))
    return best[0]


def _maximal_cliques(g: Graph) -> list[frozenset[int]]:
    out: list[frozenset[int]] = []
    stack = [(set(), set(g.vertices), set())]
    while stack:  # Bron-Kerbosch with pivoting; each branch gets its own r, p and x
        r, p, x = stack.pop()
        if not p and not x:
            out.append(frozenset(r))
            continue
        pivot_pool = p | x
        pivot = max(sorted(pivot_pool), key=lambda u: len(g.neighbors(u) & p))
        for v in sorted(p - g.neighbors(pivot)):
            stack.append((r | {v}, p & g.neighbors(v), x & g.neighbors(v)))
            p.discard(v)
            x.add(v)
    return sorted(out, key=lambda c: tuple(sorted(c)))


def _min_cover(n_items: int, cands: list[list[tuple[object, int]]], start: frozenset) -> frozenset:
    """The fewest covers that together hold items 0 .. n_items - 1, or
    ``start`` where none are fewer: depth first over bitmasks of covered
    items, each branch adding one ``(cover, mask of the items it holds)``
    of ``cands[i]``, in list order, for the lowest uncovered item i."""
    full = (1 << n_items) - 1
    best, best_size = start, len(start)
    stack: list[tuple[int, tuple]] = [(0, ())]
    while stack:  # depth first, the next branch on top
        covered, chosen = stack.pop()
        if len(chosen) >= best_size:
            continue
        if covered == full:
            best, best_size = frozenset(chosen), len(chosen)
            continue
        target = (~covered & (covered + 1)).bit_length() - 1
        stack.extend((covered | mask, chosen + (c,)) for c, mask in reversed(cands[target]))
    return best


def _min_clique_cover(g: Graph, of_edges: bool) -> Solution:
    """The fewest maximal cliques that cover every edge (``of_edges``) or
    every vertex, or each edge or vertex as its own clique where none are
    fewer."""
    items = [frozenset(e) for e in g.edges()] if of_edges else [frozenset([v]) for v in g.vertices]
    cands: list[list[tuple[object, int]]] = [[] for _ in items]
    for c in _maximal_cliques(g):  # an isolated vertex's clique holds no edge: no ecc candidate
        held = [i for i, x in enumerate(items) if x <= c]
        mask = sum(1 << i for i in held)
        for i in held:
            cands[i].append((c, mask))
    return Solution.of_family(_min_cover(len(items), cands, frozenset(items)))


def _edge_dominators(g: Graph) -> list[list[tuple[frozenset[int], int]]]:
    """Per edge uv, in ``g.edges()`` order, the edges that share an
    endpoint with it (those at u, then the rest of those at v), each with
    the mask of the edges it shares an endpoint with."""
    edges = list(g.edges())
    at: dict[int, list[int]] = {v: [] for v in g.vertices}  # vertex -> its edges' indices
    for i, e in enumerate(edges):
        for v in e:
            at[v].append(i)
    inc = {v: sum(1 << i for i in ids) for v, ids in at.items()}
    dom = [(frozenset(e), inc[e[0]] | inc[e[1]]) for e in edges]
    return [[dom[j] for j in at[u] + [j for j in at[v] if j != i]]
            for i, (u, v) in enumerate(edges)]


def _triangle_packing(g: Graph) -> Solution:
    """The most edge-disjoint triangles: a maximum independent set of the
    graph on the triangles that joins two sharing an edge."""
    tris = list(g.triangles())
    by_edge: dict[tuple[int, int], list[int]] = {}
    for i, (a, b, c) in enumerate(tris):
        for e in ((a, b), (a, c), (b, c)):
            by_edge.setdefault(e, []).append(i)
    pairs = (p for ids in by_edge.values() for p in combinations(ids, 2))
    conflicts = Graph(range(len(tris)), pairs)
    return Solution.of_family(frozenset(tris[i]) for i in _max_independent_set(conflicts))


def _max_hpacking(g: Graph, pattern: Graph) -> frozenset[frozenset[int]]:
    """The most vertex-disjoint ``pattern_copies``: each vertex in order is left
    out or covered by one of its copies, until too few free vertices remain."""
    k = pattern.n
    by_vertex: dict[int, list[frozenset[int]]] = {v: [] for v in g.vertices}
    for c in pattern_copies(g, pattern):
        for v in c:
            by_vertex[v].append(c)
    order = g.vertices
    best: list = [frozenset(), 0]
    stack: list[tuple[int, frozenset[int], tuple]] = [(0, frozenset(), ())]
    while stack:  # depth first, the next branch on top
        pos, used, chosen = stack.pop()
        free_after = sum(1 for v in order[pos:] if v not in used)
        if len(chosen) + free_after // k <= best[1]:
            continue
        i = pos
        while i < len(order) and order[i] in used:
            i += 1
        if i == len(order):
            if len(chosen) > best[1]:
                best[0], best[1] = frozenset(chosen), len(chosen)
            continue
        v = order[i]
        stack.append((i + 1, used | {v}, chosen))
        stack.extend((i + 1, used | c, chosen + (c,))
                     for c in reversed(by_vertex[v]) if not (c & used))
    return best[0]


# Kind name -> (its exhaustive search, whether its cap counts edges): the one place a name picks.
SEARCHES: dict[str, tuple[Callable[[ProblemKind, Graph], Solution], bool]] = {
    "vc": (lambda kind, g: Solution.of_vertices(g.vertex_set - _max_independent_set(g)), False),
    "is": (lambda kind, g: Solution.of_vertices(_max_independent_set(g)), False),
    "cvc": (lambda kind, g: _min_connected_vertex_cover(g), False),
    "fvs": (lambda kind, g: Solution.of_vertices(_min_fvs(g)), False),
    "eds": (lambda kind, g: Solution.of_family(
        _min_cover(g.m, _edge_dominators(g), frozenset(greedy_matching(g)[2]))), False),
    "ecc": (lambda kind, g: _min_clique_cover(g, True), True),
    "cc": (lambda kind, g: _min_clique_cover(g, False), False),
    "etp": (lambda kind, g: _triangle_packing(g), True),
    "hpack": (lambda kind, g: Solution.of_family(_max_hpacking(g, kind.pattern)), False),
}


def brute_force_solve(kind: ProblemKind, g: Graph) -> Solution:
    """Exact optimum by exhaustive search, refusing over-cap instances.

    A refused engine query broke the engine's size bound, except where the
    caller catches the refusal by design: ``kernels.solve_etp_small`` falls
    back to its 3-approximation, and ``cli.compute_opt`` reports no optimum.
    """
    search, by_edges = SEARCHES[kind.name]
    size, unit, cap = (g.m, "edges", BRUTE_EDGE_CAP) if by_edges else (
        g.n, "vertices", BRUTE_VERTEX_CAP)
    if size > cap:
        raise OracleRefused(f"{kind.name} query with {size} {unit} exceeds cap {cap}")
    return search(kind, g)


# ---------------------------------------------------------------------------
# Treewidth dynamic programming (exact VC / IS)
# ---------------------------------------------------------------------------


def td_dp_solve(kind: ProblemKind, g: Graph, ntd: NiceTreeDecomposition) -> Solution:
    """Exact VC/IS via dynamic programming over bag subsets.

    Runtime is exponential only in the decomposition width, which makes
    exact optima reachable at full-scale thresholds in tests; a
    decomposition wider than ``DP_WIDTH_CAP`` is refused.
    """
    if not kind.record.exact_dp:
        raise ValueError("treewidth DP supports vc and is only")
    if ntd.width > DP_WIDTH_CAP:
        raise OracleRefused(f"{kind.name} query of width {ntd.width} exceeds cap {DP_WIDTH_CAP}")
    order, bad = ntd.checked_postorder()
    if bad:
        raise ValueError("not a nice tree decomposition: " + "; ".join(bad))
    report = validate(g, ntd)
    if not report.valid:
        raise ValueError("invalid tree decomposition: " + "; ".join(report.violations()))
    maximize = not kind.record.minimize
    tables: list[dict[frozenset[int], int]] = [dict() for _ in range(ntd.n_nodes)]
    forget_choice: list[dict[frozenset[int], frozenset[int]]] = [dict() for _ in range(ntd.n_nodes)]
    children, pivots, bags = ntd.children, ntd.pivots, ntd.bags
    for t in order:
        kids = children[t]
        if not kids:
            tables[t] = {frozenset(): 0}
        elif len(kids) == 2:
            c1, c2 = kids
            tab = {}
            t2 = tables[c2]
            for mask, val in tables[c1].items():
                other = t2.get(mask)
                if other is not None:
                    tab[mask] = val + other - len(mask)
            tables[t] = tab
        elif (v := pivots[t]) in bags[t]:  # an introduce
            c = kids[0]
            nv = g.neighbors(v) & bags[c]
            tab: dict[frozenset[int], int] = {}
            for mask, val in tables[c].items():
                # v excluded: fine for IS; for VC its bag edges need cover.
                if maximize or nv <= mask:
                    tab[mask] = val
                # v included: fine for VC; for IS no chosen neighbor allowed.
                if not maximize or not (nv & mask):
                    tab[mask | {v}] = val + 1
            tables[t] = tab
            tables[c] = None  # free
        else:  # a forget
            c = kids[0]
            tab = {}
            choice = {}
            for mask, val in tables[c].items():
                key = mask - {v}
                cur = tab.get(key)
                if cur is None or (val > cur if maximize else val < cur):
                    tab[key] = val
                    choice[key] = mask
            tables[t] = tab
            forget_choice[t] = choice
            tables[c] = None
    root_table = tables[ntd.root]
    value = root_table[frozenset()]
    # Traceback: the union of chosen bag subsets along consistent masks.
    picked: set[int] = set()
    stack: list[tuple[int, frozenset[int]]] = [(ntd.root, frozenset())]
    while stack:
        t, mask = stack.pop()
        picked |= mask
        kids = children[t]
        if len(kids) == 2:
            stack.append((kids[0], mask))
            stack.append((kids[1], mask))
        elif kids:  # an introduce drops its pivot, a forget takes its recorded choice
            v = pivots[t]
            stack.append((kids[0], mask - {v} if v in bags[t] else forget_choice[t][mask]))
    sol = Solution.of_vertices(picked)
    if sol.value != value:
        raise InternalInvariantViolation("DP traceback value mismatch")
    return sol


# ---------------------------------------------------------------------------
# Lossiness injection
# ---------------------------------------------------------------------------


def lossy_wrap(inner: Oracle, target_c: float) -> Oracle:
    """Degrade an oracle to ratio ``target_c`` while staying feasible.

    Minimization solutions are padded up to floor(target_c * value), each
    time with the first extra of the kind's record that they lack;
    maximization solutions are truncated to ceil(value / target_c).
    """
    if not math.isfinite(target_c):
        raise ValueError("target ratio must be finite")
    if target_c < 1:
        raise ValueError("target ratio must be at least 1")
    if target_c < inner.declared_ratio:
        raise ValueError("cannot tighten an oracle's declared ratio")

    def fn(kind, g, td):
        sol = inner.solve(kind, g, td)
        if sol.infeasible:
            return sol
        record = kind.record
        if not record.minimize:
            kept = sorted(sol.payload, key=sorted if record.family else None)
            kept = kept[:math.ceil(sol.value / target_c)]
            return Solution(frozenset(kept), len(kept))
        payload = set(sol.payload)
        while len(payload) + 1 <= target_c * sol.value:  # no floor(): c * value may be inf
            extra = next((x for x in record.pad(g, payload) if x not in payload), None)
            if extra is None:
                break
            payload.add(extra)
        return Solution(frozenset(payload), len(payload))

    return Oracle(f"lossy({target_c}, {inner.name})", target_c, inner.size_cap, fn)


# ---------------------------------------------------------------------------
# Named oracle constructors
# ---------------------------------------------------------------------------


def exact_brute_oracle() -> Oracle:
    return Oracle("exact-bf", 1.0, BRUTE_VERTEX_CAP, lambda kind, g, td: brute_force_solve(kind, g))


def exact_dp_oracle() -> Oracle:
    def fn(kind, g, td):
        if not kind.record.exact_dp:  # refuse before building a decomposition
            raise ValueError("exact-dp supports vc and is only")
        return td_dp_solve(kind, g, td if td is not None else make_nice(g, heuristic_td(g)))

    return Oracle("exact-dp", 1.0, math.inf, fn)


def trianglefree_ecc_oracle() -> Oracle:
    """Exact ECC for triangle-free graphs: every edge is its own clique."""

    def fn(kind, g, td):
        if kind != ECC:
            raise ValueError("this oracle answers ecc only")
        for u, v in g.edges():
            if g.neighbors(u) & g.neighbors(v):
                raise OracleRefused("query graph contains a triangle")
        return Solution.of_family(frozenset((u, v)) for u, v in g.edges())

    return Oracle("exact-tf-ecc", 1.0, math.inf, fn)
