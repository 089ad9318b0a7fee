"""Shared graph factories and seeded random instances for the tests."""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from atk.errors import InternalInvariantViolation
from atk.graph import Graph, _reach
from atk.approx import greedy_matching, greedy_triangle_packing
from atk.kernels import (
    KernelConfig,
    _drive,
    _query,
    solve_etp_small,
)
from atk.oracles import Oracle, _maximal_cliques, brute_force_solve
from atk.problems import ECC, ETP, Solution, is_minimization
from atk.treedecomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    ValidationReport,
    _preorder,
    _shrink,
    descend,
    validate,
)


def path_graph(n: int, start: int = 1) -> Graph:
    vs = list(range(start, start + n))
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int, start: int = 1) -> Graph:
    vs = list(range(start, start + n))
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return Graph(vs, edges)


def complete_graph(n: int, start: int = 1) -> Graph:
    vs = list(range(start, start + n))
    return Graph(vs, list(combinations(vs, 2)))


def star_graph(leaves: int, center: int = 0) -> Graph:
    vs = [center] + list(range(center + 1, center + leaves + 1))
    return Graph(vs, [(center, v) for v in vs[1:]])


def edgeless_graph(n: int, start: int = 1) -> Graph:
    return Graph(range(start, start + n))


def gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph(range(1, n + 1), edges)


def connected_gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) plus a random spanning tree, so it is always connected."""
    edges = {(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p}
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    return Graph(range(1, n + 1), sorted(edges))


def triangle_chain(count: int) -> Graph:
    """Edge-disjoint triangles sharing one vertex with the next."""
    edges = []
    vs = set()
    for i in range(count):
        a, b, c = 2 * i + 1, 2 * i + 2, 2 * i + 3
        edges += [(a, b), (b, c), (a, c)]
        vs |= {a, b, c}
    return Graph(sorted(vs), edges)


def restricted(td: TreeDecomposition, keep: frozenset[int]) -> TreeDecomposition:
    """``td`` with every bag cut down to ``keep``: a plain decomposition of G[keep]."""
    return TreeDecomposition({t: b & keep for t, b in td.bags.items()}, td.tree_edges, root=td.root)


def node_kind(ntd: NiceTreeDecomposition, t: int) -> str:
    """The kind of node t, read from its shape: a leaf has no child, a join
    two, and a one-child node introduces its pivot when the pivot is in its
    own bag and forgets it otherwise."""
    kids = ntd.children[t]
    if len(kids) != 1:
        return "join" if kids else "leaf"
    return "introduce" if ntd.pivots[t] in ntd.bags[t] else "forget"


class _NiceBuilder:
    """The node-at-a-time nice tree builder, kept as the reference for the
    build loops of ``make_nice`` and ``NiceTreeDecomposition.restrict``. It
    labels every node with the kind it means to build; ``tree`` hands the
    labels on as the tree's ``labels``, for tests to check against the
    kinds the shape gives."""

    def __init__(self):
        self.bags: list[frozenset[int]] = []
        self.labels: list[str] = []
        self.pivots: list[int | None] = []
        self.children: list[tuple[int, ...]] = []

    def add(self, bag: frozenset[int], kind: str, pivot: int | None = None,
            children: tuple[int, ...] = ()) -> int:
        self.bags.append(bag)
        self.labels.append(kind)
        self.pivots.append(pivot)
        self.children.append(children)
        return len(self.bags) - 1

    def chain_up(self, node: int, target: frozenset[int]) -> int:
        """Grow a node chain from ``node`` upward until its bag equals ``target``."""
        cur = node
        bag = self.bags[cur]
        for v in sorted(bag - target):
            cur = self.add(bag - {v}, "forget", v, (cur,))
            bag = self.bags[cur]
        for v in sorted(target - bag):
            cur = self.add(bag | {v}, "introduce", v, (cur,))
            bag = self.bags[cur]
        return cur

    def leaf_chain(self, target: frozenset[int]) -> int:
        cur = self.add(frozenset(), "leaf")
        return self.chain_up(cur, target)

    def tree(self, root: int) -> NiceTreeDecomposition:
        ntd = NiceTreeDecomposition(self.bags, self.pivots, self.children, root)
        ntd.labels = self.labels
        return ntd


def reference_make_nice(g: Graph, td: TreeDecomposition) -> NiceTreeDecomposition:
    """``make_nice`` built one ``_NiceBuilder.add`` call per node, kept as its
    reference: it must give the same tree, node ids included."""
    report = validate(g, td)
    if not report.valid:
        raise ValueError("invalid tree decomposition: " + "; ".join(report.violations()))
    bags, adj = _shrink(td)
    root = min(bags)
    builder = _NiceBuilder()
    parent: dict[int, int | None] = {root: None}
    dfs_order = [root]
    stack = [root]
    while stack:
        t = stack.pop()
        for s in sorted(adj[t], reverse=True):
            if s != parent[t]:
                parent[s] = t
                dfs_order.append(s)
                stack.append(s)
    tops: dict[int, int] = {}
    for t in reversed(dfs_order):
        kids = sorted(s for s in adj[t] if s != parent[t])
        bag = bags[t]
        if not kids:
            tops[t] = builder.leaf_chain(bag)
            continue
        lifted = [builder.chain_up(tops[c], bag) for c in kids]
        while len(lifted) > 1:
            right = lifted.pop()
            left = lifted.pop()
            lifted.append(builder.add(bag, "join", None, (left, right)))
        tops[t] = lifted[0]
    top = builder.chain_up(tops[root], frozenset())
    return builder.tree(top)


def reference_restrict(ntd: NiceTreeDecomposition, keep, t: int | None = None,
                       taken: set[int] | None = None) -> NiceTreeDecomposition:
    """The bag-intersection cut, kept as the reference for
    ``NiceTreeDecomposition.restrict``: the subtree of ``t`` (default: the
    root) without the subtrees of the nodes in ``taken``, with every bag
    cut down to ``keep``. A node whose cut bag equals its
    child's is skipped, a subtree holding no vertex of ``keep`` adds no
    node, a node left without children grows from a leaf chain, and the
    top forgets up to an empty root."""
    start = ntd.root if t is None else t
    skip = () if taken is None else taken
    order = []  # parents before children
    stack = [start]
    while stack:
        s = stack.pop()
        order.append(s)
        stack.extend(c for c in ntd.children[s] if c not in skip)
    out = _NiceBuilder()
    top: dict[int, int | None] = {}  # node -> its cut subtree's top, if any
    for s in reversed(order):
        bag = ntd.bags[s] & keep
        kids = [top[c] for c in ntd.children[s] if top.get(c) is not None]
        if not kids:
            top[s] = out.leaf_chain(bag) if bag else None
        elif len(kids) == 2:
            top[s] = out.add(bag, "join", None, tuple(kids))
        elif out.bags[kids[0]] == bag:
            top[s] = kids[0]
        else:
            top[s] = out.add(bag, node_kind(ntd, s), ntd.pivots[s], (kids[0],))
    root = top[start]
    root = out.leaf_chain(frozenset()) if root is None else out.chain_up(root, frozenset())
    return out.tree(root)


def reference_restrict_walk(ntd: NiceTreeDecomposition, parts: list[frozenset[int]],
                            t: int | None = None,
                            taken: set[int] | None = None) -> list[NiceTreeDecomposition]:
    """The multi-part walk that built a list of its children's maps at every
    node, kept as the reference for ``NiceTreeDecomposition.restrict``: it
    must give the same trees, node ids included."""
    start = ntd.root if t is None else t
    skip = () if taken is None else taken
    order = []  # parents before children
    stack = [start]
    while stack:
        s = stack.pop()
        order.append(s)
        stack.extend(c for c in ntd.children[s] if c not in skip)
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    out = [_NiceBuilder() for _ in parts]
    pending: dict[int, dict[int, int]] = {}  # node -> {part: its top}
    for s in reversed(order):
        kids = ntd.children[s]
        below = [pending.pop(c) for c in kids if c in pending]
        tops = below[0] if below else {}
        if len(below) == 2:
            big = len(below[0]) >= len(below[1])
            tops, other = below if big else below[::-1]
            for i, top in other.items():
                if i in tops:
                    pair = (tops[i], top) if big else (top, tops[i])
                    top = out[i].add(out[i].bags[top], "join", None, pair)
                tops[i] = top
        if len(below) < len(kids) or not kids:  # the cut bag grows from a leaf
            for v in ntd.bags[s]:
                if (i := part_of.get(v)) is not None and i not in tops:
                    tops[i] = out[i].leaf_chain(ntd.bags[s] & parts[i])
        elif (i := part_of.get(ntd.pivots[s])) is not None:
            b, v, top = out[i], ntd.pivots[s], tops.get(i)
            if top is None:
                tops[i] = b.leaf_chain(frozenset((v,)))
            else:  # an introduce adds v, a forget drops it
                tops[i] = b.add(b.bags[top] ^ {v}, node_kind(ntd, s), v, (top,))
        pending[s] = tops
    tops, trees = pending[start], []
    for i, b in enumerate(out):
        root = b.chain_up(tops[i], frozenset()) if i in tops else b.leaf_chain(frozenset())
        trees.append(b.tree(root))
    return trees


def reference_validate(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """The BFS-per-trace validation, kept as the reference for ``validate``."""
    occurs: dict[int, list[int]] = {}
    foreign: set[int] = set()
    for t in td.nodes:
        for v in td.bags[t]:
            if not g.has_vertex(v):
                foreign.add(v)
            occurs.setdefault(v, []).append(t)
    uncovered_vertices = tuple(v for v in g.vertices if v not in occurs)
    uncovered_edges = tuple(
        (u, v)
        for u, v in g.edges()
        if u in occurs and v in occurs and not (set(occurs[u]) & set(occurs[v]))
    ) + tuple((u, v) for u, v in g.edges() if u not in occurs or v not in occurs)
    broken = []
    for v in sorted(occurs):
        nodes = set(occurs[v])
        if len(_reach(td.tree_adj.__getitem__, occurs[v][0], nodes)) != len(nodes):
            broken.append(v)
    return ValidationReport(
        uncovered_vertices=uncovered_vertices,
        uncovered_edges=tuple(sorted(set(uncovered_edges))),
        broken_traces=tuple(broken),
        foreign_bag_vertices=tuple(sorted(foreign)),
        width=td.width,
    )


def reference_subtree_vertices(
    td: TreeDecomposition,
) -> tuple[dict[int, tuple[int, ...]], dict[int, frozenset[int]]]:
    """Children (ascending) and V_t of every node of a rooted decomposition,
    recomputed from its bags; kept as the reference for the children and
    vsets of ``treedecomp.SubconnectedDecomposition``."""
    parent = td.parents()
    root = next(iter(parent))
    children: dict[int, list[int]] = {t: [] for t in td.bags}
    for s, p in parent.items():
        if p is not None:
            children[p].append(s)
    kids = {t: tuple(sorted(c)) for t, c in children.items()}
    vsets: dict[int, frozenset[int]] = {}
    for t in reversed(_preorder(kids, root)):
        acc = set(td.bags[t])
        for c in kids[t]:
            acc |= vsets[c]
        vsets[t] = frozenset(acc)
    return kids, vsets


def reference_cut_and_contract(sc: TreeDecomposition, t: int, z: int) -> TreeDecomposition:
    """``sc`` less the nodes strictly below t, with X_t contracted to z, built
    as a new decomposition; kept as the reference for
    ``SubconnectedDecomposition.cut``."""
    children, _ = reference_subtree_vertices(sc)
    below = set(_preorder(children, t)[1:])
    x_t = sc.bags[t]
    bags = {s: (b - x_t) | {z} if b & x_t else b for s, b in sc.bags.items() if s not in below}
    edges = [(a, b) for a, b in sc.tree_edges if a in bags and b in bags]
    return TreeDecomposition(bags, edges, root=sc.root)


def query_size(red) -> int:
    """Vertices a reduced instance puts to the oracle; 0 when the kernel
    already has the answer."""
    return 0 if red.graph is None else red.graph.n


def lift_exact(red, kind) -> Solution:
    """Lift an exact answer on the reduced graph, or None when nothing is
    queried."""
    return red.lift(None if red.graph is None else brute_force_solve(kind, red.graph))


def reference_ecc_feasible(g: Graph, payload) -> bool:
    """The edge-against-every-clique ECC check, O(m * |payload|), kept as
    the reference for ``is_feasible``."""
    for c in payload:
        if not c or not all(g.has_vertex(v) for v in c):
            return False
        if not all(g.has_edge(u, v) for u, v in combinations(sorted(c), 2)):
            return False
    return all(any(u in c and v in c for c in payload) for u, v in g.edges())


def reference_cc_feasible(g: Graph, payload) -> bool:
    """The pair-by-pair clique cover check, kept as the reference for
    ``is_feasible``: every member is a clique of g, every vertex is in one."""
    for c in payload:
        if not c or not all(g.has_vertex(v) for v in c):
            return False
        if not all(g.has_edge(u, v) for u, v in combinations(sorted(c), 2)):
            return False
    return all(any(v in c for c in payload) for v in g.vertices)


def reference_vc_feasible(g: Graph, payload) -> bool:
    """The edge-by-edge vertex cover check over ``g.edges()``, kept as the
    reference for ``is_feasible``."""
    if not all(isinstance(v, int) and g.has_vertex(v) for v in payload):
        return False
    return all(u in payload or v in payload for u, v in g.edges())


def reference_is_feasible(g: Graph, payload) -> bool:
    """The edge-by-edge independent set check over ``g.edges()``, kept as
    the reference for ``is_feasible``."""
    if not all(isinstance(v, int) and g.has_vertex(v) for v in payload):
        return False
    return not any(u in payload and v in payload for u, v in g.edges())


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges())
    return out


def reference_cvc_feasible(g: Graph, payload) -> bool:
    """A vertex cover whose induced graph networkx finds connected, kept as
    the reference for ``is_feasible``."""
    if not reference_vc_feasible(g, payload):
        return False
    return not payload or nx.is_connected(to_networkx(g).subgraph(payload))


def reference_fvs_feasible(g: Graph, payload) -> bool:
    """Vertices of g whose removal leaves what networkx calls a forest, kept
    as the reference for ``is_feasible``."""
    if not all(isinstance(v, int) and g.has_vertex(v) for v in payload):
        return False
    rest = to_networkx(g)
    rest.remove_nodes_from(payload)
    return rest.number_of_nodes() == 0 or nx.is_forest(rest)  # networkx has no empty forest


def reference_eds_feasible(g: Graph, payload) -> bool:
    """Edges of g, every edge of g touching one of them, checked on the
    networkx graph, kept as the reference for ``is_feasible``."""
    nxg = to_networkx(g)
    if not all(len(e) == 2 and nxg.has_edge(*e) for e in payload):
        return False
    return all(any(u in e or v in e for e in payload) for u, v in nxg.edges())


def reference_etp_feasible(g: Graph, payload) -> bool:
    """Triangles of g, no two with two vertices (an edge) in common, kept as
    the reference for ``is_feasible``."""
    nxg = to_networkx(g)
    if not all(len(t) == 3 and all(nxg.has_edge(a, b) for a, b in combinations(t, 2))
               for t in payload):
        return False
    return all(len(s & t) <= 1 for s, t in combinations(payload, 2))


def reference_pattern_copies(g: Graph, pattern: Graph) -> list[frozenset[int]]:
    """Every ``pattern.n``-subset of g, in ``combinations`` order, that holds
    the pattern under some assignment of its vertices: the scan kept as the
    reference for ``problems.pattern_copies``."""
    edges = list(pattern.edges())
    return [frozenset(c) for c in combinations(g.vertices, pattern.n)
            if any(all(g.has_edge(at[a], at[b]) for a, b in edges)
                   for at in (dict(zip(pattern.vertices, p)) for p in permutations(c)))]


def reference_hpack_feasible(g: Graph, payload, pattern: Graph) -> bool:
    """Pairwise disjoint vertex sets of g, each inducing a graph that has
    ``pattern`` as a subgraph by networkx's ``subgraph_is_monomorphic``,
    kept as the reference for ``is_feasible``."""
    nxg, nxh = to_networkx(g), to_networkx(pattern)
    for copy in payload:
        if len(copy) != pattern.n or not all(v in nxg for v in copy):
            return False
        if not GraphMatcher(nxg.subgraph(copy), nxh).subgraph_is_monomorphic():
            return False
    return all(not (s & t) for s, t in combinations(payload, 2))


def monomorphic_copies(g: Graph, pattern: Graph) -> list[frozenset[int]]:
    """The vertex sets of g holding a copy of ``pattern``, by networkx's
    subgraph monomorphisms, in the order of their sorted tuples."""
    matcher = GraphMatcher(to_networkx(g), to_networkx(pattern))
    return sorted({frozenset(m) for m in matcher.subgraph_monomorphisms_iter()}, key=sorted)


TRIANGLE = Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])


def milp_oracle() -> Oracle:
    """An exact oracle with no size cap for is, vc, etp, eds, ecc, cc and
    hpack:*: a 0/1 program per query, solved by scipy's ``milp`` (HiGHS). It
    picks items (vertices, edges, triangles, maximal cliques or pattern
    copies) under one row per element (an edge, or a vertex for cc and
    hpack) over the items that touch it: at least one for the minimizations
    vc, eds, ecc and cc, at most one for the rest. Triangles, cliques and
    copies come from networkx, not from the code under test."""

    def fn(kind, g, td):
        nxg = to_networkx(g)
        at = {v: [frozenset(e) for e in nxg.edges(v)] for v in nxg}
        if kind.name in ("is", "vc"):  # a vertex touches its edges
            items = list(nxg)
            touches = [at[v] for v in items]
        elif kind.name == "eds":  # an edge touches every edge at its ends
            items = [frozenset(e) for e in nxg.edges()]
            touches = [[f for v in e for f in at[v]] for e in items]
        elif kind.name == "etp":  # a triangle touches its three edges
            items = monomorphic_copies(g, TRIANGLE)
            touches = [[frozenset(p) for p in combinations(t, 2)] for t in items]
        elif kind.name == "hpack":  # a copy touches its vertices
            items = monomorphic_copies(g, kind.pattern)
            touches = items
        elif kind.name == "ecc":  # a maximal clique with an edge touches its edges
            items = [frozenset(c) for c in nx.find_cliques(nxg) if len(c) > 1]
            touches = [[frozenset(p) for p in combinations(c, 2)] for c in items]
        elif kind.name == "cc":  # a maximal clique touches its vertices
            items = [frozenset(c) for c in nx.find_cliques(nxg)]
            touches = items
        else:
            raise ValueError(f"the MILP oracle does not answer {kind.name}")
        minimize = kind.name in ("vc", "eds", "ecc", "cc")
        rows: dict = {}
        cells = [(rows.setdefault(x, len(rows)), j)
                 for j, xs in enumerate(touches) for x in set(xs)]
        constraints = []
        if rows:
            a = coo_array((np.ones(len(cells)), tuple(zip(*cells))), shape=(len(rows), len(items)))
            constraints.append(LinearConstraint(a, *((1, np.inf) if minimize else (-np.inf, 1))))
        chosen = []
        if items:
            res = milp(np.full(len(items), 1.0 if minimize else -1.0), constraints=constraints,
                       integrality=np.ones(len(items)), bounds=Bounds(0, 1))
            if res.status != 0:
                raise RuntimeError(f"milp failed on {kind.name}: {res.message}")
            chosen = [x for x, val in zip(items, res.x) if val > 0.5]
        if kind.name in ("is", "vc"):
            return Solution.of_vertices(chosen)
        return Solution.of_family(chosen)

    return Oracle("milp", 1.0, math.inf, fn)


def reading(oracle: Oracle) -> Oracle:
    """``oracle`` declared as one that reads the decomposition it is handed,
    so the engines cut a tree for each of its queries, as for ``exact-dp``."""
    return Oracle(oracle.name, oracle.declared_ratio, oracle.size_cap, oracle.solve,
                  reads_decomposition=True)


def subtree_nodes(ntd, t: int) -> list[int]:
    """The subtree of ``t`` in a nice decomposition, parents before children."""
    return _preorder(ntd.children, t)


class SubtreeIndex:
    """Per-node local sets V_t \\ X_t of a nice decomposition, one slice of
    the post-order list of forgotten vertices each; kept as the reference
    for the slices of ``treedecomp.Remainder`` and for the per-level
    engines below."""

    def __init__(self, ntd):
        self.ntd = ntd
        n = ntd.n_nodes
        self.forgotten, self.begin, self.end = forgotten, begin, end = [], [0] * n, [0] * n
        for t in ntd.postorder():
            kids = ntd.children[t]
            begin[t] = begin[kids[0]] if kids else len(forgotten)
            if node_kind(ntd, t) == "forget":
                forgotten.append(ntd.pivots[t])
            end[t] = len(forgotten)
        self.local_size = [e - b for b, e in zip(begin, end)]

    def local_vertices(self, t: int) -> frozenset[int]:
        return frozenset(self.forgotten[self.begin[t]:self.end[t]])

    def v_set(self, t: int) -> frozenset[int]:
        return self.local_vertices(t) | self.ntd.bags[t]


def reference_descend(g: Graph, ntd, measure, limit: float, floor: float = 0.0):
    """The walk that kept its own local set and rescanned the first child's
    subtree at every join, kept as the reference for ``treedecomp.descend``.

    ``measure(local, bag)`` gets the local set V_t \\ X_t and the bag of
    the node. Returns (node, local, value, data).
    """
    node, local = ntd.root, set(g.vertex_set)
    pending = None
    while True:
        frozen = frozenset(local)
        value, data = pending if pending is not None else measure(frozen, ntd.bags[node])
        pending = None
        if value <= limit:
            return node, frozen, value, data
        kids = ntd.children[node]
        if not kids:
            raise InternalInvariantViolation("leaf reached above the window")
        if len(kids) == 1:
            if node_kind(ntd, node) == "forget":
                local.discard(ntd.pivots[node])
            node = kids[0]
            continue
        acc: set[int] = set()
        for s in subtree_nodes(ntd, kids[0]):
            acc |= ntd.bags[s]
        s1 = frozenset(acc - ntd.bags[kids[0]])
        s2 = frozenset(local - s1)
        m1 = measure(s1, ntd.bags[kids[0]])
        m2 = measure(s2, ntd.bags[kids[1]])
        if (m1[0], -kids[0]) >= (m2[0], -kids[1]):
            pending, node, local = m1, kids[0], set(s1)
        else:
            pending, node, local = m2, kids[1], set(s2)
        if pending[0] < floor:
            raise InternalInvariantViolation("join split lost the window (both children too small)")


def reference_window_pass(g: Graph, ntd, limit: float, matching: bool, solve):
    """The window pass that built fresh live and matched sets at every node,
    kept as the reference for ``kernels._window_pass``: it must make the
    same cuts, in the same order, and return the same result."""
    state: list = [None] * ntd.n_nodes  # (live set, matched set) of pending nodes
    taken: set[int] = set()
    deleted: set[int] = set()
    parts: list[frozenset] = []

    def measure(c: int) -> int:
        return len(state[c][1 if matching else 0])

    def cut(c: int) -> None:
        parts.append(solve(g.induced_subgraph(state[c][0]), ntd, (c, taken), ntd.bags[c]))
        taken.add(c)
        deleted.update(ntd.bags[c])

    def unite(x: set[int], y: set[int]) -> set[int]:
        x, y = (x, y) if len(x) >= len(y) else (y, x)
        x |= y
        return x

    for t in ntd.postorder():
        kids = ntd.children[t]
        v = ntd.pivots[t] if node_kind(ntd, t) == "forget" and ntd.pivots[t] not in deleted else None
        w = None
        if v is not None and matching:
            live, mate = state[kids[0]]
            w = next((u for u in sorted(g.neighbors(v)) if u in live and u not in mate), None)
        grown = sum(map(measure, kids)) + (2 * (w is not None) if matching else v is not None)
        fits = None
        if grown > limit:
            if matching:
                pool = set().union(*(state[c][0] for c in kids), [v] if v is not None else [])
                value, cover, _ = greedy_matching(g, pool)
                fits = cover if value <= limit else None
            if fits is None:
                c = min(kids, key=lambda c: (-measure(c), c))
                cut(c)
                kids = [k for k in kids if k != c]
                v = w = None
        live, mate = set(), set()
        for c in kids:
            live, mate = unite(live, state[c][0]), unite(mate, state[c][1])
        if v is not None:
            live.add(v)
        if fits is not None:
            mate = set(fits)
        elif w is not None:
            mate.update((v, w))
        state[t] = (live, mate)
        for c in ntd.children[t]:
            state[c] = None
    cuts = len(parts)
    if state[ntd.root][0]:
        cut(ntd.root)
    return Solution.of_vertices(frozenset().union(*parts)), cuts


def reference_min_ecc(g: Graph) -> frozenset[frozenset[int]]:
    """The exhaustive edge clique cover search of its own, kept as the
    reference for the clique-family search ``brute_force_solve`` runs."""
    edges = [frozenset(e) for e in g.edges()]
    if not edges:
        return frozenset()
    cliques = [c for c in _maximal_cliques(g) if len(c) >= 2]
    clique_edges = {
        c: frozenset(frozenset(p) for p in combinations(sorted(c), 2)) for c in cliques
    }
    best: list = [frozenset(edges), len(edges)]
    stack: list[tuple[frozenset, tuple]] = [(frozenset(), ())]
    while stack:  # depth first, the next branch on top
        covered, chosen = stack.pop()
        if len(chosen) >= best[1]:
            continue
        target = None
        for e in edges:
            if e not in covered:
                target = e
                break
        if target is None:
            best[0], best[1] = frozenset(chosen), len(chosen)
            continue
        stack.extend((covered | clique_edges[c], chosen + (c,))
                     for c in reversed(cliques) if target <= c)
    return best[0]


def reference_min_clique_cover(g: Graph) -> frozenset[frozenset[int]]:
    """The exhaustive clique cover search of its own, kept as the reference
    for the clique-family search ``brute_force_solve`` runs."""
    if g.n == 0:
        return frozenset()
    cliques = _maximal_cliques(g)
    best: list = [frozenset(frozenset([v]) for v in g.vertices), g.n]
    stack: list[tuple[frozenset[int], tuple]] = [(frozenset(), ())]
    while stack:  # depth first, the next branch on top
        covered, chosen = stack.pop()
        if len(chosen) >= best[1]:
            continue
        rest = g.vertex_set - covered
        if not rest:
            best[0], best[1] = frozenset(chosen), len(chosen)
            continue
        v = min(rest)
        stack.extend((covered | c, chosen + (c,)) for c in reversed(cliques) if v in c)
    return best[0]


def reference_min_eds(g: Graph) -> frozenset[frozenset[int]]:
    """The exhaustive edge dominating set search of its own, kept as the
    reference for the cover search ``brute_force_solve`` runs."""
    edges = [frozenset(e) for e in g.edges()]
    if not edges:
        return frozenset()
    greedy: list[frozenset[int]] = []
    used: set[int] = set()
    for e in edges:
        if not (e & used):
            greedy.append(e)
            used |= e
    best: list = [frozenset(greedy), len(greedy)]
    incident = {v: [e for e in edges if v in e] for v in g.vertices}
    stack: list[tuple[frozenset[int], ...]] = [()]
    while stack:  # depth first, the next branch on top
        chosen = stack.pop()
        if len(chosen) >= best[1]:
            continue
        covered = {v for e in chosen for v in e}
        target = None
        for e in edges:
            if not (e & covered):
                target = e
                break
        if target is None:
            best[0], best[1] = frozenset(chosen), len(chosen)
            continue
        cands: list[frozenset[int]] = []
        for v in sorted(target):
            for f in incident[v]:
                if f not in cands:
                    cands.append(f)
        stack.extend(chosen + (f,) for f in reversed(cands))
    return best[0]


def reference_max_etp(g: Graph) -> frozenset[frozenset[int]]:
    """The exhaustive triangle packing search of its own, kept as the
    reference for the independent-set search ``brute_force_solve`` runs."""
    tris = list(g.triangles())
    tri_edges = [
        (frozenset((a, b)), frozenset((a, c)), frozenset((b, c))) for a, b, c in tris
    ]
    best: list = [frozenset(), 0]
    stack: list[tuple[int, frozenset, tuple[int, ...]]] = [(0, frozenset(), ())]
    while stack:  # depth first, the next branch on top
        idx, used, chosen = stack.pop()
        if len(chosen) + (len(tris) - idx) <= best[1]:
            continue
        if idx == len(tris):
            if len(chosen) > best[1]:
                best[0] = frozenset(frozenset(tris[i]) for i in chosen)
                best[1] = len(chosen)
            continue
        e1, e2, e3 = tri_edges[idx]
        stack.append((idx + 1, used, chosen))
        if e1 not in used and e2 not in used and e3 not in used:
            stack.append((idx + 1, used | {e1, e2, e3}, chosen + (idx,)))
    return best[0]


def reference_degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """The bucket-scan min-degree order and the degeneracy, kept as the
    reference for ``approx._min_degree_order``: each pick is ``min`` of the
    lowest bucket."""
    deg = {v: g.degree(v) for v in g.vertices}
    buckets: list[set[int]] = [set() for _ in range(g.n + 1)]
    for v in g.vertices:
        buckets[deg[v]].add(v)
    order: list[int] = []
    gone: set[int] = set()
    degeneracy = 0
    cursor = 0
    while len(order) < g.n:
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        v = min(buckets[cursor])
        buckets[cursor].discard(v)
        degeneracy = max(degeneracy, cursor)
        order.append(v)
        gone.add(v)
        for w in g.neighbors(v):
            if w not in gone:
                buckets[deg[w]].discard(w)
                deg[w] -= 1
                buckets[deg[w]].add(w)
        cursor = max(0, cursor - 1)
    return order, degeneracy


def reference_levels(step, assemble):
    """The engine loop that kept a stack of pieces, as a step for ``_drive``;
    kept for the per-level reference engines below.

    ``step(graph, ntd, flags)`` solves part of a piece and returns (the
    solved part, the remainders to push, whether it cut): none, one, or one
    per component are pushed, the first on top, and each cut counts one
    level of recursion depth. ``assemble`` gets the solved parts in solving
    order and returns the solution."""

    def run(g, ntd, flags):
        parts, depth, work = [], 0, [(g, ntd)]
        while work:
            part, rest, split = step(*work.pop(), flags)
            parts.append(part)
            work.extend(reversed(rest))
            depth += split
        return assemble(parts), depth

    return run


def split_solution(problem, sol: Solution, *keeps) -> tuple[Solution, ...]:
    """The parts of a friendly problem's solution ``sol`` within each vertex
    set of ``keeps``: its vertices there, or for a family its sets there."""
    family = problem.kind.record.family
    return tuple(
        Solution.of_family(c for c in sol.payload if c <= keep) if family
        else Solution.of_vertices(v for v in sol.payload if v in keep)
        for keep in keeps
    )


def reference_friendly_turing(g: Graph, td, eps: float, problem, oracle, threshold_scale: float = 1.0):
    """The per-level friendly engine, kept as the reference for
    ``friendly.approx_friendly_turing``: every level is a piece on the
    stack of ``reference_levels`` with its own graph G - V_t and its own
    decomposition rebuilt by ``reference_restrict``, and phi runs in full on
    each node's induced local graph, except where the level's local size and
    width put ``phi_floor`` over the limit: such a node is measured by its
    size. For maximization it still splits a join's phi
    solution between the children to pick one, which the engine leaves to
    the descent. Returns the run's report."""
    cfg = KernelConfig(eps, oracle, threshold_scale)
    delta = eps / 3.0
    maximize = not is_minimization(problem.kind)

    def best(a, b):
        return a if a.value <= b.value else b

    def step(cur_g, ntd, flags):
        ell = ntd.width
        k = (2.0 * (ell + 1) / delta + 1) * threshold_scale
        phi_k = problem.phi(k, ell)
        budget = phi_k + ell
        limit = k if maximize else phi_k
        idx = SubtreeIndex(ntd)

        def phi(t):
            return problem.phi_approx(cur_g.induced_subgraph(idx.local_vertices(t)))

        def measure(t):
            size = idx.local_size[t]
            if problem.phi_floor and problem.phi_floor(size, ell) > limit:
                return size, None
            sol = phi(t)
            return sol.value, sol

        t, _, hint = descend(ntd, measure, limit)
        if t == ntd.root:
            sol = _query(problem.kind, cur_g, ntd, cfg.oracle, problem.psaks, budget, (None, None))
            return (None, None, sol if maximize else best(sol, hint)), (), False
        p = ntd.parent[t]
        kids = ntd.children[p]
        if len(kids) == 2 and maximize:
            s1, s2 = split_solution(problem, phi(p), *map(idx.local_vertices, kids))
            t = kids[0] if (s1.value, -kids[0]) >= (s2.value, -kids[1]) else kids[1]
        elif len(kids) == 2 and all(phi(c).value <= phi_k / 2 for c in kids):
            t = p
            hint = phi(kids[0]).union(phi(kids[1]))
        local = idx.local_vertices(t)
        piece = cur_g.induced_subgraph(local)
        piece_td = reference_restrict(ntd, local, t)
        sol = _query(problem.kind, piece, piece_td, cfg.oracle, problem.psaks, budget, (None, None))
        if not maximize:
            sol = best(sol, hint)
        rest_g = cur_g.remove_vertices(idx.v_set(t))
        rest_td = reference_restrict(ntd, rest_g.vertex_set, taken=set(subtree_nodes(ntd, t)))
        return (cur_g, ntd.bags[t], sol), [(rest_g, rest_td)], True

    def assemble(parts):
        *levels, (_, _, solution) = parts
        for cur_g, bag, part in reversed(levels):
            solution = solution.union(part)
            if not maximize:
                solution = problem.extend(cur_g, cur_g.vertex_set, bag, solution)
        return solution

    def bounds(width):
        declared = None
        if problem.psaks is not None:
            k0 = 6.0 * (width + 1) / eps + 1
            declared = problem.psaks.size_fn(delta, problem.phi(k0, width) + width)
        budget_k = (2.0 * (width + 1) / delta + 1) * threshold_scale
        return declared, {"budget_k": budget_k}

    return _drive(problem.name, problem.kind, g, td, cfg, reference_levels(step, assemble), bounds)


def reference_ecc_turing(g: Graph, td, cfg: KernelConfig):
    """The per-level ecc engine, kept as the reference for
    ``kernels.approx_ecc_turing``: every split is a step of its own whose
    remainder G - (V_t \\ X_t) gets a decomposition rebuilt by
    ``reference_restrict`` and a fresh local-set index."""
    eps, scale = cfg.epsilon, cfg.threshold_scale

    def step(cur_g, ntd, flags):
        if cur_g.m == 0:
            return frozenset(), (), False
        comps = cur_g.connected_components()
        if len(comps) > 1:
            pieces = [
                (cur_g.induced_subgraph(c), reference_restrict(ntd, c)) for c in comps if len(c) > 1
            ]
            return frozenset(), pieces, False
        base = 2.0 * (1 + eps) / eps * (ntd.width + 1) ** 4 * scale
        if cur_g.n <= base:
            return _query(ECC, cur_g, ntd, cfg.oracle).payload, (), False
        lo = max(base, 1.0)
        idx = SubtreeIndex(ntd)
        t = descend(ntd, lambda s: (idx.local_size[s], None), 2.0 * lo, floor=lo)[0]
        v_t = idx.v_set(t)
        v_td = reference_restrict(ntd, v_t, t)
        sol_t = _query(ECC, cur_g.induced_subgraph(v_t), v_td, cfg.oracle)
        if t == ntd.root:
            return sol_t.payload, (), True
        rest_g = cur_g.remove_vertices(v_t - ntd.bags[t])
        rest_td = reference_restrict(ntd, rest_g.vertex_set, taken=set(subtree_nodes(ntd, t)[1:]))
        return sol_t.payload, [(rest_g, rest_td)], True

    def bounds(width):
        return 4.0 * (1 + eps) / eps * (width + 1) ** 4 + (width + 1), {
            "base_case": 2.0 * (1 + eps) / eps * (width + 1) ** 4 * scale,
            "window_hi": 4.0 * (1 + eps) / eps * (width + 1) ** 4 * scale,
        }

    levels = reference_levels(step, lambda parts: Solution.of_family(frozenset().union(*parts)))
    return _drive("ecc", ECC, g, td, cfg, levels, bounds)


def reference_etp_turing(g: Graph, td, cfg: KernelConfig):
    """The per-level etp engine, kept as the reference for
    ``kernels.approx_etp_turing``: every split is a step of its own whose
    remainder G - (V_t \\ X_t) gets a decomposition rebuilt by
    ``reference_restrict`` and a fresh local-set index."""
    eps, scale = cfg.epsilon, cfg.threshold_scale

    def step(cur_g, ntd, flags):
        unit = (ntd.width + 1) ** 2 / eps * scale
        s3 = greedy_triangle_packing(cur_g)
        if s3.value > 18.0 * unit:
            idx = SubtreeIndex(ntd)

            def measure(t):
                gt = cur_g.induced_subgraph(idx.v_set(t)).delete_edges_within(ntd.bags[t])
                packing = greedy_triangle_packing(gt)
                return packing.value, (packing, gt)

            node, _, (s3_t, gt) = descend(ntd, measure, 6.0 * unit, floor=unit)
            sol_t = solve_etp_small(gt, s3_t, cfg.oracle, flags)
            local = idx.local_vertices(node)
            if local:
                rest_g = cur_g.remove_vertices(local)
                rest_td = reference_restrict(
                    ntd, rest_g.vertex_set, taken=set(subtree_nodes(ntd, node)[1:])
                )
                return sol_t.payload, [(rest_g, rest_td)], True
            flags.add("etp-empty-split-fallback")
        sol = solve_etp_small(cur_g, s3, cfg.oracle, flags, ntd)
        return sol.payload, (), False

    def bounds(width):
        return None, {
            "easy_guard": 18.0 * (width + 1) ** 2 / eps * scale,
            "local_guard": 6.0 * (width + 1) ** 2 / eps * scale,
        }

    levels = reference_levels(
        step, lambda parts: greedy_triangle_packing(g, frozenset().union(*parts))
    )
    return _drive("etp", ETP, g, td, cfg, levels, bounds)
