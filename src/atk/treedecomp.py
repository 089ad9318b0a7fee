"""Tree decompositions: validation, nice form, subconnected form, the
remainder view and the descent walk.

A tree decomposition is a tree of bags covering the graph; the nice form is
rooted with empty root/leaf bags and only join/introduce/forget nodes. The
subconnected form is rooted too, and makes every subtree's vertex set V_t
induce a connected subgraph, with a bounded number of children per node;
it keeps each V_t, and a cut contracts it in place.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .errors import InternalInvariantViolation
from .graph import Graph, _components, _reach


class TreeDecomposition:
    """A tree of bags. Nodes are integers; the tree may carry a root."""

    def __init__(
        self,
        bags: dict[int, Iterable[int]],
        tree_edges: Iterable[tuple[int, int]] = (),
        root: int | None = None,
    ):
        self.bags: dict[int, frozenset[int]] = {int(t): frozenset(b) for t, b in bags.items()}
        if not self.bags:
            raise ValueError("a tree decomposition needs at least one node")
        adj: dict[int, set[int]] = {t: set() for t in self.bags}
        edges = []
        for a, b in tree_edges:
            if a == b or a not in adj or b not in adj:
                raise ValueError(f"bad tree edge ({a}, {b})")
            if b in adj[a]:
                raise ValueError(f"duplicate tree edge ({a}, {b})")
            adj[a].add(b)
            adj[b].add(a)
            edges.append((a, b))
        reached = _reach(adj.__getitem__, next(iter(adj)))
        if len(edges) != len(self.bags) - 1 or len(reached) != len(adj):
            raise ValueError("tree edges do not form a tree")
        self.tree_adj: dict[int, tuple[int, ...]] = {t: tuple(sorted(ns)) for t, ns in adj.items()}
        self.tree_edges: tuple[tuple[int, int], ...] = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
        if root is not None and root not in self.bags:
            raise ValueError(f"root {root} is not a node")
        self.root = root

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.bags))

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def parents(self) -> dict[int, int | None]:
        """Parent of every node, oriented from the root (or the lowest node)."""
        r = self.root if self.root is not None else min(self.bags)
        parent: dict[int, int | None] = {r: None}
        stack = [r]
        while stack:
            t = stack.pop()
            for s in self.tree_adj[t]:
                if s not in parent:
                    parent[s] = t
                    stack.append(s)
        return parent


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Every violated decomposition condition, or a clean bill of health."""

    uncovered_vertices: tuple[int, ...]
    uncovered_edges: tuple[tuple[int, int], ...]
    broken_traces: tuple[int, ...]
    foreign_bag_vertices: tuple[int, ...]
    width: int

    @property
    def valid(self) -> bool:
        return not (
            self.uncovered_vertices
            or self.uncovered_edges
            or self.broken_traces
            or self.foreign_bag_vertices
        )

    def violations(self) -> list[str]:
        out = []
        if self.foreign_bag_vertices:
            out.append(f"bag vertices outside the graph: {list(self.foreign_bag_vertices)}")
        if self.uncovered_vertices:
            out.append(f"vertices in no bag: {list(self.uncovered_vertices)}")
        if self.uncovered_edges:
            out.append(f"edges in no bag: {list(self.uncovered_edges)}")
        if self.broken_traces:
            out.append(f"vertices with disconnected bag traces: {list(self.broken_traces)}")
        return out


def validate(g: Graph, td) -> ValidationReport:
    """Check the three decomposition conditions of a plain, nice or
    subconnected decomposition; violations are data.

    Runs in O(sum of bag sizes + m). A vertex's trace is connected iff
    exactly one node holding it has a parent without it, its top node. Two
    connected traces meet iff one holds the other's top node, so an edge is
    covered iff one endpoint is in the bag of the other's top node. Edges
    at a vertex with a broken trace fall back to intersecting the traces.
    """
    bags, parent = td.bags, td.parents() if isinstance(td, TreeDecomposition) else td.parent
    nodes = range(td.n_nodes) if isinstance(td, NiceTreeDecomposition) else bags
    top: dict[int, int] = {}
    broken: set[int] = set()
    for t in nodes:
        p = parent[t]
        above = bags[p] if p is not None else ()
        for v in bags[t]:
            if v not in above:
                if v in top:
                    broken.add(v)
                else:
                    top[v] = t
    occurs: dict[int, set[int]] = {}
    if broken:
        for t in nodes:
            for v in bags[t]:
                occurs.setdefault(v, set()).add(t)
    uncovered_edges = []
    for u in g.vertices:
        for v in g.neighbors(u):
            if u > v:
                continue
            if u not in top or v not in top:
                uncovered_edges.append((u, v))
            elif u in broken or v in broken:
                if not occurs[u] & occurs[v]:
                    uncovered_edges.append((u, v))
            elif v not in bags[top[u]] and u not in bags[top[v]]:
                uncovered_edges.append((u, v))
    return ValidationReport(
        uncovered_vertices=tuple(v for v in g.vertices if v not in top),
        uncovered_edges=tuple(sorted(uncovered_edges)),
        broken_traces=tuple(sorted(broken)),
        foreign_bag_vertices=tuple(sorted(v for v in top if not g.has_vertex(v))),
        width=td.width,
    )


# ---------------------------------------------------------------------------
# Nice tree decompositions
# ---------------------------------------------------------------------------

class NiceTreeDecomposition:
    """Rooted decomposition with empty root/leaf bags, whose node kinds
    follow from its shape: a node with no child is a leaf, one with two
    children a join (neither has a pivot), and a one-child node an
    introduce of its pivot when the pivot is in its own bag, a forget when
    it is in its child's bag only."""

    def __init__(
        self,
        bags: list[frozenset[int]],
        pivots: list[int | None],
        children: list[tuple[int, ...]],
        root: int,
    ):
        self.bags = bags
        self.pivots = pivots
        self.children = children
        self.root = root
        self.parent: list[int | None] = [None] * len(bags)
        for t, kids in enumerate(children):
            for c in kids:
                self.parent[c] = t
        self.width = max(map(len, bags)) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.bags)

    def postorder(self) -> list[int]:
        """Children-before-parent node order (iterative; trees can be deep)."""
        return _preorder(self.children, self.root)[::-1]

    def restrict(
        self, parts: list[frozenset[int]], t: int | None = None, taken: set[int] | None = None
    ) -> list["NiceTreeDecomposition"]:
        """One nice decomposition per set of the disjoint vertex sets
        ``parts``: the subtree of ``t`` (default: the root) without the
        subtrees of the nodes in ``taken``, with every bag cut down to the
        part, in one post-order walk.

        A node hands up the top of each part met below it. An introduce or
        forget with a kept child updates only its pivot's part in the map
        its child hands up (no other work), a join merges the smaller
        ``{part: top}`` map into the larger (a join node where both sides
        meet the part), and a leaf, or a node with a child in ``taken``,
        starts a leaf chain for each part its bag meets that has no top yet.
        So a node whose cut bag equals its child's adds no node, nor does a
        subtree without a vertex of the part, and each top forgets up to an
        empty root. The kept nodes (the subtree of ``t`` less the subtrees
        of taken nodes) form a subtree, so a part's tree decomposes G[part]
        whenever every vertex of the part occurs in a kept node: its trace
        stays connected, and two adjacent vertices share a kept bag by the
        Helly property of subtrees. Query pieces meet this, components do,
        and so do remainders cut from the root with t's children in
        ``taken`` (X_t kept) or t (V_t removed).
        """
        start = self.root if t is None else t
        skip = () if taken is None else taken
        children, pivots, bags = self.children, self.pivots, self.bags
        order = []  # parents before children
        stack = [start]
        while stack:
            s = stack.pop()
            order.append(s)
            for c in children[s]:
                if c not in skip:
                    stack.append(c)
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        out = [([], [], []) for _ in parts]  # each part's bags, pivots, children
        pending: dict[int, dict[int, int]] = {}  # node -> {part: its top}, for a later parent
        last, tops = None, {}  # the node walked last and its map
        for s in reversed(order):  # a post-order: a node comes right after its last kept child
            kids = children[s]
            if len(kids) == 1 and kids[0] == last:  # an introduce or a forget
                v = pivots[s]
                if (i := part_of.get(v)) is not None:
                    top = tops.get(i)
                    if top is None:  # v's introduce above a new leaf
                        top = _chain(out[i], None, _EMPTY, frozenset((v,)))
                    else:  # add or drop v; s's own bag if its child's was whole
                        nb, np_, nc = out[i]
                        cut = nb[top]
                        nb.append(bags[s] if len(cut) == len(bags[last]) else cut ^ {v})
                        np_.append(v)
                        nc.append((top,))
                        top = len(nb) - 1
                    tops[i] = top
            else:
                if last is not None and last not in kids:
                    pending[last] = tops
                below = [tops if c == last else pending.pop(c) for c in kids
                         if c == last or c in pending]
                tops = below[0] if below else {}
                if len(below) == 2:
                    big = len(below[0]) >= len(below[1])
                    tops, other = below if big else below[::-1]
                    for i, top in other.items():
                        if i in tops:
                            pair = (tops[i], top) if big else (top, tops[i])
                            top = _node(out[i], out[i][0][top], None, pair)
                        tops[i] = top
                else:  # a leaf, or a node with a taken child: the cut bag grows from a leaf
                    for v in bags[s]:
                        if (i := part_of.get(v)) is not None and i not in tops:
                            tops[i] = _chain(out[i], None, _EMPTY, bags[s] & parts[i])
            last = s
        trees = []
        for i, tree in enumerate(out):
            top = tops.get(i)
            root = _chain(tree, top, tree[0][top] if top is not None else _EMPTY, _EMPTY)
            trees.append(NiceTreeDecomposition(*tree, root))
        return trees

    def as_td(self) -> TreeDecomposition:
        edges = [(t, c) for t in range(self.n_nodes) for c in self.children[t]]
        return TreeDecomposition(
            {t: self.bags[t] for t in range(self.n_nodes)}, edges, root=self.root
        )

    def nice_violations(self) -> list[str]:
        return self.checked_postorder()[1]

    def checked_postorder(self) -> tuple[list[int], list[str]]:
        """The post-order and every violation of the nice form from one walk;
        no order when the children do not form a tree below the root."""
        kids = sorted(c for cs in self.children for c in cs)
        one_parent_each = kids == [t for t in range(self.n_nodes) if t != self.root]
        order = self.postorder() if one_parent_each else []
        if len(order) != self.n_nodes:
            return [], ["children do not form a tree below the root"]
        bags, pivots, out = self.bags, self.pivots, []
        if bags[self.root]:
            out.append("root bag not empty")
        for t, kids in enumerate(self.children):
            if not kids:
                if bags[t] or pivots[t] is not None:
                    out.append(f"leaf {t} has a non-empty bag or a pivot")
            elif len(kids) == 1:  # the larger bag, the one holding v, is the smaller one and v
                v, bag, below = pivots[t], bags[t], bags[kids[0]]
                big, small = (bag, below) if v in bag else (below, bag)
                if v not in big or v in small or len(big) != len(small) + 1 or not small < big:
                    out.append(f"node {t} neither introduces nor forgets its pivot")
            elif len(kids) == 2:
                if bags[kids[0]] != bags[t] or bags[kids[1]] != bags[t] or pivots[t] is not None:
                    out.append(f"join {t} has a pivot or lacks two equal-bag children")
            else:
                out.append(f"node {t} has more than two children")
        return order, out


_EMPTY: frozenset[int] = frozenset()


def _node(tree: tuple[list, list, list], bag, pivot, kids: tuple) -> int:
    """Append a node to ``tree``, its bags, pivots and children lists."""
    tree[0].append(bag)
    tree[1].append(pivot)
    tree[2].append(kids)
    return len(tree[0]) - 1


def _chain(tree: tuple[list, list, list], cur: int | None, have: frozenset[int],
           target: frozenset[int]) -> int:
    """Append to ``tree`` the forgets, then the introduces, each in vertex
    order, that lead from node ``cur`` with bag ``have`` up to ``target``,
    starting from a new leaf when ``cur`` is None; returns the top node."""
    bags, pivots, children = tree
    if cur is None:
        cur = _node(tree, _EMPTY, None, ())
    gone, new = have - target, target - have  # sorted unless each holds at most one vertex
    for v in [*gone, *new] if len(gone) < 2 and len(new) < 2 else sorted(gone) + sorted(new):
        have = have ^ {v}
        children.append((cur,))
        cur = len(bags)
        bags.append(have)
        pivots.append(v)
    return cur


def _shrink(td: TreeDecomposition) -> tuple[dict[int, frozenset[int]], dict[int, set[int]]]:
    """Contract tree edges whose bags are nested; at most one node per vertex left."""
    bags = dict(td.bags)
    adj: dict[int, set[int]] = {t: set(ns) for t, ns in td.tree_adj.items()}
    pending = [tuple(e) for e in td.tree_edges]
    while pending:
        a, b = pending.pop()
        if a not in bags or b not in bags or b not in adj[a]:
            continue
        if bags[a] <= bags[b]:
            a, b = b, a  # keep a, absorb b
        elif not bags[b] <= bags[a]:
            continue
        adj[a].discard(b)
        adj[b].discard(a)
        for x in adj[b]:
            adj[x].discard(b)
            adj[x].add(a)
            adj[a].add(x)
            pending.append((a, x))
        del bags[b], adj[b]
    return bags, adj


def make_nice(g: Graph, td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form; width is preserved. An
    invalid one raises ValueError.

    Node count is O(width * |V(g)|): nested adjacent bags are contracted
    first, then joins are binarized and bag transitions are padded with
    single-vertex introduce/forget steps.
    """
    report = validate(g, td)
    if not report.valid:
        raise ValueError("invalid tree decomposition: " + "; ".join(report.violations()))
    bags, adj = _shrink(td)
    root = min(bags)
    # Iterative DFS over the shrunk tree, each node's children ascending.
    kids_of: dict[int, list[int]] = {}
    dfs_order = [root]
    stack = [(root, None)]
    while stack:
        t, p = stack.pop()
        kids_of[t] = kids = sorted(adj[t])
        if p is not None:
            kids.remove(p)
        for s in reversed(kids):
            dfs_order.append(s)
            stack.append((s, t))
    tree: tuple[list, list, list] = ([], [], [])  # bags, pivots, children
    tops: dict[int, int] = {}
    for t in reversed(dfs_order):
        bag = bags[t]
        lifted = []
        for c in kids_of[t]:
            top = tops.pop(c)
            lifted.append(top if (have := tree[0][top]) == bag else _chain(tree, top, have, bag))
        if not lifted:
            tops[t] = _chain(tree, None, _EMPTY, bag)
            continue
        while len(lifted) > 1:  # binarize: join the last two
            right = lifted.pop()
            lifted.append(_node(tree, bag, None, (lifted.pop(), right)))
        tops[t] = lifted[0]
    top = _chain(tree, tops[root], tree[0][tops[root]], _EMPTY)
    return NiceTreeDecomposition(*tree, top)


# ---------------------------------------------------------------------------
# The remainder view and the descent walk
# ---------------------------------------------------------------------------


class Remainder:
    """What the cuts so far leave of a graph and its nice decomposition,
    kept as a view of both instead of being rebuilt.

    Every vertex is forgotten at exactly one node (the root bag is empty),
    and V_t \\ X_t is the set of vertices forgotten in t's subtree. A
    subtree is a run of the post-order that ends at its root and starts
    where its first child's run does, so with the forgotten vertices listed
    in post-order each local set is one slice, ``forgotten[begin[t]:end[t]]``.

    A cut at t removes live vertices (t's live local set, and its live bag
    too where the caller drops X_t) and adds t's children to ``taken``, the
    roots of the subtrees cuts removed; the remainder's decomposition is the
    tree ``ntd.restrict([live], None, taken)`` would build. ``descend`` walks
    the view itself, with the input's node ids, through the live children:
    untaken ones with a live vertex in their bag or local set, whose sizes
    are kept current. A cut changes the local sets of t and its ancestors
    only, and drops their entries from ``cache``, which ``additive`` alone
    fills; entries below t stay, out of every walk's reach, and a view
    serves one measure.
    """

    def __init__(self, g: Graph, ntd: NiceTreeDecomposition):
        self.g, self.ntd = g, ntd
        self.root = ntd.root  # descend reads it and children
        n = ntd.n_nodes
        self.forgotten, self.begin, self.end = forgotten, begin, end = [], [0] * n, [0] * n
        children, pivots, bags = ntd.children, ntd.pivots, ntd.bags
        for t in ntd.postorder():
            kids = children[t]
            begin[t] = begin[kids[0]] if kids else len(forgotten)
            if (v := pivots[t]) is not None and v not in bags[t]:  # a forget
                forgotten.append(v)
            end[t] = len(forgotten)
        self.live = set(g.vertices)
        self.taken: set[int] = set()
        self.live_local = [e - b for b, e in zip(begin, end)]  # sizes of the live local sets
        self.live_bag = [len(b) for b in ntd.bags]  # and of the live bags
        self.top = max(self.live_bag)  # the largest live bag, held by at_top nodes
        self.at_top = self.live_bag.count(self.top)
        self.occurs: dict[int, list[int]] = {v: [] for v in g.vertices}
        for t, bag in enumerate(ntd.bags):
            for v in bag:
                self.occurs[v].append(t)
        self.cache: dict[int, object] = {}

    children = property(lambda self: self)  # the view, stored nowhere, so no cycle

    def __getitem__(self, t: int) -> list[int]:
        return [
            c for c in self.ntd.children[t]
            if c not in self.taken and (self.live_local[c] or self.live_bag[c])
        ]

    @property
    def width(self) -> int:
        """The remainder's width: nodes below a cut hold no more of it than
        the cut node does."""
        return self.top - 1

    def local(self, t: int) -> set[int]:
        """t's live local set: the live vertices that occur only below its bag."""
        return self.live.intersection(self.forgotten[self.begin[t]:self.end[t]])

    def additive(self, t: int, solve):
        """t's measure, a ``Solution``, from one walk below t that caches every
        node it walks. The measure must be additive: a one-child node whose
        live local set is its child's takes the child's measure, a join of two
        live children the union of theirs (no edge joins its two sides), and
        any other node s ``solve(s)``. The walk goes below neither a cached
        node nor one it solves. Children are read through the view only, as a
        node below a cut keeps a stale size and cache entry."""
        cache, size = self.cache, self.live_local
        order, stack = [], [t]
        while stack:  # parents before children
            s = stack.pop()
            if s in cache:
                continue
            kids = self[s]
            if len(kids) == 1 and size[kids[0]] != size[s]:
                kids = []
            order.append((s, kids))
            stack.extend(kids)
        for s, kids in reversed(order):
            if len(kids) == 2:
                cache[s] = cache[kids[0]].union(cache[kids[1]])
            else:
                cache[s] = cache[kids[0]] if kids else solve(s)
        return cache[t]

    def cut(self, t: int, removed) -> None:
        """Remove the live vertices ``removed``, t's live local set with or
        without its live bag, and take t's children, so the nodes below t
        drop out of the view."""
        self.live -= removed
        bag, top, at_top = self.live_bag, self.top, self.at_top
        for v in removed:
            for s in self.occurs[v]:
                if bag[s] == top:
                    at_top -= 1
                bag[s] -= 1
        if not at_top:  # the largest size only falls, so this rescan runs <= width+1 times
            top = max(bag)
            at_top = bag.count(top)
        self.top, self.at_top = top, at_top
        self.taken.update(self.ntd.children[t])
        while t is not None:  # t's and its ancestors' local sets lose removed less their bags
            self.live_local[t] -= len(removed) - len(removed & self.ntd.bags[t])
            self.cache.pop(t, None)
            t = self.ntd.parent[t]


def descend(ntd: NiceTreeDecomposition, measure, limit: float, floor: float = 0.0):
    """Walk down from the root to the first node whose measure is at most
    ``limit``; every split search is this walk with its own measure.

    ``ntd`` needs only a ``root`` and a ``children`` lookup, so the walk can
    run on a view of a decomposition. ``measure(t)`` returns (value, data)
    for node t. A one-child node over ``limit`` is left for its child
    unconditionally. At a join over it both children are measured, and the
    walk follows the larger value, ties to the first child (the lower id in
    every tree ``make_nice`` and ``restrict`` build); that value must stay
    at least ``floor``. Returns (node, value, data).
    """
    t = ntd.root
    value, data = measure(t)
    while value > limit:
        kids = ntd.children[t]
        if not kids:
            raise InternalInvariantViolation("leaf reached above the window")
        if len(kids) == 1:
            t = kids[0]
            value, data = measure(t)
            continue
        (v1, d1), (v2, d2) = measure(kids[0]), measure(kids[1])
        t, value, data = (kids[0], v1, d1) if v1 >= v2 else (kids[1], v2, d2)
        if value < floor:
            raise InternalInvariantViolation("join split lost the window (both children too small)")
    return t, value, data


# ---------------------------------------------------------------------------
# Subconnected form
# ---------------------------------------------------------------------------


class SubconnectedDecomposition:
    """A rooted decomposition in which every node's V_t (the vertices in its
    subtree's bags) induces a connected subgraph; ``make_subconnected``
    builds it, and ``cut`` contracts it in place where the cvc engine splits.

    ``bags``, ``children`` (ascending), ``parent`` (None at ``root``) and
    ``vsets`` (V_t) are keyed by the live nodes.
    """

    def __init__(self, bags: dict[int, frozenset[int]], children: dict[int, tuple[int, ...]],
                 vsets: dict[int, set[int]], root: int):
        self.bags, self.children, self.vsets, self.root = bags, children, vsets, root
        self.parent: dict[int, int | None] = {root: None}
        self.occurs: dict[int, list[int]] = {}  # vertex -> the nodes whose bags held it
        for t, bag in bags.items():
            self.parent.update((c, t) for c in children[t])
            for v in bag:
                self.occurs.setdefault(v, []).append(t)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def as_td(self) -> TreeDecomposition:
        edges = [(t, c) for t, kids in self.children.items() for c in kids]
        return TreeDecomposition(self.bags, edges, root=self.root)

    def cut(self, t: int, z: int) -> None:
        """Drop the nodes strictly below t and contract X_t to the fresh
        vertex z in every bag and V_s holding a vertex of it; t's and its
        ancestors' V_a lose all of V_t for z.

        The result decomposes the contracted graph and stays subconnected.
        Every trace of a vertex of X_t holds t, so z's trace is connected and
        a V_s off t's path that meets X_t holds it in its bag (found through
        the occurrence lists); a path of G[V_s] through V_t \\ X_t enters and
        leaves it through X_t, so it can go through z instead.
        """
        x_t, v_t = self.bags[t], self.vsets[t]
        stack = list(self.children[t])
        while stack:
            s = stack.pop()
            stack.extend(self.children.pop(s))
            del self.bags[s], self.parent[s], self.vsets[s]
        self.children[t], self.vsets[t] = (), {z}
        holders = sorted({s for v in x_t for s in self.occurs.pop(v) if s in self.bags})
        for s in holders:
            self.bags[s] = (self.bags[s] - x_t) | {z}
            self.vsets[s] -= x_t
            self.vsets[s].add(z)
        self.occurs[z] = holders
        a = self.parent[t]
        while a is not None:
            self.vsets[a] -= v_t
            self.vsets[a].add(z)
            a = self.parent[a]


def make_subconnected(g: Graph, ntd: NiceTreeDecomposition) -> SubconnectedDecomposition:
    """Regroup subtrees so G[V_t] is connected at every node.

    Bottom-up: a node whose accumulated vertex set splits into p components
    becomes p sibling nodes, each keeping the bag restricted to its
    component, whose V_t is that component. For connected g every component
    of G[V_t] meets X_t, which bounds the children of any output node by
    2*width+2.
    """
    if not g.is_connected():
        raise ValueError("subconnected form needs a connected graph")
    if g.n == 0:
        return SubconnectedDecomposition({0: frozenset()}, {0: ()}, {0: set()}, 0)
    bags: dict[int, frozenset[int]] = {}
    children: dict[int, tuple[int, ...]] = {}
    vsets: dict[int, set[int]] = {}
    pieces: dict[int, list[int]] = {}  # nice node -> the output nodes it became
    for t in ntd.postorder():
        below = [p for c in ntd.children[t] for p in pieces.pop(c)]
        bag = ntd.bags[t]
        pool = set(bag).union(*(vsets[p] for p in below))
        comps = _components(g.neighbors, pool)
        if len(comps) > 1 and not all(bag & comp for comp in comps):
            raise InternalInvariantViolation("component without a bag vertex in a connected graph")
        pieces[t] = []
        for comp in comps:
            nid = len(bags)
            bags[nid] = bag & comp
            children[nid] = tuple(p for p in below if next(iter(vsets[p])) in comp)
            vsets[nid] = set(comp)
            pieces[t].append(nid)
    if len(pieces[ntd.root]) != 1:
        raise InternalInvariantViolation("connected graph produced multiple root pieces")
    return SubconnectedDecomposition(bags, children, vsets, pieces[ntd.root][0])


def _preorder(children, t: int) -> list[int]:
    """The subtree of ``t``, parents before children (iterative; trees can be deep)."""
    out = []
    stack = [t]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(children[s])
    return out


# ---------------------------------------------------------------------------
# Greedy min-degree heuristic decomposer
# ---------------------------------------------------------------------------


def heuristic_td(g: Graph) -> TreeDecomposition:
    """Greedy min-degree elimination ordering, ties to the lower vertex; no
    width optimality guarantee. Each pick comes from a (degree, vertex) heap
    that skips stale entries, so a graph of width w takes O(n w^2 log n).
    """
    if g.n == 0:
        return TreeDecomposition({0: frozenset()})
    work: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in g.vertices}
    heap = [(len(ns), v) for v, ns in work.items()]
    heapq.heapify(heap)
    elim_order: list[int] = []
    elim_bags: list[frozenset[int]] = []
    while heap:
        degree, v = heapq.heappop(heap)
        ns = work.get(v)
        if ns is None or len(ns) != degree:
            continue  # v is eliminated, or its degree changed after the push
        del work[v]
        elim_order.append(v)
        elim_bags.append(frozenset([v, *ns]))
        for x in ns:  # the neighbours become a clique
            nx = work[x]
            nx.discard(v)
            nx |= ns
            nx.discard(x)
            heapq.heappush(heap, (len(nx), x))
    pos = {v: i for i, v in enumerate(elim_order)}
    bags = {i: b for i, b in enumerate(elim_bags)}
    edges = []
    for i, b in enumerate(elim_bags[:-1]):
        later = [pos[v] for v in b if pos[v] > i]
        edges.append((i, min(later) if later else i + 1))
    return TreeDecomposition(bags, edges, root=len(elim_bags) - 1)
