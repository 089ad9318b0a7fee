"""Simple undirected graphs with stable integer vertex ids.

Graphs are immutable: every surgery returns a new value, so a solution
computed on a subgraph can be reused verbatim on the parent graph.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Collection, Iterable, Iterator


class Graph:
    """An immutable simple undirected graph.

    Vertices are arbitrary integers. No self-loops, no parallel edges.
    """

    __slots__ = ("_adj", "_m", "_sorted")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: dict[int, frozenset[int]] = {v: frozenset(ns) for v, ns in adj.items()}
        self._m = sum(len(ns) for ns in self._adj.values()) // 2
        self._sorted = tuple(sorted(self._adj))

    @classmethod
    def _from_adj(cls, adj: dict[int, frozenset[int]]) -> "Graph":
        g = cls.__new__(cls)
        g._adj = adj
        g._m = sum(len(ns) for ns in adj.values()) // 2
        g._sorted = tuple(sorted(adj))
        return g

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    @property
    def vertices(self) -> tuple[int, ...]:
        """Vertices in sorted order (deterministic iteration)."""
        return self._sorted

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._adj)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        for u in self._sorted:
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def triangles(self) -> Iterator[tuple[int, int, int]]:
        """All triangles as (u, v, w) with u < v < w, in sorted order."""
        for u, v in self.edges():
            for w in sorted(self._adj[u] & self._adj[v]):
                if w > v:
                    yield (u, v, w)

    def __eq__(self, other: object):
        if isinstance(other, Graph):
            return self._adj == other._adj
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def _require_vertices(self, s: Iterable[int]) -> frozenset[int]:
        s = frozenset(s)
        if not self._adj.keys() >= s:  # O(|s|); s - keys() would copy every key
            raise ValueError(f"unknown vertices: {sorted(s - self._adj.keys())}")
        return s

    # -- surgeries -----------------------------------------------------

    def induced_subgraph(self, s: Iterable[int]) -> "Graph":
        """The subgraph induced by the vertex set ``s``."""
        s = self._require_vertices(s)
        return Graph._from_adj({v: self._adj[v] & s for v in s})

    def remove_vertices(self, x: Iterable[int]) -> "Graph":
        """Delete the vertices in ``x`` together with their incident edges."""
        x = self._require_vertices(x)
        return self.induced_subgraph(self._adj.keys() - x)

    def delete_edges_within(self, x: Iterable[int]) -> "Graph":
        """Delete every edge with both endpoints in ``x``; vertices stay."""
        x = self._require_vertices(x)
        adj = {v: (ns - x if v in x else ns) for v, ns in self._adj.items()}
        return Graph._from_adj(adj)

    def identify_vertices(self, x: Iterable[int], z: int) -> "Graph":
        """Collapse the vertex set ``x`` into the single new vertex ``z``.

        Self-loops vanish and parallel edges merge, so the result stays
        simple. ``z`` must not collide with a surviving vertex.
        """
        x = self._require_vertices(x)
        if not x:
            raise ValueError("cannot identify an empty vertex set")
        survivors = self._adj.keys() - x
        if z in survivors:
            raise ValueError(f"replacement vertex {z} collides with a surviving vertex")
        z_nbrs = frozenset().union(*(self._adj[u] for u in x)) - x
        adj: dict[int, frozenset[int]] = {z: z_nbrs}
        for v in survivors:
            ns = self._adj[v]
            if ns & x:
                adj[v] = (ns - x) | {z}
            else:
                adj[v] = ns
        return Graph._from_adj(adj)

    # -- connectivity ---------------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        """Maximal connected vertex sets, ordered by smallest member."""
        return _components(self._adj.__getitem__, self._adj.keys())

    def is_connected(self) -> bool:
        return self.n <= 1 or len(_reach(self._adj.__getitem__, self._sorted[0])) == self.n


def _reach(
    neighbors: Callable[[int], Iterable[int]], start: int, within: Collection[int] | None = None
) -> set[int]:
    """Breadth-first closure of ``start`` (inside ``within`` if given)."""
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in neighbors(u):
            if w not in seen and (within is None or w in within):
                seen.add(w)
                queue.append(w)
    return seen


def _components(
    neighbors: Callable[[int], Iterable[int]], pool: Collection[int]
) -> list[frozenset[int]]:
    """Connected parts of the subgraph induced by ``pool``, ordered by smallest member."""
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for start in sorted(pool):
        if start not in seen:
            comp = _reach(neighbors, start, pool)
            seen |= comp
            out.append(frozenset(comp))
    return out
