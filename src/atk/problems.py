"""Problem kinds, solution values, and feasibility checking.

A solution is a tagged payload (vertex set, edge set, or family of vertex
sets) together with its objective value; the value always equals the
payload's size, for every kind here, except for the infeasible sentinel
whose value is +inf.

Each kind carries its ``ProblemRecord`` from ``RECORDS``; code that treats
kinds differently reads the record, and never tests a kind's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import Graph

H_PACKING_MAX_PATTERN = 4


class ProblemKind:
    """A problem tag and its record; H-packing also carries its pattern graph."""

    __slots__ = ("name", "pattern", "record", "_key")

    def __init__(self, name: str, pattern: Graph | None = None):
        self.name = name
        self.pattern = pattern
        self.record = RECORDS[name]
        if pattern is None:
            self._key = (name, None)
        else:
            self._key = (name, (pattern.vertices, tuple(pattern.edges())))

    def __eq__(self, other: object):
        if isinstance(other, ProblemKind):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ProblemKind({self.name!r})"


@dataclass(frozen=True)
class Solution:
    """A payload plus its objective value."""

    payload: frozenset
    value: float

    @staticmethod
    def of_vertices(vs: Iterable[int]) -> "Solution":
        p = frozenset(vs)
        return Solution(p, len(p))

    @staticmethod
    def of_family(fam: Iterable[Iterable[int]]) -> "Solution":
        p = frozenset(frozenset(c) for c in fam)
        return Solution(p, len(p))

    @staticmethod
    def no_solution() -> "Solution":
        return Solution(frozenset(), math.inf)

    @property
    def infeasible(self) -> bool:
        return self.value == math.inf

    def union(self, other: "Solution") -> "Solution":
        """The solution holding both payloads, as of a disjoint union."""
        payload = self.payload | other.payload
        return Solution(payload, len(payload))


def pattern_copies(g: Graph, pattern: Graph) -> list[frozenset[int]]:
    """The vertex sets of g holding a copy of the connected ``pattern`` (not
    necessarily induced), each once, by sorted tuple. The pattern is placed
    breadth first, each image after the first a neighbour of an earlier one:
    adjacency listing after Chiba and Nishizeki (SIAM J. Comput. 1985)."""
    order = [pattern.vertices[0]]
    for a in order:  # breadth first: the list grows as it is read
        order.extend(sorted(pattern.neighbors(a) - set(order)))
    back = [[j for j in range(i) if pattern.has_edge(v, order[j])] for i, v in enumerate(order)]
    found: set[frozenset[int]] = set()
    stack = [(v,) for v in g.vertices]
    while stack:  # a partial image of ``order``
        images = stack.pop()
        if len(images) == len(order):
            found.add(frozenset(images))
            continue
        first, *rest = back[len(images)]
        stack.extend(images + (w,) for w in g.neighbors(images[first])
                     if w not in images and all(g.has_edge(w, images[j]) for j in rest))
    return sorted(found, key=sorted)


def _vc_feasible(kind: ProblemKind, g: Graph, payload: frozenset) -> bool:
    return all(v in payload or g.neighbors(v) <= payload for v in g.vertices)


def _is_feasible(kind: ProblemKind, g: Graph, payload: frozenset) -> bool:
    return all(g.neighbors(v).isdisjoint(payload) for v in payload)


def _cvc_feasible(kind: ProblemKind, g: Graph, payload: frozenset) -> bool:
    return _vc_feasible(kind, g, payload) and (
        len(payload) <= 1 or g.induced_subgraph(payload).is_connected())


def _fvs_feasible(kind: ProblemKind, g: Graph, payload: frozenset) -> bool:
    rest = g.remove_vertices(payload)
    return rest.m == rest.n - len(rest.connected_components())


def _eds_feasible(kind: ProblemKind, g: Graph, payload: frozenset) -> bool:
    if not all(len(e) == 2 and g.has_edge(*e) for e in map(frozenset, payload)):
        return False
    covered = {v for e in payload for v in e}
    return all(u in covered or v in covered for u, v in g.edges())


def _clique_cover_feasible(g: Graph, payload: frozenset, of_edges: bool) -> bool:
    """Whether ``payload`` holds nonempty cliques of g only, together covering
    every edge (``of_edges``) or every vertex of g."""
    around: dict[int, set[int]] = {}  # vertex -> the union of the cliques holding it
    for c in payload:
        if not c:
            return False
        for v in c:  # every other member of a clique is a neighbour of v
            if not g.has_vertex(v) or c - g.neighbors(v) != {v}:
                return False
            around.setdefault(v, set()).update(c)
    if not of_edges:
        return len(around) == g.n
    return all(g.neighbors(v) <= around[v] if v in around else not g.neighbors(v)
               for v in g.vertices)


def _etp_feasible(kind: ProblemKind, g: Graph, payload: frozenset) -> bool:
    used: set[frozenset[int]] = set()
    for t in map(frozenset, payload):
        if len(t) != 3 or not all(g.has_vertex(v) and t - g.neighbors(v) == {v} for v in t):
            return False
        a, b, c = sorted(t)
        sides = {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))}
        if sides & used:
            return False
        used |= sides
    return True


def _hpack_feasible(kind: ProblemKind, g: Graph, payload: frozenset) -> bool:
    used: set[int] = set()
    for copy in map(frozenset, payload):
        if copy & used or not all(map(g.has_vertex, copy)):
            return False
        if copy not in pattern_copies(g.induced_subgraph(copy), kind.pattern):
            return False
        used |= copy
    return True


@dataclass(frozen=True)
class ProblemRecord:
    """What a problem kind is; its exhaustive search is in ``oracles.SEARCHES``."""

    minimize: bool  # the direction
    family: bool  # a payload is a family of vertex sets, not a vertex set
    feasible: Callable[[ProblemKind, Graph, frozenset], bool]
    # (g, payload) -> extras, in order, a lossy oracle may add to a minimization answer
    pad: Callable[[Graph, set], Iterable] | None = None
    exact_dp: bool = False  # the treewidth DP of the exact-dp oracle answers the kind

    def __post_init__(self):
        if not self.family:  # a vertex set must hold vertices of g only
            rule = self.feasible
            object.__setattr__(self, "feasible", lambda kind, g, payload: all(
                isinstance(v, int) and g.has_vertex(v) for v in payload) and rule(kind, g, payload))


RECORDS = {  # name: (minimize, family, feasible, pad, exact_dp)
    "vc": ProblemRecord(True, False, _vc_feasible, lambda g, s: g.vertices, exact_dp=True),
    "is": ProblemRecord(False, False, _is_feasible, exact_dp=True),
    "ecc": ProblemRecord(True, True, lambda kind, g, s: _clique_cover_feasible(g, s, True),
                         lambda g, s: (frozenset([v]) for v in g.vertices)),
    "etp": ProblemRecord(False, True, _etp_feasible),
    "cvc": ProblemRecord(True, False, _cvc_feasible, lambda g, s: (  # next to the cover
        v for v in g.vertices if not s or g.neighbors(v) & s)),
    "fvs": ProblemRecord(True, False, _fvs_feasible, lambda g, s: g.vertices),
    "eds": ProblemRecord(True, True, _eds_feasible, lambda g, s: map(frozenset, g.edges())),
    "cc": ProblemRecord(True, True, lambda kind, g, s: _clique_cover_feasible(g, s, False),
                        lambda g, s: (frozenset([v]) for v in g.vertices)),
    "hpack": ProblemRecord(False, True, _hpack_feasible),
}


def h_packing(pattern: Graph) -> ProblemKind:
    if pattern.n == 0 or pattern.n > H_PACKING_MAX_PATTERN:
        raise ValueError(f"packing pattern must have 1..{H_PACKING_MAX_PATTERN} vertices")
    if not pattern.is_connected():
        raise ValueError("packing pattern must be connected")
    return ProblemKind("hpack", pattern)


VC = ProblemKind("vc")
IS = ProblemKind("is")
ECC = ProblemKind("ecc")
ETP = ProblemKind("etp")
CVC = ProblemKind("cvc")
FVS = ProblemKind("fvs")
EDS = ProblemKind("eds")
CLIQUE_COVER = ProblemKind("cc")

KINDS = {kind.name: kind for kind in (VC, IS, ECC, ETP, CVC, FVS, EDS, CLIQUE_COVER)}
KINDS["hpack:k2"] = h_packing(Graph([0, 1], [(0, 1)]))
KINDS["hpack:k3"] = h_packing(Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)]))
KINDS["hpack:p3"] = h_packing(Graph([0, 1, 2], [(0, 1), (1, 2)]))


def is_minimization(kind: ProblemKind) -> bool:
    return kind.record.minimize


def is_feasible(kind: ProblemKind, g: Graph, sol: Solution) -> bool:
    """Feasibility of a solution for an instance; sentinels are infeasible."""
    return not sol.infeasible and kind.record.feasible(kind, g, sol.payload)
