"""Problem kinds, solution values, and feasibility checking.

A solution is a tagged payload (vertex set, edge set, or family of vertex
sets) together with its objective value; the value always equals the
payload's size, for every kind here, except for the infeasible sentinel
whose value is +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable

from .graph import Graph

H_PACKING_MAX_PATTERN = 4


class ProblemKind:
    """A problem tag; H-packing additionally carries its pattern graph."""

    __slots__ = ("name", "pattern", "_key")

    def __init__(self, name: str, pattern: Graph | None = None):
        self.name = name
        self.pattern = pattern
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


VC = ProblemKind("vc")
IS = ProblemKind("is")
ECC = ProblemKind("ecc")
ETP = ProblemKind("etp")
CVC = ProblemKind("cvc")
FVS = ProblemKind("fvs")
EDS = ProblemKind("eds")
CLIQUE_COVER = ProblemKind("cc")

KINDS = {kind.name: kind for kind in (VC, IS, ECC, ETP, CVC, FVS, EDS, CLIQUE_COVER)}

MINIMIZATION = {"vc", "ecc", "cvc", "fvs", "eds", "cc"}


def h_packing(pattern: Graph) -> ProblemKind:
    if pattern.n == 0 or pattern.n > H_PACKING_MAX_PATTERN:
        raise ValueError(f"packing pattern must have 1..{H_PACKING_MAX_PATTERN} vertices")
    if not pattern.is_connected():
        raise ValueError("packing pattern must be connected")
    return ProblemKind("hpack", pattern)


def is_minimization(kind: ProblemKind) -> bool:
    return kind.name in MINIMIZATION


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


def contains_pattern(g: Graph, vs: frozenset[int], pattern: Graph) -> bool:
    """True if g[vs] contains ``pattern`` as a (not necessarily induced) subgraph."""
    if len(vs) != pattern.n:
        return False
    slots = sorted(vs)
    pat = pattern.vertices
    for perm in permutations(slots):
        assign = dict(zip(pat, perm))
        if all(g.has_edge(assign[a], assign[b]) for a, b in pattern.edges()):
            return True
    return False


def is_feasible(kind: ProblemKind, g: Graph, sol: Solution) -> bool:
    """Feasibility of a solution for an instance; sentinels are infeasible."""
    if sol.infeasible:
        return False
    payload = sol.payload
    name = kind.name
    if name in ("vc", "is", "cvc", "fvs"):
        if not all(isinstance(v, int) and g.has_vertex(v) for v in payload):
            return False
    if name == "vc":
        return all(v in payload or g.neighbors(v) <= payload for v in g.vertices)
    if name == "is":
        return all(g.neighbors(v).isdisjoint(payload) for v in payload)
    if name == "cvc":
        if not all(u in payload or v in payload for u, v in g.edges()):
            return False
        if len(payload) <= 1:
            return True
        return g.induced_subgraph(payload).is_connected()
    if name == "fvs":
        return _is_forest(g.remove_vertices(payload))
    if name == "eds":
        for e in payload:
            e = frozenset(e)
            if len(e) != 2:
                return False
            u, v = sorted(e)
            if not g.has_edge(u, v):
                return False
        covered = {v for e in payload for v in e}
        return all(u in covered or v in covered for u, v in g.edges())
    if name in ("ecc", "cc"):
        around: dict[int, set[int]] = {}  # vertex -> the union of the cliques holding it
        for c in payload:
            if not c:
                return False
            for v in c:  # every other member of a clique is a neighbour of v
                if not g.has_vertex(v) or c - g.neighbors(v) != {v}:
                    return False
                around.setdefault(v, set()).update(c)
        if name == "cc":
            return len(around) == g.n
        return all(g.neighbors(v) <= around[v] if v in around else not g.neighbors(v)
                   for v in g.vertices)
    if name == "etp":
        used: set[frozenset[int]] = set()
        for t in payload:
            t = frozenset(t)
            if len(t) != 3 or not all(g.has_vertex(v) and t - g.neighbors(v) == {v} for v in t):
                return False
            a, b, c = sorted(t)
            for e in (frozenset((a, b)), frozenset((a, c)), frozenset((b, c))):
                if e in used:
                    return False
                used.add(e)
        return True
    if name == "hpack":
        pattern = kind.pattern
        used_v: set[int] = set()
        for copy in payload:
            copy = frozenset(copy)
            if not all(g.has_vertex(v) for v in copy):
                return False
            if copy & used_v:
                return False
            if not contains_pattern(g, copy, pattern):
                return False
            used_v |= copy
        return True
    raise ValueError(f"unknown problem kind {name}")


def _is_forest(g: Graph) -> bool:
    return g.m == g.n - len(g.connected_components())
