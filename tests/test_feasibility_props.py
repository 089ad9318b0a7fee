"""Property tests for the feasibility checks.

``is_feasible`` for ecc and cc checks each clique on its members'
neighbourhoods, and ecc's coverage as N(v) within the union of the cliques
holding v; it must give the verdict of the pair-by-pair references in
``helpers`` on intact covers and on corrupted ones. For vc and is it works on
neighbourhood sets; it must give the verdict of the edge-by-edge references
in ``helpers`` on feasible payloads, on corrupted ones and on random ones, and
so must cvc and fvs against references built on networkx. eds, etp and the
H-packings are checked against networkx references on greedy families and
corrupted ones.
"""

import random
from functools import partial
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from atk.problems import CLIQUE_COVER, CVC, ECC, FVS, IS, KINDS, VC, Solution, is_feasible
from helpers import (
    gnp_graph,
    reference_cc_feasible,
    reference_cvc_feasible,
    reference_ecc_feasible,
    reference_eds_feasible,
    reference_etp_feasible,
    reference_fvs_feasible,
    reference_hpack_feasible,
    reference_is_feasible,
    reference_vc_feasible,
)

CORRUPTIONS = (None, "drop-clique", "non-clique", "foreign-vertex", "empty-clique")


def _greedy_cover(g, rng):
    """One maximal clique grown from each edge, in a random vertex order."""
    order = list(g.vertices)
    rng.shuffle(order)
    family = set()
    for u, v in g.edges():
        clique = {u, v}
        for w in order:
            if all(g.has_edge(w, x) for x in clique):
                clique.add(w)
        family.add(frozenset(clique))
    return family


def _corrupt(g, family, kind, rng):
    if kind == "drop-clique" and family:
        family.discard(rng.choice(sorted(family, key=sorted)))
    elif kind == "non-clique" and g.n >= 2:
        family.add(frozenset(rng.sample(g.vertices, rng.randint(2, min(4, g.n)))))
    elif kind == "foreign-vertex":
        inside = {rng.choice(g.vertices)} if g.n else set()
        family.add(frozenset(inside | {max(g.vertices, default=0) + 1 + rng.randrange(3)}))
    elif kind == "empty-clique":
        family.add(frozenset())


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    corruptions=st.lists(st.sampled_from(CORRUPTIONS), max_size=3),
)
def test_ecc_feasibility_matches_reference(n, p, seed, corruptions):
    rng = random.Random(seed)
    g = gnp_graph(rng, n, p)
    family = _greedy_cover(g, rng)
    for kind in corruptions:
        _corrupt(g, family, kind, rng)
    payload = frozenset(family)
    sol = Solution(payload, len(payload))
    assert is_feasible(ECC, g, sol) == reference_ecc_feasible(g, payload)
    assert is_feasible(CLIQUE_COVER, g, sol) == reference_cc_feasible(g, payload)


def _vertex_payload(g, kind, rng):
    """A maximal independent set grown in a random order, or its complement
    (a vertex cover), or a random vertex subset."""
    if kind == "random":
        return {v for v in g.vertices if rng.random() < 0.5}
    order = list(g.vertices)
    rng.shuffle(order)
    indep = set()
    for v in order:
        if g.neighbors(v).isdisjoint(indep):
            indep.add(v)
    return indep if kind == "is" else set(g.vertices) - indep


VERTEX_CORRUPTIONS = (None, "drop", "add", "foreign-vertex", "non-int")


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 14),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    start=st.sampled_from(["vc", "is", "random"]),
    corruptions=st.lists(st.sampled_from(VERTEX_CORRUPTIONS), max_size=3),
)
def test_vc_and_is_feasibility_match_reference(n, p, seed, start, corruptions):
    rng = random.Random(seed)
    g = gnp_graph(rng, n, p)
    payload = _vertex_payload(g, start, rng)
    for kind in corruptions:
        if kind == "drop" and payload:
            payload.discard(rng.choice(sorted(payload, key=str)))
        elif kind == "add" and g.n:
            payload.add(rng.choice(g.vertices))
        elif kind == "foreign-vertex":
            payload.add(n + 1 + rng.randrange(3))
        elif kind == "non-int":
            payload.add("1")
    payload = frozenset(payload)
    sol = Solution(payload, len(payload))
    assert is_feasible(VC, g, sol) == reference_vc_feasible(g, payload)
    assert is_feasible(IS, g, sol) == reference_is_feasible(g, payload)
    assert is_feasible(CVC, g, sol) == reference_cvc_feasible(g, payload)
    assert is_feasible(FVS, g, sol) == reference_fvs_feasible(g, payload)


FAMILY_KINDS = ("eds", "etp", "hpack:k2", "hpack:k3", "hpack:p3")
FAMILY_CORRUPTIONS = (None, "drop", "random-member", "foreign-vertex", "empty-member")


def _greedy_family(g, size, fits, rng):
    """Members of ``size`` vertices that ``fits(member, family)`` accepts,
    tried over every vertex set of that size in a random order."""
    members = [frozenset(c) for c in combinations(g.vertices, size)]
    rng.shuffle(members)
    family = set()
    for member in members:
        if fits(member, family):
            family.add(member)
    return family


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    name=st.sampled_from(FAMILY_KINDS),
    corruptions=st.lists(st.sampled_from(FAMILY_CORRUPTIONS), max_size=3),
)
def test_family_feasibility_matches_reference(n, p, seed, name, corruptions):
    """eds, etp and the H-packings: a greedy packing or edge cover, then corrupted."""
    rng = random.Random(seed)
    g = gnp_graph(rng, n, p)
    kind = KINDS[name]
    if name == "eds":
        size, reference = 2, reference_eds_feasible
        family = {frozenset(e) for e in g.edges() if rng.random() < 0.5}
    else:
        if name == "etp":
            size, reference = 3, reference_etp_feasible
        else:
            size, reference = kind.pattern.n, partial(reference_hpack_feasible, pattern=kind.pattern)
        family = _greedy_family(g, size, lambda c, fam: reference(g, fam | {c}), rng)
    for corruption in corruptions:
        if corruption == "drop" and family:
            family.discard(rng.choice(sorted(family, key=sorted)))
        elif corruption == "random-member" and g.n >= size:
            family.add(frozenset(rng.sample(g.vertices, size)))
        elif corruption == "foreign-vertex":
            family.add(frozenset(rng.sample(g.vertices, min(size - 1, g.n))) | {n + 1})
        elif corruption == "empty-member":
            family.add(frozenset())
    payload = frozenset(family)
    assert is_feasible(kind, g, Solution(payload, len(payload))) == reference(g, payload)
