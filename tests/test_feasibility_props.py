"""Property test for the edge clique cover feasibility check.

``is_feasible`` for ecc builds the set of covered vertex pairs once; it must
give the verdict of the edge-against-every-clique reference in ``helpers``
on intact covers and on corrupted ones.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from atk.problems import ECC, Solution, is_feasible
from helpers import gnp_graph, reference_ecc_feasible

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
    assert is_feasible(ECC, g, Solution(payload, len(payload))) == reference_ecc_feasible(g, payload)
