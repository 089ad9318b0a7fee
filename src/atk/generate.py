"""Random instance families with a certified decomposition.

A partial k-tree is built by iterated clique attachment and independent
edge deletion; the k-tree's natural decomposition (width exactly k) stays
valid for every subgraph, so generated instances come with their width
certificate for free.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph
from .treedecomp import TreeDecomposition

# The clique pool holds (k+1) + (n-k-1)*k sets of k vertices. At this many
# vertex slots a sample peaks at 0.29 GB with k = 3 and 0.54 GB with k = 2.
# With k >= 1 the pool has at least n slots, so the bound also keeps n within
# pace.MAX_GR_VERTICES (the same 10^6), the most a .gr may declare.
MAX_POOL_SLOTS = 1_000_000


def gen_partial_ktree(n: int, k: int, p: float, seed: int) -> tuple[Graph, TreeDecomposition]:
    """A random subgraph of a random k-tree plus the k-tree's decomposition.

    The seed clique on k+1 vertices is kept intact (certifying treewidth
    exactly k); every later attachment edge survives independently with
    probability p. Deterministic under the seed.
    """
    return _partial_ktree(n, k, p, seed, connected=False)


def gen_connected_partial_ktree(
    n: int, k: int, p: float, seed: int
) -> tuple[Graph, TreeDecomposition]:
    """Connected variant: one attachment edge per added vertex always
    survives, so the sample stays connected at any p."""
    return _partial_ktree(n, k, p, seed, connected=True)


def _partial_ktree(
    n: int, k: int, p: float, seed: int, connected: bool
) -> tuple[Graph, TreeDecomposition]:
    if n < k + 1:
        raise ValueError("need n >= k + 1")
    if not 0 <= p <= 1:
        raise ValueError("edge-keep probability must be in [0, 1]")
    if k < 1:
        raise ValueError("k must be at least 1")
    slots = k * (k + 1 + (n - k - 1) * k)
    if slots > MAX_POOL_SLOTS:
        raise ValueError(f"a {k}-tree on {n} vertices needs {slots} clique-pool slots, "
                         f"over the limit {MAX_POOL_SLOTS}")
    rng = random.Random(seed)
    seed_vertices = list(range(1, k + 2))
    seed_edges = [(u, v) for u, v in combinations(seed_vertices, 2)]
    bags: dict[int, frozenset[int]] = {0: frozenset(seed_vertices)}
    tree_edges: list[tuple[int, int]] = []
    # pool of k-cliques of the growing k-tree, with the bag that introduced each
    pool: list[tuple[frozenset[int], int]] = [
        (frozenset(c), 0) for c in combinations(seed_vertices, k)
    ]
    anchors: list[tuple[int, int]] = []
    optional: list[tuple[int, int]] = []
    for v in range(k + 2, n + 1):
        clique, home = pool[rng.randrange(len(pool))]
        node = v - k - 1
        bags[node] = clique | {v}
        tree_edges.append((home, node))
        members = sorted(clique)
        # the anchor is drawn here, between the pool draws, for either kind of
        # sample to stay reproducible under its seed
        anchor = members[rng.randrange(k)] if connected else None
        if connected:
            anchors.append((anchor, v))
        optional.extend((u, v) for u in members if u != anchor)
        for sub in combinations(members, k - 1):
            pool.append((frozenset(sub) | {v}, node))
    kept = anchors + [e for e in optional if rng.random() < p]
    g = Graph(range(1, n + 1), seed_edges + kept)
    td = TreeDecomposition(bags, tree_edges, root=0)
    return g, td
