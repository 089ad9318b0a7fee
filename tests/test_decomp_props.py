"""Property tests for decomposition checking, the nice form, per-piece
decompositions and the descent walk.

``make_nice`` must build the tree of the node-at-a-time reference in
``helpers``, node ids included, on partial k-trees and on decompositions
padded with nested neighbouring bags and nodes of high degree, and every
node's kind, as its shape gives it, must be the kind the reference built.
A tree from ``make_nice`` or ``restrict`` with one node corrupted must be
reported by the nice-form checker and refused by the treewidth DP.

``validate`` is checked against the BFS-per-trace reference in ``helpers``
on generated decompositions, intact and corrupted; ``restrict`` must cut
a nice decomposition of its piece, with or without an earlier piece taken,
and of both remainder shapes, the engines' view of the input
(``Remainder``) must show every remainder of a chain of cuts of either
shape as ``restrict`` builds it, every join must list its lower-id child
first, and ``restrict`` must cut each component and any disjoint parts,
from any node and with any nodes taken, exactly as the bag-intersection
reference in ``helpers`` cuts each part alone. A fresh view must give
every node's local set exactly, whatever order the nodes are asked in, and
``descend`` must stop where the reference walk in ``helpers`` stops.
Restricting a piece's tree to a subset builds the tree one ``restrict``
from the input builds, so a query's decomposition is cut once. A chain of
cuts of a subconnected decomposition must leave the bags, children and V_t
that the reference in ``helpers`` rebuilds, and a subconnected
decomposition of the contracted graph.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atk.approx import degeneracy_is, greedy_matching, greedy_triangle_packing
from atk.errors import InternalInvariantViolation
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.graph import Graph
from atk.oracles import td_dp_solve
from atk.problems import VC
from atk.treedecomp import (
    NiceTreeDecomposition,
    Remainder,
    TreeDecomposition,
    descend,
    heuristic_td,
    make_nice,
    make_subconnected,
    validate,
)
from helpers import (
    node_kind,
    reference_cut_and_contract,
    reference_descend,
    reference_make_nice,
    reference_restrict,
    reference_subtree_vertices,
    reference_validate,
    subtree_nodes,
)

CORRUPTIONS = ("drop-vertex", "split-trace", "unshare-edge", "foreign-vertex")


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 40))
    p = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 10_000))
    return gen_partial_ktree(n, k, p, seed)


def _corrupt(g, bags, tree_adj, kind, rng):
    """Apply one corruption to ``bags`` (node -> set) in place."""
    nodes = sorted(bags)
    if kind == "drop-vertex":
        t = rng.choice(nodes)
        if bags[t]:
            bags[t].discard(rng.choice(sorted(bags[t])))
    elif kind == "split-trace":
        # put a vertex into a bag away from its trace
        v = rng.choice(g.vertices)
        far = [t for t in nodes if v not in bags[t] and not any(v in bags[s] for s in tree_adj[t])]
        if far:
            bags[rng.choice(far)].add(v)
    elif kind == "unshare-edge":
        edges = list(g.edges())
        if edges:
            u, v = rng.choice(edges)
            for t in nodes:
                if u in bags[t] and v in bags[t]:
                    bags[t].discard(rng.choice((u, v)))
    else:
        bags[rng.choice(nodes)].add(max(g.vertices) + 1 + rng.randrange(3))


@settings(max_examples=150, deadline=None)
@given(
    instances(),
    st.lists(st.sampled_from(CORRUPTIONS), max_size=3),
    st.sampled_from(("unrooted", "rooted", "random-root")),
    st.integers(0, 10_000),
)
def test_validate_matches_reference(inst, corruptions, rooting, salt):
    g, td = inst
    rng = random.Random(salt)
    bags = {t: set(b) for t, b in td.bags.items()}
    for kind in corruptions:
        _corrupt(g, bags, td.tree_adj, kind, rng)
    root = {"unrooted": None, "rooted": td.root, "random-root": rng.choice(td.nodes)}[rooting]
    bad = TreeDecomposition(bags, td.tree_edges, root=root)
    assert validate(g, bad) == reference_validate(g, bad)


@settings(max_examples=60, deadline=None)
@given(instances(), st.booleans(), st.integers(0, 10_000))
def test_validate_nice_matches_reference(inst, corrupt, salt):
    g, td = inst
    ntd = make_nice(g, td)
    if corrupt:
        rng = random.Random(salt)
        bags = list(ntd.bags)
        t = rng.randrange(ntd.n_nodes)
        if bags[t]:
            bags[t] = bags[t] - {rng.choice(sorted(bags[t]))}
        ntd = NiceTreeDecomposition(bags, ntd.pivots, ntd.children, ntd.root)
    assert validate(g, ntd) == reference_validate(g, ntd.as_td())


@st.composite
def padded_decompositions(draw):
    """A partial k-tree with its generator's or the min-degree decomposition,
    padded at random nodes: fresh vertices hung on part of a bag (nodes of
    degree over 3, so joins are binarized), leaves with a bag nested in
    their neighbour's, and tree edges subdivided by the two bags'
    intersection (both of which ``_shrink`` contracts)."""
    g, td = draw(instances())
    if draw(st.booleans()):
        td = heuristic_td(g)
    rng = random.Random(draw(st.integers(0, 10_000)))
    vertices, edges = list(g.vertices), list(g.edges())
    bags = {t: set(b) for t, b in td.bags.items()}
    tree_edges = list(td.tree_edges)
    for _ in range(draw(st.integers(0, 15))):
        t, new = rng.choice(sorted(bags)), max(bags) + 1
        pad = rng.randrange(3)
        if pad == 0:  # a fresh vertex adjacent to part of t's bag
            v = max(vertices) + 1
            nbrs = {u for u in bags[t] if rng.random() < 0.6}
            vertices.append(v)
            edges += [(u, v) for u in nbrs]
            bags[new] = nbrs | {v}
            tree_edges.append((t, new))
        elif pad == 1:  # a leaf with part of t's bag
            bags[new] = {u for u in bags[t] if rng.random() < 0.5}
            tree_edges.append((t, new))
        elif tree_edges:  # a tree edge subdivided
            a, b = tree_edges.pop(rng.randrange(len(tree_edges)))
            bags[new] = bags[a] & bags[b]
            tree_edges += [(a, new), (new, b)]
    return Graph(vertices, edges), TreeDecomposition(bags, tree_edges)


@settings(max_examples=200, deadline=None)
@given(padded_decompositions())
def test_make_nice_matches_the_builder_reference(inst):
    g, td = inst
    ntd, ref = make_nice(g, td), reference_make_nice(g, td)
    assert ntd.bags == ref.bags
    assert [node_kind(ntd, t) for t in range(ntd.n_nodes)] == ref.labels
    assert ntd.pivots == ref.pivots
    assert ntd.children == ref.children
    assert ntd.root == ref.root


@settings(max_examples=150, deadline=None)
@given(instances(), st.booleans(), st.sampled_from(("pivot", "stray-pivot", "add", "remove")),
       st.integers(0, 10_000))
def test_a_corrupted_nice_tree_is_refused(inst, restricted, how, salt):
    # A nice tree from make_nice or restrict with one node changed: a
    # one-child node's pivot replaced, a leaf or join given a pivot, or a
    # vertex added to or removed from a bag. The node's shape then fits no
    # kind, so the checker reports it and the DP refuses the tree before
    # its shape dispatch runs.
    g, td = inst
    rng = random.Random(salt)
    vertices, tree = g.vertices, make_nice(g, td)
    if restricted:
        piece = frozenset(v for v in vertices if rng.random() < 0.7) | {rng.choice(vertices)}
        [tree] = tree.restrict([piece])
        g = g.induced_subgraph(piece)
    bags, pivots = list(tree.bags), list(tree.pivots)
    if how == "pivot":
        t = rng.choice([s for s, kids in enumerate(tree.children) if len(kids) == 1])
        pivots[t] = rng.choice([u for u in vertices if u != pivots[t]])
    elif how == "stray-pivot":
        t = rng.choice([s for s, kids in enumerate(tree.children) if len(kids) != 1])
        pivots[t] = rng.choice(vertices)
    elif how == "add":
        t = rng.choice([s for s, bag in enumerate(bags) if len(bag) < len(vertices)])
        bags[t] = bags[t] | {rng.choice([u for u in vertices if u not in bags[t]])}
    else:
        t = rng.choice([s for s, bag in enumerate(bags) if bag])
        bags[t] = bags[t] - {rng.choice(sorted(bags[t]))}
    bad = NiceTreeDecomposition(bags, pivots, tree.children, tree.root)
    assert bad.nice_violations()
    with pytest.raises(ValueError, match="not a nice tree decomposition"):
        td_dp_solve(VC, g, bad)


@settings(max_examples=100, deadline=None)
@given(
    instances(),
    st.sampled_from(("local", "v_set", "local-sample", "anywhere")),
    st.booleans(),
    st.integers(0, 10_000),
)
def test_restrict_cuts_a_nice_decomposition_of_its_piece(inst, keep_kind, with_taken, salt):
    g, td = inst
    ntd = make_nice(g, td)
    idx = Remainder(g, ntd)
    rng = random.Random(salt)
    t = None if keep_kind == "anywhere" else rng.randrange(ntd.n_nodes)
    start = ntd.root if t is None else t
    taken = set()
    if with_taken:
        # an earlier piece's subtree: that of any node but t and its ancestors
        above, s = set(), start
        while s is not None:
            above.add(s)
            s = ntd.parent[s]
        others = [s for s in range(ntd.n_nodes) if s not in above]
        if others:
            taken = set(subtree_nodes(ntd, rng.choice(others)))
    gone = frozenset().union(*(ntd.bags[s] for s in taken))  # the earlier piece and its bag
    if keep_kind == "anywhere":
        keep = frozenset(v for v in g.vertices if rng.random() < 0.5) - gone
    elif keep_kind == "v_set":
        keep = frozenset(idx.local(t) | ntd.bags[t]) - gone
    else:
        keep = frozenset(idx.local(t)) - gone
        if keep_kind == "local-sample":
            keep = frozenset(v for v in keep if rng.random() < 0.5)
    before = set(taken)
    [piece] = ntd.restrict([keep], t, taken if with_taken else None)
    assert piece.nice_violations() == []
    assert validate(g.induced_subgraph(keep), piece).valid
    for u, kids in enumerate(piece.children):  # every introduce and forget changes its bag
        assert len(kids) != 1 or piece.bags[u] != piece.bags[kids[0]]
    if with_taken:
        visited = set(subtree_nodes(ntd, start)) - before
        assert taken == before | visited


def _nice_and_valid(g, ntd):
    return ntd.nice_violations() == [] and validate(g, ntd).valid


def _shape(ntd):
    return ntd.bags, ntd.pivots, ntd.children, ntd.root


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 10_000))
def test_nice_split_components_cuts_each_component(inst, salt):
    g, td = inst
    rng = random.Random(salt)
    # cutting vertices out leaves several components
    cut = frozenset(rng.sample(g.vertices, g.n // 4))
    rest = g.remove_vertices(cut)
    [whole] = make_nice(g, td).restrict([rest.vertex_set])
    comps = rest.connected_components()
    tds = whole.restrict(comps)
    assert len(tds) == len(comps)
    for comp, comp_td in zip(comps, tds):
        assert _nice_and_valid(rest.induced_subgraph(comp), comp_td)
        # its nodes are the cut nodes that meet the component, as restrict cuts them
        assert {b for b in comp_td.bags if b} == {b & comp for b in whole.bags if b & comp}
        assert _shape(comp_td) == _shape(reference_restrict(whole, comp))


@settings(max_examples=200, deadline=None)
@given(instances(), st.integers(1, 4), st.booleans(), st.floats(0.0, 0.3), st.integers(0, 10_000))
def test_restrict_matches_the_bag_intersection_reference(inst, n_parts, at_root, p_taken, salt):
    # Random disjoint parts (a vertex may be in none), a random start node
    # and random taken nodes: every part's tree is the reference's, node for
    # node, and both walks take the same nodes.
    g, td = inst
    ntd = make_nice(g, td)
    rng = random.Random(salt)
    label = {v: rng.randrange(n_parts + 1) for v in g.vertices}
    parts = [frozenset(v for v in g.vertices if label[v] == i) for i in range(n_parts)]
    t = None if at_root else rng.randrange(ntd.n_nodes)
    before = {s for s in range(ntd.n_nodes) if rng.random() < p_taken}
    taken = set(before)
    trees = ntd.restrict(parts, t, taken)
    assert len(trees) == len(parts)
    for part, tree in zip(parts, trees):
        ref_taken = set(before)
        assert _shape(tree) == _shape(reference_restrict(ntd, part, t, ref_taken))
        assert tree.nice_violations() == []
        assert taken == ref_taken
    assert [_shape(tree) for tree in ntd.restrict(parts, t)] == [
        _shape(reference_restrict(ntd, part, t)) for part in parts
    ]


@settings(max_examples=200, deadline=None)
@given(instances(), st.booleans(), st.floats(0.0, 0.3), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_restrict_of_a_restrict_is_one_restrict_from_the_input(
    inst, at_root, p_taken, p_keep, salt
):
    # A query's decomposition is cut once, from the input's: for keep a
    # subset of piece, restricting the piece's tree to keep builds the same
    # tree, ids included, as restricting the input's to keep, and both take
    # the same nodes.
    g, td = inst
    ntd = make_nice(g, td)
    rng = random.Random(salt)
    t = None if at_root else rng.randrange(ntd.n_nodes)
    before = {s for s in range(ntd.n_nodes) if rng.random() < p_taken}
    if t is None:
        piece = frozenset(v for v in g.vertices if rng.random() < 0.7)
    else:  # t's local set, as the engines' pieces are, or all of V_t
        piece = frozenset(Remainder(g, ntd).local(t))
        piece |= ntd.bags[t] if rng.random() < 0.5 else frozenset()
    keep = frozenset(v for v in piece if rng.random() < p_keep)
    once, twice = set(before), set(before)
    [direct] = ntd.restrict([keep], t, once)
    [piece_td] = ntd.restrict([piece], t, twice)
    [chained] = piece_td.restrict([keep])
    assert _shape(direct) == _shape(chained)
    assert once == twice


def _match_view(rest, g, cut):
    """Walk the restrict-built remainder ``cut`` of g and the view ``rest``
    of the input together. Each node of ``cut`` stands for a chain of view
    nodes, the ones restrict merged (one live child with the same live
    bag); every node of a chain must have the cut node's bag and local set,
    and the chain's last node its children, or none where the cut node
    grows from a leaf chain. Returns cut node -> (first, last)."""
    idx = Remainder(g, cut)
    match = {}
    stack = [(cut.root, rest.root)]
    while stack:
        u, s = stack.pop()
        first = s
        while True:
            assert rest.ntd.bags[s] & rest.live == cut.bags[u]
            assert rest.local(s) == idx.local(u)
            kids = rest[s]
            if len(kids) != 1 or rest.ntd.bags[kids[0]] & rest.live != cut.bags[u]:
                break
            s = kids[0]
        match[u] = first, s
        if kids:
            assert len(kids) == len(cut.children[u])
            stack.extend(zip(cut.children[u], kids))
        else:
            assert idx.live_local[u] == 0
    return match


@settings(max_examples=150, deadline=None)
@given(instances(), st.lists(st.booleans(), min_size=1, max_size=3), st.integers(0, 10_000))
def test_remainders_are_nice_decompositions_of_their_graph(inst, keep_bags, salt):
    # A remainder is cut from its piece's decomposition from the root: with
    # X_t kept (ecc, etp), taken is the nodes strictly below t; with V_t
    # removed (friendly), the subtree of t. Levels chain. The engines keep
    # their remainders as one view of the input instead; on any chain the
    # view must show each level's tree, with its width, and restrict from
    # the input must build that tree exactly.
    g, ntd = inst[0], make_nice(*inst)
    rng = random.Random(salt)
    view = Remainder(g, ntd)
    for keep_bag in keep_bags:
        match = _match_view(view, g, ntd)
        below_root = sorted(u for u, (_, last) in match.items() if last != view.root)
        if not below_root:  # the engines never cut at the root
            break
        t = rng.choice(below_root)
        s = rng.choice([x for x in match[t] if x != view.root])  # either end of t's chain
        local = view.local(s)
        idx = Remainder(g, ntd)
        assert local == idx.local(t)
        if rng.random() < 0.5:  # a query's cut takes s's subtree; etp's takes none
            view.ntd.restrict([local], s, view.taken)
        subtree = subtree_nodes(ntd, t)
        if keep_bag:
            view.cut(s, local)
            g = g.remove_vertices(local)
            [ntd] = ntd.restrict([g.vertex_set], taken=set(subtree[1:]))
        else:
            removed = local | (view.ntd.bags[s] & view.live)
            assert removed == idx.local(t) | ntd.bags[t]
            view.cut(s, removed)
            g = g.remove_vertices(removed)
            [ntd] = ntd.restrict([g.vertex_set], taken=set(subtree))
        assert _nice_and_valid(g, ntd)
        assert view.live == g.vertex_set
        assert view.width == ntd.width == max(view.live_bag) - 1
        assert _shape(view.ntd.restrict([view.live], None, set(view.taken))[0]) == _shape(ntd)
    _match_view(view, g, ntd)


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 10_000))
def test_every_join_has_its_lower_id_child_first(inst, salt):
    # descend breaks a tie to a join's first child, which is the lower id in
    # the trees make_nice and restrict build; so a walk over the input's ids
    # breaks ties as one over a rebuilt remainder's.
    g, td = inst
    ntd = make_nice(g, td)
    rng = random.Random(salt)
    keep = frozenset(v for v in g.vertices if rng.random() < 0.7)
    t = rng.randrange(ntd.n_nodes)
    cuts = ntd.restrict([keep, g.vertex_set - keep]) + ntd.restrict([keep], t)
    cuts += ntd.restrict([keep], None, {t})
    for tree in (ntd, *cuts):
        assert all(kids[0] < kids[1] for kids in tree.children if len(kids) == 2)


def _query_orders(ntd, rng):
    """Node orders for the index: random, children before parents, and
    parents first with each join's children taken in both orders."""
    nodes = list(range(ntd.n_nodes))
    rng.shuffle(nodes)
    flipped = [tuple(reversed(kids)) for kids in ntd.children]
    mirror = NiceTreeDecomposition(ntd.bags, ntd.pivots, flipped, ntd.root)
    return [nodes, ntd.postorder(), subtree_nodes(ntd, ntd.root), subtree_nodes(mirror, ntd.root)]


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 10_000))
def test_subtree_index_matches_a_fresh_scan_in_any_order(inst, salt):
    g, td = inst
    ntd = make_nice(g, td)
    rng = random.Random(salt)
    scan = {}
    for t in range(ntd.n_nodes):
        v_t = frozenset().union(*(ntd.bags[s] for s in subtree_nodes(ntd, t)))
        scan[t] = (v_t - ntd.bags[t], v_t)
    for order in _query_orders(ntd, rng):
        rest = Remainder(g, ntd)
        for t in order:
            assert rest.local(t) == scan[t][0]
            assert rest.local(t) | ntd.bags[t] == scan[t][1]
            assert rest.live_local[t] == len(scan[t][0])


def _size(g, local, bag):
    return len(local), None


def _vc_cover(g, local, bag):
    value, cover, _ = greedy_matching(g, local)
    return value, cover


def _etp_packing(g, local, bag):
    s3 = greedy_triangle_packing(g.induced_subgraph(local | bag).delete_edges_within(bag))
    return s3.value, s3.payload


def _is_phi(g, local, bag):
    sol = degeneracy_is(g.induced_subgraph(local))
    return sol.value, sol.payload


def _walk(walk):
    try:
        return walk()
    except InternalInvariantViolation as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(
    instances(),
    st.sampled_from((_size, _vc_cover, _etp_packing, _is_phi)),
    st.floats(0.0, 1.0),
    st.sampled_from((0.0, 0.5, 1.0)),
)
def test_descend_matches_the_reference_walk(inst, piece_measure, limit_frac, floor_frac):
    g, td = inst
    ntd = make_nice(g, td)
    rest = Remainder(g, ntd)
    limit = limit_frac * g.n
    floor = floor_frac * limit

    def by_node(t):
        return piece_measure(g, rest.local(t), ntd.bags[t])

    new = _walk(lambda: descend(ntd, by_node, limit, floor))
    ref = _walk(lambda: reference_descend(g, ntd, partial(piece_measure, g), limit, floor))
    if isinstance(ref, str):
        assert new == ref
    else:
        node, local, value, data = ref
        assert new == (node, value, data)
        assert rest.local(node) == local


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 76),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.lists(st.integers(0, 10_000), max_size=6),
)
def test_subconnected_cuts_match_the_rebuilt_reference(k, extra, p, seed, picks):
    g, td = gen_connected_partial_ktree(k + 1 + extra, k, p, seed)
    ntd = make_nice(g, td)
    sc = make_subconnected(g, ntd)
    for z, pick in enumerate(picks, start=max(g.vertices) + 1):
        live = sorted(t for t, bag in sc.bags.items() if bag)
        if not live:
            break
        t = live[pick % len(live)]
        ref = reference_cut_and_contract(sc.as_td(), t, z)
        x_t, v_t = sc.bags[t], sc.vsets[t]
        g = g.remove_vertices(v_t - x_t).identify_vertices(x_t, z)
        sc.cut(t, z)
        children, vsets = reference_subtree_vertices(ref)
        assert sc.bags == ref.bags
        assert sc.children == children and sc.vsets == vsets
        assert validate(g, sc).valid
        assert all(g.induced_subgraph(vs).is_connected() for vs in vsets.values())
        assert all(len(kids) <= 2 * ntd.width + 2 for kids in children.values())
