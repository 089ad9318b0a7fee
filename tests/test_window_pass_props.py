"""Property tests for the one-pass direct vc and is engines.

On random partial k-trees (k <= 3, n <= 60), at scale 1 and at a small
scale, a run must return a feasible solution, give every query a valid
decomposition of its graph and report one recursion level per cut. At
scale 1 the audited query must stay within the declared bound and the
value within 1+eps of the optimum ``td_dp_solve`` finds.

Two differential tests hold the pass and ``NiceTreeDecomposition.restrict``
to the walks kept in ``helpers``, which built fresh sets or lists at every
node: the pass must make the same cuts in the same order and take the same
nodes, and ``restrict`` must build the same trees, node ids included,
leaving the taken set as it was.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from atk import kernels
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.kernels import KernelConfig, _window_pass, approx_is_turing, approx_vc_turing
from atk.oracles import Oracle, exact_dp_oracle, td_dp_solve
from atk.problems import IS, VC, is_feasible
from atk.treedecomp import NiceTreeDecomposition, make_nice, validate
from helpers import node_kind, reference_restrict_walk, reference_window_pass, subtree_nodes

ENGINES = {"vc": (approx_vc_turing, VC), "is": (approx_is_turing, IS)}


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 60))
    p = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 10_000))
    return gen_partial_ktree(n, k, p, seed)


@st.composite
def any_instances(draw):
    """Partial k-trees, k <= 3, connected or not."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 120))
    p = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 10_000))
    gen = gen_connected_partial_ktree if draw(st.booleans()) else gen_partial_ktree
    return gen(n, k, p, seed)


def _tree(ntd):
    return ntd.bags, ntd.pivots, ntd.children, ntd.root


@settings(max_examples=150, deadline=None)
@given(
    instances(),
    st.sampled_from(sorted(ENGINES)),
    st.sampled_from([1.0, 0.05]),
    st.sampled_from([0.5, 1.0]),
)
def test_window_pass_meets_the_guarantees(inst, problem, scale, eps):
    g, td = inst
    engine, kind = ENGINES[problem]
    inner = exact_dp_oracle()
    invalid = []

    def checking(k, q, q_td):
        if not validate(q, q_td).valid:
            invalid.append(q)
        return inner.solve(k, q, q_td)

    cuts = []
    query = kernels._query

    def counting(kind, q, ntd, *args, cut=None, **kwargs):
        if cut is not None and cut[0] != ntd.root:  # the root's piece is the last, not a cut
            cuts.append(cut[0])
        return query(kind, q, ntd, *args, cut=cut, **kwargs)

    oracle = Oracle("checking", 1.0, inner.size_cap, checking)
    with mock.patch.object(kernels, "_query", counting):
        rep = engine(g, td, KernelConfig(eps, oracle, scale))
    assert is_feasible(kind, g, rep.solution)
    assert not invalid
    assert rep.recursion_depth == len(cuts)
    if scale == 1.0:
        assert rep.max_query_vertices <= rep.declared_query_bound
        opt = td_dp_solve(kind, g, make_nice(g, td)).value
        if kind is VC:
            assert rep.solution.value <= (1 + eps) * opt
        else:
            assert (1 + eps) * rep.solution.value >= opt


def _recorded_pass(pass_fn, restrict, g, ntd, limit, matching):
    """Run ``pass_fn`` with a solve that cuts each piece's tree by
    ``restrict``; returns the result, every cut and the taken nodes."""
    seen, taken = [], set()

    def solve(piece, tree, cut, separator):
        t, taken_now = cut
        trees = restrict(tree, [piece.vertex_set], t, taken_now)
        seen.append((piece.vertex_set, t, separator, _tree(trees[0])))
        taken.add(id(taken_now))
        return piece.vertex_set | separator

    out = pass_fn(g, ntd, limit, matching, solve)
    assert len(taken) <= 1  # one taken set per pass
    return out, seen


@settings(max_examples=150, deadline=None)
@given(
    any_instances(),
    st.booleans(),
    st.sampled_from([1.0, 0.1, 0.01]),
    st.sampled_from([0.5, 1.0]),
)
def test_window_pass_matches_reference(inst, matching, scale, eps):
    g, td = inst
    ntd = make_nice(g, td)
    w = ntd.width
    if matching:  # the vc engine's window
        limit = 8.0 * (w + 1) / eps * scale
    else:  # the is engine's clamped window
        lo = (w + 1) ** 2 / eps * scale
        limit = max(10.0 * lo, 2.0 * max(lo, 1.0))
    took = {}

    def restrict(tree, parts, t, taken):
        took["change"] = taken
        return NiceTreeDecomposition.restrict(tree, parts, t, taken)

    def reference(tree, parts, t, taken):
        took["reference"] = taken
        return reference_restrict_walk(tree, parts, t, taken)

    got, seen = _recorded_pass(_window_pass, restrict, g, ntd, limit, matching)
    want, want_seen = _recorded_pass(reference_window_pass, reference, g, ntd, limit, matching)
    assert got == want
    assert seen == want_seen
    assert took.get("change") == took.get("reference")


@settings(max_examples=200, deadline=None)
@given(any_instances(), st.integers(0, 10_000))
def test_restrict_matches_reference_walk(inst, seed):
    g, td = inst
    ntd = make_nice(g, td)
    rng = random.Random(seed)
    n_parts = rng.randint(1, 3)
    labels = {v: rng.randrange(-1, n_parts) for v in g.vertices}  # -1: in no part
    parts = [frozenset(v for v, i in labels.items() if i == j) for j in range(n_parts)]
    t = rng.choice([None, rng.randrange(ntd.n_nodes)])
    taken = None
    if rng.random() < 0.7:
        taken = set()
        for s in rng.sample(range(ntd.n_nodes), rng.randint(0, 4)):
            taken.update(subtree_nodes(ntd, s) if rng.random() < 0.5 else (s,))
    mine = None if taken is None else set(taken)
    theirs = None if taken is None else set(taken)
    got = ntd.restrict(parts, t, mine)
    want = reference_restrict_walk(ntd, parts, t, theirs)
    assert [_tree(x) for x in got] == [_tree(x) for x in want]
    for x, ref in zip(got, want):  # every node's shape gives the kind the reference built
        assert [node_kind(x, s) for s in range(x.n_nodes)] == ref.labels
    assert mine == theirs == taken
