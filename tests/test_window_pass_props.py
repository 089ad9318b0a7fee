"""Property tests for the one-pass direct vc and is engines.

On random partial k-trees (k <= 3, n <= 60), at scale 1 and at a small
scale, a run must return a feasible solution, give every query a valid
decomposition of its graph and report one recursion level per cut. At
scale 1 the audited query must stay within the declared bound and the
value within 1+eps of the optimum ``td_dp_solve`` finds.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from atk.generate import gen_partial_ktree
from atk.kernels import KernelConfig, approx_is_turing, approx_vc_turing
from atk.oracles import Oracle, exact_dp_oracle, td_dp_solve
from atk.problems import IS, VC, is_feasible
from atk.treedecomp import NiceTreeDecomposition, make_nice, validate

ENGINES = {"vc": (approx_vc_turing, VC), "is": (approx_is_turing, IS)}


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 60))
    p = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 10_000))
    return gen_partial_ktree(n, k, p, seed)


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
    restrict = NiceTreeDecomposition.restrict

    def counting(ntd, parts, t=None, taken=None):
        if taken is not None and t != ntd.root:  # the root's piece is the last query, not a cut
            cuts.append(t)
        return restrict(ntd, parts, t, taken)

    oracle = Oracle("checking", 1.0, inner.size_cap, checking)
    with mock.patch.object(NiceTreeDecomposition, "restrict", counting):
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
