"""Differential test of the ecc and etp engines against the per-level engines.

Both engines run their split chains in one step on a view of the step's
nice decomposition; the references in ``helpers`` rebuild every level's
graph and decomposition. On random partial k-trees (k <= 3, n <= 120),
connected and not, at threshold scales 1, 0.1 and 0.01 both must give the
same report, or fail with the same error (the oracles refuse pieces with a
triangle or over their caps). Every cut of etp's chain must remove live
vertices: the walk never stops at a node without a live local vertex.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import atk.kernels as kernels
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.kernels import KernelConfig, approx_ecc_turing, approx_etp_turing
from atk.oracles import exact_brute_oracle, trianglefree_ecc_oracle
from helpers import reference_ecc_turing, reference_etp_turing

ENGINES = {
    "ecc": (approx_ecc_turing, reference_ecc_turing),
    "etp": (approx_etp_turing, reference_etp_turing),
}


def _outcome(engine, g, td, eps, oracle, scale):
    try:
        return engine(g, td, KernelConfig(eps, oracle(), scale)).to_dict()
    except Exception as exc:  # a refused query is an outcome too
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(ENGINES)),
    st.integers(1, 3),
    st.integers(0, 116),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from([1.0, 0.1, 0.01]),
    st.sampled_from([0.5, 1.0]),
)
def test_ecc_and_etp_match_the_per_level_engines(name, k, extra, p, seed, connected, scale, eps):
    gen = gen_connected_partial_ktree if connected else gen_partial_ktree
    g, td = gen(k + 1 + extra, k, p, seed)
    oracle = trianglefree_ecc_oracle if name == "ecc" and k == 1 else exact_brute_oracle
    new, ref = ENGINES[name]
    assert _outcome(new, g, td, eps, oracle, scale) == _outcome(ref, g, td, eps, oracle, scale)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 116),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.sampled_from([1.0, 0.1, 0.01]),
    st.sampled_from([0.5, 1.0]),
)
def test_every_etp_cut_removes_a_live_vertex(k, extra, p, seed, scale, eps):
    g, td = gen_partial_ktree(k + 1 + extra, k, p, seed)
    removed = []
    cut = kernels.Remainder.cut

    def counting_cut(rest, t, gone):
        before = len(rest.live)
        cut(rest, t, gone)
        removed.append(before - len(rest.live))

    with mock.patch.object(kernels.Remainder, "cut", counting_cut):
        rep = approx_etp_turing(g, td, KernelConfig(eps, exact_brute_oracle(), scale))
    assert len(removed) == rep.recursion_depth
    assert all(removed)
