"""Differential test of the friendly engine against the per-level engine.

The engine runs its whole split chain on a view of the input's nice
decomposition, with phi cached per node and merged from a join's two
sides. The reference in ``helpers`` rebuilds each level's graph and
decomposition and measures phi in full on each node's own set. Both skip
phi on a node whose local size puts ``phi_floor`` over the window, and
measure it by that size. On random partial k-trees
(k <= 3, n <= 120) at threshold scales 1, 0.1 and 0.01 both must give the
same report, or fail with the same error (exhaustive search refuses
queries over its cap). The H-packing problems, whose phi tries every
vertex tuple of a set, run on a grid of their own with n <= 40.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from atk.cli import build_oracle
from atk.friendly import approx_friendly_turing, builtin_instances
from atk.generate import gen_partial_ktree
from helpers import reference_friendly_turing

ORACLES = {
    "is": "exact-dp", "vc": "exact-dp", "cc": "exact-bf", "eds": "exact-bf", "fvs": "exact-bf",
}
H_PACKING = ["hpack:k2", "hpack:k3", "hpack:p3"]  # exact-bf, on their own grid


def _outcome(engine, g, td, eps, name, scale):
    problem = builtin_instances()[name]
    try:
        oracle = build_oracle(ORACLES.get(name, "exact-bf"), name)
        return engine(g, td, eps, problem, oracle, scale).to_dict()
    except Exception as exc:  # a refused query is an outcome too
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(ORACLES)),
    st.integers(1, 3),
    st.integers(0, 116),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.sampled_from([1.0, 0.1, 0.01]),
    st.sampled_from([0.5, 1.0]),
)
def test_friendly_engine_matches_the_per_level_engine(name, k, extra, p, seed, scale, eps):
    g, td = gen_partial_ktree(k + 1 + extra, k, p, seed)
    new = _outcome(approx_friendly_turing, g, td, eps, name, scale)
    assert new == _outcome(reference_friendly_turing, g, td, eps, name, scale)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(H_PACKING),
    st.integers(1, 3),
    st.integers(0, 36),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.sampled_from([1.0, 0.1, 0.01]),
    st.sampled_from([0.5, 1.0]),
)
def test_friendly_h_packing_matches_the_per_level_engine(name, k, extra, p, seed, scale, eps):
    g, td = gen_partial_ktree(k + 1 + extra, k, p, seed)
    new = _outcome(approx_friendly_turing, g, td, eps, name, scale)
    assert new == _outcome(reference_friendly_turing, g, td, eps, name, scale)
