"""Property tests for the engines that split one piece per step.

ecc on forests with the triangle-free oracle, etp, cvc and direct vc and
is with exhaustive search, and the friendly vc, is and cc run on random
partial k-trees (k <= 3, n <= 60; n <= 18, the vertex cap, where queries
go to exhaustive search, and k = 1 for cvc, whose guard splits no wider
graph that small) at scale 1 and at two small scales, the smaller one so
that etp and cvc split too. A run must return a feasible solution and run
its engine's step once, on a nice decomposition valid for the input, and
every tree ``restrict`` cuts during the run must be nice and valid for
G[part]. At scale 1 the audited query must stay within the declared bound
where one is declared, and the value within 1+eps of ``cli.compute_opt``
where that finds the optimum. The exhaustive and triangle-free oracles read
no decomposition, so no query tree is cut for them; a run may wrap the
oracle as one that reads it, which must not change the report.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import atk.friendly as friendly
import atk.kernels as kernels
from atk.cli import build_oracle, compute_opt
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.problems import CLIQUE_COVER, CVC, ECC, ETP, IS, VC, is_feasible, is_minimization
from atk.treedecomp import NiceTreeDecomposition, validate
from helpers import reading

# name -> (engine, problem, kind, oracle, largest k, largest n, connected input)
CASES = {
    "ecc": ("direct", "ecc", ECC, "exact-tf-ecc", 1, 60, False),
    "etp": ("direct", "etp", ETP, "exact-bf", 3, 18, False),
    "cvc": ("direct", "cvc", CVC, "exact-bf", 1, 18, True),
    "vc": ("direct", "vc", VC, "exact-bf", 3, 18, False),
    "is": ("direct", "is", IS, "exact-bf", 3, 18, False),
    "friendly-vc": ("friendly", "vc", VC, "exact-dp", 3, 60, False),
    "friendly-is": ("friendly", "is", IS, "exact-dp", 3, 60, False),
    "friendly-cc": ("friendly", "cc", CLIQUE_COVER, "exact-bf", 3, 18, False),
}


@st.composite
def runs(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    *_, max_k, max_n, connected = CASES[name]
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k + 1, max_n))
    p = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 10_000))
    gen = gen_connected_partial_ktree if connected else gen_partial_ktree
    return name, gen(n, k, p, seed)


def _nice_and_valid(g, ntd):
    return (
        isinstance(ntd, NiceTreeDecomposition)
        and ntd.nice_violations() == []
        and validate(g, ntd).valid
    )


def _checking(steps, cut):
    """A ``_drive`` that records, for every step, whether its decomposition
    is nice and valid for its graph, and for every tree ``restrict`` cuts,
    whether it is nice and valid for G[part]."""
    drive, restrict = kernels._drive, NiceTreeDecomposition.restrict

    def checking_drive(problem, kind, g, td, cfg, step, bounds):
        def checked(cur_g, ntd, flags):
            steps.append(_nice_and_valid(cur_g, ntd))
            return step(cur_g, ntd, flags)

        def checked_restrict(ntd, parts, t=None, taken=None):
            trees = restrict(ntd, parts, t, taken)
            cut.extend(_nice_and_valid(g.induced_subgraph(p), d) for p, d in zip(parts, trees))
            return trees

        with mock.patch.object(NiceTreeDecomposition, "restrict", checked_restrict):
            return drive(problem, kind, g, td, cfg, checked, bounds)

    return checking_drive


def _run(engine, problem, g, td, eps, oracle, scale):
    if engine == "direct":
        run_engine = getattr(kernels, f"approx_{problem}_turing")
        return run_engine(g, td, kernels.KernelConfig(eps, oracle, scale))
    instance = friendly.builtin_instances()[problem]
    return friendly.approx_friendly_turing(g, td, eps, instance, oracle, scale)


@settings(max_examples=200, deadline=None)
@given(runs(), st.sampled_from([1.0, 0.05, 0.01]), st.sampled_from([0.5, 1.0]), st.booleans())
def test_split_engines_meet_the_guarantees(run, scale, eps, reader):
    name, (g, td) = run
    engine, problem, kind, oracle_name, *_ = CASES[name]
    o = build_oracle(oracle_name, problem)
    oracle = reading(o) if reader else o
    steps, cut = [], []
    drive = _checking(steps, cut)
    with mock.patch.object(kernels, "_drive", drive), mock.patch.object(friendly, "_drive", drive):
        rep = _run(engine, problem, g, td, eps, oracle, scale)
    if reader:  # a tree cut for the oracle or not, the run is the same
        assert rep.to_dict() == _run(engine, problem, g, td, eps, o, scale).to_dict()
    assert steps == [True]
    assert all(cut)
    assert is_feasible(kind, g, rep.solution)
    if scale != 1.0:
        return
    if rep.declared_query_bound is not None:
        assert rep.max_query_vertices <= rep.declared_query_bound
    opt = compute_opt(problem, g, td)
    if opt is not None:
        value = rep.solution.value
        if is_minimization(kind):
            assert value <= (1 + eps) * opt
        else:
            assert (1 + eps) * value >= opt
