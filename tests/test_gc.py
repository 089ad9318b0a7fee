"""The engine loop pauses the cyclic garbage collector for the length of a
run, so a run must leave nothing that only the collector could free.

Every engine with its built-in oracle is run once at threshold scale 1 and
once at a scale that splits. With the collector off, reference counting
alone has to free everything the run dropped: ``gc.collect()`` afterwards
finds nothing. The collector's state before a run is its state after it,
also where the run raises.
"""

from __future__ import annotations

import gc

import pytest

from atk.cli import build_oracle
from atk.errors import OracleRefused
from atk.friendly import approx_friendly_turing, builtin_instances
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.graph import Graph
from atk.kernels import (
    KernelConfig,
    approx_cvc_turing,
    approx_ecc_turing,
    approx_etp_turing,
    approx_is_turing,
    approx_vc_turing,
)
from atk.oracles import Oracle, exact_dp_oracle
from atk.treedecomp import TreeDecomposition

DIRECT = {
    "vc": approx_vc_turing,
    "is": approx_is_turing,
    "ecc": approx_ecc_turing,
    "etp": approx_etp_turing,
    "cvc": approx_cvc_turing,
}

# (engine, problem, oracle, connected, k, p, eps) -> ((n, scale) at scale 1, (n, scale) that splits)
CASES = {
    ("direct", "vc", "exact-dp", False, 2, 0.8, 0.5): ((40, 1.0), (80, 0.1)),
    ("direct", "is", "exact-dp", False, 2, 0.8, 0.5): ((40, 1.0), (80, 0.1)),
    ("direct", "ecc", "exact-tf-ecc", False, 1, 0.8, 0.5): ((40, 1.0), (80, 0.1)),
    ("direct", "ecc", "exact-tf-ecc", True, 1, 0.8, 0.5): ((40, 1.0), (80, 0.1)),
    ("direct", "etp", "exact-bf", False, 2, 0.9, 1.0): ((12, 1.0), (30, 0.01)),
    ("direct", "cvc", "exact-bf", True, 1, 0.6, 1.0): ((12, 1.0), (50, 0.01)),
    ("friendly", "vc", "exact-dp", False, 2, 0.8, 0.5): ((40, 1.0), (60, 0.1)),
    ("friendly", "is", "exact-dp", False, 2, 0.8, 0.5): ((40, 1.0), (60, 0.1)),
    ("friendly", "cc", "exact-bf", False, 2, 0.8, 1.0): ((12, 1.0), (30, 0.1)),
    ("friendly", "eds", "exact-bf", False, 1, 0.8, 1.0): ((12, 1.0), (30, 0.1)),
    ("friendly", "fvs", "exact-bf", False, 2, 0.8, 1.0): ((12, 1.0), (40, 0.01)),
    ("friendly", "hpack:k2", "exact-bf", False, 2, 0.8, 1.0): ((12, 1.0), (30, 0.1)),
    ("friendly", "hpack:k3", "exact-bf", False, 2, 0.8, 1.0): ((12, 1.0), (30, 0.1)),
    ("friendly", "hpack:p3", "exact-bf", False, 2, 0.8, 1.0): ((12, 1.0), (30, 0.1)),
}

RUNS = [
    pytest.param(case, n, scale, None,
                 id=f"{case[0]}-{case[1]}{'-connected' * case[3]}-n{n}-scale{scale}")
    for case, sizes in CASES.items()
    for n, scale in sizes
]
# etp at scale 1 on the larger instance: the kernel's query is over the
# oracle's cap, so the step falls back to the 3-approximation
RUNS.append(pytest.param(("direct", "etp", "exact-bf", False, 2, 0.9, 1.0), 30, 1.0,
                         "etp-kernel-refusal-3approx-fallback",
                         id="direct-etp-n30-scale1.0-fallback"))


def run(case, n: int, scale: float):
    engine, problem, oracle_name, connected, k, p, eps = case
    g, td = (gen_connected_partial_ktree if connected else gen_partial_ktree)(n, k, p, 0)
    oracle = build_oracle(oracle_name, problem)
    if engine == "direct":
        return DIRECT[problem](g, td, KernelConfig(eps, oracle, scale))
    return approx_friendly_turing(g, td, eps, builtin_instances()[problem], oracle, scale)


@pytest.mark.parametrize("case, n, scale, flag", RUNS)
def test_run_leaves_no_cyclic_garbage(case, n, scale, flag):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # whatever the run drops, reference counting alone must free
    try:
        report = run(case, n, scale)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    if scale != 1.0:
        assert report.recursion_depth > 0
    if flag is not None:
        assert flag in report.flags


def _spying_dp_oracle(seen: list[bool]) -> Oracle:
    inner = exact_dp_oracle()

    def fn(kind, g, td):
        seen.append(gc.isenabled())
        return inner.solve(kind, g, td)

    return Oracle("spy", inner.declared_ratio, inner.size_cap, fn)


def _run_ok():
    seen: list[bool] = []
    g, td = gen_partial_ktree(80, 2, 0.8, 0)
    approx_vc_turing(g, td, KernelConfig(0.5, _spying_dp_oracle(seen), 0.1))
    assert seen and not any(seen)  # paused while the oracle runs


def _run_over_cap():
    g, td = gen_partial_ktree(30, 2, 0.8, 0)  # cc's one query is over exhaustive search's cap
    approx_friendly_turing(g, td, 1.0, builtin_instances()["cc"], build_oracle("exact-bf", "cc"))


def _run_invalid_td():
    g = Graph(range(3), [(0, 1), (1, 2)])
    td = TreeDecomposition({0: {0, 1}, 1: {2}}, [(0, 1)])  # edge (1, 2) in no bag
    approx_vc_turing(g, td, KernelConfig(0.5, exact_dp_oracle()))


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "body, error",
    [(_run_ok, None), (_run_over_cap, OracleRefused), (_run_invalid_td, ValueError)],
    ids=["ok", "oracle-refused", "invalid-td"],
)
def test_collector_state_is_restored(enabled, body, error):
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            body()
        else:
            with pytest.raises(error, match="exceeds cap|invalid tree decomposition"):
                body()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()

