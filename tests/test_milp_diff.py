"""The MILP oracle of ``tests/helpers.py`` as an independent optimum, and the
scale-1 ratio checks it makes possible where the engines split.

Its values are first checked against the exhaustive searches within their
caps and against the treewidth DP for vc and is on a few hundred vertices.
Then etp, ecc and the friendly eds, cc and H-packing engines run at
threshold scale 1 on inputs where they cut at least once, with the MILP
oracle (c = 1) and with it made lossy (c = 2), and each result must be
within (1+eps)*c of the MILP optimum of the whole input.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atk.friendly import approx_friendly_turing, builtin_instances
from atk.generate import gen_partial_ktree
from atk.kernels import KernelConfig, approx_ecc_turing, approx_etp_turing
from atk.oracles import BRUTE_EDGE_CAP, brute_force_solve, lossy_wrap, td_dp_solve
from atk.problems import KINDS, is_feasible
from atk.treedecomp import make_nice
from helpers import gnp_graph, milp_oracle

MILP_KINDS = ["is", "vc", "etp", "eds", "ecc", "cc", "hpack:k2", "hpack:k3", "hpack:p3"]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 11), st.floats(0.0, 0.6), st.integers(0, 10_000),
       st.sampled_from(MILP_KINDS))
def test_milp_matches_the_exhaustive_searches(n, p, seed, name):
    g = gnp_graph(random.Random(seed), n, p)
    kind = KINDS[name]
    if name in ("etp", "ecc") and g.m > BRUTE_EDGE_CAP:
        return
    sol = milp_oracle().solve(kind, g)
    assert is_feasible(kind, g, sol)
    assert sol.value == brute_force_solve(kind, g).value


@settings(max_examples=25, deadline=None)
@given(st.integers(100, 300), st.integers(1, 3), st.integers(0, 10_000),
       st.sampled_from(["is", "vc"]))
def test_milp_matches_the_treewidth_dp(n, k, seed, name):
    g, td = gen_partial_ktree(n, k, 0.9, seed)
    kind = KINDS[name]
    sol = milp_oracle().solve(kind, g)
    assert is_feasible(kind, g, sol)
    assert sol.value == td_dp_solve(kind, g, make_nice(g, td)).value


# name: (n, k, seed, eps) of a gen_partial_ktree(n, k, 0.9, seed) input on which it cuts
SPLITS = {
    "etp": (1000, 2, 3, 1.0),
    "ecc": (1000, 2, 3, 0.5),
    "eds": (1000, 3, 7, 0.5),
    "cc": (300, 2, 3, 1.0),
    "hpack:k2": (500, 2, 3, 0.5),
    "hpack:k3": (500, 2, 3, 0.5),
    "hpack:p3": (500, 2, 3, 0.5),
}

DIRECT = {"etp": approx_etp_turing, "ecc": approx_ecc_turing}  # the rest run the friendly engine


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_scale_one_ratio_where_the_engine_splits(name):
    n, k, seed, eps = SPLITS[name]
    g, td = gen_partial_ktree(n, k, 0.9, seed)
    kind = KINDS[name]
    opt = milp_oracle().solve(kind, g).value
    for c in (1.0, 2.0):
        oracle = milp_oracle() if c == 1.0 else lossy_wrap(milp_oracle(), c)
        if name in DIRECT:
            rep = DIRECT[name](g, td, KernelConfig(eps, oracle))
        else:
            rep = approx_friendly_turing(g, td, eps, builtin_instances()[name], oracle)
        value = rep.solution.value
        assert rep.threshold_scale == 1.0
        assert rep.recursion_depth >= 1, (name, c)
        assert is_feasible(kind, g, rep.solution), (name, c)
        assert max(value / opt, opt / value) <= (1 + eps) * c, (name, c, value, opt)
