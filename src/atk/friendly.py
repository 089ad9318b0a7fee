"""The friendly-problem meta-framework.

A friendly problem bundles the four ingredients that make the generic
separator-splitting Turing kernel work: disjoint-union additivity with
split/merge, a bounded deletion effect f with an extend algorithm, a
reduce-and-lift kernel with size function h, and a phi-approximation.
Six built-in instances are provided; the engine itself is problem-blind.

The engine is one more step on the engine loop in ``kernels``: each level
is a piece on the loop's stack, so the Python stack stays flat however
deep the split chain goes. A problem's kernel slot holds its own
reduction where that is real; an empty slot queries the piece directly,
and the oracle refuses a piece over its size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .approx import (
    ApproximateKernel,
    clique_cover_kernel,
    clique_cover_trivial,
    degeneracy_is,
    eds_2approx,
    fvs_2approx,
    is_degeneracy_kernel,
    maximal_h_packing,
    vc_2approx,
    vc_nt_kernel,
)
from .graph import Graph
from .kernels import KernelConfig, RunReport, _drive, _query
from .oracles import Oracle
from .problems import (
    CLIQUE_COVER,
    EDS,
    FVS,
    IS,
    VC,
    ProblemKind,
    Solution,
    evaluate,
    h_packing,
    is_feasible,
    is_minimization,
)
from .treedecomp import (
    NiceTreeDecomposition,
    SubtreeIndex,
    TreeDecomposition,
    descend,
)


@dataclass(frozen=True)
class FriendlyProblem:
    """A problem descriptor satisfying the four friendliness conditions.

    ``psaks`` is the problem's reduce-and-lift kernel, or None where pieces
    are queried directly.
    """

    name: str
    kind: ProblemKind
    f: Callable[[float], float]
    phi: Callable[[float, int], float]
    phi_approx: Callable[[Graph], Solution]
    psaks: ApproximateKernel | None
    extend: Callable[[Graph, frozenset, Solution], Solution]

    @property
    def direction(self) -> str:
        return "min" if is_minimization(self.kind) else "max"

    def feasible(self, g: Graph, sol: Solution) -> bool:
        return is_feasible(self.kind, g, sol)

    def evaluate(self, g: Graph, sol: Solution) -> float:
        return evaluate(self.kind, g, sol.payload)

    def restrict_payload(self, payload: frozenset, keep: frozenset[int]) -> frozenset:
        if self.kind.name in ("vc", "is", "fvs"):
            return frozenset(v for v in payload if v in keep)
        return frozenset(c for c in payload if c <= keep)

    def split(
        self, g: Graph, g1: Graph, g2: Graph, sol: Solution
    ) -> tuple[Solution, Solution]:
        p1 = self.restrict_payload(sol.payload, g1.vertex_set)
        p2 = self.restrict_payload(sol.payload, g2.vertex_set)
        return Solution(p1, len(p1)), Solution(p2, len(p2))

    def merge(self, s1: Solution, s2: Solution) -> Solution:
        payload = s1.payload | s2.payload
        return Solution(payload, len(payload))


def _extend_add_vertices(g: Graph, x: frozenset, sol: Solution) -> Solution:
    return Solution.of_vertices(sol.payload | x)


def _extend_identity(g: Graph, x: frozenset, sol: Solution) -> Solution:
    return sol


def _extend_singletons(g: Graph, x: frozenset, sol: Solution) -> Solution:
    return Solution.of_family(set(sol.payload) | {frozenset([v]) for v in x})


def _extend_incident_edges(g: Graph, x: frozenset, sol: Solution) -> Solution:
    added = set(sol.payload)
    for v in sorted(x):
        nbrs = g.neighbors(v)
        if nbrs:
            added.add(frozenset((v, min(nbrs))))
    return Solution.of_edges(added)


def builtin_instances() -> dict[str, FriendlyProblem]:
    """The six built-in friendly problems.

    The kernel slots of vc, is and cc are real reductions; H-packing, fvs
    and eds have no kernel here and query their pieces directly.
    """
    k2 = Graph([0, 1], [(0, 1)])
    k3 = Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    p3 = Graph([0, 1, 2], [(0, 1), (1, 2)])
    reg = {
        "vc": FriendlyProblem(
            name="vc",
            kind=VC,
            f=lambda x: x,
            phi=lambda s, l: 2.0 * s,
            phi_approx=vc_2approx,
            psaks=vc_nt_kernel(),
            extend=_extend_add_vertices,
        ),
        "is": FriendlyProblem(
            name="is",
            kind=IS,
            f=lambda x: x,
            phi=lambda s, l: (l + 1.0) * s,
            phi_approx=degeneracy_is,
            psaks=is_degeneracy_kernel(),
            extend=_extend_identity,
        ),
        "cc": FriendlyProblem(
            name="cc",
            kind=CLIQUE_COVER,
            f=lambda x: x,
            phi=lambda s, l: (l + 1.0) * s,
            phi_approx=clique_cover_trivial,
            psaks=clique_cover_kernel(),
            extend=_extend_singletons,
        ),
        "fvs": FriendlyProblem(
            name="fvs",
            kind=FVS,
            f=lambda x: x,
            phi=lambda s, l: 2.0 * s,
            phi_approx=fvs_2approx,
            psaks=None,
            extend=_extend_add_vertices,
        ),
        "eds": FriendlyProblem(
            name="eds",
            kind=EDS,
            f=lambda x: x,
            phi=lambda s, l: 2.0 * s,
            phi_approx=eds_2approx,
            psaks=None,
            extend=_extend_incident_edges,
        ),
    }
    for label, pattern in (("k2", k2), ("k3", k3), ("p3", p3)):
        kind = h_packing(pattern)
        reg[f"hpack:{label}"] = FriendlyProblem(
            name=f"hpack:{label}",
            kind=kind,
            f=lambda x: x,
            phi=(lambda n_h: lambda s, l: n_h * s)(pattern.n),
            phi_approx=(lambda pat: lambda g: maximal_h_packing(g, pat))(pattern),
            psaks=None,
            extend=_extend_identity,
        )
    return reg


# ---------------------------------------------------------------------------
# The find-a-split-node subroutine, minimization and maximization forms
# ---------------------------------------------------------------------------


@dataclass
class SplitOutcome:
    direct: Solution | None
    node: int | None
    solution: Solution | None
    v_set: frozenset | None
    bag: frozenset | None


def _best(problem: FriendlyProblem, a: Solution, b: Solution) -> Solution:
    if problem.direction == "min":
        return a if a.value <= b.value else b
    return a if a.value >= b.value else b


def find_split_node(
    g: Graph,
    ntd: NiceTreeDecomposition,
    delta: float,
    problem: FriendlyProblem,
    oracle: Oracle,
    threshold_scale: float = 1.0,
) -> SplitOutcome:
    """Either solve g outright through the kernel slot, or find a node t
    whose local optimum is at least f(width+1)/delta along with a
    c(1+delta)-approximate local solution.

    The descent walks to the first node t whose phi-value is at most the
    budget threshold. At the root, g is solved outright with its
    decomposition ``ntd``; otherwise the one-child / join case analysis runs
    at t's parent, whose phi-value exceeds the threshold.
    """
    ell = ntd.width
    ff = problem.f
    k = (2.0 * ff(ell + 1) / delta + ff(1)) * threshold_scale
    phi_k = problem.phi(k, ell)
    budget = phi_k + ell
    maximize = problem.direction == "max"
    idx = SubtreeIndex(ntd)
    sols: dict[int, Solution] = {}

    def local_graph(t: int) -> Graph:
        return g.induced_subgraph(idx.local_vertices(t))

    def measure(t, _stop_above):
        sol = sols[t] = problem.phi_approx(local_graph(t))
        return sol.value, sol

    t, _, hint = descend(ntd, measure, k if maximize else phi_k)
    if t == ntd.root:
        sol = _query(problem.kind, g, ntd, oracle, problem.psaks, budget)
        return SplitOutcome(sol if maximize else _best(problem, sol, hint), None, None, None, None)
    p = ntd.parent[t]
    kids = ntd.children[p]
    if len(kids) == 2 and maximize:
        gp, g1, g2 = local_graph(p), local_graph(kids[0]), local_graph(kids[1])
        s1, s2 = problem.split(gp, g1, g2, sols[p])
        t = kids[0] if (s1.value, -kids[0]) >= (s2.value, -kids[1]) else kids[1]
    elif len(kids) == 2 and all(sols[c].value <= phi_k / 2 for c in kids):
        t = p
        hint = problem.merge(sols[kids[0]], sols[kids[1]])
    local = idx.local_vertices(t)
    sub = g.induced_subgraph(local)
    sol = _query(problem.kind, sub, ntd.restrict(local, t), oracle, problem.psaks, budget)
    if not maximize:
        sol = _best(problem, sol, hint)
    return SplitOutcome(None, t, sol, idx.v_set(t), ntd.bags[t])


# ---------------------------------------------------------------------------
# The generic Turing kernel
# ---------------------------------------------------------------------------


def approx_friendly_turing(
    g: Graph,
    td: TreeDecomposition,
    eps: float,
    problem: FriendlyProblem,
    oracle: Oracle,
    threshold_scale: float = 1.0,
) -> RunReport:
    """(1+eps)-approximate Turing kernel for any friendly problem.

    Each step splits at the node the find-node subroutine returns and
    pushes G - V_t, so the levels form a chain on the engine loop's stack.
    The solution is then folded back innermost first: plain union for
    maximization, and the problem's extend algorithm over each level's bag
    for minimization.
    """
    cfg = KernelConfig(eps, oracle, threshold_scale)
    delta = eps / 3.0

    def step(cur_g, ntd, flags):
        outcome = find_split_node(cur_g, ntd, delta, problem, cfg.oracle, threshold_scale)
        if outcome.direct is not None:
            return (None, None, outcome.direct), (), False
        rest_g = cur_g.remove_vertices(outcome.v_set)
        rest_td = ntd.restrict(rest_g.vertex_set, taken=set(ntd.subtree_nodes(outcome.node)))
        return (cur_g, outcome.bag, outcome.solution), [(rest_g, rest_td)], True

    def assemble(parts):
        *levels, (_, _, solution) = parts
        for cur_g, bag, part in reversed(levels):
            solution = problem.merge(solution, part)
            if problem.direction == "min":
                solution = problem.extend(cur_g, bag, solution)
        return solution

    def bounds(width):
        declared = None
        if problem.psaks is not None:
            k0 = 6.0 * problem.f(width + 1) / eps + problem.f(1)
            declared = problem.psaks.size_fn(delta, problem.phi(k0, width) + width)
        budget_k = (2.0 * problem.f(width + 1) / delta + problem.f(1)) * threshold_scale
        return declared, {"budget_k": budget_k}

    return _drive(problem.name, problem.kind, g, td, cfg, step, assemble, bounds)
