"""The friendly-problem meta-framework.

A friendly problem bundles the four ingredients that make the generic
separator-splitting Turing kernel work: additivity over disjoint unions,
a deletion effect of at most |X| with an extend algorithm (minimization
only), a reduce-and-lift kernel with size function h, and a
phi-approximation, with a floor on its value by graph size and width where
one is known. Six built-in instances are provided; the engine itself is
problem-blind, and runs phi only on nodes whose live local size leaves the
split search undecided, once per vertex set that no join splits.

The engine is one step on the engine loop in ``kernels`` that runs the
whole split chain as a loop over the input's nice decomposition, so the
Python stack stays flat however deep the chain goes. A problem's kernel
slot holds its own reduction where that is real; an empty slot queries
the piece directly, and the oracle refuses a piece over its size cap.
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
    KINDS,
    VC,
    ProblemKind,
    Solution,
    is_minimization,
)
from .treedecomp import Remainder, TreeDecomposition, descend


@dataclass(frozen=True)
class FriendlyProblem:
    """A problem descriptor satisfying the four friendliness conditions.

    ``phi_approx(g, within=None)`` approximates G[within] (all of g by
    default), and returns at most the graph's vertex count. ``phi_floor(size,
    width)``, where declared, is at most what ``phi_approx`` returns on any
    graph with ``size`` vertices and treewidth at most ``width`` (-1 for
    the empty graph). ``psaks`` is the problem's reduce-and-lift kernel, or
    None where pieces are queried directly. Every problem's ``phi_approx``
    must be additive over disjoint unions: on two vertex sets A and B with
    no edge between them, its answer on A | B must be the union of its
    answers on A and on B, each of which holds only vertices of its own
    set. The split search relies on it: it takes a join's phi as the
    ``Solution.union`` of the answers on the join's two sides, which no edge
    joins, and never runs phi on their union.

    Only a minimization problem declares ``extend(g, live, x, sol)``: it
    turns a solution of G[live] - X into one of G[live] worth at most |X|
    more, reading g only inside ``live``. For maximization, a solution of
    G - X already is one of G.
    """

    name: str
    kind: ProblemKind
    phi: Callable[[float, int], float]
    phi_approx: Callable[..., Solution]
    psaks: ApproximateKernel | None
    phi_floor: Callable[[int, int], int] | None = None
    extend: Callable[[Graph, set, frozenset, Solution], Solution] | None = None


def _extend_add_vertices(g: Graph, live: set, x: frozenset, sol: Solution) -> Solution:
    return Solution.of_vertices(sol.payload | x)


def _extend_singletons(g: Graph, live: set, x: frozenset, sol: Solution) -> Solution:
    return Solution.of_family(set(sol.payload) | {frozenset([v]) for v in x})


def _extend_incident_edges(g: Graph, live: set, x: frozenset, sol: Solution) -> Solution:
    added = set(sol.payload)
    for v in sorted(x):
        nbrs = g.neighbors(v) & live
        if nbrs:
            added.add(frozenset((v, min(nbrs))))
    return Solution.of_family(added)


def _on_piece(phi_approx: Callable[[Graph], Solution]) -> Callable[..., Solution]:
    """A phi-approximation run on G[within] itself."""
    return lambda g, within=None: phi_approx(
        g if within is None else g.induced_subgraph(within)
    )


def builtin_instances() -> dict[str, FriendlyProblem]:
    """The six built-in friendly problems.

    The kernel slots of vc, is and cc are real reductions; H-packing, fvs
    and eds have no kernel here and query their pieces directly.
    """
    reg = {
        "vc": FriendlyProblem(
            name="vc",
            kind=VC,
            phi=lambda s, l: 2.0 * s,
            phi_approx=vc_2approx,
            psaks=vc_nt_kernel(),
            extend=_extend_add_vertices,
        ),
        "is": FriendlyProblem(
            name="is",
            kind=IS,
            phi=lambda s, l: (l + 1.0) * s,
            phi_approx=degeneracy_is,
            psaks=is_degeneracy_kernel(),
            phi_floor=lambda s, w: -(-s // max(w + 1, 1)),
        ),
        "cc": FriendlyProblem(
            name="cc",
            kind=CLIQUE_COVER,
            phi=lambda s, l: (l + 1.0) * s,
            phi_approx=_on_piece(clique_cover_trivial),
            psaks=clique_cover_kernel(),
            phi_floor=lambda s, w: s,
            extend=_extend_singletons,
        ),
        "fvs": FriendlyProblem(
            name="fvs",
            kind=FVS,
            phi=lambda s, l: 2.0 * s,
            phi_approx=_on_piece(fvs_2approx),
            psaks=None,
            extend=_extend_add_vertices,
        ),
        "eds": FriendlyProblem(
            name="eds",
            kind=EDS,
            phi=lambda s, l: 2.0 * s,
            phi_approx=eds_2approx,
            psaks=None,
            extend=_extend_incident_edges,
        ),
    }
    for name in ("hpack:k2", "hpack:k3", "hpack:p3"):
        kind = KINDS[name]
        reg[name] = FriendlyProblem(
            name=name,
            kind=kind,
            phi=(lambda n_h: lambda s, l: n_h * s)(kind.pattern.n),
            phi_approx=_on_piece((lambda pat: lambda g: maximal_h_packing(g, pat))(kind.pattern)),
            psaks=None,
        )
    return reg


# ---------------------------------------------------------------------------
# The find-a-split-node subroutine
# ---------------------------------------------------------------------------


def find_split_node(
    rest: Remainder,
    delta: float,
    problem: FriendlyProblem,
    oracle: Oracle,
    threshold_scale: float = 1.0,
) -> tuple[int | None, Solution, set[int]]:
    """Either solve the remainder outright through the kernel slot, or find
    a node t whose local optimum is at least (width+1)/delta along with a
    c(1+delta)-approximate local solution. Returns (t, the solution, t's
    live local set), with t None where the remainder was solved outright.

    The descent walks the remainder's tree to the first node whose phi-value
    is at most the budget threshold. A node whose live local size alone puts
    phi over it (by ``phi_floor``, where declared) runs no phi and is
    measured by that size, which phi never exceeds: with the built-in floors
    it beats any join sibling that runs phi, and of two such siblings the
    larger wins. A join child whose size is below its sibling's floor loses,
    also without phi.
    Every other node gets its full phi from the view's one measure walk
    (``Remainder.additive``): phi is additive over a join's two sides, so a
    join's answer is the union of its children's, and phi runs once per
    vertex set that no join splits, each answer cached until a cut changes
    the set. At the root, the remainder is solved outright. The descent's
    choice stands. For minimization, a join the walk goes below measures
    over the threshold, and with the built-in floors that value is the
    sum of its children's phi, so the two are never both within half of it
    and the join is never cut whole. For maximization, splitting the join's
    phi solution between its sides picks the same child. The caller then
    cuts V_t from ``rest``.
    """
    g, ntd = rest.g, rest.ntd
    ell = rest.width
    k = (2.0 * (ell + 1) / delta + 1) * threshold_scale
    phi_k = problem.phi(k, ell)
    budget = phi_k + ell
    maximize = not is_minimization(problem.kind)
    limit = k if maximize else phi_k

    floor = problem.phi_floor

    def measure(t):  # no phi where the floor decides on live local sizes
        if floor is not None:
            size = rest.live_local[t]
            p = ntd.parent[t]
            sibs = () if p is None else rest[p]  # t alone unless t is a join child
            if floor(size, ell) > limit or any(
                    size < floor(rest.live_local[s], ell) for s in sibs if s != t):
                return size, None
        sol = rest.additive(t, lambda s: problem.phi_approx(g, rest.local(s)))
        return sol.value, sol

    t, _, hint = descend(rest, measure, limit)
    local = rest.local(t)
    cut = (t, rest.taken)  # the query's decomposition comes straight from the input's
    sol = _query(problem.kind, g.induced_subgraph(local), ntd, oracle, problem.psaks, budget, cut,
                 None if maximize else hint)  # phi's own solution may be the better one
    return (None if t == ntd.root else t), sol, local


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

    One engine step runs the whole split chain over the input's nice
    decomposition: each level splits at the node the find-node subroutine
    returns and leaves G - V_t as a view of the input (``Remainder``).
    The solutions are then folded back innermost first: plain union for
    maximization; for minimization, the problem's extend adds each level's
    live bag over the level's graph G[live], read through the view's
    ``live`` set as the fold restores it, so the fold builds no graph.
    """
    cfg = KernelConfig(eps, oracle, threshold_scale)
    delta = eps / 3.0

    def step(cur_g, ntd, flags):
        rest = Remainder(cur_g, ntd)
        levels = []  # (V_t, live X_t, solution) per level
        while True:
            t, solution, local = find_split_node(rest, delta, problem, cfg.oracle, threshold_scale)
            if t is None:
                break
            bag = ntd.bags[t] & rest.live
            levels.append((local | bag, bag, solution))
            rest.cut(t, local | bag)
        for v_t, bag, part in reversed(levels):
            solution = solution.union(part)
            if problem.extend:
                rest.live |= v_t  # the level's graph is G[live]
                solution = problem.extend(cur_g, rest.live, bag, solution)
        return solution, len(levels)

    def bounds(width):
        declared = None
        if problem.psaks is not None:
            k0 = 6.0 * (width + 1) / eps + 1
            declared = problem.psaks.size_fn(delta, problem.phi(k0, width) + width)
        budget_k = (2.0 * (width + 1) / delta + 1) * threshold_scale
        return declared, {"budget_k": budget_k}

    return _drive(problem.name, problem.kind, g, td, cfg, step, bounds)
