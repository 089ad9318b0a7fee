"""The approximate Turing kernels and the engine loop they all run on.

Every engine, the generic one in ``friendly`` included, runs on ``_drive``.
The driver checks the inputs, makes the input's decomposition nice once,
runs the engine's one step on the input graph and that decomposition,
checks the solution the step returns and builds the report. The step finds
nodes whose local optimum sits in a bounded window, solves their pieces
through ``_query`` (the one place that reduces, cuts the query's
decomposition from the step's own, queries the oracle, lifts and checks)
and combines them into a solution of the input graph. The direct vc and is
engines cut every piece in one bottom-up pass (``_window_pass``). ecc, etp
and the friendly engine run chains of ``descend`` walks on a view of a
decomposition (``treedecomp.Remainder``): ecc one chain per connected piece
over its base size, until what is left falls apart or fits, when one
``NiceTreeDecomposition.restrict`` cuts the decompositions of its
components. cvc runs its chain on one subconnected decomposition that each
split cuts and contracts in place (``treedecomp.SubconnectedDecomposition``).
With threshold_scale = 1 every internal threshold equals its
analysis-given formula, and the driver checks the audited query size
against the engine's declared bound.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from typing import Callable

from .approx import (
    ApproximateKernel,
    ReducedInstance,
    connectify_vertex_cover,
    cvc_2approx,
    greedy_matching,
    greedy_triangle_packing,
    vc_nt_kernel,
)
from .errors import InternalInvariantViolation, OracleRefused
from .graph import Graph, _components
from .oracles import Oracle, audited
from .problems import CVC, ECC, ETP, IS, VC, ProblemKind, Solution, is_feasible
from .treedecomp import (
    NiceTreeDecomposition,
    Remainder,
    SubconnectedDecomposition,
    TreeDecomposition,
    descend,
    make_nice,
    make_subconnected,
    validate,
)


class KernelConfig:
    """Per-run configuration: epsilon, threshold scaling, oracle and audit.

    threshold_scale exists so tests can trigger the descent paths on
    desk-scale graphs; the approximation guarantee is only claimed at
    scale 1 and runs at other scales are flagged. Both values are checked
    when an engine runs.
    """

    def __init__(self, epsilon: float, oracle: Oracle, threshold_scale: float = 1.0):
        self.epsilon = epsilon
        self.threshold_scale = threshold_scale
        self.oracle, self.audit = audited(oracle)


@dataclass
class RunReport:
    """Outcome of one engine run plus its audit snapshot."""

    problem: str
    epsilon: float
    threshold_scale: float
    width: int
    solution: Solution
    recursion_depth: int
    oracle_calls: int
    max_query_vertices: int
    declared_query_bound: float | None
    thresholds: dict[str, float]
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "epsilon": self.epsilon,
            "threshold_scale": self.threshold_scale,
            "width": self.width,
            "value": self.solution.value,
            "solution": sorted(sorted(x) if isinstance(x, frozenset) else x
                               for x in self.solution.payload),
            "recursion_depth": self.recursion_depth,
            "oracle_calls": self.oracle_calls,
            "max_query_vertices": self.max_query_vertices,
            "declared_query_bound": self.declared_query_bound,
            "thresholds": self.thresholds,
            "flags": list(self.flags),
        }


# ---------------------------------------------------------------------------
# The engine loop
# ---------------------------------------------------------------------------


def _drive(
    problem: str,
    kind: ProblemKind,
    g: Graph,
    td: TreeDecomposition,
    cfg: KernelConfig,
    step: Callable[[Graph, NiceTreeDecomposition, set[str]], tuple[Solution, int]],
    bounds: Callable[[int], tuple[float | None, dict[str, float]]],
) -> RunReport:
    """Run ``step`` once, on g and td made nice, and check and report its
    solution.

    ``step(g, ntd, flags)`` returns (a solution of g, the number of cuts it
    made); each cut counts one level of recursion depth. ``bounds(width)``
    gives the declared query bound and the reported thresholds. At
    threshold_scale 1 an audited query over the declared bound is an
    internal invariant violation. The cyclic collector is paused from ``make_nice`` to the
    report, and is left as the caller had it: it resumes as the run
    returns, when reference counting frees the run's trees before any
    collection walks them.
    """
    eps, scale = cfg.epsilon, cfg.threshold_scale
    if not 0 < eps <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("threshold_scale must be finite and positive")
    collecting = gc.isenabled()
    gc.disable()  # a run makes no reference cycles, so a collection only re-walks live trees
    try:
        ntd = make_nice(g, td)  # raises ValueError on an invalid td
        cfg.audit.reset()
        flags: set[str] = set()
        if scale != 1.0:
            flags.add("threshold-scale-override")
        solution, depth = step(g, ntd, flags)
        _assert_feasible(kind, g, solution, f"{problem} turing kernel")
        declared, thresholds = bounds(td.width)
        if scale == 1.0 and declared is not None and cfg.audit.max_query_vertices > declared:
            raise InternalInvariantViolation(
                f"audited query size {cfg.audit.max_query_vertices} "
                f"exceeds declared bound {declared}"
            )
        return RunReport(
            problem=problem,
            epsilon=eps,
            threshold_scale=scale,
            width=td.width,
            solution=solution,
            recursion_depth=depth,
            oracle_calls=cfg.audit.call_count,
            max_query_vertices=cfg.audit.max_query_vertices,
            declared_query_bound=declared,
            thresholds=thresholds,
            flags=tuple(sorted(flags)),
        )
    finally:
        if collecting:
            gc.enable()


def _assert_feasible(kind, g: Graph, sol: Solution, context: str) -> None:
    if not is_feasible(kind, g, sol):
        raise InternalInvariantViolation(f"{context}: infeasible solution produced")


def _query(
    kind: ProblemKind,
    g: Graph,
    td: NiceTreeDecomposition | None,
    oracle: Oracle,
    kernel: ApproximateKernel | None = None,
    budget: float = math.inf,
    cut: tuple[int | None, set[int] | None] | None = None,
) -> Solution:
    """Solve g through the oracle, behind ``kernel`` if one is given, and
    check the answer on g.

    The kernel reduces g to g itself, to an induced subgraph, or to no
    graph at all when it already has the answer; then no query is made and
    the lift gets None. ``td`` is None, or without ``cut`` a nice
    decomposition of g that the oracle gets as it is (so no kernel may
    shrink g then). With ``cut`` = (t, taken), g is held by the subtree of
    t in ``td`` less ``taken``, and one ``restrict`` cuts the oracle's
    decomposition from it and takes its nodes, whether or not it queries.
    """
    red = ReducedInstance(g, lambda s: s) if kernel is None else kernel.reduce(g, budget)
    if cut is not None:
        trees = td.restrict([] if red.graph is None else [red.graph.vertex_set], *cut)
        td = trees[0] if trees else None
    raw = None if red.graph is None else oracle.solve(kind, red.graph, td)
    sol = red.lift(raw)
    _assert_feasible(kind, g, sol, f"{kind.name} oracle answer")
    return sol


# ---------------------------------------------------------------------------
# Vertex Cover and Independent Set: one bottom-up pass
# ---------------------------------------------------------------------------


def _window_pass(
    g: Graph, ntd: NiceTreeDecomposition, limit: float, matching: bool, solve: Callable
) -> tuple[Solution, int]:
    """Cut g into pieces whose measure is at most ``limit`` in one post-order
    pass over its nice decomposition, after Kundu and Misra's linear-time tree
    partitioning (1977). Returns a step's (vertex solution, cuts).

    A node keeps its live local set (V_t \\ X_t without earlier pieces and
    separators), measured by its size or with ``matching`` by the vertices
    of a maximal matching of it; every node ends within ``limit``. A leaf
    starts with empty sets. An introduce, or a forget of a deleted vertex,
    hands its child's sets up as they are, so it cannot go over. A forget
    of a live vertex v adds v to its child's sets in place, and with
    ``matching`` matches v to its lowest unmatched live neighbour w, adding
    both. A join unites its children's sets into the larger (no edge crosses
    the bag). A forget or join that would go over ``limit`` cuts its larger
    child c (ties to the lower id) unless, with ``matching``, the sorted
    greedy matching of its live set fits; so a cut piece measures over
    limit/2 - 2. A cut solves G[L_c] by ``solve(piece, ntd, (c, taken),
    X_c)``, which takes c's untaken subtree, and deletes X_c; the root's
    live set is the last piece."""
    state: list = [None] * ntd.n_nodes  # (live set, matched set) of pending nodes
    taken: set[int] = set()  # nodes of earlier pieces' decompositions
    deleted: set[int] = set()
    parts: list[frozenset] = []
    children, pivots, bags = ntd.children, ntd.pivots, ntd.bags

    def measure(c: int) -> int:
        return len(state[c][1 if matching else 0])

    def cut(c: int) -> None:
        parts.append(solve(g.induced_subgraph(state[c][0]), ntd, (c, taken), bags[c]))
        deleted.update(bags[c])

    for t in ntd.postorder():
        kids = children[t]
        if not kids:
            state[t] = (set(), set())
            continue
        v = pivots[t]  # None at a join
        if len(kids) == 1 and (v in bags[t] or v in deleted):  # an introduce, or a forget of
            state[t], state[kids[0]] = state[kids[0]], None  # a deleted vertex, cuts nothing
            continue
        w = None  # v's partner in the matching, among its child's live set
        if v is not None and matching:
            live, mate = state[kids[0]]
            w = next((u for u in sorted(g.neighbors(v)) if u in live and u not in mate), None)
        grown = sum(map(measure, kids)) + (2 * (w is not None) if matching else v is not None)
        fits = None
        if grown > limit:
            if matching:
                pool = set().union(*(state[c][0] for c in kids), [v] if v is not None else [])
                value, cover, _ = greedy_matching(g, pool)
                fits = cover if value <= limit else None
            if fits is None:
                c = min(kids, key=lambda c: (-measure(c), c))
                cut(c)
                kids = [k for k in kids if k != c]
                v = w = None  # v is in X_c
        live, mate = state[kids[0]] if kids else (set(), set())
        for c in kids[1:]:
            live, mate = _unite(live, state[c][0]), _unite(mate, state[c][1])
        if v is not None:
            live.add(v)
        if fits is not None:
            mate = set(fits)
        elif w is not None:
            mate.update((v, w))
        state[t] = (live, mate)
        for c in children[t]:
            state[c] = None
    cuts = len(parts)
    if state[ntd.root][0]:
        cut(ntd.root)
    return Solution.of_vertices(frozenset().union(*parts)), cuts


def _unite(x: set[int], y: set[int]) -> set[int]:
    """x | y, built by adding the smaller set into the larger."""
    x, y = (x, y) if len(x) >= len(y) else (y, x)
    x |= y
    return x


def approx_vc_turing(g: Graph, td: TreeDecomposition, cfg: KernelConfig) -> RunReport:
    """(1+eps)-approximate Turing kernel for vertex cover.

    The pass cuts pieces whose local cover is at most 8(width+1)/eps and
    puts each cut's bag in the cover. Queries go through the half-integral
    LP reduction, so each oracle call has at most 16(width+1)/eps vertices
    at threshold_scale 1.
    """
    eps, scale = cfg.epsilon, cfg.threshold_scale
    kernel = vc_nt_kernel()

    def solve(piece, ntd, cut, separator):
        return _query(VC, piece, ntd, cfg.oracle, kernel, cut=cut).payload | separator

    def step(cur_g, ntd, flags):
        return _window_pass(cur_g, ntd, 8.0 * (ntd.width + 1) / eps * scale, True, solve)

    def bounds(width):
        return 16.0 * (width + 1) / eps, {"easy_guard": 8.0 * (width + 1) / eps * scale}

    return _drive("vc", VC, g, td, cfg, step, bounds)


def approx_is_turing(g: Graph, td: TreeDecomposition, cfg: KernelConfig) -> RunReport:
    """(1+eps)-approximate Turing kernel for independent set.

    Pieces are chosen purely by their vertex count: the pass cuts pieces of
    [(width+1)^2/eps, 10(width+1)^2/eps] local vertices, each of which loses
    at most a (width+1)-fraction of its optimum at the deleted separator.
    """
    eps, scale = cfg.epsilon, cfg.threshold_scale

    def solve(piece, ntd, cut, _separator):
        return _query(IS, piece, ntd, cfg.oracle, cut=cut).payload

    def step(cur_g, ntd, flags):
        lo = (ntd.width + 1) ** 2 / eps * scale
        hi = 10.0 * lo
        lo_eff = max(lo, 1.0)
        hi_eff = max(hi, 2.0 * lo_eff)  # a cut piece has over hi_eff / 2 >= lo_eff vertices
        if cur_g.n > hi and (lo_eff != lo or hi_eff != hi):
            flags.add("window-clamped")
        return _window_pass(cur_g, ntd, hi_eff, False, solve)

    def bounds(width):
        return 10.0 * (width + 1) ** 2 / eps, {
            "window_lo": (width + 1) ** 2 / eps * scale,
            "window_hi": 10.0 * (width + 1) ** 2 / eps * scale,
        }

    return _drive("is", IS, g, td, cfg, step, bounds)


# ---------------------------------------------------------------------------
# Edge Clique Cover
# ---------------------------------------------------------------------------


def approx_ecc_turing(g: Graph, td: TreeDecomposition, cfg: KernelConfig) -> RunReport:
    """(1+eps)-approximate Turing kernel for edge clique cover.

    Components are handled independently: one ``restrict`` cuts their
    decompositions, and those within the base size are answered at once.
    The split keeps the separator on both sides (the oracle sees G[V_t],
    the remainder keeps X_t), so queries have at most
    4(1+eps)/eps*(width+1)^4 + width+1 vertices. A larger component splits
    on a view of its decomposition until what is left is within the base
    size or falls apart (then each part holds a vertex of the cut bag), and
    what is left is handled as components in turn, the first one next.
    """
    eps, scale = cfg.epsilon, cfg.threshold_scale

    def base(width):
        return 2.0 * (1 + eps) / eps * (width + 1) ** 4 * scale

    def step(g, ntd, flags):
        parts: list[frozenset] = []
        work: list[tuple[Graph, NiceTreeDecomposition]] = []  # connected pieces over the base size

        def settle(pieces):  # answer the pieces within the base size, stack the others
            big = []
            for q, d in pieces:
                if q.n <= base(d.width):
                    parts.append(_query(ECC, q, d, cfg.oracle).payload)
                else:
                    big.append((q, d))
            work.extend(reversed(big))

        def components(cur_g, tree, comps, taken):
            comps = [c for c in comps if len(c) > 1]  # an isolated vertex carries no edge
            settle(zip(map(cur_g.induced_subgraph, comps), tree.restrict(comps, None, taken)))

        def chain(cur_g, tree):  # split until what is left falls apart or fits; returns the cuts
            rest, lo, cuts = Remainder(cur_g, tree), max(base(tree.width), 1.0), 0
            while True:
                t = descend(rest, lambda s: (rest.live_local[s], None), 2.0 * lo, lo)[0]
                local = rest.local(t)
                q = cur_g.induced_subgraph(local | (tree.bags[t] & rest.live))
                parts.append(_query(ECC, q, tree, cfg.oracle, cut=(t, rest.taken)).payload)
                cuts += 1
                if t == tree.root:
                    return cuts  # the window covered the whole piece
                rest.cut(t, local)
                live, lo = rest.live, max(base(rest.width), 1.0)
                if len(live) <= lo or _apart(cur_g.neighbors, live, tree.bags[t] & live):
                    taken, rest = rest.taken, None  # the view goes before the components' trees
                    components(cur_g, tree, _components(cur_g.neighbors, live), taken)
                    return cuts

        comps = g.connected_components()
        if len(comps) == 1 and g.m:
            settle([(g, ntd)])
        else:
            components(g, ntd, comps, None)
        cuts = 0
        while work:
            cuts += chain(*work.pop())
        return Solution.of_family(frozenset().union(*parts)), cuts

    def bounds(width):
        return 4.0 * (1 + eps) / eps * (width + 1) ** 4 + (width + 1), {
            "base_case": base(width),
            "window_hi": 4.0 * (1 + eps) / eps * (width + 1) ** 4 * scale,
        }

    return _drive("ecc", ECC, g, td, cfg, step, bounds)


def _apart(neighbors, live: set[int], x: set[int]) -> bool:
    """Whether the vertices of x, a non-empty subset of ``live``, lie in more than
    one component of G[live]: a search from one that stops once it has them all."""
    x = set(x)
    stack = [x.pop()]
    seen = set(stack)
    while stack and x:
        for w in neighbors(stack.pop()):
            if w in live and w not in seen:
                seen.add(w)
                stack.append(w)
                x.discard(w)
    return bool(x)


# ---------------------------------------------------------------------------
# Edge-Disjoint Triangle Packing
# ---------------------------------------------------------------------------


def solve_etp_small(
    g: Graph,
    s3: Solution,
    oracle: Oracle,
    flags: set[str],
    td: NiceTreeDecomposition | None = None,
) -> Solution:
    """Pack triangles in g through the oracle, keeping the better of its
    answer and the caller's 3-approximation ``s3``.

    A graph with more vertices than the oracle's size cap is not queried,
    and a query the oracle refuses (exhaustive search also caps etp by
    edges) does not fail the run: ``s3`` itself is returned, and a
    degraded-ratio flag is added to ``flags``.
    """
    if g.n <= oracle.size_cap:
        try:
            sol = _query(ETP, g, td, oracle)
            return sol if sol.value >= s3.value else s3
        except OracleRefused:
            pass
    flags.add("etp-kernel-refusal-3approx-fallback")
    return s3


def approx_etp_turing(g: Graph, td: TreeDecomposition, cfg: KernelConfig) -> RunReport:
    """(1+eps)-approximate Turing kernel for edge-disjoint triangle packing.

    The local graph at node t is G[V_t] with the edges inside the bag
    deleted, so the pieces used at different cuts are edge-disjoint and
    their packings combine freely. Splitting sacrifices triangles that
    straddle a bag's internal edges; a final greedy completion packs any
    such triangle whose edges all stayed free, so the output is maximal.
    The split chain runs on a view of the decomposition, descending to a
    node whose local packing graph has a small 3-approximation: one-child
    steps lose at most width+1 packed triangles, and at a join the local
    graphs split edge-disjointly, so the larger child's measured packing
    stays above the lower window bound.

    The packings come from the view's measure walk (``Remainder.additive``):
    a join's sorted greedy packing is the union of its children's, as each
    of its triangles has at most one bag vertex, and an introduce adds an
    isolated vertex. The root's packing, of G[live], decides every level
    but the first, which packs G itself and so copies no graph.
    """
    eps, scale = cfg.epsilon, cfg.threshold_scale

    def step(cur_g, ntd, flags):
        rest, parts = Remainder(cur_g, ntd), []

        def local_graph(t):  # G[V_t] less the edges inside t's live bag
            bag = ntd.bags[t] & rest.live
            return cur_g.induced_subgraph(rest.local(t) | bag).delete_edges_within(bag)

        def measure(t):  # the 3-approximation of t's local packing graph
            s3 = rest.additive(t, lambda s: greedy_triangle_packing(local_graph(s)))
            return s3.value, s3

        s3 = greedy_triangle_packing(cur_g)  # the first level's check packs G, copying nothing
        while True:
            unit = (rest.width + 1) ** 2 / eps * scale
            if s3.value <= 18.0 * unit:
                break
            node, _, s3_t = descend(rest, measure, 6.0 * unit, floor=unit)
            parts.append(solve_etp_small(local_graph(node), s3_t, cfg.oracle, flags).payload)
            rest.cut(node, rest.local(node))
            _, s3 = measure(ntd.root)  # the root's bag is empty: a packing of G[live]
        live_g = cur_g.induced_subgraph(rest.live) if parts else cur_g
        live_td = ntd.restrict([rest.live], None, rest.taken)[0] if parts else ntd
        sol = solve_etp_small(live_g, s3, cfg.oracle, flags, live_td)
        return greedy_triangle_packing(cur_g, sol.payload.union(*parts)), len(parts)

    def bounds(width):
        return None, {  # queries are bounded by the oracle's size cap
            "easy_guard": 18.0 * (width + 1) ** 2 / eps * scale,
            "local_guard": 6.0 * (width + 1) ** 2 / eps * scale,
        }

    return _drive("etp", ETP, g, td, cfg, step, bounds)


# ---------------------------------------------------------------------------
# Connected Vertex Cover
# ---------------------------------------------------------------------------


def cvc_obtain_approx(
    g: Graph,
    delta: float,
    oracle: Oracle | None,
    *,
    width: int,
    threshold_scale: float = 1.0,
) -> Solution | None:
    """A min(c, 2)-approximate connected cover, or None; with no oracle,
    g's 2-approximation alone, or None.

    None certifies that the optimum exceeds 100*width^2/delta (scaled), the
    guard over which the descent goes on.
    """
    s2 = cvc_2approx(g) if g.m else Solution.of_vertices(())
    if s2.value > 200.0 * width * width / delta * threshold_scale:
        return None
    return s2 if oracle is None else _cvc_better(g, s2, oracle)


def _cvc_better(g: Graph, s2: Solution, oracle: Oracle) -> Solution:
    """The smaller of the oracle's connected cover of g and ``s2``, g's 2-approximation."""
    if not g.m:
        return s2
    sol = _query(CVC, g, None, oracle)
    return sol if sol.value <= s2.value else s2


def _contract_local(g: Graph, x_t: frozenset[int], v_set: frozenset[int]) -> Graph:
    """G_t: G[V_t] with the bag X_t contracted to one fresh vertex."""
    sub = g.induced_subgraph(v_set)
    return sub.identify_vertices(x_t, g.vertices[-1] + 1) if x_t else sub


def find_cvc_split_node(
    g: Graph,
    sc: SubconnectedDecomposition,
    delta: float,
    oracle: Oracle,
    flags: set[str],
    *,
    width: int,
    threshold_scale: float = 1.0,
) -> tuple[int, frozenset[int], Solution]:
    """Descend the subconnected decomposition to a child whose contracted
    local instance yields an approximate cover of size >= 10*width/delta.
    Returns the node, its V_t and the cover.

    Goes down into the first child whose optimum ``cvc_2approx`` alone
    certifies too big, and queries only the children of the node where the
    descent stops; if every one of them answers small, the analysis is
    contradicted, which is an internal invariant violation at scale 1 and
    otherwise a union fallback that adds its flag to ``flags``.
    """
    children, vsets, t = sc.children, sc.vsets, sc.root
    min_size = 10.0 * width / delta * threshold_scale
    while True:  # go down into the first child still certified too big
        pieces = []
        for c in children[t]:
            contracted = _contract_local(g, sc.bags[c], vsets[c])
            s2 = cvc_obtain_approx(contracted, delta, None, width=width,
                                   threshold_scale=threshold_scale)
            if s2 is None:
                t = c
                break
            pieces.append((c, contracted, s2))
        else:
            break
    results = [(c, _cvc_better(q, s2, oracle)) for c, q, s2 in pieces]
    qualifying = [(c, sol) for c, sol in results if sol.value >= min_size]
    if qualifying:
        c, sol = max(qualifying, key=lambda p: (p[1].value, -p[0]))
        return c, frozenset(vsets[c]), sol
    if threshold_scale == 1.0:
        raise InternalInvariantViolation(
            "cvc descent exhausted: every child answered below the size window"
        )
    # Scaled runs may legitimately exhaust; assemble the union cover of G_t.
    assembled: set[int] = set()
    for c, sol in results:
        if sc.bags[c]:
            sol = connectify_vertex_cover(g.induced_subgraph(vsets[c]), sc.bags[c], sol)
        assembled |= sol.payload
    x_t = sc.bags[t]
    z = g.vertices[-1] + 1  # same fresh id _contract_local picks
    payload = (assembled - x_t) | ({z} if x_t else set())
    fallback = Solution.of_vertices(payload)
    if not is_feasible(CVC, _contract_local(g, x_t, vsets[t]), fallback):
        raise InternalInvariantViolation("cvc fallback union cover infeasible")
    flags.add("cvc-descent-exhausted-fallback")
    return t, frozenset(vsets[t]), fallback


def approx_cvc_turing(g: Graph, td: TreeDecomposition, cfg: KernelConfig) -> RunReport:
    """(1+eps)-approximate Turing kernel for connected vertex cover.

    Works over one subconnected decomposition of the input; found pieces
    are solved with the bag contracted to one vertex and reconnected via
    connectify. The split chain runs in one step: each split contracts the
    bag to a fresh vertex in the remaining graph and cuts the decomposition
    the same way (``SubconnectedDecomposition.cut``), which is validated
    against the graph after every cut.
    """
    if not g.is_connected():
        raise ValueError("connected vertex cover needs a connected graph")
    eps, scale = cfg.epsilon, cfg.threshold_scale
    delta = eps / 3.0

    def step(cur_g, ntd, flags):
        sc, parts, ell, cuts = None, [], ntd.width, 0
        first_z = cur_g.vertices[-1] + 1 if cur_g.n else 0  # contracted bags get ids from here up
        while cur_g.m:
            if not cur_g.is_connected():
                raise InternalInvariantViolation("cvc recursion lost connectivity")
            res = cvc_obtain_approx(cur_g, delta, cfg.oracle, width=ell, threshold_scale=scale)
            if res is not None:
                parts.append(res.payload)
                break
            if sc is None:
                sc = make_subconnected(cur_g, ntd)
            t, v_t, s_t = find_cvc_split_node(
                cur_g, sc, delta, cfg.oracle, flags, width=ell, threshold_scale=scale
            )
            x_t, z = sc.bags[t], first_z + cuts
            cuts += 1
            if not x_t:  # the piece was the whole remaining graph
                parts.append(s_t.payload)
                break
            parts.append(connectify_vertex_cover(cur_g.induced_subgraph(v_t), x_t, s_t).payload)
            cur_g = cur_g.remove_vertices(v_t - x_t).identify_vertices(x_t, z)
            sc.cut(t, z)
            report = validate(cur_g, sc)
            if not report.valid:
                raise InternalInvariantViolation(
                    "invalid tree decomposition: " + "; ".join(report.violations())
                )
            ell = report.width
        return Solution.of_vertices(v for v in frozenset().union(*parts) if v < first_z), cuts

    def bounds(width):
        return None, {  # queries are bounded by the oracle's size cap
            "too_big_guard": 200.0 * width * width / delta * scale,
            "piece_min_size": 10.0 * width / delta * scale,
        }

    return _drive("cvc", CVC, g, td, cfg, step, bounds)
