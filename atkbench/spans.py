"""In-memory span recorder that wraps atk's layers from outside the package.

Tracing rebinds names and edits no source file. A module-level function is
wrapped once per namespace that holds it, so the engine's ``make_nice`` and
the oracle's ``make_nice`` are separate bindings; a method is wrapped on its
class. Every wrapped call records a span (name, start, end, parent, instance);
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

TRACED_MODULES = (
    "treedecomp",
    "approx",
    "oracles",
    "graph",
    "problems",
    "kernels",
    "friendly",
    "pace",
    "generate",
)

# Constant-time accessors run millions of times per solve; their cost stays
# in the caller's span instead of doubling the run time.
UNTRACED_METHODS = frozenset({"has_vertex", "has_edge", "neighbors", "degree"})

# Wrapped callable (defining module without the package prefix, then its
# qualified name) -> layer span name. Unlisted callables keep their own name.
LAYERS = {
    "kernels.approx_vc_turing": "engine",
    "kernels.approx_is_turing": "engine",
    "kernels.approx_ecc_turing": "engine",
    "kernels.approx_etp_turing": "engine",
    "kernels.approx_cvc_turing": "engine",
    "friendly.approx_friendly_turing": "engine",
    "oracles.Oracle.solve": "oracles.solve",
    "oracles.td_dp_solve": "oracles.solve",
    "treedecomp.make_nice": "treedecomp.make_nice",
    "treedecomp.TreeDecomposition.restrict": "treedecomp.restrict",
    "treedecomp.prune_subtree": "treedecomp.prune_subtree",
    "treedecomp.NiceTreeDecomposition.as_td": "treedecomp.as_td",
    "treedecomp.validate": "treedecomp.validate",
    "treedecomp.SubtreeIndex.v_set": "treedecomp.v_set",
    "treedecomp.SubtreeIndex.local_vertices": "treedecomp.v_set",
    "treedecomp.NiceTreeDecomposition.subtree_nodes": "treedecomp.v_set",
    "kernels.find_vc_split_node": "kernels.split",
    "treedecomp.find_node_by_local_size": "kernels.split",
    "friendly.find_split_node": "friendly.find_split_node",
    "approx.greedy_matching": "approx.phi",
    "approx.degeneracy_is": "approx.phi",
    "approx.vc_2approx": "approx.phi",
    "approx.nt_reduce": "approx.kernel",
    "approx.solve_vc_small": "approx.kernel",
    "approx.ApproximateKernel.reduce": "approx.kernel",
    "graph.Graph.induced_subgraph": "graph.surgery",
    "graph.Graph.remove_vertices": "graph.surgery",
    "problems.is_feasible": "problems.is_feasible",
    "friendly.FriendlyProblem.feasible": "problems.is_feasible",
}

# Set-up modules report as one layer each.
MODULE_LAYERS = {"pace": "pace", "generate": "generate"}

# Span name -> (work counter, measure of the call's result).
WORK = {
    "treedecomp.make_nice": ("treedecomp.make_nice.nodes_built", lambda r: r.n_nodes),
    "graph.surgery": ("graph.surgery.vertices_copied", lambda r: r.n),
}

ORACLE_SPAN = "oracles.solve"
PREP_SPAN = "oracles.prep"


def _td_nodes(td) -> int:
    if td is None:
        return 0
    n_nodes = getattr(td, "n_nodes", None)
    return n_nodes if n_nodes is not None else len(td.bags)


class Tracer:
    """Records spans while installed; ``layer_totals`` aggregates them per layer."""

    def __init__(self):
        # Each span is [name, start_ns, end_ns, parent index or -1, instance].
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.instance = 0
        self._stack: list[int] = []
        self._oracle_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, key: str):
        name = LAYERS.get(key) or MODULE_LAYERS.get(key.partition(".")[0], key)
        # Decomposition work done while answering a query is query
        # preparation, whichever helper does it.
        in_oracle_name = PREP_SPAN if key.startswith("treedecomp.") else name
        work = WORK.get(name)
        is_oracle = name == ORACLE_SPAN
        is_query = key == "oracles.Oracle.solve"
        tracer = self
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = in_oracle_name if tracer._oracle_depth else name
            # A call nested directly in a span of the same layer merges into
            # it: the audited oracle forwards each query to the inner
            # Oracle.solve, which must count once.
            if stack and spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)
            if is_query:
                g, td = args[2], args[3] if len(args) > 3 else kwargs.get("td")
                counts["oracles.query_vertices"] += g.n
                counts["oracles.query_td_nodes"] += _td_nodes(td)
            if is_oracle:
                tracer._oracle_depth += 1
            idx = len(spans)
            spans.append([label, clock(), 0, stack[-1] if stack else -1, tracer.instance])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if is_oracle:
                    tracer._oracle_depth -= 1
            if work is not None:
                counts[work[0]] += work[1](result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, key: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, key))

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"atk.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _traceable(obj):
                    self._patch(mod, attr, f"{obj.__module__.removeprefix('atk.')}.{obj.__qualname__}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, member in list(vars(obj).items()):
                        if name.startswith("_") or name in UNTRACED_METHODS:
                            continue
                        if _traceable(member):
                            self._patch(obj, name, f"{short}.{member.__qualname__}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> list[int]:
        out = [end - start for _name, start, end, _parent, _inst in self.spans]
        for _name, start, end, parent, _inst in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self nanoseconds) over every recorded span."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_ns[span[0]] += own
        return {name: (calls[name], self_ns[name]) for name in calls}

    def write(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        with open(path, "w") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
                name, start, end, parent, inst = span
                fh.write(json.dumps({
                    "id": i, "instance": inst, "name": name, "parent": parent,
                    "start_ns": start, "end_ns": end, "self_ns": own,
                }) + "\n")


def _traceable(obj) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith("atk.")
        and not inspect.isgeneratorfunction(obj)
    )
