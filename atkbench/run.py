"""atk benchmark: closed-loop engine runs with guarantee gates.

    python3 atkbench/run.py --workload vc-direct --seed 1 --seconds 40 --trace 0

A closed loop with one caller and one instance at a time, no threads. Each
instance is generated from the seed, round-tripped through PACE text, solved
by the engine at threshold_scale 1, and checked against the paper's
guarantees outside the timed call. With ``--trace 0`` each instance runs in a
forked child that the parent waits for, and the last stdout line holds the
end-to-end metrics. With ``--trace 1`` each instance is solved untraced and
then traced in this process, the two reports must match exactly, and the
last line holds the per-layer split. Any violated guarantee exits with
status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Every run solves at least this many instances so a median exists.
MIN_INSTANCES = 3
# Each instance is set up this many times; setup_s is the median over all.
SETUP_REPEATS = 3
# The shared machine's speed drifts by about a fifth over tens of seconds,
# alike for any pure-Python work. Each instance is bracketed by a fixed loop
# that does not touch atk, and its times are scaled to a machine on which
# that loop takes CALIBRATION_REF_S.
CALIBRATION_ITERATIONS = 1_000_000
CALIBRATION_REF_S = 0.1
# Instance i of seed s is generated with seed s * SEED_STRIDE + i.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    problem: str
    engine: str
    oracle: str
    n: int
    k: int
    p: float
    eps: float


# Each workload has a different dominant layer; see atkbench/README.md.
WORKLOADS = {
    "vc-direct": Workload("vc", "direct", "exact-dp", n=1000, k=3, p=0.9, eps=0.5),
    "ecc-forest": Workload("ecc", "direct", "exact-tf-ecc", n=750, k=1, p=0.8, eps=0.5),
    "is-friendly": Workload("is", "friendly", "exact-dp", n=500, k=3, p=0.9, eps=0.5),
}

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "vertices_per_s": "vertices/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_calls": "count",
    "query_frac_max": "ratio",
    "ratio_worst": "ratio",
}

# Layer spans reported with .calls and .self_s (per instance).
LAYER_SPANS = (
    "oracles.prep",
    "oracles.solve",
    "treedecomp.make_nice",
    "treedecomp.restrict",
    "treedecomp.prune_subtree",
    "treedecomp.as_td",
    "treedecomp.validate",
    "treedecomp.v_set",
    "kernels.split",
    "friendly.find_split_node",
    "approx.phi",
    "approx.kernel",
    "graph.surgery",
    "problems.is_feasible",
)


def _load_atk():
    if not (SRC / "atk" / "__init__.py").is_file():
        print(f"atkbench: no atk sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import atk  # noqa: F401  (fails loudly if the package is broken)


def set_up(wl: Workload, gen_seed: int):
    """Generate an instance and round-trip it through PACE text."""
    from atk import generate, pace

    g, td = generate.gen_partial_ktree(wl.n, wl.k, wl.p, gen_seed)
    g2 = pace.parse_gr(pace.write_gr(g))
    td2 = pace.parse_td(pace.write_td(td, g.n))
    renumber = {t: i for i, t in enumerate(td.nodes, start=1)}
    edges = tuple(sorted((min(renumber[a], renumber[b]), max(renumber[a], renumber[b]))
                         for a, b in td.tree_edges))
    if (g2 != g or td2.bags != {renumber[t]: b for t, b in td.bags.items()}
            or td2.tree_edges != edges):
        raise RuntimeError(f"PACE round trip changed instance {gen_seed}")
    return g2, td2


def solve(wl: Workload, g, td):
    """Run the workload's engine once; returns (report, engine seconds)."""
    from atk import cli, friendly, kernels

    oracle = cli.build_oracle(wl.oracle, wl.problem)
    if wl.engine == "direct":
        engine = getattr(kernels, f"approx_{wl.problem}_turing")
        args = (g, td, kernels.KernelConfig(wl.eps, oracle))
    else:
        engine = friendly.approx_friendly_turing
        args = (g, td, wl.eps, friendly.builtin_instances()[wl.problem], oracle)
    gc.collect()
    start = time.perf_counter()
    report = engine(*args)
    return report, time.perf_counter() - start


def check(wl: Workload, g, td, report) -> tuple[list[str], float, float]:
    """Guarantee violations, normalized ratio and query fraction of one run."""
    from atk import cli, problems

    kind = {"vc": problems.VC, "is": problems.IS, "ecc": problems.ECC}[wl.problem]
    errors = []
    if report.threshold_scale != 1.0:
        errors.append("threshold scale is not 1")
    if not problems.is_feasible(kind, g, report.solution):
        errors.append("infeasible solution")
    opt = cli.compute_opt(wl.problem, g, td)
    value = report.solution.value
    if opt is None or opt <= 0 or value <= 0:
        errors.append(f"no reference ratio (opt {opt}, value {value})")
        ratio = float("inf")
    else:
        ratio = value / opt if problems.is_minimization(kind) else opt / value
        if ratio > 1.0 + wl.eps:
            errors.append(f"ratio {ratio:.4f} above 1+eps")
    bound = report.declared_query_bound
    if bound is None:
        errors.append("no declared query bound")
        frac = float("inf")
    else:
        frac = report.max_query_vertices / bound
        if frac > 1.0:
            errors.append(f"query of {report.max_query_vertices} vertices above bound {bound}")
    return errors, ratio, frac


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch atk."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


@dataclass
class Instance:
    """Measurements and gate outcome of one solved instance."""

    n: int
    wall: float
    scale: float  # CALIBRATION_REF_S over the calibration loop's time
    setups: list[float]
    peak_mb: float  # resident high-water mark right after the solve
    oracle_calls: int
    recursion_depth: int
    value: float
    ratio: float
    query_frac: float
    errors: list[str]
    traced_wall: float = 0.0


def run_instance(wl: Workload, gen_seed: int, tracer=None) -> Instance:
    """Set up, solve and check one instance, between two calibration loops.

    With a tracer the instance is solved a second time with tracing on, and
    the two reports must be identical.
    """
    cal_before = calibration_loop()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        if tracer:
            with tracer:
                g, td = set_up(wl, gen_seed)
        else:
            g, td = set_up(wl, gen_seed)
        setups.append(time.perf_counter() - t0)
    report, wall = solve(wl, g, td)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced_wall = 0.0
    if tracer:
        with tracer:
            traced, traced_wall = solve(wl, g, td)
        if traced.to_dict() != report.to_dict():
            raise RuntimeError("traced report differs from the untraced one")
    scale = CALIBRATION_REF_S / ((cal_before + calibration_loop()) / 2)
    errors, ratio, frac = check(wl, g, td, report)
    return Instance(g.n, wall, scale, setups, peak_mb, report.oracle_calls,
                    report.recursion_depth, report.solution.value, ratio, frac, errors,
                    traced_wall)


def in_child(fn, *args):
    """``fn(*args)`` in a forked child, so that each instance starts from the
    same lean parent and has its own memory high-water mark."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: compute, send the pickled outcome, exit without cleanup
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = ("ok", fn(*args))
            except Exception as exc:
                payload = ("error", f"{type(exc).__name__}: {exc}")
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"instance process ended with status {status}")
    kind, value = pickle.loads(data)  # bytes written by our own child
    if kind == "error":
        raise RuntimeError(value)
    return value


def run(name: str, wl: Workload, seed: int, seconds: float, trace: bool, out=sys.stdout) -> int:
    from spans import Tracer

    tracer = Tracer() if trace else None
    done: list[Instance] = []
    attempted = failed = 0
    start = time.perf_counter()
    # Start another instance only while it is expected to end within the
    # run, judged by the mean instance time so far.
    while attempted < MIN_INSTANCES or (
        (time.perf_counter() - start) * (attempted + 1) / attempted <= seconds
    ):
        gen_seed = seed * SEED_STRIDE + attempted
        attempted += 1
        try:
            if tracer:
                tracer.instance = gen_seed
                inst = run_instance(wl, gen_seed, tracer)
            else:
                inst = in_child(run_instance, wl, gen_seed)
        except Exception as exc:  # a raising engine is a failed instance, not a crash
            failed += 1
            print(f"instance {gen_seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        done.append(inst)
        print(f"instance {gen_seed}: solve {inst.wall:.4f} s, scale {inst.scale:.3f}, "
              f"peak {inst.peak_mb:.1f} MB, value {inst.value}, ratio {inst.ratio:.4f}",
              file=sys.stderr)
        if inst.errors:
            failed += 1
            print(f"instance {gen_seed}: " + "; ".join(inst.errors), file=sys.stderr)

    if not done:
        metrics, units = {}, {}
    elif tracer:
        metrics = _layer_metrics(tracer, done)
        units = {}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{name}.spans.jsonl")
    else:
        adjusted = [i.wall * i.scale for i in done]
        metrics = {
            "solve_s_p50": statistics.median(adjusted),
            "vertices_per_s": sum(i.n for i in done) / sum(adjusted),
            "setup_s": statistics.median(t * i.scale for i in done for t in i.setups),
            "peak_rss_mb": statistics.median(i.peak_mb for i in done),
            "oracle_calls": statistics.mean(i.oracle_calls for i in done),
            "query_frac_max": statistics.mean(i.query_frac for i in done),
            "ratio_worst": max(i.ratio for i in done),
        }
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        print(f"{name}  {key} = {value:.6g} {units.get(key) or _layer_unit(key)}", file=out)
    if done:
        print(f"{name}  largest query_frac = {max(i.query_frac for i in done):.6g} ratio", file=out)
        print(f"{name}  unadjusted solve_s_p50 = {statistics.median(i.wall for i in done):.6g} s, "
              f"scale p50 = {statistics.median(i.scale for i in done):.4g}", file=out)
    print(f"{name}  samples = {len(done)} of {attempted} instances, fail_frac = "
          f"{failed / attempted:.6g} fraction", file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or _layer_unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return 0 if failed == 0 else 1


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", ".share", "_ratio")):
        return "ratio"
    return "count"


def _layer_metrics(tracer, done: list[Instance]) -> dict[str, float]:
    totals = tracer.layer_totals()
    per = len(done)
    scale = statistics.median(i.scale for i in done)
    out: dict[str, float] = {}
    for layer in LAYER_SPANS:
        calls, self_ns = totals.get(layer, (0, 0))
        out[f"{layer}.calls"] = calls / per
        out[f"{layer}.self_s"] = self_ns / 1e9 / per * scale
    counts = tracer.counts
    out["oracles.query_td_nodes_per_vertex"] = (
        counts["oracles.query_td_nodes"] / counts["oracles.query_vertices"]
        if counts["oracles.query_vertices"] else 0.0
    )
    engine_ns = sum(end - start for name, start, end, _p, _i in tracer.spans if name == "engine")
    out["oracles.share"] = totals.get("oracles.solve", (0, 0))[1] / engine_ns
    out["treedecomp.make_nice.nodes_built"] = counts["treedecomp.make_nice.nodes_built"] / per
    out["graph.surgery.vertices_copied"] = counts["graph.surgery.vertices_copied"] / per
    out["kernels.recursion_depth"] = sum(i.recursion_depth for i in done) / per
    engine_self = totals.get("engine", (0, 0))[1]
    out["engine.self_s"] = engine_self / 1e9 / per * scale
    out["trace.unattributed_frac"] = engine_self / engine_ns
    out["trace.overhead_ratio"] = sum(i.traced_wall for i in done) / sum(i.wall for i in done)
    setups = sum(len(i.setups) for i in done)
    for layer in ("pace", "generate"):
        out[f"{layer}.self_s"] = totals.get(layer, (0, 0))[1] / 1e9 / setups * scale
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    _load_atk()
    return run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
