"""Command-line harness: solve, td utilities, instance generation, benches.

Exit codes: 0 success, 1 parse/contract error or out of memory, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from .errors import InternalInvariantViolation, OracleRefused
from .friendly import approx_friendly_turing, builtin_instances
from .generate import gen_partial_ktree
from .graph import Graph
from .kernels import (
    KernelConfig,
    approx_cvc_turing,
    approx_ecc_turing,
    approx_etp_turing,
    approx_is_turing,
    approx_vc_turing,
)
from .oracles import (
    Oracle,
    brute_force_solve,
    exact_brute_oracle,
    exact_dp_oracle,
    lossy_wrap,
    td_dp_solve,
    trianglefree_ecc_oracle,
)
from .pace import ParseError, parse_gr, parse_td, write_gr, write_td
from .problems import ECC, KINDS
from .treedecomp import (
    TreeDecomposition,
    heuristic_td,
    make_nice,
    make_subconnected,
    validate,
)

DIRECT_ENGINES = {
    "vc": approx_vc_turing,
    "is": approx_is_turing,
    "ecc": approx_ecc_turing,
    "etp": approx_etp_turing,
    "cvc": approx_cvc_turing,
}


def build_oracle(name: str, problem: str) -> Oracle:
    if name == "exact-bf":
        return exact_brute_oracle()
    if name == "exact-dp":
        return exact_dp_oracle()
    if name == "exact-tf-ecc":
        return trianglefree_ecc_oracle()
    if name.startswith("lossy:"):
        c = float(name.split(":", 1)[1])
        dp = problem in KINDS and KINDS[problem].record.exact_dp
        return lossy_wrap(exact_dp_oracle() if dp else exact_brute_oracle(), c)
    raise ValueError(f"unknown oracle {name!r} (exact-bf | exact-dp | exact-tf-ecc | lossy:<c>)")


def compute_opt(problem: str, g: Graph, td: TreeDecomposition) -> float | None:
    """Exact optimum when within reach: treewidth DP under its width cap
    where it answers the problem, the triangle-free identity OPT_ECC = |E|
    where it applies, exhaustive search under its caps otherwise."""
    kind = KINDS[problem]
    if kind == ECC and not any(g.neighbors(u) & g.neighbors(v) for u, v in g.edges()):
        return g.m
    try:
        if kind.record.exact_dp:
            return td_dp_solve(kind, g, make_nice(g, td)).value
        sol = brute_force_solve(kind, g)
    except OracleRefused:
        return None
    return None if sol.infeasible else sol.value


def run_one(
    g: Graph,
    td: TreeDecomposition,
    problem: str,
    engine: str,
    eps: float,
    oracle_name: str,
    threshold_scale: float = 1.0,
    want_opt: bool = True,
) -> dict:
    oracle = build_oracle(oracle_name, problem)
    start = time.perf_counter()
    if engine == "direct":
        if problem not in DIRECT_ENGINES:
            raise ValueError(f"no direct engine for {problem!r}")
        cfg = KernelConfig(eps, oracle, threshold_scale=threshold_scale)
        report = DIRECT_ENGINES[problem](g, td, cfg)
    elif engine == "friendly":
        reg = builtin_instances()
        if problem not in reg:
            raise ValueError(f"{problem!r} is not a registered friendly problem")
        report = approx_friendly_turing(g, td, eps, reg[problem], oracle, threshold_scale)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    runtime = time.perf_counter() - start
    opt = compute_opt(problem, g, td) if want_opt else None
    ratio = None
    if opt not in (None, 0):
        ratio = report.solution.value / opt
    row = {
        "problem": problem,
        "engine": engine,
        "oracle": oracle_name,
        "eps": eps,
        "threshold_scale": threshold_scale,
        "n": g.n,
        "m": g.m,
        "width": td.width,
        "value": report.solution.value,
        "opt": opt,
        "ratio": ratio,
        "oracle_calls": report.oracle_calls,
        "max_query_vertices": report.max_query_vertices,
        "declared_query_bound": report.declared_query_bound,
        "recursion_depth": report.recursion_depth,
        "runtime_sec": round(runtime, 6),
        "flags": list(report.flags),
    }
    return row


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gr(fh.read())


def _load_td(path: str) -> TreeDecomposition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_td(fh.read())


def _finite(x):
    """``x`` with non-finite floats as None: JSON (RFC 8259) has no Infinity or NaN."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(_finite(data), indent=2, default=str, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.td:
        td = _load_td(args.td)
        td_source = "file"
    else:
        td = heuristic_td(g)
        td_source = "heuristic-min-degree"
    report = validate(g, td)
    if not report.valid:
        print("invalid tree decomposition:", "; ".join(report.violations()), file=sys.stderr)
        return 1
    row = run_one(
        g,
        td,
        args.problem,
        args.engine,
        args.eps,
        args.oracle,
        threshold_scale=args.threshold_scale,
    )
    row["td_source"] = td_source
    row["graph"] = args.graph
    _emit(row, args.out)
    return 0


def cmd_td(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    td = _load_td(args.td)
    if args.mode == "validate":
        report = validate(g, td)
        _emit(
            {
                "valid": report.valid,
                "width": report.width,
                "violations": report.violations(),
            },
            args.out,
        )
        return 0 if report.valid else 1
    ntd = make_nice(g, td)
    out = ntd if args.mode == "nice" else make_subconnected(g, ntd)  # needs a connected g
    text = write_td(out.as_td(), n_vertices=g.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    g, td = gen_partial_ktree(args.n, args.k, args.p, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_gr(g))
    if args.td_out:
        with open(args.td_out, "w", encoding="utf-8") as fh:
            fh.write(write_td(td, n_vertices=g.n))
    return 0


_NUMBER = (int, float)
_SPEC_TYPES = {"problem": str, "engine": str, "oracle": str, "threshold_scale": _NUMBER,
               "compute_opt": bool, "graph": str, "td": str, "generator": dict}
_GENERATOR_TYPES = {"n": int, "k": int, "p": _NUMBER, "seed": int, "repetitions": int}


def _check_spec_keys(obj: dict, types: dict, required: tuple[str, ...], where: str) -> None:
    """Raise ValueError naming the first missing or mistyped key of ``obj``."""
    for key in required:
        if key not in obj:
            raise ValueError(f"bench spec: {where}{key!r} is missing")
    for key, typ in types.items():
        value = obj.get(key)
        if key in obj and (isinstance(value, bool) != (typ is bool) or not isinstance(value, typ)):
            raise ValueError(f"bench spec: {where}{key!r} has the wrong type")


def cmd_bench(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("bench spec must be a JSON object")
    source = "generator" if "generator" in spec else "graph"
    _check_spec_keys(spec, _SPEC_TYPES, ("problem", "eps", source), "")
    eps_list = spec["eps"] if isinstance(spec["eps"], list) else [spec["eps"]]
    if not all(isinstance(e, _NUMBER) and not isinstance(e, bool) for e in eps_list):
        raise ValueError("bench spec: 'eps' must be a number or a list of numbers")
    problem = spec["problem"]
    engine = spec.get("engine", "direct")
    oracle_name = spec.get("oracle", "exact-bf")
    scale = spec.get("threshold_scale", 1.0)
    want_opt = spec.get("compute_opt", True)
    rows = []
    failures = 0
    if "generator" in spec:
        gen = spec["generator"]
        _check_spec_keys(gen, _GENERATOR_TYPES, ("n", "k", "p", "seed"), "generator ")
        reps = gen.get("repetitions", 1)
        instances = []
        for rep in range(reps):
            seed = gen["seed"] + rep
            g, td = gen_partial_ktree(gen["n"], gen["k"], gen["p"], seed)
            instances.append((g, td, seed))
    else:
        g = _load_graph(spec["graph"])
        td = _load_td(spec["td"]) if "td" in spec else heuristic_td(g)
        instances = [(g, td, None)]
    for eps in eps_list:
        for g, td, seed in instances:
            try:
                row = run_one(g, td, problem, engine, eps, oracle_name, scale, want_opt)
                row["seed"] = seed
                rows.append(row)
            except (ValueError, OracleRefused) as exc:
                failures += 1
                rows.append({"problem": problem, "eps": eps, "seed": seed, "error": str(exc)})
    ok_rows = [r for r in rows if "error" not in r]
    ratios = [r["ratio"] for r in ok_rows if r.get("ratio") is not None]
    aggregate = {
        "runs": len(rows),
        "failures": failures,
        "max_ratio": max(ratios) if ratios else None,
        "min_ratio": min(ratios) if ratios else None,
        "max_query_vertices": max((r["max_query_vertices"] for r in ok_rows), default=0),
    }
    payload = {"spec": spec, "rows": rows, "aggregate": aggregate}
    _emit(payload, args.out)
    if args.csv:
        _write_csv(rows, args.csv)
    return 0


def _write_csv(rows: list[dict], path: str) -> None:
    fields: list[str] = []
    for r in rows:
        for key in r:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for r in rows:
        writer.writerow({k: (";".join(map(str, v)) if isinstance(v, list) else v) for k, v in r.items()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, with argparse's exit code 2
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atk",
        description="Approximate Turing kernelization for graph problems "
        "parameterized by treewidth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a Turing kernel on one instance")
    p_solve.add_argument("--problem", required=True,
                         help="vc|is|ecc|etp|cvc|cc|fvs|eds|hpack:k2|hpack:k3|hpack:p3")
    p_solve.add_argument("--engine", default="direct", choices=["direct", "friendly"])
    p_solve.add_argument("--eps", type=float, required=True)
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--td")
    p_solve.add_argument("--oracle", default="exact-bf")
    p_solve.add_argument("--threshold-scale", type=float, default=1.0, dest="threshold_scale")
    p_solve.add_argument("--out")
    p_solve.set_defaults(fn=cmd_solve)

    p_td = sub.add_parser("td", help="validate or transform a decomposition")
    p_td.add_argument("mode", choices=["validate", "nice", "subconnected"])
    p_td.add_argument("--graph", required=True)
    p_td.add_argument("--td", required=True)
    p_td.add_argument("--out")
    p_td.set_defaults(fn=cmd_td)

    p_gen = sub.add_parser("gen", help="generate a random partial k-tree")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--td-out", dest="td_out")
    p_gen.set_defaults(fn=cmd_gen)

    p_bench = sub.add_parser("bench", help="run an experiment spec")
    p_bench.add_argument("spec")
    p_bench.add_argument("--out")
    p_bench.add_argument("--csv")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OracleRefused, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, SystemError):  # CPython 3.11 may turn a MemoryError into SystemError
        pass  # reported below, once the failed call's frames and their data are freed
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
