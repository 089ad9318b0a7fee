"""Quick check of every benchmark path on tiny instances.

    python3 atkbench/smoke.py

Runs each workload untraced and traced at a small n, confirms that every
metric BENCHMARK.json names is printed with its unit, that the tracer counts
each oracle query once, and that the guarantee gate fails a run whose oracle
breaks the approximation ratio.
Exits non-zero on the first problem found.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys

import run
from spans import Tracer

TINY_N = {"vc-direct": 300, "ecc-forest": 300, "is-friendly": 200}


def _run(name: str, wl: run.Workload, trace: bool) -> tuple[int, str, dict]:
    buf = io.StringIO()
    code = run.run(name, wl, seed=1, seconds=0, trace=trace, out=buf)
    text = buf.getvalue()
    return code, text, json.loads(text.splitlines()[-1])


def main() -> int:
    run._load_atk()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name, wl in run.WORKLOADS.items():
        for trace in (False, True):
            code, text, result = _run(name, dataclasses.replace(wl, n=TINY_N[name]), trace)
            where = f"{name} trace={int(trace)}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: run failed ({result['failed']} of {result['attempted']})")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{where}: metrics {sorted(printed.items())} differ from BENCHMARK.json")
            for key, unit in expected[trace].items():
                if not any(line.startswith(f"{name}  {key} = ") and line.endswith(f" {unit}")
                           for line in text.splitlines()):
                    problems.append(f"{where}: no printed line for {key} in {unit}")
    # The tracer must count each oracle query once, although the audited
    # oracle forwards every query to an inner Oracle.solve.
    for name, wl in run.WORKLOADS.items():
        tiny = dataclasses.replace(wl, n=TINY_N[name])
        g, td = run.set_up(tiny, 1)
        with Tracer() as tracer:
            report, _wall = run.solve(tiny, g, td)
        calls = tracer.layer_totals().get("oracles.solve", (0, 0))[0]
        if calls != report.oracle_calls:
            problems.append(f"{name}: traced {calls} oracle queries, report says {report.oracle_calls}")
    # An oracle that pads every cover to twice its size breaks the (1+eps) ratio.
    lossy = dataclasses.replace(run.WORKLOADS["vc-direct"], n=TINY_N["vc-direct"], oracle="lossy:2")
    code, _text, result = _run("vc-direct", lossy, trace=False)
    if code == 0 or result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"gate passed a lossy:2 oracle (failed {result['failed']} of {result['attempted']})")
    for line in problems:
        print("smoke: " + line, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
