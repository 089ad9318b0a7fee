"""Print one digest per grid row (an engine with its oracle and k) of its run
reports over a fixed grid.

Every direct engine and every built-in friendly problem runs on generated
partial k-trees at two or three sizes and three seeds, at three threshold
scales and at eps 0.5 and 1 (ecc also on connected inputs, and on partial
2-trees, whose remainders fall apart).
A run's entry is ``RunReport.to_dict()``, or the type and message of the
exception it raised; an engine's digest is a SHA-256 of its entries in grid
order. Two checkouts print the same digest lines exactly when every run
reports the same, so running it at a parent commit and at a change shows
whether the change moved any report. The second digest of a row leaves out
the query counts (``oracle_calls`` and ``max_query_vertices``), so a change
that only saves queries still shows the same outcomes there:

    PYTHONPATH=src python tests/report_digest.py

The last line is the time taken: under a minute on one core (about 35 s on
a 2-core host with Python 3.11). pytest does not collect the file.
"""

from __future__ import annotations

import hashlib
import json
import time

from atk.cli import build_oracle
from atk.friendly import approx_friendly_turing, builtin_instances
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.kernels import (
    KernelConfig,
    approx_cvc_turing,
    approx_ecc_turing,
    approx_etp_turing,
    approx_is_turing,
    approx_vc_turing,
)

DIRECT = {
    "vc": approx_vc_turing,
    "is": approx_is_turing,
    "ecc": approx_ecc_turing,
    "etp": approx_etp_turing,
    "cvc": approx_cvc_turing,
}

SPLIT = (1.0, 0.1, 0.01)  # threshold scales
SMALL = (0.1, 0.01, 0.002)  # for engines whose exhaustive queries refuse larger pieces

# (engine, problem, oracle, sizes, k, p, connected inputs, threshold scales)
GRID = [
    ("direct", "vc", "exact-dp", (60, 300, 1000), 3, 0.9, (False,), SPLIT),
    ("direct", "is", "exact-dp", (60, 300, 1000), 3, 0.9, (False,), SPLIT),
    ("direct", "ecc", "exact-tf-ecc", (80, 300, 1000), 1, 0.8, (False, True), SPLIT),
    ("direct", "ecc", "exact-bf", (60, 300), 2, 0.5, (False,), SMALL),
    ("direct", "etp", "exact-bf", (30, 60), 2, 0.9, (False,), SPLIT),
    ("direct", "cvc", "exact-bf", (30, 50), 1, 0.6, (True,), SMALL),
    ("friendly", "vc", "exact-dp", (60, 300, 1000), 3, 0.9, (False,), SPLIT),
    ("friendly", "is", "exact-dp", (60, 300, 1000), 3, 0.9, (False,), SPLIT),
    ("friendly", "cc", "exact-bf", (30, 60), 2, 0.8, (False,), SMALL),
    ("friendly", "fvs", "exact-bf", (30, 60), 2, 0.8, (False,), SMALL),
    ("friendly", "eds", "exact-bf", (30, 60), 1, 0.8, (False,), SMALL),
    ("friendly", "hpack:k2", "exact-bf", (30, 60), 2, 0.8, (False,), SMALL),
    ("friendly", "hpack:k3", "exact-bf", (24, 40), 2, 0.8, (False,), SMALL),
    ("friendly", "hpack:p3", "exact-bf", (24, 40), 2, 0.8, (False,), SMALL),
]
SEEDS = (0, 1, 2)
EPSILONS = (0.5, 1.0)


def entry(engine: str, problem: str, oracle_name: str, g, td, eps: float, scale: float):
    oracle = build_oracle(oracle_name, problem)
    try:
        if engine == "direct":
            return DIRECT[problem](g, td, KernelConfig(eps, oracle, scale)).to_dict()
        instance = builtin_instances()[problem]
        return approx_friendly_turing(g, td, eps, instance, oracle, scale).to_dict()
    except Exception as exc:  # a refused query is an outcome too
        return {"error": type(exc).__name__, "message": str(exc)}


QUERY_COUNTS = ("oracle_calls", "max_query_vertices")


def digest(engine, problem, oracle, sizes, k, p, connected, scales) -> tuple[str, str, int, int]:
    """A grid row's digest, its digest without the query counts, its number
    of runs and how many of them raised."""
    h, outcomes, runs, errors = hashlib.sha256(), hashlib.sha256(), 0, 0
    for conn in connected:
        gen = gen_connected_partial_ktree if conn else gen_partial_ktree
        for n in sizes:
            for seed in SEEDS:
                g, td = gen(n, k, p, seed)
                for scale in scales:
                    for eps in EPSILONS:
                        out = entry(engine, problem, oracle, g, td, eps, scale)
                        h.update(json.dumps(out, sort_keys=True).encode() + b"\n")
                        kept = {key: v for key, v in out.items() if key not in QUERY_COUNTS}
                        outcomes.update(json.dumps(kept, sort_keys=True).encode() + b"\n")
                        runs += 1
                        errors += "error" in out
    return h.hexdigest()[:16], outcomes.hexdigest()[:16], runs, errors


def main() -> None:
    start = time.perf_counter()
    for row in GRID:
        value, outcomes, runs, errors = digest(*row)
        label = f"{row[0]}/{row[1]} {row[2]} k={row[4]}"
        print(f"{label:<32} {value}  {runs} runs, {errors} errors  {outcomes}")
    print(f"# {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
