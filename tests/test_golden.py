"""Golden reports: every engine's ``RunReport.to_dict()`` on a fixed grid.

The grid is each of the five direct engines and the eight built-in friendly
problems, on three generator seeds at threshold scales 1, 0.1 and 0.01.
An entry is the report, or the type and message of the exception the run
raised. A change that moves any split choice, oracle answer or flag shows up
here as a changed entry.

Rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and list every entry that changed in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

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

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

SEEDS = (0, 1, 2)
SCALES = (1.0, 0.1, 0.01)

DIRECT = {
    "vc": approx_vc_turing,
    "is": approx_is_turing,
    "ecc": approx_ecc_turing,
    "etp": approx_etp_turing,
    "cvc": approx_cvc_turing,
}

# (engine, problem) -> (oracle, n, k, p, eps, connected)
CASES = {
    ("direct", "vc"): ("exact-dp", 80, 2, 0.8, 0.5, False),
    ("direct", "is"): ("exact-dp", 80, 2, 0.8, 0.5, False),
    ("direct", "ecc"): ("exact-tf-ecc", 80, 1, 0.8, 0.5, False),
    ("direct", "etp"): ("exact-bf", 30, 2, 0.9, 1.0, False),
    ("direct", "cvc"): ("exact-bf", 50, 1, 0.6, 1.0, True),
    ("friendly", "vc"): ("exact-dp", 60, 2, 0.8, 0.5, False),
    ("friendly", "is"): ("exact-dp", 60, 2, 0.8, 0.5, False),
    ("friendly", "cc"): ("exact-bf", 30, 2, 0.8, 1.0, False),
    ("friendly", "fvs"): ("exact-bf", 30, 2, 0.8, 1.0, False),
    ("friendly", "eds"): ("exact-bf", 30, 1, 0.8, 1.0, False),
    ("friendly", "hpack:k2"): ("exact-bf", 30, 2, 0.8, 1.0, False),
    ("friendly", "hpack:k3"): ("exact-bf", 30, 2, 0.8, 1.0, False),
    ("friendly", "hpack:p3"): ("exact-bf", 30, 2, 0.8, 1.0, False),
}


def run_case(engine: str, problem: str, seed: int, scale: float) -> dict:
    oracle_name, n, k, p, eps, connected = CASES[engine, problem]
    gen = gen_connected_partial_ktree if connected else gen_partial_ktree
    g, td = gen(n, k, p, seed)
    oracle = build_oracle(oracle_name, problem)
    try:
        if engine == "direct":
            rep = DIRECT[problem](g, td, KernelConfig(eps, oracle, scale))
        else:
            rep = approx_friendly_turing(g, td, eps, builtin_instances()[problem], oracle, scale)
    except Exception as exc:  # the grid records failures as data
        return {"error": type(exc).__name__, "message": str(exc)}
    return rep.to_dict()


def all_reports() -> dict[str, dict]:
    out = {}
    for engine, problem in CASES:
        for seed in SEEDS:
            for scale in SCALES:
                report = run_case(engine, problem, seed, scale)
                # round-trip so the comparison sees what the file holds
                out[f"{engine}/{problem}/seed={seed}/scale={scale}"] = json.loads(json.dumps(report))
    return out


def test_reports_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = all_reports()
    assert sorted(actual) == sorted(expected)
    changed = [
        f"{key} ({', '.join(_changed_fields(expected[key], actual[key]))})"
        for key in sorted(expected)
        if actual[key] != expected[key]
    ]
    assert not changed, f"{len(changed)} reports changed: " + "; ".join(changed)


def _changed_fields(old: dict, new: dict) -> list[str]:
    return sorted(f for f in old.keys() | new.keys() if old.get(f) != new.get(f))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_reports(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
