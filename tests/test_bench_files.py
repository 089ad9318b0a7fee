"""Every committed ``BENCH_*.json`` parses and names only what exists.

A bench file records one change's before/after numbers: the keys
``change``, ``parent_commit``, ``machine`` and ``records`` are required. An
``end_to_end_medians`` record may name only workloads and end-to-end
metrics that ``BENCHMARK.json`` declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_declared_workloads_and_metrics(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    bench = json.loads(path.read_text())
    assert {"change", "parent_commit", "machine", "records"} <= set(bench)
    assert isinstance(bench["records"], list) and bench["records"]
    for record in bench["records"]:
        assert "kind" in record
        if record["kind"] != "end_to_end_medians":
            continue
        assert record["workloads"] and set(record["workloads"]) <= workloads
        for name, entry in record["workloads"].items():
            assert entry["parent"] and entry["change"], name
            for key, values in entry.items():  # parent, change, quartiles, ...
                if isinstance(values, dict) and key != "failed_runs":
                    assert set(values) <= metrics, (name, key)
