"""Smoke test of the benchmark harness, so that it cannot rot.

    python3 -m pytest perfbench/test_smoke.py

Runs the smallest member of each workload family (kC2, D(kC2), H_2 and
laurent --window 2) once, traced and untraced, and checks that every metric
BENCHMARK.json names is emitted with its unit.  Full runs are never part of
a test; the tier-1 suite does not collect this directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))
from hopfcheck.document import emit_document, parse_document  # noqa: E402
from hopfcheck.presets import cyclic_group_document  # noqa: E402

from workloads import (  # noqa: E402
    WORKLOADS, cyclic_group, drinfeld_double_cyclic, laurent_quotient, permute_basis)


def run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(trace, section):
    lines, result = run("--smoke", "--workload", "all", "--seed", "3", "--trace", str(trace))
    assert result["correct"], [line for line in lines if " GATE " in line]
    # D(kC2) has v = v^-1, so even cqt.dual_bridge_v passes at this size
    assert result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS) * (1 + trace)
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    expected = {f"{w['name']}.{name}" for w in SPEC["workloads"] for name in units}
    assert set(result["metrics"]) == expected
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]]


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_negative_control_fails_the_gate():
    lines, result = run("--negative-control", "--workload", "group-dual", "--seconds", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    failing = next(line for line in lines if line.startswith("group-dual failing_checks "))
    assert "hopf.associativity" in json.loads(failing.split(" ", 2)[2])


@pytest.mark.parametrize("doc", [cyclic_group(3), drinfeld_double_cyclic(3),
                                 laurent_quotient(4), laurent_quotient(4, 10007)],
                         ids=lambda d: f"{d['name']}-{d['field']['type']}")
def test_generated_documents_are_canonical(doc):
    for candidate in (doc, permute_basis(doc, 1), permute_basis(doc, 2)):
        assert emit_document(parse_document(candidate)) == candidate


def test_cyclic_generator_matches_the_group_preset():
    assert cyclic_group(8) == emit_document(cyclic_group_document(8))
