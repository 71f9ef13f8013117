"""Golden `hopf verify --json` reports, compared byte for byte.

tests/golden/ holds the report of every preset (the runs of
scripts/verify_presets.py) and of two small generated documents: H_4 over
F_10007 with the antipode omitted, so that it is solved for, and the
Drinfeld double D(kC2).  A change that alters any of them fails here.
When a report is meant to change, regenerate every file with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of tests/golden/ before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hopfcheck.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
P = 10007


def h4_prime_document() -> dict:
    """H_4 = Laurent / (g^4 - 1) over F_10007, basis g^i x^j at index
    2 i + j, with the braiding sigma and no antipode."""
    n = 4
    idx = lambda i, j: 2 * (i % n) + j
    sign = lambda e: P - 1 if e % 2 else 1
    return {
        "name": "H4",
        "field": {"type": "prime", "p": P},
        "basis": [("" if i == 0 else "g" if i == 1 else f"g^{i}") + ("x" if j else "") or "1"
                  for i in range(n) for j in (0, 1)],
        "mult": sorted([idx(i, j), idx(t, s), idx(i + t, j + s), sign(j * t)]
                       for i in range(n) for j in (0, 1)
                       for t in range(n) for s in (0, 1) if j + s <= 1),
        "comult": sorted(e for i in range(n) for e in (
            [idx(i, 0), idx(i, 0), idx(i, 0), 1],
            [idx(i, 1), idx(i, 1), idx(i, 0), 1],
            [idx(i, 1), idx(i + 1, 0), idx(i, 1), 1])),
        "counit": [[idx(i, j), 1 - j] for i in range(n) for j in (0, 1)],
        "sigma": [[0 if (j or s) else sign(i * t) for t in range(n) for s in (0, 1)]
                  for i in range(n) for j in (0, 1)],
    }


def double_c2_document() -> dict:
    """D(kC2) on the basis delta_a g^h (index 2 a + h), R = sum_g delta_g (x) g."""
    idx = lambda a, h: 2 * a + h
    return {
        "name": "D(kC2)",
        "field": {"type": "rationals"},
        "basis": ["d0", "d0g", "d1", "d1g"],
        "mult": sorted([idx(a, g), idx(a, h), idx(a, (g + h) % 2), 1]
                       for a in range(2) for g in range(2) for h in range(2)),
        "comult": sorted([idx(a, g), idx(b, g), idx((a - b) % 2, g), 1]
                         for a in range(2) for g in range(2) for b in range(2)),
        "counit": [[idx(a, g), 1 - a] for a in range(2) for g in range(2)],
        "antipode": sorted([idx(a, g), idx(a, g), 1] for a in range(2) for g in range(2)),
        "R": [[1, idx(g, 0), idx(a, g)] for g in range(2) for a in range(2)],
    }


PRESETS = {
    "group_c2": ["preset:group:C2"],
    "group_c4": ["preset:group:C4"],
    "sweedler4": ["preset:sweedler4", "--xi", "1"],
    "sweedler4_xi0": ["preset:sweedler4", "--xi", "0"],
    "laurent": ["preset:laurent", "--window", "5"],
}
DOCUMENTS = {"h4_f10007": h4_prime_document, "double_c2": double_c2_document}
CASES = sorted([*PRESETS, *DOCUMENTS])


def report(case: str, workdir: Path) -> str:
    if case in PRESETS:
        source = PRESETS[case]
    else:
        path = workdir / f"{case}.json"
        path.write_text(json.dumps(DOCUMENTS[case]()), encoding="utf-8")
        source = [str(path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", *source, "--json"])
    assert code == 0, f"{case}: exit {code}"
    return buf.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert report(case, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN / f"{case}.json").write_text(report(case, Path(tmp)), encoding="utf-8")
            print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
