"""Golden `hopf` output, compared byte for byte.

tests/golden/<case>.json holds the `verify --json` report of every preset
(the runs of scripts/verify_presets.py) and of two small generated
documents: H_4 over F_10007 with the antipode omitted, so that it is
solved for, and the Drinfeld double D(kC2).  It also holds the reports of
the benchmark's input shapes: D(kC4) on a permuted basis (the only
nontrivial R), kC8 with the sign character (a trivial R that still runs
the character and witness checks) and H_10 over F_10007.
tests/golden/cli/<case>.json holds, for the presets, H_4 and D(kC2)
(the Laurent family at window 2), the exit
code, stdout and stderr of the text `verify` report, of `check` for every
theorem token and of `compute` for every target, usage errors included.
It holds the same transcript for one failing run: H_4 with sigma(g, g)
bumped, whose braiding axioms fail, so that the SKIP lines and the
integral-twist lines of a failing braided run are frozen too.
A change that alters any of them fails here.  When output is meant to
change, regenerate every file with

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

from hopfcheck.cli import CHECK_TOKENS, COMPUTE_TARGETS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
P = 10007


def laurent_quotient_document(n: int) -> dict:
    """H_n = Laurent / (g^n - 1) over F_10007, basis g^i x^j at index
    2 i + j, with the braiding sigma and no antipode."""
    idx = lambda i, j: 2 * (i % n) + j
    sign = lambda e: P - 1 if e % 2 else 1
    return {
        "name": f"H{n}",
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


def double_c4_permuted_document() -> dict:
    """D(kC4) with its canonical R = sum_g delta_g (x) g, the basis delta_a g^h
    (index 4 a + h) relabelled by a fixed permutation, so that the unit is
    not the first basis element."""
    n = 4
    perm = (5, 12, 0, 9, 14, 3, 7, 1, 10, 15, 2, 8, 13, 6, 11, 4)  # old index -> new
    idx = lambda a, h: perm[n * (a % n) + h % n]
    basis = [""] * n * n
    for a in range(n):
        for h in range(n):
            basis[idx(a, h)] = f"d{a}" + ("" if h == 0 else "g" if h == 1 else f"g^{h}")
    return {
        "name": "D(kC4)",
        "field": {"type": "rationals"},
        "basis": basis,
        "mult": sorted([idx(a, g), idx(a, h), idx(a, g + h), 1]
                       for a in range(n) for g in range(n) for h in range(n)),
        "comult": sorted([idx(a, g), idx(b, g), idx(a - b, g), 1]
                         for a in range(n) for g in range(n) for b in range(n)),
        "counit": sorted([idx(a, g), 1 if a == 0 else 0] for a in range(n) for g in range(n)),
        "antipode": sorted([idx(-a, -g), idx(a, g), 1] for a in range(n) for g in range(n)),
        "R": sorted([1, idx(g, 0), idx(a, g)] for g in range(n) for a in range(n)),
    }


def bumped_sigma_document() -> dict:
    """H_4 over F_10007 with sigma(g, g) = 5 instead of 1."""
    doc = laurent_quotient_document(4)
    doc["sigma"][2][2] = 5
    return doc


def cyclic_group_document(n: int) -> dict:
    """kC_n with R = 1 (x) 1, the all-ones braiding, the sign character and
    the grouplike g."""
    return {
        "name": f"kC{n}",
        "field": {"type": "rationals"},
        "basis": ["1", "g"] + [f"g^{i}" for i in range(2, n)],
        "mult": [[i, j, (i + j) % n, 1] for i in range(n) for j in range(n)],
        "comult": [[i, i, i, 1] for i in range(n)],
        "counit": [[i, 1] for i in range(n)],
        "antipode": sorted([(-i) % n, i, 1] for i in range(n)),
        "R": [[1, 0, 0]],
        "sigma": [[1] * n for _ in range(n)],
        "characters": {"sign": [(-1) ** i for i in range(n)]},
        "grouplikes": {"g": [0, 1] + [0] * (n - 2)},
    }


PRESETS = {
    "group_c2": ["preset:group:C2"],
    "group_c4": ["preset:group:C4"],
    "sweedler4": ["preset:sweedler4", "--xi", "1"],
    "sweedler4_xi0": ["preset:sweedler4", "--xi", "0"],
    "laurent": ["preset:laurent", "--window", "5"],
}
CLI_PRESETS = {**PRESETS, "laurent": ["preset:laurent", "--window", "2"]}
DOCUMENTS = {"h4_f10007": lambda: laurent_quotient_document(4),
             "double_c2": double_c2_document}
CASES = sorted([*PRESETS, *DOCUMENTS])
# failing runs, whose CLI transcripts alone are frozen
FAILING_DOCUMENTS = {"h4_f10007_bumped_sigma": bumped_sigma_document}
CLI_CASES = sorted([*CASES, *FAILING_DOCUMENTS])
# the benchmark's input shapes, whose verify reports alone are frozen
REPORT_DOCUMENTS = {"double_c4_permuted": double_c4_permuted_document,
                    "group_c8": lambda: cyclic_group_document(8),
                    "h10_f10007": lambda: laurent_quotient_document(10)}
REPORT_CASES = sorted([*CASES, *REPORT_DOCUMENTS])


def source(case: str, presets: dict, workdir: Path) -> list[str]:
    if case in presets:
        return presets[case]
    path = workdir / f"{case}.json"
    make = {**DOCUMENTS, **REPORT_DOCUMENTS, **FAILING_DOCUMENTS}[case]
    path.write_text(json.dumps(make()), encoding="utf-8")
    return [str(path)]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def report(case: str, workdir: Path) -> str:
    code, out, _ = run(["verify", *source(case, PRESETS, workdir), "--json"])
    assert code == 0, f"{case}: exit {code}"
    return out


def cli_transcript(case: str, workdir: Path) -> str:
    """Every text command line on one source, as canonical JSON; a document
    path is recorded as its file name so the transcript does not depend on
    where the document was written."""
    where, *flags = source(case, CLI_PRESETS, workdir)
    lines = [["verify", where, *flags]]
    lines += [["check", where, token, *flags] for token in CHECK_TOKENS]
    lines += [["compute", where, what, *flags] for what in COMPUTE_TARGETS]
    runs = []
    for argv in lines:
        code, out, err = run(argv)
        shown = [Path(a).name if a == where and case not in CLI_PRESETS else a
                 for a in argv]
        runs.append({"argv": shown, "exit": code, "stdout": out, "stderr": err})
    return json.dumps(runs, indent=1) + "\n"


@pytest.mark.parametrize("case", REPORT_CASES)
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert report(case, tmp_path) == expected


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_transcript_matches_golden(case, tmp_path):
    expected = (GOLDEN / "cli" / f"{case}.json").read_text(encoding="utf-8")
    assert cli_transcript(case, tmp_path) == expected


if __name__ == "__main__":
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in REPORT_CASES:
            (GOLDEN / f"{case}.json").write_text(report(case, Path(tmp)), encoding="utf-8")
            print(f"wrote {case}", file=sys.stderr)
        for case in CLI_CASES:
            (GOLDEN / "cli" / f"{case}.json").write_text(cli_transcript(case, Path(tmp)),
                                                         encoding="utf-8")
            print(f"wrote cli/{case}", file=sys.stderr)
