#!/usr/bin/env python3
"""Time `hopf verify --json` on each of the larger inputs.

The inputs are kC16, D(kC5), D(kC6), H_16 and H_32 over F_10007 (the last
two with the antipode omitted, so that it is solved for), each on a basis
permuted by a fixed seed, and the Laurent family at window 20.  The
generators are the benchmark's own, in perfbench/workloads.py; the Laurent
family is the preset, given by its argv.  Every verify runs in this
process, REPEATS times per input, one after the other; for each input the
script prints its dimension (for the infinite-dimensional Laurent family,
the number of basis keys in its window), the median and the min-max wall
seconds of the verifies and the sha256 of the JSON report, so that two
checkouts can be compared on speed and on output at once.  It exits 1 if
an input's report differs between repeats:

    python3 scripts/scale.py [--json PATH]

With --json it also writes those figures, with the repeat count and the
Python version, to PATH, together with a host calibration: the seconds of
perfbench/speed.py's probe, timed before and after the inputs, beside the
probe time that speed.py takes as its nominal machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import speed  # noqa: E402
from hopfcheck import laurent  # noqa: E402
from hopfcheck.cli import build_parser, main as hopf_main  # noqa: E402
from workloads import (  # noqa: E402
    QUOTIENT_PRIME,
    cyclic_group,
    drinfeld_double_cyclic,
    laurent_quotient,
    permute_basis,
)

SEED = 1
REPEATS = 7
# a generator of a document, or the argv of a Laurent family preset
INPUTS = (
    ("kC16", lambda: cyclic_group(16)),
    ("D(kC5)", lambda: drinfeld_double_cyclic(5)),
    ("D(kC6)", lambda: drinfeld_double_cyclic(6)),
    ("H_16/F_10007", lambda: laurent_quotient(16, QUOTIENT_PRIME)),
    ("H_32/F_10007", lambda: laurent_quotient(32, QUOTIENT_PRIME)),
    ("laurent/w20", ("preset:laurent", "--window", "20")),
)


def verify(source: list[str]) -> tuple[int, float, str]:
    """Exit code, wall seconds and sha256 of one in-process verify --json."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = hopf_main(["verify", *source, "--json"])
    seconds = time.perf_counter() - start
    return code, seconds, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def verify_input(make, directory: Path) -> tuple[int, int, float, str]:
    """Dimension, then verify's results, for one input: a Laurent preset
    argv as it is, or a generated document written to directory on its
    permuted basis."""
    if isinstance(make, tuple):
        window = build_parser().parse_args(["verify", *make]).window
        return (len(laurent.basis_ops(window).keys), *verify(list(make)))
    doc = permute_basis(make(), SEED)
    path = directory / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return (len(doc["basis"]), *verify([str(path)]))


def calibrate(seconds: float = 0.5) -> dict:
    """The probe of perfbench/speed.py, timed on entry, on exit and every
    PROBE_INTERVAL_S while this process idles for the given seconds."""
    with speed.SpeedProbe() as probe:
        time.sleep(seconds)
    return {"probe_s_median": statistics.median(probe.probes), "probe_s_min": min(probe.probes),
            "probe_s_max": max(probe.probes), "probes": len(probe.probes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time verify on the larger inputs.")
    parser.add_argument("--json", metavar="PATH", help="also write the figures to PATH as JSON")
    args = parser.parse_args(argv)
    before = calibrate() if args.json else None
    print(f"{'input':<14} {'dim':>4} {'exit':>4} {'median_s':>9} {'min-max_s':>11}"
          "  report sha256")
    worst, rows = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in INPUTS:
            runs = [verify_input(make, Path(tmp)) for _ in range(REPEATS)]
            dim, code, _, digest = runs[0]
            seconds = [run[2] for run in runs]
            spread = f"{min(seconds):.2f}-{max(seconds):.2f}"
            print(f"{name:<14} {dim:>4} {code:>4} {statistics.median(seconds):>9.2f}"
                  f" {spread:>11}  {digest}", flush=True)
            rows.append({"input": name, "dim": dim, "exit": code,
                         "median_s": statistics.median(seconds), "min_s": min(seconds),
                         "max_s": max(seconds), "repeats": REPEATS, "sha256": digest})
            worst = max(worst, code)
            if len({(run[1], run[3]) for run in runs}) > 1:
                print(f"{name}: the report differs between repeats", file=sys.stderr)
                worst = max(worst, 1)
    if args.json:
        host = {"python": platform.python_version(), "nominal_probe_s": speed.NOMINAL_PROBE_S,
                "calibration_before": before, "calibration_after": calibrate()}
        Path(args.json).write_text(json.dumps({"host": host, "inputs": rows}, indent=2) + "\n",
                                   encoding="utf-8")
    return worst


if __name__ == "__main__":
    sys.exit(main())
