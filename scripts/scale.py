#!/usr/bin/env python3
"""Time one `hopf verify --json` on each of the larger generated inputs.

The inputs are kC16, D(kC5), D(kC6), H_16 and H_32 over F_10007 (the last
two with the antipode omitted, so that it is solved for), each on a basis
permuted by a fixed seed.  The generators are the benchmark's own, in
perfbench/workloads.py.  Every verify runs in this process, one after the
other; for each input the script prints its dimension, the wall seconds
of the verify and the sha256 of the JSON report, so that two checkouts can
be compared on speed and on output at once:

    python3 scripts/scale.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hopfcheck.cli import main as hopf_main  # noqa: E402
from workloads import (  # noqa: E402
    QUOTIENT_PRIME,
    cyclic_group,
    drinfeld_double_cyclic,
    laurent_quotient,
    permute_basis,
)

SEED = 1
INPUTS = (
    ("kC16", lambda: cyclic_group(16)),
    ("D(kC5)", lambda: drinfeld_double_cyclic(5)),
    ("D(kC6)", lambda: drinfeld_double_cyclic(6)),
    ("H_16/F_10007", lambda: laurent_quotient(16, QUOTIENT_PRIME)),
    ("H_32/F_10007", lambda: laurent_quotient(32, QUOTIENT_PRIME)),
)


def verify(path: Path) -> tuple[int, float, str]:
    """Exit code, wall seconds and sha256 of one in-process verify --json."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = hopf_main(["verify", str(path), "--json"])
    seconds = time.perf_counter() - start
    return code, seconds, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def verify_input(make, directory: Path) -> tuple[int, int, float, str]:
    """Dimension, then verify's results, for one input written to directory
    on its permuted basis."""
    doc = permute_basis(make(), SEED)
    path = directory / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return (len(doc["basis"]), *verify(path))


def main() -> int:
    print(f"{'input':<14} {'dim':>4} {'exit':>4} {'verify_s':>9}  report sha256")
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in INPUTS:
            dim, code, seconds, digest = verify_input(make, Path(tmp))
            print(f"{name:<14} {dim:>4} {code:>4} {seconds:>9.2f}  {digest}", flush=True)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
