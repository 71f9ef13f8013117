#!/usr/bin/env python3
"""Time one `hopf verify --json` on each of the larger inputs.

The inputs are kC16, D(kC5), D(kC6), H_16 and H_32 over F_10007 (the last
two with the antipode omitted, so that it is solved for), each on a basis
permuted by a fixed seed, and the Laurent family at window 20.  The
generators are the benchmark's own, in perfbench/workloads.py; the Laurent
family is the preset, given by its argv.  Every verify runs in this
process, one after the other; for each input the script prints its
dimension (for the infinite-dimensional Laurent family, the number of
basis keys in its window), the wall seconds of the verify and the sha256
of the JSON report, so that two checkouts can be compared on speed and on
output at once:

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
