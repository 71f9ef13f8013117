"""Every key and pair check goes through the one grid loop, report.grid_check,
so a traced verify (perfbench/spans.py) counts it as a grid with its points.

A report line counts for a check when its name is the check's name or ends
with "." and that name (the dual and flip_braiding prefixes); each such line
must be one grid span of that name in the trace.
"""

import json
from collections import Counter

from hopfcheck import cli
from test_trace_points import load_spans

KEY_AND_PAIR_CHECKS = (
    "cqt.v_is_u_after_antipode",
    "cqt.u_v_inverse_commute",
    "braided_modular.u_inv_v_eq_alpha_conv_beta_a",
    "flip_braiding.u_swaps_to_v_inverse",
    "coinner.first_factor_s2_stable",
    "s2_witness.implements_s2",
    "family.alpha_matches_closed_form",
)


def traced_verify(capsys, *argv):
    """The JSON report of a verify run under the trace, and the number of
    grid spans per check name."""
    spans = load_spans()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        rc = cli.main(["verify", *argv, "--json"])
    finally:
        restore()
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    grids = Counter(s.attrs["check"] for s in tracer.spans if s.name == spans.GRID_SPAN)
    return report, grids


def test_key_and_pair_checks_are_traced_grids(capsys):
    reported = Counter()
    for argv in (("preset:sweedler4",), ("preset:laurent", "--window", "2")):
        report, grids = traced_verify(capsys, *argv)
        names = [c["name"] for c in report["checks"]]
        for check in KEY_AND_PAIR_CHECKS:
            lines = sum(1 for n in names if n == check or n.endswith("." + check))
            assert grids[check] == lines, (argv, check, grids[check], lines)
            reported[check] += lines
    # the two runs report every listed check, so no comparison is vacuous
    assert all(reported[check] for check in KEY_AND_PAIR_CHECKS), reported
