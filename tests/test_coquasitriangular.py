import dataclasses
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcheck import coquasitriangular, laurent
from hopfcheck.cli import main
from hopfcheck.cofrobenius import cofrobenius_data
from hopfcheck.coquasitriangular import (
    Braiding,
    braided_chain,
    braided_functionals,
    braided_modular_corollary_checks,
    braiding_axiom_checks,
    braiding_from_matrix,
    dualize_qt,
    flip_braiding,
    flip_braiding_checks,
    grouplike_homomorphism_checks,
    grouplike_witness_checks,
    modular_convolution_checks,
)
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import NotInvertibleError, require_passing, verify_hopf
from hopfcheck.laurent import family_data
from hopfcheck.presets import cyclic_group_document, sweedler_document
from hopfcheck.quasitriangular import RMatrix, drinfeld_elements
from hopfcheck.report import FAIL, PASS, SKIP, CheckResult
from test_golden import (
    double_c2_document,
    double_c4_permuted_document,
    laurent_quotient_document,
)

ONE = Fraction(1)
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def trivial_rows(n):
    return [[ONE] * n for _ in range(n)]


def values(ops, fn):
    return tuple(fn(k) for k in ops.keys)


def dualize(algebra, r):
    """dualize_qt after the Drinfeld elements it bridges to."""
    qt, _ = drinfeld_elements(r)
    return dualize_qt(r, qt)


def modular_chain(c, br, fns):
    return (modular_convolution_checks(c.ops, br, fns, c.alpha, c.a, c.a_inv)
            + braided_modular_corollary_checks(c.ops, br, fns, c.alpha, c.alpha_inv,
                                               c.a, c.a_inv))


def test_trivial_braiding_on_group_algebra(c2):
    br, inv = braiding_from_matrix(c2, trivial_rows(2))
    assert inv == {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (1, 1): ONE}
    c = cofrobenius_data(c2)
    for r in braiding_axiom_checks(c.ops, br):
        assert r.ok, r
    fns, checks = braided_functionals(c.ops, br)
    assert all(r.ok for r in checks)
    assert values(c.ops, fns["u"]) == values(c.ops, c.ops.eps)
    assert values(c.ops, fns["v"]) == values(c.ops, c.ops.eps)
    results = modular_chain(c, br, fns)
    by_name = {r.name: r for r in results}
    # the group algebra is unimodular, so the specialization actually runs
    assert by_name["braided_modular.unimodular_u_inv_v_eq_alpha"].status == "pass"
    assert all(r.ok for r in results)


def test_sign_braiding_on_group_algebra(c2):
    br, _ = braiding_from_matrix(c2, [[ONE, ONE], [ONE, -ONE]])
    ops = c2.ops
    for r in braiding_axiom_checks(ops, br):
        assert r.ok, r
    fns, checks = braided_functionals(ops, br)
    assert all(r.ok for r in checks)
    assert values(ops, fns["u"]) == (ONE, -ONE)


def test_dualized_sweedler_bridge(sweedler, sweedler_r):
    dual, br, checks = dualize(sweedler, sweedler_r)
    fns, fn_checks = br.functionals
    assert all(r.ok for r in checks)
    ops = dual.ops
    for r in braiding_axiom_checks(ops, br):
        assert r.ok, r
    assert all(r.ok for r in fn_checks)
    assert values(ops, braided_functionals(ops, br)[0]["u"]) == values(ops, fns["u"])
    # the braided functionals evaluate on the dual as the Drinfeld element g
    assert values(ops, fns["u"]) == (Fraction(0), ONE, Fraction(0), Fraction(0))
    assert values(ops, fns["v"]) == values(ops, fns["u"])


def test_dual_modular_chain(sweedler, sweedler_r):
    dual, br, _ = dualize(sweedler, sweedler_r)
    fns = br.functionals[0]
    c = cofrobenius_data(dual)
    results = modular_chain(c, br, fns)
    by_name = {r.name: r for r in results}
    assert by_name["braided_modular.unimodular_u_inv_v_eq_alpha"].status == "skipped"
    assert all(r.ok for r in results)
    flipped, flip_checks = flip_braiding_checks(c.ops, br, fns, c.a, c.a_inv)
    assert all(r.ok for r in flip_checks)


def test_grouplike_witnesses_on_dual(sweedler, sweedler_r):
    dual, br, _ = dualize(sweedler, sweedler_r)
    c = cofrobenius_data(dual)
    (alpha_a, beta_a), checks = grouplike_witness_checks(c.ops, br, c.a, c.a_inv, name="a")
    assert all(r.ok for r in checks)
    assert values(c.ops, alpha_a) == values(c.ops, beta_a)
    grouplikes = {"a": (c.a, c.a_inv), "e": (c.ops.unit, c.ops.unit)}
    for r in grouplike_homomorphism_checks(c.ops, br, grouplikes):
        assert r.ok, r


def test_braiding_matrix_without_inverse_is_rejected(c2):
    with pytest.raises(NotInvertibleError, match="no convolution inverse"):
        braiding_from_matrix(c2, [[ONE, Fraction(0)], [Fraction(0), ONE]])


@pytest.mark.parametrize("n", [4, 10])
def test_braiding_inverse_over_fp_is_field_valued(n):
    """sigma^-1 of H_n over F_10007, solved for in the tensor square of H*:
    off its support the evaluator returns the field's zero, and every value
    is an int in range(p), as the tables of the grids need; both
    convolution laws pass.  With the row sigma(1, -) zeroed no inverse
    exists: sigma(1, 1) tau(1, 1) = 0."""
    doc = parse_document(laurent_quotient_document(n))
    algebra = build_algebra(doc)
    require_passing(verify_hopf(algebra))
    br, inv = braiding_from_matrix(algebra, doc.sigma)
    zero, keys = algebra.field.zero, range(algebra.dim)
    off = [br.inverse(x, y) for x in keys for y in keys if (x, y) not in inv]
    assert off and all(type(v) is int and v == zero for v in off)
    p = algebra.field.p
    assert all(type(v) is int and 0 < v < p for v in inv.values())
    lines = [r.status for r in braiding_axiom_checks(algebra.ops, br)
             if r.name.startswith("cqt.convolution_inverse_")]
    assert lines == [PASS, PASS]
    singular = [[zero] * algebra.dim, *doc.sigma[1:]]
    with pytest.raises(NotInvertibleError, match="braiding has no convolution inverse"):
        braiding_from_matrix(algebra, singular)


def test_corrupted_braiding_fails_multiplicativity(c2):
    br, _ = braiding_from_matrix(c2, [[ONE, ONE], [ONE, Fraction(2)]])
    results = {r.name: r for r in braiding_axiom_checks(c2.ops, br)}
    bad = results["cqt.multiplicative_first_argument"]
    assert not bad.ok
    assert bad.witness == "at (g, g, g)"


ANTIPODE_FORMULAS = ("cqt.inverse_is_antipode_first_argument",
                     "cqt.inverse_is_antipode_inv_second_argument",
                     "cqt.antipode_square_invariance")


def test_closed_antipode_gate_reports_skips():
    """With sigma(g, g) bumped on H_4 over F_10007 a braiding axiom fails,
    and the three antipode formulas behind the gate are reported as SKIP
    with a reason, so the battery names the same checks as on the intact
    braiding."""
    batteries = {}
    for bumped in (False, True):
        obj = laurent_quotient_document(4)
        if bumped:
            obj["sigma"][2][2] = 5
        doc = parse_document(obj)
        algebra = build_algebra(doc)
        require_passing(verify_hopf(algebra))
        ops, br = algebra.ops, braiding_from_matrix(algebra, doc.sigma)[0]
        batteries[bumped] = braiding_axiom_checks(ops, br)
    intact, bumped = batteries[False], batteries[True]
    assert [r.name for r in bumped] == [r.name for r in intact]
    assert all(r.status == PASS for r in intact)
    assert any(r.status == FAIL for r in bumped)
    gated = [r for r in bumped if r.name in ANTIPODE_FORMULAS]
    assert [(r.name, r.status) for r in gated] == [(name, SKIP) for name in ANTIPODE_FORMULAS]
    assert all(r.witness == "a braiding axiom above fails" for r in gated)


# -- the flip battery read off sigma's battery ---------------------------------------


def braided_carrier(name):
    """(carrier, braiding) of a named input: the sign bicharacter on kC_n,
    the braiding of H_n over F_10007, the Laurent family on a window, or
    the dual braiding of an R-matrix: Sweedler's (xi = 1), which is
    cotriangular, or a Drinfeld double's D(kC_n), which is not."""
    if name.startswith("kC"):
        algebra = build_algebra(cyclic_group_document(int(name[2:])))
        rows = [[(-1) ** (i * j) for j in range(algebra.dim)] for i in range(algebra.dim)]
        return cofrobenius_data(algebra), braiding_from_matrix(algebra, rows)[0]
    if name.startswith("H"):  # the antipode is omitted, so verify_hopf solves it
        doc = parse_document(laurent_quotient_document(int(name[1:])))
        algebra = build_algebra(doc)
        require_passing(verify_hopf(algebra))
        return cofrobenius_data(algebra), braiding_from_matrix(algebra, doc.sigma)[0]
    if name.startswith("laurent"):
        ops = laurent.basis_ops(int(name[7:]))
        return family_data(ops), laurent.braiding(ops)
    doc = {"sweedler4": sweedler_document,
           "D(kC2)": lambda: parse_document(double_c2_document()),
           "D(kC4)": lambda: parse_document(double_c4_permuted_document())}[name]()
    algebra = build_algebra(doc)
    dual, br, _ = dualize(algebra, RMatrix.from_entries(algebra, doc.r_entries))
    return cofrobenius_data(dual), br


def spy_batteries(monkeypatch) -> list:
    """Record every call of braiding_axiom_checks that reaches the module."""
    calls = []
    real = coquasitriangular.braiding_axiom_checks

    def spy(ops, br):
        calls.append(br)
        return real(ops, br)

    monkeypatch.setattr(coquasitriangular, "braiding_axiom_checks", spy)
    return calls


def renamed(results):
    return [CheckResult(f"flip_braiding.{r.name}", r.status, r.witness) for r in results]


COTRIANGULAR = ("sweedler4", "kC2", "kC4", "kC8", "H4", "H10",
                "laurent2", "laurent3", "laurent4", "laurent5")


@pytest.mark.parametrize("name", COTRIANGULAR + ("D(kC2)", "D(kC4)"))
def test_flip_battery_is_read_off_a_cotriangular_braiding(name, monkeypatch):
    """On a cotriangular braiding the chain runs one axiom battery and its
    flip_braiding.* axiom lines are the lines of a full battery on the
    flipped braiding, renamed; on a double's dual braiding the flip's
    battery runs.  Either way the chain reports what it reports when the
    flip's battery is forced to run."""
    c, br = braided_carrier(name)
    full = renamed(braiding_axiom_checks(c.ops, flip_braiding(br)))
    calls = spy_batteries(monkeypatch)
    fns, out = braided_chain(c, br, {})
    assert fns is not None
    assert len(calls) == (1 if name in COTRIANGULAR else 2), name
    start = next(i for i, r in enumerate(out) if r.name.startswith("flip_braiding."))
    assert out[start:start + len(full)] == full
    assert out[start + len(full)].name == "flip_braiding.cqt.u.convolution_inverse_left"

    monkeypatch.setattr(coquasitriangular, "flip_agrees", lambda br: False)
    calls.clear()
    assert braided_chain(c, br, {})[1] == out
    assert len(calls) == 2


def test_flip_agreement_covers_read_pairs_outside_the_window(monkeypatch):
    """For every pair (x, y), in sorted order, that sigma's battery read
    outside the Laurent window while it never read sigma^-1 at (y, x): bump
    sigma^-1 at (y, x).  sigma's battery is unchanged, but the flip differs
    from sigma at (x, y), so the flip's battery runs again.  At some of
    these pairs it fails sigma's first law."""
    ops = laurent.basis_ops(2)
    br = laurent.braiding(ops)
    intact = braiding_axiom_checks(ops, br)
    read_inverse = {(x, y) for x, row in br.sigma_inv.items() for y in row}
    outside = sorted((x, y) for x, row in br.sigma.items() for y in row
                     if not {x, y} <= set(ops.keys) and (y, x) not in read_inverse)
    assert outside
    calls = spy_batteries(monkeypatch)
    statuses = []
    for x, y in outside:
        bumped = Braiding(ops, br.value,
                          lambda s, t, at=(y, x): br.inverse(s, t) + (ONE if (s, t) == at else 0))
        flipped = flip_braiding(bumped)
        # on the key grid alone the flip still agrees with sigma
        assert all(flipped.value(h, l) == br.value(h, l)
                   and flipped.inverse(h, l) == br.inverse(h, l)
                   for h in ops.keys for l in ops.keys)
        calls.clear()
        _, out = braided_chain(family_data(ops), bumped, {})
        assert len(calls) == 2, (x, y)
        assert out[:len(intact)] == intact, (x, y)
        by_name = {r.name: r for r in out}
        statuses.append(by_name["flip_braiding.cqt.multiplicative_first_argument"].status)
    assert FAIL in statuses


@pytest.mark.parametrize("source, batteries", [("laurent", 1), ("double", 2)])
def test_verify_runs_the_axiom_battery_once_per_cotriangular_chain(source, batteries,
                                                                   monkeypatch, tmp_path,
                                                                   capsys):
    """preset:laurent has one braided chain, which is cotriangular; the
    benchmark's D(kC4) has one, on its dual, which is not."""
    if source == "laurent":
        argv = ["verify", "preset:laurent", "--json"]
    else:
        path = tmp_path / "double.json"
        path.write_text(json.dumps(double_c4_permuted_document()), encoding="utf-8")
        argv = ["verify", str(path), "--json"]
    calls = spy_batteries(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == batteries


def perfbench_double_c4() -> dict:
    """D(kC4) as perfbench/workloads.py generates it for the double-qt workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.drinfeld_double_cyclic(4)


@pytest.mark.parametrize("document", [perfbench_double_c4, double_c4_permuted_document])
def test_verify_reads_the_dual_braiding_once_per_pair_per_table(document, monkeypatch,
                                                                tmp_path, capsys):
    """The benchmark's D(kC4) document and a permuted one: every reader of
    the dual braiding, the bridge, the chain and the flip, goes through the
    Braiding that braiding_from_matrix builds, so its value rows and its
    solved inverse are each read once per pair (before, 1,408 and 1,413
    reads of 256 on the benchmark's, 1,408 and 1,419 on the permuted)."""
    reads: dict = {"value": [], "inverse": []}
    real = coquasitriangular.braiding_from_matrix

    def braiding_from_matrix(algebra, rows):
        br, inv = real(algebra, rows)
        spy = lambda side, fn: lambda x, y: (reads[side].append((x, y)), fn(x, y))[1]
        return dataclasses.replace(br, value=spy("value", br.value),
                                   inverse=spy("inverse", br.inverse)), inv

    monkeypatch.setattr(coquasitriangular, "braiding_from_matrix", braiding_from_matrix)
    path = tmp_path / "double.json"
    path.write_text(json.dumps(document()), encoding="utf-8")
    assert main(["verify", str(path), "--json"]) == 0
    capsys.readouterr()
    assert {side: (len(pairs), len(set(pairs))) for side, pairs in reads.items()} == {
        "value": (256, 256), "inverse": (256, 256)}
