from fractions import Fraction

import pytest

from hopfcheck.cofrobenius import cofrobenius_data
from hopfcheck.coquasitriangular import (
    braided_functionals,
    braided_modular_corollary_checks,
    braiding_axiom_checks,
    braiding_from_matrix,
    dualize_qt,
    flip_braiding_checks,
    grouplike_homomorphism_checks,
    grouplike_witness_checks,
    modular_convolution_checks,
)
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import NotInvertibleError, require_passing, verify_hopf
from hopfcheck.quasitriangular import drinfeld_elements
from hopfcheck.report import FAIL, PASS, SKIP
from test_golden import laurent_quotient_document

ONE = Fraction(1)


def trivial_rows(n):
    return [[ONE] * n for _ in range(n)]


def values(ops, fn):
    return tuple(fn(k) for k in ops.keys)


def dualize(algebra, r):
    """dualize_qt after the Drinfeld elements it bridges to."""
    qt, _ = drinfeld_elements(algebra, r)
    return dualize_qt(algebra, r, qt)


def modular_chain(c, br, fns):
    return (modular_convolution_checks(c.ops, br, fns, c.alpha, c.a, c.a_inv)
            + braided_modular_corollary_checks(c.ops, br, fns, c.alpha, c.alpha_inv,
                                               c.a, c.a_inv))


def test_trivial_braiding_on_group_algebra(c2):
    br, inv = braiding_from_matrix(c2, trivial_rows(2))
    assert inv.rows == ((ONE, ONE), (ONE, ONE))
    c = cofrobenius_data(c2).carrier
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
    ops = c2.basis_ops()
    for r in braiding_axiom_checks(ops, br):
        assert r.ok, r
    fns, checks = braided_functionals(ops, br)
    assert all(r.ok for r in checks)
    assert values(ops, fns["u"]) == (ONE, -ONE)


def test_dualized_sweedler_bridge(sweedler, sweedler_r):
    dual, br, (fns, fn_checks), checks = dualize(sweedler, sweedler_r)
    assert all(r.ok for r in checks)
    ops = dual.basis_ops()
    for r in braiding_axiom_checks(ops, br):
        assert r.ok, r
    assert all(r.ok for r in fn_checks)
    assert values(ops, braided_functionals(ops, br)[0]["u"]) == values(ops, fns["u"])
    # the braided functionals evaluate on the dual as the Drinfeld element g
    assert values(ops, fns["u"]) == (Fraction(0), ONE, Fraction(0), Fraction(0))
    assert values(ops, fns["v"]) == values(ops, fns["u"])


def test_dual_modular_chain(sweedler, sweedler_r):
    dual, br, (fns, _), _ = dualize(sweedler, sweedler_r)
    c = cofrobenius_data(dual).carrier
    results = modular_chain(c, br, fns)
    by_name = {r.name: r for r in results}
    assert by_name["braided_modular.unimodular_u_inv_v_eq_alpha"].status == "skipped"
    assert all(r.ok for r in results)
    flipped, flip_checks = flip_braiding_checks(c.ops, br, fns, c.a, c.a_inv)
    assert all(r.ok for r in flip_checks)


def test_grouplike_witnesses_on_dual(sweedler, sweedler_r):
    dual, br, _, _ = dualize(sweedler, sweedler_r)
    c = cofrobenius_data(dual).carrier
    (alpha_a, beta_a), checks = grouplike_witness_checks(c.ops, br, c.a, c.a_inv, name="a")
    assert all(r.ok for r in checks)
    assert values(c.ops, alpha_a) == values(c.ops, beta_a)
    grouplikes = {"a": (c.a, c.a_inv), "e": (c.ops.unit, c.ops.unit)}
    for r in grouplike_homomorphism_checks(c.ops, br, grouplikes):
        assert r.ok, r


def test_braiding_matrix_without_inverse_is_rejected(c2):
    with pytest.raises(NotInvertibleError, match="no convolution inverse"):
        braiding_from_matrix(c2, [[ONE, Fraction(0)], [Fraction(0), ONE]])


def test_corrupted_braiding_fails_multiplicativity(c2):
    br, _ = braiding_from_matrix(c2, [[ONE, ONE], [ONE, Fraction(2)]])
    results = {r.name: r for r in braiding_axiom_checks(c2.basis_ops(), br)}
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
        ops, br = algebra.basis_ops(), braiding_from_matrix(algebra, doc.sigma)[0]
        batteries[bumped] = braiding_axiom_checks(ops, br)
    intact, bumped = batteries[False], batteries[True]
    assert [r.name for r in bumped] == [r.name for r in intact]
    assert all(r.status == PASS for r in intact)
    assert any(r.status == FAIL for r in bumped)
    gated = [r for r in bumped if r.name in ANTIPODE_FORMULAS]
    assert [(r.name, r.status) for r in gated] == [(name, SKIP) for name in ANTIPODE_FORMULAS]
    assert all(r.witness == "a braiding axiom above fails" for r in gated)
