"""Acceptance suite: one test per shipping criterion, exact arithmetic only.

Every assertion is an equality in QQ or F_p; there are no tolerances
anywhere.  A conftest hook prints one verdict line per test so the
criteria are visible in the run log even when everything passes.
"""

import itertools
import json
from fractions import Fraction

import pytest

from hopfcheck import laurent
from hopfcheck.cli import main
from hopfcheck.cofrobenius import (
    cofrobenius_data,
    coinner_from_integral_twist,
    integral_twist_from_coinner,
    left_integrals,
    modular_element_checks,
    product_formula_check,
    radford_s4_checks,
)
from hopfcheck.coquasitriangular import (
    braided_functionals,
    braided_modular_corollary_checks,
    braiding_axiom_checks,
    braiding_from_matrix,
    dualize_qt,
    modular_characters,
    modular_convolution_checks,
)
from hopfcheck.document import build_algebra
from hopfcheck.hopf import (
    FinHopfAlgebra,
    compute_antipode,
    same_structure_constants,
    verify_hopf,
)
from hopfcheck.lincomb import hopf_axiom_checks, is_grouplike_lc
from hopfcheck.linalg import SparseMatrix
from hopfcheck.presets import preset_document
from hopfcheck.quasitriangular import (
    RMatrix,
    check_antipode_u_biconditional,
    check_drinfeld_modular_product,
    drinfeld_elements,
    grouplike_from_character,
    minimal_subhopf,
    verify_qt,
)
from hopfcheck.scalars import QQ

ONE = Fraction(1)
ZERO = Fraction(0)


def no_failures(checks):
    bad = [c for c in checks if not c.ok]
    assert not bad, bad


def test_criterion_01_axiom_suite_and_negative_control(c2, c4, sweedler, sweedler_xi0):
    for algebra in (c2, c4, sweedler, sweedler_xi0):
        no_failures(verify_hopf(algebra))
    no_failures(hopf_axiom_checks(laurent.basis_ops(5)))

    doc = preset_document("group:C2")
    mult = {(i, j): {k: c} for i, j, k, c in doc.mult}
    mult[(1, 1)] = {1: QQ.one}  # g*g = g
    broken = FinHopfAlgebra(
        QQ, doc.basis, mult,
        {i: ((c, j, k),) for i, j, k, c in doc.comult},
        doc.counit)
    failures = [c for c in verify_hopf(broken) if not c.ok]
    assert failures
    assert failures[0].name == "hopf.antipode_exists"
    assert failures[0].witness == "bialgebra admits no antipode"


def test_criterion_02_hexagons_verified_on_every_triple(sweedler, sweedler_r,
                                                        sweedler_xi0, sweedler_xi0_r):
    for algebra, r in ((sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r)):
        no_failures(verify_qt(r))
        # independent recomputation compared on the full triple grid
        zero = algebra.field.zero
        entries = [(i, j, v) for (i, j), v in r.tensor.items()]
        lhs1, rhs1, lhs2, rhs2 = {}, {}, {}, {}
        for i, j, v in entries:
            for c, a, b in algebra.ops.delta(i):
                lhs1[(a, b, j)] = lhs1.get((a, b, j), zero) + v * c
            for c, a, b in algebra.ops.delta(j):
                lhs2[(i, a, b)] = lhs2.get((i, a, b), zero) + v * c
        for i, j, v in entries:
            for k, l, w in entries:
                for m, c in algebra.ops.mul(j, l).items():
                    rhs1[(i, k, m)] = rhs1.get((i, k, m), zero) + v * w * c
                for m, c in algebra.ops.mul(i, k).items():
                    rhs2[(m, l, j)] = rhs2.get((m, l, j), zero) + v * w * c
        triples = list(itertools.product(range(algebra.dim), repeat=3))
        assert len(triples) == 64
        for t in triples:
            assert lhs1.get(t, zero) == rhs1.get(t, zero), t
            assert lhs2.get(t, zero) == rhs2.get(t, zero), t


def test_criterion_03_integral_pipeline_values(sweedler, sweedler_data):
    assert len(left_integrals(sweedler)) == 1
    data = sweedler_data
    c = data
    ops = c.ops
    assert tuple(map(c.lam, ops.keys)) == (ZERO, ZERO, ZERO, ONE)
    assert is_grouplike_lc(ops, c.a)
    assert c.a == ops.single(1)
    no_failures(modular_element_checks(ops, c.lam, c.a, c.a_inv))
    # alpha(g^i x^j) = delta(j, 0) (-1)^i on the basis (1, g, x, gx)
    assert tuple(map(c.alpha, ops.keys)) == (ONE, -ONE, ZERO, ZERO)
    closed = SparseMatrix(QQ, [{0: 1}, {1: -1}, {2: -1}, {3: 1}], 4)
    assert data.nakayama == closed


def test_criterion_04_antipode_fourth_power_three_ways(sweedler, sweedler_data):
    for c in (sweedler_data, laurent.family_data(laurent.basis_ops(5))):
        no_failures(radford_s4_checks(c.ops, c.a, c.a_inv, c.alpha, c.alpha_inv))


def test_criterion_05_drinfeld_modular_factorization(c2, sweedler, sweedler_r,
                                                     sweedler_xi0, sweedler_xi0_r):
    cases = [(sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r),
             (c2, RMatrix.from_entries(c2, [(ONE, 0, 0)]))]
    for algebra, r in cases:
        data = cofrobenius_data(algebra)
        c = data
        ops = c.ops
        qt, dr_checks = drinfeld_elements(r)
        no_failures(dr_checks)
        no_failures(check_drinfeld_modular_product(data, r, qt))
        a_alpha, _ = grouplike_from_character(r, c.alpha)
        if algebra.dim == 4:
            g = ops.single(1)
            assert qt.u == g and qt.v == g
        else:
            assert qt.u == ops.unit and qt.v == ops.unit
        assert ops.mul_lc(qt.u, qt.v) == ops.unit
        assert ops.mul_lc(c.a, a_alpha) == ops.unit


def test_criterion_06_antipode_fixes_u_biconditional(c2, c4, sweedler, sweedler_r,
                                                     sweedler_xi0, sweedler_xi0_r):
    unit_r = lambda a: RMatrix.from_entries(a, [(ONE, 0, 0)])
    cases = [(sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r),
             (c2, unit_r(c2)), (c4, unit_r(c4))]
    for algebra, r in cases:
        data = cofrobenius_data(algebra)
        qt, _ = drinfeld_elements(r)
        results = check_antipode_u_biconditional(data, r, qt)
        by_name = {c.name: c for c in results}
        assert by_name["drinfeld.antipode_fixes_u_iff_modular_match"].ok
        branch = by_name["drinfeld.counit_modular_vu_eq_a"]
        ops = data.ops
        if all(data.alpha(k) == ops.eps(k) for k in ops.keys):
            assert branch.status == "pass"
        else:
            assert branch.status == "skipped"


def test_criterion_07_minimal_subhopf_both_parameters(sweedler, sweedler_r, sweedler_data,
                                                      sweedler_xi0, sweedler_xi0_r):
    sub0 = minimal_subhopf(sweedler_xi0_r, cofrobenius_data(sweedler_xi0))
    assert sub0.algebra.dim == 2
    assert sub0.algebra.labels == ("1", "g")
    c0 = sub0.carrier
    assert c0.a == c0.ops.unit
    assert tuple(map(c0.alpha, c0.ops.keys)) == tuple(map(c0.ops.eps, c0.ops.keys))
    no_failures(sub0.checks)
    flags0 = dict(sub0.computed)
    assert flags0["a_L equals a_H"] == "false"
    assert flags0["alpha_L equals alpha_H restricted"] == "false"
    assert flags0["chi_L equals chi_H restricted"] == "false"

    sub1 = minimal_subhopf(sweedler_r, sweedler_data)
    assert sub1.algebra.dim == 4
    assert same_structure_constants(sub1.algebra, sweedler)
    no_failures(sub1.checks)
    flags1 = dict(sub1.computed)
    assert flags1["a_L equals a_H"] == "true"
    assert flags1["alpha_L equals alpha_H restricted"] == "true"
    assert flags1["chi_L equals chi_H restricted"] == "true"


def test_criterion_08_braidings_and_dual_bridge(c2, sweedler, sweedler_r,
                                                sweedler_xi0, sweedler_xi0_r):
    doc = preset_document("group:C2")
    br, _ = braiding_from_matrix(c2, doc.sigma)
    no_failures(braiding_axiom_checks(c2.ops, br))

    for algebra, r in ((sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r)):
        qt, _ = drinfeld_elements(r)
        dual, dual_br, bridge = dualize_qt(r, qt)
        fns, fn_checks = dual_br.functionals
        no_failures(bridge)
        ops = dual.ops
        no_failures(braiding_axiom_checks(ops, dual_br))
        # bridge identity valuewise: u_cqt evaluated at f equals f(u_qt)
        no_failures(fn_checks)
        for i in ops.keys:
            assert fns["u"](i) == qt.u.get(i, ZERO)
            assert fns["v"](i) == qt.v.get(i, ZERO)

    ops = laurent.basis_ops(5)
    no_failures(braiding_axiom_checks(ops, laurent.braiding(ops)))


def test_criterion_09_braided_modular_identities(sweedler, sweedler_r,
                                                 sweedler_xi0, sweedler_xi0_r):
    for algebra, r in ((sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r)):
        dual, br, _ = dualize_qt(r, drinfeld_elements(r)[0])
        fns = br.functionals[0]
        c = cofrobenius_data(dual)
        no_failures(modular_convolution_checks(c.ops, br, fns, c.alpha, c.a, c.a_inv))
        no_failures(braided_modular_corollary_checks(c.ops, br, fns, c.alpha,
                                                     c.alpha_inv, c.a, c.a_inv))

    ops = laurent.basis_ops(5)
    c = laurent.family_data(ops)
    br = laurent.braiding(ops)
    fns, fn_checks = braided_functionals(ops, br)
    no_failures(fn_checks)
    for k in ops.keys:
        want = laurent.drinfeld_closed_form(k)
        assert fns["u"](k) == want
        assert fns["u_inv"](k) == want
        assert fns["v"](k) == want
        assert fns["v_inv"](k) == want
    _, beta_a = modular_characters(ops, br, c.a, c.a_inv)
    for k in ops.keys:
        assert beta_a(k) == laurent.alpha_closed_form(k)


def test_criterion_10_integral_twist_roundtrip_and_refusal(sweedler, sweedler_r):
    dual, dual_br, _ = dualize_qt(sweedler_r, drinfeld_elements(sweedler_r)[0])
    family = laurent.family_data(laurent.basis_ops(5))
    carriers = [(cofrobenius_data(dual), dual_br, 0, "at (1*, x*)"),
                (family, laurent.braiding(family.ops), (-1, 0), "at (g^-1, x)")]
    for c, br, spot, witness in carriers:
        ops = c.ops
        fns, _ = braided_functionals(ops, br)
        rho1, tau1, forward = integral_twist_from_coinner(ops, c.lam_mul, c.alpha,
                                                          fns["u"], fns["u_inv"])
        no_failures(forward)
        rho_fn, tau_fn, backward = coinner_from_integral_twist(ops, c.a_inv, c.alpha_inv,
                                                               rho1, tau1)
        no_failures(backward)
        conv = ops.convolve(rho_fn, tau_fn)
        for k in ops.keys:
            assert conv(k) == ops.eps(k)

        def perturbed(x, tau1=tau1, spot=spot):
            return tau1(x) + (ONE if x == spot else ZERO)

        refused = product_formula_check(ops, c.lam_mul, rho1, perturbed)
        assert refused.name == "integral_twist.product_formula"
        assert not refused.ok and refused.witness == witness


def test_criterion_11_computed_antipode_matches_declared(c2, c4, sweedler, sweedler_xi0):
    for algebra in (c2, c4, sweedler, sweedler_xi0):
        assert compute_antipode(algebra) == algebra.antipode


def test_criterion_12_json_reports_are_byte_identical(capsys):
    assert main(["verify", "preset:sweedler4", "--xi", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "preset:sweedler4", "--xi", "1", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["result"] == "pass"
