from fractions import Fraction

import pytest

from hopfcheck.cofrobenius import cofrobenius_data
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import Tensor2, require_passing, verify_hopf
from hopfcheck.lincomb import lc_eq, tensor2_flip, tensor2_mul
from hopfcheck.presets import cyclic_group_document, preset_document
from hopfcheck.quasitriangular import (
    RMatrix,
    character_maps_checks,
    check_antipode_u_biconditional,
    check_drinfeld_modular_product,
    check_modular_grouplikes_equal,
    conjugation_witnesses,
    drinfeld_elements,
    flip_inverse,
    grouplike_from_character,
    minimal_subhopf,
    verify_delta_u,
    verify_qt,
)
from hopfcheck.scalars import PrimeField

from test_golden import double_c4_permuted_document

ONE = Fraction(1)


def test_verify_qt_passes_for_both_parameters(sweedler, sweedler_r,
                                              sweedler_xi0, sweedler_xi0_r):
    for algebra, r in ((sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r)):
        results = verify_qt(r)
        names = {c.name for c in results}
        assert "qt.hexagon_comultiply_first_leg" in names
        assert "qt.hexagon_comultiply_second_leg" in names
        for c in results:
            assert c.ok, c


def test_unit_r_matrix_on_group_algebra(c2):
    r = RMatrix.from_entries(c2, [(ONE, 0, 0)])
    assert all(c.ok for c in verify_qt(r))
    qt, checks = drinfeld_elements(r)
    assert all(c.ok for c in checks)
    unit = c2.ops.unit
    assert qt.u == unit
    assert qt.v == unit


def test_drinfeld_elements_on_sweedler(sweedler, sweedler_r,
                                       sweedler_xi0, sweedler_xi0_r):
    for algebra, r in ((sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r)):
        qt, checks = drinfeld_elements(r)
        assert all(c.ok for c in checks)
        ops = algebra.ops
        g = ops.single(1)
        assert qt.u == g
        assert qt.v == g
        assert qt.u_inv == g
        assert qt.v_inv == g
        assert ops.mul_lc(qt.u, qt.v) == ops.unit
        assert all(c.ok for c in verify_delta_u(r, qt))


def test_modular_grouplike_contractions(sweedler, sweedler_r, sweedler_data):
    a_alpha, b_alpha = grouplike_from_character(sweedler_r, sweedler_data.alpha)
    g = sweedler.ops.single(1)
    assert a_alpha == g
    assert b_alpha == g
    for c in check_modular_grouplikes_equal(sweedler_data, sweedler_r):
        assert c.ok, c


def test_drinfeld_modular_product_chain(sweedler, sweedler_r, sweedler_data):
    qt, _ = drinfeld_elements(sweedler_r)
    results = check_drinfeld_modular_product(sweedler_data, sweedler_r, qt)
    names = [c.name for c in results]
    assert "drinfeld.uv_eq_a_times_b_alpha" in names
    assert "radford.s4_inner_by_uv" in names
    assert all(c.ok for c in results)


def test_antipode_u_biconditional(sweedler, sweedler_r, sweedler_data, c2):
    qt, _ = drinfeld_elements(sweedler_r)
    results = check_antipode_u_biconditional(sweedler_data, sweedler_r, qt)
    by_name = {c.name: c for c in results}
    # alpha is not the counit here, so the vu = a specialization is skipped
    assert by_name["drinfeld.counit_modular_vu_eq_a"].status == "skipped"
    assert by_name["drinfeld.antipode_fixes_u_iff_modular_match"].ok

    r = RMatrix.from_entries(c2, [(ONE, 0, 0)])
    qt2, _ = drinfeld_elements(r)
    results = check_antipode_u_biconditional(cofrobenius_data(c2), r, qt2)
    by_name = {c.name: c for c in results}
    assert by_name["drinfeld.counit_modular_vu_eq_a"].ok
    assert by_name["drinfeld.counit_modular_vu_eq_a"].status == "pass"


def test_character_maps(sweedler, sweedler_r, sweedler_data):
    c = sweedler_data
    chars = {"eps": c.ops.eps, "alpha": c.alpha}
    for c in character_maps_checks(sweedler_r, chars):
        assert c.ok, c


def test_conjugation_witnesses(sweedler, sweedler_r, sweedler_data):
    witnesses, results = conjugation_witnesses(sweedler_r, sweedler_data.alpha, name="alpha")
    assert len(witnesses) == 4
    g = sweedler.ops.single(1)
    assert g in witnesses
    assert all(c.ok for c in results)


def test_flip_inverse_is_again_qt(sweedler, sweedler_r):
    rt, results = flip_inverse(sweedler_r)
    assert all(c.ok for c in results)
    # flipping twice returns to the inverse of the original
    assert tensor2_flip(rt.tensor) == sweedler_r.inverse


def test_minimal_subhopf_degenerate_parameter(sweedler_xi0, sweedler_xi0_r):
    sub = minimal_subhopf(sweedler_xi0_r, cofrobenius_data(sweedler_xi0))
    assert sub.algebra.dim == 2
    assert sub.algebra.labels == ("1", "g")
    c = sub.carrier
    assert c.a == c.ops.unit
    assert all(c.alpha(k) == c.ops.eps(k) for k in c.ops.keys)
    assert all(c.ok for c in sub.checks)
    assert all(c.ok for c in verify_hopf(sub.algebra))
    assert all(c.ok for c in verify_qt(sub.r_sub))
    flags = dict(sub.computed)
    assert flags["dim(L)"] == "2"
    assert flags["a_L equals a_H"] == "false"
    assert flags["alpha_L equals alpha_H restricted"] == "false"
    assert flags["chi_L equals chi_H restricted"] == "false"


def test_minimal_subhopf_full_parameter(sweedler, sweedler_r, sweedler_data):
    sub = minimal_subhopf(sweedler_r, sweedler_data)
    assert sub.algebra.dim == 4
    assert all(c.ok for c in sub.checks)
    flags = dict(sub.computed)
    assert flags["dim(L)"] == "4"
    assert flags["a_L equals a_H"] == "true"
    assert flags["alpha_L equals alpha_H restricted"] == "true"
    assert flags["chi_L equals chi_H restricted"] == "true"


def test_corrupted_r_fails_hexagon_with_witness(sweedler, sweedler_r):
    entries = [(v, i, j) for (i, j), v in sweedler_r.tensor.items()]
    bad = [(-v if (i, j) == (2, 2) else v, i, j) for v, i, j in entries]
    r = RMatrix.from_entries(sweedler, bad)
    results = {c.name: c for c in verify_qt(r)}
    first = results["qt.hexagon_comultiply_first_leg"]
    assert not first.ok
    assert first.witness == "at (1, x, x)"
    second = results["qt.hexagon_comultiply_second_leg"]
    assert not second.ok
    assert second.witness == "at (x, 1, x)"


QT_ANTIPODE_FORMULAS = ["qt.inverse_is_antipode_on_first_leg",
                        "qt.inverse_is_antipode_inv_on_second_leg",
                        "qt.antipode_square_invariance"]


def test_corrupted_r_skips_the_antipode_formulas(sweedler, sweedler_r):
    """Behind a failing R-matrix axiom the three antipode formulas are
    reported as SKIP with a reason, so the battery names the same checks
    as on the intact R."""
    entries = [(v, i, j) for (i, j), v in sweedler_r.tensor.items()]
    bad = [(-v if (i, j) == (2, 2) else v, i, j) for v, i, j in entries]
    intact = verify_qt(sweedler_r)
    corrupted = verify_qt(RMatrix.from_entries(sweedler, bad))
    assert [c.name for c in corrupted] == [c.name for c in intact]
    assert [(c.name, c.status) for c in intact[-3:]] == [
        (name, "pass") for name in QT_ANTIPODE_FORMULAS]
    assert [(c.name, c.status, c.witness) for c in corrupted[-3:]] == [
        (name, "skipped", "an R-matrix axiom above fails") for name in QT_ANTIPODE_FORMULAS]


def test_read_off_inverses_equal_the_solves_they_replace(sweedler, sweedler_r, sweedler_xi0,
                                                        sweedler_xi0_r, c4):
    """(R21)^-1 = (R^-1)21, (R21 R)^-1 = R^-1 (R^-1)21, S(u)^-1 = S(u^-1),
    a = S(a^-1) and R^-1 restricted to L (x) L are the inverses a linear
    solve finds."""
    doc = parse_document(double_c4_permuted_document())
    double = build_algebra(doc)
    require_passing(verify_hopf(double))
    # kC8 over F_5 with the R-matrix of its subgroup <g^2> = C4 at the
    # primitive fourth root 2: L = kC4 is proper and R^-1 differs from R
    f5 = PrimeField(5)
    c8 = build_algebra(cyclic_group_document(8, f5))
    require_passing(verify_hopf(c8))
    r8 = RMatrix.from_entries(c8, [(f5.parse(4) * f5.parse(2) ** (-x * y % 4), 2 * x, 2 * y)
                                   for x in range(4) for y in range(4)])
    assert all(c.ok for c in verify_qt(r8)) and not lc_eq(r8.inverse, r8.tensor)
    cases = [(sweedler, sweedler_r), (sweedler_xi0, sweedler_xi0_r),
             (c4, RMatrix.from_entries(c4, preset_document("group:C4").r_entries)),
             (double, RMatrix.from_entries(double, doc.r_entries)), (c8, r8)]
    restricted = 0
    for algebra, r in cases:
        ops = algebra.ops
        flipped, inverse_flipped = tensor2_flip(r.tensor), tensor2_flip(r.inverse)
        rt, _ = flip_inverse(r)
        assert lc_eq(Tensor2.invert(algebra, flipped), rt.tensor)
        assert lc_eq(rt.tensor, inverse_flipped)
        assert lc_eq(Tensor2.invert(algebra, tensor2_mul(ops, flipped, r.tensor)),
                     tensor2_mul(ops, r.inverse, inverse_flipped))
        qt, _ = drinfeld_elements(r)
        assert lc_eq(algebra.invert_element(ops.s_lc(qt.u)), ops.s_lc(qt.u_inv))
        assert lc_eq(qt.v, ops.s_lc(qt.u_inv))
        for side in (algebra, algebra.dual()):
            c = cofrobenius_data(side)
            assert lc_eq(side.invert_element(c.a_inv), c.a)
        sub = minimal_subhopf(r, cofrobenius_data(algebra))
        if sub.algebra.dim < algebra.dim:
            restricted += 1
            assert lc_eq(Tensor2.invert(sub.algebra, sub.r_sub.tensor), sub.r_sub.inverse)
    assert restricted == 3
