import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import cofrobenius, laurent
from hopfcheck.cofrobenius import (
    PreconditionError,
    _twisted_product_predicate,
    check_radford_s4,
    check_s2_inner_witness,
    cofrobenius_checks,
    cofrobenius_data,
    coinner_from_integral_twist,
    coinner_from_integral_twist_findim,
    integral_twist_from_coinner,
    integral_twist_from_coinner_findim,
    left_integrals,
    modular_element_checks,
)
from hopfcheck.coquasitriangular import braided_functionals, cqt_functionals, dualize_qt
from hopfcheck.hopf import Functional2
from hopfcheck.lincomb import _pair_label, _pairs
from hopfcheck.linalg import Matrix
from hopfcheck.scalars import QQ

ONE = Fraction(1)
ZERO = Fraction(0)


def test_integral_space_is_one_dimensional(c2, c4, sweedler):
    for algebra in (c2, c4, sweedler):
        assert len(left_integrals(algebra)) == 1


def test_sweedler_integral_values(sweedler, sweedler_data):
    data = sweedler_data
    assert data.lam.values == (ZERO, ZERO, ZERO, ONE)
    assert data.a == sweedler.basis_element(1)
    assert data.a_inv == data.a
    assert data.alpha.values == (ONE, -ONE, ZERO, ZERO)
    assert data.alpha_inv == data.alpha
    # chi fixes 1 and gx, negates g and x
    assert data.chi.rows == Matrix.from_rows(
        QQ, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]).rows
    x = sweedler.basis_element(2)
    assert data.chi_of(x) == -x


def test_group_algebra_modular_data_is_trivial(c2, c4):
    for algebra in (c2, c4):
        data = cofrobenius_data(algebra)
        # the integral picks out the identity coefficient
        assert data.lam.values[0] == ONE
        assert all(v == ZERO for v in data.lam.values[1:])
        assert data.a == algebra.unit_element
        assert data.alpha == algebra.counit_functional
        assert data.chi == Matrix.identity(QQ, algebra.dim)


def test_full_battery_passes(c2, sweedler, sweedler_data):
    for r in cofrobenius_checks(sweedler, sweedler_data):
        assert r.ok, r
    for r in cofrobenius_checks(c2, cofrobenius_data(c2)):
        assert r.ok, r


def test_radford_s4_three_ways(sweedler, sweedler_data):
    results = check_radford_s4(sweedler, sweedler_data)
    names = {r.name for r in results}
    assert names == {"radford.s4_matches_hit_form",
                     "radford.s4_matches_expanded_form",
                     "radford.inner_forms_agree"}
    assert all(r.ok for r in results)


def test_wrong_modular_element_is_caught(sweedler, sweedler_data):
    ops = sweedler.basis_ops()
    unit = sweedler.unit_element.lc()
    results = modular_element_checks(ops, sweedler_data.lam.as_fn(), unit, unit)
    by_name = {r.name: r for r in results}
    law = by_name["integral.modular_element_law"]
    assert not law.ok and law.witness == "at gx"
    twist = by_name["integral.s2_twist_law"]
    assert not twist.ok and twist.witness == "at gx"
    # the unit really is grouplike and self-inverse, so those checks stay green
    assert by_name["integral.modular_element_grouplike"].ok
    assert by_name["integral.modular_element_inverse"].ok


def test_s2_witness_with_modular_element(sweedler, sweedler_data):
    results = check_s2_inner_witness(sweedler, sweedler_data, sweedler_data.a)
    assert [r.name for r in results] == [
        "s2_witness.invertible",
        "s2_witness.implements_s2",
        "s2_witness.nakayama_product",
        "s2_witness.nakayama_modular_product",
        "s2_witness.modular_value_agreement",
    ]
    assert all(r.ok for r in results)


def test_s2_witness_rejects_bad_candidates(sweedler, sweedler_data):
    x = sweedler.basis_element(2)
    results = check_s2_inner_witness(sweedler, sweedler_data, x)
    assert len(results) == 1 and not results[0].ok
    assert results[0].name == "s2_witness.invertible"
    # the unit is invertible but does not conjugate to S^2
    results = check_s2_inner_witness(sweedler, sweedler_data, sweedler.unit_element)
    by_name = {r.name: r for r in results}
    bad = by_name["s2_witness.implements_s2"]
    assert not bad.ok and bad.witness == "at x"


def test_integral_twist_roundtrip(sweedler, sweedler_data):
    data = sweedler_data
    rho, tau, forward = integral_twist_from_coinner_findim(sweedler, data, data.alpha)
    assert all(r.ok for r in forward)
    rho_p, tau_pp, backward = coinner_from_integral_twist_findim(sweedler, data, rho, tau)
    assert all(r.ok for r in backward)
    # both extracted functionals collapse to the modular character here
    assert rho_p == data.alpha
    assert tau_pp == data.alpha


def test_integral_twist_rejects_non_coinner_omega(sweedler, sweedler_data):
    with pytest.raises(PreconditionError, match="does not realize"):
        integral_twist_from_coinner_findim(sweedler, sweedler_data,
                                           sweedler.counit_functional)


def test_extraction_refuses_perturbed_pair(sweedler, sweedler_data):
    data = sweedler_data
    rho, tau, _ = integral_twist_from_coinner_findim(sweedler, data, data.alpha)
    rows = [list(r) for r in tau.rows]
    rows[1][0] = rows[1][0] + ONE
    with pytest.raises(PreconditionError,
                       match=r"twisted product formula fails at \(g, x\)"):
        coinner_from_integral_twist_findim(sweedler, data, rho, Functional2(sweedler, rows))


# ---------------------------------------------------------------------------
# the planned twisted-product predicate against the per-pair definition


def naive_twisted_product_holds(ops, lam, rho2, tau2, h, l) -> bool:
    """lambda(l h) = rho(h1, l1) lambda(h2 l2) tau(h3, l3), summed term by term."""
    lhs = ops.eval_fn(lam, ops.mul(l, h))
    rhs = ops.zero
    for ch, (h1, h2, h3) in ops.delta_n(h, 3):
        for cl, (l1, l2, l3) in ops.delta_n(l, 3):
            r = rho2(h1, l1)
            if not r:
                continue
            t = tau2(h3, l3)
            if not t:
                continue
            mid = ops.eval_fn(lam, ops.mul(h2, l2))
            if mid:
                rhs = rhs + ch * cl * r * mid * t
    return lhs == rhs


def finite_twist(algebra, omega):
    """(ops, lam, a_inv, alpha_inv, rho2, tau2) for a co-inner omega."""
    data = cofrobenius_data(algebra)
    ops = algebra.basis_ops()
    lam = data.lam.as_fn()
    rho2, tau2, _ = integral_twist_from_coinner(
        ops, lam, data.alpha.as_fn(), omega.as_fn(),
        algebra.conv_inverse(omega).as_fn())
    return ops, lam, data.a_inv.lc(), data.alpha_inv.as_fn(), rho2, tau2


def dual_c4_twist(c4):
    dual = c4.dual()
    # evaluation at the generator is grouplike in the commutative dual, so
    # it realizes S^-2 = id co-innerly and gives a nontrivial pair
    return finite_twist(dual, dual.functional([0, 1, 0, 0]))


@pytest.fixture(scope="module", params=["sweedler", "dual_sweedler", "dual_c4", "laurent3"])
def twist_carrier(request, sweedler, sweedler_data, sweedler_r, c4):
    if request.param == "sweedler":
        return finite_twist(sweedler, sweedler_data.alpha)
    if request.param == "dual_sweedler":
        dual, br, _ = dualize_qt(sweedler, sweedler_r)
        cqt, _ = cqt_functionals(dual, br)
        return finite_twist(dual, cqt.u_inv)
    if request.param == "dual_c4":
        return dual_c4_twist(c4)
    ops = laurent.basis_ops(3)
    lam = laurent.integral_value
    _, a_inv_lc, _, alpha, alpha_inv = laurent.family_data(ops)
    fns, _ = braided_functionals(ops, laurent.braiding())
    rho2, tau2, _ = integral_twist_from_coinner(ops, lam, alpha, fns["u"], fns["u_inv"])
    return ops, lam, a_inv_lc, alpha_inv, rho2, tau2


def test_twisted_product_predicate_matches_definition(twist_carrier):
    ops, lam, _, _, rho2, tau2 = twist_carrier
    holds = _twisted_product_predicate(ops, lam, rho2, tau2)
    for h, l in _pairs(ops):
        assert naive_twisted_product_holds(ops, lam, rho2, tau2, h, l)
        assert holds((h, l))


@settings(max_examples=15, deadline=None)
@given(which=st.sampled_from(["rho", "tau"]), i=st.integers(0, 63), j=st.integers(0, 63),
       bump=st.sampled_from([-2, -1, 1, 3]))
def test_perturbed_pair_is_refused_at_the_same_pair(twist_carrier, which, i, j, bump):
    ops, lam, a_inv, alpha_inv, rho2, tau2 = twist_carrier
    spot = (ops.keys[i % len(ops.keys)], ops.keys[j % len(ops.keys)])
    base = rho2 if which == "rho" else tau2
    bumped = lambda x, y: base(x, y) + bump if (x, y) == spot else base(x, y)
    if which == "rho":
        rho2 = bumped
    else:
        tau2 = bumped

    holds = _twisted_product_predicate(ops, lam, rho2, tau2)
    pairs = _pairs(ops)
    verdicts = [holds(p) for p in pairs]
    assert verdicts == [naive_twisted_product_holds(ops, lam, rho2, tau2, *p) for p in pairs]
    bad = next((p for p, ok in zip(pairs, verdicts) if not ok), None)
    if bad is None:
        coinner_from_integral_twist(ops, lam, a_inv, alpha_inv, rho2, tau2)
        return
    with pytest.raises(PreconditionError) as refused:
        coinner_from_integral_twist(ops, lam, a_inv, alpha_inv, rho2, tau2)
    assert str(refused.value) == (
        f"twisted product formula fails at {_pair_label(ops, bad)}; extraction refused")


def test_product_formula_grid_builds_delta3_once_per_key(c4, monkeypatch):
    ops, lam, _, _, rho2, tau2 = dual_c4_twist(c4)
    calls = []

    def counting_delta(k):
        calls.append(k)
        return ops.delta(k)

    counted = dataclasses.replace(ops, delta=counting_delta)
    holds = _twisted_product_predicate(counted, lam, rho2, tau2)
    assert all(holds(p) for p in _pairs(ops))
    # Delta^3 of k costs one delta call on k and one on each left leg
    budget = sum(1 + len(ops.delta(k)) for k in ops.keys)
    assert len(calls) <= budget

    # the same bound holds for the grid the twist construction runs, up to
    # its memoized omega * alpha convolution (one delta call per key)
    spent = {}
    real_grid_check = cofrobenius.grid_check

    def counting_grid_check(name, items, predicate, describe):
        before = len(calls)
        result = real_grid_check(name, items, predicate, describe)
        spent[name] = len(calls) - before
        return result

    monkeypatch.setattr(cofrobenius, "grid_check", counting_grid_check)
    dual = c4.dual()
    omega = dual.functional([0, 1, 0, 0])
    _, _, checks = integral_twist_from_coinner(
        counted, lam, cofrobenius_data(dual).alpha.as_fn(), omega.as_fn(),
        dual.conv_inverse(omega).as_fn())
    assert all(c.ok for c in checks)
    assert spent["integral_twist.product_formula"] <= budget + len(ops.keys)
