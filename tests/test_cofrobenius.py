import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import cofrobenius, laurent, lincomb
from hopfcheck.cofrobenius import (
    _twisted_product_rows,
    check_s2_inner_witness,
    cofrobenius_checks,
    cofrobenius_data,
    coinner_from_integral_twist,
    integral_twist_from_coinner,
    left_integrals,
    modular_element_checks,
    product_formula_check,
    radford_s4_checks,
    twist_round_trip,
)
from hopfcheck.coquasitriangular import braided_functionals, dualize_qt
from hopfcheck.hopf import FinHopfAlgebra
from hopfcheck.quasitriangular import drinfeld_elements
from hopfcheck.linalg import SparseMatrix
from hopfcheck.scalars import QQ

ONE = Fraction(1)
ZERO = Fraction(0)


def test_integral_space_is_one_dimensional(c2, c4, sweedler):
    for algebra in (c2, c4, sweedler):
        assert len(left_integrals(algebra)) == 1


def values(ops, f) -> tuple:
    return tuple(f(k) for k in ops.keys)


def test_sweedler_integral_values(sweedler, sweedler_data):
    data = sweedler_data
    c = data
    assert values(c.ops, c.lam) == (ZERO, ZERO, ZERO, ONE)
    assert c.a == c.ops.single(1)
    assert c.a_inv == c.a
    assert values(c.ops, c.alpha) == (ONE, -ONE, ZERO, ZERO)
    assert values(c.ops, c.alpha_inv) == values(c.ops, c.alpha)
    # chi fixes 1 and gx, negates g and x
    assert data.nakayama.rows == [{0: 1}, {1: -1}, {2: -1}, {3: 1}]
    assert c.chi(2) == {2: -ONE}


def test_group_algebra_modular_data_is_trivial(c2, c4):
    for algebra in (c2, c4):
        data = cofrobenius_data(algebra)
        c = data
        # the integral picks out the identity coefficient
        assert values(c.ops, c.lam) == (ONE,) + (ZERO,) * (algebra.dim - 1)
        assert c.a == c.ops.unit
        assert values(c.ops, c.alpha) == values(c.ops, c.ops.eps)
        assert data.nakayama == SparseMatrix(QQ, [{i: 1} for i in range(algebra.dim)],
                                             algebra.dim)


def test_full_battery_passes(c2, sweedler_data):
    for data in (sweedler_data, cofrobenius_data(c2)):
        for r in cofrobenius_checks(data):
            assert r.status == "pass", r


def test_radford_s4_three_ways(sweedler, sweedler_data):
    c = sweedler_data
    results = radford_s4_checks(c.ops, c.a, c.a_inv, c.alpha, c.alpha_inv)
    names = {r.name for r in results}
    assert names == {"radford.s4_matches_hit_form",
                     "radford.s4_matches_expanded_form",
                     "radford.inner_forms_agree"}
    assert all(r.ok for r in results)


def test_wrong_modular_element_is_caught(sweedler, sweedler_data):
    ops = sweedler.ops
    results = modular_element_checks(ops, sweedler_data.lam, ops.unit, ops.unit)
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
    ops = sweedler.ops
    later = ["s2_witness.nakayama_product", "s2_witness.nakayama_modular_product",
             "s2_witness.modular_value_agreement"]
    results = check_s2_inner_witness(sweedler, sweedler_data, ops.single(2))
    assert [(r.name, r.status) for r in results] == [
        ("s2_witness.invertible", "fail"),
        *((name, "skipped") for name in ["s2_witness.implements_s2", *later])]
    assert {r.witness for r in results[1:]} == {"w is not invertible"}
    # the unit is invertible but does not conjugate to S^2
    results = check_s2_inner_witness(sweedler, sweedler_data, ops.unit)
    assert [(r.name, r.status) for r in results] == [
        ("s2_witness.invertible", "pass"), ("s2_witness.implements_s2", "fail"),
        *((name, "skipped") for name in later)]
    assert results[1].witness == "at x"
    assert {r.witness for r in results[2:]} == {"w does not implement S^2"}


def test_s2_witness_takes_a_checked_inverse(sweedler, sweedler_data, monkeypatch):
    """A w^-1 handed in spares the solve once w w^-1 = 1 = w^-1 w; one that
    fails those products is replaced by the solved inverse, and the lines
    are the same either way."""
    c = sweedler_data
    solved = check_s2_inner_witness(sweedler, c, c.a)
    calls, real = [], FinHopfAlgebra.invert_element
    monkeypatch.setattr(FinHopfAlgebra, "invert_element",
                        lambda self, x: calls.append(x) or real(self, x))
    assert check_s2_inner_witness(sweedler, c, c.a, c.a_inv) == solved
    assert calls == []
    assert check_s2_inner_witness(sweedler, c, c.a, c.ops.unit) == solved  # g 1 is not 1
    assert calls == [c.a]
    rejected = check_s2_inner_witness(sweedler, c, c.ops.single(2), c.ops.unit)
    assert rejected == check_s2_inner_witness(sweedler, c, c.ops.single(2))
    assert rejected[0].status == "fail"


def alpha_twist(c):
    """The twisting pair built from omega = alpha, the modular character."""
    return integral_twist_from_coinner(c.ops, c.lam_mul, c.alpha, c.alpha, c.alpha_inv)


def test_integral_twist_roundtrip(sweedler_data):
    c = sweedler_data
    rho1, tau1, forward = alpha_twist(c)
    assert all(r.ok for r in forward)
    rho_p, tau_pp, backward = coinner_from_integral_twist(c.ops, c.a_inv, c.alpha_inv,
                                                          rho1, tau1)
    assert all(r.ok for r in backward)
    # both extracted functionals collapse to the modular character here
    for k in c.ops.keys:
        assert rho_p(k) == tau_pp(k) == c.alpha(k)


TWIST_LINES = ["coinner.omega_invertible",
               "coinner.omega_implements_s_inverse_squared",
               "integral_twist.product_formula",
               "coinner.extracted_pair.convolution_inverse_left",
               "coinner.extracted_pair.convolution_inverse_right",
               "coinner.first_factor_s2_stable",
               "coinner.second_factor_s2_stable",
               "coinner.extracted_implements_s_inverse_squared"]


def test_integral_twist_rejects_non_coinner_omega(sweedler_data):
    # eps is its own convolution inverse, but its co-inner action is the
    # identity while S^-2(x) = -x
    c = sweedler_data
    _, _, checks = integral_twist_from_coinner(c.ops, c.lam_mul, c.alpha,
                                               c.ops.eps, c.ops.eps)
    by_name = {r.name: r for r in checks}
    assert by_name["coinner.omega_invertible"].ok
    refused = by_name["coinner.omega_implements_s_inverse_squared"]
    assert not refused.ok and refused.witness == "at x"


def test_round_trip_reports_every_line_when_omega_fails(sweedler_data):
    c = sweedler_data
    results = twist_round_trip(c, c.ops.eps, c.ops.eps)
    assert [r.name for r in results] == TWIST_LINES
    refused = results[1]
    assert refused.status == "fail" and refused.witness == "at x"
    assert [r.name for r in twist_round_trip(c, c.alpha, c.alpha_inv)] == TWIST_LINES


def test_round_trip_evaluates_the_product_formula_once(sweedler_data, monkeypatch):
    calls = []
    real = cofrobenius._twisted_product_rows

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cofrobenius, "_twisted_product_rows", spy)
    c = sweedler_data
    assert all(r.ok for r in twist_round_trip(c, c.alpha, c.alpha_inv))
    assert len(calls) == 1


def test_extraction_refuses_perturbed_pair(sweedler_data):
    c = sweedler_data
    rho1, tau1, _ = alpha_twist(c)
    bumped = lambda x: tau1(x) + (ONE if x == 1 else ZERO)
    refused = product_formula_check(c.ops, c.lam_mul, rho1, bumped)
    assert refused.name == "integral_twist.product_formula"
    assert not refused.ok and refused.witness == "at (g, x)"
    first = naive_first_failure(c, rho1, bumped)
    assert refused.witness == f"at {pair_label(c.ops, first)}"
    # the extraction still reports on the perturbed pair
    _, _, backward = coinner_from_integral_twist(c.ops, c.a_inv, c.alpha_inv, rho1, bumped)
    assert [r.name for r in backward] == TWIST_LINES[3:]


# ---------------------------------------------------------------------------
# the factored twisted-product row kernel against the per-pair definition


def key_pairs(ops):
    return [(h, l) for h in ops.keys for l in ops.keys]


def pair_label(ops, pair) -> str:
    return f"({ops.label(pair[0])}, {ops.label(pair[1])})"


def kernel_holds(first_failure, pair) -> bool:
    """The row kernel's verdict at one pair: asked for the one column l of
    the row h, it names no failure."""
    return first_failure(pair[0], (pair[1],)) is None


def naive_twisted_product_rhs(ops, lam, rho1, tau1, h, l):
    """rho(h1, l1) lambda(h2 l2) tau(h3, l3) with rho(x, y) = rho1(x) eps(y)
    and tau(x, y) = tau1(x) eps(y), summed term by term over
    Delta^3(h) x Delta^3(l)."""
    rhs = ops.zero
    for ch, (h1, h2, h3) in ops.delta_n(h, 3):
        for cl, (l1, l2, l3) in ops.delta_n(l, 3):
            r = rho1(h1) * ops.eps(l1)
            if not r:
                continue
            t = tau1(h3) * ops.eps(l3)
            if not t:
                continue
            mid = ops.eval_fn(lam, ops.mul(h2, l2))
            if mid:
                rhs = rhs + ch * cl * r * mid * t
    return rhs


def naive_twisted_product_holds(c, rho1, tau1, h, l) -> bool:
    """lambda(l h) = rho(h1, l1) lambda(h2 l2) tau(h3, l3), summed term by term."""
    ops = c.ops
    return ops.eval_fn(c.lam, ops.mul(l, h)) == naive_twisted_product_rhs(ops, c.lam, rho1,
                                                                           tau1, h, l)


def naive_first_failure(c, rho1, tau1):
    """The first key pair, in grid order, where the term-by-term formula fails."""
    return next((p for p in key_pairs(c.ops)
                 if not naive_twisted_product_holds(c, rho1, tau1, *p)), None)


def finite_twist(algebra, omega, omega_inv):
    """(carrier, rho1, tau1) for a co-inner omega with convolution inverse
    omega_inv."""
    c = cofrobenius_data(algebra)
    rho1, tau1, _ = integral_twist_from_coinner(c.ops, c.lam_mul, c.alpha, omega, omega_inv)
    return c, rho1, tau1


def evaluation_at_generator(dual):
    """Evaluation at g, a character of the dual of kC4, and its inverse
    after the antipode."""
    omega = (0, 1, 0, 0).__getitem__
    return omega, dual.ops.compose_s_power(omega, 1)


def dual_c4_twist(c4):
    dual = c4.dual()
    # evaluation at the generator is grouplike in the commutative dual, so
    # it realizes S^-2 = id co-innerly and gives a nontrivial pair
    return finite_twist(dual, *evaluation_at_generator(dual))


@pytest.fixture(scope="module", params=["sweedler", "dual_sweedler", "dual_c4", "laurent3"])
def twist_carrier(request, sweedler, sweedler_data, sweedler_r, c4):
    if request.param == "sweedler":
        c = sweedler_data
        return finite_twist(sweedler, c.alpha, c.ops.compose_s_power(c.alpha, 1))
    if request.param == "dual_sweedler":
        qt, _ = drinfeld_elements(sweedler_r)
        dual, br, _ = dualize_qt(sweedler_r, qt)
        fns = br.functionals[0]
        return finite_twist(dual, fns["u"], fns["u_inv"])
    if request.param == "dual_c4":
        return dual_c4_twist(c4)
    c = laurent.family_data(laurent.basis_ops(3))
    fns, _ = braided_functionals(c.ops, laurent.braiding(c.ops))
    rho1, tau1, _ = integral_twist_from_coinner(c.ops, c.lam_mul, c.alpha,
                                                fns["u"], fns["u_inv"])
    return c, rho1, tau1


def test_twisted_product_predicate_matches_definition(twist_carrier):
    c, rho1, tau1 = twist_carrier
    first_failure = _twisted_product_rows(c.ops, c.lam_mul, rho1, tau1)
    for h, l in key_pairs(c.ops):
        assert naive_twisted_product_holds(c, rho1, tau1, h, l)
        assert kernel_holds(first_failure, (h, l))
    assert all(first_failure(h, c.ops.keys) is None for h in c.ops.keys)


def bumped_factors(ops, rho1, tau1, which, i, bump):
    """rho1 and tau1, with bump added to the one named by which at the key
    indexed by i."""
    spot = ops.keys[i % len(ops.keys)]
    base = rho1 if which == "rho" else tau1
    bumped = lambda x: base(x) + bump if x == spot else base(x)
    return (bumped, tau1) if which == "rho" else (rho1, bumped)


@settings(max_examples=15, deadline=None)
@given(which=st.sampled_from(["rho", "tau"]), i=st.integers(0, 63),
       bump=st.sampled_from([-2, -1, 1, 3]))
def test_perturbed_pair_is_refused_at_the_same_pair(twist_carrier, which, i, bump):
    c, rho1, tau1 = twist_carrier
    ops = c.ops
    rho1, tau1 = bumped_factors(ops, rho1, tau1, which, i, bump)
    first_failure = _twisted_product_rows(ops, c.lam_mul, rho1, tau1)
    pairs = key_pairs(ops)
    verdicts = [kernel_holds(first_failure, p) for p in pairs]
    assert verdicts == [naive_twisted_product_holds(c, rho1, tau1, *p) for p in pairs]
    bad = naive_first_failure(c, rho1, tau1)
    grid = product_formula_check(ops, c.lam_mul, rho1, tau1)
    if bad is None:
        assert grid.ok
    else:
        assert not grid.ok and grid.witness == f"at {pair_label(ops, bad)}"
    # the extraction reports on the pair whether or not the formula holds
    _, _, backward = coinner_from_integral_twist(ops, c.a_inv, c.alpha_inv, rho1, tau1)
    assert [r.name for r in backward] == TWIST_LINES[3:]


@settings(max_examples=12, deadline=None)
@given(which=st.sampled_from(["rho", "tau"]), i=st.integers(0, 63),
       bump=st.sampled_from([0, -1, 1, 3]))
def test_pair_convolution_matches_the_term_by_term_sum(twist_carrier, which, i, bump):
    """The pair convolution ((rho * lambda o m) * tau)(h, l), in its factored
    form lambda(h' l) with h' = rho1(h1) h2 tau1(h3), equals the sum over
    Delta^3(h) x Delta^3(l) as a value at every pair, also under a bumped
    rho1 or tau1."""
    c, rho1, tau1 = twist_carrier
    ops = c.ops
    rho1, tau1 = bumped_factors(ops, rho1, tau1, which, i, bump)
    for h in ops.keys:
        h_prime = ops.coinner(rho1, tau1, h)
        for l in ops.keys:
            factored = ops.eval_fn(lambda k: c.lam_mul(k, l), h_prime)
            assert factored == naive_twisted_product_rhs(ops, c.lam, rho1, tau1, h, l)


def test_product_formula_grid_builds_delta3_once_per_key(c4, monkeypatch):
    """The factored grid splits Delta^3 once per key, reads rho1 and tau1
    only while doing so, and looks lambda o m up at most K^2 + sum_h |h'| K
    times.  A per-pair Delta(h) x Delta(l) contraction breaks the first two
    budgets, the second also with Delta cached: on dual_c4 its sparse
    factors would keep it within the lookup budget."""
    c, rho1, tau1 = dual_c4_twist(c4)
    ops = c.ops
    calls, lookups, factor_reads = [], [], []

    def counting_delta(k):
        calls.append(k)
        return ops.delta(k)

    def counting_lam_mul(x, y):
        lookups.append((x, y))
        return c.lam_mul(x, y)

    def counting(f):
        return lambda k: factor_reads.append(k) or f(k)

    counted = dataclasses.replace(ops, delta=counting_delta)
    first_failure = _twisted_product_rows(counted, counting_lam_mul,
                                          counting(rho1), counting(tau1))
    assert all(first_failure(h, ops.keys) is None for h in ops.keys)
    # Delta^3 of k costs one delta call on k and one on each left leg
    budget = sum(1 + len(ops.delta(k)) for k in ops.keys)
    assert len(calls) <= budget
    assert len(factor_reads) <= sum(len(ops.delta(k)) + len(ops.delta_n(k, 3))
                                    for k in ops.keys)
    n = len(ops.keys)
    lookup_budget = n * n + sum(len(ops.coinner(rho1, tau1, h)) for h in ops.keys) * n
    assert len(lookups) <= lookup_budget

    # the delta and lookup bounds hold for the grid the twist construction
    # runs, up to its memoized omega * alpha convolution (one delta call per
    # key)
    spent = {}
    real_grid_check = lincomb.grid_check

    def counting_grid_check(name, items, predicate, describe):
        before = len(calls), len(lookups)
        result = real_grid_check(name, items, predicate, describe)
        spent[name] = len(calls) - before[0], len(lookups) - before[1]
        return result

    monkeypatch.setattr(lincomb, "grid_check", counting_grid_check)
    dual = c4.dual()
    _, _, checks = integral_twist_from_coinner(
        counted, counting_lam_mul, cofrobenius_data(dual).alpha,
        *evaluation_at_generator(dual))
    assert all(r.ok for r in checks)
    delta_spent, lookups_spent = spent["integral_twist.product_formula"]
    assert delta_spent <= budget + n
    assert lookups_spent <= lookup_budget
