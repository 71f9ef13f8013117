import dataclasses
from fractions import Fraction

import pytest

from hopfcheck.coquasitriangular import Braiding, braiding_axiom_checks
from hopfcheck.hopf import AxiomError
from hopfcheck.laurent import (
    ONE,
    alpha_closed_form,
    antipode_key,
    basis_ops,
    braiding,
    delta_key,
    drinfeld_closed_form,
    eps_key,
    family_data,
    integral_value,
    label_key,
    mul_key,
    sigma_value,
    solve_modular,
    solve_nakayama,
    window_suite,
)

NEG = Fraction(-1)


@pytest.mark.parametrize("window", [2, 3, 5])
def test_window_suite_is_green(window):
    checks, computed = window_suite(window)
    fails = [c for c in checks if c.status == "fail"]
    assert not fails, fails
    skips = [c for c in checks if c.status == "skipped"]
    assert [c.name for c in skips] == ["braided_modular.unimodular_u_inv_v_eq_alpha"]
    assert skips[0].witness == "modular element is not the unit"
    values = dict(computed)
    assert values["a"] == "g"
    assert values["window"].startswith(f"|i| <= {window}")


def test_grid_size_tracks_window():
    assert len(basis_ops(5).keys) == 22
    assert len(basis_ops(2).keys) == 10


def test_window_too_small_is_rejected():
    with pytest.raises(ValueError, match="window must be at least 2"):
        basis_ops(1)


def test_multiplication_closed_form():
    # x g = -g x, powers of x truncate at two
    assert mul_key((0, 1), (1, 0)) == {(1, 1): NEG}
    assert mul_key((1, 0), (0, 1)) == {(1, 1): ONE}
    assert mul_key((0, 1), (0, 1)) == {}
    assert mul_key((2, 0), (-3, 1)) == {(-1, 1): ONE}


def test_comultiplication_and_counit():
    assert delta_key((4, 0)) == ((ONE, (4, 0), (4, 0)),)
    assert delta_key((0, 1)) == ((ONE, (0, 1), (0, 0)), (ONE, (1, 0), (0, 1)))
    assert eps_key((7, 0)) == ONE
    assert eps_key((7, 1)) == Fraction(0)


def test_antipode_closed_form():
    assert antipode_key((3, 0)) == {(-3, 0): ONE}
    # S(x) = -g^-1 x and S(gx) = g^-2 x
    assert antipode_key((0, 1)) == {(-1, 1): NEG}
    assert antipode_key((1, 1)) == {(-2, 1): ONE}


def test_labels():
    assert label_key((0, 0)) == "1"
    assert label_key((1, 0)) == "g"
    assert label_key((-2, 0)) == "g^-2"
    assert label_key((0, 1)) == "x"
    assert label_key((1, 1)) == "gx"
    assert label_key((-1, 1)) == "g^-1x"


def test_integral_is_a_point_mass():
    assert integral_value((-1, 1)) == ONE
    assert integral_value((1, 1)) == Fraction(0)
    assert integral_value((-1, 0)) == Fraction(0)


def test_modular_element_solves_to_g():
    a_lc, a_inv_lc = solve_modular(basis_ops(3))
    assert a_lc == {(1, 0): ONE}
    assert a_inv_lc == {(-1, 0): ONE}


def test_nakayama_diagonal_signs():
    chi = solve_nakayama(basis_ops(4))
    for key, sign in [((0, 0), ONE), ((1, 0), NEG), ((0, 1), NEG),
                      ((1, 1), ONE), ((-2, 1), NEG)]:
        assert chi(key) == {key: sign}


def test_character_closed_forms():
    for i in range(-3, 4):
        want = ONE if i % 2 == 0 else NEG
        assert alpha_closed_form((i, 0)) == want
        assert drinfeld_closed_form((i, 0)) == want
        assert alpha_closed_form((i, 1)) == Fraction(0)


def test_family_data_matches_closed_forms():
    ops = basis_ops(3)
    c = family_data(ops)
    assert c.ops is ops and c.lam is integral_value
    assert c.a == {(1, 0): ONE}
    assert c.a_inv == {(-1, 0): ONE}
    for k in ops.keys:
        assert c.alpha(k) == alpha_closed_form(k)
        assert c.alpha_inv(k) == alpha_closed_form(k)
        assert c.chi(k) == {k: alpha_closed_form((k[0] + k[1], 0))}


def test_braiding_is_self_inverse():
    br = braiding()
    ops = basis_ops(3)
    for k1 in ops.keys:
        for k2 in ops.keys:
            assert br.value(k1, k2) == sigma_value(k1, k2)
            assert br.inverse(k1, k2) == sigma_value(k1, k2)
    assert sigma_value((1, 0), (1, 0)) == NEG
    assert sigma_value((2, 0), (1, 0)) == ONE
    assert sigma_value((0, 1), (1, 0)) == Fraction(0)


def test_sign_flipped_braiding_is_detected():
    bad = Braiding(value=lambda a, b: -sigma_value(a, b),
                   inverse=lambda a, b: -sigma_value(a, b))
    results = {c.name: c for c in braiding_axiom_checks(basis_ops(2), bad)}
    mult = results["cqt.multiplicative_first_argument"]
    assert not mult.ok
    assert mult.witness and mult.witness.startswith("at (")


def test_solver_witness_errors():
    ops = basis_ops(2)
    flat = dataclasses.replace(ops, delta=lambda k: ((ONE, k, k),))
    with pytest.raises(AxiomError, match="did not produce a grouplike monomial"):
        solve_modular(flat)
    dead = dataclasses.replace(ops, mul=lambda k1, k2: {})
    chi = solve_nakayama(dead)
    with pytest.raises(AxiomError, match="nakayama witness degenerate at x"):
        chi((0, 1))
