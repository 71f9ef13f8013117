import dataclasses
import json
from fractions import Fraction

import pytest

from hopfcheck import laurent
from hopfcheck.cli import main
from hopfcheck.cofrobenius import modular_element_checks
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
    solve_nakayama,
)
from hopfcheck.report import FAIL

from test_golden import laurent_quotient_document

NEG = Fraction(-1)
# the checks that read the pairing and chi matrices, which the infinite
# carrier does not have
MATRIX_CHECKS = ("integral.pairing_full_rank_left", "integral.pairing_full_rank_right",
                 "integral.nakayama_invertible")


def verify_json(capsys, *source) -> dict:
    assert main(["verify", *source, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("window", [2, 3, 5])
def test_window_suite_is_green(window, capsys):
    report = verify_json(capsys, "preset:laurent", "--window", str(window))
    fails = [c for c in report["checks"] if c["status"] == "fail"]
    assert not fails, fails
    skips = [(c["name"], c["witness"]) for c in report["checks"] if c["status"] == "skipped"]
    assert skips == [
        ("integral.pairing_full_rank_left", "infinite carrier: no pairing matrix"),
        ("integral.pairing_full_rank_right", "infinite carrier: no pairing matrix"),
        ("integral.nakayama_invertible", "infinite carrier: no Nakayama matrix"),
        ("braided_modular.unimodular_u_inv_v_eq_alpha", "modular element is not the unit"),
    ]
    values = {c["name"]: c["value"] for c in report["computed"]}
    assert values["a"] == "g"
    assert values["window"].startswith(f"|i| <= {window}")


def test_finite_quotient_and_laurent_window_run_one_check_sequence(capsys, tmp_path):
    # H_4 over F_10007 is the Laurent family mod g^4 - 1; both go through the
    # one verify driver, so only the family's own lines, the finite antipode
    # inverse line and the matrix checks (PASS finite, SKIP infinite) differ
    path = tmp_path / "h4.json"
    path.write_text(json.dumps(laurent_quotient_document(4)), encoding="utf-8")

    def sequence(*source):
        return [(c["name"], c["status"]) for c in verify_json(capsys, *source)["checks"]
                if not c["name"].startswith("family.")
                and c["name"] != "hopf.antipode_invertible"]

    finite = sequence(str(path))
    family = sequence("preset:laurent", "--window", "2")
    assert [name for name, _ in finite] == [name for name, _ in family]
    assert [s for name, s in finite if name in MATRIX_CHECKS] == ["pass"] * 3
    assert [s for name, s in family if name in MATRIX_CHECKS] == ["skipped"] * 3
    assert ([x for x in finite if x[0] not in MATRIX_CHECKS]
            == [x for x in family if x[0] not in MATRIX_CHECKS])


def test_grid_size_tracks_window():
    assert len(basis_ops(5).keys) == 22
    assert len(basis_ops(2).keys) == 10


def test_window_too_small_is_rejected():
    with pytest.raises(ValueError, match="window must be at least 2"):
        basis_ops(1)


BRAIDED_TARGETS = ("u", "v", "uv", "a_alpha", "b_alpha", "main3", "cor3", "tangent")


@pytest.mark.parametrize("command", [
    ["verify"],
    *(["compute", what] for what in ("lambda", "a", "alpha", "chi", "u", "v", "uv",
                                     "a_alpha", "b_alpha")),
    *(["check", token] for token in ("s4", "main3", "cor3", "tangent")),
], ids="-".join)
def test_each_command_evaluates_each_closed_form_once_per_argument(command, monkeypatch,
                                                                   capsys):
    """basis_ops hands over the closed forms as they are, and every reader
    of mul, delta and both antipodes goes through the one set of tables of
    the window's BasisOps: a whole verify at window 9, and each compute
    target and braided check token, which reach the battery and the
    functionals through cmd_compute and _check_braided, run each closed
    form once per distinct argument (before the tables, a verify ran
    mul_key 15,504 times on 4,218 pairs).  Likewise every reader of sigma
    and sigma^-1 goes through the family's Braiding, so each braided
    command evaluates each side once per pair; both sides are sigma_value,
    so each gets its own spy (before, a verify ran sigma_value 17,536 times
    on 4,186 pairs)."""
    calls: dict = {}
    for name in ("mul_key", "delta_key", "antipode_key", "antipode_inv_key"):
        real = getattr(laurent, name)
        monkeypatch.setattr(laurent, name, lambda *args, real=real, name=name: (
            calls.setdefault(name, []).append(args), real(*args))[1])
    sides: dict = {"value": [], "inverse": []}
    real_braiding = laurent.braiding

    def braiding(ops):
        br = real_braiding(ops)
        spy = lambda side, fn: lambda x, y: (sides[side].append((x, y)), fn(x, y))[1]
        return dataclasses.replace(br, value=spy("value", br.value),
                                   inverse=spy("inverse", br.inverse))

    monkeypatch.setattr(laurent, "braiding", braiding)
    assert main([command[0], "preset:laurent", *command[1:], "--window", "9", "--json"]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["antipode_inv_key", "antipode_key", "delta_key", "mul_key"]
    assert all(len(args) == len(set(args)) for args in calls.values()), {
        name: (len(args), len(set(args))) for name, args in calls.items()}
    assert len(calls["mul_key"]) > len(basis_ops(9).keys) ** 2  # products of legs too
    braided = command[0] == "verify" or command[-1] in BRAIDED_TARGETS
    assert [bool(pairs) for pairs in sides.values()] == [braided, braided]
    assert all(len(pairs) == len(set(pairs)) for pairs in sides.values()), {
        side: (len(pairs), len(set(pairs))) for side, pairs in sides.items()}


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
    c = family_data(basis_ops(3))
    assert c.a == {(1, 0): ONE}
    assert c.a_inv == {(-1, 0): ONE}


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
    ops = basis_ops(3)
    br = braiding(ops)
    for k1 in ops.keys:
        for k2 in ops.keys:
            assert br.value(k1, k2) == sigma_value(k1, k2)
            assert br.inverse(k1, k2) == sigma_value(k1, k2)
    assert sigma_value((1, 0), (1, 0)) == NEG
    assert sigma_value((2, 0), (1, 0)) == ONE
    assert sigma_value((0, 1), (1, 0)) == Fraction(0)


def test_sign_flipped_braiding_is_detected():
    ops = basis_ops(2)
    bad = Braiding(ops, value=lambda a, b: -sigma_value(a, b),
                   inverse=lambda a, b: -sigma_value(a, b))
    results = {c.name: c for c in braiding_axiom_checks(ops, bad)}
    mult = results["cqt.multiplicative_first_argument"]
    assert not mult.ok
    assert mult.witness and mult.witness.startswith("at (")


def test_solver_witness_errors():
    ops = basis_ops(2)
    flat = dataclasses.replace(ops, delta=lambda k: ((ONE, k, k),))
    c = family_data(flat)  # construction only computes; the check reports it
    results = {r.name: r for r in modular_element_checks(flat, c.lam, c.a, c.a_inv)}
    assert results["integral.modular_element_grouplike"].status == FAIL
    dead = dataclasses.replace(ops, mul=lambda k1, k2: {})
    chi = solve_nakayama(dead)
    with pytest.raises(AxiomError, match="nakayama witness degenerate at x"):
        chi((0, 1))
