"""The built-in infinite-dimensional co-Frobenius Hopf algebra.

Generated by an invertible grouplike g and a skew-primitive x with
gx = -xg and x^2 = 0.  Basis keys are pairs (i, j) for g^i x^j with i any
integer and j in {0, 1}; every structure map is a closed form over all of
Z, so a window parameter only bounds the grid the identity suite runs on.
"""

from __future__ import annotations

from fractions import Fraction

from .cofrobenius import (
    Carrier,
    integral_exchange_checks,
    left_integral_law_check,
    modular_element_checks,
    nakayama_checks,
    radford_s4_checks,
    twist_round_trip,
)
from .hopf import AxiomError
from .coquasitriangular import (
    Braiding,
    braided_functionals,
    braided_modular_corollary_checks,
    braiding_axiom_checks,
    flip_braiding_checks,
    grouplike_witness_checks,
    modular_characters,
    modular_convolution_checks,
)
from .lincomb import BasisOps, LC, hopf_axiom_checks, lc_eq, memo_fn
from .report import CheckResult, check, grid_check

ZERO = Fraction(0)
ONE = Fraction(1)

FAMILY_CONVENTIONS = (
    "basis g^i x^j indexed by (i, j) with i in Z and j in {0, 1}",
    "relations: g x = -x g, x^2 = 0; Delta(x) = x (x) 1 + g (x) x",
    "window N bounds the test grid only; structure maps are exact on all of Z",
)


def _sign(k: int) -> Fraction:
    return ONE if k % 2 == 0 else -ONE


def mul_key(k1, k2) -> LC:
    i, j = k1
    t, s = k2
    if j + s > 1:
        return {}
    return {(i + t, j + s): _sign(j * t)}


def delta_key(k):
    i, j = k
    if j == 0:
        return ((ONE, (i, 0), (i, 0)),)
    return ((ONE, (i, 1), (i, 0)), (ONE, (i + 1, 0), (i, 1)))


def eps_key(k) -> Fraction:
    return ONE if k[1] == 0 else ZERO


def antipode_key(k) -> LC:
    i, j = k
    if j == 0:
        return {(-i, 0): ONE}
    return {(-i - 1, 1): _sign(i + 1)}


def antipode_inv_key(k) -> LC:
    i, j = k
    if j == 0:
        return {(-i, 0): ONE}
    return {(-i - 1, 1): _sign(i)}


def label_key(k) -> str:
    i, j = k
    if j == 0:
        return "1" if i == 0 else ("g" if i == 1 else f"g^{i}")
    return "x" if i == 0 else ("gx" if i == 1 else f"g^{i}x")


def integral_value(k) -> Fraction:
    return ONE if k == (-1, 1) else ZERO


def alpha_closed_form(k) -> Fraction:
    i, j = k
    return _sign(i) if j == 0 else ZERO


def drinfeld_closed_form(k) -> Fraction:
    i, j = k
    return _sign(i) if j == 0 else ZERO


def sigma_value(k1, k2) -> Fraction:
    i, j = k1
    t, s = k2
    if j or s:
        return ZERO
    return _sign(i * t)


def braiding() -> Braiding:
    # sigma composed with S on the first leg gives the inverse; on grouplike
    # keys that is (-1)^(-i t) = (-1)^(i t), so sigma is its own inverse
    return Braiding(value=sigma_value, inverse=sigma_value)


def basis_ops(window: int) -> BasisOps:
    if window < 2:
        raise ValueError("window must be at least 2")
    keys = tuple((i, j) for i in range(-window, window + 1) for j in (0, 1))
    return BasisOps(
        keys=keys,
        unit={(0, 0): ONE},
        mul=mul_key,
        delta=delta_key,
        eps=eps_key,
        antipode=antipode_key,
        antipode_inv=antipode_inv_key,
        zero=ZERO,
        one=ONE,
        label=label_key,
    )


def solve_modular(ops: BasisOps) -> tuple[LC, LC]:
    """Read a^-1 off the integral law at the witness g^-1 x, then invert.

    lambda(h1) h2 = lambda(h) a^-1 with lambda(g^-1 x) = 1, so the left side
    evaluated there is a^-1 on the nose.
    """
    witness = (-1, 1)
    a_inv: LC = {}
    for c, k1, k2 in ops.delta(witness):
        lv = integral_value(k1)
        if lv:
            a_inv[k2] = a_inv.get(k2, ops.zero) + c * lv
    items = [(k, v) for k, v in a_inv.items() if v]
    if len(items) != 1 or items[0][0][1] != 0 or items[0][1] != ops.one:
        raise AxiomError("modular witness did not produce a grouplike monomial")
    (i, _), _ = items[0]
    return {(-i, 0): ONE}, a_inv


def solve_nakayama(ops: BasisOps):
    """Solve lambda(m h) = lambda(chi(h) m) for chi with a diagonal ansatz.

    For h = g^i x^j the witness m = g^(-1-i) x^(1-j) makes both sides land
    on the integral's support, fixing the scalar; the global law is then
    verified across the whole window by the caller.
    """

    def chi(key) -> LC:
        i, j = key
        m = (-1 - i, 1 - j)
        lhs = ops.eval_fn(integral_value, ops.mul(m, key))
        base = ops.eval_fn(integral_value, ops.mul(key, m))
        if not base:
            raise AxiomError(f"nakayama witness degenerate at {ops.label(key)}")
        return {key: lhs / base}

    return memo_fn(chi)


def family_data(ops: BasisOps) -> Carrier:
    """The family's carrier: the closed-form integral with the modular
    element, Nakayama map and modular functional, solved then memoized;
    global verification is the caller's job."""
    a_lc, a_inv_lc = solve_modular(ops)
    chi = solve_nakayama(ops)
    alpha = memo_fn(lambda k: ops.eps_lc(chi(k)))
    alpha_inv = memo_fn(ops.compose_s_power(alpha, 1))
    return Carrier(ops, integral_value, a_lc, a_inv_lc, chi, alpha, alpha_inv)


def window_suite(window: int) -> tuple[list[CheckResult], list[tuple[str, str]]]:
    """Every identity the suite knows, on the truncation |i| <= window."""
    ops = basis_ops(window)
    out: list[CheckResult] = []
    out.extend(hopf_axiom_checks(ops))

    out.append(grid_check(
        "family.antipode_square_sign_rule", ops.keys,
        lambda k: lc_eq(ops.s_power(ops.single(k), 2),
                        {k: _sign(k[1])}),
        lambda k: f"at {ops.label(k)}"))
    out.append(grid_check(
        "family.antipode_fourth_power_identity", ops.keys,
        lambda k: lc_eq(ops.s_power(ops.single(k), 4), ops.single(k)),
        lambda k: f"at {ops.label(k)}"))

    c = family_data(ops)
    out.append(left_integral_law_check(ops, c.lam))
    out.extend(modular_element_checks(ops, c.lam, c.a, c.a_inv))
    out.extend(integral_exchange_checks(ops, c.lam, c.a_inv))
    out.extend(nakayama_checks(ops, c.lam, c.chi, c.alpha, c.alpha_inv))
    eq, where = ops.fn_eq_on_grid(c.alpha, alpha_closed_form)
    out.append(check("family.alpha_matches_closed_form", eq,
                     None if eq else f"at {ops.label(where)}"))

    out.extend(radford_s4_checks(ops, c.a, c.a_inv, c.alpha, c.alpha_inv))

    br = braiding()
    out.extend(braiding_axiom_checks(ops, br))
    fns, fn_checks = braided_functionals(ops, br)
    out.extend(fn_checks)
    eq, where = ops.fn_eq_on_grid(fns["u"], drinfeld_closed_form)
    out.append(check("family.u_matches_closed_form", eq,
                     None if eq else f"at {ops.label(where)}"))
    out.append(grid_check(
        "family.u_v_and_inverses_coincide", ops.keys,
        lambda k: fns["u"](k) == fns["u_inv"](k) == fns["v"](k) == fns["v_inv"](k),
        lambda k: f"at {ops.label(k)}"))

    out.extend(modular_convolution_checks(ops, br, fns, c.alpha, c.a, c.a_inv))
    out.extend(braided_modular_corollary_checks(ops, br, fns, c.alpha, c.alpha_inv,
                                                c.a, c.a_inv))
    _, beta_a = modular_characters(ops, br, c.a, c.a_inv)
    eq, where = ops.fn_eq_on_grid(beta_a, alpha_closed_form)
    out.append(check("family.beta_a_matches_closed_form", eq,
                     None if eq else f"at {ops.label(where)}"))

    _, witness_checks = grouplike_witness_checks(ops, br, c.a, c.a_inv, name="a")
    out.extend(witness_checks)

    _, flip_checks = flip_braiding_checks(ops, br, fns, c.a, c.a_inv)
    out.extend(flip_checks)

    out.extend(twist_round_trip(c, fns["u"], fns["u_inv"]))

    computed = [
        ("window", f"|i| <= {window}, {len(ops.keys)} basis keys"),
        ("lambda", "lambda(g^i x^j) = delta(i, -1) delta(j, 1)"),
        ("a", label_key(next(iter(c.a)))),
        ("alpha", "alpha(g^i x^j) = delta(j, 0) (-1)^i"),
        ("chi", "chi(g^i x^j) = (-1)^(i + j) g^i x^j"),
        ("u", "u(g^i x^j) = delta(j, 0) (-1)^i; u = v = u^-1 = v^-1"),
    ]
    return out, computed
