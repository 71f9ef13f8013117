"""The built-in infinite-dimensional co-Frobenius Hopf algebra.

Generated by an invertible grouplike g and a skew-primitive x with
gx = -xg and x^2 = 0.  Basis keys are pairs (i, j) for g^i x^j with i any
integer and j in {0, 1}; every structure map is a closed form over all of
Z, so a window parameter only bounds the grid the identity suite runs on.
basis_ops hands the closed forms over as they are; the tables of its
BasisOps are their one cache.
The carrier (family_data) gives lambda and chi in closed form; a = S(a^-1),
a^-1, alpha and alpha^-1 are read off them by cofrobenius.derive_carrier,
as on a finite algebra.  Beyond the shared verify driver, the family has
its own structure battery, computed lines and closed forms.
"""

from __future__ import annotations

from .cofrobenius import Carrier, derive_carrier, lam_mul_table
from .coquasitriangular import Braiding, modular_characters
from .hopf import AxiomError
from .lincomb import BasisOps, LC, hopf_axiom_checks, key_check, memo_fn
from .report import CheckResult
from .scalars import QQ, Scalar

ZERO = 0
ONE = 1

FAMILY_CONVENTIONS = (
    "basis g^i x^j indexed by (i, j) with i in Z and j in {0, 1}",
    "relations: g x = -x g, x^2 = 0; Delta(x) = x (x) 1 + g (x) x",
    "window N bounds the test grid only; structure maps are exact on all of Z",
)


def _sign(k: int) -> Scalar:
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


def eps_key(k) -> Scalar:
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


def integral_value(k) -> Scalar:
    return ONE if k == (-1, 1) else ZERO


def alpha_closed_form(k) -> Scalar:
    i, j = k
    return _sign(i) if j == 0 else ZERO


def drinfeld_closed_form(k) -> Scalar:
    i, j = k
    return _sign(i) if j == 0 else ZERO


def sigma_value(k1, k2) -> Scalar:
    i, j = k1
    t, s = k2
    if j or s:
        return ZERO
    return _sign(i * t)


def braiding(ops: BasisOps) -> Braiding:
    # sigma composed with S on the first leg gives the inverse; on grouplike
    # keys that is (-1)^(-i t) = (-1)^(i t), so sigma is its own inverse
    return Braiding(ops, value=sigma_value, inverse=sigma_value)


def basis_ops(window: int) -> BasisOps:
    """The family on the window's keys, its structure maps the closed forms;
    every reader goes through the BasisOps' tables, so each closed form runs
    once per distinct argument."""
    if window < 2:
        raise ValueError("window must be at least 2")
    return BasisOps(
        keys=tuple((i, j) for i in range(-window, window + 1) for j in (0, 1)),
        unit={(0, 0): ONE},
        mul=mul_key,
        delta=delta_key,
        eps=eps_key,
        antipode=antipode_key,
        antipode_inv=antipode_inv_key,
        field=QQ,
        label=label_key,
    )


def solve_nakayama(ops: BasisOps):
    """Solve lambda(m h) = lambda(chi(h) m) for chi with a diagonal ansatz.

    For h = g^i x^j the witness m = g^(-1-i) x^(1-j) makes both sides land
    on the integral's support, fixing the scalar; the global law is then
    verified across the whole window by the caller.
    """

    def chi(key) -> LC:
        i, j = key
        m = (-1 - i, 1 - j)
        lhs = sum(c * integral_value(k) for k, c in ops.tables.prod[m][key])
        base = sum(c * integral_value(k) for k, c in ops.tables.prod[key][m])
        if not base:
            raise AxiomError(f"nakayama witness degenerate at {ops.label(key)}")
        return {key: QQ.div(lhs, base)}

    return memo_fn(chi)


def family_data(ops: BasisOps) -> Carrier:
    """The family's carrier: the closed-form integral and the diagonal
    Nakayama map, with a, a^-1, alpha and alpha^-1 derived from them by
    cofrobenius.derive_carrier; global verification is the caller's job."""
    return derive_carrier(ops, integral_value, lam_mul_table(ops, integral_value),
                          solve_nakayama(ops))


def structure_checks(ops: BasisOps) -> list[CheckResult]:
    """The family's structure battery on the window: the Hopf axioms, then
    the closed-form rules S^2 = sign and S^4 = id."""
    out = hopf_axiom_checks(ops)
    out.append(key_check(
        "family.antipode_square_sign_rule", ops,
        lambda k: ops.tables.s_pow[2][k] == ((k, _sign(k[1])),)))
    out.append(key_check(
        "family.antipode_fourth_power_identity", ops,
        lambda k: ops.tables.s_pow[4][k] == ops.tables.s_pow[0][k]))
    return out


def computed_lines(window: int, c: Carrier) -> list[tuple[str, str]]:
    """The family's computed values, in closed form."""
    return [
        ("window", f"|i| <= {window}, {len(c.ops.keys)} basis keys"),
        ("lambda", "lambda(g^i x^j) = delta(i, -1) delta(j, 1)"),
        ("a", label_key(next(iter(c.a)))),
        ("alpha", "alpha(g^i x^j) = delta(j, 0) (-1)^i"),
        ("chi", "chi(g^i x^j) = (-1)^(i + j) g^i x^j"),
        ("u", "u(g^i x^j) = delta(j, 0) (-1)^i; u = v = u^-1 = v^-1"),
    ]


def window_table(ops: BasisOps, name: str, fn) -> list[tuple[str, str]]:
    """A functional as its nonzero values on the window and a support line."""
    nonzero = [(k, v) for k, v in ((k, fn(k)) for k in ops.keys) if v]
    return [*((f"{name}({ops.label(k)})", QQ.format(v)) for k, v in nonzero),
            (f"{name} support",
             f"{len(nonzero)} of {len(ops.keys)} window keys; omitted keys are 0")]


def closed_form_checks(c: Carrier, br: Braiding, fns: dict) -> list[CheckResult]:
    """alpha, u and beta_a as the shared checks computed them, against the
    family's closed forms, and u = v = u^-1 = v^-1."""
    ops = c.ops

    def matches(name: str, fn, closed) -> CheckResult:
        return key_check(f"family.{name}_matches_closed_form", ops,
                         lambda k: fn(k) == closed(k))

    u, u_inv, v, v_inv = fns["u"], fns["u_inv"], fns["v"], fns["v_inv"]
    return [
        matches("alpha", c.alpha, alpha_closed_form),
        matches("u", u, drinfeld_closed_form),
        key_check("family.u_v_and_inverses_coincide", ops,
                  lambda k: u(k) == u_inv(k) == v(k) == v_inv(k)),
        matches("beta_a", modular_characters(ops, br, c.a, c.a_inv)[1], alpha_closed_form),
    ]
