"""Integrals on the dual, modular data, and the identities tying them together.

The finite-dimensional entry points compute everything by linear algebra:
the integral as a nullspace, the modular element from its defining law at
one basis element, the Nakayama automorphism column-by-column.  They only
compute; the named checks are where each identity is verified.  The
checkers are written against BasisOps and read their data from a Carrier,
so the infinite-dimensional family reuses them with closed-form data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .hopf import AxiomError, Element, FinHopfAlgebra, Functional, NotInvertibleError
from .lincomb import (
    LC,
    BasisOps,
    Key,
    _pair_label,
    _pairs,
    conv_inverse_checks,
    is_character_fn,
    is_grouplike_lc,
    lc_add,
    lc_eq,
    lc_scale,
    memo_fn,
)
from .linalg import Matrix, SingularMatrixError, invert_matrix, nullspace, rank
from .report import CheckResult, check, failed, grid_check, skipped
from .scalars import Scalar

CONVENTIONS = (
    "left integral: (f * lambda)(h) = f(1) lambda(h), equivalently h1 lambda(h2) = lambda(h) 1",
    "lambda is scaled so that its first nonzero value on the ordered basis is 1",
    "modular element a: lambda(h1) h2 = lambda(h) a^-1; computed values are authoritative",
    "skew primitive: Delta(x) = x(x)1 + g(x)x with (x) the tensor sign",
)


class PreconditionError(ValueError):
    """Input data fails the hypothesis a construction relies on."""


@dataclass(frozen=True)
class Carrier:
    """BasisOps with a left integral and the modular data derived from it.

    lam, alpha and alpha_inv map a key to a scalar, chi maps a key to an LC,
    and a, a_inv are LCs.  Finite algebras solve for these once by linear
    algebra (CoFrobeniusData.carrier); the Laurent family gives closed forms
    (laurent.family_data).  The checkers read their data from here.
    """

    ops: BasisOps
    lam: Callable[[Key], Scalar]
    a: LC
    a_inv: LC
    chi: Callable[[Key], LC]
    alpha: Callable[[Key], Scalar]
    alpha_inv: Callable[[Key], Scalar]


# ---------------------------------------------------------------------------
# generic checkers over BasisOps


def left_integral_law_check(ops: BasisOps, lam) -> CheckResult:
    def holds(h) -> bool:
        lhs: LC = {}
        for c, h1, h2 in ops.delta(h):
            lv = lam(h2)
            if lv:
                lhs[h1] = lhs.get(h1, ops.zero) + c * lv
        return lc_eq(lhs, lc_scale(lam(h), ops.unit))

    return grid_check("integral.left_law", ops.keys, holds,
                      lambda h: f"at {ops.label(h)}")


def modular_element_checks(ops: BasisOps, lam, a: LC, a_inv: LC) -> list[CheckResult]:
    out: list[CheckResult] = []

    def law(h) -> bool:
        lhs: LC = {}
        for c, h1, h2 in ops.delta(h):
            lv = lam(h1)
            if lv:
                lhs[h2] = lhs.get(h2, ops.zero) + c * lv
        return lc_eq(lhs, lc_scale(lam(h), a_inv))

    out.append(grid_check("integral.modular_element_law", ops.keys, law,
                          lambda h: f"at {ops.label(h)}"))
    out.append(check("integral.modular_element_grouplike", is_grouplike_lc(ops, a)))
    out.append(check("integral.modular_element_inverse",
                     lc_eq(ops.mul_lc(a, a_inv), ops.unit)
                     and lc_eq(ops.mul_lc(a_inv, a), ops.unit)))

    def twist(m) -> bool:
        lhs = ops.eval_fn(lam, ops.s_power(ops.single(m), 2))
        rhs = ops.eval_fn(lam, ops.mul_many(a, ops.single(m), a_inv))
        return lhs == rhs

    out.append(grid_check("integral.s2_twist_law", ops.keys, twist,
                          lambda m: f"at {ops.label(m)}"))
    return out


def integral_exchange_checks(ops: BasisOps, lam, a_inv: LC) -> list[CheckResult]:
    """The two translation identities relating lambda, S and the modular element."""

    def with_antipode(pair) -> bool:
        h, l = pair
        lhs: LC = {}
        for c, l1, l2 in ops.delta(l):
            lv = ops.eval_fn(lam, ops.mul(h, l2))
            if lv:
                lhs[l1] = lhs.get(l1, ops.zero) + c * lv
        rhs: LC = {}
        for c, h1, h2 in ops.delta(h):
            lv = ops.eval_fn(lam, ops.mul(h2, l))
            if lv:
                rhs = lc_add(rhs, lc_scale(c * lv, ops.antipode(h1)))
        return lc_eq(lhs, rhs)

    def with_antipode_inv(pair) -> bool:
        h, l = pair
        lhs: LC = {}
        for c, l1, l2 in ops.delta(l):
            lv = ops.eval_fn(lam, ops.mul(h, l1))
            if lv:
                lhs[l2] = lhs.get(l2, ops.zero) + c * lv
        rhs: LC = {}
        for c, h1, h2 in ops.delta(h):
            lv = ops.eval_fn(lam, ops.mul(h1, l))
            if lv:
                term = ops.mul_lc(ops.antipode_inv(h2), a_inv)
                rhs = lc_add(rhs, lc_scale(c * lv, term))
        return lc_eq(lhs, rhs)

    pairs = _pairs(ops)
    return [
        grid_check("integral.exchange_antipode", pairs, with_antipode,
                   lambda p: f"at {_pair_label(ops, p)}"),
        grid_check("integral.exchange_antipode_inverse", pairs, with_antipode_inv,
                   lambda p: f"at {_pair_label(ops, p)}"),
    ]


def nakayama_checks(ops: BasisOps, lam, chi, alpha, alpha_inv) -> list[CheckResult]:
    """chi shifts lambda across products; alpha = eps(chi(-)) is a character."""
    out: list[CheckResult] = []

    def shift_law(pair) -> bool:
        m, h = pair
        lhs = ops.eval_fn(lam, ops.mul(m, h))
        rhs = ops.eval_fn(lam, ops.mul_lc(chi(h), ops.single(m)))
        return lhs == rhs

    pairs = _pairs(ops)
    out.append(grid_check("integral.nakayama_law", pairs, shift_law,
                          lambda p: f"at {_pair_label(ops, p)}"))
    out.append(grid_check(
        "integral.nakayama_multiplicative", pairs,
        lambda p: lc_eq(ops.map_lc(chi, ops.mul(p[0], p[1])),
                        ops.mul_lc(chi(p[0]), chi(p[1]))),
        lambda p: f"at {_pair_label(ops, p)}"))
    out.append(check("integral.nakayama_unital",
                     lc_eq(ops.map_lc(chi, ops.unit), ops.unit)))
    out.append(check("integral.modular_functional_character",
                     is_character_fn(ops, alpha)))
    out.extend(conv_inverse_checks(ops, "integral.modular_functional", alpha, alpha_inv))

    def from_pair(h) -> bool:
        rhs: LC = {}
        for c, h1, h2 in ops.delta(h):
            av = alpha(h2)
            if av:
                rhs = lc_add(rhs, lc_scale(c * av, ops.s_power(ops.single(h1), -2)))
        return lc_eq(chi(h), rhs)

    out.append(grid_check("integral.nakayama_from_modular_pair", ops.keys, from_pair,
                          lambda h: f"at {ops.label(h)}"))
    return out


def radford_s4_checks(ops: BasisOps, a: LC, a_inv: LC, alpha, alpha_inv) -> list[CheckResult]:
    """S^4 as conjugation by a composed with the alpha double-hit, three ways."""

    def hit_both(h) -> LC:
        first: LC = {}
        for c, h1, h2 in ops.delta(h):
            av = alpha(h2)
            if av:
                first[h1] = first.get(h1, ops.zero) + c * av
        second: LC = {}
        for k, v in first.items():
            for c, k1, k2 in ops.delta(k):
                av = alpha_inv(k1)
                if av:
                    second[k2] = second.get(k2, ops.zero) + v * c * av
        return ops.mul_many(a, second, a_inv)

    def expanded(h) -> LC:
        out: LC = {}
        for c, (h1, h2, h3) in ops.delta_n(h, 3):
            coef = c * alpha_inv(h1) * alpha(h3)
            if coef:
                out = lc_add(out, lc_scale(coef, ops.mul_many(a, ops.single(h2), a_inv)))
        return out

    s4 = lambda h: ops.s_power(ops.single(h), 4)
    return [
        grid_check("radford.s4_matches_hit_form", ops.keys,
                   lambda h: lc_eq(s4(h), hit_both(h)),
                   lambda h: f"at {ops.label(h)}"),
        grid_check("radford.s4_matches_expanded_form", ops.keys,
                   lambda h: lc_eq(s4(h), expanded(h)),
                   lambda h: f"at {ops.label(h)}"),
        grid_check("radford.inner_forms_agree", ops.keys,
                   lambda h: lc_eq(hit_both(h), expanded(h)),
                   lambda h: f"at {ops.label(h)}"),
    ]


# ---------------------------------------------------------------------------
# the twisted product formula for lambda and its extraction (both directions)


def _twisted_product_predicate(ops: BasisOps, lam, rho2, tau2):
    """Pair predicate for lambda(l h) = rho(h1, l1) lambda(h2 l2) tau(h3, l3).

    Delta^3 of each key is built once and grouped by its first leg, so rho
    is evaluated once per pair of first legs and a zero skips the whole
    block; lambda(x y) is cached per key pair.  The caches live in the
    returned closure only.
    """
    def grouped_delta3(k) -> dict:
        groups: dict = {}
        for c, (k1, k2, k3) in ops.delta_n(k, 3):
            groups.setdefault(k1, []).append((c, k2, k3))
        return groups

    delta3 = memo_fn(grouped_delta3)
    lam_mul = memo_fn(lambda pair: ops.eval_fn(lam, ops.mul(*pair)))

    def holds(pair) -> bool:
        h, l = pair
        rhs = ops.zero
        for h1, h_rest in delta3(h).items():
            for l1, l_rest in delta3(l).items():
                r = rho2(h1, l1)
                if not r:
                    continue
                for ch, h2, h3 in h_rest:
                    for cl, l2, l3 in l_rest:
                        t = tau2(h3, l3)
                        if t:
                            mid = lam_mul((h2, l2))
                            if mid:
                                rhs = rhs + ch * cl * r * mid * t
        return lam_mul((l, h)) == rhs

    return holds


def integral_twist_from_coinner(ops: BasisOps, lam, alpha, omega, omega_inv):
    """Build the pair functionals twisting lambda across products.

    omega must be convolution invertible and must realize S^-2 co-innerly:
    S^-2(h) = omega^-1(h1) h2 omega(h3).  Violations raise PreconditionError
    because the construction is meaningless without them.  On a braided
    carrier omega is u, the braided Drinfeld functional: u(h1) h2 u^-1(h3)
    = S^2(h) (cqt.s2_coinner_u) gives S^-2(h) = u^-1(h1) h2 u(h3).
    """
    left = ops.convolve(omega, omega_inv)
    right = ops.convolve(omega_inv, omega)
    for k in ops.keys:
        if left(k) != ops.eps(k) or right(k) != ops.eps(k):
            raise PreconditionError(f"omega is not convolution invertible at {ops.label(k)}")

    def coinner(h) -> LC:
        out: LC = {}
        for c, (h1, h2, h3) in ops.delta_n(h, 3):
            coef = c * omega_inv(h1) * omega(h3)
            if coef:
                out[h2] = out.get(h2, ops.zero) + coef
        return out

    for k in ops.keys:
        if not lc_eq(coinner(k), ops.s_power(ops.single(k), -2)):
            raise PreconditionError(
                f"omega does not realize S^-2 co-innerly at {ops.label(k)}")

    omega_alpha = memo_fn(ops.convolve(omega, alpha))
    omega_inv = memo_fn(omega_inv)
    # the product formula grid and the extraction evaluate each pair many times
    rho = memo_fn(lambda p: omega_inv(p[0]) * ops.eps(p[1]))
    tau = memo_fn(lambda p: omega_alpha(p[0]) * ops.eps(p[1]))
    rho2 = lambda x, y: rho((x, y))
    tau2 = lambda x, y: tau((x, y))

    checks = [
        check("coinner.omega_invertible", True),
        check("coinner.omega_implements_s_inverse_squared", True),
        grid_check("integral_twist.product_formula", _pairs(ops),
                   _twisted_product_predicate(ops, lam, rho2, tau2),
                   lambda p: f"at {_pair_label(ops, p)}"),
    ]
    return rho2, tau2, checks


def coinner_from_integral_twist(ops: BasisOps, lam, a_inv: LC, alpha_inv, rho2, tau2):
    """Recover a co-inner realization of S^-2 from a twisting pair.

    The pair is the one integral_twist_from_coinner builds, on a braided
    carrier from omega = u.  The twisted product formula is verified first
    and a PreconditionError names the offending pair when it fails; the
    returned functionals come with checks that they are convolution inverse
    to each other, stable under S^-2, and realize S^-2.
    """
    holds = _twisted_product_predicate(ops, lam, rho2, tau2)
    for pair in _pairs(ops):
        if not holds(pair):
            raise PreconditionError(
                f"twisted product formula fails at {_pair_label(ops, pair)}; "
                "extraction refused")

    def rho_prime_raw(h):
        acc = ops.zero
        for c, h1, h2 in ops.delta(h):
            for k, v in ops.antipode(h2).items():
                r = rho2(h1, k)
                if r:
                    acc = acc + c * v * r
        return acc

    def tau_prime_raw(h):
        acc = ops.zero
        for c, h1, h2 in ops.delta(h):
            arg = ops.mul_lc(ops.antipode_inv(h1), a_inv)
            for k, v in arg.items():
                t = tau2(h2, k)
                if t:
                    acc = acc + c * v * t
        return acc

    rho_prime = memo_fn(rho_prime_raw)
    tau_second = memo_fn(ops.convolve(memo_fn(tau_prime_raw), alpha_inv))

    def realizes(h) -> bool:
        out: LC = {}
        for c, (h1, h2, h3) in ops.delta_n(h, 3):
            coef = c * rho_prime(h1) * tau_second(h3)
            if coef:
                out[h2] = out.get(h2, ops.zero) + coef
        return lc_eq(out, ops.s_power(ops.single(h), -2))

    checks = list(conv_inverse_checks(ops, "coinner.extracted_pair", rho_prime, tau_second))
    ok, where = ops.fn_eq_on_grid(rho_prime, ops.compose_s_power(rho_prime, -2))
    checks.append(check("coinner.first_factor_s2_stable", ok,
                        None if ok else f"at {ops.label(where)}"))
    ok, where = ops.fn_eq_on_grid(tau_second, ops.compose_s_power(tau_second, -2))
    checks.append(check("coinner.second_factor_s2_stable", ok,
                        None if ok else f"at {ops.label(where)}"))
    checks.append(grid_check("coinner.extracted_implements_s_inverse_squared",
                             ops.keys, realizes, lambda h: f"at {ops.label(h)}"))
    return rho_prime, tau_second, checks


def twist_round_trip(c: Carrier, omega, omega_inv) -> list[CheckResult]:
    """The integral twist built from omega, then the co-inner pair extracted
    back from it; a refused precondition becomes one failed check."""
    out: list[CheckResult] = []
    try:
        rho2, tau2, twist = integral_twist_from_coinner(c.ops, c.lam, c.alpha, omega, omega_inv)
        out.extend(twist)
        out.extend(coinner_from_integral_twist(c.ops, c.lam, c.a_inv, c.alpha_inv,
                                               rho2, tau2)[2])
    except PreconditionError as exc:
        out.append(failed("integral_twist.preconditions", str(exc)))
    return out


# perfbench/spans.py traces these names too, so they stay bound to the
# generic functions; a call then opens two nested spans of one name, which
# the trace counts once.
integral_twist_from_coinner_findim = integral_twist_from_coinner
coinner_from_integral_twist_findim = coinner_from_integral_twist


# ---------------------------------------------------------------------------
# finite-dimensional pipeline: construction computes, the named checks verify


@dataclass
class CoFrobeniusData:
    """A chosen left integral and everything the identities derive from it,
    dense for the QT side and for reports, and as a Carrier for the checkers.
    pairing holds lambda(e_i e_j) at row i, column j."""

    algebra: FinHopfAlgebra
    lam: Functional
    a: Element
    a_inv: Element
    chi: Matrix
    alpha: Functional
    alpha_inv: Functional
    pairing: Matrix
    carrier: Carrier

    def chi_of(self, x: Element) -> Element:
        return Element(self.algebra, self.chi.apply(x.coeffs))


def left_integrals(algebra: FinHopfAlgebra) -> list[Functional]:
    """Basis of the space of left integrals on the algebra, normalized."""
    n = algebra.dim
    zero = algebra.field.zero
    rows = []
    for i in range(n):
        for r in range(n):
            row = [zero] * n
            for c, j, k in algebra.delta_basis(i):
                if j == r:
                    row[k] = row[k] + c
            row[i] = row[i] - algebra.unit_coeffs[r]
            rows.append(row)
    out = []
    for vec in nullspace(Matrix.from_rows(algebra.field, rows)):
        lead = next(v for v in vec if v)
        out.append(Functional(algebra, tuple(v / lead for v in vec)))
    return out


def _distinguished_pair(algebra: FinHopfAlgebra, lam: Functional) -> tuple[Element, Element]:
    """a^-1 read off lambda(h1) h2 = lambda(h) a^-1 at the first basis
    element where lambda is nonzero, and its inverse a."""
    pivot = next((i for i, v in enumerate(lam.values) if v), None)
    if pivot is None:
        raise AxiomError("integral is zero; no modular element")
    zero = algebra.field.zero
    coeffs = [zero] * algebra.dim
    for c, j, k in algebra.delta_basis(pivot):
        if lam.values[j]:
            coeffs[k] = coeffs[k] + c * lam.values[j] / lam.values[pivot]
    a_inv = Element(algebra, coeffs)
    return algebra.invert_element(a_inv), a_inv


def frobenius_chi(pairing: Matrix) -> Matrix:
    """Solve lambda(m h) = lambda(chi(h) m) for chi, one column per basis h."""
    try:
        return invert_matrix(pairing.transpose()) * pairing
    except SingularMatrixError:
        raise AxiomError("integral pairing is degenerate; no Nakayama map") from None


def modular_alpha(algebra: FinHopfAlgebra, chi: Matrix) -> Functional:
    """alpha = eps o chi."""
    eps = algebra.counit_functional
    return Functional(algebra, tuple(eps(Element(algebra, chi.col(j)))
                                     for j in range(algebra.dim)))


def cofrobenius_data(algebra: FinHopfAlgebra) -> CoFrobeniusData:
    integrals = left_integrals(algebra)
    if len(integrals) != 1:
        raise AxiomError(
            f"left integral space has dimension {len(integrals)}, expected 1")
    lam = integrals[0]
    ops = algebra.basis_ops()
    lam_fn = lam.as_fn()
    pairing = Matrix.from_rows(algebra.field, [[ops.eval_fn(lam_fn, ops.mul(i, j))
                                                for j in ops.keys] for i in ops.keys])
    a, a_inv = _distinguished_pair(algebra, lam)
    chi = frobenius_chi(pairing)
    alpha = modular_alpha(algebra, chi)
    alpha_inv = algebra.conv_inverse(alpha)
    chi_rows = chi.rows
    carrier = Carrier(ops, lam_fn, a.lc(), a_inv.lc(),
                      lambda j: {i: row[j] for i, row in enumerate(chi_rows) if row[j]},
                      alpha.as_fn(), alpha_inv.as_fn())
    return CoFrobeniusData(algebra, lam, a, a_inv, chi, alpha, alpha_inv, pairing, carrier)


def cofrobenius_checks(algebra: FinHopfAlgebra, data: CoFrobeniusData) -> list[CheckResult]:
    """The full integral-and-modular-data battery for one algebra: integral
    law, modular element, both exchange identities, pairing ranks, Nakayama
    map and the three forms of S^4."""
    c = data.carrier
    ops = c.ops
    out = [left_integral_law_check(ops, c.lam)]
    out.extend(modular_element_checks(ops, c.lam, c.a, c.a_inv))
    out.extend(integral_exchange_checks(ops, c.lam, c.a_inv))
    n = algebra.dim
    for side, p in (("left", data.pairing), ("right", data.pairing.transpose())):
        r = rank(p)
        out.append(check(f"integral.pairing_full_rank_{side}", r == n,
                         None if r == n else f"rank {r} of {n}"))
    out.extend(nakayama_checks(ops, c.lam, c.chi, c.alpha, c.alpha_inv))
    try:
        invert_matrix(data.chi)
        out.append(check("integral.nakayama_invertible", True))
    except SingularMatrixError:
        out.append(failed("integral.nakayama_invertible", "matrix is singular"))
    out.extend(radford_s4_checks(ops, c.a, c.a_inv, c.alpha, c.alpha_inv))
    return out


def check_s2_inner_witness(algebra: FinHopfAlgebra, data: CoFrobeniusData,
                           w: Element) -> list[CheckResult]:
    """An invertible w with S^2 = Inn_w links the Nakayama map to alpha.

    Verifies chi(w^-1) w = alpha(a^-1) 1 and chi(a^-1) a = alpha(a^-1) 1;
    the extra identity alpha(w^-1) = alpha(a^-1) only makes sense when
    eps(w) = 1 and is skipped otherwise.
    """
    out: list[CheckResult] = []
    try:
        w_inv = algebra.invert_element(w)
    except NotInvertibleError:
        out.append(failed("s2_witness.invertible", "w has no two-sided inverse"))
        return out
    out.append(check("s2_witness.invertible", True))

    bad = next((i for i in range(algebra.dim)
                if algebra.mul(algebra.antipode(algebra.antipode(
                    algebra.basis_element(i))), w)
                != algebra.mul(w, algebra.basis_element(i))), None)
    out.append(check("s2_witness.implements_s2", bad is None,
                     None if bad is None else f"at {algebra.labels[bad]}"))
    if bad is not None:
        return out

    scale = data.alpha(data.a_inv)
    target = scale * algebra.unit_element
    out.append(check("s2_witness.nakayama_product",
                     algebra.mul(data.chi_of(w_inv), w) == target))
    out.append(check("s2_witness.nakayama_modular_product",
                     algebra.mul(data.chi_of(data.a_inv), data.a) == target))
    eps_w = algebra.eps(w)
    if eps_w == algebra.field.one:
        out.append(check("s2_witness.modular_value_agreement",
                         data.alpha(w_inv) == scale))
    else:
        out.append(skipped("s2_witness.modular_value_agreement",
                           f"eps(w) = {algebra.format_scalar(eps_w)}, not 1"))
    return out
