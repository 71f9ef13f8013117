"""Braidings: bilinear forms on a Hopf algebra making it coquasitriangular.

A Braiding is a pair of evaluators on basis-key pairs.  Finite-dimensional
carriers wrap a dense matrix whose inverse comes from a convolution solve;
the built-in infinite family supplies closed forms.  Every theorem checker
below is written against the evaluator interface so both carriers share
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .hopf import FinHopfAlgebra, NotInvertibleError
from .linalg import Matrix, solve_linear
from .lincomb import (
    BasisOps,
    LC,
    _pair_label,
    _pairs,
    conv_inverse_checks,
    is_character_fn,
    lc_eq,
    memo_fn,
)
from .report import PASS, CheckResult, check, grid_check, skipped
from .scalars import Scalar

CQT_CONVENTIONS = (
    "braiding is multiplicative in the first argument and reversed in the second",
    "co-inner action of omega: h maps to omega(h1) h2 omega^-1(h3)",
)


@dataclass(frozen=True)
class Braiding:
    """Evaluators for sigma and its convolution inverse on basis-key pairs."""

    value: Callable
    inverse: Callable


def pair_eval(ops: BasisOps, fn, a: LC, b: LC) -> Scalar:
    acc = ops.zero
    for ka, va in a.items():
        for kb, vb in b.items():
            f = fn(ka, kb)
            if f:
                acc = acc + va * vb * f
    return acc


def braiding_axiom_checks(ops: BasisOps, br: Braiding) -> list[CheckResult]:
    """The four braiding axioms, the convolution-inverse laws, and (once
    everything passes) the antipode formulas for the inverse."""
    out: list[CheckResult] = []
    triples = [(h, l, m) for h in ops.keys for l in ops.keys for m in ops.keys]

    def mult_first(t) -> bool:
        h, l, m = t
        lhs = ops.zero
        for k, c in ops.mul(h, l).items():
            f = br.value(k, m)
            if f:
                lhs = lhs + c * f
        rhs = ops.zero
        for c, m1, m2 in ops.delta(m):
            f = br.value(h, m1) * br.value(l, m2)
            if f:
                rhs = rhs + c * f
        return lhs == rhs

    out.append(grid_check(
        "cqt.multiplicative_first_argument", triples, mult_first,
        lambda t: f"at ({ops.label(t[0])}, {ops.label(t[1])}, {ops.label(t[2])})"))

    def mult_second(t) -> bool:
        h, l, m = t
        lhs = ops.zero
        for k, c in ops.mul(l, m).items():
            f = br.value(h, k)
            if f:
                lhs = lhs + c * f
        rhs = ops.zero
        for c, h1, h2 in ops.delta(h):
            f = br.value(h1, m) * br.value(h2, l)
            if f:
                rhs = rhs + c * f
        return lhs == rhs

    out.append(grid_check(
        "cqt.multiplicative_second_argument", triples, mult_second,
        lambda t: f"at ({ops.label(t[0])}, {ops.label(t[1])}, {ops.label(t[2])})"))

    def unit_pairing(h) -> bool:
        right = pair_eval(ops, br.value, ops.single(h), ops.unit)
        left = pair_eval(ops, br.value, ops.unit, ops.single(h))
        e = ops.eps(h)
        return right == e and left == e

    out.append(grid_check("cqt.unit_pairing", ops.keys, unit_pairing,
                          lambda h: f"at {ops.label(h)}"))

    def commutation(p) -> bool:
        h, l = p
        lhs: LC = {}
        rhs: LC = {}
        for c1, h1, h2 in ops.delta(h):
            for c2, l1, l2 in ops.delta(l):
                c = c1 * c2
                f = br.value(h2, l2)
                if f:
                    for k, w in ops.mul(l1, h1).items():
                        lhs[k] = lhs.get(k, ops.zero) + c * f * w
                f = br.value(h1, l1)
                if f:
                    for k, w in ops.mul(h2, l2).items():
                        rhs[k] = rhs.get(k, ops.zero) + c * f * w
        return lc_eq(lhs, rhs)

    out.append(grid_check("cqt.commutation_relation", _pairs(ops), commutation,
                          lambda p: f"at {_pair_label(ops, p)}"))

    def conv_pair(first, second):
        def value(p) -> bool:
            h, l = p
            acc = ops.zero
            for c1, h1, h2 in ops.delta(h):
                for c2, l1, l2 in ops.delta(l):
                    f = first(h1, l1)
                    if not f:
                        continue
                    g = second(h2, l2)
                    if g:
                        acc = acc + c1 * c2 * f * g
            return acc == ops.eps(h) * ops.eps(l)

        return value

    out.append(grid_check("cqt.convolution_inverse_left", _pairs(ops),
                          conv_pair(br.value, br.inverse),
                          lambda p: f"at {_pair_label(ops, p)}"))
    out.append(grid_check("cqt.convolution_inverse_right", _pairs(ops),
                          conv_pair(br.inverse, br.value),
                          lambda p: f"at {_pair_label(ops, p)}"))

    if all(c.status == PASS for c in out):
        out.append(grid_check(
            "cqt.inverse_is_antipode_first_argument", _pairs(ops),
            lambda p: br.inverse(p[0], p[1])
            == pair_eval(ops, br.value, ops.s_lc(ops.single(p[0])), ops.single(p[1])),
            lambda p: f"at {_pair_label(ops, p)}"))
        out.append(grid_check(
            "cqt.inverse_is_antipode_inv_second_argument", _pairs(ops),
            lambda p: br.inverse(p[0], p[1])
            == pair_eval(ops, br.value, ops.single(p[0]), ops.s_inv_lc(ops.single(p[1]))),
            lambda p: f"at {_pair_label(ops, p)}"))
        out.append(grid_check(
            "cqt.antipode_square_invariance", _pairs(ops),
            lambda p: br.value(p[0], p[1])
            == pair_eval(ops, br.value, ops.s_lc(ops.single(p[0])),
                         ops.s_lc(ops.single(p[1]))),
            lambda p: f"at {_pair_label(ops, p)}"))
    return out


def braided_functionals(ops: BasisOps, br: Braiding) -> tuple[dict, list[CheckResult]]:
    """u(h) = sigma(h2, S(h1)) and its three companions, with the convolution
    inverse laws and the co-inner realization of S^2."""

    def u_raw(h):
        acc = ops.zero
        for c, h1, h2 in ops.delta(h):
            for a, va in ops.antipode(h1).items():
                f = br.value(h2, a)
                if f:
                    acc = acc + c * va * f
        return acc

    def u_inv_raw(h):
        acc = ops.zero
        for c, h1, h2 in ops.delta(h):
            for a, va in ops.s_power(ops.single(h2), 2).items():
                f = br.value(a, h1)
                if f:
                    acc = acc + c * va * f
        return acc

    def v_raw(h):
        acc = ops.zero
        for c, h1, h2 in ops.delta(h):
            for a, va in ops.antipode(h2).items():
                f = br.value(h1, a)
                if f:
                    acc = acc + c * va * f
        return acc

    def v_inv_raw(h):
        acc = ops.zero
        for c, h1, h2 in ops.delta(h):
            for a, va in ops.s_power(ops.single(h1), 2).items():
                f = br.value(a, h2)
                if f:
                    acc = acc + c * va * f
        return acc

    fns = {
        "u": memo_fn(u_raw),
        "u_inv": memo_fn(u_inv_raw),
        "v": memo_fn(v_raw),
        "v_inv": memo_fn(v_inv_raw),
    }
    out: list[CheckResult] = []
    out.extend(conv_inverse_checks(ops, "cqt.u", fns["u"], fns["u_inv"]))
    out.extend(conv_inverse_checks(ops, "cqt.v", fns["v"], fns["v_inv"]))

    eq, where = ops.fn_eq_on_grid(fns["v"], ops.compose_s_power(fns["u"], 1))
    out.append(check("cqt.v_is_u_after_antipode", eq,
                     None if eq else f"at {ops.label(where)}"))

    def coinner(first, last):
        def holds(h) -> bool:
            got: LC = {}
            for coef, (h1, h2, h3) in ops.delta_n(h, 3):
                f = first(h1)
                if not f:
                    continue
                g = last(h3)
                if g:
                    got[h2] = got.get(h2, ops.zero) + coef * f * g
            return lc_eq(got, ops.s_power(ops.single(h), 2))

        return holds

    out.append(grid_check("cqt.s2_coinner_u", ops.keys,
                          coinner(fns["u"], fns["u_inv"]),
                          lambda h: f"at {ops.label(h)}"))
    out.append(grid_check("cqt.s2_coinner_v", ops.keys,
                          coinner(fns["v_inv"], fns["v"]),
                          lambda h: f"at {ops.label(h)}"))

    eq, where = ops.fn_eq_on_grid(ops.convolve(fns["u"], fns["v_inv"]),
                                  ops.convolve(fns["v_inv"], fns["u"]))
    out.append(check("cqt.u_v_inverse_commute", eq,
                     None if eq else f"at {ops.label(where)}"))
    return fns, out


def modular_characters(ops: BasisOps, br: Braiding, a_lc: LC, a_inv_lc: LC):
    """alpha_a = sigma(-, a^-1) and beta_a = sigma(a, -)."""

    def alpha_a(h):
        acc = ops.zero
        for j, c in a_inv_lc.items():
            f = br.value(h, j)
            if f:
                acc = acc + c * f
        return acc

    def beta_a(h):
        acc = ops.zero
        for j, c in a_lc.items():
            f = br.value(j, h)
            if f:
                acc = acc + c * f
        return acc

    return memo_fn(alpha_a), memo_fn(beta_a)


def modular_convolution_checks(ops: BasisOps, br: Braiding, fns: dict,
                               alpha, a_lc: LC, a_inv_lc: LC) -> list[CheckResult]:
    """u^-1 * v = v * u^-1 = alpha * beta_a = alpha * alpha_a, valuewise."""
    alpha_a, beta_a = modular_characters(ops, br, a_lc, a_inv_lc)
    base = ops.convolve(fns["u_inv"], fns["v"])
    others = [
        ("braided_modular.u_inv_v_eq_v_u_inv", ops.convolve(fns["v"], fns["u_inv"])),
        ("braided_modular.u_inv_v_eq_alpha_conv_beta_a", ops.convolve(alpha, beta_a)),
        ("braided_modular.u_inv_v_eq_alpha_conv_alpha_a", ops.convolve(alpha, alpha_a)),
    ]
    out: list[CheckResult] = []
    for name, fn in others:
        eq, where = ops.fn_eq_on_grid(base, fn)
        out.append(check(name, eq, None if eq else f"at {ops.label(where)}"))
    return out


def braided_modular_corollary_checks(ops: BasisOps, br: Braiding, fns: dict,
                                     alpha, alpha_inv, a_lc: LC,
                                     a_inv_lc: LC) -> list[CheckResult]:
    """alpha_a = beta_a always; the unimodular simplification when a = 1;
    and u fixed by S exactly when alpha_a inverts alpha."""
    alpha_a, beta_a = modular_characters(ops, br, a_lc, a_inv_lc)
    out: list[CheckResult] = []

    eq, where = ops.fn_eq_on_grid(alpha_a, beta_a)
    out.append(check("braided_modular.alpha_a_eq_beta_a", eq,
                     None if eq else f"at {ops.label(where)}"))

    if lc_eq(a_lc, ops.unit):
        eq, where = ops.fn_eq_on_grid(ops.convolve(fns["u_inv"], fns["v"]), alpha)
        out.append(check("braided_modular.unimodular_u_inv_v_eq_alpha", eq,
                         None if eq else f"at {ops.label(where)}"))
    else:
        out.append(skipped("braided_modular.unimodular_u_inv_v_eq_alpha",
                           "modular element is not the unit"))

    left = ops.fn_eq_on_grid(ops.compose_s_power(fns["u"], 1), fns["u"])[0]
    right = ops.fn_eq_on_grid(alpha_a, alpha_inv)[0]
    out.append(check(
        "braided_modular.u_antipode_fixed_iff_alpha_a_inverse", left == right,
        f"u o S = u is {str(left).lower()}, alpha_a = alpha^-1 is {str(right).lower()}"))
    return out


def grouplike_witness_checks(ops: BasisOps, br: Braiding, g_lc: LC, g_inv_lc: LC,
                             name: str = "g") -> tuple[tuple, list[CheckResult]]:
    """alpha_g, beta_g, and the four sigma contractions that conjugate by g.

    Each witness omega satisfies omega(h1) h2 omega^-1(h3) = g h g^-1; the
    convolution inverses are the displayed closed forms, and the witness
    value set matches {alpha_g, beta_g}.
    """

    def against_second(fn, lc):
        def f(h):
            acc = ops.zero
            for j, c in lc.items():
                w = fn(h, j)
                if w:
                    acc = acc + c * w
            return acc
        return memo_fn(f)

    def against_first(fn, lc):
        def f(h):
            acc = ops.zero
            for j, c in lc.items():
                w = fn(j, h)
                if w:
                    acc = acc + c * w
            return acc
        return memo_fn(f)

    alpha_g = against_second(br.value, g_inv_lc)
    beta_g = against_first(br.value, g_lc)
    out: list[CheckResult] = []
    out.append(check(f"cqt.grouplike_characters[{name}]",
                     is_character_fn(ops, alpha_g) and is_character_fn(ops, beta_g)))

    witnesses = [
        (against_second(br.value, g_lc), against_second(br.inverse, g_lc)),
        (against_first(br.inverse, g_lc), against_first(br.value, g_lc)),
        (against_first(br.value, g_inv_lc), against_first(br.inverse, g_inv_lc)),
        (against_second(br.inverse, g_inv_lc), against_second(br.value, g_inv_lc)),
    ]
    conjugated = {h: ops.mul_many(g_lc, ops.single(h), g_inv_lc) for h in ops.keys}
    for idx, (w, w_inv) in enumerate(witnesses, start=1):
        for result in conv_inverse_checks(ops, f"cqt.witness[{name}:{idx}]", w, w_inv):
            out.append(result)

        def holds(h, w=w, w_inv=w_inv) -> bool:
            got: LC = {}
            for coef, (h1, h2, h3) in ops.delta_n(h, 3):
                f = w(h1)
                if not f:
                    continue
                g = w_inv(h3)
                if g:
                    got[h2] = got.get(h2, ops.zero) + coef * f * g
            return lc_eq(got, conjugated[h])

        out.append(grid_check(f"cqt.witness_conjugates[{name}:{idx}]", ops.keys,
                              holds, lambda h: f"at {ops.label(h)}"))

    got = {tuple(w(h) for h in ops.keys) for w, _ in witnesses}
    expected = {tuple(alpha_g(h) for h in ops.keys),
                tuple(beta_g(h) for h in ops.keys)}
    out.append(check(f"cqt.witness_set_matches[{name}]", got == expected,
                     None if got == expected else f"{len(got)} distinct witness values"))
    return (alpha_g, beta_g), out


def grouplike_homomorphism_checks(ops: BasisOps, br: Braiding,
                                  grouplikes: dict) -> list[CheckResult]:
    """g -> alpha_g and g -> beta_g turn products into convolutions.

    grouplikes maps a display name to a pair (g_lc, g_inv_lc).
    """
    names = sorted(grouplikes)
    pairs = [(x, y) for x in names for y in names]
    cache = {n: modular_characters(ops, br, *grouplikes[n]) for n in names}

    def product_pair(x, y):
        gx, gx_inv = grouplikes[x]
        gy, gy_inv = grouplikes[y]
        prod = ops.mul_lc(gx, gy)
        prod_inv = ops.mul_lc(gy_inv, gx_inv)
        return modular_characters(ops, br, prod, prod_inv)

    def alpha_hom(p) -> bool:
        x, y = p
        lhs = product_pair(x, y)[0]
        rhs = ops.convolve(cache[x][0], cache[y][0])
        return ops.fn_eq_on_grid(lhs, rhs)[0]

    def beta_hom(p) -> bool:
        x, y = p
        lhs = product_pair(x, y)[1]
        rhs = ops.convolve(cache[x][1], cache[y][1])
        return ops.fn_eq_on_grid(lhs, rhs)[0]

    return [
        grid_check("cqt.grouplike_map_multiplicative_alpha", pairs, alpha_hom,
                   lambda p: f"at ({p[0]}, {p[1]})"),
        grid_check("cqt.grouplike_map_multiplicative_beta", pairs, beta_hom,
                   lambda p: f"at ({p[0]}, {p[1]})"),
    ]


def flip_braiding(br: Braiding) -> Braiding:
    """sigma-tilde(x, y) = sigma^-1(y, x), again a braiding."""
    return Braiding(value=lambda x, y: br.inverse(y, x),
                    inverse=lambda x, y: br.value(y, x))


def flip_braiding_checks(ops: BasisOps, br: Braiding, fns: dict, a_lc: LC,
                         a_inv_lc: LC) -> tuple[Braiding, list[CheckResult]]:
    """The flipped braiding passes every axiom; its functionals swap with the
    originals (u~ = v^-1, v~ = u^-1, alpha~_a = beta_a, beta~_a = alpha_a);
    flipping twice restores the original values."""
    flipped = flip_braiding(br)
    out: list[CheckResult] = []
    for result in braiding_axiom_checks(ops, flipped):
        out.append(CheckResult(f"flip_braiding.{result.name}", result.status,
                               result.witness))
    flip_fns, fn_checks = braided_functionals(ops, flipped)
    for result in fn_checks:
        out.append(CheckResult(f"flip_braiding.{result.name}", result.status,
                               result.witness))

    swaps = [
        ("flip_braiding.u_swaps_to_v_inverse", flip_fns["u"], fns["v_inv"]),
        ("flip_braiding.v_swaps_to_u_inverse", flip_fns["v"], fns["u_inv"]),
    ]
    for name, lhs, rhs in swaps:
        eq, where = ops.fn_eq_on_grid(lhs, rhs)
        out.append(check(name, eq, None if eq else f"at {ops.label(where)}"))

    alpha_a, beta_a = modular_characters(ops, br, a_lc, a_inv_lc)
    alpha_a_t, beta_a_t = modular_characters(ops, flipped, a_lc, a_inv_lc)
    eq, where = ops.fn_eq_on_grid(alpha_a_t, beta_a)
    out.append(check("flip_braiding.alpha_a_swaps_to_beta_a", eq,
                     None if eq else f"at {ops.label(where)}"))
    eq, where = ops.fn_eq_on_grid(beta_a_t, alpha_a)
    out.append(check("flip_braiding.beta_a_swaps_to_alpha_a", eq,
                     None if eq else f"at {ops.label(where)}"))

    twice = flip_braiding(flipped)
    out.append(grid_check(
        "flip_braiding.involution", _pairs(ops),
        lambda p: twice.value(p[0], p[1]) == br.value(p[0], p[1])
        and twice.inverse(p[0], p[1]) == br.inverse(p[0], p[1]),
        lambda p: f"at {_pair_label(ops, p)}"))
    return flipped, out


# perfbench/spans.py traces these names too, so they stay bound to the
# generic functions; a call then opens two nested spans of one name, which
# the trace counts once.
cqt_functionals = braided_functionals
flip_inverse_braiding = flip_braiding_checks


# -- finite-dimensional carriers ------------------------------------------------


def braiding_from_matrix(algebra: FinHopfAlgebra, rows) -> tuple[Braiding, Matrix]:
    """Wrap a dense value matrix; the inverse comes from a convolution solve
    over the tensor square, verified two-sided."""
    n = algebra.dim
    field = algebra.field
    zero = field.zero
    value = Matrix.from_rows(field, rows)
    if value.nrows != n or value.ncols != n:
        raise ValueError(f"braiding matrix must be {n}-by-{n}")

    eqs = []
    rhs = []
    for i in range(n):
        di = algebra.delta_basis(i)
        for j in range(n):
            row = [zero] * (n * n)
            for c1, a, k in di:
                for c2, b, l in algebra.delta_basis(j):
                    s = value.rows[a][b]
                    if s:
                        row[k * n + l] = row[k * n + l] + c1 * c2 * s
            eqs.append(row)
            rhs.append(algebra.eps_basis(i) * algebra.eps_basis(j))
    sol = solve_linear(Matrix.from_rows(field, eqs), tuple(rhs))
    if sol is None:
        raise NotInvertibleError("braiding has no convolution inverse")
    inv = Matrix.from_rows(field, [[sol.particular[k * n + l] for l in range(n)]
                                   for k in range(n)])

    for i in range(n):
        for j in range(n):
            acc = zero
            for c1, a, k in algebra.delta_basis(i):
                for c2, b, l in algebra.delta_basis(j):
                    s = inv.rows[a][b]
                    if s:
                        acc = acc + c1 * c2 * s * value.rows[k][l]
            if acc != algebra.eps_basis(i) * algebra.eps_basis(j):
                raise NotInvertibleError("braiding inverse is one-sided only")

    br = Braiding(value=lambda x, y: value.rows[x][y],
                  inverse=lambda x, y: inv.rows[x][y])
    return br, inv


def dualize_qt(algebra: FinHopfAlgebra, r) -> tuple[FinHopfAlgebra, Braiding, list[CheckResult]]:
    """The dual Hopf algebra with sigma(f, g) = (f x g)(R).

    The convolution-solved inverse must agree with the coefficient matrix of
    R^-1, and the braided functionals must evaluate the Drinfeld elements:
    u(f) = f(u), and v(f) = sigma(f1, S f2) = f(R^1 S(R^2)) = f(S(u)), which is
    f(v^-1) since the QT side defines v = S(u)^-1.
    """
    from .quasitriangular import drinfeld_elements

    dual = algebra.dual()
    br, inv = braiding_from_matrix(dual, r.tensor.rows)
    out = [check("cqt.inverse_two_paths_agree",
                 tuple(inv.rows) == tuple(tuple(row) for row in r.inverse.rows))]

    qt, _ = drinfeld_elements(algebra, r)
    ops = dual.basis_ops()
    fns, fn_checks = braided_functionals(ops, br)
    out.append(grid_check(
        "cqt.dual_bridge_u", ops.keys,
        lambda i: fns["u"](i) == qt.u.coeffs[i],
        lambda i: f"at {dual.labels[i]}"))
    out.append(grid_check(
        "cqt.dual_bridge_v", ops.keys,
        lambda i: fns["v"](i) == qt.v_inv.coeffs[i],
        lambda i: f"at {dual.labels[i]}"))
    return dual, br, out
