"""Braidings: bilinear forms on a Hopf algebra making it coquasitriangular.

A Braiding holds evaluators of sigma and its convolution inverse on
basis-key pairs and their one cache, which every checker below reads (the
flip's evaluators included), so each pair is evaluated once per braiding.
Finite-dimensional carriers wrap n-by-n value rows, whose convolution
inverse is an inverse in the tensor square of the dual (Tensor2.invert);
the built-in infinite family supplies closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import ne
from typing import Callable

from . import lincomb
from .cofrobenius import Carrier, twist_round_trip
from .hopf import FinHopfAlgebra, NotInvertibleError, Tensor2
from .lincomb import (
    BasisOps,
    KeyTable,
    LC,
    PairTable,
    braiding_generators,
    by_key,
    coinner_law,
    combine,
    conjugates,
    conv_inverse_checks,
    first_gap,
    first_in,
    group,
    is_character_fn,
    key_check,
    lc_eq,
    memo_fn,
    nonzero,
    pair_check,
    triple_grid_check,
)
from .quasitriangular import QTData, RMatrix
from .report import PASS, CheckResult, check, flag, grid_check, skipped

CQT_CONVENTIONS = (
    "braiding is multiplicative in the first argument and reversed in the second",
    "co-inner action of omega: h maps to omega(h1) h2 omega^-1(h3)",
)


@dataclass(frozen=True)
class Braiding:
    """sigma and its convolution inverse on ops' key pairs as raw evaluators,
    and their one cache: the PairTables sigma and sigma_inv, and functionals,
    the braided functionals with their checks.  A dataclasses.replace'd copy
    builds its own."""

    ops: BasisOps
    value: Callable
    inverse: Callable

    sigma = cached_property(lambda self: PairTable(self.value))
    sigma_inv = cached_property(lambda self: PairTable(self.inverse))
    functionals = cached_property(lambda self: braided_functionals(self.ops, self))


def braiding_axiom_checks(ops: BasisOps, br: Braiding) -> list[CheckResult]:
    """The four braiding axioms, the convolution-inverse laws, and the
    antipode formulas for the inverse, which are SKIPs unless everything
    before them passes.  Every grid reads br's tables and ops.tables; the
    two over key triples run the generator rows first when
    braiding_generators establishes their premises, and two pair laws do
    once sigma's first law passes on an S proof (lincomb)."""
    out: list[CheckResult] = []
    sig, sig_inv, tables = br.sigma, br.sigma_inv, ops.tables
    prod, delta, eps, reduce = tables.prod, tables.delta, tables.eps, ops.field.reduce
    gens = braiding_generators(ops)

    differs = lambda a, b: reduce(a - b)
    # the coproduct terms (c, m, m2) of the columns, by first leg m1
    legs = group((m1, (c, m, m2)) for m in ops.keys for c, m1, m2 in delta[m])
    # sigma's rows are indexed over the legs and the column products, not over
    # the keys: on a Laurent window both leave it
    second_legs = dict.fromkeys(m2 for terms in legs.values() for _, _, m2 in terms)
    products = dict.fromkeys(k for l in ops.keys for lm in tables.line[l] for k, _ in lm)

    cols, firsts, seconds = nonzero(sig, ops.keys), nonzero(sig, legs), nonzero(sig, second_legs)

    def mult_first(h, l, ms):
        """sigma(h l, m) = sigma(h, m1) sigma(l, m2), each side {m: value}."""
        left, right, sig_l = combine(prod[h][l], cols), {}, seconds[l]
        if sig_l:  # else sigma(l, m2) = 0 on every second leg
            for m1, a in firsts[h].items():
                for c, m, m2 in legs[m1]:
                    b = sig_l.get(m2)
                    if b:
                        right[m] = right.get(m, 0) + c * a * b
        return first_gap(left, right, ms, differs)

    out.append(triple_grid_check("cqt.multiplicative_first_argument", ops, mult_first, gens))
    # sigma(h k, m) = sigma(h, m1) sigma(k, m2) closes two pair laws below under h -> s h
    pair_gens = tables.proof if out[0].status == PASS else None

    # sigma(h, -) over the column products, and the items (m, c) of each l m
    # by product key, kept where some sigma(h, -) is nonzero
    prods = nonzero(sig, products)
    live = set().union(*map(prods.__getitem__, ops.keys))
    by_product = KeyTable(lambda l: group((k, (m, c)) for m, lm in zip(ops.keys, tables.line[l])
                                          for k, c in lm if k in live))

    def mult_second(h, l, ms):
        """sigma(h, l m) = sigma(h1, m) sigma(h2, l), each side {m: value}; the
        left one is zero when sigma(h, -) is zero on every column product."""
        left, sig_h = {}, prods[h]
        if sig_h:
            for k, terms in by_product[l].items():
                f = sig_h.get(k)
                if f:
                    for m, c in terms:
                        left[m] = left.get(m, 0) + c * f
        terms = [(h1, w) for c, h1, h2 in delta[h] if (w := c * sig[h2][l])]
        return first_gap(left, combine(terms, cols), ms, differs)

    out.append(triple_grid_check("cqt.multiplicative_second_argument", ops, mult_second,
                                 gens, second=True))

    def unit_pairing(h) -> bool:
        """sigma(h, 1) = eps(h) = sigma(1, h)."""
        e = eps[h]
        return not (reduce(sum(c * sig[h][u] for u, c in tables.unit) - e)
                    or reduce(sum(c * sig[u][h] for u, c in tables.unit) - e))

    out.append(key_check("cqt.unit_pairing", ops, unit_pairing))

    by_second = group((m2, (c, m, m1)) for m in ops.keys for c, m1, m2 in delta[m])

    def commutation(h, ls):
        """l1 h1 sigma(h2, l2) = sigma(h1, l1) h2 l2, as one row {l: raw lhs -
        rhs} from the nonzero sigma(h2, -) and sigma(h1, -) over the legs."""
        row: dict = {}
        for c1, h1, h2 in delta[h]:
            for l2, f in seconds[h2].items():
                for c2, l, l1 in by_second[l2]:
                    diff, c = row.setdefault(l, {}), c1 * c2 * f
                    for k, w in prod[l1][h1]:
                        diff[k] = diff.get(k, 0) + c * w
            for l1, f in firsts[h1].items():
                for c2, l, l2 in legs[l1]:
                    diff, c = row.setdefault(l, {}), c1 * c2 * f
                    for k, w in prod[h2][l2]:
                        diff[k] = diff.get(k, 0) - c * w
        return first_in({l for l, d in row.items() if any(map(reduce, d.values()))}, ls)

    out.append(pair_check("cqt.commutation_relation", ops, commutation, pair_gens))

    eps_row = {l: e for l in ops.keys if (e := eps[l])}

    def conv_pair(firsts, seconds):
        """first(h1, l1) second(h2, l2) = eps(h) eps(l), as one row {l: raw
        sum} from the nonzero first(h1, -) and second(h2, -) over the legs."""
        def first_failure(h, ls):
            row, e = {}, eps[h]
            for c1, h1, h2 in delta[h]:
                second = seconds[h2]
                if second:
                    for l1, f in firsts[h1].items():
                        for c2, l, l2 in legs[l1]:
                            g = second.get(l2)
                            if g:
                                row[l] = row.get(l, 0) + c1 * c2 * f * g
            return first_gap(row, {l: e * v for l, v in eps_row.items()} if e else {}, ls,
                             differs)

        return first_failure

    out.append(pair_check("cqt.convolution_inverse_left", ops,
                          conv_pair(firsts, nonzero(sig_inv, second_legs))))
    out.append(pair_check("cqt.convolution_inverse_right", ops,
                          conv_pair(nonzero(sig_inv, legs), seconds)))

    names = ("cqt.inverse_is_antipode_first_argument",
             "cqt.inverse_is_antipode_inv_second_argument", "cqt.antipode_square_invariance")
    if not all(c.status == PASS for c in out):
        return out + [skipped(name, "a braiding axiom above fails") for name in names]
    # the columns l in which each key k of S(l) or S^-1(l) occurs, sigma(h, -)
    # over those keys, and sigma(k, S -) over the columns
    s_cols, s_inv_cols = by_key(ops.keys, tables.s), by_key(ops.keys, tables.s_inv)
    s_sig, s_inv_sig, inv_cols = nonzero(sig, s_cols), nonzero(sig, s_inv_cols), nonzero(
        sig_inv, ops.keys)
    sig_s = KeyTable(lambda k: combine(tuple(s_sig[k].items()), s_cols))
    laws = (  # each formula as a row kernel of (its left side) - (its right side)
        # sigma^-1(h, l) = sigma(S h, l)
        lambda h, ls: first_gap(inv_cols[h], combine(tables.s[h], cols), ls, differs),
        # sigma^-1(h, l) = sigma(h, S^-1 l)
        lambda h, ls: first_gap(inv_cols[h], combine(tuple(s_inv_sig[h].items()), s_inv_cols),
                                ls, differs),
        # sigma(h, l) = sigma(S h, S l); sigma(S(s h), S l) = sigma(S h, S l2) sigma(S s, S l1)
        lambda h, ls: first_gap(cols[h], combine(tables.s[h], sig_s), ls, differs))
    return out + [pair_check(name, ops, law, rows)
                  for name, law, rows in zip(names, laws, (None, None, pair_gens))]


def braided_functionals(ops: BasisOps, br: Braiding) -> tuple[dict, list[CheckResult]]:
    """u(h) = sigma(h2, S(h1)) and its three companions, with the convolution
    inverse laws and the co-inner realization of S^2 (br.functionals)."""
    sigma = br.sigma

    delta, s_pow, reduce = ops.tables.delta, ops.tables.s_pow, ops.field.reduce

    def over_delta(x_power, y_power, flip=False):
        """h -> sum of c sigma(S^x_power(x), S^y_power(y)) over Delta(h), with
        (x, y) = (h1, h2), or (h2, h1) when flip: sigma rows against S-power rows."""
        xs, ys = s_pow[x_power], s_pow[y_power]

        def fn(h):
            acc = 0
            for c, h1, h2 in delta[h]:
                x, y = (h2, h1) if flip else (h1, h2)
                for kx, dx in xs[x]:
                    row = sigma[kx]
                    acc += c * dx * sum(dy * row[ky] for ky, dy in ys[y])
            return reduce(acc)
        return memo_fn(fn)

    fns = {"u": over_delta(0, 1, flip=True), "u_inv": over_delta(2, 0, flip=True),
           "v": over_delta(0, 1), "v_inv": over_delta(2, 0)}
    out: list[CheckResult] = []
    out.extend(conv_inverse_checks(ops, "cqt.u", fns["u"], fns["u_inv"]))
    out.extend(conv_inverse_checks(ops, "cqt.v", fns["v"], fns["v_inv"]))

    u_s = ops.compose_s_power(fns["u"], 1)
    out.append(key_check("cqt.v_is_u_after_antipode", ops, lambda h: fns["v"](h) == u_s(h)))

    out.append(key_check("cqt.s2_coinner_u", ops, coinner_law(ops, 2, fns["u"], fns["u_inv"])))
    out.append(key_check("cqt.s2_coinner_v", ops, coinner_law(ops, 2, fns["v_inv"], fns["v"])))

    u_v_inv = ops.convolve(fns["u"], fns["v_inv"])
    v_inv_u = ops.convolve(fns["v_inv"], fns["u"])
    out.append(key_check("cqt.u_v_inverse_commute", ops, lambda h: u_v_inv(h) == v_inv_u(h)))
    return fns, out


def contract_second(ops: BasisOps, table: PairTable, lc: LC):
    """h -> table(h, lc), memoized."""
    items, reduce = tuple(lc.items()), ops.field.reduce
    return memo_fn(lambda h: reduce(sum(v * table[h][k] for k, v in items)))


def contract_first(ops: BasisOps, table: PairTable, lc: LC):
    """h -> table(lc, h), memoized."""
    items, reduce = tuple(lc.items()), ops.field.reduce
    return memo_fn(lambda h: reduce(sum(v * table[k][h] for k, v in items)))


def modular_characters(ops: BasisOps, br: Braiding, a_lc: LC, a_inv_lc: LC):
    """alpha_a = sigma(-, a^-1) and beta_a = sigma(a, -)."""
    return contract_second(ops, br.sigma, a_inv_lc), contract_first(ops, br.sigma, a_lc)


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
    return [key_check(name, ops, lambda h, fn=fn: base(h) == fn(h)) for name, fn in others]


def braided_modular_corollary_checks(ops: BasisOps, br: Braiding, fns: dict,
                                     alpha, alpha_inv, a_lc: LC,
                                     a_inv_lc: LC) -> list[CheckResult]:
    """alpha_a = beta_a always; the unimodular simplification when a = 1;
    and u fixed by S exactly when alpha_a inverts alpha."""
    alpha_a, beta_a = modular_characters(ops, br, a_lc, a_inv_lc)
    out: list[CheckResult] = []

    out.append(key_check("braided_modular.alpha_a_eq_beta_a", ops,
                         lambda h: alpha_a(h) == beta_a(h)))

    if lc_eq(a_lc, ops.unit):
        u_inv_v = ops.convolve(fns["u_inv"], fns["v"])
        out.append(key_check("braided_modular.unimodular_u_inv_v_eq_alpha", ops,
                             lambda h: u_inv_v(h) == alpha(h)))
    else:
        out.append(skipped("braided_modular.unimodular_u_inv_v_eq_alpha",
                           "modular element is not the unit"))

    u_s = ops.compose_s_power(fns["u"], 1)
    left = all(u_s(h) == fns["u"](h) for h in ops.keys)
    right = all(alpha_a(h) == alpha_inv(h) for h in ops.keys)
    out.append(check(
        "braided_modular.u_antipode_fixed_iff_alpha_a_inverse", left == right,
        f"u o S = u is {flag(left)}, alpha_a = alpha^-1 is {flag(right)}"))
    return out


def grouplike_witness_checks(ops: BasisOps, br: Braiding, g_lc: LC, g_inv_lc: LC,
                             name: str = "g") -> tuple[tuple, list[CheckResult]]:
    """alpha_g, beta_g, and the four sigma contractions that conjugate by g.

    Each witness omega satisfies omega(h1) h2 omega^-1(h3) = g h g^-1; the
    convolution inverses are the displayed closed forms, and the witness
    value set matches {alpha_g, beta_g}.  The two character checks are
    decided on the rows of ops' S proof, when there is one.
    """
    alpha_g, beta_g = modular_characters(ops, br, g_lc, g_inv_lc)
    out: list[CheckResult] = []
    out.append(check(f"cqt.grouplike_characters[{name}]",
                     is_character_fn(ops, alpha_g, on_proof=True)
                     and is_character_fn(ops, beta_g, on_proof=True)))

    val, inv = br.sigma, br.sigma_inv
    witnesses = [
        (contract_second(ops, val, g_lc), contract_second(ops, inv, g_lc)),
        (contract_first(ops, inv, g_lc), contract_first(ops, val, g_lc)),
        (contract_first(ops, val, g_inv_lc), contract_first(ops, inv, g_inv_lc)),
        (contract_second(ops, inv, g_inv_lc), contract_second(ops, val, g_inv_lc)),
    ]
    conjugated = conjugates(ops, g_lc, g_inv_lc)
    for idx, (w, w_inv) in enumerate(witnesses, start=1):
        out.extend(conv_inverse_checks(ops, f"cqt.witness[{name}:{idx}]", w, w_inv))
        out.append(key_check(
            f"cqt.witness_conjugates[{name}:{idx}]", ops,
            lambda h, w=w, w_inv=w_inv: lc_eq(ops.coinner(w, w_inv, h), conjugated[h])))

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

    def image_of_product(p, leg: int) -> bool:
        x, y = p
        lhs = product_pair(x, y)[leg]
        rhs = ops.convolve(cache[x][leg], cache[y][leg])
        return all(lhs(h) == rhs(h) for h in ops.keys)

    return [
        grid_check("cqt.grouplike_map_multiplicative_alpha", pairs,
                   lambda p: image_of_product(p, 0), lambda p: f"at ({p[0]}, {p[1]})"),
        grid_check("cqt.grouplike_map_multiplicative_beta", pairs,
                   lambda p: image_of_product(p, 1), lambda p: f"at ({p[0]}, {p[1]})"),
    ]


def flip_braiding(br: Braiding) -> Braiding:
    """sigma-tilde(x, y) = sigma^-1(y, x), again a braiding on br.ops, read
    off br's tables."""
    sig, sig_inv = br.sigma, br.sigma_inv
    return Braiding(br.ops, value=lambda x, y: sig_inv[y][x], inverse=lambda x, y: sig[y][x])


def flip_agrees(br: Braiding) -> bool:
    """br's flip equals br on every pair filled in br's tables: sigma^-1(y, x)
    = sigma(x, y) and sigma(y, x) = sigma^-1(x, y), on copies of the rows made
    before these reads fill the tables further (not a tuple per cell: gc)."""
    filled = [(other, {x: dict(row) for x, row in table.items()})
              for table, other in ((br.sigma, br.sigma_inv), (br.sigma_inv, br.sigma))]
    return all(other[y][x] == v for other, rows in filled
               for x, row in rows.items() for y, v in row.items())


def flip_braiding_checks(ops: BasisOps, br: Braiding, fns: dict, a_lc: LC, a_inv_lc: LC,
                         axioms: list | None = None) -> tuple[Braiding, list[CheckResult]]:
    """The flipped braiding passes every axiom; its functionals swap with the
    originals (u~ = v^-1, v~ = u^-1, alpha~_a = beta_a, beta~_a = alpha_a);
    flipping twice restores the original values.

    axioms, when given, are the lines of sigma's axiom battery on br.  The
    battery is deterministic in ops and in the values it reads: the next
    pair it reads, and each verdict and witness, depend on nothing else.  So
    where the flip equals sigma and sigma^-1 on every pair filled in br's
    tables (flip_agrees; a cotriangular sigma is its own flip), its battery
    would make the same reads in the same order and return the same lines;
    they are taken, renamed.  Otherwise, and without them, it runs on the
    same ops, so on the same S proof, as sigma's (braiding_axiom_checks)."""
    flipped = flip_braiding(br)
    if axioms is None or not flip_agrees(br):
        axioms = braiding_axiom_checks(ops, flipped)
    flip_fns, fn_checks = flipped.functionals
    out = [CheckResult(f"flip_braiding.{result.name}", result.status, result.witness)
           for result in axioms + fn_checks]

    alpha_a, beta_a = modular_characters(ops, br, a_lc, a_inv_lc)
    alpha_a_t, beta_a_t = modular_characters(ops, flipped, a_lc, a_inv_lc)
    swaps = [
        ("flip_braiding.u_swaps_to_v_inverse", flip_fns["u"], fns["v_inv"]),
        ("flip_braiding.v_swaps_to_u_inverse", flip_fns["v"], fns["u_inv"]),
        ("flip_braiding.alpha_a_swaps_to_beta_a", alpha_a_t, beta_a),
        ("flip_braiding.beta_a_swaps_to_alpha_a", beta_a_t, alpha_a),
    ]
    out.extend(key_check(name, ops, lambda h, lhs=lhs, rhs=rhs: lhs(h) == rhs(h))
               for name, lhs, rhs in swaps)

    twice = flip_braiding(flipped)

    def involution(h, ls):
        """sigma and sigma^-1 of the flip of the flip equal br's on the row h."""
        bad = set()
        for again, row in ((twice.sigma[h], br.sigma[h]), (twice.sigma_inv[h], br.sigma_inv[h])):
            bad.update(compress(ls, map(ne, map(again.__getitem__, ls), map(row.__getitem__, ls))))
        return first_in(bad, ls)

    out.append(pair_check("flip_braiding.involution", ops, involution))
    return flipped, out


def braided_chain(c: Carrier, br: Braiding,
                  grouplikes: dict) -> tuple[dict | None, list[CheckResult]]:
    """The braiding axioms, then (once they pass) the braided functionals and
    every check built on them; returns the functionals, None when an axiom
    fails, and the checks.

    Every check reads sigma through br's tables, so each pair is evaluated
    once, product keys outside a window included.  flip_braiding_checks
    reuses the battery's lines where the flip agrees on every pair the
    tables hold by then, a superset of the battery's reads, since there the
    flip's battery would make the same reads and return the same lines."""
    ops = c.ops
    axioms = braiding_axiom_checks(ops, br)
    if not all(x.ok for x in axioms):
        return None, axioms
    fns, fn_checks = br.functionals
    out = axioms + fn_checks  # the flip checks read axioms after out has grown
    out.extend(modular_convolution_checks(ops, br, fns, c.alpha, c.a, c.a_inv))
    out.extend(braided_modular_corollary_checks(ops, br, fns, c.alpha, c.alpha_inv,
                                                c.a, c.a_inv))
    # the inverse of a grouplike is its antipode
    pairs = {name: (g, ops.s_lc(g)) for name, g in {"a": c.a, **grouplikes}.items()}
    for name in sorted(pairs):
        out.extend(grouplike_witness_checks(ops, br, *pairs[name], name=name)[1])
    out.extend(grouplike_homomorphism_checks(ops, br, pairs))
    out.extend(flip_braiding_checks(ops, br, fns, c.a, c.a_inv, axioms)[1])
    out.extend(twist_round_trip(c, fns["u"], fns["u_inv"]))
    return fns, out


# perfbench/spans.py traces these names too, so they stay bound to the
# generic functions; a call then opens two nested spans of one name, which
# the trace counts once.
cqt_functionals = braided_functionals
flip_inverse_braiding = flip_braiding_checks


# -- finite-dimensional carriers ------------------------------------------------


def braiding_from_matrix(algebra: FinHopfAlgebra, rows) -> tuple[Braiding, LC]:
    """Wrap n-by-n value rows, sigma(e_x, e_y) at rows[x][y], with the
    convolution inverse as a leg-pair LC {(x, y): sigma^-1(e_x, e_y)}.

    A bilinear form on H is an element of (H (x) H)* = H* (x) H*, and the
    convolution product of forms is the product of that tensor square, so
    sigma^-1 is Tensor2.invert on the dual; cqt.convolution_inverse_left
    and right still verify it as named checks."""
    n, zero = algebra.dim, algebra.field.zero
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"braiding matrix must be {n}-by-{n}")
    sigma = {(x, y): v for x, row in enumerate(rows) for y, v in enumerate(row) if v}
    try:
        inv = Tensor2.invert(algebra.dual(), sigma)
    except NotInvertibleError:
        raise NotInvertibleError("braiding has no convolution inverse") from None
    br = Braiding(algebra.ops, value=lambda x, y: rows[x][y],
                  inverse=lambda x, y: inv.get((x, y), zero))
    return br, inv


def dualize_qt(r: RMatrix, qt: QTData) -> tuple[FinHopfAlgebra, Braiding, list[CheckResult]]:
    """The dual Hopf algebra with sigma(f, g) = (f x g)(R).

    Returns the dual, the braiding, whose cached functionals the bridge
    reads, and the bridge checks.  The dual of a proved algebra is proved,
    its Hopf battery being the transpose of the algebra's (cli._dual_chain),
    so its tables get the S proof that battery would leave (lincomb).
    sigma^-1, solved for in the tensor square of dual.dual(), must equal
    R^-1, read off (S (x) id)(R) on an R-matrix: a solve against a read-off.
    The braided functionals must evaluate the Drinfeld elements qt
    of the algebra: u(f) = f(u), and v(f) = sigma(f1, S f2) = f(R^1 S(R^2))
    = f(S(u)), which is f(v^-1) since the QT side defines v = S(u)^-1.
    """
    algebra, zero = r.algebra, r.algebra.field.zero
    dual, keys = algebra.dual(), range(algebra.dim)
    if algebra.ops.tables.proof is not None:
        dual.ops.tables.proof = lincomb.generators(dual.ops) or ()
    rows = [[r.tensor.get((i, j), zero) for j in keys] for i in keys]
    br, inv = braiding_from_matrix(dual, rows)
    out = [check("cqt.inverse_two_paths_agree", inv == r.inverse)]

    ops, fns = dual.ops, br.functionals[0]
    out.append(key_check("cqt.dual_bridge_u", ops, lambda i: fns["u"](i) == qt.u.get(i, zero)))
    out.append(key_check("cqt.dual_bridge_v", ops,
                         lambda i: fns["v"](i) == qt.v_inv.get(i, zero)))
    return dual, br, out
