"""R-matrices: axioms, Drinfeld elements, grouplike images of characters.

An RMatrix pairs the tensor with its two-sided inverse: (S (x) id)(R)
once its product with R is 1 (x) 1, else one found by a linear solve, so
that almost-cocommutative but non-quasitriangular inputs still work; the
antipode formulas for the inverse are asserted only once the full axiom
set has passed, and reported as SKIP otherwise.  Every other inverse is
read off R^-1 or u^-1, the flip being an algebra map and S an
anti-automorphism: (R21)^-1 = (R^-1)21, (R21 R)^-1 = R^-1 (R^-1)21,
v = S(u)^-1 = S(u^-1), and R^-1 on the minimal subHopf algebra L is R^-1
restricted to L (x) L, a finite-dimensional subalgebra that holds R.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

from .cofrobenius import Carrier, cofrobenius_data
from .hopf import AxiomError, FinHopfAlgebra, Tensor2, require_passing, verify_hopf
from .lincomb import (
    BasisOps,
    KeyTable,
    LC,
    commutes_rows,
    group,
    is_grouplike_lc,
    key_check,
    lc_canon,
    lc_eq,
    memo_fn,
    raw_sum,
    tensor2_flip,
    tensor2_map,
    tensor2_mul,
)
from .linalg import EchelonBasis
from .report import PASS, CheckResult, check, flag, grid_check, skipped

QT_CONVENTIONS = (
    "R-matrix stored as a coefficient matrix: R = sum_ij M[i][j] e_i (x) e_j",
    "witness conjugation: gamma^-1(h1) h2 gamma(h3) times w equals w times h",
)


@dataclass(frozen=True)
class RMatrix:
    """R and its inverse as leg-pair combinations {(i, j): c}."""

    algebra: FinHopfAlgebra
    tensor: dict
    inverse: dict

    @classmethod
    def build(cls, algebra: FinHopfAlgebra, terms: dict) -> "RMatrix":
        """R, with R^-1 read off as (S (x) id)(R) when _antipode_inverse
        shows it a right inverse (two-sided: hopf._right_inverse), else solved."""
        tensor = lc_canon(terms, algebra.field.reduce)
        inverse = None if algebra.antipode is None else _antipode_inverse(algebra.ops, tensor)
        return cls(algebra, tensor, Tensor2.invert(algebra, tensor) if inverse is None else inverse)

    @classmethod
    def from_entries(cls, algebra: FinHopfAlgebra, entries) -> "RMatrix":
        """entries are (coefficient, i, j) triples, duplicates summed."""
        terms: dict = {}
        for c, i, j in entries:
            terms[(i, j)] = terms.get((i, j), 0) + c
        return cls.build(algebra, terms)


@dataclass(frozen=True)
class QTData:
    u: LC
    u_inv: LC
    v: LC
    v_inv: LC


def _antipode_inverse(ops: BasisOps, tensor: dict) -> dict | None:
    """(S (x) id)(R) when R (S (x) id)(R) = 1 (x) 1, else None."""
    candidate = tensor2_map(ops, tensor, 1)
    return candidate if lc_eq(tensor2_mul(ops, tensor, candidate),
                              ops.outer(ops.unit, ops.unit)) else None


def _triple_diff(ops: BasisOps, lhs: dict, rhs: dict) -> str | None:
    """The first key where the raw sums lhs and rhs differ in the field."""
    for key in sorted(set(lhs) | set(rhs)):
        if ops.field.reduce(lhs.get(key, 0) - rhs.get(key, 0)):
            return f"at ({', '.join(map(ops.label, key))})"
    return None


def verify_almost_cocommutative(r: RMatrix) -> CheckResult:
    ops = r.algebra.ops

    def holds(i: int) -> bool:
        dh = ops.delta_lc(ops.single(i))
        return lc_eq(tensor2_mul(ops, tensor2_flip(dh), r.tensor),
                     tensor2_mul(ops, r.tensor, dh))

    return key_check("qt.almost_cocommutative", ops, holds)


def _hexagon_diff(ops: BasisOps, tensor: dict, leg: int) -> str | None:
    """The first triple where R with leg 0 or 1 comultiplied differs from
    R13 R23 (leg 0) or R13 R12 (leg 1), or None.  Each term of R is read as
    (s, t): s the leg comultiplied, t the leg the product multiplies."""
    if leg:  # (id ⊗ Δ)R = R13 R12
        entries = [(j, i, v) for (i, j), v in tensor.items()]
        lhs_key = lambda a, b, t: (t, a, b)
        rhs_key = lambda s1, s2, m: (m, s2, s1)
    else:  # (Δ ⊗ id)R = R13 R23
        entries = [(i, j, v) for (i, j), v in tensor.items()]
        lhs_key = lambda a, b, t: (a, b, t)
        rhs_key = lambda s1, s2, m: (s1, s2, m)
    lhs, rhs, tables = {}, {}, ops.tables
    for s, t, v in entries:
        for c, a, b in tables.delta[s]:
            key = lhs_key(a, b, t)
            lhs[key] = lhs.get(key, 0) + v * c
    for s1, t1, v1 in entries:
        for s2, t2, v2 in entries:
            for m, w in tables.prod[t1][t2]:
                key = rhs_key(s1, s2, m)
                rhs[key] = rhs.get(key, 0) + v1 * v2 * w
    return _triple_diff(ops, lhs, rhs)


def verify_qt(r: RMatrix) -> list[CheckResult]:
    """Both hexagon identities, the counit conditions, almost-cocommutativity,
    and the antipode formulas for the inverse, which are reported as SKIP
    unless all of those pass."""
    ops = r.algebra.ops
    out: list[CheckResult] = []
    sides = tuple(enumerate(("first", "second")))
    for leg, side in sides:
        diff = _hexagon_diff(ops, r.tensor, leg)
        out.append(check(f"qt.hexagon_comultiply_{side}_leg", diff is None, diff))
    for leg, side in sides:
        counit = _contract_leg(ops, r.tensor, ops.eps, leg)
        out.append(check(f"qt.counit_{side}_leg", lc_eq(counit, ops.unit)))
    out.append(verify_almost_cocommutative(r))

    gate_open = all(c.status == PASS for c in out)
    # each formula maps R's legs by powers of S; the first is RMatrix.build's product test
    for name, holds in (
            ("qt.inverse_is_antipode_on_first_leg",
             lambda: _antipode_inverse(ops, r.tensor) is not None),
            ("qt.inverse_is_antipode_inv_on_second_leg",
             lambda: lc_eq(tensor2_map(ops, r.tensor, 0, -1), r.inverse)),
            ("qt.antipode_square_invariance",
             lambda: lc_eq(tensor2_map(ops, r.tensor, 1, 1), r.tensor))):
        out.append(check(name, holds()) if gate_open
                   else skipped(name, "an R-matrix axiom above fails"))
    return out


def drinfeld_elements(r: RMatrix) -> tuple[QTData, list[CheckResult]]:
    """u = S(R^2) R^1 and v = S(u)^-1 = S(u^-1), with their conjugation laws."""
    ops = r.algebra.ops
    u = ops.map_lc(lambda p: ops.mul_lc(ops.s_lc(ops.single(p[1])), ops.single(p[0])), r.tensor)
    u_inv = r.algebra.invert_element(u)
    v = ops.s_lc(u_inv)
    qt = QTData(u, u_inv, v, ops.s_lc(u))
    checks = [
        key_check("drinfeld.s2_conjugation_u", ops, commutes_rows(ops, u, ops.tables.s_pow[2])),
        key_check("drinfeld.s2_conjugation_v", ops, commutes_rows(ops, v, ops.tables.s_pow[2])),
        check("drinfeld.u_v_commute", lc_eq(ops.mul_lc(u, v), ops.mul_lc(v, u))),
    ]
    return qt, checks


def verify_delta_u(r: RMatrix, qt: QTData) -> list[CheckResult]:
    ops = r.algebra.ops
    # (R21 R)^-1 = R^-1 (R^-1)21
    braid = tensor2_mul(ops, r.inverse, tensor2_flip(r.inverse))
    uu = ops.outer(qt.u, qt.u)
    delta_u = ops.delta_lc(qt.u)
    return [
        check("drinfeld.comultiplication_of_u_left",
              lc_eq(delta_u, tensor2_mul(ops, uu, braid))),
        check("drinfeld.comultiplication_of_u_right",
              lc_eq(delta_u, tensor2_mul(ops, braid, uu))),
        check("drinfeld.uv_grouplike", is_grouplike_lc(ops, ops.mul_lc(qt.u, qt.v))),
    ]


def _contract_leg(ops: BasisOps, tensor: dict, f, leg: int) -> LC:
    """f applied to one leg of a leg-pair combination, leaving the other."""
    return lc_canon(raw_sum(tensor.items(), lambda pair: ((pair[1 - leg], f(pair[leg])),)),
                    ops.field.reduce)


def grouplike_from_character(r: RMatrix, eta) -> tuple[LC, LC]:
    """Contract a character against each tensor leg of R.

    Returns (a_eta, b_eta) with a_eta = eta(R^1) R^2 and b_eta =
    eta^-1(R^2) R^1, where eta^-1 = eta o S is the convolution inverse of
    the character eta (eta o S^-1 is too, so the two forms agree; the named
    convolution-inverse checks verify the inverse).  eta must be a character;
    callers pass the counit, alpha, alpha^-1, validated document characters
    and convolution products of these, which are characters by construction.
    """
    ops = r.algebra.ops
    eta_inv = ops.compose_s_power(eta, 1)
    return _contract_leg(ops, r.tensor, eta, 0), _contract_leg(ops, r.tensor, eta_inv, 1)


def character_maps_checks(r: RMatrix, characters: dict) -> list[CheckResult]:
    """Grouplike images, multiplicativity in the character, and centrality.
    characters maps a name to a key -> scalar function."""
    ops = r.algebra.ops
    out: list[CheckResult] = []
    images = {}
    for name in sorted(characters):
        a_eta, b_eta = grouplike_from_character(r, characters[name])
        images[name] = (a_eta, b_eta)
        out.append(check(f"qt.character_image_grouplike[{name}]",
                         is_grouplike_lc(ops, a_eta) and is_grouplike_lc(ops, b_eta)))

    names = sorted(characters)
    pairs = [(x, y) for x in names for y in names]

    def image_of_product(p, leg: int) -> bool:
        x, y = p
        prod = memo_fn(ops.convolve(characters[x], characters[y]))
        got = grouplike_from_character(r, prod)[leg]
        return lc_eq(got, ops.mul_lc(images[x][leg], images[y][leg]))

    out.append(grid_check("qt.character_map_multiplicative_a", pairs,
                          lambda p: image_of_product(p, 0),
                          lambda p: f"at ({p[0]}, {p[1]})"))
    out.append(grid_check("qt.character_map_multiplicative_b", pairs,
                          lambda p: image_of_product(p, 1),
                          lambda p: f"at ({p[0]}, {p[1]})"))

    for name in names:
        _, b_inv = grouplike_from_character(r, ops.compose_s_power(characters[name], 1))
        z = ops.mul_lc(images[name][0], b_inv)
        out.append(key_check(f"qt.central_pairing[{name}]", ops,
                             commutes_rows(ops, z, ops.tables.s_pow[0])))
    return out


def check_modular_grouplikes_equal(c: Carrier, r: RMatrix) -> list[CheckResult]:
    """Both contractions of the modular functional give the same grouplike."""
    a_alpha, b_alpha = grouplike_from_character(r, c.alpha)
    _, b_alpha_inv = grouplike_from_character(r, c.alpha_inv)
    same = lc_eq(a_alpha, b_alpha)
    return [
        check("qt.modular_grouplikes_equal", same,
              None if same else
              f"a_alpha = {c.ops.format(a_alpha)}, b_alpha = {c.ops.format(b_alpha)}"),
        check("qt.modular_pairing_trivial",
              lc_eq(c.ops.mul_lc(a_alpha, b_alpha_inv), c.ops.unit)),
    ]


def check_drinfeld_modular_product(c: Carrier, r: RMatrix, qt: QTData) -> list[CheckResult]:
    """uv = vu = a b_alpha = a a_alpha, and S^4 as conjugation by uv."""
    ops = c.ops
    a_alpha, b_alpha = grouplike_from_character(r, c.alpha)
    uv = ops.mul_lc(qt.u, qt.v)
    vu = ops.mul_lc(qt.v, qt.u)
    ab = ops.mul_lc(c.a, b_alpha)
    aa = ops.mul_lc(c.a, a_alpha)
    return [
        check("drinfeld.uv_eq_vu", lc_eq(uv, vu)),
        check("drinfeld.uv_eq_a_times_b_alpha", lc_eq(uv, ab),
              None if lc_eq(uv, ab) else f"uv = {ops.format(uv)}, a b_alpha = {ops.format(ab)}"),
        check("drinfeld.uv_eq_a_times_a_alpha", lc_eq(uv, aa)),
        key_check("radford.s4_inner_by_uv", ops, commutes_rows(ops, uv, ops.tables.s_pow[4])),
    ]


def check_antipode_u_biconditional(c: Carrier, r: RMatrix, qt: QTData) -> list[CheckResult]:
    """S(u) = u exactly when a_alpha is the inverse of the modular element."""
    ops = c.ops
    out: list[CheckResult] = []
    if all(c.alpha(k) == ops.eps(k) for k in ops.keys):
        out.append(check("drinfeld.counit_modular_vu_eq_a",
                         lc_eq(ops.mul_lc(qt.v, qt.u), c.a)))
    else:
        out.append(skipped("drinfeld.counit_modular_vu_eq_a",
                           "modular functional differs from the counit"))
    a_alpha, _ = grouplike_from_character(r, c.alpha)
    left = lc_eq(ops.s_lc(qt.u), qt.u)
    right = lc_eq(a_alpha, c.a_inv)
    out.append(check(
        "drinfeld.antipode_fixes_u_iff_modular_match", left == right,
        f"S(u)=u is {flag(left)}, a_alpha=a^-1 is {flag(right)}"))
    return out


def conjugation_witnesses(r: RMatrix, gamma,
                          name: str = "gamma") -> tuple[list[LC], list[CheckResult]]:
    """The four character contractions of R and its inverse, each of which
    turns the gamma double-hit into conjugation; gamma must be a character,
    as for grouplike_from_character."""
    ops = r.algebra.ops
    gamma_inv = ops.compose_s_power(gamma, 1)

    witnesses = [
        _contract_leg(ops, r.inverse, gamma_inv, 0),
        _contract_leg(ops, r.tensor, gamma, 0),
        _contract_leg(ops, r.inverse, gamma, 1),
        _contract_leg(ops, r.tensor, gamma_inv, 1),
    ]
    # gamma^-1(h1) h2 gamma(h3), the gamma double-hit of each basis element
    twisted = KeyTable(lambda h: tuple(ops.coinner(gamma_inv, gamma, h).items()))
    out: list[CheckResult] = [
        key_check(f"qt.witness_conjugates[{name}:{idx}]", ops, commutes_rows(ops, w, twisted))
        for idx, w in enumerate(witnesses, start=1)]
    a_g, b_g = grouplike_from_character(r, gamma)
    got = {tuple(sorted(w.items())) for w in witnesses}
    expected = {tuple(sorted(a_g.items())), tuple(sorted(b_g.items()))}
    out.append(check(f"qt.witness_set_matches[{name}]", got == expected,
                     None if got == expected else f"{len(got)} distinct values"))
    return witnesses, out


def flip_inverse(r: RMatrix) -> tuple[RMatrix, list[CheckResult]]:
    """The inverse of the flipped tensor, (R^-1)21, again an R-matrix."""
    ops = r.algebra.ops
    rt = RMatrix(r.algebra, tensor2_flip(r.inverse), tensor2_flip(r.tensor))
    # R21 (S (x) id)(R)21 = 1 (x) 1 by a product, as R^-1 may be (S (x) id)(R)
    antipode_form = tensor2_mul(ops, tensor2_flip(r.tensor),
                                tensor2_flip(tensor2_map(ops, r.tensor, 1)))
    out = [
        check("qt.flip_inverse_antipode_form", lc_eq(antipode_form, ops.outer(ops.unit, ops.unit))),
        check("qt.flip_inverse_antipode_inv_form",
              lc_eq(rt.tensor, tensor2_flip(tensor2_map(ops, r.tensor, 0, -1)))),
    ]
    for result in verify_qt(rt):
        out.append(CheckResult(f"flip_inverse.{result.name}", result.status,
                               result.witness))
    return rt, out


@dataclass
class MinimalSubHopf:
    """The smallest subHopf algebra containing every tensor factor of R;
    basis element p of the subalgebra is the LC basis_in_parent[p]."""

    algebra: FinHopfAlgebra
    basis_in_parent: tuple
    r_sub: RMatrix
    carrier: Carrier
    checks: list[CheckResult]
    computed: list[tuple[str, str]]


def minimal_subhopf(r: RMatrix, parent: Carrier) -> MinimalSubHopf:
    """The closure of R's tensor factors under the structure maps, with its
    integral data compared against parent, the carrier of r.algebra."""
    A = r.algebra
    ops = A.ops
    field = A.field
    n = A.dim
    zero = field.zero

    def expand(terms: dict, left, right) -> dict:
        """sum of c left[p] (x) right[q] over the terms {(p, q): c}"""
        out: dict = {}
        for (p, q), c in terms.items():
            for key, v in ops.outer(left[p], right[q]).items():
                out[key] = out.get(key, zero) + c * v
        return lc_canon(out, field.reduce)

    # rank factorization R = sum_k first[k] (x) second[k] through the row
    # space: R's row i is the LC whose coefficient at j is that of e_i (x) e_j
    rows: dict = {}
    for (i, j), c in r.tensor.items():
        rows.setdefault(i, {})[j] = c
    factor_rows = EchelonBasis(field)
    for row in rows.values():
        factor_rows.insert(row)
    second = list(factor_rows.vectors)
    first: list[LC] = [{} for _ in second]
    for i, row in rows.items():
        for k, c in factor_rows.coords(row).items():
            first[k][i] = c
    factorization_ok = lc_eq(
        expand({(k, k): field.one for k in range(len(second))}, first, second), r.tensor)

    # G, 1 and R's legs closed under S and Delta's slices, is an S-stable
    # subcoalgebra; the words in G, each new one multiplied on the left by G
    # once, span the smallest subHopf algebra holding R (Radford 1993).
    span = EchelonBasis(field)
    gens = [x for x in [ops.unit] + first + second if span.insert(x)]
    for x in gens:  # S(x) and the slices of Delta(x) at each key of either leg
        dx = ops.delta_lc(x).items()
        slices = [group((p[leg], (p[1 - leg], c)) for p, c in dx) for leg in (0, 1)]
        parts = [ops.s_lc(x), *(dict(terms) for by in slices for terms in by.values())]
        gens.extend(y for y in parts if span.insert(y))
    words = list(gens)
    for w in words:
        words.extend(y for g in gens if span.insert(y := ops.mul_lc(g, w)))

    basis = list(span.vectors)
    m = len(basis)
    pivots = span.pivots
    labels = tuple(map(ops.format, basis))

    if pivots == tuple(range(n)):
        # L = H, in H's own basis.  Every caller has passed A through the
        # Hopf axiom battery before it gets here, so A's tables, R and
        # integral data serve for L unchanged.
        sub = copy.copy(A)
        sub.name = f"{A.name}-minimal"
        r_sub = replace(r, algebra=sub)
        sub_c = parent
    else:
        def coords_of(x: LC) -> LC:
            c = span.coords(x)
            if c is None:
                raise AxiomError("closure is not closed under the structure maps")
            return c

        def restrict(t: dict) -> dict:
            """Coordinates of a tensor-square element of the closure, read
            off at the pivot pairs."""
            return {(p, q): v for p in range(m) for q in range(m)
                    if (v := t.get((pivots[p], pivots[q])))}

        mult = {(p, q): coords_of(ops.mul_lc(basis[p], basis[q]))
                for p in range(m) for q in range(m)}
        comult = {}
        for p in range(m):
            dx = ops.delta_lc(basis[p])
            cand = restrict(dx)
            if not lc_eq(expand(cand, basis, basis), dx):
                raise AxiomError("comultiplication leaves the closure")
            comult[p] = tuple((c, rr, ss) for (rr, ss), c in cand.items())
        counit = tuple(ops.eps_lc(b) for b in basis)
        antipode = tuple(coords_of(ops.s_lc(b)) for b in basis)
        unit = coords_of(ops.unit)
        sub = FinHopfAlgebra(field, labels, mult, comult, counit,
                             unit=tuple(unit.get(p, zero) for p in range(m)),
                             antipode=antipode, name=f"{A.name}-minimal")
        require_passing(verify_hopf(sub))

        r_terms = restrict(r.tensor)
        if not lc_eq(expand(r_terms, basis, basis), r.tensor):
            raise AxiomError("R does not lie in the tensor square of the closure")
        r_sub = RMatrix(sub, r_terms, restrict(r.inverse))
        sub_c = cofrobenius_data(sub)
    include = lambda x: ops.map_lc(basis.__getitem__, x)

    a_eq = lc_eq(include(sub_c.a), parent.a)
    alpha_eq = all(sub_c.alpha(p) == ops.eval_fn(parent.alpha, basis[p]) for p in range(m))
    chi_eq = all(lc_eq(include(sub_c.chi(p)), ops.map_lc(parent.chi, basis[p]))
                 for p in range(m))
    flags = f"a: {flag(a_eq)}, alpha: {flag(alpha_eq)}, chi: {flag(chi_eq)}"

    checks = [
        check("subhopf.rank_factorization_reconstructs", factorization_ok),
        check("subhopf.tables_form_hopf_algebra", True),
        check("subhopf.modular_biconditional_consistent",
              a_eq == alpha_eq == chi_eq, None if a_eq == alpha_eq == chi_eq else flags),
    ]
    computed = [
        ("dim(L)", str(m)),
        ("basis(L)", ", ".join(labels)),
        ("a_L", sub.ops.format(sub_c.a)),
        ("alpha_L", sub.ops.format_values(sub_c.alpha)),
        ("a_L equals a_H", flag(a_eq)),
        ("alpha_L equals alpha_H restricted", flag(alpha_eq)),
        ("chi_L equals chi_H restricted", flag(chi_eq)),
    ]
    return MinimalSubHopf(sub, tuple(basis), r_sub, sub_c, checks, computed)
