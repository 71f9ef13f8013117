from fractions import Fraction
from functools import reduce

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import laurent
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import (
    AxiomError,
    FinHopfAlgebra,
    NotInvertibleError,
    Tensor2,
    compute_antipode,
    require_passing,
    same_structure_constants,
    verify_hopf,
)
from hopfcheck.lincomb import (
    conv_inverse_checks,
    is_character_fn,
    is_grouplike_lc,
    tensor2_flip,
    tensor2_map,
    tensor2_mul,
)
from hopfcheck.presets import cyclic_group_document, preset_document
from hopfcheck.report import SKIP
from hopfcheck.scalars import QQ
from test_golden import (
    double_c2_document,
    double_c4_permuted_document,
    laurent_quotient_document,
)


def test_presets_satisfy_all_axioms(c2, c4, sweedler, sweedler_xi0):
    for algebra in (c2, c4, sweedler, sweedler_xi0):
        results = verify_hopf(algebra)
        assert results, algebra.name
        bad = [r for r in results if not r.ok]
        assert not bad, f"{algebra.name}: {bad}"


def test_sweedler_multiplication_relations(sweedler):
    ops = sweedler.ops
    one, g, x, gx = (ops.single(i) for i in range(4))
    assert ops.mul_lc(g, g) == one
    assert ops.mul_lc(x, x) == {}
    assert ops.mul_lc(x, g) == ops.scale(-QQ.one, ops.mul_lc(g, x))
    assert ops.mul_lc(g, x) == gx


def test_sweedler_antipode_order_four(sweedler):
    ops = sweedler.ops
    x = ops.single(2)
    s = ops.s_lc
    assert s(s(x)) == ops.scale(-QQ.one, x)
    assert s(s(s(s(x)))) == x
    # S^2 is conjugation by g
    g = ops.single(1)
    for i in range(4):
        h = ops.single(i)
        assert s(s(h)) == ops.mul_lc(ops.mul_lc(g, h), g)


def test_antipode_inverse_consistent(sweedler):
    ops = sweedler.ops
    for i in range(4):
        h = ops.single(i)
        assert ops.s_inv_lc(ops.s_lc(h)) == h
        assert ops.s_lc(ops.s_inv_lc(h)) == h


def test_antipode_columns_are_built_once():
    # H_4 over F_10007 ships no antipode: it is solved for in verify_hopf,
    # after the algebra's ops are built, and those ops read it
    algebra = build_algebra(parse_document(laurent_quotient_document(4)))
    ops = algebra.ops
    assert algebra.antipode is None
    for column in (ops.antipode, ops.antipode_inv):
        with pytest.raises(AxiomError, match="not available"):
            column(0)
    assert all(r.ok for r in verify_hopf(algebra))
    assert algebra.ops is ops
    s, s_inv = algebra.antipode, algebra.antipode_inv
    assert s_inv is algebra.antipode_inv
    for j in ops.keys:
        for column, cols in ((ops.antipode, s), (ops.antipode_inv, s_inv)):
            assert column(j) is column(j) is cols[j]
        # S^-1 S e_j = e_j = S S^-1 e_j, column by column
        assert ops.s_inv_lc(s[j]) == ops.single(j) == ops.s_lc(s_inv[j])


def test_computed_antipode_matches_declared(c2, c4, sweedler):
    for algebra in (c2, c4, sweedler):
        assert compute_antipode(algebra) == algebra.antipode


def test_corrupted_mult_has_no_antipode():
    doc = preset_document("group:C2")
    mult = {(i, j): {k: c} for i, j, k, c in doc.mult}
    mult[(1, 1)] = {1: QQ.one}  # g*g = g
    algebra = FinHopfAlgebra(
        QQ, doc.basis,
        {ij: dict(lc) for ij, lc in mult.items()},
        {i: [(c, j, k)] for i, j, k, c in doc.comult},
        doc.counit)
    with pytest.raises(AxiomError, match="admits no antipode"):
        compute_antipode(algebra)
    results = verify_hopf(algebra)
    failures = [r for r in results if not r.ok]
    assert any(r.name == "hopf.antipode_exists" for r in failures)
    assert all(r.witness for r in failures)
    laws = next(r for r in results if r.name == "hopf.antipode_laws")
    assert (laws.status, laws.witness) == (SKIP, "no antipode available")


def test_grouplike_and_character_detection(sweedler):
    ops = sweedler.ops
    g = ops.single(1)
    x = ops.single(2)
    assert is_grouplike_lc(ops, g)
    assert not is_grouplike_lc(ops, x)
    assert not is_grouplike_lc(ops, ops.scale(Fraction(2), g))
    sign = (QQ.one, -QQ.one, QQ.zero, QQ.zero).__getitem__
    assert is_character_fn(ops, sign)
    assert is_character_fn(ops, ops.eps)
    assert not is_character_fn(ops, lambda k: QQ.one)


def test_convolution_inverse(sweedler):
    # a character's convolution inverse is the character after the antipode
    ops = sweedler.ops
    sign = (QQ.one, -QQ.one, QQ.zero, QQ.zero).__getitem__
    inv = ops.compose_s_power(sign, 1)
    assert all(ops.convolve(sign, inv)(k) == ops.eps(k) for k in ops.keys)
    assert all(ops.convolve(inv, sign)(k) == ops.eps(k) for k in ops.keys)
    assert all(r.ok for r in conv_inverse_checks(ops, "sign", sign, inv))
    # f(1) = 0 gives (f * g)(1) = f(1) g(1) = 0 for every g: no inverse
    delta_x = (QQ.zero, QQ.zero, QQ.one, QQ.zero).__getitem__
    checks = conv_inverse_checks(ops, "delta_x", delta_x, ops.compose_s_power(delta_x, 1))
    assert [r.witness for r in checks] == ["at 1", "at 1"]


def test_element_inverse(sweedler):
    ops = sweedler.ops
    g = ops.single(1)
    assert sweedler.invert_element(g) == g
    x = ops.single(2)
    with pytest.raises(NotInvertibleError):
        sweedler.invert_element(x)


def lc_add(a: dict, b: dict) -> dict:
    """a + b over QQ, zeros dropped."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _summed(terms) -> dict:
    return reduce(lc_add, terms, {})


# one value per key of the largest grid below, Laurent at window 3
HIT_VALUES = st.lists(st.integers(-2, 2), min_size=14, max_size=14)


@settings(max_examples=20, deadline=None)
@given(f_vals=HIT_VALUES, g_vals=HIT_VALUES, h_vals=HIT_VALUES)
def test_hit_actions_match_comments(sweedler, f_vals, g_vals, h_vals):
    # the hits h1 f(h2) and f(h1) h2, as map_lc over the coproduct legs
    ops = sweedler.ops
    x = ops.single(2)
    one, g = ops.single(0), ops.single(1)
    f = (QQ.one, QQ.zero, QQ.one, QQ.zero).__getitem__
    hit_left = lambda ops, f, h: ops.map_lc(
        lambda k: _summed({k1: c * f(k2)} for c, k1, k2 in ops.delta(k)), h)
    hit_right = lambda ops, f, h: ops.map_lc(
        lambda k: _summed({k2: c * f(k1)} for c, k1, k2 in ops.delta(k)), h)
    # Delta(x) = x (x) 1 + g (x) x
    assert ops.hit_left(f, 2) == hit_left(ops, f, x) == lc_add(x, g)
    assert ops.hit_right(f, 2) == hit_right(ops, f, x) == one  # f(x) 1 + f(g) x = 1
    assert ops.eval_fn(f, hit_right(ops, f, x)) == f(0)

    # the co-inner action f(h1) h2 g(h3), as a sum over delta_n(h, 3)
    coinner = lambda ops, f, g, h: ops.map_lc(
        lambda k: _summed({k2: c * f(k1) * g(k3)} for c, (k1, k2, k3) in ops.delta_n(k, 3)), h)
    for ops in (sweedler.ops, sweedler.dual().ops, laurent.basis_ops(3)):
        # functionals given by their values on the key grid, zero off it
        f = lambda k, v=dict(zip(ops.keys, map(Fraction, f_vals))): v.get(k, ops.zero)
        g = lambda k, v=dict(zip(ops.keys, map(Fraction, g_vals))): v.get(k, ops.zero)
        h = {k: Fraction(c) for k, c in zip(ops.keys, h_vals) if c}
        extend = lambda action: ops.map_lc(action, h)
        assert extend(lambda k: ops.hit_left(f, k)) == hit_left(ops, f, h)
        assert extend(lambda k: ops.hit_right(f, k)) == hit_right(ops, f, h)
        assert extend(lambda k: ops.coinner(f, g, k)) == coinner(ops, f, g, h)
        for k in ops.keys:
            assert ops.hit_left(f, k) == hit_left(ops, f, ops.single(k))
            assert ops.hit_right(f, k) == hit_right(ops, f, ops.single(k))
            assert ops.coinner(f, g, k) == coinner(ops, f, g, ops.single(k))


def test_tensor_square_operations(sweedler):
    ops = sweedler.ops
    g = ops.single(1)
    x = ops.single(2)
    t = ops.outer(g, x)
    assert tensor2_flip(t) == ops.outer(x, g)
    assert tensor2_map(ops, t, 1) == ops.outer(ops.s_lc(g), x)
    assert tensor2_map(ops, t, 0, 1) == ops.outer(g, ops.s_lc(x))
    assert tensor2_mul(ops, ops.outer(g, g), ops.outer(g, x)) == ops.outer(ops.unit, ops.mul_lc(g, x))
    with pytest.raises(NotInvertibleError):
        Tensor2.invert(sweedler, t)
    one = ops.outer(ops.unit, ops.unit)
    assert Tensor2.invert(sweedler, one) == one
    assert Tensor2.invert(sweedler, ops.outer(g, g)) == ops.outer(g, g)


def test_dual_of_dual_is_original(c2, c4, sweedler):
    for algebra in (c2, c4, sweedler):
        double = algebra.dual().dual()
        assert same_structure_constants(algebra, double)


def test_dual_is_hopf(sweedler):
    dual = sweedler.dual()
    assert all(r.ok for r in verify_hopf(dual))


# -- the dual's battery is the transposed primal battery ----------------------

# H* holds the transposes of H's tables, so each hopf.* law of H* is one of
# H's: these three pairs swap, and every other line (Delta's multiplicativity,
# counit_unital, the antipode laws, S bijective and invertible, S* = S^T) is
# its own transpose.  A verify reports the primal battery for the dual's
# (cli._dual_chain); this differential is the definition it replaces.
TRANSPOSED = {"hopf.associativity": "hopf.coassociativity",
              "hopf.unit_laws": "hopf.counit_laws",
              "hopf.comultiplication_unital": "hopf.counit_multiplicative"}
TRANSPOSED.update({v: k for k, v in TRANSPOSED.items()})
DUAL_GUARD_DOCUMENTS = {"sweedler4": lambda: preset_document("sweedler4"),
                        "c4": lambda: preset_document("group:C4"),
                        "double_c4": lambda: parse_document(double_c4_permuted_document()),
                        "h10_f10007": lambda: parse_document(laurent_quotient_document(10))}


def doubled(doc, table: str, i: int = -1):
    """doc with the coefficient of entry i (the last by default) of its
    mult or comult table doubled."""
    entries = list(getattr(doc, table))
    *where, c = entries[i]
    entries[i] = (*where, doc.field.reduce(2 * c))
    return dataclasses.replace(doc, **{table: tuple(entries)})


@pytest.mark.parametrize("table", [None, "mult", "comult"])
@pytest.mark.parametrize("name", sorted(DUAL_GUARD_DOCUMENTS))
def test_the_dual_battery_is_the_transposed_primal_battery(name, table):
    """verify_hopf(A.dual()) gives A's verdicts under TRANSPOSED, line for
    line, on intact tables and with one product or coproduct coefficient
    doubled, failing lines included.  Only H_10 with a coproduct bump has
    no antipode and is skipped."""
    doc = DUAL_GUARD_DOCUMENTS[name]()
    algebra = build_algebra(doubled(doc, table) if table else doc)
    primal = verify_hopf(algebra)
    if algebra.unit_coeffs is None or algebra.antipode is None:
        pytest.skip("the tables have no unit or no antipode, so no dual battery")
    dual = verify_hopf(algebra.dual())
    assert sorted((TRANSPOSED.get(x.name, x.name), x.status) for x in dual) == sorted(
        (x.name, x.status) for x in primal)
    assert (table is None) == all(x.ok for x in primal)


def test_the_dual_of_tables_without_a_unit_names_it():
    """Tables whose unit solve failed have no dual: its counit would be
    the unit.  dual() says so instead of failing on the missing vector."""
    algebra = build_algebra(doubled(preset_document("sweedler4"), "mult", 0))  # 1 1 = 2 1
    assert algebra.unit_coeffs is None
    with pytest.raises(AxiomError, match="unit: no two-sided unit"):
        algebra.dual()


def test_cyclic_preset_over_prime_field():
    from hopfcheck.scalars import PrimeField
    doc = cyclic_group_document(4, PrimeField(5))
    algebra = build_algebra(doc)
    assert all(r.ok for r in verify_hopf(algebra))


# -- metamorphic: a basis permutation carries the solved antipode and unit ---


def permuted_tables(doc: dict, perm: list[int]) -> dict:
    """The tables of doc on the basis relabelled by perm (perm[old] = new),
    with the antipode, R and sigma dropped, so that both the antipode and
    the unit have to be solved for."""
    basis = [None] * len(perm)
    for old, label in enumerate(doc["basis"]):
        basis[perm[old]] = label
    return {
        "name": doc["name"],
        "field": doc["field"],
        "basis": basis,
        "mult": [[perm[i], perm[j], perm[k], c] for i, j, k, c in doc["mult"]],
        "comult": [[perm[i], perm[j], perm[k], c] for i, j, k, c in doc["comult"]],
        "counit": [[perm[i], c] for i, c in doc["counit"]],
    }


# H_4 over F_10007 ships no antipode, so its reference is the one solved on
# the given basis; D(kC2) ships its own.  verify_hopf validates both.
METAMORPHIC_DOCUMENTS = {"h4_f10007": lambda: laurent_quotient_document(4),
                         "double_c2": double_c2_document}


@pytest.mark.parametrize("name", sorted(METAMORPHIC_DOCUMENTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_antipode_and_unit_follow_a_basis_permutation(name, data):
    doc = METAMORPHIC_DOCUMENTS[name]()
    given_algebra = build_algebra(parse_document(doc))
    require_passing(verify_hopf(given_algebra))
    n = given_algebra.dim
    perm = data.draw(st.permutations(range(n)))
    moved = build_algebra(parse_document(permuted_tables(doc, perm)))

    antipode = [None] * n
    unit = [None] * n
    for b in range(n):
        unit[perm[b]] = given_algebra.unit_coeffs[b]
        antipode[perm[b]] = {perm[a]: c for a, c in given_algebra.antipode[b].items()}
    assert compute_antipode(moved) == tuple(antipode)
    assert moved.unit_coeffs == tuple(unit)
