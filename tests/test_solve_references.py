"""Each solve that verify makes before its checks, against the code it
replaced, kept here as the reference.

The unit and the antipode are solved from one law, u e_j = e_j and
S(h1) h2 = eps(h) 1, with the other law only evaluated at a unique
solution; the references impose both laws in one system.  R^-1 is read
off as (S x id)(R) once one product shows it a right inverse; the
reference solves for it.  The minimal subHopf algebra is closed from
generators; the reference inserts every product of the current basis on
every pass.  Results and AxiomError texts must agree on every preset, on
generated kC_n, D(kC_n) and H_N documents, on each of their tables with
one product or one coproduct coefficient doubled, on random tables over
F_3, and on small tables whose left antipode law has several solutions,
where both laws are solved together.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import hopf
from hopfcheck.cofrobenius import cofrobenius_data
from hopfcheck.document import build_algebra, document_text, parse_document
from hopfcheck.hopf import AxiomError, FinHopfAlgebra, Tensor2, compute_antipode
from hopfcheck.linalg import EchelonBasis, SparseMatrix, solve_linear
from hopfcheck.lincomb import lc_canon, lc_eq
from hopfcheck.presets import FINITE_PRESETS, preset_document
from hopfcheck.quasitriangular import RMatrix, minimal_subhopf
from hopfcheck.scalars import PrimeField
from conftest import verified
from test_cli import permuted_double_c3_obj
from test_golden import (
    cyclic_group_document,
    double_c2_document,
    double_c4_permuted_document,
    laurent_quotient_document,
)


def two_sided_unit(algebra: FinHopfAlgebra):
    """Solve u e_j = e_j = e_j u in one system: rows (j, k, left/right)."""
    n, field = algebra.dim, algebra.field
    eqs = SparseMatrix.zeros(field, 2 * n * n, n)
    for (i, j), vec in algebra._mult.items():
        for k, m in vec.items():
            eqs.add(2 * (j * n + k), i, m)  # e_i e_j, unknown u_i on the left
            eqs.add(2 * (i * n + k) + 1, j, m)  # e_i e_j, unknown u_j on the right
    rhs = tuple(field.one if j == k else field.zero
                for j in range(n) for k in range(n) for _ in (0, 1))
    sol = solve_linear(eqs, rhs)
    return None if sol is None else sol.particular


def two_sided_antipode(algebra: FinHopfAlgebra):
    """Both antipode laws in one system: rows (i, r, left/right)."""
    n = algebra.dim
    as_right: list[dict] = [{} for _ in range(n)]
    as_left: list[dict] = [{} for _ in range(n)]
    for (a, b), vec in algebra._mult.items():
        for r, m in vec.items():
            as_right[b].setdefault(r, []).append((a, m))
            as_left[a].setdefault(r, []).append((b, m))
    eqs = SparseMatrix.zeros(algebra.field, 2 * n * n, n * n)
    for i in range(n):
        for c, j, k in algebra._comult.get(i, ()):
            for r, hits in as_right[k].items():
                for a, m in hits:
                    eqs.add(2 * (i * n + r), a * n + j, c * m)
            for r, hits in as_left[j].items():
                for a, m in hits:
                    eqs.add(2 * (i * n + r) + 1, a * n + k, c * m)
    rhs = tuple(algebra._counit[i] * algebra.unit_coeffs[r]
                for i in range(n) for r in range(n) for _ in (0, 1))
    sol = solve_linear(eqs, rhs)
    if sol is None:
        raise AxiomError("bialgebra admits no antipode")
    if not sol.unique:
        raise AxiomError("antipode equations are degenerate; tables are not a bialgebra")
    x = sol.particular
    return tuple(lc_canon({a: x[a * n + b] for a in range(n)}, algebra.field.reduce)
                 for b in range(n))


def all_pairs_closure(r: RMatrix) -> tuple[dict, ...]:
    """The span of 1 and R's legs closed under products, S and the slices of
    Delta, every product of the current basis inserted on every pass."""
    ops, field = r.algebra.ops, r.algebra.field
    # R's legs span the column space and the row space of its matrix
    rows: dict = {}
    cols: dict = {}
    for (i, j), c in r.tensor.items():
        rows.setdefault(i, {})[j] = c
        cols.setdefault(j, {})[i] = c
    span = EchelonBasis(field)
    for x in [ops.unit, *rows.values(), *cols.values()]:
        span.insert(x)
    while True:
        before = span.dim
        current = span.vectors
        for x in current:
            for y in current:
                span.insert(ops.mul_lc(x, y))
            span.insert(ops.s_lc(x))
            dx = ops.delta_lc(x)
            for leg in (0, 1):
                slices: dict = {}
                for pair, c in dx.items():
                    slices.setdefault(pair[leg], {})[pair[1 - leg]] = c
                for part in slices.values():
                    span.insert(part)
        if span.dim == before:
            return span.vectors


def as_obj(doc) -> dict:
    return json.loads(document_text(doc))


OBJECTS = {
    **{name: (lambda name=name: as_obj(preset_document(name))) for name in FINITE_PRESETS},
    "sweedler4_xi0": lambda: as_obj(preset_document("sweedler4", xi=0)),
    "kC3": lambda: cyclic_group_document(3),
    "kC8": lambda: cyclic_group_document(8),
    "D(kC2)": double_c2_document,
    "D(kC3)": permuted_double_c3_obj,
    "D(kC4)": double_c4_permuted_document,
    "H_4": lambda: laurent_quotient_document(4),
    "H_10": lambda: laurent_quotient_document(10),
}
# the inputs small enough to double every product and coproduct coefficient of
BUMPED = ("group:C2", "sweedler4", "kC3", "D(kC2)", "H_4")


def doubled(obj: dict, key: str, entry: int) -> dict:
    obj = json.loads(json.dumps(obj))
    value = obj[key][entry][3]
    twice = 2 * Fraction(str(value))
    obj[key][entry][3] = int(twice) if twice.denominator == 1 else str(twice)
    obj.pop("antipode", None)
    return obj


def bumped_tables():
    for name in BUMPED:
        obj = OBJECTS[name]()
        for key in ("mult", "comult"):
            for entry in range(len(obj[key])):
                yield f"{name}:{key}[{entry}]", doubled(obj, key, entry)


def outcome(solve, algebra):
    try:
        return solve(algebra)
    except AxiomError as exc:
        return f"AxiomError: {exc}"


def assert_solves_agree(obj: dict) -> str:
    """The unit and the antipode of obj's tables, against the references;
    returns the antipode outcome, or 'no unit'."""
    algebra = build_algebra(parse_document(obj))
    assert algebra.unit_coeffs == two_sided_unit(algebra)
    if algebra.unit_coeffs is None:
        return "no unit"
    got = outcome(compute_antipode, algebra)
    assert got == outcome(two_sided_antipode, algebra)
    return got if isinstance(got, str) else "antipode"


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_unit_and_antipode_match_the_two_sided_solves(name):
    assert assert_solves_agree(OBJECTS[name]()) == "antipode"


def test_bumped_tables_match_the_two_sided_solves():
    """Doubling one coefficient leaves a unit and an antipode, leaves no
    unit, or leaves no antipode; the degenerate system is reached by the
    tables of test_a_free_left_antipode_law_solves_both_laws."""
    seen = {assert_solves_agree(obj) for _, obj in bumped_tables()}
    assert seen == {"antipode", "no unit", "AxiomError: bialgebra admits no antipode"}


F3 = PrimeField(3)
# tables on {1, x} over F_3, unit e_0, whose left antipode law S(h1) h2 =
# eps(h) 1 has several solutions: (x^2, Delta(x), eps(x)) and the outcome of
# solving both laws together
DEGENERATE_LEFT_LAWS = [
    ({}, (), "AxiomError: antipode equations are degenerate; tables are not a bialgebra"),
    ({}, ((1, 0, 1), (1, 1, 1)), "AxiomError: bialgebra admits no antipode"),
    ({1: 1}, ((1, 1, 0), (2, 1, 1)), ({0: 1}, {1: 1})),
]


def spied_solves(monkeypatch) -> list[int]:
    calls, real = [], hopf.solve_linear

    def spy(a, b):
        calls.append(a.nrows)
        return real(a, b)

    monkeypatch.setattr(hopf, "solve_linear", spy)
    return calls


@pytest.mark.parametrize("x2, delta_x, expected", DEGENERATE_LEFT_LAWS)
def test_a_free_left_antipode_law_solves_both_laws(monkeypatch, x2, delta_x, expected):
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): x2}
    algebra = FinHopfAlgebra(F3, ("1", "x"), mult, {0: ((1, 0, 0),), 1: delta_x}, (1, 0),
                             unit=(1, 0))
    calls = spied_solves(monkeypatch)
    assert outcome(compute_antipode, algebra) == outcome(two_sided_antipode, algebra) == expected
    assert calls[:2] == [4, 8]  # the left law, then both: the fallback ran


def test_a_free_left_unit_law_leaves_no_unit(monkeypatch):
    """e_i e_j = e_j on two keys: every e_i is a left unit, so u e_j = e_j
    leaves u free.  A two-sided unit 1 would be its only solution (u = u 1
    = 1), so no second solve runs, and the two-sided system agrees."""
    calls = spied_solves(monkeypatch)
    algebra = FinHopfAlgebra(F3, ("a", "b"), {(i, j): {j: 1} for i in (0, 1) for j in (0, 1)},
                             {}, (1, 1))
    assert calls == [4]
    assert algebra.unit_coeffs is None and two_sided_unit(algebra) is None


coefficient = st.integers(0, 2)


@st.composite
def small_tables(draw, unital: bool):
    """Tables over F_3 on two or three keys with random coefficients; when
    unital, e_0 is a two-sided unit with Delta(e_0) = e_0 (x) e_0, and
    otherwise it may be a left unit, so that the right law decides."""
    n = draw(st.integers(2, 3))
    keys = [(i, j) for i in range(n) for j in range(n)]
    mult = {(i, j): {k: draw(coefficient) for k in range(n)} for i, j in keys
            if not (unital and 0 in (i, j))}
    if unital or draw(st.booleans()):
        mult.update({(0, j): {j: 1} for j in range(n)})
    if unital:
        mult.update({(j, 0): {j: 1} for j in range(n)})
    comult = {i: tuple((draw(coefficient), j, k) for j, k in keys) for i in range(n)}
    if unital:
        comult[0] = ((1, 0, 0),)
    counit = tuple(draw(coefficient) for _ in range(n))
    return FinHopfAlgebra(F3, tuple(map(str, range(n))), mult, comult, counit,
                          unit=(1,) + (0,) * (n - 1) if unital else None)


@settings(max_examples=300, deadline=None)
@given(algebra=small_tables(False))
def test_random_unit_solves_match_the_two_sided_solve(algebra):
    assert algebra.unit_coeffs == two_sided_unit(algebra)


@settings(max_examples=300, deadline=None)
@given(algebra=small_tables(True))
def test_random_antipode_solves_match_the_two_sided_solve(algebra):
    assert outcome(compute_antipode, algebra) == outcome(two_sided_antipode, algebra)


def r_matrices():
    """Each R-matrix input on its verified algebra; kC8 over F_5 with the
    R-matrix of its subgroup <g^2> = C4, whose L = kC4 is proper; and on kC8
    over QQ the invertible R = 1 (x) 1 + h (x) h, h = g^2 + g^6, which is
    not an R-matrix: its legs span no subcoalgebra, so R^-1 is solved for
    and only the slices g^2, g^6 of Delta(h) make the closure kC4."""
    for name in ("group:C2", "group:C4", "sweedler4", "sweedler4_xi0", "kC8",
                 "D(kC2)", "D(kC3)", "D(kC4)"):
        doc = parse_document(OBJECTS[name]())
        algebra = verified(doc)
        yield name, RMatrix.from_entries(algebra, doc.r_entries)
    f5 = PrimeField(5)
    c8 = verified(parse_document(cyclic_group_document(8) | {"field": f5.spec()}))
    yield "kC8/F_5", RMatrix.from_entries(
        c8, [(f5.parse(4) * f5.parse(2) ** (-x * y % 4), 2 * x, 2 * y)
             for x in range(4) for y in range(4)])
    c8 = verified(parse_document(cyclic_group_document(8)))
    yield "kC8/1+hh", RMatrix.from_entries(
        c8, [(1, 0, 0)] + [(1, x, y) for x in (2, 6) for y in (2, 6)])


def test_read_off_inverse_and_closure_match_the_solve_and_all_pairs():
    proper = 0
    for name, r in r_matrices():
        algebra = r.algebra
        assert lc_eq(r.inverse, Tensor2.invert(algebra, r.tensor)), name
        sub = minimal_subhopf(r, cofrobenius_data(algebra))
        assert sub.basis_in_parent == all_pairs_closure(r), name
        proper += sub.algebra.dim < algebra.dim
    # L = k for the three trivial R, kC2 in sweedler4 at xi = 0, kC4 in kC8
    assert proper == 6
