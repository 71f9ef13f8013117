"""The key grids of the axiom batteries against their per-cell definitions.

hopf.associativity and the two multiplicativity laws of a braiding are
grids over all K^3 key triples; the multiplicativity of Delta and eps,
the commutation relation and the two convolution-inverse laws are grids
over the K^2 key pairs.  hopf_axiom_checks and braiding_axiom_checks evaluate
them over the product and coproduct tables of their BasisOps, built once
per BasisOps (lincomb.KernelTables), and sigma tables filled once per call,
adding field values as plain numbers, and run the triple grids one (h, l)
row at a time.  The naive predicates below are the
per-cell definitions those kernels replaced, each cell reduced through the
field; the kernels must report the same status and witness, also on
perturbed carriers (perturbed values are reduced as the program's are),
must evaluate sigma far less often, and must leave no field arithmetic per
cell.

On a finite algebra the three triple grids and the Delta and eps
multiplicativity grids first run only the rows of a generating set S of
keys (lincomb.generators), read off the product the battery reads: (s, l)
rows, and (h, s) rows for sigma's second law.  sigma's laws reduce only
when associativity holds on the S-rows and coassociativity on the keys
(lincomb.braiding_generators).  A pass on the S-rows is the verdict; a
fail reruns every row, so the witness is the exhaustive one.  A Laurent
window, whose products leave it, keeps its K^2 rows and K^3 points.  The
differential over CARRIERS includes H_10 over F_10007 (S = 3 of 20 keys)
and a permuted D(kC4) (6 of 16), and the hypothesis perturbations run on
every carrier, so a reduced verdict is compared with the per-cell one
also where the premises fail.  The batteries run here as a verify runs
them: the braiding battery reads the S proof that the Hopf battery left
with the tables of the same BasisOps when every line passed
(KernelTables.proof); a dataclasses.replace'd copy has none.

Seven more pair laws (LAWS) run their S-rows first once their premise has
passed in the same run: the two exchange identities and chi's and a
character's multiplicativity on (s, l), the Nakayama law on (m, s) once
chi is multiplicative, and the commutation relation and
antipode_square_invariance on (s, l) once sigma's first law passes.  Their
reduced lines must equal the exhaustive ones on every LAW_CARRIERS entry
(CARRIERS and the finite ones' duals), also under perturbations of
lambda, chi, sigma and the character; where the premise fails, the law
must run every row.

Every pair law is a row kernel: lincomb.row_grid calls it once per row h
with the columns, and it names the first failing column.  Their per-pair
definitions are kept here (lc_law_predicates, KERNEL_LAWS: the scalar laws
too, the product formula, the three sigma^-1 formulas and the flip's
involution), and each kernel must report their verdict and witness, with
and without generator rows, under bumps of a product, lambda, chi, sigma,
sigma^-1 and a character, and at a Laurent window's edge, where coproduct
legs, products and antipode images leave the keys.  A passing point
reaches grid_check as the one shared cell lincomb.PASSED.
"""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import cofrobenius, coquasitriangular, laurent, lincomb
from hopfcheck.cofrobenius import (
    cofrobenius_data,
    integral_exchange_checks,
    lam_mul_table,
    nakayama_checks,
    product_formula_check,
)
from hopfcheck.coquasitriangular import (
    Braiding,
    braiding_axiom_checks,
    braiding_from_matrix,
    dualize_qt,
    flip_braiding,
    flip_braiding_checks,
)
from hopfcheck.cli import main
from hopfcheck.document import build_algebra, document_text, parse_document
from hopfcheck.hopf import require_passing, verify_hopf
from hopfcheck.lincomb import (
    hopf_axiom_checks,
    is_character_fn,
    lc_canon,
    lc_eq,
    memo_fn,
    tensor2_mul,
)
from hopfcheck.linalg import SparseMatrix, rank
from hopfcheck.presets import cyclic_group_document, preset_document, sweedler_document
from hopfcheck.quasitriangular import RMatrix, drinfeld_elements
from hopfcheck.report import PASS, failed, grid_check
from hopfcheck.scalars import PrimeField
from test_golden import (
    double_c2_document,
    double_c4_permuted_document,
    laurent_quotient_document,
)
from test_scalars import CountingField

TRIPLE_CHECKS = ("hopf.associativity", "cqt.multiplicative_first_argument",
                 "cqt.multiplicative_second_argument")
PAIR_CHECKS = ("hopf.comultiplication_multiplicative", "hopf.counit_multiplicative",
               "cqt.commutation_relation", "cqt.convolution_inverse_left",
               "cqt.convolution_inverse_right")


# -- the per-triple definitions ---------------------------------------------------


def naive_associativity(ops):
    return lambda t: lc_eq(ops.mul_lc(ops.mul(t[0], t[1]), ops.single(t[2])),
                           ops.mul_lc(ops.single(t[0]), ops.mul(t[1], t[2])))


def naive_mult_first(ops, br):
    def holds(t) -> bool:
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
        return not ops.field.reduce(lhs - rhs)

    return holds


def naive_mult_second(ops, br):
    def holds(t) -> bool:
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
        return not ops.field.reduce(lhs - rhs)

    return holds


def naive_delta_multiplicative(ops):
    def holds(pair) -> bool:
        a, b = pair
        lhs = ops.delta_lc(ops.mul(a, b))
        rhs = tensor2_mul(ops, dict(ops.delta_lc(ops.single(a))),
                          dict(ops.delta_lc(ops.single(b))))
        return lc_eq(lhs, rhs)

    return holds


def naive_counit_multiplicative(ops):
    return lambda pair: not ops.field.reduce(
        ops.eps_lc(ops.mul(*pair)) - ops.eps(pair[0]) * ops.eps(pair[1]))


def naive_commutation(ops, br):
    def holds(pair) -> bool:
        h, l = pair
        lhs, rhs = {}, {}
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
        return lc_canon(lhs, ops.field.reduce) == lc_canon(rhs, ops.field.reduce)

    return holds


def naive_conv_pair(ops, first, second):
    def holds(pair) -> bool:
        h, l = pair
        acc = ops.zero
        for c1, h1, h2 in ops.delta(h):
            for c2, l1, l2 in ops.delta(l):
                f = first(h1, l1)
                if not f:
                    continue
                g = second(h2, l2)
                if g:
                    acc = acc + c1 * c2 * f * g
        return not ops.field.reduce(acc - ops.eps(h) * ops.eps(l))

    return holds


def lc_add(ops, a, b):
    """a + b in ops.field."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return lc_canon(out, ops.field.reduce)


def triples(ops):
    return [(h, l, m) for h in ops.keys for l in ops.keys for m in ops.keys]


def key_pairs(ops):
    return [(h, l) for h in ops.keys for l in ops.keys]


def cell_label(ops, cell) -> str:
    """A grid point as its witness names it: "(<h>, <l>)" or "(<h>, <l>, <m>)"."""
    return f"({', '.join(map(ops.label, cell))})"


def naive_predicates(ops, br) -> dict:
    return dict(zip(TRIPLE_CHECKS, (naive_associativity(ops), naive_mult_first(ops, br),
                                    naive_mult_second(ops, br))))


def naive_pair_predicates(ops, br) -> dict:
    return dict(zip(PAIR_CHECKS, (naive_delta_multiplicative(ops),
                                  naive_counit_multiplicative(ops), naive_commutation(ops, br),
                                  naive_conv_pair(ops, br.value, br.inverse),
                                  naive_conv_pair(ops, br.inverse, br.value))))


def naive_results(ops, br) -> dict:
    grid, pairs = triples(ops), key_pairs(ops)
    out = {name: grid_check(name, grid, holds, lambda t: f"at {cell_label(ops, t)}")
           for name, holds in naive_predicates(ops, br).items()}
    out.update({name: grid_check(name, pairs, holds, lambda p: f"at {cell_label(ops, p)}")
                for name, holds in naive_pair_predicates(ops, br).items()})
    return out


def hopf_battery(ops) -> tuple[list, tuple | None]:
    """The Hopf battery on ops, and the S proof the tables of ops keep once
    it passes in full, the generators the battery derived; else None."""
    return hopf_axiom_checks(ops), ops.tables.proof


def planned_results(ops, br) -> dict:
    """Both batteries as a verify runs them: the braiding battery reads the
    S proof the Hopf battery leaves with ops' tables when it passes in full."""
    results = hopf_axiom_checks(ops) + braiding_axiom_checks(ops, br)
    return {r.name: r for r in results if r.name in TRIPLE_CHECKS + PAIR_CHECKS}


# -- carriers ---------------------------------------------------------------------


def document_algebra(obj):
    doc = parse_document(obj)
    algebra = build_algebra(doc)
    require_passing(verify_hopf(algebra))
    return doc, algebra


def dual_braiding(algebra, r):
    """The dual of algebra, verified, with sigma(f, g) = (f x g)(R)."""
    qt, _ = drinfeld_elements(r)
    dual, br, _ = dualize_qt(r, qt)
    require_passing(verify_hopf(dual))
    return dual, br


CARRIERS = ("sweedler", "dual_sweedler", "c4", "double_c2", "double_c2_dual",
            "h4_f10007", "laurent3", "h10_f10007", "double_c4", "sweedler_sheared")
SWEEDLER_SIGMA = [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def sheared(doc, i: int, j: int, sigma):
    """doc, and the value rows sigma, on the basis with e_i replaced by
    e_i + e_j.  Where every table of doc has one term per entry, the
    sheared ones have several: products, coproducts, the Nakayama map and
    the kernels' sums then combine terms."""
    ops = build_algebra(doc).ops
    new = lambda k: {k: 1, j: 1} if k == i else {k: 1}  # a new key in the old basis

    def to_new(lc) -> dict:
        out: dict = {}
        for k, c in lc.items():
            out[k] = out.get(k, 0) + c
            if k == i:
                out[j] = out.get(j, 0) - c
        return {k: c for k, c in out.items() if c}

    def pairs_to_new(t) -> dict:
        out: dict = {}
        for (a, b), c in t.items():
            for (ka, va), (kb, vb) in product(to_new({a: c}).items(), to_new({b: 1}).items()):
                out[ka, kb] = out.get((ka, kb), 0) + va * vb
        return out

    keys = range(len(doc.basis))
    value = lambda f, a: sum(c * f(k) for k, c in new(a).items())
    return dataclasses.replace(
        doc, name=f"{doc.name}[e_{i} + e_{j}]",
        basis=tuple(f"({x}+{doc.basis[j]})" if k == i else x for k, x in enumerate(doc.basis)),
        mult=tuple((a, b, r, c) for a in keys for b in keys
                   for r, c in to_new(ops.mul_lc(new(a), new(b))).items()),
        comult=tuple((a, k1, k2, c) for a in keys
                     for (k1, k2), c in pairs_to_new(ops.delta_lc(new(a))).items() if c),
        counit=tuple(value(ops.eps, a) for a in keys),
        antipode=tuple((r, a, c) for a in keys for r, c in to_new(ops.s_lc(new(a))).items()),
        r_entries=tuple((c, a, b) for (a, b), c in pairs_to_new(
            {(a, b): c for c, a, b in doc.r_entries}).items() if c),
        characters={name: tuple(value(v.__getitem__, a) for a in keys)
                    for name, v in doc.characters.items()},
        grouplikes={name: tuple(to_new(dict(enumerate(v))).get(a, 0) for a in keys)
                    for name, v in doc.grouplikes.items()}), [
        [sum(c * d * sigma[k][l] for k, c in new(a).items() for l, d in new(b).items())
         for b in keys] for a in keys]


def carrier_source(name, sweedler=None, sweedler_r=None, c4=None):
    """(algebra, braiding) of a named carrier: a verified FinHopfAlgebra, or
    the BasisOps of a Laurent window; the braiding need not pass."""
    if name == "sweedler":
        # the Laurent family's sigma on its quotient g^2 = 1
        return sweedler, braiding_from_matrix(sweedler, SWEEDLER_SIGMA)[0]
    if name == "sweedler_sheared":  # the same on the basis (1, 1 + g, x, gx)
        doc, rows = sheared(sweedler_document(), 1, 0, SWEEDLER_SIGMA)
        algebra = build_algebra(doc)
        require_passing(verify_hopf(algebra))
        return algebra, braiding_from_matrix(algebra, rows)[0]
    if name == "dual_sweedler":
        return dual_braiding(sweedler, sweedler_r)
    if name == "c4":
        rows = [[(-1) ** (i * j) for j in range(4)] for i in range(4)]
        return c4, braiding_from_matrix(c4, rows)[0]
    if name in ("double_c2", "double_c4"):  # sigma = eps (x) eps, D(kC_n) is commutative
        _, double = document_algebra(double_c2_document() if name == "double_c2"
                                     else double_c4_permuted_document())
        return double, counit_braiding(double.ops)
    if name == "double_c2_dual":
        doc, double = document_algebra(double_c2_document())
        return dual_braiding(double, RMatrix.from_entries(double, doc.r_entries))
    if name.endswith("_f10007"):  # h<n>_f10007
        doc, algebra = document_algebra(laurent_quotient_document(int(name[1:-7])))
        return algebra, braiding_from_matrix(algebra, doc.sigma)[0]
    if name.startswith("laurent"):  # laurent<window>
        ops = laurent.basis_ops(int(name.removeprefix("laurent")))
        return ops, laurent.braiding(ops)
    raise ValueError(name)


def carrier(name, sweedler=None, sweedler_r=None, c4=None):
    """(ops, braiding) of a named carrier; the braiding need not pass."""
    algebra, br = carrier_source(name, sweedler, sweedler_r, c4)
    return getattr(algebra, "ops", algebra), br


def counit_braiding(ops) -> Braiding:
    """sigma = eps (x) eps, its own convolution inverse; a braiding exactly
    when the product is commutative."""
    value = lambda x, y: ops.field.reduce(ops.eps(x) * ops.eps(y))
    return Braiding(ops, value=value, inverse=value)


@pytest.fixture(scope="module", params=CARRIERS)
def grid_carrier(request, sweedler, sweedler_r, c4):
    return carrier(request.param, sweedler, sweedler_r, c4)


def spy_row_grids(monkeypatch) -> tuple[dict, dict, dict, dict]:
    """Record, per triple or pair grid, its row kernel (first_failure) and,
    for each grid_check it runs (the generator rows, then every row when
    they fail), the calls of that kernel and of its grid_check predicate
    (one call per point, as the trace counts them; a triple grid's count
    starts afresh with each battery, a pair grid's runs on); and, per grid
    name, the ids of the cells its predicate passed."""
    kernels, rows, points, passed = {}, {}, {}, {}
    real_grid_check = lincomb.grid_check

    def counting(real, fresh):
        def counting_check(name, ops, first_failure, *args, **kwargs):
            kernels[name], rows[name] = first_failure, []
            points[name] = [] if fresh else points.get(name, [])

            def counted(*args):
                rows[name][-1] += 1
                return first_failure(*args)

            return real(name, ops, counted, *args, **kwargs)

        return counting_check

    def counting_grid_check(name, items, predicate, describe):
        points.setdefault(name, []).append(0)
        if name in rows:
            rows[name].append(0)

        def counted(item):
            points[name][-1] += 1
            ok = predicate(item)
            if ok:
                passed.setdefault(name, set()).add(id(item))
            return ok

        return real_grid_check(name, items, counted, describe)

    for entry in ("triple_grid_check", "pair_check"):
        spy = counting(getattr(lincomb, entry), entry == "triple_grid_check")
        for module in (lincomb, coquasitriangular, cofrobenius):
            if hasattr(module, entry):
                monkeypatch.setattr(module, entry, spy)
    monkeypatch.setattr(lincomb, "grid_check", counting_grid_check)
    return kernels, rows, points, passed


def generator_rows(ops, name):
    """The (h, l) rows a triple grid of the batteries runs first on ops, or
    None when it runs every row: (s, l), or (h, s) for sigma's second law,
    over generators read off the product table ops.mul gives, or the S
    proof of ops' tables, where () reduces nothing."""
    gens = (lincomb.generators if name == "hopf.associativity"
            else lincomb.braiding_generators)(ops)
    if not gens:
        return None
    if name == "cqt.multiplicative_second_argument":
        return list(product(ops.keys, gens))
    return list(product(gens, ops.keys))


# -- the planned grids report what the definitions report ------------------------------


def test_planned_grids_match_per_triple_definitions(grid_carrier):
    ops, br = grid_carrier
    assert planned_results(ops, br) == naive_results(ops, br)


@settings(max_examples=20, deadline=None)
@given(which=st.sampled_from(["sigma", "product"]), i=st.integers(0, 63),
       j=st.integers(0, 63), bump=st.sampled_from([-2, -1, 1, 3]))
def test_perturbed_carrier_fails_at_the_same_triple(grid_carrier, which, i, j, bump):
    ops, br = grid_carrier
    spot = (ops.keys[i % len(ops.keys)], ops.keys[j % len(ops.keys)])
    if which == "sigma":
        value = br.value
        br = dataclasses.replace(
            br, value=lambda x, y: (ops.field.reduce(value(x, y) + bump) if (x, y) == spot
                                    else value(x, y)))
    else:
        mul = ops.mul

        def bumped(x, y):
            out = dict(mul(x, y))
            if (x, y) == spot:
                k = next(iter(out), x)
                out[k] = ops.field.reduce(out.get(k, ops.zero) + bump)
            return out

        ops = dataclasses.replace(ops, mul=bumped)
    assert planned_results(ops, br) == naive_results(ops, br)


def test_row_kernels_find_the_first_failure_from_any_start(monkeypatch):
    """Asked for the suffix keys[i:] of a row, in any order of rows and of
    starts i, a row kernel names the first m at or after i at which the
    per-triple definition fails, so every triple's verdict is compared
    with its definition."""
    ops = laurent.basis_ops(2)
    value = laurent.sigma_value
    spots = {((0, 0), (1, 0)), ((-1, 0), (2, 0)), ((1, 1), (0, 0))}
    br = Braiding(ops, value=lambda x, y: value(x, y) + 1 if (x, y) in spots else value(x, y),
                  inverse=value)
    mul = ops.mul
    ops = dataclasses.replace(
        ops, mul=lambda x, y: {(0, 0): 1} if (x, y) == ((1, 0), (-1, 1)) else mul(x, y))
    kernels, _, _ = spy_row_grids(monkeypatch)[:3]
    planned = planned_results(ops, br)
    assert not any(planned[name].ok for name in TRIPLE_CHECKS)
    keys = ops.keys
    rng = random.Random(5)
    rows = [(h, l) for h in keys for l in keys]
    for name, naive in naive_predicates(ops, br).items():
        first_failure = kernels[name]
        rng.shuffle(rows)
        repeated = 0  # rows that fail again after their first failure
        for h, l in rows:
            bad = [i for i, m in enumerate(keys) if not naive((h, l, m))]
            repeated += len(bad) > 1
            for i in rng.sample(range(len(keys)), len(keys)):
                expected = next((keys[j] for j in bad if j >= i), None)
                assert first_failure(h, l, keys[i:]) == expected, (name, h, l, i)
        assert repeated, name


# -- work count ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["laurent4", "double_c2_dual", "h4_f10007"])
def test_braiding_grids_evaluate_each_sigma_pair_once(name, monkeypatch):
    ops, br = carrier(name)
    calls = []

    def spy(x, y):
        calls.append((x, y))
        return br.value(x, y)

    _, rows, points = spy_row_grids(monkeypatch)[:3]
    results = hopf_axiom_checks(ops) + braiding_axiom_checks(
        ops, dataclasses.replace(br, value=spy))
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    # one row kernel call per (h, l) row it runs, and the traced points
    # keep their meaning: one predicate call per triple.  The window runs
    # all K^2 rows; the finite carrier's generator rows decide the pass.
    k = len(ops.keys)
    for check_name in TRIPLE_CHECKS:
        reduced = generator_rows(ops, check_name)
        # products leave laurent4's window; double_c2_dual needs every key
        assert (reduced is None) == (name != "h4_f10007"), check_name
        n = k ** 2 if reduced is None else len(reduced)
        assert rows[check_name] == [n], check_name
        assert points[check_name] == [n * k], check_name
    assert len(calls) == len(set(calls))

    # the per-triple definitions evaluate sigma on every term of every triple
    naive_calls = [0]

    def counted_value(x, y):
        naive_calls[0] += 1
        return br.value(x, y)

    counted_br = dataclasses.replace(br, value=counted_value)
    for check_name in TRIPLE_CHECKS[1:]:
        holds = naive_predicates(ops, counted_br)[check_name]
        assert all(holds(t) for t in triples(ops))
    assert naive_calls[0] > 10 * len(calls)


@pytest.mark.parametrize("name", ["laurent4", "double_c2_dual", "h4_f10007", "double_c4"])
def test_failing_triple_grid_counts_points_up_to_its_witness(name, monkeypatch):
    """Perturbed at one product and one sigma value, each triple grid, and
    the pair grid of Delta's multiplicativity, fails at the first point
    whose definition fails: its predicate is called once per point up to
    and including that one, and its row kernel once per row up to that
    point's row.  Every passing point of a grid is one shared cell."""
    ops, br = carrier(name)
    keys = ops.keys
    spot = (keys[len(keys) // 2], keys[len(keys) // 3])
    value, mul = br.value, ops.mul
    br = dataclasses.replace(
        br, value=lambda x, y: (ops.field.reduce(value(x, y) + 1) if (x, y) == spot
                                else value(x, y)))

    def bumped(x, y):
        out = dict(mul(x, y))
        if (x, y) == spot:
            k = next(iter(out), x)
            out[k] = ops.field.reduce(out.get(k, ops.zero) + 1)
        return out

    ops = dataclasses.replace(ops, mul=bumped)
    grid = triples(ops)
    _, rows, points, passed = spy_row_grids(monkeypatch)
    planned = planned_results(ops, br)
    for check_name, naive in naive_predicates(ops, br).items():
        position = next(i for i, t in enumerate(grid) if not naive(t))
        assert planned[check_name].witness == f"at {cell_label(ops, grid[position])}"
        # the generator rows, when there are any, fail first, and then every
        # row runs up to the witness
        reduced = generator_rows(ops, check_name)
        first = [] if reduced is None else [next(
            i for i, t in enumerate((h, l, m) for h, l in reduced for m in keys)
            if not naive(t))]
        assert points[check_name] == [i + 1 for i in first + [position]], check_name
        assert rows[check_name] == [i // len(keys) + 1 for i in first + [position]], check_name
        assert passed[check_name] == {id(lincomb.PASSED)}, check_name
    # associativity fails, so Delta's multiplicativity runs every row, once
    check_name, pairs = "hopf.comultiplication_multiplicative", key_pairs(ops)
    position = next(i for i, p in enumerate(pairs) if not naive_delta_multiplicative(ops)(p))
    assert planned[check_name].witness == f"at {cell_label(ops, pairs[position])}"
    assert points[check_name] == [position + 1]
    assert rows[check_name] == [position // len(keys) + 1]
    assert passed[check_name] == ({id(lincomb.PASSED)} if position else set())


def test_generators_are_read_off_the_product_the_battery_reads(c4, monkeypatch):
    """The Hopf battery derives S from the product table it reads, once,
    and keeps that S as the proof of ops' tables once it passes in full;
    the braiding battery on the same ops derives none.  On kC4 S is
    (1, g).  A copy of its BasisOps whose g g has coefficient 0 no longer
    reaches g^2 from g, so there g^2 joins S; that copy fails the Hopf
    battery, so it holds no proof, the braiding battery derives its own,
    and the verdicts still match the definitions."""
    seen, real = [], lincomb.generators
    monkeypatch.setattr(lincomb, "generators",
                        lambda ops: seen.append(real(ops)) or seen[-1])
    ops, br = carrier("c4", c4=c4)
    g, g2 = ops.keys[1:3]
    _, gens = hopf_battery(ops)
    assert gens == ops.keys[:2] and seen == [gens]
    braiding_axiom_checks(ops, br)
    assert seen == [gens]
    seen.clear()
    mul = ops.mul
    zeroed = dataclasses.replace(
        ops, mul=lambda x, y: {g2: ops.zero} if (x, y) == (g, g) else mul(x, y))
    assert planned_results(zeroed, br) == naive_results(zeroed, br)
    assert seen == [ops.keys[:3]] * 2  # the Hopf battery's, then the braiding battery's


def test_standalone_braiding_battery_derives_s_and_checks_its_premises(c4, monkeypatch):
    """On a BasisOps without a proof (a copy of kC4's), braiding_axiom_checks
    derives S and checks associativity on its rows and coassociativity
    itself, so its triple grids still reduce; its pair laws then run every
    row.  On kC4's own BasisOps, whose verified Hopf battery left the proof
    (1, g), it checks no premise and the pair laws reduce too."""
    ops, br = carrier("c4", c4=c4)
    derived, premises, real = [], [], lincomb.braiding_generators

    def spy(ops):
        derived.append(ops.tables.proof)
        return real(ops)

    real_assoc, real_coassoc = lincomb.associativity_rows, lincomb.coassociative
    monkeypatch.setattr(lincomb, "associativity_rows",
                        lambda ops: premises.append("associativity") or real_assoc(ops))
    monkeypatch.setattr(lincomb, "coassociative",
                        lambda ops: premises.append("coassociativity") or real_coassoc(ops))
    monkeypatch.setattr(coquasitriangular, "braiding_generators", spy)
    _, _, points = spy_row_grids(monkeypatch)[:3]
    standalone = braiding_axiom_checks(dataclasses.replace(ops), br)
    assert derived == [None] and premises == ["associativity", "coassociativity"]
    k, s = len(ops.keys), 2
    assert points["cqt.multiplicative_first_argument"] == [s * k * k]
    assert points["cqt.commutation_relation"] == [k * k]
    premises.clear()
    assert ops.tables.proof == ops.keys[:s]
    handed = braiding_axiom_checks(ops, br)
    assert handed == standalone and premises == []
    assert points["cqt.multiplicative_first_argument"] == [s * k * k]
    assert points["cqt.commutation_relation"] == [k * k, s * k]


def test_braiding_laws_reduce_only_under_their_premises(c4):
    """Bumping g^3 1 to 2 g^3 on kC4 keeps S = (1, g) but breaks
    associativity on a generator row, at (g, g^2, 1).  Both sigma laws then
    pass on the generator rows while their definitions fail, so the grids
    must run every row: braiding_generators declines to reduce."""
    ops, br = carrier("c4", c4=c4)
    one, g3 = ops.keys[0], ops.keys[3]
    mul = ops.mul
    ops = dataclasses.replace(
        ops, mul=lambda x, y: {g3: ops.one + ops.one} if (x, y) == (g3, one) else mul(x, y))
    assert lincomb.generators(ops) == ops.keys[:2]
    assert lincomb.braiding_generators(ops) is None
    planned = planned_results(ops, br)
    assert planned == naive_results(ops, br)
    assert planned["cqt.multiplicative_first_argument"].witness == "at (g^3, 1, 1)"
    assert planned["cqt.multiplicative_second_argument"].witness == "at (1, g^3, 1)"


def test_raw_sums_that_agree_mod_p_pass():
    """Over F_7 the braiding (-1)^(ij) of kC4 holds -1 as 6, so at (g, g, g)
    the first multiplicativity law adds sigma(g^2, g) = 1 on one side and
    sigma(g, g) sigma(g, g) = 36 on the other: the raw sums differ by a
    multiple of 7, and the cell holds.  The kernels reduce once per cell
    and must PASS wherever the definitions in F_7 do."""
    f7 = CountingField(7)
    algebra = build_algebra(cyclic_group_document(4, f7))
    require_passing(verify_hopf(algebra))
    rows = [[f7.reduce((-1) ** (i * j)) for j in range(4)] for i in range(4)]
    ops, br = algebra.ops, braiding_from_matrix(algebra, rows)[0]
    f7.reduced.clear()
    planned = planned_results(ops, br)
    sums = list(f7.reduced)
    assert planned == naive_results(ops, br)
    assert all(r.status == PASS for r in planned.values())
    assert any(n and n % 7 == 0 for n in sums)


def test_a_row_whose_raw_sides_differ_only_by_multiples_of_p_passes(monkeypatch):
    """On kC4 over F_7 with the braiding (-1)^(ij), the row (g, g) of the
    first multiplicativity law has the raw sides sigma(g^2, m) = 1 and
    sigma(g, m)^2, which is 36 at m = g and m = g^3.  The two sparse sides
    differ as ints, so the kernel reduces each difference, finds every
    residue 0 and passes the row."""
    f7 = CountingField(7)
    algebra = build_algebra(cyclic_group_document(4, f7))
    require_passing(verify_hopf(algebra))
    rows = [[f7.reduce((-1) ** (i * j)) for j in range(4)] for i in range(4)]
    ops, br = algebra.ops, braiding_from_matrix(algebra, rows)[0]
    kernels, _, _ = spy_row_grids(monkeypatch)[:3]
    planned_results(ops, br)
    g = ops.keys[1]
    f7.reduced.clear()
    assert kernels["cqt.multiplicative_first_argument"](g, g, ops.keys) is None
    sums = f7.reduced
    assert sums.count(1 - 36) == 2 and not any(n % 7 for n in sums)


@pytest.mark.parametrize("name", TRIPLE_CHECKS[1:])
def test_a_row_failing_at_two_columns_names_the_earlier(name, monkeypatch):
    """sigma bumped at (g^-3, g^-2) and (g^-3, g) on a Laurent window fails
    the first failing row of each sigma law at two or more columns; the
    witness is the first of them in key order, and asked for the columns
    in reverse order the row kernel names the last."""
    ops = laurent.basis_ops(3)
    value, spots = laurent.sigma_value, {((-3, 0), (-2, 0)), ((-3, 0), (1, 0))}
    br = Braiding(ops, value=lambda x, y: value(x, y) + 1 if (x, y) in spots else value(x, y),
                  inverse=value)
    kernels, _, _ = spy_row_grids(monkeypatch)[:3]
    planned = planned_results(ops, br)
    naive, keys = naive_predicates(ops, br)[name], ops.keys
    h, l = next((h, l) for h in keys for l in keys if not all(naive((h, l, m)) for m in keys))
    bad = [m for m in keys if not naive((h, l, m))]
    assert len(bad) >= 2
    assert planned[name].witness == f"at {cell_label(ops, (h, l, bad[0]))}"
    assert kernels[name](h, l, keys[::-1]) == bad[-1]


def test_a_proof_with_nothing_to_reduce_is_not_derived_again(tmp_path, monkeypatch):
    """The dual of kC8 needs every key in S.  dualize_qt gives it (): the
    proof its Hopf battery, which passes, keeps too, proved with nothing to
    reduce.  Its braiding battery takes that as is, so a verify of kC8 reads
    generators off three products (kC8, the minimal subHopf algebra k, the
    dual), not four, and the dual's grids run every row."""
    seen, real = [], lincomb.generators
    monkeypatch.setattr(lincomb, "generators",
                        lambda ops: seen.append((len(ops.keys), real(ops))) or seen[-1][1])
    path = tmp_path / "c8.json"
    path.write_text(document_text(cyclic_group_document(8)), encoding="utf-8")
    assert main(["verify", str(path), "--json"]) == 0
    assert seen == [(8, (0, 1)), (1, None), (8, None)]
    dual = build_algebra(cyclic_group_document(8)).dual()
    assert all(r.ok for r in verify_hopf(dual)) and dual.ops.tables.proof == ()
    _, rows, _ = spy_row_grids(monkeypatch)[:3]
    braiding_axiom_checks(dual.ops, counit_braiding(dual.ops))
    assert rows["cqt.multiplicative_first_argument"] == [8 * 8]


@pytest.mark.parametrize("source, builds, fills", [
    (["preset:laurent", "--window", "9"], 1, 4218),
    (["preset:group:C4"], 3, 33),
])
def test_a_verify_builds_one_table_set_per_basis_ops(source, builds, fills, monkeypatch):
    """Every battery of a carrier, and every LC helper of its BasisOps,
    reads the one KernelTables of that BasisOps, so a verify builds one per
    BasisOps and fills each product tuple once: one on the Laurent window 9
    (4,218 distinct products, every pair the whole verify reads), three on
    kC4 (kC4, its minimal subHopf algebra k and the dual: 16 + 1 + 16
    products)."""
    built, fills_seen = [], []
    real = lincomb.KernelTables.__init__

    def init(self, ops):
        real(self, ops)
        built.append(ops)
        fill = self.prod.fn
        self.prod.fn = lambda x, y, n=len(built): fills_seen.append((n, x, y)) or fill(x, y)

    monkeypatch.setattr(lincomb.KernelTables, "__init__", init)
    assert main(["verify", *source, "--json"]) == 0
    assert len(built) == len({id(ops) for ops in built}) == builds
    assert len(fills_seen) == len(set(fills_seen)) == fills


def test_the_s_proof_stays_with_its_structure(c4, tmp_path, monkeypatch):
    """kC4's verified Hopf battery left the proof (1, g) with the tables of
    its BasisOps.  A dataclasses.replace'd copy with g g = 0 g^2 builds
    its own tables and holds no proof, so its braiding battery derives its
    own S, and its verdicts are still the definitions'.  kC4 with S = id
    passes associativity but not the antipode laws, and leaves no proof.
    A document whose antipode matrix is singular fails
    hopf.antipode_invertible, its battery
    runs on a copy without S^-1, and it leaves no proof; verify reports it
    and exits 1.  A Laurent window's Hopf battery leaves (): every row of
    the triple and pair grids still runs."""
    ops, br = carrier("c4", c4=c4)
    assert ops.tables.proof == ops.keys[:2]
    g, g2 = ops.keys[1:3]
    mul = ops.mul
    copy = dataclasses.replace(
        ops, mul=lambda x, y: {g2: ops.zero} if (x, y) == (g, g) else mul(x, y))
    assert copy.tables is not ops.tables and copy.tables.proof is None
    seen, real = [], lincomb.generators
    monkeypatch.setattr(lincomb, "generators", lambda ops: seen.append(real(ops)) or seen[-1])
    results = {r.name: r for r in braiding_axiom_checks(copy, br)}
    assert seen == [ops.keys[:3]]
    naive = naive_results(copy, br)
    assert {name: results[name] for name in naive if name.startswith("cqt.")} == {
        name: line for name, line in naive.items() if name.startswith("cqt.")}
    assert ops.tables.proof == ops.keys[:2]

    # S = id on kC4: invertible and associative, but no antipode
    wrong = build_algebra(dataclasses.replace(
        preset_document("group:C4"), antipode=tuple((k, k, 1) for k in range(4))))
    results = {r.name: r for r in verify_hopf(wrong)}
    assert results["hopf.associativity"].ok and results["hopf.antipode_invertible"].ok
    assert not results["hopf.antipode_laws"].ok and wrong.ops.tables.proof is None

    doc = preset_document("group:C4")
    doc = dataclasses.replace(doc, antipode=((0, 0, 1), (0, 1, 1), (2, 2, 1), (1, 3, 1)))
    algebra = build_algebra(doc)
    results = {r.name: r for r in verify_hopf(algebra)}
    assert results["hopf.antipode_invertible"] == failed("hopf.antipode_invertible",
                                                         "antipode matrix is singular")
    assert "hopf.antipode_bijective" not in results
    assert algebra.ops.tables.proof is None
    path = tmp_path / "singular.json"
    path.write_text(document_text(doc), encoding="utf-8")
    assert main(["verify", str(path), "--json"]) == 1

    ops, br = carrier("laurent4")
    _, rows, points = spy_row_grids(monkeypatch)[:3]
    results = hopf_axiom_checks(ops) + braiding_axiom_checks(ops, br)
    assert all(r.ok for r in results) and ops.tables.proof == ()
    k = len(ops.keys)
    assert all(rows[name] == [k * k] for name in TRIPLE_CHECKS), rows
    assert all(points[name] == [k * k] for name in PAIR_CHECKS), points


@pytest.mark.parametrize("n", [4, 8])
def test_axiom_batteries_do_no_field_arithmetic_per_cell(n, monkeypatch):
    """On H_n over F_10007 (K = 2n keys) the triple grids add raw values and
    reduce only a cell whose raw sides differ: each grid reduces at most K
    times, where its per-triple definition reduces at least once per
    triple, K^3 times.  A pair grid decides a pair with one reduction per
    output key, so both batteries reduce at most 10 K^2 times in all (595
    at n = 4, 1,955 at n = 8), and the per-cell definitions of their triple
    and pair grids 2,256 and 15,168 times.  sigma is still evaluated once
    per pair."""
    obj = laurent_quotient_document(n)
    doc = dataclasses.replace(parse_document(obj), field=CountingField(obj["field"]["p"]))
    algebra = build_algebra(doc)
    require_passing(verify_hopf(algebra))
    ops, br, field = algebra.ops, braiding_from_matrix(algebra, doc.sigma)[0], algebra.field
    sigma_calls, value = [], br.value

    def spy(x, y):
        sigma_calls.append((x, y))
        return value(x, y)

    br = dataclasses.replace(br, value=spy)
    per_grid, real = {}, lincomb.grid_check

    def counting_grid_check(name, *args):
        before = field.work()
        result = real(name, *args)
        per_grid[name] = per_grid.get(name, 0) + field.work() - before
        return result

    monkeypatch.setattr(lincomb, "grid_check", counting_grid_check)
    field.calls.clear()
    results = hopf_axiom_checks(ops) + braiding_axiom_checks(ops, br)
    assert all(r.status == PASS for r in results), [r for r in results if not r.ok]
    k, total = len(ops.keys), field.work()
    assert all(per_grid[name] <= k for name in TRIPLE_CHECKS), per_grid
    assert 0 < total <= 10 * k * k
    # sigma is evaluated through one table: one value per pair
    assert len(sigma_calls) == len(set(sigma_calls))

    for name, holds in naive_predicates(ops, br).items():
        field.calls.clear()
        assert all(holds(t) for t in triples(ops))
        assert field.work() >= k ** 3, name
    field.calls.clear()
    naive_results(ops, br)
    assert field.work() > 3 * total


# -- the pair laws decided on the S-rows ------------------------------------------

LAWS = ("lincomb.is_character", "integral.exchange_antipode",
        "integral.exchange_antipode_inverse", "integral.nakayama_multiplicative",
        "integral.nakayama_law", "cqt.commutation_relation",
        "cqt.antipode_square_invariance")
LAW_CARRIERS = CARRIERS + tuple(f"{name}*" for name in CARRIERS
                                if not name.startswith("laurent"))


def law_carrier_data(name, sweedler=None, sweedler_r=None, c4=None):
    """(Carrier, braiding) of a named carrier, or, with a trailing *, of its
    dual with sigma = eps (x) eps; the tables of its ops hold the S its
    verified Hopf battery proved (no proof on a Laurent window)."""
    algebra, br = carrier_source(name.rstrip("*"), sweedler, sweedler_r, c4)
    if name.startswith("laurent"):
        return laurent.family_data(algebra), br
    if name.endswith("*"):
        algebra = algebra.dual()
        require_passing(verify_hopf(algebra))
        br = counit_braiding(algebra.ops)
    return cofrobenius_data(algebra), br


@pytest.fixture(scope="module", params=LAW_CARRIERS)
def law_carrier(request, sweedler, sweedler_r, c4):
    return law_carrier_data(request.param, sweedler, sweedler_r, c4)


def law_grids(c, br, proved=True, character=None, names=LAWS) -> dict:
    """Each of names -> its grid_check runs as (points, result), when the
    exchange, Nakayama and braiding batteries run on c and br, on c.ops
    with the S proof its tables hold when proved, else on a copy of c.ops,
    which holds none; is_character runs on character, else on alpha, as
    integral.modular_functional_character reads it.  Asked for them, the
    flip's involution runs first, and the product formula, on the twist of
    br's u (twist_factors), and the Hopf battery last; unproved, the Hopf
    battery finds no generators either."""
    runs: dict = {}
    real = lincomb.grid_check

    def recording(name, items, predicate, describe):
        points = [0]

        def counted(item):
            points[0] += 1
            return predicate(item)

        result = real(name, items, counted, describe)
        runs.setdefault(name, []).append((points[0], result))
        return result

    ops = c.ops if proved else dataclasses.replace(c.ops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lincomb, "grid_check", recording)
        if "flip_braiding.involution" in names:
            flip_braiding_checks(ops, br, br.functionals[0], c.a, c.a_inv, [])
        integral_exchange_checks(ops, c.lam_mul, c.a_inv)
        nakayama_checks(ops, c.lam_mul, c.chi, c.alpha, c.alpha_inv)
        if character is not None:
            runs.pop("lincomb.is_character", None)
            is_character_fn(ops, character, on_proof=True)
        braiding_axiom_checks(ops, br)
        if "integral_twist.product_formula" in names:
            product_formula_check(ops, c.lam_mul, *twist_factors(c, br))
        if HOPF_LAWS[0] in names:
            if not proved:
                mp.setattr(lincomb, "generators", lambda ops: None)
            hopf_axiom_checks(ops)
    return {name: runs[name] for name in names if name in runs}


def verdicts(grids: dict) -> dict:
    """Each law's reported line: the result of its last grid.  is_character
    reports no line, and its callers read only whether it passed."""
    return {name: runs[-1][1].ok if name == "lincomb.is_character" else runs[-1][1]
            for name, runs in grids.items()}


def test_reduced_pair_laws_match_exhaustive(law_carrier):
    c, br = law_carrier
    reduced, exhaustive = law_grids(c, br), law_grids(c, br, proved=False)
    assert verdicts(reduced) == verdicts(exhaustive)
    k = len(c.ops.keys)
    assert all(runs == [(k * k, runs[0][1])] or not runs[0][1].ok
               for runs in exhaustive.values())


def perturbed(c, br, which, i, j, bump):
    """(c, br, character) with lambda, chi, sigma, sigma^-1, a character
    (alpha, bumped) or a product bumped by bump: lambda and the character at
    a key x, chi(x) by bump y, sigma, sigma^-1 and the product x y at (x, y),
    the product at its first term (or at x); x is outside S (any key where
    there is no S), y any key.  character is None unless bumped."""
    ops, gens = c.ops, c.ops.tables.proof
    outside = [k for k in ops.keys if k not in (gens or ())]
    x, y = outside[i % len(outside)], ops.keys[j % len(ops.keys)]
    delta, character, reduce = bump * ops.one, None, ops.field.reduce
    if which == "lambda":
        lam = c.lam
        bumped = lambda k: reduce(lam(k) + delta) if k == x else lam(k)
        c = dataclasses.replace(c, lam=bumped, lam_mul=lam_mul_table(ops, bumped))
    elif which == "chi":
        chi = c.chi
        c = dataclasses.replace(
            c, chi=lambda k: lc_add(ops, chi(k), {y: delta}) if k == x else chi(k))
    elif which in ("sigma", "sigma_inv"):
        field = "value" if which == "sigma" else "inverse"
        fn = getattr(br, field)
        br = dataclasses.replace(br, **{field: lambda h, l: reduce(fn(h, l) + delta)
                                        if (h, l) == (x, y) else fn(h, l)})
    elif which == "character":
        character = lambda k: reduce(c.alpha(k) + delta) if k == x else c.alpha(k)
    elif which == "product":
        mul = ops.mul

        def bumped(a, b):
            out = dict(mul(a, b))
            if (a, b) == (x, y):
                k = next(iter(out), a)
                out[k] = reduce(out.get(k, ops.zero) + delta)
            return out

        ops = dataclasses.replace(ops, mul=bumped)
        c = dataclasses.replace(c, ops=ops, lam_mul=lam_mul_table(ops, c.lam))
        br = dataclasses.replace(br, ops=ops)
    return c, br, character


@settings(max_examples=8, deadline=None)
@given(which=st.sampled_from(["lambda", "chi", "sigma", "character"]),
       i=st.integers(0, 63), j=st.integers(0, 63), bump=st.sampled_from([-2, -1, 1, 3]))
def test_perturbed_pair_laws_match_exhaustive(law_carrier, which, i, j, bump):
    """lambda, chi, sigma or a character bumped at a key outside S (at any
    key where there is no S): the reduced verdicts and witnesses are still
    the exhaustive ones, whether or not the premises still pass."""
    c, br, character = perturbed(*law_carrier, which, i, j, bump)
    assert (verdicts(law_grids(c, br, True, character))
            == verdicts(law_grids(c, br, False, character)))


# -- the raw pair kernels against their LC-level definitions ---------------------------

HOPF_LAWS = ("hopf.comultiplication_multiplicative", "hopf.counit_multiplicative")
# the three run only once every braiding axiom above them passes
SIGMA_INVERSE_LAWS = ("cqt.inverse_is_antipode_first_argument",
                      "cqt.inverse_is_antipode_inv_second_argument",
                      "cqt.antipode_square_invariance")
KERNEL_LAWS = ("lincomb.is_character", "integral.exchange_antipode",
               "integral.exchange_antipode_inverse", "integral.nakayama_multiplicative",
               "integral.nakayama_law", "cqt.commutation_relation",
               "cqt.convolution_inverse_left", "cqt.convolution_inverse_right",
               *HOPF_LAWS, "integral_twist.product_formula", *SIGMA_INVERSE_LAWS,
               "flip_braiding.involution")


def twist_factors(c, br):
    """(rho1, tau1) of the integral twist of br's u: u^-1 and u * alpha, as
    cofrobenius.integral_twist_from_coinner builds them."""
    fns = br.functionals[0]
    return memo_fn(fns["u_inv"]), memo_fn(c.ops.convolve(fns["u"], c.alpha))


def form(ops, f, a, b):
    """A bilinear form, given by its evaluator f on key pairs, at the LCs a
    and b."""
    return ops.field.reduce(sum(va * vb * f(ka, kb) for ka, va in a.items()
                                for kb, vb in b.items()))


def lc_law_predicates(c, br, character=None) -> dict:
    """The per-pair definitions the row kernels of KERNEL_LAWS replaced:
    each side an LC built through BasisOps (hit_left, s_lc, map_lc, mul_lc,
    coinner) and compared canonically, or a scalar per pair reduced through
    the field, with sigma and sigma^-1 read off br's evaluators; is_character
    reads character, else alpha."""
    ops, chi, f = c.ops, c.chi, character or c.alpha
    rho1, tau1 = twist_factors(c, br)
    s = lambda k: ops.s_lc(ops.single(k))
    s_inv = lambda k: ops.s_inv_lc(ops.single(k))
    one = ops.single
    twice = flip_braiding(flip_braiding(br))
    return {
        "lincomb.is_character": lambda p: ops.eval_fn(f, ops.mul(*p)) == ops.field.reduce(
            f(p[0]) * f(p[1])),
        "integral.exchange_antipode": lambda p: not exchange_gap(c, c.lam_mul, *p),
        "integral.exchange_antipode_inverse":
            lambda p: not exchange_inverse_gap(c, c.lam_mul, *p),
        "integral.nakayama_multiplicative": lambda p: lc_eq(
            ops.map_lc(chi, ops.mul(*p)), ops.mul_lc(chi(p[0]), chi(p[1]))),
        "integral.nakayama_law": lambda p: shift_law_holds(c, *p),
        "cqt.commutation_relation": naive_commutation(ops, br),
        "cqt.convolution_inverse_left": naive_conv_pair(ops, br.value, br.inverse),
        "cqt.convolution_inverse_right": naive_conv_pair(ops, br.inverse, br.value),
        "hopf.comultiplication_multiplicative": naive_delta_multiplicative(ops),
        "hopf.counit_multiplicative": naive_counit_multiplicative(ops),
        # lambda(l h) = lambda(h' l), h' = rho1(h1) h2 tau1(h3)
        "integral_twist.product_formula": lambda p: ops.eval_fn(c.lam, ops.mul(p[1], p[0]))
            == ops.eval_fn(lambda k: c.lam_mul(k, p[1]), ops.coinner(rho1, tau1, p[0])),
        "cqt.inverse_is_antipode_first_argument":
            lambda p: br.inverse(*p) == form(ops, br.value, s(p[0]), one(p[1])),
        "cqt.inverse_is_antipode_inv_second_argument":
            lambda p: br.inverse(*p) == form(ops, br.value, one(p[0]), s_inv(p[1])),
        "cqt.antipode_square_invariance":
            lambda p: br.value(*p) == form(ops, br.value, s(p[0]), s(p[1])),
        "flip_braiding.involution": lambda p: twice.value(*p) == br.value(*p)
            and twice.inverse(*p) == br.inverse(*p),
    }


def lc_law_lines(c, br, character=None) -> dict:
    """Each of KERNEL_LAWS -> the line its per-pair definition gives over
    every key pair, in verdicts' form; is_character only where f(1) = 1,
    since only then does its grid run."""
    ops, f = c.ops, character or c.alpha
    lines = {name: grid_check(name, key_pairs(ops), holds, lambda p: f"at {cell_label(ops, p)}")
             for name, holds in lc_law_predicates(c, br, character).items()}
    lines["lincomb.is_character"] = lines["lincomb.is_character"].ok
    if ops.eval_fn(f, ops.unit) != ops.one:
        del lines["lincomb.is_character"]
    return lines


def kernel_lines(c, br, proved, character=None, expected=None) -> dict:
    """The lines the row kernels of KERNEL_LAWS give (law_grids), checked
    against their per-pair definitions' (expected, else lc_law_lines): the
    same line for every law that ran, and only a sigma^-1 formula, which a
    failing braiding axiom skips, may not run."""
    got = verdicts(law_grids(c, br, proved, character, KERNEL_LAWS))
    expected = expected or lc_law_lines(c, br, character)
    assert got == {name: expected[name] for name in got}
    assert set(expected) - set(got) <= set(SIGMA_INVERSE_LAWS)
    return got


KERNEL_CARRIERS = ("laurent4", "sweedler", "h10_f10007", "double_c4", "sweedler_sheared")


@pytest.fixture(scope="module", params=KERNEL_CARRIERS)
def kernel_carrier(request, sweedler, sweedler_r, c4):
    return law_carrier_data(request.param, sweedler, sweedler_r, c4)


@settings(max_examples=12, deadline=None)
@given(which=st.sampled_from(["none", "lambda", "chi", "sigma", "sigma_inv", "character",
                              "product"]),
       i=st.integers(0, 63), j=st.integers(0, 63), bump=st.sampled_from([-2, -1, 1, 3]))
def test_pair_kernels_match_their_lc_definitions(kernel_carrier, which, i, j, bump):
    """Each row kernel reports the verdict and witness of its per-pair
    definition, run over every pair, on its generator rows and without
    them, unperturbed and with lambda, chi, sigma, sigma^-1, a character or
    a product bumped."""
    c, br, character = perturbed(*kernel_carrier, which, i, j, bump)
    expected = lc_law_lines(c, br, character)
    assert which != "none" or all(getattr(line, "ok", line) for line in expected.values())
    for proved in (True, False):
        got = kernel_lines(c, br, proved, character, expected)
        assert which != "none" or set(got) == set(expected)


def test_window_edge_perturbations_fail_at_the_exhaustive_witness():
    """On a Laurent window the coproduct legs, the products and the
    antipode's images leave the keys, so the kernels' nonzero indexes range
    over legs, product and image keys.  sigma^-1 bumped at (1, g^4x), whose
    coproduct reaches g^5 outside the window 4, breaks both
    convolution-inverse laws; the left one sees it only through that leg,
    as sigma(1, g^5) sigma^-1(1, g^4x).  lambda bumped at g^8, a product
    key outside the window, breaks both exchange identities, and at g^8x
    also the Nakayama law and the product formula.  sigma bumped at
    (g^-5x, g^-5x), S(g^4x) on both sides, breaks antipode_square_invariance
    alone.  The product g^4 g^4 = g^8 doubled breaks Delta's, eps's and
    alpha's multiplicativity.  Every row kernel gives the line of its
    per-pair definition, the failing ones included."""
    c, br = law_carrier_data("laurent4")
    ops, reduce = c.ops, c.ops.field.reduce
    one, edge, image, top = (0, 0), (4, 1), (-5, 1), (4, 0)
    assert not {(5, 0), (8, 0), (8, 1), image} & set(ops.keys)
    inverse, value, lam, mul = br.inverse, br.value, c.lam, ops.mul
    edge_br = dataclasses.replace(br, inverse=lambda h, l: reduce(inverse(h, l) + 1)
                                  if (h, l) == (one, edge) else inverse(h, l))
    image_br = dataclasses.replace(br, value=lambda h, l: reduce(value(h, l) + 1)
                                   if (h, l) == (image, image) else value(h, l))

    def far_c(far):
        far_lam = lambda k: reduce(lam(k) + 1) if k == far else lam(k)
        return dataclasses.replace(c, lam=far_lam, lam_mul=lam_mul_table(ops, far_lam))

    doubled = dataclasses.replace(ops, mul=lambda x, y: {(8, 0): 2} if (x, y) == (top, top)
                                  else mul(x, y))
    doubled_c = dataclasses.replace(c, ops=doubled, lam_mul=lam_mul_table(doubled, lam))
    cases = ((c, edge_br, KERNEL_LAWS[6:8]),
             (far_c((8, 0)), br, KERNEL_LAWS[1:3]),
             (far_c((8, 1)), br, (*KERNEL_LAWS[1:3], KERNEL_LAWS[4],
                                  "integral_twist.product_formula")),
             (c, image_br, SIGMA_INVERSE_LAWS[2:]),
             (doubled_c, dataclasses.replace(br, ops=doubled), (KERNEL_LAWS[0], *HOPF_LAWS)))
    lines = [kernel_lines(c, br, False) for c, br, _ in cases]
    for got, (_, _, failing) in zip(lines, cases):
        assert [name for name, line in got.items() if not getattr(line, "ok", line)] == list(
            failing), failing
    assert lines[1]["integral.exchange_antipode"].witness == "at (g^4, g^4)"
    # Delta(g^3x) has the leg g^4, so Delta's law meets g^4 g^4 before (g^4, g^4)
    assert lines[4]["hopf.comultiplication_multiplicative"].witness == "at (g^3x, g^4)"


@pytest.mark.parametrize("name", ["sweedler", "h10_f10007", "double_c4"])
def test_pair_laws_run_only_their_s_rows_on_a_passing_carrier(name, sweedler, sweedler_r, c4):
    """Where every premise passes, each of the seven laws runs one grid, on
    its |S| K rows, and passes."""
    c, br = law_carrier_data(name, sweedler, sweedler_r, c4)
    grids = law_grids(c, br)
    assert set(grids) == set(LAWS)
    cells = len(c.ops.tables.proof) * len(c.ops.keys)
    assert all(runs == [(cells, runs[0][1])] and runs[0][1].ok for runs in grids.values())


def test_a_failing_character_row_decides_in_one_grid(sweedler, monkeypatch):
    """1 on 1 and gx, 0 on g and x, is no character: f(g g) = 1, f(g)^2 = 0.
    (g, g) is a row of S = (1, g, x), so on the proof is_character runs
    that one grid and says False, as the exhaustive grid does."""
    ops, gens = sweedler.ops, sweedler.ops.tables.proof
    one, gx = ops.keys[0], ops.keys[3]
    f = lambda k: ops.one if k in (one, gx) else ops.zero
    seen, real = [], lincomb.grid_check
    monkeypatch.setattr(lincomb, "grid_check",
                        lambda name, *args: seen.append(name) or real(name, *args))
    assert gens == ops.keys[:3]
    assert not is_character_fn(ops, f, on_proof=True)
    assert seen == ["lincomb.is_character"]
    assert not is_character_fn(ops, f)
    assert seen == ["lincomb.is_character"] * 2


def shift_law_holds(c, m, h) -> bool:
    """lambda(m h) = lambda(chi(h) m), per cell."""
    return c.lam_mul(m, h) == c.ops.eval_fn(lambda k: c.lam_mul(k, m), c.chi(h))


def test_nakayama_law_runs_every_row_when_chi_is_not_multiplicative(sweedler, sweedler_r):
    """Adding 1 to chi(gx) leaves chi on S = (1, g, x) as it was, so the
    law holds on every row (m, s) and fails first at (gx, gx).  chi is then
    not multiplicative (at (g, x)), so the law must not reduce: it runs one
    grid over all K^2 pairs and reports the exhaustive witness."""
    c, br = law_carrier_data("sweedler", sweedler, sweedler_r)
    ops, gens = c.ops, c.ops.tables.proof
    one, gx = ops.keys[0], ops.keys[3]
    chi = c.chi
    c = dataclasses.replace(
        c, chi=lambda k: lc_add(ops, chi(k), {one: ops.one}) if k == gx else chi(k))
    assert gens == ops.keys[:3]
    assert all(shift_law_holds(c, m, s) for m in ops.keys for s in gens)
    grids = law_grids(c, br)
    assert grids["integral.nakayama_multiplicative"][-1][1].witness == "at (g, x)"
    k = len(ops.keys)
    assert grids["integral.nakayama_law"] == [
        (k * k, failed("integral.nakayama_law", "at (gx, gx)"))]


def test_commutation_runs_every_row_when_sigma_first_law_fails(sweedler, sweedler_r):
    """Adding 1 to sigma(gx, 1) leaves the commutation relation holding on
    the rows (s, l), and failing first at (gx, 1).  sigma's first law then
    fails (at (g, x, 1)), so the relation runs one grid over every row up
    to that witness, and antipode_square_invariance is SKIPPED."""
    c, br = law_carrier_data("sweedler", sweedler, sweedler_r)
    ops, gens = c.ops, c.ops.tables.proof
    one, gx = ops.keys[0], ops.keys[3]
    value = br.value
    br = dataclasses.replace(
        br, value=lambda h, l: value(h, l) + 1 if (h, l) == (gx, one) else value(h, l))
    holds = naive_commutation(ops, br)
    assert all(holds((s, l)) for s in gens for l in ops.keys)
    results = {r.name: r for r in braiding_axiom_checks(ops, br)}
    assert results["cqt.multiplicative_first_argument"].witness == "at (g, x, 1)"
    assert results["cqt.antipode_square_invariance"].status == "skipped"
    grids = law_grids(c, br)
    assert grids["cqt.commutation_relation"] == [
        (3 * len(ops.keys) + 1, failed("cqt.commutation_relation", "at (gx, 1)"))]


def test_a_failing_hopf_battery_keeps_no_generators():
    """The proof is kept only when every line of verify_hopf passes: a
    product entry of H_4 bumped, g gx = 2 g^2x, fails associativity, and the
    tables of the algebra's ops hold no S.  The Carrier of the intact H_4
    reads the one table set of the algebra, and so its proof."""
    doc = laurent_quotient_document(4)
    doc["mult"] = [list(entry) for entry in doc["mult"]]
    assert doc["mult"][15][:3] == [2, 3, 5]
    doc["mult"][15][3] = 2
    algebra = build_algebra(parse_document(doc))
    failing = [(r.name, r.witness) for r in verify_hopf(algebra) if not r.ok]
    assert failing[0] == ("hopf.associativity", "at (g, x, g)")
    assert algebra.ops.tables.proof is None
    _, intact = document_algebra(laurent_quotient_document(4))
    assert intact.ops.tables.proof == (0, 1, 2)
    assert cofrobenius_data(intact).ops.tables is intact.ops.tables


def exchange_gap(c, lam_mul, h, l):
    """l1 lambda(h l2) - S(h1) lambda(h2 l)."""
    ops = c.ops
    lhs = ops.hit_left(lambda k: lam_mul(h, k), l)
    rhs = ops.s_lc(ops.hit_left(lambda k: lam_mul(k, l), h))
    return lc_add(ops, lhs, ops.scale(-ops.one, rhs))


def exchange_inverse_gap(c, lam_mul, h, l):
    """lambda(h l1) l2 - lambda(h1 l) S^-1(h2) a^-1, with a^-1 held."""
    ops = c.ops
    lhs = ops.hit_right(lambda k: lam_mul(h, k), l)
    rhs = ops.mul_lc(ops.s_inv_lc(ops.hit_right(lambda k: lam_mul(k, l), h)), c.a_inv)
    return lc_add(ops, lhs, ops.scale(-ops.one, rhs))


def nakayama_gap(c, lam_mul, m, h):
    """lambda(m h) - lambda(chi(h) m), with chi held."""
    return {None: c.ops.field.reduce(
        lam_mul(m, h) - c.ops.eval_fn(lambda k: lam_mul(k, m), c.chi(h)))}


def lambda_conditions(c, gap, pairs) -> SparseMatrix:
    """The linear conditions on lambda that gap = 0 puts at pairs: a row per
    (pair, output key), column k holding gap at lambda = e_k^*."""
    ops = c.ops
    rows: dict = {}
    for k in ops.keys:
        lam = lambda x, k=k: ops.one if x == k else ops.zero
        lam_mul = lambda x, y: ops.eval_fn(lam, ops.mul(x, y))
        for p in pairs:
            for out, v in gap(c, lam_mul, *p).items():
                if v:
                    rows.setdefault((p, out), {})[k] = v
    return SparseMatrix(ops.field, list(rows.values()), len(ops.keys))


@pytest.mark.parametrize("name", ["sweedler", "h4_f10007", "double_c4", "double_c4*"])
def test_s_rows_cut_out_every_lambda_the_full_grid_does(name, sweedler, sweedler_r, c4):
    """The exchange identities and the Nakayama law are linear in lambda, so
    the lambdas passing a set of rows form a subspace.  The S-rows cut out
    the same one as all K^2 pairs (equal rank): the reduced verdict is the
    exhaustive one for every lambda, not only for the sampled ones."""
    c, _ = law_carrier_data(name, sweedler, sweedler_r, c4)
    keys, gens = c.ops.keys, c.ops.tables.proof
    for gap, reduced in ((exchange_gap, product(gens, keys)),
                         (exchange_inverse_gap, product(gens, keys)),
                         (nakayama_gap, product(keys, gens))):
        full = rank(lambda_conditions(c, gap, list(product(keys, keys))))
        assert rank(lambda_conditions(c, gap, list(reduced))) == full, gap.__name__
        assert full < len(keys), gap.__name__  # the carrier's lambda passes
