"""The key grids of the axiom batteries against their per-cell definitions.

hopf.associativity and the two multiplicativity laws of a braiding are
grids over all K^3 key triples; the multiplicativity of Delta and eps,
the commutation relation and the two convolution-inverse laws are grids
over the K^2 key pairs.  hopf_axiom_checks and braiding_axiom_checks evaluate
them over product, coproduct and sigma tables filled once per call, in raw
field values (lincomb.LoweredTables), and run the triple grids one (h, l)
row at a time.  The naive predicates below are the per-cell definitions
those kernels replaced, in field arithmetic; the kernels must report the
same status and witness, also on perturbed carriers, must evaluate sigma
far less often, and must leave no field arithmetic per cell.

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
also where the premises fail.
"""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import coquasitriangular, laurent, lincomb
from hopfcheck.coquasitriangular import (
    Braiding,
    braiding_axiom_checks,
    braiding_from_matrix,
    dualize_qt,
)
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import require_passing, verify_hopf
from hopfcheck.lincomb import (
    _pair_label,
    _pairs,
    _triple_label,
    hopf_axiom_checks,
    lc_eq,
    tensor2_mul,
)
from hopfcheck.presets import cyclic_group_document
from hopfcheck.quasitriangular import RMatrix, drinfeld_elements
from hopfcheck.report import PASS, grid_check
from hopfcheck.scalars import FpElement, PrimeField
from test_golden import (
    double_c2_document,
    double_c4_permuted_document,
    laurent_quotient_document,
)

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
        return lhs == rhs

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
        return lhs == rhs

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
    return lambda pair: ops.eps_lc(ops.mul(*pair)) == ops.eps(pair[0]) * ops.eps(pair[1])


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
        return lc_eq(lhs, rhs)

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
        return acc == ops.eps(h) * ops.eps(l)

    return holds


def triples(ops):
    return [(h, l, m) for h in ops.keys for l in ops.keys for m in ops.keys]


def naive_predicates(ops, br) -> dict:
    return dict(zip(TRIPLE_CHECKS, (naive_associativity(ops), naive_mult_first(ops, br),
                                    naive_mult_second(ops, br))))


def naive_pair_predicates(ops, br) -> dict:
    return dict(zip(PAIR_CHECKS, (naive_delta_multiplicative(ops),
                                  naive_counit_multiplicative(ops), naive_commutation(ops, br),
                                  naive_conv_pair(ops, br.value, br.inverse),
                                  naive_conv_pair(ops, br.inverse, br.value))))


def naive_results(ops, br) -> dict:
    grid, pairs = triples(ops), _pairs(ops)
    out = {name: grid_check(name, grid, holds, lambda t: f"at {_triple_label(ops, t)}")
           for name, holds in naive_predicates(ops, br).items()}
    out.update({name: grid_check(name, pairs, holds, lambda p: f"at {_pair_label(ops, p)}")
                for name, holds in naive_pair_predicates(ops, br).items()})
    return out


def planned_results(ops, br) -> dict:
    results = hopf_axiom_checks(ops) + braiding_axiom_checks(ops, br)
    return {r.name: r for r in results if r.name in TRIPLE_CHECKS + PAIR_CHECKS}


# -- carriers ---------------------------------------------------------------------


def document_algebra(obj):
    doc = parse_document(obj)
    algebra = build_algebra(doc)
    require_passing(verify_hopf(algebra))
    return doc, algebra


def dual_braiding(algebra, r):
    """The dual of algebra with sigma(f, g) = (f x g)(R)."""
    qt, _ = drinfeld_elements(r)
    dual, br, _, _ = dualize_qt(r, qt)
    return dual.ops, br


CARRIERS = ("sweedler", "dual_sweedler", "c4", "double_c2", "double_c2_dual",
            "h4_f10007", "laurent3", "h10_f10007", "double_c4")


def carrier(name, sweedler=None, sweedler_r=None, c4=None):
    """(ops, braiding) of a named carrier; the braiding need not pass."""
    if name == "sweedler":
        # the Laurent family's sigma on its quotient g^2 = 1
        rows = [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        return sweedler.ops, braiding_from_matrix(sweedler, rows)[0]
    if name == "dual_sweedler":
        return dual_braiding(sweedler, sweedler_r)
    if name == "c4":
        rows = [[(-1) ** (i * j) for j in range(4)] for i in range(4)]
        return c4.ops, braiding_from_matrix(c4, rows)[0]
    if name in ("double_c2", "double_c4"):  # sigma = eps (x) eps, D(kC_n) is commutative
        _, double = document_algebra(double_c2_document() if name == "double_c2"
                                     else double_c4_permuted_document())
        rows = [[double.ops.eps(i) * double.ops.eps(j) for j in range(double.dim)]
                for i in range(double.dim)]
        return double.ops, braiding_from_matrix(double, rows)[0]
    if name == "double_c2_dual":
        doc, double = document_algebra(double_c2_document())
        return dual_braiding(double, RMatrix.from_entries(double, doc.r_entries))
    if name.endswith("_f10007"):  # h<n>_f10007
        doc, algebra = document_algebra(laurent_quotient_document(int(name[1:-7])))
        return algebra.ops, braiding_from_matrix(algebra, doc.sigma)[0]
    if name.startswith("laurent"):  # laurent<window>
        return laurent.basis_ops(int(name.removeprefix("laurent"))), laurent.braiding()
    raise ValueError(name)


@pytest.fixture(scope="module", params=CARRIERS)
def grid_carrier(request, sweedler, sweedler_r, c4):
    return carrier(request.param, sweedler, sweedler_r, c4)


def spy_triple_grids(monkeypatch) -> tuple[dict, dict, dict]:
    """Record, per triple grid, its row kernel (first_failure) and, for each
    grid_check it runs (the generator rows, then every row when they
    fail), the calls of that kernel and of its grid_check predicate (one
    call per point, as the trace counts them)."""
    kernels, rows, points = {}, {}, {}
    real_triple_grid_check = lincomb.triple_grid_check
    real_grid_check = lincomb.grid_check

    def counting_triple_grid_check(name, ops, first_failure, *args, **kwargs):
        kernels[name], rows[name], points[name] = first_failure, [], []

        def counted(*args):
            rows[name][-1] += 1
            return first_failure(*args)

        return real_triple_grid_check(name, ops, counted, *args, **kwargs)

    def counting_grid_check(name, items, predicate, describe):
        points.setdefault(name, []).append(0)
        if name in rows:
            rows[name].append(0)

        def counted(item):
            points[name][-1] += 1
            return predicate(item)

        return real_grid_check(name, items, counted, describe)

    monkeypatch.setattr(lincomb, "triple_grid_check", counting_triple_grid_check)
    monkeypatch.setattr(coquasitriangular, "triple_grid_check", counting_triple_grid_check)
    monkeypatch.setattr(lincomb, "grid_check", counting_grid_check)
    return kernels, rows, points


def generator_rows(ops, name):
    """The (h, l) rows a triple grid of the batteries runs first on ops, or
    None when it runs every row: (s, l), or (h, s) for sigma's second law,
    over generators read off the product table ops.mul gives."""
    raw = lincomb.LoweredTables(ops)
    gens = (lincomb.generators if name == "hopf.associativity"
            else lincomb.braiding_generators)(ops, raw)
    if gens is None:
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
            br, value=lambda x, y: value(x, y) + bump if (x, y) == spot else value(x, y))
    else:
        mul = ops.mul

        def bumped(x, y):
            out = dict(mul(x, y))
            if (x, y) == spot:
                k = next(iter(out), x)
                out[k] = out.get(k, ops.zero) + bump
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
    br = Braiding(value=lambda x, y: value(x, y) + 1 if (x, y) in spots else value(x, y),
                  inverse=value)
    mul = ops.mul
    ops = dataclasses.replace(
        ops, mul=lambda x, y: {(0, 0): 1} if (x, y) == ((1, 0), (-1, 1)) else mul(x, y))
    kernels, _, _ = spy_triple_grids(monkeypatch)
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

    _, rows, points = spy_triple_grids(monkeypatch)
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
    """Perturbed at one product and one sigma value, each triple grid
    fails at the first triple whose definition fails: its predicate is
    called once per triple up to and including that one, and its row
    kernel once per row up to that triple's row."""
    ops, br = carrier(name)
    keys = ops.keys
    spot = (keys[len(keys) // 2], keys[len(keys) // 3])
    value, mul = br.value, ops.mul
    br = dataclasses.replace(
        br, value=lambda x, y: value(x, y) + 1 if (x, y) == spot else value(x, y))

    def bumped(x, y):
        out = dict(mul(x, y))
        if (x, y) == spot:
            k = next(iter(out), x)
            out[k] = out.get(k, ops.zero) + 1
        return out

    ops = dataclasses.replace(ops, mul=bumped)
    grid = triples(ops)
    _, rows, points = spy_triple_grids(monkeypatch)
    planned = planned_results(ops, br)
    for check_name, naive in naive_predicates(ops, br).items():
        position = next(i for i, t in enumerate(grid) if not naive(t))
        assert planned[check_name].witness == f"at {_triple_label(ops, grid[position])}"
        # the generator rows, when there are any, fail first, and then every
        # row runs up to the witness
        reduced = generator_rows(ops, check_name)
        first = [] if reduced is None else [next(
            i for i, t in enumerate((h, l, m) for h, l in reduced for m in keys)
            if not naive(t))]
        assert points[check_name] == [i + 1 for i in first + [position]], check_name
        assert rows[check_name] == [i // len(keys) + 1 for i in first + [position]], check_name


def test_generators_are_read_off_the_product_the_battery_reads(c4, monkeypatch):
    """Each battery call derives S from the product table it reads.  On kC4
    S is (1, g); a copy of its BasisOps whose g g has coefficient 0 no
    longer reaches g^2 from g, so there g^2 joins S, and the verdicts
    still match the definitions."""
    seen, real = [], lincomb.generators
    monkeypatch.setattr(lincomb, "generators",
                        lambda ops, raw: seen.append(real(ops, raw)) or seen[-1])
    ops, br = carrier("c4", c4=c4)
    g, g2 = ops.keys[1:3]
    planned_results(ops, br)
    mul = ops.mul
    zeroed = dataclasses.replace(
        ops, mul=lambda x, y: {g2: ops.zero} if (x, y) == (g, g) else mul(x, y))
    assert planned_results(zeroed, br) == naive_results(zeroed, br)
    assert seen == [ops.keys[:2]] * 2 + [ops.keys[:3]] * 2


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
    raw = lincomb.LoweredTables(ops)
    assert lincomb.generators(ops, raw) == ops.keys[:2]
    assert lincomb.braiding_generators(ops, raw) is None
    planned = planned_results(ops, br)
    assert planned == naive_results(ops, br)
    assert planned["cqt.multiplicative_first_argument"].witness == "at (g^3, 1, 1)"
    assert planned["cqt.multiplicative_second_argument"].witness == "at (1, g^3, 1)"


def test_raw_sums_that_agree_mod_p_pass(monkeypatch):
    """Over F_7 the braiding (-1)^(ij) of kC4 lowers -1 to 6, so at (g, g, g)
    the first multiplicativity law adds sigma(g^2, g) = 1 on one side and
    sigma(g, g) sigma(g, g) = 36 on the other: the raw sums differ by a
    multiple of 7, and the cell holds.  The kernels reduce once per cell
    and must PASS wherever the definitions in F_7 do."""
    f7 = PrimeField(7)
    algebra = build_algebra(cyclic_group_document(4, f7))
    require_passing(verify_hopf(algebra))
    rows = [[f7.from_int((-1) ** (i * j)) for j in range(4)] for i in range(4)]
    ops, br = algebra.ops, braiding_from_matrix(algebra, rows)[0]
    sums = []
    residue = PrimeField.residue.fget
    monkeypatch.setattr(PrimeField, "residue", property(
        lambda field: lambda n: sums.append(n) or residue(field)(n)))
    planned = planned_results(ops, br)
    assert planned == naive_results(ops, br)
    assert all(r.status == PASS for r in planned.values())
    assert any(n and n % 7 == 0 for n in sums)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")


@pytest.mark.parametrize("n", [4, 8])
def test_axiom_batteries_do_no_field_arithmetic_per_cell(n, monkeypatch):
    """On H_n over F_10007 (K = 2n keys) the key grids run on raw ints, so
    the FpElement arithmetic left in both batteries is the per-key checks'
    (unit, counit, coassociativity and antipode laws, unit pairing): at
    most 40 K operations, linear in K.  Field arithmetic per grid cell
    would be at least K^3; per-cell kernels made 4,496 operations at n = 4
    and 26,684 at n = 8.  Lowering sigma still evaluates it once per pair."""
    doc, algebra = document_algebra(laurent_quotient_document(n))
    ops, br = algebra.ops, braiding_from_matrix(algebra, doc.sigma)[0]
    sigma_calls, value = [], br.value

    def spy(x, y):
        sigma_calls.append((x, y))
        return value(x, y)

    br = dataclasses.replace(br, value=spy)
    count = [0]

    def counted(real):
        def op(*args):
            count[0] += 1
            return real(*args)
        return op

    for name in ARITHMETIC:
        monkeypatch.setattr(FpElement, name, counted(FpElement.__dict__[name]))
    results = hopf_axiom_checks(ops) + braiding_axiom_checks(ops, br)
    assert all(r.status == PASS for r in results), [r for r in results if not r.ok]
    assert 0 < count[0] <= 40 * len(ops.keys)
    # the lowered sigma table reads the shared one: one value per pair
    assert len(sigma_calls) == len(set(sigma_calls))
