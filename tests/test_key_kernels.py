"""The key-law kernels against the slow definitions they replaced.

KernelTables.s_pow[n] is compared with n passes of s_lc or s_inv_lc.
commutes_rows, the predicate left(h) w = w h, is compared with
lc_eq(mul_lc(left(h), w), mul_lc(w, h)) on the key laws that read it:

- S^2 inner by u and by v, S^4 inner by uv and S^2 inner by the s2
  witness u;
- the R-matrix witnesses conjugating by a gamma double-hit;
- the central pairings;
- S^n inner by the modular element, and on Taft T_3 by g and g^2.

conjugates is compared with g h g^-1 multiplied out factor by factor.
The comparison is verdict for verdict and witness for witness.

The inputs are every preset and D(kC2..4). They also include H_4 and H_10
over F_10007, whose antipodes are solved, and a Laurent window, whose
products and S-powers leave it. Two more give the kernels harder rows: a
sheared Sweedler algebra, whose rows have several terms, and Taft T_3 over
F_7 with its antipode solved, where S^4 != id. Each input runs intact, with
one product coefficient bumped and with one coefficient of w bumped.
A kernel that drops a term disagrees somewhere.
"""

from __future__ import annotations

import dataclasses

import pytest

from hopfcheck import laurent
from hopfcheck.cofrobenius import cofrobenius_data
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import require_passing, verify_hopf
from hopfcheck.lincomb import (
    KeyTable,
    combine,
    commutes_rows,
    conjugates,
    first_gap,
    key_check,
    lc_canon,
    lc_eq,
    raw_sum,
)
from hopfcheck.presets import FINITE_PRESETS, preset_document, sweedler_document
from hopfcheck.quasitriangular import (
    RMatrix,
    conjugation_witnesses,
    drinfeld_elements,
    grouplike_from_character,
)
from hopfcheck.report import FAIL, PASS
from test_axiom_grids import SWEEDLER_SIGMA, sheared
from test_cli import permuted_double_c3_obj
from test_golden import double_c2_document, double_c4_permuted_document, laurent_quotient_document

POWERS = (1, 2, 3, 4, -1, -2, -3, -4)


def taft_document(n: int, p: int) -> dict:
    """Taft's T_n over F_p (p = 1 mod n) on g^i x^j at index n i + j, with
    q the smallest primitive n-th root of unity; the antipode is omitted.
    (g^i x^j)(g^t x^s) = q^(j t) g^(i+t) x^(j+s), zero once j + s >= n;
    Delta(g^i x^j) = sum_k [j choose k]_q g^(i+k) x^(j-k) (x) g^i x^k."""
    q = next(c for c in range(2, p) if pow(c, n, p) == 1
             and all(pow(c, d, p) != 1 for d in range(1, n)))
    binom = [[1]]  # Pascal's rule for q-binomials: [j k] = [j-1 k-1] + q^k [j-1 k]
    for j in range(1, n):
        prev = binom[-1] + [0]
        binom.append([(prev[k - 1] if k else 0) + pow(q, k, p) * prev[k] for k in range(j + 1)])
    ix = lambda i, j: n * (i % n) + j
    mult = [[ix(i, j), ix(t, s), ix(i + t, j + s), pow(q, j * t, p)]
            for i in range(n) for j in range(n) for t in range(n) for s in range(n) if j + s < n]
    comult = [[ix(i, j), ix(i + k, j - k), ix(i, k), binom[j][k] % p]
              for i in range(n) for j in range(n) for k in range(j + 1)]
    return {"name": f"T{n}", "field": {"type": "prime", "p": p},
            "basis": [f"g^{i}x^{j}" for i in range(n) for j in range(n)],
            "mult": mult, "comult": comult,
            "counit": [[ix(i, j), int(j == 0)] for i in range(n) for j in range(n)]}


@dataclasses.dataclass
class Input:
    """One input's ops and its key laws, each (name, w, left): left is
    ("s", n) for S^n(h), ("id",) for h, or ("coinner", f, g) for
    f(h1) h2 g(h3); conjugators lists the pairs (g, g^-1) of conjugates."""

    ops: object
    laws: list
    conjugators: list


def qt_laws(ops, c, r) -> list:
    """The key laws of a QT chain, with the w the chain hands them."""
    qt = drinfeld_elements(r)[0]
    laws = [("drinfeld.s2_conjugation_u", qt.u, ("s", 2)),
            ("drinfeld.s2_conjugation_v", qt.v, ("s", 2)),
            ("radford.s4_inner_by_uv", ops.mul_lc(qt.u, qt.v), ("s", 4)),
            ("s2_witness.implements_s2", qt.u, ("s", 2))]
    for name, gamma in (("eps", ops.eps), ("alpha", c.alpha), ("alpha_inv", c.alpha_inv)):
        gamma_inv = ops.compose_s_power(gamma, 1)
        laws += [(f"qt.witness_conjugates[{name}:{idx}]", w, ("coinner", gamma_inv, gamma))
                 for idx, w in enumerate(conjugation_witnesses(r, gamma, name)[0], start=1)]
        a_eta = grouplike_from_character(r, gamma)[0]
        z = ops.mul_lc(a_eta, grouplike_from_character(r, gamma_inv)[1])
        laws.append((f"qt.central_pairing[{name}]", z, ("id",)))
    return laws


def finite_input(doc, grouplikes=()) -> Input:
    algebra = build_algebra(doc)
    require_passing(verify_hopf(algebra))
    ops, c = algebra.ops, cofrobenius_data(algebra)
    laws = [(f"inner S^{n} by a", c.a, ("s", n)) for n in (2, 4, -2)]
    if doc.r_entries:
        laws += qt_laws(ops, c, RMatrix.from_entries(algebra, doc.r_entries))
    laws += [(f"inner S^{n} by {name}", ops.single(k), ("s", n))
             for name, k in grouplikes for n in (2, 4)]
    pairs = [(c.a, c.a_inv)] + [(ops.single(k), ops.s_lc(ops.single(k))) for _, k in grouplikes]
    return Input(ops, laws, pairs)


def laurent_input(window: int) -> Input:
    ops = laurent.basis_ops(window)
    c = laurent.family_data(ops)
    return Input(ops, [(f"inner S^{n} by a", c.a, ("s", n)) for n in (2, 4, -2)]
                 + [("central a", c.a, ("id",)), ("central x", ops.single((0, 1)), ("id",))],
                 [(c.a, c.a_inv), (ops.single((1, 0)), ops.single((-1, 0)))])


INPUTS = {
    **{name: lambda name=name: finite_input(preset_document(name)) for name in FINITE_PRESETS},
    "D(kC2)": lambda: finite_input(parse_document(double_c2_document())),
    "D(kC3)": lambda: finite_input(parse_document(permuted_double_c3_obj())),
    "D(kC4)": lambda: finite_input(parse_document(double_c4_permuted_document())),
    "H_4/F_10007": lambda: finite_input(parse_document(laurent_quotient_document(4))),
    "H_10/F_10007": lambda: finite_input(parse_document(laurent_quotient_document(10))),
    "laurent:4": lambda: laurent_input(4),
    "sweedler_sheared": lambda: finite_input(
        sheared(sweedler_document(), 3, 2, SWEEDLER_SIGMA)[0]),
    "T_3/F_7": lambda: finite_input(parse_document(taft_document(3, 7)),
                                    grouplikes=(("g", 3), ("g^2", 6))),
}


@pytest.fixture(scope="module")
def inputs() -> dict:
    return {name: build() for name, build in INPUTS.items()}


def iterated(ops, h, n):
    """S^n(h) by |n| passes of s_lc or s_inv_lc: the definition s_pow replaced."""
    a = ops.single(h)
    for _ in range(abs(n)):
        a = ops.s_lc(a) if n > 0 else ops.s_inv_lc(a)
    return a


def reached(ops) -> list:
    """The keys and the keys of their products, which leave a Laurent window."""
    keys = dict.fromkeys(ops.keys)
    keys.update((k, None) for h in ops.keys for l in ops.keys for k, _ in ops.tables.prod[h][l])
    return list(keys)


def s_pow_mismatches(ops, s_pow) -> list:
    return [(n, h) for n in POWERS for h in reached(ops)
            if dict(s_pow[n][h]) != iterated(ops, h, n)]


def bump_antipode(ops, x, y):
    """ops with y added to S(x), tables rebuilt: S rows of several terms."""
    s = ops.antipode
    return dataclasses.replace(ops, antipode=lambda k: lc_canon(
        {**s(k), y: s(k).get(y, 0) + 1} if k == x else s(k), ops.field.reduce))


def bump_product(ops, x, y):
    """ops with the first coefficient of x y raised by one, tables rebuilt."""
    mul, reduce = ops.mul, ops.field.reduce

    def bumped(a, b):
        out = dict(mul(a, b))
        if (a, b) == (x, y):
            k = next(iter(out), a)
            out[k] = out.get(k, 0) + 1
        return lc_canon(out, reduce)

    return dataclasses.replace(ops, mul=bumped)


def bump(ops, w):
    """w with one more term: scaling its one term would keep a law linear in w."""
    k = next(k for k in reversed(ops.keys) if k not in w)
    return lc_canon({**w, k: 1}, ops.field.reduce)


def variants(ops, w):
    """(label, ops, w): intact, one product read by the law bumped, w bumped."""
    first = next(iter(w))
    return [("intact", ops, w), ("bumped product", bump_product(ops, first, ops.keys[-1]), w),
            ("bumped w", ops, bump(ops, w))]


def slow_left(ops, left, h):
    if left[0] == "s":
        return iterated(ops, h, left[1])
    return ops.single(h) if left[0] == "id" else ops.coinner(left[1], left[2], h)


def fast_left(ops, left):
    if left[0] == "coinner":
        return KeyTable(lambda h: tuple(ops.coinner(left[1], left[2], h).items()))
    return ops.tables.s_pow[left[1] if left[0] == "s" else 0]


def commutes_mismatches(inputs, kernel) -> tuple[list, set]:
    """Each law on each input and variant, by kernel and by its definition:
    the laws whose (status, witness) differ, and the statuses seen."""
    bad, seen = [], set()
    for name, data in inputs.items():
        for law, w, left in data.laws:
            for label, ops, w_v in variants(data.ops, w):
                slow = key_check(law, ops, lambda h: lc_eq(
                    ops.mul_lc(slow_left(ops, left, h), w_v), ops.mul_lc(w_v, ops.single(h))))
                fast = key_check(law, ops, kernel(ops, w_v, fast_left(ops, left)))
                seen.add(slow.status)
                if (fast.status, fast.witness) != (slow.status, slow.witness):
                    bad.append((name, law, label, slow.witness, fast.witness))
    return bad, seen


def conjugates_mismatches(inputs, kernel) -> list:
    bad = []
    for name, data in inputs.items():
        for g, g_inv in data.conjugators:
            for label, ops, g_v in variants(data.ops, g):
                table = kernel(ops, g_v, g_inv)
                bad += [(name, label, h) for h in ops.keys if table[h] != ops.mul_lc(
                    ops.mul_lc(g_v, ops.single(h)), g_inv)]
    return bad


def test_s_pow_rows_are_iterated_antipodes(inputs):
    for name, data in inputs.items():
        for ops in (data.ops, bump_antipode(data.ops, data.ops.keys[-1], data.ops.keys[0])):
            assert not s_pow_mismatches(ops, ops.tables.s_pow), name
            assert all(ops.tables.s_pow[0][h] == ((h, 1),) for h in ops.keys)
            assert ops.tables.s_pow[1] is ops.tables.s and ops.tables.s_pow[-1] is ops.tables.s_inv


def test_the_inputs_reach_what_the_kernels_must_handle(inputs):
    window = inputs["laurent:4"].ops
    assert set(reached(window)) - set(window.keys)  # keys outside the window
    taft = inputs["T_3/F_7"].ops
    assert any(dict(taft.tables.s_pow[4][h]) != {h: 1} for h in taft.keys)  # S^4 != id
    sheared_ops = inputs["sweedler_sheared"].ops
    assert any(len(sheared_ops.tables.s_pow[n][h]) > 1 for n in POWERS for h in sheared_ops.keys)
    assert any(len(w) > 1 for data in inputs.values() for _, w, _ in data.laws)


def test_commutes_rows_matches_its_definition(inputs):
    bad, seen = commutes_mismatches(inputs, commutes_rows)
    assert not bad
    assert seen == {PASS, FAIL}


def test_conjugates_matches_the_product_factor_by_factor(inputs):
    assert not conjugates_mismatches(inputs, conjugates)


def test_a_kernel_that_drops_a_term_disagrees(inputs):
    def commutes_dropping(ops, w, left_items):  # commutes_rows, less w's first term on the right
        prod, reduce, w_items = ops.tables.prod, ops.field.reduce, tuple(w.items())
        times_w = KeyTable(lambda k: raw_sum(w_items, prod[k].__getitem__))

        def holds(h) -> bool:
            lhs = combine(left_items[h], times_w)
            rhs = raw_sum(w_items[1:], lambda j: prod[j][h])
            return first_gap(lhs, rhs, list(lhs) + list(rhs), lambda a, b: reduce(a - b)) is None

        return holds

    def conjugates_dropping(ops, g, g_inv):
        return conjugates(ops, dict(list(g.items())[1:]), g_inv)

    assert commutes_mismatches(inputs, commutes_dropping)[0]
    assert conjugates_mismatches(inputs, conjugates_dropping)
    for data in inputs.values():
        ops = data.ops
        dropped = {n: KeyTable(lambda h, n=n: ops.tables.s_pow[n][h][1:]) for n in POWERS}
        assert s_pow_mismatches(ops, dropped)
