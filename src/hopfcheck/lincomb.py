"""Sparse linear combinations over an abstract basis.

The structure maps of a Hopf algebra are packaged as callables on basis
keys (BasisOps) and read through its one set of tables (KernelTables), so
each runs once per distinct argument.  The same checking code then runs
against a finite structure-constant algebra, whose keys are basis indices,
and against the built-in infinite-dimensional family, whose keys are
(exponent, degree) pairs.  A BasisOps key list bounds the grid of test
points only; intermediate results may leave it freely.

The identities are written with three actions of functionals on a basis
key h, in Sweedler notation (BasisOps; map_lc extends them linearly):

    hit_left(f, h)    = h1 f(h2)
    hit_right(f, h)   = f(h1) h2
    coinner(f, g, h)  = f(h1) h2 g(h3)

so the co-inner action of omega in the CQT conventions, omega(h1) h2
omega^-1(h3), is coinner(omega, omega_inv, h).

Every named check over the keys, the key pairs or the key triples runs
the one loop report.grid_check: key_check over the keys, and row_grid,
behind pair_check and triple_grid_check, over the pairs and triples.
These fix the order of the points (ops.keys, then lexicographic) and the
witness of the first failing one: "at <h>", "at (<h>, <l>)" or "at (<h>,
<l>, <m>)".  A pair or triple law is a row kernel, called once per row h
or (h, l) with the columns: it builds both sides of its row from nonzero
terms and cached product rows, reduces only cells whose raw sides differ
(first_gap) and names the first failing column.  Passing points reach
grid_check as one shared cell each, so a traced run counts every grid and
its points.  Nonzero indexes range over coproduct legs and product keys,
which leave a Laurent window.

On a finite algebra a law that is linear in one argument h and closed
under h -> s h is decided by the rows of a generating set S of keys
(generators), once its premise [in brackets] has passed in the same run.
(s, l) rows: hopf.associativity; Delta and eps multiplicativity,
  lincomb.is_character, integral.nakayama_multiplicative [associativity];
  sigma's first law [braiding_generators]; integral.exchange_antipode and
  its inverse form [the Hopf battery, S bijective];
  cqt.commutation_relation, cqt.antipode_square_invariance [sigma's first law].
(h, s) rows: sigma's second law [braiding_generators];
  integral.nakayama_law [integral.nakayama_multiplicative].
The laws after sigma's two reduce only on the S that a Hopf battery passing
in full keeps (KernelTables.proof), or that the dual of an algebra so proved
gets with its tables (coquasitriangular.dualize_qt), its battery being the
transposed one.  The S-rows run first and a pass decides; a fail reruns
every row for the first witness, so reports are unchanged.  is_character
names no witness, so there a fail decides too.  A Laurent window is not
closed under products and runs exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, product, repeat
from operator import itemgetter
from typing import Callable, Hashable, Sequence

from .report import PASS, CheckResult, check, grid_check, skipped
from .scalars import Field, Scalar

Key = Hashable
LC = dict  # key -> scalar, zero coefficients dropped


def lc_canon(d: LC, reduce) -> LC:
    """d with each value reduced in its field (Field.reduce) and the zeros
    dropped: a sum built from raw values, made an LC."""
    return {k: r for k, v in d.items() if (r := reduce(v))}


def lc_eq(a: LC, b: LC) -> bool:
    """Equality of two LCs of reduced values, zero values ignored."""
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def lc_format(a: LC, label: Callable[[Key], str], fmt: Callable[[Scalar], str]) -> str:
    items = sorted(((k, v) for k, v in a.items() if v), key=lambda kv: repr(kv[0]))
    if not items:
        return "0"
    parts = []
    for k, v in items:
        name = label(k)
        text = fmt(v)
        if text == "1" and name != "1":
            parts.append(name)
        elif text == "-1" and name != "1":
            parts.append(f"-{name}")
        elif name == "1":
            parts.append(text)
        else:
            parts.append(f"{text}*{name}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


@dataclass(frozen=True)
class BasisOps:
    """Structure maps of a Hopf algebra, given on basis keys.

    mul and the antipodes return linear combinations; delta returns sparse
    triples (coefficient, left key, right key); eps returns a scalar of
    field.  Every value they return is reduced in field (Field.reduce), and
    so is every value the methods below return: each sums raw products and
    reduces the sum once, when it is stored.  A BasisOps holds its
    KernelTables, the one cache of these maps, which the methods below read;
    a dataclasses.replace'd copy builds its own.
    """

    keys: tuple
    unit: LC
    mul: Callable[[Key, Key], LC]
    delta: Callable[[Key], Sequence[tuple[Scalar, Key, Key]]]
    eps: Callable[[Key], Scalar]
    antipode: Callable[[Key], LC] | None
    antipode_inv: Callable[[Key], LC] | None
    field: Field
    label: Callable[[Key], str]

    zero = 0  # the zero and the one of either field
    one = 1

    @cached_property
    def tables(self) -> KernelTables:
        return KernelTables(self)

    # -- linear extensions -------------------------------------------------

    def single(self, key: Key) -> LC:
        return {key: self.one}

    def mul_lc(self, a: LC, b: LC) -> LC:
        prod, out = self.tables.prod, {}
        for ka, va in a.items():
            for kb, vb in b.items():
                c = va * vb
                if not c:
                    continue
                for k, w in prod[ka][kb]:
                    prev = out.get(k)
                    out[k] = c * w if prev is None else prev + c * w
        return lc_canon(out, self.field.reduce)

    def map_lc(self, fn: Callable[[Key], LC], a: LC) -> LC:
        return self._apply(lambda k: fn(k).items(), a)

    def _apply(self, items, a: LC) -> LC:
        """The sum of v f(k) over the items (k, v) of a; items(k) lists f(k)'s items."""
        return lc_canon(raw_sum(a.items(), items), self.field.reduce)

    def eval_fn(self, f: Callable[[Key], Scalar], a: LC) -> Scalar:
        acc = 0
        for k, v in a.items():
            fv = f(k)
            if fv:
                acc = acc + v * fv
        return self.field.reduce(acc)

    def eps_lc(self, a: LC) -> Scalar:
        return self.eval_fn(self.eps, a)

    def s_lc(self, a: LC) -> LC:
        return self._apply(self.tables.s.__getitem__, a)

    def s_inv_lc(self, a: LC) -> LC:
        return self._apply(self.tables.s_inv.__getitem__, a)

    def s_power(self, a: LC, power: int) -> LC:
        return self._apply(self.tables.s_pow[power].__getitem__, a)

    # -- coproducts ---------------------------------------------------------

    def delta_lc(self, a: LC) -> dict:
        delta = self.tables.delta
        return lc_canon(raw_sum(a.items(), lambda k: [((k1, k2), c) for c, k1, k2 in delta[k]]),
                        self.field.reduce)

    def delta_n(self, key: Key, legs: int) -> list[tuple[Scalar, tuple]]:
        """Sparse terms of the iterated coproduct with the given leg count."""
        if legs < 1:
            raise ValueError("legs must be at least 1")
        terms, delta = [(self.one, (key,))], self.tables.delta
        while len(terms[0][1]) < legs:
            nxt = []
            for coef, keys in terms:
                for c, k1, k2 in delta[keys[0]]:
                    nxt.append((self.field.reduce(coef * c), (k1, k2) + keys[1:]))
            terms = nxt
        return terms

    # -- hit and co-inner actions on a key (zero values of f and g skipped) -----

    def hit_left(self, f: Callable[[Key], Scalar], key: Key) -> LC:
        """h1 f(h2) for h = key."""
        out: LC = {}
        for c, k1, k2 in self.tables.delta[key]:
            fv = f(k2)
            if fv:
                prev = out.get(k1)
                out[k1] = c * fv if prev is None else prev + c * fv
        return lc_canon(out, self.field.reduce)

    def hit_right(self, f: Callable[[Key], Scalar], key: Key) -> LC:
        """f(h1) h2 for h = key."""
        out: LC = {}
        for c, k1, k2 in self.tables.delta[key]:
            fv = f(k1)
            if fv:
                prev = out.get(k2)
                out[k2] = c * fv if prev is None else prev + c * fv
        return lc_canon(out, self.field.reduce)

    def coinner(self, f: Callable[[Key], Scalar], g: Callable[[Key], Scalar],
                key: Key) -> LC:
        """f(h1) h2 g(h3) for h = key, with Delta^3 expanded as delta_n does:
        the first leg of Delta(h) is split again."""
        delta, out = self.tables.delta, {}
        for c, k12, k3 in delta[key]:
            gv = g(k3)
            if not gv:
                continue
            for c2, k1, k2 in delta[k12]:
                fv = f(k1)
                if fv:
                    term = c * c2 * fv * gv
                    prev = out.get(k2)
                    out[k2] = term if prev is None else prev + term
        return lc_canon(out, self.field.reduce)

    # -- convolution --------------------------------------------------------

    def convolve(self, f: Callable[[Key], Scalar], g: Callable[[Key], Scalar]):
        delta, reduce = self.tables.delta, self.field.reduce

        def conv(key: Key) -> Scalar:
            acc = 0
            for c, k1, k2 in delta[key]:
                fv = f(k1)
                if not fv:
                    continue
                gv = g(k2)
                if gv:
                    acc = acc + c * fv * gv
            return reduce(acc)

        return conv

    def compose_s_power(self, f: Callable[[Key], Scalar], power: int):
        """f o S^power, read off tables.s_pow once per key."""
        rows, reduce = self.tables.s_pow[power], self.field.reduce
        return memo_fn(lambda key: reduce(sum(c * f(k) for k, c in rows[key])))

    def scale(self, c: Scalar, a: LC) -> LC:
        """c a."""
        return {k: self.field.reduce(c * v) for k, v in a.items()} if c else {}

    def outer(self, a: LC, b: LC) -> dict:
        """a (x) b as a leg-pair combination {(key_a, key_b): coefficient}."""
        return lc_canon({(ka, kb): va * vb for ka, va in a.items() for kb, vb in b.items()},
                        self.field.reduce)

    # -- printing -----------------------------------------------------------

    def format(self, a: LC) -> str:
        return lc_format(a, self.label, self.field.format)

    def format_values(self, f: Callable[[Key], Scalar]) -> str:
        """A functional as its list of values on the keys."""
        return "[" + ", ".join(self.field.format(f(k)) for k in self.keys) + "]"


def group(pairs) -> dict:
    """{key: [value, ...]} of (key, value) pairs, in their order."""
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return out


def memo_fn(f):
    """Cache a one-argument function of hashable keys (a KeyTable lookup)."""
    return KeyTable(f).__getitem__


def is_grouplike_lc(ops: BasisOps, a: LC) -> bool:
    if ops.eps_lc(a) != ops.one:
        return False
    return lc_eq(ops.delta_lc(a), ops.outer(a, a))


def multiplicative_rows(ops: BasisOps, f: Callable[[Key], Scalar]):
    """The row kernel of f(h l) = f(h) f(l): raw values summed over the
    items of each product h l in ops.tables."""
    prod, reduce = ops.tables.prod, ops.field.reduce

    def multiplicative(h, ls):
        row, fh = prod[h], f(h)
        for l in ls:
            acc = -fh * f(l)
            for k, c in row[l]:
                acc += c * f(k)
            if reduce(acc):
                return l
        return None

    return multiplicative


def is_character_fn(ops: BasisOps, f: Callable[[Key], Scalar], on_proof=False) -> bool:
    """f(1) = 1 and f(h l) = f(h) f(l), as f(s h l) = f(s) f(h l) on_proof
    for s in ops' S proof.  The rows (s, l) are among the pairs and no
    caller reads a witness, so on S they decide a fail too."""
    gens = ops.tables.proof if on_proof else None
    return ops.eval_fn(f, ops.unit) == ops.one and row_grid(
        "lincomb.is_character", ops, multiplicative_rows(ops, f), gens or ops.keys, ops.keys).ok


def conv_inverse_checks(ops: BasisOps, name: str, f, f_inv) -> list[CheckResult]:
    eps = ops.eps
    left = ops.convolve(f, f_inv)
    right = ops.convolve(f_inv, f)
    return [
        key_check(f"{name}.convolution_inverse_left", ops, lambda k: left(k) == eps(k)),
        key_check(f"{name}.convolution_inverse_right", ops, lambda k: right(k) == eps(k)),
    ]


def raw_sum(items, row) -> dict:
    """{key: raw value} of the sum of c row(k) over the items (k, c), row(k) listing items."""
    out: dict = {}
    for k, c in items:
        for k2, v in row(k):
            out[k2] = out.get(k2, 0) + c * v
    return out


def commutes_rows(ops: BasisOps, w: LC, left_items):
    """The key predicate left(h) w = w h, left_items[h] the items of left(h)
    (S^n inner by w for tables.s_pow[n], w central for s_pow[0]): k w summed
    raw once per key k, w h read off the prod rows, differing entries reduced."""
    prod, reduce, w_items = ops.tables.prod, ops.field.reduce, tuple(w.items())
    times_w = KeyTable(lambda k: raw_sum(w_items, prod[k].__getitem__))

    def holds(h) -> bool:
        lhs, rhs = combine(left_items[h], times_w), raw_sum(w_items, lambda j: prod[j][h])
        return first_gap(lhs, rhs, chain(lhs, rhs), lambda a, b: reduce(a - b)) is None

    return holds


def conjugates(ops: BasisOps, g: LC, g_inv: LC) -> KeyTable:
    """h -> g h g_inv, summed raw from the prod rows and reduced once per key."""
    prod, g_items, inv_items = ops.tables.prod, tuple(g.items()), tuple(g_inv.items())
    times_inv = KeyTable(lambda k: raw_sum(inv_items, prod[k].__getitem__))
    return KeyTable(lambda h: lc_canon(combine(tuple(raw_sum(
        g_items, lambda j: prod[j][h]).items()), times_inv), ops.field.reduce))


def coinner_law(ops: BasisOps, power: int, f, g):
    """The key predicate f(h1) h2 g(h3) = S^power(h): S^power is co-inner,
    by f and g."""
    rows = ops.tables.s_pow[power]
    return lambda h: lc_eq(ops.coinner(f, g, h), dict(rows[h]))


class KeyTable(dict):
    """fn(key) as table[key], computed on its first lookup only."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class PairTable(dict):
    """fn(x, y) as table[x][y], each value computed on its first lookup only.

    A row table[x] is a KeyTable once filled, so a grid that holds x fixed
    looks its values up by y alone; table(x, y) makes the table a drop-in
    for fn.
    """

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, x):
        row = self[x] = KeyTable(partial(self.fn, x))
        return row

    def __call__(self, x, y):
        return self[x][y]


class KernelTables:
    """The structure tables, the one cache of ops' maps (only __init__ calls
    them), and the S proof: one set per BasisOps (BasisOps.tables), read by
    every battery of the carrier and by ops' LC helpers.

    The values are the reduced field values ops returns, so a kernel adds
    them as plain numbers without reducing and decides a cell once, by
    ops.field.reduce: reduce(lhs - rhs) is nonzero exactly when the cell
    fails.  prod[x][y] holds the items of x y, delta[k] the terms of
    Delta(k), eps[k] the counit, s[k] and s_inv[k] the items of S(k) and
    S^-1(k), s_pow[n][k] those of S^n(k) for any integer n (s_pow[1] is s,
    s_pow[-1] is s_inv, s_pow[0] holds k itself), composed from the s or
    s_inv rows, unit the items of 1, and line[l] the items of l m for each
    key m.  Every table is filled on first lookup, also for keys outside the
    grid; the closures hold ops' maps, not ops, so they make no reference
    cycle.  proof is None (derive S) until hopf_axiom_checks passes in full
    on ops, or until dualize_qt builds ops as the dual of a proved algebra;
    it then keeps the generators S read off prod, or () when generators
    gives none: proved, nothing to reduce.
    """

    def __init__(self, ops: BasisOps) -> None:
        mul, delta, s, s_inv, keys = ops.mul, ops.delta, ops.antipode, ops.antipode_inv, ops.keys
        self.delta = KeyTable(lambda k: tuple(delta(k)))
        self.eps = KeyTable(ops.eps)
        self.prod = prod = PairTable(lambda x, y: tuple(mul(x, y).items()))
        self.s = s_rows = KeyTable(lambda k: tuple(s(k).items()))
        self.s_inv = s_inv_rows = KeyTable(lambda k: tuple(s_inv(k).items()))
        reduce = ops.field.reduce

        def s_power_rows(n: int) -> KeyTable:
            rows = s_rows if n > 0 else s_inv_rows

            def row(k) -> tuple:
                items = ((k, 1),)
                for _ in range(abs(n)):
                    items = tuple(lc_canon(raw_sum(items, rows.__getitem__), reduce).items())
                return items

            return rows if abs(n) == 1 else KeyTable(row)

        self.s_pow = KeyTable(s_power_rows)
        self.unit = tuple(ops.unit.items())
        self.line = KeyTable(lambda l: tuple(map(prod[l].__getitem__, keys)))
        self.proof: tuple | None = None


def combine(items, table) -> dict:
    """The sum of c table[k] over the items (k, c) of a combination, for a
    table of sparse rows {cell: value}; one term with c = 1 is its row itself."""
    if len(items) == 1 and items[0][1] == 1:
        return table[items[0][0]]
    out: dict = {}
    for k, c in items:
        for cell, v in table[k].items():
            out[cell] = out.get(cell, 0) + c * v
    return out


def nonzero(table, over) -> KeyTable:
    """k -> {m: table[k][m]} over the keys m in over, nonzero values only."""
    return KeyTable(lambda k: {m: v for m, v in zip(over, map(table[k].__getitem__, over)) if v})


def by_key(cols, items) -> dict:
    """{k: {l: c}} over the items (k, c) of items[l] for l in cols."""
    out: dict = {}
    for l in cols:
        for k, c in items[l]:
            out.setdefault(k, {})[l] = c
    return out


def first_in(cells, cols):
    """The first col in cols that is among cells, or None."""
    return next(filter(cells.__contains__, cols), None)


def first_gap(left: dict, right: dict, ms, gap):
    """The first m in ms at which the sides {m: raw value} of a row differ
    in the field, or None: equal raw sides pass unreduced, else gap(lhs,
    rhs) decides each cell whose raw values differ (0 where one is absent)."""
    if left == right:
        return None
    return first_in({m for m in left.keys() | right.keys()
                     if left.get(m, 0) != right.get(m, 0) and gap(left.get(m, 0), right.get(m, 0))},
                    ms)


def key_check(name: str, ops: BasisOps, holds) -> CheckResult:
    """grid_check of holds(h) over the keys, with witness "at <h>"."""
    return grid_check(name, ops.keys, holds, lambda h: f"at {ops.label(h)}")


PASSED = (None, True)  # the one cell of every passing point


def row_grid(name: str, ops: BasisOps, first_failure, *axes) -> CheckResult:
    """grid_check over product(*axes) in lexicographic order, one row at a
    time: first_failure(*row, cols) names the first col of the last axis at
    which the law fails, or None.  grid_check reads one item per point, by C
    iterators: PASSED per passing point, and (witness, False) ends it."""
    cols = axes[-1]

    def cells():
        for row in product(*axes[:-1]):
            bad = first_failure(*row, cols)
            if bad is not None:
                yield repeat(PASSED, cols.index(bad))
                yield (((*row, bad), False),)
                return
            yield repeat(PASSED, len(cols))

    return grid_check(name, chain.from_iterable(cells()), itemgetter(1),
                      lambda cell: f"at ({', '.join(map(ops.label, cell[0]))})")


def _decided(name: str, ops: BasisOps, first_failure, arity: int, gens, second) -> CheckResult:
    """row_grid over the points with s in gens as first key, or as second
    when second, when gens are given and those pass, else over every key
    point: the reduced points are among them, so only a full grid fails."""
    if gens:
        axes = [ops.keys] * arity
        axes[1 if second else 0] = gens
        if (result := row_grid(name, ops, first_failure, *axes)).ok:
            return result
    return row_grid(name, ops, first_failure, *[ops.keys] * arity)


def pair_check(name: str, ops: BasisOps, first_failure, gens=None, second=False) -> CheckResult:
    """_decided over the key pairs, first_failure(h, ls) per row h."""
    return _decided(name, ops, first_failure, 2, gens, second)


def triple_grid_check(name: str, ops: BasisOps, first_failure, gens=None,
                      second=False) -> CheckResult:
    """_decided over the key triples, first_failure(h, l, ms) per row (h, l)."""
    return _decided(name, ops, first_failure, 3, gens, second)


def generators(ops: BasisOps) -> tuple | None:
    """Keys S whose left products reach every key, read off ops' prod: in
    key order, a key not yet reached joins S, and s h' = c k with c nonzero,
    s in S and h' reached, reaches k.  None when a product of two keys
    leaves the keys (a Laurent window) or S is every key."""
    keys, prod = ops.keys, ops.tables.prod
    index = set(keys)
    if any(k not in index for h in keys for l in keys for k, _ in prod[h][l]):
        return None
    gens, reached, todo = [], set(), []  # todo: the pairs (s, h') not yet read

    def reach(k) -> None:
        reached.add(k)
        todo.extend((s, k) for s in gens)

    for key in keys:
        if key not in reached:
            gens.append(key)
            todo.extend((key, h) for h in reached)
            reach(key)
        while todo:
            s, h = todo.pop()
            terms = [k for k, c in prod[s][h] if c]
            if len(terms) == 1 and terms[0] not in reached:
                reach(terms[0])
    return None if len(gens) == len(keys) else tuple(gens)


def braiding_generators(ops: BasisOps) -> tuple | None:
    """ops' S proof, () (nothing to reduce) included, when there is one;
    else generators(ops) once associativity holds on their rows and
    coassociativity on the keys, the premises of sigma's two laws, else
    None."""
    if ops.tables.proof is not None:
        return ops.tables.proof
    gens, keys, assoc = generators(ops), ops.keys, associativity_rows(ops)
    premises = gens and all(assoc(s, l, keys) is None for s in gens for l in keys) and all(
        map(coassociative(ops), keys))
    return gens if premises else None


def sum_items(a, row) -> tuple:
    """The items, repeats kept, of the sum of c row(k) over the items (k, c)
    of a combination; for one term with c = 1, row(k) itself."""
    if len(a) == 1 and a[0][1] == 1:
        return row(a[0][0])
    return tuple((k2, c * w) for k, c in a for k2, w in row(k))


def associativity_rows(ops: BasisOps):
    """The row kernel of (h l) m = h (l m).  Both sides of a row are lists
    of raw items over the columns: the left one of h l, cached per h l, and
    the right one read by the id of each l m (KernelTables.line) off the
    items of h (l m), a list by id for the latest h.  Equal rows pass at
    once; a cell whose items differ sums them."""
    tables, cols = ops.tables, ops.keys
    prod, line, reduce = tables.prod, tables.line, ops.field.reduce
    left_rows = KeyTable(lambda a: [sum_items(a, lambda k: prod[k][m]) for m in cols])
    ids: dict = {}  # each distinct l m -> its index in products
    line_ids = {l: [ids.setdefault(lm, len(ids)) for lm in line[l]] for l in cols}
    products, times_h = tuple(ids), {}  # h -> [h a for a in products], for the latest h

    def items_gap(a, b) -> bool:
        diff: dict = {}
        for k, v in chain(a, ((k, -v) for k, v in b)):
            diff[k] = diff.get(k, 0) + v
        return any(map(reduce, diff.values()))

    def associativity(h, l, ms):
        if h not in times_h:
            times_h.clear()
            times_h[h] = [sum_items(a, prod[h].__getitem__) for a in products]
        left, right = left_rows[prod[h][l]], list(map(times_h[h].__getitem__, line_ids[l]))
        return None if left == right else first_gap(
            dict(zip(cols, left)), dict(zip(cols, right)), ms, items_gap)

    return associativity


def coassociative(ops: BasisOps):
    """The key predicate (Delta (x) id) Delta(k) = (id (x) Delta) Delta(k)."""
    delta, reduce = ops.tables.delta, ops.field.reduce

    def holds(k) -> bool:
        diff: dict = {}
        for c, k1, k2 in delta[k]:
            for c2, a, b in delta[k1]:
                diff[a, b, k2] = diff.get((a, b, k2), 0) + c * c2
            for c2, a, b in delta[k2]:
                diff[k1, a, b] = diff.get((k1, a, b), 0) - c * c2
        return not any(map(reduce, diff.values()))

    return holds


def tensor2_flip(t: dict) -> dict:
    return {(b, a): v for (a, b), v in t.items()}


def tensor2_map(ops: BasisOps, t: dict, first: int = 0, second: int = 0) -> dict:
    """Apply S^first to the first legs of t and S^second to the second."""
    rows_a, rows_b = ops.tables.s_pow[first], ops.tables.s_pow[second]
    return lc_canon(raw_sum(t.items(), lambda ab: [
        ((ka, kb), va * vb) for ka, va in rows_a[ab[0]] for kb, vb in rows_b[ab[1]]]),
        ops.field.reduce)


def tensor2_mul(ops: BasisOps, t1: dict, t2: dict) -> dict:
    """Product of two leg-pair combinations inside the tensor square."""
    prod, out = ops.tables.prod, {}
    for (a1, b1), v1 in t1.items():
        for (a2, b2), v2 in t2.items():
            c = v1 * v2
            if not c:
                continue
            for ka, va in prod[a1][a2]:
                for kb, vb in prod[b1][b2]:
                    key = (ka, kb)
                    term = c * va * vb
                    prev = out.get(key)
                    out[key] = term if prev is None else prev + term
    return lc_canon(out, ops.field.reduce)


def hopf_axiom_checks(ops: BasisOps) -> list[CheckResult]:
    """The full axiom battery on the key grid, in a fixed order.  The grids
    read ops' tables, so each product and coproduct is computed once and
    each cell is reduced once; when every line passes, the tables keep the
    S proved here as their proof."""
    out: list[CheckResult] = []
    tables = ops.tables
    prod, delta, eps, reduce = tables.prod, tables.delta, tables.eps, ops.field.reduce
    gens = generators(ops)
    out.append(triple_grid_check("hopf.associativity", ops, associativity_rows(ops), gens))
    # Delta and eps close on an associative product
    gens = (gens or ()) if out[0].ok else None

    out.append(key_check(
        "hopf.unit_laws", ops,
        lambda k: lc_eq(ops.mul_lc(ops.unit, ops.single(k)), ops.single(k))
        and lc_eq(ops.mul_lc(ops.single(k), ops.unit), ops.single(k))))
    out.append(key_check("hopf.coassociativity", ops, coassociative(ops)))

    def two_sided(left, right, target):
        """Sums of c left(k1, k2) and of c right(k1, k2) over Delta(k) = target(k)."""
        def holds(k) -> bool:
            sums, goal = ({}, {}), target(k)
            for c, k1, k2 in delta[k]:
                for acc, side in zip(sums, (left, right)):
                    for m, v in side(k1, k2).items():
                        acc[m] = acc.get(m, 0) + c * v
            return all(lc_eq(lc_canon(acc, reduce), goal) for acc in sums)

        return holds

    out.append(key_check("hopf.counit_laws", ops, two_sided(
        lambda k1, k2: {k2: eps[k1]}, lambda k1, k2: {k1: eps[k2]}, ops.single)))

    def delta_multiplicative(a, bs):
        """Delta(a b) = Delta(a) Delta(b), with Delta(a) expanded once per row."""
        row, terms = prod[a], [(c1, prod[a1], prod[a2]) for c1, a1, a2 in delta[a]]
        for b in bs:
            diff: dict = {}
            for k, c in row[b]:
                for c2, k1, k2 in delta[k]:
                    diff[k1, k2] = diff.get((k1, k2), 0) + c * c2
            for c1, row1, row2 in terms:
                for c2, b1, b2 in delta[b]:
                    c = c1 * c2
                    for k1, w1 in row1[b1]:
                        for k2, w2 in row2[b2]:
                            diff[k1, k2] = diff.get((k1, k2), 0) - c * w1 * w2
            if any(map(reduce, diff.values())):
                return b
        return None

    out.append(pair_check("hopf.comultiplication_multiplicative", ops, delta_multiplicative,
                          gens))

    out.append(check("hopf.comultiplication_unital",
                     lc_eq(ops.delta_lc(ops.unit), ops.outer(ops.unit, ops.unit))))

    out.append(pair_check("hopf.counit_multiplicative", ops,
                          multiplicative_rows(ops, eps.__getitem__), gens))

    out.append(check("hopf.counit_unital", ops.eps_lc(ops.unit) == ops.one))

    if ops.antipode is None:
        out.append(skipped("hopf.antipode_laws", "no antipode available"))
        return out

    out.append(key_check("hopf.antipode_laws", ops, two_sided(
        lambda k1, k2: ops.mul_lc(ops.s_lc(ops.single(k1)), ops.single(k2)),
        lambda k1, k2: ops.mul_lc(ops.single(k1), ops.s_lc(ops.single(k2))),
        lambda k: ops.scale(eps[k], ops.unit))))

    if ops.antipode_inv is not None:
        out.append(key_check(
            "hopf.antipode_bijective", ops,
            lambda k: lc_eq(ops.s_inv_lc(ops.s_lc(ops.single(k))), ops.single(k))
            and lc_eq(ops.s_lc(ops.s_inv_lc(ops.single(k))), ops.single(k))))
    if all(x.status == PASS for x in out):
        tables.proof = gens
    return out
