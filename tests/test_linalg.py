import dataclasses
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import hopf, linalg
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import compute_antipode
from hopfcheck.linalg import (
    EchelonBasis,
    SingularMatrixError,
    SparseMatrix,
    _rref,
    invert_matrix,
    nullspace,
    rank,
    solve_linear,
)
from hopfcheck.scalars import PrimeField, QQ
from test_scalars import CountingField


def sparse_vector(vec):
    return {j: x for j, x in enumerate(vec) if x}


def sparse_of(rows):
    return [sparse_vector(row) for row in rows]


def sparse_matrix(field, rows):
    """The SparseMatrix of dense rows."""
    return SparseMatrix(field, sparse_of(rows), len(rows[0]) if rows else 0)


def mat(rows):
    return sparse_matrix(QQ, [[Fraction(x) for x in row] for row in rows])


def dense(a):
    return [[row.get(j, a.field.zero) for j in range(a.ncols)] for row in a.rows]


def apply(a, vec):
    """A vec, by the dense definition."""
    reduce = a.field.reduce
    return tuple(reduce(sum(x * v for x, v in zip(row, vec))) for row in dense(a))


def matmul(a, b):
    """The dense product of two SparseMatrix, by the definition."""
    reduce = a.field.reduce
    cols = list(zip(*dense(b))) if b.rows else [()] * b.ncols
    return [[reduce(sum(x * y for x, y in zip(row, col))) for col in cols] for row in dense(a)]


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def dense_rref(rows, field=QQ):
    """Dense Gauss-Jordan in field: the first nonzero entry pivots, whole
    rows update.

    The reference the sparse _rref must reproduce exactly, rows and
    pivots, and the elimination inside naive_solve.
    """
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [field.div(x, inv) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.reduce(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def dense_rref_on_sparse(field, rows, ncols):
    """dense_rref behind the kernel's interface: densify the {col: value}
    rows, reduce them whole, and hand back the pivots and the nonzero
    entries of the pivot rows, as _rref does."""
    if not any(rows):
        return [], []
    dense = [[row.get(j, field.zero) for j in range(ncols)] for row in rows]
    pivots = dense_rref(dense, field)
    return pivots, sparse_of(dense[:len(pivots)])


def naive_solve(rows, rhs):
    """Independent fraction-by-fraction elimination used as an oracle.

    Returns one solution or None; written without consulting the library
    code so the two can disagree.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    where = dense_rref(m)
    if ncols in where:
        return None
    out = [Fraction(0)] * ncols
    for row_idx, c in enumerate(where):
        out[c] = m[row_idx][ncols]
    return out


small = st.integers(min_value=-4, max_value=4)


@st.composite
def system(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = [[Fraction(draw(small)) for _ in range(n)] for _ in range(m)]
    rhs = [Fraction(draw(small)) for _ in range(m)]
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(system())
def test_solver_agrees_with_oracle(sys_pair):
    rows, rhs = sys_pair
    got = solve_linear(mat(rows), tuple(rhs))
    expect = naive_solve(rows, rhs)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        a = mat(rows)
        assert list(apply(a, got.particular)) == rhs
        for h in got.homogeneous:
            assert all(v == 0 for v in apply(a, h))


def test_solve_shapes():
    a = mat([[1, 2], [3, 4]])
    sol = solve_linear(a, (Fraction(5), Fraction(11)))
    assert sol is not None and sol.unique
    assert sol.particular == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        solve_linear(a, (Fraction(1),))


def test_inconsistent_system():
    a = mat([[1, 1], [1, 1]])
    assert solve_linear(a, (Fraction(0), Fraction(1))) is None


def test_nullspace_and_rank():
    a = mat([[1, 2, 3], [2, 4, 6]])
    assert rank(a) == 1
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in apply(a, v))


def test_invert_matrix():
    a = mat([[2, 1], [1, 1]])
    b = invert_matrix(a)
    assert matmul(a, b) == identity(QQ, 2)
    assert matmul(b, a) == identity(QQ, 2)
    with pytest.raises(SingularMatrixError):
        invert_matrix(mat([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        invert_matrix(mat([[1, 2, 3]]))
    with pytest.raises(ValueError, match="right-hand rows"):
        invert_matrix(a, mat([[1, 2, 3]]))


def test_matrix_arithmetic_prime_field():
    f5 = PrimeField(5)
    a = sparse_matrix(f5, [[f5.parse(2), f5.parse(3)],
                           [f5.parse(1), f5.parse(3)]])
    inv = invert_matrix(a)
    assert matmul(a, inv) == identity(f5, 2)


def test_entries_that_cancel_mod_p_are_zero():
    """SparseMatrix.add reduces each entry it stores, so entries whose sum
    is a multiple of p are zero to the solver: over F_7, 3 + 4 at (0, 0)
    leaves x_0 free, where an unreduced 7 would pivot and divide by zero."""
    f7 = PrimeField(7)
    a = SparseMatrix.zeros(f7, 1, 2)
    for j, v in ((0, 3), (0, 4), (1, 2)):
        a.add(0, j, v)
    assert a.rows == [{0: 0, 1: 2}]
    sol = solve_linear(a, (f7.one,))
    assert sol.particular == (0, 4) and sol.homogeneous == ((1, 0),)


class TestEchelonBasis:
    def test_insert_and_coords(self):
        span = EchelonBasis(QQ)
        v1 = {0: Fraction(1), 1: Fraction(2)}
        v2 = {1: Fraction(1), 2: Fraction(1)}
        assert span.insert(v1)
        assert span.insert(v2)
        assert not span.insert({0: Fraction(1), 1: Fraction(3), 2: Fraction(1)})
        assert span.dim == 2
        combo = {j: 2 * v1.get(j, 0) + 3 * v2.get(j, 0) for j in range(3)}
        coords = span.coords(combo)
        assert coords is not None
        rebuilt = {}
        for k, c in coords.items():
            for j, x in span.vectors[k].items():
                rebuilt[j] = rebuilt.get(j, 0) + c * x
        assert rebuilt == combo
        assert span.coords({2: Fraction(1)}) is None
        span.vectors[0].clear()  # the rows handed out are copies
        assert span.vectors[0]

    def test_contains(self):
        span = EchelonBasis(QQ)
        span.insert({0: Fraction(1), 1: Fraction(1)})
        assert span.contains({0: Fraction(2), 1: Fraction(2)})
        assert not span.contains({0: Fraction(1)})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(small, small, small), max_size=6))
    def test_dim_matches_rank(self, vecs):
        span = EchelonBasis(QQ)
        for v in vecs:
            span.insert(sparse_vector(map(Fraction, v)))
        expected = rank(mat(vecs)) if vecs else 0
        assert span.dim == expected
        for v in vecs:
            assert span.contains(sparse_vector(map(Fraction, v)))


# -- the sparse elimination kernel against the dense definition --------------


FIELDS = [QQ, PrimeField(7), PrimeField(10007)]


def is_field_scalar(field, x):
    if field == QQ:
        return type(x) in (int, Fraction)
    return type(x) is int and 0 <= x < field.p


def nonzero_scalars(field):
    if field == QQ:
        return st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    return st.integers(1, field.p - 1)


@st.composite
def sparse_matrices(draw, field, max_dim=10):
    """Up to max_dim x max_dim; mostly zeros, sometimes fully dense."""
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim)) if nrows else 0
    zero_weight = draw(st.integers(0, 6))
    entry = st.one_of(*[st.just(field.zero)] * zero_weight, nonzero_scalars(field))
    return sparse_matrix(field, [[draw(entry) for _ in range(ncols)] for _ in range(nrows)])


def try_invert(a):
    try:
        return invert_matrix(a)
    except SingularMatrixError as exc:
        return str(exc)


def public_results(a, b):
    return solve_linear(a, b), nullspace(a), rank(a), try_invert(a)


def result_scalars(results):
    sol, null, _, inv = results
    vectors = list(null)
    if sol is not None:
        vectors += [sol.particular, *sol.homogeneous]
    if isinstance(inv, SparseMatrix):
        vectors += [row.values() for row in inv.rows]
    return [x for v in vectors for x in v]


def assert_matches_dense(field, rows):
    ncols = len(rows[0]) if rows else 0
    sparse_rows = sparse_of(rows)
    dense_rows = [list(r) for r in rows]
    pivots, pivot_rows = _rref(field, sparse_rows, ncols)
    assert pivots == dense_rref(dense_rows, field)
    assert pivot_rows == sparse_of(dense_rows[:len(pivots)])
    assert not any(x for row in dense_rows[len(pivots):] for x in row)
    assert sparse_rows == sparse_of(rows), "the input rows were modified"
    assert all(is_field_scalar(field, x) for row in pivot_rows for x in row.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rref_matches_dense_reference(field, data):
    a = data.draw(sparse_matrices(field))
    assert_matches_dense(field, dense(a))
    assert dense(a.transpose()) == [list(col) for col in zip(*dense(a))]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_public_results_match_dense_reference(field, data):
    a = data.draw(sparse_matrices(field))
    consistent = data.draw(st.booleans())
    vector = st.lists(st.one_of(st.just(field.zero), nonzero_scalars(field)),
                      min_size=a.ncols if consistent else a.nrows,
                      max_size=a.ncols if consistent else a.nrows)
    b = apply(a, tuple(data.draw(vector))) if consistent else tuple(data.draw(vector))
    got = public_results(a, b)
    with mock.patch.object(linalg, "_rref", dense_rref_on_sparse):
        expected = public_results(a, b)
    assert got == expected
    if consistent:
        assert got[0] is not None
    assert all(is_field_scalar(field, x) for x in result_scalars(got))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_edge_cases(field):
    zero, one = field.zero, field.one
    no_cols = SparseMatrix(field, [{}, {}, {}], 0)
    assert rank(no_cols) == 0
    assert nullspace(no_cols) == ()
    assert solve_linear(no_cols, (zero,) * 3) == linalg.LinearSolution((), ())
    assert solve_linear(no_cols, (one, zero, zero)) is None

    zeros = SparseMatrix.zeros(field, 3, 4)
    assert rank(zeros) == 0
    assert nullspace(zeros) == tuple(map(tuple, identity(field, 4)))
    assert solve_linear(zeros, (zero, one, zero)) is None
    assert_matches_dense(field, dense(zeros))

    assert invert_matrix(SparseMatrix(field, [], 0)) == SparseMatrix(field, [], 0)

    ints = lambda rows: [[field.reduce(x) for x in row] for row in rows]
    for given in ([[1, 2], [3, 4]], [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6]], [[5]]):
        rows = ints(given)
        assert all(x for row in rows for x in row), "no zero entry to reuse"
        assert_matches_dense(field, rows)
    inverse = invert_matrix(sparse_matrix(field, ints([[1, 2], [3, 4]])))
    assert all(is_field_scalar(field, x) for row in inverse.rows for x in row.values())
    assert inverse.rows[0][0] == field.reduce(-2)


def h_n_document(big_n, field_spec=None):
    """H_N = Laurent / (g^N - 1), over QQ unless a field spec is given, basis
    g^i x^j at index 2 i + j, antipode omitted (the layout of the
    benchmark's quotient workload)."""
    idx = lambda i, j: 2 * (i % big_n) + j
    return {
        "name": f"H{big_n}",
        "field": field_spec or {"type": "rationals"},
        "basis": [f"g^{i}" + ("x" if j else "") for i in range(big_n) for j in (0, 1)],
        "mult": [[idx(i, j), idx(t, s), idx(i + t, j + s), -1 if j * t % 2 else 1]
                 for i in range(big_n) for j in (0, 1)
                 for t in range(big_n) for s in (0, 1) if j + s <= 1],
        "comult": [e for i in range(big_n) for e in (
            [idx(i, 0), idx(i, 0), idx(i, 0), 1],
            [idx(i, 1), idx(i, 1), idx(i, 0), 1],
            [idx(i, 1), idx(i + 1, 0), idx(i, 1), 1])],
        "counit": [[idx(i, j), 1 - j] for i in range(big_n) for j in (0, 1)],
    }


def counting_h4():
    """H_4 over F_10007, built over a CountingField."""
    doc = parse_document(h_n_document(4, {"type": "prime", "p": 10007}))
    return build_algebra(dataclasses.replace(doc, field=CountingField(10007)))


def test_antipode_solve_scalar_work_is_bounded():
    """The antipode system of H_4 (dimension 8, 64 unknowns) is almost all
    zeros: over F_10007, compute_antipode makes 479 field operations
    (reduce and div calls) with the sparse kernel and 17,642 with the dense
    loop.  The count is taken over F_p, where every sum is reduced through
    the field."""
    algebra = counting_h4()
    field = algebra.field
    field.calls.clear()
    antipode = compute_antipode(algebra)
    sparse_ops = field.work()
    field.calls.clear()
    with mock.patch.object(linalg, "_rref", dense_rref_on_sparse):
        assert compute_antipode(algebra) == antipode
    dense_ops = field.work()
    assert sparse_ops <= 2000 < dense_ops


def test_antipode_system_is_built_sparse(monkeypatch):
    """compute_antipode on H_4 over F_10007 never visits the zero cells of
    its 2 * 64 x 65 = 8,320-cell augmented system: the matrix it solves
    holds 160 entries, one per table term it adds, and building and
    solving it reduces 407 values.  Rows built dense would hold, and
    reduce, every cell."""
    algebra = counting_h4()
    field, entries, real = algebra.field, [], hopf.solve_linear

    def spy(a, b):
        entries.append(sum(map(len, a.rows)))
        return real(a, b)

    monkeypatch.setattr(hopf, "solve_linear", spy)
    field.calls.clear()
    compute_antipode(algebra)
    assert len(entries) == 1 and entries[0] <= 1000 < 2 * 64 * 65, entries
    assert field.calls["reduce"] <= 1000 < 2 * 64 * 65, field.calls


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invert_matrix_solves_column_by_column(field, data):
    """invert_matrix(a, b) is A^-1 B: its column j is the unique solution of
    A x = b_j that solve_linear finds.  It raises SingularMatrixError exactly
    when rank(a) < a.nrows, and with b omitted it is A^-1 B at B = I."""
    n, m = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 4))
    entry = st.one_of(*[st.just(field.zero)] * data.draw(st.integers(0, 4)),
                      nonzero_scalars(field))
    draw_rows = lambda ncols: [[data.draw(entry) for _ in range(ncols)] for _ in range(n)]
    a = SparseMatrix(field, sparse_of(draw_rows(n)), n)
    b = SparseMatrix(field, sparse_of(draw_rows(m)), m)
    singular = rank(a) < a.nrows
    try:
        x = invert_matrix(a, b)
    except SingularMatrixError:
        assert singular
        return
    assert not singular
    assert (x.nrows, x.ncols) == (n, m)
    column = lambda rows, j: tuple(row.get(j, field.zero) for row in rows)
    for j in range(m):
        sol = solve_linear(a, column(b.rows, j))
        assert sol is not None and sol.unique
        assert column(x.rows, j) == sol.particular
    assert all(v and is_field_scalar(field, v) for row in x.rows for v in row.values())
    assert invert_matrix(a) == invert_matrix(a, sparse_matrix(field, identity(field, n)))


class DenseEchelonBasis:
    """The dense EchelonBasis that the sparse one replaced: whole-vector
    reductions and row updates, kept as its reference."""

    def __init__(self, field):
        self.field, self.rows, self.pivots = field, [], []

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [self.field.reduce(a - f * b) for a, b in zip(v, row)]
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = v[pivot]
        v = [self.field.div(x, inv) for x in v]
        self.rows = [tuple(self.field.reduce(a - row[pivot] * b) for a, b in zip(row, v))
                     if row[pivot] else row for row in self.rows]
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, tuple(v))
        self.pivots.insert(at, pivot)
        return True

    def coords(self, vec):
        if any(self.reduce(vec)):
            return None
        return tuple(vec[p] for p in self.pivots)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_basis_matches_dense_reference(field, data):
    dim = data.draw(st.integers(1, 7))
    entry = st.one_of(*[st.just(field.zero)] * data.draw(st.integers(0, 4)),
                      nonzero_scalars(field))
    vector = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    span, reference = EchelonBasis(field), DenseEchelonBasis(field)
    for vec in data.draw(st.lists(vector, max_size=8)):
        assert span.insert(sparse_vector(vec)) == reference.insert(vec)
        assert span.vectors == tuple(sparse_of(reference.rows))
        assert span.pivots == tuple(reference.pivots)
        assert all(is_field_scalar(field, x) for row in span.vectors for x in row.values())
    for vec in data.draw(st.lists(vector, max_size=4)):
        expected = reference.coords(vec)
        if expected is not None:
            expected = sparse_vector(expected)
        assert span.coords(sparse_vector(vec)) == expected
        assert span.contains(sparse_vector(vec)) == (expected is not None)
