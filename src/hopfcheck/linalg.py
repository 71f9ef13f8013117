"""Exact linear algebra: solving, nullspaces, inverses, echelon bases.

Everything works over the fields from hopfcheck.scalars with exact
division.  A linear system is sparse from the start: the package builds
the systems it solves as SparseMatrix rows, {column: value} dicts holding
only the nonzero coefficients, and a dense Matrix (the antipode, the
integral pairing, the Nakayama matrix) hands the solver the same rows
through sparse_rows().  Gauss-Jordan elimination keeps them sparse until
the solution comes out: a column -> rows index means only the rows that
hold the pivot column get visited, and among the rows that can pivot a
column the sparsest is taken, to limit fill-in.  The pivot choice cannot
change any result: the reduced row echelon form of a matrix is unique, so
every pivot order gives the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Field, Scalar, div

Vector = tuple


class SingularMatrixError(ValueError):
    """The matrix has no inverse."""


@dataclass(frozen=True)
class Matrix:
    """An immutable dense matrix over an exact field."""

    field: Field
    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        return cls(field, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, tuple((z,) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def sparse_rows(self) -> list[dict]:
        return [{j: x for j, x in enumerate(row) if x} for row in self.rows]

    def sparse_columns(self) -> tuple[dict, ...]:
        return tuple({i: row[j] for i, row in enumerate(self.rows) if row[j]}
                     for j in range(self.ncols))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)) if self.rows else ())

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        cols = other.transpose().rows
        return Matrix(
            self.field,
            tuple(tuple(_dot(r, c, self.field.zero) for c in cols) for r in self.rows),
        )

    def apply(self, vec: Vector) -> Vector:
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} against {self.nrows}x{self.ncols}")
        return tuple(_dot(r, vec, self.field.zero) for r in self.rows)


@dataclass
class SparseMatrix:
    """A matrix given by its rows as {column: value} dicts over
    range(ncols); a column missing from a row is a zero there.  The linear
    systems of the package are built in one, entry by entry."""

    field: Field
    rows: list[dict]
    ncols: int

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "SparseMatrix":
        return cls(field, [{} for _ in range(nrows)], ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def add(self, i: int, j: int, v: Scalar) -> None:
        """Entry (i, j) += v; an entry that cancels to zero is left for the
        solver to drop."""
        row = self.rows[i]
        row[j] = row[j] + v if j in row else v

    def sparse_rows(self) -> list[dict]:
        return self.rows


def _dot(u, v, zero: Scalar) -> Scalar:
    acc = zero
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _rref(rows, ncols: int) -> tuple[list[int], list[dict]]:
    """Gauss-Jordan elimination on {column: value} rows over range(ncols).

    Returns the pivot columns and the reduced pivot rows, in pivot order, as
    {column: value} dicts; the zero rows of the echelon form are dropped.
    The input rows may hold zero values and are not modified.
    """
    sparse = [{j: x for j, x in row.items() if x} for row in rows]
    holders: list[set[int]] = [set() for _ in range(ncols)]  # column -> rows nonzero there
    for i, row in enumerate(sparse):
        for j in row:
            holders[j].add(i)
    unpivoted = set(range(len(sparse)))
    pivots: list[int] = []
    pivot_rows: list[dict] = []
    for c in range(ncols):
        candidates = holders[c] & unpivoted
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(sparse[i]), i))
        unpivoted.discard(p)
        prow = sparse[p]
        inv = prow[c]
        for j, x in prow.items():
            prow[j] = div(x, inv)
        for i in holders[c] - {p}:
            row = sparse[i]
            f = -row.pop(c)
            for j, v in prow.items():
                if j == c:
                    continue
                x = row[j] + f * v if j in row else f * v
                if x:
                    row[j] = x
                    holders[j].add(i)
                else:
                    del row[j]
                    holders[j].discard(i)
        holders[c] = {p}
        pivots.append(c)
        pivot_rows.append(prow)
    return pivots, pivot_rows


@dataclass(frozen=True)
class LinearSolution:
    """A particular solution of A x = b together with a nullspace basis."""

    particular: Vector
    homogeneous: tuple[Vector, ...]

    @property
    def unique(self) -> bool:
        return not self.homogeneous


def solve_linear(a: Matrix | SparseMatrix, b: Vector) -> LinearSolution | None:
    """Solve A x = b exactly; None means the system is inconsistent.

    The solution vectors are dense.
    """
    if len(b) != a.nrows:
        raise ValueError(f"right-hand side of length {len(b)} against {a.nrows} rows")
    zero, one = a.field.zero, a.field.one
    n = a.ncols
    aug = [{**row, n: rhs} if rhs else row for row, rhs in zip(a.sparse_rows(), b)]
    pivots, pivot_rows = _rref(aug, n + 1)
    if pivots and pivots[-1] == n:
        return None
    pivot_set = set(pivots)
    particular = [zero] * n
    homogeneous = {}  # free column -> its nullspace vector
    for fc in range(n):
        if fc not in pivot_set:
            homogeneous[fc] = [zero] * n
            homogeneous[fc][fc] = one
    for c, prow in zip(pivots, pivot_rows):
        for j, x in prow.items():
            if j == n:
                particular[c] = x
            elif j != c:
                homogeneous[j][c] = -x
    return LinearSolution(tuple(particular), tuple(tuple(v) for v in homogeneous.values()))


def nullspace(a: Matrix | SparseMatrix) -> tuple[Vector, ...]:
    """A basis of {x : A x = 0}, in free-column order."""
    sol = solve_linear(a, (a.field.zero,) * a.nrows)
    assert sol is not None
    return sol.homogeneous


def rank(a: Matrix | SparseMatrix) -> int:
    return len(_rref(a.sparse_rows(), a.ncols)[0])


def invert_matrix(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise SingularMatrixError(f"non-square {a.nrows}x{a.ncols} matrix")
    n = a.nrows
    zero, one = a.field.zero, a.field.one
    aug = [{**row, n + i: one} for i, row in enumerate(a.sparse_rows())]
    pivots, pivot_rows = _rref(aug, 2 * n)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(a.field, tuple(tuple(prow.get(j, zero) for j in range(n, 2 * n))
                                 for prow in pivot_rows))


class EchelonBasis:
    """An incrementally built subspace basis kept in reduced echelon form.

    Used for closure computations: insert vectors one at a time, read off
    dimension, and compute coordinates of members relative to the basis.
    Vectors go in and come out dense; the basis rows are kept as
    {column: value} dicts, so reducing and inserting touch only nonzeros.
    """

    def __init__(self, field: Field, ambient_dim: int) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows: list[dict] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def vectors(self) -> tuple[Vector, ...]:
        zero = self.field.zero
        return tuple(tuple(row.get(j, zero) for j in range(self.ambient_dim))
                     for row in self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def reduce(self, vec: Vector) -> dict:
        """The nonzero entries of vec minus its projection on the basis.

        Each basis row is zero at every other row's pivot, so the row of a
        pivot is subtracted with vec's own entry there, in any order.
        """
        v = {j: x for j, x in enumerate(vec) if x}
        for row, p in zip(self._rows, self._pivots):
            f = v.get(p)
            if f is not None:
                _axpy(v, -f, row)
        return v

    def insert(self, vec: Vector) -> bool:
        """Add a vector; returns True when it enlarges the span."""
        if len(vec) != self.ambient_dim:
            raise ValueError("wrong ambient dimension")
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot]
        v = {j: div(x, inv) for j, x in v.items()}
        for row in self._rows:
            f = row.get(pivot)
            if f is not None:
                _axpy(row, -f, v)
        at = next((k for k, p in enumerate(self._pivots) if p > pivot), len(self._pivots))
        self._rows.insert(at, v)
        self._pivots.insert(at, pivot)
        return True

    def contains(self, vec: Vector) -> bool:
        return not self.reduce(vec)

    def coords(self, vec: Vector) -> Vector | None:
        """Coordinates of vec in this basis, or None when outside the span."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in self._pivots)


def _axpy(row: dict, f: Scalar, other: dict) -> None:
    """row += f * other on {column: value} rows, dropping the zeros made."""
    for j, x in other.items():
        y = row[j] + f * x if j in row else f * x
        if y:
            row[j] = y
        else:
            del row[j]
