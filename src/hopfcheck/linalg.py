"""Exact linear algebra: solving, nullspaces, inverses, echelon bases.

Everything works over the fields from hopfcheck.scalars with exact
division.  Matrices are dense, but the systems the package builds are
mostly zeros, so Gauss-Jordan elimination runs on sparse rows: each row is
a {column: value} dict, and a column -> rows index means only the rows
that hold the pivot column get visited.  Among the rows that can pivot a
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

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)) if self.rows else ())

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.field, tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.field, tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

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

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")


def _dot(u, v, zero: Scalar) -> Scalar:
    acc = zero
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _rref(rows: list[list[Scalar]]) -> list[int]:
    """Reduce in place to reduced row echelon form; return pivot columns.

    The rows are written back dense: the pivot rows in pivot order, then
    the zero rows.
    """
    if not rows or not rows[0]:
        return []
    nrows, ncols = len(rows), len(rows[0])
    zero = rows[0][0] - rows[0][0]  # the entries' own zero, even when none is zero
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    holders: list[set[int]] = [set() for _ in range(ncols)]  # column -> rows nonzero there
    for i, row in enumerate(sparse):
        for j in row:
            holders[j].add(i)
    unpivoted = set(range(nrows))
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
    rows[:] = [[zero] * ncols for _ in range(nrows)]
    for dense, prow in zip(rows, pivot_rows):
        for j, x in prow.items():
            dense[j] = x
    return pivots


@dataclass(frozen=True)
class LinearSolution:
    """A particular solution of A x = b together with a nullspace basis."""

    particular: Vector
    homogeneous: tuple[Vector, ...]

    @property
    def unique(self) -> bool:
        return not self.homogeneous


def solve_linear(a: Matrix, b: Vector) -> LinearSolution | None:
    """Solve A x = b exactly; None means the system is inconsistent."""
    if len(b) != a.nrows:
        raise ValueError(f"right-hand side of length {len(b)} against {a.nrows} rows")
    zero, one = a.field.zero, a.field.one
    n = a.ncols
    aug = [list(row) + [rhs] for row, rhs in zip(a.rows, b)]
    if not aug:
        return LinearSolution((), ())
    pivots = _rref(aug)
    if n in pivots:
        return None
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    particular = [zero] * n
    for c, r in pivot_of_col.items():
        particular[c] = aug[r][n]
    basis = []
    for fc in free_cols:
        v = [zero] * n
        v[fc] = one
        for c, r in pivot_of_col.items():
            v[c] = -aug[r][fc]
        basis.append(tuple(v))
    return LinearSolution(tuple(particular), tuple(basis))


def nullspace(a: Matrix) -> tuple[Vector, ...]:
    """A basis of {x : A x = 0}, in free-column order."""
    sol = solve_linear(a, (a.field.zero,) * a.nrows)
    assert sol is not None
    return sol.homogeneous


def rank(a: Matrix) -> int:
    rows = [list(r) for r in a.rows]
    return len(_rref(rows))


def invert_matrix(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise SingularMatrixError(f"non-square {a.nrows}x{a.ncols} matrix")
    n = a.nrows
    ident = Matrix.identity(a.field, n)
    aug = [list(r) + list(e) for r, e in zip(a.rows, ident.rows)]
    pivots = _rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(a.field, tuple(tuple(row[n:]) for row in aug))


class EchelonBasis:
    """An incrementally built subspace basis kept in reduced echelon form.

    Used for closure computations: insert vectors one at a time, read off
    dimension, and compute coordinates of members relative to the basis.
    """

    def __init__(self, field: Field, ambient_dim: int) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows: list[tuple[Scalar, ...]] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return tuple(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def reduce(self, vec: Vector) -> list[Scalar]:
        v = list(vec)
        for row, p in zip(self._rows, self._pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def insert(self, vec: Vector) -> bool:
        """Add a vector; returns True when it enlarges the span."""
        if len(vec) != self.ambient_dim:
            raise ValueError("wrong ambient dimension")
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = v[pivot]
        v = [div(x, inv) for x in v]
        self._rows = [
            tuple(a - row[pivot] * b for a, b in zip(row, v)) if row[pivot] else row
            for row in self._rows
        ]
        at = next((k for k, p in enumerate(self._pivots) if p > pivot), len(self._pivots))
        self._rows.insert(at, tuple(v))
        self._pivots.insert(at, pivot)
        return True

    def contains(self, vec: Vector) -> bool:
        return not any(self.reduce(vec))

    def coords(self, vec: Vector) -> Vector | None:
        """Coordinates of vec in this basis, or None when outside the span."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in self._pivots)
