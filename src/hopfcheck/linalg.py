"""Exact linear algebra: solving, nullspaces, inverses, echelon bases.

Everything works over the fields from hopfcheck.scalars, with the field's
exact division and each sum reduced as it is stored.  SparseMatrix is the
one matrix type: its rows are {column: value} dicts holding only the
nonzero coefficients, and every linear system, the integral pairing and
the Nakayama matrix are built as one.  Gauss-Jordan elimination keeps the
rows sparse until the solution comes out: a column -> rows index means
only the rows that hold the pivot column get visited, and among the rows
that can pivot a column the sparsest is taken, to limit fill-in.  The
pivot choice cannot change any result: the reduced row echelon form of a
matrix is unique, so every pivot order gives the same rows.
invert_matrix(a, b) reduces [A | B] once and reads A^-1 B off the right
block, so no product with an inverse is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Field, Scalar

Vector = tuple


class SingularMatrixError(ValueError):
    """The matrix has no inverse."""


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
        """Entry (i, j) += v, reduced; an entry that cancels to zero is left
        for the solver to drop."""
        row = self.rows[i]
        row[j] = self.field.reduce(row[j] + v if j in row else v)

    def transpose(self) -> "SparseMatrix":
        out = SparseMatrix.zeros(self.field, self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                out.rows[j][i] = x
        return out


def _rref(field: Field, rows, ncols: int) -> tuple[list[int], list[dict]]:
    """Gauss-Jordan elimination on {column: value} rows over range(ncols),
    in field.

    Returns the pivot columns and the reduced pivot rows, in pivot order, as
    {column: value} dicts; the zero rows of the echelon form are dropped.
    The input rows may hold zero values and are not modified.
    """
    div, reduce = field.div, field.reduce
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
                x = reduce(row[j] + f * v if j in row else f * v)
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


def solve_linear(a: SparseMatrix, b: Vector) -> LinearSolution | None:
    """Solve A x = b exactly; None means the system is inconsistent.

    The solution vectors are dense.
    """
    if len(b) != a.nrows:
        raise ValueError(f"right-hand side of length {len(b)} against {a.nrows} rows")
    zero, one, reduce = a.field.zero, a.field.one, a.field.reduce
    n = a.ncols
    aug = [{**row, n: x} if (x := reduce(rhs)) else row for row, rhs in zip(a.rows, b)]
    pivots, pivot_rows = _rref(a.field, aug, n + 1)
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
                homogeneous[j][c] = reduce(-x)
    return LinearSolution(tuple(particular), tuple(tuple(v) for v in homogeneous.values()))


def nullspace(a: SparseMatrix) -> tuple[Vector, ...]:
    """A basis of {x : A x = 0}, in free-column order."""
    sol = solve_linear(a, (a.field.zero,) * a.nrows)
    assert sol is not None
    return sol.homogeneous


def rank(a: SparseMatrix) -> int:
    return len(_rref(a.field, a.rows, a.ncols)[0])


def invert_matrix(a: SparseMatrix, b: SparseMatrix | None = None) -> SparseMatrix:
    """A^-1 B, or A^-1 when b is None, by one elimination over [A | B]."""
    if a.nrows != a.ncols:
        raise SingularMatrixError(f"non-square {a.nrows}x{a.ncols} matrix")
    n = a.nrows
    if b is None:
        b = SparseMatrix(a.field, [{i: a.field.one} for i in range(n)], n)
    elif b.nrows != n:
        raise ValueError(f"{b.nrows} right-hand rows against {n}")
    aug = [{**row, **{n + j: x for j, x in rhs.items()}} for row, rhs in zip(a.rows, b.rows)]
    pivots, pivot_rows = _rref(a.field, aug, n + b.ncols)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return SparseMatrix(a.field, [{j - n: x for j, x in prow.items() if j >= n}
                                  for prow in pivot_rows], b.ncols)


class EchelonBasis:
    """An incrementally built subspace basis kept in reduced echelon form,
    over field.

    Used for closure computations: insert vectors one at a time, read off
    dimension, and compute coordinates of members relative to the basis.
    Vectors go in and come out as {column: value} dicts, so reducing and
    inserting touch only nonzeros.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self._rows: list[dict] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def vectors(self) -> tuple[dict, ...]:
        """Copies of the basis rows, in pivot order."""
        return tuple(dict(row) for row in self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def reduce(self, vec: dict) -> dict:
        """The nonzero entries of vec minus its projection on the basis.

        Each basis row is zero at every other row's pivot, so the row of a
        pivot is subtracted with vec's own entry there, in any order.
        """
        v = {j: x for j, x in vec.items() if x}
        for row, p in zip(self._rows, self._pivots):
            f = v.get(p)
            if f is not None:
                self._axpy(v, -f, row)
        return v

    def insert(self, vec: dict) -> bool:
        """Add a vector; returns True when it enlarges the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot]
        v = {j: self.field.div(x, inv) for j, x in v.items()}
        for row in self._rows:
            f = row.get(pivot)
            if f is not None:
                self._axpy(row, -f, v)
        at = next((k for k, p in enumerate(self._pivots) if p > pivot), len(self._pivots))
        self._rows.insert(at, v)
        self._pivots.insert(at, pivot)
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def coords(self, vec: dict) -> dict | None:
        """Coordinates of vec in this basis as {basis index: value}, or None
        when vec is outside the span."""
        if not self.contains(vec):
            return None
        return {k: vec[p] for k, p in enumerate(self._pivots) if vec.get(p)}

    def _axpy(self, row: dict, f: Scalar, other: dict) -> None:
        """row += f * other on {column: value} rows, reduced, dropping the
        zeros made."""
        reduce = self.field.reduce
        for j, x in other.items():
            y = reduce(row[j] + f * x if j in row else f * x)
            if y:
                row[j] = y
            else:
                del row[j]
