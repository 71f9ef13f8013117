"""Finite-dimensional Hopf algebras presented by structure constants.

A FinHopfAlgebra holds a sparse multiplication table, a sparse coproduct,
a counit vector and an antipode matrix over an exact field.  Construction
validates every axiom eagerly unless asked not to (the unchecked path
exists so that verify_hopf can report failures instead of raising).
"""

from __future__ import annotations

from .lincomb import BasisOps, LC, lc_canon, lc_format
from .linalg import Matrix, SingularMatrixError, invert_matrix, nullspace, rank, solve_linear
from .report import CheckResult, check, failed, skipped
from .scalars import Field, Scalar


class AxiomError(ValueError):
    """A structure-constant table violates a required axiom."""


class NotInvertibleError(ValueError):
    """An element or functional has no inverse of the required kind."""


class Element:
    """A vector of coefficients over the basis of its parent algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "FinHopfAlgebra", coeffs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coefficients, got {len(coeffs)}")
        self.algebra = algebra
        self.coeffs = coeffs

    def __add__(self, other: "Element") -> "Element":
        self._check_parent(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Element") -> "Element":
        self._check_parent(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.mul(self, other)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, scalar) -> "Element":
        if isinstance(scalar, float):
            raise TypeError("no floats in exact arithmetic")
        return Element(self.algebra, tuple(scalar * a for a in self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.coeffs == self.coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lc(self) -> LC:
        return {i: c for i, c in enumerate(self.coeffs) if c}

    def __repr__(self) -> str:
        return f"<{self.algebra.format_element(self)}>"

    def _check_parent(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise ValueError("elements of different algebras")


class Functional:
    """A linear form on the algebra, stored by its values on the basis."""

    __slots__ = ("algebra", "values")

    def __init__(self, algebra: "FinHopfAlgebra", values) -> None:
        values = tuple(values)
        if len(values) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} values, got {len(values)}")
        self.algebra = algebra
        self.values = values

    def __call__(self, x: Element) -> Scalar:
        acc = self.algebra.field.zero
        for v, c in zip(self.values, x.coeffs):
            if v and c:
                acc = acc + v * c
        return acc

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.algebra, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(self.algebra, tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "Functional":
        return Functional(self.algebra, tuple(-a for a in self.values))

    def __mul__(self, other):
        if isinstance(other, Functional):
            return self.algebra.convolve(self, other)
        if isinstance(other, float):
            raise TypeError("no floats in exact arithmetic")
        return Functional(self.algebra, tuple(other * a for a in self.values))

    def __rmul__(self, other):
        if isinstance(other, float):
            raise TypeError("no floats in exact arithmetic")
        return Functional(self.algebra, tuple(other * a for a in self.values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Functional)
            and other.algebra is self.algebra
            and other.values == self.values
        )

    __hash__ = None  # type: ignore[assignment]

    def as_fn(self):
        values = self.values
        return lambda k: values[k]

    def __repr__(self) -> str:
        return f"<functional {list(map(str, self.values))}>"


class Tensor2:
    """An element of the tensor square, stored as a coefficient matrix."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: "FinHopfAlgebra", rows) -> None:
        rows = tuple(tuple(r) for r in rows)
        n = algebra.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("tensor-square coefficients must form an n-by-n matrix")
        self.algebra = algebra
        self.rows = rows

    @classmethod
    def outer(cls, x: Element, y: Element) -> "Tensor2":
        return cls(x.algebra, tuple(tuple(a * b for b in y.coeffs) for a in x.coeffs))

    def __add__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(self.algebra, tuple(tuple(a + b for a, b in zip(r, s))
                                           for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(self.algebra, tuple(tuple(a - b for a, b in zip(r, s))
                                           for r, s in zip(self.rows, other.rows)))

    def __rmul__(self, scalar):
        if isinstance(scalar, float):
            raise TypeError("no floats in exact arithmetic")
        return Tensor2(self.algebra, tuple(tuple(scalar * a for a in r) for r in self.rows))

    def __mul__(self, other):
        if not isinstance(other, Tensor2):
            return self.__rmul__(other)
        A = self.algebra
        zero = A.field.zero
        n = A.dim
        out = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                x = self.rows[i][j]
                if not x:
                    continue
                for k in range(n):
                    for l in range(n):
                        y = other.rows[k][l]
                        if not y:
                            continue
                        c = x * y
                        left = A.mul_basis(i, k)
                        right = A.mul_basis(j, l)
                        for r, vr in left.items():
                            for s, vs in right.items():
                                out[r][s] = out[r][s] + c * vr * vs
        return Tensor2(A, out)

    def flip(self) -> "Tensor2":
        return Tensor2(self.algebra, tuple(zip(*self.rows)))

    def map_legs(self, m1: Matrix | None, m2: Matrix | None) -> "Tensor2":
        """Apply linear maps (as matrices acting on coefficient columns) legwise."""
        A = self.algebra
        mat = Matrix.from_rows(A.field, self.rows)
        if m1 is not None:
            mat = m1 * mat
        if m2 is not None:
            mat = mat * m2.transpose()
        return Tensor2(A, mat.rows)

    def invert(self) -> "Tensor2":
        """Two-sided inverse in the tensor-square algebra, by a linear solve."""
        A = self.algebra
        n = A.dim
        zero = A.field.zero
        rows = []
        for r in range(n):
            for s in range(n):
                row = [zero] * (n * n)
                for i in range(n):
                    for j in range(n):
                        x = self.rows[i][j]
                        if not x:
                            continue
                        for k in range(n):
                            ck = A.mul_basis(i, k).get(r)
                            if ck is None:
                                continue
                            for l in range(n):
                                cl = A.mul_basis(j, l).get(s)
                                if cl is None:
                                    continue
                                row[k * n + l] = row[k * n + l] + x * ck * cl
                rows.append(row)
        target = A.one_tensor()
        rhs = tuple(target.rows[r][s] for r in range(n) for s in range(n))
        sol = solve_linear(Matrix.from_rows(A.field, rows), rhs)
        if sol is None:
            raise NotInvertibleError("tensor-square element has no right inverse")
        inv = Tensor2(A, tuple(tuple(sol.particular[r * n + s] for s in range(n)) for r in range(n)))
        if inv * self != target:
            raise NotInvertibleError("tensor-square element has no two-sided inverse")
        return inv

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor2)
            and other.algebra is self.algebra
            and other.rows == self.rows
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<tensor2 {self.rows!r}>"


class FinHopfAlgebra:
    """A Hopf algebra given by structure constants over an exact field.

    mult maps a pair of basis indices to a sparse product vector, comult
    maps a basis index to sparse (coefficient, left, right) triples, counit
    is a value vector, and the antipode is a matrix whose column j holds
    the coefficients of S(e_j).  The unit is solved for when not supplied.
    """

    def __init__(self, field: Field, labels, mult, comult, counit,
                 unit=None, antipode: Matrix | None = None, check: bool = True,
                 name: str | None = None) -> None:
        self.field = field
        self.labels = tuple(labels)
        self.name = name or "algebra"
        n = len(self.labels)
        if n == 0:
            raise AxiomError("basis: at least one basis element required")
        self._mult = {}
        for (i, j), vec in mult.items():
            vec = lc_canon(dict(vec))
            if vec:
                self._mult[(i, j)] = vec
        self._comult = {}
        for i, triples in comult.items():
            kept = tuple((c, j, k) for c, j, k in triples if c)
            if kept:
                self._comult[i] = kept
        self._counit = tuple(counit)
        if len(self._counit) != n:
            raise AxiomError("counit: wrong length")
        self.unit_coeffs = tuple(unit) if unit is not None else self._solve_unit()
        self._antipode = antipode
        self._antipode_inv: Matrix | None = None
        if check:
            self.validate()

    # -- table access --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def mul_basis(self, i: int, j: int) -> LC:
        return self._mult.get((i, j), {})

    def delta_basis(self, i: int):
        return self._comult.get(i, ())

    def eps_basis(self, i: int) -> Scalar:
        return self._counit[i]

    def antipode_basis(self, j: int) -> LC:
        m = self.antipode_matrix
        return {i: m.rows[i][j] for i in range(self.dim) if m.rows[i][j]}

    def antipode_inv_basis(self, j: int) -> LC:
        m = self.antipode_inv_matrix
        return {i: m.rows[i][j] for i in range(self.dim) if m.rows[i][j]}

    @property
    def antipode_matrix(self) -> Matrix:
        if self._antipode is None:
            raise AxiomError("antipode: not available on this algebra")
        return self._antipode

    @property
    def antipode_inv_matrix(self) -> Matrix:
        if self._antipode_inv is None:
            self._antipode_inv = invert_matrix(self.antipode_matrix)
        return self._antipode_inv

    def basis_ops(self) -> BasisOps:
        has_s = self._antipode is not None
        return BasisOps(
            keys=tuple(range(self.dim)),
            unit={i: c for i, c in enumerate(self.unit_coeffs) if c},
            mul=self.mul_basis,
            delta=self.delta_basis,
            eps=self.eps_basis,
            antipode=self.antipode_basis if has_s else None,
            antipode_inv=self.antipode_inv_basis if has_s else None,
            zero=self.field.zero,
            one=self.field.one,
            label=lambda k: self.labels[k],
        )

    # -- constructors ----------------------------------------------------------

    def element(self, coeffs) -> Element:
        return Element(self, coeffs)

    def from_lc(self, lc: LC) -> Element:
        zero = self.field.zero
        coeffs = [zero] * self.dim
        for k, v in lc.items():
            coeffs[k] = v
        return Element(self, coeffs)

    def basis_element(self, i: int) -> Element:
        zero, one = self.field.zero, self.field.one
        return Element(self, tuple(one if j == i else zero for j in range(self.dim)))

    @property
    def unit_element(self) -> Element:
        return Element(self, self.unit_coeffs)

    def functional(self, values) -> Functional:
        return Functional(self, values)

    @property
    def counit_functional(self) -> Functional:
        return Functional(self, self._counit)

    def tensor(self, rows) -> Tensor2:
        return Tensor2(self, rows)

    def one_tensor(self) -> Tensor2:
        return Tensor2.outer(self.unit_element, self.unit_element)

    # -- operations ------------------------------------------------------------

    def mul(self, x: Element, y: Element) -> Element:
        zero = self.field.zero
        out = [zero] * self.dim
        for i, ci in enumerate(x.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(y.coeffs):
                if not cj:
                    continue
                c = ci * cj
                for k, v in self.mul_basis(i, j).items():
                    out[k] = out[k] + c * v
        return Element(self, out)

    def delta(self, x: Element) -> Tensor2:
        zero = self.field.zero
        n = self.dim
        rows = [[zero] * n for _ in range(n)]
        for i, ci in enumerate(x.coeffs):
            if not ci:
                continue
            for c, j, k in self.delta_basis(i):
                rows[j][k] = rows[j][k] + ci * c
        return Tensor2(self, rows)

    def eps(self, x: Element) -> Scalar:
        return self.counit_functional(x)

    def antipode(self, x: Element) -> Element:
        return Element(self, self.antipode_matrix.apply(x.coeffs))

    def antipode_inv(self, x: Element) -> Element:
        return Element(self, self.antipode_inv_matrix.apply(x.coeffs))

    def invert_element(self, x: Element) -> Element:
        """Two-sided multiplicative inverse, found by a linear solve."""
        n = self.dim
        zero = self.field.zero
        rows = []
        for r in range(n):
            row = [zero] * n
            for i, ci in enumerate(x.coeffs):
                if not ci:
                    continue
                for k in range(n):
                    v = self.mul_basis(i, k).get(r)
                    if v is not None:
                        row[k] = row[k] + ci * v
            rows.append(row)
        sol = solve_linear(Matrix.from_rows(self.field, rows), self.unit_coeffs)
        if sol is None:
            raise NotInvertibleError(f"element {self.format_element(x)} has no right inverse")
        y = Element(self, sol.particular)
        if self.mul(y, x) != self.unit_element:
            raise NotInvertibleError(f"element {self.format_element(x)} has no two-sided inverse")
        return y

    def convolve(self, f: Functional, g: Functional) -> Functional:
        zero = self.field.zero
        values = []
        for i in range(self.dim):
            acc = zero
            for c, j, k in self.delta_basis(i):
                if f.values[j] and g.values[k]:
                    acc = acc + c * f.values[j] * g.values[k]
            values.append(acc)
        return Functional(self, values)

    def conv_inverse(self, f: Functional) -> Functional:
        """Two-sided convolution inverse, by a stacked linear solve."""
        n = self.dim
        zero = self.field.zero
        rows = []
        for i in range(n):
            row = [zero] * n
            for c, j, k in self.delta_basis(i):
                if f.values[j]:
                    row[k] = row[k] + c * f.values[j]
            rows.append(row)
        for i in range(n):
            row = [zero] * n
            for c, j, k in self.delta_basis(i):
                if f.values[k]:
                    row[j] = row[j] + c * f.values[k]
            rows.append(row)
        sol = solve_linear(Matrix.from_rows(self.field, rows), self._counit * 2)
        if sol is None:
            raise NotInvertibleError("functional is not convolution invertible")
        return Functional(self, sol.particular)

    # Hit actions of a functional f on an element h:
    #   hit_left(f, h)  = h1 f(h2)          hit_right(h, f) = f(h1) h2
    def hit_left(self, f: Functional, h: Element) -> Element:
        zero = self.field.zero
        out = [zero] * self.dim
        for i, ci in enumerate(h.coeffs):
            if not ci:
                continue
            for c, j, k in self.delta_basis(i):
                if f.values[k]:
                    out[j] = out[j] + ci * c * f.values[k]
        return Element(self, out)

    def hit_right(self, h: Element, f: Functional) -> Element:
        zero = self.field.zero
        out = [zero] * self.dim
        for i, ci in enumerate(h.coeffs):
            if not ci:
                continue
            for c, j, k in self.delta_basis(i):
                if f.values[j]:
                    out[k] = out[k] + ci * c * f.values[j]
        return Element(self, out)

    def is_grouplike(self, x: Element) -> bool:
        return self.eps(x) == self.field.one and self.delta(x) == Tensor2.outer(x, x)

    def is_character(self, f: Functional) -> bool:
        if f(self.unit_element) != self.field.one:
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                prod = self.field.zero
                for k, v in self.mul_basis(i, j).items():
                    if f.values[k]:
                        prod = prod + v * f.values[k]
                if prod != f.values[i] * f.values[j]:
                    return False
        return True

    # -- dualization -------------------------------------------------------------

    def dual(self) -> "FinHopfAlgebra":
        """The dual Hopf algebra on the dual basis."""
        n = self.dim
        mult: dict = {}
        for k in range(n):
            for c, i, j in self.delta_basis(k):
                vec = mult.setdefault((i, j), {})
                vec[k] = vec.get(k, self.field.zero) + c
        comult: dict = {}
        for (j, k), vec in self._mult.items():
            for i, c in vec.items():
                comult.setdefault(i, []).append((c, j, k))
        counit = self.unit_coeffs
        unit = self._counit
        antipode = self.antipode_matrix.transpose() if self._antipode is not None else None
        return FinHopfAlgebra(
            self.field,
            tuple(f"{lbl}*" for lbl in self.labels),
            mult,
            {i: tuple(triples) for i, triples in comult.items()},
            counit,
            unit=unit,
            antipode=antipode,
            check=False,
            name=f"{self.name}^*",
        )

    # -- validation ---------------------------------------------------------------

    def _solve_unit(self):
        n = self.dim
        zero, one = self.field.zero, self.field.one
        rows, rhs = [], []
        for j in range(n):
            for k in range(n):
                left = [self.mul_basis(i, j).get(k, zero) for i in range(n)]
                right = [self.mul_basis(j, i).get(k, zero) for i in range(n)]
                target = one if j == k else zero
                rows.append(left)
                rhs.append(target)
                rows.append(right)
                rhs.append(target)
        sol = solve_linear(Matrix.from_rows(self.field, rows), tuple(rhs))
        if sol is None:
            return None
        return sol.particular

    def validate(self) -> None:
        """Raise AxiomError on the first violated axiom."""
        for result in self._axiom_results():
            if not result.ok:
                where = f" ({result.witness})" if result.witness else ""
                raise AxiomError(f"{result.name} fails{where}")

    def _axiom_results(self) -> list[CheckResult]:
        from .lincomb import hopf_axiom_checks

        if self.unit_coeffs is None:
            return [failed("hopf.unit_exists", "no two-sided unit solves the tables")]
        out: list[CheckResult] = []
        if self._antipode is None:
            try:
                self._antipode = compute_antipode(self)
            except AxiomError as exc:
                bialgebra = hopf_axiom_checks(self.basis_ops())
                return bialgebra + [failed("hopf.antipode_exists", str(exc))]
        out.extend(hopf_axiom_checks(self.basis_ops()))
        try:
            self.antipode_inv_matrix
            out.append(check("hopf.antipode_invertible", True))
        except SingularMatrixError:
            out.append(failed("hopf.antipode_invertible", "antipode matrix is singular"))
        return out

    # -- formatting -----------------------------------------------------------------

    def format_scalar(self, s: Scalar) -> str:
        return self.field.format(s)

    def format_element(self, x: Element) -> str:
        return lc_format(x.lc(), lambda k: self.labels[k], self.format_scalar)

    def format_functional(self, f: Functional) -> str:
        return "[" + ", ".join(self.format_scalar(v) for v in f.values) + "]"


def compute_antipode(algebra: FinHopfAlgebra) -> Matrix:
    """Solve the antipode equations of a bialgebra; raise when none exists.

    Unknown s[a][b] is the coefficient of basis a in S(basis b); both the
    left and the right antipode law are imposed, which forces the unique
    two-sided convolution inverse of the identity.
    """
    n = algebra.dim
    zero = algebra.field.zero
    rows, rhs = [], []
    for i in range(n):
        for r in range(n):
            left = [zero] * (n * n)
            right = [zero] * (n * n)
            for c, j, k in algebra.delta_basis(i):
                for a in range(n):
                    v = algebra.mul_basis(a, k).get(r)
                    if v is not None:
                        left[a * n + j] = left[a * n + j] + c * v
                    w = algebra.mul_basis(j, a).get(r)
                    if w is not None:
                        right[a * n + k] = right[a * n + k] + c * w
            target = algebra.eps_basis(i) * algebra.unit_coeffs[r]
            rows.append(left)
            rhs.append(target)
            rows.append(right)
            rhs.append(target)
    sol = solve_linear(Matrix.from_rows(algebra.field, rows), tuple(rhs))
    if sol is None:
        raise AxiomError("bialgebra admits no antipode")
    if not sol.unique:
        raise AxiomError("antipode equations are degenerate; tables are not a bialgebra")
    x = sol.particular
    return Matrix.from_rows(algebra.field, [[x[a * n + b] for b in range(n)] for a in range(n)])


def verify_hopf(algebra: FinHopfAlgebra) -> list[CheckResult]:
    """Report every Hopf axiom instead of raising; safe on broken tables."""
    return algebra._axiom_results()


def same_structure_constants(a: FinHopfAlgebra, b: FinHopfAlgebra) -> bool:
    """Numeric table equality, ignoring labels and names."""
    if a.dim != b.dim or a.field != b.field:
        return False
    if a.unit_coeffs != b.unit_coeffs or a._counit != b._counit:
        return False
    if a._mult != b._mult:
        return False
    norm = lambda tr: sorted((j, k, c) for c, j, k in tr)
    for i in range(a.dim):
        if norm(a.delta_basis(i)) != norm(b.delta_basis(i)):
            return False
    sa = a._antipode.rows if a._antipode is not None else None
    sb = b._antipode.rows if b._antipode is not None else None
    return sa == sb
