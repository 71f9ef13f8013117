"""Finite-dimensional Hopf algebras presented by structure constants.

A FinHopfAlgebra holds a sparse multiplication table, a sparse coproduct,
a counit vector and the antipode over an exact field.  Construction only
stores the tables and solves for a missing unit; verify_hopf reports
every axiom, solving for a missing antipode on the way, and
require_passing turns its first failure into an AxiomError.  The unit and
the antipode are solved from their left law, and the right law is checked
at the solution (_solve_unit, compute_antipode).
Elements are sparse LCs over the basis indices and functionals are key
functions, both handled through the algebra's one BasisOps, its ops.
The antipode is kept as its columns S(e_j), each an LC; its inverse is
solved for once, as the rows of (S^T)^-1, which are the columns of S^-1.
Every other inverse solved for, u^-1 on H, R^-1 where (S (x) id)(R) is
not its inverse, and a braiding's convolution inverse on H*, is a right
inverse in H or its tensor square (_right_inverse).  Dense coefficient
vectors appear only where a linear solve returns them.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Callable

from .lincomb import BasisOps, LC, group, hopf_axiom_checks, lc_canon
from .linalg import SingularMatrixError, SparseMatrix, invert_matrix, solve_linear
from .report import CheckResult, check, failed
from .scalars import Field


class AxiomError(ValueError):
    """A structure-constant table violates a required axiom."""


class NotInvertibleError(ValueError):
    """An element or functional has no inverse of the required kind."""


class Tensor2:
    """Elements of the tensor square are leg-pair combinations {(i, j): c}
    (lincomb.tensor2_mul multiplies them); this namespace holds the one
    operation on them that needs a linear solve."""

    @staticmethod
    def invert(algebra: "FinHopfAlgebra", t: LC) -> LC:
        """Inverse in the tensor square of algebra (_right_inverse)."""
        return _right_inverse(algebra, t, 2, lambda: "tensor-square element")


class FinHopfAlgebra:
    """A Hopf algebra given by structure constants over an exact field.

    mult maps a pair of basis indices to a sparse product vector, comult
    maps a basis index to sparse (coefficient, left, right) triples, counit
    is a value vector, and antipode is a tuple whose entry j is S(e_j) as
    an LC, or None until verify_hopf solves for it.  The unit is solved for
    when not supplied.
    """

    def __init__(self, field: Field, labels, mult, comult, counit,
                 unit=None, antipode: tuple[LC, ...] | None = None,
                 name: str | None = None) -> None:
        self.field = field
        self.labels = tuple(labels)
        self.name = name or "algebra"
        n = len(self.labels)
        if n == 0:
            raise AxiomError("basis: at least one basis element required")
        self._mult = {}
        for (i, j), vec in mult.items():  # a vec may hold raw sums
            vec = lc_canon(dict(vec), field.reduce)
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
        self.antipode = antipode

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def ops(self) -> BasisOps:
        """The structure maps on the basis indices, built once.  ops.tables
        reads the antipode columns on its first lookup of S(e_j), so an
        antipode verify_hopf solves for after this is built is the one read."""
        mult, comult = self._mult, self._comult
        return BasisOps(
            keys=tuple(range(self.dim)),
            unit={i: c for i, c in enumerate(self.unit_coeffs) if c},
            mul=lambda i, j: mult.get((i, j), {}),
            delta=lambda i: comult.get(i, ()),
            eps=self._counit.__getitem__,
            antipode=lambda j: self._s_transpose.rows[j],
            antipode_inv=lambda j: self.antipode_inv[j],
            field=self.field,
            label=self.labels.__getitem__,
        )

    @cached_property
    def _s_transpose(self) -> SparseMatrix:
        """S^T: its row j is the column S(e_j), the dict the antipode holds."""
        if self.antipode is None:
            raise AxiomError("antipode: not available on this algebra")
        return SparseMatrix(self.field, list(self.antipode), self.dim)

    @cached_property
    def antipode_inv(self) -> tuple[LC, ...]:
        """The columns of S^-1, read as the rows of (S^T)^-1."""
        return tuple(invert_matrix(self._s_transpose).rows)

    def invert_element(self, x: LC) -> LC:
        """Multiplicative inverse in the algebra (_right_inverse)."""
        return _right_inverse(self, x, 1, lambda: f"element {self.ops.format(x)}")

    # -- dualization -------------------------------------------------------------

    def dual(self) -> "FinHopfAlgebra":
        """The dual Hopf algebra on the dual basis; its counit is the unit."""
        if self.unit_coeffs is None:
            raise AxiomError("unit: no two-sided unit solves the tables; the dual has no counit")
        mult: dict = {}
        for k in range(self.dim):
            for c, i, j in self._comult.get(k, ()):
                vec = mult.setdefault((i, j), {})
                vec[k] = vec.get(k, 0) + c
        comult = group((i, (c, j, k)) for (j, k), vec in self._mult.items() for i, c in vec.items())
        # S^* has the columns of S^T, the rows of S
        antipode = None if self.antipode is None else tuple(self._s_transpose.transpose().rows)
        return FinHopfAlgebra(
            self.field,
            tuple(f"{lbl}*" for lbl in self.labels),
            mult,
            {i: tuple(triples) for i, triples in comult.items()},
            self.unit_coeffs,
            unit=self._counit,
            antipode=antipode,
            name=f"{self.name}^*",
        )

    # -- validation ---------------------------------------------------------------

    def _solve_unit(self):
        """Solve u e_j = e_j for the unit coefficients u_i, row (j, k) the
        coefficient of e_k.  A two-sided unit 1 is its only solution, as
        u = u 1 = 1 by bilinearity alone, so a system that leaves u free
        has none, and a unique u is a unit exactly when e_j u = e_j."""
        n, field, one = self.dim, self.field, self.field.one
        eqs = SparseMatrix.zeros(field, n * n, n)
        for (i, j), vec in self._mult.items():
            for k, m in vec.items():
                eqs.add(j * n + k, i, m)  # e_i e_j, unknown u_i
        rhs = tuple(one if j == k else field.zero for j in range(n) for k in range(n))
        sol = solve_linear(eqs, rhs)
        if sol is None or not sol.unique:
            return None
        u = {i: c for i, c in enumerate(sol.particular) if c}
        if not _right_law_holds(self, (([(one, j, u)], {j: one}) for j in range(n))):
            return None
        return sol.particular


def _right_law_holds(algebra: FinHopfAlgebra, sides) -> bool:
    """Whether the sum of c e_j y over terms equals target, for each (terms,
    target) in sides: terms are (c, j, y) triples, y and target LCs."""
    mult, reduce = algebra._mult, algebra.field.reduce
    for terms, target in sides:
        acc = {r: -v for r, v in target.items()}
        for c, j, y in terms:
            for a, s in y.items():
                for r, m in mult.get((j, a), {}).items():
                    acc[r] = acc.get(r, 0) + c * s * m
        if any(map(reduce, acc.values())):
            return False
    return True


def _right_inverse(algebra: FinHopfAlgebra, x: LC, power: int, what: Callable[[], str]) -> LC:
    """The y with x y = 1 in the tensor power 1 or 2 of algebra, whose keys
    are basis indices or leg pairs; when there is none, NotInvertibleError
    names x as what() describes it.

    A tensor power of a finite-dimensional associative algebra is again
    one, and there a right inverse is two-sided: x y = 1 makes left
    multiplication by x onto, hence injective, and x (y x) = x gives
    y x = 1.  So the solve alone decides, and no second check runs.  This
    serves R^-1 in H (x) H, u^-1 in H and, read in H* (x) H*, the
    convolution inverse of a braiding.  The product table is read once, as
    the nonzero terms w e_r of e_i e_k for each left factor i, and not
    through ops, so a transient algebra builds no BasisOps.
    """
    n, field = algebra.dim, algebra.field
    left: list[list] = [[] for _ in range(n)]  # left[i]: (k, r, w) for w e_r in e_i e_k
    for (i, k), vec in algebra._mult.items():
        left[i].extend((k, r, w) for r, w in vec.items())
    # row r, column k: the coefficient of e_r in x e_k, a leg pair (r, s) at r n + s
    eqs = SparseMatrix.zeros(field, n ** power, n ** power)
    for key, c in x.items():
        if power == 1:
            for k, r, w in left[key]:
                eqs.add(r, k, c * w)
            continue
        i, j = key
        for k, r, w in left[i]:
            cw, row, col = c * w, r * n, k * n
            for l, s, w2 in left[j]:
                eqs.add(row + s, col + l, cw * w2)
    unit = [(r, w) for r, w in enumerate(algebra.unit_coeffs) if w]
    rhs = dict(unit) if power == 1 else {r * n + s: v * w for r, v in unit for s, w in unit}
    zero = field.zero
    sol = solve_linear(eqs, tuple(rhs.get(p, zero) for p in range(n ** power)))
    if sol is None:
        raise NotInvertibleError(f"{what()} has no right inverse")
    return lc_canon({divmod(p, n) if power == 2 else p: v for p, v in enumerate(sol.particular)},
                    field.reduce)


def require_passing(results: list[CheckResult]) -> None:
    """Raise AxiomError naming the first failed check of a battery."""
    bad = next((x for x in results if not x.ok), None)
    if bad is not None:
        where = f" ({bad.witness})" if bad.witness else ""
        raise AxiomError(f"{bad.name} fails{where}")


def compute_antipode(algebra: FinHopfAlgebra) -> tuple[LC, ...]:
    """Solve the antipode equations of a bialgebra; raise when none exists.

    Unknown s[a][b] is the coefficient of basis a in S(basis b), and the
    result is the columns S(e_b) as LCs.  The left law S(h1) h2 = eps(h) 1
    is solved alone, and a unique solution, the only candidate, is checked
    against the right law h1 S(h2) = eps(h) 1; both are solved together
    only where the left one leaves S free.  So on any table the outcome is
    the two-sided system's.
    """
    n, field = algebra.dim, algebra.field

    def law(right: bool) -> SparseMatrix:
        """Rows (i, r): the coefficient of e_r in S(i1) i2, or in i1 S(i2);
        by[b] lists the terms (a, r, m) of e_a e_b = m e_r + ..., or by[a] (b, r, m)."""
        by: list[list] = [[] for _ in range(n)]
        for (a, b), vec in algebra._mult.items():
            fixed, moving = (a, b) if right else (b, a)
            by[fixed].extend((moving, r, m) for r, m in vec.items())
        eqs = SparseMatrix.zeros(field, n * n, n * n)
        for i in range(n):
            for c, j, k in algebra._comult.get(i, ()):
                fixed, moving = (j, k) if right else (k, j)
                for a, r, m in by[fixed]:
                    eqs.add(i * n + r, a * n + moving, c * m)
        return eqs

    unit, counit = algebra.unit_coeffs, algebra._counit
    rhs = tuple(counit[i] * unit[r] for i in range(n) for r in range(n))
    left = law(False)
    sol = solve_linear(left, rhs)
    if sol is not None and not sol.unique:
        sol = solve_linear(SparseMatrix(field, left.rows + law(True).rows, n * n), rhs + rhs)
    if sol is None:
        raise AxiomError("bialgebra admits no antipode")
    if not sol.unique:
        raise AxiomError("antipode equations are degenerate; tables are not a bialgebra")
    x = sol.particular
    cols = tuple(lc_canon({a: x[a * n + b] for a in range(n)}, field.reduce) for b in range(n))
    if not _right_law_holds(algebra, (
            ([(c, j, cols[k]) for c, j, k in algebra._comult.get(i, ())],
             {r: counit[i] * u for r, u in enumerate(unit) if u}) for i in range(n))):
        raise AxiomError("bialgebra admits no antipode")
    return cols


def verify_hopf(algebra: FinHopfAlgebra) -> list[CheckResult]:
    """Report every Hopf axiom instead of raising; safe on broken tables.
    A missing antipode is solved for here and kept by the algebra.  S^-1 is
    solved for before the battery runs: a singular antipode fails
    hopf.antipode_invertible, and the battery then runs on a copy of ops
    without S^-1, so only a battery that passes in full, that line
    included, leaves its S proof with the tables of algebra.ops.  The one
    other source of a proof is the dual of a proved algebra, whose battery
    is this one transposed and does not run (coquasitriangular.dualize_qt)."""
    if algebra.unit_coeffs is None:
        return [failed("hopf.unit_exists", "no two-sided unit solves the tables")]
    if algebra.antipode is None:
        try:
            algebra.antipode = compute_antipode(algebra)
        except AxiomError as exc:
            bialgebra = replace(algebra.ops, antipode=None, antipode_inv=None)
            return hopf_axiom_checks(bialgebra) + [failed("hopf.antipode_exists", str(exc))]
    ops = algebra.ops
    try:
        algebra.antipode_inv
        invertible = check("hopf.antipode_invertible", True)
    except SingularMatrixError:
        invertible = failed("hopf.antipode_invertible", "antipode matrix is singular")
        ops = replace(ops, antipode_inv=None)
    return hopf_axiom_checks(ops) + [invertible]


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
        if norm(a._comult.get(i, ())) != norm(b._comult.get(i, ())):
            return False
    return a.antipode == b.antipode
