"""Exact scalar fields: arbitrary-precision rationals and odd prime fields.

Every computation in this package runs over one of these fields.  Floating
point is never used.  A rational stays a plain int while it is integral and
becomes a fractions.Fraction only when a division leaves a denominator;
div() is the one division that keeps int / int exact.  Prime-field elements
stay reduced mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter


class ScalarError(ValueError):
    """Malformed scalar input, or arithmetic across different fields."""


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def div(a, b):
    """a / b, exact: int / int is an int when b divides a and a Fraction
    otherwise, never a float; a Fraction quotient that is integral comes
    back as an int."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    q = a / b
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


class FpElement:
    """An element of the field with p elements, kept reduced mod p.

    Immutable.  Supports mixed arithmetic with plain ints (lifted mod p)
    but refuses floats, bools and elements of a different prime field.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int) -> None:
        _set_value(self, value % p)
        _set_p(self, p)

    @staticmethod
    def _reduced(value: int, p: int) -> "FpElement":
        """Trusted constructor: value must already lie in range(p)."""
        x = _new(FpElement)
        _set_value(x, value)
        _set_p(x, p)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _other(self, other) -> int | None:
        """The int behind an operand of the same field, None for a foreign type."""
        if type(other) is FpElement:
            if other.p != self.p:
                raise ScalarError(f"mixed prime fields: F_{self.p} and F_{other.p}")
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return other
        return None

    def __add__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else _reduced((self.value + o) % self.p, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else _reduced((self.value - o) % self.p, self.p)

    def __rsub__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else _reduced((o - self.value) % self.p, self.p)

    def __mul__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else _reduced(self.value * o % self.p, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        p = self.p
        if o % p == 0:
            raise ZeroDivisionError(f"division by zero in F_{p}")
        return _reduced(self.value * pow(o, p - 2, p) % p, p)

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        p = self.p
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{p}")
        return _reduced(o * pow(self.value, p - 2, p) % p, p)

    def __neg__(self):
        return _reduced(-self.value % self.p, self.p)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        p = self.p
        if n < 0:
            if self.value == 0:
                raise ZeroDivisionError(f"zero has no negative power in F_{p}")
            return _reduced(pow(self.value, -n * (p - 2), p), p)
        return _reduced(pow(self.value, n, p), p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        if other.__class__ is not FpElement:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"FpElement(value={self.value!r}, p={self.p!r})"

    def __str__(self) -> str:
        return str(self.value)


_new = object.__new__
_set_value = FpElement.value.__set__
_set_p = FpElement.p.__set__
_reduced = FpElement._reduced


class RationalField:
    """The rationals; an element is an int while integral, else a
    fractions.Fraction."""

    name = "rationals"
    zero = 0
    one = 1
    # values are exact as they are: nothing to lower (see PrimeField.lower),
    # and a sum is decided by its truth value
    lower = None
    residue = bool

    def from_int(self, n: int) -> int:
        return n

    def parse(self, value) -> int | Fraction:
        if isinstance(value, bool) or isinstance(value, float):
            raise ScalarError(f"exact rational expected, got {value!r}")
        if isinstance(value, int):
            return int(value)
        if isinstance(value, str):
            try:
                value = Fraction(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarError(f"bad rational literal {value!r}") from exc
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise ScalarError(f"exact rational expected, got {value!r}")

    def format(self, x) -> str:
        return str(x)

    def spec(self) -> dict:
        return {"type": "rationals"}

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("hopfcheck.QQ")


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p an odd prime.

    p = 2 is rejected: halving coefficients must be possible, and the
    built-in examples all divide by two.
    """

    p: int

    # The axiom-grid kernels add raw values and decide a cell once:
    # lower(x) is the int in range(p) behind x, residue(n) is n mod p.
    lower = attrgetter("value")

    def __post_init__(self) -> None:
        if not _is_odd_prime(self.p):
            raise ScalarError(f"prime field: p must be an odd prime, got {self.p}")

    @property
    def name(self) -> str:
        return f"prime field F_{self.p}"

    @property
    def residue(self):
        return self.p.__rmod__

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self.p)

    def parse(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ScalarError(f"element of F_{value.p} given to F_{self.p}")
            return value
        q = QQ.parse(value)
        if q.denominator % self.p == 0:
            raise ScalarError(f"denominator of {value!r} vanishes mod {self.p}")
        return FpElement(q.numerator * pow(q.denominator, self.p - 2, self.p), self.p)

    def format(self, x: FpElement) -> str:
        return str(x.value)

    def spec(self) -> dict:
        return {"type": "prime", "p": self.p}


QQ = RationalField()

Scalar = int | Fraction | FpElement
Field = RationalField | PrimeField


def field_from_spec(spec) -> Field:
    """Build a field from its document form, e.g. {"type": "rationals"}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ScalarError(f"field: expected an object with a 'type', got {spec!r}")
    kind = spec["type"]
    if kind == "rationals":
        return QQ
    if kind == "prime":
        p = spec.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ScalarError(f"field: prime field needs an integer 'p', got {spec!r}")
        return PrimeField(p)
    raise ScalarError(f"field: unknown type {kind!r}")
