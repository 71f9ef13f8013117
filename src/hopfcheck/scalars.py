"""Exact scalar fields: arbitrary-precision rationals and odd prime fields.

Every computation in this package runs over one of these fields, and every
value is a plain Python number.  Floating point is never used.  A rational
stays an int while it is integral and becomes a fractions.Fraction only
when a division leaves a denominator.  An element of F_p is the int in
range(p) that represents it.  Code adds and multiplies values as numbers
and passes each sum or negation through the field's reduce once before it
is stored, compared or tested for zero: reduce is the identity on QQ and
x mod p on F_p, and reduce(x) is falsy exactly when x is zero in the field.
A product of two nonzero reduced values is nonzero (a field has no zero
divisors), so it is tested unreduced.  The field's div is the one division:
on ints, plain / would leave QQ's exact values or the range of F_p.  Values
are parsed and formatted only where a document is read or a report written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import pos


class ScalarError(ValueError):
    """Malformed scalar input: an inexact or unparsable value, or a
    denominator that vanishes in the field."""


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


class RationalField:
    """The rationals; an element is an int while integral, else a
    fractions.Fraction."""

    name = "rationals"
    zero = 0
    one = 1
    # a value is exact as it is: reduce is the identity, a C-level call
    reduce = staticmethod(pos)
    div = staticmethod(div)

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
    zero = 0
    one = 1

    def __post_init__(self) -> None:
        if not _is_odd_prime(self.p):
            raise ScalarError(f"prime field: p must be an odd prime, got {self.p}")

    @property
    def name(self) -> str:
        return f"prime field F_{self.p}"

    @cached_property
    def reduce(self):
        """x -> x mod p, the representative in range(p)."""
        return self.p.__rmod__

    def div(self, a: int, b: int) -> int:
        if not b % self.p:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return a * pow(b, -1, self.p) % self.p

    def parse(self, value) -> int:
        q = QQ.parse(value)
        if q.denominator % self.p == 0:
            raise ScalarError(f"denominator of {value!r} vanishes mod {self.p}")
        return self.div(q.numerator, q.denominator)

    def format(self, x: int) -> str:
        return str(x)

    def spec(self) -> dict:
        return {"type": "prime", "p": self.p}


QQ = RationalField()

Scalar = int | Fraction
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
