import contextlib
import io
import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcheck.cli import COMPUTE_TARGETS, main
from hopfcheck.scalars import (
    FpElement,
    PrimeField,
    QQ,
    RationalField,
    ScalarError,
    div,
    field_from_spec,
)
from test_golden import DOCUMENTS, PRESETS, REPORT_DOCUMENTS


class TestRationals:
    def test_parse_forms(self):
        for given_value, expected in ((3, 3), ("-7/2", Fraction(-7, 2)), (" 5 ", 5),
                                      ("4/2", 2), (Fraction(1, 3), Fraction(1, 3)),
                                      (Fraction(6, 3), 2)):
            got = QQ.parse(given_value)
            assert got == expected and type(got) is type(expected)
        assert (QQ.zero, QQ.one, QQ.from_int(-4)) == (0, 1, -4)
        assert {type(QQ.zero), type(QQ.one), type(QQ.from_int(-4))} == {int}

    def test_parse_rejects_inexact(self):
        with pytest.raises(ScalarError):
            QQ.parse(0.5)
        with pytest.raises(ScalarError):
            QQ.parse(True)
        with pytest.raises(ScalarError):
            QQ.parse("1/0")
        with pytest.raises(ScalarError):
            QQ.parse("two")
        with pytest.raises(ScalarError):
            QQ.parse(None)

    def test_format(self):
        assert QQ.format(Fraction(-1, 2)) == "-1/2"
        assert QQ.format(Fraction(4, 2)) == "2"

    @given(st.fractions())
    def test_format_parse_round_trip(self, q):
        assert QQ.parse(QQ.format(q)) == q


exact = st.one_of(st.integers(), st.fractions())


@given(exact, exact.filter(bool))
def test_div_is_exact_and_int_first(a, b):
    q = div(a, b)
    assert q * b == a
    assert type(q) in (int, Fraction)
    assert (type(q) is int) == ((Fraction(a) / Fraction(b)).denominator == 1)


def test_div_by_zero_raises():
    for a in (0, 3, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            div(a, 0)


class TestPrimeField:
    def test_rejects_non_odd_primes(self):
        for bad in (0, 1, 2, 4, 9, 15):
            with pytest.raises(ScalarError):
                PrimeField(bad)

    def test_parse_reduces_fractions(self):
        f5 = PrimeField(5)
        assert f5.parse("1/2") == FpElement(3, 5)
        assert f5.parse(-1) == FpElement(4, 5)
        with pytest.raises(ScalarError):
            f5.parse("1/5")

    def test_mixed_fields_refused(self):
        with pytest.raises(ScalarError):
            FpElement(1, 5) + FpElement(1, 7)

    def test_division(self):
        f7 = PrimeField(7)
        a = f7.parse(3)
        assert a / a == f7.one
        with pytest.raises(ZeroDivisionError):
            a / f7.zero

    @given(st.integers(), st.integers())
    def test_field_laws_f11(self, x, y):
        f11 = PrimeField(11)
        a, b = f11.from_int(x), f11.from_int(y)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + f11.one) == a * b + a
        if b:
            assert (a / b) * b == a

    @given(st.integers(), st.integers(), st.sampled_from([3, 7, 10007]),
           st.sampled_from(["both", "int_left", "int_right"]))
    def test_slot_arithmetic_matches_reduction(self, x, y, p, mix):
        """Every dunder agrees with int arithmetic reduced mod p, in value,
        equality and hash, also with a plain int on either side."""
        left = x if mix == "int_left" else FpElement(x, p)
        right = y if mix == "int_right" else FpElement(y, p)
        for op, ref in ((operator.add, x + y), (operator.sub, x - y), (operator.mul, x * y),
                        (operator.truediv, x * pow(y, p - 2, p))):
            if op is operator.truediv and y % p == 0:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert type(got) is FpElement and got.value == ref % p
            assert got == FpElement(ref, p) and hash(got) == hash(FpElement(ref, p))
        a = FpElement(x, p)
        for got, ref in ((-a, -x), (a ** 3, x ** 3)):
            assert got.value == ref % p and hash(got) == hash(FpElement(ref, p))
        if x % p:
            assert a ** -2 == FpElement(pow(x, 2 * (p - 2), p), p)

    def test_operand_paths(self):
        """Each kind of operand takes its own path through every binary
        dunder: an element of the same field is read directly, one of
        another prime raises ScalarError, a bool or a float is refused, a
        plain int is lifted mod p on either side, and any other type gets
        NotImplemented."""
        a, b = FpElement(3, 7), FpElement(5, 7)
        binary = (operator.add, operator.sub, operator.mul, operator.truediv)
        expected = (1, 5, 1, 2)  # 3 + 5, 3 - 5, 3 * 5, 3 / 5 = 3 * 3 in F_7
        for op, value in zip(binary, expected):
            got = op(a, b)
            assert type(got) is FpElement and (got.value, got.p) == (value, 7)
            assert op(a, 12) == op(a, FpElement(12, 7))
            assert op(-9, b) == op(FpElement(-9, 7), b)
            for foreign in (FpElement(1, 5), FpElement(3, 11)):
                with pytest.raises(ScalarError, match="mixed prime fields"):
                    op(a, foreign)
                with pytest.raises(ScalarError, match="mixed prime fields"):
                    op(foreign, a)
            for refused in (True, False, 0.5, "3", Fraction(1, 2), None):
                with pytest.raises(TypeError):
                    op(a, refused)
                with pytest.raises(TypeError):
                    op(refused, a)
        reflected = ("__radd__", "__rsub__", "__rmul__", "__rtruediv__")
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", *reflected):
            for refused in (True, 0.5, Fraction(1, 2), object()):
                assert getattr(a, name)(refused) is NotImplemented
        assert (a.__rsub__(10).value, a.__rtruediv__(1).value) == (0, 5)

    def test_slot_element_keeps_its_surface(self):
        a = FpElement(-2, 5)
        assert (a.value, a.p, str(a), repr(a)) == (3, 5, "3", "FpElement(value=3, p=5)")
        assert a == FpElement(8, 5) and a != FpElement(3, 7) and a != 3
        assert hash(a) == hash((3, 5))
        with pytest.raises(AttributeError):
            a.value = 4
        with pytest.raises(TypeError):
            a + True
        with pytest.raises(TypeError):
            a * 0.5
        with pytest.raises(ZeroDivisionError):
            1 / FpElement(5, 5)

    def test_pow(self):
        f5 = PrimeField(5)
        a = f5.from_int(2)
        assert a ** 4 == f5.one
        assert a ** -1 == f5.parse("1/2")
        with pytest.raises(ZeroDivisionError):
            f5.zero ** -1


def test_field_spec_round_trip():
    for field in (QQ, PrimeField(5)):
        assert field_from_spec(field.spec()) == field
    with pytest.raises(ScalarError):
        field_from_spec({"type": "reals"})
    with pytest.raises(ScalarError):
        field_from_spec({"type": "prime", "p": "5"})
    with pytest.raises(ScalarError):
        field_from_spec("rationals")


# -- no float ever reaches a report --------------------------------------------


def report_sources(tmp_path):
    """Every preset (with the --xi variants the goldens freeze, and one over
    F_7) and every generated golden document."""
    sources = dict(PRESETS)
    sources["sweedler4_f7"] = ["preset:sweedler4", "--field", "7"]
    for name, make in {**DOCUMENTS, **REPORT_DOCUMENTS}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(make()), encoding="utf-8")
        sources[name] = [str(path)]
    return sources


def test_no_float_reaches_a_report(tmp_path, monkeypatch):
    """Every scalar `verify --json` and `compute` print passes through its
    field's format: over QQ it is an int or a Fraction, over F_p an
    FpElement of that field, never a float or a bool."""
    seen = []

    def recording(format_fn):
        def wrapper(field, x):
            seen.append((field, x))
            return format_fn(field, x)
        return wrapper

    for cls in (RationalField, PrimeField):
        monkeypatch.setattr(cls, "format", recording(cls.format))
    for name, source in report_sources(tmp_path).items():
        seen.clear()
        lines = [["verify", *source, "--json"]]
        lines += [["compute", *source, what, "--json"] for what in COMPUTE_TARGETS]
        for argv in lines:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
        assert seen, f"{name}: no scalar was formatted"
        for field, x in seen:
            if isinstance(field, RationalField):
                assert type(x) in (int, Fraction), f"{name}: {x!r}"
            else:
                assert type(x) is FpElement and x.p == field.p, f"{name}: {x!r}"
