import contextlib
import dataclasses
import io
import json
import operator
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcheck.cli import COMPUTE_TARGETS, main
from hopfcheck.document import document_text
from hopfcheck.presets import sweedler_document
from hopfcheck.scalars import (
    PrimeField,
    QQ,
    RationalField,
    ScalarError,
    div,
    field_from_spec,
)
from test_golden import DOCUMENTS, PRESETS, REPORT_DOCUMENTS, run


class CountingField(PrimeField):
    """F_p whose reduce and div count their calls (calls["reduce"],
    calls["div"]) and whose reduce keeps the values it is handed (reduced):
    with F_p values plain ints, these two are the field arithmetic a
    computation does.  A document or algebra built over it runs as over
    PrimeField(p)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "calls", Counter())
        object.__setattr__(self, "reduced", [])

    @cached_property
    def reduce(self):
        def reduce(n):
            self.calls["reduce"] += 1
            self.reduced.append(n)
            return n % self.p
        return reduce

    def div(self, a, b):
        self.calls["div"] += 1
        return super().div(a, b)

    def work(self) -> int:
        """The reduce and div calls so far."""
        return self.calls["reduce"] + self.calls["div"]


class TestRationals:
    def test_parse_forms(self):
        for given_value, expected in ((3, 3), ("-7/2", Fraction(-7, 2)), (" 5 ", 5),
                                      ("4/2", 2), (Fraction(1, 3), Fraction(1, 3)),
                                      (Fraction(6, 3), 2)):
            got = QQ.parse(given_value)
            assert got == expected and type(got) is type(expected)
        assert (QQ.zero, QQ.one, QQ.reduce(-4)) == (0, 1, -4)
        assert {type(QQ.zero), type(QQ.one), type(QQ.reduce(-4))} == {int}
        # the identity on QQ is a C-level call, so a QQ path pays no Python frame
        assert QQ.reduce is operator.pos and QQ.reduce(Fraction(-1, 2)) == Fraction(-1, 2)

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
        assert f5.parse("1/2") == 3 and f5.parse(-1) == 4 and f5.parse(12) == 2
        assert {type(f5.parse(x)) for x in ("1/2", -1, 12, Fraction(-3, 4))} == {int}
        with pytest.raises(ScalarError):
            f5.parse("1/5")

    def test_division(self):
        f7 = PrimeField(7)
        a = f7.parse(3)
        assert f7.div(a, a) == f7.one and f7.div(1, a) == 5 and f7.div(-2, 10) == 4
        for zero in (f7.zero, 7, -14):
            with pytest.raises(ZeroDivisionError):
                f7.div(a, zero)

    @given(st.integers(), st.integers())
    def test_field_laws_f11(self, x, y):
        """reduce takes every int to its residue in range(11), and sums,
        products and quotients of residues, reduced, obey the field laws."""
        f11 = PrimeField(11)
        r = f11.reduce
        a, b = r(x), r(y)
        assert type(a) is int and 0 <= a < 11 and a == x % 11
        assert r(a + b) == r(b + a) == r(x + y)
        assert r(a * b) == r(b * a) == r(x * y)
        assert r(a * (b + f11.one)) == r(r(a * b) + a)
        assert bool(r(a - x)) is False
        if b:
            q = f11.div(a, b)
            assert 0 <= q < 11 and r(q * b) == a

    def test_pow(self):
        """div(1, a) is a^-1 = a^(p - 2), by Fermat."""
        f5 = PrimeField(5)
        a = f5.reduce(2)
        assert pow(a, 4, 5) == f5.one
        assert f5.div(f5.one, a) == f5.parse("1/2") == pow(a, 3, 5)
        with pytest.raises(ZeroDivisionError):
            f5.div(f5.one, f5.zero)


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
    field's format: over QQ it is an int or a Fraction, over F_p an int in
    range(p), never a float or a bool."""
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
                assert type(x) is int and 0 <= x < field.p, f"{name}: {x!r}"


# -- the same computation over QQ and over F_p ---------------------------------


def parse_lc(text: str) -> dict:
    """{label: Fraction} of an element as ops.format prints it; a
    coefficient alone stands on the unit, labelled "1"."""
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    signed = [("+", parts[0])] + list(zip(parts[1::2], parts[2::2]))
    out = {}
    for sign, term in signed:
        if term.startswith("-"):
            sign, term = ("-" if sign == "+" else "+"), term[1:]
        if "*" in term:
            coef, label = term.split("*", 1)
        elif re.fullmatch(r"\d+(/\d+)?", term):
            coef, label = term, "1"
        else:
            coef, label = "1", term
        out[label] = Fraction(coef) * (-1 if sign == "-" else 1)
    return out


def parse_value(text: str):
    """A functional's value list, or an element as {label: Fraction}."""
    if text.startswith("["):
        return [Fraction(x) for x in text[1:-1].split(", ")]
    return parse_lc(text)


def mod_p(value, p: int):
    """A rational n/d as n d^-1 mod p, over a value list or an element."""
    reduce = lambda q: q.numerator * pow(q.denominator, -1, p) % p
    if isinstance(value, list):
        return [reduce(q) for q in value]
    return {k: r for k, q in value.items() if (r := reduce(q))}


@pytest.mark.parametrize("source", ["preset:sweedler4", "preset:group:C4"])
def test_rational_values_reduce_to_the_prime_field_values(source):
    """compute over QQ, reduced mod 10007 value by value as n d^-1, equals
    compute over F_10007: lambda, a, alpha and chi are solved the same way
    over both fields."""
    p = 10007
    for what in ("lambda", "a", "alpha", "chi"):
        lines = {}
        for flags in ([], ["--field", str(p)]):
            code, out, _ = run(["compute", source, what, "--json", *flags])
            assert code == 0, (source, what, flags)
            lines[bool(flags)] = {c["name"]: parse_value(c["value"])
                                  for c in json.loads(out)["computed"]}
        over_q, over_p = lines[False], lines[True]
        assert over_q.keys() == over_p.keys()
        for name, value in over_q.items():
            assert mod_p(value, p) == mod_p(over_p[name], p), (source, name)
            assert all(0 <= x < p and x.denominator == 1
                       for x in (over_p[name] if isinstance(over_p[name], list)
                                 else over_p[name].values())), (source, name)


def rescaled(doc, k: int, t, convert=lambda q: q):
    """doc on the basis with e_k replaced by t e_k, each rational value
    passed through convert: e'_i e'_j = (t_i t_j / t_r) c e'_r,
    Delta(e'_i) = (t_i / (t_j t_k)) c e'_j (x) e'_k, eps(e'_i) = t_i eps(e_i),
    S(e'_j) = (t_j / t_i) c e'_i, R = sum c / (t_i t_j) e'_i (x) e'_j, a
    character's values times t_i and a grouplike's coefficients over t_i."""
    s = [Fraction(t) if i == k else Fraction(1) for i in range(len(doc.basis))]
    vec = lambda values, scale: tuple(convert(v * scale(i)) for i, v in enumerate(values))
    return dataclasses.replace(
        doc,
        mult=tuple((i, j, r, convert(c * s[i] * s[j] / s[r])) for i, j, r, c in doc.mult),
        comult=tuple((i, j, l, convert(c * s[i] / (s[j] * s[l]))) for i, j, l, c in doc.comult),
        counit=vec(doc.counit, s.__getitem__),
        antipode=tuple((i, j, convert(c * s[j] / s[i])) for i, j, c in doc.antipode),
        r_entries=tuple((convert(c / (s[i] * s[j])), i, j) for c, i, j in doc.r_entries),
        characters={name: vec(v, s.__getitem__) for name, v in doc.characters.items()},
        grouplikes={name: vec(v, lambda i: 1 / s[i]) for name, v in doc.grouplikes.items()})


def test_rescaled_sweedler_values_reduce_to_the_prime_field_values(tmp_path):
    """Sweedler's algebra with g rescaled by 3 holds 1/3 in its coproduct,
    Delta(3g) = 1/3 (3g) (x) (3g), and its solved a, u, v, a_alpha and
    b_alpha are 1/3 (3g).  Over QQ, reduced mod p as n d^-1, every computed
    value equals the run of the same document over F_p, whose entries are
    written reduced, so only the program's own solves divide there: a
    PrimeField.div that multiplied would fail this test."""
    p = 10007
    doc = rescaled(sweedler_document(), 1, 3)
    over_fp = rescaled(dataclasses.replace(sweedler_document(), field=PrimeField(p)), 1, 3,
                       lambda q: q.numerator * pow(q.denominator, -1, p) % p)
    paths = []
    for name, source in (("qq", doc), ("fp", over_fp)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(document_text(source), encoding="utf-8")
    fractional = set()
    for what in ("lambda", "a", "alpha", "chi", "u", "v", "uv", "a_alpha", "b_alpha"):
        lines = []
        for path in paths:
            code, out, _ = run(["compute", str(path), what, "--json"])
            assert code == 0, (path.name, what)
            lines.append({c["name"]: parse_value(c["value"]) for c in json.loads(out)["computed"]})
        over_q, over_p = lines
        assert over_q.keys() == over_p.keys()
        for name, value in over_q.items():
            assert mod_p(value, p) == mod_p(over_p[name], p), (what, name)
            values = value if isinstance(value, list) else value.values()
            fractional.update(name for x in values if x.denominator > 1)
    assert {"a", "u", "v", "a_alpha", "b_alpha"} <= fractional, fractional
