"""Algebra definition documents: parse, validate, build, and emit.

A document is a JSON object with explicit index-based sparse tensors and
exact rational coefficients (integers or "p/q" strings).  Parsing reports
the first problem with its location; emission is canonical, so a document
survives a parse/emit round trip unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from .hopf import FinHopfAlgebra
from .lincomb import group, is_character_fn, is_grouplike_lc, lc_canon
from .scalars import Field, Scalar, ScalarError, field_from_spec


class DocumentError(ValueError):
    """A definition document is malformed; the message names the location."""


REQUIRED_KEYS = ("name", "field", "basis", "mult", "comult", "counit")


@dataclass
class AlgebraDocument:
    name: str
    field: Field
    basis: tuple[str, ...]
    mult: tuple[tuple[int, int, int, Scalar], ...]
    comult: tuple[tuple[int, int, int, Scalar], ...]
    counit: tuple[Scalar, ...]
    antipode: tuple[tuple[int, int, Scalar], ...] | None = None
    r_entries: tuple[tuple[Scalar, int, int], ...] | None = None
    sigma: tuple[tuple[Scalar, ...], ...] | None = None
    characters: dict = dataclass_field(default_factory=dict)
    grouplikes: dict = dataclass_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _want_list(obj, key: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list) or not value:
        raise DocumentError(f"{key}: missing entries")
    return value


def _index(value, key: str, position: int, n: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{key}: entry {position} has a non-integer index")
    if not 0 <= value < n:
        raise DocumentError(f"{key}: entry {position} index {value} out of range")
    return value


def _scalar(field: Field, value, key: str, position) -> Scalar:
    try:
        return field.parse(value)
    except ScalarError as exc:
        raise DocumentError(f"{key}: entry {position}: {exc}") from exc


def parse_document(obj) -> AlgebraDocument:
    if not isinstance(obj, dict):
        raise DocumentError("document: expected a JSON object")
    for key in REQUIRED_KEYS:
        if key not in obj:
            raise DocumentError(f"{key}: missing entries")

    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise DocumentError("name: expected a non-empty string")
    try:
        field = field_from_spec(obj["field"])
    except ScalarError as exc:
        raise DocumentError(str(exc)) from exc

    basis = obj["basis"]
    if (not isinstance(basis, list) or not basis
            or any(not isinstance(b, str) or not b for b in basis)):
        raise DocumentError("basis: expected a non-empty list of labels")
    for pos, label in enumerate(basis):
        if basis.index(label) < pos:
            raise DocumentError(
                f"basis: label '{label}' repeats at entries {basis.index(label)} and {pos}")
    n = len(basis)

    def entries(key: str, fields: str, shape: str) -> tuple:
        """The entries of list key, each a list of the given fields, i an
        index and c a scalar, read in order; shape describes one in errors."""
        out = []
        for pos, entry in enumerate(_want_list(obj, key)):
            if not isinstance(entry, list) or len(entry) != len(fields):
                raise DocumentError(f"{key}: entry {pos} {shape}")
            out.append(tuple(_index(v, key, pos, n) if f == "i" else _scalar(field, v, key, pos)
                             for f, v in zip(fields, entry)))
        return tuple(out)

    mult = entries("mult", "iiic", "must have four fields")
    comult = entries("comult", "iiic", "must have four fields")

    counit_raw = _want_list(obj, "counit")
    seen: dict = {}
    for pos, entry in enumerate(counit_raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentError(f"counit: entry {pos} must be [index, coefficient]")
        i = _index(entry[0], "counit", pos, n)
        if i in seen:
            raise DocumentError(f"counit: duplicate entry for index {i}")
        seen[i] = _scalar(field, entry[1], "counit", pos)
    if len(seen) != n:
        raise DocumentError("counit: missing entries")
    counit = tuple(seen[i] for i in range(n))

    antipode = r_entries = None
    if "antipode" in obj:
        antipode = entries("antipode", "iic", "must be [i, j, coefficient]")
    if "R" in obj:
        r_entries = entries("R", "cii", "must be [coefficient, i, j]")

    sigma = None
    if "sigma" in obj:
        raw = _want_list(obj, "sigma")
        dense = (len(raw) == n
                 and all(isinstance(row, list) and len(row) == n for row in raw))
        if dense:
            sigma = tuple(tuple(_scalar(field, v, "sigma", (i, j))
                                for j, v in enumerate(row))
                          for i, row in enumerate(raw))
        else:
            rows = [[field.zero] * n for _ in range(n)]
            for i, j, v in entries("sigma", "iic", "must be [i, j, value] or a dense matrix"):
                rows[i][j] = field.reduce(rows[i][j] + v)
            sigma = tuple(tuple(row) for row in rows)

    def named_vectors(key: str) -> dict:
        out: dict = {}
        if key not in obj:
            return out
        table = obj[key]
        if not isinstance(table, dict):
            raise DocumentError(f"{key}: expected an object of named vectors")
        for vec_name in sorted(table):
            vec = table[vec_name]
            if not isinstance(vec, list) or len(vec) != n:
                raise DocumentError(
                    f"{key}: '{vec_name}' must list one value per basis element")
            out[vec_name] = tuple(_scalar(field, v, key, vec_name) for v in vec)
        return out

    return AlgebraDocument(
        name=name, field=field, basis=tuple(basis), mult=mult, comult=comult,
        counit=counit, antipode=antipode, r_entries=r_entries, sigma=sigma,
        characters=named_vectors("characters"),
        grouplikes=named_vectors("grouplikes"),
    )


def load_document(path: str) -> AlgebraDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc
    return parse_document(obj)


def build_algebra(doc: AlgebraDocument) -> FinHopfAlgebra:
    n, reduce = doc.dim, doc.field.reduce
    mult: dict = {}
    for i, j, k, c in doc.mult:  # FinHopfAlgebra reduces the sums
        row = mult.setdefault((i, j), {})
        row[k] = row.get(k, 0) + c
    comult = group((i, (c, j, k)) for i, j, k, c in doc.comult)
    antipode = None
    if doc.antipode is not None:  # entry [i, j, c]: c e_i in S(e_j), column j
        columns: list[dict] = [{} for _ in range(n)]
        for i, j, c in doc.antipode:
            columns[j][i] = columns[j].get(i, 0) + c
        antipode = tuple(lc_canon(column, reduce) for column in columns)
    return FinHopfAlgebra(doc.field, doc.basis, mult,
                          {i: tuple(ts) for i, ts in comult.items()},
                          doc.counit, antipode=antipode, name=doc.name)


def document_characters(doc: AlgebraDocument, algebra: FinHopfAlgebra) -> dict:
    """The named characters, each as a key -> scalar function."""
    ops = algebra.ops
    out = {}
    for name in sorted(doc.characters):
        f = doc.characters[name].__getitem__
        if not is_character_fn(ops, f):
            raise DocumentError(f"characters: '{name}' is not an algebra character")
        out[name] = f
    return out


def document_grouplikes(doc: AlgebraDocument, algebra: FinHopfAlgebra) -> dict:
    """The named grouplikes, each as an LC."""
    ops = algebra.ops
    out = {}
    for name in sorted(doc.grouplikes):
        x = lc_canon(dict(enumerate(doc.grouplikes[name])), doc.field.reduce)
        if not is_grouplike_lc(ops, x):
            raise DocumentError(f"grouplikes: '{name}' is not grouplike")
        out[name] = x
    return out


def _scalar_to_json(s: Scalar):
    """A reduced value as JSON: an int, or a rational as "p/q"."""
    return int(s.numerator) if s.denominator == 1 else f"{s.numerator}/{s.denominator}"


def emit_document(doc: AlgebraDocument) -> dict:
    """Canonical JSON form: merged duplicates, zeros dropped, sorted entries."""
    field = doc.field

    def merged(entries) -> list:
        """(key, value) entries, duplicate keys summed, zeros dropped, sorted."""
        acc: dict = {}
        for key, c in entries:
            acc[key] = acc.get(key, 0) + c
        return sorted(lc_canon(acc, field.reduce).items())

    def merge_triples(entries):
        return [[i, j, k, _scalar_to_json(c)]
                for (i, j, k), c in merged(((i, j, k), c) for i, j, k, c in entries)]

    obj = {
        "name": doc.name,
        "field": field.spec(),
        "basis": list(doc.basis),
        "mult": merge_triples(doc.mult),
        "comult": merge_triples(doc.comult),
        "counit": [[i, _scalar_to_json(c)] for i, c in enumerate(doc.counit)],
    }
    if doc.antipode is not None:
        obj["antipode"] = [[i, j, _scalar_to_json(c)]
                           for (i, j), c in merged(((i, j), c) for i, j, c in doc.antipode)]
    if doc.r_entries is not None:
        r_terms = merged(((i, j), c) for c, i, j in doc.r_entries)
        # R = 0 keeps one explicit zero entry, since "R" never parses empty
        obj["R"] = [[_scalar_to_json(c), i, j] for (i, j), c in r_terms] or [[0, 0, 0]]
    if doc.sigma is not None:
        obj["sigma"] = [[_scalar_to_json(v) for v in row] for row in doc.sigma]
    if doc.characters:
        obj["characters"] = {name: [_scalar_to_json(v) for v in vec]
                             for name, vec in sorted(doc.characters.items())}
    if doc.grouplikes:
        obj["grouplikes"] = {name: [_scalar_to_json(v) for v in vec]
                             for name, vec in sorted(doc.grouplikes.items())}
    return obj


def document_text(doc: AlgebraDocument) -> str:
    return json.dumps(emit_document(doc), indent=2, sort_keys=True) + "\n"


def document_from_algebra(algebra: FinHopfAlgebra, r_terms: dict | None = None,
                          name: str | None = None) -> AlgebraDocument:
    """Read the structure constants back out of a built algebra, with an
    R-matrix given as its leg-pair combination {(i, j): c}."""
    n, ops = algebra.dim, algebra.ops
    mult = tuple((i, j, k, c) for i in range(n) for j in range(n)
                 for k, c in sorted(algebra._mult.get((i, j), {}).items()))
    comult = tuple((i, j, k, c) for i in range(n) for c, j, k in algebra._comult.get(i, ()))
    antipode = tuple(sorted((i, j, c) for j, column in enumerate(algebra.antipode)
                            for i, c in column.items()))
    r_entries = None
    if r_terms is not None:
        r_entries = tuple((v, i, j) for (i, j), v in sorted(r_terms.items()) if v)
    return AlgebraDocument(
        name=name or algebra.name, field=algebra.field, basis=algebra.labels,
        mult=mult, comult=comult,
        counit=tuple(map(ops.eps, ops.keys)),
        antipode=antipode, r_entries=r_entries,
    )
