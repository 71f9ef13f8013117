import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.cli import main
from hopfcheck.document import (
    DocumentError,
    build_algebra,
    document_characters,
    document_from_algebra,
    document_grouplikes,
    document_text,
    emit_document,
    load_document,
    parse_document,
)
from hopfcheck.hopf import require_passing, same_structure_constants, verify_hopf
from hopfcheck.presets import FINITE_PRESETS, preset_document

from test_golden import cyclic_group_document, double_c2_document, laurent_quotient_document


def c2_obj():
    return {
        "name": "C2",
        "field": {"type": "rationals"},
        "basis": ["1", "g"],
        "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
        "comult": [[0, 0, 0, 1], [1, 1, 1, 1]],
        "counit": [[0, 1], [1, 1]],
    }


def test_parse_build_verify():
    doc = parse_document(c2_obj())
    algebra = build_algebra(doc)
    assert algebra.name == "C2"
    assert all(r.ok for r in verify_hopf(algebra))


def test_structure_round_trip():
    doc = parse_document(c2_obj())
    first = build_algebra(doc)
    require_passing(verify_hopf(first))
    again = build_algebra(parse_document(emit_document(document_from_algebra(first))))
    assert same_structure_constants(first, again)


def test_non_object_document():
    with pytest.raises(DocumentError, match="expected a JSON object"):
        parse_document([1, 2, 3])


def test_missing_required_key():
    obj = c2_obj()
    del obj["counit"]
    with pytest.raises(DocumentError, match="counit: missing entries"):
        parse_document(obj)


def test_incomplete_counit():
    obj = c2_obj()
    obj["counit"] = [[0, 1]]
    with pytest.raises(DocumentError, match="counit: missing entries"):
        parse_document(obj)


def test_duplicate_counit_index():
    obj = c2_obj()
    obj["counit"] = [[0, 1], [0, 1]]
    with pytest.raises(DocumentError, match="duplicate entry for index 0"):
        parse_document(obj)


def test_repeated_basis_label():
    obj = c2_obj()
    obj["basis"] = ["g", "g"]
    with pytest.raises(DocumentError,
                       match="basis: label 'g' repeats at entries 0 and 1"):
        parse_document(obj)


def test_counit_entry_shape():
    obj = c2_obj()
    obj["counit"] = [[0, 1, 2], [1, 1]]
    with pytest.raises(DocumentError, match=r"counit: entry 0 must be \[index, coefficient\]"):
        parse_document(obj)


def test_mult_entry_arity():
    obj = c2_obj()
    obj["mult"][0] = [0, 0, 0]
    with pytest.raises(DocumentError, match="mult: entry 0 must have four fields"):
        parse_document(obj)


def test_non_integer_index():
    obj = c2_obj()
    obj["mult"][1] = [0, "1", 1, 1]
    with pytest.raises(DocumentError, match="mult: entry 1 has a non-integer index"):
        parse_document(obj)
    obj["mult"][1] = [0, True, 1, 1]
    with pytest.raises(DocumentError, match="mult: entry 1 has a non-integer index"):
        parse_document(obj)


def test_index_out_of_range():
    obj = c2_obj()
    obj["comult"][1] = [1, 1, 5, 1]
    with pytest.raises(DocumentError, match="comult: entry 1 index 5 out of range"):
        parse_document(obj)


def test_bad_coefficients():
    obj = c2_obj()
    obj["mult"][0] = [0, 0, 0, "1/0"]
    with pytest.raises(DocumentError, match="mult: entry 0:"):
        parse_document(obj)
    obj["mult"][0] = [0, 0, 0, 0.5]
    with pytest.raises(DocumentError, match="mult: entry 0:"):
        parse_document(obj)


def test_file_errors(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_document(str(bad))


def test_load_document_round_trip(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(c2_obj()), encoding="utf-8")
    doc = load_document(str(path))
    assert doc.basis == ("1", "g")


def test_emission_is_canonical():
    obj = c2_obj()
    # duplicates merge, cancelling pairs disappear, order is normalized
    obj["mult"] = [[1, 1, 0, 1], [0, 0, 0, 2], [0, 0, 0, -1],
                   [0, 1, 1, 2], [0, 1, 1, -1], [1, 0, 1, 1],
                   [1, 1, 1, 3], [1, 1, 1, -3]]
    out = emit_document(parse_document(obj))
    assert out["mult"] == [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]


def test_document_text_idempotent():
    text = document_text(parse_document(c2_obj()))
    again = document_text(parse_document(json.loads(text)))
    assert again == text


def test_preset_documents_survive_round_trip():
    for name in FINITE_PRESETS:
        doc = preset_document(name)
        text = document_text(doc)
        doc2 = parse_document(json.loads(text))
        assert document_text(doc2) == text
        assert all(r.ok for r in verify_hopf(build_algebra(doc2)))


def test_sigma_dense_and_sparse_agree():
    dense = c2_obj()
    dense["sigma"] = [[1, 1], [1, -1]]
    sparse = c2_obj()
    sparse["sigma"] = [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, -1]]
    a = parse_document(dense)
    b = parse_document(sparse)
    assert a.sigma == b.sigma


def test_sigma_sparse_duplicates_sum():
    # repeated (i, j) entries add up, as mult, antipode and R entries do
    sparse = c2_obj()
    sparse["sigma"] = [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, -3], [1, 1, 2]]
    dense = c2_obj()
    dense["sigma"] = [[1, 1], [1, -1]]
    assert parse_document(sparse).sigma == parse_document(dense).sigma
    assert document_text(parse_document(sparse)) == document_text(parse_document(dense))


def test_sigma_entry_shape():
    obj = c2_obj()
    obj["sigma"] = [[0, 0, 1], [0, 1]]
    with pytest.raises(DocumentError, match="sigma: entry 1 must be"):
        parse_document(obj)


def test_r_entries_parse_and_shape():
    obj = c2_obj()
    obj["R"] = [[1, 0, 0]]
    doc = parse_document(obj)
    assert doc.r_entries is not None and len(doc.r_entries) == 1
    obj["R"] = [[1, 0]]
    with pytest.raises(DocumentError, match=r"R: entry 0 must be \[coefficient, i, j\]"):
        parse_document(obj)


def test_named_vector_length():
    obj = c2_obj()
    obj["characters"] = {"sign": [1]}
    with pytest.raises(DocumentError, match="'sign' must list one value per basis element"):
        parse_document(obj)


def test_character_and_grouplike_validation():
    obj = c2_obj()
    obj["characters"] = {"sign": [1, -1]}
    obj["grouplikes"] = {"g": [0, 1]}
    doc = parse_document(obj)
    algebra = build_algebra(doc)
    require_passing(verify_hopf(algebra))
    chars = document_characters(doc, algebra)
    assert set(chars) == {"sign"}
    groups = document_grouplikes(doc, algebra)
    assert groups["g"] == algebra.ops.single(1)
    assert [chars["sign"](k) for k in range(2)] == [1, -1]

    obj["characters"] = {"bad": [1, 2]}
    doc = parse_document(obj)
    with pytest.raises(DocumentError, match="characters: 'bad' is not an algebra character"):
        document_characters(doc, algebra)

    obj["characters"] = {}
    obj["grouplikes"] = {"bad": [1, 1]}
    doc = parse_document(obj)
    with pytest.raises(DocumentError, match="grouplikes: 'bad' is not grouplike"):
        document_grouplikes(doc, algebra)


# the documents mutated below, and where each list key keeps its entries'
# indexes and coefficient; sigma is H_4's dense matrix of values
MUTATED = {"kC2": lambda: cyclic_group_document(2), "D(kC2)": double_c2_document,
           "H_4": lambda: laurent_quotient_document(4)}
LAYOUT = {"mult": ((0, 1, 2), 3), "comult": ((0, 1, 2), 3), "counit": ((0,), 1),
          "antipode": ((0, 1), 2), "R": ((1, 2), 0), "sigma": ((), None)}
DOCUMENT_KEYS = ("name", "field", "basis", *LAYOUT, "characters", "grouplikes")


@st.composite
def mutants(draw) -> dict:
    """One of the documents with one entry dropped or duplicated, an index
    pushed out of range, an entry of the wrong arity, a coefficient that
    is not an exact number or is 1/0, or a character or grouplike of the
    wrong length."""
    doc = MUTATED[draw(st.sampled_from(sorted(MUTATED)))]()
    n = len(doc["basis"])
    vectors = [(key, name) for key in ("characters", "grouplikes") for name in doc.get(key, {})]
    lists = [key for key in LAYOUT if key in doc]
    kinds = ["drop", "duplicate", "arity", "coefficient", "index"] + ["length"] * bool(vectors)
    kind = draw(st.sampled_from(kinds))
    if kind == "length":
        key, name = draw(st.sampled_from(vectors))
        vec = doc[key][name]
        doc[key][name] = vec[:-1] if draw(st.booleans()) else vec + [0]
        return doc
    key = draw(st.sampled_from([k for k in lists if LAYOUT[k][0]] if kind == "index" else lists))
    entries = doc[key]
    pos = draw(st.integers(0, len(entries) - 1))
    entry = entries[pos] = list(entries[pos])
    indexes, coefficient = LAYOUT[key]
    if kind == "drop":
        del entries[pos]
    elif kind == "duplicate":
        entries.insert(pos, list(entry))
    elif kind == "arity":
        entries[pos] = entry[:-1] if draw(st.booleans()) else entry + [0]
    elif kind == "index":
        entry[draw(st.sampled_from(indexes))] = draw(st.sampled_from([n, n + 3, -1]))
    else:
        bad = draw(st.sampled_from(["1/0", "x", "", "1.5", 0.5, None, [1], True]))
        entry[draw(st.integers(0, n - 1)) if coefficient is None else coefficient] = bad
    return doc


def verify_exit(doc) -> int:
    """The exit code of verify on doc; on 2, stderr must be one error line
    that names the document key at fault."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path), "--json"])
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].split(":")[0] == "error", lines
        assert lines[0].split(": ")[1] in DOCUMENT_KEYS, lines
    return code


@settings(max_examples=100, deadline=None)
@given(doc=mutants())
def test_a_mutated_document_exits_cleanly(doc):
    """A malformed or mutated document never escapes main with an
    exception: verify exits 0, 1 or 2, and on 2 names the key at fault."""
    assert verify_exit(doc) in (0, 1, 2)


# values no document key accepts: JSON shapes other than the expected one
NOT_A_LIST = ({"0": [0, 0, 0, 1]}, "[[0, 0, 0, 1]]", 7)
BAD_NAMES = ("", 7, None, ["kC2"], {"name": "kC2"})
BAD_FIELDS = ("rationals", 7, None, [], {}, {"type": "prime"},
              {"type": "prime", "p": "7"}, {"type": "reals"},
              {"type": "prime", "p": 4}, {"type": "prime", "p": 9})


@st.composite
def malformed(draw) -> dict:
    """One of the documents with a bad name, field or basis (a list of
    the wrong shape, length or labels, or no list), with a dict, a str or
    an int where a list of entries is expected, or with one entry, or
    one of its fields, nested in a list."""
    doc = MUTATED[draw(st.sampled_from(sorted(MUTATED)))]()
    basis, lists = doc["basis"], [key for key in LAYOUT if key in doc]
    kind = draw(st.sampled_from(["name", "field", "basis", "shape", "nested"]))
    if kind == "name":
        doc["name"] = draw(st.sampled_from(BAD_NAMES))
    elif kind == "field":
        doc["field"] = draw(st.sampled_from(BAD_FIELDS))
    elif kind == "basis":
        doc["basis"] = draw(st.sampled_from([
            [], basis[:-1], basis + ["extra"], basis[:-1] + [basis[0]], basis[:-1] + [""],
            basis[:-1] + [1], [basis], *NOT_A_LIST]))
    elif kind == "shape":
        doc[draw(st.sampled_from(lists))] = draw(st.sampled_from(NOT_A_LIST))
    else:
        entries = doc[draw(st.sampled_from(lists))]
        pos = draw(st.integers(0, len(entries) - 1))
        entry = entries[pos]
        if draw(st.booleans()):
            entries[pos] = [entry]
        else:
            i = draw(st.integers(0, len(entry) - 1))
            entries[pos] = entry[:i] + [[entry[i]]] + entry[i + 1:]
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=malformed())
def test_a_malformed_document_exits_two_at_its_key(doc):
    """A document whose name, field or basis is bad, or which holds a
    non-list or a nested entry where a list of entries is expected, is
    refused with exit 2 and a message that names a document key."""
    assert verify_exit(doc) == 2
