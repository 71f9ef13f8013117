import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfcheck
from hopfcheck import cofrobenius, hopf, lincomb, linalg
from hopfcheck.cli import CHECK_TOKENS, COMPUTE_TARGETS, main
from hopfcheck.coquasitriangular import dualize_qt
from hopfcheck.document import build_algebra, document_text, load_document, parse_document
from hopfcheck.presets import cyclic_group_document, preset_document
from hopfcheck.quasitriangular import RMatrix, drinfeld_elements
from test_golden import (
    bumped_sigma_document,
    double_c2_document,
    double_c4_permuted_document,
    laurent_quotient_document,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_doc(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def corrupted_c2_obj():
    obj = json.loads(document_text(preset_document("group:C2")))
    # g*g lands on g instead of 1, which kills the antipode
    obj["mult"] = [e if e[:2] != [1, 1] else [1, 1, 1, 1] for e in obj["mult"]]
    del obj["antipode"]
    return obj


def test_verify_group_preset(capsys):
    rc, out, _ = run(capsys, "verify", "preset:group:C2")
    assert rc == 0
    assert out.startswith("== verify kC2 ==")
    assert "result: PASS" in out
    assert "[FAIL]" not in out


def test_verify_sweedler_computed_values(capsys):
    rc, out, _ = run(capsys, "verify", "preset:sweedler4", "--xi", "1")
    assert rc == 0
    assert "  a = g" in out
    assert "  u = g" in out
    assert "  v = g" in out
    assert "  uv = 1" in out
    assert "  alpha = [1, -1, 0, 0]" in out
    assert "result: PASS" in out


@pytest.mark.parametrize("order", [3, 5])
def test_verify_odd_cyclic_group_document(capsys, tmp_path, order):
    # (-1)^i is a character of kC_n only for even n; odd orders ship none
    path = tmp_path / "doc.json"
    path.write_text(document_text(cyclic_group_document(order)), encoding="utf-8")
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 0, err
    assert out.startswith(f"== verify kC{order} ==")
    assert "result: PASS" in out


def test_verify_laurent_window(capsys):
    rc, out, _ = run(capsys, "verify", "preset:laurent", "--window", "3")
    assert rc == 0
    assert "== verify laurent[window=3] ==" in out
    assert "  a = g" in out
    assert "result: PASS" in out


def test_verify_prime_field(capsys):
    rc, out, _ = run(capsys, "verify", "preset:sweedler4", "--field", "7", "--xi", "3")
    assert rc == 0
    assert "result: PASS" in out


def test_json_output_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "verify", "preset:sweedler4", "--xi", "1", "--json")
    rc2, out2, _ = run(capsys, "verify", "preset:sweedler4", "--xi", "1", "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert set(obj) == {"title", "conventions", "checks", "computed", "result"}
    assert obj["result"] == "pass"


def test_module_entry_point_matches_main(capsys):
    src = str(Path(hopfcheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hopfcheck", "verify", "preset:sweedler4"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    rc, out, _ = run(capsys, "verify", "preset:sweedler4")
    assert proc.returncode == rc == 0, proc.stderr
    assert proc.stdout == out


def test_timestamps_flag(capsys):
    rc, out, _ = run(capsys, "verify", "preset:group:C2", "--json", "--timestamps")
    assert rc == 0
    assert "generated_at" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ("verify", "preset:nope"),
    ("verify", "preset:group:C2", "--xi", "2"),
    ("verify", "preset:sweedler4", "--window", "4"),
    ("verify", "preset:laurent", "--field", "5"),
    ("verify", "preset:laurent", "--window", "1"),
    ("verify", "preset:sweedler4", "--xi", "1/0"),
    ("verify", "preset:sweedler4", "--xi", "two"),
    ("verify", "/nonexistent/algebra.json"),
    ("compute", "preset:laurent", "minimal-subhopf"),
    ("compute", "preset:laurent", "a", "--emit-document"),
    ("check", "preset:laurent", "uv"),
    ("check", "preset:laurent", "factunim"),
])
def test_usage_errors_exit_two(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")


def test_flags_rejected_for_file_sources(capsys, tmp_path):
    path = write_doc(tmp_path, json.loads(document_text(preset_document("group:C2"))))
    rc, _, err = run(capsys, "verify", path, "--xi", "1")
    assert rc == 2
    assert "apply to presets only" in err


def test_bad_token_exits_two(capsys):
    assert main(["check", "preset:sweedler4", "frobnicate"]) == 2
    capsys.readouterr()
    assert main(["compute", "preset:sweedler4", "nonsense"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_verify_corrupted_mult_exits_one(capsys, tmp_path):
    path = write_doc(tmp_path, corrupted_c2_obj())
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 1
    assert "[FAIL] hopf.antipode_exists" in out
    assert "result: FAIL" in out


@pytest.mark.parametrize("entry, lines", [
    # g gx = 2 g^2x: the two-sided antipode system still solves, so the
    # solved S passes its laws
    (15, [("hopf.associativity", "fail", "at (g, x, g)"),
          ("hopf.comultiplication_multiplicative", "fail", "at (x, gx)"),
          ("hopf.antipode_laws", "pass", None), ("hopf.antipode_bijective", "pass", None),
          ("hopf.antipode_invertible", "pass", None)]),
    # g g^2x = 2 g^3x: the system has no solution
    (17, [("hopf.associativity", "fail", "at (g, x, g^2)"),
          ("hopf.comultiplication_multiplicative", "fail", "at (x, g^2x)"),
          ("hopf.antipode_laws", "skipped", "no antipode available"),
          ("hopf.antipode_exists", "fail", "bialgebra admits no antipode")]),
])
def test_non_associative_table_without_antipode_pins_its_lines(capsys, tmp_path, entry,
                                                                lines):
    """H_4 over F_10007 with the antipode omitted and one product entry
    doubled is not associative.  verify solves for the antipode anyway,
    from both antipode laws; where that solve fails, hopf.antipode_exists
    FAILs, else the solved S passes hopf.antipode_laws.  These lines are
    pinned, so a change to the antipode solve (a one-sided system, say)
    that moves a verdict between the two shows here."""
    obj = laurent_quotient_document(4)
    assert "antipode" not in obj
    obj["mult"] = [list(e) for e in obj["mult"]]
    assert obj["mult"][entry][3] == 1
    obj["mult"][entry][3] = 2
    rc, out, _ = run(capsys, "verify", write_doc(tmp_path, obj), "--json")
    report = json.loads(out)
    assert rc == 1 and report["result"] == "fail"
    checks = [(c["name"], c["status"], c["witness"]) for c in report["checks"]]
    passed = [(f"hopf.{name}", "pass", None) for name in (
        "unit_laws", "coassociativity", "counit_laws", "comultiplication_unital",
        "counit_multiplicative", "counit_unital")]
    assert checks == [lines[0], *passed[:3], lines[1], *passed[3:], *lines[2:]]


def test_verify_corrupted_r_exits_one(capsys, tmp_path):
    obj = json.loads(document_text(preset_document("sweedler4")))
    obj["R"] = [e if e[1:] != [2, 2] else ["-1/2", 2, 2] for e in obj["R"]]
    path = write_doc(tmp_path, obj)
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 1
    assert "[FAIL] qt.hexagon_comultiply_first_leg  :: at (1, x, x)" in out


def permuted_double_c3_obj():
    """D(kC3) on delta_a g^b with R = sum_b delta_b (x) g^b, basis permuted."""
    n = 3
    perm = [4, 7, 0, 2, 8, 5, 1, 6, 3]  # perm[a * n + b] = new index of delta_a g^b
    ix = lambda a, b: perm[(a % n) * n + b % n]
    basis = [""] * n * n
    for a in range(n):
        for b in range(n):
            basis[ix(a, b)] = f"d{a}" + ("" if b == 0 else "g" if b == 1 else f"g^{b}")
    sums = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    return {
        "name": "D(kC3)",
        "field": {"type": "rationals"},
        "basis": basis,
        "mult": sorted([ix(a, b), ix(a, c), ix(a, b + c), 1] for a, b, c in sums),
        "comult": sorted([ix(a, b), ix(c, b), ix(a - c, b), 1] for a, b, c in sums),
        "counit": sorted([ix(a, b), int(a == 0)] for a in range(n) for b in range(n)),
        "antipode": sorted([ix(-a, -b), ix(a, b), 1] for a in range(n) for b in range(n)),
        # g^b = sum_a delta_a g^b on the second leg
        "R": sorted(([1, ix(b, 0), ix(a, b)] for b in range(n) for a in range(n)),
                    key=lambda e: e[1:]),
    }


def test_verify_double_passes_dual_bridge_v(capsys, tmp_path):
    # the dual braiding's v evaluates f(S(u)) = f(v^-1); D(kC3) has v != v^-1
    path = write_doc(tmp_path, permuted_double_c3_obj())
    rc, out, _ = run(capsys, "verify", path, "--json")
    obj = json.loads(out)
    statuses = {c["name"]: c["status"] for c in obj["checks"]}
    assert statuses["cqt.dual_bridge_v"] == "pass"
    assert "fail" not in statuses.values()
    assert rc == 0 and obj["result"] == "pass"


def test_verify_double_solve_count_is_bounded(capsys, tmp_path, monkeypatch):
    # characters invert as eta o S without a solve, and one verify computes
    # the Drinfeld elements once.  What is left: the unit, three integral
    # nullspaces, a from a^-1 three times, u^-1 and v, the inverse of the
    # S^2 witness, four tensor-square inverses and the braiding's inverse.
    # Inverting characters by solves and u, v twice took 58.
    calls = []
    real = linalg.solve_linear

    def spy(a, b):
        calls.append(a.nrows)
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("hopfcheck") and getattr(module, "solve_linear", None) is real:
            monkeypatch.setattr(module, "solve_linear", spy)
    path = write_doc(tmp_path, permuted_double_c3_obj())
    rc, _, _ = run(capsys, "verify", path, "--json")
    assert rc == 0
    assert len(calls) <= 15, len(calls)


def test_verify_double_validates_characters_only_in_named_checks(capsys, tmp_path,
                                                                 monkeypatch):
    # integral.modular_functional_character on the algebra and its dual, and
    # the alpha_g, beta_g of dual.cqt.grouplike_characters[a]; the contractions
    # of R trust their characters, which took 39 calls when they re-checked
    calls = []
    real = lincomb.is_character_fn

    def spy(ops, f, on_proof=False):
        calls.append(1)
        return real(ops, f, on_proof)

    for name, module in list(sys.modules.items()):
        if name.startswith("hopfcheck") and getattr(module, "is_character_fn", None) is real:
            monkeypatch.setattr(module, "is_character_fn", spy)
    path = write_doc(tmp_path, permuted_double_c3_obj())
    rc, _, _ = run(capsys, "verify", path, "--json")
    assert rc == 0
    assert len(calls) == 4, len(calls)


def test_verify_twists_the_dual_integral_with_u(capsys, tmp_path, monkeypatch):
    # S^-2(h) = omega^-1(h1) h2 omega(h3) needs omega = u; on the dual of
    # D(kC3) the braided u differs from u^-1, so the orientation shows
    seen = []
    real = cofrobenius.integral_twist_from_coinner

    def spy(ops, lam, alpha, omega, omega_inv):
        seen.append((ops.keys, omega))
        return real(ops, lam, alpha, omega, omega_inv)

    monkeypatch.setattr(cofrobenius, "integral_twist_from_coinner", spy)
    path = write_doc(tmp_path, permuted_double_c3_obj())
    rc, _, _ = run(capsys, "verify", path)
    assert rc == 0

    doc = load_document(path)
    algebra = build_algebra(doc)
    r = RMatrix.from_entries(algebra, doc.r_entries)
    dual, br, _ = dualize_qt(r, drinfeld_elements(r)[0])
    fns = br.functionals[0]
    ops = dual.ops
    assert any(fns["u"](k) != fns["u_inv"](k) for k in ops.keys)
    assert len(seen) == 1
    keys, omega = seen[0]
    assert keys == ops.keys
    assert [omega(k) for k in keys] == [fns["u"](k) for k in keys]


def test_one_verify_builds_one_basis_ops_per_algebra(capsys, tmp_path, monkeypatch):
    # D(kC4) and its dual: every reader of an algebra shares its ops
    built = []
    init = lincomb.BasisOps.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(lincomb.BasisOps, "__init__", spy)
    run(capsys, "verify", write_doc(tmp_path, double_c4_permuted_document()))
    assert len(built) == 2


def test_one_verify_solves_only_for_r_inverse_and_u_inverse(capsys, tmp_path, monkeypatch):
    # R^-1 and u^-1 are solved for on H; the inverse of a document's sigma
    # (the group preset has one) in the tensor square of H*; and the inverse
    # of sigma(f, g) = (f x g)(R) in dualize_qt, in the tensor square of the
    # dual's dual.  check_s2_inner_witness takes u^-1 once two products
    # check it, and every other inverse is read off these
    calls = []
    invert, invert_element = hopf.Tensor2.invert, hopf.FinHopfAlgebra.invert_element

    def tensor_spy(algebra, t):
        calls.append(("Tensor2.invert", algebra.name))
        return invert(algebra, t)

    def element_spy(self, x):
        calls.append(("invert_element", self.name))
        return invert_element(self, x)

    monkeypatch.setattr(hopf.Tensor2, "invert", staticmethod(tensor_spy))
    monkeypatch.setattr(hopf.FinHopfAlgebra, "invert_element", element_spy)
    assert run(capsys, "verify", write_doc(tmp_path, double_c4_permuted_document()))[0] in (0, 1)
    assert calls == [("Tensor2.invert", "D(kC4)"), ("invert_element", "D(kC4)"),
                     ("Tensor2.invert", "D(kC4)^*^*")]
    calls.clear()
    assert run(capsys, "verify", "preset:group:C4")[0] in (0, 1)
    assert calls == [("Tensor2.invert", "kC4"), ("invert_element", "kC4"),
                     ("Tensor2.invert", "kC4^*"), ("Tensor2.invert", "kC4^*^*")]


def test_degenerate_pairing_fails_integral_data(capsys, monkeypatch):
    # lambda(e_i e_j) vanishes on the rows of x and gx when lambda is the
    # coefficient of 1 on sweedler4, so the [P^T | P] elimination finds P
    # singular: no Carrier is built, and no rank or invertibility line runs
    monkeypatch.setattr(cofrobenius, "left_integrals",
                        lambda algebra: [(1, 0, 0, 0)])
    rc, out, _ = run(capsys, "verify", "preset:sweedler4", "--json")
    assert rc == 1
    checks = json.loads(out)["checks"]
    assert checks[-1] == {"name": "integral.data", "status": "fail",
                          "witness": "integral pairing is degenerate; no Nakayama map"}
    assert not any(c["name"].startswith("integral.") for c in checks[:-1])


def test_compute_golden_lines(capsys):
    rc, out, _ = run(capsys, "compute", "preset:sweedler4", "u")
    assert rc == 0
    assert "  u = g" in out
    rc, out, _ = run(capsys, "compute", "preset:sweedler4", "uv")
    assert rc == 0
    assert "  uv = 1" in out
    rc, out, _ = run(capsys, "compute", "preset:sweedler4", "a_alpha")
    assert rc == 0
    assert "  a_alpha = g" in out
    rc, out, _ = run(capsys, "compute", "preset:sweedler4", "chi")
    assert rc == 0
    assert "  chi(g) = -g" in out


def test_compute_with_braiding_only_source(capsys, tmp_path):
    obj = json.loads(document_text(preset_document("group:C2")))
    del obj["R"]
    path = write_doc(tmp_path, obj)
    rc, out, _ = run(capsys, "compute", path, "u")
    assert rc == 0
    assert "  u = [1, 1]" in out
    rc, out, _ = run(capsys, "compute", path, "a_alpha")
    assert rc == 0
    assert "  alpha_a = [1, 1]" in out
    rc, _, err = run(capsys, "compute", path, "minimal-subhopf")
    assert rc == 2
    assert err == ("error: minimal-subhopf needs an R-matrix; "
                   "this source carries a braiding instead\n")


def test_compute_without_r_or_sigma_exits_two(capsys, tmp_path):
    obj = json.loads(document_text(preset_document("group:C2")))
    del obj["R"]
    del obj["sigma"]
    path = write_doc(tmp_path, obj)
    rc, _, err = run(capsys, "compute", path, "u")
    assert rc == 2
    assert "needs an R-matrix or a braiding" in err


def test_compute_reports_the_first_failure_of_a_failing_r_or_sigma(capsys, tmp_path):
    obj = double_c2_document()
    obj["R"][0][0] = 2  # the first R coefficient doubled
    failing_r = write_doc(tmp_path, obj, "double.json")
    bumped = write_doc(tmp_path, bumped_sigma_document(), "bumped.json")
    for path, fail, names in (
            (failing_r, "qt.hexagon_comultiply_first_leg  :: at (d0, d0, d0)",
             ("u", "v", "uv", "a_alpha", "b_alpha")),
            (bumped, "cqt.multiplicative_first_argument  :: at (g, g, g)",
             ("u", "v", "uv", "alpha_a", "beta_a"))):
        for what, name in zip(("u", "v", "uv", "a_alpha", "b_alpha"), names):
            rc, out, _ = run(capsys, "compute", path, what)
            assert rc == 1, what
            assert out.split("checks:\n", 1)[1].splitlines()[0] == f"  [FAIL] {fail}"
            assert f"\n  {name} = " in out
            assert "result: FAIL (0 passed, 1 failed, 0 skipped)" in out


def test_compute_laurent_tables(capsys):
    rc, out, _ = run(capsys, "compute", "preset:laurent", "lambda")
    assert rc == 0
    assert "  lambda(g^-1x) = 1" in out
    assert "  lambda support = 1 of 22 window keys; omitted keys are 0" in out
    rc, out, _ = run(capsys, "compute", "preset:laurent", "a", "--window", "2")
    assert rc == 0
    assert "  a = g" in out
    assert "  a^-1 = g^-1" in out


def test_emit_document_round_trip(capsys, tmp_path):
    rc, out, _ = run(capsys, "compute", "preset:sweedler4", "a", "--emit-document")
    assert rc == 0
    parse_document(json.loads(out))
    path = tmp_path / "emitted.json"
    path.write_text(out, encoding="utf-8")
    rc, verified, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "result: PASS" in verified
    rc, again, _ = run(capsys, "compute", str(path), "a", "--emit-document")
    assert rc == 0
    assert again == out


def test_minimal_subhopf_compute_and_emit(capsys, tmp_path):
    rc, out, _ = run(capsys, "compute", "preset:sweedler4", "minimal-subhopf",
                     "--xi", "0")
    assert rc == 0
    assert "  dim(L) = 2" in out
    assert "  basis(L) = 1, g" in out
    assert "  a_L equals a_H = false" in out
    rc, out, _ = run(capsys, "compute", "preset:sweedler4", "minimal-subhopf",
                     "--xi", "0", "--emit-document")
    assert rc == 0
    path = tmp_path / "sub.json"
    path.write_text(out, encoding="utf-8")
    rc, verified, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "result: PASS" in verified


@pytest.mark.parametrize("token", CHECK_TOKENS)
def test_check_tokens_on_sweedler(capsys, token):
    rc, out, _ = run(capsys, "check", "preset:sweedler4", token)
    assert rc == 0
    assert "result: PASS" in out
    if token in ("main3", "cor3", "tangent"):
        assert "carrier = dual of sweedler4[xi=1]" in out


@pytest.mark.parametrize("token", ["s4", "main3", "cor3", "tangent"])
def test_check_tokens_on_laurent(capsys, token):
    rc, out, _ = run(capsys, "check", "preset:laurent", token)
    assert rc == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("token", ["main3", "cor3", "tangent"])
def test_braided_check_names_a_broken_braiding_axiom(capsys, tmp_path, token):
    """The first failing braiding axiom heads the theorem's checks; a
    braiding whose axioms pass adds no axiom line."""
    bumped = write_doc(tmp_path, bumped_sigma_document(), "bumped.json")
    rc, out, _ = run(capsys, "check", bumped, token)
    assert rc == 1
    first = out.split("checks:\n", 1)[1].splitlines()[0]
    assert first == "  [FAIL] cqt.multiplicative_first_argument  :: at (g, g, g)"
    rc, out, _ = run(capsys, "check", write_doc(tmp_path, laurent_quotient_document(4)), token)
    assert rc == 0
    assert "cqt.multiplicative" not in out


@pytest.mark.parametrize("argv", [
    ("compute", "lambda"),
    ("compute", "a", "--emit-document"),
    ("check", "s4"),
    ("check", "main3"),
])
def test_corrupted_tables_exit_one_before_compute_and_check(capsys, tmp_path, argv):
    path = write_doc(tmp_path, corrupted_c2_obj())
    rc, out, err = run(capsys, argv[0], path, *argv[1:])
    assert rc == 1
    assert out == ""
    assert err == "error: hopf.antipode_exists fails (bialgebra admits no antipode)\n"


@pytest.mark.parametrize("argv, code", [
    (("compute", "u"), 1),
    (("check", "uv"), 1),
    (("check", "main3"), 1),  # sweedler4 has no sigma, so main3 dualizes R
    (("compute", "a", "--emit-document"), 0),
])
def test_singular_r_fails_compute_and_check(capsys, tmp_path, argv, code):
    obj = json.loads(document_text(preset_document("sweedler4")))
    obj["R"] = [[0, 0, 0]]
    path = write_doc(tmp_path, obj)
    rc, out, err = run(capsys, argv[0], path, *argv[1:])
    assert rc == code
    if code:
        assert out == ""
        assert err == "error: tensor-square element has no right inverse\n"
    else:
        assert err == ""
        assert json.loads(out)["name"] == "sweedler4[xi=1]"


def test_singular_r_is_built_only_for_targets_that_read_it(capsys, tmp_path):
    """kC2 with R = 0 and its all-ones braiding: targets that never read R
    exit 0, and a target answered from R fails on its inverse."""
    obj = json.loads(document_text(preset_document("group:C2")))
    obj["R"] = [[0, 0, 0]]
    path = write_doc(tmp_path, obj)
    for argv in (("compute", "lambda"), ("compute", "alpha"), ("check", "s4"),
                 ("check", "main3")):
        rc, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (rc, err) == (0, ""), argv
        assert "result: PASS" in out
    rc, out, err = run(capsys, "compute", path, "u")
    assert (rc, out) == (1, "")
    assert err == "error: tensor-square element has no right inverse\n"


def test_zero_r_document_round_trips(capsys, tmp_path):
    """An R whose entries sum to zero is emitted as one explicit zero entry,
    so the emitted document parses and every command exits on it as on its
    input."""
    obj = json.loads(document_text(preset_document("sweedler4")))
    obj["R"] = [[0, 0, 0]]
    path = write_doc(tmp_path, obj)
    rc, out, err = run(capsys, "compute", path, "a", "--emit-document")
    assert (rc, err) == (0, "")
    emitted = json.loads(out)
    assert emitted["R"] == [[0, 0, 0]]
    assert parse_document(emitted).r_entries == parse_document(obj).r_entries
    again = write_doc(tmp_path, emitted, "emitted.json")
    for argv in (("compute", "lambda"), ("check", "s4"), ("check", "main3"),
                 ("compute", "a", "--emit-document")):
        assert run(capsys, argv[0], again, *argv[1:]) == run(capsys, argv[0], path, *argv[1:])


@pytest.mark.parametrize("token, code, message", [
    ("main3", 2, "error: check main3 needs a braiding or an R-matrix\n"),
    ("uv", 2, "error: check uv needs an R-matrix\n"),
    ("s4", 0, ""),
])
def test_check_without_r_or_sigma(capsys, tmp_path, token, code, message):
    obj = json.loads(document_text(preset_document("group:C2")))
    del obj["R"]
    del obj["sigma"]
    path = write_doc(tmp_path, obj)
    rc, _, err = run(capsys, "check", path, token)
    assert rc == code
    assert err == message


@pytest.mark.parametrize("key, message", [
    ("characters", "error: characters: 'bad' is not an algebra character\n"),
    ("grouplikes", "error: grouplikes: 'bad' is not grouplike\n"),
])
@pytest.mark.parametrize("argv", [
    ("verify",),
    ("compute", "lambda"),
    ("compute", "a", "--emit-document"),
    ("check", "s4"),
    ("check", "main3"),
])
def test_invalid_named_vectors_exit_two_on_every_command(capsys, tmp_path, key, message,
                                                        argv):
    obj = json.loads(document_text(preset_document("group:C2")))
    obj[key] = {"bad": [1, 2]}
    path = write_doc(tmp_path, obj)
    rc, out, err = run(capsys, argv[0], path, *argv[1:])
    assert rc == 2
    assert out == ""
    assert err == message


def test_laurent_and_its_quotient_answer_every_request_alike(capsys, tmp_path):
    """The Laurent family and H_4, both carrying a braiding and no R, give
    the same exit code and stderr for every compute target and check token."""
    h4 = write_doc(tmp_path, laurent_quotient_document(4))
    requests = [("compute", what) for what in COMPUTE_TARGETS]
    requests += [("check", token) for token in CHECK_TOKENS]
    for command, what in requests:
        rc, _, err = run(capsys, command, "preset:laurent", what, "--window", "2")
        assert run(capsys, command, h4, what)[::2] == (rc, err), (command, what)


def test_check_on_the_dual_solves_integral_data_once(capsys, monkeypatch):
    # sweedler4 has R and no sigma, so main3 runs on the dual carrier only
    seen = []
    real = cofrobenius.cofrobenius_data

    def spy(algebra):
        seen.append(algebra.name)
        return real(algebra)

    for name, module in list(sys.modules.items()):
        if name.startswith("hopfcheck") and getattr(module, "cofrobenius_data", None) is real:
            monkeypatch.setattr(module, "cofrobenius_data", spy)
    rc, out, _ = run(capsys, "check", "preset:sweedler4", "main3")
    assert rc == 0
    assert "carrier = dual of sweedler4[xi=1]" in out
    assert seen == ["sweedler4[xi=1]^*"]


@pytest.mark.parametrize("argv", [
    ["verify", "preset:group:C4"], ["verify", "preset:sweedler4"], ["verify", "D(kC4)"],
    *(["check", "preset:sweedler4", token] for token in ("main3", "cor3", "tangent")),
    ["compute", "preset:sweedler4", "u"]])
def test_no_hopf_battery_runs_on_a_dual(capsys, tmp_path, monkeypatch, argv):
    # the dual's lines restate the primal battery under the transpose
    # (cli._dual_chain), and dualize_qt hands the dual its S proof
    labels = []
    real = hopf.hopf_axiom_checks
    monkeypatch.setattr(hopf, "hopf_axiom_checks",
                        lambda ops: labels.extend(map(ops.label, ops.keys)) or real(ops))
    if argv[1] == "D(kC4)":
        argv = [argv[0], write_doc(tmp_path, double_c4_permuted_document())]
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0 and labels
    assert not [label for label in labels if label.endswith("*")]
    if argv[0] == "verify":
        assert '"dual.hopf.antipode_invertible"' in out


def test_check_on_the_dual_runs_associativity_once(capsys, monkeypatch):
    # sweedler4's verified battery proves its S; the dual inherits a proof,
    # so main3's braiding battery neither derives S nor re-runs associativity
    calls = {"generators": 0, "associativity_rows": 0}
    for name in calls:
        real = getattr(lincomb, name)
        monkeypatch.setattr(lincomb, name, lambda ops, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(ops))
    assert run(capsys, "check", "preset:sweedler4", "main3")[0] == 0
    assert calls == {"generators": 2, "associativity_rows": 1}
