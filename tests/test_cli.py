import json

import pytest

from hopfcheck import cofrobenius
from hopfcheck.cli import CHECK_TOKENS, main
from hopfcheck.coquasitriangular import braided_functionals, dualize_qt
from hopfcheck.document import build_algebra, document_text, load_document, parse_document
from hopfcheck.presets import preset_document
from hopfcheck.quasitriangular import RMatrix


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
    dual, br, _ = dualize_qt(algebra, RMatrix.from_entries(algebra, doc.r_entries))
    ops = dual.basis_ops()
    fns, _ = braided_functionals(ops, br)
    assert any(fns["u"](k) != fns["u_inv"](k) for k in ops.keys)
    assert len(seen) == 1
    keys, omega = seen[0]
    assert keys == ops.keys
    assert [omega(k) for k in keys] == [fns["u"](k) for k in keys]


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
    rc, _, err = run(capsys, "compute", path, "a_alpha")
    assert rc == 2
    assert "needs an R-matrix" in err


def test_compute_without_r_or_sigma_exits_two(capsys, tmp_path):
    obj = json.loads(document_text(preset_document("group:C2")))
    del obj["R"]
    del obj["sigma"]
    path = write_doc(tmp_path, obj)
    rc, _, err = run(capsys, "compute", path, "u")
    assert rc == 2
    assert "needs an R-matrix or a braiding" in err


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
