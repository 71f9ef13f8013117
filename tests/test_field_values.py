"""Over F_p every value the program stores is an int in range(p).

F_p values are plain ints, reduced through the field's reduce, and a raw
int looks like a reduced one: a sum that escapes its reduction would go on
silently, where a dedicated element type would have raised.  This guard
runs every F_p source the tests build through `verify --json`, with the
LC- and scalar-returning BasisOps methods, the tables of the grid kernels
(the one KernelTables of each BasisOps), the sigma tables of the braiding
batteries and the solutions of solve_linear watched, and finds each value
watched there an int in range(p).  A document whose comultiplication
holds p + 1, a value that was never reduced, is caught.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from hopfcheck import coquasitriangular, hopf, linalg
from hopfcheck.document import build_algebra, parse_document
from hopfcheck.hopf import verify_hopf
from hopfcheck.lincomb import BasisOps, KernelTables, PairTable
from hopfcheck.scalars import PrimeField
from test_golden import laurent_quotient_document, run

SCALE = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"

# BasisOps methods by what they return
LC_METHODS = ("single", "mul_lc", "mul_many", "map_lc", "s_lc", "s_inv_lc", "s_power",
              "delta_lc", "hit_left", "hit_right", "coinner", "scale", "outer")
SCALAR_METHODS = ("eval_fn", "eps_lc")
FUNCTIONAL_METHODS = ("convolve", "compose_s_power")


class Watch:
    """The values seen, over F_p, and the ones outside range(p)."""

    def __init__(self) -> None:
        self.seen, self.bad = 0, []

    def scalar(self, field, x, where: str) -> None:
        if isinstance(field, PrimeField):
            self.seen += 1
            if not (type(x) is int and 0 <= x < field.p):
                self.bad.append((where, x))

    def values(self, field, xs, where: str) -> None:
        for x in xs:
            self.scalar(field, x, where)

    def tables(self, field, tables: KernelTables) -> None:
        """Every value filled into the kernel tables of one BasisOps."""
        items = lambda table: (c for row in table.values() for _, c in row)
        self.values(field, (c for row in tables.prod.values() for items_ in row.values()
                            for _, c in items_), "KernelTables.prod")
        self.values(field, (c for terms in tables.delta.values() for c, _, _ in terms),
                    "KernelTables.delta")
        self.values(field, tables.eps.values(), "KernelTables.eps")
        self.values(field, items(tables.s), "KernelTables.s")
        self.values(field, items(tables.s_inv), "KernelTables.s_inv")
        self.values(field, (c for _, c in tables.unit), "KernelTables.unit")

    def pairs(self, field, table: PairTable) -> None:
        """Every value filled into one sigma or sigma^-1 table."""
        self.values(field, (v for row in table.values() for v in row.values()), "sigma tables")


def watch(monkeypatch) -> tuple[Watch, list, list]:
    """Wrap what the guard watches; the KernelTables built are returned
    with their fields, and the PairTables the braiding batteries build for
    sigma and sigma^-1, to be read once they are filled."""
    w, built, sigmas = Watch(), [], []

    def lc_method(name, real):
        def method(self, *args):
            out = real(self, *args)
            w.values(self.field, out.values(), name)
            return out
        return method

    def scalar_method(name, real):
        def method(self, *args):
            out = real(self, *args)
            w.scalar(self.field, out, name)
            return out
        return method

    def functional_method(name, real):
        def method(self, *args):
            fn = real(self, *args)

            def watched(key):
                out = fn(key)
                w.scalar(self.field, out, name)
                return out
            return watched
        return method

    for names, wrap in ((LC_METHODS, lc_method), (SCALAR_METHODS, scalar_method),
                        (FUNCTIONAL_METHODS, functional_method)):
        for name in names:
            monkeypatch.setattr(BasisOps, name, wrap(name, getattr(BasisOps, name)))
    real_delta_n = BasisOps.delta_n

    def delta_n(self, key, legs):
        out = real_delta_n(self, key, legs)
        w.values(self.field, (c for c, _ in out), "delta_n")
        return out

    monkeypatch.setattr(BasisOps, "delta_n", delta_n)

    real_init = KernelTables.__init__

    def init(self, ops):
        real_init(self, ops)
        built.append((ops.field, self))

    monkeypatch.setattr(KernelTables, "__init__", init)

    class SigmaTable(PairTable):
        def __init__(self, fn) -> None:
            super().__init__(fn)
            sigmas.append(self)

    monkeypatch.setattr(coquasitriangular, "PairTable", SigmaTable)

    real_solve = linalg.solve_linear

    def solve_linear(a, b):
        sol = real_solve(a, b)
        if sol is not None:
            w.values(a.field, sol.particular, "solve_linear")
            for vec in sol.homogeneous:
                w.values(a.field, vec, "solve_linear")
        return sol

    for module in (linalg, hopf):
        monkeypatch.setattr(module, "solve_linear", solve_linear)
    return w, built, sigmas


def scale_document(name: str) -> dict:
    spec = importlib.util.spec_from_file_location("scale_script", SCALE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.INPUTS)[name]()


DOCUMENTS = {
    "h4_f10007": lambda: laurent_quotient_document(4),
    "h10_f10007": lambda: laurent_quotient_document(10),
    "H_16/F_10007": lambda: scale_document("H_16/F_10007"),
}


@pytest.mark.parametrize("name", [*DOCUMENTS, "sweedler4_f7"])
def test_every_value_over_fp_is_reduced(name, tmp_path, monkeypatch):
    source = ["preset:sweedler4", "--field", "7"]
    if name in DOCUMENTS:
        source = [str(tmp_path / "source.json")]
        Path(source[0]).write_text(json.dumps(DOCUMENTS[name]()), encoding="utf-8")
    w, built, sigmas = watch(monkeypatch)
    code, _, _ = run(["verify", *source, "--json"])
    assert code == 0
    for field, tables in built:
        w.tables(field, tables)
    (field,) = {field for field, _ in built}
    for table in sigmas:
        w.pairs(field, table)
    assert w.bad == []
    # the guard is not vacuous: the kernel tables, the sigma tables, the
    # solves and the checks were all watched
    assert built and sigmas and w.seen > 1000, (len(built), len(sigmas), w.seen)


def test_a_value_never_reduced_is_caught(monkeypatch):
    """p + 1 in place of a coefficient 1 of H_4's comultiplication, after
    the document was parsed (parsing reduces it), is an unreduced value in
    the coproduct table the Hopf battery fills, and the guard names it."""
    doc = parse_document(laurent_quotient_document(4))
    p = doc.field.p
    at = next(pos for pos, entry in enumerate(doc.comult) if entry[3] == 1)
    comult = list(doc.comult)
    comult[at] = (*comult[at][:3], p + 1)
    algebra = build_algebra(dataclasses.replace(doc, comult=tuple(comult)))
    w, built, _ = watch(monkeypatch)
    verify_hopf(algebra)
    for field, tables in built:
        w.tables(field, tables)
    assert ("KernelTables.delta", p + 1) in w.bad
