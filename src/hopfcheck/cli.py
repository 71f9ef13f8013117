"""Command-line front end.

    hopf verify  SOURCE            run every identity check the source supports
    hopf compute SOURCE WHAT       print one derived quantity
    hopf check   SOURCE THEOREM    run a single theorem suite

A source is a preset (preset:group:C2, preset:group:C4, preset:sweedler4,
preset:laurent) or a path to a JSON definition document.  verify runs one
driver, run_verify, on every carrier; see Source for what a carrier hands it.

Reports render as text by default and as canonical JSON with --json;
without --timestamps the output of a fixed command line is byte identical
across runs.

Exit codes: 0 every non-skipped check passed, 1 at least one check failed
or a construction broke down, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from typing import Callable

from . import laurent
from .cofrobenius import (
    CONVENTIONS,
    Carrier,
    CoFrobeniusData,
    PreconditionError,
    check_s2_inner_witness,
    cofrobenius_checks,
    cofrobenius_data,
    radford_s4_checks,
    twist_round_trip,
)
from .coquasitriangular import (
    CQT_CONVENTIONS,
    Braiding,
    braided_chain,
    braided_functionals,
    braided_modular_corollary_checks,
    braiding_from_matrix,
    dualize_qt,
    modular_characters,
    modular_convolution_checks,
)
from .document import (
    AlgebraDocument,
    DocumentError,
    build_algebra,
    document_characters,
    document_from_algebra,
    document_grouplikes,
    document_text,
    load_document,
)
from .hopf import AxiomError, FinHopfAlgebra, NotInvertibleError, verify_hopf
from .lincomb import lc_canon, lc_format
from .presets import preset_document
from .quasitriangular import (
    QT_CONVENTIONS,
    QTData,
    RMatrix,
    character_maps_checks,
    check_antipode_u_biconditional,
    check_drinfeld_modular_product,
    check_modular_grouplikes_equal,
    conjugation_witnesses,
    drinfeld_elements,
    flip_inverse,
    grouplike_from_character,
    minimal_subhopf,
    verify_delta_u,
    verify_qt,
)
from .report import CheckResult, Report, failed
from .scalars import QQ, PrimeField, ScalarError

COMPUTE_TARGETS = ("lambda", "a", "alpha", "chi", "u", "v", "uv",
                   "a_alpha", "b_alpha", "minimal-subhopf")
CHECK_TOKENS = ("s4", "uv", "main3", "factunim", "cor25", "cor3",
                "tangent", "minimal")
QT_TOKENS = ("uv", "factunim", "cor25", "minimal")  # need an R-matrix
DEFAULT_WINDOW = 5


class UsageError(ValueError):
    """Bad flags or a request the source cannot satisfy."""


@dataclass
class Job:
    kind: str  # "findim" or "laurent"
    label: str
    doc: AlgebraDocument | None
    window: int


def resolve_source(args) -> Job:
    src = args.source
    xi = None
    if args.xi is not None:
        try:
            xi = Fraction(args.xi)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--xi: not a rational: {args.xi!r}")
    field = PrimeField(args.field) if args.field is not None else None

    if src.startswith("preset:"):
        kind = src[len("preset:"):]
        if kind == "laurent":
            if xi is not None:
                raise UsageError("--xi applies only to preset:sweedler4")
            if field is not None:
                raise UsageError("--field applies only to the finite presets")
            window = DEFAULT_WINDOW if args.window is None else args.window
            if window < 2:
                raise UsageError("--window must be at least 2")
            return Job("laurent", f"laurent[window={window}]", None, window)
        if args.window is not None:
            raise UsageError("--window applies only to preset:laurent")
        if xi is not None and kind != "sweedler4":
            raise UsageError("--xi applies only to preset:sweedler4")
        doc = preset_document(kind, xi=xi, field=field)
        return Job("findim", doc.name, doc, 0)

    if xi is not None or args.window is not None or field is not None:
        raise UsageError("--xi, --window and --field apply to presets only")
    doc = load_document(src)
    return Job("findim", doc.name, doc, 0)


# ---------------------------------------------------------------------------
# verify: one driver for every carrier


@dataclass
class Source:
    """What a carrier hands the verify driver once its structure battery
    passes: its integral data, whose tables and matrices are None on the
    infinite carrier (so its rank and Nakayama-invertibility lines SKIP);
    its computed lines; r and braiding, None or building the R-matrix and
    (braiding, named grouplikes, braided functionals if already computed);
    closing, giving the checks and lines after the braided chain; and the
    named characters the R-matrix chains read."""

    data: CoFrobeniusData
    lines: list[tuple[str, str]]
    r: Callable[[], RMatrix] | None
    braiding: Callable[[], tuple[Braiding, dict, tuple | None]] | None
    closing: Callable[[Carrier, Braiding, dict], tuple[list[CheckResult], list]]
    characters: dict


def _add(report: Report, checks, lines) -> None:
    report.extend(checks)
    for name, value in lines:
        report.add_computed(name, value)


def run_verify(report: Report, structure: list[CheckResult],
               source: Callable[[], Source]) -> None:
    """The verify pipeline of every carrier: the structure battery; once it
    passes, the integral battery, the R-matrix chain, the braided chain and
    the source's closing block, then this pipeline on the dual of the
    R-matrix.  A build that raises becomes one failed check."""
    report.extend(structure)
    if not all(x.ok for x in structure):
        return
    try:
        src = source()
    except (AxiomError, NotInvertibleError) as exc:
        report.add(failed("integral.data", str(exc)))
        return
    data = src.data
    c = data.carrier
    _add(report, cofrobenius_checks(c, data.pairing, data.chi), src.lines)

    r = qt = None
    if src.r is not None:
        report.conventions.extend(QT_CONVENTIONS)
        try:
            r = src.r()
        except (AxiomError, NotInvertibleError) as exc:
            report.add(failed("qt.r_invertible", str(exc)))
    if r is not None:
        qt = _qt_chain(data, r, src.characters, report)

    if src.braiding is not None or r is not None:
        report.conventions.extend(CQT_CONVENTIONS)
    if src.braiding is not None:
        try:
            br, grouplikes, functionals = src.braiding()
        except (AxiomError, NotInvertibleError) as exc:
            report.add(failed("cqt.braiding_invertible", str(exc)))
        else:
            fns, checks = braided_chain(c, br, grouplikes, functionals)
            report.extend(checks)
            if fns is not None:
                _add(report, *src.closing(c, br, fns))
    if r is not None:
        _dual_chain(data.algebra, r, qt, src.characters, report)


def _carrier_lines(algebra: FinHopfAlgebra, c: Carrier) -> list[tuple[str, str]]:
    chi = ", ".join(f"{algebra.labels[i]} -> {algebra.format_element(c.chi(i))}"
                    for i in range(algebra.dim))
    return [("lambda", algebra.format_functional(c.lam)),
            ("a", algebra.format_element(c.a)),
            ("alpha", algebra.format_functional(c.alpha)),
            ("chi", chi)]


def _functional_lines(algebra: FinHopfAlgebra, c: Carrier, br: Braiding, fns: dict):
    return [], [("u", algebra.format_functional(fns["u"])),
                ("v", algebra.format_functional(fns["v"]))]


def _document_source(job: Job):
    """A document's carrier: the Hopf battery on its tables, integral data
    by linear algebra, R and sigma as the document gives them."""
    doc = job.doc
    algebra = build_algebra(doc, check=False)

    def source() -> Source:
        characters = document_characters(doc, algebra)
        grouplikes = document_grouplikes(doc, algebra)
        r = braiding = None
        if doc.r_entries is not None:
            r = lambda: RMatrix.from_entries(algebra, doc.r_entries)
        if doc.sigma is not None:
            braiding = lambda: (braiding_from_matrix(algebra, doc.sigma)[0], grouplikes, None)
        data = cofrobenius_data(algebra)
        return Source(data, _carrier_lines(algebra, data.carrier), r, braiding,
                      partial(_functional_lines, algebra), characters)

    return (), verify_hopf(algebra), source


def _laurent_source(job: Job):
    """The Laurent family's carrier: its structure battery on the window,
    closed-form integral data and braiding, no R-matrix, and the closed
    forms checked after the braided chain."""
    ops = laurent.basis_ops(job.window)

    def source() -> Source:
        carrier = laurent.family_data(ops)
        return Source(CoFrobeniusData(None, None, None, carrier),
                      laurent.computed_lines(job.window, carrier), None,
                      lambda: (laurent.braiding(), {}, None),
                      lambda c, br, fns: (laurent.closed_form_checks(c, br, fns), []), {})

    return laurent.FAMILY_CONVENTIONS, laurent.structure_checks(ops), source


# each source kind gives its own conventions, its structure battery and a
# callable building the rest of its Source once that battery passes
VERIFY_SOURCES = {"findim": _document_source, "laurent": _laurent_source}


def _qt_chain(data: CoFrobeniusData, r: RMatrix, characters: dict,
              report: Report) -> QTData | None:
    """The R-matrix checks; returns the Drinfeld elements once the QT
    axioms pass."""
    algebra = data.algebra
    qt_checks = verify_qt(algebra, r)
    report.extend(qt_checks)
    if not all(c.ok for c in qt_checks):
        return None
    qt, dr_checks = drinfeld_elements(algebra, r)
    report.extend(dr_checks)
    report.extend(verify_delta_u(algebra, r, qt))
    report.extend(check_modular_grouplikes_equal(algebra, data, r))
    report.extend(check_drinfeld_modular_product(algebra, data, r, qt))
    report.extend(check_antipode_u_biconditional(algebra, data, r, qt))
    report.extend(check_s2_inner_witness(algebra, data, qt.u))

    c = data.carrier
    chars = {"eps": c.ops.eps, "alpha": c.alpha, "alpha_inv": c.alpha_inv, **characters}
    report.extend(character_maps_checks(algebra, r, chars))
    for name in sorted(chars):
        report.extend(conjugation_witnesses(algebra, r, chars[name], name=name)[1])
    report.extend(flip_inverse(algebra, r)[1])

    try:
        sub = minimal_subhopf(algebra, r, data)
        _add(report, sub.checks, [(f"minimal.{n}", v) for n, v in sub.computed])
    except (AxiomError, NotInvertibleError) as exc:
        report.add(failed("subhopf.construction", str(exc)))

    a_alpha, b_alpha = grouplike_from_character(algebra, r, c.alpha)
    report.add_computed("u", algebra.format_element(qt.u))
    report.add_computed("v", algebra.format_element(qt.v))
    report.add_computed("uv", algebra.format_element(c.ops.mul_lc(qt.u, qt.v)))
    report.add_computed("a_alpha", algebra.format_element(a_alpha))
    report.add_computed("b_alpha", algebra.format_element(b_alpha))
    return qt


def _dual_chain(algebra: FinHopfAlgebra, r: RMatrix, qt: QTData | None,
                characters: dict, report: Report) -> None:
    """The dual with sigma(f, g) = (f x g)(R): the bridge checks, then the
    verify pipeline on the dual, its names prefixed with "dual."."""
    try:
        if qt is None:  # the QT axioms failed before the chain reached u and v
            qt, _ = drinfeld_elements(algebra, r)
        dual, br, functionals, bridge = dualize_qt(algebra, r, qt)
        dual_data = cofrobenius_data(dual)
    except (AxiomError, NotInvertibleError) as exc:
        report.add(failed("dual.construction", str(exc)))
        return
    report.extend(bridge)
    # characters of the algebra are grouplikes of its dual
    glikes = {name: lc_canon({k: f(k) for k in range(dual.dim)})
              for name, f in characters.items()}
    source = Source(dual_data, [], None, lambda: (br, glikes, functionals),
                    partial(_functional_lines, dual), {})
    sub = Report(title="dual")
    run_verify(sub, verify_hopf(dual), lambda: source)
    _add(report, [CheckResult("dual." + x.name, x.status, x.witness) for x in sub.checks],
         [("dual." + name, value) for name, value in sub.computed])


def cmd_verify(job: Job, args) -> int:
    conventions, structure, source = VERIFY_SOURCES[job.kind](job)
    report = Report(title=f"verify {job.label}", conventions=[*CONVENTIONS, *conventions])
    run_verify(report, structure, source)
    return _finish(report, args)


# ---------------------------------------------------------------------------
# compute


def _laurent_table(report: Report, ops, name: str, fn) -> None:
    nonzero = [(k, fn(k)) for k in ops.keys]
    nonzero = [(k, v) for k, v in nonzero if v]
    for k, v in nonzero:
        report.add_computed(f"{name}({ops.label(k)})", QQ.format(v))
    report.add_computed(
        f"{name} support",
        f"{len(nonzero)} of {len(ops.keys)} window keys; omitted keys are 0")


def _laurent_lc(ops, lc) -> str:
    return lc_format(lc, ops.label, QQ.format)


def cmd_compute_laurent(what: str, window: int, report: Report) -> None:
    if what == "minimal-subhopf":
        raise UsageError("minimal-subhopf needs a finite-dimensional R-matrix source")
    c = laurent.family_data(laurent.basis_ops(window))
    ops = c.ops
    if what == "lambda":
        _laurent_table(report, ops, "lambda", c.lam)
    elif what == "a":
        report.add_computed("a", _laurent_lc(ops, c.a))
        report.add_computed("a^-1", _laurent_lc(ops, c.a_inv))
    elif what == "chi":
        for k in ops.keys:
            report.add_computed(f"chi({ops.label(k)})", _laurent_lc(ops, c.chi(k)))
    elif what == "alpha":
        _laurent_table(report, ops, "alpha", c.alpha)
    elif what in ("u", "v", "uv"):
        fns, _ = braided_functionals(ops, laurent.braiding())
        fn = fns[what] if what in ("u", "v") else ops.convolve(fns["u"], fns["v"])
        _laurent_table(report, ops, what, fn)
    else:  # a_alpha / b_alpha
        alpha_a, beta_a = modular_characters(ops, laurent.braiding(), c.a, c.a_inv)
        if what == "a_alpha":
            _laurent_table(report, ops, "alpha_a", alpha_a)
        else:
            _laurent_table(report, ops, "beta_a", beta_a)


def cmd_compute(job: Job, args) -> int:
    what = args.what
    report = Report(title=f"compute {job.label} {what}")
    if job.kind == "laurent":
        if args.emit_document:
            raise UsageError("--emit-document needs a finite-dimensional source")
        cmd_compute_laurent(what, job.window, report)
        return _finish(report, args)

    doc = job.doc
    algebra = build_algebra(doc, check=True)
    if args.emit_document and what != "minimal-subhopf":
        sys.stdout.write(document_text(doc))
        return 0
    data = cofrobenius_data(algebra)
    c = data.carrier
    ops = c.ops
    r = RMatrix.from_entries(algebra, doc.r_entries) if doc.r_entries is not None else None

    if what == "lambda":
        report.add_computed("lambda", algebra.format_functional(c.lam))
    elif what == "a":
        report.add_computed("a", algebra.format_element(c.a))
        report.add_computed("a^-1", algebra.format_element(c.a_inv))
    elif what == "alpha":
        report.add_computed("alpha", algebra.format_functional(c.alpha))
        report.add_computed("alpha^-1", algebra.format_functional(c.alpha_inv))
    elif what == "chi":
        for i in range(algebra.dim):
            report.add_computed(f"chi({algebra.labels[i]})",
                                algebra.format_element(c.chi(i)))
    elif what in ("u", "v", "uv"):
        if r is not None:
            qt, _ = drinfeld_elements(algebra, r)
            val = {"u": qt.u, "v": qt.v}.get(what)
            if val is None:
                val = ops.mul_lc(qt.u, qt.v)
            report.add_computed(what, algebra.format_element(val))
        elif doc.sigma is not None:
            br, _ = braiding_from_matrix(algebra, doc.sigma)
            fns, _ = braided_functionals(ops, br)
            fn = fns[what] if what in ("u", "v") else ops.convolve(fns["u"], fns["v"])
            report.add_computed(what, algebra.format_functional(fn))
        else:
            raise UsageError(f"{what} needs an R-matrix or a braiding")
    elif what in ("a_alpha", "b_alpha"):
        if r is None:
            raise UsageError(f"{what} needs an R-matrix")
        a_eta, b_eta = grouplike_from_character(algebra, r, c.alpha)
        chosen = a_eta if what == "a_alpha" else b_eta
        report.add_computed(what, algebra.format_element(chosen))
    else:  # minimal-subhopf
        if r is None:
            raise UsageError("minimal-subhopf needs an R-matrix")
        sub = minimal_subhopf(algebra, r, data)
        if args.emit_document:
            subdoc = document_from_algebra(sub.algebra, r_terms=sub.r_sub.tensor)
            sys.stdout.write(document_text(subdoc))
            return 0
        _add(report, sub.checks, sub.computed)
    return _finish(report, args)


# ---------------------------------------------------------------------------
# check


def _finite_source(job: Job):
    doc = job.doc
    algebra = build_algebra(doc, check=True)
    data = cofrobenius_data(algebra)
    r = RMatrix.from_entries(algebra, doc.r_entries) if doc.r_entries is not None else None
    return doc, algebra, data, r


def _theorem_carrier(job: Job, token: str,
                     report: Report) -> tuple[Carrier, Braiding | None, tuple | None]:
    """The carrier and braiding a theorem token runs on, after the source's
    own conventions and computed lines; s4 needs no braiding.  The third
    item holds the braided functionals with their checks when building the
    carrier computed them already."""
    if job.kind == "laurent":
        report.conventions.extend(laurent.FAMILY_CONVENTIONS)
        if token != "s4":
            report.conventions.extend(CQT_CONVENTIONS)
        return (laurent.family_data(laurent.basis_ops(job.window)), laurent.braiding(),
                None)
    doc, algebra, data, r = _finite_source(job)
    c = data.carrier
    if token == "s4":
        report.add_computed("a", algebra.format_element(c.a))
        report.add_computed("alpha", algebra.format_functional(c.alpha))
        return c, None, None
    report.conventions.extend(CQT_CONVENTIONS)
    if doc.sigma is not None:
        return c, braiding_from_matrix(algebra, doc.sigma)[0], None
    if r is not None:
        qt, _ = drinfeld_elements(algebra, r)
        dual, br, functionals, bridge = dualize_qt(algebra, r, qt)
        report.extend(bridge)
        report.add_computed("carrier", f"dual of {doc.name}")
        return cofrobenius_data(dual).carrier, br, functionals
    raise UsageError(f"check {token} needs a braiding or an R-matrix")


def _require_qt(algebra: FinHopfAlgebra, r: RMatrix | None, token: str,
                report: Report) -> bool:
    if r is None:
        raise UsageError(f"check {token} needs an R-matrix")
    bad = next((c for c in verify_qt(algebra, r) if not c.ok), None)
    if bad is not None:
        report.add(bad)
        return False
    return True


def _check_qt(job: Job, token: str, report: Report) -> None:
    if job.kind == "laurent":
        raise UsageError(
            f"check {token} needs an R-matrix; the laurent family carries a braiding instead")
    _, algebra, data, r = _finite_source(job)
    report.conventions.extend(QT_CONVENTIONS)
    if not _require_qt(algebra, r, token, report):
        return
    if token == "factunim":
        report.extend(check_modular_grouplikes_equal(algebra, data, r))
    elif token == "minimal":
        sub = minimal_subhopf(algebra, r, data)
        _add(report, sub.checks, sub.computed)
    else:  # uv and cor25 start from the Drinfeld elements
        qt, dr_checks = drinfeld_elements(algebra, r)
        report.extend(dr_checks)
        if token == "cor25":
            report.extend(check_antipode_u_biconditional(algebra, data, r, qt))
            return
        report.extend(check_drinfeld_modular_product(algebra, data, r, qt))
        report.add_computed("u", algebra.format_element(qt.u))
        report.add_computed("v", algebra.format_element(qt.v))
        report.add_computed("uv", algebra.format_element(
            data.carrier.ops.mul_lc(qt.u, qt.v)))


def cmd_check(job: Job, args) -> int:
    token = args.theorem
    report = Report(title=f"check {job.label} {token}",
                    conventions=list(CONVENTIONS))
    if token in QT_TOKENS:
        _check_qt(job, token, report)
        return _finish(report, args)

    c, br, functionals = _theorem_carrier(job, token, report)
    ops = c.ops
    if token == "s4":
        report.extend(radford_s4_checks(ops, c.a, c.a_inv, c.alpha, c.alpha_inv))
        return _finish(report, args)
    fns, fn_checks = functionals or braided_functionals(ops, br)
    report.extend(fn_checks)
    if token == "main3":
        report.extend(modular_convolution_checks(ops, br, fns, c.alpha, c.a, c.a_inv))
    elif token == "cor3":
        report.extend(braided_modular_corollary_checks(ops, br, fns, c.alpha,
                                                       c.alpha_inv, c.a, c.a_inv))
    else:  # tangent
        report.extend(twist_round_trip(c, fns["u"], fns["u_inv"]))
    return _finish(report, args)


# ---------------------------------------------------------------------------
# plumbing


def _finish(report: Report, args) -> int:
    timestamp = None
    if args.timestamps:
        timestamp = datetime.now(timezone.utc).isoformat()
    if args.json:
        text = report.render_json(timestamp)
    else:
        text = report.render_text(timestamp)
    sys.stdout.write(text + "\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopf",
        description="Exact verification of Hopf algebra identities from "
                    "structure-constant documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("--xi", metavar="Q",
                       help="parameter of preset:sweedler4, a rational (default 1)")
        p.add_argument("--window", type=int, metavar="N",
                       help="grid bound for preset:laurent (default 5)")
        p.add_argument("--field", type=int, metavar="P",
                       help="run a finite preset over the prime field F_P")
        p.add_argument("--json", action="store_true",
                       help="render the report as canonical JSON")
        p.add_argument("--timestamps", action="store_true",
                       help="stamp the report with the generation time")

    pv = sub.add_parser("verify", help="run every applicable identity check")
    pv.add_argument("source", help="preset:NAME or a path to a JSON document")
    common(pv)

    pc = sub.add_parser("compute", help="print one derived quantity")
    pc.add_argument("source", help="preset:NAME or a path to a JSON document")
    pc.add_argument("what", choices=COMPUTE_TARGETS)
    common(pc)
    pc.add_argument("--emit-document", action="store_true",
                    help="print the algebra as a JSON document instead of a report")

    pk = sub.add_parser("check", help="run a single theorem suite")
    pk.add_argument("source", help="preset:NAME or a path to a JSON document")
    pk.add_argument("theorem", choices=CHECK_TOKENS)
    common(pk)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        job = resolve_source(args)
        if args.command == "verify":
            return cmd_verify(job, args)
        if args.command == "compute":
            return cmd_compute(job, args)
        return cmd_check(job, args)
    except (UsageError, DocumentError, ScalarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AxiomError, NotInvertibleError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
