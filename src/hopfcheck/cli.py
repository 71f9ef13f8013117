"""Command-line front end.

    hopf verify  SOURCE            run every identity check the source supports
    hopf compute SOURCE WHAT       print one derived quantity
    hopf check   SOURCE THEOREM    run a single theorem suite

A source is a preset (preset:group:C2, preset:group:C4, preset:sweedler4,
preset:laurent) or a path to a JSON definition document.  Every command
resolves it once, to a Resolved; verify runs one driver, run_verify, on
every carrier; see Source for what a carrier hands the commands.

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
    braided_modular_corollary_checks,
    braiding_axiom_checks,
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
from .hopf import AxiomError, NotInvertibleError, require_passing, verify_hopf
from .lincomb import BasisOps
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
from .scalars import PrimeField, ScalarError

COMPUTE_TARGETS = ("lambda", "a", "alpha", "chi", "u", "v", "uv",
                   "a_alpha", "b_alpha", "minimal-subhopf")
CHECK_TOKENS = ("s4", "uv", "main3", "factunim", "cor25", "cor3",
                "tangent", "minimal")
QT_TOKENS = ("uv", "factunim", "cor25", "minimal")  # need an R-matrix
DEFAULT_WINDOW = 5


class UsageError(ValueError):
    """Bad flags or a request the source cannot satisfy."""


@dataclass
class Source:
    """What a source hands every command once its structure battery passes:
    data, solving its Carrier; lines, its computed lines from the carrier;
    r and braiding, None or building the R-matrix and (braiding, named
    grouplikes), the Braiding being the one cache of sigma that every command
    reads; closing, giving the checks and lines after the braided chain; the
    named characters the R-matrix chains read; and how a named functional
    prints.  Every carrier prints an element the same way, by its ops.format."""

    data: Callable[[], Carrier]
    lines: Callable[[Carrier], list[tuple[str, str]]]
    r: Callable[[], RMatrix] | None
    braiding: Callable[[], tuple[Braiding, dict]] | None
    closing: Callable[[Carrier, Braiding, dict], tuple[list[CheckResult], list]]
    characters: dict
    functional_lines: Callable[[str, Callable], list[tuple[str, str]]]


@dataclass
class Resolved:
    """A source as every command receives it: its label, its own
    conventions, its structure battery, build() giving its Source once that
    battery passes, and the document a finite source was read from (None
    for the Laurent family)."""

    label: str
    conventions: tuple[str, ...]
    structure: list[CheckResult]
    build: Callable[[], Source]
    document: AlgebraDocument | None


def resolve_source(args) -> Resolved:
    src = args.source
    xi = None
    if args.xi is not None:
        try:
            xi = Fraction(args.xi)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--xi: not a rational: {args.xi!r}")
    field = PrimeField(args.field) if args.field is not None else None

    if src.startswith("preset:"):
        name = src[len("preset:"):]
        if name == "laurent":
            if xi is not None:
                raise UsageError("--xi applies only to preset:sweedler4")
            if field is not None:
                raise UsageError("--field applies only to the finite presets")
            window = DEFAULT_WINDOW if args.window is None else args.window
            if window < 2:
                raise UsageError("--window must be at least 2")
            return _laurent_source(window)
        if args.window is not None:
            raise UsageError("--window applies only to preset:laurent")
        if xi is not None and name != "sweedler4":
            raise UsageError("--xi applies only to preset:sweedler4")
        return _document_source(preset_document(name, xi=xi, field=field))

    if xi is not None or args.window is not None or field is not None:
        raise UsageError("--xi, --window and --field apply to presets only")
    return _document_source(load_document(src))


def _carrier_lines(c: Carrier) -> list[tuple[str, str]]:
    ops = c.ops
    chi = ", ".join(f"{ops.label(i)} -> {ops.format(c.chi(i))}" for i in ops.keys)
    return [("lambda", ops.format_values(c.lam)), ("a", ops.format(c.a)),
            ("alpha", ops.format_values(c.alpha)), ("chi", chi)]


def _table_source(ops: BasisOps, data, lines, r, braiding, characters: dict) -> Source:
    """A Source on structure-constant tables: functionals print as their
    values on the basis, and the braided chain closes with u and v."""

    def functional_lines(name: str, f) -> list[tuple[str, str]]:
        return [(name, ops.format_values(f))]

    return Source(data, lines, r, braiding,
                  lambda c, br, fns: ([], functional_lines("u", fns["u"])
                                      + functional_lines("v", fns["v"])),
                  characters, functional_lines)


def _document_source(doc: AlgebraDocument) -> Resolved:
    """A document's carrier: the Hopf battery on its tables, integral data
    by linear algebra, R and sigma as the document gives them."""
    algebra = build_algebra(doc)

    def build() -> Source:
        characters = document_characters(doc, algebra)
        grouplikes = document_grouplikes(doc, algebra)
        r = braiding = None
        if doc.r_entries is not None:
            r = lambda: RMatrix.from_entries(algebra, doc.r_entries)
        if doc.sigma is not None:
            braiding = lambda: (braiding_from_matrix(algebra, doc.sigma)[0], grouplikes)
        return _table_source(algebra.ops, lambda: cofrobenius_data(algebra), _carrier_lines,
                             r, braiding, characters)

    return Resolved(doc.name, (), verify_hopf(algebra), build, doc)


def _laurent_source(window: int) -> Resolved:
    """The Laurent family's carrier: its structure battery on the window,
    closed-form integral data and braiding, no R-matrix, the closed forms
    checked after the braided chain, and functionals printed as tables over
    the window."""
    ops = laurent.basis_ops(window)

    def build() -> Source:
        return Source(partial(laurent.family_data, ops),
                      partial(laurent.computed_lines, window), None,
                      lambda: (laurent.braiding(ops), {}),
                      lambda c, br, fns: (laurent.closed_form_checks(c, br, fns), []), {},
                      partial(laurent.window_table, ops))

    return Resolved(f"laurent[window={window}]", laurent.FAMILY_CONVENTIONS,
                    laurent.structure_checks(ops), build, None)


# ---------------------------------------------------------------------------
# verify: one driver for every carrier


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
        c = src.data()
    except (AxiomError, NotInvertibleError) as exc:
        report.add(failed("integral.data", str(exc)))
        return
    _add(report, cofrobenius_checks(c), src.lines(c))

    r = qt = None
    if src.r is not None:
        report.conventions.extend(QT_CONVENTIONS)
        try:
            r = src.r()
        except (AxiomError, NotInvertibleError) as exc:
            report.add(failed("qt.r_invertible", str(exc)))
    if r is not None:
        qt = _qt_chain(c, r, src.characters, report)

    if src.braiding is not None or r is not None:
        report.conventions.extend(CQT_CONVENTIONS)
    if src.braiding is not None:
        try:
            br, grouplikes = src.braiding()
        except (AxiomError, NotInvertibleError) as exc:
            report.add(failed("cqt.braiding_invertible", str(exc)))
        else:
            fns, checks = braided_chain(c, br, grouplikes)
            report.extend(checks)
            if fns is not None:
                _add(report, *src.closing(c, br, fns))
    if r is not None:
        _dual_chain(r, qt, src.characters, structure, report)


def _qt_chain(c: Carrier, r: RMatrix, characters: dict, report: Report) -> QTData | None:
    """The R-matrix checks; returns the Drinfeld elements once the QT
    axioms pass."""
    qt_checks = verify_qt(r)
    report.extend(qt_checks)
    if not all(x.ok for x in qt_checks):
        return None
    qt, dr_checks = drinfeld_elements(r)
    report.extend(dr_checks)
    report.extend(verify_delta_u(r, qt))
    report.extend(check_modular_grouplikes_equal(c, r))
    report.extend(check_drinfeld_modular_product(c, r, qt))
    report.extend(check_antipode_u_biconditional(c, r, qt))
    report.extend(check_s2_inner_witness(r.algebra, c, qt.u, qt.u_inv))

    chars = {"eps": c.ops.eps, "alpha": c.alpha, "alpha_inv": c.alpha_inv, **characters}
    report.extend(character_maps_checks(r, chars))
    for name in sorted(chars):
        report.extend(conjugation_witnesses(r, chars[name], name=name)[1])
    report.extend(flip_inverse(r)[1])

    try:
        sub = minimal_subhopf(r, c)
        _add(report, sub.checks, [(f"minimal.{n}", v) for n, v in sub.computed])
    except (AxiomError, NotInvertibleError) as exc:
        report.add(failed("subhopf.construction", str(exc)))

    a_alpha, b_alpha = grouplike_from_character(r, c.alpha)
    _add(report, [], [*_drinfeld_lines(c.ops, qt), ("a_alpha", c.ops.format(a_alpha)),
                      ("b_alpha", c.ops.format(b_alpha))])
    return qt


def _drinfeld_lines(ops: BasisOps, qt: QTData) -> list[tuple[str, str]]:
    """The computed lines u, v and uv."""
    return [(name, ops.format(x))
            for name, x in (("u", qt.u), ("v", qt.v), ("uv", ops.mul_lc(qt.u, qt.v)))]


def _dual_source(r: RMatrix, qt: QTData | None,
                 characters: dict) -> tuple[list[CheckResult], Source]:
    """The bridge checks, and the dual with sigma(f, g) = (f x g)(R) as a
    Source.  The algebra's named characters become grouplikes of the dual."""
    if qt is None:  # the caller has not reached u and v
        qt, _ = drinfeld_elements(r)
    dual, br, bridge = dualize_qt(r, qt)
    dual_data = cofrobenius_data(dual)
    glikes = {name: {k: v for k in range(dual.dim) if (v := f(k))}
              for name, f in characters.items()}
    return bridge, _table_source(dual.ops, lambda: dual_data, lambda c: [], None,
                                 lambda: (br, glikes), {})


def _dual_chain(r: RMatrix, qt: QTData | None, characters: dict,
                structure: list[CheckResult], report: Report) -> None:
    """The bridge checks, then the verify pipeline on the dual, its names
    prefixed with "dual.".  Its structure battery is the primal's, which
    passed in full to get here: H* holds the transposes of H's tables, and
    the transpose maps each hopf.* law of H* onto one of H's, associativity
    <-> coassociativity, unit_laws <-> counit_laws, comultiplication_unital
    <-> counit_multiplicative, and the rest (Delta multiplicative,
    counit_unital, the antipode laws, S bijective, S invertible) each to
    itself, as S* = S^T.  So the dual's lines are the primal's PASS lines,
    with the same names in the same order, and none is evaluated again."""
    try:
        bridge, source = _dual_source(r, qt, characters)
    except (AxiomError, NotInvertibleError) as exc:
        report.add(failed("dual.construction", str(exc)))
        return
    report.extend(bridge)
    sub = Report(title="dual")
    run_verify(sub, structure, lambda: source)
    _add(report, [CheckResult("dual." + x.name, x.status, x.witness) for x in sub.checks],
         [("dual." + name, value) for name, value in sub.computed])


def cmd_verify(res: Resolved, args) -> int:
    report = Report(title=f"verify {res.label}", conventions=[*CONVENTIONS, *res.conventions])
    run_verify(report, res.structure, res.build)
    return _finish(report, args)


# ---------------------------------------------------------------------------
# compute and check: the structure battery must pass before the source is
# built.  Every target is answered by what the source has, never by which
# kind of carrier it is: the integral data always; u, v, uv, a_alpha and
# b_alpha from an R-matrix, else from a braiding; the minimal subHopf
# algebra and the QT tokens from an R-matrix only; main3, cor3 and tangent
# from a braiding, else from the dual of an R-matrix.  R is built only for
# a target that reads it.


def _r_matrix(src: Source, what: str) -> RMatrix:
    """The R-matrix of a source, for a target that only an R-matrix serves."""
    if src.r is None:
        raise UsageError(f"{what} needs an R-matrix" + (
            "" if src.braiding is None else "; this source carries a braiding instead"))
    return src.r()


def _first_failure(battery: list[CheckResult]) -> list[CheckResult]:
    """The first FAIL line of a battery, or none when every line passes."""
    return next(([x] for x in battery if not x.ok), [])


def cmd_compute(res: Resolved, args) -> int:
    what = args.what
    report = Report(title=f"compute {res.label} {what}")
    require_passing(res.structure)
    src = res.build()
    if args.emit_document:
        if res.document is None:
            raise UsageError("--emit-document needs a finite-dimensional source")
        if what != "minimal-subhopf":
            sys.stdout.write(document_text(res.document))
            return 0
    c = src.data()
    ops = c.ops
    element, functional = ops.format, src.functional_lines
    second = what == "b_alpha"

    if what == "lambda":
        lines = functional("lambda", c.lam)
    elif what == "a":
        lines = [("a", element(c.a)), ("a^-1", element(c.a_inv))]
    elif what == "alpha":
        lines = functional("alpha", c.alpha) + functional("alpha^-1", c.alpha_inv)
    elif what == "chi":
        lines = [(f"chi({ops.label(k)})", element(c.chi(k))) for k in ops.keys]
    elif what == "minimal-subhopf":
        r = _r_matrix(src, what)
        sub = minimal_subhopf(r, c)
        if args.emit_document:
            subdoc = document_from_algebra(sub.algebra, r_terms=sub.r_sub.tensor)
            sys.stdout.write(document_text(subdoc))
            return 0
        report.extend(sub.checks)
        lines = sub.computed
    elif src.r is not None:  # u, v, uv, a_alpha, b_alpha as elements
        r = src.r()
        report.extend(_first_failure(verify_qt(r)))
        if what in ("a_alpha", "b_alpha"):
            lines = [(what, element(grouplike_from_character(r, c.alpha)[second]))]
        else:
            lines = [x for x in _drinfeld_lines(ops, drinfeld_elements(r)[0]) if x[0] == what]
    elif src.braiding is not None:  # the same targets as functionals
        br = src.braiding()[0]
        report.extend(_first_failure(braiding_axiom_checks(ops, br)))
        if what in ("a_alpha", "b_alpha"):
            images = modular_characters(ops, br, c.a, c.a_inv)
            lines = functional(("alpha_a", "beta_a")[second], images[second])
        else:
            fns = br.functionals[0]
            lines = functional(what, fns[what] if what != "uv"
                               else ops.convolve(fns["u"], fns["v"]))
    else:
        raise UsageError(f"{what} needs an R-matrix or a braiding")
    _add(report, [], lines)
    return _finish(report, args)


def cmd_check(res: Resolved, args) -> int:
    token = args.theorem
    report = Report(title=f"check {res.label} {token}",
                    conventions=[*CONVENTIONS, *res.conventions])
    require_passing(res.structure)
    src = res.build()
    if token in QT_TOKENS:
        _check_qt(src, token, report)
    elif token == "s4":
        c = src.data()
        _add(report, [], [("a", c.ops.format(c.a)), *src.functional_lines("alpha", c.alpha)])
        report.extend(radford_s4_checks(c.ops, c.a, c.a_inv, c.alpha, c.alpha_inv))
    else:
        _check_braided(res.label, src, token, report)
    return _finish(report, args)


def _check_qt(src: Source, token: str, report: Report) -> None:
    c = src.data()
    r = _r_matrix(src, f"check {token}")
    report.conventions.extend(QT_CONVENTIONS)
    bad = _first_failure(verify_qt(r))
    report.extend(bad)
    if bad:
        return
    if token == "factunim":
        report.extend(check_modular_grouplikes_equal(c, r))
    elif token == "minimal":
        sub = minimal_subhopf(r, c)
        _add(report, sub.checks, sub.computed)
    else:  # uv and cor25 start from the Drinfeld elements
        qt, dr_checks = drinfeld_elements(r)
        report.extend(dr_checks)
        if token == "cor25":
            report.extend(check_antipode_u_biconditional(c, r, qt))
            return
        _add(report, check_drinfeld_modular_product(c, r, qt), _drinfeld_lines(c.ops, qt))


def _check_braided(label: str, src: Source, token: str, report: Report) -> None:
    """main3, cor3 and tangent on the source's braiding, or without one on
    the dual of its R-matrix.  A failing braiding axiom is reported by its
    first FAIL line, ahead of the theorem's checks."""
    report.conventions.extend(CQT_CONVENTIONS)
    if src.braiding is not None:
        c, br = src.data(), src.braiding()[0]
    elif src.r is not None:
        bridge, dual = _dual_source(src.r(), None, {})
        report.extend(bridge)
        report.add_computed("carrier", f"dual of {label}")
        c, br = dual.data(), dual.braiding()[0]
    else:
        raise UsageError(f"check {token} needs a braiding or an R-matrix")
    ops = c.ops
    report.extend(_first_failure(braiding_axiom_checks(ops, br)))
    fns, fn_checks = br.functionals
    report.extend(fn_checks)
    if token == "main3":
        report.extend(modular_convolution_checks(ops, br, fns, c.alpha, c.a, c.a_inv))
    elif token == "cor3":
        report.extend(braided_modular_corollary_checks(ops, br, fns, c.alpha,
                                                       c.alpha_inv, c.a, c.a_inv))
    else:  # tangent
        report.extend(twist_round_trip(c, fns["u"], fns["u_inv"]))


# ---------------------------------------------------------------------------
# plumbing


def _finish(report: Report, args) -> int:
    timestamp = datetime.now(timezone.utc).isoformat() if args.timestamps else None
    text = report.render_json(timestamp) if args.json else report.render_text(timestamp)
    sys.stdout.write(text + "\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopf",
        description="Exact verification of Hopf algebra identities from "
                    "structure-constant documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run) -> None:
        p.set_defaults(run=run)
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
    common(pv, cmd_verify)

    pc = sub.add_parser("compute", help="print one derived quantity")
    pc.add_argument("source", help="preset:NAME or a path to a JSON document")
    pc.add_argument("what", choices=COMPUTE_TARGETS)
    common(pc, cmd_compute)
    pc.add_argument("--emit-document", action="store_true",
                    help="print the algebra as a JSON document instead of a report")

    pk = sub.add_parser("check", help="run a single theorem suite")
    pk.add_argument("source", help="preset:NAME or a path to a JSON document")
    pk.add_argument("theorem", choices=CHECK_TOKENS)
    common(pk, cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(resolve_source(args), args)
    except (UsageError, DocumentError, ScalarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AxiomError, NotInvertibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
