"""Spans around the calls into each hopfcheck module, recorded from outside.

Nothing in the program is edited: `instrument` rebinds each traced function
at every place a caller looks it up (the defining module, every module that
imported the name, the class for methods) and `restore` puts the originals
back.  Spans are kept in memory as (name, start, end, parent, run, attrs)
and summarised per run into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, attribute path, span name).  Functions sharing a span name form one
# layer; a span nested in another of the same name is not counted twice.
TRACE_POINTS = (
    ("document", "load_document", "document.load"),
    ("document", "build_algebra", "document.build"),
    ("report", "Report.render_json", "report.render"),
    ("report", "Report.render_text", "report.render"),
    ("hopf", "verify_hopf", "hopf.verify_hopf"),
    ("hopf", "compute_antipode", "hopf.compute_antipode"),
    ("hopf", "FinHopfAlgebra.dual", "hopf.dual"),
    ("hopf", "Tensor2.invert", "hopf.tensor2_invert"),
    ("linalg", "solve_linear", "linalg.solve"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "invert_matrix", "linalg.invert_matrix"),
    ("lincomb", "hopf_axiom_checks", "lincomb.hopf_axiom_checks"),
    ("laurent", "family_data", "laurent.family_data"),
    ("cofrobenius", "cofrobenius_data", "cofrobenius.data"),
    ("cofrobenius", "integral_twist_from_coinner", "cofrobenius.twist"),
    ("cofrobenius", "integral_twist_from_coinner_findim", "cofrobenius.twist"),
    ("cofrobenius", "coinner_from_integral_twist", "cofrobenius.extract"),
    ("cofrobenius", "coinner_from_integral_twist_findim", "cofrobenius.extract"),
    ("cofrobenius", "cofrobenius_checks", "cofrobenius.checks"),
    ("cofrobenius", "left_integral_law_check", "cofrobenius.checks"),
    ("cofrobenius", "modular_element_checks", "cofrobenius.checks"),
    ("cofrobenius", "integral_exchange_checks", "cofrobenius.checks"),
    ("cofrobenius", "nakayama_checks", "cofrobenius.checks"),
    ("cofrobenius", "radford_s4_checks", "cofrobenius.checks"),
    ("cofrobenius", "check_s2_inner_witness", "cofrobenius.checks"),
    ("coquasitriangular", "braiding_axiom_checks", "coquasitriangular.axioms"),
    ("coquasitriangular", "flip_braiding_checks", "coquasitriangular.flip"),
    ("coquasitriangular", "flip_inverse_braiding", "coquasitriangular.flip"),
    ("coquasitriangular", "braided_functionals", "coquasitriangular.functionals"),
    ("coquasitriangular", "cqt_functionals", "coquasitriangular.functionals"),
    ("coquasitriangular", "braiding_from_matrix", "coquasitriangular.braiding_from_matrix"),
    ("coquasitriangular", "dualize_qt", "coquasitriangular.dualize"),
    ("coquasitriangular", "modular_convolution_checks", "coquasitriangular.checks"),
    ("coquasitriangular", "braided_modular_corollary_checks", "coquasitriangular.checks"),
    ("coquasitriangular", "grouplike_witness_checks", "coquasitriangular.checks"),
    ("coquasitriangular", "grouplike_homomorphism_checks", "coquasitriangular.checks"),
    ("coquasitriangular", "modular_characters", "coquasitriangular.checks"),
    ("quasitriangular", "RMatrix.build", "quasitriangular.rmatrix"),
    ("quasitriangular", "RMatrix.from_entries", "quasitriangular.rmatrix"),
    ("quasitriangular", "verify_qt", "quasitriangular.verify_qt"),
    ("quasitriangular", "drinfeld_elements", "quasitriangular.drinfeld"),
    ("quasitriangular", "verify_delta_u", "quasitriangular.delta_u"),
    ("quasitriangular", "flip_inverse", "quasitriangular.flip_inverse"),
    ("quasitriangular", "minimal_subhopf", "quasitriangular.minimal_subhopf"),
    ("quasitriangular", "conjugation_witnesses", "quasitriangular.witnesses"),
    ("quasitriangular", "character_maps_checks", "quasitriangular.checks"),
    ("quasitriangular", "check_modular_grouplikes_equal", "quasitriangular.checks"),
    ("quasitriangular", "check_drinfeld_modular_product", "quasitriangular.checks"),
    ("quasitriangular", "check_antipode_u_biconditional", "quasitriangular.checks"),
    ("quasitriangular", "grouplike_from_character", "quasitriangular.checks"),
)

PACKAGE = "hopfcheck"
ROOT_SPAN = "cli.main"
GRID_SPAN = "report.grid"
SOLVE_SPAN = "linalg.solve"
# Grid checks whose points and time are reported one by one: the heaviest
# check of the twist round trip, of the braiding axioms and of the Hopf axioms.
HEAVY_CHECKS = ("integral_twist.product_formula",
                "cqt.multiplicative_first_argument",
                "hopf.associativity")
LAYER_TIMES = tuple(dict.fromkeys(name for _, _, name in TRACE_POINTS))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans; one run id per traced verify."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = 0

    def _open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run, attrs or {})
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, span_name: str, fn, /, *args, **kwargs):
        span = self._open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, span_name: str, fn):
        def traced(*args, **kwargs):
            return self.call(span_name, fn, *args, **kwargs)
        return traced

    def wrap_solve(self, fn):
        def traced(a, b):
            span = self._open(SOLVE_SPAN, {"cells": a.nrows * a.ncols})
            try:
                return fn(a, b)
            finally:
                self._close(span)
        return traced

    def wrap_grid_check(self, fn):
        def traced(name, items, predicate, describe):
            span = self._open(GRID_SPAN, {"check": name, "points": 0})

            def counted(item):
                span.attrs["points"] += 1
                return predicate(item)

            try:
                return fn(name, items, counted, describe)
            finally:
                self._close(span)
        return traced


def instrument(tracer: Tracer):
    """Rebind every trace point in the imported program; return a restore
    callable that puts the original objects back."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    by_name = {m.__name__: m for m in modules}
    undo: list[tuple[object, str, object]] = []

    def rebind(original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def point(module_name: str, path: str, make) -> None:
        owner = by_name[f"{PACKAGE}.{module_name}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if classes:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        else:
            rebind(getattr(owner, attr), make(getattr(owner, attr)))

    for module_name, path, name in TRACE_POINTS:
        if name == SOLVE_SPAN:
            point(module_name, path, tracer.wrap_solve)
        else:
            point(module_name, path, lambda fn, name=name: tracer.wrap(name, fn))
    point("report", "grid_check", tracer.wrap_grid_check)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _outermost(spans: list[Span], index: int) -> bool:
    name, parent = spans[index].name, spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def covered(spans: list[Span], run: int, keep) -> float:
    """Seconds of one run covered by the union of the spans that satisfy keep."""
    total, reach = 0.0, float("-inf")
    chosen = sorted((s for s in spans if s.run == run and keep(s)), key=lambda s: s.start)
    for s in chosen:
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


def self_times(spans: list[Span], run: int) -> dict[str, float]:
    """Per span name, duration minus the time its direct children cover."""
    out: dict[str, float] = {}
    for s in spans:
        if s.run == run:
            out[s.name] = out.get(s.name, 0.0) + s.end - s.start
            if s.parent is not None:
                parent = spans[s.parent].name
                out[parent] = out.get(parent, 0.0) - (s.end - s.start)
    return out


def layer_metrics(spans: list[Span], run: int) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    out: dict[str, float] = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    grid_s = 0.0
    grid_checks = grid_points = solve_calls = solve_cells = 0
    heavy = {name: [0, 0.0] for name in HEAVY_CHECKS}
    for i, s in enumerate(spans):
        if s.run != run:
            continue
        duration = s.end - s.start
        if s.name == GRID_SPAN:
            grid_checks += 1
            grid_points += s.attrs["points"]
            if _outermost(spans, i):
                grid_s += duration
            if s.attrs["check"] in heavy:
                heavy[s.attrs["check"]][0] += s.attrs["points"]
                heavy[s.attrs["check"]][1] += duration
            continue
        if s.name == SOLVE_SPAN:
            solve_calls += 1
            solve_cells += s.attrs["cells"]
        if s.name in LAYER_TIMES and _outermost(spans, i):
            out[f"{s.name}_s"] += duration
    out["linalg.solve_calls"] = solve_calls
    out["linalg.solve_cells"] = solve_cells
    out["report.grid_checks"] = grid_checks
    out["report.grid_points"] = grid_points
    out["report.grid_s"] = grid_s
    for name, (points, seconds) in heavy.items():
        out[f"check.{name}.points"] = points
        out[f"check.{name}.s"] = seconds
    out["cli.self_s"] = self_times(spans, run).get(ROOT_SPAN, 0.0)
    return out
