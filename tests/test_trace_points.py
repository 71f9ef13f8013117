"""perfbench/spans.py traces hopfcheck functions by module and attribute
name from outside the package; every name it lists must resolve, and each
layer's span must enclose the work it names."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from hopfcheck import cli  # imports every traced module
from test_golden import double_c2_document

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    spans = load_spans()
    for module_name, path, _ in spans.TRACE_POINTS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), (module_name, path)
            owner = getattr(owner, attr)
        assert callable(owner), (module_name, path)


def test_instrument_then_restore_leaves_the_package_unchanged():
    spans = load_spans()
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name.startswith("hopfcheck.")}
    restore = spans.instrument(spans.Tracer())
    restore()
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items()), name


def flip_spans(capsys, tmp_path, source) -> list[int]:
    """For each outermost coquasitriangular.flip span of a traced verify,
    the number of coquasitriangular.axioms spans inside it."""
    spans = load_spans()
    tracer = spans.Tracer()
    if source == "laurent":
        argv = ["verify", "preset:laurent", "--window", "2", "--json"]
    else:
        path = tmp_path / "double.json"
        path.write_text(json.dumps(double_c2_document()), encoding="utf-8")
        argv = ["verify", str(path), "--json"]
    restore = spans.instrument(tracer)
    try:
        assert cli.main(argv) == 0
    finally:
        restore()
    capsys.readouterr()

    def ancestors(i):
        parent = tracer.spans[i].parent
        while parent is not None:
            yield parent
            parent = tracer.spans[parent].parent

    found = tracer.spans
    flips = [i for i, s in enumerate(found)
             if s.name == "coquasitriangular.flip" and spans._outermost(found, i)]
    axioms = [i for i, s in enumerate(found) if s.name == "coquasitriangular.axioms"]
    return [sum(1 for i in axioms if f in ancestors(i)) for f in flips]


def test_flip_span_holds_an_axiom_battery_only_off_a_cotriangular_braiding(capsys,
                                                                          tmp_path):
    """coquasitriangular.flip_s times the flip checks; on the Laurent
    family, whose braiding is cotriangular, they reuse sigma's battery and
    open no coquasitriangular.axioms span, while on the dual braiding of
    D(kC2) the flip's battery runs inside the flip span."""
    assert flip_spans(capsys, tmp_path, "laurent") == [0]
    assert flip_spans(capsys, tmp_path, "double") == [1]
