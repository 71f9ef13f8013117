"""perfbench/spans.py traces hopfcheck functions by module and attribute
name from outside the package; every name it lists must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import hopfcheck.cli  # noqa: F401  (imports every traced module)

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
