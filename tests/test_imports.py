"""Every name a hopfcheck module imports is used there or re-exported.

No linter ships with the toolchain, so this walks each module's syntax tree:
a name bound by an import must appear as a name (or as the root of an
attribute chain) somewhere in the module, in a string annotation, or in
the module's __all__.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfcheck"


def _imported(tree: ast.Module) -> dict[str, int]:
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    keep = _used(tree) | _exported(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
            if name not in keep]


def test_unused_import_detector_flags_an_orphan(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from os import path, sep\nimport json\n__all__ = ['sep']\n"
                   "def f(x: 'Path') -> None:\n    return json.dumps(x)\n")
    assert unused_imports(mod) == ["mod.py:1: path"]


def test_src_modules_have_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
