"""Every name a hopfcheck module imports is used there or re-exported, and
every definition in the package is named somewhere besides its own.

No linter ships with the toolchain, so this walks each module's syntax tree:
a name bound by an import must appear as a name (or as the root of an
attribute chain) somewhere in the module, in a string annotation, or in
the module's __all__.  A top-level function or class, or a method whose
name is not a dunder, must be named outside its own definition: in src/,
tests/ or scripts/, or in a perfbench/spans.TRACE_POINTS path.  Methods
count only when named as an attribute (obj.method) or in a trace path.
A key or pair grid outside lincomb must go through lincomb.key_check or
pair_check, which enumerate its points and name its witness.  No module
branches on whether a carrier has an algebra: a source is served by what
it has, an R-matrix or a braiding.  A finite algebra's structure maps live
in its one ops: FinHopfAlgebra defines no basis_ops, *_basis or format_*
method, and no module calls .basis_ops().  linalg.SparseMatrix is the one
matrix type: no other class defines both nrows and ncols, and the antipode
is read as FinHopfAlgebra.antipode columns, never as a matrix.  Only the
unit solve, compute_antipode, hopf._right_inverse and linalg.nullspace
read linalg.solve_linear, so every inverse goes through the one solver.
A scalar is a plain number, reduced through its field: no class defines
arithmetic dunders, and outside scalars.py no module imports div or
divides with /, so every division goes through Field.div.  A carrier's
kernel tables and its S proof have one holder, BasisOps.tables: only
lincomb builds a KernelTables, no function takes the tables or the proof
as a parameter named raw or proven, and neither FinHopfAlgebra nor
Carrier has a generators attribute.  Those tables are also the one cache
of the structure maps: outside KernelTables.__init__ no module wraps
memo_fn, KeyTable, PairTable or a functools cache around mul, delta, an
antipode or a Laurent *_key closed form, or calls .mul, .delta, .antipode
or .antipode_inv.  Likewise a Braiding is the one cache of sigma: outside
Braiding and flip_braiding no module wraps a PairTable around a braiding's
.value or .inverse, reads either evaluator, or calls braided_functionals.
S^n has one cache as well, KernelTables.s_pow: outside KernelTables no
module applies s_lc or s_inv_lc to its own output, in a loop or nested,
or caches s_power or compose_s_power.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopfcheck"


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


def _definitions(tree: ast.Module):
    """(display name, bare name, is a method, node) for each definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub.name, True, sub


def _mentions(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each identifier is named (as a name or an import) and how
    often as an attribute, under tree."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def _trace_paths() -> set[tuple[str, str]]:
    """(module, attribute path) of every perfbench/spans.TRACE_POINTS entry."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACE_POINTS" for t in node.targets)):
            return {(module, path) for module, path, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no TRACE_POINTS")


def unused_definitions(modules, users, traced) -> list[str]:
    """Definitions in modules never named in users (beyond their own
    definition) nor among the traced (module, attribute path) pairs."""
    names, attrs = Counter(), Counter()
    for path in users:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        n, a = _mentions(tree)
        names += n + Counter(_exported(tree))
        attrs += a
    out = []
    for path in modules:
        for shown, bare, method, node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            own_names, own_attrs = _mentions(node)
            used = attrs[bare] - own_attrs[bare]
            if not method:
                used += names[bare] - own_names[bare]
            if used <= 0 and (path.stem, shown) not in traced:
                out.append(f"{path.name}: {shown}")
    return out


def test_unused_definition_detector_flags_an_orphan(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def spin(n):\n    return spin(n - 1)\n\n"
                   "def used():\n    return 1\n\n"
                   "class Box:\n    def open(self):\n        return self.shut()\n\n"
                   "    def shut(self):\n        return used()\n\n"
                   "    def __len__(self):\n        return 0\n\n"
                   "def traced():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import Box\n")
    found = unused_definitions([mod], [mod, user], {("mod", "traced")})
    assert found == ["mod.py: spin", "mod.py: Box.open"]


def test_src_definitions_are_all_named():
    users = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    unused = unused_definitions(sorted(SRC.glob("*.py")), users, _trace_paths())
    assert not unused, "definitions nothing names:\n" + "\n".join(unused)


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def witness_loops(path: Path) -> list[str]:
    """Key and pair grids that decide their own witness outside lincomb.

    lincomb.key_check and pair_check are the one place that enumerates the
    keys or key pairs of a grid and names a failing one.  Flags, outside
    lincomb, a grid_check whose items are <x>.keys or _pairs(...) and any
    other _pairs call; flags fn_eq_on_grid, the deleted second grid loop,
    anywhere.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = path.stem != "lincomb"
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "fn_eq_on_grid"
                or isinstance(node, ast.Attribute) and node.attr == "fn_eq_on_grid"
                or isinstance(node, ast.Name) and node.id == "fn_eq_on_grid"):
            out.append(f"{path.name}:{node.lineno}: fn_eq_on_grid")
        elif outside and isinstance(node, ast.Call) and _callee(node) == "_pairs":
            out.append(f"{path.name}:{node.lineno}: _pairs")
        elif outside and isinstance(node, ast.Call) and _callee(node) == "grid_check":
            items = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "items"), None)
            if isinstance(items, ast.Attribute) and items.attr == "keys":
                out.append(f"{path.name}:{node.lineno}: grid_check over keys")
    return sorted(out)


def test_witness_loop_detector_flags_each_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(ops, name, ok):\n"
                   "    grid_check(name, ops.keys, ok, lambda k: f'at {k}')\n"
                   "    report.grid_check(name, _pairs(ops), ok, str)\n"
                   "    grid_check(name, items=ops.keys, predicate=ok, describe=str)\n"
                   "    grid_check(name, ['x', 'y'], ok, str)\n"
                   "    return ops.fn_eq_on_grid(ok, ok)\n")
    assert witness_loops(mod) == ["mod.py:2: grid_check over keys", "mod.py:3: _pairs",
                                  "mod.py:4: grid_check over keys", "mod.py:6: fn_eq_on_grid"]
    lincomb = tmp_path / "lincomb.py"
    lincomb.write_text("def key_check(name, ops, holds):\n"
                       "    return grid_check(name, ops.keys, holds, str)\n")
    assert witness_loops(lincomb) == []


def test_key_and_pair_witnesses_are_decided_in_lincomb():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in witness_loops(path)]
    assert not found, "key or pair grids outside lincomb.key_check/pair_check:\n" + "\n".join(found)


def carrier_kind_forks(path: Path) -> list[str]:
    """`<x>.algebra is None` and `<x>.algebra is not None` comparisons, which
    decide by the kind of carrier instead of by what the source has."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and all(isinstance(op, (ast.Is, ast.IsNot))
                                                 for op in node.ops):
            operands = [node.left, *node.comparators]
            if (any(isinstance(x, ast.Attribute) and x.attr == "algebra" for x in operands)
                    and any(isinstance(x, ast.Constant) and x.value is None for x in operands)):
                out.append(f"{path.name}:{node.lineno}: .algebra compared with None")
    return sorted(out)


def test_carrier_kind_fork_detector_flags_each_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(data, src, r):\n"
                   "    if data.algebra is None:\n"
                   "        return src.r is None\n"
                   "    ok = data.algebra is not None\n"
                   "    if None is r.algebra:\n"
                   "        return r.algebra.dim\n"
                   "    return data.algebra == r.algebra\n")
    assert carrier_kind_forks(mod) == ["mod.py:2: .algebra compared with None",
                                       "mod.py:4: .algebra compared with None",
                                       "mod.py:5: .algebra compared with None"]


def test_no_module_forks_on_carrier_kind():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in carrier_kind_forks(path)]
    assert not found, "carrier-kind forks:\n" + "\n".join(found)


def structure_map_twins(path: Path) -> list[str]:
    """Second copies of a finite algebra's structure maps beside its ops: a
    FinHopfAlgebra method named basis_ops, *_basis or format_*, and any
    argument-free .basis_ops() call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "FinHopfAlgebra":
            out.extend(f"{path.name}:{item.lineno}: FinHopfAlgebra.{item.name}"
                       for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and (item.name == "basis_ops" or item.name.endswith("_basis")
                            or item.name.startswith("format_")))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "basis_ops" and not node.args and not node.keywords):
            out.append(f"{path.name}:{node.lineno}: .basis_ops()")
    return sorted(out)


def test_structure_map_twin_detector_flags_each_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("class FinHopfAlgebra:\n"
                   "    def basis_ops(self):\n"
                   "        return self\n\n"
                   "    def mul_basis(self, i, j):\n"
                   "        return {}\n\n"
                   "    def format_element(self, x):\n"
                   "        return str(x)\n\n"
                   "    def invert_element(self, x):\n"
                   "        return x\n\n"
                   "class Other:\n"
                   "    def format_row(self):\n"
                   "        return algebra.basis_ops().unit\n\n"
                   "def f(window):\n"
                   "    return laurent.basis_ops(window)\n")
    assert structure_map_twins(mod) == ["mod.py:16: .basis_ops()",
                                        "mod.py:2: FinHopfAlgebra.basis_ops",
                                        "mod.py:5: FinHopfAlgebra.mul_basis",
                                        "mod.py:8: FinHopfAlgebra.format_element"]


def test_finite_algebras_have_one_structure_map_object():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in structure_map_twins(path)]
    assert not found, "structure maps outside FinHopfAlgebra.ops:\n" + "\n".join(found)


MATRIX_READS = ("antipode_matrix", "antipode_inv_matrix", "_antipode")


def matrix_twins(path: Path) -> list[str]:
    """A second matrix type beside linalg.SparseMatrix, and reads of the
    antipode as a matrix: a class, other than SparseMatrix in linalg, that
    defines both nrows and ncols (as a method, property or annotated field),
    and any .antipode_matrix, .antipode_inv_matrix or ._antipode."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (path.stem, node.name) != ("linalg", "SparseMatrix"):
            defined = {item.name for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            defined |= {item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            if {"nrows", "ncols"} <= defined:
                out.append(f"{path.name}:{node.lineno}: matrix class {node.name}")
        elif isinstance(node, ast.Attribute) and node.attr in MATRIX_READS:
            out.append(f"{path.name}:{node.lineno}: .{node.attr}")
    return sorted(out)


def test_matrix_twin_detector_flags_each_form(tmp_path):
    # the dense Matrix and the antipode reads that SparseMatrix replaced
    linalg = tmp_path / "linalg.py"
    linalg.write_text("class Matrix:\n"
                      "    rows: tuple\n\n"
                      "    @property\n"
                      "    def nrows(self):\n"
                      "        return len(self.rows)\n\n"
                      "    @property\n"
                      "    def ncols(self):\n"
                      "        return len(self.rows[0])\n\n"
                      "class Grid:\n"
                      "    nrows: int\n"
                      "    ncols: int\n\n"
                      "class SparseMatrix:\n"
                      "    ncols: int\n\n"
                      "    @property\n"
                      "    def nrows(self):\n"
                      "        return 0\n")
    hopf = tmp_path / "hopf.py"
    hopf.write_text("class SparseMatrix:\n"
                    "    nrows: int\n"
                    "    ncols: int\n\n"
                    "def f(algebra, m):\n"
                    "    s = algebra.antipode_matrix.rows\n"
                    "    t = algebra.antipode_inv_matrix\n"
                    "    if algebra._antipode is None:\n"
                    "        return m.nrows, algebra.antipode[0]\n")
    assert matrix_twins(linalg) == ["linalg.py:12: matrix class Grid",
                                    "linalg.py:1: matrix class Matrix"]
    assert matrix_twins(hopf) == ["hopf.py:1: matrix class SparseMatrix",
                                  "hopf.py:6: .antipode_matrix",
                                  "hopf.py:7: .antipode_inv_matrix",
                                  "hopf.py:8: ._antipode"]


def test_sparse_matrix_is_the_one_matrix_type():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in matrix_twins(path)]
    assert not found, "matrix types or antipode matrices besides SparseMatrix:\n" + "\n".join(found)


# the functions that may solve a linear system, by module: the unit, the
# antipode, the one right-inverse solver (R^-1, u^-1, sigma^-1) and nullspaces
SOLVERS = {"hopf": {"_solve_unit", "compute_antipode", "_right_inverse"},
           "linalg": {"nullspace"}}


def stray_solves(path: Path) -> list[str]:
    """Each read of solve_linear, as a name or an attribute, whose innermost
    enclosing function is not one of SOLVERS for its module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = SOLVERS.get(path.stem, set())
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if ((isinstance(child, ast.Name) and child.id == "solve_linear"
                 or isinstance(child, ast.Attribute) and child.attr == "solve_linear")
                    and owner not in allowed):
                out.append(f"{path.name}:{child.lineno}: solve_linear in {owner or 'module'}")
            visit(child, owner)

    visit(tree, None)
    return out


def test_stray_solve_detector_flags_each_form(tmp_path):
    hopf = tmp_path / "hopf.py"
    hopf.write_text("def _solve_unit(a, b):\n"
                    "    return solve_linear(a, b)\n\n"
                    "class FinHopfAlgebra:\n"
                    "    def invert_element(self, x):\n"
                    "        return linalg.solve_linear(x, x)\n\n"
                    "def compute_antipode(a):\n"
                    "    def inner():\n"
                    "        return solve_linear(a, a)\n"
                    "    return inner\n\n"
                    "solver = solve_linear\n")
    assert stray_solves(hopf) == ["hopf.py:6: solve_linear in invert_element",
                                  "hopf.py:10: solve_linear in inner",
                                  "hopf.py:13: solve_linear in module"]
    cq = tmp_path / "coquasitriangular.py"
    cq.write_text("def _right_inverse(a, b):\n"
                  "    return solve_linear(a, b)\n")
    assert stray_solves(cq) == ["coquasitriangular.py:2: solve_linear in _right_inverse"]


def test_only_the_named_solvers_solve():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in stray_solves(path)]
    assert not found, "linear solves outside the named solvers:\n" + "\n".join(found)


ARITHMETIC_DUNDERS = {f"__{op}__" for base in ("add", "sub", "mul", "truediv", "floordiv",
                                               "mod", "pow", "matmul")
                      for op in (base, f"r{base}", f"i{base}")} | {"__neg__", "__pos__"}


def scalar_twins(path: Path) -> list[str]:
    """A second scalar type beside the plain numbers of scalars.py, and a
    division that bypasses Field.div: a class defining an arithmetic dunder,
    anywhere; outside scalars.py an import of div and a / or /=."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {item.name}
                elif isinstance(item, ast.Assign):
                    names = {t.id for t in item.targets if isinstance(t, ast.Name)}
                else:
                    continue
                out.extend(f"{path.name}:{item.lineno}: {node.name}.{name}"
                           for name in sorted(names & ARITHMETIC_DUNDERS))
        if path.name == "scalars.py":
            continue
        if isinstance(node, ast.ImportFrom) and any(a.name == "div" for a in node.names):
            out.append(f"{path.name}:{node.lineno}: import of div")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append(f"{path.name}:{node.lineno}: /")
    return sorted(out)


def test_scalar_twin_detector_flags_each_form(tmp_path):
    # the FpElement class and the divisions that plain ints would make wrong
    lincomb = tmp_path / "lincomb.py"
    lincomb.write_text("from .scalars import QQ, div\n"
                       "class FpElement:\n"
                       "    def __add__(self, other):\n"
                       "        return self\n"
                       "    __radd__ = __add__\n"
                       "    def __bool__(self):\n"
                       "        return True\n"
                       "def f(a, b):\n"
                       "    a /= b\n"
                       "    return a / b, a // b\n")
    assert scalar_twins(lincomb) == ["lincomb.py:10: /", "lincomb.py:1: import of div",
                                     "lincomb.py:3: FpElement.__add__",
                                     "lincomb.py:5: FpElement.__radd__",
                                     "lincomb.py:9: /"]
    scalars = tmp_path / "scalars.py"
    scalars.write_text("def div(a, b):\n"
                       "    return a / b\n"
                       "class Element:\n"
                       "    def __mul__(self, other):\n"
                       "        return self\n")
    assert scalar_twins(scalars) == ["scalars.py:4: Element.__mul__"]


def test_scalars_are_plain_numbers_divided_by_their_field():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in scalar_twins(path)]
    assert not found, "scalar types or divisions besides Field.div:\n" + "\n".join(found)


PLUMBING_PARAMETERS = ("raw", "proven")
PROOF_HOLDERS = ("FinHopfAlgebra", "Carrier")


def table_twins(path: Path) -> list[str]:
    """Second holders of a carrier's kernel tables or of its S proof: a
    KernelTables or LoweredTables built outside lincomb, a parameter (of a
    function or a lambda) named raw or proven, and a generators attribute
    of FinHopfAlgebra or Carrier: a method, an annotated field or a store
    to <x>.generators in its body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _callee(node) in ("KernelTables", "LoweredTables")
                and path.stem != "lincomb"):
            out.append(f"{path.name}:{node.lineno}: {_callee(node)} built outside lincomb")
        elif isinstance(node, ast.arg) and node.arg in PLUMBING_PARAMETERS:
            out.append(f"{path.name}:{node.lineno}: parameter {node.arg}")
        elif isinstance(node, ast.ClassDef) and node.name in PROOF_HOLDERS:
            out.extend(
                f"{path.name}:{item.lineno}: {node.name}.generators" for item in ast.walk(node)
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "generators"
                or isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and item.target.id == "generators"
                or isinstance(item, ast.Attribute) and item.attr == "generators"
                and isinstance(item.ctx, ast.Store))
    return sorted(out)


def test_table_twin_detector_flags_each_form(tmp_path):
    # the per-battery tables and the proof plumbing that BasisOps.tables replaced
    mod = tmp_path / "mod.py"
    mod.write_text("def battery(ops, raw=None):\n"
                   "    raw = raw or LoweredTables(ops)\n"
                   "    return lincomb.KernelTables(ops), lambda proven: proven\n\n"
                   "class FinHopfAlgebra:\n"
                   "    def __init__(self):\n"
                   "        self.generators = None\n\n"
                   "class Carrier:\n"
                   "    generators: tuple | None = None\n\n"
                   "class Other:\n"
                   "    generators: tuple = ()\n\n"
                   "    def generators_of(self, ops):\n"
                   "        return ops.tables.proof, generators(ops)\n")
    assert table_twins(mod) == ["mod.py:10: Carrier.generators",
                                "mod.py:1: parameter raw",
                                "mod.py:2: LoweredTables built outside lincomb",
                                "mod.py:3: KernelTables built outside lincomb",
                                "mod.py:3: parameter proven",
                                "mod.py:7: FinHopfAlgebra.generators"]
    lincomb = tmp_path / "lincomb.py"
    lincomb.write_text("class BasisOps:\n"
                       "    def tables(self):\n"
                       "        return KernelTables(self)\n")
    assert table_twins(lincomb) == []


def test_kernel_tables_and_the_s_proof_have_one_holder():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in table_twins(path)]
    assert not found, "kernel tables or S proofs outside BasisOps.tables:\n" + "\n".join(found)


STRUCTURE_MAPS = ("mul", "delta", "antipode", "antipode_inv")
CACHES = ("memo_fn", "KeyTable", "PairTable", "lru_cache", "cache")


def _names_structure_map(node: ast.AST) -> str | None:
    """The name of a structure map named as it is, as a name or an
    attribute: mul, delta, antipode, antipode_inv or a closed form *_key."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in STRUCTURE_MAPS or name and name.endswith("_key") else None


def _is_cache(node: ast.AST) -> bool:
    """memo_fn, KeyTable, PairTable, lru_cache or cache, as a name, an
    attribute or a call of one (lru_cache(maxsize))."""
    if isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None) in CACHES


def structure_map_caches(path: Path) -> list[str]:
    """Second caches of a carrier's structure maps beside BasisOps.tables,
    and reads that bypass those tables, outside lincomb's
    KernelTables.__init__, the one place that calls the maps: a cache
    (CACHES) called on a structure map, on a lambda or partial that calls
    one, or decorating a function named as one; and any call .mul(...),
    .delta(...), .antipode(...) or .antipode_inv(...)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []

    def calls_map(node) -> str | None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and (name := _names_structure_map(sub.func)):
                return name
            if (isinstance(sub, ast.Call) and _callee(sub) == "partial" and sub.args
                    and (name := _names_structure_map(sub.args[0]))):
                return name
        return None

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner + (getattr(child, "name", None),)
            if inner == ("KernelTables", "__init__") and path.stem == "lincomb":
                continue
            if isinstance(child, ast.Call) and _is_cache(child.func):
                name = next(filter(None, (_names_structure_map(arg) or calls_map(arg)
                                          for arg in child.args)), None)
                if name:
                    out.append(f"{path.name}:{child.lineno}: cache around {name}")
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and (
                    child.func.attr in STRUCTURE_MAPS):
                out.append(f"{path.name}:{child.lineno}: .{child.func.attr}() call")
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _names_structure_map(ast.Name(child.name))
                  and any(map(_is_cache, child.decorator_list))):
                out.append(f"{path.name}:{child.lineno}: cache around {child.name}")
            visit(child, inner if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else owner)

    visit(tree, ())
    return sorted(out)


def test_structure_map_cache_detector_flags_each_form(tmp_path):
    # the Laurent family's product interning and memos that BasisOps.tables replaced
    laurent = tmp_path / "laurent.py"
    laurent.write_text("def basis_ops(window):\n"
                       "    def mul(x, y):\n"
                       "        return products.setdefault(x, mul_key(x, y))\n"
                       "    return BasisOps(mul=PairTable(mul), delta=memo_fn(delta_key),\n"
                       "                    antipode=KeyTable(lambda k: antipode_key(k)),\n"
                       "                    antipode_inv=lru_cache(None)(antipode_inv_key),\n"
                       "                    eps=functools.cache(partial(eps_key)))\n\n"
                       "@functools.lru_cache(maxsize=None)\n"
                       "def mul_key(x, y):\n"
                       "    return {}\n\n"
                       "def nakayama(ops, tables, chi):\n"
                       "    swapped = KeyTable(lambda k: tables.delta[k])\n"
                       "    return memo_fn(chi), ops.mul(1, 2), ops.tables.antipode_inv(3)\n")
    assert structure_map_caches(laurent) == [
        "laurent.py:10: cache around mul_key", "laurent.py:15: .antipode_inv() call",
        "laurent.py:15: .mul() call", "laurent.py:4: cache around delta_key",
        "laurent.py:4: cache around mul", "laurent.py:5: cache around antipode_key",
        "laurent.py:6: cache around antipode_inv_key", "laurent.py:7: cache around eps_key"]
    lincomb = tmp_path / "lincomb.py"
    lincomb.write_text("class KernelTables:\n"
                       "    def __init__(self, ops):\n"
                       "        delta = ops.delta\n"
                       "        self.delta = KeyTable(lambda k: tuple(delta(k)))\n"
                       "        self.s = KeyTable(lambda k: ops.antipode(k))\n\n"
                       "    def refill(self, ops):\n"
                       "        return ops.delta(0)\n")
    assert structure_map_caches(lincomb) == ["lincomb.py:8: .delta() call"]


def test_structure_maps_have_one_cache_and_every_reader_uses_it():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in structure_map_caches(path)]
    assert not found, "structure maps cached or read outside KernelTables:\n" + "\n".join(found)


S_STEPS = ("s_lc", "s_inv_lc")
S_POWERS = ("s_power", "compose_s_power")


def s_power_repeats(path: Path) -> list[str]:
    """Repeated S application outside lincomb's KernelTables, whose s_pow
    holds S^n once per carrier: a loop that assigns a name from s_lc or
    s_inv_lc of that name, an s_lc or s_inv_lc call nested in one of the
    same name, and a cache (CACHES, called or as a decorator) around
    s_power or compose_s_power, named, called or called in a lambda or
    partial."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    names = lambda node, among: [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
                                 and _callee(sub) in among]

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner + (getattr(child, "name", None),)
            if inner == ("KernelTables",) and path.stem == "lincomb":
                continue
            if isinstance(child, (ast.For, ast.While)):
                out.extend(f"{path.name}:{a.lineno}: loop of {_callee(call)}"
                           for a in ast.walk(child) if isinstance(a, ast.Assign)
                           for call in names(a.value, S_STEPS)
                           if {t.id for target in a.targets for t in ast.walk(target)
                               if isinstance(t, ast.Name)}
                           & {arg.id for arg in call.args if isinstance(arg, ast.Name)})
            if isinstance(child, ast.Call) and _callee(child) in S_STEPS and any(
                    _callee(sub) == _callee(child)
                    for arg in child.args for sub in names(arg, S_STEPS)):
                out.append(f"{path.name}:{child.lineno}: nested {_callee(child)}")
            if isinstance(child, ast.Call) and _is_cache(child.func) and any(
                    names(arg, S_POWERS) or _names_s_power(arg) for arg in child.args):
                out.append(f"{path.name}:{child.lineno}: cache around an S power")
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_is_cache, child.decorator_list)) and names(child, S_POWERS)):
                out.append(f"{path.name}:{child.lineno}: cache around an S power")
            visit(child, inner if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else owner)

    visit(tree, ())
    return sorted(set(out))


def _names_s_power(node: ast.AST) -> bool:
    """s_power or compose_s_power named as it is, as a name or an attribute."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None) in S_POWERS


def test_s_power_repeat_detector_flags_each_form(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def powers(ops, a, n, keys):\n"
                   "    for _ in range(n):\n"
                   "        a = ops.s_lc(a) if n > 0 else ops.s_inv_lc(a)\n"
                   "    while n:\n"
                   "        a, n = s_inv_lc(a), n - 1\n"
                   "    b = ops.s_lc(ops.s_lc(a))\n"
                   "    f = memo_fn(ops.compose_s_power(alpha, 1))\n"
                   "    g = KeyTable(lambda k: ops.s_power(ops.single(k), 2))\n"
                   "    h = functools.lru_cache(None)(ops.s_power)\n"
                   "    bijective = ops.s_inv_lc(ops.s_lc(a))\n"
                   "    images = [ops.s_lc(ops.single(k)) for k in keys]\n"
                   "    for k in keys:\n"
                   "        images.append(ops.s_lc(ops.single(k)))\n"
                   "    return ops.compose_s_power(alpha, -1), ops.s_power(a, 4)\n\n"
                   "@functools.cache\n"
                   "def s2(k):\n"
                   "    return OPS.s_power(OPS.single(k), 2)\n")
    assert s_power_repeats(mod) == [
        "mod.py:17: cache around an S power", "mod.py:3: loop of s_inv_lc",
        "mod.py:3: loop of s_lc", "mod.py:5: loop of s_inv_lc", "mod.py:6: nested s_lc",
        "mod.py:7: cache around an S power",
        "mod.py:8: cache around an S power", "mod.py:9: cache around an S power"]
    lincomb = tmp_path / "lincomb.py"
    lincomb.write_text("class KernelTables:\n"
                       "    def __init__(self, s_rows):\n"
                       "        def row(k, n):\n"
                       "            items = ((k, 1),)\n"
                       "            for _ in range(n):\n"
                       "                items = s_lc(items)\n"
                       "            return items\n\n"
                       "def powers(ops, a, n):\n"
                       "    for _ in range(n):\n"
                       "        a = ops.s_lc(a)\n")
    assert s_power_repeats(lincomb) == ["lincomb.py:11: loop of s_lc"]


def test_s_powers_have_one_cache_in_the_kernel_tables():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in s_power_repeats(path)]
    assert not found, "S applied repeatedly outside KernelTables.s_pow:\n" + "\n".join(found)


BRAIDING_EVALUATORS = ("value", "inverse")


def braiding_bypasses(path: Path) -> list[str]:
    """Reads of sigma that bypass a braiding's one cache, outside the class
    Braiding and flip_braiding, which build on the raw evaluators: a
    PairTable built in a statement that reads .value or .inverse; any other
    read of .value or .inverse, called or handed on, except on a parameter
    annotated RMatrix, whose inverse is an element; and a call of
    braided_functionals, which Braiding.functionals caches."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = set()

    def check(stmt, rmatrices) -> None:
        exprs = [e for e in ast.iter_child_nodes(stmt) if isinstance(e, ast.expr)]
        nodes = [sub for e in exprs for sub in ast.walk(e)]
        raw = [a for a in nodes if isinstance(a, ast.Attribute) and a.attr in BRAIDING_EVALUATORS
               and not (isinstance(a.value, ast.Name) and a.value.id in rmatrices)]
        callees = [(c.lineno, _callee(c)) for c in nodes if isinstance(c, ast.Call)]
        if raw and any(name == "PairTable" for _, name in callees):
            out.add(f"{path.name}:{stmt.lineno}: PairTable over a braiding's evaluator")
        else:
            out.update(f"{path.name}:{a.lineno}: "
                       + (f".{a.attr}() call" if id(a) in called else f"raw .{a.attr} read")
                       for a in raw)
        out.update(f"{path.name}:{line}: braided_functionals call"
                   for line, name in callees if name == "braided_functionals")

    def visit(node, rmatrices) -> None:
        for child in ast.iter_child_nodes(node):
            if node is tree and getattr(child, "name", None) in ("Braiding", "flip_braiding"):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, rmatrices | {a.arg for a in child.args.args + child.args.kwonlyargs
                                          if a.annotation is not None
                                          and ast.unparse(a.annotation).strip("'\"") == "RMatrix"})
            elif isinstance(child, ast.stmt):
                check(child, rmatrices)
                visit(child, rmatrices)

    visit(tree, frozenset())
    return sorted(out)


def test_braiding_bypass_detector_flags_each_form(tmp_path):
    # the sites that read sigma past the Braiding's tables before they were
    # its one cache: the battery's wrap, the raw modular characters, the
    # chain's re-wrap and its functionals hand-over, the raw involution, and
    # cli's own functionals
    coquasitriangular = tmp_path / "coquasitriangular.py"
    coquasitriangular.write_text(
        "class Braiding:\n"
        "    def sigma(self):\n"
        "        return PairTable(self.value)\n\n"
        "def flip_braiding(br):\n"
        "    return Braiding(br.ops, lambda x, y: br.inverse(y, x), lambda x, y: br.value(y, x))\n\n"
        "def braiding_axiom_checks(ops, br):\n"
        "    sig, sig_inv = (fn if isinstance(fn, PairTable) else PairTable(fn)\n"
        "                    for fn in (br.value, br.inverse))\n\n"
        "def modular_characters(ops, br, a_lc, a_inv_lc):\n"
        "    return contract_second(ops, br.value, a_inv_lc), contract_first(ops, br.value, a_lc)\n\n"
        "def braided_chain(c, br, grouplikes, functionals):\n"
        "    read = Braiding(PairTable(br.value), PairTable(br.inverse))\n"
        "    fns, fn_checks = functionals or braided_functionals(c.ops, read)\n"
        "    twice = flip_braiding(flip_braiding(br))\n"
        "    return pair_check('involution', c.ops, lambda p: twice.value(*p) == br.sigma(*p))\n\n"
        "def dualize_qt(r: RMatrix, qt):\n"
        "    return check('cqt.inverse_two_paths_agree', inv == r.inverse)\n")
    assert braiding_bypasses(coquasitriangular) == [
        "coquasitriangular.py:13: raw .value read",
        "coquasitriangular.py:16: PairTable over a braiding's evaluator",
        "coquasitriangular.py:17: braided_functionals call",
        "coquasitriangular.py:19: .value() call",
        "coquasitriangular.py:9: PairTable over a braiding's evaluator"]
    cli = tmp_path / "cli.py"
    cli.write_text("def cmd_compute(ops, src):\n"
                   "    br = src.braiding()[0]\n"
                   "    if br:\n"
                   "        fns, _ = braided_functionals(ops, br)\n"
                   "    return modular_characters(ops, br, br.value, br.inverse)\n")
    assert braiding_bypasses(cli) == ["cli.py:4: braided_functionals call",
                                      "cli.py:5: raw .inverse read", "cli.py:5: raw .value read"]


def test_each_braiding_is_the_one_cache_of_sigma_and_every_reader_uses_it():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in braiding_bypasses(path)]
    assert not found, "sigma read past a braiding's tables or functionals:\n" + "\n".join(found)
