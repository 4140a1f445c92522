"""The engine names the benchmark uses still exist and still fit.

`perfbench/tracer.py` wraps the functions named in its `FUNCS` mapping, and
`perfbench/workloads.py` imports private helpers of `hallq.cli` and patches
`RelationVerifier._try`; a refactor that renames or deletes one of them, or
changes how it is called, breaks `perfbench/run.py`.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    paths = [path for fns in tracer.FUNCS.values() for path in fns.values()]
    assert paths
    for path in paths:
        owner, attrs = tracer._resolve(path)
        for attr in attrs:
            assert attr in owner.__dict__, path


def engine_callers():
    """callee -> the engine functions that call it, over every module of
    `src/hallq`.  A call `self.f(...)` in a method of class C calls `C.f`;
    any other `f(...)` or `x.f(...)` calls `f`, whatever its owner."""
    callers = {}

    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name, cls)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute):
                    on_self = isinstance(func.value, ast.Name) and func.value.id == "self"
                    name = f"{cls}.{func.attr}" if on_self and cls else func.attr
                else:
                    name = getattr(func, "id", None)
                callers.setdefault(name, set()).add(scope)
            visit(child, scope, cls)

    for path in (ROOT / "src" / "hallq").glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return callers


def is_called(callers, path):
    """Whether some engine function calls the def at `module[.Class].name`."""
    _module, *owner, name = path.split(".")
    return name in callers or (bool(owner) and f"{owner[0]}.{name}" in callers)


def callers_of(callers, name):
    """The engine functions that call a def called `name`, on `self` or not."""
    return set().union(*(s for k, s in callers.items() if k and k.rsplit(".", 1)[-1] == name))


def test_traced_names_without_an_engine_caller(monkeypatch):
    # the traced names only the benchmark keeps alive: the list to move
    # into tests/ when the benchmark next changes (operators are called by
    # `*` and `+`, not by name)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    callers = engine_callers()
    uncalled = {
        path
        for fns in tracer.FUNCS.values()
        for path in fns.values()
        if not path.endswith("__") and not is_called(callers, path.split()[0])
    }
    assert uncalled == {
        "fplin.row_space", "fplin.in_row_space", "quiver.Quiver.simple_coords",
        # E·E counts Ext^1 cocycles; only the tests' subobject route reads it
        "repcat.RepCategory.hall_number",
        # the base-change group comes with its inverses from one batched
        # elimination (`fplin.all_invertible`); no matrix is inverted alone
        "fplin.inverse",
    }
    assert "inverse" not in callers


def test_engine_defs_without_an_engine_caller():
    # every def in src/hallq that no engine function calls, leaving out
    # dunders, properties and functions passed as values (an argparse
    # `type=`, a `key=`, a compute callback); a `self.f(...)` call counts
    # only for its own class's `f`.  Code only tests read lives in
    # tests/reference.py, so these are all the exceptions
    callers, passed, defs = engine_callers(), set(), []
    for path in (ROOT / "src" / "hallq").glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for arg in node.args + [kw.value for kw in node.keywords]:
                    passed.add(arg.attr if isinstance(arg, ast.Attribute) else getattr(arg, "id", None))
        for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            owner = path.stem if scope is tree else f"{path.stem}.{scope.name}"
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.endswith("__"):
                    continue
                if any(getattr(d, "id", None) == "property" for d in fn.decorator_list):
                    continue
                if fn.name not in passed and not is_called(callers, f"{owner}.{fn.name}"):
                    defs.append(f"{owner}.{fn.name}")
    assert sorted(defs) == sorted([
        # traced in perfbench/tracer.py FUNCS; they move into tests/ when
        # the benchmark next changes (ROADMAP item 8)
        "fplin.row_space", "fplin.in_row_space", "fplin.inverse",
        "quiver.Quiver.simple_coords", "repcat.RepCategory.hall_number",
        # acceptance criterion 6 reads it (tests/test_acceptance.py)
        "repcat.RepCategory.hom_count",
        # the coproduct family, which ROADMAP item 10 makes production code
        "hall.HallAlgebra.coproduct_square", "hall.HallAlgebra.pair_with_tensor",
    ])


def test_one_runner_skips_on_a_bound():
    # only `combo.run_check` turns a blown enumeration bound into a skipped
    # check row; `cli` catches it only in `main` (exit 3) and in `cmd_verify`,
    # around a suite's setup and to close a `--json` report it cuts short
    catchers = set()
    for path in (ROOT / "src" / "hallq").glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and "EnumerationTooLarge" in {
                    getattr(n, "id", None) for n in ast.walk(node.type or ast.Pass())
                }:
                    catchers.add((path.stem, func.name))
    assert catchers == {("combo", "run_check"), ("cli", "main"), ("cli", "cmd_verify")}


def test_one_subobject_table_join():
    # the Hall numbers, the coproduct and one join read the subobject
    # tables; rules R4, R5 and both sides of the Drinfeld check share it
    callers = engine_callers()
    assert callers_of(callers, "subquot_table") == {"hall_number", "_join", "coproduct"}
    assert callers_of(callers, "_join") == {"_fe_expand", "eab", "check_dd_identity"}


def test_workload_imports_resolve():
    # every `from hallq... import name` in the workload module, private
    # names among them
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hallq")
        for alias in node.names
    ]
    assert ("hallq.cli", "_generator_elements") in imports
    assert ("hallq.cli", "_loc_of") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_private_names_the_workloads_call(a2):
    from hallq import ComplexCategory, DHAlgebra, RelationVerifier
    from hallq.cli import _generator_elements, _loc_of

    dh = DHAlgebra(a2)
    cpx = ComplexCategory(a2)
    gens = _generator_elements(a2, dh, 1)
    assert [name for name, _ in gens[:2]] == ["E[0,1|]", "F[0,1|]"]
    for _name, x in gens:
        assert cpx.normalize(_loc_of(cpx, dh, x)) == cpx.eval_dh_element(x)
    # the relation suite is timed per check by patching `_try` on the
    # instance; every row it reports must pass through it
    verifier = RelationVerifier(a2)
    inner, seen = verifier._try, []
    verifier._try = lambda cid, compute: seen.append(cid) or inner(cid, compute)
    assert [row["id"] for row in verifier.verify_all()] == seen
