import ast
import pathlib

import hallq
from hallq import ComplexCategory, DHAlgebra, HallAlgebra, RepCategory
from hallq.cli import main
from hallq.scalar import Scalar
from hallq.uq import GeneratorTable

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
DATA = pathlib.Path(__file__).parent / "data"


def test_all_exports_resolve():
    missing = [name for name in hallq.__all__ if not hasattr(hallq, name)]
    assert not missing


def test_memo_inventory(kronecker):
    # every dict an engine context holds once built: its memos, its two
    # registries (`_class`, `_registry`) and the cache key heads.  A new
    # memo changes this list and the README's "Memos" section together
    cat = RepCategory(kronecker.quiver)
    contexts = [cat, DHAlgebra(cat), ComplexCategory(cat), cat.quiver, cat.quiver.scalar_ring()]
    dicts = {
        type(obj).__name__: sorted(k for k, v in vars(obj).items() if isinstance(v, dict))
        for obj in contexts
    }
    assert dicts == {
        "RepCategory": ["_class", "_classify", "_gl", "_hom_rows", "_key_heads", "_middle",
                        "_stacks", "_subquot", "_sums"],
        "DHAlgebra": ["_eab", "_mono"],
        "ComplexCategory": ["_auts", "_halves", "_monomials", "_product_cache", "_raw_halves",
                            "_registry", "_resolutions"],
        "Quiver": ["_forms", "index"],
        "ScalarRing": ["_v_pows"],
    }
    memos = README.read_text().partition("\n## Memos\n")[2].partition("\n## ")[0]
    assert [n for names in dicts.values() for n in names if f"`{n}`" not in memos] == []


def test_every_context_holds_the_quivers_one_ring(kronecker):
    quiver = kronecker.quiver
    cat = RepCategory(quiver)
    dh = DHAlgebra(cat)
    contexts = [cat, dh, HallAlgebra(cat), ComplexCategory(cat), GeneratorTable(cat, dh)]
    assert [type(obj).__name__ for obj in contexts if obj.ring is not quiver.scalar_ring()] == []


def test_a_verify_pass_mixes_no_rings(capsys, monkeypatch):
    # the Kronecker pass of the verify-kronecker benchmark (every suite, as
    # the CLI builds its contexts, at the default seed 20259) hands no
    # Scalar of another ring object to `Scalar._coerce`
    crossed = []
    coerce = Scalar._coerce

    def counting(self, other):
        if type(other) is Scalar and other.ring is not self.ring:
            crossed.append(other)
        return coerce(self, other)

    monkeypatch.setattr(Scalar, "_coerce", counting)
    code = main(["verify", "--quiver", str(DATA / "kronecker.quiver"), "--suite", "all",
                 "--max-dim", "2", "--max-total-dim", "4", "--seed", "20259", "--json"])
    assert code == 0 and capsys.readouterr().out
    assert len(crossed) == 0


def test_only_the_quiver_builds_a_scalar_ring():
    # every context reads its ring from `Quiver.scalar_ring`; a private
    # ScalarRing would bring back cross-ring coercions
    calls = {}
    for path in pathlib.Path(hallq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ScalarRing":
                calls[path.name] = calls.get(path.name, 0) + 1
    assert calls == {"quiver.py": 1}


def test_imports_are_the_standard_library_and_numpy():
    # pyproject.toml lists numpy as the one dependency, and fplin alone
    # loads it, lazily, for the other modules to share.  found: top-level
    # module -> the modules of the package that import it, by an import
    # statement or by `_lazy_import("name")`; imports within the package
    # are left out
    import sys

    found = {}
    for path in pathlib.Path(hallq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_import"
                  and isinstance(node.args[0], ast.Constant)):
                names = [node.args[0].value]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], set()).add(path.stem)
    # one name from each kind of import the walk reads
    assert {"graphlib", "fractions", "numpy"} <= found.keys()
    assert sorted(found.keys() - sys.stdlib_module_names) == ["numpy"]
    assert found["numpy"] == {"fplin"}
    # the Hall-counting coefficients of `repcat` and `cplx` are powers of v
    # times integers, so no rational is built there
    assert found["fractions"] == {"scalar", "quiver", "uq"}


# one session up to total dimension 2: cache file argv[1], quiver file argv[2]
SESSION = """
import json, sys, types

def numpy_modules():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

import hallq
from hallq import CacheStore, DHAlgebra, RepCategory, parse_quiver

after_import = numpy_modules()
quiver = parse_quiver(open(sys.argv[2], encoding="utf-8").read())
cat = RepCategory(quiver, store=CacheStore(sys.argv[1]))
classes = cat.classes_up_to_total_dim(2)
tables = [sorted([qk, sk, n] for (qk, sk), n in cat.subquot_table(c).items()) for c in classes]
DHAlgebra(cat)
numpy = sys.modules["numpy"]
print(json.dumps({
    "after_import": after_import,
    "after_session": numpy_modules(),
    "classes": [[c.key, c.aut_order, list(c.kclass)] for c in classes],
    "tables": tables,
    "bindings": [[getattr(hallq, m).np is numpy, type(getattr(hallq, m).np) is types.ModuleType]
                 for m in ("fplin", "repcat", "cplx")],
}))
"""


def test_numpy_loads_on_first_matrix_use(tmp_path):
    # `import hallq` loads no numpy module; a cold session loads numpy and
    # binds it in every module that uses it; a warm session reads the same
    # classes and tables back from the cache and never loads numpy
    import json
    import os
    import subprocess
    import sys

    src = str(pathlib.Path(hallq.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    quiver = pathlib.Path(__file__).parent / "data" / "mixed.quiver"

    def session():
        proc = subprocess.run(
            [sys.executable, "-c", SESSION, str(tmp_path / "c.jsonl"), str(quiver)],
            capture_output=True, env=env, check=True,
        )
        return json.loads(proc.stdout)

    cold = session()
    warm = session()
    assert cold["after_import"] == warm["after_import"] == []
    assert cold["after_session"]
    assert cold["bindings"] == [[True, True]] * 3
    assert warm["after_session"] == []
    assert (warm["classes"], warm["tables"]) == (cold["classes"], cold["tables"])
    assert len(cold["classes"]) > 1
