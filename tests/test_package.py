import pathlib

import hallq
from hallq import ComplexCategory, DHAlgebra, RepCategory

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_all_exports_resolve():
    missing = [name for name in hallq.__all__ if not hasattr(hallq, name)]
    assert not missing


def test_memo_inventory(kronecker):
    # every dict an engine context holds once built: its memos, its two
    # registries (`_class`, `_registry`) and the cache key heads.  A new
    # memo changes this list and the README's "Memos" section together
    cat = RepCategory(kronecker.quiver)
    contexts = [cat, DHAlgebra(cat), ComplexCategory(cat), cat.quiver.scalar_ring()]
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
        "ScalarRing": ["_v_pows"],
    }
    memos = README.read_text().partition("\n## Memos\n")[2].partition("\n## ")[0]
    assert [n for names in dicts.values() for n in names if f"`{n}`" not in memos] == []
