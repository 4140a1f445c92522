"""The benchmark tracer's wrapped names still exist in the engine.

`perfbench/tracer.py` wraps the functions named in its `FUNCS` mapping; a
refactor that renames or deletes one of them breaks `run.py --trace 1`.
This test only reads the mapping.
"""

import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    paths = [path for fns in tracer.FUNCS.values() for path in fns.values()]
    assert paths
    for path in paths:
        owner, attrs = tracer._resolve(path)
        for attr in attrs:
            assert attr in owner.__dict__, path
