"""Tests of the benchmark itself (not part of the engine's test suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests

The fidelity tests run `hallq verify` on the Kronecker and l2m2 quivers and
take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import refloop  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from hallq import parse_quiver  # noqa: E402

A2 = (ROOT / "tests" / "data" / "a2.quiver").read_text()


def cli_verify(quiver, seed=wl.DEFAULT_SEED):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "hallq.cli", "verify", "--quiver",
         str(ROOT / "tests" / "data" / f"{quiver}.quiver"), "--suite", "all",
         "--max-dim", str(wl.VERIFY_MAX_DIM), "--seed", str(seed), "--json"],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)["checks"]


def run_ops(workload):
    ops = []
    workload.run(lambda: 0.0, lambda cid, _t0, _t1, status, text: ops.append((cid, status, text)))
    return ops


def test_quivers_match_fixtures():
    for name, text in wl.QUIVERS.items():
        fixture = (ROOT / "tests" / "data" / f"{name}.quiver").read_text()
        assert parse_quiver(text).content_key() == parse_quiver(fixture).content_key()


@pytest.mark.parametrize("quiver", ["kronecker", "l2m2"])
def test_verify_ops_are_the_cli_checks(quiver):
    """Ids, statuses and rendered rows equal `hallq verify --suite all --json`.

    The CLI's single oracle row on a quiver with loops says the suite does
    not apply; the benchmark has no such op.
    """
    rows = [c for c in cli_verify(quiver) if c["id"] != "oracle"]
    ops = run_ops(wl.VerifyWorkload(wl.QUIVERS[quiver], wl.DEFAULT_SEED))
    assert [(cid, status) for cid, status, _ in ops] == [(c["id"], c["status"]) for c in rows]
    assert [text for *_, text in ops] == [wl.check_line(c, c["status"]) for c in rows]
    golden = json.loads((BENCH / "golden.json").read_text())[f"verify-{quiver}"]
    fixed = [wl.check_line(c, c["status"]) for c in rows if not wl.is_random_op(c["id"])]
    rand = [wl.check_line(c, c["status"]) for c in rows if wl.is_random_op(c["id"])]
    assert wl.digest(fixed) == golden["fixed"]
    assert wl.digest(rand) == golden["random"][str(wl.DEFAULT_SEED)]


def test_random_triples_follow_the_seed():
    def random_ids(seed):
        ops = wl.VerifyWorkload(wl.QUIVERS["kronecker"], seed)._assoc_ops()
        return [cid for cid, _op in ops if wl.is_random_op(cid)]

    assert random_ids(1) == random_ids(1) != random_ids(2)
    assert len(random_ids(1)) == wl.RANDOM_TRIPLES


def test_warm_cache_tables_equal_halltable_tables(tmp_path):
    cache = tmp_path / "mixed.jsonl"
    built = run_ops(wl.HalltableWorkload(wl.QUIVERS["mixed"], 1, cache, max_dim=3))
    assert {status for _cid, status, _text in built} == {"pass"}
    warm = wl.WarmCacheWorkload(wl.QUIVERS["mixed"], 2, cache, sessions=2, max_dim=3)
    sessions = run_ops(warm)
    want = wl.table_digest(text for *_, text in built)
    assert [(status, text) for _cid, status, text in sessions] == [("pass", want)] * 2


def test_mass_formula_catches_a_wrong_class_count():
    from hallq import RepCategory

    cat = RepCategory(parse_quiver(wl.QUIVERS["mixed"]))
    classes = cat.classify((1, 1))
    assert wl.mass_formula_holds(cat, (1, 1), classes)
    assert not wl.mass_formula_holds(cat, (1, 1), classes[1:])


def traced_counts():
    tracer = tr.Tracer()
    tracer.install()
    try:
        ops = run_ops(wl.VerifyWorkload(A2, wl.DEFAULT_SEED, max_dim=1))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(wall_s=1.0, overhead_s=0.0)
    counts = {k: v["value"] for k, v in metrics.items()
              if v["unit"] in ("count", "B", "ratio")}
    return ops, counts


def test_counters_repeat_exactly():
    ops1, counts1 = traced_counts()
    ops2, counts2 = traced_counts()
    assert ops1 == ops2
    assert counts1 == counts2
    assert counts1["repcat.classify.calls"] > 0
    assert counts1["cplx.product.calls"] > 0
    assert counts1["repcat.classes_found"] > 0


def test_tracer_restores_the_engine():
    from hallq import fplin, scalar

    rref, mul = fplin.rref, scalar.Scalar.__mul__
    tracer = tr.Tracer()
    tracer.install()
    assert fplin.rref is not rref
    assert scalar.Scalar.__rmul__ is scalar.Scalar.__mul__
    tracer.uninstall()
    assert fplin.rref is rref and scalar.Scalar.__mul__ is mul


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    # outer spans ticks 0..3, inner spans ticks 1..2
    assert tracer.agg["outer"]["op"] == [1, 3.0, 2.0]
    assert tracer.agg["inner"]["outer"] == [1, 1.0, 1.0]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # warm-cache-mixed first: its first run in a checkout builds the cache file
    assert [w["name"] for w in spec["workloads"]] == ["warm-cache-mixed", "verify-kronecker"]
    assert set(wl.WORKLOADS) >= {w["name"] for w in spec["workloads"]}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        m for m in run.END_TO_END if m[0] not in run.PRINT_ONLY]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tr.metric_specs()
    assert len(spec["per_layer"]) <= 128


def test_check_results_rejects_a_digest_mismatch():
    res = {"ops": [("x", 0.1, "pass")], "digests": {"tables": ["0" * 64]}}
    with pytest.raises(run.BenchError):
        run.check_results("halltable-mixed", wl.DEFAULT_SEED, [res])
    res["ops"] = [("x", 0.1, "fail")]
    with pytest.raises(run.BenchError):
        run.check_results("halltable-mixed", wl.DEFAULT_SEED, [res])


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-l2m2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_op_latencies_are_medians_over_passes():
    passes = [{"ops": [("a", 2.0, "pass"), ("b", 1.0, "pass")]},
              {"ops": [("a", 1.5, "pass"), ("b", 3.0, "pass")]},
              {"ops": [("a", 9.0, "pass"), ("b", 2.0, "pass")]}]
    assert run.median_latencies(passes) == [2.0, 2.0]
    passes[1]["ops"].reverse()
    with pytest.raises(run.BenchError):
        run.median_latencies(passes)


def test_ref_units_follow_the_loop_time_nearby():
    probe = refloop.SpeedProbe(lambda: 0.0)
    # 20 loops of 1 s every 10 s, then 20 loops of 2 s: the machine halves its speed
    for i in range(40):
        start, length = 10.0 * i, 1.0 if i < 20 else 2.0
        probe.spans.append((start, start + length))
        probe.mids.append(start + length / 2)
        probe.durations.append(length)
    assert probe.speed_at(15.0) == 1.0 and probe.speed_at(385.0) == 2.0
    assert probe.spent(0.5, 21.5) == 0.5 + 1.0 + 1.0
    assert probe.in_refs(1.0, 10.0) == 9.0
    assert probe.in_refs(352.0, 370.0) == (8.0 + 8.0) / 2.0
    assert probe.in_refs(30.0, 30.0) == 0.0
