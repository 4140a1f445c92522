#!/usr/bin/env python3
"""The hallq benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Without --workload every workload runs,
one after another.  Each measured pass runs in a fresh Python process with
a cold engine, never two at a time.  The last line of standard output is
one JSON object: for one workload {"correct", "attempted", "failed",
"metrics"}, for all of them one such object per workload name.  Any failed
exact check or digest mismatch exits with code 1 and prints no numbers.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_PROBES = 9  # extra set-up-only processes per run, for a steady median
RUN_TIMEOUT_S = 170  # for the passes and set-ups of one run, so a run ends in time
TAIL_BEYOND = 10  # op_tail_*: highest percentile with this many ops above it

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("done_frac", "ratio"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)
# Printed but left out of the JSON result and BENCHMARK.json.  Times in
# seconds move with the speed of the machine, which drifts by more than the
# largest bound a benchmark metric may have; their *_ref forms do not (see
# refloop.py and README, "Noise").  The median Kronecker op is one of a
# crowd of short assoc checks, and op_p50_ref spread by 0.13 over ten
# seeds there, above a third of its bound.
PRINT_ONLY = ("op_p50_ref", "wall_s", "op_p50_ms", "op_tail_ms")


class BenchError(RuntimeError):
    """A failed exact check, digest mismatch or crashed worker."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    # Part of the command line every benchmark accepts.  Each workload here
    # runs a fixed number of passes instead, so that a run's work never
    # depends on the speed of the code under test; the value is only logged.
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hallq" / "__init__.py").is_file():
        print(f"error: no hallq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    results = {}
    try:
        WORK.mkdir(parents=True, exist_ok=True)
        print(f"# env {json.dumps(environment())}")
        for name in names:
            results[name] = run_workload(name, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


# ----------------------------------------------------------------------
# one workload


def run_workload(name, args):
    kind = wl.WORKLOADS[name][1]
    passes = 1 if args.trace else wl.WORKLOADS[name][2]
    print(f"# workload {name} seed={args.seed} seconds={args.seconds} "
          f"passes={passes} trace={args.trace}")
    # Building the warm-cache file, once per checkout, has a limit of its
    # own, so a run that builds may take up to twice RUN_TIMEOUT_S.
    cache = cache_file_for(name, kind, time.monotonic() + RUN_TIMEOUT_S)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    results, setups = [], []
    mode = "trace" if args.trace else "pass"
    for _ in range(passes):
        res, setup = spawn(mode, name, args.seed, deadline, cache)
        results.append(res)
        setups.append(setup)
    if kind == "halltable":
        cache.unlink(missing_ok=True)

    failed = check_results(name, args.seed, results)
    attempted = sum(len(res["ops"]) for res in results)
    if args.trace:
        metrics = results[0]["trace"]["metrics"]
        trace_file = WORK / f"trace-{name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(results[0]["trace"]))
        print(f"# trace written to {trace_file.relative_to(ROOT)}")
    else:
        for _ in range(SETUP_PROBES):
            setups.append(spawn("setup", name, args.seed, deadline, probe_file(kind))[1])
        metrics = end_to_end(results, setups)
    for metric, entry in metrics.items():
        print(f"{metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    metrics = {k: v for k, v in metrics.items() if k not in PRINT_ONLY}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def median_latencies(results, field=1):
    """Each op's median latency over the run's passes.

    field 1 is the latency in seconds, field 3 in ref units.  Every pass
    runs the same ops in the same order on a cold engine.  A burst of load
    from outside, or a reference loop that slows more or less than the
    engine around it, moves one pass; the median leaves it out, where the
    best pass would pick up every fast error.
    """
    ids = [op[0] for op in results[0]["ops"]]
    for res in results[1:]:
        if [op[0] for op in res["ops"]] != ids:
            raise BenchError("passes of one run ran different ops")
    return [statistics.median(res["ops"][i][field] for res in results)
            for i in range(len(ids))]


def end_to_end(results, setups):
    lat = sorted(median_latencies(results))
    refs = sorted(median_latencies(results, field=3))
    ops = [op for res in results for op in res["ops"]]
    k = max(0, len(lat) - 1 - TAIL_BEYOND)
    print(f"# op latencies are each op's median over {len(results)} passes; op_tail_* "
          f"is the p{100 * (k + 1) / len(lat):.2f} of {len(lat)} ops "
          f"({len(lat) - 1 - k} ops above it)")
    print(f"# setup_s is the median of {len(setups)} set-ups: "
          + " ".join(f"{s:.4f}" for s in setups))
    print("# pass walls: " + " ".join(f"{res['wall_s']:.3f} s = {res['wall_ref']:.0f} ref"
                                      for res in results))
    loops = [statistics.median(res["ref_loops_s"]) for res in results]
    print("# reference loop, median per pass: "
          + " ".join(f"{1000 * t:.3f} ms" for t in loops)
          + f"; {sum(len(res['ref_loops_s']) for res in results)} loops in all")
    values = {
        "wall_ref": statistics.median(res["wall_ref"] for res in results),
        "setup_s": statistics.median(setups),
        "op_p50_ref": statistics.median(refs),
        "op_tail_ref": refs[k],
        "peak_rss_mb": max(res["peak_rss_kb"] for res in results) / 1024,
        "done_frac": sum(1 for op in ops if op[2] == "pass") / len(ops),
        "wall_s": statistics.median(res["wall_s"] for res in results),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * lat[k],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def check_results(name, seed, results):
    """Count failed ops; raise on any failure or digest mismatch."""
    golden = json.loads((HERE / "golden.json").read_text())
    failed = sum(1 for res in results for op in res["ops"] if op[2] == "fail")
    if failed:
        bad = [op[0] for res in results for op in res["ops"] if op[2] == "fail"]
        raise BenchError(f"{name}: {failed} ops failed their exact check: {bad[:5]}")
    for res in results:
        got = res["digests"]
        if name.startswith("verify-"):
            want = golden[name]
            if got["fixed"] != want["fixed"]:
                raise BenchError(f"{name}: output digest differs from the seed commit's")
            want_random = want["random"].get(str(seed))
            if want_random is not None and got["random"] != want_random:
                raise BenchError(f"{name}: random-triple digest differs at seed {seed}")
        else:
            tables = got["tables"] if isinstance(got["tables"], list) else [got["tables"]]
            if tables != [golden["mixed-tables"]]:
                raise BenchError(f"{name}: table digest differs from the seed commit's")
    return failed


# ----------------------------------------------------------------------
# processes


def spawn(mode, name, seed, deadline, cache_file=None):
    """Run one worker to completion; return (result, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, name, str(seed)]
    if cache_file is not None:
        cmd.append(str(cache_file))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: over {RUN_TIMEOUT_S} s at {mode}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name} {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res, res["t_first"] - t_spawn


def source_id():
    """Hash of the engine and benchmark sources: names a build of both."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/hallq/*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cache_file_for(name, kind, deadline):
    """The cache file a run uses: fresh for halltable, prebuilt for warm."""
    if kind == "halltable":
        return WORK / f"halltable-{os.getpid()}.jsonl"
    if kind != "warm":
        return None
    path = WORK / f"warm-mixed-{source_id()}.jsonl"
    if path.exists():
        print(f"# warm-cache file {path.name} reused from an earlier run")
        return path
    for old in WORK.glob("warm-mixed-*.jsonl"):
        old.unlink()  # built from other sources
    tmp = path.with_suffix(".tmp")
    t0 = time.monotonic()
    try:
        res, _setup = spawn("build", "halltable-mixed", wl.DEFAULT_SEED, deadline, tmp)
        check_results("halltable-mixed", wl.DEFAULT_SEED, [res])
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"# warm-cache file built in {time.monotonic() - t0:.2f} s "
          f"(not part of setup_s)")
    return path


def probe_file(kind):
    if kind == "halltable":
        return WORK / f"probe-{os.getpid()}.jsonl"  # never written: no op runs
    if kind == "warm":
        return WORK / f"warm-mixed-{source_id()}.jsonl"
    return None


def environment():
    """What the numbers depend on: source, machine and interpreter."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": git_commit(),
        "source": source_id(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git, or None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
