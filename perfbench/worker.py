"""One measured pass of one workload, in a fresh process with a cold engine.

    python3 perfbench/worker.py MODE WORKLOAD SEED [CACHE_FILE]

MODE is one of
    setup  do everything up to the first op, print when that was, exit;
    pass   run every op of the workload, timing the reference loop of
           refloop.py between ops;
    trace  run every op with the per-layer tracer installed;
    build  write CACHE_FILE for warm-cache-mixed (a halltable-mixed pass).

The last line of standard output is one JSON object.  Times are read from
time.monotonic, which is one clock for every process on the machine, so
the parent can subtract its own spawn time from `t_first`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hallq  # noqa: E402  (import time is part of set-up)

import workloads as wl  # noqa: E402
from refloop import SpeedProbe  # noqa: E402


def make_workload(name, seed, cache_file):
    quiver, kind, _passes = wl.WORKLOADS[name]
    text = wl.QUIVERS[quiver]
    if kind == "verify":
        return wl.VerifyWorkload(text, seed)
    if kind == "halltable":
        return wl.HalltableWorkload(text, seed, cache_file)
    return wl.WarmCacheWorkload(text, seed, cache_file)


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    cache_file = argv[3] if len(argv) > 3 else None
    if mode in ("pass", "trace", "build") and cache_file and wl.WORKLOADS[name][1] != "warm":
        Path(cache_file).unlink(missing_ok=True)  # halltable persists to a fresh file
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(clock=time.monotonic)
        tracer.install()
    workload = make_workload(name, seed, cache_file)
    t_first = time.monotonic()
    if mode == "setup":
        print(json.dumps({"t_first": t_first, "hallq": hallq.__file__}))
        return 0

    ops, spans, lines = [], [], []

    def record(cid, t0, t1, status, text):
        spans.append((t0, t1))
        ops.append([cid, t1 - t0, status])
        lines.append((cid, text))
        if tracer is not None:
            tracer.record_op(cid, t0, t1)

    if mode == "pass":
        probe = SpeedProbe(time.monotonic)
        probe(force=True)  # a first speed sample before the first op
        t_start = time.monotonic()
        workload.run(time.monotonic, record, probe)
        t_last = time.monotonic()
        probe(force=True)
        for op, (t0, t1) in zip(ops, spans):
            op[1] -= probe.spent(t0, t1)
            op.append(probe.in_refs(t0, t1))
    else:
        t_start = t_first
        workload.run(time.monotonic, record)
        t_last = time.monotonic()
    out = {
        "t_first": t_first,
        "wall_s": t_last - t_start,
        "ops": ops,
        "digests": digests(wl.WORKLOADS[name][1], lines),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if mode == "pass":
        out["wall_s"] -= probe.spent(t_start, t_last)
        out["wall_ref"] = probe.in_refs(t_start, t_last)
        out["ref_loops_s"] = probe.durations
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = trace_result(tracer, out["wall_s"])
    print(json.dumps(out))
    return 0


def digests(kind, lines):
    if kind == "verify":
        fixed = [text for cid, text in lines if not wl.is_random_op(cid)]
        rand = [text for cid, text in lines if wl.is_random_op(cid)]
        return {"fixed": wl.digest(fixed), "random": wl.digest(rand)}
    if kind == "halltable":
        return {"tables": wl.table_digest(text for _cid, text in lines)}
    return {"tables": sorted({text for _cid, text in lines})}


def trace_result(tracer, wall_s):
    from tracer import REUSE, calibrate

    plain, keyed = calibrate()
    keyed_calls = sum(tracer.calls(name) for name in REUSE)
    overhead = plain * (tracer.span_count() - keyed_calls) + keyed * keyed_calls
    return {
        "metrics": tracer.metrics(wall_s, overhead),
        "dump": tracer.dump(),
        "span_cost_s": {"plain": plain, "with_args": keyed},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
