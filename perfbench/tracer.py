"""Per-layer tracing of the engine, from outside the engine.

`Tracer.install()` replaces the public functions listed in `FUNCS` with
timing wrappers: module functions as module attributes (the `fplin`
functions call each other through module globals), methods and `Scalar`
operators as class attributes.  Every call is a span with a name, start,
end and parent.  Ops are kept as individual spans; function spans are
aggregated per (function, parent) as they close, since the hot leaves run
millions of times.  Self time is a span's duration minus the time its
child spans cover.

Counters are exact: calls, distinct arguments (for `reuse`), and counts
derived from the arguments and results of the wrapped calls, such as the
number of candidate matrix tuples a classification scans.
"""

from __future__ import annotations

import inspect
import itertools
import os
import time
import weakref
from collections import Counter, defaultdict

from workloads import group_order

# layer -> {function name in metrics: attribute path in the engine}
FUNCS = {
    "repcat": {
        "classify": "repcat.RepCategory.classify",
        "class_of": "repcat.RepCategory.class_of",
        "class_by_key": "repcat.RepCategory.class_by_key",
        "subquot_table": "repcat.RepCategory.subquot_table",
        "hall_number": "repcat.RepCategory.hall_number",
        "sub_quotient": "repcat.RepCategory.sub_quotient",
        "hom_dim": "repcat.RepCategory.hom_dim",
    },
    "fplin": {
        name: f"fplin.{name}"
        for name in ("rref", "in_row_space", "inverse", "nullspace", "solve",
                     "row_space", "subspaces", "all_invertible")
    },
    "quiver": {
        name: f"quiver.Quiver.{name}"
        for name in ("euler_form", "sym_form", "simple_coords", "euler_dimvec")
    },
    "scalar": {
        "mul": "scalar.Scalar.__mul__ __rmul__",
        "add": "scalar.Scalar.__add__ __radd__",
        "from_terms": "scalar.ScalarRing.from_terms",
        "v_pow": "scalar.ScalarRing.v_pow",
    },
    "combo": {
        "add": "combo.Combination.__add__",
        "scale": "combo.Combination.scale",
        "add_term": "combo.Combination.add_term",
    },
    "dh": {
        "product": "dh.DHAlgebra.product",
        "ee_coeffs": "dh.DHAlgebra._ee_coeffs",
        "fe_expand": "dh.DHAlgebra._fe_expand",
        "eab": "dh.DHAlgebra.eab",
        "reduce": "dh.DHAlgebra.reduce",
    },
    "hall": {
        name: f"hall.HallAlgebra.{name}"
        for name in ("check_dd_identity", "product", "coproduct")
    },
    "cplx": {
        name: f"cplx.ComplexCategory.{name}"
        for name in ("product", "normalize", "eval_dh_element", "complex_key",
                     "decompose", "homotopy_classes", "cone")
    },
    "uq": {"verify_all": "uq.RelationVerifier.verify_all"},
    "cache": {
        "get": "cache.CacheStore.get",
        "put": "cache.CacheStore.put",
        "load": "cache.CacheStore._load",
    },
}

# Entry points: also report the time of their outermost calls.
TOTAL = (
    "uq.verify_all", "hall.check_dd_identity", "dh.product", "cplx.product",
    "cplx.normalize", "cplx.eval_dh_element", "cplx.decompose",
    "cplx.homotopy_classes", "repcat.classify", "repcat.subquot_table",
)


class _Serials:
    """Small integers naming engine objects for the life of the run.

    A weak map, so a serial never passes to a later object at the same
    address; the last object is remembered, since calls come in runs.
    """

    def __init__(self):
        self.serials = weakref.WeakKeyDictionary()
        self.next_serial = itertools.count()
        self.last = self.last_serial = None

    def __call__(self, obj):
        if obj is self.last:
            return self.last_serial
        serial = self.serials.get(obj)
        if serial is None:
            serial = self.serials[obj] = next(self.next_serial)
        self.last, self.last_serial = obj, serial
        return serial


def _reuse_keys():
    """Argument keys of memoized (or memo-worthy) functions.

    Keys are taken per RepCategory, the context whose memos they share.
    """
    cat = _Serials()
    quiver = _Serials()

    return {
        "repcat.classify": lambda s, d: (cat(s), tuple(int(x) for x in d)),
        "repcat.class_of": lambda s, rep: (cat(s), rep.key),
        "repcat.subquot_table": lambda s, c: (cat(s), c.key),
        "repcat.hall_number": lambda s, a, b, c: (cat(s), a.key, b.key, c.key),
        "dh.ee_coeffs": lambda s, a, b: (cat(s.cat), a, b),
        "dh.fe_expand": lambda s, b, a: (cat(s.cat), b, a),
        "dh.eab": lambda s, a, b: (cat(s.cat), a, b),
        "quiver.simple_coords": lambda s, x: (quiver(s), tuple(x)),
        "scalar.v_pow": lambda s, r: (s.p, s.n_denom, r),
    }


REUSE = tuple(_reuse_keys())

DERIVED = (
    "repcat.tuples_scanned", "repcat.group_elements", "repcat.classes_found",
    "repcat.bound_errors", "cache.hits", "cache.misses", "cache.bytes",
)


def metric_specs():
    """Every per-layer metric as (name, unit), in report order."""
    specs = []
    for layer, fns in FUNCS.items():
        for fn in fns:
            specs.append((f"{layer}.{fn}.calls", "count"))
            specs.append((f"{layer}.{fn}.self_s", "s"))
        specs.append((f"{layer}.self_s", "s"))
    specs += [(f"{name}.total_s", "s") for name in TOTAL]
    specs += [(f"{name}.reuse", "ratio") for name in REUSE]
    specs += [(name, "B" if name == "cache.bytes" else "count") for name in DERIVED]
    specs += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return specs


def _resolve(path):
    """(owner object, attribute names) for an entry of FUNCS."""
    import importlib

    dotted, *extra = path.split()
    parts = dotted.split(".")
    owner = importlib.import_module(f"hallq.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, [parts[-1], *extra]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [["op", 0.0]]  # open spans: [name, time covered by children]
        # fn -> parent fn -> [calls, total seconds, self seconds]
        self.agg: dict[str, dict[str, list]] = defaultdict(dict)
        self.totals: Counter = Counter()
        self.depth: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()
        self.bound_errors: Counter = Counter()  # fn -> errors passing through
        self.bound_origins: Counter = Counter()  # fn -> errors raised there
        self.op_spans: list = []
        self._saved: list = []

    # ------------------------------------------------------------------
    # wrappers

    def _bound_error(self, name, exc):
        self.bound_errors[name] += 1
        if not getattr(exc, "_traced", False):
            exc._traced = True
            self.bound_origins[name] += 1

    def wrap(self, name, fn, argkey=None, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        from hallq.repcat import EnumerationTooLarge

        stack, clock, recs = self.stack, self.clock, self.agg[name]
        depth, totals = self.depth, self.totals
        track_total = name in TOTAL
        distinct = self.distinct[name] if argkey else None

        def wrapper(*args, **kwargs):
            if argkey is not None:
                distinct.add(argkey(*args, **kwargs))
            token = hook.before(*args) if hook is not None else None
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            if track_total:
                depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except EnumerationTooLarge as exc:
                self._bound_error(name, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = recs.get(parent[0])
                if rec is None:
                    rec = recs[parent[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if track_total:
                    depth[name] -= 1
                    if not depth[name]:
                        totals[name] += dt
            if hook is not None:
                hook.after(token, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """Generators are timed step by step: each step is one span."""
        stack, clock, recs = self.stack, self.clock, self.agg[name]

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1  # one call per generator, however many steps it takes
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent[1] += dt
                    rec = recs.setdefault(parent[0], [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                    calls = 0
                yield item

        return wrapper

    def install(self):
        """Patch every function in FUNCS; uninstall() restores them."""
        keys = _reuse_keys()
        hooks = _hooks(self)
        for layer, fns in FUNCS.items():
            for fn_name, path in fns.items():
                name = f"{layer}.{fn_name}"
                owner, attrs = _resolve(path)
                original = owner.__dict__[attrs[0]]
                wrapped = self.wrap(name, original, keys.get(name), hooks.get(name))
                for attr in attrs:
                    self._saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def record_op(self, cid, t0, t1):
        self.op_spans.append((cid, t0, t1, None))

    # ------------------------------------------------------------------
    # results

    def calls(self, name):
        return sum(rec[0] for rec in self.agg[name].values())

    def self_s(self, name):
        return sum(rec[2] for rec in self.agg[name].values())

    def span_count(self):
        return sum(self.calls(name) for name in self.agg)

    def metrics(self, wall_s, overhead_s):
        values = {}
        for layer, fns in FUNCS.items():
            layer_self = 0.0
            for fn in fns:
                name = f"{layer}.{fn}"
                values[f"{name}.calls"] = self.calls(name)
                values[f"{name}.self_s"] = self.self_s(name)
                layer_self += values[f"{name}.self_s"]
            values[f"{layer}.self_s"] = layer_self
        for name in TOTAL:
            values[f"{name}.total_s"] = self.totals[name]
        for name in REUSE:
            calls = self.calls(name)
            values[f"{name}.reuse"] = 1 - len(self.distinct[name]) / calls if calls else 0.0
        values["repcat.bound_errors"] = sum(
            n for fn, n in self.bound_origins.items() if fn.startswith("repcat.")
        )
        for name in DERIVED:
            values.setdefault(name, self.counts[name])
        values["trace.wall_s"] = wall_s
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_specs()}

    def dump(self):
        """Everything recorded, for the trace file."""
        return {
            "op_spans": [list(s) for s in self.op_spans],
            "function_spans": sorted(
                [fn, parent, *rec] for fn, recs in self.agg.items()
                for parent, rec in recs.items()
            ),
            "distinct_args": {k: len(v) for k, v in sorted(self.distinct.items())},
            "bound_errors": dict(sorted(self.bound_errors.items())),
            "bound_error_origins": dict(sorted(self.bound_origins.items())),
            "counts": dict(sorted(self.counts.items())),
        }


class _Hook:
    def __init__(self, before, after):
        self.before = before
        self.after = after


def _hooks(tracer):
    """Counters derived from the arguments and results of wrapped calls.

    `known` mirrors, per RepCategory, the representation keys whose class
    is already settled (classified, canonicalized or registered); a
    `class_of` on any other key runs one base-change orbit over the whole
    group prod GL(d_i).  A first `classify` of a dimension vector not served
    from the persistent cache scans every candidate matrix tuple and runs
    one orbit per class found.
    """
    counts = tracer.counts
    cats = _Serials()
    classified: set = set()
    known: dict[int, set] = defaultdict(set)

    def classify_before(cat, d):
        key = (cats(cat), tuple(int(x) for x in d))
        return cat, key, key not in classified, counts["cache.hits"]

    def classify_after(token, classes):
        cat, key, first, hits = token
        if not first:
            return
        classified.add(key)
        ctx, d = key
        known[ctx].update(c.key for c in classes)
        counts["repcat.classes_found"] += len(classes)
        q = cat.quiver
        n_tuples = q.p ** sum(d[t] * d[h] for t, h in q.arrows)
        if counts["cache.hits"] == hits and n_tuples > 1:
            counts["repcat.tuples_scanned"] += n_tuples
            counts["repcat.group_elements"] += group_order(d, q.p) * len(classes)

    def class_of_before(cat, rep):
        ctx = cats(cat)
        return ctx, rep, rep.key not in known[ctx]

    def class_of_after(token, cls):
        ctx, rep, computed = token
        if computed:
            counts["repcat.group_elements"] += group_order(rep.dim, rep.quiver.p)
        known[ctx].update((rep.key, cls.key))

    def get_after(_token, value):
        counts["cache.misses" if value is None else "cache.hits"] += 1

    def size(store):
        return os.path.getsize(store.path) if store.path and os.path.exists(store.path) else 0

    def put_before(store, *_args):
        return store, size(store)

    def put_after(token, _result):
        store, before = token
        counts["cache.bytes"] += size(store) - before

    def load_after(store, _result):
        counts["cache.bytes"] += size(store)

    return {
        "repcat.classify": _Hook(classify_before, classify_after),
        "repcat.class_of": _Hook(class_of_before, class_of_after),
        "cache.get": _Hook(lambda *_a: None, get_after),
        "cache.put": _Hook(put_before, put_after),
        "cache.load": _Hook(lambda store: store, load_after),
    }


def calibrate(n=200_000):
    """Estimated cost of one traced span: wrapped minus bare call time."""

    def noop(x):
        return x

    probe = Tracer()
    plain = probe.wrap("calibrate.plain", noop)
    keyed = probe.wrap("calibrate.keyed", noop, argkey=lambda x: x)
    clock = time.perf_counter
    t0 = clock()
    for i in range(n):
        noop(i)
    bare = clock() - t0
    costs = []
    for fn in (plain, keyed):
        t0 = clock()
        for i in range(n):
            fn(i)
        costs.append(max(0.0, (clock() - t0 - bare) / n))
    return tuple(costs)
