"""The benchmark's workloads, as ordered lists of ops on a cold engine.

An op is one unit of user-visible work: one verify check, one `classify`
call, one subobject (Hall-number) table, or one warm-cache session.  Each
op returns `(status, text)`: status is "pass", "fail" or "skipped", as in
`hallq verify --json`, and text is the op's rendered output, which feeds
the output digest.  An op also checks its own exact result and returns
"fail" when that check does not hold.

Everything here goes through the library API of `hallq`, with three
private helpers reused so that the ops are the ones users run: the relation
suite is split into its checks by timing `RelationVerifier._try`, the one
call each relation check goes through, and the generator elements and the
complex-side evaluation come from `hallq.cli` (`_generator_elements` and
`_loc_of`), as `hallq verify` builds them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

DEFAULT_SEED = 20259
VERIFY_MAX_DIM = 2
# As `hallq verify --max-total-dim 4`.  Under the default bound of 6, a
# random triple of three E (or three F) generators of dimension 2 can make
# the Kronecker quiver classify total dimension 5 or 6, or list GL_5(F_2),
# which takes from seconds to hours.  With this bound such a triple is
# skipped.  The default seed draws none, so its rows are those of the CLI.
VERIFY_MAX_TOTAL_DIM = 4
SERRE_CAP = 4
RANDOM_TRIPLES = 10
TABLE_MAX_DIM = 4

# Copies of tests/data/{kronecker,l2m2,mixed}.quiver; the benchmark's tests
# check that they still parse to the same quivers.
QUIVERS = {
    "kronecker": "field p=2\nvertex 1 loops=0\nvertex 2 loops=0\nedge 1 2\nedge 1 2\n",
    "l2m2": "field p=2\nvertex 1 loops=2 charge=2\n",
    "mixed": "field p=2\nvertex 1 loops=2 charge=2\nvertex 2 loops=0\nedge 2 1\n",
}

# name -> (quiver, kind, passes).  A pass is one process running the
# workload's whole op list on a cold engine; a run makes a fixed number of
# them, so the work in a run never depends on how fast the code is.  An
# op's latency is its median over the passes, which leaves out a pass that
# met a burst of load from outside (see README, "Noise").  On a 2-core Intel Xeon
# VM at the seed commit a pass takes about 11, 16, 30 and 30 s.
WORKLOADS = {
    "verify-kronecker": ("kronecker", "verify", 5),
    # Its sessions already repeat the same work, so one pass is as steady
    # as the Kronecker median of five.
    "warm-cache-mixed": ("mixed", "warm", 1),
    # Not in BENCHMARK.json, and run by name.  A verify-l2m2 run spread by
    # more than the largest bound over ten seeds.  A halltable-mixed pass
    # takes about 30 s, too long to repeat in every benchmark run; it
    # builds the warm-cache file.
    "verify-l2m2": ("l2m2", "verify", 2),
    "halltable-mixed": ("mixed", "halltable", 1),
}
WARM_SESSIONS = 30  # per pass: op_tail_ref needs more than 21 to lie above p50


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def check_line(check: dict, status: str) -> str:
    """One verify row in the fields `hallq verify --json` prints."""
    return "\t".join(
        [check["id"], status, check["lhs"], check["rhs"], check["residual"]]
    )


def _status(ok) -> str:
    return {True: "pass", False: "fail", None: "skipped"}[ok]


# ----------------------------------------------------------------------
# verify-* workloads: the checks of `hallq verify --suite all --max-dim 2`


def _no_pause():
    pass


def _result(check: dict, ok) -> tuple:
    status = _status(ok)
    return status, check_line(check, status)


def _dh_check(dh, cid, lhs, rhs):
    """An equality check in the row format `hallq verify` reports."""
    check = {"id": cid, "lhs": dh.render(lhs), "rhs": dh.render(rhs),
             "residual": dh.render(lhs - rhs)}
    return _result(check, lhs == rhs)


def _skip(cid, exc):
    check = {"id": cid, "lhs": "", "rhs": "", "residual": f"skipped: {exc}"}
    return _result(check, None)


class VerifyWorkload:
    """The suites relations, drinfeld, assoc and (loop-free only) oracle.

    Each suite builds its own straightening context, as the CLI does.  The
    relation checks all run inside one `verify_all` call, so each is timed
    at `RelationVerifier._try` and recorded once the call returns.
    """

    def __init__(self, quiver_text, seed, max_dim=VERIFY_MAX_DIM):
        from hallq import Bounds, RepCategory, parse_quiver

        self.seed = seed
        self.max_dim = max_dim
        bounds = Bounds(max_total_dim=VERIFY_MAX_TOTAL_DIM)
        self.cat = RepCategory(parse_quiver(quiver_text), bounds=bounds)
        self.loop_free = not any(self.cat.quiver.loops)
        # the class enumeration the op list needs
        self.classes = self.cat.classes_up_to_total_dim(max_dim)

    def run(self, clock, record, pause=_no_pause):
        """Run every op; record(id, start, end, status, text) sees each one.

        pause() is called before each op starts.
        """
        self._relations(clock, record, pause)
        for cid, op in self._drinfeld_ops():
            _timed(clock, record, cid, op, pause)
        for cid, op in self._assoc_ops():
            _timed(clock, record, cid, op, pause)
        if self.loop_free:
            for cid, op in self._oracle_ops():
                _timed(clock, record, cid, op, pause)

    def _relations(self, clock, record, pause):
        from hallq import RelationVerifier

        verifier = RelationVerifier(self.cat, serre_cap=SERRE_CAP)
        inner = verifier._try
        spent = {}

        def timed_try(cid, compute):
            pause()
            t0 = clock()
            check = inner(cid, compute)
            spent[cid] = (t0, clock())
            return check

        verifier._try = timed_try
        for check in verifier.verify_all():
            ok = check["ok"]
            if ok is not None and ok != (check["residual"] == "0"):
                ok = False
            if check["id"] not in spent:
                raise RuntimeError(f"relation check {check['id']!r} was not timed")
            status, text = _result(check, ok)
            record(check["id"], *spent[check["id"]], status, text)

    def _drinfeld_ops(self):
        from hallq import DHAlgebra, HallAlgebra

        hall = HallAlgebra(self.cat)
        dh = DHAlgebra(self.cat)

        def op(a, b):
            check = hall.check_dd_identity(a, b, dh)
            ok = check["ok"] and check["residual"] == "0"
            return _result(check, ok)

        for a in self.classes:
            for b in self.classes:
                yield f"drinfeld[{a.key};{b.key}]", lambda a=a, b=b: op(a, b)

    def _assoc_ops(self):
        from hallq import DHAlgebra, EnumerationTooLarge
        from hallq.cli import _generator_elements

        dh = DHAlgebra(self.cat)

        def op(cid, xa, xb, xc):
            try:
                lhs = dh.product(dh.product(xa, xb), xc)
                rhs = dh.product(xa, dh.product(xb, xc))
            except EnumerationTooLarge as exc:
                return _skip(cid, exc)
            return _dh_check(dh, cid, lhs, rhs)

        gens = _generator_elements(self.cat, dh, min(self.max_dim, 1))
        for na, xa in gens:
            for nb, xb in gens:
                for nc, xc in gens:
                    cid = f"assoc {na} {nb} {nc}"
                    yield cid, lambda c=cid, a=xa, b=xb, d=xc: op(c, a, b, d)
        # drawn as `hallq verify --seed` draws them
        rng = random.Random(self.seed)
        pool = _generator_elements(self.cat, dh, self.max_dim)
        for t in range(RANDOM_TRIPLES):
            (na, xa), (nb, xb), (nc, xc) = (rng.choice(pool) for _ in range(3))
            cid = f"assoc random#{t} {na} {nb} {nc}"
            yield cid, lambda c=cid, a=xa, b=xb, d=xc: op(c, a, b, d)

    def _oracle_ops(self):
        from hallq import ComplexCategory, DHAlgebra
        from hallq.cli import _generator_elements, _loc_of

        cpx = ComplexCategory(self.cat)
        dh = DHAlgebra(self.cat)

        def op(cid, xa, xb):
            product_dh = dh.product(xa, xb)
            direct = cpx.normalize(cpx.product(_loc_of(cpx, dh, xa), _loc_of(cpx, dh, xb)))
            via_dh = cpx.eval_dh_element(product_dh)
            check = {"id": cid, "lhs": cpx.render(direct), "rhs": cpx.render(via_dh),
                     "residual": cpx.render(direct - via_dh)}
            return _result(check, direct == via_dh)

        gens = _generator_elements(self.cat, dh, self.max_dim)
        for na, xa in gens:
            for nb, xb in gens:
                cid = f"oracle {na} o {nb}"
                yield cid, lambda c=cid, a=xa, b=xb: op(c, a, b)


def _timed(clock, record, cid, op, pause):
    pause()
    t0 = clock()
    status, text = op()
    record(cid, t0, clock(), status, text)


def is_random_op(cid: str) -> bool:
    return cid.startswith("assoc random#")


# ----------------------------------------------------------------------
# halltable-mixed and warm-cache-mixed


def dim_vectors(n, max_total):
    """Dimension vectors of total dimension <= max_total, by total."""
    return [
        d for t in range(max_total + 1)
        for d in itertools.product(range(t + 1), repeat=n) if sum(d) == t
    ]


def group_order(d, p) -> int:
    """|prod GL(d_i, F_p)|, computed here independently of the engine."""
    out = 1
    for n in d:
        for i in range(n):
            out *= p**n - p**i
    return out


def classify_text(d, classes) -> str:
    rows = ",".join(f"{c.key}:{c.aut_order}" for c in classes)
    return f"classify {','.join(map(str, d))}\t{rows}"


def mass_formula_holds(cat, d, classes) -> bool:
    """Sum over classes of |G_d| / |Aut C| equals p^(matrix entries)."""
    q = cat.quiver
    g = group_order(d, q.p)
    if any(g % c.aut_order for c in classes):
        return False
    entries = sum(d[t] * d[h] for t, h in q.arrows)
    return sum(g // c.aut_order for c in classes) == q.p**entries


def table_text(key, table) -> str:
    rows = sorted([qk, sk, n] for (qk, sk), n in table.items())
    return f"table {key}\t{json.dumps(rows)}"


def classify_op(cat, d):
    """Classify one dimension vector; a blown bound is a skip."""
    from hallq import EnumerationTooLarge

    try:
        classes = cat.classify(d)
    except EnumerationTooLarge as exc:
        return "skipped", f"classify {','.join(map(str, d))}\tskipped: {exc}", []
    status = "pass" if mass_formula_holds(cat, d, classes) else "fail"
    return status, classify_text(d, classes), classes


def table_digest(lines) -> str:
    """Digest of classify and table outputs, independent of their order."""
    return digest(sorted(lines))


class HalltableWorkload:
    """Classify every dimension <= 4 and build every class's table.

    Results persist to the cache file given, which must not exist yet.
    The seed shuffles the order in which the tables are built.
    """

    def __init__(self, quiver_text, seed, cache_path, max_dim=TABLE_MAX_DIM):
        from hallq import CacheStore, RepCategory, parse_quiver

        self.seed = seed
        self.cat = RepCategory(parse_quiver(quiver_text), store=CacheStore(cache_path))
        self.dims = dim_vectors(self.cat.quiver.n, max_dim)

    def run(self, clock, record, pause=_no_pause):
        classes = []
        for d in self.dims:
            pause()
            t0 = clock()
            status, text, found = classify_op(self.cat, d)
            record(f"classify {d}", t0, clock(), status, text)
            classes.extend(found)
        random.Random(self.seed).shuffle(classes)
        for c in classes:
            pause()
            t0 = clock()
            text = table_text(c.key, self.cat.subquot_table(c))
            record(f"table {c.key}", t0, clock(), "pass", text)


class WarmCacheWorkload:
    """Repeated sessions against a cache file written by halltable-mixed.

    A session opens the file, builds a fresh RepCategory, classifies every
    dimension <= 4 and fetches every table, in an order the seed shuffles.
    Its output is the same set of lines halltable-mixed produces.
    """

    def __init__(self, quiver_text, seed, cache_path, sessions=WARM_SESSIONS,
                 max_dim=TABLE_MAX_DIM):
        from hallq import parse_quiver

        self.quiver = parse_quiver(quiver_text)
        self.rng = random.Random(seed)
        self.cache_path = cache_path
        self.sessions = sessions
        self.dims = dim_vectors(self.quiver.n, max_dim)

    def session(self, pause=_no_pause):
        from hallq import CacheStore, RepCategory

        cat = RepCategory(self.quiver, store=CacheStore(self.cache_path))
        lines, classes, status = [], [], "pass"
        for d in self.dims:
            st, text, found = classify_op(cat, d)
            if st == "fail":
                status = "fail"
            lines.append(text)
            classes.extend(found)
        self.rng.shuffle(classes)
        for c in classes:
            pause()
            lines.append(table_text(c.key, cat.subquot_table(c)))
        return status, table_digest(lines)

    def run(self, clock, record, pause=_no_pause):
        """pause() is also called inside a session, between its tables."""
        for s in range(self.sessions):
            pause()
            t0 = clock()
            status, text = self.session(pause)
            record(f"session {s}", t0, clock(), status, text)

