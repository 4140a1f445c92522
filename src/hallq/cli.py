"""Command-line front end.

    hallq classify --quiver FILE --dim d1,d2,...
    hallq product  --quiver FILE --expr "E[...] K(...) F[...]" [--reduced]
    hallq verify   --quiver FILE --suite relations|serre|drinfeld|assoc|oracle|all

Exit codes: 0 success, 1 a verification check failed, 2 validation or
parse errors, 3 an enumeration bound was exceeded.  Output is
deterministic for identical invocations (modulo --timing).  The
structure-constant cache is an append-only file selected with --cache or
the HALLQ_CACHE environment variable, one `<key>\\t<value>` record per
line: the key is canonical JSON led by the record-format tag and the
canonical-form algorithm id, and a value is decoded from JSON only when a
lookup reads it.  Lines without a tab, such as the older {"k", "v"} records,
are skipped: old files are ignored, not migrated.  A torn write reads as a
miss and is recomputed.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time
from collections import Counter

from .cache import CacheStore
from .combo import run_check, skipped
from .cplx import ComplexCategory
from .dh import DHAlgebra
from .hall import HallAlgebra
from .quiver import QuiverError, kv_neg, parse_quiver
from .repcat import Bounds, CacheCorruption, EnumerationTooLarge, RepCategory
from .scalar import parse_scalar
from .uq import RelationVerifier

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BOUNDS = 0, 1, 2, 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuiverError, ExprError, EnumerationTooLarge, CacheCorruption) as exc:
        message, code = _failure(exc)
        print(message, file=sys.stderr)
        return code


def _failure(exc) -> tuple:
    """The stderr message and exit code main gives an error it reports."""
    if isinstance(exc, EnumerationTooLarge):
        return f"enumeration bound exceeded: {exc}", EXIT_BOUNDS
    if isinstance(exc, CacheCorruption):
        return f"cache audit failed: {exc}", EXIT_FAIL
    return f"error: {exc}", EXIT_USAGE


def build_parser():
    """The `hallq` argument parser.  argparse is imported here, not with the
    module: the library callers of this module's helpers never parse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hallq", description="Exact Hall-algebra computations for quivers"
    )
    sub = parser.add_subparsers(required=True)

    def common(p):
        p.add_argument("--quiver", required=True, help="quiver description file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--cache", default=None, help="cache file (or $HALLQ_CACHE)")
        p.add_argument("--audit-cache", action="store_true",
                       help="recompute on every cache hit and compare")
        p.add_argument("--max-total-dim", type=_count, default=None,
                       help="override the total-dimension enumeration bound")

    p = sub.add_parser("classify", help="list isomorphism classes of one dimension")
    common(p)
    p.add_argument("--dim", required=True, help="comma-separated dimension vector")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("product", help="normal-ordered expansion of an expression")
    common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--reduced", action="store_true",
                   help="reduce the result (fold Kd into K)")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--max-dim", type=_count, default=2,
                   help="dimension cap for drinfeld/assoc/oracle suites")
    p.add_argument("--serre-cap", type=_count, default=4,
                   help="total-degree cap for Serre relation checks")
    p.add_argument("--seed", type=int, default=20259,
                   help="seed for the randomized associativity triples")
    p.add_argument("--random", type=_count, default=10,
                   help="number of random associativity triples")
    p.add_argument("--timing", action="store_true", help="print elapsed times")
    p.set_defaults(func=cmd_verify)
    return parser


def _count(text: str) -> int:
    """argparse type of the count and bound options: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _load_context(args):
    try:
        with open(args.quiver, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise QuiverError(f"cannot read quiver file: {exc}") from None
    quiver = parse_quiver(text)
    cache_path = args.cache or os.environ.get("HALLQ_CACHE")
    if args.audit_cache and not cache_path:
        raise QuiverError("--audit-cache needs a cache file (--cache or HALLQ_CACHE)")
    try:
        store = CacheStore(cache_path, audit=args.audit_cache) if cache_path else None
    except OSError as exc:
        raise QuiverError(f"cannot use cache file: {exc}") from None
    bounds = Bounds()
    if args.max_total_dim is not None:
        bounds = Bounds(max_total_dim=args.max_total_dim)
    return RepCategory(quiver, bounds=bounds, store=store)


# ----------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
    cat = _load_context(args)
    try:
        dim = tuple(int(x) for x in args.dim.split(","))
    except ValueError:
        raise QuiverError(
            f"--dim must be comma-separated integers, got {args.dim!r}"
        ) from None
    classes = cat.classify(dim)
    if args.json:
        rows = [
            {
                "key": c.key,
                "dim": list(c.dim),
                "aut": c.aut_order,
                "kclass": list(c.kclass),
            }
            for c in classes
        ]
        print(json.dumps({"dim": list(dim), "classes": rows}, sort_keys=True))
    else:
        for c in classes:
            print(
                f"{c.key}  dim={','.join(map(str, c.dim))}  aut={c.aut_order}"
                f"  class={cat.quiver.render_kvector(c.kclass)}"
            )
    return EXIT_OK


# ----------------------------------------------------------------------
# product

class ExprError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<gen>E|F|Kd|K)\s*(?:\[(?P<cls>[^\]]*)\]|"
    r"\((?P<vec>[^)]*)\))|(?P<scal>(?:\d+(?:/\d+)?\*?)?v(?:\^\(?-?\d+(?:/\d+)?\)?)?|"
    r"\d+(?:/\d+)?)|(?P<star>\*))"
)


def parse_expr(dh: DHAlgebra, text: str):
    """EXPR := [sign] term (sign term)*, term := factor (['*'] factor)*.

    A sign is '+' or '-'; factors are E[key], F[key], K(a1,...),
    Kd(a1,...) and rational or v-power scalar literals.  The empty
    expression is the unit.  The whole text is tokenized, checked against
    the grammar and made into factors before the first product.
    """
    tokens, pos = [], 0
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError(f"cannot parse expression at {text[pos:]!r}")
        tokens.append(m)
        pos = m.end()
    if not tokens:
        return dh.one()
    kinds = [m.lastgroup if m.lastgroup in ("sign", "star") else "factor" for m in tokens]
    for prev, kind in zip(["start", *kinds], [*kinds, "end"]):
        if prev == "sign" and kind == "sign":
            raise ExprError(f"sign directly after another sign in {text!r}")
        if prev == "sign" and kind == "end":
            raise ExprError("sign with no term after it")
        if "star" in (prev, kind) and "factor" not in (prev, kind):
            raise ExprError(f"'*' not between two factors in {text!r}")
    terms = [[1]]  # each term: its sign, then its factors
    for m, kind in zip(tokens, kinds):
        if kind == "sign":
            terms.append([-1 if m.group("sign") == "-" else 1])
        elif kind == "factor":
            terms[-1].append(_factor(dh, m))
    return sum((dh.product_all(fs).scale(sign) for sign, *fs in terms if fs), dh.zero())


def _factor(dh: DHAlgebra, m):
    """The element of one factor token."""
    kind = m.group("gen")
    if kind in ("E", "F"):
        if m.group("cls") is None:
            raise ExprError(f"{kind} needs a class key in brackets")
        cls = dh.cat.class_by_key(m.group("cls").strip())
        return dh.e_elem(cls.key) if kind == "E" else dh.f_elem(cls.key)
    if kind:
        if m.group("vec") is None:
            raise ExprError(f"{kind} needs a coordinate vector in parentheses")
        parts = m.group("vec").split(",")
        if any(not x.strip() for x in parts):
            raise ExprError(f"{kind}({m.group('vec')}) has an empty coordinate")
        try:
            coords = tuple(map(int, parts))
        except ValueError:
            raise ExprError(f"{kind} coordinates must be integers") from None
        if len(coords) != dh.quiver.n:
            raise ExprError(f"{kind} vector needs {dh.quiver.n} coordinates")
        return dh.k_elem(coords) if kind == "K" else dh.kd_elem(coords)
    try:
        return dh.one().scale(parse_scalar(dh.ring, m.group("scal")))
    except ZeroDivisionError:
        raise ExprError(f"scalar {m.group('scal')!r} divides by zero") from None
    except ValueError as exc:
        raise ExprError(f"bad scalar {m.group('scal')!r}: {exc}") from None


def cmd_product(args) -> int:
    cat = _load_context(args)
    dh = DHAlgebra(cat)
    value = parse_expr(dh, args.expr)
    if args.reduced:
        value = dh.reduce(value)
    if args.json:
        print(json.dumps({"expr": args.expr, "reduced": bool(args.reduced),
                          "terms": dh.to_json(value)}, sort_keys=True))
    else:
        print(dh.render(value))
    return EXIT_OK


# ----------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    """Write each row as its suite yields it; only the counts and times are kept."""
    cat = _load_context(args)
    names = [n for n in SUITES if n != "serre"] if args.suite == "all" else [args.suite]
    status_names = {True: "pass", False: "fail", None: "skipped"}
    counts, timings, sep = {}, {}, ""
    # json.dumps(row, sort_keys=True), without building an encoder per row
    encode = json.JSONEncoder(sort_keys=True).encode
    if args.json:
        sys.stdout.write('{"checks": [')
    config = {"quiver": cat.quiver.content_key(), "max_dim": args.max_dim,
              "seed": args.seed, "serre_cap": args.serre_cap}
    try:
        for name in names:
            t0 = time.monotonic()
            try:
                rows = SUITES[name](cat, args)
            except EnumerationTooLarge as exc:
                rows = [skipped(name, exc)]
            n = counts[name] = Counter()  # True passed, False failed, None skipped
            for result in rows:
                n[result["ok"]] += 1
                if args.json:
                    row = {"suite": name, "status": status_names[result["ok"]], **result}
                    sys.stdout.write(sep + encode(row))
                    sep = ", "
                    continue
                status = {True: "PASS", False: "FAIL", None: "SKIP"}[result["ok"]]
                print(f"{status}  [{name}] {result['id']}")
                if result["ok"] is False:
                    print(f"      lhs: {result['lhs']}")
                    print(f"      rhs: {result['rhs']}")
                    print(f"      residual: {result['residual']}")
                elif result["ok"] is None and result["residual"]:
                    print(f"      {result['residual']}")
            timings[name] = time.monotonic() - t0
    except (QuiverError, ExprError, EnumerationTooLarge, CacheCorruption) as exc:
        if args.json:
            # close the report an error cut short, so it stays valid JSON
            print(f'], "config": {encode(config)}, "error": {encode(_failure(exc)[0])}, '
                  f'"suite": {json.dumps(args.suite)}}}')
        raise
    total = sum(counts.values(), Counter())
    if args.json:
        # with --timing, per-suite seconds close the report (keys stay sorted)
        timing = f', "timings": {encode(timings)}' if args.timing else ""
        print(f'], "config": {encode(config)}, "suite": {json.dumps(args.suite)}{timing}}}')
    else:
        for name, c in counts.items():
            print(f"[{name}] {c[True]} passed, {c[False]} failed, {c[None]} skipped"
                  f" of {c.total()}")
        print(f"{total[True]} passed, {total[False]} failed, {total[None]} skipped")
        if args.timing:
            for name, t in timings.items():
                print(f"time[{name}] = {t:.3f}s")
    return EXIT_FAIL if total[False] else EXIT_OK


# suite name -> runner(cat, args), which returns the suite's rows; `all`
# runs every suite but serre, in this order
SUITES = {
    "relations": lambda cat, args: RelationVerifier(cat, serre_cap=args.serre_cap).verify_all(),
    "serre": lambda cat, args: RelationVerifier(cat, serre_cap=args.serre_cap).check_serre(),
    "drinfeld": lambda cat, args: _drinfeld_suite(cat, args.max_dim),
    "assoc": lambda cat, args: _assoc_suite(cat, args.max_dim, args.seed, args.random),
    "oracle": lambda cat, args: _oracle_suite(cat, args.max_dim),
}


def _drinfeld_suite(cat, max_dim):
    hall = HallAlgebra(cat)
    dh = DHAlgebra(cat)
    classes = cat.classes_up_to_total_dim(max_dim)
    return (hall.check_dd_identity(a, b, dh) for a in classes for b in classes)


def _generator_elements(cat, dh, max_dim):
    gens = []
    for c in cat.classes_up_to_total_dim(max_dim):
        if c.total_dim == 0:
            continue
        gens.append((f"E[{c.key}]", dh.e_elem(c.key)))
        gens.append((f"F[{c.key}]", dh.f_elem(c.key)))
    for i in range(cat.quiver.n):
        s = cat.quiver.simple_class(i)
        gens.append((f"K(S{i})", dh.k_elem(s)))
        gens.append((f"K(-S{i})", dh.k_elem(kv_neg(s))))
        gens.append((f"Kd(S{i})", dh.kd_elem(s)))
    return gens


def _assoc_suite(cat, max_dim, seed, n_random):
    """(xy)z = x(yz) on fixed, then seeded random, triples of generators."""
    dh = DHAlgebra(cat)
    gens = _generator_elements(cat, dh, min(max_dim, 1))
    triples = [
        (f"assoc {na} {nb} {nc}", xa, xb, xc)
        for na, xa in gens for nb, xb in gens for nc, xc in gens
    ]
    rng = random.Random(seed)
    pool = _generator_elements(cat, dh, max_dim)
    for t in range(n_random):
        (na, xa), (nb, xb), (nc, xc) = (rng.choice(pool) for _ in range(3))
        triples.append((f"assoc random#{t} {na} {nb} {nc}", xa, xb, xc))
    return (
        run_check(cid, lambda xa=xa, xb=xb, xc=xc: (
            dh.product(dh.product(xa, xb), xc), dh.product(xa, dh.product(xb, xc))
        ), dh.render)
        for cid, xa, xb, xc in triples
    )


def _oracle_suite(cat, max_dim):
    if any(cat.quiver.loops):
        return [skipped("oracle", "quiver has loops, no finite projectives")]
    cpx = ComplexCategory(cat)
    dh = DHAlgebra(cat)
    gens = _generator_elements(cat, dh, max_dim)

    def sides(xa, xb):
        product_dh = dh.product(xa, xb)
        direct = cpx.normalize(cpx.product(_loc_of(cpx, dh, xa), _loc_of(cpx, dh, xb)))
        return direct, cpx.eval_dh_element(product_dh)

    return (
        run_check(f"oracle {na} o {nb}", lambda xa=xa, xb=xb: sides(xa, xb), cpx.render)
        for na, xa in gens for nb, xb in gens
    )


def _loc_of(cpx, dh, x):
    """Evaluate a one-monomial normal element on the complex side."""
    ((mono, coeff),) = x.terms.items()
    return cpx.normal_monomial(mono).scale(coeff)


if __name__ == "__main__":
    sys.exit(main())
