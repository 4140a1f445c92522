import hashlib
import itertools
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hallq import (
    Bounds,
    CacheStore,
    ComplexCategory,
    EnumerationTooLarge,
    QuiverError,
    Rep,
    RepCategory,
    fplin,
    parse_quiver,
)
from hallq.cache import FORMAT
from hallq.repcat import CANONICAL_FORM, _compositions

from .conftest import DATA, load
from .reference import (
    aut_order,
    change_of_basis_sub_quotient,
    ext_count_with_middle,
    hom_basis,
    is_stable,
    orbit_codes,
    subobject_middle_terms,
)



# ----------------------------------------------------------------------
# independent oracle: Ext dimension via the explicit presentation map
#
#   0 -> Hom(A,B) -> sum_i Hom_k(A_i,B_i) --Phi--> sum_e Hom_k(A_te,B_he)
#                                                   -> Ext(A,B) -> 0
# so dim Ext = (target dim of Phi) - rank(Phi).

def presentation_map(cat, a, b):
    """Phi, one column per entry of the f_i, vertex by vertex and row by row."""
    q, p = cat.quiver, cat.p
    cols = []
    n_rows = sum(b.dim[h] * a.dim[t] for t, h in q.arrows)
    for i in range(q.n):
        for r in range(b.dim[i]):
            for c in range(a.dim[i]):
                f = [np.zeros((b.dim[j], a.dim[j]), dtype=np.int64) for j in range(q.n)]
                f[i][r, c] = 1
                bits = []
                for k, (t, h) in enumerate(q.arrows):
                    bits.append(((f[h] @ a.mats[k] - b.mats[k] @ f[t]) % p).reshape(-1))
                cols.append(np.concatenate(bits) if bits else np.zeros(0, dtype=np.int64))
    return (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((n_rows, 0), dtype=np.int64)
    )


def ext_dim_oracle(cat, a, b):
    phi = presentation_map(cat, a, b)
    return phi.shape[0] - fplin.rank(phi, cat.p)


def test_hom_basis_examples(a1, a2, l2):
    s = a1.classify((1,))[0].rep
    assert len(hom_basis(a1, s, s)) == 1
    s00 = l2.simple(0, (0, 0))
    s01 = l2.simple(0, (0, 1))
    assert len(hom_basis(l2, s00, s01)) == 0
    s1 = a2.classify((1, 0))[0].rep
    s2 = a2.classify((0, 1))[0].rep
    assert len(hom_basis(a2, s1, s2)) == 0


def test_hom_basis_elements_intertwine(a2, l2):
    for cat in (a2, l2):
        classes = cat.classes_up_to_total_dim(2)
        for a in classes:
            for b in classes:
                for f in hom_basis(cat, a.rep, b.rep):
                    for k, (t, h) in enumerate(cat.quiver.arrows):
                        lhs = (f[h] @ a.rep.mats[k]) % cat.p
                        rhs = (b.rep.mats[k] @ f[t]) % cat.p
                        assert (lhs == rhs).all()


def test_ext_dim_examples(l2, a2):
    lam = l2.simple(0, (0, 0))
    mu = l2.simple(0, (0, 1))
    assert l2.ext_dim(lam, lam) == 2
    assert l2.ext_dim(lam, mu) == 1
    s1 = a2.classify((1, 0))[0].rep
    s2 = a2.classify((0, 1))[0].rep
    assert a2.ext_dim(s2, s1) == 0


def test_ext_dim_against_presentation_oracle(a2, l2, kronecker):
    for cat, cap in ((a2, 3), (l2, 2), (kronecker, 2)):
        classes = cat.classes_up_to_total_dim(cap)
        for a in classes:
            for b in classes:
                assert cat.ext_dim(a.rep, b.rep) == ext_dim_oracle(cat, a.rep, b.rep)


@pytest.mark.parametrize("name", ["a2", "l2", "kronecker"])
def test_hom_basis_is_kernel_of_presentation_map(name, request):
    # the Kronecker-product system is Phi entry for entry, so the basis is
    # its nullspace element for element, in the same order
    cat = request.getfixturevalue(name)
    classes = cat.classes_up_to_total_dim(2)
    for a in classes:
        for b in classes:
            kernel = fplin.nullspace(presentation_map(cat, a.rep, b.rep), cat.p)
            basis = hom_basis(cat, a.rep, b.rep)
            assert len(basis) == len(kernel)
            for f, vec in zip(basis, kernel):
                assert [m.shape for m in f] == [(y, x) for x, y in zip(a.dim, b.dim)]
                assert np.array_equal(np.concatenate([m.reshape(-1) for m in f]), vec)


def test_aut_order_examples(a1, a1p3):
    s = a1.classify((1,))[0].rep
    ss = a1.classify((2,))[0].rep
    assert aut_order(a1, s) == 1
    assert aut_order(a1, ss) == 6
    assert aut_order(a1p3, a1p3.classify((1,))[0].rep) == 2


def test_classify_counts(a1, a2, l2):
    assert len(a1.classify((2,))) == 1
    assert len(l2.classify((1,))) == 4
    assert len(a2.classify((1, 1))) == 2
    assert len(a1.classify((0,))) == 1


def test_classify_partition_identity(a2, l2):
    # orbit sizes prod |GL(d_i)| / |Aut| partition the full matrix-tuple set
    for cat in (a2, l2):
        for d in [(1, 0), (1, 1), (2, 1)] if cat is a2 else [(1,), (2,), (3,)]:
            group = 1
            for x in d:
                group *= fplin.gl_order(x, cat.p)
            total = cat.p ** sum(
                d[t] * d[h] for t, h in cat.quiver.arrows
            )
            psum = 0
            for c in cat.classify(d):
                assert group % c.aut_order == 0
                psum += group // c.aut_order
            assert psum == total


def test_stabilizer_aut_matches_brute_force(a2, l2):
    for cat in (a2, l2):
        for c in cat.classes_up_to_total_dim(2):
            assert c.aut_order == aut_order(cat, c.rep)


def test_canonical_key_stability(a2, l2):
    rng = random.Random(3)
    for cat in (a2, l2):
        classes = cat.classes_up_to_total_dim(3)
        gl = {d: list(fplin.all_invertible(d, cat.p)[0]) for d in range(4)}
        for c in classes[:40]:
            g = [rng.choice(gl[d]) for d in c.dim]
            ginv = [fplin.inverse(m, cat.p) for m in g]
            mats = [
                (g[h] @ c.rep.mats[k] @ ginv[t]) % cat.p
                for k, (t, h) in enumerate(cat.quiver.arrows)
            ]
            moved = cat.rep(c.dim, mats)
            assert cat.class_of(moved).key == c.key


def test_hall_number_examples(a1, a2):
    s = a1.classify((1,))[0]
    ss = a1.classify((2,))[0]
    assert a1.hall_number(s, s, ss) == 3
    s1 = a2.classify((1, 0))[0]
    s2 = a2.classify((0, 1))[0]
    m = a2.class_by_key("1,1|1")
    assert a2.hall_number(s1, s2, m) == 1
    assert a2.hall_number(s2, s1, m) == 0
    assert a2.hall_number(m, m, s1) == 0  # mismatched dimensions


def test_gaussian_hall_numbers():
    for p, expected in [(2, 3), (3, 4), (5, 6)]:
        cat = RepCategory(parse_quiver(f"field p={p}\nvertex 1 loops=0\n"))
        s = cat.classify((1,))[0]
        ss = cat.classify((2,))[0]
        assert cat.hall_number(s, s, ss) == expected


def test_ext_count_with_middle(a1, a2):
    s = a1.classify((1,))[0]
    ss = a1.classify((2,))[0]
    assert ext_count_with_middle(a1, s, s, ss) == 1
    s1 = a2.classify((1, 0))[0]
    s2 = a2.classify((0, 1))[0]
    m = a2.class_by_key("1,1|1")
    split = a2.class_by_key("1,1|0")
    assert ext_count_with_middle(a2, s1, s2, m) == 1
    assert ext_count_with_middle(a2, s1, s2, split) == 1
    assert a2.p ** a2.ext_dim(s1.rep, s2.rep) == 2


def test_total_count_identity(a2, l2):
    # sum over middles of |Ext(A,B)_C| recovers |Ext(A,B)| = q^(hom - euler);
    # nonzero pairs up to total dimension 3 (the zero-class cases are a
    # one-term tautology and get a spot check).  middle_terms lists exactly
    # the middles with a nonzero count, each as
    # v^<A,B> |Ext(A,B)_C| / |Hom(A,B)|.
    for cat in (a2, l2):
        for da in range(1, 3):
            for db in range(1, 4 - da):
                for a in cat.classes_with_total_dim(da):
                    for b in cat.classes_with_total_dim(db):
                        dim_c = tuple(x + y for x, y in zip(a.dim, b.dim))
                        counts = {
                            c.key: ext_count_with_middle(cat, a, b, c)
                            for c in cat.classify(dim_c)
                        }
                        assert sum(counts.values()) == cat.p ** cat.ext_dim(a.rep, b.rep)
                        middles = cat.middle_terms(a, b)
                        assert [c.key for c, _ in middles] == [
                            k for k, n in counts.items() if n
                        ]
                        hom = cat.hom_count(a.rep, b.rep)
                        twist = cat.ring.v_pow(cat.quiver.euler_dimvec(a.dim, b.dim))
                        for c, coeff in middles:
                            assert coeff == twist * Fraction(counts[c.key], hom)
        zero = cat.zero_class()
        b = cat.classes_with_total_dim(2)[0]
        assert ext_count_with_middle(cat, zero, b, b) == 1
        assert cat.ext_dim(zero.rep, b.rep) == 0


def test_middle_terms_memoized(l2, monkeypatch):
    # a second middle_terms call for the same pair classifies nothing and
    # counts no Hall numbers
    pairs = [(a, b) for a in l2.classes_up_to_total_dim(1)
             for b in l2.classes_up_to_total_dim(2)]
    first = [l2.middle_terms(a, b) for a, b in pairs]
    calls = Counter()
    for meth in ("classify", "hall_number", "_coboundary", "_orbit"):
        def counting(self, *args, _orig=getattr(RepCategory, meth), _meth=meth):
            calls[_meth] += 1
            return _orig(self, *args)
        monkeypatch.setattr(RepCategory, meth, counting)
    assert [l2.middle_terms(a, b) for a, b in pairs] == first
    assert not calls
    assert any(len(m) > 1 for m in first)


@pytest.mark.parametrize(
    "name,max_total",
    [("a2", 4), ("a3", 4), ("kronecker", 4), ("l2", 2), ("l2m2", 2), ("mixed", 2),
     ("l2_plus_a1", 2), ("l3", 2)],
)
def test_middle_terms_match_the_subobject_route(name, max_total):
    # the Ext^1 cocycle count equals g^C_{A,B} a_A a_B / a_C read off the
    # subobject tables, class for class and in the same order, on every
    # ordered pair of total dimension at most max_total
    cat = RepCategory(load(name))
    classes = cat.classes_up_to_total_dim(max_total)
    pairs = [(a, b) for a in classes for b in classes
             if a.total_dim + b.total_dim <= max_total]
    for a, b in pairs:
        assert cat.middle_terms(a, b) == subobject_middle_terms(cat, a, b), (a, b)
    assert any(len(cat.middle_terms(a, b)) > 1 for a, b in pairs)


@pytest.mark.parametrize(
    "name, bounds, dims, message",
    [
        ("l2m2", Bounds(), ((2,), (2,)), "4294967296 candidate matrix tuples"),
        ("l2m2", Bounds(max_total_dim=3), ((2,), (2,)), "total dimension 4 exceeds bound 3"),
        # |GL_2(F_2) x GL_1(F_2)| = 6
        ("kronecker", Bounds(max_group=5), ((1, 0), (1, 1)),
         "base-change group of size 6 too large"),
    ],
)
def test_middle_terms_raise_the_bound_classify_raises(name, bounds, dims, message):
    # E·E checks the bounds `classify(dim A + dim B)` checks, in its order,
    # so a product skipped on a bound names the bound the subobject route names
    quiver = load(name)
    cat = RepCategory(quiver)
    a, b = (cat.classify(d)[-1] for d in dims)
    for route in (RepCategory.middle_terms, subobject_middle_terms):
        with pytest.raises(EnumerationTooLarge) as exc:
            route(RepCategory(quiver, bounds=bounds), a, b)
        assert str(exc.value) == message


def test_middle_terms_never_touch_the_store(tmp_path, mixed, monkeypatch):
    cat = RepCategory(mixed.quiver, store=CacheStore(tmp_path / "c.jsonl"))
    classes = cat.classes_up_to_total_dim(2)
    calls = []
    monkeypatch.setattr(CacheStore, "get", lambda self, key: calls.append(key))
    monkeypatch.setattr(CacheStore, "put", lambda self, key, value: calls.append(key))
    for a in classes:
        for b in classes:
            if a.total_dim + b.total_dim <= 3:
                assert cat.middle_terms(a, b) == mixed.middle_terms(a, b)
    assert calls == []


def test_subobject_enumeration_finite(l2):
    # finite-subobject condition: the table enumeration terminates and the
    # zero and full subobjects always appear
    for c in l2.classes_up_to_total_dim(2):
        table = l2.subquot_table(c)
        zero = l2.zero_class().key
        assert table[(c.key, zero)] == 1
        assert table[(zero, c.key)] == 1


@pytest.mark.parametrize(
    "name,max_total", [("a2", 3), ("kronecker", 3), ("l2m2", 3), ("mixed", 2)]
)
def test_sub_quotient_matches_change_of_basis(name, max_total, request):
    # on every candidate subspace tuple, stable or not, of every class: the
    # echelon reading is None exactly where the span is not stable, and
    # otherwise gives the change-of-basis sub and quotient, key for key
    cat = request.getfixturevalue(name)
    p = cat.p
    stable = unstable = 0
    for c in cat.classes_up_to_total_dim(max_total):
        rep = c.rep
        for ks in itertools.product(*[range(d + 1) for d in rep.dim]):
            spaces = [fplin.subspaces(d, k, p) for d, k in zip(rep.dim, ks)]
            for pairs in itertools.product(*spaces):
                bases, pivots = zip(*pairs)
                got = cat.sub_quotient(rep, bases, pivots)
                if not is_stable(cat, rep, bases):
                    assert got is None, (c.key, bases)
                    unstable += 1
                    continue
                sub, quot, _incl = change_of_basis_sub_quotient(cat, rep, bases)
                assert got is not None, (c.key, bases)
                assert (got[0].key, got[1].key) == (sub.key, quot.key), (c.key, bases)
                stable += 1
    assert stable and unstable


def test_mixed_classes_and_subobject_tables_are_pinned():
    # every classify row (key and aut) and every subobject table of `mixed`
    # up to total dimension 3, cold; the digest was taken from the
    # change-of-basis subquotient route.  Every cache record carries these keys
    cat = RepCategory(load("mixed"))
    digest = hashlib.sha256()
    classes = cat.classes_up_to_total_dim(3)
    for c in classes:
        digest.update(f"{c.key}\t{c.aut_order}\n".encode())
        for (qk, sk), n in sorted(cat.subquot_table(c).items()):
            digest.update(f"\t{qk}\t{sk}\t{n}\n".encode())
    assert len(classes) == 2016
    assert digest.hexdigest() == "c0f2f0986963d1143bb38fe3924f1062286e004396c328ff72923f013e2fbfc4"


def test_rep_key_round_trip():
    # Rep.from_key decodes matrices on demand; on every fixture they equal
    # those of the representative classification built, entry by entry
    for path in sorted(DATA.glob("*.quiver")):
        q = load(path.stem)
        cat = RepCategory(q)
        for total in range(4):
            for d in _compositions(total, q.n):
                try:
                    classes = cat.classify(d)
                except EnumerationTooLarge:
                    continue
                for c in classes:
                    rep = Rep.from_key(q, c.key)
                    assert rep._mats is None
                    assert (rep.key, rep.dim) == (c.key, c.dim)
                    # rendered again from the decoded matrices
                    assert Rep(q, rep.dim, rep.mats).key == c.key
                    assert len(rep.mats) == len(c.rep.mats) == len(q.arrows)
                    for lazy, eager in zip(rep.mats, c.rep.mats):
                        assert lazy.dtype == eager.dtype == np.int64
                        assert lazy.shape == eager.shape
                        assert (lazy == eager).all()
                    assert cat.class_of(rep) is c


def test_zero_class_is_the_class_of_the_zero_rep():
    # zero_class registers the class from its key; on every fixture it is
    # the class the orbit enumeration gives the zero representation
    for path in sorted(DATA.glob("*.quiver")):
        q = load(path.stem)
        zero = RepCategory(q).zero_class()
        assert zero.rep._mats is None
        other = RepCategory(q)
        orbit = other.class_of(other.zero_rep())
        assert (zero.key, zero.dim, zero.aut_order, zero.kclass) == (
            orbit.key, orbit.dim, orbit.aut_order, orbit.kclass
        )


@pytest.mark.parametrize(
    "key",
    [
        "1,00;0;",  # no '|'
        "1|0;0;",  # one dimension for two vertices
        "-1,0|0;0;",  # negative dimension
        "01,0|0;0;",  # dimension not written canonically
        "1,0|0;0",  # two blocks for three arrows
        "1,0|00;0;",  # a 1x1 block of two entries
        "1,0|2;0;",  # digit 2 over F_2
        "1,0|x;0;",  # not a digit
    ],
)
def test_malformed_keys_refused(mixed, key):
    with pytest.raises(QuiverError, match="malformed class key"):
        Rep.from_key(mixed.quiver, key)
    with pytest.raises(QuiverError, match="malformed class key"):
        mixed.class_by_key(key)


def test_warm_cache_reads_classes_without_matrices(tmp_path, l2m2):
    path = tmp_path / "c.jsonl"
    q = l2m2.quiver

    def session(store):
        cat = RepCategory(q, store=store)
        classes = cat.classes_up_to_total_dim(3)
        return classes, [cat.subquot_table(c) for c in classes]

    session(CacheStore(path))
    warm, warm_tables = session(CacheStore(path))
    assert all(c.rep._mats is None for c in warm)
    cold = l2m2.classes_up_to_total_dim(3)
    assert [(c.key, c.aut_order, c.kclass) for c in warm] == [
        (c.key, c.aut_order, c.kclass) for c in cold
    ]
    assert warm_tables == [l2m2.subquot_table(c) for c in cold]
    audited, audited_tables = session(CacheStore(path, audit=True))
    assert [c.key for c in audited] == [c.key for c in warm]
    assert audited_tables == warm_tables


def test_cache_keys_are_strings_and_warm_session_writes_nothing(tmp_path, l2m2, monkeypatch):
    path = tmp_path / "c.jsonl"

    def session():
        cat = RepCategory(l2m2.quiver, store=CacheStore(path))
        for c in cat.classes_up_to_total_dim(2):
            cat.subquot_table(c)

    session()
    lines = [line.split("\t") for line in path.read_text().splitlines()]
    assert lines and all(len(parts) == 2 for parts in lines)
    keys = [json.loads(key) for key, _ in lines]
    assert all(isinstance(part, str) for key in keys for part in key)
    # canonical JSON text, led by the record format and the canonical-form id
    assert [key for key, _ in lines] == [json.dumps(key) for key in keys]
    assert {tuple(key[:2]) for key in keys} == {(FORMAT, CANONICAL_FORM)}
    for _, value in lines:
        json.loads(value)
    puts = []
    monkeypatch.setattr(CacheStore, "put", lambda self, key, value: puts.append(key))
    session()
    assert puts == []


def cache_session(quiver, store):
    """Classes of total dimension <= 2 with aut orders and subquot tables."""
    cat = RepCategory(quiver, store=store)
    return [(c.key, c.aut_order, cat.subquot_table(c)) for c in cat.classes_up_to_total_dim(2)]


def test_old_and_foreign_cache_records_are_ignored(tmp_path, l2m2):
    cold_path = tmp_path / "cold.jsonl"
    cold = cache_session(l2m2.quiver, CacheStore(cold_path))
    records = cold_path.read_text().splitlines()
    keys = [json.loads(line.split("\t")[0]) for line in records]
    values = [json.loads(line.split("\t")[1]) for line in records]
    # the same records as the previous format wrote them: no tab, and keys
    # [hash, p, op, *args] without the format and canonical-form parts
    old = [json.dumps({"k": k[2:], "v": v}, sort_keys=True) for k, v in zip(keys, values)]
    # and every key again under another format tag, with a wrong value
    foreign = [json.dumps(["hallq-cache/0"] + k[1:]) + "\t0" for k in keys]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(line + "\n" for line in old + foreign))
    store = CacheStore(path)
    assert store.rejected == len(old)
    assert cache_session(l2m2.quiver, store) == cold
    # every lookup missed: the session appended all of the cold run's records
    # after the old lines, which stay as they were
    assert path.read_text().splitlines() == old + foreign + records
    warm = CacheStore(path)
    assert warm.rejected == len(old)
    assert cache_session(l2m2.quiver, warm) == cold


def test_torn_or_corrupt_cache_values_are_misses(tmp_path, l2m2, monkeypatch):
    path = tmp_path / "c.jsonl"
    cold = cache_session(l2m2.quiver, CacheStore(path))
    records = path.read_text().splitlines()
    ops = [json.loads(line.split("\t")[0])[4] for line in records]
    torn, bad = ops.index("subquot"), ops.index("classify")
    broken = list(records)
    key, value = records[torn].split("\t")
    broken[torn] = f"{key}\t{value[: len(value) // 2]}"
    broken[bad] = records[bad].split("\t")[0] + "\tnot json"
    path.write_text("".join(line + "\n" for line in broken))
    assert cache_session(l2m2.quiver, CacheStore(path)) == cold
    # both values were recomputed and appended, after the untouched lines
    lines = path.read_text().splitlines()
    assert lines[: len(broken)] == broken
    assert sorted(lines[len(broken):]) == sorted([records[torn], records[bad]])
    # the next session reads the fresh records and recomputes nothing
    puts = []
    monkeypatch.setattr(CacheStore, "put", lambda self, key, value: puts.append(key))
    assert cache_session(l2m2.quiver, CacheStore(path)) == cold
    assert puts == []


def test_torn_last_cache_line_is_a_miss(tmp_path, l2m2, monkeypatch):
    # a multi-digit number, cut to a shorter number that is still JSON
    path = tmp_path / "int.jsonl"
    key = CacheStore.key(CacheStore.key_head("count"), ())
    CacheStore(path).put(key, 12)
    record = path.read_text()
    assert record == key + "\t12\n"
    path.write_text(record[:-2])
    store = CacheStore(path)
    assert store.rejected == 1
    assert store.get(key) is None
    store.put(key, 12)
    assert path.read_text() == record[:-2] + "\x00\n" + record
    assert CacheStore(path).get(key) == 12

    # a torn subobject table: the session recomputes it
    path = tmp_path / "c.jsonl"
    cold = cache_session(l2m2.quiver, CacheStore(path))
    records = path.read_text().splitlines()
    last = [r for r in records if json.loads(r.split("\t")[0])[4] == "subquot"][-1]
    rest = [r for r in records if r != last]
    path.write_text("".join(line + "\n" for line in rest) + last[:-1])
    store = CacheStore(path)
    assert store.rejected == 1
    assert cache_session(l2m2.quiver, store) == cold
    # the torn line was closed so that it stays unreadable, and the
    # recomputed record follows it on a line of its own
    assert path.read_text().splitlines() == rest + [last[:-1] + "\x00", last]
    puts = []
    monkeypatch.setattr(CacheStore, "put", lambda self, key, value: puts.append(key))
    warm = CacheStore(path)
    assert warm.rejected == 0
    assert cache_session(l2m2.quiver, warm) == cold
    assert puts == []


def test_stored_null_is_recomputed_and_appended_once(tmp_path, l2m2, monkeypatch):
    # a stored JSON null reads as a miss; the first session recomputes the
    # value and appends it, and the sessions after it read only hits
    path = tmp_path / "c.jsonl"
    cold = cache_session(l2m2.quiver, CacheStore(path))
    records = path.read_text().splitlines()
    keys = [json.loads(line.split("\t")[0]) for line in records]
    at = [key[4] for key in keys].index("subquot")
    broken = list(records)
    broken[at] = records[at].split("\t")[0] + "\tnull"
    path.write_text("".join(line + "\n" for line in broken))
    recomputed, misses = [], []
    rows, get = RepCategory._subquot_rows, CacheStore.get

    def counted_rows(self, c):
        recomputed.append(c.key)
        return rows(self, c)

    def counted_get(self, key):
        value = get(self, key)
        if value is None:
            misses.append(key)
        return value

    monkeypatch.setattr(RepCategory, "_subquot_rows", counted_rows)
    monkeypatch.setattr(CacheStore, "get", counted_get)
    for _ in range(3):
        misses.clear()
        assert cache_session(l2m2.quiver, CacheStore(path)) == cold
    assert recomputed == [keys[at][5]]
    assert path.read_text().splitlines() == broken + [records[at]]
    assert misses == []


@pytest.mark.parametrize(
    "row",
    [
        ["2|0000;0000", 6],  # a well-formed class key of dimension vector (2,)
        ["1|0;0", 0],  # a class of (1,) with automorphism order 0
        ["1|0;0", -1],
        ["1|0;0", 1.5],
        [1, 1],
        ["1|0;0"],  # a row without its automorphism order
        5,  # a row that is no list
        ["1|0;0", 1, 2],  # a row with a stray third entry
        ["1|0;0\n1|0;1", 1],  # two keys of (1,) in one
    ],
)
def test_cached_classify_rows_must_be_classes_of_their_dimension(tmp_path, l2m2, row):
    path = tmp_path / "c.jsonl"
    cache_session(l2m2.quiver, CacheStore(path))
    lines = path.read_text().splitlines()
    at = [json.loads(line.split("\t")[0])[4:] for line in lines].index(["classify", "1"])
    lines[at] = lines[at].split("\t")[0] + "\t" + json.dumps([row])
    path.write_text("".join(line + "\n" for line in lines))
    cat = RepCategory(l2m2.quiver, store=CacheStore(path))
    with pytest.raises(QuiverError, match=r"cached class .* of dimension vector \(1,\)"):
        cat.classify((1,))
    # the rows of other dimension vectors still read
    assert [c.key for c in cat.classify((2,))] == [c.key for c in l2m2.classify((2,))]


def corrupt_record(path, quiver, args, value):
    """Write a cold session's cache to path with the record of args replaced."""
    cache_session(quiver, CacheStore(path))
    lines = path.read_text().splitlines()
    at = [json.loads(line.split("\t")[0])[4:] for line in lines].index(args)
    key = lines[at].split("\t")[0]
    lines[at] = key + "\t" + json.dumps(value)
    path.write_text("".join(line + "\n" for line in lines))
    return key


L2M2_CLASSES_1 = [["1|0;0", 1], ["1|0;1", 1], ["1|1;0", 1], ["1|1;1", 1]]


@pytest.mark.parametrize(
    "value, bad",
    [
        (7, None),  # no list at all
        ({"a": 1}, None),
        ([], None),  # every dimension vector has a class
        (L2M2_CLASSES_1[:2] + [["2|0000;0000", 6]] + L2M2_CLASSES_1[2:], "2|0000;0000"),
        (L2M2_CLASSES_1 + [["1|1;1", 0]], "1|1;1', 0"),  # a bad row after valid rows
        (L2M2_CLASSES_1 + [["1|0;1", 1]], "['1|0;1', 1] in record"),  # a class twice
    ],
)
def test_cached_classify_records_must_list_each_class_once(tmp_path, l2m2, value, bad):
    path = tmp_path / "c.jsonl"
    assert [[c.key, c.aut_order] for c in l2m2.classify((1,))] == L2M2_CLASSES_1
    key = corrupt_record(path, l2m2.quiver, ["classify", "1"], value)
    cat = RepCategory(l2m2.quiver, store=CacheStore(path))
    with pytest.raises(QuiverError, match=r"of dimension vector \(1,\)") as exc:
        cat.classify((1,))
    assert key in str(exc.value)
    if bad is not None:
        assert bad in str(exc.value)


def l2m2_table_rows(cat, key):
    return sorted([qk, sk, n] for (qk, sk), n in cat.subquot_table(cat.class_by_key(key)).items())


@pytest.mark.parametrize(
    "value",
    [
        5,  # no list at all
        [["0|;", "0|;"]],  # a row without its count
        [["9|x", "1|0;0", -3]],  # the table that made middle_terms drop (0, C)
        [],
        [["0|;", "1|0;0", 1]],  # (C, 0) missing
        [["0|;", "1|0;0", 1], ["1|0;0", "0|;", 2]],  # (C, 0) with count 2
        [["0|;", "1|0;0", 1], ["1|0;0", "0|;", True]],
        [["0|;", "1|0;0", 1], ["1|0;0", "0|;", 1.0]],
        [["0|;", "1|0;0", 1], ["1|0;0", "0|;", 1], ["0|;", "1|0;0", 1]],  # a row twice
        [["0|;", "1|0;0", 1], ["1|0;0", "0|;", 1], ["1|0;0", "1|0;0", 0]],  # a zero count
        [["0|;", "1|0;0", 1], ["1|0;0", "0|;", 1], [["1|0;0"], "0|;", 1]],  # a key no string
    ],
)
def test_cached_subobject_tables_must_be_tables_of_their_class(tmp_path, l2m2, value):
    path = tmp_path / "c.jsonl"
    assert l2m2_table_rows(l2m2, "1|0;0") == [["0|;", "1|0;0", 1], ["1|0;0", "0|;", 1]]
    key = corrupt_record(path, l2m2.quiver, ["subquot", "1|0;0"], value)
    cat = RepCategory(l2m2.quiver, store=CacheStore(path))
    with pytest.raises(QuiverError, match=r"of dimension vector \(1,\)") as exc:
        cat.subquot_table(cat.class_by_key("1|0;0"))
    assert key in str(exc.value)
    # the other tables still read
    assert l2m2_table_rows(cat, "1|1;1") == l2m2_table_rows(l2m2, "1|1;1")


def test_aut_order_never_touches_the_store(tmp_path, l2m2, monkeypatch):
    cat = RepCategory(l2m2.quiver, store=CacheStore(tmp_path / "c.jsonl"))
    classes = cat.classes_up_to_total_dim(2)
    calls = []
    monkeypatch.setattr(CacheStore, "get", lambda self, key: calls.append(key))
    monkeypatch.setattr(CacheStore, "put", lambda self, key, value: calls.append(key))
    assert [aut_order(cat, c.rep) for c in classes] == [aut_order(l2m2, c.rep) for c in classes]
    assert calls == []


def stray_texts(value: str) -> list:
    """value with stray text after it or before it: none of them is one JSON
    text that ends just before the line's newline."""
    return [value + "x", value + " [1]x", value + " ", " " + value, value + "\x00"]


def test_cached_numbers_decode_no_looser_than_json_loads(tmp_path):
    # a number cut short may still be a number, so a number is only extended
    key = CacheStore.key(CacheStore.key_head("count"), ())
    for n, bad in enumerate(stray_texts("12")):
        path = tmp_path / f"n-{n}.jsonl"
        path.write_text(f"{key}\t{bad}\n")
        store = CacheStore(path)
        assert store.get(key) is None, bad
        # the value is stored again, once, after the broken line
        store.put(key, 12)
        assert path.read_text() == f"{key}\t{bad}\n{key}\t12\n"
        assert CacheStore(path).get(key) == 12


def test_cache_value_decoding_is_no_looser_than_json_loads(tmp_path, mixed, monkeypatch):
    path = tmp_path / "c.jsonl"

    def session(store):
        cat = RepCategory(mixed.quiver, store=store)
        classes = cat.classes_up_to_total_dim(2)
        return [(c.key, c.aut_order, cat.subquot_table(c)) for c in classes]

    cold = session(CacheStore(path))
    records = path.read_text().splitlines()
    ops = [json.loads(r.split("\t")[0])[4] for r in records]
    assert set(ops) == {"classify", "subquot"}
    store = CacheStore(path)
    for record in records:
        key, value = record.split("\t")
        assert store.get(key) == json.loads(value)
    # one record per op, each cut short and each followed by stray text; a
    # list value cut anywhere is no JSON text
    chosen = [records[ops.index(op)] for op in ("classify", "subquot")]
    puts = []
    put = CacheStore.put
    monkeypatch.setattr(
        CacheStore, "put", lambda self, key, value: (puts.append(key), put(self, key, value))
    )
    files = itertools.count()

    def broken_file(record, bad):
        # a new file each time: truncating a file can be slow on some disks
        key = record.split("\t")[0]
        lines = [f"{key}\t{bad}" if r == record else r for r in records]
        path = tmp_path / f"broken-{next(files)}.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path, lines

    for record in chosen:
        key, value = record.split("\t")
        cuts = [value[:i] for i in range(len(value))]
        stray = stray_texts(value)
        for bad in cuts + stray:
            assert CacheStore(broken_file(record, bad)[0]).get(key) is None, bad
        # a session recomputes such a value and appends it once
        for bad in cuts[-1:] + stray[:1]:
            path, lines = broken_file(record, bad)
            puts.clear()
            assert session(CacheStore(path)) == cold
            assert puts == [key]
            assert path.read_text().splitlines() == lines + [record]


def test_cache_key_text_is_json_dumps():
    head = ("orbit-lexmin/1", "6f2dbcd0a7d2a09b", "2")
    for parts in [
        ("subquot", "1|0;1"),
        ("classify", 2, 0, 1),
        ("op", 'a "quoted" part', "back\\slash", "Kl\u00e4sse", "tab\there", "\x00\x1f\x7f"),
    ]:
        expected = json.dumps([FORMAT, *head, *map(str, parts)])
        assert CacheStore.key(CacheStore.key_head(*head), parts) == expected
        assert CacheStore.key(CacheStore.key_head(*head, parts[0]), parts[1:]) == expected
    assert CacheStore.key(CacheStore.key_head(*head), ()) == json.dumps([FORMAT, *head])


def small_l2m2_session(cat):
    """The reads that wrote tests/data/l2m2-cache2.jsonl."""
    classes = cat.classes_up_to_total_dim(2)
    small = [c for c in classes if c.total_dim <= 1]
    return [
        (c.key, aut_order(cat, c.rep), cat.subquot_table(c),
         [cat.hom_dim(c.rep, b.rep) for b in small])
        for c in small
    ]


def test_cache_file_of_an_earlier_build_reads_as_hits(tmp_path, l2m2, monkeypatch):
    # written by an earlier build of the hallq-cache/2 format, which encoded
    # key parts with json.dumps and decoded values with json.loads
    path = tmp_path / "c.jsonl"
    path.write_bytes((DATA / "l2m2-cache2.jsonl").read_bytes())
    gets, puts = [], []
    get = CacheStore.get
    monkeypatch.setattr(
        CacheStore, "get", lambda self, key: gets.append(key) or get(self, key)
    )
    monkeypatch.setattr(CacheStore, "put", lambda self, key, value: puts.append(key))
    warm = small_l2m2_session(RepCategory(l2m2.quiver, store=CacheStore(path)))
    assert warm == small_l2m2_session(RepCategory(l2m2.quiver))
    assert puts == []
    # the records of the retired ops `aut` and `homdim` are never read
    keys = [line.split("\t")[0] for line in path.read_text().splitlines()]
    assert sorted(gets) == sorted(k for k in keys if json.loads(k)[4] not in ("aut", "homdim"))


def test_warm_session_reads_each_record_once_through_get(tmp_path, l2m2, monkeypatch):
    path = tmp_path / "c.jsonl"
    cold = cache_session(l2m2.quiver, CacheStore(path))
    gets, puts = [], []
    get = CacheStore.get
    monkeypatch.setattr(
        CacheStore, "get", lambda self, key: gets.append(json.loads(key)[4:]) or get(self, key)
    )
    monkeypatch.setattr(CacheStore, "put", lambda self, key, value: puts.append(key))
    assert cache_session(l2m2.quiver, CacheStore(path)) == cold
    dims = [[str(t)] for t in range(3)]
    assert gets == [["classify", *d] for d in dims] + [["subquot", key] for key, _, _ in cold]
    assert puts == []


def test_warm_session_builds_no_rep_and_runs_no_enumeration(tmp_path, l2m2, monkeypatch):
    path = tmp_path / "c.jsonl"
    cold = cache_session(l2m2.quiver, CacheStore(path))
    keys = [line.split("\t")[0] for line in path.read_text().splitlines()]

    def refused(*args, **kwargs):
        raise AssertionError("a warm session built a Rep or enumerated")

    with monkeypatch.context() as m:
        # the two ways to build a Rep: __init__ and _keyed (which from_key calls)
        for name in ("__init__", "_keyed"):
            m.setattr(Rep, name, refused)
        m.setattr(RepCategory, "_orbit", refused)
        for name, value in vars(fplin).items():
            if callable(value) and getattr(value, "__module__", None) == fplin.__name__:
                m.setattr(fplin, name, refused)
        gets = []
        get = CacheStore.get
        m.setattr(CacheStore, "get", lambda self, key: gets.append(key) or get(self, key))
        assert cache_session(l2m2.quiver, CacheStore(path)) == cold
    assert sorted(gets) == sorted(keys)
    # everything is as it was once the patches are undone
    assert Rep(l2m2.quiver, (1,), [[[0]], [[1]]]).key == "1|0;1"


@pytest.mark.parametrize("name", ["a2", "kronecker", "l2m2", "mixed"])
def test_warm_tables_hold_the_registry_keys(tmp_path, name):
    # up to total dimension 3, a warm table equals the cold one and holds
    # each key as the string its registered class holds, as a cold one does
    q, path = load(name), tmp_path / "c.jsonl"
    sessions, files = [], []
    for _ in ("cold", "warm"):
        cat = RepCategory(q, store=CacheStore(path))
        tables = [cat.subquot_table(c) for c in cat.classes_up_to_total_dim(3)]
        assert all(k is cat.class_by_key(k).key for t in tables for pair in t for k in pair)
        sessions.append(tables)
        files.append(path.read_bytes())
    cold, warm = sessions
    # the warm session read every table back, and wrote nothing
    assert warm == cold and len(warm) > 1 and files[1] == files[0]


def test_a_stored_key_registered_only_as_a_rep_key_stays_as_decoded(tmp_path, l2m2):
    # a key met as a non-canonical Rep key is in the registry, under a class
    # of another key: a stored row naming it keeps the key as decoded
    probe = RepCategory(l2m2.quiver)
    digits = ("".join(d) for d in itertools.product("01", repeat=8))
    rep = next(r for r in (Rep.from_key(l2m2.quiver, f"2|{d[:4]};{d[4:]}") for d in digits)
               if probe.class_of(r).key != r.key)
    rows = l2m2_table_rows(l2m2, "1|0;0") + [[rep.key, "0|;", 1]]
    corrupt_record(tmp_path / "c.jsonl", l2m2.quiver, ["subquot", "1|0;0"], rows)
    cat = RepCategory(l2m2.quiver, store=CacheStore(tmp_path / "c.jsonl"))
    c, zero = cat.class_by_key("1|0;0"), cat.class_by_key("0|;")
    canon = cat.class_of(Rep.from_key(l2m2.quiver, rep.key))
    assert canon.key != rep.key and cat._class[rep.key] is canon
    table = cat.subquot_table(c)
    assert sorted([qk, sk, n] for (qk, sk), n in table.items()) == sorted(rows)
    (stored,) = [qk for qk, sk in table if qk not in (c.key, zero.key)]
    assert stored == rep.key
    assert all(k is cat._class[k].key for pair in table for k in pair if k != stored)


def test_a_store_reads_back_what_it_put(tmp_path, l2m2, monkeypatch):
    # a second session on the same store object reads every record the
    # first one put, and appends nothing
    path = tmp_path / "c.jsonl"
    store = CacheStore(path)
    cold = cache_session(l2m2.quiver, store)
    written = path.read_bytes()
    monkeypatch.setattr(RepCategory, "_subquot_rows", lambda self, c: pytest.fail("recomputed"))
    assert cache_session(l2m2.quiver, store) == cold
    assert path.read_bytes() == written


@pytest.mark.parametrize("name", ["a2", "kronecker", "l2m2", "mixed"])
def test_classes_decode_their_rep_on_first_use(tmp_path, name, monkeypatch):
    q = load(name)
    cold = RepCategory(q)
    path = tmp_path / "c.jsonl"
    cache_session(q, CacheStore(path))
    warm = RepCategory(q, store=CacheStore(path))
    cold_classes = cold.classes_up_to_total_dim(2)
    for cat in (cold, warm):
        with monkeypatch.context() as m:
            for attr in ("__init__", "_keyed"):
                m.setattr(Rep, attr, lambda *args: pytest.fail("a Rep was built"))
            classes = cat.classes_up_to_total_dim(2)
            fields = [(c.key, c.dim, c.total_dim, c.aut_order, c.kclass) for c in classes]
        assert fields == [(c.key, c.dim, c.total_dim, c.aut_order, c.kclass) for c in cold_classes]
        if cat is warm:
            assert all(c._rep is None for c in classes)
        for c, cc in zip(classes, cold_classes):
            assert c.rep.key == c.key and c.rep.dim == c.dim
            assert len(c.rep.mats) == len(cc.rep.mats)
            for mat, cold_mat in zip(c.rep.mats, cc.rep.mats):
                assert mat.shape == cold_mat.shape and (mat == cold_mat).all()
            assert c.rep is c.rep
            # one object per class, however it is asked for
            assert any(x is c for x in cat.classify(c.dim))
            assert cat.class_by_key(c.key) is c
            assert cat.class_of(c.rep) is c
            assert cat.class_of(Rep(q, c.dim, cc.rep.mats)) is c
            # equal and hashed by key, across categories too
            assert c == cc and hash(c) == hash(cc) == hash(c.key)
            assert c != c.key and c != c.rep
    keys = {c.key for c in cold_classes}
    assert len(set(cold_classes) | set(warm.classes_up_to_total_dim(2))) == len(keys)
    assert len({c for c in cold_classes if c != cold_classes[0]}) == len(keys) - 1


@pytest.mark.parametrize("d", [(1,), (1, 0, 0), (1, -1)])
def test_classify_refuses_malformed_dimension_vectors(a2, d):
    with pytest.raises(QuiverError, match="nonnegative, one per vertex"):
        a2.classify(d)


def test_keys_need_one_digit_per_entry():
    q11 = parse_quiver("field p=11\nvertex 1 loops=2\n")
    with pytest.raises(EnumerationTooLarge, match="one decimal digit"):
        RepCategory(q11, bounds=Bounds(max_p=11))
    cat = RepCategory(parse_quiver("field p=7\nvertex 1 loops=2\n"), bounds=Bounds(max_p=7))
    rep = cat.rep((1,), [[[6]], [[3]]])
    assert rep.key == "1|6;3"
    back = Rep.from_key(cat.quiver, rep.key)
    assert back.key == rep.key
    assert [m.tolist() for m in back.mats] == [[[6]], [[3]]]
    classes = cat.classify((1,))
    assert len(classes) == 49
    for c in classes:
        assert Rep.from_key(cat.quiver, c.key).key == c.key
        assert cat.class_by_key(c.key) is c


def test_enumeration_bounds():
    q = parse_quiver("field p=2\nvertex 1 loops=2\n")
    small = RepCategory(q, bounds=Bounds(max_total_dim=2))
    with pytest.raises(EnumerationTooLarge):
        small.classify((3,))
    tiny = RepCategory(q, bounds=Bounds(max_tuples=10))
    with pytest.raises(EnumerationTooLarge):
        tiny.classify((2,))
    with pytest.raises(EnumerationTooLarge):
        RepCategory(parse_quiver("field p=7\nvertex 1 loops=0\n"))


def test_group_bound_checked_before_listing(monkeypatch):
    # |GL_5(F_2) x GL_1(F_2)| = 9999360 exceeds the default bound: raise
    # before listing.  The arrow gives the representation matrix entries, so
    # its canonical form needs the group
    cat = RepCategory(
        parse_quiver("field p=2\nvertex 1 loops=0\nvertex 2 loops=0\nedge 1 2\n")
    )

    def unlisted(n, p):
        raise AssertionError(f"GL_{n}(F_{p}) listed before the bound check")

    monkeypatch.setattr(fplin, "all_invertible", unlisted)
    message = "^base-change group of size 9999360 too large$"
    with pytest.raises(EnumerationTooLarge, match=message):
        cat.class_of(cat.rep((5, 1), [np.zeros((1, 5))]))


@pytest.mark.parametrize("first", ["classify", "class_of"])
def test_class_without_matrix_entries_needs_no_group(first, monkeypatch):
    # on A2 the class of dimension (0,5) has no matrix entries: it is its own
    # canonical form, fixed by all of GL_5(F_2), which is over the group
    # bound.  classify and class_of agree on it in either order, and neither
    # lists the group
    cat = RepCategory(load("a2"))

    def unlisted(n, p):
        raise AssertionError(f"GL_{n}(F_{p}) listed")

    monkeypatch.setattr(fplin, "all_invertible", unlisted)
    rep = cat.rep((0, 5), [np.zeros((5, 0))])
    if first == "class_of":
        cls = cat.class_of(rep)
        (listed,) = cat.classify((0, 5))
        assert listed is cls
    else:
        (cls,) = cat.classify((0, 5))
        assert cat.class_of(rep) is cls
    assert cls.key == "0,5|" and cls.aut_order == fplin.gl_order(5, 2) == 9999360
    assert cat.class_by_key("0,5|") is cls


@pytest.mark.parametrize(
    "loops,d,fits", [(27, 1, True), (28, 1, False), (6, 2, True), (7, 2, False)]
)
def test_orbit_code_overflow_guard(loops, d, fits):
    # codes are int64: over F_5, 27 entries fit (5^27 - 1 < 2^63) and 28 do not
    cat = RepCategory(parse_quiver(f"field p=5\nvertex 1 loops={loops}\n"))
    rng = np.random.default_rng(loops)
    mats = [np.full((d, d), 4)] + [rng.integers(0, 5, (d, d)) for _ in range(loops - 1)]
    rep = cat.rep((d,), mats)
    if not fits:
        with pytest.raises(EnumerationTooLarge, match="overflow int64"):
            cat.class_of(rep)
        return
    cls = cat.class_of(rep)
    assert cat.class_of(cls.rep) is cls
    assert cat.class_by_key(cls.key) is cls
    if d == 1:  # GL_1 acts trivially on loops: every rep is canonical
        assert cls.key == rep.key


def test_aut_guard():
    q = parse_quiver("field p=2\nvertex 1 loops=2\n")
    cat = RepCategory(q, bounds=Bounds(max_aut_candidates=4))
    ss = cat.simple(0, (0, 0))
    big = cat.direct_sum(ss, ss)
    with pytest.raises(EnumerationTooLarge):
        aut_order(cat, big)


def test_direct_sum_aut_consistency(a1):
    # |Aut(S+S)| from the stabilizer route equals GL_2 order
    ss = a1.classify((2,))[0]
    assert ss.aut_order == fplin.gl_order(2, 2)


# fixtures with distinct representations: l2, l2m2 and l2m4 share theirs,
# and mixed holds l2's vertex with an arrow in.  l3 is left out for time:
# past dimension 2 it is over its bound on matrix tuples, and its Reps
# take the routes mixed's loops take
REDUCED_FIXTURES = ["a1", "a1p3", "a1p5", "a2", "a3", "kronecker", "mixed"]


@pytest.mark.parametrize("name", REDUCED_FIXTURES)
def test_reduced_reps_equal_their_checked_build(name, monkeypatch):
    # every Rep the engine builds through `Rep._reduced` up to total
    # dimension 3 (the classes, every subobject table, the middle terms and
    # direct sums of pairs, and on loop-free quivers the split of each
    # class's resolution) equals `Rep(...)` on the same data: the same key,
    # dimension vector and matrices, int64 and reduced mod p.  With loops
    # the pairs stop at total dimension 2, as dimension 3 has thousands
    cat = RepCategory(load(name))
    p, built, reduced = cat.p, Counter(), Rep._reduced

    def checked(cls, quiver, dim, mats):
        mats = list(mats)
        rep, ref = reduced(quiver, dim, mats), Rep(quiver, dim, mats)
        assert rep.key == ref.key and rep.dim == ref.dim
        for m, r in zip(rep.mats, ref.mats, strict=True):
            assert m.dtype == np.int64 and m.shape == r.shape and np.array_equal(m, r)
            assert ((0 <= m) & (m < p)).all()
        built[sys._getframe(1).f_code.co_name] += 1
        return rep

    monkeypatch.setattr(Rep, "_reduced", classmethod(checked))
    by_total = [cat.classes_with_total_dim(total) for total in range(4)]
    classes = [c for same in by_total for c in same]
    for c in classes:
        cat.subquot_table(c)
    max_pair = 2 if any(cat.quiver.loops) else 3
    for ta, tb in itertools.product(range(4), repeat=2):
        if ta + tb <= max_pair:
            for a, b in itertools.product(by_total[ta], by_total[tb]):
                cat.direct_sum(a.rep, b.rep)
                cat.middle_terms(a, b)
    if not any(cat.quiver.loops):
        cpx = ComplexCategory(cat)
        for c in classes:
            cpx.homology(cpx.resolution(c.rep))
    # `compute` is classify's scan; with no arrow, no orbit lists a group
    callers = {"_orbit", "compute", "middle_terms", "sub_rep", "quotient_rep", "direct_sum"}
    assert set(built) == callers - (set() if cat.quiver.arrows else {"_orbit"})


def test_reduced_reps_check_dimension_and_shape(a2):
    # `Rep._reduced` refuses what `Rep(...)` refuses, with the same error
    q, m = a2.quiver, np.zeros((1, 1), dtype=np.int64)
    for dim, mats in [((1,), [m]), ((1, -1), [m]), ((1, 1), []), ((1, 1), [m, m]),
                      ((2, 1), [m])]:
        with pytest.raises(QuiverError) as checked:
            Rep(q, dim, mats)
        with pytest.raises(QuiverError, match=f"^{re.escape(str(checked.value))}$"):
            Rep._reduced(q, dim, mats)


@pytest.mark.parametrize("name,max_total", [("a2", 4), ("a3", 4), ("kronecker", 4),
                                            ("l2", 3), ("mixed", 3)])
def test_orbit_codes_match_np_unique_of_every_image(name, max_total):
    # `_orbit`'s codes, deduplicated by sorting and masking equal
    # neighbours, against np.unique of the codes of rep moved by every
    # group element one at a time: the zero rep and random reps (some with
    # repeated images, so duplicates occur) of every dimension vector whose
    # group has at most 200 elements
    cat = RepCategory(load(name))
    rng = np.random.default_rng(5)
    seen_repeats = False
    for total in range(1, max_total + 1):
        for d in _compositions(total, cat.quiver.n):
            if cat._group_order(d) > 200:
                continue
            shapes = [(d[h], d[t]) for t, h in cat.quiver.arrows]
            for draw in range(4):
                mats = [rng.integers(0, cat.p, shape) * (draw > 0) for shape in shapes]
                rep = cat.rep(d, mats)
                orbit = cat._orbit(rep)[0]
                ref = orbit_codes(cat, rep)
                assert orbit.dtype == ref.dtype and orbit.tobytes() == ref.tobytes(), (d, mats)
                seen_repeats |= len(orbit) < cat._group_order(d)
    assert seen_repeats
