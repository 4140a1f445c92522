"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with -s to see them); the
stated runtime ceilings are asserted where given.
"""

import time
from collections import defaultdict
from fractions import Fraction

from hallq import RepCategory
from hallq.cplx import ComplexCategory
from hallq.dh import DHAlgebra
from hallq.hall import HallAlgebra
from hallq.uq import RelationVerifier

from .conftest import load


def _report(name, ok, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.2f}s)" if limit is None else f" ({elapsed:.2f}s < {limit}s)"
    print(f"{status}  {name}{extra}")
    assert ok, name
    if limit is not None:
        assert elapsed < limit, f"{name}: {elapsed:.2f}s exceeded {limit}s"


def test_criterion_1_quantum_sl2(a1, a1p3):
    t0 = time.time()
    ok = True
    for cat in (a1, a1p3):
        ver = RelationVerifier(cat)
        ring = ver.ring
        (s,) = cat.classes_with_total_dim(1) if cat is a1 else (cat.classes_with_total_dim(1)[0],)
        clear = ring.v_pow(1) - ring.v_pow(-1)
        comm = ver.dh.commutator(ver.gen.xi_e(0, 0), ver.gen.xi_f(0, 0))
        lhs = ver.dh.reduce(comm).scale(clear)
        rhs = ver.dh.reduce(ver.gen.xi_k(0)) - ver.dh.reduce(ver.gen.xi_k_inv(0))
        ok = ok and (lhs - rhs).is_zero()
    _report("criterion 1: quantum sl2 on A1 over F2 and F3", ok, time.time() - t0, 1.0)


def test_criterion_2_imaginary_vertex_relations(l2m2, l2m4):
    t0 = time.time()
    ok = True
    for cat in (l2m2, l2m4):
        ver = RelationVerifier(cat)
        checks = (
            ver.check_cartan_group()
            + ver.check_cartan_conjugation()
            + ver.check_ef_commutators()
        )
        ok = ok and all(c["ok"] for c in checks)
        # the delta_kl = 0 cross cases must be present
        n = len(ver.gen.simples[0])
        assert sum(1 for c in ver.check_ef_commutators()) == n * n
    _report("criterion 2: imaginary-vertex relations on L2, charge 2 and 4",
            ok, time.time() - t0, 60.0)


def test_criterion_3_serre_relations(a2, kronecker):
    t0 = time.time()
    pass2 = RelationVerifier(a2).check_serre()
    pass3 = RelationVerifier(kronecker, serre_cap=4).check_serre()
    ok = (
        all(c["ok"] for c in pass2)
        and len(pass2) == 4
        and all(c["ok"] for c in pass3)
        and len(pass3) == 4
    )
    _report("criterion 3: Serre relations, A2 degree 2 and Kronecker degree 3",
            ok, time.time() - t0, 600.0)


def test_criterion_4_oracle_equivalence(a2):
    t0 = time.time()
    cpx = ComplexCategory(a2)
    dh = DHAlgebra(a2)
    pairs = []
    for c in a2.classes_up_to_total_dim(2):
        if c.total_dim == 0:
            continue
        pairs.append((cpx.e_elem(c.rep), dh.e_elem(c.key)))
        pairs.append((cpx.f_elem(c.rep), dh.f_elem(c.key)))
    for i in range(a2.quiver.n):
        s = a2.quiver.simple_class(i)
        for alpha in (s, tuple(-x for x in s)):
            pairs.append((cpx.k_elem(alpha), dh.k_elem(alpha)))
    ok = True
    checked = 0
    for (xc, xd) in pairs:
        for (yc, yd) in pairs:
            direct = cpx.normalize(cpx.product(xc, yc))
            via = cpx.eval_dh_element(dh.product(xd, yd))
            ok = ok and (direct - via).is_zero()
            checked += 1
    assert checked == len(pairs) ** 2
    _report(f"criterion 4: oracle equivalence on A2 ({checked} products)",
            ok, time.time() - t0, 600.0)


def test_criterion_5_hall_associativity(a2, l2):
    t0 = time.time()
    ok = True
    for cat in (a2, l2):
        lhs, rhs = defaultdict(int), defaultdict(int)
        for m in range(4):
            for d_cls in cat.classes_with_total_dim(m):
                table = cat.subquot_table(d_cls)
                for (c1k, ck), g_d in table.items():
                    for (ak, bk), g1 in cat.subquot_table(cat.class_by_key(c1k)).items():
                        lhs[(ak, bk, ck, d_cls.key)] += g1 * g_d
                for (ak, d1k), g_d in table.items():
                    for (bk, ck), g2 in cat.subquot_table(cat.class_by_key(d1k)).items():
                        rhs[(ak, bk, ck, d_cls.key)] += g_d * g2
        ok = ok and lhs == rhs
    _report("criterion 5: Hall-number associativity, total dim <= 3, A2 and L2",
            ok, time.time() - t0)


def test_criterion_6_counting_consistency(a2, l2):
    t0 = time.time()
    ok = True
    for cat in (a2, l2):
        acc = defaultdict(Fraction)
        for m in range(4):
            for c in cat.classes_with_total_dim(m):
                for (ak, bk), g in cat.subquot_table(c).items():
                    a, b = cat.class_by_key(ak), cat.class_by_key(bk)
                    acc[(ak, bk)] += Fraction(
                        g * a.aut_order * b.aut_order * cat.hom_count(a.rep, b.rep),
                        c.aut_order,
                    )
        for (ak, bk), total in acc.items():
            a, b = cat.class_by_key(ak), cat.class_by_key(bk)
            ok = ok and total == cat.p ** cat.ext_dim(a.rep, b.rep)
    _report("criterion 6: extension-counting consistency, total dim <= 3, A2 and L2",
            ok, time.time() - t0)


def test_criterion_7_gaussian_benchmark():
    t0 = time.time()
    ok = True
    for name, expected in (("a1", 3), ("a1p3", 4), ("a1p5", 6)):
        cat = RepCategory(load(name))
        s = cat.classify((1,))[0]
        ss = cat.classify((2,))[0]
        ok = ok and cat.hall_number(s, s, ss) == expected
    _report("criterion 7: Gaussian benchmark g = q + 1 for q in {2, 3, 5}",
            ok, time.time() - t0)


def test_criterion_8_bialgebra_axioms(a2):
    t0 = time.time()
    hall = HallAlgebra(a2)
    classes = a2.classes_up_to_total_dim(2)
    ok = True
    for c in classes:
        x = hall.element(c)
        ok = ok and hall.coproduct_square(x, True) == hall.coproduct_square(x, False)
    elems = [hall.element(c) for c in classes]
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = hall.hopf_pair(hall.product(x, y), z)
                ok = ok and lhs == hall.pair_with_tensor(x, y, hall.coproduct(z))
    _report("criterion 8: coassociativity and Hopf compatibility on A2, dim <= 2",
            ok, time.time() - t0)


def test_criterion_9_drinfeld_identity(a1, a2, l2):
    t0 = time.time()
    ok = True
    for cat in (a1, a2, l2):
        hall = HallAlgebra(cat)
        dh = DHAlgebra(cat)
        for a in cat.classes_with_total_dim(1):
            for b in cat.classes_with_total_dim(1):
                ok = ok and hall.check_dd_identity(a, b, dh)["ok"]
    _report("criterion 9: reduced double identity for simple pairs on A1, A2, L2",
            ok, time.time() - t0, 600.0)


def test_criterion_10_negative_control(a1):
    t0 = time.time()
    ring = a1.quiver.scalar_ring()
    bad = RelationVerifier(a1)
    bad.gen.f_pref = ring.rational(-1)
    checks = bad.check_ef_commutators()
    failed = [c for c in checks if c["ok"] is False]
    ok = bool(failed) and all(c["residual"] != "0" for c in failed)
    _report("criterion 10: negative control (prefactor -1 breaks the sl2 relation)",
            ok, time.time() - t0)
