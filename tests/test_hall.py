import random

from hallq.dh import DHAlgebra
from hallq.hall import HallAlgebra, HallElement


def test_product_a1(a1):
    hall = HallAlgebra(a1)
    s = a1.classify((1,))[0]
    ss = a1.classify((2,))[0]
    out = hall.product(hall.element(s), hall.element(s))
    # twist v, coefficient 1/q: equals v^(-1) <S+S>
    assert out.terms == {(ss.key, (0,)): hall.ring.v_pow(-1)}


def test_product_a2(a2):
    hall = HallAlgebra(a2)
    s1 = a2.classify((1, 0))[0]
    s2 = a2.classify((0, 1))[0]
    out = hall.product(hall.element(s1), hall.element(s2))
    vm1 = hall.ring.v_pow(-1)
    assert out.terms == {("1,1|0", (0, 0)): vm1, ("1,1|1", (0, 0)): vm1}
    # the other order has no nonsplit extension
    out_rev = hall.product(hall.element(s2), hall.element(s1))
    assert out_rev.terms == {("1,1|0", (0, 0)): hall.ring.one}


def test_k_conjugation(a2, l2):
    for cat in (a2, l2):
        hall = HallAlgebra(cat)
        for s in cat.classes_with_total_dim(1):
            alpha = cat.quiver.simple_class(0)
            lhs = hall.product(
                hall.element(cat.zero_class(), alpha),
                hall.product(
                    hall.element(s), hall.element(cat.zero_class(), tuple(-x for x in alpha))
                ),
            )
            rhs = hall.element(s).scale(
                hall.ring.v_pow(cat.quiver.sym_form(alpha, s.kclass))
            )
            assert lhs == rhs


def test_associativity_triples(a2, l2):
    # exhaustive over argument triples whose product stays within the
    # classifiable range (see the decisions notes: dimension 2 per argument
    # would need q^72-scale enumeration on the two-loop quiver)
    for cat, cap in ((a2, 4), (l2, 3)):
        hall = HallAlgebra(cat)
        by_dim = {m: cat.classes_with_total_dim(m) for m in range(3)}
        alpha = cat.quiver.simple_class(0)
        k_elems = [
            hall.element(cat.zero_class(), alpha),
            hall.element(cat.zero_class(), tuple(-x for x in alpha)),
        ]
        for d1 in range(3):
            for d2 in range(3):
                for d3 in range(3):
                    if d1 + d2 + d3 > cap:
                        continue
                    for ca in by_dim[d1]:
                        for cb in by_dim[d2]:
                            for cc in by_dim[d3]:
                                x, y, z = (hall.element(c) for c in (ca, cb, cc))
                                assert hall.product(hall.product(x, y), z) == \
                                    hall.product(x, hall.product(y, z))
        # K-twisted triples
        s = hall.element(by_dim[1][0], alpha=alpha)
        for k in k_elems:
            for y in (s, k_elems[0]):
                assert hall.product(hall.product(k, y), s) == \
                    hall.product(k, hall.product(y, s))


def test_grading_additive(a2):
    hall = HallAlgebra(a2)
    s1 = a2.classify((1, 0))[0]
    s2 = a2.classify((0, 1))[0]
    x = hall.element(s1, alpha=(1, 0))
    y = hall.element(s2)
    prod = hall.product(x, y)
    (deg,) = {tuple(a2.class_by_key(k).kclass) for k, _alpha in prod.terms}
    assert deg == tuple(
        a + b for a, b in zip(s1.kclass, s2.kclass)
    )


def test_coproduct_unit_and_simple(a1):
    hall = HallAlgebra(a1)
    one = hall.one()
    cop = hall.coproduct(one)
    zkey = a1.zero_class().key
    assert cop.terms == {((zkey, (0,)), (zkey, (0,))): hall.ring.one}
    s = a1.classify((1,))[0]
    cop_s = hall.coproduct(hall.element(s))
    assert cop_s.terms == {
        ((s.key, (0,)), (zkey, (0,))): hall.ring.one,
        ((zkey, tuple(s.kclass)), (s.key, (0,))): hall.ring.one,
    }


def test_counit_axiom(a1, a2):
    for cat in (a1, a2):
        hall = HallAlgebra(cat)
        for c in cat.classes_up_to_total_dim(2):
            x = hall.element(c)
            cop = hall.coproduct(x)
            # (eps x id) Delta = id: strip K from the left leg
            left = HallElement.zero(hall.ring)
            for ((k1, _a1), t2), coeff in cop.terms.items():
                if k1 == cat.zero_class().key:
                    left = left + HallElement.basis(hall.ring, t2, coeff)
            assert left == x


def test_coassociativity(a2, l2):
    for cat in (a2, l2):
        hall = HallAlgebra(cat)
        for c in cat.classes_up_to_total_dim(2):
            x = hall.element(c, alpha=cat.quiver.simple_class(0))
            assert hall.coproduct_square(x, True) == hall.coproduct_square(x, False)


def test_hopf_pair_values(a1):
    hall = HallAlgebra(a1)
    s = a1.classify((1,))[0]
    ss = a1.classify((2,))[0]
    assert hall.hopf_pair(hall.element(s), hall.element(s)) == hall.ring.one
    assert hall.hopf_pair(hall.element(s), hall.element(ss)).is_zero()
    a, b = (1,), (-2,)
    val = hall.hopf_pair(hall.element(a1.zero_class(), a), hall.element(a1.zero_class(), b))
    assert val == hall.ring.v_pow(a1.quiver.sym_form(a, b))
    # diagonal Gram entries are the nonzero automorphism counts
    for c in a1.classes_up_to_total_dim(3):
        assert hall.hopf_pair(hall.element(c), hall.element(c)) == hall.ring.rational(
            c.aut_order
        )


def test_hopf_pairing_against_counit(a2):
    hall = HallAlgebra(a2)
    for c in a2.classes_up_to_total_dim(2):
        z = hall.element(c, alpha=(1, 0))
        expected = hall.ring.one if c.total_dim == 0 else hall.ring.zero
        assert hall.hopf_pair(hall.one(), z) == expected


def test_hopf_compatibility_exhaustive(a2):
    hall = HallAlgebra(a2)
    classes = a2.classes_up_to_total_dim(2)
    elems = [hall.element(c) for c in classes]
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = hall.hopf_pair(hall.product(x, y), z)
                assert lhs == hall.pair_with_tensor(x, y, hall.coproduct(z))


def test_hopf_compatibility_random_with_k(a2):
    rng = random.Random(41)
    hall = HallAlgebra(a2)
    classes = a2.classes_up_to_total_dim(2)
    for _ in range(25):
        def rand_elem():
            c = rng.choice(classes)
            alpha = (rng.randint(-1, 1), rng.randint(-1, 1))
            return hall.element(c, alpha=alpha, coeff=hall.ring.rational(rng.randint(1, 3)))
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        lhs = hall.hopf_pair(hall.product(x, y), z)
        assert lhs == hall.pair_with_tensor(x, y, hall.coproduct(z))


def test_dd_identity_simples(a1, a2, l2):
    for cat in (a1, a2, l2):
        hall = HallAlgebra(cat)
        dh = DHAlgebra(cat)
        simples = cat.classes_with_total_dim(1)
        for a in simples:
            for b in simples:
                rep = hall.check_dd_identity(a, b, dh)
                assert rep["ok"], rep


def test_dd_identity_degenerate_and_dim2(a1, a2):
    hall = HallAlgebra(a1)
    dh = DHAlgebra(a1)
    zero = a1.zero_class()
    s = a1.classify((1,))[0]
    ss = a1.classify((2,))[0]
    assert hall.check_dd_identity(zero, s, dh)["ok"]
    assert hall.check_dd_identity(s, zero, dh)["ok"]
    assert hall.check_dd_identity(s, ss, dh)["ok"]
    hall2, dh2 = HallAlgebra(a2), DHAlgebra(a2)
    for a in a2.classes_with_total_dim(2):
        for b in a2.classes_with_total_dim(1):
            assert hall2.check_dd_identity(a, b, dh2)["ok"]


def test_dd_words_from_r2_and_r4_match_the_general_product(a2, l2, kronecker):
    # the right side of the Drinfeld check reads each word F_B2 Kd_B1 E_A2
    # as v^(-(B1, A2)) (F_B2 E_A2) Kd_B1; compare every word the check meets
    for cat in (a2, l2, kronecker):
        dh = DHAlgebra(cat)
        euler, z = cat.quiver.euler_dimvec, cat.quiver.zero_kvector()
        classes = cat.classes_up_to_total_dim(2)
        words = set()
        for a in classes:
            for b in classes:
                for b2k, b1k in cat.subquot_table(b):
                    words.update(
                        (b2k, b1k, a2k) for (a1k, a2k) in cat.subquot_table(a) if a1k == b1k
                    )
        for b2k, b1k, a2k in sorted(words):
            b1, a2 = cat.class_by_key(b1k), cat.class_by_key(a2k)
            # the check takes (B1, A2) from dimension vectors, as an integer
            sym = cat.quiver.sym_form(b1.kclass, a2.kclass)
            assert sym == euler(b1.dim, a2.dim) + euler(a2.dim, b1.dim)
            word = dh.times_k(dh._fe_expand(b2k, a2k), z, b1.kclass).scale(dh.ring.v_pow(-sym))
            general = dh.product(
                dh.f_elem(b2k), dh.product(dh.kd_elem(b1.kclass), dh.e_elem(a2k))
            )
            assert word == general, (b2k, b1k, a2k)


def test_dd_identity_takes_no_general_product(a2, monkeypatch):
    def refuse(*_args):
        raise AssertionError("check_dd_identity called DHAlgebra.product")

    monkeypatch.setattr(DHAlgebra, "product", refuse)
    hall, dh = HallAlgebra(a2), DHAlgebra(a2)
    classes = a2.classes_up_to_total_dim(2)
    for a in classes:
        for b in classes:
            assert hall.check_dd_identity(a, b, dh)["ok"]


def test_render_and_json(a2):
    hall = HallAlgebra(a2)
    s1 = a2.classify((1, 0))[0]
    x = hall.element(s1, alpha=(0, 1))
    assert "K(0,1)" in hall.render(x)
    rows = hall.to_json(x)
    assert rows[0]["class"] == s1.key and rows[0]["alpha"] == [0, 1]


def test_hopf_compat_spec_triple(a1):
    hall = HallAlgebra(a1)
    s = hall.element(a1.classify((1,))[0])
    ss = hall.element(a1.classify((2,))[0])
    z = hall.product(s, s)
    assert hall.hopf_pair(z, ss) == hall.pair_with_tensor(s, s, hall.coproduct(ss))


def test_dd_identity_a3_simples(a3):
    hall = HallAlgebra(a3)
    dh = DHAlgebra(a3)
    simples = a3.classes_with_total_dim(1)
    for a in simples:
        for b in simples:
            assert hall.check_dd_identity(a, b, dh)["ok"]


def test_dd_identity_mixed_quiver(mixed):
    hall = HallAlgebra(mixed)
    dh = DHAlgebra(mixed)
    simples = mixed.classes_with_total_dim(1)
    assert len(simples) == 5
    for a in simples:
        for b in simples:
            assert hall.check_dd_identity(a, b, dh)["ok"]
