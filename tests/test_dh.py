import random
from collections import Counter
from fractions import Fraction

import pytest

from hallq.dh import DHAlgebra, ReducedDHElement
from hallq.quiver import kv_neg

from .reference import all_pairs_join, dagger


def gens_for(cat, dh):
    """E_S, F_S over all simples plus K(+,-S_i), Kd(S_i)."""
    out = []
    for c in cat.classes_with_total_dim(1):
        out.append(dh.e_elem(c.key))
        out.append(dh.f_elem(c.key))
    for i in range(cat.quiver.n):
        s = cat.quiver.simple_class(i)
        out.append(dh.k_elem(s))
        out.append(dh.k_elem(tuple(-x for x in s)))
        out.append(dh.kd_elem(s))
    return out


def test_ef_straightening_a1(a1):
    dh = DHAlgebra(a1)
    s = a1.classify((1,))[0]
    z = a1.quiver.zero_kvector()
    zero_key = a1.zero_class().key
    prod = dh.product(dh.e_elem(s.key), dh.f_elem(s.key))
    # E_S o F_S is the normal monomial E(S,S) plus (q-1) Kd; here q-1 = 1
    assert prod == dh.element((s.key, z, s.key, z))
    eab = dh.eab(s.key, s.key)
    kd = dh.kd_elem(tuple(s.kclass))
    assert prod == eab + kd.scale(a1.p - 1)


def test_ef_commutator_a1(a1, a1p3):
    for cat in (a1, a1p3):
        dh = DHAlgebra(cat)
        s = cat.classify((1,))[0]
        comm = dh.commutator(dh.e_elem(s.key), dh.f_elem(s.key))
        kd = dh.kd_elem(tuple(s.kclass))
        k = dh.k_elem(tuple(s.kclass))
        assert comm == (kd - k).scale(cat.p - 1)


def test_cross_commutators_vanish_l2(l2):
    dh = DHAlgebra(l2)
    simples = l2.classes_with_total_dim(1)
    for a in simples:
        for b in simples:
            comm = dh.commutator(dh.e_elem(a.key), dh.f_elem(b.key))
            if a.key != b.key:
                assert comm.is_zero()
            else:
                assert not comm.is_zero()


def test_associativity_generator_triples(a1, a2, l2):
    for cat in (a1, a2, l2):
        dh = DHAlgebra(cat)
        gens = gens_for(cat, dh)
        for x in gens:
            for y in gens:
                for z in gens:
                    assert dh.product(dh.product(x, y), z) == \
                        dh.product(x, dh.product(y, z))


def test_associativity_random_triples(a2, l2):
    rng = random.Random(99)
    for cat in (a2, l2):
        dh = DHAlgebra(cat)
        classes = cat.classes_up_to_total_dim(1)
        monos = []
        for a in classes:
            for b in classes:
                alpha = tuple(rng.randint(-1, 1) for _ in range(cat.quiver.n))
                beta = tuple(rng.randint(-1, 1) for _ in range(cat.quiver.n))
                monos.append(dh.element((a.key, alpha, b.key, beta)))
        for _ in range(50):
            x, y, z = (rng.choice(monos) for _ in range(3))
            assert dh.product(dh.product(x, y), z) == dh.product(x, dh.product(y, z))


def test_basis_soundness(a2, l2):
    rng = random.Random(5)
    for cat in (a2, l2):
        dh = DHAlgebra(cat)
        classes = cat.classes_up_to_total_dim(1)
        for _ in range(20):
            a, b = rng.choice(classes), rng.choice(classes)
            alpha = tuple(rng.randint(-2, 2) for _ in range(cat.quiver.n))
            beta = tuple(rng.randint(-2, 2) for _ in range(cat.quiver.n))
            mono = dh.element((a.key, alpha, b.key, beta))
            assert dh.product(mono, dh.one()) == mono
            assert dh.product(dh.one(), mono) == mono


def test_k_conjugation_rule(a2, l2, l3):
    for cat in (a2, l2, l3):
        dh = DHAlgebra(cat)
        for c in cat.classes_with_total_dim(1):
            alpha = (1,) + (0,) * (cat.quiver.n - 1)  # the class of P_0
            lhs = dh.product_all(
                [dh.k_elem(alpha), dh.e_elem(c.key), dh.k_elem(tuple(-x for x in alpha))]
            )
            tw = dh.ring.v_pow(cat.quiver.sym_form(alpha, c.kclass))
            assert lhs == dh.e_elem(c.key).scale(tw)


def test_fractional_exponents_l3(l3):
    # three loops: the symmetrized form takes half-integer values on
    # projective classes, and the ring constant N = 4 absorbs them
    dh = DHAlgebra(l3)
    p_class = (1,)  # the class of P_0
    assert l3.quiver.sym_form(p_class, p_class) == Fraction(-1)
    assert l3.quiver.euler_form(p_class, l3.quiver.simple_class(0)) == 1
    s = l3.classes_with_total_dim(1)[0]
    x = dh.product(dh.k_elem(p_class), dh.e_elem(s.key))
    ((_, coeff),) = x.terms.items()
    assert coeff == dh.ring.v_pow(l3.quiver.sym_form(p_class, s.kclass))
    half = l3.quiver.scalar_ring().v_pow(Fraction(1, 2))
    assert (half * half) == l3.quiver.scalar_ring().v_pow(1)


def test_dagger_swaps_generators(a2):
    dh = DHAlgebra(a2)
    s = a2.classes_with_total_dim(1)[0]
    assert dagger(dh, dh.e_elem(s.key)) == dh.f_elem(s.key)
    assert dagger(dh, dh.f_elem(s.key)) == dh.e_elem(s.key)
    alpha = (1, -1)
    assert dagger(dh, dh.k_elem(alpha)) == dh.kd_elem(alpha)
    prod = dh.product(dh.k_elem(alpha), dh.kd_elem((0, 1)))
    assert dagger(dh, prod) == dh.product(dh.kd_elem(alpha), dh.k_elem((0, 1)))


def test_dagger_is_involution(a2, l2):
    rng = random.Random(17)
    for cat in (a2, l2):
        dh = DHAlgebra(cat)
        classes = cat.classes_up_to_total_dim(2)
        for _ in range(12):
            a, b = rng.choice(classes), rng.choice(classes)
            alpha = tuple(rng.randint(-1, 1) for _ in range(cat.quiver.n))
            beta = tuple(rng.randint(-1, 1) for _ in range(cat.quiver.n))
            x = dh.element((a.key, alpha, b.key, beta), dh.ring.v_pow(1))
            assert dagger(dh, dagger(dh, x)) == x


def test_dagger_is_algebra_map_on_generators(a2, l2):
    for cat in (a2, l2):
        dh = DHAlgebra(cat)
        gens = gens_for(cat, dh)
        for x in gens:
            for y in gens:
                assert dagger(dh, dh.product(x, y)) == \
                    dh.product(dagger(dh, x), dagger(dh, y))


def test_triangular_leading_term(a2, l2):
    # the normal monomial E_A F_B occurs in E_A o F_B with coefficient 1
    for cat in (a2, l2):
        dh = DHAlgebra(cat)
        z = cat.quiver.zero_kvector()
        classes = cat.classes_up_to_total_dim(2)
        for a in classes:
            for b in classes:
                prod = dh.product(dh.e_elem(a.key), dh.f_elem(b.key))
                assert prod.terms[(a.key, z, b.key, z)] == dh.ring.one
                # and the same coefficient statement for the recursion base
                assert dh.eab(a.key, b.key).terms[(a.key, z, b.key, z)] == dh.ring.one


def test_ef_expansion_matches_two_sided_generator(a2, l2):
    # E_A o F_B - E(A,B) only involves strictly smaller two-sided terms
    for cat in (a2, l2):
        dh = DHAlgebra(cat)
        z = cat.quiver.zero_kvector()
        for a in cat.classes_with_total_dim(1):
            for b in cat.classes_with_total_dim(1):
                diff = dh.product(dh.e_elem(a.key), dh.f_elem(b.key)) - dh.eab(a.key, b.key)
                for (ak, _al, bk, _be) in diff.terms:
                    assert cat.class_by_key(ak).total_dim < 1 or ak != a.key


def test_reduce(a1):
    dh = DHAlgebra(a1)
    s = a1.classify((1,))[0]
    sk = tuple(s.kclass)
    one_red = dh.reduce(dh.one())
    assert dh.reduce(dh.product(dh.k_elem(sk), dh.kd_elem(sk))) == one_red
    comm = dh.commutator(dh.e_elem(s.key), dh.f_elem(s.key))
    red = dh.reduce(comm)
    minus = dh.reduce(dh.k_elem(tuple(-x for x in sk)))
    plus = dh.reduce(dh.k_elem(sk))
    assert red == (minus - plus).scale(a1.p - 1)
    assert isinstance(red, ReducedDHElement)


def test_render(a2):
    dh = DHAlgebra(a2)
    s = a2.classes_with_total_dim(1)[0]
    x = dh.element((s.key, (1, 0), s.key, (0, -1)))
    text = dh.render(x)
    assert f"E[{s.key}]" in text and "K(1,0)" in text and "Kd(0,-1)" in text
    assert dh.render(dh.one()) == "(1)*1"
    assert dh.render(dh.zero()) == "0"


def hall_into_dh(hall, dh, x):
    """The positive-half embedding <A> K_a -> E_A o K_a, extended linearly."""
    out = dh.zero()
    for (key, alpha), c in x.terms.items():
        out = out + dh.times_k(dh.e_elem(key), alpha, dh.quiver.zero_kvector()).scale(c)
    return out


def hall_into_dh_neg(hall, dh, x):
    """The negative-half embedding <B> K_b -> F_B o Kd_b."""
    out = dh.zero()
    for (key, beta), c in x.terms.items():
        out = out + dh.times_k(dh.f_elem(key), dh.quiver.zero_kvector(), beta).scale(c)
    return out


def test_positive_half_embedding_is_algebra_map(a2, l2):
    from hallq.hall import HallAlgebra

    for cat in (a2, l2):
        hall, dh = HallAlgebra(cat), DHAlgebra(cat)
        elems = [hall.element(c) for c in cat.classes_up_to_total_dim(1)]
        elems.append(hall.element(cat.classes_with_total_dim(1)[0],
                                  alpha=cat.quiver.simple_class(0)))
        for x in elems:
            for y in elems:
                lhs = hall_into_dh(hall, dh, hall.product(x, y))
                rhs = dh.product(hall_into_dh(hall, dh, x), hall_into_dh(hall, dh, y))
                assert lhs == rhs
                lhs_n = hall_into_dh_neg(hall, dh, hall.product(x, y))
                rhs_n = dh.product(
                    hall_into_dh_neg(hall, dh, x), hall_into_dh_neg(hall, dh, y)
                )
                assert lhs_n == rhs_n


@pytest.mark.parametrize("name", ["a2", "l2"])
def test_k_left_matches_straightened_product(name, request):
    # K_gamma Kd_delta x by the one R2 twist equals the product through
    # times_e and times_f, for gamma, delta in {0, +-S_i} and normal-form x
    cat = request.getfixturevalue(name)
    dh = DHAlgebra(cat)
    q = cat.quiver
    ks = [q.zero_kvector()]
    for i in range(q.n):
        ks += [q.simple_class(i), kv_neg(q.simple_class(i))]
    ones = [c for c in cat.classes_up_to_total_dim(1) if c.total_dim]
    xs = [dh.eab(a.key, b.key) for a in ones for b in ones]
    xs += [dh.product(dh.e_elem(a.key), dh.f_elem(b.key)) for a in ones for b in ones[:2]]
    xs += [dh.product(dh.element((a.key, ks[1], b.key, ks[-1])), x)
           for a, b in zip(ones, ones[1:]) for x in xs[:2]]
    for gamma in ks:
        for delta in ks:
            k = dh.product(dh.k_elem(gamma), dh.kd_elem(delta))
            for x in xs:
                assert dh._k_left(gamma, delta, x) == dh.product(k, x), (gamma, delta)


def test_products_leave_memoized_elements_unchanged(kronecker):
    # product, dagger and the R4/R5 tables accumulate their sums in place;
    # the shared E(A,B) and monomial products they read must never be the
    # sum.  E(A,B) is filled first, so the products below read it, not build it
    dh = DHAlgebra(kronecker)
    classes = kronecker.classes_up_to_total_dim(2)
    for a in classes:
        for b in classes:
            dh.eab(a.key, b.key)
    ones = [dh.e_elem(c.key) for c in kronecker.classes_with_total_dim(1)]
    ones += [dh.f_elem(c.key) for c in kronecker.classes_with_total_dim(1)]
    twos = [dh.product(x, y) for x in ones for y in ones]
    memos = (dh._eab, dh._mono)
    before = [{k: dh.render(v) for k, v in memo.items()} for memo in memos]
    assert all(before)
    for x in twos:
        for y in twos:
            dagger(dh, dh.product(x, y))
    assert len(dh._mono) > len(before[1])
    assert [{k: dh.render(memo[k]) for k in seen} for memo, seen in zip(memos, before)] == before


@pytest.mark.parametrize("name", ["a2", "kronecker", "l2m2", "mixed"])
def test_keyed_join_matches_the_all_pairs_reference(name, request):
    # the keyed join yields the all-pairs join's rows and counts, and R4
    # and R5 twist each by v^(<M, Y-X>) on dimension vectors, the reference
    # twist on K(R) classes.  With the zero class on either side the join
    # has one row, so F_0 E_A = E(A,0) and F_B E_0 = E(0,B)
    cat = request.getfixturevalue(name)
    dh = DHAlgebra(cat)
    z = cat.quiver.zero_kvector()
    zero = cat.zero_class().key
    keys = [c.key for c in cat.classes_up_to_total_dim(2)]
    for xk in keys:
        for yk in keys:
            ref = list(all_pairs_join(dh, xk, yk))
            got = Counter((m.key, x1k, y1k, n) for m, x1k, y1k, n in dh._join(xk, yk))
            assert got == Counter((m.key, x1k, y1k, n) for m, x1k, y1k, n, _tw in ref)
            r4 = dh.zero()
            r5 = dh.element((yk, z, xk, z))
            for m, x1k, y1k, n, tw in ref:
                mk = tuple(m.kclass)
                r4.add_scaled(dh._k_left(mk, z, dh.eab(x1k, y1k)), tw * n)
                if m.total_dim:
                    r5.add_scaled(dh._k_left(z, mk, dh.eab(y1k, x1k)), tw * -n)
            assert dh._fe_expand(yk, xk) == r4, (xk, yk)
            assert dh.eab(yk, xk) == r5, (xk, yk)
        assert dh._fe_expand(zero, xk) == dh.eab(xk, zero)
        assert dh._fe_expand(xk, zero) == dh.eab(zero, xk)
