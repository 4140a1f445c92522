import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallq.combo import Combination
from hallq.scalar import ScalarDomainError, ScalarRing, parse_scalar

from .reference import quantum_integer, scalar_product


def ring(p=2, n=2):
    return ScalarRing(p, n)


def random_scalar(r, rng, size=4):
    terms = {}
    for _ in range(rng.randint(0, size)):
        e = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return r.from_terms(terms)


def test_v_pow_zero_is_one():
    r = ring()
    assert r.v_pow(0) == r.one


def test_v_squared_is_q():
    # v^2 and the field cardinality denote the same scalar
    r = ring(2)
    assert r.v_pow(2) == r.rational(2) == 2
    assert ring(3).v_pow(2) == ring(3).rational(3)


def test_half_exponent():
    r = ScalarRing(4, 2)
    s = r.v_pow(Fraction(1, 2))
    # v^(1/2) = q^(1/4) = sqrt(2): a single coordinate, v^(k/N) at k = 1,
    # squaring to v
    assert s.terms == {1: 1}
    assert [type(x) for x in (*s.terms, *s.terms.values())] == [int, int]
    assert s * s == r.v_pow(1) and s**4 == 4


def test_denominator_must_divide_n():
    r = ring(2, 2)
    with pytest.raises(ScalarDomainError):
        r.v_pow(Fraction(1, 3))
    r4 = ring(2, 4)
    r4.v_pow(Fraction(1, 4))  # fine


def test_exact_values():
    # a Scalar's terms are its coordinates in Q(q^(1/2N)), keyed by k for
    # v^(k/N), so equal values have equal terms: v - v^-1 = (1 - 1/q) v,
    # and q - 1 = 2 over F_3
    assert ring(2).one == 1 and ring(2).one.terms == {0: 1}
    r = ScalarRing(4, 2)
    s = r.v_pow(1) - r.v_pow(-1)
    assert s.terms == {2: Fraction(3, 4)}
    r3 = ring(3)
    assert r3.v_pow(2) - 1 == 2
    assert (r3.v_pow(2) - 1).terms == {0: 2}
    # a coefficient is an int exactly when it is integral
    assert type(s.terms[2]) is Fraction and type((s * 4).terms[2]) is int


def test_canonical_form():
    r = ring(2)  # N = 2, so v = v^(2/N)
    s = r.v_pow(5)  # folds to q^2 * v
    assert list(s.terms) == [2]
    assert s.terms[2] == 4
    assert all(type(k) is int and 0 <= k < 2 * r.n_denom for k in s.terms)
    assert (r.v_pow(-1) * 2).terms == {2: 1}  # (1/q) v times q
    assert (s - s).is_zero()
    assert not (s - s).terms


def test_negative_powers_fold():
    r = ring(2)
    assert r.v_pow(-1) == r.v_pow(1) * Fraction(1, 2)
    assert r.v_pow(-2) == r.rational(Fraction(1, 2))


def test_ring_axioms_random():
    rng = random.Random(7)
    r = ring(3, 2)
    for _ in range(200):
        a, b, c = (random_scalar(r, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * r.one == a
        assert (a - a).is_zero()


def test_render_parse_round_trip():
    rng = random.Random(13)
    r = ring(2, 4)
    for _ in range(100):
        s = random_scalar(r, rng)
        assert parse_scalar(r, s.render()) == s
    assert parse_scalar(r, "0").is_zero()
    assert parse_scalar(r, "v") == r.v_pow(1)
    assert parse_scalar(r, "-v") == -r.v_pow(1)
    assert parse_scalar(r, "3/2*v^(1/2) + 1") == r.v_pow(Fraction(1, 2)) * Fraction(3, 2) + 1
    assert parse_scalar(r, "v^-1") == r.v_pow(-1)


def test_quantum_integers():
    r = ring(2)
    assert quantum_integer(r, 0).is_zero()
    assert quantum_integer(r, 1) == r.one
    assert quantum_integer(r, 2) == r.v_pow(1) + r.v_pow(-1)
    clear = r.v_pow(1) - r.v_pow(-1)
    for n in range(-5, 6):
        assert quantum_integer(r, n) * clear == r.v_pow(n) - r.v_pow(-n)


def test_quantum_binomials_against_factorials():
    r = ring(3, 2)

    def qfact(n):
        out = r.one
        for m in range(1, n + 1):
            out = out * quantum_integer(r, m)
        return out

    for n in range(6):
        for k in range(n + 1):
            assert r.quantum_binomial(n, k) * qfact(k) * qfact(n - k) == qfact(n)
    assert r.quantum_binomial(4, 7).is_zero()


def test_ring_mixing_rejected():
    r2, r3 = ring(2), ring(3)
    with pytest.raises(ValueError):
        r2.one + r3.one
    with pytest.raises(ValueError):
        r2.v_pow(1) * r3.v_pow(1)


def test_ring_guard():
    with pytest.raises(ValueError):
        ScalarRing(1, 2)
    with pytest.raises(ValueError):
        ScalarRing(2, 0)


# ----------------------------------------------------------------------
# property tests; the rings are shared across examples, so their v_pow
# caches are too

RINGS = [ScalarRing(p, n) for p in (2, 3, 5) for n in (1, 2, 4)]


def exponents(r):
    """Exponents in (1/N)Z for the ring constant N."""
    return st.integers(-9, 9).map(lambda k: Fraction(k, r.n_denom))


def scalars(r):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(exponents(r), coeffs, max_size=4).map(r.from_terms)


@st.composite
def ring_with(draw, *parts):
    """A ring and one drawn value per part: "s" a scalar, "e" an exponent."""
    r = draw(st.sampled_from(RINGS))
    kinds = {"s": scalars, "e": exponents}
    return (r, *(draw(kinds[part](r)) for part in parts))


@settings(deadline=None)
@given(ring_with("s", "s", "s"))
def test_ring_axioms_property(args):
    r, a, b, c = args
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + r.zero == a and a * r.one == a
    assert (a - a).is_zero() and not (a * r.zero)


@settings(deadline=None)
@given(ring_with("s"))
def test_render_parse_round_trip_property(args):
    r, x = args
    assert parse_scalar(r, x.render()) == x


@settings(deadline=None)
@given(ring_with("e", "e"))
def test_v_pow_is_multiplicative(args):
    r, a, b = args
    assert r.v_pow(a) * r.v_pow(b) == r.v_pow(a + b)
    assert r.v_pow(a) == r.from_terms({a: 1})


@settings(deadline=None)
@given(ring_with("e", "s"))
def test_arithmetic_leaves_cached_v_pow_unchanged(args):
    # also the shared ring.one and ring.zero, which `*` and `+` may return
    # as they are
    r, e, x = args
    cached = r.v_pow(e)
    shared = (cached, r.one, r.zero)
    before = [dict(s.terms) for s in shared]
    for s in shared:
        for _ in (-s, x + s, s + x, x * s, s * x, x - s, s - x, s * 3,
                  s * Fraction(1, 2), s + Fraction(1, 2), s**2, x + s + s, x * s * s):
            assert [dict(t.terms) for t in shared] == before
    assert r.v_pow(e) is cached
    assert r.v_pow(e) == r.from_terms({e: 1})
    assert r.one.terms == {0: 1} and r.zero.terms == {}


# ----------------------------------------------------------------------
# the Scalar arithmetic against a reference that keeps Fraction exponents
# in [0, 2), as sums of c * v^e: {e: c}, and folds through one `from_terms`


def ref_from_terms(r, terms):
    out = {}
    for e, c in terms.items():
        e, c = Fraction(e), Fraction(c)
        if c == 0:
            continue
        if r.n_denom % e.denominator:
            raise ScalarDomainError(e)
        k = e // 2
        e -= 2 * k
        out[e] = out.get(e, Fraction(0)) + c * Fraction(r.p) ** int(k)
        if out[e] == 0:
            del out[e]
    return out


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
        if out[e] == 0:
            del out[e]
    return out


def ref_mul(r, a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            acc[e1 + e2] = acc.get(e1 + e2, Fraction(0)) + c1 * c2
    return ref_from_terms(r, acc)


def ref_render(a):
    if not a:
        return "0"
    return " + ".join(str(a[e]) if e == 0 else f"{a[e]}*v^({e})" for e in sorted(a))


CROSS_RINGS = [ScalarRing(p, n) for p in (2, 3, 5) for n in (2, 4, 6)]


@st.composite
def scalar_pair(draw):
    """A ring and two term maps whose exponents reach past 2 both ways."""
    r = draw(st.sampled_from(CROSS_RINGS))
    exps = st.integers(-3 * r.n_denom, 3 * r.n_denom).map(lambda k: Fraction(k, r.n_denom))
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    terms = st.dictionaries(exps, coeffs, max_size=5)
    return r, draw(terms), draw(terms)


def as_ref(x):
    """A Scalar's terms with k written as the exponent k/N again."""
    return {Fraction(k, x.ring.n_denom): c for k, c in x.terms.items()}


def assert_matches(x, ref):
    assert as_ref(x) == ref
    assert all(type(c) is int or c.denominator != 1 for c in x.terms.values())
    assert x.render() == ref_render(ref)


@settings(deadline=None, max_examples=300)
@given(scalar_pair())
def test_matches_fraction_exponent_reference(args):
    r, ta, tb = args
    a, b = r.from_terms(ta), r.from_terms(tb)
    ra, rb = ref_from_terms(r, ta), ref_from_terms(r, tb)
    assert_matches(a, ra)
    assert_matches(b, rb)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, {e: -c for e, c in rb.items()}))
    assert_matches(a * b, ref_mul(r, ra, rb))
    power = {Fraction(0): Fraction(1)}
    for n in range(4):
        assert_matches(a**n, power)
        power = ref_mul(r, power, ra)
    assert (a == b) == (ra == rb)
    # equal values reached by different routes hash alike
    for x, y in ((a, r.from_terms(ra)), (a + b - b, a), (a * b, b * a), (a * b + a, a * (b + 1))):
        assert x == y and hash(x) == hash(y)


# ----------------------------------------------------------------------
# the fast paths of `*` and `Combination.add_term`


def test_one_term_products_match_the_from_terms_reference():
    # the one-term product against one `from_terms` over the exponent sums,
    # on every p in {2, 3, 5} and N in {1, 2, 4}: equal terms, and a
    # coefficient is an int exactly when it is integral.  Coefficients are
    # ints and Fractions (1/p among them, so that a fold can make a product
    # integral), and the exponent sums reach past 2N as well as below it
    rng = random.Random(33)
    seen = set()
    for r in RINGS:
        two_n = 2 * r.n_denom

        def one_term():
            c = rng.choice([rng.randint(-4, 4) or 1, Fraction(rng.randint(-7, 7) or 1, r.p),
                            Fraction(rng.randint(-7, 7) or 1, rng.randint(2, 6))])
            return r.from_terms({Fraction(rng.randint(-3 * two_n, 3 * two_n), r.n_denom): c})

        for _ in range(300):
            x, y = one_term(), one_term()
            ((k1, c1),), ((k2, c2),) = x.terms.items(), y.terms.items()
            z, ref = x * y, scalar_product(x, y)
            assert z.terms == ref.terms, (r, x, y)
            assert [type(c) for c in z.terms.values()] == [type(c) for c in ref.terms.values()]
            seen.add((k1 + k2 >= two_n, type(c1), type(c2), type(ref.terms[(k1 + k2) % two_n])))
    # every combination of a fold or none, int or Fraction factors and an
    # int or Fraction product was met, but for two int factors making a Fraction
    kinds = (int, Fraction)
    assert seen == {(fold, t1, t2, t) for fold in (False, True) for t1 in kinds
                    for t2 in kinds for t in kinds if (t1, t2, t) != (int, int, Fraction)}


def test_add_term_new_existing_and_cancelling():
    r = ring(3, 2)
    x, y = r.v_pow(1) * Fraction(1, 3), r.v_pow(-1)
    sum_ = Combination(r)
    sum_.add_term("t", x)
    assert sum_.terms == {"t": x} and sum_.terms["t"] is x  # a new term keeps coeff itself
    sum_.add_term("t", y)
    assert sum_.terms == {"t": x + y}
    sum_.add_term("u", r.zero)
    assert "u" not in sum_.terms  # a zero coefficient adds no term
    sum_.add_term("t", -(x + y))
    assert sum_.terms == {}  # a cancelling term is removed
    assert x.terms == {2: Fraction(1, 3)} and y.terms == {2: Fraction(1, 3)}


# ----------------------------------------------------------------------
# one-pass subtraction, and combinations built without the zero test


def any_scalar(r, rng, size=4):
    """A Scalar of up to `size` terms with int and Fraction coefficients and
    exponents that fold past 2N both ways, on any ring of RINGS."""
    two_n = 2 * r.n_denom
    terms = {}
    for _ in range(rng.randint(0, size)):
        e = Fraction(rng.randint(-3 * two_n, 3 * two_n), r.n_denom)
        c = rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-7, 7), rng.choice([r.p, 3]))])
        terms[e] = terms.get(e, 0) + c
    return r.from_terms(terms)


def test_sub_in_one_pass_matches_adding_the_negation():
    # a - b against a + (-b): equal terms with equal coefficient types,
    # cancelling terms and zero operands included, and an int or Fraction b
    rng = random.Random(43)
    for r in RINGS:
        for _ in range(100):
            a, b = any_scalar(r, rng), any_scalar(r, rng)
            for x, y in ((a, b), (a, a), (a, a + b), (r.zero, b), (a, r.zero)):
                got, want = x - y, x + (-y)
                assert got.terms == want.terms, (r, x, y)
                assert {k: type(c) for k, c in got.terms.items()} == \
                    {k: type(c) for k, c in want.terms.items()}
            for c in (0, 3, Fraction(-5, r.p)):
                assert (a - c).terms == (a + (-r.rational(c))).terms
    x = ring(3, 2).v_pow(1)
    assert (x - x).terms == {} and x - 0 is x


class Sub(Combination):
    __slots__ = ()


def test_unfiltered_combinations_match_the_filtered_route():
    # -x, x.scale(s) for a nonzero s, zero(), x + y and x - y build their
    # terms without `Combination.__init__`'s zero test: each equals the
    # filtered build of the same coefficients, keeps the subclass and
    # holds no zero coefficient.  y repeats some of x's terms, so sums and
    # differences cancel
    rng = random.Random(47)
    for r in RINGS:
        for _ in range(40):
            x = Sub(r, {t: any_scalar(r, rng, 3) for t in rng.sample("abcdef", rng.randint(0, 5))})
            y = Sub(r, {t: any_scalar(r, rng, 3) for t in rng.sample("abcdef", rng.randint(0, 5))})
            y = y + Sub(r, {t: rng.choice([c, -c]) for t, c in x.terms.items() if rng.random() < 0.5})
            s = any_scalar(r, rng) or r.one
            both = set(x.terms) | set(y.terms)
            cases = [
                (-x, {t: -c for t, c in x.terms.items()}),
                (Sub.zero(r), {}),
                (x + y, {t: x.terms.get(t, r.zero) + y.terms.get(t, r.zero) for t in both}),
                (x - y, {t: x.terms.get(t, r.zero) - y.terms.get(t, r.zero) for t in both}),
                (x - y, (x + (-y)).terms),
                (x - x, {}),
            ]
            cases += [(x.scale(f), {t: c * f for t, c in x.terms.items()})
                      for f in (s, 0, r.zero, 3, Fraction(-1, 2))]
            for got, coeffs in cases:
                assert type(got) is Sub and got == Sub(r, coeffs), (r, x, y)
                assert all(c.terms for c in got.terms.values())
