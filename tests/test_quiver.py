import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallq import (
    ChargeError,
    ConditionAError,
    ConditionBError,
    QuiverError,
    parse_quiver,
)
from hallq.quiver import Quiver

from .conftest import DATA, load
from .reference import euler_dimvec, gram_num, topo_order


def test_parse_two_loop_vertex():
    q = load("l2")
    assert q.p == 2
    assert q.loops == (2,)
    assert q.charges == (1,)


def test_single_loop_rejected():
    with pytest.raises(ConditionBError):
        parse_quiver("field p=2\nvertex 1 loops=1\n")


def test_two_cycle_rejected():
    with pytest.raises(ConditionAError):
        parse_quiver("field p=2\nvertex a loops=0\nvertex b loops=0\nedge a b\nedge b a\n")


@st.composite
def loop_stripped_quivers(draw):
    """(vertices, loops, edges) on at most 4 vertices: loop counts 0 or 2
    and up to 8 edges between distinct vertices, repeats allowed."""
    n = draw(st.integers(1, 4))
    vertices = tuple(map(str, range(n)))
    loops = tuple(draw(st.lists(st.sampled_from([0, 2]), min_size=n, max_size=n)))
    pairs = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    distinct = pairs.filter(lambda e: e[0] != e[1])
    edges = tuple(draw(st.lists(distinct, max_size=8 if n > 1 else 0)))
    return vertices, loops, edges


@given(loop_stripped_quivers())
def test_condition_a_is_the_reference_kahn_check(case):
    # Quiver refuses exactly the edge sets in which Kahn's sort finds a cycle
    vertices, loops, edges = case

    def make():
        return Quiver(p=2, vertices=vertices, loops=loops, edges=edges,
                      charges=(1,) * len(vertices))

    if topo_order(vertices, edges) is None:
        with pytest.raises(ConditionAError, match="oriented cycle"):
            make()
    else:
        assert make().edges == edges


@pytest.mark.parametrize("loops", [(0,), (0, 0, 0)], ids=["short", "long"])
def test_one_loop_count_per_vertex(loops):
    # a loops tuple of the wrong length is refused when the quiver is built,
    # not later by an IndexError in the forms or the simples
    with pytest.raises(QuiverError, match="one loop count per vertex"):
        Quiver(p=2, vertices=("1", "2"), loops=loops, edges=(("1", "2"),), charges=(1, 1))


def test_malformed_lines():
    with pytest.raises(QuiverError):
        parse_quiver("field p=2\nvertex 1 loops=two\n")
    with pytest.raises(QuiverError):
        parse_quiver("vertex 1 loops=0\n")  # missing field line
    with pytest.raises(QuiverError):
        parse_quiver("field p=2\nfrob 1\n")
    # not prime; 9 and 25 are squares of the largest divisor tried
    for p in (4, 9, 25, 3 * 1000000007):
        with pytest.raises(QuiverError, match="not prime"):
            parse_quiver(f"field p={p}\nvertex 1 loops=0\n")


@pytest.mark.parametrize(
    "text, error, fragment",
    [
        ("vertex 1 loops=0\nvertex 1 loops=0\n", QuiverError, "duplicate vertex ids"),
        ("vertex 1 loops=-2\n", QuiverError, "negative loop count at 1"),
        ("vertex 1 loops=0\nedge 1 2\n", QuiverError, "edge 1->2 uses unknown vertex"),
        ("vertex 1 loops=0\nedge 1 1\n", QuiverError, "loops must be declared via loops="),
        ("vertex 1 loops=2 charge=0\n", ChargeError, "charge at 1 must be positive"),
        ("", QuiverError, "quiver has no vertices"),
        ("vertex 1 loops\n", QuiverError, "line 2: malformed (expected key=value"),
        ("vertex 1 colour=red\n", QuiverError, "line 2: malformed (unknown options ['colour'])"),
    ],
    ids=["vertex-twice", "negative-loops", "unknown-vertex", "edge-loop", "charge-zero",
         "no-vertex", "option-without-value", "unknown-option"],
)
def test_quiver_file_refusals(text, error, fragment):
    with pytest.raises(error) as exc:
        parse_quiver("field p=2\n" + text)
    assert fragment in str(exc.value)


def test_one_charge_per_vertex():
    with pytest.raises(ChargeError, match="one charge per vertex"):
        Quiver(p=2, vertices=("1", "2"), loops=(0, 0), edges=(("1", "2"),), charges=(1,))


def test_charge_validation():
    with pytest.raises(ChargeError):
        parse_quiver("field p=2\nvertex 1 loops=2 charge=5\n")  # 5 > 2^2
    with pytest.raises(ChargeError):
        parse_quiver("field p=2\nvertex 1 loops=0 charge=2\n")  # real vertex
    q = parse_quiver("field p=3\nvertex 1 loops=2 charge=9\n")
    assert q.charges == (9,)


def test_comments_and_order_free_sections():
    q = parse_quiver("# c\nedge 1 2\nvertex 1 loops=0 # trailing\nvertex 2 loops=0\nfield p=2\n")
    assert q.edges == (("1", "2"),)


def test_class_of_dimvec():
    l2 = load("l2")
    assert l2.class_of_dimvec((1,)) == (-1,)
    a2 = load("a2")
    assert a2.class_of_dimvec((1, 0)) == (1, -1)
    assert a2.class_of_dimvec((0, 0)) == (0, 0)
    with pytest.raises(QuiverError):
        a2.class_of_dimvec((1, -1))


@pytest.mark.parametrize("d, fragment", [((0.5, 1), "(0.5, 1) must have integer entries"),
                                         (("1", 0), "('1', 0) must have integer entries"),
                                         (1, "1 must have integer entries")])
def test_class_of_dimvec_refuses_non_integers(d, fragment):
    # read by operator.index: (0.5, 1) is not cut to a class with entries 0.5
    with pytest.raises(QuiverError, match=re.escape(fragment)):
        load("a2").class_of_dimvec(d)


def test_class_of_dimvec_reads_numpy_integers_as_ints():
    cls = load("a2").class_of_dimvec((np.int64(1), np.uint8(0)))
    assert cls == (1, -1) and {type(x) for x in cls} == {int}


def test_simple_class_matches_loop_formula():
    # (1 - c) P = S at a minimal vertex
    l2 = load("l2")
    assert l2.simple_class(0) == (1 - 2,)
    l3 = load("l3")
    assert l3.simple_class(0) == (1 - 3,)


def test_euler_form_values():
    l2 = load("l2")
    s = l2.simple_class(0)
    assert l2.euler_form(s, s) == -1
    a2 = load("a2")
    s1, s2 = a2.simple_class(0), a2.simple_class(1)
    assert a2.euler_form(s1, s2) == -1
    assert a2.euler_form(s2, s1) == 0


def test_euler_forms_are_ints_exactly_when_integral():
    # on every fixture, for every pair of simple or projective classes, both
    # forms are the Gram quotient num/den, an int when den divides num and a
    # Fraction only when it does not; l3's projective has half-integral ones
    halves = 0
    for path in sorted(DATA.glob("*.quiver")):
        q = load(path.stem)
        classes = [f(q, i) for i in range(q.n) for f in (Quiver.simple_class, proj_class)]
        for x, y in product(classes, repeat=2):
            nums = (q._gram_num(x, y), q._gram_num(x, y) + q._gram_num(y, x))
            for value, num in zip((q.euler_form(x, y), q.sym_form(x, y)), nums):
                exact = Fraction(num, q._gram_den)
                assert value == exact, (path.stem, x, y)
                assert type(value) is (int if exact.denominator == 1 else Fraction)
                halves += exact.denominator == 2
    assert halves


def proj_class(q, i):
    """The class of the projective P_i: the unit vector at i in K(R)."""
    return tuple(1 if j == i else 0 for j in range(q.n))


def test_euler_projective_against_simple_is_delta():
    for name in ("a1", "a2", "l2", "l3", "kronecker"):
        q = load(name)
        for i in range(q.n):
            for j in range(q.n):
                val = q.euler_form(proj_class(q, i), q.simple_class(j))
                assert val == (1 if i == j else 0)


def test_sym_form():
    l2 = load("l2")
    s = l2.simple_class(0)
    assert l2.sym_form(s, s) == -2
    a2 = load("a2")
    assert a2.sym_form(a2.simple_class(0), a2.simple_class(1)) == -1
    assert a2.sym_form(a2.simple_class(0), a2.zero_kvector()) == 0


def test_borcherds_cartan():
    assert load("l2").borcherds_cartan() == [[-2]]
    assert load("a2").borcherds_cartan() == [[2, -1], [-1, 2]]
    assert load("kronecker").borcherds_cartan() == [[2, -2], [-2, 2]]
    mixed = load("l2_plus_a1")
    assert mixed.borcherds_cartan() == [[-2, 0], [0, 2]]


def test_simple_matrix_inverse_exact():
    for name in ("a2", "l2", "l3", "kronecker", "l2_plus_a1"):
        q = load(name)
        for i in range(q.n):
            coords = q.simple_coords(q.simple_class(i))
            assert coords == tuple(
                Fraction(1 if j == i else 0) for j in range(q.n)
            )


def test_generalized_form_rational_on_l3():
    l3 = load("l3")
    p = proj_class(l3, 0)
    # P = -S/2, so <P, P> = <S,S>/4 = -2/4
    assert l3.euler_form(p, p) == Fraction(-1, 2)
    assert l3.scalar_denominator == 4


def test_scalar_denominator():
    assert load("a1").scalar_denominator == 2
    assert load("l2").scalar_denominator == 2
    assert load("l3").scalar_denominator == 4


def test_nonzero_class_for_nonzero_dims():
    for name in ("a2", "l2", "l3", "kronecker"):
        q = load(name)
        for total in range(1, 4):
            for d in _compositions(total, q.n):
                assert any(q.class_of_dimvec(d)), (name, d)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_euler_form_matches_dimension_vector_form(a2, l2, l3):
    # the K(R)-level form restricted to classes of honest representations
    # agrees with the dimension-vector formula used on reps
    for cat in (a2, l2, l3):
        classes = cat.classes_up_to_total_dim(2)
        for a in classes:
            for b in classes:
                assert cat.quiver.euler_form(a.kclass, b.kclass) == \
                    cat.quiver.euler_dimvec(a.dim, b.dim)


def _euler_form_via_simples(q, r, c):
    """The generalized Euler form by its definition, on the simple-class
    coordinates r, c of its arguments: pair them with delta_ij - #arrows i -> j."""
    out = Fraction(0)
    for i in range(q.n):
        for j in range(q.n):
            ss = (1 if i == j else 0) - sum(1 for a in q.arrows if a == (i, j))
            out += r[i] * c[j] * ss
    return out


def test_euler_gram_matrix_matches_simple_expansion():
    # the integer Gram matrix is exactly the form defined on simple classes,
    # on every fixture quiver and every pair of vectors in [-2, 2]^n
    paths = sorted(DATA.glob("*.quiver"))
    assert len(paths) == 13
    for path in paths:
        q = load(path.stem)
        coords = {x: q.simple_coords(x) for x in product(range(-2, 3), repeat=q.n)}
        for x, r in coords.items():
            for y, c in coords.items():
                assert q.euler_form(x, y) == _euler_form_via_simples(q, r, c), (
                    path.stem, x, y,
                )


def test_memoized_gram_numerators_are_the_uncached_sums():
    # after both forms on every pair of vectors in [-2, 2]^n, every Gram
    # numerator a fixture's `_forms` holds is the sum computed afresh
    for path in sorted(DATA.glob("*.quiver")):
        q = load(path.stem)
        vectors = list(product(range(-2, 3), repeat=q.n))
        for x, y in product(vectors, repeat=2):
            q.euler_form(x, y)
            q.sym_form(x, y)
        assert len(q._forms) == len(vectors) ** 2, path.stem
        for (x, y), num in q._forms.items():
            assert num == gram_num(q, x, y), (path.stem, x, y)


def test_euler_dimvec_is_the_euler_form_at_the_classes():
    # on every fixture: for dimension vectors with entries in [0, 3],
    # <a, b> is the Euler form of their classes; for integer vectors of
    # either sign in [-2, 3] (straightening passes differences), it is the
    # sum over arrows, and an int
    pairs = 0
    for path in sorted(DATA.glob("*.quiver")):
        q = load(path.stem)
        dims = list(product(range(4), repeat=q.n))
        for a, b in product(dims, repeat=2):
            kform = q.euler_form(q.class_of_dimvec(a), q.class_of_dimvec(b))
            assert q.euler_dimvec(a, b) == kform, (path.stem, a, b)
            pairs += 1
        for a, b in product(product(range(-2, 4), repeat=q.n), repeat=2):
            value = q.euler_dimvec(a, b)
            assert value == euler_dimvec(q, a, b) and type(value) is int, (path.stem, a, b)
    assert pairs == 5248


def test_dimension_vector_and_k_vector_pairs_keep_apart():
    # on a2 the pair ((1, 0), (0, 1)) is a pair of dimension vectors, S_1 and
    # S_2, with <S_1, S_2> = -1, and a pair of K-vectors, P_1 and P_2, with
    # <P_1, P_2> = 0; both share one memo dict, and neither reads the other's
    # entry, whichever is asked first
    x, y = (1, 0), (0, 1)
    for dim_first in (True, False):
        q = load("a2")
        if dim_first:
            q.euler_dimvec(x, y)
        assert (q.euler_form(x, y), q.euler_dimvec(x, y)) == (0, -1)
        assert (q.euler_form(x, y), q.euler_dimvec(x, y)) == (0, -1)
