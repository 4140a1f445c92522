import numpy as np
import pytest

from hallq import Bounds, fplin

from .reference import listed_invertible, nullspace_by_entries


def reference_rref(a, p):
    """The numpy-row elimination fplin.rref replaced, kept as its reference."""
    r = a.copy() % p
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        sel = -1
        for i in range(row, m):
            if r[i, col] % p:
                sel = i
                break
        if sel < 0:
            continue
        if sel != row:
            r[[row, sel]] = r[[sel, row]]
        r[row] = (r[row] * fplin.inv_mod(r[row, col], p)) % p
        for i in range(m):
            if i != row and r[i, col]:
                r[i] = (r[i] - r[i, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return r, pivots


def cases(p, rng):
    """Seeded inputs: empty shapes, reduced and unreduced (negative and
    large) entries, low-rank products and an all-zero column."""
    for shape in [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1)]:
        yield rng.integers(0, p, size=shape, dtype=np.int64)
    for _ in range(60):
        m, n = (int(x) for x in rng.integers(1, 7, size=2))
        yield rng.integers(0, p, size=(m, n), dtype=np.int64)
        yield rng.integers(-3 * p, 5 * p, size=(m, n), dtype=np.int64)
        k = int(rng.integers(1, min(m, n) + 1))
        yield rng.integers(0, p, size=(m, k), dtype=np.int64) @ \
            rng.integers(0, p, size=(k, n), dtype=np.int64)
        a = rng.integers(-p, p, size=(m, n), dtype=np.int64)
        a[:, int(rng.integers(n))] = 0
        yield a
    yield np.zeros((4, 4), dtype=np.int64)
    yield np.eye(4, dtype=np.int64) * (p - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_matches_the_numpy_reference(p):
    rng = np.random.default_rng(1000 + p)
    for a in cases(p, rng):
        before = a.copy()
        r, pivots = fplin.rref(a, p)
        r0, pivots0 = reference_rref(a, p)
        assert np.array_equal(a, before), "input modified"
        assert pivots == pivots0 and all(type(c) is int for c in pivots)
        assert r.dtype == r0.dtype == np.int64 and r.shape == r0.shape == a.shape
        assert r.tobytes() == r0.tobytes(), (a, p)


@pytest.mark.parametrize("p", [2, 3])
def test_subspaces_yield_their_rref_and_pivots(p):
    # the subobject tables read each basis's pivots off `subspaces` instead
    # of re-running rref; every k-subspace of F_p^n comes once
    for n in range(5):
        for k in range(n + 1):
            seen = set()
            for basis, pivots in fplin.subspaces(n, k, p):
                r, pivots0 = fplin.rref(basis, p)
                assert basis.shape == (k, n) and r.tobytes() == basis.tobytes()
                assert pivots == pivots0, (n, k, basis)
                seen.add(basis.tobytes())
            count = 1
            for i in range(k):
                count = count * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
            assert len(seen) == count, (n, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nullspace_is_the_identity_on_its_free_columns(p):
    # the property the complex split reads coordinates from: the basis is
    # the identity on the non-pivot columns of rref(a), spans the kernel,
    # and is nullspace's basis
    rng = np.random.default_rng(2000 + p)
    for a in cases(p, rng):
        basis, free = fplin.nullspace_free(a, p)
        assert free == [j for j in range(a.shape[1]) if j not in fplin.rref(a, p)[1]]
        assert basis.dtype == np.int64 and basis.shape == (len(free), a.shape[1])
        assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))
        assert not (a @ basis.T % p).any()
        assert basis.tobytes() == fplin.nullspace(a, p).tobytes()
        assert basis.tobytes() == nullspace_by_entries(a, p).tobytes()


# every GL_n(F_p) the default bounds let `RepCategory` list, p <= max_p = 5:
# GL_<=4(F_2), GL_<=3(F_3) and GL_<=2(F_5)
LISTED_GROUPS = [(n, p) for p in (2, 3, 5) for n in range(6)
                 if fplin.gl_order(n, p) <= Bounds().max_group]


def test_listed_groups_are_those_within_the_default_bounds():
    assert LISTED_GROUPS == [(n, 2) for n in range(5)] + [(n, 3) for n in range(4)] + [
        (n, 5) for n in range(3)]


@pytest.mark.parametrize("n, p", LISTED_GROUPS)
def test_batched_gl_listing_matches_the_rank_tested_one(n, p):
    # the batched listing and its inverses against every n x n matrix
    # rank-tested in lexicographic order and each element inverted alone:
    # the same matrices in the same order, n = 0 included
    group, inverses = fplin.all_invertible(n, p)
    ref_group, ref_inverses = listed_invertible(n, p)
    assert group.dtype == inverses.dtype == np.int64
    assert group.shape == inverses.shape == (len(ref_group), n, n) == (fplin.gl_order(n, p), n, n)
    assert group.tobytes() == np.stack(ref_group).tobytes()
    assert inverses.tobytes() == np.stack(ref_inverses).tobytes()
    assert not (np.matmul(group, inverses) % p - np.eye(n, dtype=np.int64)).any()
