"""Exact dense linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything is
plain Gaussian elimination; p is small (2, 3, 5) and shapes are tiny, so
clarity beats asymptotics.  `rref`, under every other routine here,
eliminates on Python int rows (lists) and converts back once: at these sizes
(nine in ten calls of a Kronecker `verify` see at most 24 entries) indexing a
numpy scalar costs more than the arithmetic it feeds.  Empty shapes like
(0, n) and (n, 0) are legal everywhere.

This module decides when numpy loads, for the whole package: `repcat` and
`cplx` take `np` from here.  `np` is bound lazily, so numpy loads on the
first matrix operation and a command answered entirely from the cache never
loads it; a missing numpy still fails `import hallq`.  After its first
attribute access `np` is the numpy module itself.  `importlib.util.LazyLoader`
takes no lock before Python 3.12, which is fine: one context is used by one
thread.
"""

from __future__ import annotations

import importlib.util
import sys
from itertools import combinations, product


def _lazy_import(name: str):
    """The module `name`: as loaded, if it is; else executed on first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")


def inv_mod(x, p):
    return pow(int(x), p - 2, p)


def rref(a, p):
    """Reduced row echelon form mod p.

    Returns (r, pivot_cols) with pivots normalized to 1 and cleared above
    and below.  Does not modify the input.
    """
    red = a % p
    r = red.tolist()
    m, n = red.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        for sel in range(row, m):
            if r[sel][col]:
                break
        else:
            continue
        r[row], r[sel] = r[sel], r[row]
        top = r[row]
        if top[col] != 1:
            inv = inv_mod(top[col], p)
            top = r[row] = [x * inv % p for x in top]
        for i in range(m):
            c = r[i][col]
            if c and i != row:
                r[i] = [(x - c * y) % p for x, y in zip(r[i], top)]
        pivots.append(col)
        row += 1
    return np.array(r, dtype=red.dtype).reshape(m, n), pivots


def rank(a, p):
    return len(rref(a, p)[1])


def nullspace(a, p):
    """Basis of the right kernel of a, as rows of a (k x n) matrix."""
    return nullspace_free(a, p)[0]


def nullspace_free(a, p):
    """(nullspace(a, p), free): the basis and the free columns of rref(a).

    Basis row k is the unit vector at free[k] plus entries at the pivot
    columns, so the basis is the identity on the free columns: a kernel
    vector's coordinates are its entries there.
    """
    n = a.shape[1]
    r, pivots = rref(a, p)
    rows = r[: len(pivots)].tolist()
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * n
        vec[j] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[j] % p
        basis.append(vec)
    return np.array(basis, dtype=np.int64).reshape(len(free), n), free


def row_space(a, p):
    """Echelon basis of the row space, as rows of a (rank x n) matrix."""
    r, pivots = rref(a, p)
    return r[: len(pivots)].copy()


def solve(a, b, p):
    """One solution x of a @ x = b (columns of b solved jointly), or None.

    b may be a vector or a matrix; the returned x has matching shape.
    """
    vec = b.ndim == 1
    rhs = b.reshape(-1, 1) if vec else b
    m, n = a.shape
    aug = np.concatenate([a % p, rhs % p], axis=1)
    r, pivots = rref(aug, p)
    main = [c for c in pivots if c < n]
    if len(main) != len(pivots):
        return None
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    for ri, pc in enumerate(main):
        x[pc] = r[ri, n:]
    return x[:, 0] if vec else x


def is_invertible(a, p):
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def inverse(a, p):
    n = a.shape[0]
    aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:].copy()


def in_row_space(v, basis_rref, pivots, p):
    """Test membership of v in a row space given by its rref basis."""
    w = v.copy() % p
    for ri, pc in enumerate(pivots):
        if w[pc]:
            w = (w - w[pc] * basis_rref[ri]) % p
    return not w.any()


def all_invertible(n, p):
    """GL_n(F_p) and the inverses of its elements, as two (|GL_n|, n, n)
    stacks in the same order: lexicographically by entries, row by row.

    Full-rank row prefixes grow one row at a time, each by every row outside
    its span in lexicographic order (the p^k vectors of a k-row span are
    listed and masked out), so no singular matrix is held and memory stays
    proportional to |GL_n|.  The inverses come from one Gauss-Jordan
    elimination of [g | 1] over the whole stack.
    """
    vectors = np.array(list(product(range(p), repeat=n)), dtype=np.int64).reshape(p**n, n)
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    prefixes = np.zeros((1, 0), dtype=np.int64)  # the rows of each prefix, by code
    for k in range(n):
        span = (vectors[: p**k, n - k :] @ vectors[prefixes] % p) @ weights
        outside = np.ones((len(prefixes), p**n), dtype=bool)
        outside[np.arange(len(prefixes))[:, None], span] = False
        at, row = np.nonzero(outside)
        prefixes = np.concatenate([prefixes[at], row[:, None]], axis=1)
    group = vectors[prefixes]
    aug = np.concatenate([group, np.broadcast_to(np.eye(n, dtype=np.int64), group.shape)], axis=2)
    inv = np.array([0] + [inv_mod(x, p) for x in range(1, p)], dtype=np.int64)
    at = np.arange(len(aug))
    for col in range(n):
        sel = col + np.argmax(aug[:, col:, col] != 0, axis=1)
        top = aug[at, sel]
        aug[at, sel] = aug[:, col]
        top = top * inv[top[:, col], None] % p
        factors = aug[:, :, col].copy()
        factors[:, col] = 0
        aug = (aug - factors[:, :, None] * top[:, None, :]) % p
        aug[:, col] = top
    return group, aug[:, :, n:].copy()


def gl_order(n, p):
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


def subspaces(n, k, p):
    """All k-dimensional subspaces of F_p^n as (rref basis, pivot columns).

    Deterministic order: pivot column combinations lexicographically, then
    free entries lexicographically.  The rows of each (k x n) basis are its
    own rref, so its pivot columns are the ones `rref` would return.
    """
    if k == 0:
        yield np.zeros((0, n), dtype=np.int64), []
        return
    if k > n:
        return
    for pivots in combinations(range(n), k):
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for vals in product(range(p), repeat=len(free_cells)):
            m = np.zeros((k, n), dtype=np.int64)
            for i, pc in enumerate(pivots):
                m[i, pc] = 1
            for (i, j), val in zip(free_cells, vals):
                m[i, j] = val
            yield m, list(pivots)
