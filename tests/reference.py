"""Slow reference routes the engine's readings are cross-checked against,
and the quantities only the tests read."""

from fractions import Fraction
from itertools import product

import numpy as np

from hallq import EnumerationTooLarge, QuiverError, fplin
from hallq.cplx import Complex, LocElement, mor_zero
from hallq.quiver import kv_add, kv_sub


def is_stable(cat, rep, bases):
    """Whether the row spans of bases are stable under every arrow, tested
    one image vector at a time against the rref of the head's span."""
    p = cat.p
    rrefs = [fplin.rref(b, p) for b in bases]
    for k, (t, h) in enumerate(cat.quiver.arrows):
        imgs = (rep.mats[k] @ bases[t].T) % p
        for col in range(imgs.shape[1]):
            if not fplin.in_row_space(imgs[:, col], *rrefs[h], p):
                return False
    return True


def change_of_basis_sub_quotient(cat, rep, bases):
    """Subrepresentation spanned by stable subspace bases, and quotient, by
    a change of basis at every vertex.

    bases[i] is a (k_i x d_i) matrix whose rows span a subspace at vertex
    i; it is completed by the unit vectors off the pivots of its rref, and
    each arrow matrix is conjugated into that basis.  Returns
    (sub, quot, incl): incl[i] maps sub coordinates into the ambient space.
    """
    q, p = cat.quiver, cat.p
    ks = tuple(b.shape[0] for b in bases)
    basis_t, inv_t = [], []
    for i in range(q.n):
        pivots = fplin.rref(bases[i], p)[1]
        comp = [e for e in range(rep.dim[i]) if e not in pivots]
        w = np.zeros((len(comp), rep.dim[i]), dtype=np.int64)
        for r, e in enumerate(comp):
            w[r, e] = 1
        full = np.concatenate([bases[i], w], axis=0)
        basis_t.append(full)
        inv_t.append(fplin.inverse(full.T % p, p) if rep.dim[i] else full.T)
    sub_mats, quot_mats = [], []
    for k, (t, h) in enumerate(q.arrows):
        m = (inv_t[h] @ rep.mats[k] @ basis_t[t].T) % p
        assert not m[ks[h] :, : ks[t]].any(), "subspace tuple is not stable"
        sub_mats.append(m[: ks[h], : ks[t]])
        quot_mats.append(m[ks[h] :, ks[t] :])
    sub = cat.rep(ks, sub_mats)
    quot = cat.rep(tuple(d - k for d, k in zip(rep.dim, ks)), quot_mats)
    return sub, quot, tuple(bases[i].T % p for i in range(q.n))


def hom_basis(cat, a, b):
    """The basis `RepCategory.hom_rows(a, b)` as tuples of per-vertex
    matrices f_i, read-only views into its rows."""
    offs = np.cumsum([0] + [b.dim[i] * a.dim[i] for i in range(cat.quiver.n)])
    return [
        tuple(vec[offs[i] : offs[i + 1]].reshape(b.dim[i], a.dim[i]) for i in range(cat.quiver.n))
        for vec in cat.hom_rows(a, b)
    ]


def aut_order(cat, a):
    """|Aut(a)| by brute force over the endomorphism space."""
    basis = hom_basis(cat, a, a)
    h = len(basis)
    if cat.p**h > cat.bounds.max_aut_candidates:
        raise EnumerationTooLarge(f"q^{h} endomorphism candidates exceed the configured bound")
    count = 0
    for coeffs in product(range(cat.p), repeat=h):
        good = True
        for i in range(cat.quiver.n):
            if a.dim[i] == 0:
                continue
            m = np.zeros((a.dim[i], a.dim[i]), dtype=np.int64)
            for c, f in zip(coeffs, basis):
                if c:
                    m = m + c * f[i]
            if not fplin.is_invertible(m % cat.p, cat.p):
                good = False
                break
        if good:
            count += 1
    return count


def ext_count_with_middle(cat, a, b, c):
    """|Ext^1(a,b)_c| recovered from the Hall number identity."""
    g = cat.hall_number(a, b, c)
    val = Fraction(g * a.aut_order * b.aut_order * cat.hom_count(a.rep, b.rep), c.aut_order)
    if val.denominator != 1:
        raise AssertionError("non-integral extension count")
    return int(val)


def subobject_middle_terms(cat, a, b):
    """`RepCategory.middle_terms(a, b)` read off subobject tables: every
    class C of dimension dim a + dim b with g^C_{a,b} != 0, with coefficient
    v^<a,b> g^C_{a,b} a_a a_b / a_C, in `classify` order."""
    dim_c = tuple(x + y for x, y in zip(a.dim, b.dim))
    twist = cat.ring.v_pow(cat.quiver.euler_dimvec(a.dim, b.dim))
    out = []
    for c in cat.classify(dim_c):
        g = cat.hall_number(a, b, c)
        if g:
            out.append((c, twist * Fraction(g * a.aut_order * b.aut_order, c.aut_order)))
    return out


def quantum_integer(ring, n):
    """[n] = (v^n - v^-n)/(v - v^-1) = v^(n-1) + v^(n-3) + ... + v^(1-n)."""
    sign = 1 if n >= 0 else -1
    return ring.from_terms(
        {Fraction(sign * (abs(n) - 1 - 2 * k)): Fraction(sign) for k in range(abs(n))}
    )


def all_pairs_join(dh, xkey, ykey):
    """The subobject-table join of rules R4 and R5 by visiting every
    (X row, Y row) pair and keeping those whose middle classes match.

    Yields (M, X1 key, Y1 key, count, twist) with
    count = g^X_{X1,M} g^Y_{M,Y1} a_M and twist = v^(<M, Y-X>), the Euler
    form taken on K(R) classes.
    """
    cat = dh.cat
    x, y = cat.class_by_key(xkey), cat.class_by_key(ykey)
    y_minus_x = kv_sub(tuple(y.kclass), tuple(x.kclass))
    ty = cat.subquot_table(y)
    for (x1k, mk), gx in cat.subquot_table(x).items():
        m = cat.class_by_key(mk)
        for (qk, y1k), gy in ty.items():
            if qk == mk:
                tw = dh.ring.v_pow(dh.quiver.euler_form(tuple(m.kclass), y_minus_x))
                yield m, x1k, y1k, gx * gy * m.aut_order, tw


def dagger(dh, x):
    """The shift involution of the localized algebra: E <-> F, K <-> Kd,
    re-straightened by `dh`."""
    out = dh.zero()
    z = dh.quiver.zero_kvector()
    for (a, al, b, be), c in x.terms.items():
        word = dh.times_e(dh.times_k(dh.f_elem(a), z, al), b)
        out.add_scaled(dh.times_k(word, be, z), c)
    return out


def homotopy_image(cpx, a, b):
    """Chain maps a -> b homotopic to zero, as entry vectors (rows), built
    one generator of Hom(a.m1, b.m0) and Hom(a.m0, b.m1) at a time."""
    q, p = cpx.quiver, cpx.p
    h10 = hom_basis(cpx.cat, a.m1, b.m0)
    h01 = hom_basis(cpx.cat, a.m0, b.m1)
    rows = []
    for gen, is_h1 in [(g, True) for g in h10] + [(g, False) for g in h01]:
        if is_h1:
            t1 = [(b.d0[i] @ gen[i]) % p for i in range(q.n)]
            t0 = [(gen[i] @ a.d0[i]) % p for i in range(q.n)]
        else:
            t1 = [(gen[i] @ a.d1[i]) % p for i in range(q.n)]
            t0 = [(b.d1[i] @ gen[i]) % p for i in range(q.n)]
        rows.append(cpx._chain_map_vector(t1, t0))
    if not rows:
        size = cpx._chain_map_vector(mor_zero(a.m1, b.m1), mor_zero(a.m0, b.m0)).shape[0]
    return np.stack(rows) if rows else np.zeros((0, size), dtype=np.int64)


def direct_sum(cpx, a, b):
    """The complex a + b, block diagonal."""
    m1 = cpx.cat.direct_sum(a.m1, b.m1)
    m0 = cpx.cat.direct_sum(a.m0, b.m0)
    d1, d0 = [], []
    for i in range(cpx.quiver.n):
        blk1 = np.zeros((m0.dim[i], m1.dim[i]), dtype=np.int64)
        blk1[: a.m0.dim[i], : a.m1.dim[i]] = a.d1[i]
        blk1[a.m0.dim[i] :, a.m1.dim[i] :] = b.d1[i]
        d1.append(blk1)
        blk0 = np.zeros((m1.dim[i], m0.dim[i]), dtype=np.int64)
        blk0[: a.m1.dim[i], : a.m0.dim[i]] = a.d0[i]
        blk0[a.m1.dim[i] :, a.m0.dim[i] :] = b.d0[i]
        d0.append(blk0)
    return Complex(m1, m0, d1, d0, cpx.p)


def k_complex(cpx, ranks):
    """K_P for the projective with the given multiplicities."""
    pr = cpx.proj_sum(ranks)
    ident = tuple(np.eye(pr.dim[i], dtype=np.int64) for i in range(cpx.quiver.n))
    return Complex(pr, pr, ident, mor_zero(pr, pr), cpx.p)


def hom_complex_basis(cpx, a, b):
    """Basis of chain maps a -> b, each a pair (s1, s0) of morphisms."""
    return [cpx._chain_map(row, a, b) for row in cpx._chain_map_rows(a, b)]


def split_half(cpx, dst, d, d_back):
    """(im d, ker d_back, the inclusion f, ker d_back / im d) for one
    differential, with no memo: the source, target and map of one
    injective-differential summand, and its homology.

    With K, free = `fplin.nullspace_free(d_back)` and I, pivots the rows
    and pivots of rref(d^T), ker d_back is sub_rep(dst, K, free), im d is
    sub_rep(dst, I, pivots), f is coords^T with coords = I[:, free], and
    the homology is quotient_rep of ker d_back on rref(coords).
    """
    p, cat = cpx.p, cpx.cat
    kers, frees = zip(*(fplin.nullspace_free(m, p) for m in d_back))
    ims, pivots = [], []
    for m in d:
        r, piv = fplin.rref(m.T, p)
        ims.append(r[: len(piv)])
        pivots.append(piv)
    coords = [im[:, free] for im, free in zip(ims, frees)]
    reduced = [fplin.rref(c, p) for c in coords]
    im_sub, ker_sub = cat.sub_rep(dst, ims, pivots), cat.sub_rep(dst, kers, frees)
    assert im_sub is not None and ker_sub is not None, "subspace tuple is not stable"
    hom = cat.quotient_rep(ker_sub, [r[: len(piv)] for r, piv in reduced],
                           [piv for _r, piv in reduced])
    return im_sub, ker_sub, tuple(c.T % p for c in coords), hom


def split_halves(cpx, cx):
    """Both halves of cx's split by split_half: (plus, minus), plus for
    f: im d1 into ker d0 and minus for g: im d0 into ker d1."""
    return split_half(cpx, cx.m0, cx.d1, cx.d0), split_half(cpx, cx.m1, cx.d0, cx.d1)


def split_summands(cpx, cx):
    """The summand complexes (C_f, C_g-dagger) of cx's split; their direct
    sum is isomorphic to cx."""
    c_f, c_g = (
        Complex(src, tgt, f, mor_zero(tgt, src), cpx.p)
        for src, tgt, f, _h in split_halves(cpx, cx)
    )
    return c_f, cpx.dagger(c_g)


def isomorphic(cpx, a, b):
    """Brute-force search for an invertible chain map a -> b."""
    if a.m1.dim != b.m1.dim or a.m0.dim != b.m0.dim:
        return False
    basis = cpx._chain_map_rows(a, b)
    if len(basis) == 0:
        return a.m1.total_dim == 0 and a.m0.total_dim == 0
    if cpx.p ** len(basis) > cpx.cat.bounds.max_aut_candidates:
        raise EnumerationTooLarge("chain-map space too large for brute force")
    for coeffs in product(range(cpx.p), repeat=len(basis)):
        s1, s0 = cpx._chain_map(np.array(coeffs) @ basis % cpx.p, a, b)
        if all(fplin.is_invertible(m, cpx.p) for m in s1 + s0):
            return True
    return False


def homotopy_class_listing(cpx, a, b):
    """One representative chain map per homotopy class of maps a -> b, with
    no orbits: every combination of a complement of the homotopy image in
    the chain maps, in `itertools.product` order of the coefficients, which
    is the order of `ComplexCategory.homotopy_classes`' class codes."""
    basis = cpx._chain_map_rows(a, b)
    if not len(basis):
        return [(mor_zero(a.m1, b.m1), mor_zero(a.m0, b.m0))]
    null_rows = cpx.homotopy_image(a, b)
    _r, pivots = fplin.rref(np.concatenate([null_rows, basis]).T, cpx.p)
    complement = basis[[pc - len(null_rows) for pc in pivots if pc >= len(null_rows)]]
    if cpx.p ** len(complement) > cpx.cat.bounds.max_aut_candidates:
        raise EnumerationTooLarge("homotopy classes exceed max_aut_candidates")
    coeffs = np.array(list(product(range(cpx.p), repeat=len(complement))), dtype=np.int64)
    return [cpx._chain_map(row, a, b) for row in coeffs @ complement % cpx.p]


def mono_product(cpx, ka, kb):
    """<A> o <B> for two registered complex keys, with no fast path: one
    cone per homotopy class of maps A -> B-dagger (`homotopy_class_listing`,
    with no orbits), the unit and the
    zero-map cone included, each keyed through `complex_key`'s split, and
    one twist over h(A, B) added per cone."""
    a, b = cpx.by_key(ka), cpx.by_key(kb)
    (a1p, a0p, a1m, a0m), (b1p, b0p, b1m, b0m) = map(cpx.plus_minus_classes, (a, b))
    tw = cpx.ring.v_pow(
        cpx.quiver.euler_form(kv_add(a0p, a0m), kv_add(b0p, b0m))
        + cpx.quiver.euler_form(kv_add(a1p, a1m), kv_add(b1p, b1m))
    )
    hval = cpx.h_value(a, b)
    out = LocElement.zero(cpx.ring)
    bshift = cpx.dagger(b)
    for s in homotopy_class_listing(cpx, a, bshift):
        key = cpx.complex_key(cpx.cone(s, a, bshift))
        out.add_term((key, cpx.quiver.zero_kvector(), cpx.quiver.zero_kvector()), tw * (1 / hval))
    return out


def orbit_labels_int64(cpx, a, b, null_rows, complement, codes):
    """`ComplexCategory._orbit_labels` with every generator's image of the
    class codes taken by an int64 product, `codes @ act`, in place of the
    engine's float64 one."""
    p, n, k = cpx.p, range(cpx.quiver.n), len(complement)
    c1, c0 = cpx._chain_map(complement, a, b)
    (g1, g0), (h1, h0) = (cpx._chain_map(cpx._automorphisms(x), x, x) for x in (b, a))
    left = [[g[i][:, None] @ c[i] for i in n] for g, c in ((g1, c1), (g0, c0))]
    right = [[c[i] @ h[i][:, None] for i in n] for h, c in ((h1, c1), (h0, c0))]
    moved = np.concatenate([cpx._chain_map_vector(*left), cpx._chain_map_vector(*right)]) % p
    coords = fplin.solve(np.concatenate([null_rows, complement]).T,
                         moved.reshape(-1, moved.shape[-1]).T, p)
    images = [np.ravel_multi_index((codes @ act % p).T, (p,) * k)
              for act in coords[len(null_rows):].T.reshape(-1, k, k)]
    labels = np.arange(len(codes))
    while True:
        before = labels.copy()
        for image in images:
            ends = labels[image]
            np.minimum.at(labels, np.maximum(labels, ends), np.minimum(labels, ends))
        while (labels[labels] != labels).any():
            labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


def scalar_product(x, y):
    """x * y through one `ScalarRing.from_terms` over the exponent sums of
    every pair of terms: no one-term shortcut and no fold by hand."""
    n = x.ring.n_denom
    terms = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            e = Fraction(k1 + k2, n)
            terms[e] = terms.get(e, 0) + Fraction(c1) * c2
    return x.ring.from_terms(terms)


def gram_num(q, x, y):
    """The Gram numerator of <x, y>, summed afresh over the Gram matrix."""
    return sum(xi * yj * g for xi, row in zip(x, q._gram) for yj, g in zip(y, row))


def euler_dimvec(q, a, b):
    """The Euler form on dimension vectors as a sum over the arrows:
    sum a_i b_i minus sum over arrows t -> h of a_t b_h."""
    return sum(x * y for x, y in zip(a, b)) - sum(a[t] * b[h] for t, h in q.arrows)


def listed_invertible(n, p):
    """GL_n(F_p) by rank-testing every n x n matrix, in lexicographic order
    of its entries, and the inverse of each element by its own elimination:
    the listing `fplin.all_invertible` replaced, as two lists."""
    group = []
    for entries in product(range(p), repeat=n * n):
        m = np.array(entries, dtype=np.int64).reshape(n, n)
        if fplin.is_invertible(m, p):
            group.append(m)
    return group, [fplin.inverse(g, p) for g in group]


def orbit_codes(cat, rep):
    """The codes of rep's base-change orbit, as `RepCategory._orbit` returns
    them, by moving rep with every element of the listed group one at a time
    and taking `np.unique` of the codes."""
    d, p = rep.dim, cat.p
    groups = [listed_invertible(x, p) for x in d]
    codes = []
    for elems in product(*[range(len(g)) for g, _ in groups]):
        g = [groups[i][0][e] for i, e in enumerate(elems)]
        g_inv = [groups[i][1][e] for i, e in enumerate(elems)]
        digits = [x for k, (t, h) in enumerate(cat.quiver.arrows)
                  for x in (g[h] @ rep.mats[k] @ g_inv[t] % p).ravel().tolist()]
        codes.append(sum(x * p**i for i, x in enumerate(digits)))
    return np.unique(np.array(codes, dtype=np.int64))


def nullspace_by_entries(a, p):
    """`fplin.nullspace(a, p)` written into a zero matrix one entry at a time."""
    m, n = a.shape
    r, pivots = fplin.rref(a, p)
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, j in enumerate(free):
        basis[bi, j] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-r[ri, j]) % p
    return basis


def topo_order(vertices, edges):
    """Kahn's sort of the vertex indices under the (tail, head) edges, least
    ready index first, or None when the edges have an oriented cycle: the
    order `Quiver` kept, and its Condition A check, before `graphlib`."""
    n, index = len(vertices), {v: i for i, v in enumerate(vertices)}
    outs = {i: [] for i in range(n)}
    indeg = [0] * n
    for t, h in edges:
        outs[index[t]].append(index[h])
        indeg[index[h]] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for j in sorted(outs[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
        ready.sort()
    return tuple(order) if len(order) == n else None


def proj_rank_vector(cpx, dim):
    """Multiplicities n_i with a projective of dimension vector dim
    isomorphic to the sum of P_i^{n_i}, peeled off in `topo_order`: the
    reading `class_of_dimvec` replaced in the oracle's split."""
    ranks, remaining = [0] * cpx.quiver.n, dim
    for i in topo_order(cpx.quiver.vertices, cpx.quiver.edges):
        n = ranks[i] = remaining[i]
        if n < 0:
            raise QuiverError("representation is not projective")
        if n:
            remaining = [r - n * d for r, d in zip(remaining, cpx.projectives[i].dim)]
    if any(remaining):
        raise QuiverError("representation is not projective")
    return tuple(ranks)
