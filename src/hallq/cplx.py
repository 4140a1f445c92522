"""Two-periodic complexes of projectives over a LOOP-FREE quiver.

This is the explicit, counting-based realization of the localized algebra:
elements are linear combinations of terms (complex class, gamma, delta)
standing for <M> o K_gamma o Kd_delta, products are computed by
enumerating homotopy classes of maps into the shifted factor and taking
cones, and normalization rewrites everything onto the two-sided generator
coordinates attached to homology pairs.  It exists to cross-check the
straightening engine and refuses quivers with loops, where projectives
are infinite dimensional and none of this applies.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import fplin
from .fplin import np
from .combo import Combination
from .quiver import QuiverError, kv_add, kv_neg, kv_sub
from .repcat import EnumerationTooLarge, Rep, RepCategory


class LocElement(Combination):
    """Terms are (complex class key, gamma, delta)."""


def _record_key(h0, h1, m1p, m0m) -> str:
    """The complex key of the record (H0 class, H1 class, M1+, M0-)."""
    return " / ".join([h0.key, h1.key, ",".join(map(str, m1p)), ",".join(map(str, m0m))])


def _stack_gens(first, second):
    """The rows (x, 0) for x in first, then (0, y) for y in second."""
    out = np.zeros((len(first) + len(second), first.shape[1] + second.shape[1]), dtype=np.int64)
    out[: len(first), : first.shape[1]] = first
    out[len(first) :, first.shape[1] :] = second
    return out


def mor_zero(src: Rep, dst: Rep):
    return tuple(
        np.zeros((dst.dim[i], src.dim[i]), dtype=np.int64) for i in range(len(src.dim))
    )


class Complex:
    """Z2-graded complex of projectives: m1 <-> m0 with d1 d0 = d0 d1 = 0."""

    __slots__ = ("m1", "m0", "d1", "d0", "_key")

    def __init__(self, m1: Rep, m0: Rep, d1, d0, p: int):
        self.m1 = m1
        self.m0 = m0
        self.d1 = tuple(np.asarray(m, dtype=np.int64) % p for m in d1)
        self.d0 = tuple(np.asarray(m, dtype=np.int64) % p for m in d0)
        for i in range(len(m1.dim)):
            if self.d1[i].shape != (m0.dim[i], m1.dim[i]):
                raise QuiverError("d1 component shape mismatch")
            if self.d0[i].shape != (m1.dim[i], m0.dim[i]):
                raise QuiverError("d0 component shape mismatch")
            if ((self.d1[i] @ self.d0[i]) % p).any() or ((self.d0[i] @ self.d1[i]) % p).any():
                raise QuiverError("differentials do not square to zero")
        # the key, filled on first use by ComplexCategory; the terms and
        # differentials are never changed after construction
        self._key = None

    @classmethod
    def _unchecked(cls, m1: Rep, m0: Rep, d1, d0) -> "Complex":
        """A complex whose differentials the caller knows are reduced mod p,
        fit the terms and square to zero, so none of that is checked."""
        cx = cls.__new__(cls)
        cx.m1, cx.m0, cx.d1, cx.d0, cx._key = m1, m0, tuple(d1), tuple(d0), None
        return cx


class ComplexCategory:
    def __init__(self, cat: RepCategory):
        if any(cat.quiver.loops):
            raise QuiverError(
                "complexes of finite projectives need a loop-free quiver"
            )
        self.cat = cat
        self.quiver = cat.quiver
        self.p = cat.p
        self.ring = cat.quiver.scalar_ring()
        self._paths = self._enumerate_paths()
        self.projectives = [self._build_projective(i) for i in range(self.quiver.n)]
        self._resolutions: dict[str, Complex] = {}
        # key -> (first complex with the key, H0 class, H1 class, M1+, M0-)
        self._registry: dict[str, tuple] = {}
        # (dst key, raw d and d_back) and (dst key, ker and im bases) -> one
        # half of a split; see _half_split
        self._raw_halves: dict[tuple, tuple] = {}
        self._halves: dict[tuple, tuple] = {}
        self._product_cache: dict[tuple, LocElement] = {}
        # complex content -> the chain automorphisms _orbit_labels acts by
        self._auts: dict[tuple, np.ndarray] = {}
        # (A key, alpha, B key, beta) -> normal_monomial's shared value
        self._monomials: dict[tuple, LocElement] = {}
        self._zero_rep = cat.zero_rep()
        self.zero_complex = Complex(self._zero_rep, self._zero_rep,
                                    mor_zero(self._zero_rep, self._zero_rep),
                                    mor_zero(self._zero_rep, self._zero_rep), self.p)
        self.zero_key = self.complex_key(self.zero_complex)

    # ------------------------------------------------------------------
    # projectives and resolutions

    def _enumerate_paths(self):
        """paths[i][j]: all paths i -> j as arrow-index tuples, by length."""
        q = self.quiver
        paths = [[[] for _ in range(q.n)] for _ in range(q.n)]
        for i in range(q.n):
            paths[i][i].append(())
            frontier = [((), i)]
            while frontier:
                nxt = []
                for word, at in frontier:
                    for k, (t, h) in enumerate(q.arrows):
                        if t == at:
                            w = word + (k,)
                            paths[i][h].append(w)
                            nxt.append((w, h))
                frontier = nxt
        return paths

    def _build_projective(self, i: int) -> Rep:
        q = self.quiver
        basis = self._paths[i]
        dim = tuple(len(basis[j]) for j in range(q.n))
        index = [{w: r for r, w in enumerate(basis[j])} for j in range(q.n)]
        mats = []
        for k, (t, h) in enumerate(q.arrows):
            m = np.zeros((dim[h], dim[t]), dtype=np.int64)
            for col, w in enumerate(basis[t]):
                m[index[h][w + (k,)], col] = 1
            mats.append(m)
        return self.cat.rep(dim, mats)

    def proj_sum(self, ranks) -> Rep:
        out = self._zero_rep
        for i, r in enumerate(ranks):
            for _ in range(r):
                out = self.cat.direct_sum(out, self.projectives[i])
        return out

    def _path_matrix(self, word, rep: Rep):
        if not word:
            raise ValueError("empty path has no single matrix")
        m = rep.mats[word[0]]
        for k in word[1:]:
            m = (rep.mats[k] @ m) % self.p
        return m

    def resolution(self, a: Rep) -> Complex:
        """Fixed two-term projective resolution of a finite-dimensional rep.

        m0 is the sum of d_i copies of P_i, the augmentation sends the
        (path x, copy u) basis vector to x acting on the u-th basis vector
        of a, and m1 is its kernel with the inclusion as d1.
        """
        key = a.key
        if key in self._resolutions:
            return self._resolutions[key]
        q = self.quiver
        m0 = self.proj_sum(a.dim)
        aug = [np.zeros((a.dim[j], m0.dim[j]), dtype=np.int64) for j in range(q.n)]
        col_offsets = [0] * q.n
        for i in range(q.n):
            for copy in range(a.dim[i]):
                unit = np.zeros((a.dim[i],), dtype=np.int64)
                unit[copy] = 1
                for j in range(q.n):
                    for idx, word in enumerate(self._paths[i][j]):
                        col = col_offsets[j] + idx
                        vec = unit if not word else (self._path_matrix(word, a) @ unit) % self.p
                        aug[j][:, col] = vec
                for j in range(q.n):
                    col_offsets[j] += len(self._paths[i][j])
        kers, frees = zip(*(fplin.nullspace_free(m, self.p) for m in aug))
        assert [x - len(f) for x, f in zip(m0.dim, frees)] == list(a.dim), "augmentation not onto"
        sub = self.cat.sub_rep(m0, kers, frees)
        assert sub is not None, "subspace tuple is not stable"
        cx = Complex(sub, m0, [k.T for k in kers], mor_zero(m0, sub), self.p)
        h0, h1 = self.homology(cx)
        assert h1.total_dim == 0 and self.cat.class_of(h0).key == self.cat.class_of(a).key
        self._resolutions[key] = cx
        return cx

    # ------------------------------------------------------------------
    # basic complex constructions

    def dagger(self, cx: Complex) -> Complex:
        """The shift of cx: terms swapped, differentials negated, so it is a
        complex because cx is."""
        return Complex._unchecked(cx.m0, cx.m1, [(-m) % self.p for m in cx.d0],
                                  [(-m) % self.p for m in cx.d1])

    # ------------------------------------------------------------------
    # homology and decomposition

    def homology(self, cx: Complex):
        """(H0, H1) = (coker f, coker g), read off the split of decompose."""
        return tuple(h for _ranks, h in self.decompose(cx))

    def decompose(self, cx: Complex):
        """What complex_key reads of the split into injective-differential
        summands C_f + C_g-dagger: (plus, minus), with plus = (rank vector of
        M1+, H0) for f: im d1 into ker d0 and minus = (rank vector of M0-,
        H1) for g: im d0 into ker d1.  Each half comes from the _half_split
        memo, so it is shared and callers only read it.
        """
        return self._half_split(cx.m0, cx.d1, cx.d0), self._half_split(cx.m1, cx.d0, cx.d1)

    def _half_split(self, dst: Rep, d, d_back):
        """(rank vector of im d, ker d_back / im d) for one differential.

        Read by `RepCategory.sub_quotient`'s two parts: with K, free =
        `fplin.nullspace_free(d_back)`, ker d_back is sub_rep(dst, K, free).
        The rows of d^T lie in ker d_back, and K is the identity on the free
        columns, so d^T[:, free] are those rows in ker d_back's coordinates:
        with R, pivots its rref, the homology is quotient_rep of ker d_back
        on R.  im d is projective (a submodule of a projective over the
        hereditary kQ) with dimension vector the pivot counts, so its rank
        vector is the K(R) class of those counts: K(R) has the projective
        basis.  That is one elimination per differential per vertex.

        Memoized at two levels.  The first is keyed on dst and the raw
        differentials, which catches the same differentials met again (a
        complex rebuilt from equal data) without any elimination.  Only on
        a miss are K and R computed; they are echelon bases of ker d_back
        and im d, so keyed on dst and those, the second level is the real
        memo, and complexes whose differentials differ but span the same
        spaces (a complex and its dagger, d and 2d) share their halves.
        Both levels hold the same pair: it is shared and callers only read
        it (the homology's matrices are read-only).
        """
        # dst's and the source's dimensions fix every shape, so one byte
        # string of all the blocks is an exact key
        raw = (dst.key, tuple(m.shape[1] for m in d), b"".join(m.tobytes() for m in d + d_back))
        half = self._raw_halves.get(raw)
        if half is not None:
            return half
        p, cat = self.p, self.cat
        kers, frees = zip(*(fplin.nullspace_free(m, p) for m in d_back))
        ims, pivots = [], []
        for m, free in zip(d, frees):
            r, piv = fplin.rref(m.T[:, free], p)
            ims.append(r[: len(piv)])
            pivots.append(piv)
        memo = (dst.key,) + tuple((b.shape, b.tobytes()) for b in kers + tuple(ims))
        half = self._halves.get(memo)
        if half is None:
            ker_sub = cat.sub_rep(dst, kers, frees)
            assert ker_sub is not None, "subspace tuple is not stable"
            hom = cat.quotient_rep(ker_sub, ims, pivots)
            for m in hom.mats:
                m.setflags(write=False)
            ranks = self.quiver.class_of_dimvec([len(piv) for piv in pivots])
            half = self._halves[memo] = (ranks, hom)
        self._raw_halves[raw] = half
        return half

    def plus_minus_classes(self, cx: Complex):
        """K(R)-classes of (M1+, M0+, M1-, M0-), read off the key's record.

        The class is additive on 0 -> M1+ -> M0+ -> H0 -> 0 and on
        0 -> M0- -> M1- -> H1 -> 0.
        """
        _cx, h0, h1, m1p, m0m = self._registry[self.complex_key(cx)]
        return m1p, kv_add(m1p, h0.kclass), kv_add(m0m, h1.kclass), m0m

    def kclass(self, cx: Complex):
        """Class of the complex: class(M0) - class(M1) = [H0] - [H1]."""
        _cx, h0, h1, _m1p, _m0m = self._registry[self.complex_key(cx)]
        return kv_sub(h0.kclass, h1.kclass)

    def complex_key(self, cx: Complex) -> str:
        """Canonical isomorphism-class key; the one place a complex is split.

        Homology pair plus the rank vectors of the plus-part source and the
        minus-part degree-zero term.  The term ranks alone would conflate
        K_P with its shift (same terms, both acyclic, not isomorphic); the
        split ranks pin the acyclic summands of each half, which by unique
        decomposition and Krull-Schmidt determines the class.
        """
        if cx._key not in self._registry:
            (m1p, h0), (m0m, h1) = self.decompose(cx)
            self._register(cx, self.cat.class_of(h0), self.cat.class_of(h1), m1p, m0m)
        return cx._key

    def _register(self, cx: Complex, h0, h1, m1p, m0m) -> str:
        """Key cx by its record (H0 class, H1 class, M1+, M0-), which every
        other invariant reads; the first complex with a key is registered."""
        cx._key = _record_key(h0, h1, m1p, m0m)
        self._registry.setdefault(cx._key, (cx, h0, h1, m1p, m0m))
        return cx._key

    def _sum_key(self, cx: Complex, kb: str, ka: str) -> str:
        """Key of cx = B + A, read off the records of B and A without a split:
        homology is additive on direct sums, and so are M1+ and M0-."""
        _b, bh0, bh1, bm1p, bm0m = self._registry[kb]
        _a, ah0, ah1, am1p, am0m = self._registry[ka]
        h0, h1 = (self.cat.class_of(self.cat.direct_sum(x.rep, y.rep))
                  for x, y in ((bh0, ah0), (bh1, ah1)))
        return self._register(cx, h0, h1, kv_add(bm1p, am1p), kv_add(bm0m, am0m))

    def _shift_key(self, key: str, register: bool = False) -> str:
        """Key of the shift of the complexes keyed `key`, read off their record
        without a split: cx-dagger's H0 is ker d1 / im d0 = H1 of cx, and its
        M1+ is im d0 = M0- of cx, so the record is (H1, H0, M0-, M1+).  With
        `register`, a new shift key is registered with the dagger of key's
        first complex."""
        cx, h0, h1, m1p, m0m = self._registry[key]
        shift = _record_key(h1, h0, m0m, m1p)
        if register and shift not in self._registry:
            self._register(self.dagger(cx), h1, h0, m0m, m1p)
        return shift

    def by_key(self, key: str) -> Complex:
        return self._registry[key][0]

    # ------------------------------------------------------------------
    # morphism spaces

    def _chain_map_rows(self, a: Complex, b: Complex):
        """Basis of chain maps a -> b as the rows of a matrix of entry vectors.

        The rows are the nullspace of the chain-map conditions on the
        generators (s1, 0) and (0, s0), for s1 and s0 in the Hom bases of the
        terms, times the generators' entry vectors, mod p.
        """
        gens = _stack_gens(self.cat.hom_rows(a.m1, b.m1), self.cat.hom_rows(a.m0, b.m0))
        kernel = fplin.nullspace(self._conditions(gens, a, b).T, self.p)
        return kernel @ gens % self.p

    def _conditions(self, rows, a: Complex, b: Complex):
        """Per map (s1, s0) in rows, the entry vector of (s0 d1(a) - d1(b) s1,
        s1 d0(a) - d0(b) s0) mod p: zero exactly on chain maps a -> b."""
        (s1, s0), n = self._chain_map(rows, a, b), range(self.quiver.n)
        c1 = [s0[i] @ a.d1[i] - b.d1[i] @ s1[i] for i in n]
        c0 = [s1[i] @ a.d0[i] - b.d0[i] @ s0[i] for i in n]
        return self._chain_map_vector(c1, c0) % self.p

    def _chain_map(self, row, a: Complex, b: Complex):
        """The chain map (s1, s0) a -> b whose entry vector is row (views into
        it), or the stacks of such maps over the rows of a matrix."""
        return self._split(row, ((a.m1, b.m1), (a.m0, b.m0)))

    def _split(self, rows, pairs):
        """Per (src, dst) pair, the blocks Hom(src_i, dst_i) that follow one
        another in entry vectors: the matrices of one vector (a 1-d row), or
        their stacks over the rows of a matrix; views into rows either way."""
        out, at = [], 0
        for src, dst in pairs:
            blocks = []
            for i in range(self.quiver.n):
                size = dst.dim[i] * src.dim[i]
                blocks.append(rows[..., at : at + size].reshape(
                    rows.shape[:-1] + (dst.dim[i], src.dim[i])))
                at += size
            out.append(tuple(blocks))
        return tuple(out)

    def _chain_map_vector(self, s1, s0):
        """Entry vector of (s1, s0), or the rows of such vectors for stacked maps."""
        return np.concatenate(
            [m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],)) for m in (*s1, *s0)],
            axis=-1,
        )

    def homotopy_image(self, a: Complex, b: Complex):
        """Chain maps homotopic to zero, as entry vectors (rows): the maps
        (d0(b) h + k d1(a), h d0(a) + d1(b) k) for the generators (h, 0) and
        (0, k), h and k in the Hom bases of a.m1 -> b.m0 and a.m0 -> b.m1."""
        gens = _stack_gens(self.cat.hom_rows(a.m1, b.m0), self.cat.hom_rows(a.m0, b.m1))
        (h, k), n = self._split(gens, ((a.m1, b.m0), (a.m0, b.m1))), range(self.quiver.n)
        t1 = [b.d0[i] @ h[i] + k[i] @ a.d1[i] for i in n]
        t0 = [h[i] @ a.d0[i] + b.d1[i] @ k[i] for i in n]
        return self._chain_map_vector(t1, t0) % self.p

    def homotopy_classes(self, a: Complex, b: Complex):
        """[(chain map, orbit size)] over the orbits of homotopy classes a -> b
        under `_orbit_labels`, each represented by its least class code (the
        coefficients on a complement of the homotopy image in the chain maps,
        in `itertools.product` order): the zero map comes first, alone."""
        basis = self._chain_map_rows(a, b)
        if not len(basis):
            return [((mor_zero(a.m1, b.m1), mor_zero(a.m0, b.m0)), 1)]
        # d^2 = 0 on cone(s) is linear in s, so checking the basis maps
        # checks the cone of every class `cone` builds for this pair
        if self._conditions(basis, a, b).any():
            raise AssertionError(
                f"a basis map {self.complex_key(a)} -> {self.complex_key(b)} is not a chain map"
            )
        null_rows = self.homotopy_image(a, b)
        # pivot columns past the null rows: basis maps independent modulo
        # the homotopy image and the basis maps chosen before them
        _r, pivots = fplin.rref(np.concatenate([null_rows, basis]).T, self.p)
        complement = basis[[pc - len(null_rows) for pc in pivots if pc >= len(null_rows)]]
        count, bound = self.p ** len(complement), self.cat.bounds.max_aut_candidates
        if count > bound:
            raise EnumerationTooLarge(
                f"{count} homotopy classes exceed max_aut_candidates={bound}"
            )
        # int8 digits (p <= 10): _orbit_labels' float64 copy is then the one
        # full-size array that outlives a product
        codes = (np.arange(count)[:, None] // self.p ** np.arange(len(complement))[::-1]
                 % self.p).astype(np.int8)
        # with at most one nonzero class there is nothing to merge
        labels = (self._orbit_labels(a, b, null_rows, complement, codes) if count > 2
                  else np.arange(count))
        reps, sizes = np.unique(labels, return_counts=True)
        return [(self._chain_map(row, a, b), int(n))
                for row, n in zip(codes[reps] @ complement % self.p, sizes)]

    def _orbit_labels(self, a: Complex, b: Complex, null_rows, complement, codes):
        """Per class code, the least code in its orbit under s -> g s h, g and h
        in `_automorphisms` of b and a: the cones of s and g s h are isomorphic,
        as are those of homotopic maps.  g C and C h for the complement rows C,
        read in C modulo the homotopy image, give the matrix each one acts by."""
        p, n, k = self.p, range(self.quiver.n), len(complement)
        c1, c0 = self._chain_map(complement, a, b)
        (g1, g0), (h1, h0) = (self._chain_map(self._automorphisms(x), x, x) for x in (b, a))
        left = [[g[i][:, None] @ c[i] for i in n] for g, c in ((g1, c1), (g0, c0))]
        right = [[c[i] @ h[i][:, None] for i in n] for h, c in ((h1, c1), (h0, c0))]
        moved = np.concatenate([self._chain_map_vector(*left), self._chain_map_vector(*right)]) % p
        coords = fplin.solve(np.concatenate([null_rows, complement]).T,
                             moved.reshape(-1, moved.shape[-1]).T, p)
        assert coords is not None, "an automorphism moved a chain map out of the chain maps"
        # one float64 product per generator (BLAS; numpy has none for int64),
        # exact while every dot product of k terms below p^2 stays below 2^53;
        # reduced mod p back in int64, where % is cheaper than on floats
        assert k * (p - 1) ** 2 < 2**53, "an orbit-label product would round"
        fcodes = codes.astype(np.float64)
        images = [np.ravel_multi_index(((fcodes @ act).astype(np.int64) % p).T, (p,) * k)
                  for act in coords[len(null_rows):].T.reshape(-1, k, k).astype(np.float64)]
        # edges hook larger labels onto smaller ones, compressed, until none move
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

    def _automorphisms(self, cx: Complex):
        """Chain automorphisms id + r of cx, r a row of the chain-map basis
        cx -> cx, whose vertex blocks are invertible; memoized per content of
        cx.  Any automorphisms give orbits no coarser than the true ones."""
        memo = (cx.m1.key, cx.m0.key, b"".join(m.tobytes() for m in cx.d1 + cx.d0))
        if memo not in self._auts:
            ident = self._chain_map_vector(*(
                [np.eye(d, dtype=np.int64) for d in term.dim] for term in (cx.m1, cx.m0)))
            rows = (ident + self._chain_map_rows(cx, cx)) % self.p
            self._auts[memo] = rows[self._invertible(rows, cx)]
            self._check_automorphisms(self._auts[memo], cx)
        return self._auts[memo]

    def _invertible(self, rows, cx: Complex):
        """Per row, whether every vertex block of the map cx -> cx it encodes is
        invertible."""
        blocks = sum(self._chain_map(rows, cx, cx), ())
        return [all(fplin.is_invertible(m[j], self.p) for m in blocks) for j in range(len(rows))]

    def _check_automorphisms(self, gens, cx: Complex):
        """Refuse, naming cx, a generator that is not a chain automorphism."""
        if self._conditions(gens, cx, cx).any() or not all(self._invertible(gens, cx)):
            raise AssertionError(f"not a chain automorphism of {self.complex_key(cx)}")

    # ------------------------------------------------------------------
    # cones

    def cone(self, s, src: Complex, tgt: Complex) -> Complex:
        """Cone of a chain map src -> tgt; extension of src by tgt-dagger.

        s is a map from `homotopy_classes(src, tgt)`, reduced mod p.  The cone
        squares to zero because s is a chain map (its off-diagonal blocks of
        d^2 are s's chain-map conditions), which `homotopy_classes` checks
        once per pair, so `Complex.__init__`'s check is not run again.
        """
        s1, s0 = s
        q = self.quiver
        m1 = self.cat.direct_sum(tgt.m0, src.m1)
        m0 = self.cat.direct_sum(tgt.m1, src.m0)
        d1, d0 = [], []
        for i in range(q.n):
            blk = np.zeros((m0.dim[i], m1.dim[i]), dtype=np.int64)
            blk[: tgt.m1.dim[i], : tgt.m0.dim[i]] = (-tgt.d0[i]) % self.p
            blk[: tgt.m1.dim[i], tgt.m0.dim[i] :] = s1[i]
            blk[tgt.m1.dim[i] :, tgt.m0.dim[i] :] = src.d1[i]
            d1.append(blk)
            blk = np.zeros((m1.dim[i], m0.dim[i]), dtype=np.int64)
            blk[: tgt.m0.dim[i], : tgt.m1.dim[i]] = (-tgt.d1[i]) % self.p
            blk[: tgt.m0.dim[i], tgt.m1.dim[i] :] = s0[i]
            blk[tgt.m0.dim[i] :, tgt.m1.dim[i] :] = src.d0[i]
            d0.append(blk)
        return Complex._unchecked(m1, m0, d1, d0)

    # ------------------------------------------------------------------
    # Hall structure

    def mu(self, a: Complex, b: Complex) -> int | Fraction:
        am1p, am0p, am1m, am0m = self.plus_minus_classes(a)
        bm1p, bm0p, bm1m, bm0m = self.plus_minus_classes(b)
        e = self.quiver.euler_form
        return e(am0p, bm1p) + e(am1p, bm1m) + e(am0m, bm0p) + e(am1m, bm0m)

    def h_value(self, a: Complex, b: Complex) -> Fraction:
        """h(a,b) = q^mu |Hom(H a, H b)|, a positive rational."""
        mu = self.mu(a, b)
        assert mu.denominator == 1, "mu must be integral on loop-free quivers"
        ha0, ha1 = self._registry[self.complex_key(a)][1:3]
        hb0, hb1 = self._registry[self.complex_key(b)][1:3]
        hom = self.cat.hom_dim(ha0.rep, hb0.rep) + self.cat.hom_dim(ha1.rep, hb1.rep)
        return Fraction(self.p) ** (int(mu) + hom)

    def product(self, x: LocElement, y: LocElement) -> LocElement:
        out = LocElement.zero(self.ring)
        for (ka, ga, da), ca in x.terms.items():
            for (kb, gb, db), cb in y.terms.items():
                _b, h0, h1, _m1p, _m0m = self._registry[kb]
                scale = ca * cb * self.ring.v_pow(
                    self.quiver.sym_form(kv_sub(ga, da), kv_sub(h0.kclass, h1.kclass))
                )
                gamma = kv_add(ga, gb)
                delta = kv_add(da, db)
                for (pk, g0, d0), c in self._mono_product(ka, kb).terms.items():
                    out.add_term((pk, kv_add(g0, gamma), kv_add(d0, delta)), c * scale)
        return out

    def _mono_product(self, ka: str, kb: str) -> LocElement:
        """<A> o <B> for two complex keys, memoized: the value is shared.

        One cone per homotopy class of maps A -> B-dagger, each weighted by
        the twist over h(A, B); one cone is keyed per orbit of classes, and
        counted with the orbit's size.  The zero complex is the unit (twist
        and h are 1 and the one cone is B + 0 or 0 + A), and the first class
        is the zero map, whose cone B + A is keyed by `_sum_key` without a
        split; only the other cones go through `complex_key`.

        The pair of shifts is computed once.  The shift is an exact
        autoequivalence, so <A-dagger> o <B-dagger>, when memoized, gives
        <A> o <B> with each key replaced by its `_shift_key` and no cone
        built.  The coefficient is shift-invariant: mu's four Euler-form
        terms permute among themselves, and the twist's two summands and
        Hom(H a, H b)'s two summands each swap.
        """
        memo = (ka, kb)
        if memo in self._product_cache:
            return self._product_cache[memo]
        z = self.quiver.zero_kvector()
        if self.zero_key in memo:
            out = LocElement.basis(self.ring, (kb if ka == self.zero_key else ka, z, z))
            self._product_cache[memo] = out
            return out
        shifted = self._product_cache.get((self._shift_key(ka), self._shift_key(kb)))
        if shifted is not None:
            out = LocElement(self.ring, {(self._shift_key(key, register=True), z, z): c
                                         for (key, _g, _d), c in shifted.terms.items()})
            self._product_cache[memo] = out
            return out
        a, b = self.by_key(ka), self.by_key(kb)
        # the terms: M1 = M1+ + M1-, M0 = M0+ + M0-
        (a1p, a0p, a1m, a0m), (b1p, b0p, b1m, b0m) = map(self.plus_minus_classes, (a, b))
        tw = self.ring.v_pow(
            self.quiver.euler_form(kv_add(a0p, a0m), kv_add(b0p, b0m))
            + self.quiver.euler_form(kv_add(a1p, a1m), kv_add(b1p, b1m))
        )
        coeff = tw * (1 / self.h_value(a, b))
        bshift = self.dagger(b)
        (zero_map, _one), *rest = self.homotopy_classes(a, bshift)
        counts = Counter({self._sum_key(self.cone(zero_map, a, bshift), kb, ka): 1})
        for s, n in rest:
            counts[self.complex_key(self.cone(s, a, bshift))] += n
        out = LocElement(self.ring, {(key, z, z): coeff * n for key, n in counts.items()})
        self._product_cache[memo] = out
        return out

    def product_all(self, factors) -> LocElement:
        out = self.one()
        for f in factors:
            out = self.product(out, f)
        return out

    # ------------------------------------------------------------------
    # localized generators and normalization

    def loc(self, cx: Complex, gamma=None, delta=None, coeff=None) -> LocElement:
        z = self.quiver.zero_kvector()
        term = (
            self.complex_key(cx),
            z if gamma is None else tuple(gamma),
            z if delta is None else tuple(delta),
        )
        return LocElement.basis(self.ring, term, coeff)

    def one(self) -> LocElement:
        return self.loc(self.zero_complex)

    def k_elem(self, alpha) -> LocElement:
        return self.loc(self.zero_complex, gamma=alpha)

    def kd_elem(self, beta) -> LocElement:
        return self.loc(self.zero_complex, delta=beta)

    def e_of_complex(self, cx: Complex) -> LocElement:
        """The attached localized element of an arbitrary complex.

        Twist times K_{-M1+} Kd_{-M0-} times the class, with the K factors
        commuted into the right-hand storage convention.  Normalizing this
        always lands on the bare homology coordinate with coefficient one,
        and it is unchanged under adding acyclic summands.
        """
        p_hat, _q0p, _q1m, q_hat = self.plus_minus_classes(cx)
        m_hat = self.kclass(cx)
        coeff = self.ring.v_pow(self.quiver.euler_form(m_hat, kv_sub(q_hat, p_hat)))
        return self.loc(cx, gamma=kv_neg(p_hat), delta=kv_neg(q_hat), coeff=coeff)

    def e_elem(self, a: Rep) -> LocElement:
        return self.e_of_complex(self.resolution(a))

    def f_elem(self, b: Rep) -> LocElement:
        return self.e_of_complex(self.dagger(self.resolution(b)))

    def normalize(self, x: LocElement) -> Combination:
        """Coordinates on the two-sided generator basis.

        From the definition of the attached generator (twist K's on the
        left), commuting them to the right gives

            <M> K_g Kd_d = v^(<M, P - Q>) E(H0, H1) o K_{P+g} o Kd_{Q+d}

        with P, Q the classes of the plus-part degree-1 and minus-part
        degree-0 terms; output terms are (H0 key, H1 key, kvec, kvec).
        """
        out = Combination.zero(self.ring)
        for (key, gamma, delta), c in x.terms.items():
            _cx, h0, h1, m1p, m0m = self._registry[key]
            tw = self.ring.v_pow(
                self.quiver.euler_form(kv_sub(h0.kclass, h1.kclass), kv_sub(m1p, m0m))
            )
            out.add_term((h0.key, h1.key, kv_add(m1p, gamma), kv_add(m0m, delta)), c * tw)
        return out

    def normal_monomial(self, mono) -> LocElement:
        """E_A K_alpha F_B Kd_beta on the complex side, for mono (A, alpha, B, beta).

        Memoized per monomial: the value is shared, and callers only read it
        (`scale`, `product` and `normalize` all build new elements).
        """
        if mono in self._monomials:
            return self._monomials[mono]
        akey, alpha, bkey, beta = mono
        factors = []
        a = self.cat.class_by_key(akey)
        b = self.cat.class_by_key(bkey)
        if a.total_dim:
            factors.append(self.e_elem(a.rep))
        if any(alpha):
            factors.append(self.k_elem(alpha))
        if b.total_dim:
            factors.append(self.f_elem(b.rep))
        if any(beta):
            factors.append(self.kd_elem(beta))
        self._monomials[mono] = self.product_all(factors)
        return self._monomials[mono]

    def eval_dh_element(self, x) -> Combination:
        out = Combination.zero(self.ring)
        for mono, c in x.terms.items():
            contrib = self.normalize(self.normal_monomial(mono))
            for term, d in contrib.terms.items():
                out.add_term(term, c * d)
        return out

    def render(self, x: Combination) -> str:
        return x.render(str)
