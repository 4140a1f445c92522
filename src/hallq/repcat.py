"""The finitary category of finite-dimensional quiver representations.

Everything here is exhaustive and exact over F_p: intertwiner spaces by
linear algebra, isomorphism classes by full base-change orbit enumeration
(`_orbit`) with lexicographic minima as canonical forms, Hall numbers by
enumerating edge-stable subspace tuples, and the E·E constants by counting
Ext^1 cocycles (`middle_terms`).  Every sub and quotient, here and
in `cplx`, is read off an echelon basis by `RepCategory.sub_quotient`.
Deliberately correctness-first; the hard bounds below keep runs at desk
scale.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import product

from . import fplin
from .fplin import np
from .cache import CacheStore
from .quiver import Quiver, QuiverError

# id of the canonical-form algorithm (the least orbit code under the
# base-change group); it leads every persistent cache key after the format tag
CANONICAL_FORM = "orbit-lexmin/1"


class EnumerationTooLarge(RuntimeError):
    pass


class CacheCorruption(RuntimeError):
    """A persistent cache hit disagreed with recomputation (audit mode)."""


_DIGITS = "0123456789"

_KEY_SHAPES: dict[tuple, tuple] = {}  # by content hash: no Quiver is hashed


def _key_shape(quiver: Quiver, dims: str):
    """(d, pattern of every class key of d) if dims is d written canonically.

    A key of d is `dims|` and one `;`-separated block per arrow t->h of
    d_h*d_t digits below p.
    """
    memo = (quiver.content_hash(), dims)
    shape = _KEY_SHAPES.get(memo)
    if shape is None:
        try:
            dim = tuple(map(int, dims.split(",")))
        except ValueError:
            return None
        if len(dim) != quiver.n or min(dim) < 0 or ",".join(map(str, dim)) != dims:
            return None
        digit = "[" + _DIGITS[: quiver.p] + "]"
        blocks = ";".join(f"{digit}{{{dim[h] * dim[t]}}}" for t, h in quiver.arrows)
        shape = _KEY_SHAPES[memo] = (dim, re.compile(re.escape(dims) + r"\|" + blocks))
    return shape


def int_matrix(m, p: int):
    """The int64 array of m's entries reduced mod p.

    Each entry must be an integer: numpy's, Python's of any size, or a float
    of integral value (as `np.zeros` gives).  Any other entry (1.7, "1",
    nan) is refused with QuiverError, where an int64 cast would cut or
    parse it.  So is a ragged m, which numpy cannot make an array of.
    """
    try:
        a = np.asarray(m)
    except ValueError:
        raise QuiverError(f"matrix {m!r} is not rectangular") from None
    if a.dtype.kind not in "biu":  # entry by entry, each reduced before the cast
        a = np.array([_int_entry(x) % p for x in a.flat], dtype=np.int64).reshape(a.shape)
    return (a % p).astype(np.int64, copy=False)


def _int_entry(x) -> int:
    """x as a Python int, if it is an integer or a float of integral value."""
    x = x.item() if isinstance(x, np.generic) else x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    try:
        return operator.index(x)
    except TypeError:
        raise QuiverError(f"matrix entry {x!r} is not an integer") from None


@dataclass(frozen=True)
class Bounds:
    max_total_dim: int = 6
    max_p: int = 5
    max_tuples: int = 10**8
    max_group: int = 10**6
    max_aut_candidates: int = 1 << 22


class Rep:
    """A representation: dimension vector plus one matrix per arrow.

    A Rep read from a class key (`Rep.from_key`) keeps the key as given and
    decodes its matrices on first use of `mats`.  The engine builds the
    Reps whose matrices it already reduced through `Rep._reduced`.
    """

    __slots__ = ("quiver", "dim", "_mats", "_key")

    def __init__(self, quiver: Quiver, dim, mats):
        self._fill(quiver, dim, mats, quiver.p)

    @classmethod
    def _reduced(cls, quiver: Quiver, dim, mats) -> "Rep":
        """A Rep whose matrices the caller knows are int64 and reduced mod p,
        and owns, so they are kept as given; the dimension vector and the
        shapes are still checked, as `Rep(...)` checks them."""
        rep = cls.__new__(cls)
        rep._fill(quiver, dim, mats, None)
        return rep

    def _fill(self, quiver: Quiver, dim, mats, p):
        """Set and check the fields; the matrices are reduced mod p unless p is None."""
        self.quiver = quiver
        self.dim = quiver.read_dimvec(dim)
        mats = tuple(mats if p is None else (int_matrix(m, p) for m in mats))
        if len(mats) != len(quiver.arrows):
            raise QuiverError("one matrix per arrow required")
        for (t, h), m in zip(quiver.arrows, mats):
            if m.shape != (self.dim[h], self.dim[t]):
                raise QuiverError(
                    f"matrix shape {m.shape} does not match arrow {t}->{h}"
                )
        self._mats = mats
        self._key = None

    @classmethod
    def from_key(cls, quiver: Quiver, key: str) -> "Rep":
        """The representation a class key `d_1,...,d_n|block;...;block` names.

        Each block lists one arrow's matrix row by row, one digit per entry.
        The key's shape is checked here; the matrices are decoded lazily.
        """
        dims, sep, _ = key.partition("|")
        shape = _key_shape(quiver, dims)
        if shape is None or not sep:
            raise QuiverError(f"malformed class key {key!r}: bad dimension vector")
        dim, pattern = shape
        if pattern.fullmatch(key) is None:
            raise QuiverError(
                f"malformed class key {key!r}: expected one block of digits "
                f"< {quiver.p} per arrow, each d_head*d_tail long"
            )
        return cls._keyed(quiver, dim, key)

    @classmethod
    def _keyed(cls, quiver: Quiver, dim: tuple, key: str) -> "Rep":
        """The Rep of a key of dimension vector `dim` already checked."""
        rep = cls.__new__(cls)
        rep.quiver = quiver
        rep.dim = dim
        rep._mats = None
        rep._key = key
        return rep

    @property
    def mats(self) -> tuple:
        if self._mats is None:
            blocks = self._key.partition("|")[2].split(";")
            self._mats = tuple(
                np.array([int(c) for c in part], dtype=np.int64).reshape(
                    self.dim[h], self.dim[t]
                )
                for (t, h), part in zip(self.quiver.arrows, blocks)
            )
        return self._mats

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    @property
    def key(self) -> str:
        if self._key is None:
            dims = ",".join(map(str, self.dim))
            blocks = ";".join("".join(map(str, m.ravel().tolist())) for m in self._mats)
            self._key = f"{dims}|{blocks}"
        return self._key

    def __eq__(self, other):
        return isinstance(other, Rep) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Rep({self.key})"


class IsoClass:
    """An isomorphism class: its canonical key, dimension vector, |Aut| and
    class in the Grothendieck group.

    Classes of one `RepCategory` are unique per key, and compare and hash by
    key.  The representative `rep` is the Rep the key names; a class read
    from a cache record decodes it from the key on first use, so a warm
    session builds no Rep for a class it only counts.
    """

    __slots__ = ("quiver", "key", "dim", "aut_order", "kclass", "_rep")

    def __init__(self, quiver: Quiver, key: str, dim: tuple, aut_order: int, kclass: tuple,
                 rep: Rep | None = None):
        self.quiver = quiver
        self.key = key
        self.dim = dim
        self.aut_order = aut_order
        self.kclass = kclass
        self._rep = rep

    @property
    def rep(self) -> Rep:
        if self._rep is None:
            self._rep = Rep._keyed(self.quiver, self.dim, self.key)
        return self._rep

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    def __eq__(self, other):
        return isinstance(other, IsoClass) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<{self.key}>"


def _sort_key(cls: IsoClass):
    return (cls.total_dim, cls.dim, cls.key)


class RepCategory:
    """Context object: one quiver, one field, shared memo caches.

    The memo caches are plain dicts with no locking: one context, and every
    algebra built on it, is used by one thread.
    """

    def __init__(self, quiver: Quiver, bounds: Bounds | None = None, store=None):
        self.quiver = quiver
        self.p = quiver.p
        self.ring = quiver.scalar_ring()
        self.bounds = bounds or Bounds()
        if self.p > self.bounds.max_p:
            raise EnumerationTooLarge(f"p={self.p} exceeds bound {self.bounds.max_p}")
        if self.p > 10:
            raise EnumerationTooLarge(
                f"p={self.p} exceeds 10: class keys hold one decimal digit per matrix entry"
            )
        self.store = store
        head = (CANONICAL_FORM, quiver.content_hash(), str(self.p))
        self._key_heads = {
            op: CacheStore.key_head(*head, op) for op in ("classify", "subquot")
        }
        # the key of the zero class (as `zero_rep().key`, with no Rep built)
        self._zero_key = ",".join("0" * quiver.n) + "|" + ";" * (len(quiver.arrows) - 1)
        self._classify: dict[tuple, list[IsoClass]] = {}
        # every Rep key met, canonical or not -> its class
        self._class: dict[str, IsoClass] = {}
        self._hom_rows: dict[tuple, np.ndarray] = {}
        self._sums: dict[tuple, Rep] = {}
        self._subquot: dict[str, dict] = {}
        self._middle: dict[tuple, list] = {}
        self._gl: dict[int, tuple] = {}
        self._stacks: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # construction helpers

    def rep(self, dim, mats) -> Rep:
        return Rep(self.quiver, dim, mats)

    def zero_rep(self) -> Rep:
        z = (0,) * self.quiver.n
        return self.rep(z, [np.zeros((0, 0), dtype=np.int64) for _ in self.quiver.arrows])

    def simple(self, i: int, lam=()) -> Rep:
        """Simple at vertex i; lam gives the scalars on the loops at i."""
        q = self.quiver
        if len(lam) != q.loops[i]:
            raise QuiverError(f"vertex {q.vertices[i]} needs {q.loops[i]} loop scalars")
        dim = tuple(1 if j == i else 0 for j in range(q.n))
        mats = []
        loop_at = 0
        for t, h in q.arrows:
            if t == h == i:
                mats.append([[lam[loop_at]]])  # read by Rep, as every matrix is
                loop_at += 1
            else:
                mats.append(np.zeros((dim[h], dim[t]), dtype=np.int64))
        return self.rep(dim, mats)

    def direct_sum(self, a: Rep, b: Rep) -> Rep:
        """a + b, block diagonal.  Memoized per (A, B), so the Rep is shared
        and callers only read it; its matrices are read-only."""
        memo = (a.key, b.key)
        if memo in self._sums:
            return self._sums[memo]
        dim = tuple(x + y for x, y in zip(a.dim, b.dim))
        mats = []
        for k, (t, h) in enumerate(self.quiver.arrows):
            m = np.zeros((dim[h], dim[t]), dtype=np.int64)
            m[: a.dim[h], : a.dim[t]] = a.mats[k]
            m[a.dim[h] :, a.dim[t] :] = b.mats[k]
            mats.append(m)
        out = self._sums[memo] = Rep._reduced(self.quiver, dim, mats)
        for m in out.mats:
            m.setflags(write=False)
        return out

    # ------------------------------------------------------------------
    # hom / ext / aut

    def _coboundary(self, a: Rep, b: Rep):
        """The map (f_i) -> (f_h x_e - y_e f_t) from sum_i Hom_k(a_i, b_i) to
        Z^1 = sum_e Hom_k(a_t, b_h), as one matrix.

        One column per unknown entry, each f_i row by row; one block of rows
        per arrow e = (t, h), its (b_h x a_t) entries row by row.  Its kernel
        is Hom(a, b) and its image is B^1, so Ext^1(a, b) = Z^1 / image.
        """
        q, p = self.quiver, self.p
        offs = np.cumsum([0] + [b.dim[i] * a.dim[i] for i in range(q.n)])
        blocks = [np.zeros((0, offs[-1]), dtype=np.int64)]
        for (t, h), x, y in zip(q.arrows, a.mats, b.mats):
            rows = b.dim[h] * a.dim[t]
            block = np.zeros((rows, offs[-1]), dtype=np.int64)
            # kron(1, x^T) and kron(y, 1), broadcast: np.kron costs more
            # than the product at these sizes
            block[:, offs[h] : offs[h + 1]] += (
                np.eye(b.dim[h], dtype=np.int64)[:, None, :, None] * x.T[None, :, None, :]
            ).reshape(rows, offs[h + 1] - offs[h])
            block[:, offs[t] : offs[t + 1]] -= (
                y[:, None, :, None] * np.eye(a.dim[t], dtype=np.int64)[None, :, None, :]
            ).reshape(rows, offs[t + 1] - offs[t])
            blocks.append(block % p)
        return np.concatenate(blocks)

    def hom_rows(self, a: Rep, b: Rep):
        """A basis of the intertwiner space Hom(a, b), as the rows of one
        read-only matrix: each row lists f_1, ..., f_n one after another,
        each row by row, with f_h x_e = y_e f_t for every arrow e = (t, h).
        It is the nullspace of `_coboundary(a, b)`.  Memoized per (A, B), so
        the matrix is shared and callers only read it.
        """
        if a.quiver is not self.quiver or b.quiver is not self.quiver:
            raise QuiverError("representations from a different context")
        memo = (a.key, b.key)
        kernel = self._hom_rows.get(memo)
        return self._store_hom(memo, self._coboundary(a, b)) if kernel is None else kernel

    def _store_hom(self, memo: tuple, system):
        """The `hom_rows` basis of the pair keyed `memo`, stored from its
        coboundary `system`: the read-only nullspace."""
        kernel = self._hom_rows[memo] = fplin.nullspace(system, self.p)
        kernel.setflags(write=False)
        return kernel

    def hom_dim(self, a: Rep, b: Rep) -> int:
        return len(self.hom_rows(a, b))

    def hom_count(self, a: Rep, b: Rep) -> int:
        return self.p ** self.hom_dim(a, b)

    def ext_dim(self, a: Rep, b: Rep) -> int:
        val = self.hom_dim(a, b) - self.quiver.euler_dimvec(a.dim, b.dim)
        if val < 0:
            raise AssertionError("negative ext dimension: hereditary identity broken")
        return val

    # ------------------------------------------------------------------
    # isomorphism classification

    def _gl_stack(self, n: int):
        """GL_n(F_p) stacked into one (|GL_n|, n, n) array, and its inverses
        stacked in the same order (`fplin.all_invertible`)."""
        if n not in self._gl:
            self._gl[n] = fplin.all_invertible(n, self.p)
        return self._gl[n]

    def _group_order(self, dim) -> int:
        """|prod GL(d_i)|, from the order formula; no element is listed."""
        size = 1
        for d in dim:
            size *= fplin.gl_order(d, self.p)
        return size

    def _group_stacks(self, dim):
        """Stacked base-change data for the full group prod GL(d_i).

        Returns (size, per-vertex array of shape (size, d_i, d_i), inverses).
        Cached per dimension vector: class canonicalization calls this for
        every sub and quotient it meets.  The group order is checked against
        the bound before any group element is listed.
        """
        dim = tuple(dim)
        if dim in self._stacks:
            return self._stacks[dim]
        size = self._group_order(dim)
        if size > self.bounds.max_group:
            raise EnumerationTooLarge(f"base-change group of size {size} too large")
        gl = [self._gl_stack(d) for d in dim]
        idx = np.array(list(product(*[range(len(g)) for g, _ in gl])), dtype=np.int64)
        stacks = [g[idx[:, i]] for i, (g, _) in enumerate(gl)]
        inv_stacks = [g_inv[idx[:, i]] for i, (_, g_inv) in enumerate(gl)]
        out = (size, stacks, inv_stacks)
        self._stacks[dim] = out
        return out

    def _orbit(self, rep: Rep):
        """(codes of rep's base-change orbit, its registered class).

        The class is the representation of the least code, with
        aut = |group| / |orbit|.  A representation with no matrix entries
        is its own canonical form, and the whole group fixes it: its orbit
        is the one code 0, and no group element is listed.
        """
        d = rep.dim
        entry_counts = [d[t] * d[h] for t, h in self.quiver.arrows]
        if not any(entry_counts):
            cls = self._register(rep.key, d, self._group_order(d), rep=rep)
            return np.zeros(1, dtype=np.int64), cls
        size, stacks, inv_stacks = self._group_stacks(d)
        # a code ranges up to p^entries - 1; past 2^63 - 1 it would wrap and
        # distinct matrix tuples would share a code
        entries = sum(entry_counts)
        if self.p**entries - 1 > np.iinfo(np.int64).max:
            raise EnumerationTooLarge(
                f"orbit codes of {entries} entries over F_{self.p} overflow int64"
            )
        pieces = []
        for k, (t, h) in enumerate(self.quiver.arrows):
            imgs = np.matmul(stacks[h], np.matmul(rep.mats[k][None, :, :], inv_stacks[t]))
            pieces.append((imgs % self.p).reshape(size, -1))
        pows = self.p ** np.arange(entries, dtype=np.int64)
        # np.unique's sorted distinct codes, by a sort and a neighbour mask:
        # np.unique itself imports numpy.ma on its first call
        orbit = np.sort(np.concatenate(pieces, axis=1) @ pows)
        orbit = orbit[np.concatenate(([True], orbit[1:] != orbit[:-1]))]
        assert size % len(orbit) == 0
        canon = Rep._reduced(self.quiver, d, self._decode(int(orbit[0]), d, entry_counts))
        return orbit, self._register(canon.key, d, size // len(orbit), rep=canon)

    def classify(self, d) -> list:
        """All isomorphism classes with dimension vector d, sorted by key."""
        d = self.quiver.read_dimvec(d)
        if d in self._classify:
            return self._classify[d]
        entry_counts = self._entry_counts(d)
        n_tuples = self.p ** sum(entry_counts)

        def compute():
            # one orbit per class, from the least matrix tuple no orbit has met
            seen = np.zeros(n_tuples, dtype=bool)
            classes = []
            for code in range(n_tuples):
                if not seen[code]:
                    orbit, cls = self._orbit(
                        Rep._reduced(self.quiver, d, self._decode(code, d, entry_counts)))
                    seen[orbit] = True
                    classes.append(cls)
            classes.sort(key=_sort_key)
            return [[c.key, c.aut_order] for c in classes]

        rows = self._stored("classify", d, compute)
        self._check_class_rows(d, rows)
        kclass = self.quiver.class_of_dimvec(d)
        classes = self._classify[d] = [self._register(key, d, aut, kclass) for key, aut in rows]
        return classes

    def _entry_counts(self, d: tuple) -> list:
        """The matrix entries of d per arrow, once d passes the bounds on
        enumerating it: its total dimension, then its p^entries candidate
        matrix tuples.  `classify` and `middle_terms` check them alike.
        """
        if sum(d) > self.bounds.max_total_dim:
            raise EnumerationTooLarge(
                f"total dimension {sum(d)} exceeds bound {self.bounds.max_total_dim}"
            )
        entry_counts = [d[t] * d[h] for t, h in self.quiver.arrows]
        n_tuples = self.p ** sum(entry_counts)
        if n_tuples > self.bounds.max_tuples:
            raise EnumerationTooLarge(f"{n_tuples} candidate matrix tuples")
        return entry_counts

    def _check_class_rows(self, d: tuple, rows):
        """Refuse rows unless they are distinct [class key of d, aut >= 1] pairs, at least one.

        Only a refused record is read row by row, to name its first bad row.
        """
        pattern = _key_shape(self.quiver, ",".join(map(str, d)))[1]
        if _class_rows_ok(pattern, rows):
            return
        key = CacheStore.key(self._key_heads["classify"], d)
        seen = set()
        for row in rows if type(rows) is list else ():
            if not _class_rows_ok(pattern, [row]) or row[0] in seen:
                raise QuiverError(
                    f"cached class {row!r} in record {key} is not a class of dimension vector "
                    f"{d}, or comes twice"
                )
            seen.add(row[0])
        raise QuiverError(
            f"cached record {key} holds {rows!r}, not the classes of dimension vector {d}"
        )

    def _decode(self, code, d, entry_counts):
        q = self.quiver
        mats = []
        for k, (t, h) in enumerate(q.arrows):
            digits = []
            for _ in range(entry_counts[k]):
                digits.append(code % self.p)
                code //= self.p
            mats.append(np.array(digits, dtype=np.int64).reshape(d[h], d[t]))
        return mats

    def _register(self, key: str, dim: tuple, aut: int, kclass=None, rep: Rep | None = None):
        """The class of canonical key `key`, registered on first sight.

        rep, if given, is the Rep of `key`; otherwise the class decodes it
        from the key on first use.
        """
        cls = self._class.get(key)
        if cls is None:
            if kclass is None:
                kclass = self.quiver.class_of_dimvec(dim)
            cls = self._class[key] = IsoClass(self.quiver, key, dim, aut, kclass, rep)
        return cls

    def class_by_key(self, key: str) -> IsoClass:
        cls = self._class.get(key)
        if cls is None:
            cls = self.class_of(Rep.from_key(self.quiver, key))
        if cls.key != key:
            raise QuiverError(f"{key} is not a canonical class key (use {cls.key})")
        return cls

    def class_of(self, rep: Rep) -> IsoClass:
        """Canonical class of an arbitrary representation."""
        cls = self._class.get(rep.key)
        if cls is None:
            cls = self._class[rep.key] = self._orbit(rep)[1]
        return cls

    def zero_class(self) -> IsoClass:
        """The class of `zero_rep()`, registered from its key: no matrix is built."""
        return self._register(self._zero_key, (0,) * self.quiver.n, 1)

    def classes_with_total_dim(self, total: int) -> list:
        """All classes of total dimension exactly `total`, sorted."""
        out = []
        for d in _compositions(total, self.quiver.n):
            out.extend(self.classify(d))
        out.sort(key=_sort_key)
        return out

    def classes_up_to_total_dim(self, total: int) -> list:
        out = []
        for m in range(total + 1):
            out.extend(self.classes_with_total_dim(m))
        return out

    # ------------------------------------------------------------------
    # subobjects and Hall numbers

    def subquot_table(self, c: IsoClass) -> dict:
        """Counts of subrepresentation types of c.

        Maps (quotient class key, sub class key) -> number of
        subrepresentations of c with that sub and quotient type.  A stored
        table is refused with a QuiverError naming its record unless each
        row is [quotient key, sub key, count >= 1], no row comes twice, and
        the rows (c, 0) and (0, c) have count 1; the checks ride on the
        table's one build.
        """
        table = self._subquot.get(c.key)
        if table is None:
            rows = self._stored("subquot", (c.key,), self._subquot_rows, c)
            zero, get, table = self._zero_key, self._class.get, {}
            try:
                # a key that is its registered class's own key is held as the
                # registry's string, so a table read back copies no such key;
                # any other key (unregistered, or a Rep key of another class's
                # key) stays as it was read
                for qk, sk, n in rows:
                    if type(n) is int and n > 0:
                        a, b = get(qk), get(sk)
                        table[a.key if a is not None and a.key == qk else qk,
                              b.key if b is not None and b.key == sk else sk] = n
                ok = len(table) == len(rows) and (
                    table.get((c.key, zero)) == table.get((zero, c.key)) == 1
                )
            except (TypeError, ValueError):
                ok = False
            if not ok:
                key = CacheStore.key(self._key_heads["subquot"], (c.key,))
                raise QuiverError(
                    f"cached record {key} is not the subobject table of a class of dimension "
                    f"vector {c.dim}: each row is [quotient key, sub key, count >= 1], none "
                    "twice, and (C, 0) and (0, C) have count 1"
                )
            self._subquot[c.key] = table
        return table

    def _subquot_rows(self, c: IsoClass) -> list:
        """c's subobject table as sorted [quotient key, sub key, count] rows."""
        table: dict[tuple, int] = {}
        for sub, quot in self._stable_subreps(c.rep):
            k = (self.class_of(quot).key, self.class_of(sub).key)
            table[k] = table.get(k, 0) + 1
        return sorted([qk, sk, n] for (qk, sk), n in table.items())

    def _stable_subreps(self, rep: Rep):
        """Yield (sub, quotient) Reps for every edge-stable subspace tuple."""
        q, p = self.quiver, self.p
        for ks in product(*[range(d + 1) for d in rep.dim]):
            for spaces in product(*[fplin.subspaces(rep.dim[i], ks[i], p) for i in range(q.n)]):
                pair = self.sub_quotient(rep, *zip(*spaces))
                if pair is not None:
                    yield pair

    def sub_quotient(self, rep: Rep, rows, cols):
        """(sub, quotient) of rep on the span of rows, or None if not stable.

        The one reading of a sub and a quotient, on both sides of the
        embedding: the subobject tables here and the split of a complex in
        `cplx`.  rows[i] is a (k_i x d_i) basis of a subspace at vertex i
        that is the identity on the columns cols[i], so a vector of the span
        has its coordinates there (`sub_rep`); the quotient takes the unit
        vectors off cols[i] as its basis (`quotient_rep`).  No change of
        basis is built or inverted.
        """
        sub = self.sub_rep(rep, rows, cols)
        return None if sub is None else (sub, self.quotient_rep(rep, rows, cols))

    def sub_rep(self, rep: Rep, rows, cols):
        """The sub of `sub_quotient`, or None if the span is not stable.

        Arrow x: t -> h acts by y = (x rows_t^T)[cols_h]; the span is stable
        iff rows_h^T y gives the images x rows_t^T back.
        """
        p = self.p
        mats = []
        for k, (t, h) in enumerate(self.quiver.arrows):
            imgs = rep.mats[k] @ rows[t].T % p
            y = imgs[cols[h]]
            if (rows[h].T @ y % p != imgs).any():
                return None
            mats.append(y)
        return Rep._reduced(self.quiver, [len(c) for c in cols], mats)

    def quotient_rep(self, rep: Rep, rows, cols):
        """The quotient of `sub_quotient`, for a stable span.

        The image y of each unit vector off cols_t is reduced by rows_h^T
        y[cols_h], then read off the columns off cols_h, mod p.
        """
        p = self.p
        comps = [[e for e in range(d) if e not in c] for d, c in zip(rep.dim, cols)]
        mats = []
        for k, (t, h) in enumerate(self.quiver.arrows):
            y = rep.mats[k][:, comps[t]]
            mats.append((y[comps[h]] - rows[h][:, comps[h]].T @ y[cols[h]]) % p)
        return Rep._reduced(self.quiver, [len(c) for c in comps], mats)

    def hall_number(self, a: IsoClass, b: IsoClass, c: IsoClass) -> int:
        """g^c_{a,b}: subrepresentations of c isomorphic to b with quotient a."""
        if tuple(x + y for x, y in zip(a.dim, b.dim)) != c.dim:
            return 0
        return self.subquot_table(c).get((a.key, b.key), 0)

    def middle_terms(self, a: IsoClass, b: IsoClass) -> list:
        """The E_A E_B structure constants, with the v-twist: [(C, coeff)].

        coeff = v^<A,B> |Ext^1(A,B)_C| / |Hom(A,B)| (Riedtmann), a Scalar of
        the quiver's ring, for each class C of the middle terms of extensions
        0 -> B -> C -> A -> 0, sorted as `classify` sorts.  kQ is hereditary,
        so Ext^1(A,B) is Z^1 / B^1 for the map `_coboundary(A, B)`: its
        classes are the cocycles eta on the unit vectors off the pivots of
        B^1's echelon basis, and hom = unknowns - rank.  The nullspace of the
        same coboundary is stored as `hom_rows(A, B)`, which the hereditary
        check reads.  The middle terms [[B_e, eta_e], [0, A_e]] are coded as
        `_orbit` codes them and counted one orbit per class, as `classify`
        scans.  The bounds `classify(dim A + dim B)` checks come first, in its
        order; no subobject table or cache record is read.  Memoized per
        (A, B), so the list is shared and callers only read it; the algebras
        apply only their K-twists on top.
        """
        memo = (a.key, b.key)
        if memo not in self._middle:
            q, p = self.quiver, self.p
            d = tuple(x + y for x, y in zip(a.dim, b.dim))
            entry_counts = self._entry_counts(d)
            system = self._coboundary(a.rep, b.rep)
            if memo not in self._hom_rows:
                self._store_hom(memo, system)
            pivots = fplin.rref(system.T, p)[1]
            free = [j for j in range(len(system)) if j not in pivots]
            assert len(free) == self.ext_dim(a.rep, b.rep), "hereditary identity broken"
            # the code of the split middle term B + A, and the place of each
            # Z^1 entry in a code: arrow by arrow, each matrix row by row
            pows = p ** np.arange(sum(entry_counts), dtype=np.int64)
            codes, places, at = np.zeros(1, dtype=np.int64), [], 0
            for (t, h), m in zip(q.arrows, self.direct_sum(b.rep, a.rep).mats):
                codes += m.ravel() @ pows[at : at + m.size]
                places += [at + r * d[t] + b.dim[t] + s
                           for r in range(b.dim[h]) for s in range(a.dim[t])]
                at += m.size
            for j in free:
                codes = (codes[:, None] + pows[places[j]] * np.arange(p)).ravel()
            # one orbit per class, from the least code no orbit has met
            codes, counts = np.sort(codes), {}
            seen = np.zeros(len(codes), dtype=bool)
            for i in range(len(codes)):
                if not seen[i]:
                    orbit, c = self._orbit(
                        Rep._reduced(self.quiver, d, self._decode(int(codes[i]), d, entry_counts)))
                    hit = np.searchsorted(codes, orbit).clip(max=len(codes) - 1)
                    hit = hit[codes[hit] == orbit]
                    seen[hit] = True
                    counts[c] = len(hit)
            hom = system.shape[1] - len(pivots)
            tw = self.ring.v_pow(q.euler_dimvec(a.dim, b.dim) - 2 * hom)  # v^<A,B> / q^hom
            self._middle[memo] = [(c, tw * counts[c]) for c in sorted(counts, key=_sort_key)]
        return self._middle[memo]

    # ------------------------------------------------------------------
    # persistent cache plumbing

    def _stored(self, op: str, args: tuple, compute, *inputs):
        """op's stored value on args (keyed after `_key_heads[op]`), else
        compute(*inputs)'s, which is then stored.

        The value is returned as stored; each caller checks its shape.
        """
        if self.store is None:
            return compute(*inputs)
        key = CacheStore.key(self._key_heads[op], args)
        hit = self.store.get(key)
        if hit is not None:
            if self.store.audit:
                fresh = compute(*inputs)
                if fresh != hit:
                    raise CacheCorruption(f"cache corruption at {key}: {hit} != {fresh}")
            return hit
        val = compute(*inputs)
        self.store.put(key, val)
        return val


def _class_rows_ok(pattern, rows) -> bool:
    """Whether rows are distinct [key matching pattern, aut >= 1] pairs, at least one.

    One pass over the rows builds {key: aut}, with no object per row; its
    keys and orders are then checked in bulk.
    """
    try:
        auts = dict(rows)
        return (
            len(auts) == len(rows)
            and all(map(pattern.fullmatch, auts))
            and set(map(type, auts.values())) == {int}
            and min(auts.values()) > 0
        )
    except (TypeError, ValueError):
        return False


def _compositions(total: int, parts: int):
    """Nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
