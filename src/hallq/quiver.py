"""Quivers with loops, the lattice K(R), and the Euler forms.

K(R) is coordinatized by the classes of the indecomposable projectives
P_i (a free lattice: Krull-Schmidt holds for finitely generated
projectives).  The simple classes sit inside via the standard presentation

    S_i = P_i - sum over arrows a with tail i of P_head(a),

a change of basis that is triangular for the path order with diagonal
1 - c_i, hence invertible over Q.  The generalized Euler form is defined
by expanding both arguments in simple classes; since its matrix on the
simples is that same change of basis C, it is the bilinear form with
matrix C^-T in projective coordinates, kept as an integer Gram matrix
over one common denominator.  Straightening and the oracle evaluate the
form on a few hundred distinct pairs many times over, so each Quiver
memoizes the Gram numerator per pair of K-vectors; the form on dimension
vectors is that form at their classes, memoized in the same dict.
"""

from __future__ import annotations

import graphlib
import hashlib
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, neg, sub

from .scalar import ScalarRing


class QuiverError(ValueError):
    pass


class ConditionAError(QuiverError):
    """The loop-stripped quiver has an oriented cycle."""


class ConditionBError(QuiverError):
    """Some vertex has exactly one loop."""


class ChargeError(QuiverError):
    """Charge vector incompatible with the quiver or the field."""


KVector = tuple  # integer coordinates in the projective basis {P_i}


def kv_add(x: KVector, y: KVector) -> KVector:
    return tuple(map(add, x, y))


def kv_sub(x: KVector, y: KVector) -> KVector:
    return tuple(map(sub, x, y))


def kv_neg(x: KVector) -> KVector:
    return tuple(map(neg, x))


def _ratio(num: int, den: int) -> int | Fraction:
    """num/den, as an int when den divides num and a Fraction otherwise."""
    return num // den if num % den == 0 else Fraction(num, den)


@dataclass(frozen=True)
class Quiver:
    p: int
    vertices: tuple
    loops: tuple
    edges: tuple  # non-loop (tail, head) vertex-id pairs
    charges: tuple

    # derived, filled in __post_init__
    index: dict = field(init=False, repr=False, compare=False)
    arrows: tuple = field(init=False, repr=False, compare=False)
    _simples: tuple = field(init=False, repr=False, compare=False)
    _hash: str = field(init=False, repr=False, compare=False)
    _sinv: list = field(init=False, repr=False, compare=False)
    _gram: tuple = field(init=False, repr=False, compare=False)
    _gram_den: int = field(init=False, repr=False, compare=False)
    _forms: dict = field(init=False, repr=False, compare=False)
    _ring: ScalarRing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p < 2 or any(self.p % k == 0 for k in range(2, math.isqrt(self.p) + 1)):
            raise QuiverError(f"field size {self.p} is not prime")
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        if len(self.loops) != len(self.vertices):
            raise QuiverError("one loop count per vertex required")
        object.__setattr__(self, "index", {v: i for i, v in enumerate(self.vertices)})
        for c, v in zip(self.loops, self.vertices):
            if c < 0:
                raise QuiverError(f"negative loop count at {v}")
            if c == 1:
                raise ConditionBError(f"vertex {v} has exactly one loop")
        for t, h in self.edges:
            if t not in self.index or h not in self.index:
                raise QuiverError(f"edge {t}->{h} uses unknown vertex")
            if t == h:
                raise QuiverError("loops must be declared via loops=, not edge lines")
        # arrows: loops first (grouped by vertex), then edges in input order
        arrows = []
        for i, c in enumerate(self.loops):
            arrows.extend([(i, i)] * c)
        arrows.extend((self.index[t], self.index[h]) for t, h in self.edges)
        object.__setattr__(self, "arrows", tuple(arrows))
        self._check_acyclic()
        self._check_charges()
        object.__setattr__(self, "_simples", tuple(map(tuple, self._simple_matrix())))
        object.__setattr__(
            self, "_hash", hashlib.sha256(self.content_key().encode()).hexdigest()[:16]
        )
        # <x, y> = sum x_i y_j C^-1[j][i] (see the module docstring), scaled
        # by the common denominator of C^-1 so that it is an integer sum
        inv = self._simple_matrix_inverse()
        den = math.lcm(*(f.denominator for row in inv for f in row))
        gram = tuple(
            tuple(int(inv[j][i] * den) for j in range(self.n)) for i in range(self.n)
        )
        object.__setattr__(self, "_sinv", inv)
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_gram_den", den)
        object.__setattr__(self, "_forms", {})
        object.__setattr__(self, "_ring", ScalarRing(self.p, self.scalar_denominator))

    def _check_acyclic(self):
        """Condition A: the edges (loops stripped) have no oriented cycle."""
        order = graphlib.TopologicalSorter()
        for t, h in self.edges:
            order.add(h, t)
        try:
            order.prepare()
        except graphlib.CycleError:
            raise ConditionAError("loop-stripped quiver has an oriented cycle") from None

    def _check_charges(self):
        if len(self.charges) != len(self.vertices):
            raise ChargeError("one charge per vertex required")
        for v, c, m in zip(self.vertices, self.loops, self.charges):
            if m < 1:
                raise ChargeError(f"charge at {v} must be positive")
            if c == 0 and m != 1:
                raise ChargeError(f"vertex {v} has no loops, charge must be 1")
            if m > self.p**c:
                raise ChargeError(
                    f"charge {m} at {v} exceeds {self.p}^{c} available simples"
                )

    # ------------------------------------------------------------------
    # K(R) and forms

    @property
    def n(self) -> int:
        return len(self.vertices)

    def zero_kvector(self) -> KVector:
        return (0,) * self.n

    def euler_dimvec(self, a, b) -> int:
        """Euler form on dimension vectors (hom minus ext for actual reps):
        `euler_form` at the classes of a and b, integer vectors of any sign.

        Memoized per pair in `_forms`, under a key ("dim", a, b) that no
        pair of K-vectors shares.
        """
        key = ("dim", a, b)
        out = self._forms.get(key)
        if out is None:
            out = self._forms[key] = self.euler_form(self._dimvec_class(a),
                                                     self._dimvec_class(b))
        return out

    def _simple_matrix(self):
        """Rows are the simple classes in projective coordinates."""
        c = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            c[i][i] = 1
        for t, h in self.arrows:
            c[t][h] -= 1
        return c

    def read_dimvec(self, d) -> tuple:
        """d as a tuple of Python ints, nonnegative and one per vertex.  Each
        entry is read by `operator.index`, so 1.5 or "1" is refused, not cut."""
        try:
            d = tuple(map(operator.index, d))
        except TypeError:
            raise QuiverError(f"dimension vector {d!r} must have integer entries") from None
        if len(d) != self.n or min(d, default=0) < 0:
            raise QuiverError("dimension vector must be nonnegative, one per vertex")
        return d

    def class_of_dimvec(self, d) -> KVector:
        """Class of any representation with dimension vector d."""
        return self._dimvec_class(self.read_dimvec(d))

    def _dimvec_class(self, d) -> KVector:
        """sum d_i S_i, linear in the integer vector d."""
        return tuple(sum(map(mul, d, col)) for col in zip(*self._simples))

    def simple_class(self, i: int) -> KVector:
        return self.class_of_dimvec(tuple(1 if j == i else 0 for j in range(self.n)))

    def _simple_matrix_inverse(self):
        """Inverse of the simples-in-projectives matrix, exact over Q."""
        n = self.n
        a = [[Fraction(x) for x in row] for row in self._simples]
        inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for col in range(n):
            sel = next(r for r in range(col, n) if a[r][col] != 0)
            a[col], a[sel] = a[sel], a[col]
            inv[col], inv[sel] = inv[sel], inv[col]
            piv = a[col][col]
            a[col] = [x / piv for x in a[col]]
            inv[col] = [x / piv for x in inv[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return inv

    def simple_coords(self, x: KVector):
        """Rational coordinates of x in the simple-class basis.

        The reference that the Euler form's integer Gram matrix is tested
        against.
        """
        inv = self._sinv
        return tuple(
            sum(Fraction(x[i]) * inv[i][j] for i in range(self.n))
            for j in range(self.n)
        )

    def _gram_num(self, x: KVector, y: KVector) -> int:
        """Numerator of the Euler form over the common denominator,
        memoized per pair of K-vectors (tuples of ints) in `_forms`."""
        num = self._forms.get((x, y))
        if num is None:
            num = self._forms[(x, y)] = sum(
                xi * sum(map(mul, y, row)) for xi, row in zip(x, self._gram))
        return num

    def euler_form(self, x: KVector, y: KVector) -> int | Fraction:
        """Generalized Euler form on K(R), rational-valued: an int when the
        value is integral and a Fraction only when it is not, as Scalar
        coefficients are kept."""
        return _ratio(self._gram_num(x, y), self._gram_den)

    def sym_form(self, x: KVector, y: KVector) -> int | Fraction:
        """(x, y) = <x, y> + <y, x>, from the two Gram numerators, so that
        it is an int exactly when it is integral."""
        return _ratio(self._gram_num(x, y) + self._gram_num(y, x), self._gram_den)

    def borcherds_cartan(self):
        """Symmetric matrix a_ij = (S_i, S_j); diagonal 2 - 2 c_i."""
        s = [self.simple_class(i) for i in range(self.n)]
        a = [
            [int(self.sym_form(s[i], s[j])) for j in range(self.n)]
            for i in range(self.n)
        ]
        for i in range(self.n):
            assert a[i][i] == 2 - 2 * self.loops[i]
            for j in range(self.n):
                assert a[i][j] == a[j][i]
                if i != j:
                    assert a[i][j] <= 0
        return a

    @property
    def scalar_denominator(self) -> int:
        """Ring constant N = 2 |prod (1 - c_i)|."""
        det = 1
        for c in self.loops:
            det *= 1 - c
        return 2 * abs(det)

    def scalar_ring(self) -> ScalarRing:
        """The one ring of this quiver's coefficients, shared by every
        context built on it, so that no Scalar crosses ring objects."""
        return self._ring

    # ------------------------------------------------------------------
    # serialization

    def content_key(self) -> str:
        parts = [f"p={self.p}"]
        for v, c, m in zip(self.vertices, self.loops, self.charges):
            parts.append(f"v:{v}:{c}:{m}")
        for t, h in self.edges:
            parts.append(f"e:{t}:{h}")
        return "|".join(parts)

    def content_hash(self) -> str:
        return self._hash

    def render_kvector(self, x: KVector) -> str:
        return "(" + ",".join(str(a) for a in x) + ")"


def parse_quiver(text: str) -> Quiver:
    """Parse the line-based quiver format.

    Directives (order free, '#' starts a comment):
        field p=<prime>
        vertex <id> loops=<c> [charge=<m>]
        edge <tail> <head>
    """
    p = None
    vertices, loops, charges, edges = [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "field":
                if p is not None:
                    raise ValueError("second 'field' line")
                opts = _keyvals(args)
                p = int(opts.pop("p"))
                _reject_extra(opts)
            elif kind == "vertex":
                name = args[0]
                opts = _keyvals(args[1:])
                vertices.append(name)
                loops.append(int(opts.pop("loops", 0)))
                charges.append(int(opts.pop("charge", 1)))
                _reject_extra(opts)
            elif kind == "edge":
                tail, head = args
                edges.append((tail, head))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except Exception as exc:
            raise QuiverError(f"line {lineno}: malformed ({exc})") from exc
    if p is None:
        raise QuiverError("missing 'field p=<prime>' line")
    if not vertices:
        raise QuiverError("quiver has no vertices")
    return Quiver(
        p=p,
        vertices=tuple(vertices),
        loops=tuple(loops),
        edges=tuple(edges),
        charges=tuple(charges),
    )


def _keyvals(args):
    out = {}
    for a in args:
        k, _, v = a.partition("=")
        if not _ or not k or not v:
            raise ValueError(f"expected key=value, got {a!r}")
        if k in out:
            raise ValueError(f"option {k!r} given twice")
        out[k] = v
    return out


def _reject_extra(opts):
    if opts:
        raise ValueError(f"unknown options {sorted(opts)}")
