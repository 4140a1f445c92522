"""Exact coefficients: the ring Q[v^(1/N), v^(-1/N)] with v^2 = q.

q is the cardinality of the ground field and v its positive square root,
so v^2 and q denote the same scalar.  A Scalar is kept in the canonical
form  sum c_k * v^(k/N)  over integers 0 <= k < 2N, stored as {k: c}; any
excess v^(2N) = q is folded into the rational coefficient.  A coefficient
is an int while it is integral and a Fraction only when it is not.  Since
x^(2N) - q is irreducible over Q for prime q, this canonical form is
unique and the arithmetic is exact.

Arithmetic works on the integer form directly: a product folds q into the
coefficient as it goes.  Most products in straightening are of one term by
one term, and those build their one term directly, folded at most once.
A Scalar operand of the same ring object is used as it is: `_coerce` runs
only across ring objects (which must be equal) and for an int or Fraction
operand of `+` and `-`.  Exponents from outside, e in (1/N)Z, enter only
through `ScalarRing.from_terms`, `v_pow` and `parse_scalar`, which raise
ScalarDomainError when N*e is not an integer; `render` writes k as the
exponent k/N again.
"""

from __future__ import annotations

import re
from fractions import Fraction


class ScalarDomainError(ValueError):
    """Exponent denominator does not divide the ring constant N."""


def _canon(c):
    """A coefficient in stored form: an integral Fraction becomes its int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class ScalarRing:
    """Factory and context for Scalar values (fixes q = p and N)."""

    def __init__(self, p: int, n_denom: int):
        if p < 2:
            raise ValueError("field cardinality must be at least 2")
        if n_denom < 1:
            raise ValueError("N must be positive")
        self.p = p
        self.n_denom = n_denom
        self._v_pows: dict[int | Fraction, Scalar] = {}
        # what `Scalar.render` writes after the coefficient of v^(k/N), by k
        self._exp_text = [""] + [f"*v^({Fraction(k, n_denom)})" for k in range(1, 2 * n_denom)]
        # shared: Scalars are never mutated
        self.zero = Scalar(self, {})
        self.one = Scalar(self, {0: 1})

    def __eq__(self, other):
        return (
            isinstance(other, ScalarRing)
            and self.p == other.p
            and self.n_denom == other.n_denom
        )

    def __repr__(self):
        return f"ScalarRing(q={self.p}, N={self.n_denom})"

    def from_terms(self, terms) -> "Scalar":
        """The Scalar sum c * v^e over the items e: c of `terms`."""
        two_n = 2 * self.n_denom
        out: dict = {}
        for e, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            k = Fraction(e) * self.n_denom
            if k.denominator != 1:
                raise ScalarDomainError(
                    f"exponent {Fraction(e)} not representable with N={self.n_denom}"
                )
            fold, k = divmod(k.numerator, two_n)
            s = out.get(k, 0) + c * Fraction(self.p) ** fold
            if s:
                out[k] = _canon(s)
            else:
                del out[k]
        return Scalar(self, out)

    def rational(self, c) -> "Scalar":
        c = _canon(Fraction(c))
        return Scalar(self, {0: c} if c else {})

    def v_pow(self, r) -> "Scalar":
        """The monomial v^r; r must have denominator dividing N.

        Cached per ring: Scalars are never mutated, so callers may share one.
        """
        out = self._v_pows.get(r)
        if out is None:
            out = self._v_pows[r] = self.from_terms({r: 1})
        return out

    def quantum_binomial(self, n: int, k: int) -> "Scalar":
        """Gaussian binomial [n; k], by the v-Pascal recursion (no division)."""
        if k < 0 or k > n:
            return self.zero
        row = [self.one]
        for m in range(1, n + 1):
            new = [self.one]
            for j in range(1, m):
                new.append(self.v_pow(m - j) * row[j - 1] + self.v_pow(-j) * row[j])
            new.append(self.one)
            row = new
        return row[k]


class Scalar:
    """Immutable ring element; construct through a ScalarRing.

    `terms` maps k to the coefficient of v^(k/N), 0 <= k < 2N, with no
    zero coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ScalarRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if type(other) is Scalar:
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixing scalars from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.rational(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = _canon(s)
            else:
                del out[k]
        return Scalar(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        """self + (-other), in one pass: no negated copy of other is built."""
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = _canon(s)
            else:
                del out[k]
        return Scalar(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # `type(other) is Scalar` first, here and in __eq__: Fraction's
        # ABCMeta makes a Scalar fail isinstance(_, Fraction) slowly
        if type(other) is Scalar:
            if other.ring is not self.ring:
                other = self._coerce(other)
        elif isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            return Scalar(self.ring, {k: _canon(c * other) for k, c in self.terms.items()})
        else:
            return NotImplemented
        a, b = self.terms, other.terms
        if b == _ONE:
            return self
        if a == _ONE:
            return other
        ring = self.ring
        p, two_n = ring.p, 2 * ring.n_denom
        if len(a) == 1 and len(b) == 1:
            # one term times one term, the common case: v^k1 v^k2, folded once
            ((k1, c1),), ((k2, c2),) = a.items(), b.items()
            k, c = k1 + k2, c1 * c2
            if k >= two_n:
                k, c = k - two_n, c * p
            return Scalar(ring, {k: c if type(c) is int else _canon(c)})
        acc: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k, c = k1 + k2, c1 * c2
                if k >= two_n:
                    k, c = k - two_n, c * p
                acc[k] = acc.get(k, 0) + c
        return Scalar(ring, {k: _canon(c) for k, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers: multiply by v_pow(-r) instead")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not Scalar and isinstance(other, (int, Fraction)):
            other = self.ring.rational(other)
        return isinstance(other, Scalar) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.p, self.ring.n_denom, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def render(self) -> str:
        if not self.terms:
            return "0"
        terms, text = self.terms, self.ring._exp_text
        return " + ".join(f"{terms[k]}{text[k]}" for k in sorted(terms))

    __repr__ = render


_ONE = {0: 1}  # the terms of the unit

_TERM = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/\d+)?|[+-])?"
    r"(?P<star>\*)?"
    r"(?P<v>v(?:\^\(?(?P<exp>[+-]?\d+(?:/\d+)?)\)?)?)?$"
)


def parse_scalar(ring: ScalarRing, text: str) -> Scalar:
    """Parse the render() format back into a Scalar (round-trip exact)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    s = s.replace("-", "+-").replace("^(+-", "^(-").replace("v^+-", "v^-")
    if s.startswith("+"):
        s = s[1:]
    terms: dict[Fraction, Fraction] = {}
    for chunk in s.split("+"):
        if not chunk:
            continue  # "+-" sign splits leave empty slots
        m = _TERM.match(chunk)
        if not m or (m.group("coef") is None and m.group("v") is None):
            raise ValueError(f"malformed scalar term {chunk!r}")
        coef = m.group("coef")
        if coef in (None, "", "-"):
            c = Fraction(-1 if coef == "-" else 1)
        else:
            c = Fraction(coef)
        if m.group("v"):
            e = Fraction(m.group("exp")) if m.group("exp") else Fraction(1)
        else:
            e = Fraction(0)
        terms[e] = terms.get(e, Fraction(0)) + c
    return ring.from_terms(terms)
