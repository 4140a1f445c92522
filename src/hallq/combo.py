"""Finite linear combinations with Scalar coefficients.

Shared container for Hall elements, tensor elements, and normal-ordered
monomial sums: a map from hashable terms to nonzero Scalars.  Also the one
builder of the rows `hallq verify` reports: {id, ok, lhs, rhs, residual},
with ok None for a skipped check, and the one runner (`run_check`) that
turns a blown enumeration bound into a skipped row.
"""

from __future__ import annotations

import operator

from .repcat import EnumerationTooLarge
from .scalar import ScalarRing


class Combination:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: ScalarRing, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for t, c in terms.items():
                if c:
                    self.terms[t] = c

    @classmethod
    def _nonzero(cls, ring: ScalarRing, terms: dict):
        """The combination of `terms`, a new dict the caller knows has no
        zero coefficient, kept as given: no coefficient is tested."""
        out = cls.__new__(cls)
        out.ring, out.terms = ring, terms
        return out

    @classmethod
    def basis(cls, ring, term, coeff=None):
        c = ring.one if coeff is None else coeff
        return cls(ring, {term: c})

    @classmethod
    def zero(cls, ring):
        return cls._nonzero(ring, {})

    def __add__(self, other):
        return self._merge(other, operator.add)

    def __neg__(self):
        return self._nonzero(self.ring, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        """self + (-other), in one pass: no negated copy of other is built."""
        return self._merge(other, operator.sub)

    def _merge(self, other, op):
        """self op other, term by term, for op `operator.add` or `operator.sub`.

        A term of other alone gives op(0, c) = c or -c, never zero.
        """
        out, zero = dict(self.terms), self.ring.zero
        for t, c in other.terms.items():
            s = op(out.get(t, zero), c)
            if s.terms:
                out[t] = s
            else:
                del out[t]
        return self._nonzero(self.ring, out)

    def scale(self, s):
        """self * s, for s a Scalar, an int or a Fraction.  The ring is a
        field, so a nonzero s keeps every term nonzero."""
        if not s:
            return self._nonzero(self.ring, {})
        return self._nonzero(self.ring, {t: c * s for t, c in self.terms.items()})

    def add_term(self, term, coeff):
        """In-place accumulate a Scalar; used while building sums.

        A new term keeps `coeff` itself: Scalars are never mutated.
        """
        old = self.terms.get(term)
        if old is None:
            if coeff.terms:
                self.terms[term] = coeff
            return
        s = old + coeff
        if s:
            self.terms[term] = s
        else:
            del self.terms[term]

    def add_scaled(self, other, s):
        """In place: self += other * s.

        Only for a sum under construction; a memoized or returned
        element is shared and must never be the one accumulated into.
        """
        for t, c in other.terms.items():
            self.add_term(t, c * s)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))

    def render(self, term_text) -> str:
        """Each term as (c)*term_text(term), in items_sorted order; "0" if empty."""
        if not self.terms:
            return "0"
        return " + ".join(f"({c.render()})*{term_text(t)}" for t, c in self.items_sorted())

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.ring == other.ring
            and self.terms == other.terms
        )


def check(cid: str, lhs, rhs, render) -> dict:
    """The row of the equality check lhs = rhs; it holds when lhs - rhs is 0.

    A passing check's sides are equal, so only lhs is rendered.
    """
    residual = lhs - rhs
    ok, text = residual.is_zero(), render(lhs)
    return {"id": cid, "ok": ok, "lhs": text, "rhs": text if ok else render(rhs),
            "residual": "0" if ok else render(residual)}


def run_check(cid: str, compute, render) -> dict:
    """The row of the check of the two sides compute() returns; a blown
    enumeration bound skips just this check."""
    try:
        lhs, rhs = compute()
    except EnumerationTooLarge as exc:
        return skipped(cid, exc)
    return check(cid, lhs, rhs, render)


def skipped(cid: str, reason) -> dict:
    """The row of a check that was not run, with the reason why."""
    return {"id": cid, "ok": None, "lhs": "", "rhs": "",
            "residual": f"skipped: {reason}"}
