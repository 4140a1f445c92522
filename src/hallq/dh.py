"""Localized Hall algebra on the normal-ordered basis, by straightening.

Basis monomials are tuples (A, alpha, B, beta) standing for

    E_A o K_alpha o F_B o Kd_beta            (Kd = dagger-twisted K)

with A, B canonical class keys and alpha, beta in K(R).  Products are
rewritten into this basis by the rule system

    (R1) K's collect additively, K and Kd commute;
    (R2) K_a past E_A costs v^((a,A)), Kd_b past E_A costs v^(-(b,A));
         mirrored signs on F;
    (R3) E_A o E_B = v^(<A,B>) sum_C |Ext(A,B)_C|/|Hom(A,B)| E_C,
         the twisted constants read as they are from
         `RepCategory.middle_terms`, and the dagger image of this for F o F;
    (R4) F_B o E_A = sum v^(<A2, B-A>) g^A_{A1,A2} g^B_{A2,B1} a_{A2}
                          K_{A2} o E(A1,B1);
    (R5) E(A,B) = E_A o F_B
                  - sum over nonzero B2 of v^(<B2, A-B>) g^B_{B1,B2}
                    g^A_{B2,A1} a_{B2} Kd_{B2} o E(A1,B1),

where E(A,B) is the two-sided generator attached to the pair; the R5
recursion strictly decreases both total dimensions, so the E(A,B) table
closes after finitely many steps and is cached.

Everything lives over one RepCategory; products in the reduced algebra are
taken in the full algebra and reduced by folding Kd_b to K_{-b} at the end
(the quotient map is an algebra homomorphism, so this is exact).
"""

from __future__ import annotations

from .combo import Combination
from .quiver import kv_add, kv_sub
from .repcat import RepCategory


class DHElement(Combination):
    """Terms are normal monomials (A key, alpha, B key, beta)."""


class ReducedDHElement(Combination):
    """Terms are reduced monomials (A key, gamma, B key)."""


class DHAlgebra:
    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.quiver = cat.quiver
        self.ring = cat.quiver.scalar_ring()
        self._eab: dict[tuple, DHElement] = {}
        self._mono: dict[tuple, DHElement] = {}
        self._zero_key = cat.zero_class().key

    # ------------------------------------------------------------------
    # constructors

    def element(self, mono, coeff=None) -> DHElement:
        return DHElement.basis(self.ring, mono, coeff)

    def zero(self) -> DHElement:
        return DHElement.zero(self.ring)

    def one(self) -> DHElement:
        z = self.quiver.zero_kvector()
        return self.element((self._zero_key, z, self._zero_key, z))

    def e_elem(self, key: str) -> DHElement:
        z = self.quiver.zero_kvector()
        return self.element((key, z, self._zero_key, z))

    def f_elem(self, key: str) -> DHElement:
        z = self.quiver.zero_kvector()
        return self.element((self._zero_key, z, key, z))

    def k_elem(self, alpha) -> DHElement:
        z = self.quiver.zero_kvector()
        return self.element((self._zero_key, tuple(alpha), self._zero_key, z))

    def kd_elem(self, beta) -> DHElement:
        z = self.quiver.zero_kvector()
        return self.element((self._zero_key, z, self._zero_key, tuple(beta)))

    # ------------------------------------------------------------------
    # scalar helpers

    def _v_sym(self, x, y):
        return self.ring.v_pow(self.quiver.sym_form(x, y))

    def _cls(self, key: str):
        return self.cat.class_by_key(key)

    def _kcls(self, key: str):
        return tuple(self._cls(key).kclass)

    # ------------------------------------------------------------------
    # elementary right multiplications

    def times_k(self, x: DHElement, gamma, delta) -> DHElement:
        """x o K_gamma o Kd_delta for x in normal form.

        K_gamma moves left past F_B at the cost v^((gamma, B)) (rule R2);
        Kd_delta is already in place.
        """
        if not any(gamma) and not any(delta):
            return x
        out = self.zero()
        for (a, al, b, be), c in x.terms.items():
            if any(gamma):
                c = c * self._v_sym(gamma, self._kcls(b))
            out.add_term((a, kv_add(al, gamma), b, kv_add(be, delta)), c)
        return out

    def times_f(self, x: DHElement, fkey: str) -> DHElement:
        if fkey == self._zero_key:
            return x
        out = self.zero()
        for (a, al, b, be), c in x.terms.items():
            tw = self._v_sym(be, self._kcls(fkey))
            for d, coeff in self._ee_coeffs(b, fkey):
                out.add_term((a, al, d.key, be), c * tw * coeff)
        return out

    def times_e(self, x: DHElement, ekey: str) -> DHElement:
        if ekey == self._zero_key:
            return x
        out = self.zero()
        ek = self._kcls(ekey)
        for (a, al, b, be), c in x.terms.items():
            tw = self.ring.v_pow(-self.quiver.sym_form(be, ek))
            # E_a K_al times each normal monomial of F_b E_ekey: K_al moves
            # right past E_a2 (rule R2), then E_a E_a2 (rule R3)
            for (a2, al2, b2, be2), c2 in self._fe_expand(b, ekey).terms.items():
                c_mid = c * tw * c2 * self._v_sym(al, self._kcls(a2))
                alpha, beta = kv_add(al, al2), kv_add(be2, be)
                for cls, coeff in self._ee_coeffs(a, a2):
                    out.add_term((cls.key, alpha, b2, beta), c_mid * coeff)
        return out

    # ------------------------------------------------------------------
    # structure constants

    def _ee_coeffs(self, akey: str, bkey: str):
        """E_A o E_B = sum coeff E_C (rule R3); returns [(C, Scalar coeff)],
        the shared `middle_terms` list, which callers only read."""
        return self.cat.middle_terms(self._cls(akey), self._cls(bkey))

    def _fe_expand(self, bkey: str, akey: str) -> DHElement:
        """Normal form of F_B o E_A (rule R4, then the E(A1,B1) table).

        Not memoized: it is one join-sum over the memoized `eab` entries,
        products read it through the `mono_product` memo, and the Drinfeld
        check reads each pair about once.
        """
        out, z = self.zero(), self.quiver.zero_kvector()
        b_minus_a = kv_sub(self._cls(bkey).dim, self._cls(akey).dim)
        for m, a1k, b1k, n in self._join(akey, bkey):
            tw = self.ring.v_pow(self.quiver.euler_dimvec(m.dim, b_minus_a))
            out.add_scaled(self._k_left(tuple(m.kclass), z, self.eab(a1k, b1k)), tw * n)
        return out

    def eab(self, akey: str, bkey: str) -> DHElement:
        """Normal form of the two-sided generator E(A, B) (rule R5)."""
        memo = (akey, bkey)
        if memo in self._eab:
            return self._eab[memo]
        z = self.quiver.zero_kvector()
        out = self.element((akey, z, bkey, z))
        a, b = self._cls(akey), self._cls(bkey)
        a_minus_b = kv_sub(a.dim, b.dim)
        for m, b1k, a1k, n in self._join(bkey, akey):
            if m.total_dim:
                assert self._cls(a1k).total_dim < a.total_dim
                assert self._cls(b1k).total_dim < b.total_dim
                tw = self.ring.v_pow(self.quiver.euler_dimvec(m.dim, a_minus_b))
                out.add_scaled(self._k_left(z, tuple(m.kclass), self.eab(a1k, b1k)), tw * -n)
        self._eab[memo] = out
        return out

    def _join(self, xkey: str, ykey: str):
        """The one subobject-table join: rules R4 (X = A, Y = B) and R5
        (X = B, Y = A), and both sides of `HallAlgebra.check_dd_identity`.

        Yields (M, X1 key, Y1 key, g^X_{X1,M} g^Y_{M,Y1} a_M) for every M
        that is a sub of X with quotient X1 and a quotient of Y with sub Y1.
        Y's rows are looked up by quotient key, so only matching pairs are
        visited.  The count is an int; each caller applies its own twist.
        """
        by_quot: dict[str, list] = {}
        for (qk, y1k), gy in self.cat.subquot_table(self._cls(ykey)).items():
            by_quot.setdefault(qk, []).append((y1k, gy))
        for (x1k, mk), gx in self.cat.subquot_table(self._cls(xkey)).items():
            if mk in by_quot:
                m = self._cls(mk)
                for y1k, gy in by_quot[mk]:
                    yield m, x1k, y1k, gx * gy * m.aut_order

    def _k_left(self, gamma, delta, x: DHElement) -> DHElement:
        """K_gamma o Kd_delta o x for x in normal form.

        Rule R2: K_gamma moves right past E_A at the cost v^((gamma, A)),
        Kd_delta past E_A and F_B at the cost v^((delta, B) - (delta, A)).
        """
        if not any(gamma) and not any(delta):
            return x
        out = self.zero()
        sym = self.quiver.sym_form
        for (a, al, b, be), c in x.terms.items():
            e = 0
            if any(gamma):
                e += sym(gamma, self._kcls(a))
            if any(delta):
                e += sym(delta, self._kcls(b)) - sym(delta, self._kcls(a))
            out.add_term((a, kv_add(gamma, al), b, kv_add(delta, be)), c * self.ring.v_pow(e))
        return out

    # ------------------------------------------------------------------
    # products

    def mono_product(self, m1, m2) -> DHElement:
        """Normal form of m1 o m2, memoized per (m1, m2): the value is shared,
        and callers only read it (`product` reads it through `add_scaled`)."""
        memo = (m1, m2)
        if memo in self._mono:
            return self._mono[memo]
        a2, al2, b2, be2 = m2
        z = self.quiver.zero_kvector()
        out = self.times_k(self.times_e(self.element(m1), a2), al2, z)
        self._mono[memo] = self.times_k(self.times_f(out, b2), z, be2)
        return self._mono[memo]

    def product(self, x: DHElement, y: DHElement) -> DHElement:
        out = self.zero()
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                out.add_scaled(self.mono_product(m1, m2), c1 * c2)
        return out

    def product_all(self, factors) -> DHElement:
        out = self.one()
        for f in factors:
            out = self.product(out, f)
        return out

    def commutator(self, x: DHElement, y: DHElement) -> DHElement:
        return self.product(x, y) - self.product(y, x)

    # ------------------------------------------------------------------
    # reduction

    def reduce(self, x: DHElement) -> ReducedDHElement:
        """Image in the reduced algebra: fold Kd_b to K_{-b}.

        Moving the folded K_{-b} from the right of F_B into normal position
        costs v^(-(b, B)).
        """
        out = ReducedDHElement.zero(self.ring)
        for (a, al, b, be), c in x.terms.items():
            tw = self.ring.v_pow(-self.quiver.sym_form(be, self._kcls(b)))
            out.add_term((a, kv_sub(al, be), b), c * tw)
        return out

    # ------------------------------------------------------------------
    # rendering

    def render_mono(self, mono) -> str:
        """A normal monomial, or a reduced one (A, gamma, B) with no Kd."""
        a, al, b, *be = mono
        bits = []
        if a != self._zero_key:
            bits.append(f"E[{a}]")
        if any(al):
            bits.append(f"K{self.quiver.render_kvector(al)}")
        if b != self._zero_key:
            bits.append(f"F[{b}]")
        if be and any(be[0]):
            bits.append(f"Kd{self.quiver.render_kvector(be[0])}")
        return " ".join(bits) if bits else "1"

    def render(self, x) -> str:
        return x.render(self.render_mono)

    def to_json(self, x) -> list:
        out = []
        for mono, c in x.items_sorted():
            if isinstance(x, ReducedDHElement):
                a, al, b = mono
                row = {"E": a, "K": list(al), "F": b}
            else:
                a, al, b, be = mono
                row = {"E": a, "K": list(al), "F": b, "Kd": list(be)}
            row["coeff"] = c.render()
            out.append(row)
        return out
