"""The twisted extended Hall algebra, its coproduct and Hopf pairing.

Elements are linear combinations of terms (class key, alpha) standing for
<A> * K_alpha.  The product carries the Euler-form twist

    (<A> K_a) * (<B> K_b)
      = v^(<A,B> + (a,B)) sum_C  |Ext(A,B)_C| / |Hom(A,B)|  <C> K_{a+b},

whose constants, v^<A,B> included, come from `RepCategory.middle_terms`,
so that the product applies only v^((a,B)); the coproduct is the
Green/Xiao one, and the Hopf pairing is diagonal on the class basis.
The double-compatibility check at the bottom reads both sides of the
reduced Drinfeld identity from `DHAlgebra._join`, the subobject-table join
of rules R4 and R5, and the right side's words from rules R2 and R4 of
`dh`, with no general product.
"""

from __future__ import annotations

from .combo import Combination, check
from .quiver import kv_add, kv_sub
from .repcat import IsoClass, RepCategory


class HallElement(Combination):
    """Terms are pairs (class key, alpha); alpha an integer K(R)-vector."""


class TensorElement(Combination):
    """Terms are pairs of (class key, alpha) pairs."""


class HallAlgebra:
    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.quiver = cat.quiver
        self.ring = cat.quiver.scalar_ring()

    # ------------------------------------------------------------------
    # element constructors

    def element(self, cls: IsoClass, alpha=None, coeff=None) -> HallElement:
        a = self.quiver.zero_kvector() if alpha is None else tuple(alpha)
        return HallElement.basis(self.ring, (cls.key, a), coeff)

    def one(self) -> HallElement:
        return self.element(self.cat.zero_class())

    def _cls(self, key: str) -> IsoClass:
        return self.cat.class_by_key(key)

    # ------------------------------------------------------------------
    # algebra structure

    def product(self, x: HallElement, y: HallElement) -> HallElement:
        out = HallElement.zero(self.ring)
        for (ka, alpha), ca in x.terms.items():
            a = self._cls(ka)
            for (kb, beta), cb in y.terms.items():
                b = self._cls(kb)
                c0 = ca * cb * self.ring.v_pow(self.quiver.sym_form(alpha, b.kclass))
                gamma = kv_add(alpha, beta)
                for c, coeff in self.cat.middle_terms(a, b):
                    out.add_term((c.key, gamma), c0 * coeff)
        return out

    # ------------------------------------------------------------------
    # coalgebra structure

    def coproduct(self, x: HallElement) -> TensorElement:
        out = TensorElement.zero(self.ring)
        for (ka, alpha), c in x.terms.items():
            a = self._cls(ka)
            for (qk, sk), g in self.cat.subquot_table(a).items():
                quot, sub = self._cls(qk), self._cls(sk)
                tw = self.ring.v_pow(self.quiver.euler_dimvec(quot.dim, sub.dim))
                left = (qk, kv_add(tuple(sub.kclass), alpha))
                right = (sk, alpha)
                out.add_term((left, right), c * tw * g)
        return out

    def coproduct_square(self, x: HallElement, left_first: bool):
        """(Delta x id) Delta or (id x Delta) Delta, as triple tensors."""
        out = Combination.zero(self.ring)
        for (t1, t2), c in self.coproduct(x).terms.items():
            inner = self.coproduct(HallElement.basis(self.ring, t1 if left_first else t2))
            for (u1, u2), d in inner.terms.items():
                trip = (u1, u2, t2) if left_first else (t1, u1, u2)
                out.add_term(trip, c * d)
        return out

    # ------------------------------------------------------------------
    # Hopf pairing

    def hopf_pair(self, x: HallElement, y: HallElement):
        out = self.ring.zero
        for (ka, alpha), ca in x.terms.items():
            a = self._cls(ka)
            for (kb, beta), cb in y.terms.items():
                if ka != kb:
                    continue
                tw = self.ring.v_pow(self.quiver.sym_form(alpha, beta))
                out = out + ca * cb * tw * a.aut_order
        return out

    def pair_with_tensor(self, x: HallElement, y: HallElement, t: TensorElement):
        out = self.ring.zero
        for (t1, t2), c in t.terms.items():
            p1 = self.hopf_pair(x, HallElement.basis(self.ring, t1))
            if p1.is_zero():
                continue
            p2 = self.hopf_pair(y, HallElement.basis(self.ring, t2))
            out = out + c * p1 * p2
        return out

    # ------------------------------------------------------------------
    # Drinfeld double compatibility

    def check_dd_identity(self, a: IsoClass, b: IsoClass, dh) -> dict:
        """Reduced double-compatibility identity for the pair (a, b).

        Both sides are the generator-level expansions of the double axiom
        (all K_alpha / K_beta factors already cancelled), read from the R4/R5
        join `dh._join`.  The left side collects E_{A1} K_{A2} F_{B1} over
        rows with A2 = B2 = M, the join of A over B, twisted by
        v^(<A1,A2> + <B2,B1>) = v^(<A,M> + <M,B> - 2<M,M>).  The right side
        collects F_{B2} Kd_{B1} E_{A2} = v^(-(B1, A2)) (F_{B2} E_{A2}) Kd_{B1}
        (rule R2, with F_{B2} E_{A2} from rule R4) over rows with A1 = B1 = M,
        the join of B over A, twisted by v^(<B,M> - <A,M>).  The two sides
        must agree as normal-ordered elements.
        """
        lhs, rhs = dh.zero(), dh.zero()
        euler = self.quiver.euler_dimvec
        z = self.quiver.zero_kvector()
        for m, a1k, b1k, n in dh._join(a.key, b.key):
            e = euler(a.dim, m.dim) + euler(m.dim, b.dim) - 2 * euler(m.dim, m.dim)
            lhs.add_term((a1k, tuple(m.kclass), b1k, z), self.ring.v_pow(e) * n)
        b_minus_a = kv_sub(b.dim, a.dim)
        for m, b2k, a2k, n in dh._join(b.key, a.key):
            word = dh.times_k(dh._fe_expand(b2k, a2k), z, m.kclass)
            rhs.add_scaled(word, self.ring.v_pow(euler(b_minus_a, m.dim)) * n)
        return check(f"drinfeld[{a.key};{b.key}]", lhs, rhs, dh.render)

    # ------------------------------------------------------------------
    # rendering

    def render(self, x: HallElement) -> str:
        def term_text(term):
            k, alpha = term
            return f"[{k}] K{self.quiver.render_kvector(alpha)}" if any(alpha) else f"[{k}]"

        return x.render(term_text)

    def to_json(self, x: HallElement):
        return [
            {"class": k, "alpha": list(alpha), "coeff": c.render()}
            for (k, alpha), c in x.items_sorted()
        ]
