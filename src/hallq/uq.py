"""Relation checks for the quantum generalized Kac-Moody generators.

The generator images live in the reduced localized algebra:

    E_il -> (q-1)^(-1) E[S_il],      F_il -> (-v)(q-1)^(-1) F[S_il],
    K_i  -> K(S_i),                  K_i^(-1) -> Kd(S_i),

with S_il the l-th simple at vertex i (loop scalars enumerated
lexicographically).  Each relation is verified exactly; the E/F
commutation relation is checked in the cleared form

    (v - v^(-1)) [E, F]  =  delta * (K - K^(-1))

since 1/(v - v^(-1)) is not itself a ring element.  The -v prefactor is
load-bearing: replacing it by -1 must make that check fail, and the test
suite asserts it does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product

from .combo import check, skipped
from .dh import DHAlgebra, ReducedDHElement
from .repcat import EnumerationTooLarge, RepCategory


class GeneratorTable:
    """Simple-module choices and generator images for one quiver."""

    def __init__(self, cat: RepCategory, dh: DHAlgebra, f_prefactor=None):
        self.cat = cat
        self.dh = dh
        self.quiver = cat.quiver
        self.ring = dh.ring
        q = self.quiver
        self.simples = []
        for i in range(q.n):
            # product yields the loop scalars in lexicographic order, and
            # Quiver checks that the charge does not exceed their number
            scalars = islice(product(range(cat.p), repeat=q.loops[i]), q.charges[i])
            self.simples.append([cat.class_of(cat.simple(i, lam)) for lam in scalars])
        self.inv_qm1 = self.ring.rational(Fraction(1, cat.p - 1))
        self.f_pref = -self.ring.v_pow(1) if f_prefactor is None else f_prefactor

    def xi_e(self, i: int, l: int):
        return self.dh.e_elem(self.simples[i][l].key).scale(self.inv_qm1)

    def xi_f(self, i: int, l: int):
        return self.dh.f_elem(self.simples[i][l].key).scale(self.inv_qm1).scale(self.f_pref)

    def xi_k(self, i: int):
        return self.dh.k_elem(self.quiver.simple_class(i))

    def xi_k_inv(self, i: int):
        return self.dh.kd_elem(self.quiver.simple_class(i))


class RelationVerifier:
    """Runs the defining relations inside the reduced algebra."""

    def __init__(self, cat: RepCategory, serre_cap: int = 4, f_prefactor=None):
        self.cat = cat
        self.dh = DHAlgebra(cat)
        self.gen = GeneratorTable(cat, self.dh, f_prefactor)
        self.quiver = cat.quiver
        self.ring = self.dh.ring
        self.cartan = cat.quiver.borcherds_cartan()
        self.serre_cap = serre_cap

    # -- helpers --------------------------------------------------------

    def _red(self, x) -> ReducedDHElement:
        return self.dh.reduce(x)

    def _red_product(self, *factors) -> ReducedDHElement:
        return self._red(self.dh.product_all(list(factors)))

    def _try(self, cid: str, compute) -> dict:
        """Run one relation; a blown enumeration bound skips just it."""
        try:
            lhs, rhs = compute()
        except EnumerationTooLarge as exc:
            return skipped(cid, exc)
        return check(cid, lhs, rhs, self.dh.render)

    def _gens_at(self, i):
        return range(len(self.gen.simples[i]))

    def _zero(self):
        return ReducedDHElement.zero(self.ring)

    # -- individual relation families -----------------------------------

    def check_cartan_group(self):
        """K_i K_i^(-1) = 1 and the K's commute."""
        out = []
        for i in range(self.quiver.n):
            out.append(self._try(
                f"K[{i}] Kinv[{i}] = 1",
                lambda i=i: (
                    self._red_product(self.gen.xi_k(i), self.gen.xi_k_inv(i)),
                    self._red(self.dh.one()),
                ),
            ))
        for i in range(self.quiver.n):
            for j in range(i + 1, self.quiver.n):
                out.append(self._try(
                    f"K[{i}] K[{j}] commute",
                    lambda i=i, j=j: (
                        self._red_product(self.gen.xi_k(i), self.gen.xi_k(j)),
                        self._red_product(self.gen.xi_k(j), self.gen.xi_k(i)),
                    ),
                ))
        return out

    def check_cartan_conjugation(self):
        """K_i E_jl K_i^(-1) = v^(a_ij) E_jl, and the F mirror."""
        out = []
        for i in range(self.quiver.n):
            for j in range(self.quiver.n):
                a_ij = self.cartan[i][j]
                for l in self._gens_at(j):
                    out.append(self._try(
                        f"K[{i}] E[{j},{l}] Kinv[{i}] = v^({a_ij}) E[{j},{l}]",
                        lambda i=i, j=j, l=l, a=a_ij: (
                            self._red_product(
                                self.gen.xi_k(i), self.gen.xi_e(j, l), self.gen.xi_k_inv(i)
                            ),
                            self._red(self.gen.xi_e(j, l).scale(self.ring.v_pow(a))),
                        ),
                    ))
                    out.append(self._try(
                        f"K[{i}] F[{j},{l}] Kinv[{i}] = v^({-a_ij}) F[{j},{l}]",
                        lambda i=i, j=j, l=l, a=a_ij: (
                            self._red_product(
                                self.gen.xi_k(i), self.gen.xi_f(j, l), self.gen.xi_k_inv(i)
                            ),
                            self._red(self.gen.xi_f(j, l).scale(self.ring.v_pow(-a))),
                        ),
                    ))
        return out

    def check_ef_commutators(self):
        """(v - 1/v) [E_ik, F_jl] = delta_ij delta_kl (K_i - K_i^(-1))."""
        out = []
        clear = self.ring.v_pow(1) - self.ring.v_pow(-1)

        def one_case(i, k, j, l):
            comm = self.dh.commutator(self.gen.xi_e(i, k), self.gen.xi_f(j, l))
            lhs = self._red(comm).scale(clear)
            if i == j and k == l:
                rhs = self._red(self.gen.xi_k(i)) - self._red(self.gen.xi_k_inv(i))
            else:
                rhs = self._zero()
            return lhs, rhs

        for i in range(self.quiver.n):
            for k in self._gens_at(i):
                for j in range(self.quiver.n):
                    for l in self._gens_at(j):
                        out.append(self._try(
                            f"(v-1/v)[E[{i},{k}],F[{j},{l}]]",
                            lambda i=i, k=k, j=j, l=l: one_case(i, k, j, l),
                        ))
        return out

    def check_orthogonal_pairs(self):
        """E's and F's at distinct vertices with a_ij = 0 commute."""
        out = []
        for i in range(self.quiver.n):
            for j in range(self.quiver.n):
                if i == j or self.cartan[i][j] != 0:
                    continue
                for k in self._gens_at(i):
                    for l in self._gens_at(j):
                        for name, pick in (("E", self.gen.xi_e), ("F", self.gen.xi_f)):
                            out.append(self._try(
                                f"[{name}[{i},{k}],{name}[{j},{l}]] (a=0)",
                                lambda pick=pick, i=i, k=k, j=j, l=l: (
                                    self._red(self.dh.commutator(pick(i, k), pick(j, l))),
                                    self._zero(),
                                ),
                            ))
        return out

    def check_serre(self):
        """Quantum Serre relations at real vertices, E and F type."""
        out = []
        for i in range(self.quiver.n):
            if self.cartan[i][i] != 2:
                continue
            for j in range(self.quiver.n):
                if i == j or self.cartan[i][j] == 0:
                    continue
                n_max = 1 - self.cartan[i][j]
                if n_max + 1 > self.serre_cap:
                    out.append(skipped(
                        f"serre[{i}->{j}] deg {n_max}",
                        f"degree {n_max + 1} above cap {self.serre_cap}",
                    ))
                    continue
                for l in self._gens_at(j):
                    for name, pick in (("E", self.gen.xi_e), ("F", self.gen.xi_f)):
                        out.append(self._try(
                            f"serre {name}[{i}]^({n_max}-n) {name}[{j},{l}] {name}[{i}]^n",
                            lambda pick=pick, i=i, j=j, l=l, n_max=n_max: (
                                self._serre_sum(pick, i, j, l, n_max),
                                self._zero(),
                            ),
                        ))
        return out

    def _serre_sum(self, pick, i, j, l, n_max):
        gen_x = pick(i, 0)
        gen_y = pick(j, l)
        powers = [self.dh.one()]
        for _ in range(n_max):
            powers.append(self.dh.product(powers[-1], gen_x))
        total = self.dh.zero()
        for n in range(n_max + 1):
            term = self.dh.product_all([powers[n_max - n], gen_y, powers[n]])
            coeff = self.ring.quantum_binomial(n_max, n)
            if n % 2:
                coeff = -coeff
            total.add_scaled(term, coeff)
        return self._red(total)

    # -- entry point -----------------------------------------------------

    def verify_all(self) -> list:
        checks = []
        checks.extend(self.check_cartan_group())
        checks.extend(self.check_cartan_conjugation())
        checks.extend(self.check_ef_commutators())
        checks.extend(self.check_orthogonal_pairs())
        checks.extend(self.check_serre())
        return checks
