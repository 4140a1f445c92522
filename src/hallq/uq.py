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

from .combo import run_check, skipped
from .dh import DHAlgebra
from .repcat import RepCategory


class GeneratorTable:
    """Simple-module choices and generator images for one quiver."""

    def __init__(self, cat: RepCategory, dh: DHAlgebra):
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
        self.f_pref = -self.ring.v_pow(1)

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

    def __init__(self, cat: RepCategory, serre_cap: int = 4):
        self.cat = cat
        self.dh = DHAlgebra(cat)
        self.gen = GeneratorTable(cat, self.dh)
        self.quiver = cat.quiver
        self.ring = self.dh.ring
        self.cartan = cat.quiver.borcherds_cartan()
        self.serre_cap = serre_cap
        # (i, l) for the generators E_il and F_il, in order
        self.gens = [(i, l) for i in range(self.quiver.n) for l in range(self.quiver.charges[i])]

    def _try(self, cid: str, compute) -> dict:
        """Run one relation: compute() returns its two sides, reduced here
        (reduction is linear); a blown enumeration bound skips just it."""
        reduce = self.dh.reduce
        return run_check(cid, lambda: [reduce(side) for side in compute()], self.dh.render)

    # -- individual relation families -----------------------------------

    def check_cartan_group(self):
        """K_i K_i^(-1) = 1 and the K's commute."""
        out = []
        dh, gen, n = self.dh, self.gen, self.quiver.n
        for i in range(n):
            out.append(self._try(
                f"K[{i}] Kinv[{i}] = 1",
                lambda i=i: (dh.product_all([gen.xi_k(i), gen.xi_k_inv(i)]), dh.one()),
            ))
        for i in range(n):
            for j in range(i + 1, n):
                out.append(self._try(
                    f"K[{i}] K[{j}] commute",
                    lambda i=i, j=j: (
                        dh.product_all([gen.xi_k(i), gen.xi_k(j)]),
                        dh.product_all([gen.xi_k(j), gen.xi_k(i)]),
                    ),
                ))
        return out

    def check_cartan_conjugation(self):
        """K_i E_jl K_i^(-1) = v^(a_ij) E_jl, and the F mirror."""
        out = []
        dh, gen = self.dh, self.gen
        for i in range(self.quiver.n):
            for j, l in self.gens:
                a_ij = self.cartan[i][j]
                for name, pick, a in (("E", gen.xi_e, a_ij), ("F", gen.xi_f, -a_ij)):
                    out.append(self._try(
                        f"K[{i}] {name}[{j},{l}] Kinv[{i}] = v^({a}) {name}[{j},{l}]",
                        lambda i=i, j=j, l=l, pick=pick, a=a: (
                            dh.product_all([gen.xi_k(i), pick(j, l), gen.xi_k_inv(i)]),
                            pick(j, l).scale(self.ring.v_pow(a)),
                        ),
                    ))
        return out

    def check_ef_commutators(self):
        """(v - 1/v) [E_ik, F_jl] = delta_ij delta_kl (K_i - K_i^(-1))."""
        out = []
        dh, gen = self.dh, self.gen
        clear = self.ring.v_pow(1) - self.ring.v_pow(-1)
        for i, k in self.gens:
            for j, l in self.gens:
                out.append(self._try(
                    f"(v-1/v)[E[{i},{k}],F[{j},{l}]]",
                    lambda i=i, k=k, j=j, l=l: (
                        dh.commutator(gen.xi_e(i, k), gen.xi_f(j, l)).scale(clear),
                        gen.xi_k(i) - gen.xi_k_inv(i) if (i, k) == (j, l) else dh.zero(),
                    ),
                ))
        return out

    def check_orthogonal_pairs(self):
        """E's and F's at distinct vertices with a_ij = 0 commute."""
        out = []
        dh, gen, q = self.dh, self.gen, self.quiver
        for i in range(q.n):
            for j in range(q.n):
                if i == j or self.cartan[i][j] != 0:
                    continue
                for k in range(q.charges[i]):
                    for l in range(q.charges[j]):
                        for name, pick in (("E", gen.xi_e), ("F", gen.xi_f)):
                            out.append(self._try(
                                f"[{name}[{i},{k}],{name}[{j},{l}]] (a=0)",
                                lambda pick=pick, i=i, k=k, j=j, l=l: (
                                    dh.commutator(pick(i, k), pick(j, l)), dh.zero()
                                ),
                            ))
        return out

    def check_serre(self):
        """Quantum Serre relations at real vertices, E and F type."""
        out = []
        q = self.quiver
        for i in range(q.n):
            if self.cartan[i][i] != 2:
                continue
            for j in range(q.n):
                if i == j or self.cartan[i][j] == 0:
                    continue
                n_max = 1 - self.cartan[i][j]
                if n_max + 1 > self.serre_cap:
                    out.append(skipped(
                        f"serre[{i}->{j}] deg {n_max}",
                        f"degree {n_max + 1} above cap {self.serre_cap}",
                    ))
                    continue
                for l in range(q.charges[j]):
                    for name, pick in (("E", self.gen.xi_e), ("F", self.gen.xi_f)):
                        out.append(self._try(
                            f"serre {name}[{i}]^({n_max}-n) {name}[{j},{l}] {name}[{i}]^n",
                            lambda pick=pick, i=i, j=j, l=l, n_max=n_max: (
                                self._serre_sum(pick(i, 0), pick(j, l), n_max),
                                self.dh.zero(),
                            ),
                        ))
        return out

    def _serre_sum(self, x, y, n_max):
        """sum over n of (-1)^n [n_max choose n]_v x^(n_max - n) y x^n."""
        powers = [self.dh.one()]
        for _ in range(n_max):
            powers.append(self.dh.product(powers[-1], x))
        total = self.dh.zero()
        for n in range(n_max + 1):
            coeff = self.ring.quantum_binomial(n_max, n)
            term = self.dh.product_all([powers[n_max - n], y, powers[n]])
            total.add_scaled(term, -coeff if n % 2 else coeff)
        return total

    # -- entry point -----------------------------------------------------

    def verify_all(self) -> list:
        checks = []
        checks.extend(self.check_cartan_group())
        checks.extend(self.check_cartan_conjugation())
        checks.extend(self.check_ef_commutators())
        checks.extend(self.check_orthogonal_pairs())
        checks.extend(self.check_serre())
        return checks
