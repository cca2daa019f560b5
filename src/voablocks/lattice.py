"""Even-lattice Fock models, their irreducible modules, and the Γ-set.

States are spanned by Heisenberg monomials applied to momentum vectors
e_{λ+γ}; all pairings are exact rationals computed from the Gram matrix.
The vertex operators of the momentum states are expanded through the two
exponential factors, the zero-mode power, and a fixed bimultiplicative
cocycle sign.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .core import State, TruncatedModel, VerificationError, mode_apply
from .finiteness import SubspaceSpec, _graded_spans
from .linalg import SolverEchelon, qstr, vec_add_scaled


# ---------------------------------------------------------------------------
# Lattices


class EvenLattice:
    """Positive-definite integral lattice presented by its Gram matrix."""

    def __init__(self, gram: Sequence[Sequence[int]], require_even: bool = True):
        try:
            q = [[Fraction(x) for x in row] for row in gram]
        except (TypeError, ValueError, OverflowError):
            q = None
        if q is None or any(x.denominator != 1 for row in q for x in row):
            raise ValueError(f"Gram matrix must be a matrix of integers, got {gram!r}")
        g = tuple(tuple(int(x) for x in row) for row in q)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if require_even and any(g[i][i] % 2 for i in range(n)):
            raise ValueError("lattice is not even: odd diagonal entry")
        self.rank = n
        self.gram = g
        # Before row k is added, its residual at coordinate k is the k-th leading
        # principal minor over the one before it, so by Sylvester's criterion the
        # matrix is positive definite exactly when every such residual is > 0.
        se = SolverEchelon()
        for k, row in enumerate(g):
            vec = {j: Fraction(x) for j, x in enumerate(row) if x}
            if se.reduce(vec).get(k, 0) <= 0:
                raise ValueError("Gram matrix is not positive definite")
            se.add(vec, k)
        # Row i of the inverse is the x with sum_k x_k (row k) = e_i.
        self.inv = tuple(tuple(x.get(j, Fraction(0)) for j in range(n))
                         for x in (se.solve({i: Fraction(1)}) for i in range(n)))

    def inner(self, u: Sequence, v: Sequence):
        """<u|v> for coordinate vectors in the lattice basis (an int for integer vectors)."""
        return sum(x * p for x, p in zip(u, self.pairings(v)))

    def pairings(self, v: Sequence) -> tuple:
        """(<α_i|v>)_i for a coordinate vector v in the lattice basis."""
        return tuple(sum(g * x for g, x in zip(row, v)) for row in self.gram)

    def halfnorm(self, u: Sequence) -> Fraction:
        return Fraction(self.inner(u, u), 2)


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative rational, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    return math.isqrt(int(x.numerator // x.denominator))


def short_vectors(lat: EvenLattice, shift: Sequence[Fraction], bound: Fraction):
    """All integer g with <shift+g|shift+g>/2 <= bound, with their halfnorms.

    Coordinates are boxed by x_i^2 <= <x|x> * (G^{-1})_{ii} (Cauchy-Schwarz
    against the dual basis vector of norm (G^{-1})_{ii}).
    """
    if bound < 0:
        return []
    ranges = []
    for i in range(lat.rank):
        # +1 absorbs the floor of the irrational box radius; the exact
        # halfnorm filter below discards the overshoot.
        k = _floor_sqrt(2 * bound * lat.inv[i][i]) + 1
        lo = math.ceil(-k - shift[i])
        hi = math.floor(k - shift[i])
        ranges.append(range(lo, hi + 1))
    out = []
    for g in itertools.product(*ranges):
        x = tuple(shift[i] + g[i] for i in range(lat.rank))
        hn = lat.halfnorm(x)
        if hn <= bound:
            out.append((g, hn))
    return out


# ---------------------------------------------------------------------------
# Fock models


def _lambda_alpha(lat: EvenLattice, lam_dual: Sequence | None) -> tuple:
    """Alpha-basis coordinates of λ from its pairings with the basis α_i.

    An empty or absent λ means zero; otherwise it needs one integer per
    basis vector.
    """
    r = lat.rank
    try:
        lam_dual = tuple(Fraction(x) for x in (lam_dual or (0,) * r))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"lambda must be a list of integers, got {lam_dual!r}") from None
    if len(lam_dual) != r:
        raise ValueError(f"lambda has {len(lam_dual)} entries, but the lattice "
                         f"has rank {r}")
    if any(x.denominator != 1 for x in lam_dual):
        raise ValueError("module weight must pair integrally with the lattice")
    return tuple(sum(lat.inv[i][j] * lam_dual[j] for j in range(r)) for i in range(r))


def _reduce_lambda(lat: EvenLattice, lam_dual: Sequence | None) -> tuple:
    """Alpha-basis coordinates of λ, reduced into [0,1)^rank modulo L."""
    return tuple(x - math.floor(x) for x in _lambda_alpha(lat, lam_dual))


def _cocycle_sign(lat: EvenLattice, beta: Sequence[int], gamma: Sequence[int]) -> int:
    """epsilon(beta, gamma) = (-1)^{sum_{i>j} beta_i gamma_j <a_i|a_j>}.

    Bimultiplicative extension of epsilon(a_i, a_j) = (-1)^{<a_i|a_j>} for
    i > j and 1 otherwise; on module momenta lambda+gamma the sign is read
    from the integral part gamma alone.
    """
    e = 0
    for i in range(lat.rank):
        if not beta[i]:
            continue
        for j in range(i):
            if gamma[j]:
                e += beta[i] * gamma[j] * lat.gram[i][j]
    return -1 if e % 2 else 1


class FockModel(TruncatedModel):
    """V_{λ+L} over an even lattice, or the free-boson space (no momenta).

    Basis labels are (heis, gamma): heis a weakly decreasing tuple of pairs
    (n, i) for the creation modes alpha_i(-n), gamma the integer coordinates
    of the momentum offset (mu = lambda + gamma).
    """

    def __init__(
        self,
        gram: Sequence[Sequence[int]],
        lam_dual: Sequence[Fraction] | None,
        cutoff: int,
        lattice_enabled: bool = True,
        voa: "FockModel | None" = None,
    ):
        lat = EvenLattice(gram, require_even=lattice_enabled)
        self.lattice = lat
        r = lat.rank
        self.lam_alpha = _reduce_lambda(lat, lam_dual)
        if not lattice_enabled and any(self.lam_alpha):
            raise ValueError("free-boson model supports only the zero momentum")
        # Momentum layer: all gamma whose ground weight fits the cutoff.
        zero = (0,) * r
        if lattice_enabled:
            grounds = short_vectors(lat, self.lam_alpha, lat.halfnorm(self.lam_alpha))
            lw = min(hn for _, hn in grounds)
            grounds = short_vectors(lat, self.lam_alpha, lw + cutoff)
        else:
            lw = Fraction(0)
            grounds = [(zero, Fraction(0))]
        om: State = {}
        for i in range(r):
            for j in range(r):
                lab = (tuple(sorted([(1, i), (1, j)], reverse=True)), zero)
                vec_add_scaled(om, {lab: Fraction(1)}, lat.inv[i][j] / 2)
        super().__init__(
            cutoff, lw, Fraction(r), kind="lattice" if lattice_enabled else "heisenberg",
            params={"gram": [list(row) for row in lat.gram],
                    "lambda_alpha": [qstr(x) for x in self.lam_alpha]},
            omega=om, vacuum=((), zero), is_voa=not any(self.lam_alpha), voa=voa)
        if voa is not None and voa.lattice.gram != lat.gram:
            raise ValueError("module and VOA have different Gram matrices")
        self._zero = zero
        self._creation_cache: dict = {}
        labels: dict[int, list] = {d: [] for d in range(cutoff + 1)}
        for gamma, hn in grounds:
            base = hn - lw
            if base.denominator != 1:
                raise ValueError("momentum weights are not aligned modulo 1")
            base = int(base)
            for d in range(base, cutoff + 1):
                for heis in _colored_partitions(d - base, r):
                    labels[d].append((heis, gamma))
        self._set_basis({d: sorted(labs) for d, labs in labels.items()})

    # -- TruncatedModel interface ------------------------------------------
    def decompose(self, label):
        heis, gamma = label
        if not heis:
            return ("vacuum",) if gamma == self._zero else ("gen",)
        if len(heis) == 1 and heis[0][0] == 1 and gamma == self._zero:
            return ("gen",)
        n, i = heis[0]
        return ("iter", (((1, i),), self._zero), n, {(heis[1:], gamma): Fraction(1)})

    def gen_mode(self, gen, n: int, label) -> State:
        # h_i(-1)1 carries one Heisenberg mode; e^beta carries none.
        heis, beta = gen
        if heis:
            return self._h_mode(heis[0][1], n, label)
        return self._e_mode(beta, n, label)

    # -- Heisenberg modes ----------------------------------------------------
    def _h_mode(self, i: int, n: int, label) -> State:
        heis, gamma = label
        if n < 0:
            return {(tuple(sorted(heis + ((-n, i),), reverse=True)), gamma): Fraction(1)}
        if n == 0:
            mu = tuple(self.lam_alpha[k] + gamma[k] for k in range(self.lattice.rank))
            ev = self.lattice.pairings(mu)[i]
            return {label: ev} if ev else {}
        out: State = {}
        for pos, (m, j) in enumerate(heis):
            if m == n:
                coeff = Fraction(n * self.lattice.gram[i][j])
                if coeff:
                    rest = heis[:pos] + heis[pos + 1:]
                    vec_add_scaled(out, {(rest, gamma): Fraction(1)}, coeff)
        return out

    # -- Momentum-state modes -------------------------------------------------
    def _e_mode(self, beta: tuple, n: int, label) -> State:
        heis, gamma = label
        lat = self.lattice
        r = lat.rank
        mu = tuple(self.lam_alpha[k] + gamma[k] for k in range(r))
        s = lat.inner(beta, mu)
        if s.denominator != 1:
            raise ValueError("non-integral zero-mode pairing")
        s = int(s)
        sign = _cocycle_sign(lat, beta, gamma)
        gamma2 = tuple(gamma[k] + beta[k] for k in range(r))
        out: State = {}
        for (h2, drop), cf in self._annihilate(heis, beta).items():
            p = -n - 1 - s - drop
            if p < 0:
                continue
            # For a fixed h2, distinct creation monomials give distinct labels.
            vec_add_scaled(out, {(tuple(sorted(h2 + mon, reverse=True)), gamma2): acf
                                 for mon, acf in self._creation(beta, p).items()},
                           sign * cf)
        return out

    def _annihilate(self, heis: tuple, beta: tuple) -> dict:
        """Expansion of exp(-sum_m beta(m) x^{-m} / m) on a Heisenberg monomial.

        Conjugation by the exponential shifts each creation mode alpha_c(-m)
        by the constant -<beta|alpha_c> x^{-m}, so the monomial becomes a
        product of binomials: each factor either stays, or is dropped with
        coefficient -<beta|alpha_c> and x-exponent -m.

        Returns (remaining monomial, x-exponent dropped) -> coefficient.
        """
        pair = self.lattice.pairings(beta)
        one = Fraction(1)
        out: dict = {((), 0): one}
        for m, c in heis:
            neg_pair = Fraction(-pair[c])
            nxt: dict = {}
            for (h, q), cf in out.items():
                # Kept factors stay in the monomial's weakly decreasing order.
                vec_add_scaled(nxt, {(h + ((m, c),), q): one, (h, q - m): neg_pair}, cf)
            out = nxt
        return out

    def _creation(self, beta: tuple, p: int) -> dict:
        """x^p coefficient of exp(sum_m beta(-m) x^m / m) as creation monomials.

        Computed by the derivative recursion p*A[p] = sum_{m<=p, c} beta_c *
        (attach alpha_c(-m)) A[p-m], which bakes in all factorial factors.
        """
        key = (beta, p)
        hit = self._creation_cache.get(key)
        if hit is not None:
            return hit
        if p == 0:
            result = {(): Fraction(1)}
        else:
            acc: dict = {}
            for m in range(1, p + 1):
                prev = self._creation(beta, p - m)
                for c, bc in enumerate(beta):
                    if bc:
                        vec_add_scaled(acc, {tuple(sorted(mon + ((m, c),), reverse=True)): cf
                                             for mon, cf in prev.items()}, Fraction(bc))
            result = {k: v / p for k, v in acc.items()}
        self._creation_cache[key] = result
        return result


def _colored_partitions(total: int, colors: int) -> list[tuple]:
    """Weakly decreasing tuples of (n, color) pairs with sum of n = total."""
    out: list[tuple] = []

    def rec(remaining: int, maxpair: tuple, acc: tuple):
        if remaining == 0:
            out.append(acc)
            return
        for n in range(min(remaining, maxpair[0]), 0, -1):
            top = maxpair[1] if n == maxpair[0] else colors - 1
            for c in range(top, -1, -1):
                rec(remaining - n, (n, c), acc + ((n, c),))

    rec(total, (total, colors - 1), ())
    return out


def lattice_model(gram, lam_dual=None, cutoff: int = 6,
                  voa: FockModel | None = None) -> FockModel:
    """V_L (lam zero) or the irreducible module V_{λ+L} over it."""
    if voa is None and any(_lambda_alpha(EvenLattice(gram), lam_dual)):
        voa = FockModel(gram, None, cutoff)
    return FockModel(gram, lam_dual, cutoff, voa=voa)


def heisenberg_model(rank: int = 1, cutoff: int = 8) -> FockModel:
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    gram = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    return FockModel(gram, None, cutoff, lattice_enabled=False)


# ---------------------------------------------------------------------------
# The Γ-set


def gamma_set(gram, lam_dual=None) -> list[tuple]:
    """Exactly {β ∈ L : <β-α|α+λ> < 0 for all α ∈ L, α ∉ {β, -λ}}.

    Candidates come from the box |<γ|α_i>| <= <α_i|α_i> on γ = λ+β plus the
    exceptional γ = ±α_i; each candidate is then verified against the
    definition, which is a finite check because <δ|γ-δ> < 0 holds
    automatically (Cauchy-Schwarz) once <δ|δ> > <γ|γ>.
    """
    lat = EvenLattice(gram)
    r = lat.rank
    lam_alpha = _lambda_alpha(lat, lam_dual)
    # Box enumeration for beta: |<lam+beta|alpha_i>| <= gram[i][i].
    half = []
    for i in range(r):
        width = sum(abs(lat.inv[i][j]) * lat.gram[j][j] for j in range(r))
        lo = math.ceil(-width - lam_alpha[i])
        hi = math.floor(width - lam_alpha[i])
        half.append(range(lo, hi + 1))
    candidates = set()
    for beta in itertools.product(*half):
        gamma = tuple(lam_alpha[i] + beta[i] for i in range(r))
        if all(abs(x) <= lat.gram[i][i] for i, x in enumerate(lat.pairings(gamma))):
            candidates.add(beta)
    # Exceptional candidates gamma = ±alpha_i (only meaningful when they lie
    # in lambda + L, i.e. lambda ∈ L); never auto-accepted.
    if all(x.denominator == 1 for x in lam_alpha):
        for i in range(r):
            for sgn in (1, -1):
                beta = tuple(int(sgn * (k == i) - lam_alpha[k]) for k in range(r))
                candidates.add(beta)
    out = []
    for beta in sorted(candidates):
        gamma = tuple(lam_alpha[i] + beta[i] for i in range(r))
        if _in_phi_gamma(lat, gamma):
            out.append(beta)
    return out


def _in_phi_gamma(lat: EvenLattice, gamma: tuple) -> bool:
    """Whether <δ|γ-δ> < 0 for every δ ∈ L with δ ∉ {0, γ}."""
    zero = (0,) * lat.rank
    for delta, hn in short_vectors(lat, zero, lat.halfnorm(gamma)):
        if delta == zero or delta == gamma:
            continue
        diff = tuple(gamma[i] - delta[i] for i in range(lat.rank))
        if lat.inner(delta, diff) >= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Single-jump relation and the B1 spanning check


def single_jump_check(gram, lam_dual, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Asserts e_{β-α}(-<β-α|λ+α>-1) e_{λ+α} = ± e_{λ+β}; returns the sign."""
    lat = EvenLattice(gram)
    r = lat.rank
    alpha = tuple(int(x) for x in alpha)
    beta = tuple(int(x) for x in beta)
    for name, v in (("alpha", alpha), ("beta", beta)):
        if len(v) != r:
            raise ValueError(f"{name} has {len(v)} entries, but the lattice "
                             f"has rank {r}")
    diff = tuple(beta[i] - alpha[i] for i in range(r))
    lam_alpha = _reduce_lambda(lat, lam_dual)
    degs = []
    for g in (alpha, beta):
        mu = tuple(lam_alpha[i] + g[i] for i in range(r))
        degs.append(lat.halfnorm(mu))
    lw = min(hn for _, hn in short_vectors(lat, lam_alpha, max(degs)))
    cutoff = int(max(degs) - lw) + 1
    voa_cut = max(cutoff, int(lat.halfnorm(diff)) + 1)
    voa = FockModel(gram, None, voa_cut)
    model = voa if not any(lam_alpha) else FockModel(gram, lam_dual, cutoff, voa=voa)
    mu_a = tuple(lam_alpha[i] + alpha[i] for i in range(r))
    mode = -int(lat.inner(diff, mu_a)) - 1
    result = mode_apply(model, {((), diff): Fraction(1)}, mode, {((), alpha): Fraction(1)})
    target = ((), beta)
    if set(result) != {target} or abs(result[target]) != 1:
        raise VerificationError(
            f"single-jump product is not ±e_(λ+β): got {result!r}"
        )
    return 1 if result[target] > 0 else -1


def b1_span_check(gram, lam_dual, cutoff: int) -> dict:
    """Degreewise check that span{e_{λ+β} : β ∈ Γ_λ} + B₁ fills V_{λ+L}."""
    model = lattice_model(gram, lam_dual, cutoff)
    gammas = gamma_set(gram, lam_dual)
    grounds = [((), beta) for beta in gammas]
    seeds = [(model.degrees[lab], {lab: Fraction(1)}) for lab in grounds
             if lab in model.degrees]
    spans = _graded_spans(model, SubspaceSpec("b1"), seeds)
    deficiencies = [model.dim(d) - ech.rank for d, ech in enumerate(spans)]
    return {
        "per_degree_deficiency": deficiencies,
        "gamma_size": len(gammas),
        "ok": all(x == 0 for x in deficiencies),
    }
