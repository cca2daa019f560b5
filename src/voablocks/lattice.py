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
import operator
from fractions import Fraction
from typing import Sequence

from .core import State, TruncatedModel, VerificationError, _integer, mode_apply
from .finiteness import SubspaceSpec, _graded_spans
from .linalg import SolverEchelon, qstr, vec_add_scaled


# ---------------------------------------------------------------------------
# Lattices


def _int_list(v) -> bool:
    """Whether v is a list or tuple of ints: the one integer rule, bools excluded."""
    return isinstance(v, (list, tuple)) and all(type(x) is int for x in v)


def _vector(name: str, v, rank: int, ints: bool = True) -> tuple:
    """v as a tuple of rank entries, each an int unless ints is False."""
    if ints and not _int_list(v):
        raise ValueError(f"{name} must be a list of integers, got {v!r}")
    if len(v) != rank:
        raise ValueError(f"{name} has {len(v)} entries, but the lattice has rank {rank}")
    return tuple(v)


class EvenLattice:
    """Positive-definite integral lattice presented by its Gram matrix."""

    def __init__(self, gram: Sequence[Sequence[int]], require_even: bool = True):
        if not (isinstance(gram, (list, tuple)) and all(map(_int_list, gram))):
            raise ValueError(f"Gram matrix must be a matrix of integers, got {gram!r}")
        g = tuple(map(tuple, gram))
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
        return sum(map(operator.mul, u, self.pairings(v)))

    def pairings(self, v: Sequence) -> tuple:
        """(<α_i|v>)_i for a coordinate vector v in the lattice basis."""
        return tuple(sum(map(operator.mul, row, v)) for row in self.gram)

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
    against the dual basis vector of norm (G^{-1})_{ii}).  Norms are taken
    on den*(shift+g), den the shift's common denominator, so each is an
    integer; g comes in lexicographic order.
    """
    if bound < 0:
        return []
    den = math.lcm(*(x.denominator for x in shift))
    num = [int(x * den) for x in shift]
    ranges = []
    for i in range(lat.rank):
        # +1 absorbs the floor of the irrational box radius; the exact
        # norm filter below discards the overshoot.
        k = _floor_sqrt(2 * bound * lat.inv[i][i]) + 1
        lo = math.ceil(-k - shift[i])
        hi = math.floor(k - shift[i])
        ranges.append(range(lo, hi + 1))
    cap = math.floor(2 * bound * den * den)
    out = []
    for g in itertools.product(*ranges):
        x = [n + den * k for n, k in zip(num, g)]
        n2 = lat.inner(x, x)
        if n2 <= cap:
            out.append((g, Fraction(n2, 2 * den * den)))
    return out


# ---------------------------------------------------------------------------
# Fock models


def _parse_lattice(gram, lam_dual: Sequence | None) -> tuple[EvenLattice, tuple]:
    """The even lattice of gram, and λ's alpha-basis coordinates: the one parse.

    λ gives its pairings with the basis α_i as a list or tuple; an empty or
    absent one means zero, and otherwise it needs one integer per basis vector.
    """
    lat = EvenLattice(gram)
    r = lat.rank
    lam = _vector("lambda", (0,) * r if lam_dual in (None, [], ()) else lam_dual, r)
    return lat, tuple(sum(lat.inv[i][j] * lam[j] for j in range(r)) for i in range(r))


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
        lat: EvenLattice,
        lam_alpha: Sequence[Fraction],
        cutoff: int,
        lattice_enabled: bool = True,
        voa: "FockModel | None" = None,
    ):
        self.lattice = lat
        r = lat.rank
        lam_alpha = _vector("lambda", lam_alpha, r, ints=False)  # Fractions, one per α_i
        self.lam_alpha = tuple(x - math.floor(x) for x in lam_alpha)
        if not lattice_enabled and any(self.lam_alpha):
            raise ValueError("free-boson model supports only the zero momentum")
        zero = (0,) * r
        lw = Fraction(0)
        if lattice_enabled:
            lw = min(hn for _, hn in short_vectors(lat, self.lam_alpha,
                                                   lat.halfnorm(self.lam_alpha)))
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
        self._momentum_cache: dict = {}
        # Momentum layer, enumerated once the contract holds: all gamma whose
        # ground weight fits the cutoff.
        grounds = (short_vectors(lat, self.lam_alpha, lw + cutoff) if lattice_enabled
                   else [(zero, Fraction(0))])
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
        # The n-independent factors E^-(β) E^+(β) e^β z^{β(0)} are expanded
        # once per (β, label): s = <β|λ+γ>, γ+β, and the signed
        # annihilation terms (h2, drop, sign * cf) in their item order.
        key = (beta, label)
        hit = self._momentum_cache.get(key)
        if hit is None:
            heis, gamma = label
            lat = self.lattice
            s = lat.inner(beta, [lam + g for lam, g in zip(self.lam_alpha, gamma)])
            if s.denominator != 1:
                raise VerificationError(f"non-integral zero-mode pairing {s} "
                                        f"of e^{beta} on {label}")
            sign = _cocycle_sign(lat, beta, gamma)
            hit = self._momentum_cache[key] = (
                int(s), tuple(g + b for g, b in zip(gamma, beta)),
                tuple((h2, drop, sign * cf)
                      for (h2, drop), cf in self._annihilate(heis, beta).items()))
        s, gamma2, terms = hit
        out: State = {}
        for h2, drop, cf in terms:
            p = -n - 1 - s - drop
            if p < 0:
                continue
            # For a fixed h2, distinct creation monomials give distinct labels.
            vec_add_scaled(out, {(tuple(sorted(h2 + mon, reverse=True)), gamma2): acf
                                 for mon, acf in self._creation(beta, p).items()}, cf)
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
    lat, lam_alpha = _parse_lattice(gram, lam_dual)
    if voa is None and any(lam_alpha):
        voa = FockModel(lat, (0,) * lat.rank, cutoff)
    return FockModel(lat, lam_alpha, cutoff, voa=voa)


def heisenberg_model(rank: int = 1, cutoff: int = 8) -> FockModel:
    _integer(rank, "rank", 0)
    gram = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    return FockModel(EvenLattice(gram, require_even=False), (0,) * rank, cutoff,
                     lattice_enabled=False)


# ---------------------------------------------------------------------------
# The Γ-set


def gamma_set(gram, lam_dual=None) -> list[tuple]:
    """Exactly {β ∈ L : <β-α|α+λ> < 0 for all α ∈ L, α ∉ {β, -λ}}, sorted.

    β is relative to λ as given, not to λ reduced modulo L, to which a
    model's momentum labels are relative.
    """
    return _gamma(*_parse_lattice(gram, lam_dual))


def _gamma(lat: EvenLattice, lam_alpha: Sequence[Fraction]) -> list[tuple]:
    """gamma_set for λ in alpha-basis coordinates, β relative to that λ.

    Write γ = λ+β, δ = β-α and p_i = <α_i|γ>: Γ is the set of γ with
    <δ|γ-δ> < 0 for every δ ∈ L ∖ {0, γ}.  Two enumerations suffice:
    - δ = ±α_i gives |p_i| <= g_ii, with equality only at γ = ±α_i; so
      every member lies in that box, a necessary condition kept as a filter.
    - In the box, |γ|² = Σ G⁻¹_ij p_i p_j <= B = Σ |G⁻¹_ij| g_ii g_jj, so
      the candidates are short_vectors(λ, B/2).
    - A δ ≠ γ with <δ|δ> >= <γ|γ> passes by Cauchy-Schwarz, since then
      <δ|γ> < <δ|δ>; so each γ is tested against the δ of
      short_vectors(0, B/2) with <δ|δ> < <γ|γ> only, and δ = γ never is.
    - The test is integral: p_i = <α_i|λ> + <α_i|β>, and
      <δ|γ-δ> = Σ δ_i p_i - <δ|δ>.
    """
    r = lat.rank
    lam_pair = [int(x) for x in lat.pairings(lam_alpha)]
    half = Fraction(sum(abs(lat.inv[i][j]) * lat.gram[i][i] * lat.gram[j][j]
                        for i in range(r) for j in range(r)), 2)
    deltas = [(d, int(2 * hn)) for d, hn in short_vectors(lat, (0,) * r, half) if any(d)]
    out = []
    for beta, hn in short_vectors(lat, lam_alpha, half):
        p = [x + y for x, y in zip(lam_pair, lat.pairings(beta))]
        if any(abs(x) > lat.gram[i][i] for i, x in enumerate(p)):
            continue
        cap = math.ceil(2 * hn)  # an integer <δ|δ> is below <γ|γ> iff below cap
        if all(sum(map(operator.mul, d, p)) < n2 for d, n2 in deltas if n2 < cap):
            out.append(beta)
    return out


# ---------------------------------------------------------------------------
# Single-jump relation and the B1 spanning check


def single_jump_check(gram, lam_dual, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Asserts e_{β-α}(-<β-α|λ+α>-1) e_{λ+α} = ± e_{λ+β}; returns the sign."""
    lat, lam_alpha = _parse_lattice(gram, lam_dual)
    r = lat.rank
    alpha, beta = _vector("alpha", alpha, r), _vector("beta", beta, r)
    diff = tuple(b - a for a, b in zip(alpha, beta))
    lam_alpha = tuple(x - math.floor(x) for x in lam_alpha)
    mu_a, mu_b = (tuple(x + g for x, g in zip(lam_alpha, v)) for v in (alpha, beta))
    top = max(lat.halfnorm(mu_a), lat.halfnorm(mu_b))
    lw = min(hn for _, hn in short_vectors(lat, lam_alpha, top))
    cutoff = int(top - lw) + 1
    voa_cut = max(cutoff, int(lat.halfnorm(diff)) + 1)
    voa = FockModel(lat, (0,) * r, voa_cut)
    model = voa if not any(lam_alpha) else FockModel(lat, lam_alpha, cutoff, voa=voa)
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
    # Γ for the model's reduced λ, so that each β is one of its momentum labels.
    gammas = _gamma(model.lattice, model.lam_alpha)
    spans = _graded_spans(model, SubspaceSpec("b1"))
    for beta in gammas:
        lab = ((), beta)
        if lab in model.degrees:
            spans[model.degrees[lab]].add({lab: Fraction(1)})
    deficiencies = [model.dim(d) - ech.rank for d, ech in enumerate(spans)]
    return {
        "per_degree_deficiency": deficiencies,
        "gamma_size": len(gammas),
        "ok": all(x == 0 for x in deficiencies),
    }
