"""Virasoro highest-weight models at desk scale.

Verma modules M(c,h) on partition monomials, singular-vector kernels,
irreducible quotients L(c,h) presented by explicit complement bases, the
square-root construction of the level-rs projection polynomials, and the
quotient-ring dimension bounds they imply.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping

from .core import State, TruncatedModel, TruncationError, VerificationError
from .linalg import Echelon, kernel_of, qstr, vec_add_scaled


# ---------------------------------------------------------------------------
# Minimal-series parameters


def minimal_params_values(p: int, q: int, r: int, s: int) -> tuple[Fraction, Fraction]:
    """Exact central charge and highest weight of the (p,q;r,s) entry."""
    _validate_minimal(p, q, r, s)
    c = 1 - Fraction(6 * (p - q) ** 2, p * q)
    h = _kac_weight(p, q, r, s)
    if h != _kac_weight(p, q, q - r, p - s):
        raise VerificationError(
            f"Kac weight of ({p},{q};{r},{s}) differs from its mirror entry"
        )
    return c, h


def _kac_weight(p: int, q: int, r: int, s: int) -> Fraction:
    return Fraction((r * p - s * q) ** 2 - (p - q) ** 2, 4 * p * q)


def _validate_minimal(p: int, q: int, r: int, s: int) -> None:
    if p <= 0 or q <= 0 or math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) = ({p}, {q}) must be coprime positive integers")
    if not (1 <= r < q and 1 <= s < p):
        raise ValueError(f"(r, s) = ({r}, {s}) out of range for (p, q) = ({p}, {q})")


# ---------------------------------------------------------------------------
# Partitions of module levels


@functools.cache
def partitions(n: int, top: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing positive tuples summing to n, with parts at most top."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest
                 for first in range(min(n, n if top is None else top), 0, -1)
                 for rest in partitions(n - first, first))


# ---------------------------------------------------------------------------
# Pure Verma-module mode action


class VermaAction:
    """L_m action on PBW partition monomials of M(c,h), exact and cached.

    [L_m, L_n] = (m - n) L_{m+n} + (c/12)(m^3 - m) delta_{m+n,0}.
    """

    def __init__(self, c: Fraction, h: Fraction):
        self.c = Fraction(c)
        self.h = Fraction(h)
        self._cache: dict = {}

    def L(self, m: int, part: tuple[int, ...]) -> State:
        """L_m on the monomial ``part``, as a state the caller owns."""
        return dict(self._L(m, part))

    def _L(self, m: int, part: tuple[int, ...]) -> State:
        # The cached state itself: readers in this module must not mutate it.
        key = (m, part)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out: State
        if not part:
            if m > 0:
                out = {}
            elif m == 0:
                out = {(): self.h} if self.h else {}
            else:
                out = {(-m,): Fraction(1)}
        else:
            n1, rest = part[0], part[1:]
            if m < 0 and -m >= n1:
                out = {(-m,) + part: Fraction(1)}
            else:
                out = {}
                for lab, cf in self._L(m, rest).items():
                    vec_add_scaled(out, self._L(-n1, lab), cf)
                coeff = Fraction(m + n1)
                if coeff:
                    vec_add_scaled(out, self._L(m - n1, rest), coeff)
                if m == n1:
                    central = self.c / 12 * (m**3 - m)
                    if central:
                        vec_add_scaled(out, {rest: Fraction(1)}, central)
        self._cache[key] = out
        return out

    def apply_state(self, m: int, s: Mapping) -> State:
        out: State = {}
        for lab, cf in s.items():
            vec_add_scaled(out, self._L(m, lab), cf)
        return out


def singular_vectors(c: Fraction, h: Fraction, level: int) -> list[State]:
    """Exact basis of {u at the given level : L_1 u = L_2 u = 0} in M(c,h).

    L_n u = 0 for all n >= 3 then follows from the bracket relations, so
    these are precisely the singular vectors.
    """
    act = VermaAction(c, h)

    def image(part) -> dict:
        img = {("L1", lab): cf for lab, cf in act._L(1, part).items()}
        img.update({("L2", lab): cf for lab, cf in act._L(2, part).items()})
        return img

    return kernel_of((part, image(part)) for part in partitions(level))


def _singular_vector(c: Fraction, h: Fraction, level: int) -> State:
    """The singular vector at the level, which must be unique up to scale."""
    vecs = singular_vectors(c, h, level)
    if len(vecs) != 1:
        raise VerificationError(
            f"expected a unique singular vector at level {level}, got {len(vecs)}"
        )
    return vecs[0]


# ---------------------------------------------------------------------------
# Truncated Virasoro models (Verma or quotients of Verma)


def _has_one(part: tuple[int, ...]) -> bool:
    return bool(part) and part[-1] == 1


class VirasoroModel(TruncatedModel):
    """M(c,h) or a quotient of it by a submodule generated by singular vectors.

    Basis labels are partitions.  Each level keeps only the submodule in
    reduced row echelon form (``_sub``); the basis is its non-pivot
    monomials, and reducing a state by it projects onto that basis.
    """

    def __init__(
        self,
        c: Fraction,
        h: Fraction,
        cutoff: int,
        submodule_gens: list[State] | None = None,
        is_voa: bool = False,
        voa: "VirasoroModel | None" = None,
        kind: str = "virasoro-verma",
        params: dict | None = None,
    ):
        super().__init__(cutoff, h, c, kind=kind, params=params or {},
                         omega={(2,): Fraction(1)}, vacuum=(), is_voa=is_voa, voa=voa)
        self.action = VermaAction(self.central_charge, self.lowest_weight)
        self._build_quotient(submodule_gens or [])
        if is_voa and any(map(_has_one, self.degrees)):
            raise VerificationError("quotient basis of a VOA model contains L_{-1} monomials")

    # -- quotient construction --------------------------------------------
    def _build_quotient(self, gens: list[State]) -> None:
        """Submodule RREF per level; its non-pivot monomials are the basis.

        Monomials of each level are ordered by (_has_one, partition) and each
        submodule row pivots on its last monomial in that order, so the
        non-pivot monomials form the complement basis that a greedy pass
        from the front would choose: VOA models prefer 1-free monomials.
        Reducing a monomial by the RREF expresses it in that basis.

        The submodule U(Vir^-) . gens is spanned by the PBW monomials
        L_{-lam} g = L_{-lam_1} ... L_{-lam_k} g with lam_1 >= ... >= lam_k,
        each built as L_{-lam_1} applied to the stored L_{-lam[1:]} g.  Any
        spanning set gives the same RREF: with a fixed pivot order the pivot
        set is the span's set of leading monomials, and a fully reduced
        echelon form is unique for its span.  So the order of the rows is
        free, and each level's vectors, from every generator, are added in
        ascending position of their last monomial, the pivot each would take
        unreduced.  A stored row holds no monomial past its own pivot, so a
        new pivot past every stored one needs no back-substitution.
        """
        cutoff = self.cutoff
        orders = {d: sorted(partitions(d), key=lambda p: (_has_one(p), p))
                  for d in range(cutoff + 1)}
        self._sub = {}
        pbws = []  # (level of g, {lam: L_{-lam} g})
        for g in gens:
            lvl = self._state_level(g)
            if lvl is not None and lvl <= cutoff:
                pbws.append((lvl, {(): g}))
        for d, parts in orders.items():
            last_first = {part: -i for i, part in enumerate(parts)}
            sub = self._sub[d] = Echelon(pivot_key=last_first.__getitem__)
            vecs = []
            for lvl, pbw in pbws:
                for lam in partitions(d - lvl) if d >= lvl else ():
                    if lam:
                        pbw[lam] = self.action.apply_state(-lam[0], pbw[lam[1:]])
                    if pbw[lam]:
                        vecs.append(pbw[lam])
            for vec in sorted(vecs, key=lambda v: min(map(last_first.__getitem__, v)),
                              reverse=True):
                sub.add(vec)
        self._set_basis({d: sorted(p for p in parts if p not in self._sub[d].pivot_rows)
                         for d, parts in orders.items()})

    def _state_level(self, s: Mapping) -> int | None:
        return self._one_degree({sum(p) for p in s})

    def reduce_partition_state(self, s: Mapping) -> State:
        """Project a single-level Verma-coordinates state onto the quotient basis."""
        lvl = self._state_level(s)
        if lvl is None:
            return {}
        if lvl > self.cutoff:
            raise TruncationError(f"level {lvl} exceeds cutoff {self.cutoff}")
        return self._sub[lvl].reduce(s)

    # -- TruncatedModel interface ------------------------------------------
    def decompose(self, label):
        if not label:
            return ("vacuum",)
        if label == (2,):
            return ("gen",)
        n1, rest = label[0], label[1:]
        return ("iter", (2,), n1 - 1, self.reduce_partition_state({rest: Fraction(1)}))

    def gen_mode(self, gen, n: int, label) -> State:
        # omega(n) = L_{n-1}; the only generator is omega, at label (2,).
        return self._sub[sum(label) - n + 1].reduce(self.action._L(n - 1, label))


def vacuum_voa(c: Fraction, cutoff: int) -> VirasoroModel:
    """The universal Virasoro VOA at charge c: M(c,0) / <L_{-1}vac>."""
    gens = [{(1,): Fraction(1)}]
    return VirasoroModel(
        c, Fraction(0), cutoff, gens, is_voa=True, kind="virasoro-vacuum",
        params={"c": qstr(Fraction(c))},
    )


def verma_model(c: Fraction, h: Fraction, cutoff: int,
                voa: VirasoroModel | None = None) -> VirasoroModel:
    """The Verma module M(c,h) as a module for the vacuum VOA at charge c."""
    if voa is None:
        voa = vacuum_voa(c, cutoff)
    return VirasoroModel(
        c, h, cutoff, [], is_voa=False, voa=voa, kind="virasoro-verma",
        params={"c": qstr(Fraction(c)), "h": qstr(Fraction(h))},
    )


def irreducible_model(p: int, q: int, r: int, s: int, cutoff: int,
                      voa: VirasoroModel | None = None) -> VirasoroModel:
    """L(c_{p,q}, h_{p,q;r,s}): quotient by the two singular-vector submodules.

    The submodule generators sit at levels rs and (q-r)(p-s); generators
    above the cutoff are vacuously inactive at desk scale.
    """
    c, h = minimal_params_values(p, q, r, s)
    gens = [_singular_vector(c, h, lv) for lv in {r * s, (q - r) * (p - s)}
            if lv <= cutoff]
    is_vac = h == 0
    if not is_vac and voa is None:
        voa = irreducible_model(p, q, 1, 1, cutoff)
    return VirasoroModel(
        c, h, cutoff, gens, is_voa=is_vac, voa=voa, kind="virasoro-irreducible",
        params={"p": p, "q": q, "r": r, "s": s},
    )


def ising_model(cutoff: int) -> VirasoroModel:
    return irreducible_model(4, 3, 1, 1, cutoff)


# ---------------------------------------------------------------------------
# Level-rs projection polynomials (square-root construction)
#
# A polynomial in x, y, t and 1/t is a sparse vector {(i, j, e): Fraction}
# holding the coefficient of x^i y^j t^e.


def _poly_mul(f: Mapping, g: Mapping) -> dict:
    """The product f g; zero coefficients in g are allowed and never stored."""
    out: dict = {}
    for (i, j, e), cf in f.items():
        vec_add_scaled(out, {(i + i2, j + j2, e + e2): v for (i2, j2, e2), v in g.items()}, cf)
    return out


def _eval_t(f: Mapping, t0: Fraction) -> dict[tuple[int, int], Fraction]:
    """Exact substitution t = t0 (nonzero): a polynomial {(i, j): Fraction} in x, y."""
    out: dict = {}
    for (i, j, e), cf in f.items():
        vec_add_scaled(out, {(i, j): Fraction(t0) ** e}, cf)
    return out


def feigin_fuchs(r: int, s: int) -> dict[tuple[int, int, int], Fraction]:
    """The degree-rs polynomial F_{r,s}(x, y; t) as {(i, j, e): Fraction}.

    Its square is the product over 0 <= k < r, 0 <= l < s of
    x^2 - ((r-2k-1) t^{1/2} - (s-2l-1) t^{-1/2})^2 y.  The factor at (k,l)
    equals the factor at (r-1-k, s-1-l), so pairing them yields the square
    root directly; ff_squares_to_product checks the construction by squaring.
    """
    if r < 1 or s < 1:
        raise ValueError("r, s must be positive")
    result = {(0, 0, 0): Fraction(1)}
    for k in range(r):
        for l in range(s):
            partner = (r - 1 - k, s - 1 - l)
            if (k, l) == partner:
                # self-paired middle factor: contributes x
                result = _poly_mul(result, {(1, 0, 0): Fraction(1)})
            elif (k, l) < partner:
                a = r - 2 * k - 1
                b = s - 2 * l - 1
                # x^2 - A^2 y with A^2 = a^2 t - 2ab + b^2 t^{-1}
                result = _poly_mul(result, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-a * a),
                                            (0, 1, 0): Fraction(2 * a * b),
                                            (0, 1, -1): Fraction(-b * b)})
    return result


def ff_square_product(r: int, s: int) -> dict[tuple[int, int, int], Fraction]:
    """The cited product formula for F_{r,s}^2, expanded over Q[t, 1/t]."""
    result = {(0, 0, 0): Fraction(1)}
    for k in range(r):
        for l in range(s):
            # ((r-2k-1) t^{1/2} - (s-2l-1) t^{-1/2})^2, term by power of t
            sq = {1: Fraction((r - 2 * k - 1) ** 2),
                  0: Fraction(-2 * (r - 2 * k - 1) * (s - 2 * l - 1)),
                  -1: Fraction((s - 2 * l - 1) ** 2)}
            factor = {(2, 0, 0): Fraction(1)}
            vec_add_scaled(factor, {(0, 1, e): v for e, v in sq.items()}, Fraction(-1))
            result = _poly_mul(result, factor)
    return result


def ff_squares_to_product(r: int, s: int) -> bool:
    F = feigin_fuchs(r, s)
    return _poly_mul(F, F) == ff_square_product(r, s)


def project_drop_deep_modes(u: Mapping) -> dict[tuple[int, int], Fraction]:
    """Image of a Verma state under the map killing every L_{-n}, n >= 3.

    Monomials are stored weakly decreasing, i.e. already in the order
    L_{-2}^j L_{-1}^i, so the projection reads exponents off directly:
    x^i y^j <-> i ones and j twos.  Distinct surviving monomials have
    distinct exponents, so no two terms combine.
    """
    return {(part.count(1), part.count(2)): cf for part, cf in u.items()
            if all(n <= 2 for n in part)}


def ff_verify(p: int, q: int, r: int, s: int) -> Fraction:
    """Exact proportionality check pi(u_{r,s}) = alpha F_{r,s}(x,y;p/q).

    u_{r,s} is normalized so its L_{-1}^{rs} coefficient is 1; returns the
    resulting alpha.  Non-proportionality signals an implementation bug.
    """
    c, h = minimal_params_values(p, q, r, s)
    level = r * s
    u = _singular_vector(c, h, level)
    lead = (1,) * level
    if lead not in u or not u[lead]:
        raise VerificationError("singular vector has zero L_{-1}^{rs} coefficient")
    scale = 1 / u[lead]
    u = {k: v * scale for k, v in u.items()}
    pu = project_drop_deep_modes(u)
    Fpoly = _eval_t(feigin_fuchs(r, s), Fraction(p, q))
    lead_key = (level, 0)
    if lead_key not in Fpoly:
        raise VerificationError("F_{r,s} is not monic in x")
    alpha = pu.get(lead_key, Fraction(0)) / Fpoly[lead_key]
    if not alpha:
        raise VerificationError("projection of the singular vector lost its leading term")
    if pu != {k: alpha * v for k, v in Fpoly.items()}:
        raise VerificationError(
            f"pi(u_{{{r},{s}}}) is not proportional to F for (p,q)=({p},{q})"
        )
    return alpha


def quotient_ring_bounds(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """(vacuum C2 bound, B1 bound) from the two-polynomial quotient ring.

    The vacuum bound is dim C[y]/(F_{q-1,p-1}(0, y; p/q)) = (p-1)(q-1)/2,
    confirmed by checking that the substituted polynomial is a nonzero
    multiple of that pure power of y.  The B1 bound is min(rs, (q-r)(p-s)).
    """
    _validate_minimal(p, q, r, s)
    t0 = Fraction(p, q)
    F = _eval_t({k: v for k, v in feigin_fuchs(q - 1, p - 1).items() if k[0] == 0}, t0)
    expo = (p - 1) * (q - 1) // 2
    if set(F) != {(0, expo)}:
        raise VerificationError(
            f"F_{{{q-1},{p-1}}}(0, y; {p}/{q}) is not a nonzero multiple of y^{expo}"
        )
    b1 = min(r * s, (q - r) * (p - s))
    return expo, b1
