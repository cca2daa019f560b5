"""The mode calculus: truncated graded models and exact identity checkers.

A model presents a graded vector space (a vertex operator algebra or one of
its modules) by canonical basis labels up to a weight-depth cutoff, together
with primitive generator modes.  Arbitrary modes a(n) are derived from the
generator modes through the associativity formula; the derivation is exact
for every output weight within the cutoff and fails loudly otherwise.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Hashable, Mapping

from .linalg import kernel_of, vec_add_scaled

State = dict  # BasisLabel -> Fraction, no stored zeros


class TruncationError(RuntimeError):
    """An exact answer would require weights above the model cutoff."""


class VerificationError(RuntimeError):
    """An exact cross-check that must hold for correct code has failed."""


class SchemaError(ValueError):
    """Input that fails validation: a config field, a flag or a parameter."""


def _integer(value, where: str, low: int | None = None) -> int:
    """value itself, if it is an int (not a bool) of at least low; else a schema error."""
    if type(value) is not int:
        raise SchemaError(f"{where} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise SchemaError(f"{where} must be >= {low}, got {value!r}")
    return value


def binom(p: int, i: int) -> int:
    """Generalized binomial coefficient for integer p and i >= 0."""
    if i < 0:
        return 0
    if p >= 0:
        return math.comb(p, i) if i <= p else 0
    return (-1) ** i * math.comb(-p + i - 1, i)


class TruncatedModel(ABC):
    """A concrete graded model with an exact mode-action rule.

    Subclasses fix the graded basis once through ``_set_basis`` and provide
    the decomposition of a basis label into generator(-n) * rest and the
    primitive generator modes.  A generator is named by its own basis label,
    so its weight is its degree.  The basis table is the only grading: a
    label's degree is a nonnegative integer, and its L_0 weight is
    lowest_weight + degree (within one model all weights are congruent
    modulo 1).
    """

    def __init__(self, cutoff: int, lowest_weight: Fraction, central_charge: Fraction, *,
                 kind: str, params: dict, omega: State, vacuum: Hashable, is_voa: bool,
                 voa: "TruncatedModel | None"):
        """Keep the contract every model shares, before any basis is built.

        A module needs a VOA of its own central charge, and a VOA model has
        lowest weight 0, as the mode path's degree count assumes.  ``params``
        are the descriptor's entries besides kind and cutoff.
        """
        self.cutoff = _integer(cutoff, "cutoff", 0)
        self.lowest_weight = Fraction(lowest_weight)
        self.central_charge = Fraction(central_charge)
        if voa is None and not is_voa:
            raise ValueError("a module needs an explicit VOA model")
        if voa is not None and voa.central_charge != self.central_charge:
            raise ValueError(f"central charge {self.central_charge} is not the VOA's "
                             f"{voa.central_charge}")
        if is_voa and self.lowest_weight != 0:
            raise ValueError(f"a VOA model has lowest weight 0, not {self.lowest_weight}")
        self.kind = kind
        self.params = params
        self._omega = omega
        self.vacuum = vacuum  # vacuum label (VOA models)
        self.is_voa = is_voa
        self._voa = voa  # the acting VOA; None for a VOA model acting on itself
        self._mode_cache: dict = {}

    degrees: dict  # basis label -> degree, filled by _set_basis

    @property
    def voa(self) -> "TruncatedModel":
        """The acting VOA: the model itself unless a VOA was given.

        Not stored as ``self``, so a VOA model holds no reference cycle and
        is freed as soon as its last reference goes.
        """
        return self if self._voa is None else self._voa

    @property
    def omega(self) -> State:
        """The conformal vector, as a copy the caller owns.

        ω has degree 2, so a model truncated below 2 cannot hold it.
        """
        if self.cutoff < 2:
            raise TruncationError(f"omega has degree 2, above cutoff {self.cutoff}")
        return dict(self._omega)

    def descriptor(self) -> dict:
        """The model's JSON descriptor, as a copy the caller owns."""
        return {"kind": self.kind, "cutoff": self.cutoff, **copy.deepcopy(self.params)}

    def _set_basis(self, labels: Mapping[int, list]) -> None:
        """Fix the basis: labels[d] are the canonical labels of degree d."""
        self._labels = {d: tuple(labels[d]) for d in range(self.cutoff + 1)}
        self.degrees = {lab: d for d, labs in self._labels.items() for lab in labs}

    def labels_at(self, degree: int) -> tuple:
        """Canonical basis labels at the given integer degree (0-based)."""
        return self._labels.get(degree, ())

    @abstractmethod
    def decompose(self, label):
        """('vacuum',) | ('gen',) | ('iter', gen, k, rest_state).

        ('gen',) marks a primitive generator.  In the 'iter' case the label
        equals gen(-k) applied to rest_state with k >= 1, gen the basis label
        of a primitive generator, and rest_state homogeneous.
        """

    @abstractmethod
    def gen_mode(self, gen, n: int, label) -> State:
        """Exact primitive action gen(n) on a basis label.

        Called only by the mode path, which has already checked that the
        result's degree lies in [0, cutoff].
        """

    # -- derived helpers ---------------------------------------------------
    def degree_of(self, label) -> int:
        try:
            return self.degrees[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a basis label of the model") from None

    def dim(self, degree: int) -> int:
        return len(self.labels_at(degree))

    def basis_state(self, label) -> State:
        return {label: Fraction(1)}

    def state_degree(self, s: Mapping) -> int | None:
        """Degree of a homogeneous state; None for zero, error if mixed."""
        return self._one_degree({self.degree_of(k) for k in s})

    @staticmethod
    def _one_degree(degs: set) -> int | None:
        """The one degree in degs; None if there is none, error if mixed."""
        if len(degs) > 1:
            raise ValueError("state is not homogeneous")
        return degs.pop() if degs else None


# ---------------------------------------------------------------------------
# Generic mode application


def mode_apply(model: TruncatedModel, a: Mapping, n: int, w: Mapping) -> State:
    """Exact a(n)w for a in the model's VOA and w in the model.

    Raises TruncationError whenever an exact answer (or an intermediate the
    associativity recursion genuinely needs) would live above the cutoff.
    """
    out: State = {}
    for alab, ac in a.items():
        for wlab, wc in w.items():
            vec_add_scaled(out, _mode_label(model, alab, n, wlab), ac * wc)
    return out


def _mode_label(model: TruncatedModel, alab, n: int, wlab) -> State:
    key = (alab, n, wlab)
    cached = model._mode_cache.get(key)
    if cached is not None:
        return cached
    voa = model.voa
    # wt a(n)w = wt a + wt w - n - 1, and a VOA's lowest weight is 0.
    deg = voa.degree_of(alab) + model.degree_of(wlab) - n - 1
    if deg < 0:
        result: State = {}
        model._mode_cache[key] = result
        return result
    if deg > model.cutoff:
        raise TruncationError(
            f"a(n)w at degree {deg} exceeds cutoff {model.cutoff} "
            f"(a={alab!r}, n={n}, w={wlab!r})"
        )
    dec = voa.decompose(alab)
    if dec[0] == "vacuum":
        result = {wlab: Fraction(1)} if n == -1 else {}
    elif dec[0] == "gen":
        result = model.gen_mode(alab, n, wlab)
    else:
        _, gen, k, rest = dec
        result = _iterate_formula(model, gen, k, rest, n, wlab)
    model._mode_cache[key] = result
    return result


def _iterate_formula(model: TruncatedModel, gen, k: int, c_state: Mapping, Q: int, wlab) -> State:
    """(g(-k)c)(Q)w via the associativity formula, all sums exact-finite.

    (g(-k)c)(Q)w = sum_i C(k+i-1, i) g(-k-i)(c(Q+i)w)
                   - (-1)^k sum_i C(k+i-1, i) c(-k+Q-i)(g(i)w)
    """
    voa = model.voa
    wt_g = voa.degree_of(gen)
    wt_c = voa.state_degree(c_state)
    if wt_c is None:
        return {}
    deg_w = model.degree_of(wlab)
    out: State = {}
    # First family: vanishes once c(Q+i)w is identically zero by grading.
    for i in range(wt_c + deg_w - Q):
        inner = mode_apply(model, c_state, Q + i, {wlab: Fraction(1)})
        if not inner:
            continue
        coeff = Fraction(binom(-k, i) * (-1) ** i)
        term: State = {}
        for lab, cf in inner.items():
            vec_add_scaled(term, _mode_label(model, gen, -k - i, lab), cf)
        vec_add_scaled(out, term, coeff)
    # Second family: vanishes once g(i)w is zero by grading.
    sign = -Fraction((-1) ** k)
    for i in range(wt_g + deg_w):
        inner = _mode_label(model, gen, i, wlab)
        if not inner:
            continue
        coeff = sign * binom(-k, i) * (-1) ** i
        term = mode_apply(model, c_state, -k + Q - i, inner)
        vec_add_scaled(out, term, coeff)
    return out


# ---------------------------------------------------------------------------
# Identity checkers (residual = LHS - RHS; zero for any valid model)


def check_identity(model: TruncatedModel, kind: str, **args) -> State:
    if kind == "borcherds":
        return _borcherds_residual(model, **args)
    if kind == "associativity":
        return _associativity_residual(model, **args)
    if kind == "commutator":
        return _commutator_residual(model, **args)
    if kind == "translation":
        return _translation_residual(model, **args)
    raise ValueError(f"unknown identity kind {kind!r}")


def _borcherds_residual(model, a, b, w, p: int, q: int, r: int) -> State:
    """sum_i C(p,i) (a(r+i)b)(p+q-i)w minus
    sum_i (-1)^i C(r,i) [a(p+r-i)b(q+i)w - (-1)^r b(q+r-i)a(p+i)w]."""
    voa = model.voa
    wa, wb = voa.state_degree(a), voa.state_degree(b)
    dw = model.state_degree(w)
    if wa is None or wb is None or dw is None:
        return {}
    lhs: State = {}
    # a(r+i)b = 0 once the product weight drops below 0 in the N-graded VOA.
    for i in range(wa + wb - r):
        if 0 <= p < i:  # C(p, i) = 0 from here on
            break
        ab = mode_apply(voa, a, r + i, b)
        if not ab:
            continue
        vec_add_scaled(lhs, mode_apply(model, ab, p + q - i, w), Fraction(binom(p, i)))
    rhs: State = {}
    for i in range(max(wb + dw - q, wa + dw - p)):
        c = binom(r, i)
        if c == 0:
            continue
        coeff = Fraction((-1) ** i * c)
        t1 = mode_apply(model, a, p + r - i, mode_apply(model, b, q + i, w))
        vec_add_scaled(rhs, t1, coeff)
        t2 = mode_apply(model, b, q + r - i, mode_apply(model, a, p + i, w))
        vec_add_scaled(rhs, t2, -coeff * (-1 if r % 2 else 1))
    vec_add_scaled(lhs, rhs, -1)
    return lhs


def _associativity_residual(model, a, b, w, n: int, q: int) -> State:
    """(a(-n)b)(-q)w minus its associativity expansion (n >= 1): Borcherds at p = 0."""
    return _borcherds_residual(model, a, b, w, p=0, q=-q, r=-n)


def _commutator_residual(model, a, b, w, p: int, q: int) -> State:
    """[a(p), b(q)]w - sum_i C(p,i) (a(i)b)(p+q-i)w: Borcherds at r = 0, sides swapped."""
    out: State = {}
    vec_add_scaled(out, _borcherds_residual(model, a, b, w, p=p, q=q, r=0), -1)
    return out


def _translation_residual(model, a, w, q: int) -> State:
    """(L_{-1}a)(q)w + q a(q-1)w."""
    voa = model.voa
    la = mode_apply(voa, voa.omega, 0, a)  # L_{-1} = omega(0)
    out = mode_apply(model, la, q, w)
    vec_add_scaled(out, mode_apply(model, a, q - 1, w), q)
    return out


# ---------------------------------------------------------------------------
# Quasi-primary structure


def l1_apply(model: TruncatedModel, s: Mapping) -> State:
    return mode_apply(model, model.voa.omega, 2, s)


def quasi_primary_space(model: TruncatedModel, degree: int) -> list[State]:
    """Basis of ker L_1 within the degree slice (exact kernel)."""
    return kernel_of((lab, l1_apply(model, {lab: Fraction(1)}))
                     for lab in model.labels_at(degree))


def is_quasi_primary_generated(model: TruncatedModel) -> bool:
    """True iff L_1 V(1) = 0 (the standard criterion), checked exactly."""
    if not model.is_voa:
        raise ValueError("quasi-primary generation is a property of VOA models")
    for lab in model.labels_at(1):
        if l1_apply(model, {lab: Fraction(1)}):
            return False
    return True
