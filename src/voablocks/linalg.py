"""Exact scalar and sparse linear algebra over the rationals.

Everything downstream (mode actions, quotient dimensions, section
expansions) reduces to the primitives here.  All arithmetic is exact:
scalars are ``fractions.Fraction``, which normalizes eagerly, and the
elimination routines never introduce approximate entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

Q = Fraction

# ---------------------------------------------------------------------------
# Rational serialization ("num/den" strings in all JSON interfaces)


def qparse(s) -> Fraction:
    """Parse a rational from a "num/den" string (or int / int-string)."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def qstr(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Sparse vectors and incremental elimination

SparseVector = dict  # index -> Fraction, no stored zeros


def vec_add_scaled(dst: dict, src: Mapping, coeff: Fraction) -> None:
    """dst += coeff * src, dropping entries that cancel to zero."""
    if not coeff:
        return
    for k, v in src.items():
        new = coeff * v
        if k in dst:
            new += dst[k]
        if new:
            dst[k] = new
        else:
            dst.pop(k, None)


class Echelon:
    """Incremental reduced row echelon form keyed by arbitrary hashable coordinates.

    Every row is kept fully reduced: it has coefficient 1 at its own pivot
    and 0 at every other pivot, so ``reduce`` returns the unique residual
    supported off the pivots.  A new row pivots on its coordinate that is
    minimal under ``pivot_key`` (default: ``_pivot_key``, the natural order
    within a key type).  Supports rank queries and residual reduction; used
    for all greedy span/complement computations.

    The stored rows depend only on the span and ``pivot_key``, never on the
    order rows were added in: a fully reduced echelon form is unique for its
    span.  The order sets the cost.  A new pivot must be cleared from every
    stored row that holds it, and a stored row holds only coordinates that
    come after its own pivot, so adding rows in descending order of their
    leading (minimal) key keeps that back-substitution small.
    """

    def __init__(self, pivot_key=None):
        self.pivot_rows: dict = {}  # pivot key -> row (dict key->Fraction with row[pivot]=1)
        self.pivot_key = _pivot_key if pivot_key is None else pivot_key

    def reduce(self, vec: Mapping) -> dict:
        v = dict(vec)
        while True:
            hit = None
            for k in v:
                if k in self.pivot_rows:
                    hit = k
                    break
            if hit is None:
                return v
            vec_add_scaled(v, self.pivot_rows[hit], -v[hit])

    def add(self, vec: Mapping) -> bool:
        """Insert vec; returns True if it increased the rank."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v, key=self.pivot_key)
        pv = v[pivot]
        row = {k: c / pv for k, c in v.items()}
        for p, r in self.pivot_rows.items():
            if pivot in r:
                vec_add_scaled(r, row, -r[pivot])
        self.pivot_rows[pivot] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def contains(self, vec: Mapping) -> bool:
        return not self.reduce(vec)


def _pivot_key(k):
    return (repr(type(k)), k) if not isinstance(k, (int, str, tuple)) else (str(type(k)), k)


@dataclass(frozen=True)
class _Expr:
    """Coordinate carrying the expression weight of input ``index`` in a
    ``SolverEchelon`` row; a distinct type, so it never equals a real key."""

    index: object


def _solver_pivot_key(k):
    # Expression coordinates sort after every real key, so they never pivot.
    return (1,) if isinstance(k, _Expr) else (0, _pivot_key(k))


class SolverEchelon(Echelon):
    """Echelon with expression tracking: solve target = sum x_i row_i.

    Each added row carries the unit coordinate ``_Expr(index)``; reduction
    then accumulates, in those coordinates, the combination of added rows
    that was subtracted.  The added rows are independent, so the
    combination ``solve`` returns is unique.
    """

    def __init__(self):
        super().__init__(pivot_key=_solver_pivot_key)

    def add(self, vec: Mapping, index) -> bool:
        """Insert vec as input ``index``; returns True if it increased the rank."""
        v = self.reduce({**vec, _Expr(index): Fraction(1)})
        return not all(isinstance(k, _Expr) for k in v) and super().add(v)

    def solve(self, target: Mapping) -> dict | None:
        """Coefficients x (index -> Fraction) with sum x_i row_i == target, or None."""
        v = self.reduce(target)
        if not all(isinstance(k, _Expr) for k in v):
            return None
        return {k.index: -c for k, c in v.items()}


def kernel_of(pairs: Iterable[tuple[object, Mapping]]) -> list[dict]:
    """Kernel of the linear map label -> image, from (label, image) pairs.

    Labels are taken in order; each label whose image depends on earlier
    images yields one kernel vector ``label - combination of earlier labels``.
    """
    se = SolverEchelon()
    kernel: list[dict] = []
    for label, image in pairs:
        if not se.add(image, label):
            expr = se.solve(image)
            kernel.append({label: Fraction(1), **{j: -cf for j, cf in expr.items()}})
    return kernel


# ---------------------------------------------------------------------------
# Laurent polynomials in one parameter t over Q


class Laurent:
    """Laurent polynomial in t with exact rational coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = Fraction(v)
                if v:
                    self.c[int(e)] = v

    @classmethod
    def const(cls, v) -> "Laurent":
        return cls({0: Fraction(v)})

    @classmethod
    def t_power(cls, e: int, v=1) -> "Laurent":
        return cls({e: Fraction(v)})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.c)
        for e, v in other.c.items():
            n = out.get(e, 0) + v
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        r = Laurent()
        r.c = out
        return r

    def __neg__(self) -> "Laurent":
        r = Laurent()
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other) -> "Laurent":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Laurent()
            r = Laurent()
            r.c = {e: v * other for e, v in self.c.items()}
            return r
        out: dict[int, Fraction] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                n = out.get(e, 0) + v1 * v2
                if n:
                    out[e] = n
                else:
                    out.pop(e, None)
        r = Laurent()
        r.c = out
        return r

    __rmul__ = __mul__

    def eval(self, t0: Fraction) -> Fraction:
        """Exact substitution t = t0."""
        t0 = Fraction(t0)
        if t0 == 0:
            if any(e < 0 for e in self.c):
                raise ZeroDivisionError("negative exponents present at t = 0")
            return self.c.get(0, Fraction(0))
        return sum((v * t0 ** e for e, v in self.c.items()), Fraction(0))

    def to_json(self) -> dict:
        return {str(e): qstr(v) for e, v in sorted(self.c.items())}

    def __repr__(self):
        if not self.c:
            return "Laurent(0)"
        terms = " + ".join(f"({qstr(v)})t^{e}" for e, v in sorted(self.c.items()))
        return f"Laurent({terms})"


# ---------------------------------------------------------------------------
# Bivariate polynomials in (x, y) over Laurent


class BivariatePoly:
    """Polynomial in x, y whose coefficients are Laurent polynomials in t."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Laurent] | None = None):
        self.c: dict[tuple[int, int], Laurent] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.c[(int(k[0]), int(k[1]))] = v

    @classmethod
    def term(cls, i: int, j: int, coeff: Laurent) -> "BivariatePoly":
        return cls({(i, j): coeff})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, BivariatePoly):
            return self.c == other.c
        return NotImplemented

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.c)
        for k, v in other.c.items():
            n = out.get(k, Laurent()) + v
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        r = BivariatePoly()
        r.c = out
        return r

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + BivariatePoly({k: -v for k, v in other.c.items()})

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: dict[tuple[int, int], Laurent] = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                k = (i1 + i2, j1 + j2)
                n = out.get(k, Laurent()) + v1 * v2
                if n:
                    out[k] = n
                else:
                    out.pop(k, None)
        r = BivariatePoly()
        r.c = out
        return r

    def x_degree(self) -> int:
        return max((i for i, _ in self.c), default=-1)

    def eval_t(self, t0: Fraction) -> dict[tuple[int, int], Fraction]:
        out = {}
        for k, v in self.c.items():
            val = v.eval(t0)
            if val:
                out[k] = val
        return out

    def subs_x0(self) -> "BivariatePoly":
        r = BivariatePoly()
        r.c = {k: v for k, v in self.c.items() if k[0] == 0}
        return r

    def to_json(self) -> dict:
        return {f"{i},{j}": v.to_json() for (i, j), v in sorted(self.c.items())}

    def __repr__(self):
        return f"BivariatePoly({self.c!r})"
