"""Exact scalar and sparse linear algebra over the rationals.

Everything downstream (mode actions, quotient dimensions, section
expansions) reduces to the primitives here.  All arithmetic is exact:
scalars are ``fractions.Fraction``, which normalizes eagerly, and the
elimination routines never introduce approximate entries.

A sparse vector is a dict whose values are always ``Fraction``s, never
zero; a scaling coefficient may be an int or a ``Fraction``.  Units cost no
arithmetic: ``vec_add_scaled`` with coefficient 1 or -1 moves or negates
values instead of multiplying them, and ``Echelon.add`` stores a residual
whose pivot coefficient is 1 as it is, without dividing it through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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


def vec_add_scaled(dst: dict, src: Mapping, coeff: Fraction | int) -> None:
    """dst += coeff * src, dropping entries that cancel to zero.

    Values of ``dst`` and ``src`` are always ``Fraction``s; ``coeff`` may be
    an int or a ``Fraction``.  A coefficient of 1 or -1 skips the
    multiplication: ``dst`` takes ``src``'s value itself or its negation, or
    their sum or difference.  A ``Fraction`` is immutable, so the two vectors
    may share one.  New keys are appended in ``src``'s order.
    """
    if not coeff:
        return
    sign = 1 if coeff == 1 else -1 if coeff == -1 else 0
    for k, v in src.items():
        if sign == 1:
            new = dst[k] + v if k in dst else v
        elif sign:
            new = dst[k] - v if k in dst else -v
        else:
            new = dst[k] + coeff * v if k in dst else coeff * v
        if new:
            dst[k] = new
        else:
            dst.pop(k, None)


class Echelon:
    """Incremental reduced row echelon form keyed by arbitrary hashable coordinates.

    Every row is kept fully reduced: it has coefficient 1 at its own pivot
    and 0 at every other pivot, so ``reduce`` returns the unique residual
    supported off the pivots in one pass.  A new row pivots on its
    coordinate that is minimal under ``pivot_key`` (default: the keys'
    natural order, so keys that cannot be compared raise ``TypeError``).
    Supports rank queries and residual reduction; used for all greedy
    span/complement computations.

    The stored rows depend only on the span and ``pivot_key``, never on the
    order rows were added in: a fully reduced echelon form is unique for its
    span.  The order sets the cost.  A new pivot must be cleared from every
    stored row that holds it, and a stored row holds only coordinates that
    come after its own pivot, so adding rows in descending order of their
    leading (minimal) key keeps that back-substitution small.
    """

    def __init__(self, pivot_key=None):
        self.pivot_rows: dict = {}  # pivot key -> row (dict key->Fraction with row[pivot]=1)
        self.pivot_key = pivot_key

    def reduce(self, vec: Mapping) -> dict:
        # Subtracting a row changes no other pivot coordinate, so each pivot
        # the input holds is cleared by its own coefficient, once.
        v = dict(vec)
        for k, c in vec.items():
            if k in self.pivot_rows:
                vec_add_scaled(v, self.pivot_rows[k], -c)
        return v

    def add(self, vec: Mapping) -> bool:
        """Insert vec; returns True if it increased the rank."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v, key=self.pivot_key)
        pv = Fraction(v[pivot])  # so that int input divides exactly too
        # A unit pivot needs no division: the residual is already the row.
        row = v if pv == 1 else {k: c / pv for k, c in v.items()}
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


@dataclass(frozen=True)
class _Expr:
    """Coordinate carrying the expression weight of input ``index`` in a
    ``SolverEchelon`` row; a distinct type, so it never equals a real key."""

    index: object


def _solver_pivot_key(k):
    # Expression coordinates sort after every real key, so they never pivot.
    return (1,) if isinstance(k, _Expr) else (0, k)


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
