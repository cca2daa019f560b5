"""Exact scalar and sparse linear algebra over the rationals.

Everything downstream (mode actions, quotient dimensions, section
expansions) reduces to the primitives here.  All arithmetic is exact:
scalars are ``fractions.Fraction``, which normalizes eagerly, and the
elimination routines never introduce approximate entries.

A sparse vector is a dict whose values are always ``Fraction``s, never
zero; a scaling coefficient must be an int or a ``Fraction``.
``vec_add_scaled`` is the one multiply-add: it works on the integer ratios
of its operands and builds each changed entry with one normalizing
``Fraction`` construction, and it never stores a zero, not even one that
``src`` holds.  Units cost no arithmetic on new keys, which take ``src``'s
value itself or its negation.  ``Echelon.add`` divides a residual by its
pivot through the same kernel, and stores a residual whose pivot
coefficient is already 1 as it is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

# ---------------------------------------------------------------------------
# Rational serialization ("num/den" strings in all JSON interfaces)


def qparse(s) -> Fraction:
    """Parse a rational from a "num/den" string (or int / int-string)."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


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

    Values of ``dst`` and ``src`` are always ``Fraction``s; ``coeff`` must be
    an int or a ``Fraction`` (anything else, a float say, raises
    ``TypeError``).  Each entry is computed from the integer ratios of the
    operands and stored as one normalizing ``Fraction`` construction:
    ``a + c*v`` is ``(an*vd*cd + cn*vn*ad) / (ad*vd*cd)``, and a new key
    takes ``(cn*vn) / (cd*vd)``.  A coefficient of 1 or -1 gives a new key
    ``src``'s value itself or its negation; a ``Fraction`` is immutable, so
    the two vectors may share one.  A sum that cancels deletes its key, and
    a zero value in ``src`` is never stored.  Surviving keys keep their
    order; new keys are appended in ``src``'s order.
    """
    if not isinstance(coeff, (int, Fraction)):
        raise TypeError(f"vec_add_scaled: coefficient must be an int or a Fraction, "
                        f"not {type(coeff).__name__}")
    if not coeff:
        return
    cn, cd = coeff.as_integer_ratio()
    unit = cn if cd == 1 and cn in (1, -1) else 0
    for k, v in src.items():
        vn, vd = v.as_integer_ratio()
        if k in dst:
            an, ad = dst[k].as_integer_ratio()
            num = an * vd * cd + cn * vn * ad
            if num:
                dst[k] = Fraction(num, ad * vd * cd)
            else:
                del dst[k]
        elif vn:
            dst[k] = v if unit == 1 else -v if unit else Fraction(cn * vn, cd * vd)


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
        pv = v[pivot]
        # A unit pivot needs no division: the residual is already the row.
        row = v
        if pv != 1:
            row = {}
            vec_add_scaled(row, v, 1 / Fraction(pv))  # int input divides exactly too
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


class _Expr:
    """Coordinate carrying the expression weight of input ``index`` in a
    ``SolverEchelon`` row.  It hashes and compares by identity, in C, so it
    never equals a real key or another row's coordinate."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


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
