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
value itself or its negation.  Elimination calls its loop, the kernel
``_add_ratio``, with integer ratios: a row is subtracted with the negated
ratio ``(-cn, cd)`` of its (still type-checked) coefficient, and a residual
is divided by its pivot ``pn/pd`` with the ratio ``(pd, pn)``, unless the
pivot is already 1.  No stored row holds a key that comes before its own
pivot, so a new pivot is cleared only from rows whose pivot comes no later.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Mapping

# ---------------------------------------------------------------------------
# Rational serialization ("num/den" strings in all JSON interfaces)


def qparse(s) -> Fraction:
    """Parse a rational from a "num/den" string (or int / int-string).

    A bool is not a number here, though Python counts it as an int: a JSON
    ``true`` raises ``ValueError`` rather than reading as 1.
    """
    if isinstance(s, bool):
        raise ValueError(f"{s!r} is a boolean, not a rational")
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
    cn, cd = _ratio(coeff)
    if cn:
        _add_ratio(dst, src, cn, cd)


def _ratio(c) -> tuple[int, int]:
    """The integer ratio of an int or a ``Fraction``; anything else raises."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"a coefficient must be an int or a Fraction, "
                        f"not {type(c).__name__}")
    return c.as_integer_ratio()


def _add_ratio(dst: dict, src: Mapping, cn: int, cd: int) -> None:
    """dst += (cn/cd) * src for integers cn != 0 and cd > 0 in lowest terms."""
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
    span.  The order sets the cost.  No stored row holds a key that comes
    before its own pivot: a new row's pivot is its least key, and clearing
    a new pivot from a row whose pivot comes no later only adds keys that
    come no earlier.  So a new pivot is cleared only from the rows whose
    pivot comes no later than it (found by bisection in the pivots sorted
    by ``pivot_key``), and adding rows in descending order of their leading
    key keeps that back-substitution small.  Rows are subtracted and
    divided through ``_add_ratio`` with integer ratios (``(-cn, cd)`` for a
    coefficient ``cn/cd``, ``(pd, pn)`` for a pivot ``pn/pd``), so no
    ``Fraction`` is built for a coefficient itself.
    """

    def __init__(self, pivot_key=None):
        self.pivot_rows: dict = {}  # pivot key -> row (dict key->Fraction with row[pivot]=1)
        self.pivot_key = pivot_key
        self._keys: list = []  # pivot_key of each pivot, ascending
        self._pivots: list = []  # the pivots, in the order of _keys

    def reduce(self, vec: Mapping) -> dict:
        # Subtracting a row changes no other pivot coordinate, so each pivot
        # the input holds is cleared by its own coefficient, once.
        v = dict(vec)
        rows = self.pivot_rows
        for k, c in vec.items():
            if k in rows:
                cn, cd = _ratio(c)
                if cn:
                    _add_ratio(v, rows[k], -cn, cd)
        return v

    def add(self, vec: Mapping) -> bool:
        """Insert vec; returns True if it increased the rank."""
        return self._insert(self.reduce(vec))

    def _insert(self, v: dict) -> bool:
        """Store the residual ``v`` (from ``reduce``) as a row, if it is not zero."""
        if not v:
            return False
        key = self.pivot_key
        pivot = min(v, key=key)
        kp = key(pivot) if key else pivot
        i = bisect_right(self._keys, kp)  # ties stay in: they may hold the pivot
        # Dividing by the pivot scales by its inverse ratio, sign moved up.
        pn, pd = v[pivot].as_integer_ratio()
        if pn < 0:
            pn, pd = -pn, -pd
        elif not pn:
            raise ZeroDivisionError(f"zero pivot coefficient at {pivot!r}")
        # A unit pivot needs no division: the residual is already the row.
        row = v
        if pn != pd:
            row = {}
            _add_ratio(row, v, pd, pn)
        rows = self.pivot_rows
        for p in self._pivots[:i]:
            r = rows[p]
            if pivot in r:
                cn, cd = _ratio(r[pivot])
                _add_ratio(r, row, -cn, cd)
        rows[pivot] = row
        self._keys.insert(i, kp)
        self._pivots.insert(i, pivot)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def contains(self, vec: Mapping) -> bool:
        return not self.reduce(vec)


class _Expr:
    """Coordinate carrying the expression weight of input ``index`` in a
    ``SolverEchelon`` row.  It hashes and tests equality by identity, in C,
    so it never equals a real key or another row's coordinate.  It sorts
    after every real key (whose own ``<`` yields to ``__gt__``), so it never
    pivots."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return not isinstance(other, _Expr)


class SolverEchelon(Echelon):
    """Echelon with expression tracking: solve target = sum x_i row_i.

    Each added row carries the unit coordinate ``_Expr(index)``; reduction
    then accumulates, in those coordinates, the combination of added rows
    that was subtracted.  The added rows are independent, so the
    combination ``solve`` returns is unique.
    """

    def add(self, vec: Mapping, index) -> bool:
        """Insert vec as input ``index``; returns True if it increased the rank."""
        v = self.reduce({**vec, _Expr(index): Fraction(1)})
        return not all(isinstance(k, _Expr) for k in v) and self._insert(v)

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
