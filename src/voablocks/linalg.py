"""Exact scalar and sparse linear algebra over the rationals.

Everything downstream (mode actions, quotient dimensions, section
expansions) reduces to the primitives here.  All arithmetic is exact:
scalars are ``fractions.Fraction``, which normalizes eagerly, and the
elimination routines never introduce approximate entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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
# Sparse vectors and matrices

SparseVector = dict  # index -> Fraction, no stored zeros


def vec_add_scaled(dst: dict, src: Mapping, coeff: Fraction) -> None:
    """dst += coeff * src, dropping entries that cancel to zero."""
    if not coeff:
        return
    for k, v in src.items():
        new = dst.get(k, 0) + coeff * v
        if new:
            dst[k] = new
        else:
            dst.pop(k, None)


class SparseMatrix:
    """Row-sparse matrix of exact rationals."""

    def __init__(self, nrows: int, ncols: int, rows: Sequence[Mapping] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict(r) for r in rows] if rows is not None else [dict() for _ in range(nrows)]
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            for c, v in r.items():
                if not (0 <= c < ncols):
                    raise ValueError(f"column index {c} out of range")
                if v == 0:
                    raise ValueError("stored zero entry")

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r].get(c, Fraction(0))

    def mul_vec(self, v: Mapping) -> dict:
        out = {}
        for i, row in enumerate(self.rows):
            s = sum((coeff * v[c] for c, coeff in row.items() if c in v), Fraction(0))
            if s:
                out[i] = s
        return out


def _pivot_cost(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _echelonize(rows: list[dict], ncols: int) -> tuple[list[dict], list[int]]:
    """In-place forward elimination; returns (echelon rows, pivot columns).

    Pivot choice within a column favors minimal bit-length entries, which
    keeps coefficient growth tame on the integer-like matrices produced by
    the mode calculus.
    """
    work = [dict(r) for r in rows if r]
    echelon: list[dict] = []
    pivots: list[int] = []
    for col in range(ncols):
        best = None
        for idx, row in enumerate(work):
            v = row.get(col)
            if v:
                if best is None or _pivot_cost(v) < _pivot_cost(work[best][col]):
                    best = idx
        if best is None:
            continue
        prow = work.pop(best)
        pv = prow[col]
        remaining = []
        for row in work:
            v = row.get(col)
            if v:
                vec_add_scaled(row, prow, -v / pv)
            if row:
                remaining.append(row)
        work = remaining
        echelon.append(prow)
        pivots.append(col)
        if not work:
            break
    return echelon, pivots


def rank_and_kernel(M: SparseMatrix) -> tuple[int, list[dict]]:
    """Exact rank of M and a basis of its right kernel.

    rank + len(kernel) == M.ncols, and M @ v == 0 exactly for every
    returned kernel vector.
    """
    # Eliminate on the transpose-free layout: treat kernel as solutions of
    # row equations, so echelonize the rows directly.
    echelon, pivots = _echelonize(M.rows, M.ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(M.ncols) if c not in pivot_set]
    kernel = []
    # Back substitution per free column.
    order = sorted(zip(pivots, echelon), reverse=True)
    for f in free_cols:
        v = {f: Fraction(1)}
        for pcol, row in order:
            s = sum((coeff * v[c] for c, coeff in row.items() if c != pcol and c in v), Fraction(0))
            if s:
                v[pcol] = -s / row[pcol]
        kernel.append(v)
    return len(pivots), kernel


def rank_of_rows(rows: Iterable[Mapping], ncols: int) -> int:
    echelon, _ = _echelonize([dict(r) for r in rows], ncols)
    return len(echelon)


class Echelon:
    """Incremental reduced row echelon form keyed by arbitrary hashable coordinates.

    Every row is kept fully reduced: it has coefficient 1 at its own pivot
    and 0 at every other pivot, so ``reduce`` returns the unique residual
    supported off the pivots.  A new row pivots on its coordinate that is
    minimal under ``pivot_key`` (default: ``_pivot_key``, the natural order
    within a key type).  Supports rank queries and residual reduction; used
    for all greedy span/complement computations.
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


class SolverEchelon:
    """Echelon with expression tracking: solve target = sum x_i row_i."""

    def __init__(self):
        self.rows: list[tuple[dict, dict]] = []  # (reduced row, expression over input indices)
        self.pivots: dict = {}  # pivot key -> position in self.rows

    def add(self, vec: Mapping, index) -> bool:
        v, expr = self._reduce(vec)
        if not v:
            return False
        vec_add_scaled(expr, {index: Fraction(1)}, Fraction(-1))
        # expr currently: combination with -1 on the new index; normalize so
        # that row = vec - sum(prev) and expression maps row -> coords.
        pivot = min(v, key=_pivot_key)
        pv = v[pivot]
        v = {k: c / pv for k, c in v.items()}
        expr = {k: -c / pv for k, c in expr.items()}
        self.pivots[pivot] = len(self.rows)
        self.rows.append((v, expr))
        return True

    def _reduce(self, vec: Mapping) -> tuple[dict, dict]:
        v = dict(vec)
        expr: dict = {}
        while True:
            hit = None
            for k in v:
                if k in self.pivots:
                    hit = k
                    break
            if hit is None:
                return v, expr
            row, rexpr = self.rows[self.pivots[hit]]
            c = v[hit]
            vec_add_scaled(v, row, -c)
            vec_add_scaled(expr, rexpr, c)

    def solve(self, target: Mapping) -> dict | None:
        """Coefficients x (index -> Fraction) with sum x_i row_i == target, or None."""
        v, expr = self._reduce(target)
        if v:
            return None
        return expr


def solve_in_span(rows: Sequence[Mapping], target: Mapping) -> dict | None:
    """Express target as an exact combination of rows; None if impossible."""
    se = SolverEchelon()
    for i, r in enumerate(rows):
        se.add(r, i)
    return se.solve(target)


def span_quotient_dims(ambient_dims: Sequence[int], spanning: Iterable[tuple[int, Mapping]]) -> list[int]:
    """Per-degree dimensions of ambient/span.

    ambient_dims[d] is the dimension of the degree-d slice; spanning is an
    iterable of (degree, coefficient dict over 0..ambient_dims[degree)-1).
    """
    buckets: dict[int, list] = {}
    for d, vec in spanning:
        if not (0 <= d < len(ambient_dims)):
            raise ValueError(f"spanning vector degree {d} outside ambient range")
        for idx in vec:
            if not (0 <= idx < ambient_dims[d]):
                raise ValueError(f"index {idx} out of range for degree {d}")
        if vec:
            buckets.setdefault(d, []).append(vec)
    out = []
    for d, dim in enumerate(ambient_dims):
        rk = rank_of_rows(buckets.get(d, []), dim)
        out.append(dim - rk)
    return out


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
        r = BivariatePoly()
        out = dict(self.c)
        for k, v in other.c.items():
            n = out.get(k, Laurent()) - v
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        r.c = out
        return r

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
