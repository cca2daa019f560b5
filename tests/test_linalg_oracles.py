"""Elimination checked against sympy, and the sparse add against a plain dict
reference; neither shares code with ``linalg``."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voablocks.lattice import EvenLattice
from voablocks.linalg import Echelon, SolverEchelon, kernel_of, vec_add_scaled

# Small entries with many zeros, so that dependent rows turn up often.
entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def sparse(row) -> dict:
    return {j: v for j, v in enumerate(row) if v}


def to_sympy(rows) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in rows])


def sympy_rank(rows) -> int:
    return to_sympy(rows).rank() if rows else 0


small = settings(max_examples=40, deadline=None)


@small
@given(matrices())
def test_kernel_of_matches_sympy_rank_and_is_killed(m):
    ncols = len(m[0])
    columns = [(j, {i: row[j] for i, row in enumerate(m) if row[j]}) for j in range(ncols)]
    kernel = kernel_of(columns)
    assert len(kernel) == ncols - sympy_rank(m)
    for vec in kernel:
        assert all(sum(row[j] * c for j, c in vec.items()) == 0 for row in m)


@small
@given(matrices(), st.data())
def test_solver_echelon_replays_or_reports_rank_rise(m, data):
    se = SolverEchelon()
    for i, row in enumerate(m):
        rises = sympy_rank(m[:i + 1]) > sympy_rank(m[:i])
        assert se.add(sparse(row), i) == rises
    target = data.draw(st.lists(entries, min_size=len(m[0]), max_size=len(m[0])))
    expr = se.solve(sparse(target))
    if sympy_rank(m + [target]) > sympy_rank(m):
        assert expr is None
        return
    assert expr is not None
    replay = [sum(expr.get(i, 0) * row[j] for i, row in enumerate(m))
              for j in range(len(target))]
    assert replay == target


def _reordered(k):
    # A pivot order unrelated to the natural one on column indices.
    return (k % 3, -k)


@small
@given(matrices(max_rows=6), st.randoms(use_true_random=False),
       st.sampled_from([None, _reordered]))
def test_echelon_rank_is_invariant_under_row_permutation(m, rng, pivot_key):
    # A fully reduced echelon form with a fixed pivot order is unique for its
    # span, so every insertion order stores the same rows, not just as many.
    shuffled = list(m)
    rng.shuffle(shuffled)
    forms = []
    for rows in (m, shuffled, m[::-1]):
        ech = Echelon(pivot_key=pivot_key)
        for row in rows:
            ech.add(sparse(row))
        forms.append(ech.pivot_rows)
    assert len(forms[0]) == sympy_rank(m)
    assert forms[0] == forms[1] == forms[2]


@small
@given(matrices(max_rows=6), st.data(), st.sampled_from([None, _reordered]))
def test_echelon_reduce_leaves_no_pivot_and_removes_a_span_member(m, data, pivot_key):
    ech = Echelon(pivot_key=pivot_key)
    for row in m:
        ech.add(sparse(row))
    v = data.draw(st.lists(entries, min_size=len(m[0]), max_size=len(m[0])))
    residual = ech.reduce(sparse(v))
    assert not set(residual) & set(ech.pivot_rows)
    removed = [x - residual.get(j, 0) for j, x in enumerate(v)]
    assert sympy_rank(m + [removed]) == sympy_rank(m)


class FullScanEchelon:
    """The elimination with every stored row scanned for each new pivot,
    written with plain ``Fraction`` operators: the reference for the rows
    ``Echelon`` stores, key order included.  A coordinate ``("expr", i)``
    with ``solver=True`` tracks input ``i`` as ``SolverEchelon`` does."""

    def __init__(self, pivot_key=None, solver=False):
        self.pivot_rows = {}
        self.pivot_key = pivot_key
        self.solver = solver
        if solver:
            self.pivot_key = lambda k: (1,) if self.is_expr(k) else (0, k)

    @staticmethod
    def is_expr(k):
        return isinstance(k, tuple) and k[:1] == ("expr",)

    @staticmethod
    def add_scaled(dst, src, c):
        for k, x in src.items():
            y = dst[k] + c * x if k in dst else c * x
            if y:
                dst[k] = y
            else:
                dst.pop(k, None)

    def reduce(self, vec):
        v = dict(vec)
        for k, c in vec.items():
            if k in self.pivot_rows:
                self.add_scaled(v, self.pivot_rows[k], -c)
        return v

    def add(self, vec, index=None):
        if self.solver:
            vec = {**vec, ("expr", index): Fraction(1)}
        v = self.reduce(vec)
        if all(self.is_expr(k) for k in v):
            return False
        pivot = min(v, key=self.pivot_key)
        pv = v[pivot]
        row = v if pv == 1 else {k: Fraction(x) / pv for k, x in v.items()}
        for r in self.pivot_rows.values():
            if pivot in r:
                self.add_scaled(r, row, -r[pivot])
        self.pivot_rows[pivot] = row
        return True

    def solve(self, target):
        v = self.reduce(target)
        if not all(self.is_expr(k) for k in v):
            return None
        return {k[1]: -c for k, c in v.items()}


# Mostly zeros, so that rows are sparse; ints and Fractions both, as callers
# pass both.
sparse_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 10), st.data(), st.randoms(use_true_random=False),
       st.sampled_from([None, _reordered, lambda k: k // 2]))
def test_echelon_stores_the_rows_of_a_full_scan(nrows, ncols, data, rng, pivot_key):
    # Only rows whose pivot comes no later than a new pivot are scanned for
    # it (k // 2 has ties); the rows must be the full scan's, in key order.
    m = [sparse(data.draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols)))
         for _ in range(nrows)]
    rng.shuffle(m)
    ech, ref = Echelon(pivot_key=pivot_key), FullScanEchelon(pivot_key)
    for row in m:
        assert ech.add(row) == ref.add(row)
    assert list(ech.pivot_rows) == list(ref.pivot_rows)
    for p, row in ech.pivot_rows.items():
        assert list(row.items()) == list(ref.pivot_rows[p].items())
    se, sref = SolverEchelon(), FullScanEchelon(solver=True)
    for i, row in enumerate(m):
        assert se.add(row, i) == sref.add(row, i)
    targets = m + [sparse(data.draw(st.lists(sparse_entries, min_size=ncols,
                                             max_size=ncols)))]
    for target in targets:
        got, want = se.solve(target), sref.solve(target)
        assert got == want and (got is None or list(got.items()) == list(want.items()))


# Entries of +-1 are common, so that both unit and non-unit pivots turn up.
unit_heavy = st.one_of(st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]),
                       st.fractions(min_value=-3, max_value=3, max_denominator=3))


@small
@given(st.lists(st.lists(unit_heavy, min_size=5, max_size=5), min_size=1, max_size=6))
@example([[Fraction(1), Fraction(2), Fraction(0), Fraction(0), Fraction(0)],
          [Fraction(0), Fraction(3), Fraction(1), Fraction(0), Fraction(0)]])
@example([[Fraction(2), Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
          [Fraction(0), Fraction(1), Fraction(-1), Fraction(0), Fraction(0)]])
def test_echelon_rows_equal_sympy_rref_rows(m):
    # Under the default pivot order the pivot of a row is its least column,
    # as in sympy's rref, so the stored rows are exactly rref's nonzero rows.
    ech = Echelon()
    for row in m:
        ech.add(sparse(row))
    rref, pivots = to_sympy(m).rref()
    expected = {p: {j: Fraction(int(x.p), int(x.q)) for j, x in enumerate(rref.row(i)) if x}
                for i, p in enumerate(pivots)}
    assert ech.pivot_rows == expected
    assert all(type(v) is Fraction for row in ech.pivot_rows.values() for v in row.values())


def reference_add_scaled(dst: dict, src: dict, coeff) -> dict:
    """dst + coeff * src as a new dict: dst's surviving keys in their order,
    then src's new keys in src's order, zeros left out."""
    total = dict(dst)
    for k, v in src.items():
        total[k] = total[k] + coeff * v if k in total else coeff * v
    return {k: v for k, v in total.items() if v != 0}


# Few keys, so that overlaps are common; small values, so that cancellations
# are common, mixed with large ones, so that each sum really has to normalize.
vectors = st.dictionaries(
    st.integers(0, 7),
    st.one_of(st.fractions(min_value=-2, max_value=2, max_denominator=2),
              st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6))))
coefficients = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5))


@settings(max_examples=300, deadline=None)
@given(vectors, vectors, coefficients)
# A zero value in src is never stored, whatever the coefficient.
@example({0: Fraction(1)}, {1: Fraction(0)}, 1)
@example({0: Fraction(1)}, {1: Fraction(0)}, -1)
@example({0: Fraction(1)}, {1: Fraction(0)}, Fraction(3, 2))
# Full cancellation empties dst.
@example({0: Fraction(1, 3), 1: Fraction(-5, 2)}, {0: Fraction(-1, 3), 1: Fraction(5, 2)}, 1)
# An int coefficient.
@example({0: Fraction(1, 6)}, {0: Fraction(5, 4), 1: Fraction(-7, 10)}, 2)
def test_vec_add_scaled_matches_dict_reference(dst, src, coeff):
    dst = {k: v for k, v in dst.items() if v}  # a vector stores no zeros
    expected = reference_add_scaled(dst, src, coeff)
    src_before = list(src.items())
    vec_add_scaled(dst, src, coeff)
    assert dst == expected
    assert list(dst) == list(expected)  # surviving keys keep their order
    assert all(v != 0 for v in dst.values())
    assert all(type(v) is Fraction for v in dst.values())
    assert all(gcd(v.numerator, v.denominator) == 1 for v in dst.values())
    assert list(src.items()) == src_before


@st.composite
def symmetric_integer_matrices(draw, max_rank=4):
    n = draw(st.integers(1, max_rank))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-3, 4))
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_integer_matrices())
def test_even_lattice_accepts_exactly_the_positive_definite_and_inverts_them(m):
    sm = sympy.Matrix(m)
    if not sm.is_positive_definite:
        with pytest.raises(ValueError, match="not positive definite"):
            EvenLattice(m, require_even=False)
        return
    inv = sm.inv()
    lat = EvenLattice(m, require_even=False)
    assert [list(row) for row in lat.inv] == [
        [Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(len(m))]
        for i in range(len(m))]
