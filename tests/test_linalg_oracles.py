"""Elimination checked against sympy, which shares no code with ``linalg``."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from voablocks.lattice import EvenLattice
from voablocks.linalg import Echelon, SolverEchelon, kernel_of

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


def sympy_rank(rows) -> int:
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in rows]).rank() if rows else 0


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
