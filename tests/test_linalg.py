"""Tests for exact sparse linear algebra."""

import random
from fractions import Fraction

import pytest

from voablocks import blocks
from voablocks.blocks import LabeledLine, PointedLine, bracket_closure_check, section_basis
from voablocks.core import mode_apply, quasi_primary_space
from voablocks.lattice import lattice_model
from voablocks.linalg import (
    Echelon,
    SolverEchelon,
    kernel_of,
    qparse,
    qstr,
    vec_add_scaled,
)
from voablocks.virasoro import feigin_fuchs, ff_square_product


def test_qparse_qstr_roundtrip():
    assert qparse("3/4") == Fraction(3, 4)
    assert qparse("-2") == Fraction(-2)
    assert qstr(Fraction(5, 1)) == "5"
    assert qstr(Fraction(-1, 3)) == "-1/3"
    for flag in (True, False):  # a JSON boolean is not a number
        with pytest.raises(ValueError, match="boolean"):
            qparse(flag)
    rng = random.Random(20240822)
    for _ in range(50):
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert qparse(qstr(x)) == x


def test_echelon_rank_and_contains():
    ech = Echelon()
    assert ech.add({"a": Fraction(1), "b": Fraction(2)})
    assert ech.add({"b": Fraction(1)})
    assert not ech.add({"a": Fraction(2), "b": Fraction(7)})
    assert ech.rank == 2
    assert ech.contains({"a": Fraction(5), "b": Fraction(-1)})
    assert not ech.contains({"c": Fraction(1)})


def test_echelon_keys_that_cannot_be_compared_raise():
    # Pivots follow the keys' natural order, so mixed key types have none.
    with pytest.raises(TypeError):
        Echelon().add({1: Fraction(1), "a": Fraction(1)})


def test_int_input_is_stored_exactly():
    # The pivot division must stay exact: 1/2 as a Fraction, never 0.5.
    ech = Echelon()
    ech.add({0: 2, 1: 1})
    assert ech.pivot_rows == {0: {0: 1, 1: Fraction(1, 2)}}
    ech.add({1: 3, 2: 4})
    ech.add({0: 1, 2: 6, 3: 7})
    sol = SolverEchelon()
    for i, row in enumerate(({0: 2, 1: 1}, {1: 3, 2: 4}, {0: 5, 2: 6, 3: 7})):
        sol.add(row, i)
    assert sol.solve({0: 2, 1: 4, 2: 4}) == {0: 1, 1: 1}
    for e in (ech, sol):
        values = [v for row in e.pivot_rows.values() for v in row.values()]
        assert values and not any(isinstance(v, float) for v in values)


def test_a_zero_pivot_raises_rather_than_storing_an_empty_row():
    # A vector stores no zeros; one that does must not become a row.
    ech = Echelon()
    with pytest.raises(ZeroDivisionError):
        ech.add({0: Fraction(0)})
    assert ech.rank == 0 and ech.pivot_rows == {}


@pytest.mark.parametrize("coeff", [0.5, 0.0, 1.0])
def test_vec_add_scaled_rejects_a_float_coefficient(coeff):
    # A float would make the sum inexact (or, read as an integer ratio, the
    # float's binary expansion); the check runs once per call, so an empty
    # src raises too.
    dst = {1: Fraction(2, 7)}
    for src in ({0: Fraction(1, 3)}, {}):
        with pytest.raises(TypeError, match="int or a Fraction"):
            vec_add_scaled(dst, src, coeff)
    assert dst == {1: Fraction(2, 7)}


@pytest.mark.parametrize("coeff", [0.5, 1.0])
def test_elimination_rejects_a_float_coefficient_on_a_pivot(coeff):
    # Elimination clears pivots through a kernel that skips vec_add_scaled's
    # check, so it checks each coefficient it clears a pivot with, before
    # anything is stored.
    ech, se = Echelon(), SolverEchelon()
    ech.add({0: Fraction(1), 1: Fraction(1, 2)})
    se.add({0: Fraction(1), 1: Fraction(1, 2)}, 0)
    before = [{p: list(r.items()) for p, r in e.pivot_rows.items()} for e in (ech, se)]
    for call in (ech.reduce, ech.add, ech.contains, lambda v: se.add(v, 1), se.solve):
        with pytest.raises(TypeError, match="int or a Fraction"):
            call({0: coeff, 2: Fraction(3)})
    assert [{p: list(r.items()) for p, r in e.pivot_rows.items()} for e in (ech, se)] == before


def test_solver_echelon_recovers_coefficients():
    rng = random.Random(20240822)
    for _ in range(20):
        rows = []
        sol = SolverEchelon()
        for i in range(4):
            row = {j: Fraction(rng.randint(-5, 5)) for j in range(6)}
            row = {k: v for k, v in row.items() if v}
            rows.append(row)
            sol.add(row, i)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        target: dict = {}
        for cf, row in zip(coeffs, rows):
            for k, v in row.items():
                target[k] = target.get(k, 0) + cf * v
        target = {k: v for k, v in target.items() if v}
        expr = sol.solve(target)
        assert expr is not None
        # replay the expression and compare
        replay: dict = {}
        for idx, cf in expr.items():
            for k, v in rows[idx].items():
                replay[k] = replay.get(k, 0) + cf * v
        assert {k: v for k, v in replay.items() if v} == target


def test_kernel_of_exact():
    # columns of the 3x3 matrix with rows {0: 1, 1: 2}, {1: 1, 2: 1}, row1 - row2
    rows = [
        {0: Fraction(1), 1: Fraction(2)},
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1)},
    ]
    columns = [(j, {i: r[j] for i, r in enumerate(rows) if j in r}) for j in range(3)]
    kernel = kernel_of(columns)
    assert len(kernel) == 1  # rank 2
    vec = kernel[0]
    # check the kernel vector against both independent rows
    assert sum(Fraction(vec.get(j, 0)) * c for j, c in {0: 1, 1: 2}.items()) == 0
    assert sum(Fraction(vec.get(j, 0)) * c for j, c in {1: 1, 2: 1}.items()) == 0


def test_solver_echelon_add_and_solve():
    se = SolverEchelon()
    assert se.add({0: Fraction(1)}, 0)
    assert se.add({1: Fraction(1), 2: Fraction(1)}, 1)
    assert not se.add({0: Fraction(3), 1: Fraction(2), 2: Fraction(2)}, 2)
    assert se.rank == 2
    assert se.solve({0: Fraction(2), 1: Fraction(3), 2: Fraction(3)}) == {0: 2, 1: 3}
    assert se.solve({1: Fraction(1)}) is None


def test_per_degree_echelon_rank():
    ambient_dims = [1, 3, 2]
    spanning = [(0, {0: Fraction(1)}), (1, {1: Fraction(1)}),
                (1, {1: Fraction(2)})]
    echelons = [Echelon() for _ in ambient_dims]
    for d, vec in spanning:
        echelons[d].add(vec)
    assert [dim - e.rank for dim, e in zip(ambient_dims, echelons)] == [0, 2, 2]


def _all_fractions(vec) -> bool:
    return all(type(v) is Fraction for v in vec.values())


def test_values_stay_fractions_where_integers_are_produced(monkeypatch):
    # A coefficient of +-1 copies values instead of multiplying them, so an
    # integer fed to vec_add_scaled would stay an integer; these are the
    # places that build vectors from integer arithmetic.
    assert _all_fractions(feigin_fuchs(2, 2))
    assert _all_fractions(ff_square_product(2, 2))

    a1 = lattice_model([[2]], cutoff=6)
    # -e^{-alpha}, so that the -1 coefficient path runs too
    e_plus, e_minus = {((), (1,)): Fraction(1)}, {((), (-1,)): Fraction(-1)}
    images = 0
    for a in (e_plus, e_minus):
        for d in range(4):
            for lab in a1.labels_at(d):
                for n in range(-2, 2):
                    out = mode_apply(a1, a, n, {lab: Fraction(1)})
                    assert _all_fractions(out), (a, n, lab)
                    images += bool(out)
    assert images > 0
    # The e-mode's annihilation expansion meets integer pairings; its terms
    # are multiplied by Fractions before they reach mode_apply's output.
    for lab in a1.labels_at(3):
        for beta in ((1,), (-1,)):
            assert _all_fractions(a1._annihilate(lab[0], beta)), (lab, beta)

    echelons = []

    class RecordingEchelon(Echelon):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            echelons.append(self)

    monkeypatch.setattr(blocks, "Echelon", RecordingEchelon)
    line = PointedLine((0, 1))
    f, g = section_basis(line, 1, [1, 1])[:2]
    e_minus_1, e_plus_1, _ = quasi_primary_space(a1, 1)
    assert bracket_closure_check(LabeledLine(line, [a1, a1]), (e_plus_1, f), (e_minus_1, g))
    rows = [row for ech in echelons for row in ech.pivot_rows.values()]
    assert rows and all(_all_fractions(row) for row in rows)
