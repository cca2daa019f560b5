"""Tests for exact sparse linear algebra."""

import random
from fractions import Fraction

import pytest

from voablocks.linalg import (
    Echelon,
    SolverEchelon,
    kernel_of,
    qparse,
    qstr,
)


def test_qparse_qstr_roundtrip():
    assert qparse("3/4") == Fraction(3, 4)
    assert qparse("-2") == Fraction(-2)
    assert qstr(Fraction(5, 1)) == "5"
    assert qstr(Fraction(-1, 3)) == "-1/3"
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

