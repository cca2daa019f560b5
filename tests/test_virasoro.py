"""Verma actions, singular vectors, quotient models, projection polynomials."""

import random
from collections import defaultdict, deque
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from voablocks import virasoro
from voablocks.core import TruncationError, check_identity, mode_apply
from voablocks.linalg import Echelon, vec_add_scaled
from voablocks.virasoro import (
    VermaAction,
    VerificationError,
    feigin_fuchs,
    ff_squares_to_product,
    ff_verify,
    irreducible_model,
    ising_model,
    minimal_params_values,
    partitions,
    quotient_ring_bounds,
    singular_vectors,
    vacuum_voa,
    verma_model,
)

rng = random.Random(20240817)


# ---------------------------------------------------------------------------
# Parameters


def test_minimal_params_known_values():
    assert minimal_params_values(4, 3, 1, 1) == (Fraction(1, 2), Fraction(0))
    assert minimal_params_values(4, 3, 1, 2) == (Fraction(1, 2), Fraction(1, 16))
    assert minimal_params_values(4, 3, 2, 1) == (Fraction(1, 2), Fraction(1, 2))
    assert minimal_params_values(5, 2, 1, 1) == (Fraction(-22, 5), Fraction(0))


def test_minimal_params_rejects_bad_input():
    with pytest.raises(ValueError):
        minimal_params_values(4, 2, 1, 1)
    with pytest.raises(ValueError):
        minimal_params_values(4, 3, 3, 1)


def test_minimal_params_raises_when_kac_table_loses_mirror_symmetry(monkeypatch):
    # h_{r,s} = h_{q-r,p-s} holds for the Kac formula; a formula that breaks
    # it must fail loudly, also under python -O.
    monkeypatch.setattr(virasoro, "_kac_weight", lambda p, q, r, s: Fraction(r))
    with pytest.raises(VerificationError):
        minimal_params_values(4, 3, 1, 2)


# ---------------------------------------------------------------------------
# Verma action oracles: closed-form brackets on low monomials


def test_verma_bracket_oracles():
    c, h = Fraction(7, 10), Fraction(3, 80)
    act = VermaAction(c, h)
    # L_1 L_{-1} v = 2h v
    assert act.L(1, (1,)) == {(): 2 * h}
    # L_2 L_{-2} v = (4h + c/2) v
    assert act.L(2, (2,)) == {(): 4 * h + c / 2}
    # L_1 L_{-2} v = 3 L_{-1} v
    assert act.L(1, (2,)) == {(1,): Fraction(3)}
    # L_0 is the level grading
    for n in range(5):
        for part in partitions(n):
            assert act.L(0, part) == ({part: h + n} if h + n else {})


def test_verma_action_hands_out_copies():
    # A caller that mutates a returned state must not change later answers,
    # neither of L itself nor of the model modes read from the same cache.
    sigma = irreducible_model(4, 3, 2, 2, cutoff=6)
    fresh = irreducible_model(4, 3, 2, 2, cutoff=6)
    got = sigma.action.L(1, (2,))
    assert got == {(1,): Fraction(3)}
    got[(1,)] = Fraction(99)
    got[(3,)] = Fraction(1)
    assert sigma.action.L(1, (2,)) == {(1,): Fraction(3)}
    for lab in sigma.labels_at(3):
        state = {lab: Fraction(1)}
        assert mode_apply(sigma, sigma.voa.omega, 2, state) == \
            mode_apply(fresh, fresh.voa.omega, 2, state)


def test_verma_commutation_relation_randomized():
    c, h = Fraction(-13, 14), Fraction(5, 3)
    act = VermaAction(c, h)
    labels = [p for n in range(6) for p in partitions(n)]
    for _ in range(40):
        part = rng.choice(labels)
        m = rng.randint(-4, 4)
        n = rng.randint(-4, 4)
        lhs = act.apply_state(m, act.L(n, part))
        rhs = act.apply_state(n, act.L(m, part))
        expected = {}
        for lab, cf in act.L(m + n, part).items():
            expected[lab] = expected.get(lab, 0) + (m - n) * cf
        if m + n == 0:
            cterm = c / 12 * (m**3 - m)
            if cterm:
                expected[part] = expected.get(part, 0) + cterm
        diff = dict(lhs)
        for lab, cf in rhs.items():
            diff[lab] = diff.get(lab, 0) + cf * 0  # keep keys
        got = {k: lhs.get(k, 0) - rhs.get(k, 0) for k in set(lhs) | set(rhs)}
        got = {k: v for k, v in got.items() if v}
        expected = {k: v for k, v in expected.items() if v}
        assert got == expected, (m, n, part)


# ---------------------------------------------------------------------------
# Singular vectors


def test_level_two_singular_vector_matches_closed_form():
    # At c, h = h_{p,q;1,2} the level-2 singular vector is
    # (L_{-1}^2 - (2/3)(2h+1) L_{-2}) v, from solving L_1 u = L_2 u = 0.
    for p, q in [(4, 3), (5, 2), (5, 4), (7, 2)]:
        c, h = minimal_params_values(p, q, 1, 2)
        vecs = singular_vectors(c, h, 2)
        assert len(vecs) == 1
        u = vecs[0]
        scale = 1 / u[(1, 1)]
        u = {k: v * scale for k, v in u.items()}
        lam = -Fraction(2 * (2 * h + 1), 3)
        assert u == {(1, 1): 1, (2,): lam}


def test_singular_vectors_are_annihilated_by_all_positive_modes():
    c, h = minimal_params_values(4, 3, 1, 2)
    act = VermaAction(c, h)
    (u,) = singular_vectors(c, h, 2)
    for m in range(1, 5):
        assert act.apply_state(m, u) == {}


def test_generic_weight_has_no_singular_vectors():
    c, h = Fraction(1, 2), Fraction(1, 7)  # not in the (4,3) weight table
    for level in range(1, 5):
        assert singular_vectors(c, h, level) == []


# ---------------------------------------------------------------------------
# Models: dimensions and basic structure


def test_verma_dimensions_are_partition_counts():
    m = verma_model(Fraction(1, 2), Fraction(1, 16), cutoff=6)
    assert [m.dim(d) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_vacuum_voa_basis_has_no_unit_parts():
    v = vacuum_voa(Fraction(1, 2), cutoff=6)
    for d in range(7):
        for part in v.labels_at(d):
            assert 1 not in part
    # dims of M(c,0)/<L_{-1}v>: partitions with all parts >= 2
    assert [v.dim(d) for d in range(7)] == [1, 0, 1, 1, 2, 2, 4]


def test_ising_graded_dimensions():
    m = ising_model(cutoff=6)
    assert [m.dim(d) for d in range(7)] == [1, 0, 1, 1, 2, 2, 3]


def test_ising_sigma_and_epsilon_dimensions():
    voa = ising_model(cutoff=6)
    sigma = irreducible_model(4, 3, 1, 2, cutoff=6, voa=voa)
    eps = irreducible_model(4, 3, 2, 1, cutoff=6, voa=voa)
    assert [sigma.dim(d) for d in range(5)] == [1, 1, 1, 2, 2]
    assert [eps.dim(d) for d in range(5)] == [1, 1, 1, 1, 2]


def test_lee_yang_graded_dimensions():
    m = irreducible_model(5, 2, 1, 1, cutoff=6)
    assert [m.dim(d) for d in range(7)] == [1, 0, 1, 1, 1, 1, 2]


def _partition_counts(n: int) -> list[int]:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            counts[k] += counts[k - part]
    return counts


def rocha_caridi_dims(p: int, q: int, r: int, s: int, cutoff: int) -> list[int]:
    """Graded dimensions of L(c_{p,q}, h_{r,s}) from the Rocha-Caridi character.

    chi(x) = x^h / prod(1 - x^n) * sum_k (x^{A_k} - x^{B_k}) with
    A_k = ((2pqk + rp - sq)^2 - (rp - sq)^2) / 4pq and
    B_k = ((2pqk + rp + sq)^2 - (rp - sq)^2) / 4pq (Rocha-Caridi 1985).
    """
    pc = _partition_counts(cutoff)
    dims = [0] * (cutoff + 1)
    for k in range(-cutoff - 1, cutoff + 2):
        for sign, t in ((1, r * p - s * q), (-1, r * p + s * q)):
            num = (2 * p * q * k + t) ** 2 - (r * p - s * q) ** 2
            assert num % (4 * p * q) == 0
            shift = num // (4 * p * q)
            for n in range(shift, cutoff + 1):
                dims[n] += sign * pc[n - shift]
    return dims


@pytest.mark.parametrize("p, q, entries, cutoff", [
    (4, 3, [(2, 1), (1, 2)], 13),
    (5, 2, [], 14),
    (5, 3, [(2, 1)], 12),
    (5, 4, [(2, 2)], 12),
    (7, 2, [(1, 2)], 12),
])
def test_irreducible_dims_match_rocha_caridi_character(p, q, entries, cutoff):
    voa = irreducible_model(p, q, 1, 1, cutoff)
    for r, s in [(1, 1)] + entries:
        m = voa if (r, s) == (1, 1) else irreducible_model(p, q, r, s, cutoff, voa=voa)
        assert [m.dim(d) for d in range(cutoff + 1)] == \
            rocha_caridi_dims(p, q, r, s, cutoff), (p, q, r, s)


@pytest.mark.parametrize("p, q, r, s, cutoff", [
    (4, 3, 1, 1, 10), (4, 3, 2, 2, 10), (5, 3, 2, 1, 9),
])
def test_quotient_basis_is_the_non_pivot_monomials(p, q, r, s, cutoff):
    m = irreducible_model(p, q, r, s, cutoff)

    def order(part):
        return (bool(part) and part[-1] == 1, part)

    for d in range(cutoff + 1):
        basis = set(m.labels_at(d))
        assert basis.isdisjoint(m._sub[d].pivot_rows)
        assert len(basis) + m._sub[d].rank == len(partitions(d))
        for part in partitions(d):
            image = m.reduce_partition_state({part: Fraction(1)})
            assert set(image) <= basis
            if part in basis:
                assert image == {part: 1}
        for pivot, row in m._sub[d].pivot_rows.items():
            assert m._sub[d].reduce(row) == {}
            assert max(row, key=order) == pivot and row[pivot] == 1
            assert set(row) - {pivot} <= basis
    with pytest.raises(ValueError, match="not homogeneous"):
        m.reduce_partition_state({(2,): Fraction(1), (1, 1, 1): Fraction(1)})
    with pytest.raises(TruncationError):
        m.reduce_partition_state({(cutoff + 1,): Fraction(1)})


def _closure_pivot_rows(model, gens):
    """Submodule RREF from a breadth-first closure of gens under every L_{-m}."""
    act = VermaAction(model.central_charge, model.lowest_weight)
    subs = {}
    for d in range(model.cutoff + 1):
        order = sorted(partitions(d), key=lambda p: (bool(p) and p[-1] == 1, p))
        last_first = {part: -i for i, part in enumerate(order)}
        subs[d] = Echelon(pivot_key=last_first.__getitem__)
    work = deque((sum(next(iter(g))), g) for g in gens)
    while work:
        lvl, vec = work.popleft()
        if subs[lvl].add(vec):
            for m in range(1, model.cutoff - lvl + 1):
                image = act.apply_state(-m, vec)
                if image:
                    work.append((lvl + m, image))
    return {d: ech.pivot_rows for d, ech in subs.items()}


@pytest.mark.parametrize("make, gens", [
    (lambda: irreducible_model(4, 3, 2, 2, 12),
     lambda: singular_vectors(Fraction(1, 2), Fraction(1, 16), 2)
     + singular_vectors(Fraction(1, 2), Fraction(1, 16), 4)),
    (lambda: vacuum_voa(Fraction(7, 3), 12), lambda: [{(1,): Fraction(1)}]),
], ids=["sigma", "vacuum-c7/3"])
def test_pbw_submodule_equals_breadth_first_closure(make, gens):
    m = make()
    closure = _closure_pivot_rows(m, gens())
    for d in range(m.cutoff + 1):
        assert m._sub[d].pivot_rows == closure[d], d


# ---------------------------------------------------------------------------
# Mode action through the generic recursion


def test_omega_modes_match_verma_action_on_verma_module():
    c, h = Fraction(1, 2), Fraction(1, 16)
    m = verma_model(c, h, cutoff=5)
    omega = m.voa.omega
    act = VermaAction(c, h)
    for n in range(5):
        for part in partitions(n):
            for mode in range(-2, 4):
                if n - (mode - 1) > m.cutoff:
                    continue
                got = mode_apply(m, omega, mode, {part: Fraction(1)})
                assert got == act.L(mode - 1, part)


def test_truncation_error_is_raised_loudly():
    m = verma_model(Fraction(1, 2), Fraction(0), cutoff=3)
    with pytest.raises(TruncationError):
        mode_apply(m, m.voa.omega, -1, {(3,): Fraction(1)})


def test_identities_hold_on_ising_module():
    voa = ising_model(cutoff=8)
    sigma = irreducible_model(4, 3, 1, 2, cutoff=8, voa=voa)
    a = voa.basis_state((2,))
    b = voa.basis_state((2, 2))
    w = sigma.basis_state((2,))
    w0 = sigma.basis_state(())
    assert check_identity(sigma, "commutator", a=a, b=b, w=w, p=1, q=0) == {}
    assert check_identity(sigma, "associativity", a=a, b=b, w=w0, n=2, q=1) == {}
    assert check_identity(sigma, "translation", a=b, w=w, q=0) == {}
    assert check_identity(sigma, "borcherds", a=a, b=b, w=w0, p=1, q=-1, r=0) == {}


# ---------------------------------------------------------------------------
# Projection polynomials


def test_ff_square_equals_cited_product():
    for r, s in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3)]:
        assert ff_squares_to_product(r, s)


def test_ff_is_monic_of_degree_rs():
    for r, s in [(1, 2), (2, 2), (3, 4)]:
        F = feigin_fuchs(r, s)
        assert max(i for i, _, _ in F) == r * s
        assert {e: v for (i, j, e), v in F.items() if (i, j) == (r * s, 0)} == {0: 1}


def test_ff_matches_sympy_expansion_of_the_cited_product():
    """F_{r,s}^2 and ff_square_product against sympy's own expansion of the
    cited product of x^2 - ((r-2k-1) T - (s-2l-1)/T)^2 y, with T^2 = t."""
    import sympy

    x, y, T = sympy.symbols("x y T")

    def expr(poly):
        return sympy.Add(*(sympy.Rational(v.numerator, v.denominator)
                           * x**i * y**j * T**(2 * e) for (i, j, e), v in poly.items()))

    for r in range(1, 9):
        for s in range(1, 8 // r + 1):
            cited = sympy.expand(sympy.Mul(*(
                x**2 - ((r - 2 * k - 1) * T - sympy.Integer(s - 2 * l - 1) / T)**2 * y
                for k in range(r) for l in range(s))))
            F = expr(feigin_fuchs(r, s))
            assert sympy.expand(F**2 - cited) == 0, (r, s)
            assert sympy.expand(expr(virasoro.ff_square_product(r, s)) - cited) == 0, (r, s)
            lead = sympy.Poly(F, x)
            assert lead.degree() == r * s and lead.LC() == 1, (r, s)


def test_laurent_arithmetic():
    p = {(0, 0, 1): Fraction(1), (0, 0, -1): Fraction(1)}  # t + 1/t
    sq = virasoro._poly_mul(p, p)                          # t^2 + 2 + t^-2
    assert virasoro._eval_t(sq, Fraction(2)) == {(0, 0): Fraction(4) + 2 + Fraction(1, 4)}
    diff = dict(sq)
    vec_add_scaled(diff, {(0, 0, 0): Fraction(1)}, Fraction(-2))
    assert diff == {(0, 0, 2): 1, (0, 0, -2): 1}
    assert virasoro._eval_t(diff, Fraction(3)) == {(0, 0): Fraction(9) + Fraction(1, 9)}


def test_bivariate_poly_ops():
    x = {(1, 0, 0): Fraction(1)}
    p = virasoro._poly_mul(x, x)                           # x^2 - y
    vec_add_scaled(p, {(0, 1, 0): Fraction(1)}, Fraction(-1))
    q = virasoro._poly_mul(p, p)
    assert max(i for i, _, _ in q) == 4
    vals = virasoro._eval_t(q, Fraction(1))
    assert vals[(4, 0)] == 1 and vals[(2, 1)] == -2 and vals[(0, 2)] == 1
    only_y = {k: v for k, v in p.items() if k[0] == 0}
    assert virasoro._eval_t(only_y, Fraction(1)) == {(0, 1): Fraction(-1)}
    assert {k: v for k, v in q.items() if k[0] == 0} == {(0, 2, 0): 1}


def test_ff_verify_minimal_series_entries():
    for p, q, r, s in [(4, 3, 1, 2), (4, 3, 2, 1), (5, 2, 1, 1),
                       (5, 4, 2, 2), (7, 2, 1, 1)]:
        alpha = ff_verify(p, q, r, s)
        assert alpha == 1


def test_quotient_ring_bounds():
    assert quotient_ring_bounds(4, 3, 1, 2) == (3, 2)
    assert quotient_ring_bounds(4, 3, 2, 1) == (3, 2)
    assert quotient_ring_bounds(5, 2, 1, 1) == (2, 1)
    c2, b1 = quotient_ring_bounds(5, 4, 2, 2)
    assert c2 == 6 and b1 == 4


def test_ff_verify_rejects_mismatched_parameters():
    with pytest.raises((VerificationError, ValueError)):
        ff_verify(4, 3, 3, 1)
    with pytest.raises((VerificationError, ValueError)):
        ff_verify(6, 4, 1, 2)


# ---------------------------------------------------------------------------
# Independent oracle: the maximal submodule from L_1 and L_2 alone.  Nothing
# below calls voablocks except to build the model under test.


def _own_partitions(n, top=None):
    """Weakly decreasing positive tuples summing to n, largest part <= top."""
    top = n if top is None else top
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, top), 0, -1)
            for rest in _own_partitions(n - k, k)]


class _OwnVerma:
    """L_m on the PBW monomials L_{-λ1}...L_{-λk}|h> of M(c, h), λ weakly decreasing."""

    def __init__(self, c, h):
        self.c, self.h = c, h
        self._memo = {}

    def L(self, m, part):
        if (m, part) not in self._memo:
            self._memo[m, part] = self._straighten(m, part)
        return self._memo[m, part]

    def _straighten(self, m, part):
        if not part:
            return {} if m > 0 else {(): self.h} if m == 0 else {(-m,): Fraction(1)}
        n, rest = part[0], part[1:]
        if -m >= n:
            return {(-m,) + part: Fraction(1)}
        # L_m L_{-n} = L_{-n} L_m + (m + n) L_{m-n} + δ_{m,n} c (m³ - m) / 12
        out = defaultdict(Fraction)
        for mono, v in self.L(m, rest).items():
            for mono2, v2 in self.L(-n, mono).items():
                out[mono2] += v * v2
        for mono, v in self.L(m - n, rest).items():
            out[mono] += (m + n) * v
        if m == n:
            out[rest] += self.c * (m ** 3 - m) / 12
        return dict(out)


def _qq_matrix(vecs, keys):
    """Rows = vecs ({key: Fraction}), columns = keys, over sympy's QQ."""
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vecs]
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                        (len(vecs), len(keys)), QQ)


def _quotient_maps(c, h, cutoff):
    """Per level d a full-row-rank P_d over QQ with ker P_d = J_d.

    J_0 = 0 and J_d = {v in M_d : L_1 v in J_{d-1}, L_2 v in J_{d-2}}: in a
    highest-weight module a vector at level d > 0 is zero iff L_1 and L_2
    both kill it, so J is the maximal proper submodule of M(c, h).
    """
    verma = _OwnVerma(c, h)
    maps = {0: DomainMatrix.eye(1, QQ)}
    for d in range(1, cutoff + 1):
        parts = _own_partitions(d)
        blocks = [maps[d - k] * _qq_matrix([verma.L(k, p) for p in parts],
                                           _own_partitions(d - k)).transpose()
                  for k in (1, 2) if d - k >= 0 and maps[d - k].shape[0]]
        stacked = blocks[0]
        for b in blocks[1:]:
            stacked = stacked.vstack(b)
        rref, pivots = stacked.rref()
        maps[d] = rref[:len(pivots), :]
    return maps


@pytest.mark.parametrize("p, q, r, s, cutoff", [
    (4, 3, 1, 2, 12), (4, 3, 2, 1, 12), (4, 3, 1, 1, 12),
    (5, 4, 2, 2, 10), (5, 2, 1, 2, 12),
], ids=["ising-sigma", "ising-epsilon", "ising-vacuum", "5-4-2-2", "lee-yang-phi"])
def test_submodule_is_the_maximal_one_by_an_independent_oracle(p, q, r, s, cutoff):
    c = 1 - Fraction(6 * (p - q) ** 2, p * q)
    h = Fraction((p * r - q * s) ** 2 - (p - q) ** 2, 4 * p * q)
    maps = _quotient_maps(c, h, cutoff)
    model = irreducible_model(p, q, r, s, cutoff)
    for d in range(cutoff + 1):
        parts = _own_partitions(d)
        rows = list(model._sub[d].pivot_rows.values())
        # The stored rows are independent, lie in J_d, and number dim J_d.
        assert maps[d].shape[0] == len(parts) - len(rows), d
        if rows:
            assert (maps[d] * _qq_matrix(rows, parts).transpose()).is_zero_matrix, d


@pytest.mark.parametrize("build, message", [
    (lambda: virasoro.VirasoroModel(Fraction(1, 2), Fraction(1, 16), 4, is_voa=True),
     "a VOA model has lowest weight 0, not 1/16"),
    (lambda: feigin_fuchs(0, 1), "r, s must be positive"),
    (lambda: feigin_fuchs(2, -1), "r, s must be positive"),
], ids=["voa-with-h", "ff-r-0", "ff-s-negative"])
def test_virasoro_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
