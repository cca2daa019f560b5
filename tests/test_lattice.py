"""Fock models over even lattices: dimensions, modes, Γ-sets, B1 spanning."""

import itertools
import random
from fractions import Fraction

import pytest

from voablocks.core import check_identity, mode_apply
from voablocks.lattice import (
    EvenLattice,
    FockModel,
    _cocycle_sign,
    _colored_partitions,
    b1_span_check,
    gamma_set,
    heisenberg_model,
    lattice_model,
    short_vectors,
    single_jump_check,
)
from voablocks.linalg import Echelon, vec_add_scaled
from voablocks.virasoro import VerificationError

rng = random.Random(20240818)

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]


def test_even_lattice_validation():
    with pytest.raises(ValueError):
        EvenLattice([[1]])  # odd
    with pytest.raises(ValueError):
        EvenLattice([[2, 1], [0, 2]])  # not symmetric
    with pytest.raises(ValueError):
        EvenLattice([[2, 3], [3, 2]])  # indefinite
    lat = EvenLattice([[2, -1], [-1, 2]])
    assert lat.inner((1, 0), (0, 1)) == -1
    assert lat.halfnorm((1, 1)) == 1


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


@pytest.mark.parametrize("gram", [A1, A2, A3, D4])
def test_bilinear_form_matches_the_gram_double_sum(gram):
    lat = EvenLattice(gram)
    n = len(gram)

    def form(u, v):
        return sum((Fraction(gram[i][j]) * u[i] * v[j]
                    for i in range(n) for j in range(n)), Fraction(0))

    def vector():
        if rng.random() < 0.5:
            return tuple(rng.randint(-4, 4) for _ in range(n))
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))

    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    for _ in range(50):
        u, v = vector(), vector()
        assert lat.inner(u, v) == form(u, v)
        assert lat.pairings(v) == tuple(form(e, v) for e in units)
        hn = lat.halfnorm(u)
        assert isinstance(hn, Fraction) and hn == form(u, u) / 2


def test_short_vectors_a1():
    lat = EvenLattice(A1)
    vecs = short_vectors(lat, (Fraction(0),), Fraction(1))
    assert sorted(g for g, _ in vecs) == [(-1,), (0,), (1,)]
    # shifted by lambda = alpha/2
    vecs = short_vectors(lat, (Fraction(1, 2),), Fraction(1, 4))
    assert sorted(g for g, _ in vecs) == [(-1,), (0,)]


def test_a1_graded_dimensions():
    v = lattice_model(A1, cutoff=3)
    assert [v.dim(d) for d in range(4)] == [1, 3, 4, 7]


def test_a1_module_dimensions_and_lowest_weight():
    voa = lattice_model(A1, cutoff=3)
    m = lattice_model(A1, lam_dual=[1], cutoff=2, voa=voa)
    assert m.lowest_weight == Fraction(1, 4)
    # degree 0: e_{±alpha/2}; degree 1: h(-1) on each; degree 2 adds the
    # level-2 Heisenberg layer plus the e_{±3alpha/2} grounds.
    assert m.dim(0) == 2
    assert m.dim(1) == 2
    assert m.dim(2) == 6


def test_central_charge_is_rank():
    assert lattice_model(A1, cutoff=2).central_charge == 1
    assert lattice_model([[2, -1], [-1, 2]], cutoff=2).central_charge == 2


def test_heisenberg_dimensions_are_partition_counts():
    h = heisenberg_model(rank=1, cutoff=6)
    assert [h.dim(d) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_e_alpha_on_e_minus_alpha():
    # <alpha|-alpha> = -2, so e_alpha(n)e_{-alpha} = 0 for n >= 2 and
    # e_alpha(1)e_{-alpha} = ±vacuum.
    v = lattice_model(A1, cutoff=3)
    ea = {((), (1,)): Fraction(1)}
    eminus = {((), (-1,)): Fraction(1)}
    assert mode_apply(v, ea, 2, eminus) == {}
    assert mode_apply(v, ea, 3, eminus) == {}
    res = mode_apply(v, ea, 1, eminus)
    assert set(res) == {v.vacuum} and abs(res[v.vacuum]) == 1
    # e_alpha(0)e_{-alpha} lands in the Cartan layer at weight 1
    res0 = mode_apply(v, ea, 0, eminus)
    assert res0 and all(lab[1] == (0,) for lab in res0)


def _fock_weight(model, lab):
    """L_0 weight of a Fock label (heis, gamma), read off the label: |λ+γ|²/2 + Σn."""
    heis, gamma = lab
    mu = tuple(l + g for l, g in zip(model.lam_alpha, gamma))
    return model.lattice.halfnorm(mu) + sum(n for n, _ in heis)


def test_l0_eigenvalue_on_ground_states():
    voa = lattice_model(A1, cutoff=4)
    m = lattice_model(A1, lam_dual=[1], cutoff=3, voa=voa)
    for model in (voa, m):
        for d in range(3):
            for lab in model.labels_at(d):
                got = mode_apply(model, model.voa.omega, 1, {lab: Fraction(1)})
                wt = _fock_weight(model, lab)
                assert wt == model.lowest_weight + d
                assert got == {lab: wt} or (not got and wt == 0)


def test_omega_is_handed_out_as_a_copy():
    # Mutating a returned conformal vector must not reach later answers.
    v = lattice_model([[2, -1], [-1, 2]], cutoff=3)
    expect = dict(v.omega)
    lab = v.labels_at(2)[0]
    l0 = mode_apply(v, v.omega, 1, {lab: Fraction(1)})
    v.omega.clear()
    om = v.omega
    om[v.vacuum] = Fraction(5)
    assert v.omega == expect and v.omega is not om
    # omega = (1/2) sum_ij (G^-1)_ij alpha_i(-1) alpha_j(-1) 1, G^-1 = [[2,1],[1,2]]/3
    assert expect == {(((1, 0), (1, 0)), (0, 0)): Fraction(1, 3),
                      (((1, 1), (1, 0)), (0, 0)): Fraction(1, 3),
                      (((1, 1), (1, 1)), (0, 0)): Fraction(1, 3)}
    assert mode_apply(v, v.omega, 1, {lab: Fraction(1)}) == l0 == {lab: Fraction(2)}


def test_identities_on_a1():
    v = lattice_model(A1, cutoff=5)
    a = v.basis_state(((), (1,)))          # e_alpha
    b = v.basis_state((((1, 0),), (0,)))   # h(-1)
    w = v.basis_state(((), (-1,)))         # e_{-alpha}
    assert check_identity(v, "commutator", a=a, b=b, w=w, p=0, q=1) == {}
    assert check_identity(v, "associativity", a=b, b=a, w=w, n=1, q=1) == {}
    assert check_identity(v, "translation", a=a, w=w, q=0) == {}
    assert check_identity(v, "borcherds", a=b, b=a, w=w, p=1, q=0, r=1) == {}
    # omega is Virasoro: commutator with itself
    assert check_identity(v, "commutator", a=v.omega, b=v.omega,
                          w=v.basis_state(v.vacuum), p=2, q=0) == {}


def test_gamma_set_a1():
    assert gamma_set(A1, [0]) == [(-1,), (0,), (1,)]


def test_gamma_set_contains_zero_for_trivial_lambda():
    for gram in (A1, [[2, -1], [-1, 2]], [[4]]):
        assert (0,) * len(gram) in set(map(tuple, gamma_set(gram))) or \
            tuple([0] * len(gram)) in gamma_set(gram)


def test_gamma_set_lambda_half():
    out = gamma_set(A1, [1])
    # finite, inside the candidate box
    assert out
    assert all(abs(2 * (Fraction(1, 2) + b[0])) <= 2 for b in out)


def _a3_weight(subset, k):
    """Alpha coordinates of the A3 weight e_S - (k/4)(e_1+...+e_4), |S| = k.

    With alpha_i = e_i - e_{i+1}, coordinate j of a sum-zero vector x is
    x_1 + ... + x_j.
    """
    return tuple(sum(int(i in subset) - Fraction(k, 4) for i in range(1, j + 1))
                 for j in range(1, 4))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gamma_set_a3_is_roots_or_minuscule_weights(k):
    # λ = 0: Γ is 0 and the 12 roots e_i - e_j.  λ = ω_k: Γ is the minimal
    # vectors of λ + L, the weights of Λ^k C^4, one per k-subset S.
    lam = _a3_weight(set(range(1, k + 1)), k)
    if k == 0:
        expected = {(0, 0, 0)} | {
            tuple(int(i <= j) - int(i2 <= j) for j in range(1, 4))
            for i in range(1, 5) for i2 in range(1, 5) if i != i2}
    else:
        expected = {_a3_weight(set(S), k)
                    for S in itertools.combinations(range(1, 5), k)}
    assert len(expected) == (13, 4, 6, 4)[k]
    lam_dual = [int(i == k) for i in range(1, 4)]
    got = {tuple(x + b for x, b in zip(lam, beta)) for beta in gamma_set(A3, lam_dual)}
    assert got == expected


def test_gamma_set_box_bound_random_rank2():
    for _ in range(10):
        while True:
            a = rng.randrange(2, 7, 2)
            c = rng.randrange(2, 7, 2)
            b = rng.randint(-3, 3)
            if a * c - b * b > 0 and abs(b) <= 6:
                break
        gram = [[a, b], [b, c]]
        out = gamma_set(gram)
        bound = (2 * a + 1) * (2 * c + 1) + 4
        assert len(out) <= bound


def test_single_jump_signs():
    assert single_jump_check(A1, [0], (0,), (0,)) == 1
    assert abs(single_jump_check(A1, [0], (0,), (1,))) == 1
    assert abs(single_jump_check(A1, [1], (0,), (-1,))) == 1
    assert abs(single_jump_check(A1, [0], (-1,), (1,))) == 1


def test_single_jump_rejects_lambda_of_the_wrong_length():
    with pytest.raises(ValueError, match="lambda has 2 entries"):
        single_jump_check(A1, [0, 0], (0,), (1,))


@pytest.mark.parametrize("gram, alpha, beta, message", [
    (A1, (0, 5), (1, 7), "alpha has 2 entries"),
    (A1, (0,), (1, 7), "beta has 2 entries"),
    (A2, (0,), (1, 0), "alpha has 1 entries"),
    (A2, (0, 0), (1,), "beta has 1 entries"),
])
def test_single_jump_rejects_alpha_or_beta_of_the_wrong_length(gram, alpha, beta, message):
    # Extra entries were dropped (then a VerificationError was raised), and a
    # short vector hit an IndexError.
    with pytest.raises(ValueError, match=message):
        single_jump_check(gram, [0] * len(gram), alpha, beta)


def test_b1_span_check_a1():
    for lam in ([0], [1]):
        rep = b1_span_check(A1, lam, cutoff=4)
        assert rep["ok"], rep
        assert rep["per_degree_deficiency"] == [0] * 5


def test_module_requires_integral_dual_coordinates():
    with pytest.raises(ValueError):
        lattice_model(A1, lam_dual=["1/3"], cutoff=2,
                      voa=lattice_model(A1, cutoff=2))


def _b1_deficiencies_exhaustive(gram, lam_dual, cutoff):
    """b1_span_check's deficiencies with every a(-1)w and every ground added."""
    voa = FockModel(gram, None, cutoff)
    model = voa if not any(lam_dual) else FockModel(gram, lam_dual, cutoff, voa=voa)
    grounds = [((), beta) for beta in gamma_set(gram, lam_dual)]
    out = []
    for d in range(cutoff + 1):
        ech = Echelon()
        for wa in range(1, d + 1):
            for alab in voa.labels_at(wa):
                for wlab in model.labels_at(d - wa):
                    vec = mode_apply(model, {alab: Fraction(1)}, -1, {wlab: Fraction(1)})
                    if vec:
                        ech.add(vec)
        for lab in grounds:
            if _fock_weight(model, lab) - model.lowest_weight == d:
                ech.add({lab: Fraction(1)})
        out.append(model.dim(d) - ech.rank)
    return out


@pytest.mark.parametrize("gram, lam, cutoff", [
    (A1, [0], 5), (A1, [1], 5), (A2, [0, 0], 3), (A2, [1, 0], 3), (A2, [0, 1], 3),
])
def test_b1_span_check_matches_exhaustive_loop(gram, lam, cutoff):
    rep = b1_span_check(gram, lam, cutoff)
    assert rep["per_degree_deficiency"] == _b1_deficiencies_exhaustive(gram, lam, cutoff)


# ---------------------------------------------------------------------------
# Graded dimensions against theta series x colored partition counts


def _colored_partition_counts(colors, n_max):
    """Coefficients of prod_k (1 - q^k)^(-colors) up to q^n_max."""
    counts = [1] + [0] * n_max
    for _ in range(colors):
        for k in range(1, n_max + 1):
            for n in range(k, n_max + 1):
                counts[n] += counts[n - k]
    return counts


def _theta_dims(gram, lam_dual, cutoff, box=6):
    """dim V_{λ+L} per degree: sum over γ in λ+L of p_r(d - deg γ).

    λ = G^{-1} lam_dual in the lattice basis (rank <= 2 here); the momenta
    are enumerated in a coordinate box that must hold every short vector.
    """
    r = len(gram)
    if r == 1:
        lam = [Fraction(lam_dual[0], gram[0][0])]
    else:
        (a, b), (c, d) = gram
        det = a * d - b * c
        inv = [[Fraction(d, det), Fraction(-b, det)], [Fraction(-c, det), Fraction(a, det)]]
        lam = [sum(inv[i][j] * lam_dual[j] for j in range(2)) for i in range(2)]
    norms = []
    for n in itertools.product(range(-box, box + 1), repeat=r):
        x = [lam[i] + n[i] for i in range(r)]
        norms.append((sum(x[i] * gram[i][j] * x[j] for i in range(r) for j in range(r)) / 2,
                      max(abs(k) for k in n)))
    low = min(hn for hn, _ in norms)
    pc = _colored_partition_counts(r, cutoff)
    dims = [0] * (cutoff + 1)
    for hn, edge in norms:
        k = hn - low
        if k <= cutoff:
            assert edge < box, "enlarge the box"
            for deg in range(int(k), cutoff + 1):
                dims[deg] += pc[deg - int(k)]
    return dims


@pytest.mark.parametrize("gram, lam, cutoff", [
    (A1, [0], 6), (A1, [1], 6), (A2, [0, 0], 4), (A2, [1, 0], 4),
])
def test_lattice_dims_match_theta_series(gram, lam, cutoff):
    model = lattice_model(gram, lam_dual=lam, cutoff=cutoff)
    assert [model.dim(d) for d in range(cutoff + 1)] == _theta_dims(gram, lam, cutoff)


def _annihilate_series(lat, heis, beta):
    """exp(-sum_m beta(m) x^{-m} / m) on a Heisenberg monomial, summed as the
    exponential series: the j-th term drops j factors, weighted 1/j per step.
    """
    pair = tuple(lat.inner(beta, tuple(int(k == c) for k in range(lat.rank)))
                 for c in range(lat.rank))
    out: dict = {}
    cur = {(heis, 0): Fraction(1)}
    j = 0
    while cur:
        for k, v in cur.items():
            out[k] = out.get(k, 0) + v
        j += 1
        nxt: dict = {}
        for (h, q), cf in cur.items():
            for pos, (m, c) in enumerate(h):
                key = (h[:pos] + h[pos + 1:], q - m)
                nxt[key] = nxt.get(key, 0) - pair[c] * cf / j
        cur = {k: v for k, v in nxt.items() if v}
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("beta", [(1, 0), (0, 1), (1, 1), (-1, 0), (2, 1)])
def test_annihilation_product_matches_the_exponential_series(beta):
    model = lattice_model(A2, cutoff=0)
    for degree in range(7):
        for heis in _colored_partitions(degree, 2):
            assert model._annihilate(heis, beta) == _annihilate_series(
                model.lattice, heis, beta)


def _e_mode_per_term(model, beta, n, label):
    """e^beta(n) on a basis label, one multiply-add per (annihilation term,
    creation monomial) pair: the earlier form of FockModel._e_mode."""
    heis, gamma = label
    lat = model.lattice
    r = lat.rank
    mu = tuple(model.lam_alpha[k] + gamma[k] for k in range(r))
    s = int(lat.inner(beta, mu))
    sign = _cocycle_sign(lat, beta, gamma)
    gamma2 = tuple(gamma[k] + beta[k] for k in range(r))
    out: dict = {}
    for (h2, drop), cf in model._annihilate(heis, beta).items():
        p = -n - 1 - s - drop
        if p < 0:
            continue
        for mon, acf in model._creation(beta, p).items():
            final = tuple(sorted(h2 + mon, reverse=True))
            vec_add_scaled(out, {(final, gamma2): Fraction(1)}, sign * cf * acf)
    return out


@pytest.mark.parametrize("gram, lam, cutoff", [
    (A1, None, 6), (A1, [1], 6), (A2, None, 3), (A2, [1, 0], 3), ([[4]], [1], 6),
])
def test_momentum_modes_match_the_per_term_sum(gram, lam, cutoff):
    # Same values and the same key order as one multiply-add per term.
    model = lattice_model(gram, lam, cutoff=cutoff)
    voa = model.voa
    gens = [lab for d in range(1, cutoff + 1) for lab in voa.labels_at(d)
            if not lab[0] and voa.decompose(lab) == ("gen",)]
    assert gens
    checked = 0
    for gen in gens:
        wt = voa.degree_of(gen)
        for d in range(cutoff + 1):
            for label in model.labels_at(d):
                # deg e^beta(n)label = wt + d - n - 1 must lie in [0, cutoff].
                for n in range(wt + d - 1 - cutoff, wt + d):
                    got = model.gen_mode(gen, n, label)
                    want = _e_mode_per_term(model, gen[1], n, label)
                    assert list(got.items()) == list(want.items())
                    checked += bool(got)
    assert checked


@pytest.mark.parametrize("build, message", [
    (lambda: EvenLattice([[2, 1]]), "Gram matrix must be square"),
    (lambda: EvenLattice([[2, 1], [1]]), "Gram matrix must be square"),
    (lambda: lattice_model([[2]], ["one"]), "lambda must be a list of integers"),
    (lambda: lattice_model([[2]], [None]), "lambda must be a list of integers"),
    # on Gram [[2]], lambda = [1] is alpha/2, a nonzero momentum
    (lambda: FockModel([[2]], [1], 4, lattice_enabled=False),
     "free-boson model supports only the zero momentum"),
    (lambda: heisenberg_model(-1), "rank must be nonnegative, got -1"),
], ids=["row-too-long", "row-too-short", "lambda-string", "lambda-none", "free-boson",
        "heisenberg-negative-rank"])
def test_lattice_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
