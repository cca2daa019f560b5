"""Mode-generated subspaces, quotient reports, spanning sets, certificates."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voablocks.core import mode_apply, quasi_primary_space
from voablocks.finiteness import (
    SubspaceSpec,
    _graded_spans,
    _u_split,
    bound_k,
    complement_U,
    quotient_report,
    reduce_certificate,
    spanning_set_check,
    subspace_span,
)
from voablocks.lattice import heisenberg_model, lattice_model
from voablocks.linalg import Echelon, SolverEchelon
from voablocks.virasoro import (
    VerificationError,
    irreducible_model,
    ising_model,
    vacuum_voa,
    verma_model,
)

rng = random.Random(20240819)


def test_subspace_spec_validation():
    with pytest.raises(ValueError):
        SubspaceSpec("cn", n=1)
    with pytest.raises(ValueError):
        SubspaceSpec("cmu", m=0, U=({},))
    with pytest.raises(ValueError):
        SubspaceSpec("cmu", m=2)
    with pytest.raises(ValueError):
        SubspaceSpec("weird")
    with pytest.raises(ValueError):
        SubspaceSpec("cmq", m=1, U=({(2,): Fraction(1)},))


def test_bound_k_values():
    assert bound_k(2, 3) == 33
    assert bound_k(1, 1) == 2
    assert bound_k(2, 3) <= bound_k(3, 3) == 48
    assert bound_k(2, 3) <= bound_k(2, 4)


def test_ising_c2_quotient_stabilizes_to_three():
    m = ising_model(cutoff=10)
    rep = quotient_report(m, SubspaceSpec("cn", n=2))
    assert rep.stabilized
    assert rep.cumulative == 3


def test_lee_yang_c2_quotient_stabilizes_to_two():
    m = irreducible_model(5, 2, 1, 1, cutoff=10)
    rep = quotient_report(m, SubspaceSpec("cn", n=2))
    assert rep.stabilized
    assert rep.cumulative == 2


def test_sigma_b1_quotient_bounded_by_two():
    voa = ising_model(cutoff=8)
    sigma = irreducible_model(4, 3, 1, 2, cutoff=8, voa=voa)
    rep = quotient_report(sigma, SubspaceSpec("b1"))
    assert rep.stabilized
    assert rep.cumulative <= 2


def test_heisenberg_c2_quotient_grows():
    h = heisenberg_model(rank=1, cutoff=8)
    rep = quotient_report(h, SubspaceSpec("cn", n=2))
    assert not rep.stabilized
    cums = []
    acc = 0
    for x in rep.per_degree:
        acc += x
        cums.append(acc)
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert cums[-1] > cums[3]


def test_cn_nesting():
    m = ising_model(cutoff=8)
    spans = {}
    for n in (2, 3, 4):
        ech = {d: Echelon() for d in range(m.cutoff + 1)}
        for d, vec in subspace_span(m, SubspaceSpec("cn", n=n)):
            ech[d].add(vec)
        spans[n] = ech
    for n in (3, 4):
        for d in range(m.cutoff + 1):
            for _, row in spans[n][d].pivot_rows.items():
                assert spans[2][d].contains(row)


def test_b1_contains_c2():
    voa = ising_model(cutoff=8)
    sigma = irreducible_model(4, 3, 1, 2, cutoff=8, voa=voa)
    b1 = {d: Echelon() for d in range(sigma.cutoff + 1)}
    for d, vec in subspace_span(sigma, SubspaceSpec("b1")):
        b1[d].add(vec)
    for d, vec in subspace_span(sigma, SubspaceSpec("cn", n=2)):
        assert b1[d].contains(vec)


def test_b1_ground_level_untouched():
    voa = ising_model(cutoff=6)
    sigma = irreducible_model(4, 3, 1, 2, cutoff=6, voa=voa)
    assert all(d > 0 for d, _ in subspace_span(sigma, SubspaceSpec("b1")))


def test_complement_u_ising():
    m = ising_model(cutoff=8)
    U, r_u, s_u = complement_U(m)
    assert r_u == s_u
    assert len(U) == 3  # vacuum, omega, one more quasi-primary
    weights = sorted(m.state_degree(u) for u in U)
    assert weights == [0, 2, 4]
    assert r_u == 4


def test_complement_u_a1_lattice():
    v = lattice_model([[2]], cutoff=4)
    U, r_u, _ = complement_U(v)
    # C2 misses all of V(1): h(-1), e_alpha, e_{-alpha} all appear in U
    assert sum(1 for u in U if v.state_degree(u) == 1) == 3


def test_complement_u_heisenberg_keeps_growing():
    h = heisenberg_model(rank=1, cutoff=6)
    U, r_u, _ = complement_U(h)
    assert r_u >= 5  # new complement vectors keep appearing


def test_spanning_set_check_ising():
    m = ising_model(cutoff=8)
    U, _, _ = complement_U(m)
    assert all(spanning_set_check(m, U))


def test_spanning_set_check_a1():
    v = lattice_model([[2]], cutoff=5)
    U, _, _ = complement_U(v)
    assert all(spanning_set_check(v, U))


def test_certificate_base_case_u_element():
    m = ising_model(cutoff=12)
    U, _, _ = complement_U(m)
    omega_u = next(u for u in U if m.state_degree(u) == 2)
    w = m.basis_state(())
    cert = reduce_certificate(m, omega_u, 4, w, U, m=2)
    assert len(cert.entries) == 1
    assert cert.verify(m)


def test_certificate_l_minus_one_shift():
    # a = L_{-1}u is pure C2: certificate is the single shifted entry.
    m = ising_model(cutoff=12)
    U, _, _ = complement_U(m)
    a = mode_apply(m, m.omega, 0, m.basis_state((2,)))  # L_{-1} omega
    w = m.basis_state(())
    cert = reduce_certificate(m, a, 6, w, U, m=2)
    assert cert.verify(m)


def test_certificate_omega_omega():
    m = ising_model(cutoff=14)
    U, _, _ = complement_U(m)
    a = mode_apply(m, m.omega, -1, m.omega)  # omega(-1)omega, weight 4
    w = m.basis_state(())
    cert = reduce_certificate(m, a, 8, w, U, m=2)
    assert cert.entries
    assert cert.verify(m)
    assert all(n >= 2 for _, n, _, _ in cert.entries)


def test_certificate_randomized_ising():
    m = ising_model(cutoff=14)
    U, _, _ = complement_U(m)
    labels2 = [lab for d in range(2, 5) for lab in m.labels_at(d)]
    for _ in range(10):
        alab = rng.choice(labels2)
        wt = m.degree_of(alab)
        q = 2 * wt + rng.randint(0, 1)
        w = m.basis_state(rng.choice(m.labels_at(rng.choice([0, 2]))))
        cert = reduce_certificate(m, m.basis_state(alab), q, w, U, m=2)
        assert cert.verify(m)


@functools.cache
def _ising_12_and_u():
    voa = ising_model(cutoff=12)
    return voa, complement_U(voa)[0]


def _draw_state(data, labels):
    coeffs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                                min_size=len(labels), max_size=len(labels)))
    state = {lab: c for lab, c in zip(labels, coeffs) if c}
    assume(state)
    return state


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2), st.sampled_from([0, 2, 3]), st.data())
def test_certificate_replay_is_exact(deg_a, dq, deg_w, data):
    # Criterion 7's range (m = 2, q from m wt a to m wt a + 2), at cutoff 12,
    # with a and w any homogeneous states of their degrees.
    voa, U = _ising_12_and_u()
    m, q = 2, 2 * deg_a + dq
    assume(deg_a + q - 1 + deg_w <= voa.cutoff)
    a = _draw_state(data, voa.labels_at(deg_a))
    w = _draw_state(data, voa.labels_at(deg_w))
    cert = reduce_certificate(voa, a, q, w, U, m)
    assert cert.replay(voa) == mode_apply(voa, a, -q, w)
    assert all(n >= m for _, n, _, _ in cert.entries)


def test_certificate_precondition():
    m = ising_model(cutoff=10)
    U, _, _ = complement_U(m)
    with pytest.raises(ValueError):
        reduce_certificate(m, m.basis_state((2,)), 3, m.basis_state(()), U, m=2)


def test_certificate_rejects_entries_below_m():
    # With m < 1 the precondition q >= m wt a no longer implies q >= m, so
    # the U-part entry omega(2)w would land below C_m: such an m is refused
    # up front (it reached the final entry check, a VerificationError).
    m = ising_model(cutoff=10)
    U, _, _ = complement_U(m)
    omega_u = next(u for u in U if m.state_degree(u) == 2)
    with pytest.raises(ValueError, match="m must be >= 1, got -1"):
        reduce_certificate(m, omega_u, -2, m.basis_state(()), U, m=-1)


@pytest.mark.parametrize("a,w", [({(6,): Fraction(1)}, {(): Fraction(1)}),
                                 ({(2,): Fraction(1)}, {(6,): Fraction(1)})])
def test_certificate_rejects_non_basis_labels(a, w):
    # L_{-6}1 is a pivot partition of the Ising quotient at weight 6, not a
    # basis label; the error names it instead of blaming U.
    m = ising_model(cutoff=11)
    U, _, _ = complement_U(m)
    assert (6,) not in m.labels_at(6)
    with pytest.raises(ValueError, match=r"\(6,\)"):
        reduce_certificate(m, a, 12, w, U, m=2)


@pytest.fixture(scope="module")
def sigma_and_u():
    U, _, _ = complement_U(ising_model(cutoff=12))
    return irreducible_model(4, 3, 2, 2, 13), U


@pytest.mark.parametrize("part,n_entries", [((2, 2, 2), 56), ((3, 3), 19), ((4, 2), 18)])
def test_certificate_skips_vacuum_weight_commutator_term(sigma_and_u, part, n_entries):
    # The commutator route meets b(j)c of weight 0 here, a multiple of the
    # vacuum whose mode is zero; reducing it used to raise ValueError.
    sigma, U = sigma_and_u
    w = sigma.basis_state(())
    cert = reduce_certificate(sigma, sigma.voa.basis_state(part), 6, w, U, m=1)
    assert len(cert.entries) == n_entries
    assert cert.verify(sigma)


# ---------------------------------------------------------------------------
# Stopping each degree at full rank changes no answer: exhaustive oracles


def _a1_cmu():
    a1 = lattice_model([[2]], cutoff=5)
    return a1, SubspaceSpec("cmu", m=1, U=tuple(complement_U(a1)[0]))


QUOTIENT_SPACES = {
    "c2-ising": lambda: (ising_model(cutoff=10), SubspaceSpec("cn", n=2)),
    "c2-p5q2": lambda: (irreducible_model(5, 2, 1, 1, 10), SubspaceSpec("cn", n=2)),
    "c2-p5q4": lambda: (irreducible_model(5, 4, 1, 1, 10), SubspaceSpec("cn", n=2)),
    "b1-sigma": lambda: (irreducible_model(4, 3, 2, 2, 9), SubspaceSpec("b1")),
    "cmu-a1": _a1_cmu,
    "c2-heisenberg": lambda: (heisenberg_model(rank=1, cutoff=7), SubspaceSpec("cn", n=2)),
}


@pytest.mark.parametrize("name", list(QUOTIENT_SPACES))
def test_quotient_report_matches_rank_of_the_whole_span(name):
    module, spec = QUOTIENT_SPACES[name]()
    spans = {d: Echelon() for d in range(module.cutoff + 1)}
    for d, vec in subspace_span(module, spec):
        spans[d].add(vec)
    expected = [module.dim(d) - spans[d].rank for d in range(module.cutoff + 1)]
    assert quotient_report(module, spec).per_degree == expected


def _complement_u_exhaustive(model):
    """complement_U with every C2 pair and every quasi-primary vector added."""
    U, max_wt = [], 0
    for d in range(model.cutoff + 1):
        ech = Echelon()
        for wa in range(d):
            for alab in model.labels_at(wa):
                for blab in model.labels_at(d - 1 - wa):
                    vec = mode_apply(model, {alab: Fraction(1)}, -2, {blab: Fraction(1)})
                    if vec:
                        ech.add(vec)
        for vec in quasi_primary_space(model, d):
            if ech.add(vec):
                U.append(dict(vec))
                max_wt = d
    return U, max_wt


@pytest.mark.parametrize("make", [lambda: ising_model(cutoff=10),
                                  lambda: irreducible_model(5, 3, 1, 1, 9),
                                  lambda: lattice_model([[2]], cutoff=5),
                                  lambda: heisenberg_model(rank=1, cutoff=6)],
                         ids=["ising", "p5q3", "a1", "heisenberg"])
def test_complement_u_matches_exhaustive_c2_echelon(make):
    model = make()
    U, r_u, s_u = complement_U(model)
    assert (U, r_u) == _complement_u_exhaustive(model)
    assert s_u == r_u


def _spanning_exhaustive(model, U):
    """spanning_set_check with the vacuum and every decreasing monomial added."""
    spans = [Echelon() for _ in range(model.cutoff + 1)]
    spans[0].add({model.vacuum: Fraction(1)})
    positive = [u for u in U if model.state_degree(u)]

    def extend(state, weight, n_min):
        # state = u1(-n1)...uk(-nk)1 with n1 > ... > nk; prepend a larger mode
        for n in range(n_min, model.cutoff + 2):
            for u in positive:
                new_wt = weight + model.state_degree(u) + n - 1
                if new_wt <= model.cutoff:
                    new = mode_apply(model, u, -n, state)
                    if new:
                        spans[new_wt].add(new)
                        extend(new, new_wt, n + 1)

    extend({model.vacuum: Fraction(1)}, 0, 1)
    return [ech.rank == model.dim(d) for d, ech in enumerate(spans)]


T, F = True, False


@pytest.mark.parametrize("make, drop_last, expected", [
    (lambda: ising_model(cutoff=10), False, [T] * 11),
    (lambda: ising_model(cutoff=10), True, [T, T, T, T, F, T, F, T, F, T, F]),
    (lambda: lattice_model([[2]], cutoff=5), False, [T] * 6),
    (lambda: lattice_model([[2]], cutoff=5), True, [T, T, F, T, F, F]),
], ids=["ising", "ising-short-U", "a1", "a1-short-U"])
def test_spanning_set_check_matches_exhaustive_oracle(make, drop_last, expected):
    # Without its last vector U no longer strongly generates V, so some
    # degrees must read False.
    model = make()
    U = complement_U(model)[0]
    if drop_last:
        U = U[:-1]
    assert spanning_set_check(model, U) == _spanning_exhaustive(model, U) == expected


@pytest.mark.parametrize("make", [lambda: ising_model(10),
                                  lambda: irreducible_model(5, 3, 1, 1, 9),
                                  lambda: lattice_model([[2]], cutoff=6)],
                         ids=["ising", "p5q3", "a1"])
def test_u_split_matches_exhaustive_solver(make):
    # The per-weight solver stops adding C2 pairs at full rank; every split
    # must equal the one of a solver that was given all of them.
    m = make()
    U, _, _ = complement_U(m)
    split = _u_split(m, U)
    for wt in range(1, m.cutoff + 1):
        se = SolverEchelon()
        for idx, u in enumerate(U):
            if m.state_degree(u) == wt:
                se.add(u, ("u", idx))
        for wa in range(wt):
            for alab in m.labels_at(wa):
                for blab in m.labels_at(wt - 1 - wa):
                    vec = mode_apply(m, {alab: Fraction(1)}, -2, {blab: Fraction(1)})
                    if vec:
                        se.add(vec, ("c2", alab, blab))
        for lab in m.labels_at(wt):
            expr = se.solve({lab: Fraction(1)})
            u_part = {k[1]: v for k, v in expr.items() if k[0] == "u"}
            c2_part = {(k[1], k[2]): v for k, v in expr.items() if k[0] == "c2"}
            assert split({lab: Fraction(1)}) == (u_part, c2_part)


def test_certificate_rejects_u_that_misses_a_weight():
    # Without its weight-4 vector U no longer complements C2(V) at weight 4,
    # so that vector itself cannot be split.
    voa, U = _ising_12_and_u()
    (u4,) = [u for u in U if voa.state_degree(u) == 4]
    short = [u for u in U if voa.state_degree(u) != 4]
    with pytest.raises(VerificationError, match="U does not complement C2"):
        reduce_certificate(voa, u4, 8, voa.basis_state(()), short, m=2)


def test_certificates_replay_on_the_a1_lattice():
    # Every basis a of degree 1-3 and w of degree 0-2 on A1, m = 1, at
    # q = wt a and q = wt a + 1 where a(-q)w stays within the cutoff.
    voa = lattice_model([[2]], cutoff=8)
    U, _, _ = complement_U(voa)
    count = 0
    for deg_a in (1, 2, 3):
        for q in (deg_a, deg_a + 1):
            for deg_w in (0, 1, 2):
                if deg_a + q - 1 + deg_w > voa.cutoff:
                    continue
                for alab in voa.labels_at(deg_a):
                    for wlab in voa.labels_at(deg_w):
                        a, w = voa.basis_state(alab), voa.basis_state(wlab)
                        cert = reduce_certificate(voa, a, q, w, U, m=1)
                        assert cert.replay(voa) == mode_apply(voa, a, -q, w)
                        assert all(n >= 1 for _, n, _, _ in cert.entries)
                        count += 1
    assert count == 2 * 112  # every (a, w) pair fits at both q


def _span_by_enumeration(module, spec):
    """Every nonzero a(-n)w of degree <= cutoff that spec admits, by brute force.

    Walks a over the VOA basis by weight and label (U in its order for
    "cmu"), every n, and w over the module basis by degree and label, then
    keeps the triples whose degree deg a + deg w + n - 1 is within the
    cutoff; the result is stably sorted by degree.
    """
    voa, cutoff = module.voa, module.cutoff
    if spec.kind == "cmu":
        heads = [(u, range(spec.m, cutoff + 2)) for u in spec.U]
    else:
        ns = [spec.n] if spec.kind == "cn" else [1]
        heads = [(voa.basis_state(lab), ns) for wa in range(voa.cutoff + 1)
                 for lab in voa.labels_at(wa)]
    out = []
    for a, ns in heads:
        wt_a = voa.state_degree(a)
        if wt_a == 0:
            continue  # the vacuum is no generator of any of these spans
        for n in ns:
            for dw in range(cutoff + 1):
                d = wt_a + dw + n - 1
                for wlab in module.labels_at(dw) if d <= cutoff else ():
                    vec = mode_apply(module, a, -n, {wlab: Fraction(1)})
                    if vec:
                        out.append((d, vec))
    return sorted(out, key=lambda t: t[0])


@functools.cache
def _recipe_module(name):
    if name == "ising":
        return ising_model(8)
    if name == "sigma":
        return irreducible_model(4, 3, 2, 2, 8)
    return lattice_model([[2]], cutoff=6)


@pytest.mark.parametrize("kind", ["c2", "c3", "b1", "cmu"])
@pytest.mark.parametrize("name", ["ising", "sigma", "a1"])
def test_subspace_span_matches_brute_force_enumeration(name, kind):
    # Same (d, vec) list, so the same multiset and, within each degree, the
    # order of a's weight, a's label, n and w's label.
    module = _recipe_module(name)
    spec = {"c2": SubspaceSpec("cn", n=2), "c3": SubspaceSpec("cn", n=3),
            "b1": SubspaceSpec("b1"),
            "cmu": SubspaceSpec("cmu", m=1, U=tuple(complement_U(module.voa)[0]))}[kind]
    got = subspace_span(module, spec)
    assert [d for d, _ in got] == sorted(d for d, _ in got)
    assert ([(d, list(v.items())) for d, v in got]
            == [(d, list(v.items())) for d, v in _span_by_enumeration(module, spec)])


# ---------------------------------------------------------------------------
# The C2 walk from generator modes against the definition of C2


C2_MODELS = {
    "ising": lambda: ising_model(12),
    "sigma": lambda: irreducible_model(4, 3, 2, 2, 11),
    "p5q4-r2s3": lambda: irreducible_model(5, 4, 2, 3, 10),
    "p6q5-r2s3": lambda: irreducible_model(6, 5, 2, 3, 9),
    "verma-c1/2-h1/3": lambda: verma_model(Fraction(1, 2), Fraction(1, 3), 9),
    "vacuum-c7/3": lambda: vacuum_voa(Fraction(7, 3), 10),
    "heisenberg-rank2": lambda: heisenberg_model(rank=2, cutoff=7),
    "a1-lambda1": lambda: lattice_model([[2]], [1], cutoff=8),
    "gram4-lambda1": lambda: lattice_model([[4]], [1], cutoff=8),
}


@pytest.mark.parametrize("name", list(C2_MODELS))
def test_c2_walk_equals_the_reduced_span_of_every_a_minus_2_w(name):
    # The rows of the generator-mode walk are the reduced echelon form of
    # every a(-2)w, a over the whole VOA basis; a reduced form is unique for
    # its span, so the rows agree entry by entry.
    module = C2_MODELS[name]()
    spec = SubspaceSpec("cn", n=2)
    expected = [Echelon() for _ in range(module.cutoff + 1)]
    for d, vec in subspace_span(module, spec):
        expected[d].add(vec)
    got = _graded_spans(module, spec)
    assert [ech.pivot_rows for ech in got] == [ech.pivot_rows for ech in expected]
    if module.is_voa:
        U, r_u, _ = complement_U(module)
        assert (U, r_u) == _complement_u_exhaustive(module)


def test_generator_modes_alone_miss_c3_on_heisenberg():
    # At degree 4, C3 of Heisenberg holds h(-2)h(-2)1, which no h(-k)w with
    # k >= 3 reaches: so C3 keeps its a(-3)w recipes.
    h = heisenberg_model(rank=1, cutoff=6)
    assert _graded_spans(h, SubspaceSpec("cn", n=3))[4].rank == 3
    (gen,) = h.labels_at(1)
    modes = Echelon()
    for k in (3, 4):
        for wlab in h.labels_at(4 - k):
            modes.add(mode_apply(h, {gen: Fraction(1)}, -k, {wlab: Fraction(1)}))
    assert modes.rank == 2


def test_c3_and_b1_walks_keep_their_quotients():
    m = ising_model(10)
    assert (quotient_report(m, SubspaceSpec("cn", n=3)).per_degree
            == [1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    assert (quotient_report(m, SubspaceSpec("b1")).per_degree
            == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("p, q", [(5, 3), (7, 2), (5, 4), (9, 2)])
def test_c2_quotient_dimension_matches_gaberdiel_gannon(p, q):
    # dim V/C2(V) = (p-1)(q-1)/2 for the (p, q) minimal-series vacuum module.
    # (5, 4) still has a class at degree 10, so the default window of 3 is
    # not yet clear at cutoff 12; only the dimension is compared.
    rep = quotient_report(irreducible_model(p, q, 1, 1, 12), SubspaceSpec("cn", n=2))
    assert rep.cumulative == (p - 1) * (q - 1) // 2


@pytest.mark.parametrize("window", [0, -2])
def test_quotient_report_rejects_window_below_one(window):
    with pytest.raises(ValueError, match="window"):
        quotient_report(ising_model(cutoff=4), SubspaceSpec("cn", n=2), window=window)


@pytest.mark.parametrize("call, message", [
    (lambda voa, sigma: complement_U(sigma), "complement_U expects a VOA model"),
    (lambda voa, sigma: spanning_set_check(sigma, []),
     "spanning_set_check expects a VOA model"),
    (lambda voa, sigma: bound_k(0, 1), "s_U must be >= 1, got 0"),
    (lambda voa, sigma: bound_k(1, 0), "m must be >= 1, got 0"),
    # the vacuum has weight 0, below every certificate's reach
    (lambda voa, sigma: reduce_certificate(voa, {(): Fraction(1)}, 2, {(): Fraction(1)},
                                           complement_U(voa)[0], 1),
     "reduction requires homogeneous a of positive weight"),
], ids=["complement-of-module", "spanning-of-module", "bound-s_U-0", "bound-m-0",
        "weight-0-a"])
def test_finiteness_rejects_bad_input(call, message):
    voa = ising_model(6)
    sigma = irreducible_model(4, 3, 2, 2, 6, voa=voa)
    with pytest.raises(ValueError, match=message):
        call(voa, sigma)
