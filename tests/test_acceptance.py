"""End-to-end acceptance gate: ten criteria, one pass/fail line each.

Every check is exact (zero residuals, exact integers); derived values are
cross-checked at more than one cutoff or point configuration.
"""

import random
import time
from fractions import Fraction

import pytest

from voablocks.blocks import (
    LabeledLine,
    MeromorphicSection,
    PointedLine,
    bracket_closure_check,
    coinvariant_report,
    m_constant_and_gaps,
    rr_h0,
    section_basis,
    theorem_bound,
)
from voablocks.core import (
    TruncationError,
    check_identity,
    quasi_primary_space,
)
from voablocks.finiteness import (
    SubspaceSpec,
    complement_U,
    bound_k,
    quotient_report,
    reduce_certificate,
)
from voablocks.lattice import (
    EvenLattice,
    b1_span_check,
    gamma_set,
    heisenberg_model,
    lattice_model,
)
from voablocks.virasoro import (
    VermaAction,
    feigin_fuchs,
    ff_squares_to_product,
    ff_verify,
    irreducible_model,
    ising_model,
    minimal_params_values,
    singular_vectors,
)


def report(criterion: int, label: str) -> None:
    print(f"[criterion {criterion:2d}] PASS — {label}")


def _identity_sweep(model, rng, count, max_exp=4):
    done = 0
    kinds = ("borcherds", "associativity", "commutator", "translation")
    degs = [d for d in range(4) if model.labels_at(d)]
    voa = model.voa
    voa_degs = [d for d in range(4) if voa.labels_at(d)]

    def pick(m, ds):
        labs = m.labels_at(rng.choice(ds))
        return {rng.choice(labs): Fraction(1)}

    while done < count:
        kind = rng.choice(kinds)
        params = {"a": pick(voa, voa_degs), "w": pick(model, degs)}
        if kind == "translation":
            params["q"] = rng.randint(-max_exp, max_exp)
        else:
            params["b"] = pick(voa, voa_degs)
            params["q"] = rng.randint(-max_exp, max_exp)
            if kind == "associativity":
                params["n"] = rng.randint(1, max_exp)
            else:
                params["p"] = rng.randint(-max_exp, max_exp)
            if kind == "borcherds":
                params["r"] = rng.randint(-max_exp, max_exp)
        try:
            residual = check_identity(model, kind, **params)
        except TruncationError:
            continue
        assert residual == {}, (kind, params, residual)
        done += 1
    return done


def test_criterion_1_identity_suite():
    start = time.time()
    rng = random.Random(20240901)
    total = _identity_sweep(ising_model(8), rng, 120)
    total += _identity_sweep(lattice_model([[2]], cutoff=6), rng, 120)
    elapsed = time.time() - start
    assert total >= 200
    assert elapsed < 60
    report(1, f"identity residuals exactly zero on {total} samples "
              f"(Ising cutoff 8, A1 cutoff 6) in {elapsed:.1f}s")


def test_criterion_2_virasoro_bracket():
    checked = 0
    for c in (Fraction(1, 2), Fraction(-22, 5)):
        act = VermaAction(c, Fraction(3, 7))  # generic h
        for part in ((), (1,), (2,), (3, 1), (2, 2, 1)):
            for m in range(-3, 4):
                for n in range(-3, 4):
                    lhs = {}
                    for lab, cf in act.L(n, part).items():
                        for lab2, cf2 in act.L(m, lab).items():
                            lhs[lab2] = lhs.get(lab2, 0) + cf * cf2
                    for lab, cf in act.L(m, part).items():
                        for lab2, cf2 in act.L(n, lab).items():
                            lhs[lab2] = lhs.get(lab2, 0) - cf * cf2
                    rhs = {lab: (m - n) * cf
                           for lab, cf in act.L(m + n, part).items()}
                    if m + n == 0:
                        rhs[part] = rhs.get(part, 0) + c / 12 * (m**3 - m)
                    assert ({k: v for k, v in lhs.items() if v}
                            == {k: v for k, v in rhs.items() if v})
                    checked += 1
    report(2, f"[L_m, L_n] exact for |m|,|n| <= 3 at c in {{1/2, -22/5}} "
              f"({checked} brackets)")


def test_criterion_3_feigin_fuchs():
    pairs = 0
    for p, q in ((4, 3), (5, 2)):
        for r in range(1, q):
            for s in range(1, p):
                if r * s > 6:
                    continue
                c, h = minimal_params_values(p, q, r, s)
                assert len(singular_vectors(c, h, r * s)) == 1
                assert ff_verify(p, q, r, s) == 1
                pairs += 1
    squares = 0
    for r in range(1, 9):
        for s in range(1, 9):
            if r * s <= 8:
                assert ff_squares_to_product(r, s)
                squares += 1
    report(3, f"singular vectors 1-dim + exact projection match on {pairs} "
              f"(p,q,r,s); F^2 = product formula for {squares} (r,s)")


def test_criterion_4_finiteness_quotients():
    ising = ising_model(10)
    rep = quotient_report(ising, SubspaceSpec("cn", n=2))
    assert rep.cumulative == 3 and rep.stabilized  # (4-1)(3-1)/2
    lee_yang = irreducible_model(5, 2, 1, 1, 10)
    rep = quotient_report(lee_yang, SubspaceSpec("cn", n=2))
    assert rep.cumulative == 2 and rep.stabilized  # (5-1)(2-1)/2
    sigma = irreducible_model(4, 3, 2, 2, 8)
    rep = quotient_report(sigma, SubspaceSpec("b1"))
    assert rep.stabilized and rep.cumulative <= 2  # min(rs, (q-r)(p-s))
    report(4, "L(1/2,0)/C2 = 3, L(-22/5,0)/C2 = 2, L(1/2,1/16)/B1 <= 2, "
              "all stabilized by cutoff 10")


def test_criterion_5_heisenberg_non_example():
    model = heisenberg_model(1, 8)
    rep = quotient_report(model, SubspaceSpec("cn", n=2))
    assert not rep.stabilized
    cumulative = []
    run = 0
    for d, leftover in enumerate(rep.per_degree):
        run += leftover
        cumulative.append(run)
    # strictly growing cumulative dimension on even degrees through cutoff 8
    assert all(rep.per_degree[d] > 0 for d in range(0, 9, 2))
    assert cumulative[-1] > cumulative[4] > cumulative[0]
    report(5, f"Heisenberg C2-quotient keeps growing (cumulative "
              f"{cumulative[-1]} by cutoff 8, no stabilization)")


def test_criterion_6_lattice_gamma_and_b1():
    gammas = sorted(gamma_set([[2]], [0]))
    assert gammas == [(-1,), (0,), (1,)]
    for lam in ([0], [1]):
        res = b1_span_check([[2]], lam, 6)
        assert res["ok"] and all(x == 0 for x in res["per_degree_deficiency"])
    rng = random.Random(20240902)
    tested = 0
    while tested < 10:
        a, c = rng.choice((2, 4, 6)), rng.choice((2, 4, 6))
        b = rng.randint(-2, 2)
        if b * b >= a * c:
            continue
        gram = [[a, b], [b, c]]
        lat = EvenLattice(gram)
        for beta in gamma_set(gram, [0, 0]):
            inner = [sum(gram[i][j] * beta[j] for j in range(2))
                     for i in range(2)]
            in_box = all(abs(inner[i]) <= gram[i][i] for i in range(2))
            exceptional = tuple(map(abs, beta)) in ((1, 0), (0, 1))
            assert in_box or exceptional
        tested += 1
    report(6, "gamma_set(A1,0) = {0, a, -a}; B1 spans for lambda in {0, L}; "
              "box containment on 10 random rank-2 grams")


def test_criterion_7_certificates():
    voa = ising_model(14)
    U, _, _ = complement_U(voa)
    rng = random.Random(20240903)
    m = 2
    done = 0
    while done < 50:
        deg_a = rng.choice([d for d in range(2, 5) if voa.labels_at(d)])
        a = {rng.choice(voa.labels_at(deg_a)): Fraction(1)}
        deg_w = rng.choice([d for d in (0, 2, 3) if voa.labels_at(d)])
        w = {rng.choice(voa.labels_at(deg_w)): Fraction(1)}
        q = rng.randint(m * deg_a, m * deg_a + 2)
        if deg_a + q - 1 + deg_w > voa.cutoff:
            continue
        cert = reduce_certificate(voa, a, q, w, U, m)
        assert cert.verify(voa)
        assert all(n >= m for (_, n, _, _) in cert.entries)
        done += 1
    report(7, "50 seeded reduction certificates replay a(-q)w exactly "
              "(Ising, m = 2)")


def _ising_modules(cutoff=10):
    """The Ising vacuum, ε and σ modules over one VOA model, each built once."""
    voa = ising_model(cutoff)
    return {
        "1": voa,
        "eps": irreducible_model(4, 3, 2, 1, cutoff, voa=voa),
        "sigma": irreducible_model(4, 3, 2, 2, cutoff, voa=voa),
    }


def _ising_surface(points, labels, modules):
    return LabeledLine(PointedLine(points), [modules[l] for l in labels])


def test_criterion_8_blocks():
    start = time.time()
    modules = _ising_modules()
    cases = [
        (("1", "1", "1"), 1),
        (("eps", "eps", "1"), 1),
        (("sigma", "sigma", "eps"), 1),
        (("sigma", "sigma", "sigma"), 0),
    ]
    for labels, expect in cases:
        totals = []
        for (d, p) in ((9, 3), (10, 4)):  # sweep within D <= 10, P <= 8
            surface = _ising_surface((0, 1, -1), labels, modules)
            rep = coinvariant_report(surface, D=d, P=p)
            assert rep.stabilized, (labels, d, p)
            assert rep.total <= rep.theorem_bound
            totals.append(rep.total)
        assert totals == [expect, expect], labels
        # invariance under moving the third point
        moved = _ising_surface((0, 1, -2), labels, modules)
        rep = coinvariant_report(moved, D=10, P=4)
        assert rep.stabilized and rep.total == expect <= rep.theorem_bound
    voa_only = _ising_surface((0,), ("1",), modules)
    rep = coinvariant_report(voa_only, D=10, P=4)
    assert rep.total == 1 and rep.stabilized
    assert rep.total <= rep.theorem_bound
    elapsed = time.time() - start
    assert elapsed < 300
    report(8, f"3-point Ising blocks stabilize to 1,1,1,0 (two sweeps + "
              f"moved point), vacuum 1-point = 1, totals <= bound; "
              f"{elapsed:.0f}s")


def test_criterion_9_riemann_roch():
    rng = random.Random(20240904)
    for _ in range(40):
        npts = rng.randint(1, 3)
        line = PointedLine(tuple(rng.sample(range(-6, 7), npts)))
        d = rng.randint(0, 4)
        bounds = [rng.randint(0, 5) for _ in range(npts)]
        expect = rr_h0(0, d, sum(bounds))
        if expect == "unresolved":
            continue
        assert len(section_basis(line, d, bounds)) == expect
    m, gaps = m_constant_and_gaps(1, 1)
    assert gaps[1] == [1]
    assert bound_k(2, 3) == 33
    report(9, "rr_h0 = section_basis dims at g = 0 (d <= 4, bounds <= 5); "
              "gap set {1} at g = 1; bound_k(2,3) = 33")


def _random_op(voa, line, rng, weight_pool, max_pole):
    d = rng.choice(weight_pool)
    states = quasi_primary_space(voa, d)
    a = states[rng.randrange(len(states))]
    sections = section_basis(line, d, [max_pole] * len(line.points))
    return a, sections[rng.randrange(len(sections))]


def test_criterion_10_bracket_closure():
    rng = random.Random(20240905)
    line = PointedLine((0, 1))
    setups = [
        ("ising", ising_model(10), [2], 1),
        ("a1", lattice_model([[2]], cutoff=6), [1], 1),
    ]
    for name, voa, weights, max_pole in setups:
        surface = LabeledLine(line, [voa, voa])
        for _ in range(20):
            op1 = _random_op(voa, line, rng, weights, max_pole)
            op2 = _random_op(voa, line, rng, weights, max_pole)
            assert bracket_closure_check(surface, op1, op2), (name, op1, op2)
    report(10, "bracket closure holds on 20 seeded operator pairs per model "
               "(Ising, A1) on 2-pointed lines")
