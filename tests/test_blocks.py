"""Tests for sections on the pointed line and coinvariant estimation."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from voablocks import blocks
from voablocks.blocks import (
    _bracket_matrix,
    _graded_tensors,
    _labels_upto,
    _slot_coordinates,
    LabeledLine,
    MeromorphicSection,
    PointedLine,
    bracket_closure_check,
    coinvariant_report,
    laurent_expand,
    m_constant_and_gaps,
    qgvo_apply,
    rr_h0,
    section_basis,
    slot_matrices,
    theorem_bound,
)
from voablocks.core import TruncationError, mode_apply, quasi_primary_space
from voablocks.lattice import lattice_model
from voablocks.linalg import Echelon, vec_add_scaled
from voablocks.virasoro import irreducible_model, ising_model


OMEGA = {(2,): Fraction(1)}


def one_point_ising(cutoff=10):
    voa = ising_model(cutoff)
    return LabeledLine(PointedLine((Fraction(0),)), [voa]), voa


def test_pointed_line_validation():
    with pytest.raises(ValueError):
        PointedLine((0, 0))
    with pytest.raises(ValueError):
        PointedLine(())
    line = PointedLine((0, Fraction(1, 2)))
    assert line.points == (Fraction(0), Fraction(1, 2))


def test_section_validation():
    with pytest.raises(ValueError):
        MeromorphicSection(0, poly={0: 1})
    with pytest.raises(ValueError):
        MeromorphicSection(0, poles={(0, 1): 1})  # lone simple pole
    with pytest.raises(ValueError):
        MeromorphicSection(1, poly={1: 1})  # degree > 2d-2
    f = MeromorphicSection(0, poles={(0, 1): 1, (1, 1): -1})
    assert f.pole_order(0) == 1 and f.pole_order(2) == 0


def test_section_basis_counts():
    one = PointedLine((0,))
    two = PointedLine((0, 1))
    assert len(section_basis(one, 1, [2])) == 3  # two poles + constant
    assert len(section_basis(two, 2, [0, 0])) == 3  # polynomials 1, z, z^2
    assert len(section_basis(two, 0, [1, 1])) == 1  # balanced simple poles
    assert len(section_basis(two, 0, [3, 2])) == 4
    assert len(section_basis(two, 0, [1, 0])) == 0


def test_laurent_expand_geometric():
    line = PointedLine((0, 1))
    f = MeromorphicSection(1, poles={(1, 1): Fraction(1)})
    # 1/(z-1) around z=0: -(1 + z + z^2 + ...)
    coeffs = laurent_expand(line, f, 0, 4)
    assert coeffs == {k: Fraction(-1) for k in range(5)}
    # own pole is exact
    assert laurent_expand(line, f, 1, 4) == {-1: Fraction(1)}


def test_laurent_expand_polynomial_shift():
    line = PointedLine((2,))
    f = MeromorphicSection(2, poly={2: Fraction(1)})
    # z^2 = (2 + t)^2 = 4 + 4t + t^2
    assert laurent_expand(line, f, 0, 5) == {
        0: Fraction(4), 1: Fraction(4), 2: Fraction(1)
    }


def test_laurent_expand_double_pole():
    line = PointedLine((0, 3))
    f = MeromorphicSection(2, poles={(1, 2): Fraction(1)})
    # (z-3)^{-2} around 0: sum_k (k+1) 3^{-2-k} z^k
    coeffs = laurent_expand(line, f, 0, 3)
    assert coeffs == {k: Fraction(k + 1, 3 ** (k + 2)) for k in range(4)}


def test_qgvo_single_point_is_a_mode():
    surface, voa = one_point_ising(8)
    for m in (1, 2, 3):
        f = MeromorphicSection(2, poles={(0, m): Fraction(1)})
        got = qgvo_apply(surface, OMEGA, f, {((),): Fraction(1)})
        expect = mode_apply(voa, OMEGA, -m, {(): Fraction(1)})
        assert got == {(lab,): c for lab, c in expect.items()}


def test_qgvo_checks_weight_and_quasi_primary():
    surface, voa = one_point_ising(8)
    f1 = MeromorphicSection(1, poles={(0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        qgvo_apply(surface, OMEGA, f1, {((),): Fraction(1)})
    f3 = MeromorphicSection(3, poles={(0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        qgvo_apply(surface, {(3,): Fraction(1)}, f3, {((),): Fraction(1)})


# -- oracle: the per-tensor, per-slot operator, sharing nothing with slot maps


def _brute_qgvo(surface, a, f, w):
    """Res_{z_i} Y(a, z_i) ι_{z_i}f summed over slots, one tensor at a time."""
    wt = surface.voa.state_degree(a)
    out = {}
    for labs, cf in w.items():
        for i, mod in enumerate(surface.modules):
            n_max = wt + mod.degree_of(labs[i]) - 1
            for n, c in laurent_expand(surface.line, f, i, n_max).items():
                res = mode_apply(mod, a, n, {labs[i]: Fraction(1)})
                for lab2, c2 in res.items():
                    key = labs[:i] + (lab2,) + labs[i + 1:]
                    out[key] = out.get(key, 0) + cf * c * c2
    return {k: v for k, v in out.items() if v}


def _brute_bracket(surface, op1, op2, w):
    """[O1, O2]w = O1(O2 w) - O2(O1 w), composing whole operators."""
    (a, f), (b, g) = op1, op2
    out = dict(_brute_qgvo(surface, a, f, _brute_qgvo(surface, b, g, w)))
    for k, v in _brute_qgvo(surface, b, g, _brute_qgvo(surface, a, f, w)).items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def _ising_two_point():
    voa = ising_model(10)
    line = PointedLine((0, 1))
    mixed = MeromorphicSection(2, poly={0: 1, 2: 3},
                               poles={(0, 1): Fraction(1, 2), (1, 1): -2})
    ops = [(OMEGA, s) for s in section_basis(line, 2, [1, 1])] + [(OMEGA, mixed)]
    return LabeledLine(line, [voa, voa]), [(ops[0], ops[1]), (ops[3], ops[5]),
                                           (ops[2], ops[4])]


def _a1_two_point():
    voa = lattice_model([[2]], cutoff=6)
    line = PointedLine((0, 1))
    states = quasi_primary_space(voa, 1)
    sections = section_basis(line, 1, [1, 1])
    ops = [(a, f) for a in states for f in sections]
    return LabeledLine(line, [voa, voa]), [(ops[0], ops[4]), (ops[1], ops[8]),
                                           (ops[5], ops[6])]


def _ising_three_point():
    voa = ising_model(8)
    sigma = irreducible_model(4, 3, 2, 2, 8, voa=voa)
    eps = irreducible_model(4, 3, 2, 1, 8, voa=voa)
    line = PointedLine((0, 1, -1))
    f = MeromorphicSection(2, poles={(0, 1): Fraction(1)})
    g = MeromorphicSection(2, poly={1: Fraction(1, 3)},
                           poles={(2, 1): Fraction(1), (1, 1): Fraction(-1)})
    return LabeledLine(line, [sigma, eps, voa]), [((OMEGA, f), (OMEGA, g))]


def _a1_module_two_point():
    voa = lattice_model([[2]], cutoff=6)
    omega1 = lattice_model([[2]], [1], cutoff=6, voa=voa)  # two degree-0 labels
    line = PointedLine((0, 1))
    states = quasi_primary_space(voa, 1)
    sections = section_basis(line, 1, [1, 1])
    ops = [(a, f) for a in states for f in sections]
    return LabeledLine(line, [omega1, voa]), [(ops[1], ops[5])]


def _domain(surface, dom_labels):
    """The bracket's domain, rebuilt from the per-slot labels: every pure
    tensor of total degree <= d_dom, where dom_labels[i] is module i's
    labels of degree <= d_dom."""
    mods = surface.modules
    d_dom = max(m.degree_of(lab) for m, labs in zip(mods, dom_labels) for lab in labs)
    for m, labs in zip(mods, dom_labels):
        assert labs == [lab for d in range(d_dom + 1) for lab in m.labels_at(d)]
    return [labs for labs in itertools.product(*dom_labels)
            if sum(m.degree_of(lab) for m, lab in zip(mods, labs)) <= d_dom]


def _tensor_matrix(mats, domain):
    """{(tensor, image tensor): coefficient} of the sum over slots of mats,
    one tensor at a time."""
    out = {}
    for labs in domain:
        for i, mat in enumerate(mats):
            for lab2, c in mat[labs[i]].items():
                key = (labs, labs[:i] + (lab2,) + labs[i + 1:])
                out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("build", [_ising_two_point, _a1_two_point,
                                   _ising_three_point, _a1_module_two_point])
def test_slot_maps_match_per_tensor_oracle(build):
    surface, pairs = build()
    for op1, op2 in pairs:
        dom_labels, comm = _bracket_matrix(surface, op1, op2)
        domain = _domain(surface, dom_labels)
        assert domain
        got: dict = {}
        for (labs, out_labs), c in _tensor_matrix(comm, domain).items():
            got.setdefault(labs, {})[out_labs] = c
        for labs in domain:
            w = {labs: Fraction(1)}
            for a, f in (op1, op2):
                assert qgvo_apply(surface, a, f, w) == _brute_qgvo(surface, a, f, w)
            assert got.get(labs, {}) == _brute_bracket(surface, op1, op2, w)
        assert bracket_closure_check(surface, op1, op2)


def _a1_weight_three():
    voa = lattice_model([[2]], cutoff=6)
    omega1 = lattice_model([[2]], [1], cutoff=6, voa=voa)
    return LabeledLine(PointedLine((0, 1)), [omega1, voa]), 3


def _ising_weight_four():
    voa = ising_model(10)
    sigma = irreducible_model(4, 3, 2, 2, 10, voa=voa)
    return LabeledLine(PointedLine((0, 1)), [sigma, voa]), 4


@pytest.mark.parametrize("build", [_a1_weight_three, _ising_weight_four])
def test_qgvo_matches_oracle_on_multi_label_states(build):
    # Slot maps add each label's cached image scaled by its coefficient in
    # the state; the oracle applies the whole state one tensor at a time.
    surface, wt = build()
    states = [a for a in quasi_primary_space(surface.voa, wt) if len(a) > 1]
    assert states
    labels = [[lab for d in range(3) for lab in m.labels_at(d)] for m in surface.modules]
    sections = section_basis(surface.line, wt, [1, 1])
    assert sections
    for a in states:
        for f in sections:
            for labs in itertools.product(*labels):
                w = {labs: Fraction(1)}
                assert qgvo_apply(surface, a, f, w) == _brute_qgvo(surface, a, f, w)


def _candidate_family(surface, op1, op2, dom_labels):
    """Slot maps of the candidates bracket_closure_check spans."""
    (a, f), (b, g) = op1, op2
    wa, wb = surface.voa.state_degree(a), surface.voa.state_degree(b)
    n = len(surface.line.points)
    return [slot_matrices(surface, c, h, dom_labels)
            for dc in range(1, wa + wb)
            for c in quasi_primary_space(surface.voa, dc)
            for h in section_basis(surface.line, dc, [
                f.pole_order(i) + g.pole_order(i) + (wa + wb - 1 - dc)
                for i in range(n)])]


def _shifted(mats, shifts):
    """mats[i] + shifts[i] * Id on each listed label of slot i."""
    out = [{lab: dict(img) for lab, img in mat.items()} for mat in mats]
    for i, (lab_list, c) in shifts.items():
        for lab in lab_list:
            out[i][lab][lab] = out[i][lab].get(lab, 0) + c
            if not out[i][lab][lab]:
                del out[i][lab][lab]
    return out


def _gram(rows):
    """R R^T for sparse rows R.  Over the rationals a set of rows has the
    rank of its Gram submatrix, which is small."""
    return [[sum((r[k] * s[k] for k in r if k in s), Fraction(0)) for s in rows]
            for r in rows]


def _rank(gram, idx):
    return sympy.Matrix([[gram[i][j] for j in idx] for i in idx]).rank()


@pytest.mark.parametrize("build", [_ising_two_point, _ising_three_point,
                                   _a1_module_two_point])
def test_slot_coordinates_decide_membership_as_the_tensor_matrix(build):
    surface, pairs = build()
    op1, op2 = pairs[0]
    dom_labels, comm = _bracket_matrix(surface, op1, op2)
    domain = _domain(surface, dom_labels)
    c = Fraction(3, 7)
    targets = {
        "bracket": (comm, True),
        # c Id on slot 0 and -c Id on slot 1 add up to the zero operator.
        "balanced shift": (_shifted(comm, {0: (dom_labels[0], c),
                                           1: (dom_labels[1], -c)}), True),
        # T + c Id: only the sum of the a_i(v_i) moves.
        "scalar shift": (_shifted(comm, {0: (dom_labels[0], c)}), False),
        # One diagonal entry above v_0: only a_0(l) - a_0(v_0) moves.
        "diagonal bump": (_shifted(comm, {0: (dom_labels[0][-1:], c)}), False),
    }
    full = _candidate_family(surface, op1, op2, dom_labels)
    n = len(full)
    gram = _gram([_tensor_matrix(mats, domain)
                  for mats in full + [mats for mats, _ in targets.values()]])
    for part in (range(n), range(1, n), range(n - 1)):
        ech = Echelon()
        for i in part:
            ech.add(_slot_coordinates(full[i], dom_labels))
        base_rank = _rank(gram, list(part))
        assert ech.rank == base_rank
        for t, (name, (mats, expect)) in enumerate(targets.items(), start=n):
            in_tensor = _rank(gram, [*part, t]) == base_rank
            assert ech.contains(_slot_coordinates(mats, dom_labels)) == in_tensor, name
            if len(part) == n:
                assert in_tensor == expect, name


def test_bracket_errors_unchanged():
    surface, voa = one_point_ising(10)
    line = PointedLine((0, 1))
    two = LabeledLine(line, [voa, voa])
    f = MeromorphicSection(2, poles={(0, 1): Fraction(1)})
    g = MeromorphicSection(2, poles={(1, 1): Fraction(1)})
    small = ising_model(2)  # the bracket climbs 3 degrees in each slot
    with pytest.raises(TruncationError):
        bracket_closure_check(LabeledLine(line, [small, small]), (OMEGA, f), (OMEGA, g))
    f3 = MeromorphicSection(3, poles={(0, 1): Fraction(1)})
    l3 = {(3,): Fraction(1)}  # L_{-3}1 = L_{-1}omega is not quasi-primary
    with pytest.raises(ValueError, match="quasi-primary"):
        bracket_closure_check(two, (l3, f3), (OMEGA, g))
    f1 = MeromorphicSection(1, poles={(0, 1): Fraction(1)})
    with pytest.raises(ValueError, match="does not match"):
        bracket_closure_check(two, (OMEGA, g), (OMEGA, f1))


def test_bracket_closure_needs_a_degree_0_label(monkeypatch):
    voa = ising_model(10)
    sigma = irreducible_model(4, 3, 2, 2, 10, voa=voa)
    labels_at = sigma.labels_at
    monkeypatch.setattr(sigma, "labels_at", lambda d: labels_at(d) if d else ())
    line = PointedLine((0, 1))
    f = MeromorphicSection(2, poles={(0, 1): Fraction(1)})
    g = MeromorphicSection(2, poles={(1, 1): Fraction(1)})
    with pytest.raises(ValueError, match="degree-0 label"):
        bracket_closure_check(LabeledLine(line, [sigma, voa]), (OMEGA, f), (OMEGA, g))


def test_pure_tensors_enumeration():
    surface, voa = one_point_ising(6)
    labs = _graded_tensors(surface, 3)
    # Ising vacuum dims 1,0,1,1 through degree 3
    assert len(labs) == 3


def test_vacuum_one_point_block_is_one_dimensional():
    surface, voa = one_point_ising(10)
    rep = coinvariant_report(surface, D=10, P=4)
    assert rep.est_per_degree[0] == 1
    assert all(x == 0 for x in rep.est_per_degree[1:])
    assert rep.total == 1
    assert rep.stabilized
    assert rep.total <= rep.theorem_bound
    assert not rep.bound_provisional


def _plain_graded_ranks(surface, D, P, w_max):
    """Pivots per degree of the relation rows, eliminated in the order they
    are built: operator by operator, source by source, forward only."""
    mods = surface.modules
    d_valid = D - (w_max + P - 1)
    tables = [{lab: d for d in range(D + 1) for lab in m.labels_at(d)} for m in mods]
    degree = lambda labs: sum(t[lab] for t, lab in zip(tables, labs))
    leading = lambda row: min(row, key=lambda k: (-degree(k), k))
    pivots = {}
    for da in range(1, w_max + 1):
        for a in quasi_primary_space(surface.voa, da):
            for f in section_basis(surface.line, da, [P] * len(mods)):
                for labs, _ in _graded_tensors(surface, d_valid):
                    row = qgvo_apply(surface, a, f, {labs: Fraction(1)})
                    while row:
                        lead = leading(row)
                        if lead not in pivots:
                            pivots[lead] = row
                            break
                        piv = pivots[lead]
                        scale = row[lead] / piv[lead]
                        for k, v in piv.items():
                            row[k] = row.get(k, 0) - scale * v
                            if not row[k]:
                                del row[k]
    killed = [0] * (D + 1)
    for lead in pivots:
        killed[degree(lead)] += 1
    dims = [0] * (d_valid + 1)
    for _, d in _graded_tensors(surface, d_valid):
        dims[d] += 1
    return [dims[p] - killed[p] for p in range(d_valid + 1)]


@pytest.mark.parametrize("rs", [(2, 1), (2, 2)], ids=["sse", "sss"])
def test_estimate_matches_plain_elimination_in_built_order(rs):
    # coinvariant_report adds its rows sorted by top degree; the graded
    # pivot count of the span must not depend on that.
    voa = ising_model(10)
    sigma = irreducible_model(4, 3, 2, 2, 10, voa=voa)
    third = sigma if rs == (2, 2) else irreducible_model(4, 3, *rs, 10, voa=voa)
    surface = LabeledLine(PointedLine((0, 1, -1)), [sigma, sigma, third])
    rep = coinvariant_report(surface, D=10, P=4)
    assert rep.est_per_degree == _plain_graded_ranks(surface, 10, 4,
                                                     rep.params["w_max"])


@pytest.mark.parametrize("build", [_ising_two_point, _a1_module_two_point])
def test_blocks_leave_the_mode_cache_unchanged(build):
    # Slot maps and relation rows read the cached per-label images in place;
    # an earlier entry must keep its value and key order.
    surface, pairs = build()
    models = list(dict.fromkeys([*surface.modules, surface.voa]))
    coinvariant_report(surface, D=6, P=2)
    before = [(m, {k: list(v.items()) for k, v in m._mode_cache.items()}) for m in models]
    assert any(entries for _, entries in before)
    coinvariant_report(surface, D=6, P=2)
    for op1, op2 in pairs:
        assert bracket_closure_check(surface, op1, op2)
    for m, entries in before:
        assert {k: list(m._mode_cache[k].items()) for k in entries} == entries


def _compose(outer, inner):
    """outer ∘ inner for label maps, as {label: state}."""
    out = {}
    for lab, img in inner.items():
        comp = {}
        for lab2, c in img.items():
            vec_add_scaled(comp, outer[lab2], c)
        out[lab] = comp
    return out


def _two_compose_bracket(surface, op1, op2):
    """_bracket_matrix's earlier form: per slot, the composition A_i B_i on
    the domain, minus the separately built B_i A_i."""
    (a, f), (b, g) = op1, op2
    voa = surface.voa
    wa, wb = voa.state_degree(a), voa.state_degree(b)
    dom_labels, _ = _bracket_matrix(surface, op1, op2)
    d_dom = max(m.degree_of(lab) for m, labs in zip(surface.modules, dom_labels)
                for lab in labs)

    def reach(wt, h):
        return [_labels_upto(m, d_dom + max(0, wt + h.pole_order(i) - 1))
                for i, m in enumerate(surface.modules)]

    A = slot_matrices(surface, a, f, reach(wb, g))
    B = slot_matrices(surface, b, g, reach(wa, f))
    comm = []
    for A_i, B_i, labs in zip(A, B, dom_labels):
        c_i = _compose(A_i, {lab: B_i[lab] for lab in labs})
        for lab, img in _compose(B_i, {lab: A_i[lab] for lab in labs}).items():
            vec_add_scaled(c_i[lab], img, Fraction(-1))
        comm.append(c_i)
    return dom_labels, comm


@pytest.mark.parametrize("build, weight, cutoff", [
    (ising_model, 2, 10), (lambda cutoff: lattice_model([[2]], cutoff=cutoff), 1, 6),
], ids=["ising", "a1"])
def test_bracket_commutator_matches_two_compositions(build, weight, cutoff, monkeypatch):
    # Every ordered section pair of the bracket-closure session: points
    # (0, 1), pole bounds 1, state i % (number of states) with section i.
    voa = build(cutoff)
    line = PointedLine((0, 1))
    surface = LabeledLine(line, [voa, voa])
    states = quasi_primary_space(voa, weight)
    sections = section_basis(line, weight, [1, 1])
    ops = [(states[i % len(states)], f) for i, f in enumerate(sections)]
    verdicts = []
    for op1, op2 in itertools.product(ops, repeat=2):
        dom_labels, comm = _bracket_matrix(surface, op1, op2)
        assert (dom_labels, comm) == _two_compose_bracket(surface, op1, op2)
        verdicts.append(bracket_closure_check(surface, op1, op2))
    monkeypatch.setattr(blocks, "_bracket_matrix", _two_compose_bracket)
    assert [bracket_closure_check(surface, op1, op2)
            for op1, op2 in itertools.product(ops, repeat=2)] == verdicts
    assert all(verdicts)


def test_theorem_bound_ising_vacuum():
    surface, voa = one_point_ising(10)
    bound, provisional = theorem_bound(surface)
    assert bound >= 1 and not provisional


def test_bracket_closure_two_point_vacuum():
    voa = ising_model(8)
    surface = LabeledLine(PointedLine((0, 1)), [voa, voa])
    f = MeromorphicSection(2, poles={(0, 1): Fraction(1)})
    g = MeromorphicSection(2, poles={(1, 1): Fraction(1)})
    assert bracket_closure_check(surface, (OMEGA, f), (OMEGA, g))


def test_rr_h0_values():
    assert rr_h0(0, 2, 0) == 3
    assert rr_h0(0, 1, 3) == 4
    assert rr_h0(1, 1, 0) == 1
    assert rr_h0(1, 0, 0) == 1
    assert rr_h0(0, 0, 0) == 0
    assert rr_h0(1, 2, 3) == 3
    assert rr_h0(2, 1, 2) == "unresolved"
    assert rr_h0(2, 3, 1) == 0  # degree -3
    with pytest.raises(ValueError):
        rr_h0(-1, 0, 0)


def test_rr_matches_section_basis_genus_zero():
    rng = random.Random(20240820)
    for _ in range(30):
        npts = rng.randint(1, 3)
        pts = rng.sample(range(-5, 6), npts)
        line = PointedLine(tuple(pts))
        d = rng.randint(0, 4)
        bounds = [rng.randint(0, 5) for _ in range(npts)]
        expect = rr_h0(0, d, sum(bounds))
        if expect == "unresolved":
            continue
        assert len(section_basis(line, d, bounds)) == expect


def test_m_constant_and_gaps():
    m, gaps = m_constant_and_gaps(0, 3)
    assert m == 1 and all(not g for g in gaps.values())
    m, gaps = m_constant_and_gaps(1, 1)
    assert m == 2 and gaps[1] == [1]
    m, gaps = m_constant_and_gaps(1, 2)
    assert m == 2 and gaps == {1: [1], 2: [1]}


@pytest.mark.parametrize("build, message", [
    (lambda: LabeledLine(PointedLine((0, 1)), [ising_model(2)]),
     "one module per marked point"),
    (lambda: LabeledLine(PointedLine((0, 1)), [ising_model(2), ising_model(2)]),
     "share one VOA model"),
    (lambda: MeromorphicSection(-1), "section weight must be >= 0, got -1"),
    (lambda: MeromorphicSection(1, poles={(0, 0): 1}), "pole order must be >= 1, got 0"),
    # int() truncated each of these: weight 2.9 to 2, degree 1.5 to 1, pole 1.7 to 1.
    (lambda: MeromorphicSection(2.9), "section weight must be an integer, got 2.9"),
    (lambda: MeromorphicSection(2, poly={1.5: 1}), "polynomial degree must be an integer, got 1.5"),
    (lambda: MeromorphicSection(2, poles={(0, 1.7): 1}), "pole order must be an integer, got 1.7"),
    (lambda: MeromorphicSection(2, poles={("0", 1): 1}), "pole point must be an integer, got '0'"),
    # A key that is not a pair raised TypeError: 'int' object is not iterable.
    (lambda: MeromorphicSection(2, poles={5: 1}), r"pole key must be an \(i, m\) pair, got 5"),
    (lambda: MeromorphicSection(2, poles={(0, 1, 2): 1}),
     r"pole key must be an \(i, m\) pair, got \(0, 1, 2\)"),
    (lambda: section_basis(PointedLine((0, 1)), 1, [2]), "one pole bound per point required"),
    (lambda: section_basis(PointedLine((0, 1)), 1, [2, -1]), "pole bound must be >= 0, got -1"),
    (lambda: laurent_expand(PointedLine((0,)), MeromorphicSection(1), 1, 3),
     "invalid point index"),
    (lambda: laurent_expand(PointedLine((0,)), MeromorphicSection(1), -1, 3),
     "invalid point index"),
    # headroom w_max + P - 1 = 3 exceeds D = 2
    (lambda: coinvariant_report(one_point_ising(4)[0], D=2, P=2, w_max=2),
     "no valid range below headroom"),
    (lambda: coinvariant_report(one_point_ising(4)[0], D=6, P=1, w_max=1),
     "module cutoffs must reach the degree cutoff D"),
    (lambda: m_constant_and_gaps(0, 0), "r_U must be >= 1"),
], ids=["module-count", "mixed-voas", "negative-weight", "pole-order-0", "float-weight",
         "float-degree", "float-pole-order", "string-pole-point", "pole-key-int",
         "pole-key-triple",
        "bounds-count", "negative-bound", "point-past-end", "negative-point",
        "D-below-headroom", "cutoff-below-D", "r_U-0"])
def test_blocks_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
