"""Coinvariants over the pointed rational line, with exact section calculus.

Meromorphic sections of κ^{1-d} are stored as partial fractions over exact
rational points, expanded locally by binomial series, and paired with
quasi-primary states to act on tensor products of modules.  The dimension
estimator works degree by degree on the associated graded space; the
genus-g pole-order calculus is numeric only (Riemann-Roch).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    TruncatedModel,
    TruncationError,
    _integer,
    _mode_label,
    binom,
    l1_apply,
    quasi_primary_space,
)
from .finiteness import (_WINDOW_FLOOR, SubspaceSpec, _stabilized, complement_U,
                         quotient_report)
from .linalg import Echelon, vec_add_scaled


# ---------------------------------------------------------------------------
# Pointed lines and sections


@dataclass(frozen=True)
class PointedLine:
    """N distinct rational points on the affine chart; infinity unmarked."""

    points: tuple

    def __post_init__(self):
        pts = tuple(Fraction(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise ValueError("marked points must be pairwise distinct")
        if not pts:
            raise ValueError("at least one marked point required")


@dataclass
class LabeledLine:
    line: PointedLine
    modules: list

    def __post_init__(self):
        if len(self.modules) != len(self.line.points):
            raise ValueError("one module per marked point")
        voa = self.modules[0].voa
        if any(m.voa is not voa for m in self.modules):
            raise ValueError("all modules must share one VOA model")

    @property
    def voa(self) -> TruncatedModel:
        return self.modules[0].voa


class MeromorphicSection:
    """f(z)(dz)^{1-d} in partial fractions: poly part plus (z-Q_i)^{-m} parts.

    For d >= 1 the polynomial degree is capped at 2d-2 (holomorphy at
    infinity); for d = 0 (sections of κ) there is no polynomial part and the
    simple-pole coefficients must cancel in total (residue theorem).
    """

    def __init__(self, weight: int, poly: Mapping[int, Fraction] | None = None,
                 poles: Mapping[tuple, Fraction] | None = None):
        poly, poles = dict(poly or {}), dict(poles or {})
        self.weight = _integer(weight, "section weight", 0)
        for j in poly:
            _integer(j, "polynomial degree", 0)
        for key in poles:
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"pole key must be an (i, m) pair, got {key!r}")
            _integer(key[0], "pole point")
            _integer(key[1], "pole order", 1)
        self.poly = {j: Fraction(c) for j, c in poly.items() if c}
        self.poles = {(i, m): Fraction(c) for (i, m), c in poles.items() if c}
        if self.weight == 0:
            if self.poly:
                raise ValueError("weight-0 sections carry no polynomial part")
            res = sum((c for (i, m), c in self.poles.items() if m == 1),
                      Fraction(0))
            if res:
                raise ValueError("simple-pole residues must cancel in total")
        else:
            if any(j > 2 * self.weight - 2 for j in self.poly):
                raise ValueError("polynomial degree exceeds 2d-2")

    def pole_order(self, i: int) -> int:
        return max((m for (j, m) in self.poles if j == i), default=0)


def section_basis(line: PointedLine, d: int,
                  pole_bounds: Sequence[int]) -> list[MeromorphicSection]:
    """Basis of sections of κ^{1-d} with pole order <= bound_i at Q_i."""
    _integer(d, "d", 0)
    n = len(line.points)
    bounds = [_integer(b, "pole bound", 0) for b in pole_bounds]
    if len(bounds) != n:
        raise ValueError("one pole bound per point required")
    out: list[MeromorphicSection] = []
    if d >= 1:
        for i in range(n):
            for m in range(1, bounds[i] + 1):
                out.append(MeromorphicSection(d, poles={(i, m): Fraction(1)}))
        for j in range(2 * d - 1):
            out.append(MeromorphicSection(d, poly={j: Fraction(1)}))
        return out
    for i in range(n):
        for m in range(2, bounds[i] + 1):
            out.append(MeromorphicSection(0, poles={(i, m): Fraction(1)}))
    anchor = next((i for i in range(n) if bounds[i] >= 1), None)
    if anchor is not None:
        for i in range(n):
            if i != anchor and bounds[i] >= 1:
                out.append(MeromorphicSection(0, poles={
                    (i, 1): Fraction(1), (anchor, 1): Fraction(-1)
                }))
    return out


def laurent_expand(line: PointedLine, f: MeromorphicSection, i: int,
                   order_cutoff: int) -> dict[int, Fraction]:
    """Exact coefficients of ι_{z_i} f from -pole_order(i) to order_cutoff."""
    if not (0 <= i < len(line.points)):
        raise ValueError("invalid point index")
    q = line.points[i]
    out: dict[int, Fraction] = {}
    for j, c in f.poly.items():
        # z^j = (q + z_i)^j
        vec_add_scaled(out, {k: binom(j, k) * q ** (j - k)
                             for k in range(min(j, order_cutoff) + 1)}, c)
    for (jj, m), c in f.poles.items():
        if jj != i:
            # (z - Q_j)^{-m} = (delta + z_i)^{-m}, delta = Q_i - Q_j != 0
            delta = q - line.points[jj]
            vec_add_scaled(out, {k: binom(-m, k) * delta ** (-m - k)
                                 for k in range(order_cutoff + 1)}, c)
        elif -m <= order_cutoff:
            vec_add_scaled(out, {-m: Fraction(1)}, c)
    return out


# ---------------------------------------------------------------------------
# Quasi-global vertex operators on tensor states
#
# A quasi-global operator (a, f) is a sum over slots, each term acting on
# one tensor factor only: slot i sends a label w of module i to
# Res_{z_i} Y(a, z_i) ι_{z_i}f w.  Every computation below builds these
# single-module slot maps once per operator, on the labels it needs, and
# embeds them over pure tensors.


def _graded_tensors(surface: LabeledLine, max_degree: int) -> list[tuple]:
    """(labels, total degree) for every pure tensor of degree <= max_degree."""
    out: list[tuple] = [((), 0)]
    for m in surface.modules:
        nxt = []
        for labs, used in out:
            for d in range(max_degree - used + 1):
                for lab in m.labels_at(d):
                    nxt.append((labs + (lab,), used + d))
        out = nxt
    return out


def _labels_upto(mod: TruncatedModel, degree: int) -> list:
    return [lab for d in range(degree + 1) for lab in mod.labels_at(d)]


def slot_matrices(surface: LabeledLine, a: Mapping, f: MeromorphicSection,
                  labels: Sequence) -> list[dict]:
    """Per slot i, {w: Res_{z_i} Y(a, z_i) ι_{z_i}f w} for w in labels[i].

    The operator (a, f) is the sum over slots of these single-module maps.
    Raises ValueError if wt a differs from the section weight, or if a is
    not quasi-primary.
    """
    voa = surface.voa
    wt_a = voa.state_degree(a)
    if wt_a is None:
        return [{lab: {} for lab in labs} for labs in labels]
    if wt_a != f.weight:
        raise ValueError(f"state weight {wt_a} does not match section weight "
                         f"{f.weight}")
    if l1_apply(voa, a):
        raise ValueError("quasi-global operators require a quasi-primary state")
    out = []
    for i, (mod, labs) in enumerate(zip(surface.modules, labels)):
        degrees = {lab: mod.degree_of(lab) for lab in labs}
        mat: dict = {}
        if degrees:
            # a(n)w vanishes for n > wt a + deg w - 1 (its degree is < 0).
            coeffs = laurent_expand(surface.line, f, i,
                                    wt_a + max(degrees.values()) - 1)
            # Each product ac * c is formed once per slot, not once per label.
            terms = [(n, alab, ac * c) for n, c in coeffs.items() for alab, ac in a.items()]
            # The cached images are shared with the mode cache: read only.
            for lab, deg in degrees.items():
                img: dict = {}
                top = wt_a + deg
                for n, alab, cf in terms:
                    if n < top:
                        vec_add_scaled(img, _mode_label(mod, alab, n, lab), cf)
                mat[lab] = img
        out.append(mat)
    return out


def _tensor_image(mats: Sequence[dict], labs: tuple) -> dict:
    """Image of the pure tensor labs under the sum over slots of mats[i]."""
    out: dict = {}
    for i, mat in enumerate(mats):
        vec_add_scaled(out, {labs[:i] + (lab2,) + labs[i + 1:]: c
                             for lab2, c in mat[labs[i]].items()}, 1)
    return out


def qgvo_apply(surface: LabeledLine, a: Mapping, f: MeromorphicSection,
               w: Mapping) -> dict:
    """Sum over slots of Res_{z_i} Y(a, z_i) ι_{z_i}f on a tensor state.

    w maps tuples of module basis labels to coefficients.
    """
    labels = [list(dict.fromkeys(labs[i] for labs in w))
              for i in range(len(surface.modules))]
    mats = slot_matrices(surface, a, f, labels)
    out: dict = {}
    for labs, cf in w.items():
        vec_add_scaled(out, _tensor_image(mats, labs), cf)
    return out


# ---------------------------------------------------------------------------
# Lie-closure of quasi-global operators


def _slot_coordinates(mats: Sequence[dict], dom_labels: Sequence[list]) -> dict:
    """Coordinates that vanish iff T = sum over slots of A_i = mats[i] does on
    the pure tensors of degree <= d_dom; dom_labels[i] is slot i's labels of
    degree <= d_dom, a degree-0 label v_i first.

    An image tensor that differs from its source in slot i alone comes from
    A_i alone, so each off-diagonal entry (i, l, l') must vanish.  With every
    other slot at its v_j, the diagonal of T is a sum of a_i(l) = A_i[l <- l]
    that vanishes iff each a_i is constant and the constants sum to 0: the
    coordinates a_i(l) - a_i(v_i) at (i, l, l) and sum_i a_i(v_i) at ().
    """
    base = [mat[labs[0]].get(labs[0], 0) for mat, labs in zip(mats, dom_labels)]
    total = sum(base)
    out: dict = {(): total} if total else {}
    for i, (mat, labs) in enumerate(zip(mats, dom_labels)):
        for lab in labs:
            out.update(((i, lab, lab2), c) for lab2, c in mat[lab].items() if lab2 != lab)
            diff = mat[lab].get(lab, 0) - base[i]
            if diff:
                out[(i, lab, lab)] = diff
    return out


def _bracket_matrix(surface: LabeledLine, op1: tuple, op2: tuple):
    """(per-slot domain labels, per-slot commutators [A_i, B_i] on them).

    The domain is every pure tensor of degree <= d_dom, the largest degree
    from which both orders of composition stay within every cutoff.  Slots
    act on different tensor factors, so [op1, op2] is the sum over slots of
    the single-module commutators [A_i, B_i].
    """
    (a, f), (b, g) = op1, op2
    voa = surface.voa
    wa, wb = voa.state_degree(a), voa.state_degree(b)
    raise_total = max(
        (wa + f.pole_order(i) - 1) + (wb + g.pole_order(i) - 1)
        for i in range(len(surface.line.points))
    )
    raise_total = max(raise_total, 0)
    min_cut = min(m.cutoff for m in surface.modules)
    d_dom = min_cut - raise_total
    if d_dom < 0:
        raise TruncationError("module cutoffs too small for the bracket domain")
    if not all(m.labels_at(0) for m in surface.modules):
        raise ValueError("bracket closure needs a degree-0 label in every module")
    dom_labels = [_labels_upto(m, d_dom) for m in surface.modules]

    # Each slot map also acts on the other's images, which climb by at most
    # wt + pole order - 1 above the domain.
    def reach(wt: int, h: MeromorphicSection) -> list[list]:
        return [_labels_upto(m, d_dom + max(0, wt + h.pole_order(i) - 1))
                for i, m in enumerate(surface.modules)]

    A = slot_matrices(surface, a, f, reach(wb, g))
    B = slot_matrices(surface, b, g, reach(wa, f))
    # [A_i, B_i] on each domain label in one pass: A_i B_i, then - B_i A_i.
    comm = []
    for A_i, B_i, labs in zip(A, B, dom_labels):
        c_i: dict = {}
        for lab in labs:
            img = c_i[lab] = {}
            for lab2, c in B_i[lab].items():
                vec_add_scaled(img, A_i[lab2], c)
            for lab2, c in A_i[lab].items():
                vec_add_scaled(img, B_i[lab2], -c)
        comm.append(c_i)
    return dom_labels, comm


def bracket_closure_check(surface: LabeledLine, op1: tuple, op2: tuple) -> bool:
    """Is [op1, op2], restricted to a truncated domain, a combination of
    quasi-global operators?

    The candidate family covers weights up to wt a + wt b - 1 with pole
    bounds ord_i f + ord_i g + (wt a + wt b - 1 - wt c), which is where the
    bracket's section data can live.

    Each operator is a sum over slots of single-module maps A_i; it vanishes
    iff every off-diagonal entry of each A_i does and each a_i(l) = A_i[l <- l]
    is constant, the constants summing to 0.  Elimination runs on these
    coordinates, with the pure-tensor matrices' kernel, ranks and verdicts.
    """
    dom_labels, comm = _bracket_matrix(surface, op1, op2)
    target = _slot_coordinates(comm, dom_labels)
    if not target:
        return True
    (a, f), (b, g) = op1, op2
    voa = surface.voa
    wa, wb = voa.state_degree(a), voa.state_degree(b)
    ech = Echelon()
    for dc in range(1, wa + wb):
        bounds = [f.pole_order(i) + g.pole_order(i) + (wa + wb - 1 - dc)
                  for i in range(len(surface.line.points))]
        cands = quasi_primary_space(voa, dc)
        if not cands:
            continue
        sections = section_basis(surface.line, dc, bounds)
        for c_state in cands:
            for h in sections:
                coords = _slot_coordinates(
                    slot_matrices(surface, c_state, h, dom_labels), dom_labels)
                if coords:
                    ech.add(coords)
    return ech.contains(target)


# ---------------------------------------------------------------------------
# Coinvariant dimension estimation


@dataclass
class CoinvariantReport:
    est_per_degree: list
    d_valid: int
    total: int
    stabilized: bool
    theorem_bound: int
    bound_provisional: bool
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def coinvariant_report(surface: LabeledLine, D: int, P: int,
                       w_max: int | None = None) -> CoinvariantReport:
    """Graded estimate of the coinvariant dimensions on the pointed line.

    Relations are quasi-global operator images with quasi-primary states of
    weight <= w_max, sections with pole bounds P, and source tensors of
    degree <= D - H where the headroom H = w_max + P - 1 caps how far a
    relation can climb; est_p is exact-by-construction for p <= D - H.

    Rows pivot on their highest-degree component, so the pivot count at
    degree p is the dimension of the degree-p graded piece of the relation
    span.  With a fixed pivot order a fully reduced echelon form is unique
    for its span, so the order of the rows does not change any count.  They
    are added in ascending top degree.  A stored row holds nothing above its
    own pivot's degree, so back-substitution then reaches only rows whose
    pivot lies between the new pivot's degree and the new row's top degree,
    mostly rows of the same degree.  Stabilization is the quotient reports'
    test at their floor window.  ``complement_U`` runs once: its r_U is the
    default w_max, and its U gives ``theorem_bound``, which is always computed.
    """
    _integer(D, "D", 0)
    _integer(P, "P", 0)
    voa = surface.voa
    U, r_u, _ = complement_U(voa)
    w_max = r_u if w_max is None else _integer(w_max, "w_max", 1)
    h = w_max + P - 1
    d_valid = D - h
    if d_valid < 0:
        raise ValueError("degree cutoff D leaves no valid range below headroom")
    if any(m.cutoff < D for m in surface.modules):
        raise ValueError("module cutoffs must reach the degree cutoff D")
    n = len(surface.line.points)
    graded = _graded_tensors(surface, d_valid)
    source_labels = [_labels_upto(m, d_valid) for m in surface.modules]
    # A relation from a source of degree <= d_valid stays within degree D.
    degree = [m.degrees for m in surface.modules]
    ops = [slot_matrices(surface, a, f, source_labels)
           for da in range(1, w_max + 1)
           for a in quasi_primary_space(voa, da)
           for f in section_basis(surface.line, da, [P] * n)]
    # A relation's top degree is its source's degree plus the largest climb
    # of one slot: slot i moves only the i-th label, by at most climbs[i]
    # of that label.  Slots with an empty image do not count.
    order = []
    for o, mats in enumerate(ops):
        climbs = [{lab: max(dg[k] for k in img) - dg[lab]
                   for lab, img in mat.items() if img}
                  for dg, mat in zip(degree, mats)]
        for s, (labs, d) in enumerate(graded):
            c = max((cl[lab] for cl, lab in zip(climbs, labs) if lab in cl),
                    default=None)
            if c is not None:
                order.append((d + c, o, s))
    order.sort()
    last = {o: i for i, (_, o, _) in enumerate(order)}
    # Pivot keys are (D - degree, label), so the pivot is a relation's
    # highest-degree component.  Each row is built when it is added, and an
    # operator's slot maps are dropped after its last row, so they give way
    # to the echelon form as it grows.
    ech = Echelon()
    for i, (_, o, s) in enumerate(order):
        labs, d = graded[s]
        rel: dict = {}
        for j, (dg, mat) in enumerate(zip(degree, ops[o])):
            # _tensor_image's slot-j terms, keyed for the pivot: an image
            # differs from labs in slot j alone, so its degree is d plus
            # that slot's change.
            top = D - d + dg[labs[j]]
            vec_add_scaled(rel, {(top - dg[lab2], labs[:j] + (lab2,) + labs[j + 1:]): c
                                 for lab2, c in mat[labs[j]].items()}, 1)
        if last[o] == i:
            ops[o] = None
        if rel:
            ech.add(rel)
    killed = [0] * (D + 1)
    for (dk, _labs) in ech.pivot_rows:
        killed[D - dk] += 1
    dims = [0] * (d_valid + 1)
    for _, d in graded:
        dims[d] += 1
    est = [dims[p] - killed[p] for p in range(d_valid + 1)]
    bound, provisional = theorem_bound(surface, U)
    return CoinvariantReport(
        est, d_valid, sum(est), _stabilized(est, _WINDOW_FLOOR), bound, provisional,
        params={"D": D, "P": P, "w_max": w_max,
                "points": [str(p) for p in surface.line.points]},
    )


def theorem_bound(surface: LabeledLine,
                  U: Sequence[Mapping] | None = None) -> tuple[int, bool]:
    """Product over slots of the cumulative dims of W^i/C_M(U, W^i).

    U is ``complement_U(surface.voa)``'s, computed here unless given.  At
    genus zero M = 1 for every r_U (``m_constant_and_gaps(0, r_U)``); the
    bound is provisional unless every factor's quotient report is
    stabilized.  A module object that fills several slots is reported on
    once.
    """
    if U is None:
        U = complement_U(surface.voa)[0]
    spec = SubspaceSpec("cmu", m=1, U=tuple(U))
    reports: dict = {}
    bound = 1
    provisional = False
    for mod in surface.modules:
        if id(mod) not in reports:
            reports[id(mod)] = quotient_report(mod, spec)
        rep = reports[id(mod)]
        bound *= rep.cumulative
        provisional = provisional or not rep.stabilized
    return bound, provisional


# ---------------------------------------------------------------------------
# Riemann-Roch pole-order calculus (numeric; any genus)


def rr_h0(g: int, n: int, m: int):
    """h^0(kappa^{1-n}(mQ)) when Riemann-Roch determines it; else "unresolved".

    deg = (1-n)(2g-2) + m; for deg > 2g-2 the answer is deg + 1 - g, for
    deg < 0 it is 0.  The two unconditional special cases are the trivial
    bundle (n = 1, m = 0) and kappa itself (n = 0, m = 0).
    """
    for name, value in (("g", g), ("n", n), ("m", m)):
        _integer(value, name, 0)
    if n == 1 and m == 0:
        return 1
    if n == 0 and m == 0:
        return g
    deg = (1 - n) * (2 * g - 2) + m
    if deg > 2 * g - 2:
        return deg + 1 - g
    if deg < 0:
        return 0
    return "unresolved"


def m_constant_and_gaps(g: int, r_u: int) -> tuple[int, dict]:
    """(M, gaps): M is the least pole order from which, for every weight
    n <= r_u, sections with any exact pole order >= M are certified; gaps[n]
    lists the smaller orders whose existence Riemann-Roch cannot certify.
    """
    _integer(g, "g", 0)
    _integer(r_u, "r_U", 1)
    gaps: dict[int, list] = {}
    M = 1
    for n in range(1, r_u + 1):
        m0 = 1 if g == 0 else n * (2 * g - 2) + 2
        m0 = max(m0, 1)
        gap_list = []
        for m in range(1, m0):
            lo, hi = rr_h0(g, n, m - 1), rr_h0(g, n, m)
            certified = (isinstance(lo, int) and isinstance(hi, int)
                         and hi == lo + 1)
            if not certified:
                gap_list.append(m)
        gaps[n] = gap_list
        M = max(M, m0)
    return M, gaps
