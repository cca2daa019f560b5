"""Mode-generated subspaces and quotient-dimension machinery.

C_n(W), B1(W), C_m(U,W) spans, quotient reports with stabilization
verdicts, complements of C2(V) inside ker L1, the strictly-decreasing-mode
spanning check, the explicit C_k ⊂ C_m(U,W) bound, and constructive
reduction certificates for a(-q)w with q >= m wt a.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    State,
    TruncatedModel,
    VerificationError,
    _integer,
    binom,
    mode_apply,
    quasi_primary_space,
)
from .linalg import Echelon, SolverEchelon, vec_add_scaled


# ---------------------------------------------------------------------------
# Subspace specifications


@dataclass(frozen=True)
class SubspaceSpec:
    """Which mode-generated subspace of a module to span.

    kind "cn": span of a(-n)w over all VOA a;  kind "b1": span of a(-1)w
    with wt a > 0;  kind "cmu": span of a(-k)w over a in U, k >= m.
    """

    kind: str
    n: int = 2
    m: int = 1
    U: tuple = ()

    def __post_init__(self):
        if self.kind not in ("cn", "b1", "cmu"):
            raise ValueError(f"unknown subspace kind {self.kind!r}")
        if self.kind == "cn":
            _integer(self.n, "n", 2)
        if self.kind == "cmu":
            _integer(self.m, "m", 1)
            if not self.U:
                raise ValueError("generator set U required")


@dataclass
class QuotientReport:
    per_degree: list
    cumulative: int
    stabilized: bool
    window: int

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Complements of C2 inside ker L1


def complement_U(model: TruncatedModel) -> tuple[list[State], int, int]:
    """Graded basis of a complement of C2(V) chosen inside ker L1.

    Returns (U, r_U, s_U) where r_U = s_U = the maximal weight occurring
    in U.  Fails if ker L1 cannot complete C2(V) at some degree, which
    signals a model that is not quasi-primary generated.

    ker L1 is not computed at a degree that C2 fills: at full rank every
    further ``add`` returns False, so skipping it yields the same U exactly.
    """
    if not model.is_voa:
        raise ValueError("complement_U expects a VOA model")
    if model.dim(0) != 1:
        raise ValueError("V(0) must be one-dimensional")
    U: list[State] = []
    max_wt = 0
    for d, ech in enumerate(_graded_spans(model, SubspaceSpec("cn", n=2))):
        if ech.rank < model.dim(d):
            for vec in quasi_primary_space(model, d):
                if ech.add(vec):
                    U.append(dict(vec))
                    max_wt = max(max_wt, d)
        if ech.rank != model.dim(d):
            raise VerificationError(
                f"ker L1 does not complement C2(V) at degree {d}: "
                f"rank {ech.rank} < dim {model.dim(d)}"
            )
    return U, max_wt, max_wt


# ---------------------------------------------------------------------------
# Degreewise spans


def _span_terms(module: TruncatedModel, spec: SubspaceSpec, d: int):
    """Recipes (a_state, n, wlab) of the generators a(-n)wlab of degree d.

    The grading equation d = deg a + deg w + n - 1 fixes deg w, so every
    recipe of the degree is listed, in order of a's weight (U's order for
    "cmu"), a's label, n and w's label.  The vacuum never appears as a
    generator state: its only nonzero mode is the identity, which would
    trivialize the m = 1 quotients.  No mode is applied here, so a caller
    builds only the generators it needs.
    """
    voa = module.voa
    if spec.kind == "cmu":
        heads = [(u, wt, n) for u in spec.U if (wt := voa.state_degree(u))
                 for n in range(spec.m, d + 2 - wt)]
    else:
        n = spec.n if spec.kind == "cn" else 1
        heads = [({alab: Fraction(1)}, wa, n) for wa in range(1, d + 2 - n)
                 for alab in voa.labels_at(wa)]
    for a_state, wt_a, n in heads:
        for wlab in module.labels_at(d - wt_a - n + 1):
            yield a_state, n, wlab


def _c2_terms(module: TruncatedModel, gens: Sequence[tuple], spans: Sequence[Echelon],
              d: int):
    """Recipes (t_state, n, w_state) whose t(-n)w span C2(W) at degree d.

    First t(-n)w for every generator t of weight wt (``gens`` lists (t, wt)
    by weight and label), every n >= 2 and every basis w of degree
    d - wt - n + 1; then s(-1)x for every generator s and every stored row x
    of the echelon of degree d - wt s.  ``_graded_spans`` says why these
    span C2(W).
    """
    for t, wt in gens:
        for n in range(2, d + 2 - wt):
            for wlab in module.labels_at(d - wt - n + 1):
                yield {t: Fraction(1)}, n, {wlab: Fraction(1)}
    for s, wt in gens:
        if wt > d:
            break
        for x in spans[d - wt].pivot_rows.values():
            yield {s: Fraction(1)}, 1, x


def _graded_spans(module: TruncatedModel, spec: SubspaceSpec) -> list[Echelon]:
    """One echelon per degree, spanning the generators of ``spec``.

    Each degree walks its own recipes and stops once its rank reaches
    dim W(d).  This is exact: at full rank every further ``add`` returns
    False and leaves the echelon unchanged, so the ranks are those of the
    whole ``subspace_span`` list.  A generator that is never needed is
    never built, so it can no longer raise a ``TruncationError``.  A caller
    that owns further vectors adds them after the walk: a degree the walk
    left short holds every generator, so the ranks are those of both lists.

    C2(W) (spec "cn" with n = 2) is walked from generator modes instead of
    a(-2)w over every basis state a (``_c2_terms``).  Let S be the VOA's
    generator labels.  Every other label a of positive weight is s(-k)c
    with s in S, k >= 1 and wt c < wt a, so S strongly generates V.  Let G be
    the smallest subspace that holds every t(-n)w (t in S, n >= 2) and is
    closed under every s(-1), s in S.  Then G = C2(W):

    * G ⊆ C2: t(-n) = ((L_{-1})^(n-2) t)(-2) / (n-2)!, and C2 is closed
      under s(-1), since s(-1)b(-2)w = b(-2)s(-1)w
      + sum_j C(-1, j) (s(j)b)(-3-j)w and every x(-3-j) lies in C2.
    * C2 ⊆ G: a(-m)w lies in G for m >= 2, by induction on wt a through
      the associativity formula of ``core._iterate_formula``:
      (s(-k)c)(-m)w = sum_i C(k+i-1, i) s(-k-i)(c(-m+i)w)
                      - (-1)^k sum_i C(k+i-1, i) c(-k-m-i)(s(i)w).
      A term with k + i >= 2 is a generator of G.  The one term with
      k + i = 1 is s(-1)(c(-m)w), where c(-m)w lies in G by induction.  The
      second sum has modes <= -3 on c, with wt c < wt a: induction again.

    Degrees are walked in ascending order and each stops only at full
    rank, so when degree d is walked the rows of degree d - wt s are a
    basis of C2(W) there, and s(-1) on those rows is all of s(-1)G.  The
    trick is C2's alone: on Heisenberg at degree 4, C3 holds
    h(-2)h(-2)1, which no h(-k)w with k >= 3 reaches.  So every other spec
    keeps its definitional recipes (``_span_terms``).
    """
    c2 = spec.kind == "cn" and spec.n == 2
    spans = [Echelon() for _ in range(module.cutoff + 1)]
    voa = module.voa
    gens = [(t, wt) for wt in range(1, module.cutoff + 1) for t in voa.labels_at(wt)
            if voa.decompose(t)[0] == "gen"] if c2 else ()
    for d, ech in enumerate(spans):
        if c2:
            terms = _c2_terms(module, gens, spans, d)
        else:
            terms = ((a, n, {wlab: Fraction(1)}) for a, n, wlab in _span_terms(module, spec, d))
        for a_state, n, w in terms:
            if ech.rank == module.dim(d):
                break
            vec = mode_apply(module, a_state, -n, w)
            if vec:
                ech.add(vec)
    return spans


def subspace_span(module: TruncatedModel, spec: SubspaceSpec) -> list[tuple[int, State]]:
    """Complete graded generator list (d, a(-n)w) of the subspace up to cutoff.

    The list runs degree by degree; within a degree it keeps ``_span_terms``'
    order, and a zero generator is left out.
    """
    return [(d, vec) for d in range(module.cutoff + 1)
            for a_state, n, wlab in _span_terms(module, spec, d)
            if (vec := mode_apply(module, a_state, -n, {wlab: Fraction(1)}))]


def _decreasing_monomials(voa: TruncatedModel, U: Sequence[Mapping],
                          cutoff: int) -> list[State]:
    """Nonempty u1(-n1)...uk(-nk)1 with n1 > ... > nk > 0, ui in U, up to cutoff."""
    pos = [u for u in U if voa.state_degree(u)]
    out: list[State] = []

    # Modes grow strictly from the innermost factor outward, so the leftmost
    # (outermost) mode n1 is the largest, as the spanning statement requires.
    def rec(state: State, n_min: int, weight: int) -> None:
        if weight > 0:
            out.append(state)
        for n in range(n_min, cutoff + 2):
            for u in pos:
                new_wt = weight + voa.state_degree(u) + n - 1
                if new_wt > cutoff:
                    continue
                new = mode_apply(voa, u, -n, state)
                if new:
                    rec(new, n + 1, new_wt)

    rec({voa.vacuum: Fraction(1)}, 1, 0)
    return out


# The default number of top degrees a stabilization verdict reads.
_WINDOW_FLOOR = 3


def _stabilized(per_degree: Sequence[int], window: int) -> bool:
    """The one stabilization test: the top ``window`` degrees are all zero."""
    return len(per_degree) >= window and not any(per_degree[-window:])


def quotient_report(module: TruncatedModel, spec: SubspaceSpec,
                    window: int | None = None) -> QuotientReport:
    """Per-degree dims of W/span(spec); stabilized when the tail is zero.

    The default window is the floor, or U's top weight if that is larger.
    """
    if window is None:
        r_u = 0
        if spec.U:
            r_u = max(module.voa.state_degree(u) or 0 for u in spec.U)
        window = max(_WINDOW_FLOOR, r_u)
    _integer(window, "window", 1)
    spans = _graded_spans(module, spec)
    per_degree = [module.dim(d) - ech.rank for d, ech in enumerate(spans)]
    return QuotientReport(per_degree, sum(per_degree),
                          _stabilized(per_degree, window), window)


def spanning_set_check(model: TruncatedModel, U: Sequence[Mapping]) -> list[bool]:
    """Degreewise: do strictly-decreasing-mode U-monomials span V?"""
    if not model.is_voa:
        raise ValueError("spanning_set_check expects a VOA model")
    spans = [Echelon() for _ in range(model.cutoff + 1)]
    spans[0].add({model.vacuum: Fraction(1)})
    for s in _decreasing_monomials(model, U, model.cutoff):
        spans[model.state_degree(s)].add(s)
    return [ech.rank == model.dim(d) for d, ech in enumerate(spans)]


# ---------------------------------------------------------------------------
# The explicit C_k ⊂ C_m(U,W) bound


def bound_k(s_u: int, m: int) -> int:
    """k = k0*m with k0 = ceil((s_U + m - 1/2)^2 / 2)."""
    _integer(s_u, "s_U", 1)
    _integer(m, "m", 1)
    num = (2 * (s_u + m) - 1) ** 2  # (s+m-1/2)^2 * 4
    k0 = -((-num) // 8)  # ceil(num/8)
    return k0 * m


# ---------------------------------------------------------------------------
# Reduction certificates


@dataclass
class ReductionCertificate:
    """Exact rewriting of a(-q)w as sum coeff * u(-n) w' with u in U, n >= m."""

    a: State
    q: int
    w: State
    m: int
    entries: list = field(default_factory=list)  # (u: State, n: int, state, coeff)

    def replay(self, module: TruncatedModel) -> State:
        out: State = {}
        for u, n, state, coeff in self.entries:
            vec_add_scaled(out, mode_apply(module, u, -n, state), coeff)
        return out

    def verify(self, module: TruncatedModel) -> bool:
        target = mode_apply(module, self.a, -self.q, self.w)
        return self.replay(module) == target


def _u_split(voa: TruncatedModel, U: Sequence[Mapping]):
    """split(a) = (U part, C2 part) with a = sum lam_u * U[u] + sum mu_(b',c) * b'(-2)c.

    Each weight's solver holds that weight's U vectors first, then its C2
    recipes until the rank is full; a further pair could change no row.
    """
    c2 = SubspaceSpec("cn", n=2)
    solvers: dict[int, SolverEchelon] = {}

    def split(a: Mapping) -> tuple[dict, dict]:
        wt = voa.state_degree(a)
        se = solvers.get(wt)
        if se is None:
            se = solvers[wt] = SolverEchelon()
            for idx, u in enumerate(U):
                if voa.state_degree(u) == wt:
                    se.add(u, ("u", idx))
            for a_state, n, blab in _span_terms(voa, c2, wt):
                if se.rank == voa.dim(wt):
                    break
                vec = mode_apply(voa, a_state, -n, {blab: Fraction(1)})
                if vec:
                    (alab,) = a_state
                    se.add(vec, ("c2", alab, blab))
        expr = se.solve(a)
        if expr is None:
            raise VerificationError("U does not complement C2(V) at this weight")
        u_part = {k[1]: v for k, v in expr.items() if k[0] == "u"}
        c2_part = {(k[1], k[2]): v for k, v in expr.items() if k[0] == "c2"}
        return u_part, c2_part

    return split


def reduce_certificate(module: TruncatedModel, a: Mapping, q: int, w: Mapping,
                       U: Sequence[Mapping], m: int) -> ReductionCertificate:
    """Constructive membership a(-q)w in C_m(U,W) for q >= m wt a.

    The recursion mirrors the inductive proof: split a into its U part and
    C2 generators b'(-2)c, rewrite b'(-2)c = (L_{-1}b')(-1)c = b(-1)c, and
    reduce each term through the associativity and commutator formulas;
    every recursive call strictly decreases wt a.
    """
    _integer(q, "q")
    _integer(m, "m", 1)
    voa = module.voa
    for model, state in ((voa, a), (module, w)):
        for lab in state:
            model.degree_of(lab)  # raises ValueError on a non-basis label
    cert = ReductionCertificate(dict(a), q, dict(w), m)
    split = _u_split(voa, U)

    def rec(a_state: Mapping, qq: int, w_state: Mapping, scale: Fraction) -> None:
        if not scale or not a_state or not w_state:
            return
        wt_a = voa.state_degree(a_state)
        if wt_a is None or wt_a < 1:
            raise ValueError("reduction requires homogeneous a of positive weight")
        if qq < m * wt_a:
            raise ValueError(f"precondition q >= m wt a violated: {qq} < {m * wt_a}")
        u_part, c2_part = split(a_state)
        for uidx, lam in u_part.items():
            cert.entries.append((dict(U[uidx]), qq, dict(w_state), scale * lam))
        for (bplab, clab), mu in c2_part.items():
            sc = scale * mu
            bp = {bplab: Fraction(1)}
            if clab == voa.vacuum:
                # (L_{-1}b')(-q)w = q b'(-q-1)w
                rec(bp, qq + 1, w_state, sc * qq)
                continue
            b = mode_apply(voa, voa.omega, 0, bp)  # L_{-1} b'
            c = {clab: Fraction(1)}
            wt_b = voa.state_degree(b)
            wt_c = voa.state_degree(c)
            w_top = max(module.degrees[lab] for lab in w_state)
            # a(-q)w = sum_i (b(-1-i)c(-q+i)w + c(-1-q-i)b(i)w)
            i_max2 = wt_b + w_top - 1
            for i in range(max(i_max2, -1) + 1):
                biw = mode_apply(module, b, i, w_state)
                if biw:
                    rec(c, 1 + qq + i, biw, sc)
            i_max1 = wt_c + w_top + qq - 1
            for i in range(max(i_max1, -1) + 1):
                cw = mode_apply(module, c, -qq + i, w_state)
                if not cw:
                    continue  # b(-1-i)c(-q+i)w vanishes outright
                if i >= m * wt_b:
                    rec(b, 1 + i, cw, sc)
                else:
                    # commutator route
                    bw = mode_apply(module, b, -1 - i, w_state)
                    if bw:
                        rec(c, qq - i, bw, sc)
                    # j = wt b + wt c - 1 leaves a multiple of the vacuum,
                    # whose mode -(1 + q + j) <= -2 is zero.
                    for j in range(wt_b + wt_c - 1):
                        bjc = mode_apply(voa, b, j, c)
                        if bjc:
                            rec(bjc, 1 + qq + j, w_state,
                                sc * binom(-1 - i, j))

    rec(a, q, w, Fraction(1))
    low = [n for _, n, _, _ in cert.entries if n < m]
    if low:
        raise VerificationError(f"certificate entry at mode {min(low)} below m = {m}")
    return cert
