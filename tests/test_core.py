"""Tests for the generic mode calculus and identity residuals."""

import gc
import random
import re
import weakref
from fractions import Fraction

import pytest

from voablocks import cli
from voablocks.blocks import (
    LabeledLine, MeromorphicSection, PointedLine, coinvariant_report, m_constant_and_gaps,
    rr_h0, section_basis,
)
from voablocks.core import (
    SchemaError,
    TruncationError,
    binom,
    check_identity,
    l1_apply,
    is_quasi_primary_generated,
    mode_apply,
    quasi_primary_space,
)
from voablocks.lattice import EvenLattice, FockModel, heisenberg_model, lattice_model
from voablocks.finiteness import SubspaceSpec, bound_k, quotient_report, reduce_certificate
from voablocks.linalg import vec_add_scaled
from voablocks.virasoro import (
    VirasoroModel, feigin_fuchs, ff_verify, irreducible_model, ising_model,
    minimal_params_values, partitions, quotient_ring_bounds, singular_vectors, vacuum_voa,
    verma_model,
)


def test_binom_generalized():
    assert binom(4, 2) == 6
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1
    # Pascal recurrence for negative upper index
    for p in range(-5, 0):
        for i in range(1, 6):
            assert binom(p, i) == binom(p - 1, i - 1) + binom(p - 1, i)


def test_vec_add_scaled_is_the_state_arithmetic():
    a = {"x": Fraction(1), "y": Fraction(2)}
    b = {"y": Fraction(-2), "w": Fraction(1, 2), "z": Fraction(1)}
    s = dict(a)
    vec_add_scaled(s, b, 1)  # y cancels; w and z are appended in b's order
    assert s == {"x": Fraction(1), "w": Fraction(1, 2), "z": Fraction(1)}
    assert list(s) == ["x", "w", "z"]
    d = dict(a)
    vec_add_scaled(d, a, -1)
    assert d == {}
    t: dict = {}
    vec_add_scaled(t, a, 3)
    assert t == {"x": Fraction(3), "y": Fraction(6)}
    vec_add_scaled(t, a, 0)
    vec_add_scaled(t, {"y": Fraction(2), "v": Fraction(1)}, -3)
    assert t == {"x": Fraction(3), "v": Fraction(-3)} and list(t) == ["x", "v"]


def test_vacuum_mode_is_identity():
    voa = vacuum_voa(Fraction(1, 2), 6)
    w = {(2,): Fraction(5)}
    vac = {voa.vacuum: Fraction(1)}
    assert mode_apply(voa, vac, -1, w) == w
    assert mode_apply(voa, vac, 0, w) == {}
    assert mode_apply(voa, vac, -3, w) == {}


def test_omega_modes_are_virasoro():
    voa = vacuum_voa(Fraction(1, 2), 8)
    omega = {(2,): Fraction(1)}
    # L_0 = omega(1) is the grading operator
    for d in range(6):
        for lab in voa.labels_at(d):
            assert mode_apply(voa, omega, 1, {lab: Fraction(1)}) == (
                {lab: Fraction(d)} if d else {})
    # central term: L_2 L_{-2} vac = c/2 vac with L_n = omega(n+1)
    lm2 = mode_apply(voa, omega, -1, {voa.vacuum: Fraction(1)})
    assert mode_apply(voa, omega, 3, lm2) == {(): Fraction(1, 4)}


def test_iterated_mode_against_direct_composition():
    """(L_{-1}omega)(n) from the iterate formula vs the translation axiom."""
    voa = vacuum_voa(Fraction(1, 2), 8)
    omega = {(2,): Fraction(1)}
    deriv = {(3,): Fraction(1)}  # L_{-3}vac = L_{-1}omega
    for n in range(-3, 4):
        w = {(2,): Fraction(1)}
        got = mode_apply(voa, deriv, n, w)
        expect: dict = {}
        vec_add_scaled(expect, mode_apply(voa, omega, n - 1, w), -n)
        assert got == expect


def test_identity_residuals_zero_across_models():
    rng = random.Random(20240823)
    models = [ising_model(8), heisenberg_model(1, 8)]
    for model in models:
        done = 0
        while done < 30:
            degs = [d for d in range(4) if model.labels_at(d)]
            pick = lambda: {rng.choice(model.labels_at(rng.choice(degs))):
                            Fraction(1)}
            kind = rng.choice(["borcherds", "commutator", "translation"])
            params = {"a": pick(), "w": pick()}
            if kind != "translation":
                params["b"] = pick()
                params["p"] = rng.randint(-3, 3)
                params["q"] = rng.randint(-3, 3)
                if kind == "borcherds":
                    params["r"] = rng.randint(-3, 3)
            else:
                params["q"] = rng.randint(-3, 3)
            try:
                residual = check_identity(model, kind, **params)
            except TruncationError:
                continue
            assert residual == {}
            done += 1


def test_truncation_error_is_loud():
    voa = vacuum_voa(Fraction(1, 2), 4)
    omega = {(2,): Fraction(1)}
    deep = {(4,): Fraction(1)}
    with pytest.raises(TruncationError):
        mode_apply(voa, omega, -3, deep)


BASIS_MODELS = {
    "ising-sigma": (lambda: irreducible_model(4, 3, 1, 2, 10),
                    # the level-2 monomial the singular vector removes; a level past the cutoff
                    lambda m: [next(p for p in partitions(2) if p not in m.labels_at(2)), (11,)]),
    "a1-lambda1": (lambda: lattice_model([[2]], [1], 6),
                   # creation modes out of order; a momentum far past the cutoff
                   lambda m: [(((1, 0), (2, 0)), (0,)), ((), (5,))]),
    "heisenberg": (lambda: heisenberg_model(1, 6),
                   lambda m: [(((1, 0), (2, 0)), (0,)), (((7, 0),), (0,))]),
}


def _label_weight(model, lab):
    """L_0 weight read off the label: h + |part| (Virasoro), |λ+γ|²/2 + Σn (Fock)."""
    if isinstance(model, VirasoroModel):
        return model.lowest_weight + sum(lab)
    heis, gamma = lab
    mu = tuple(l + g for l, g in zip(model.lam_alpha, gamma))
    return model.lattice.halfnorm(mu) + sum(n for n, _ in heis)


@pytest.mark.parametrize("name", BASIS_MODELS)
def test_graded_basis_contract(name):
    build, foreign = BASIS_MODELS[name]
    model = build()
    for d in range(model.cutoff + 1):
        assert model.labels_at(d)
        for lab in model.labels_at(d):
            assert model.degree_of(lab) == d
            assert _label_weight(model, lab) == model.lowest_weight + d
    assert model.labels_at(-1) == () and model.labels_at(model.cutoff + 1) == ()
    for lab in foreign(model):
        with pytest.raises(ValueError, match=re.escape(repr(lab))):
            model.degree_of(lab)


@pytest.mark.parametrize("build, foreign", [
    (lambda: ising_model(cutoff=4), (1, 1)),  # a pivot of the vacuum quotient
    (lambda: lattice_model([[2]], cutoff=3), ((), (3,))),  # e_{3α} has weight 9
], ids=["ising-pivot", "a1-momentum-past-cutoff"])
def test_mode_apply_rejects_a_non_basis_label(build, foreign):
    v = build()
    one = {foreign: Fraction(1)}
    with pytest.raises(ValueError, match=re.escape(repr(foreign))):
        mode_apply(v, v.omega, 1, one)
    with pytest.raises(ValueError, match=re.escape(repr(foreign))):
        mode_apply(v, one, 1, {v.vacuum: Fraction(1)})


@pytest.mark.parametrize("name", ["a1-lambda1", "heisenberg"])
def test_heisenberg_creation_past_the_cutoff_is_loud(name):
    model = BASIS_MODELS[name][0]()
    h0 = {(((1, 0),), (0,)): Fraction(1)}  # the generator h_0(-1)1, by its label
    low = {model.labels_at(0)[0]: Fraction(1)}
    top = {model.labels_at(model.cutoff)[0]: Fraction(1)}
    (new,) = mode_apply(model, h0, -model.cutoff, low)
    assert model.degree_of(new) == model.cutoff
    with pytest.raises(TruncationError):
        mode_apply(model, h0, -model.cutoff - 1, low)
    with pytest.raises(TruncationError):
        mode_apply(model, h0, -1, top)


@pytest.mark.parametrize("build", [
    *(build for build, _ in BASIS_MODELS.values()),
    lambda: vacuum_voa(Fraction(1, 2), 8),
], ids=[*BASIS_MODELS, "virasoro-vacuum"])
def test_decompose_names_each_generator_by_its_basis_label(build):
    voa = build().voa
    iterated = 0
    for d in range(voa.cutoff + 1):
        for label in voa.labels_at(d):
            dec = voa.decompose(label)
            if dec[0] != "iter":
                continue
            _, gen, k, rest = dec
            assert gen in voa.degrees
            assert voa.decompose(gen) == ("gen",)
            assert k >= 1
            assert mode_apply(voa, {gen: Fraction(1)}, -k, rest) == {label: Fraction(1)}
            iterated += 1
    assert iterated


def test_quasi_primary_space_ising():
    voa = ising_model(8)
    assert quasi_primary_space(voa, 0) == [{(): Fraction(1)}]
    assert quasi_primary_space(voa, 1) == []
    qp2 = quasi_primary_space(voa, 2)
    assert len(qp2) == 1
    assert l1_apply(voa, qp2[0]) == {}
    assert quasi_primary_space(voa, 3) == []
    qp4 = quasi_primary_space(voa, 4)
    assert len(qp4) == 1 and l1_apply(voa, qp4[0]) == {}
    assert is_quasi_primary_generated(voa)


@pytest.mark.parametrize("build", [
    lambda: ising_model(8),
    lambda: lattice_model([[2]], [0], 4),
], ids=["ising", "lattice-A1"])
def test_a_voa_model_is_freed_without_the_cycle_collector(build):
    # A VOA model is its own VOA; storing that as self.voa made a reference
    # cycle that lived on until a gen-2 collection.
    gc.disable()
    try:
        model = build()
        assert model.voa is model
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("build, message", [
    # c = -22/5 over the c = 1/2 Ising VOA
    (lambda: irreducible_model(5, 2, 1, 2, 6, voa=ising_model(6)), "not the VOA's 1/2"),
    # an A1 module over the VOA of the lattice with Gram matrix [[4]]
    (lambda: lattice_model([[2]], [1], 4, voa=lattice_model([[4]], cutoff=4)),
     "different Gram matrices"),
], ids=["virasoro", "lattice"])
def test_a_module_over_a_different_voa_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", [
    # sigma = L(1/2, 1/16): with no VOA it would act on itself as if v_h were a vacuum
    lambda: VirasoroModel(Fraction(1, 2), Fraction(1, 16), 6),
    lambda: FockModel(EvenLattice([[2]]), (Fraction(1, 2),), 4),
], ids=["virasoro", "lattice"])
def test_a_module_without_a_voa_is_rejected(build):
    with pytest.raises(ValueError, match="a module needs an explicit VOA model"):
        build()


@pytest.mark.parametrize("call, message", [
    (lambda voa: voa.state_degree({(): Fraction(1), (2,): Fraction(1)}),
     "state is not homogeneous"),
    (lambda voa: check_identity(voa, "jacobi", a=voa.omega, w={(): Fraction(1)}),
     "unknown identity kind 'jacobi'"),
    (lambda voa: is_quasi_primary_generated(irreducible_model(4, 3, 2, 2, 4, voa=voa)),
     "property of VOA models"),
    # int() truncated the cutoff: ising_model(8.5) built the cutoff-8 model.
    (lambda voa: ising_model(8.5), "cutoff must be an integer, got 8.5"),
    (lambda voa: lattice_model([[2]], cutoff=6.0), "cutoff must be an integer, got 6.0"),
], ids=["mixed-state", "unknown-identity", "module", "float-cutoff", "float-lattice-cutoff"])
def test_core_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(ising_model(4))


def _one_point_ising():
    return LabeledLine(PointedLine((0,)), [ising_model(4)])


# (entry point, parameter name, lower bound or None, a call passing x as that parameter)
INTEGER_PARAMETERS = [
    ("ising_model", "cutoff", 0, lambda x: ising_model(x)),
    ("lattice_model", "cutoff", 0, lambda x: lattice_model([[2]], cutoff=x)),
    *(("minimal_params_values", f, 1,
       lambda x, f=f: minimal_params_values(**{"p": 4, "q": 3, "r": 1, "s": 1, f: x}))
      for f in "pqrs"),
    ("irreducible_model", "p", 1, lambda x: irreducible_model(x, 3, 1, 1, 4)),
    ("quotient_ring_bounds", "q", 1, lambda x: quotient_ring_bounds(4, x, 1, 1)),
    ("ff_verify", "s", 1, lambda x: ff_verify(4, 3, 1, x)),
    ("singular_vectors", "level", 0,
     lambda x: singular_vectors(Fraction(1, 2), Fraction(1, 16), x)),
    ("feigin_fuchs", "r", 1, lambda x: feigin_fuchs(x, 1)),
    ("feigin_fuchs", "s", 1, lambda x: feigin_fuchs(1, x)),
    ("heisenberg_model", "rank", 0, lambda x: heisenberg_model(x, 3)),
    ("SubspaceSpec", "n", 2, lambda x: SubspaceSpec("cn", n=x)),
    ("SubspaceSpec", "m", 1, lambda x: SubspaceSpec("cmu", m=x, U=({(): Fraction(1)},))),
    ("quotient_report", "window", 1,
     lambda x: quotient_report(ising_model(4), SubspaceSpec("cn", n=2), window=x)),
    ("bound_k", "s_U", 1, lambda x: bound_k(x, 1)),
    ("bound_k", "m", 1, lambda x: bound_k(1, x)),
    ("reduce_certificate", "q", None,
     lambda x: reduce_certificate(ising_model(4), {(2,): Fraction(1)}, x, {(): Fraction(1)},
                                  [], 1)),
    ("reduce_certificate", "m", 1,
     lambda x: reduce_certificate(ising_model(4), {(2,): Fraction(1)}, 2, {(): Fraction(1)},
                                  [], x)),
    ("coinvariant_report", "D", 0, lambda x: coinvariant_report(_one_point_ising(), x, 1)),
    ("coinvariant_report", "P", 0, lambda x: coinvariant_report(_one_point_ising(), 4, x)),
    ("coinvariant_report", "w_max", 1,
     lambda x: coinvariant_report(_one_point_ising(), 4, 1, w_max=x)),
    ("MeromorphicSection", "section weight", 0, lambda x: MeromorphicSection(x)),
    ("section_basis", "d", 0, lambda x: section_basis(PointedLine((0,)), x, [1])),
    ("section_basis", "pole bound", 0, lambda x: section_basis(PointedLine((0,)), 1, [x])),
    ("rr_h0", "g", 0, lambda x: rr_h0(x, 1, 1)),
    ("rr_h0", "n", 0, lambda x: rr_h0(1, x, 1)),
    ("rr_h0", "m", 0, lambda x: rr_h0(1, 1, x)),
    ("m_constant_and_gaps", "g", 0, lambda x: m_constant_and_gaps(x, 1)),
    ("m_constant_and_gaps", "r_U", 1, lambda x: m_constant_and_gaps(1, x)),
]


def _integer_cases():
    for entry, name, low, call in INTEGER_PARAMETERS:
        yield pytest.param(call, 2.0, f"{name} must be an integer, got 2.0",
                           id=f"{entry}-{name}-float")
        yield pytest.param(call, True, f"{name} must be an integer, got True",
                           id=f"{entry}-{name}-bool")
        if low is not None:
            yield pytest.param(call, low - 1, f"{name} must be >= {low}, got {low - 1}",
                               id=f"{entry}-{name}-below")


@pytest.mark.parametrize("call, value, message", _integer_cases())
def test_every_integer_parameter_refuses_a_float_a_bool_and_a_value_below_its_bound(
        call, value, message):
    # One check, core._integer, names the parameter; the CLI raises the same SchemaError.
    with pytest.raises(SchemaError) as info:
        call(value)
    assert str(info.value) == message
    assert isinstance(info.value, ValueError) and cli.SchemaError is SchemaError


def test_the_zero_state_has_no_degree():
    assert ising_model(4).state_degree({}) is None


def test_a_voa_model_with_nonzero_lowest_weight_is_rejected_before_its_basis(monkeypatch):
    # The mode path counts degrees from a VOA's lowest weight 0.
    def no_build(self, gens):
        raise AssertionError("the quotient was built")

    monkeypatch.setattr(VirasoroModel, "_build_quotient", no_build)
    with pytest.raises(ValueError, match="a VOA model has lowest weight 0, not 1/16"):
        VirasoroModel(Fraction(1, 2), Fraction(1, 16), 12, is_voa=True)


_A2_OMEGA = {(((1, 0), (1, 0)), (0, 0)): Fraction(1, 3),
             (((1, 1), (1, 0)), (0, 0)): Fraction(1, 3),
             (((1, 1), (1, 1)), (0, 0)): Fraction(1, 3)}


@pytest.mark.parametrize("build, descriptor, omega", [
    (lambda: vacuum_voa(Fraction(7, 10), 4),
     {"kind": "virasoro-vacuum", "cutoff": 4, "c": "7/10"}, {(2,): Fraction(1)}),
    (lambda: verma_model(Fraction(1, 2), Fraction(1, 16), 3),
     {"kind": "virasoro-verma", "cutoff": 3, "c": "1/2", "h": "1/16"}, {(2,): Fraction(1)}),
    (lambda: irreducible_model(4, 3, 2, 2, 4),
     {"kind": "virasoro-irreducible", "cutoff": 4, "p": 4, "q": 3, "r": 2, "s": 2},
     {(2,): Fraction(1)}),
    (lambda: irreducible_model(4, 3, 1, 1, 4),
     {"kind": "virasoro-irreducible", "cutoff": 4, "p": 4, "q": 3, "r": 1, "s": 1},
     {(2,): Fraction(1)}),
    (lambda: lattice_model([[2, -1], [-1, 2]], cutoff=3),
     {"kind": "lattice", "cutoff": 3, "gram": [[2, -1], [-1, 2]],
      "lambda_alpha": ["0", "0"]}, _A2_OMEGA),
    (lambda: lattice_model([[2]], [1], 3),
     {"kind": "lattice", "cutoff": 3, "gram": [[2]], "lambda_alpha": ["1/2"]},
     {(((1, 0), (1, 0)), (0,)): Fraction(1, 4)}),
    (lambda: heisenberg_model(2, 3),
     {"kind": "heisenberg", "cutoff": 3, "gram": [[1, 0], [0, 1]],
      "lambda_alpha": ["0", "0"]},
     {(((1, 0), (1, 0)), (0, 0)): Fraction(1, 2), (((1, 1), (1, 1)), (0, 0)): Fraction(1, 2)}),
], ids=["vacuum", "verma", "irreducible-module", "irreducible-voa", "lattice-voa",
        "lattice-module", "heisenberg"])
def test_descriptor_and_omega_of_every_model_kind(build, descriptor, omega):
    model = build()
    assert model.descriptor() == descriptor
    assert model.omega == omega
    # Each call hands out a copy: mutating one reaches neither the model nor later calls.
    got = model.descriptor()
    got["kind"] = "mutated"
    for row in got.get("gram", []):
        row.append(99)
    got.get("lambda_alpha", []).clear()
    om = model.omega
    om.clear()
    om[(99,)] = Fraction(5)
    assert model.descriptor() == descriptor
    assert model.omega == omega
