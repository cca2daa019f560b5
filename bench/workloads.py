"""Seeded job lists for the three benchmark workloads, with their oracles.

A job is one user request: a ``voablocks`` CLI invocation run in-process
through ``voablocks.cli.main`` with stdout captured, or, where the CLI has no
command for it, the library call an acceptance criterion makes.  Every job
ends in a verdict that is compared with a known answer computed here from
closed forms and fusion rules, without calling into ``voablocks``.  The one
exception is exact certificate replay, which re-applies the engine's own
``mode_apply``; each replayed target a(-q)w is therefore also checked against
its sha256 recorded in ``digests.json``, like the CLI report bodies.

Engine modules are looked up as module attributes at call time, so that the
outside-in tracer (``tracer.py``) sees every call the jobs make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from voablocks import blocks, cli, core, finiteness, lattice, virasoro

@dataclass
class Job:
    """One request; ``request`` is the timed part, ``verdict`` reads its answer.

    ``request`` returns ``(raw, body)``, where ``body`` is the report text a
    CLI job printed (None for library jobs) and ``verdict(raw, body)`` gives
    the value compared with ``expected``.  ``digest_key`` names the recorded
    sha256 of a CLI report body.
    """

    id: str
    request: Callable[[], tuple[Any, str | None]]
    verdict: Callable[[Any, str | None], Any]
    expected: Any
    digest_key: str | None = None


def _cli_job(job_id: str, argv: list[str], verdict: Callable[[dict], Any],
             expected: Any, digest_key: str) -> Job:
    def request():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return (code, err.getvalue()), out.getvalue()

    def read(raw, body):
        code, err = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()}")
        return verdict(json.loads(body)["result"])

    return Job(job_id, request, read, expected, digest_key)


# ---------------------------------------------------------------------------
# ising-fusion: `blocks dim` on three-point Ising surfaces (criterion 8)

# sigma x sigma = 1 + eps, sigma x eps = sigma, eps x eps = 1; every Ising
# module is self-conjugate, so a three-point block dimension is the
# multiplicity of 1 in the fusion product of the three labels.
_ISING_FUSION = {
    ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1}, ("1", "sigma"): {"sigma": 1},
    ("eps", "eps"): {"1": 1}, ("eps", "sigma"): {"sigma": 1},
    ("sigma", "sigma"): {"1": 1, "eps": 1},
}


def ising_fusion_number(labels) -> int:
    """Multiplicity of the vacuum in the fusion product of ``labels``."""
    prod = {"1": 1}
    for lab in labels:
        nxt: dict = {}
        for x, mult in prod.items():
            for y, m2 in _ISING_FUSION[tuple(sorted((x, lab)))].items():
                nxt[y] = nxt.get(y, 0) + mult * m2
        prod = nxt
    return prod.get("1", 0)


_ISING_VOA = {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1}
_ISING_LABELS = {"1": "vacuum", "eps": {"r": 2, "s": 1}, "sigma": {"r": 2, "s": 2}}
FUSION_TRIPLES = (("1", "1", "1"), ("eps", "eps", "1"),
                  ("sigma", "sigma", "eps"), ("sigma", "sigma", "sigma"))
# The larger of criterion 8's (D, P) sweeps; (9, 3) is left out so that a
# run holds more passes, and its jobs exercise the same layers more cheaply.
FUSION_SWEEPS = ((10, 4),)
# The seed translates criterion 8's points (0, 1, -1) by one of these.  A
# translate keeps the point differences, hence the answers and nearly the
# cost, where other point choices cost up to a third more; the Laurent
# expansions of the polynomial sections still change.  Every seed's report
# bodies are among those recorded in digests.json (see record_digests.py).
POINT_SHIFTS = (0, 1, 2)


def blocks_config(points, labels, D: int, P: int) -> dict:
    return {"points": list(points), "voa": _ISING_VOA,
            "labels": [_ISING_LABELS[lab] for lab in labels], "D": D, "P": P}


def _blocks_job(job_id: str, config: dict, workdir: Path, expected: int) -> Job:
    key = "blocks dim " + json.dumps(config, sort_keys=True)
    path = workdir / f"{hashlib.sha256(key.encode()).hexdigest()[:16]}.json"
    path.write_text(json.dumps(config))
    return _cli_job(job_id, ["blocks", "dim", "--config", str(path)],
                    lambda r: {"total": r["total"], "stabilized": r["stabilized"]},
                    {"total": expected, "stabilized": True}, key)


def ising_fusion_jobs(seed: int, workdir: Path) -> list[Job]:
    return fusion_jobs_at(random.Random(seed).choice(POINT_SHIFTS), workdir)


def fusion_jobs_at(shift: int, workdir: Path) -> list[Job]:
    pts = [str(shift + x) for x in (0, 1, -1)]
    jobs = []
    for labels in FUSION_TRIPLES:
        expect = ising_fusion_number(labels)
        for D, P in FUSION_SWEEPS:
            jobs.append(_blocks_job(f"{'-'.join(labels)}.D{D}P{P}",
                                    blocks_config(pts, labels, D, P), workdir, expect))
    jobs.append(_blocks_job("vacuum-1pt.D10P4", blocks_config(pts[:1], ["1"], 10, 4),
                            workdir, ising_fusion_number(["1"])))
    return jobs


def every_fusion_job(workdir: Path) -> list[Job]:
    """Every job that some seed gives ``ising-fusion``."""
    return [job for shift in POINT_SHIFTS for job in fusion_jobs_at(shift, workdir)]


# ---------------------------------------------------------------------------
# qgvo-closure: criterion-10 bracket closure on 2-pointed lines

QGVO_LINE = (0, 1)


def qgvo_session() -> list[tuple[str, object, int]]:
    """Session models shared by every job: (name, VOA model, operator weight)."""
    return [("ising", virasoro.ising_model(10), 2),
            ("a1", lattice.lattice_model([[2]], cutoff=6), 1)]


def qgvo_closure_jobs(seed: int, session) -> list[Job]:
    """Operator pairs (a, f), (b, g) with pole bounds 1 at each point.

    A pair's cost depends strongly on its states and sections, so each
    model's jobs cover every unordered section pair {f_i, f_j} once, with
    the states (a_i, a_j), in an order and orientation the seed draws.
    Ising has one quasi-primary state of weight 2 (the conformal vector) and
    5 sections: 15 jobs.  A1 has 3 states and 3 sections of weight 1: 6
    jobs, which also cover every unordered state pair once.
    """
    rng = random.Random(seed)
    line = blocks.PointedLine(QGVO_LINE)
    jobs = []
    for name, voa, weight in session:
        states = core.quasi_primary_space(voa, weight)
        sections = blocks.section_basis(line, weight, [1] * len(QGVO_LINE))
        pairs = [pair if rng.random() < 0.5 else pair[::-1] for pair in
                 itertools.combinations_with_replacement(range(len(sections)), 2)]
        rng.shuffle(pairs)
        surface = blocks.LabeledLine(line, [voa] * len(QGVO_LINE))
        for i, j in pairs:
            op1 = (states[i % len(states)], sections[i])
            op2 = (states[j % len(states)], sections[j])
            # The quasi-global operators form a Lie algebra: every bracket
            # closes, whatever the pair.
            jobs.append(Job(
                f"{name}.f{i}g{j}",
                lambda s=surface, op1=op1, op2=op2:
                    (blocks.bracket_closure_check(s, op1, op2), None),
                lambda ok, _: ok, True))
    return jobs


# ---------------------------------------------------------------------------
# finiteness-sweep: C2 / B1 / C_1(U, .) quotients, the B1 check, certificates

C2_MODELS = ((4, 3), (5, 2), (5, 3), (7, 2), (5, 4), (9, 2))
C2_CUTOFF = 12
SIGMA_B1_CUTOFF = 11
HEISENBERG_CUTOFF = 8
A1_CMU_CUTOFF = 8
CERT_CUTOFF = 12
CERT_COUNT = 50
CERT_M = 2


def _quotient_argv(space: str, model: str, cutoff: int) -> list[str]:
    return ["quotient", "--space", space, "--model", model, "--cutoff", str(cutoff)]


def _minimal(p: int, q: int, r: int, s: int) -> str:
    return json.dumps({"kind": "virasoro-irreducible", "p": p, "q": q, "r": r, "s": s})


def _argv_job(job_id, argv, verdict, expected) -> Job:
    return _cli_job(job_id, argv, verdict, expected, " ".join(argv))


def finiteness_sweep_jobs(seed: int, digests: dict) -> list[Job]:
    """``digests`` holds the recorded sha256 of every certificate target."""
    jobs = []
    for p, q in C2_MODELS:
        # dim V/C2(V) = (p-1)(q-1)/2 for the (p,q) minimal-series vacuum
        # module (Gaberdiel-Gannon).
        jobs.append(_argv_job(
            f"c2.p{p}q{q}", _quotient_argv("c2", _minimal(p, q, 1, 1), C2_CUTOFF),
            lambda r: r["cumulative"], (p - 1) * (q - 1) // 2))
    # L(1/2, 1/16)/B1 has dimension at most min(rs, (q-r)(p-s)) = 2.
    jobs.append(_argv_job(
        "b1.sigma", _quotient_argv("b1", _minimal(4, 3, 2, 2), SIGMA_B1_CUTOFF),
        lambda r: {"at_most_2": r["cumulative"] <= 2, "stabilized": r["stabilized"]},
        {"at_most_2": True, "stabilized": True}))
    # The rank-1 Heisenberg VOA is not C2-cofinite: V/C2(V) is the polynomial
    # ring in h(-1)1, one dimension in every degree, and never stabilizes.
    jobs.append(_argv_job(
        "c2.heisenberg", _quotient_argv("c2", "heisenberg", HEISENBERG_CUTOFF),
        lambda r: {"per_degree": r["per_degree"], "stabilized": r["stabilized"]},
        {"per_degree": [1] * (HEISENBERG_CUTOFF + 1), "stabilized": False}))
    # U strongly generates V_L, so every positive-degree state is some
    # u(-n)w with n >= 1: V/C_1(U, V) is the vacuum line alone.
    jobs.append(_argv_job(
        "cmu.a1", _quotient_argv("cmu", "a1", A1_CMU_CUTOFF),
        lambda r: {"per_degree": r["per_degree"], "stabilized": r["stabilized"]},
        {"per_degree": [1] + [0] * A1_CMU_CUTOFF, "stabilized": True}))
    argv = ["lattice", "b1check", "--gram", "[[2]]", "--lambda", "[1]", "--cutoff", "6"]
    jobs.append(_argv_job("b1check.a1", argv, lambda r: r["ok"], True))
    draws = _certificate_draws(seed)
    jobs.append(Job(
        f"certificates.{CERT_COUNT}", lambda: (certificate_targets(draws), None),
        lambda targets, _: sum(t is not None and t == digests.get(certificate_key(d))
                               for d, t in zip(draws, targets)),
        CERT_COUNT))
    return jobs


# Degree dimensions of the Ising vacuum module (1, 0, 1, 1, 2 at degrees
# 0..4) are fixed, so indices are drawn without building the model.
_ISING_DIMS = {0: 1, 2: 1, 3: 1, 4: 2}


def _certificate_fits(deg_a: int, deg_w: int, q: int) -> bool:
    return deg_a + q - 1 + deg_w <= CERT_CUTOFF


def _certificate_draws(seed: int) -> list[tuple]:
    """Seeded (deg a, index a, deg w, index w, q) draws as in criterion 7."""
    rng = random.Random(seed)
    out = []
    while len(out) < CERT_COUNT:
        deg_a = rng.choice((2, 3, 4))
        ia = rng.randrange(_ISING_DIMS[deg_a])
        deg_w = rng.choice((0, 2, 3))
        iw = rng.randrange(_ISING_DIMS[deg_w])
        q = rng.randint(CERT_M * deg_a, CERT_M * deg_a + 2)
        if _certificate_fits(deg_a, deg_w, q):
            out.append((deg_a, ia, deg_w, iw, q))
    return out


def every_certificate_draw() -> list[tuple]:
    """Every draw that some seed can give ``finiteness-sweep``."""
    return [(deg_a, ia, deg_w, iw, q)
            for deg_a in (2, 3, 4) for ia in range(_ISING_DIMS[deg_a])
            for deg_w in (0, 2, 3) for iw in range(_ISING_DIMS[deg_w])
            for q in range(CERT_M * deg_a, CERT_M * deg_a + 3)
            if _certificate_fits(deg_a, deg_w, q)]


def certificate_key(draw) -> str:
    deg_a, ia, deg_w, iw, q = draw
    return f"certificate ising c{CERT_CUTOFF} m{CERT_M}: a={deg_a}.{ia} q={q} w={deg_w}.{iw}"


def certificate_targets(draws) -> list[str | None]:
    """Per draw, the sha256 of a(-q)w if its certificate replays it exactly
    with modes >= m, else None."""
    voa = virasoro.ising_model(CERT_CUTOFF)
    U, _, _ = finiteness.complement_U(voa)
    out = []
    for deg_a, ia, deg_w, iw, q in draws:
        a = {voa.labels_at(deg_a)[ia]: Fraction(1)}
        w = {voa.labels_at(deg_w)[iw]: Fraction(1)}
        cert = finiteness.reduce_certificate(voa, a, q, w, U, CERT_M)
        target = core.mode_apply(voa, a, -q, w)
        exact = (cert.replay(voa) == target
                 and all(n >= CERT_M for _, n, _, _ in cert.entries))
        text = json.dumps(sorted((repr(label), str(c)) for label, c in target.items()))
        out.append(hashlib.sha256(text.encode()).hexdigest() if exact else None)
    return out


# ---------------------------------------------------------------------------


def make_jobs(workload: str, seed: int, workdir: Path, digests: dict) -> list[Job]:
    """The workload's fixed job list for ``seed``; session models built here."""
    if workload == "ising-fusion":
        return ising_fusion_jobs(seed, workdir)
    if workload == "qgvo-closure":
        return qgvo_closure_jobs(seed, qgvo_session())
    if workload == "finiteness-sweep":
        return finiteness_sweep_jobs(seed, digests)
    raise ValueError(f"unknown workload {workload!r}")
