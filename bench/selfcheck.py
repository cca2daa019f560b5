"""Self-checks of the benchmark harness (not of voablocks itself).

Usage: python3 bench/selfcheck.py      (or: python3 -m pytest bench/selfcheck.py)

Runs a few cheap jobs in-process and checks that a wrong known answer or a
wrong recorded digest counts as a failed job, that tracing leaves verdicts
and report digests unchanged, that every seed's report bodies and
certificate targets are covered by ``digests.json``, and that
``BENCHMARK.json`` names the end-to-end metrics the harness prints.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from worker import DIGESTS, import_engine, run_jobs

import_engine()
run.OUT.mkdir(exist_ok=True)

import tracer  # noqa: E402  (needs the engine on sys.path)
import workloads  # noqa: E402

CHEAP = ("1-1-1.D10P4", "vacuum-1pt.D10P4")


def _cheap_jobs(workdir: Path, seed: int = 3):
    return [j for j in workloads.ising_fusion_jobs(seed, workdir) if j.id in CHEAP]


def _digests() -> dict:
    return json.loads(DIGESTS.read_text())


def _fail_count(records) -> int:
    one_pass = {"jobs": records, "peak_rss_mb": 1.0, "setup_s": 0.1,
                "reference_s": [r["reference_s"] for r in records]}
    _, attempted, failed, _ = run.summarize([one_pass], [])
    assert attempted == len(records)
    return failed


def test_known_answers_pass():
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        records = run_jobs(_cheap_jobs(Path(tmp)), _digests())
    assert _fail_count(records) == 0, [r["failure"] for r in records]


def test_wrong_known_answer_raises_fail_share():
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        jobs = _cheap_jobs(Path(tmp))
        jobs[0].expected = {"total": 2, "stabilized": True}
        records = run_jobs(jobs, _digests())
    assert _fail_count(records) == 1
    assert "known answer" in records[0]["failure"]


def test_wrong_digest_raises_fail_share():
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        jobs = _cheap_jobs(Path(tmp))
        digests = dict(_digests(), **{jobs[1].digest_key: "0" * 64})
        records = run_jobs(jobs, digests)
    assert _fail_count(records) == 1
    assert "digest" in records[1]["failure"]


def test_wrong_certificate_digest_raises_fail_share():
    digests = _digests()
    job = workloads.finiteness_sweep_jobs(3, digests)[-1]
    draw = workloads._certificate_draws(3)[0]
    digests[workloads.certificate_key(draw)] = "0" * 64
    records = run_jobs([job], digests)
    assert _fail_count(records) == 1
    assert "known answer" in records[0]["failure"]


def test_tracing_leaves_verdicts_and_digests_unchanged():
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        plain = run_jobs(_cheap_jobs(Path(tmp)), _digests())
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = run_jobs(_cheap_jobs(Path(tmp)), _digests(), tr)
        finally:
            tr.uninstall()
    assert run.outcomes({"jobs": plain}) == run.outcomes({"jobs": traced})
    layers = tr.layer_metrics()
    assert layers["virasoro.model_build.calls"] > 0
    assert layers["blocks.qgvo_apply.calls"] > 0
    assert layers["cli.main.self_s"] > 0
    assert 0 < layers["core.mode_cache.hit_ratio"] < 1
    # uninstall restored every binding
    assert not hasattr(tracer.cli.main, "__wrapped__")
    assert not hasattr(tracer.blocks.mode_apply, "__wrapped__")
    assert not hasattr(tracer.linalg.Echelon.add, "__wrapped__")


def test_every_seed_has_recorded_digests():
    digests = _digests()
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        jobs = workloads.every_fusion_job(Path(tmp)) + workloads.finiteness_sweep_jobs(0, digests)
    keys = {j.digest_key for j in jobs if j.digest_key}
    keys |= {workloads.certificate_key(d) for d in workloads.every_certificate_draw()}
    assert keys <= set(digests), sorted(keys - set(digests))[:3]


def test_benchmark_json_names_the_end_to_end_metrics():
    spec = json.loads(run.SPEC.read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    one_pass = {"jobs": [{"id": "j", "seconds": 1.0, "ok": True, "verdict": 1, "digest": None}],
                "peak_rss_mb": 1.0, "setup_s": 0.1, "reference_s": [0.03]}
    metrics, _, _, _ = run.summarize([one_pass], [])
    assert names == set(metrics)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
