"""voablocks benchmark: time to verdict on three seeded workloads of desk jobs.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh interpreter (``worker.py``), one
at a time, so module-level caches start cold and the peak RSS is the pass's
own.

Times are CPU times of the worker processes, scaled to a nominal host
speed.  CPU time leaves out the time the hypervisor gives the vCPU to other
guests (steal time), which on a shared 2-vCPU VM moved the wall time of the
same pass by more than a third.  It still follows the host's speed, which
changes within seconds and in phases lasting minutes, longer than a run:
between such phases the CPU time of the same pass moved by a quarter.  So
every worker also times a fixed reference task (``worker.reference_task``):
before each job, and ``worker.SETUP_ONLY_REFERENCES`` times in each
set-up-only worker.  A worker's speed factor is ``REFERENCE_NOMINAL_S`` over the mean of
its own samples, and every time below is a CPU time multiplied by the
factor of the worker that took it: CPU seconds at the speed at which the
reference task takes its nominal time.  A change to ``voablocks`` cannot
move the reference task, so a change in the program's work shows in full.

With ``--trace 0`` passes repeat until the next one would end after
``--seconds`` (at least ``MIN_PASSES`` of them); each job's time is its
median over the passes, and the end-to-end metrics are

* ``cpu_s``: the sum over the job list of those per-job times;
* ``job_cpu_s.p50`` / ``job_cpu_s.max``: their median and maximum;
* ``peak_rss_mb``: the median over passes of the worker's ``ru_maxrss``;
* ``setup_s``: the median set-up time over every fresh interpreter of the
  run: each pass and the ``SETUP_PER_PASS`` set-up-only workers that follow
  it, so the samples spread over the whole run.

The provenance line also carries, ungated, the range of the workers' speed
factors, the mean reference time, and the unscaled sums of per-job CPU and
wall times (``raw_cpu_s``, ``wall_s``) and set-up median (``raw_setup_s``).

With ``--trace 1`` one untraced and one traced pass run; their verdicts and
report digests must agree, and the traced pass gives the per-layer metrics,
``trace.overhead_s`` being traced minus untraced job time, both scaled.

A job fails if it raises, if its verdict differs from the known answer, or
if its report digest differs from the recorded one; ``failed`` over
``attempted`` is the fail share.  The last stdout line is the result JSON;
the line before it carries the provenance.  Full records go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PER_PASS = 2  # set-up-only interpreters after each pass
MIN_PASSES = 3  # a median of three or more passes rides out bursts of host load
REFERENCE_NOMINAL_S = 0.030  # median reference time on a 2.0 GHz Xeon vCPU
BUDGET_S = 170  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the time budget: {' '.join(flags)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_passes(workload: str, seed: int, seconds: int, deadline: float):
    start = time.monotonic()
    passes, setup_workers = [], []
    while True:
        passes.append(run_worker(workload, seed, deadline))
        for _ in range(SETUP_PER_PASS):
            setup_workers.append(run_worker(workload, seed, deadline, "--setup-only"))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return passes, setup_workers


def outcomes(p: dict) -> list:
    return [(r["id"], r["verdict"], r["digest"]) for r in p["jobs"]]


def per_job_medians(passes: list[dict], time_of) -> list[float]:
    """Each job's median time over the passes: a pass that caught a burst of
    host load, or a lull, moves the median less than the minimum or mean."""
    per_job: dict[str, list[float]] = {}
    for p in passes:
        for r in p["jobs"]:
            per_job.setdefault(r["id"], []).append(time_of(p, r))
    return [statistics.median(ts) for ts in per_job.values()]


def speed_factor(worker: dict) -> float:
    """``REFERENCE_NOMINAL_S`` over the worker's mean reference time.

    The host's speed changes within seconds, so one sample says little about
    the speed over a job; the mean over the worker's samples, slow ones
    included as they are in its CPU times, follows it over the worker's
    life.  Each worker is scaled by its own samples: a run's passes can fall
    in different speed phases, and the median over passes would otherwise
    pick the slow ones."""
    return REFERENCE_NOMINAL_S / statistics.mean(worker["reference_s"])


def summarize(passes: list[dict], setup_workers: list[dict]) -> tuple[dict, int, int, bool]:
    """(metrics, attempted, failed, passes agree) over untraced passes and
    the set-up-only workers run among them."""
    job_s = per_job_medians(passes, lambda p, r: r["seconds"] * speed_factor(p))
    setups = [w["setup_s"] * speed_factor(w) for w in passes + setup_workers]
    metrics = {
        "cpu_s": (sum(job_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "job_cpu_s.p50": (statistics.median(job_s), "s"),
        "job_cpu_s.max": (max(job_s), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["jobs"])
    agree = all(outcomes(p) == outcomes(passes[0]) for p in passes)
    return metrics, attempted, failed, agree


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], bool]:
    plain = run_worker(workload, seed, deadline)
    traced = run_worker(workload, seed, deadline, "--trace")
    metrics = {name: tuple(vu) for name, vu in traced["layers"].items()}
    metrics["trace.overhead_s"] = (
        sum(r["seconds"] for r in traced["jobs"]) * speed_factor(traced)
        - sum(r["seconds"] for r in plain["jobs"]) * speed_factor(plain), "s")
    return metrics, [plain, traced], outcomes(plain) == outcomes(traced)


def provenance(workload: str, seed: int, trace: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "trace": trace, "commit": commit,
            "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "cpu_count": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    ap.add_argument("--workload", choices=workloads, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "voablocks" / "__init__.py").is_file():
        print(f"no voablocks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    setup_workers: list[dict] = []
    try:
        if args.trace:
            metrics, passes, agree = traced_run(args.workload, args.seed, deadline)
            attempted = sum(len(p["jobs"]) for p in passes)
            failed = sum(not r["ok"] for p in passes for r in p["jobs"])
        else:
            passes, setup_workers = untraced_passes(args.workload, args.seed, args.seconds,
                                                    deadline)
            metrics, attempted, failed, agree = summarize(passes, setup_workers)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    prov = provenance(args.workload, args.seed, args.trace)
    workers = passes + setup_workers
    factors = [speed_factor(w) for w in workers]
    prov.update(jobs=len(passes[0]["jobs"]), passes=len(passes), fail_share=failed / attempted,
                speed_factor_range=[min(factors), max(factors)],
                reference_s=statistics.mean(t for w in workers for t in w["reference_s"]),
                raw_cpu_s=sum(per_job_medians(passes, lambda p, r: r["seconds"])),
                wall_s=sum(per_job_medians(passes, lambda p, r: r["wall_seconds"])),
                raw_setup_s=statistics.median(w["setup_s"] for w in workers))
    result = {"correct": failed == 0 and agree, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "result": result, "passes": passes},
                                 indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
