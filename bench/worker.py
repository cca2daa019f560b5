"""One pass of a workload in a fresh interpreter: set up, run every job, check.

Usage: python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Set-up is the import of ``voablocks``, the generation of the seeded job list
and the session models.  Each job is then timed from its request to its
answer, in CPU time of this process (``seconds``) and in wall time
(``wall_seconds``), and the fixed reference task is timed in CPU time just
before it (``reference_s``, also collected for the pass); set-up is timed
likewise (``setup_s``, ``setup_wall_s``).  Its
verdict is compared with the known answer and, for CLI jobs, the sha256 of
the report body with the one recorded in ``digests.json`` (the certificate
job checks its replayed targets against that file too).  The
last line of stdout is one JSON object with the set-up time, one record per
job and the peak RSS of this process.  With ``--trace`` the pass runs under
the outside-in tracer and also reports the per-layer metrics; its spans are
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
REFERENCE_STEPS = 6000  # about 30 ms of CPU time on a 2.0 GHz Xeon vCPU
SETUP_ONLY_REFERENCES = 4  # reference samples a set-up-only worker takes


def reference_task() -> int:
    """A fixed load in the engine's style that shares no code with it.

    Tuple-keyed dict updates and exact rational sums, like the mode cache and
    the elimination rows.  Its CPU time, sampled before every job and in
    every set-up-only worker, tracks the speed the host gives these
    processes during the run; the harness scales times by it (``run.py``).
    """
    table: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(REFERENCE_STEPS):
        key = (i % 61, i % 17)
        table[key] = table.get(key, 0) + i * i
        total += Fraction(i % 13 + 1, i % 11 + 1)
    return len(table) + total.denominator


def reference_seconds() -> float:
    c0 = time.process_time()
    reference_task()
    return time.process_time() - c0


def import_engine():
    """Import voablocks from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import voablocks

    if Path(voablocks.__file__).resolve().parent != src / "voablocks":
        raise ImportError(f"voablocks imported from {voablocks.__file__}, not {src}")


def run_jobs(jobs, digests: dict, tracer=None) -> list[dict]:
    """Time each job and check its verdict and report digest."""
    from tracer import JOB_SPAN

    records = []
    for job in jobs:
        reference = reference_seconds()
        span = tracer.open(JOB_SPAN) if tracer else None
        raw = body = error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw, body = job.request()
        except Exception as e:  # a job that raises is a failed job, not a crash
            error = f"{type(e).__name__}: {e}"
        seconds = time.process_time() - c0
        wall = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        records.append(check(job, raw, body, error, seconds, digests))
        records[-1].update(wall_seconds=wall, reference_s=reference)
    return records


def check(job, raw, body, error, seconds: float, digests: dict) -> dict:
    rec = {"id": job.id, "seconds": seconds, "verdict": None, "digest": None,
           "bytes": 0, "failure": error}
    if error is None:
        try:
            rec["verdict"] = job.verdict(raw, body)
        except (RuntimeError, KeyError, ValueError) as e:
            rec["failure"] = f"no verdict: {type(e).__name__}: {e}"
    if body is not None:
        data = body.encode()
        rec["digest"] = hashlib.sha256(data).hexdigest()
        rec["bytes"] = len(data)
    if rec["failure"] is None and rec["verdict"] != job.expected:
        rec["failure"] = f"verdict {rec['verdict']!r} != known answer {job.expected!r}"
    if rec["failure"] is None and job.digest_key is not None:
        recorded = digests.get(job.digest_key)
        if recorded != rec["digest"]:
            rec["failure"] = f"report digest {rec['digest']} != recorded {recorded}"
    rec["ok"] = rec["failure"] is None
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    c0, t0 = time.process_time(), time.perf_counter()
    import_engine()
    tracer = None
    if args.trace:
        from tracer import PER_LAYER, SETUP_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        setup_span = tracer.open(SETUP_SPAN)
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        digests = json.loads(DIGESTS.read_text())
        jobs = workloads.make_jobs(args.workload, args.seed, workdir, digests)
        setup_s = time.process_time() - c0
        setup_wall_s = time.perf_counter() - t0
        if tracer:
            tracer.close(setup_span)
        result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
        if args.setup_only:
            result["reference_s"] = [reference_seconds()
                                     for _ in range(SETUP_ONLY_REFERENCES)]
        else:
            records = run_jobs(jobs, digests, tracer)
            result["jobs"] = records
            result["reference_s"] = [r["reference_s"] for r in records]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                tracer.uninstall()
                layers = tracer.layer_metrics()
                layers["cli.report_bytes"] = sum(r["bytes"] for r in records)
                result["layers"] = {name: (layers[name], unit)
                                    for name, unit in PER_LAYER if name in layers}
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
                tracer.dump(spans)
                result["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
