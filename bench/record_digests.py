"""Record the sha256 of every report body the benchmark's CLI jobs can print.

Usage: python3 bench/record_digests.py

Covers every marked-point choice of ``ising-fusion``, the fixed CLI jobs of
``finiteness-sweep`` and the target a(-q)w of every certificate draw, so
that any seed's bodies and targets are checked.  A body is recorded only
when its verdict matches the known answer, a target only when its
certificate replays it exactly.  Writes
``bench/digests.json``; rerun it only when a report body is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from worker import DIGESTS, OUT, check, import_engine


def main() -> int:
    import_engine()
    import workloads

    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = {job.digest_key: job for job in workloads.every_fusion_job(workdir)}
        for job in workloads.finiteness_sweep_jobs(0, {}):
            if job.digest_key is not None:
                jobs[job.digest_key] = job
        digests = {}
        for n, (key, job) in enumerate(sorted(jobs.items()), 1):
            raw, body = job.request()
            # Check the verdict alone: the body's own digest stands in for the record.
            rec = check(job, raw, body, None, 0.0, {key: hashlib.sha256(body.encode()).hexdigest()})
            if not rec["ok"]:
                print(f"not recorded: {job.id}: {rec['failure']}", file=sys.stderr)
                return 1
            digests[key] = rec["digest"]
            print(f"[{n}/{len(jobs)}] {job.id}", file=sys.stderr)
        draws = workloads.every_certificate_draw()
        for draw, target in zip(draws, workloads.certificate_targets(draws)):
            if target is None:
                print(f"not recorded: certificate {draw} does not replay", file=sys.stderr)
                return 1
            digests[workloads.certificate_key(draw)] = target
        print(f"{len(draws)} certificate targets", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
