"""Outside-in tracing of voablocks layers for the benchmark's traced run.

Each traced public function is replaced, in every voablocks module that
binds it by name, with a wrapper that records a span (name, start, end,
parent) in memory; traced methods are replaced on their class.  Nothing
under ``src/`` changes.  Counters are read from the arguments and results
at the same boundaries:

* ``core.mode_cache.lookups`` is the sum of |a|·|w| over ``mode_apply``
  calls (one ``_mode_label`` lookup per pair of labels);
* ``core.mode_cache.entries`` is the growth of ``len(model._mode_cache)``
  over the outermost ``mode_apply`` call on each model, and ``hit_ratio``
  is 1 - entries / lookups;
* ``linalg.echelon.add_useful_ratio`` is rank-raising ``Echelon.add`` calls
  over all adds; ``linalg.coeff_bits_max`` is the largest numerator or
  denominator bit length among rows passed to ``Echelon.add`` or
  ``SolverEchelon.add``;
* ``blocks.relations`` counts ``Echelon.add`` calls made directly by
  ``coinvariant_report`` (relation rows) and ``bracket_closure_check``
  (candidate operator rows).

A span's self time is its duration minus the time its direct children
cover.  The cost of the wrappers themselves lands in the caller's self
time; the benchmark reports the whole overhead as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from pathlib import Path

from voablocks import blocks, cli, core, finiteness, lattice, linalg, virasoro

MODULES = (linalg, core, virasoro, lattice, finiteness, blocks, cli)

JOB_SPAN = "bench.job"
SETUP_SPAN = "bench.setup"

# (span name, owner, attribute); owners that are classes get their method
# replaced, modules get every binding of the function replaced.
TRACED = (
    ("virasoro.model_build", virasoro.VirasoroModel, "__init__"),
    ("virasoro.singular_vectors", virasoro, "singular_vectors"),
    ("lattice.model_build", lattice.FockModel, "__init__"),
    ("linalg.echelon.add", linalg.Echelon, "add"),
    ("linalg.echelon.reduce", linalg.Echelon, "reduce"),
    ("linalg.solver.add", linalg.SolverEchelon, "add"),
    ("linalg.solver.solve", linalg.SolverEchelon, "solve"),
    ("core.mode_apply", core, "mode_apply"),
    ("core.quasi_primary_space", core, "quasi_primary_space"),
    ("finiteness.subspace_span", finiteness, "subspace_span"),
    ("finiteness.quotient_report", finiteness, "quotient_report"),
    ("finiteness.complement_U", finiteness, "complement_U"),
    ("finiteness.certificate", finiteness, "reduce_certificate"),
    ("blocks.qgvo_apply", blocks, "qgvo_apply"),
    ("blocks.laurent_expand", blocks, "laurent_expand"),
    ("blocks.section_basis", blocks, "section_basis"),
    ("blocks.coinvariant_report", blocks, "coinvariant_report"),
    ("blocks.bracket_closure_check", blocks, "bracket_closure_check"),
    ("blocks.theorem_bound", blocks, "theorem_bound"),
    ("cli.main", cli, "main"),
)
COUNTED = (("core.degree_of.calls", core.TruncatedModel, "degree_of"),)

# The per-layer metrics of the traced run, as BENCHMARK.json lists them.
PER_LAYER = tuple((m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"])

_RAISED = object()  # stands for the result of a call that raised


def _row_bits(row) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in row.values()), default=0)


class Tracer:
    """In-memory spans and boundary counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {
            "core.degree_of.calls": 0, "core.mode_cache.lookups": 0,
            "core.mode_cache.entries": 0, "linalg.echelon.useful_adds": 0,
            "linalg.coeff_bits_max": 0, "blocks.relations": 0,
            "finiteness.subspace_span.vectors": 0, "finiteness.certificate.entries": 0,
        }
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, name: str, fn, pre=None, post=None):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args) if pre is not None else None
            idx = open_(name)
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(idx)
                if post is not None:
                    post(args, result, state)

        return traced

    # -- boundary counters -------------------------------------------------
    def _hooks(self, name: str):
        counts, stack, names, span_name = self.counts, self._stack, self.names, self.name
        if name == "core.mode_apply":
            depth: dict[int, int] = {}

            def pre(args):
                model = args[0]
                d = depth.get(id(model), 0)
                depth[id(model)] = d + 1
                return d, (len(model._mode_cache) if d == 0 else 0)

            def post(args, result, state):
                model, a, _, w = args
                d, before = state
                depth[id(model)] = d
                counts["core.mode_cache.lookups"] += len(a) * len(w)
                if d == 0:
                    counts["core.mode_cache.entries"] += len(model._mode_cache) - before

            return pre, post
        if name in ("linalg.echelon.add", "linalg.solver.add"):
            relation_parents = {"blocks.coinvariant_report", "blocks.bracket_closure_check"}

            def post(args, result, state):
                bits = _row_bits(args[1])
                if bits > counts["linalg.coeff_bits_max"]:
                    counts["linalg.coeff_bits_max"] = bits
                if name == "linalg.echelon.add":
                    if result is True:
                        counts["linalg.echelon.useful_adds"] += 1
                    if stack and names[span_name[stack[-1]]] in relation_parents:
                        counts["blocks.relations"] += 1

            return None, post
        if name == "finiteness.subspace_span":
            def post(args, result, state):
                if result is not _RAISED:
                    counts["finiteness.subspace_span.vectors"] += len(result)

            return None, post
        if name == "finiteness.certificate":
            def post(args, result, state):
                if result is not _RAISED:
                    counts["finiteness.certificate.entries"] += len(result.entries)

            return None, post
        return None, None

    # -- installation ------------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
            return
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, new)

    def install(self) -> None:
        for name, owner, attr in TRACED:
            pre, post = self._hooks(name)
            self._replace(owner, attr, self._wrap(name, getattr(owner, attr), pre, post))
        for name, owner, attr in COUNTED:
            self._replace(owner, attr, self._counter(name, getattr(owner, attr)))

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but ``cli.report_bytes`` and
        ``trace.overhead_s``, which the caller measures."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        names, name, parent, start, end = self.names, self.name, self.parent, self.start, self.end
        for i in range(len(start)):
            dur = end[i] - start[i]
            span = names[name[i]]
            calls[span] = calls.get(span, 0) + 1
            self_s[span] = self_s.get(span, 0.0) + dur
            if parent[i] >= 0:
                up = names[name[parent[i]]]
                self_s[up] = self_s.get(up, 0.0) - dur
        counts = self.counts
        adds = calls.get("linalg.echelon.add", 0)
        lookups = counts["core.mode_cache.lookups"]
        out = {key: counts[key] for key, _ in PER_LAYER if key in counts}
        out.update({
            "linalg.echelon.add_useful_ratio":
                counts["linalg.echelon.useful_adds"] / adds if adds else 0.0,
            "core.mode_cache.hit_ratio":
                1 - counts["core.mode_cache.entries"] / lookups if lookups else 0.0,
            "trace.unattributed_s": self_s.get(JOB_SPAN, 0.0) + self_s.get(SETUP_SPAN, 0.0),
            "trace.spans": len(start),
        })
        # "<span>.calls" / "<span>.self_s", or "<layer>.<op>_calls" for span "<layer>.<op>"
        for key, _ in PER_LAYER:
            head, stat = key.rsplit(".", 1)
            for suffix, table, zero in (("calls", calls, 0), ("self_s", self_s, 0.0)):
                if key in out or not stat.endswith(suffix):
                    continue
                span = head if stat == suffix else f"{head}.{stat[:-len(suffix) - 1]}"
                out[key] = table.get(span, zero)
        return out

    def dump(self, path) -> None:
        """Write every span as gzipped JSON columns (name ids index ``names``)."""
        data = {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)
