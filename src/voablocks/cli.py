"""Batch front door: dispatch computations and emit reproducible JSON reports.

Every report embeds the library version, a sha256 of the canonical config,
and (for sampled checks) the seed, so that identical invocations produce
byte-identical bodies.  Exit codes: 0 success, 1 schema violation,
2 verification failure, 3 truncation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .core import TruncatedModel, TruncationError, VerificationError, check_identity
from .finiteness import SubspaceSpec, complement_U, quotient_report
from .blocks import (
    LabeledLine,
    PointedLine,
    coinvariant_report,
    m_constant_and_gaps,
    rr_h0,
)
from .lattice import (
    EvenLattice,
    b1_span_check,
    gamma_set,
    heisenberg_model,
    lattice_model,
)
from .linalg import qparse, qstr
from .virasoro import (
    ff_verify,
    irreducible_model,
    minimal_params_values,
    quotient_ring_bounds,
    singular_vectors,
    vacuum_voa,
    verma_model,
)

DEFAULT_SEED = 20240821

NAMED_MODELS = {
    "ising": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1},
    "lee-yang": {"kind": "virasoro-irreducible", "p": 5, "q": 2, "r": 1, "s": 1},
    "heisenberg": {"kind": "heisenberg", "rank": 1},
    "a1": {"kind": "lattice", "gram": [[2]]},
}


class SchemaError(ValueError):
    """Config or flag data that fails validation before dispatch."""


# ---------------------------------------------------------------------------
# Model descriptors


def _object(value, prefix: str) -> dict:
    """value itself, if it is a JSON/TOML object; else a schema error."""
    if not isinstance(value, dict):
        raise SchemaError(f"{prefix}: expected an object, got {value!r}")
    return value


def _integer(value, where: str, low: int | None = None) -> int:
    """value itself, if it is an int (not a bool) of at least low; else a schema error."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        bound = {None: "an", 0: "a nonnegative", 1: "a positive"}[low]
        raise SchemaError(f"{where} must be {bound} integer, got {value!r}")
    return value


def _read_object(path: str, prefix: str) -> dict:
    """The object in a JSON file, or in a TOML file if path ends in .toml."""
    try:
        with open(path, "rb") as fh:
            if path.endswith(".toml"):
                import tomllib

                value = tomllib.load(fh)
            else:
                value = json.load(fh)
    except OSError as e:
        raise SchemaError(f"{prefix}: cannot read {path!r}: {e}") from None
    except ValueError as e:  # json.JSONDecodeError and tomllib.TOMLDecodeError
        raise SchemaError(f"{prefix}: failed to parse {path!r}: {e}") from None
    return _object(value, prefix)


def load_descriptor(text: str) -> dict:
    """A named shortcut, inline JSON, or a JSON/TOML file path."""
    if text in NAMED_MODELS:
        return dict(NAMED_MODELS[text])
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError(f"model: invalid inline JSON: {e}") from None
    return _read_object(text, "model")


def build_model(desc: dict, cutoff: int) -> TruncatedModel:
    kind = _object(desc, "model").get("kind")
    try:
        if kind == "virasoro-vacuum":
            return vacuum_voa(qparse(desc["c"]), cutoff)
        if kind == "virasoro-verma":
            return verma_model(qparse(desc["c"]), qparse(desc["h"]), cutoff)
        if kind == "virasoro-irreducible":
            return irreducible_model(*(_integer(desc[f], f"model: field {f!r}")
                                       for f in "pqrs"), cutoff)
        if kind == "lattice":
            return lattice_model(desc["gram"], desc.get("lambda"), cutoff)
        if kind == "heisenberg":
            return heisenberg_model(_integer(desc.get("rank", 1), "model: field 'rank'"), cutoff)
    except KeyError as e:
        raise SchemaError(f"model: missing field {e} for kind {kind!r}")
    raise SchemaError(f"model: unknown kind {kind!r}")


def _json_arg(name: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{name}: invalid JSON: {e}") from None


# ---------------------------------------------------------------------------
# Commands


def cmd_check_identities(args) -> tuple[dict, dict, int]:
    desc = load_descriptor(args.model)
    module = build_model(desc, args.cutoff)
    voa = module.voa
    rng = random.Random(args.seed)
    kinds = ("borcherds", "associativity", "commutator", "translation")
    voa_degs = [d for d in range(min(voa.cutoff, 4) + 1) if voa.labels_at(d)]
    mod_degs = [d for d in range(min(module.cutoff // 2 + 1, 4) + 1)
                if module.labels_at(d)]

    def pick(model, degs):
        labs = model.labels_at(rng.choice(degs))
        return {rng.choice(labs): Fraction(1)}

    done = failures = truncated = attempts = 0
    while done < args.samples:
        attempts += 1
        if attempts > 100 * args.samples:
            raise VerificationError("identity sweep: too many truncated draws")
        kind = rng.choice(kinds)
        e = args.max_exponent
        params = {"a": pick(voa, voa_degs), "w": pick(module, mod_degs)}
        if kind == "translation":
            params["q"] = rng.randint(-e, e)
        else:
            params["b"] = pick(voa, voa_degs)
            params["p" if kind != "associativity" else "n"] = (
                rng.randint(-e, e) if kind != "associativity"
                else rng.randint(1, e))
            params["q"] = rng.randint(-e, e)
            if kind == "borcherds":
                params["r"] = rng.randint(-e, e)
        try:
            residual = check_identity(module, kind, **params)
        except TruncationError:
            truncated += 1
            continue
        done += 1
        if residual:
            failures += 1
    result = {
        "model": module.descriptor(),
        "samples": done,
        "failures": failures,
        "truncated_draws": truncated,
        "max_exponent": args.max_exponent,
        "ok": failures == 0,
    }
    config = {"model": desc, "cutoff": args.cutoff, "samples": args.samples,
              "seed": args.seed, "max_exponent": args.max_exponent}
    return config, result, (0 if failures == 0 else 2)


def _resolve_ch(args) -> tuple[Fraction, Fraction]:
    if args.p is not None:
        if None in (args.q, args.r, args.s):
            raise SchemaError("virasoro: -p requires -q, -r, -s as well")
        return minimal_params_values(args.p, args.q, args.r, args.s)
    if args.c is None or args.h is None:
        raise SchemaError("virasoro: give either --c/--h or -p/-q/-r/-s")
    return qparse(args.c), qparse(args.h)


def cmd_virasoro_singular(args) -> tuple[dict, dict, int]:
    c, h = _resolve_ch(args)
    vecs = singular_vectors(c, h, args.level)
    result = {
        "c": qstr(c), "h": qstr(h), "level": args.level,
        "dimension": len(vecs),
        "vectors": [
            {",".join(map(str, part)): qstr(cf) for part, cf in sorted(v.items())}
            for v in vecs
        ],
    }
    config = {"c": qstr(c), "h": qstr(h), "level": args.level}
    return config, result, 0


def cmd_virasoro_ff_verify(args) -> tuple[dict, dict, int]:
    alpha = ff_verify(args.p, args.q, args.r, args.s)
    result = {"alpha": qstr(alpha), "ok": True}
    config = {"p": args.p, "q": args.q, "r": args.r, "s": args.s}
    return config, result, 0


def cmd_virasoro_bounds(args) -> tuple[dict, dict, int]:
    c, h = minimal_params_values(args.p, args.q, args.r, args.s)
    c2, b1 = quotient_ring_bounds(args.p, args.q, args.r, args.s)
    result = {"c": qstr(c), "h": qstr(h),
              "c2_vacuum_bound": c2, "b1_bound": b1}
    config = {"p": args.p, "q": args.q, "r": args.r, "s": args.s}
    return config, result, 0


def cmd_quotient(args) -> tuple[dict, dict, int]:
    desc = load_descriptor(args.model)
    module = build_model(desc, args.cutoff)
    if args.space == "c2":
        spec = SubspaceSpec("cn", n=2)
    elif args.space == "cn":
        spec = SubspaceSpec("cn", n=args.n)
    elif args.space == "b1":
        spec = SubspaceSpec("b1")
    else:  # cmu, the last of the parser's choices
        U, _, _ = complement_U(module.voa)
        spec = SubspaceSpec("cmu", m=args.m, U=tuple(U))
    rep = quotient_report(module, spec, window=args.window)
    result = {"model": module.descriptor(), "space": args.space}
    result.update(rep.to_json())
    config = {"model": desc, "cutoff": args.cutoff, "space": args.space,
              "n": args.n, "m": args.m, "window": args.window}
    return config, result, 0


def _alpha_string(vec) -> str:
    if not any(vec):
        return "0"
    parts = []
    for i, c in enumerate(vec):
        if not c:
            continue
        coeff = "" if c == 1 else ("-" if c == -1 else str(c))
        term = f"{coeff}a{i + 1}"
        parts.append(f"+{term}" if c > 0 and parts else term)
    return "".join(parts)


def cmd_lattice_gamma(args) -> tuple[dict, dict, int]:
    gram = _json_arg("gram", args.gram)
    lam = _json_arg("lambda", args.lam) if args.lam else None
    lat = EvenLattice(gram)
    gammas = gamma_set(gram, lam)
    gammas.sort(key=lambda g: (lat.halfnorm(g), tuple(-x for x in g)))
    result = {"gamma": [_alpha_string(g) for g in gammas],
              "size": len(gammas)}
    config = {"gram": gram, "lambda": lam}
    return config, result, 0


def cmd_lattice_b1check(args) -> tuple[dict, dict, int]:
    gram = _json_arg("gram", args.gram)
    lam = _json_arg("lambda", args.lam) if args.lam else None
    result = b1_span_check(gram, lam, args.cutoff)
    config = {"gram": gram, "lambda": lam, "cutoff": args.cutoff}
    code = 0 if result.get("ok") else 2
    return config, result, code


def _build_label_module(voa: TruncatedModel, label, cutoff: int):
    if label == "vacuum":
        return voa
    if isinstance(label, dict):
        if voa.kind == "virasoro-irreducible" and set(label) == {"r", "s"}:
            return irreducible_model(voa.params["p"], voa.params["q"],
                                     *(_integer(label[f], f"blocks: label field {f!r}")
                                       for f in "rs"), cutoff, voa=voa)
        if voa.kind == "lattice" and set(label) == {"lambda"}:
            gram = [list(row) for row in voa.lattice.gram]
            return lattice_model(gram, label["lambda"], cutoff, voa=voa)
    raise SchemaError(f"blocks: cannot interpret label {label!r} "
                      f"over a {voa.kind} model")


def cmd_blocks_dim(args) -> tuple[dict, dict, int]:
    config = _read_object(args.config, "config")
    for field in ("points", "voa", "labels", "D", "P"):
        if field not in config:
            raise SchemaError(f"config: missing field {field!r}")
    for field in ("points", "labels"):
        if not isinstance(config[field], list):
            raise SchemaError(f"config: field {field!r} must be a list, "
                              f"got {config[field]!r}")
    for field, low in (("D", 0), ("P", 0), ("w_max", 1)):  # only w_max may be absent
        _integer(config.get(field, low), f"config: field {field!r}", low)
    d, p = config["D"], config["P"]
    points = tuple(qparse(x) for x in config["points"])
    voa = build_model(config["voa"], d)
    # Repeated labels share one module object, and with it one mode cache.
    built: dict[str, TruncatedModel] = {}
    modules = []
    for lab in config["labels"]:
        key = json.dumps(lab, sort_keys=True)
        if key not in built:
            built[key] = _build_label_module(voa, lab, d)
        modules.append(built[key])
    surface = LabeledLine(PointedLine(points), modules)
    rep = coinvariant_report(surface, d, p, w_max=config.get("w_max"))
    return config, rep.to_json(), 0


def cmd_rr_gaps(args) -> tuple[dict, dict, int]:
    m, gaps = m_constant_and_gaps(args.genus, args.r_u)
    h0 = {str(n): {str(mm): rr_h0(args.genus, n, mm) for mm in range(0, 7)}
          for n in range(1, args.r_u + 1)}
    result = {"M": m, "gaps": {str(n): g for n, g in gaps.items()},
              "h0_table": h0}
    config = {"genus": args.genus, "r_u": args.r_u}
    return config, result, 0


# ---------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="voablocks", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="also write the JSON report to a file")
        sp.add_argument("--table", action="store_true",
                        help="render the result as aligned text")

    ci = sub.add_parser("check-identities", parents=[], add_help=True)
    ci.add_argument("--model", default="ising")
    ci.add_argument("--cutoff", type=_nonnegative_int, default=8)
    ci.add_argument("--samples", type=_positive_int, default=200)
    ci.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ci.add_argument("--max-exponent", type=_positive_int, default=4)
    ci.set_defaults(fn=cmd_check_identities)
    common(ci)

    vir = sub.add_parser("virasoro")
    vsub = vir.add_subparsers(dest="subcommand", required=True)
    vs = vsub.add_parser("singular")
    vs.add_argument("--c")
    vs.add_argument("--h")
    for flag in "pqrs":
        vs.add_argument(f"-{flag}", type=int, default=None)
    vs.add_argument("--level", type=_nonnegative_int, required=True)
    vs.set_defaults(fn=cmd_virasoro_singular)
    common(vs)
    vf = vsub.add_parser("ff-verify")
    for flag in "pqrs":
        vf.add_argument(f"-{flag}", type=int, required=True)
    vf.set_defaults(fn=cmd_virasoro_ff_verify)
    common(vf)
    vb = vsub.add_parser("bounds")
    for flag in "pqrs":
        vb.add_argument(f"-{flag}", type=int, required=True)
    vb.set_defaults(fn=cmd_virasoro_bounds)
    common(vb)

    qu = sub.add_parser("quotient")
    qu.add_argument("--space", choices=("c2", "cn", "b1", "cmu"), required=True)
    qu.add_argument("--model", default="ising")
    qu.add_argument("--cutoff", type=_nonnegative_int, default=8)
    qu.add_argument("--n", type=int, default=2)
    qu.add_argument("--m", type=int, default=1)
    qu.add_argument("--window", type=_positive_int, default=None)
    qu.set_defaults(fn=cmd_quotient)
    common(qu)

    la = sub.add_parser("lattice")
    lsub = la.add_subparsers(dest="subcommand", required=True)
    lg = lsub.add_parser("gamma")
    lg.add_argument("--gram", required=True)
    lg.add_argument("--lambda", dest="lam", default=None)
    lg.set_defaults(fn=cmd_lattice_gamma)
    common(lg)
    lb = lsub.add_parser("b1check")
    lb.add_argument("--gram", required=True)
    lb.add_argument("--lambda", dest="lam", default=None)
    lb.add_argument("--cutoff", type=_nonnegative_int, default=6)
    lb.set_defaults(fn=cmd_lattice_b1check)
    common(lb)

    bl = sub.add_parser("blocks")
    bsub = bl.add_subparsers(dest="subcommand", required=True)
    bd = bsub.add_parser("dim")
    bd.add_argument("--config", required=True)
    bd.set_defaults(fn=cmd_blocks_dim)
    common(bd)

    rr = sub.add_parser("rr")
    rsub = rr.add_subparsers(dest="subcommand", required=True)
    rg = rsub.add_parser("gaps")
    rg.add_argument("--genus", type=int, required=True)
    rg.add_argument("--r-u", type=int, default=1)
    rg.set_defaults(fn=cmd_rr_gaps)
    common(rg)

    return p


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "table", False):
        for key, value in report["result"].items():
            print(f"{key:>24}  {value}")
    else:
        print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config, result, code = args.fn(args)
    except ValueError as e:  # a SchemaError, or input a library call rejects
        print(f"schema error: {e}", file=sys.stderr)
        return 1
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except TruncationError as e:
        print(f"truncation: {e}", file=sys.stderr)
        return 3
    report = {
        "command": args.command + (
            f" {args.subcommand}" if getattr(args, "subcommand", None) else ""),
        "version": __version__,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "result": result,
    }
    if hasattr(args, "seed"):
        report["seed"] = args.seed
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
