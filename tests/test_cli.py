"""Tests for the command-line report front door."""

import hashlib
import json

import pytest

from voablocks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_virasoro_bounds_example(capsys):
    code, out = run(capsys, "virasoro", "bounds",
                    "-p", "4", "-q", "3", "-r", "1", "-s", "2")
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"c": "1/2", "h": "1/16",
                                "c2_vacuum_bound": 3, "b1_bound": 2}
    assert report["version"]
    assert len(report["config_sha256"]) == 64


def test_lattice_gamma_example(capsys):
    code, out = run(capsys, "lattice", "gamma",
                    "--gram", "[[2]]", "--lambda", "[0]")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"gamma": ["0", "a1", "-a1"], "size": 3}


def test_check_identities_deterministic(capsys):
    args = ("check-identities", "--model", "ising", "--cutoff", "6",
            "--samples", "20")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical report for the same config
    report = json.loads(out1)
    assert report["result"]["failures"] == 0
    assert report["result"]["samples"] == 20
    assert report["seed"] == report["config"]["seed"]


def test_virasoro_singular_command(capsys):
    code, out = run(capsys, "virasoro", "singular",
                    "-p", "4", "-q", "3", "-r", "1", "-s", "2",
                    "--level", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 1
    assert result["h"] == "1/16"


def test_quotient_command(capsys):
    code, out = run(capsys, "quotient", "--space", "c2",
                    "--model", "ising", "--cutoff", "8")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["cumulative"] == 3
    assert result["stabilized"] is True


def test_ff_verify_command(capsys):
    code, out = run(capsys, "virasoro", "ff-verify",
                    "-p", "4", "-q", "3", "-r", "2", "-s", "2")
    assert code == 0
    assert json.loads(out)["result"] == {"alpha": "1", "ok": True}


SIGMA = '{"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 2}'


@pytest.mark.parametrize("argv, digest", [
    (("check-identities", "--model", "ising", "--cutoff", "8"),
     "e3e071d781533aa0013978b5f1b5998b614b67ed94fb301b8f2430e61f843807"),
    (("check-identities", "--model", "a1", "--cutoff", "6"),
     "4ff63221d909a47cd40efae4351f8ec4b784d2eac89a7fbbfa57a869a43df607"),
    (("check-identities", "--model", SIGMA, "--cutoff", "7"),
     "2ea99141d7f10e2d280e6f5e675c1c00d32eef41ee5a81b12bc084c286562b37"),
    (("virasoro", "ff-verify", "-p", "5", "-q", "3", "-r", "2", "-s", "2"),
     "b2277691420cadd6cea61ea7f5f2a20cad2f3722979e390e260c8694c189d497"),
    (("virasoro", "ff-verify", "-p", "7", "-q", "2", "-r", "1", "-s", "3"),
     "b2277691420cadd6cea61ea7f5f2a20cad2f3722979e390e260c8694c189d497"),
    (("virasoro", "bounds", "-p", "5", "-q", "4", "-r", "2", "-s", "2"),
     "5989262e2b295c194f51a4ea37de577ed54ed8a024281a22a92dabef2f57571d"),
    (("virasoro", "bounds", "-p", "9", "-q", "2", "-r", "1", "-s", "4"),
     "df9d7705b58f02bee591c8d9ec9aecb656df93849f99b5c4a88bc296bf90ad60"),
], ids=["identities-ising-8", "identities-a1-6", "identities-sigma-7",
        "ff-verify-5-3-2-2", "ff-verify-7-2-1-3", "bounds-5-4-2-2", "bounds-9-2-1-4"])
def test_report_body_matches_its_recorded_digest(capsys, argv, digest):
    """Report bodies that bench/digests.json does not cover, pinned by the
    sha256 of ``json.dumps(result, sort_keys=True)`` from an earlier tree."""
    code, out = run(capsys, *argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == digest


def test_rr_gaps_command(capsys):
    code, out = run(capsys, "rr", "gaps", "--genus", "1", "--r-u", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["M"] == 2
    assert result["gaps"]["1"] == [1]


def test_blocks_dim_command(tmp_path, capsys):
    config = {
        "points": ["0"],
        "voa": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1},
        "labels": ["vacuum"],
        "D": 10,
        "P": 4,
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "blocks", "dim", "--config", str(path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["total"] == 1
    assert result["stabilized"] is True
    assert result["total"] <= result["theorem_bound"]


def test_schema_violations_exit_one(capsys):
    assert main(["quotient", "--space", "nope"]) == 1
    assert main(["lattice", "gamma", "--gram", "not-json"]) == 1
    assert main(["virasoro", "singular", "--level", "2"]) == 1  # no c/h
    assert main(["check-identities", "--model", "{bad json"]) == 1


@pytest.mark.parametrize("argv", [
    ["lattice", "gamma", "--gram", "[[2,1],[1,2]]", "--lambda", "[1,0,7]"],
    ["lattice", "gamma", "--gram", "[[2,1],[1,2]]", "--lambda", "[1]"],
    ["lattice", "b1check", "--gram", "[[2]]", "--lambda", "[1,5]", "--cutoff", "2"],
    ["lattice", "b1check", "--gram", "[[2]]", "--lambda", "[0,0]", "--cutoff", "2"],
])
def test_lambda_of_the_wrong_length_is_a_schema_error(capsys, argv):
    # Extra entries were dropped silently, and a short lambda hit an IndexError.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error: lambda has")


@pytest.mark.parametrize("gram", ["[[2.5]]", "5", "[5]", "[[2, 1], [1, 2.5]]"])
def test_non_integral_or_non_matrix_gram_is_a_schema_error(capsys, gram):
    # [[2.5]] was truncated to [[2]], and a bare number hit a TypeError.
    assert main(["lattice", "gamma", "--gram", gram]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error: Gram matrix")


def test_blocks_dim_builds_each_distinct_label_once(tmp_path, capsys, monkeypatch):
    from voablocks import cli

    built = []
    real = cli._build_label_module

    def counting(voa, label, cutoff):
        built.append(label)
        return real(voa, label, cutoff)

    monkeypatch.setattr(cli, "_build_label_module", counting)
    sigma, eps = {"r": 2, "s": 2}, {"s": 1, "r": 2}
    config = {
        "points": ["0", "1", "-1"],
        "voa": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1},
        "labels": [sigma, dict(sigma), eps],
        "D": 6,
        "P": 2,
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "blocks", "dim", "--config", str(path))
    assert code == 0
    assert built == [sigma, eps]
    assert json.loads(out)["result"]["total"] == 1  # sigma x sigma contains eps once


@pytest.mark.parametrize("labels, reports, result", [
    # The bodies recorded when complement_U ran twice and the bound took one
    # quotient report per slot.
    (["sigma", "sigma", "sigma"], 1,
     {"bound_provisional": False, "d_valid": 2, "est_per_degree": [0, 0, 0],
      "stabilized": True, "theorem_bound": 8, "total": 0}),
    (["sigma", "sigma", "eps"], 2,
     {"bound_provisional": False, "d_valid": 2, "est_per_degree": [1, 0, 0],
      "stabilized": False, "theorem_bound": 8, "total": 1}),
])
def test_blocks_dim_computes_u_once_and_one_bound_report_per_module(
        tmp_path, capsys, monkeypatch, labels, reports, result):
    from voablocks import blocks

    calls = {"complement_U": 0, "quotient_report": 0}

    def counted(name):
        real = getattr(blocks, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(blocks, name, counted(name))
    ising_labels = {"sigma": {"r": 2, "s": 2}, "eps": {"r": 2, "s": 1}}
    config = {
        "points": ["0", "1", "-1"],
        "voa": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1},
        "labels": [ising_labels[lab] for lab in labels],
        "D": 7,
        "P": 2,
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "blocks", "dim", "--config", str(path))
    assert code == 0
    assert calls == {"complement_U": 1, "quotient_report": reports}
    body = json.loads(out)["result"]
    assert body == {**result, "params": {"D": 7, "P": 2, "points": ["0", "1", "-1"],
                                         "w_max": 4}}


def _blocks_config(tmp_path, **changes):
    config = {"points": ["0"], "labels": ["vacuum"], "D": 4, "P": 2,
              "voa": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1}}
    config.update(changes)
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("field,value", [
    ("D", -1), ("P", -1), ("D", 2.5), ("P", "4"), ("D", True),
    ("w_max", "2"), ("w_max", True), ("w_max", 0), ("w_max", None),
    ("points", 5), ("points", "0"), ("labels", {"r": 1, "s": 1}),
])
def test_blocks_dim_rejects_bad_d_or_p(tmp_path, capsys, field, value):
    path = _blocks_config(tmp_path, **{field: value})
    assert main(["blocks", "dim", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"schema error: config: field {field!r}")


@pytest.mark.parametrize("argv", [
    ["quotient", "--space", "c2", "--model", "ising", "--cutoff", "-1"],
    ["check-identities", "--cutoff", "-1"],
    ["lattice", "b1check", "--gram", "[[2]]", "--cutoff", "-2"],
    ["virasoro", "singular", "-p", "4", "-q", "3", "-r", "1", "-s", "2",
     "--level", "-1"],
    # A sample count or exponent bound below 1 cannot draw a valid sample.
    ["check-identities", "--max-exponent", "0"],
    ["check-identities", "--max-exponent", "-1"],
    ["check-identities", "--samples", "0"],
    ["check-identities", "--samples", "-3"],
])
def test_negative_cutoff_or_level_is_a_schema_error(capsys, argv):
    low = 1 if argv[-2] in ("--max-exponent", "--samples") else 0
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error:") and f"must be >= {low}" in captured.err


@pytest.mark.parametrize("window", ["0", "-2"])
def test_window_below_one_is_a_schema_error(capsys, window):
    # Window 0 made the tail the whole list, and -2 was echoed in the report.
    assert main(["quotient", "--space", "c2", "--model", "ising", "--cutoff", "4",
                 "--window", window]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error:") and "must be >= 1" in captured.err


def test_window_one_is_accepted(capsys):
    code, out = run(capsys, "quotient", "--space", "c2", "--model", "ising",
                    "--cutoff", "4", "--window", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["window"] == 1
    assert result["stabilized"] is (result["per_degree"][-1] == 0)


def test_zero_cutoff_is_accepted(capsys):
    code, out = run(capsys, "quotient", "--space", "c2", "--model", "ising",
                    "--cutoff", "0")
    assert code == 0
    assert json.loads(out)["result"]["per_degree"] == [1]


def test_out_and_table_flags(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "virasoro", "bounds",
                    "-p", "4", "-q", "3", "-r", "1", "-s", "1",
                    "--table", "--out", str(out_path))
    assert code == 0
    assert "c2_vacuum_bound" in out and "{" not in out.splitlines()[0]
    saved = json.loads(out_path.read_text())
    assert saved["result"]["c2_vacuum_bound"] == 3


@pytest.mark.parametrize("gram", ["[[2,2],[2,2]]", "[[2,3],[3,2]]", "[[-2]]",
                                  "[[0,1],[1,0]]"])
def test_a_gram_matrix_that_is_not_positive_definite_is_a_schema_error(capsys, gram):
    assert main(["lattice", "gamma", "--gram", gram]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "schema error: Gram matrix is not positive definite\n"


@pytest.mark.parametrize("argv, body, prefix", [
    (["quotient", "--space", "c2", "--model"], [1, 2], "model"),
    (["blocks", "dim", "--config"],
     {"points": ["0"], "voa": [1], "labels": ["vacuum"], "D": 4, "P": 2}, "model"),
    (["blocks", "dim", "--config"], "points voa labels D P", "config"),
], ids=["model-list", "config-voa-list", "config-string"])
def test_a_descriptor_that_is_not_an_object_is_a_schema_error(tmp_path, capsys,
                                                                argv, body, prefix):
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(body))
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"schema error: {prefix}: expected an object")


@pytest.mark.parametrize("error, code, prefix", [
    ("VerificationError", 2, "verification failure: "),
    ("TruncationError", 3, "truncation: "),
])
def test_internal_failures_have_their_own_exit_codes(capsys, monkeypatch, error, code, prefix):
    from voablocks import cli, core

    def failing(args):
        raise getattr(core, error)("injected")

    monkeypatch.setattr(cli, "cmd_rr_gaps", failing)
    assert main(["rr", "gaps", "--genus", "0"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}injected\n"


def test_lattice_b1check_command(capsys):
    code, out = run(capsys, "lattice", "b1check", "--gram", "[[2]]", "--lambda", "[1]",
                    "--cutoff", "6")
    assert code == 0
    assert json.loads(out)["result"] == {
        "per_degree_deficiency": [0] * 7, "gamma_size": 2, "ok": True}


@pytest.mark.parametrize("space, per_degree, window", [
    (["cn", "--n", "3"], [1, 0, 1, 1, 1, 1, 0, 0, 0], 3),
    (["b1"], [1, 0, 0, 0, 0, 0, 0, 0, 0], 3),
    (["cmu"], [1, 0, 0, 0, 0, 0, 0, 0, 0], 4),  # r_U = 4 widens the window
])
def test_quotient_spaces_other_than_c2(capsys, space, per_degree, window):
    code, out = run(capsys, "quotient", "--model", "ising", "--cutoff", "8",
                    "--space", *space)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["space"] == space[0]
    assert result["per_degree"] == per_degree
    assert result["cumulative"] == sum(per_degree)
    assert result["stabilized"] is True and result["window"] == window


@pytest.mark.parametrize("model, per_degree", [
    ('{"kind": "virasoro-vacuum", "c": "1/2"}', [1, 0, 1, 0, 1, 0, 1]),  # C[omega]
    ('{"kind": "virasoro-verma", "c": "1/2", "h": "1/16"}', [1, 1, 2, 2, 3, 3, 4]),
    ('{"kind": "heisenberg", "rank": 2}', [1, 2, 3, 4, 5, 6, 7]),  # C[h1, h2]
], ids=["vacuum", "verma", "heisenberg"])
def test_quotient_on_every_model_kind(capsys, model, per_degree):
    code, out = run(capsys, "quotient", "--space", "c2", "--model", model,
                    "--cutoff", "6")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["model"]["kind"] == json.loads(model)["kind"]
    assert result["per_degree"] == per_degree
    assert result["stabilized"] is False


@pytest.mark.parametrize("model, message", [
    ('{"kind": "virasoro-verma", "c": "1/2"}',
     "model: missing field 'h' for kind 'virasoro-verma'"),
    ('{"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1}',
     "model: missing field 's' for kind 'virasoro-irreducible'"),
    ('{"kind": "monster"}', "model: unknown kind 'monster'"),
    ('{"c": "1/2"}', "model: unknown kind None"),
    # An integer field is never coerced: 4.9 built the (4,3) model, and rank -1 the rank-0 one.
    ('{"kind": "virasoro-irreducible", "p": 4.9, "q": 3, "r": 1, "s": 1}',
     "model: field 'p' must be an integer, got 4.9"),
    ('{"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": true, "s": 1}',
     "model: field 'r' must be an integer, got True"),
    ('{"kind": "heisenberg", "rank": 1.5}', "model: field 'rank' must be an integer, got 1.5"),
    ('{"kind": "heisenberg", "rank": true}', "model: field 'rank' must be an integer, got True"),
    ('{"kind": "heisenberg", "rank": -1}', "rank must be nonnegative, got -1"),
])
def test_a_model_with_a_missing_field_or_unknown_kind_is_a_schema_error(
        capsys, model, message):
    assert main(["quotient", "--space", "c2", "--model", model, "--cutoff", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"schema error: {message}\n"


def test_a_toml_model_file(tmp_path, capsys):
    path = tmp_path / "ising.toml"
    path.write_text('kind = "virasoro-irreducible"\np = 4\nq = 3\nr = 1\ns = 1\n')
    code, out = run(capsys, "quotient", "--space", "c2", "--model", str(path),
                    "--cutoff", "8")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["model"]["kind"] == "virasoro-irreducible"
    assert result["cumulative"] == 3 and result["stabilized"] is True


@pytest.mark.parametrize("name, body, message", [
    ("absent.json", None, "cannot read"),
    ("broken.json", '{"kind": "lattice", ', "failed to parse"),
    ("broken.toml", "kind = = 1\n", "failed to parse"),
])
def test_an_unreadable_or_unparsable_model_file_is_a_schema_error(
        tmp_path, capsys, name, body, message):
    path = tmp_path / name
    if body is not None:
        path.write_text(body)
    assert main(["quotient", "--space", "c2", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"schema error: model: {message} {str(path)!r}: ")


def test_virasoro_singular_from_c_and_h(capsys):
    code, out = run(capsys, "virasoro", "singular", "--c", "1/2", "--h", "1/16",
                    "--level", "2")
    assert code == 0
    result = json.loads(out)["result"]
    # L_{-1}^2 - 2(2h+1)/3 L_{-2} at h = 1/16
    assert result == {"c": "1/2", "h": "1/16", "level": 2, "dimension": 1,
                      "vectors": [{"1,1": "1", "2": "-3/4"}]}


def test_virasoro_singular_p_without_q_r_s_is_a_schema_error(capsys):
    assert main(["virasoro", "singular", "-p", "4", "-q", "3", "--level", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "schema error: virasoro: -p requires -q, -r, -s as well\n"


A1_PAIR = {"points": ["0", "1"], "voa": {"kind": "lattice", "gram": [[2]]},
           "D": 4, "P": 2, "w_max": 1}


@pytest.mark.parametrize("labels, est", [
    ([{"lambda": [1]}, {"lambda": [1]}], [1, 0, 0]),  # w1 + w1 lies in L
    ([{"lambda": [1]}, "vacuum"], [0, 0, 0]),  # w1 does not
])
def test_blocks_dim_with_lattice_labels(tmp_path, capsys, labels, est):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({**A1_PAIR, "labels": labels}))
    code, out = run(capsys, "blocks", "dim", "--config", str(path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["est_per_degree"] == est and result["total"] == sum(est)
    assert result["total"] <= result["theorem_bound"]


@pytest.mark.parametrize("config, message", [
    ({**A1_PAIR, "labels": [{"r": 2, "s": 2}, "vacuum"]},
     "blocks: cannot interpret label {'r': 2, 's': 2} over a lattice model"),
    ({**A1_PAIR, "labels": ["sigma", "vacuum"]},
     "blocks: cannot interpret label 'sigma' over a lattice model"),
    ({"points": ["0"], "labels": ["vacuum"], "P": 2,
      "voa": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1}},
     "config: missing field 'D'"),
    ({"points": ["0"], "labels": [{"r": 2.0, "s": 1}], "D": 4, "P": 2,
      "voa": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1}},
     "blocks: label field 'r' must be an integer, got 2.0"),
    ({"points": ["0"], "labels": [{"r": 2, "s": False}], "D": 4, "P": 2,
      "voa": {"kind": "virasoro-irreducible", "p": 4, "q": 3, "r": 1, "s": 1}},
     "blocks: label field 's' must be an integer, got False"),
], ids=["virasoro-label", "string-label", "no-D", "float-r", "bool-s"])
def test_blocks_dim_rejects_uninterpretable_labels_and_missing_fields(
        tmp_path, capsys, config, message):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(config))
    assert main(["blocks", "dim", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"schema error: {message}\n"


@pytest.mark.parametrize("route", ["singular", "quotient", "blocks"])
def test_a_zero_denominator_is_a_schema_error_on_every_route(tmp_path, capsys, route):
    # Fraction("1/0") raised ZeroDivisionError, which escaped as a traceback.
    argv = {
        "singular": ["virasoro", "singular", "--c", "1/0", "--h", "0", "--level", "2"],
        "quotient": ["quotient", "--space", "c2",
                     "--model", '{"kind": "virasoro-vacuum", "c": "1/0"}'],
        "blocks": ["blocks", "dim", "--config", _blocks_config(tmp_path, points=["1/0"])],
    }[route]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "schema error: '1/0' has a zero denominator\n"
