"""Command-line interface: subcommands, exit codes, argument files, and
report stability."""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmem import cli
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.surface_tensors import Tangent4


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def file_text(tokens) -> str:
    """The text of an argument file: one argument per line."""
    return "".join(f"{t}\n" for t in tokens)


def arg_file(path, *tokens) -> str:
    """Write an argument file of tokens; its @FILE token."""
    path.write_text(file_text(tokens))
    return f"@{path}"


def test_cone_subcommand(capsys):
    code, out, _ = run_cli(["cone", "--declination", "300"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["apex_angle_deg"] == pytest.approx(19.1881364537209229,
                                                      rel=1e-12)


def test_cone_rejects_inadmissible_declination(capsys):
    code, _, err = run_cli(["cone", "--declination", "90"], capsys)
    assert code == 2
    assert "usage error" in err


def test_beam_subcommand(capsys):
    code, out, _ = run_cli(
        ["beam", "--modulus", "340", "--r-m", "1.0", "--length", "38.19",
         "--theta-w-deg", "17.45", "--delta", "0.1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["F_w_nN"] == pytest.approx(0.0183021422694824289,
                                              rel=1e-12)
    assert payload["F_A_nN"] == pytest.approx(0.0582241000598239362,
                                              rel=1e-12)


def test_beam_rejects_non_positive_modulus(capsys):
    code, out, err = run_cli(
        ["beam", "--modulus", "-340", "--r-m", "1", "--length", "10",
         "--theta-w-deg", "20"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1


def test_contact_subcommand_with_csv(tmp_path, capsys):
    out_path = tmp_path / "contact.csv"
    code, out, _ = run_cli(["contact", "--out", str(out_path)], capsys)
    assert code == 0
    assert "psi(h0=0.34) = -0.14" in out
    assert "0.396097637" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "step,r_nm,psi,traction"
    assert len(lines) == 47


def test_curve_subcommand_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        ["curve", "--protocol", "uniaxial-constrained", "--range", "1.0",
         "1.1", "--steps", "2", "--out", str(out_path)], capsys)
    assert code == 0
    assert "peak sigma11" in out
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    row = lines[2].split(",")
    assert float(row[2]) == pytest.approx(26.6862641044064581, rel=1e-13)


@pytest.mark.parametrize("protocol, hi, steps, ratio, in_range", [
    pytest.param("pure-shear", "1.6", "26", "2.56", "no",
                 id="pure-shear-1.6-2.56-no"),
    pytest.param("uniaxial-constrained", "1.1", "26", "1.1", "yes",
                 id="uniaxial-constrained-1.1-1.1-yes"),
    # one step evaluates start only, C = I, whatever the range's end
    pytest.param("pure-shear", "1.6", "1", "1", "yes",
                 id="pure-shear-1.6-steps1-1-yes"),
])
def test_curve_reports_fitted_range(tmp_path, capsys, protocol, hi, steps,
                                    ratio, in_range):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        ["curve", "--protocol", protocol, "--range", "1.0", hi,
         "--steps", steps, "--out", str(out_path)], capsys)
    assert code == 0
    assert out.endswith(f"; max stretch ratio {ratio}, "
                        f"in fitted range: {in_range}\n")
    header = out_path.read_text().splitlines()[0]
    assert header == ("step,lambda_or_J,sigma11,sigma22,sigma12,W,model,"
                      "param_set,theta_deg")


def test_curve_requires_output_path(capsys):
    code, _, err = run_cli(["curve"], capsys)
    assert code == 2
    assert "--out" in err


def test_curve_rejects_bad_protocol(capsys):
    # enum violations are caught by the argument parser itself
    code, out, err = run_cli(
        ["curve", "--protocol", "bogus", "--out", "x.csv"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: argument --protocol: invalid choice: "
                          "'bogus'") and err.count("\n") == 1


def test_curve_rejects_out_of_range_sweep(capsys):
    code, _, err = run_cli(
        ["curve", "--range", "1.0", "1.9", "--out", "x.csv"], capsys)
    assert code == 2
    assert "usage error" in err


def test_verify_subcommand_and_determinism(capsys):
    argv = ["verify", "--model", "log", "--samples", "8", "--seed", "4"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["pass"] is True
    rep = payload["reports"][0]
    assert rep["model"] == "log"
    assert rep["n_samples"] == 8 and rep["seed"] == 4


def test_verify_all_models(capsys):
    code, out, _ = run_cli(["verify", "--samples", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [r["model"] for r in payload["reports"]] == ["metric", "log",
                                                        "bending"]


def test_verify_tolerance_breach_exits_one(monkeypatch, capsys):
    monkeypatch.setitem(sc.VERIFY_TOLERANCES["metric"], "tangent_fd", 1e-16)
    code, out, _ = run_cli(
        ["verify", "--model", "metric", "--samples", "5"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def nan_in_metric_tangents(monkeypatch):
    """Make every tangent_metric return one NaN entry."""
    tangent = mm.tangent_metric

    def one_nan_entry(c, frame, params):
        comp = tangent(c, frame, params).comp.copy()
        comp[0, 1, 0, 1] = math.nan
        return Tangent4(comp)

    monkeypatch.setattr(mm, "tangent_metric", one_nan_entry)


def test_verify_nan_error_exits_one(monkeypatch, capsys):
    nan_in_metric_tangents(monkeypatch)
    code, out, err = run_cli(["verify", "--model", "metric", "--samples", "3"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: verify result is not finite")


def test_verify_rejects_zero_samples(capsys):
    code, out, err = run_cli(["verify", "--samples", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "usage error: n_samples must be >= 1\n"


@pytest.mark.parametrize("flag", ["--h0", "--gamma"])
@pytest.mark.parametrize("value", ["0", "-0.1"])
def test_contact_rejects_non_positive_parameters(flag, value, capsys):
    code, out, err = run_cli(["contact", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, argv", [
    ("curve", ["--steps", "1000000000", "--out", "f.csv"]),
    ("contact", ["--steps", "1000000000", "--out", "f.csv"]),
    ("contact", ["--steps", "1000000000"]),
])
def test_steps_above_the_bound_is_a_usage_error(tmp_path, monkeypatch,
                                                command, argv, capsys):
    """--steps above sc.MAX_STEPS exits 2 with one line, before any sweep
    array is built, and writes no file."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([command, *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1
    assert str(sc.MAX_STEPS) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, bound", [
    (["verify", "--samples", "1000000000"], "MAX_SAMPLES"),
    (["verify", "--model", "bending", "--samples", "100001"], "MAX_SAMPLES"),
    (["bench", "--n-evals", "1000000000"], "MAX_EVALS"),
])
def test_samples_and_evals_above_their_bounds_are_usage_errors(
        monkeypatch, argv, bound, capsys):
    """verify --samples above sc.MAX_SAMPLES and bench --n-evals above
    sc.MAX_EVALS exit 2 with one line, before any state is drawn."""
    def draw(*_args):
        raise AssertionError("a state was drawn")
    for name in ("_membrane_state", "_bending_state", "_membrane_sample",
                 "_bending_sample", "make_frame"):
        monkeypatch.setattr(sc, name, draw)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1
    assert str(getattr(sc, bound)) in err


@pytest.mark.parametrize("h0, rx", [("1e-300", "1.16499305e-300"),
                                    ("1e200", "1.16499305e+200"),
                                    ("1e-320", "1.16500679e-320")])
def test_contact_extreme_spacing_is_finite(h0, rx, capsys):
    code, out, err = run_cli(["contact", "--h0", h0, "--gamma", "1"], capsys)
    assert code == 0
    assert err == ""
    assert out == (f"psi(h0={float(h0)}) = -1 N/m, traction(h0) = 0; "
                   f"traction extremum at r = {rx} nm\n")


def test_contact_large_gamma_is_finite_at_h0(capsys):
    """gamma multiplies the exact zero of the traction at h0 last, so a
    gamma near the float maximum gives psi(h0) = -gamma and traction 0."""
    code, out, err = run_cli(["contact", "--gamma", "1e308"], capsys)
    assert code == 0
    assert err == ""
    assert out == ("psi(h0=0.34) = -1e+308 N/m, traction(h0) = 0; "
                   "traction extremum at r = 0.396097637 nm\n")


@pytest.mark.parametrize("argv, where", [
    (["--r-min", "1e-200", "--r-max", "1", "--steps", "3"],
     "result is not finite: psi or traction overflows at r = 1e-200 nm"),
    (["--r-min", "1e-41", "--r-max", "1", "--steps", "3"],
     "result is not finite: psi or traction overflows at r = 1e-41 nm"),
    pytest.param(["--h0", "1.6e308"], "result is not finite: psi -0.14, "
                 "traction 0.0, extremum inf at h0 = 1.6e+308 nm\n",
                 id="argv2-result is not finite at h0"),
])
def test_contact_non_finite_result_writes_nothing(tmp_path, argv, where,
                                                  capsys):
    path = tmp_path / "c.csv"
    code, out, err = run_cli(["contact", *argv, "--out", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: contact {where}") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("r_m, length", [("1e200", "1"), ("1", "1e-200")])
def test_beam_overflow_is_a_non_finite_result(r_m, length, capsys):
    code, out, err = run_cli(
        ["beam", "--modulus", "1", "--r-m", r_m, "--length", length,
         "--theta-w-deg", "45"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: beam result is not finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["beam", "--modulus", "340", "--r-m", "1", "--length", "10",
      "--theta-w-deg", "30", "--delta", "nan"], "--delta"),
    (["beam", "--modulus", "inf", "--r-m", "1", "--length", "10",
      "--theta-w-deg", "30"], "--modulus"),
    (["contact", "--h0", "nan"], "--h0"),
    (["compare", "--range", "1.0", "inf"], "--range"),
    (["curve", "--theta-deg=-inf", "--out", "x.csv"], "--theta-deg"),
])
def test_non_finite_numbers_are_usage_errors(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and flag in err


def test_non_finite_config_value_is_usage_error(tmp_path, capsys):
    at = arg_file(tmp_path / "args.txt", "--h0=nan")
    code, _, err = run_cli(["contact", at], capsys)
    assert code == 2
    assert err == ("usage error: argument --h0: expected a finite number, "
                   "got 'nan'\n")


@pytest.mark.parametrize("argv, lines, error", [
    # a value read from a file is converted and checked as the flag's text
    pytest.param(["verify", "--model", "log"], ["--samples=1.5"],
                 "argument --samples: invalid int value: '1.5'",
                 id="argv0-cfg0-samples"),
    pytest.param(["contact"], ["--h0", "1", "2"],
                 "unrecognized arguments: 2",
                 id="argv1-cfg1-h0"),
    pytest.param(["verify", "--model", "log"], ["--samples=true"],
                 "argument --samples: invalid int value: 'true'",
                 id="argv2-cfg2-samples"),
    pytest.param(["verify"], ["--model=membrane"],
                 "argument --model: invalid choice: 'membrane'",
                 id="argv3-cfg3-model"),
    pytest.param(["compare"], ["--theta-deg=north"],
                 "argument --theta-deg: expected a finite number, got 'north'",
                 id="argv4-cfg4-theta_deg"),
    pytest.param(["compare"], ["--range", "1.0"],
                 "argument --range: expected 2 arguments",
                 id="argv5-cfg5-range"),
    pytest.param(["compare"], ["--range", "1.0", "high"],
                 "argument --range: expected a finite number, got 'high'",
                 id="argv6-cfg6-range"),
    pytest.param(["curve", "--out", "x.csv"], ["--param-set="],
                 "argument --param-set: invalid choice: ''",
                 id="argv7-cfg7-param_set"),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, monkeypatch,
                                                   capsys, argv, lines, error):
    monkeypatch.chdir(tmp_path)
    at = arg_file(tmp_path / "args.txt", *lines)
    code, out, err = run_cli(argv + [at], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: {error}")
    assert err.count("\n") == 1
    assert [f.name for f in tmp_path.iterdir()] == ["args.txt"]


def test_config_values_convert_like_flags(tmp_path, capsys):
    path = tmp_path / "args.txt"
    at = arg_file(path, "--samples=2", "--model=log")
    code, out, _ = run_cli(["verify", at], capsys)
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert (report["model"], report["n_samples"]) == ("log", 2)
    arg_file(path, "--steps=3", "--range", "1.0", "1.01")
    code, out, _ = run_cli(["compare", at], capsys)
    assert code == 0
    protocol = json.loads(out)["protocol"]
    assert (protocol["steps"], protocol["range"]) == (3, [1.0, 1.01])


NOT_FINITE = "Out of range float values are not JSON compliant: "


def test_non_finite_result_is_not_printed(monkeypatch, capsys):
    """A float that is not finite anywhere in a report exits 1 with one
    line that names its path, the first in key order, and prints nothing."""
    with pytest.raises(ArithmeticError,
                       match=f"^{NOT_FINITE}nan at F_w_nN$"):
        cli._json_text({"command": "beam", "F_w_nN": float("nan")})
    # finite inputs whose force overflows
    code, out, err = run_cli(
        ["beam", "--modulus", "1e308", "--r-m", "1e100", "--length",
         "1e-100", "--theta-w-deg", "30"], capsys)
    assert code == 1
    assert out == ""
    assert err == (f"error: beam result is not finite: {NOT_FINITE}inf at "
                   "F_A_nN\n")
    nan_in_metric_tangents(monkeypatch)
    code, out, err = run_cli(["verify", "--model", "metric", "--samples", "3"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == (f"error: verify result is not finite: {NOT_FINITE}nan at "
                   "reports[0].checks.major_symmetry.max\n")


@pytest.mark.parametrize("payload, where", [
    ({"b": math.nan, "a": [1.0, math.inf]}, "a[1]"),
    ({"a": [0.5, {"z": (2.0, -math.inf)}, math.nan]}, "a[1].z[1]"),
    ({"a.b": {"": [[np.float64("nan")]]}}, "a.b.[0][0]"),
])
def test_non_finite_path_is_the_first_in_key_order(payload, where):
    with pytest.raises(ArithmeticError) as info:
        cli._json_text(payload)
    assert str(info.value).startswith(NOT_FINITE)
    assert str(info.value).endswith(f" at {where}")


def json_text(payload) -> str:
    """The report text json.dumps gives payload."""
    return json.dumps({**payload, "schema_version": cli.SCHEMA_VERSION},
                      sort_keys=True, indent=2, allow_nan=False) + "\n"


# characters json escapes: quotes, backslashes, control characters,
# non-ASCII characters and lone surrogates, and any code point at all
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\ud800'
                                         '\udfff\U0001f600'),
                         st.characters(exclude_categories=())), max_size=6)
FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1]),
                   st.floats(allow_nan=False, allow_infinity=False))
LEAVES = st.one_of(st.none(), st.sampled_from([True, False, 0, 1]),
                   st.integers(-2**200, 2**200), FLOATS,
                   FLOATS.map(np.float64), TEXT)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan,
                              np.float64("nan"), np.float64("-inf")])


def payloads(leaves):
    """Reports: str-keyed dicts of nested dicts, lists and tuples, empty
    ones included, over leaves."""
    trees = st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(TEXT, kids, max_size=4)), max_leaves=24)
    return st.dictionaries(TEXT, trees, max_size=4)


@settings(max_examples=300, deadline=None)
@given(payloads(LEAVES))
def test_report_text_is_json_dumps_text(payload):
    assert cli._json_text(payload) == json_text(payload)


@settings(max_examples=200, deadline=None)
@given(payloads(st.one_of(LEAVES, NON_FINITE)))
def test_non_finite_anywhere_is_an_arithmetic_error(payload):
    try:
        expected = json_text(payload)
    except ValueError:
        with pytest.raises(ArithmeticError, match=f"^{NOT_FINITE}"):
            cli._json_text(payload)
    else:
        assert cli._json_text(payload) == expected


def test_a_value_json_cannot_write_is_its_type_error():
    for payload in ({"a": {1, 2}}, {"a": [1.0, b"x"]}):
        with pytest.raises(TypeError) as ours:
            cli._json_text(payload)
        with pytest.raises(TypeError) as theirs:
            json_text(payload)
        assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "3"],
    ["compare", "--steps", "5"],
    ["bench", "--n-evals", "10000"],
    ["beam", "--modulus", "340", "--r-m", "1.0", "--length", "38.19",
     "--theta-w-deg", "17.45"],
    ["cone", "--declination", "300"],
], ids=lambda argv: argv[0])
def test_every_report_is_json_dumps_text(argv, monkeypatch, capsys):
    payloads_seen = []
    text_of = cli._json_text

    def spy(payload):
        payloads_seen.append(payload)
        return text_of(payload)

    monkeypatch.setattr(cli, "_json_text", spy)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(payloads_seen) == 1
    assert out == json_text(payloads_seen[0])


def test_compare_subcommand_reports_reference(capsys):
    code, out, _ = run_cli(
        ["compare", "--protocol", "uniaxial-constrained", "--theta-deg", "0",
         "--range", "1.0", "1.25", "--steps", "26"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["reference_percent"] == {"sigma11": 0.019,
                                            "sigma22": 0.199}
    assert payload["measured_max_percent"]["sigma11"] < 0.05


def test_compare_without_tabulated_reference(capsys):
    code, out, _ = run_cli(
        ["compare", "--protocol", "dilatation", "--range", "1.0", "1.2",
         "--steps", "5"], capsys)
    assert code == 0
    assert json.loads(out)["reference_percent"] is None


PURE_SHEAR_FIGURES = {"sigma11": 0.35, "sigma22": 0.42}


@pytest.mark.parametrize("protocol, hi, steps, ratio, in_range, reference", [
    pytest.param("pure-shear", "1.6", "5", 2.56, False, None,
                 id="1.6-2.56-False"),
    pytest.param("pure-shear", repr(math.sqrt(1.3)), "5", 1.3, True,
                 PURE_SHEAR_FIGURES, id="1.140175425099138-1.3-True"),
    # one step evaluates start only, C = I, whatever the range's end; the
    # figures describe a sweep
    pytest.param("pure-shear", "1.6", "1", 1.0, True, None,
                 id="1.6-steps1-1.0-True"),
    # inside the fitted range, but not the sweep the figures describe
    pytest.param("uniaxial-constrained", "1.05", "3", 1.05, True, None,
                 id="uniaxial-1.05-steps3-1.05-True"),
])
def test_compare_reports_fitted_range(protocol, hi, steps, ratio, in_range,
                                      reference, capsys):
    code, out, _ = run_cli(
        ["compare", "--protocol", protocol, "--range", "1.0", hi,
         "--steps", steps], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_stretch_ratio"] == pytest.approx(ratio, rel=1e-12)
    assert payload["in_fitted_range"] is in_range
    # the paper's figures describe one sweep each, inside the fitted range
    assert payload["reference_percent"] == reference
    assert payload["schema_version"] == 1


def test_bench_rejects_small_runs(capsys):
    code, _, err = run_cli(["bench", "--n-evals", "100"], capsys)
    assert code == 2
    assert "usage error" in err


def test_bench_writes_and_prints_its_report(tmp_path, capsys):
    path = tmp_path / "bench.json"
    code, out, err = run_cli(["bench", "--n-evals", "10000", "--out",
                              str(path)], capsys)
    assert code == 0
    assert err == ""
    assert out == path.read_text()
    payload = json.loads(out)
    assert payload["command"] == "bench" and payload["n_evals"] == 10000
    assert payload["speedup_stress_tangent"] > 0.0
    assert payload["speedup_stress_only"] > 0.0
    assert payload["consistency_gate"]["pass"] is True


def test_bench_consistency_gate_failure_exits_one(tmp_path, monkeypatch,
                                                  capsys):
    log_core = mm._log_core

    def stress_scaled(c, frame, p, order):
        W, s, g, J = log_core(c, frame, p, order)
        return W, (None if s is None else tuple(1.05 * x for x in s)), g, J

    monkeypatch.setattr(mm, "_log_core", stress_scaled)
    path = tmp_path / "bench.json"
    code, out, err = run_cli(["bench", "--n-evals", "10000", "--out",
                              str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: consistency gate failed")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not path.exists()


@pytest.mark.parametrize("argv, lines", [
    pytest.param(["verify", "--model", "log", "--samples", "1", "--seed", "-1"],
                 None, id="argv0-None"),
    pytest.param(["bench", "--seed", "-1"], None, id="argv1-None"),
    pytest.param(["verify", "--model", "log", "--samples", "1"],
                 ["--seed=-1"], id="argv2-cfg2"),
    pytest.param(["bench"], ["--seed", "-1"], id="argv3-cfg3"),
])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv, lines):
    if lines is not None:
        argv = argv + [arg_file(tmp_path / "args.txt", *lines)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == ("usage error: argument --seed: expected an integer >= 0, "
                   "got '-1'\n")


def test_config_supplies_defaults(tmp_path, capsys):
    at = arg_file(tmp_path / "args.txt", "--param-set=LDA", "--steps=3",
                  "--range", "1.0", "1.1", "--theta-deg=30")
    out_path = tmp_path / "c.csv"
    code, _, _ = run_cli(["curve", at, "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[7] == "LDA"
    assert float(lines[1].split(",")[8]) == 30.0


def test_explicit_flags_override_config(tmp_path, capsys):
    """Position sets precedence: a flag after the file beats the file's
    value, and a flag before it loses."""
    at = arg_file(tmp_path / "args.txt", "--param-set=LDA", "--steps=3")
    out_path = tmp_path / "c.csv"
    for argv, param_set in ((["curve", at, "--param-set", "GGA"], "GGA"),
                            (["curve", "--param-set", "GGA", at], "LDA")):
        code, _, _ = run_cli(argv + ["--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1].split(",")[7] == param_set
        assert len(lines) == 4  # steps still from the file


def parser_defaults() -> dict:
    """Per subcommand, every action's default."""
    return {name: [copy.deepcopy(a.default) for a in sp._actions]
            for name, sp in cli.build_parser().subcommand_parsers.items()}


def test_config_does_not_leak_into_the_next_run(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    before = parser_defaults()
    path = tmp_path / "args.txt"
    code, out, _ = run_cli(["contact", arg_file(path, "--h0=0.5")], capsys)
    assert code == 0
    assert out.startswith("psi(h0=0.5)")
    code, out, _ = run_cli(["contact"], capsys)
    assert code == 0
    assert out.startswith("psi(h0=0.34)")
    # scalars, a list and curve's required --out, each then given as a
    # flag too
    out_path = tmp_path / "c.csv"
    for argv, lines in (
            (["compare", "--steps", "3"],
             ["--steps=2", "--range", "1.0", "1.01"]),
            (["curve", "--range", "1.0", "1.02"],
             ["--range", "1.0", "1.01", "--model=log", f"--out={out_path}"])):
        code, _, _ = run_cli(argv + [arg_file(path, *lines)], capsys)
        assert code == 0
    assert parser_defaults() == before
    code, _, err = run_cli(["curve"], capsys)
    assert code == 2 and "--out" in err


def test_config_unknown_key_rejected(tmp_path, capsys):
    at = arg_file(tmp_path / "args.txt", "--bogus-key=1")
    code, _, err = run_cli(["curve", at, "--out", "x.csv"], capsys)
    assert code == 2
    assert err == "usage error: unrecognized arguments: --bogus-key=1\n"


@pytest.mark.parametrize("argv, key", [
    (["verify", "--samples", "1"], "tolerance"),
    (["curve", "--out", "x.csv"], "lattice_deg"),
    (["compare"], "lattice_deg"),
])
def test_config_keys_of_removed_options_are_unknown(tmp_path, monkeypatch,
                                                    capsys, argv, key):
    monkeypatch.chdir(tmp_path)
    flag = "--" + key.replace("_", "-")
    at = arg_file(tmp_path / "args.txt", f"{flag}=10")
    code, out, err = run_cli(argv + [at], capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: unrecognized arguments: {flag}=10\n"
    assert [f.name for f in tmp_path.iterdir()] == ["args.txt"]


@pytest.mark.parametrize("argv", [
    ["verify", "--tolerance", "stress_fd=1"],
    ["curve", "--lattice-deg", "10", "--out", "f.csv"],
    ["compare", "--lattice-deg", "10"],
])
def test_removed_options_are_usage_errors(tmp_path, monkeypatch, capsys,
                                          argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: unrecognized arguments: {argv[1]} {argv[2]}\n"
    assert list(tmp_path.iterdir()) == []


def test_config_that_is_not_utf8_is_usage_error(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "args.bin"
    path.write_bytes(b"\xff\xfe--samples=1\n")
    code, out, err = run_cli(["verify", "--out", "r.json", f"@{path}"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: cannot read argument file "
                          f"{str(path)!r}: ")
    assert err.count("\n") == 1
    assert [f.name for f in tmp_path.iterdir()] == ["args.bin"]


def test_missing_config_file_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["curve", "@/nonexistent/args.txt", "--out", "x.csv"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("usage error: cannot read argument file "
                   "'/nonexistent/args.txt': No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["curve", "--steps", "2", "--range", "1.0", "1.05",
         "--out", str(tmp_path / "no" / "dir" / "x.csv")], capsys)
    assert code == 3
    assert "i/o error" in err


def test_unwritable_json_output_prints_nothing(tmp_path, capsys):
    code, out, err = run_cli(["cone", "--declination", "60",
                              "--out", str(tmp_path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gmem", "cone", "--declination", "240"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["apex_angle_deg"] == pytest.approx(
        38.9424412689813827, rel=1e-12)


def test_import_loads_no_scipy():
    """gmem runs on NumPy alone. A fresh interpreter is used because test
    plugins may import SciPy into this one."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, gmem, gmem.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_parser_names_and_defaults_come_from_their_owners():
    parsers = cli.build_parser().subcommand_parsers

    def action(command, dest):
        return next(a for a in parsers[command]._actions if a.dest == dest)

    for command in ("verify", "curve", "compare", "bench"):
        assert action(command, "param_set").choices == list(mm.PARAM_SETS)
    assert action("verify", "model").choices == [*sc.VERIFY_TOLERANCES, "all"]
    assert action("curve", "model").choices == list(sc.MODEL_NAMES)
    field = {f.name: f.default
             for f in dataclasses.fields(sc.DeformationProtocol)}
    for command in ("curve", "compare"):
        assert tuple(action(command, "range").default) == (field["start"],
                                                           field["end"])
        assert action(command, "steps").default == field["steps"]


def test_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "gmem", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "bench" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "gmem", "verify", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: gmem verify")


# One valid argv per subcommand; each usage case adds one bad input to it.
VALID_ARGV = {
    "verify": ["verify", "--model", "log", "--samples", "1"],
    "curve": ["curve", "--steps", "2", "--out", "c.csv"],
    "compare": ["compare", "--steps", "2"],
    "bench": ["bench", "--n-evals", "10000"],
    "contact": ["contact", "--steps", "2", "--out", "c.csv"],
    "beam": ["beam", "--modulus", "340", "--r-m", "1", "--length", "10",
             "--theta-w-deg", "30", "--out", "b.json"],
    "cone": ["cone", "--declination", "300", "--out", "c.json"],
}
BAD_CHOICE = {"verify": ["--model", "membrane"],
              "curve": ["--protocol", "bogus"],
              "compare": ["--param-set", "PBE"],
              "bench": ["--param-set", "PBE"]}
NON_NUMERIC = {"verify": ["--samples", "x"], "curve": ["--steps", "2.5"],
               "compare": ["--theta-deg", "north"], "bench": ["--seed", "x"],
               "contact": ["--h0", "x"], "beam": ["--delta", "1e"],
               "cone": ["--declination", "x"]}
NON_FINITE = {"curve": ["--theta-deg", "nan"],
              "compare": ["--range", "1.0", "inf"],
              "contact": ["--gamma", "inf"], "beam": ["--modulus=-inf"],
              "cone": ["--declination", "nan"]}
OUT_OF_RANGE = {"verify": ["--samples", str(sc.MAX_SAMPLES + 1)],
                "curve": ["--steps", str(sc.MAX_STEPS + 1)],
                "compare": ["--steps", "0"],
                "bench": ["--n-evals", str(sc.MAX_EVALS + 1)],
                "contact": ["--steps", "1"]}
# Bad argument files: the valid argv ends with @FILE holding these lines.
WRONG_TYPE = {"verify": ["--samples=1.5"], "curve": ["--range", "1.0"],
              "compare": ["--range=1.1"], "bench": ["--n-evals=true"],
              "contact": ["--h0", "1", "2"], "beam": ["--delta=1 nm"],
              "cone": ["--declination=north"]}
ARG_FILES = {"not-utf8": b"\xff\xfe--steps=2\n", "unknown-key": "--bogus=1\n",
             "one-line-range": "--range 1.0 1.2\n",
             "names-itself": "@../args.txt\n",  # run from tmp_path/work
             "nul-in-name": "@a\x00b\n", "nul-in-value": "--out=a\x00b.out\n",
             # files in the JSON format --config once read
             "not-json": "{\n", "not-object": "[1, 2]\n",
             "bool-value": '{"out": true}\n'}


def test_every_subcommand_runs_its_cmd_function(monkeypatch):
    """run dispatches each subcommand to the module's cmd_<name>, looked up
    when it runs, and every subcommand has one."""
    names = list(cli.build_parser().subcommand_parsers)
    assert sorted(names) == sorted(VALID_ARGV)
    for name in names:
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda args: f"ran {args.command}")
        assert cli.run(VALID_ARGV[name]) == f"ran {name}"


def missing_required(command):
    """The valid argv without its first required flag, or None."""
    flag = {"curve": "--out", "beam": "--modulus",
            "cone": "--declination"}.get(command)
    if flag is None:
        return None
    argv = VALID_ARGV[command]
    at = argv.index(flag)
    return argv[:at] + argv[at + 2:]


def usage_cases():
    for command, valid in VALID_ARGV.items():
        rows = {"unknown-flag": (valid + ["--bogus", "1"], None),
                "missing-required": (missing_required(command), None),
                "missing-file": (valid + ["@no-such-file.txt"], None),
                # the valid flags, one per line, then an empty line
                "blank-line": (valid[:1], file_text(valid[1:]) + "\n"),
                "wrong-type": (valid, file_text(WRONG_TYPE[command]))}
        for name, table in (("bad-choice", BAD_CHOICE),
                            ("non-numeric", NON_NUMERIC),
                            ("non-finite", NON_FINITE),
                            ("out-of-range", OUT_OF_RANGE)):
            if command in table:
                rows[name] = (valid + table[command], None)
        rows.update({name: (valid, text) for name, text in ARG_FILES.items()})
        # the exact message of a row, {path} standing for the file's path
        wants = {"missing-file": "cannot read argument file "
                                 "'no-such-file.txt': No such file or directory",
                 "blank-line": f"empty line {len(valid)} in argument file "
                               "{path!r}",
                 "names-itself": "argument file '../args.txt' names itself, "
                                 "directly or through another file",
                 "nul-in-name": "NUL byte in line 1 of argument file {path!r}",
                 "nul-in-value": "NUL byte in line 1 of argument file "
                                 "{path!r}"}
        for name, (argv, text) in rows.items():
            if argv is not None:
                yield pytest.param(argv, text, wants.get(name),
                                   id=f"{command}-{name}")
    yield pytest.param([], None, None, id="no-subcommand")
    yield pytest.param(["bogus"], None, None, id="unknown-subcommand")


@pytest.mark.parametrize("argv, text, want", usage_cases())
def test_every_usage_error_is_one_line(tmp_path, monkeypatch, capsys, argv,
                                       text, want):
    """Every bad argv or argument file of every subcommand, argparse's own
    errors included: cli.run returns 2 and prints exactly one stderr line,
    `usage error: ...`, with empty stdout and no traceback, and writes
    nothing. An argument file's fault names the file."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    path = tmp_path / "args.txt"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = argv + [f"@{path}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert err.endswith("\n") and "Traceback" not in err
    if want is not None:
        assert err == f"usage error: {want.format(path=str(path))}\n"
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "curve", "compare", "contact",
                                     "beam", "cone"])
def test_a_value_a_command_rejects_is_a_usage_error(tmp_path, monkeypatch,
                                                    capsys, command):
    """Any ValueError a command raises is one usage error line: here open()
    rejects an --out path holding a NUL byte, which an argument file can no
    longer give. Nothing is printed to stdout or written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(VALID_ARGV[command] + ["--out", "a\x00b"],
                             capsys)
    assert (code, out, err) == (2, "", "usage error: embedded null byte\n")
    assert list(tmp_path.iterdir()) == []


def test_config_supplies_required_flags(tmp_path, monkeypatch, capsys):
    """argparse reads an argument file before it parses, so a file can
    supply a required flag, and a value starting with '-' stays a value."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "args.txt"
    at = arg_file(path, "--out=c.csv", "--steps=2", "--theta-deg", "-30")
    code, out, _ = run_cli(["curve", at], capsys)
    assert code == 0 and out.startswith("wrote 2 rows to c.csv")
    assert (tmp_path / "c.csv").read_text().splitlines()[1].endswith(",-30")
    arg_file(path, "--modulus=340", "--r-m=1.0", "--length=38.19",
             "--theta-w-deg=17.45")
    code, out, _ = run_cli(["beam", at], capsys)
    assert code == 0
    assert json.loads(out)["F_w_nN"] == pytest.approx(0.0183021422694824289,
                                                      rel=1e-12)


def test_argument_files_nested_past_the_stack_are_a_usage_error(
        tmp_path, monkeypatch, capsys):
    """A chain of distinct argument files deeper than the recursion limit
    is one usage error line, not a traceback."""
    monkeypatch.chdir(tmp_path)
    depth = sys.getrecursionlimit() + 10
    for i in range(depth):
        (tmp_path / f"f{i}.txt").write_text(f"@f{i + 1}.txt\n")
    (tmp_path / f"f{depth}.txt").write_text("--seed=1\n")
    code, out, err = run_cli(["verify", "--samples=1", "@f0.txt"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot read argument file: ")
    assert err.count("\n") == 1


def test_argument_file_may_hold_the_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    at = arg_file(tmp_path / "run.txt", "curve", "--steps=2", "--out=c.csv")
    code, out, _ = run_cli([at], capsys)
    assert code == 0 and out.startswith("wrote 2 rows to c.csv")
    # files nest: an argument file may name another
    inner = arg_file(tmp_path / "decl.txt", "--declination=300")
    code, out, _ = run_cli([arg_file(tmp_path / "outer.txt", "cone", inner)],
                           capsys)
    assert code == 0 and json.loads(out)["command"] == "cone"


@pytest.mark.parametrize("argv", [
    ["curve", "--model", "log", "--protocol", "pure-shear", "--theta-deg",
     "-30", "--range", "1.0", "1.1", "--steps", "7", "--param-set", "LDA",
     "--out", "c.csv"],
    ["verify", "--samples", "3", "--seed", "5", "--out", "r.json"],
])
def test_argument_file_run_matches_inline_tokens(tmp_path, monkeypatch,
                                                 capsys, argv):
    """The same tokens inline and from a file write the same bytes."""
    runs = []
    for name, tokens in (("inline", argv), ("file", None)):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        if tokens is None:
            tokens = argv[:1] + [arg_file(tmp_path / "args.txt", *argv[1:])]
        code, out, err = run_cli(tokens, capsys)
        assert code == 0 and err == ""
        runs.append((out, (work / argv[-1]).read_bytes()))
    assert runs[0] == runs[1]


def test_only_a_token_starting_with_at_is_a_file(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["cone", "--declination", "300",
                            "--out=@name.json"], capsys)
    assert code == 0
    assert (tmp_path / "@name.json").read_text() == out
