"""The per-call measurement tools (tools/call_pairs.py, tools/call_split.py):
every job table they time, built on a few states and called once, so that a
change to a private contract they reach fails here rather than in a tool
run; the bitwise verdict and the cli runs of tools/oracle_diff.py; the gain
verdict of tools/bench_pairs.py; and the surrogate refit of
tools/fit_surrogates.py."""

import math
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs as bp  # noqa: E402
import call_pairs as cp  # noqa: E402
import call_split as cs  # noqa: E402
import fit_surrogates as fs  # noqa: E402
import oracle_diff as od  # noqa: E402
import gmem  # noqa: E402
from gmem import bending_geometry as bg  # noqa: E402
from gmem import cli  # noqa: E402
from gmem import scenarios as sc  # noqa: E402
from gmem.surface_tensors import SurfTensor2  # noqa: E402

N_STATES = 4
MEMBRANE_PARTS = {"energy": {"core", "call"},
                  "stress": {"core", "package", "call"},
                  "tangent": {"core", "pairs", "call"},
                  "stress_tangent": {"core", "package", "pairs", "call"}}
VERIFY_ROWS = ["geometry_from_metrics", "canham_energy",
               "bending_stress_moment", "bending_tangents", "tensor_product",
               "oplus_product", "boxtimes_product", "tangent_metric_oplus",
               "_rel_err 3 v SurfTensor2", "_rel_err 6 v 6-tuple",
               "_rel_err 3x3", "_rel_err 16", "_pair_of", "_summary 10 rows",
               "partials_sym scalar", "partials_sym 3-tuple",
               "partials_sym 6-tuple", "_membrane_state", "_bending_state",
               "_bending_sample", "_membrane_sample metric"]


def test_raw_states_are_the_recorded_stream():
    assert cp.raw_states(0)[:2] == [
        ((1.6212050808204836, 1.6212050778598155, 1.5428205941174323e-10),
         5.109927617709579),
        ((1.8846974770863802, 1.9826506914669064, -0.37806824283509094),
         3.415696558991173)]


def test_raw_states_take_a_count_and_a_stretch_range():
    states = cp.raw_states(3, 16, math.sqrt(0.7), math.sqrt(1.6))
    assert len(states) == 16
    for i, ((c11, c22, c12), _theta) in enumerate(states):
        lam = np.linalg.eigvalsh([[c11, c12], [c12, c22]])
        assert 0.7 <= lam[0] <= lam[1] <= 1.6
        if i % 8 == 0:  # principal stretches within 1e-9 relative
            assert math.sqrt(lam[1] / lam[0]) - 1.0 < 1e-9


def test_every_job_table_runs_once():
    states = cp.records(gmem, cp.raw_states(cp.SEED)[:N_STATES])
    calls = cp.side_jobs(gmem, states)
    assert list(calls) == list(cp.CALLS)
    assert all(cp.time_loop(fn, args) > 0.0 for fn, args in calls.values())

    oplus = calls.pop("tangent_metric_oplus")
    split = cs.split(cs.jobs(calls), 1)
    assert list(split) == list(calls)
    for model in ("metric", "log"):
        for kind, parts in MEMBRANE_PARTS.items():
            assert set(split[f"{kind}_{model}"]) == parts
    bstates = cs.bending_states(cs.SEED)[:N_STATES]
    per_call = cs.split(cs.call_jobs(states, bstates, oplus)
                        + cs.verify_jobs(states, bstates), 1)
    assert list(per_call) == VERIFY_ROWS
    assert all(t > 0.0 for table in (split, per_call)
               for parts in table.values() for t in parts.values())


def test_sign_threshold_at_31_rounds():
    """24 of 31 wins: two-sided p = 0.0033; 23 wins give p = 0.0107."""
    assert cp.ROUNDS == 31
    assert cp.sign_threshold(cp.ROUNDS) == 24


def test_stencil_points_are_the_callback_arguments():
    comps = (1.3, 0.9, 0.15)
    points = cs.stencil_points(comps, 1e-6)
    assert len(points) == 6
    assert all(sum(a != b for a, b in zip(pt, comps)) == 1 for pt in points)


def test_oracle_verdict_is_bitwise():
    """compare passes only equal bytes in the same groups and shapes: a
    signed zero differs, a NaN equals the same NaN."""
    a, nan = np.array([1.0, 2.5]), np.array([math.nan])
    assert od.compare({"g": a}, {"g": a.copy()})
    assert not od.compare({"g": np.array([0.0])}, {"g": np.array([-0.0])})
    assert od.compare({"g": nan}, {"g": nan.copy()})
    assert not od.compare({"g": a}, {"g": a, "h": a})
    assert not od.compare({"g": a, "h": a}, {"g": a})
    assert not od.compare({"g": a}, {"g": a.reshape(2, 1)})


def test_oracle_record_drops_only_a_metric_records_embedding():
    """An evaluated record is dumped field by field, a metric-only one
    without its four embedding fields; each symmetric field as its
    (11, 22, 12) triple."""
    e = bg.evaluate_geometry(bg.sphere_surface(1.7), (0.5, 1.1),
                             reference=bg.flat_patch())
    dumped = od._record(e)
    assert len(dumped) == len(e) and all(map(operator.is_, dumped, e))
    g = bg.geometry_from_metrics(SurfTensor2(1.1, 0.9, 0.1),
                                 SurfTensor2(1.3, 0.8, -0.2),
                                 SurfTensor2(0.35, -0.15, 0.22))
    kept = [v for name, v in zip(g._fields, g) if name not in od._EMBEDDING]
    assert od._record(g, embedded=False) == kept
    assert len(kept) == len(g) - 4 and None not in kept
    matrices = g._replace(**{f: getattr(g, f).as_matrix()
                             for f in od._SYMMETRIC})
    assert od._record(matrices, embedded=False) == kept


def paired_entries(workload):
    """bench_pairs' end-to-end entries for ten pairs that the change wins
    by 10%, far beyond the parent's quartile distance."""
    spec = {"end_to_end": [{"name": "pass_cost", "unit": "ref",
                            "better": "lower", "bound": 0.2}]}

    def run(v):
        return {"metrics": {"pass_cost": {"value": v}}, "failed": 0,
                "correct": True}

    runs = {"parent": [run(100.0 + 0.1 * i) for i in range(10)],
            "change": [run(90.0 + 0.1 * i) for i in range(10)]}
    return bp.end_to_end_entries(workload, list(range(10)), runs, spec)


def test_bench_gain_needs_changed_code_on_the_workload():
    """A gain stands only where a module the change touched has traced self
    time on the workload: point_stream reaches membrane_material, not
    numdiff."""
    traced = [{"metrics": {"numdiff.self_ms": {"value": 0.0},
                           "numdiff.partials_sym.self_us": {"value": 3.0},
                           "membrane_material.self_ms": {"value": 0.014},
                           "pass_cost": {"value": 45.0}}},
              {"metrics": {"surface_tensors.self_ms": {"value": 0.003}}}]
    reached = bp.reached_layers(traced)
    assert reached == {"membrane_material", "surface_tensors"}

    withheld = paired_entries("point_stream")
    assert withheld[0]["gain"]
    bp.withhold_gains(withheld, ["numdiff", "scenarios"], reached)
    assert not withheld[0]["gain"]
    assert withheld[0]["gain_withheld"] == (
        "no changed src/gmem module (numdiff, scenarios) has traced self "
        "time on point_stream")

    kept = paired_entries("point_stream")
    bp.withhold_gains(kept, ["membrane_material", "numdiff"], reached)
    assert kept[0]["gain"] and kept[0]["gain_withheld"] is None


def test_oracle_cli_runs_are_valid(tmp_path, monkeypatch):
    """Every oracle cli run exits 0 and writes its --out file; a JSON
    report is written as printed."""
    monkeypatch.chdir(tmp_path)
    values = od._cli_values(cli)
    assert len(values) == 3 * len(od.CLI_RUNS)
    for argv, (code, out, written) in zip(od.CLI_RUNS,
                                          zip(*[iter(values)] * 3)):
        assert list(code) == [0], argv
        assert out.size > 0 and written.size > 0, argv
        if argv[-1].endswith(".json"):
            assert out.tobytes() == written.tobytes(), argv
    assert list(tmp_path.iterdir()) == []


def test_surrogate_refit_reproduces_the_stated_fit():
    """The relative least-squares refit reads e2 0.08115 and g2 0.06061 to
    four significant digits. Each minimises its RMS error, so its RMS is
    below the shipped set's; the shipped set's largest errors are test_05's
    figures."""
    table = fs.invariant_table()
    assert len(table) == 600
    e2, g2 = fs.refit(table)
    assert (f"{e2:.4g}", f"{g2:.4g}") == ("0.08115", "0.06061")
    refit = fs.errors(table, e2, g2)
    shipped = fs.errors(table, gmem.DEFAULT_APPROX.e2, gmem.DEFAULT_APPROX.g2)
    assert refit["f1_rms"] < shipped["f1_rms"]
    assert refit["f2_rms"] < shipped["f2_rms"]
    scan = sc.invariant_approximation_errors(np.linspace(1.0, 1.3, 601))
    assert shipped["f1_max"] == pytest.approx(scan["f1_vs_J2E"], rel=1e-12)
    assert shipped["f2_max"] == pytest.approx(scan["f2_vs_J3E"], rel=1e-12)
