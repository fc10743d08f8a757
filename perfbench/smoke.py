"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run prints every metric BENCHMARK.json names with its unit, reports no
failed operation, and leaves the gmem modules exactly as it found them.
Then corrupts one recorded reference value and checks that the run counts
failed operations, and checks that the benchmark refuses to run in a
directory holding only BENCHMARK.json and perfbench/. Exits non-zero on the
first broken expectation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import run

TINY_SECONDS = "0.5"


def tiny_config():
    import workloads as wl
    return wl.Config(stream_states=64, chunk=16, frame_pool=8,
                     verify_samples=2, setup_runs=1, min_passes=2)


def run_once(workload, trace, reference_path=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "3",
                       "--seconds", TINY_SECONDS, "--trace", str(trace)],
                      cfg=tiny_config(), reference_path=reference_path)
    lines = buf.getvalue().splitlines()
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {rc}")
    return lines, json.loads(lines[-1])


def snapshot(modules):
    """Identity of every module attribute and function-table entry."""
    snap = {}
    for mod in modules:
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = id(val)
            if isinstance(val, dict):
                for k, v in val.items():
                    snap[(mod.__name__, key, k)] = id(v)
    return snap


def check_metrics(workload, trace, lines, result, spec):
    want = spec["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if list(result["metrics"]) != [m["name"] for m in want]:
        raise AssertionError(f"{workload} trace={trace}: metric names differ")
    for m in want:
        got = result["metrics"][m["name"]]
        printed = [ln for ln in lines if ln.split()[:1] == [m["name"]]]
        if got["unit"] != m["unit"] or not printed or m["unit"] not in printed[0].split():
            raise AssertionError(f"{workload}: {m['name']} not printed with {m['unit']}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
        raise AssertionError(f"{workload} trace={trace}: {result['failed']} failed "
                             f"of {result['attempted']}, correct={result['correct']}")


def check_corruption(workload, corrupt):
    import workloads as wl
    refs = copy.deepcopy(wl.load_references())
    corrupt(refs)
    wl.OUT_DIR.mkdir(exist_ok=True)
    path = wl.OUT_DIR / "corrupt-reference.json"
    path.write_text(json.dumps(refs))
    with contextlib.redirect_stderr(io.StringIO()):   # the expected problems
        lines, result = run_once(workload, 0, reference_path=path)
    ratio = [ln for ln in lines if ln.startswith("fail_ratio")]
    if result["correct"] or not result["failed"] or float(ratio[0].split()[1]) <= 0:
        raise AssertionError(f"{workload}: corrupted reference not detected")


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail, printing no
    result."""
    import workloads as wl
    bare = wl.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.SPEC, bare / "BENCHMARK.json")
    for f in run.HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench" / f.name)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("benchmark ran without the program")


def main() -> int:
    spec = json.loads(run.SPEC.read_text())
    modules = run.import_program()
    before = snapshot(modules)
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            lines, result = run_once(workload, trace)
            check_metrics(workload, trace, lines, result, spec)
            if snapshot(modules) != before:
                raise AssertionError(f"{workload}: gmem modules not restored")
            print(f"ok  {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")

    def bad_stress(refs):
        refs["point_stream"]["outputs"]["stress_metric"][0][0] *= 1.01

    def bad_compare(refs):
        refs["sweep"]["compare"]["uniaxial-constrained/0/GGA"]["sigma11"] *= 1.5

    check_corruption("point_stream", bad_stress)
    check_corruption("sweep", bad_compare)
    print("ok  corrupted references counted as failures")
    check_bare_directory()
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
