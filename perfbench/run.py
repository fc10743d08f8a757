"""gmem benchmark: one workload per run, one caller, one thread, closed loop.

    python3 perfbench/run.py --workload point_stream --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src. The
workloads are `point_stream`, `sweep` and `verify` (see workloads.py and
README.md). Every output is checked; failed operations are counted against
attempted ones.

The run prints one line per metric (name, median, unit, and for timings the
p90 and sample count) and, as the last line, a JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, measured with no tracing; pass_cost is
each pass's wall time in units of a reference snippet timed between its
steps (see make_reference). With --trace 1 they are its
per_layer list: the first half of the run is untraced, the second half
records a span around every call that crosses a gmem module boundary, and
the spans are written to perfbench/out/trace-<workload>.npz.

Set-up time is measured in fresh interpreters: the run starts the same
script with --probe-setup several times and reports the median time from
process start to "ready" (program imported, inputs built, warmed up).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("point_stream", "sweep", "verify")
PROBE_TIMEOUT_S = 120
REF_ROUNDS = 10


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import every gmem layer module from ./src and return them in layer
    order. The caller times this as set-up."""
    if not (SRC / "gmem" / "__init__.py").is_file():
        raise ProgramMissing(f"no gmem package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    import gmem
    if Path(gmem.__file__).resolve().parent != (SRC / "gmem").resolve():
        raise ProgramMissing(f"imported gmem from {gmem.__file__}, not {SRC}")
    import tracer
    return [importlib.import_module(f"gmem.{name}") for name in tracer.LAYERS]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def build_workload(name, seed, cfg, reference_path=None):
    import workloads as wl
    refs = wl.load_references(reference_path or wl.REFERENCE_PATH)
    return wl.WORKLOADS[name](seed, cfg, refs)


def probe_setup(args) -> int:
    """Child side of the set-up measurement: import, build inputs, warm up,
    then report the split on one line."""
    t0 = time.perf_counter()
    import_program()
    t1 = time.perf_counter()
    import workloads as wl
    work = build_workload(args.workload, args.seed, wl.Config())
    t2 = time.perf_counter()
    work.warm_up()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1,
                      "warmup_s": t3 - t2}), flush=True)
    return 0


def measure_setup(workload, seed, runs) -> dict:
    """Median over `runs` fresh interpreters of the time from process start
    to ready, with the child's own import/inputs split."""
    samples = {"setup_s": [], "setup.import_s": [], "setup.inputs_s": []}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        split = json.loads(line)
        samples["setup_s"].append(ready)
        samples["setup.import_s"].append(split["import_s"])
        samples["setup.inputs_s"].append(split["inputs_s"])
    return samples


class Phase:
    """Passes of one measuring phase, with their checks."""

    def __init__(self):
        self.parts = []      # per pass: step name -> wall ns
        self.costs = []      # per pass: sum of step wall / adjacent reference
        self.ref_ns = []
        self.passes_ns = []  # per pass: (start, end), references included
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def wall_ms(self):
        """Per pass: the summed wall time of its steps."""
        return [sum(p.values()) / 1e6 for p in self.parts]


def make_reference():
    """Return a timer for a fixed reference snippet: small NumPy calls (a
    2x2 inverse, an outer product by einsum, an add), the kind of call that
    dominates gmem's time. It is timed between the steps of every pass. On a
    shared host the speed of execution drifts by a third or more over
    minutes; dividing each step by the snippet's time next to it cancels
    most of that drift. The snippet runs twice and the second run is timed,
    so that what the previous step left in the caches does not count."""
    import numpy as np
    m = np.array([[2.0, 0.3], [0.3, 1.5]])

    def snippet():
        a = m
        for _ in range(REF_ROUNDS):
            a = np.einsum("ab,gd->abgd", np.linalg.inv(a), a)[0, 0] + m
        return a

    def timed() -> int:
        snippet()
        t0 = time.perf_counter_ns()
        snippet()
        return time.perf_counter_ns() - t0
    return timed


def measure(work, seconds, min_passes, tracer=None) -> Phase:
    timed_reference = make_reference()
    ph = Phase()
    deadline = time.perf_counter() + seconds
    while len(ph.passes_ns) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.set_pass(len(ph.passes_ns))
        steps, context = work.pass_steps()
        start = time.perf_counter_ns()
        ref = timed_reference()
        parts, outputs, cost = {}, [], 0.0
        for name, step in steps:
            a = time.perf_counter_ns()
            outputs.append(step())
            b = time.perf_counter_ns()
            next_ref = timed_reference()
            parts[name] = b - a
            cost += (b - a) / (0.5 * (ref + next_ref))
            ph.ref_ns.append(next_ref)
            ref = next_ref
        ph.passes_ns.append((start, time.perf_counter_ns()))
        ph.parts.append(parts)
        ph.costs.append(cost)
        attempted, failed, problems = work.check(context, outputs)
        ph.attempted += attempted
        ph.failed += failed
        ph.problems.extend(problems[:5])
    return ph


def summary(vals):
    """(median, p90, n) of a sample."""
    vals = list(vals)
    if not vals:
        return float("nan"), float("nan"), 0
    p90 = statistics.quantiles(vals, n=10, method="inclusive")[-1] if len(vals) > 1 else vals[0]
    return statistics.median(vals), p90, len(vals)


def line(name, vals, unit):
    """Print one timing: median, unit, p90 and sample count."""
    med, p90, n = summary(vals)
    print(f"{name:<48} {med:>12.6g} {unit:<5} p90 {p90:<10.6g} n={n}")
    return med


def count_problems(table, work) -> list:
    """Span counts per pass against the counts the inputs imply."""
    expected = work.expected_calls(table)
    problems = []
    for name in sorted(set(expected) | set(table.names)):
        if "<locals>" in name:   # numdiff callbacks: see structure_problems
            continue
        got = table.calls_of(name)
        if got.size and bool((got != expected.get(name, 0)).any()):
            problems.append(f"span count {name}: {sorted(set(got.tolist()))} "
                            f"per pass, expected {expected.get(name, 0)}")
    return problems + work.structure_problems(table) + table.accounting_errors()


def layer_metric(name, table, work, traced, untraced, setup):
    import numpy as np

    import tracer as tr

    def per_call(span, scale):
        calls = table.calls_of(span)
        self_ns = table.self_ns_of(span)
        vals = [s / c / scale for s, c in zip(self_ns, calls) if c]
        return statistics.median(vals) if vals else 0.0

    if name == "trace.overhead_ratio":
        return statistics.median(traced.costs) / statistics.median(untraced.costs)
    if name in setup:
        return statistics.median(setup[name])
    if name == "numdiff.richardson_retry_ratio":
        retries = int(table.calls_of("numdiff.partials_sym_richardson").sum())
        checks = int(table.calls_of("numdiff.partials_sym").sum()) - 2 * retries
        return retries / checks if checks else 0.0
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return int(np.median(table.calls_of(span)))
    if kind == "self_us":
        return per_call(span, 1e3)
    if kind == "self_ms" and span in tr.LAYERS:
        return float(np.median(table.layer_self_ns(span))) / work.ops_per_pass / 1e6
    if kind == "self_ms":
        return per_call(span, 1e6)
    raise ValueError(f"no rule computes per-layer metric {name!r}")


def environment() -> str:
    import numpy
    import scipy
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} "
            f"platform={platform.platform()}")


def run_traced(work, args, cfg, modules, spec_metrics, setup):
    import tracer as tr
    import workloads as wl

    half = args.seconds / 2.0
    untraced = measure(work, half, cfg.min_passes)
    t = tr.Tracer(modules)
    t.install()
    try:
        traced = measure(work, half, cfg.min_passes, tracer=t)
    finally:
        t.restore()
    table = tr.SpanTable(t.names, t.spans(), traced.passes_ns)
    problems = count_problems(table, work)
    wl.OUT_DIR.mkdir(exist_ok=True)
    t.write(wl.OUT_DIR / f"trace-{work.name}.npz", traced.passes_ns)

    wall_ns = sum(sum(p.values()) for p in traced.parts)
    layer_ns = {layer: float(table.layer_self_ns(layer).sum()) for layer in tr.LAYERS}
    inside_ns = float(table.root_ns.sum())
    outside_ns = wall_ns - inside_ns
    if abs(sum(layer_ns.values()) - inside_ns) > 1e-9 * wall_ns or outside_ns < 0:
        problems.append("layer self times do not add up to the traced wall time")
    print(f"# traced wall {wall_ns / 1e6:.3f} ms = layers "
          f"{sum(layer_ns.values()) / 1e6:.3f} ms + benchmark {outside_ns / 1e6:.3f} ms")
    for layer in tr.LAYERS:
        print(f"#   {layer:<20} {layer_ns[layer] / 1e6:12.3f} ms "
              f"{100.0 * layer_ns[layer] / wall_ns:6.2f} %")
    values = {}
    for m in spec_metrics:
        values[m["name"]] = layer_metric(m["name"], table, work, traced,
                                         untraced, setup)
        print(f"{m['name']:<48} {values[m['name']]:>12.6g} {m['unit']}")
    return values, (untraced, traced), problems


def run_untraced(work, args, cfg, spec_metrics, setup):
    ph = measure(work, args.seconds, cfg.min_passes)
    printed = {name: line(name, vals, unit)
               for name, (vals, unit) in work.printed(ph.parts).items()}
    if work.name == "point_stream":
        ratio = printed["log_st_us"] / printed["metric_st_us"]
        print(f"{'speedup_st':<48} {ratio:>12.6g} x     log_st_us / metric_st_us, not gated")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {}
    for m in spec_metrics:
        name = m["name"]
        if name == "pass_cost":
            values[name] = line(name, ph.costs, m["unit"])
        elif name == "setup_s":
            values[name] = line(name, setup["setup_s"], m["unit"])
        elif name == "peak_rss_mb":
            values[name] = rss_mb
            print(f"{name:<48} {rss_mb:>12.6g} {m['unit']}")
        else:
            raise ValueError(f"no rule computes end-to-end metric {name!r}")
    line("pass_ms", ph.wall_ms(), "ms")
    line("reference_us", [r / 1e3 for r in ph.ref_ns], "us")
    for name in ("setup.import_s", "setup.inputs_s"):
        line(name, setup[name], "s")
    return values, (ph,), []


def main(argv=None, cfg=None, reference_path=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)
    try:
        modules = import_program()
    except ProgramMissing as e:
        print(f"error: {e}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    import workloads as wl
    cfg = cfg or wl.Config()
    setup = measure_setup(args.workload, args.seed, cfg.setup_runs)
    work = build_workload(args.workload, args.seed, cfg, reference_path)
    work.warm_up()

    print(f"# gmem benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# {environment()}")
    if args.trace:
        values, phases, problems = run_traced(work, args, cfg, modules,
                                              spec_metrics, setup)
    else:
        values, phases, problems = run_untraced(work, args, cfg,
                                                spec_metrics, setup)
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    print(f"{'fail_ratio':<48} {failed / attempted:>12.6g} ratio {failed} failed "
          f"of {attempted} operations")
    for p in [p for ph in phases for p in ph.problems][:20] + problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
