"""Paired benchmark runs of two commits, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 4 \
        --title "what the change does"

Exports both commits' committed files (git archive) into a temporary
directory, then runs `python3 perfbench/run.py` unchanged in each tree,
for the run length BENCHMARK.json sets, in alternating parent/change pairs
(parent first on even pairs): PAIRS untraced pairs per workload for the
end-to-end metrics, then TRACED_PAIRS traced pairs per workload for the
per-layer self times. Pair i of the k-th workload uses seed
SEED_BASE + 100 * (k + 1) + i + 1 on both sides.

The output (schema gmem-bench/1) holds, per workload and end-to-end metric,
each side's runs, median and quartiles (linear interpolation), the number
of pairs the change wins, the relative change of the median, failed
operations and three verdicts against the metric's bound in BENCHMARK.json:
`within_bound` (the median is not worse by more than the bound),
`unresolved` (the parent's quartile distance exceeds the bound times its
median, so the runs spread too widely to tell) and `gain` (the change wins
at least 9 in 10 pairs and its median is better by more than the parent's
quartile distance). A gain is kept only where the workload runs changed
code: some module in `git diff --name-only <parent> <change> -- src/gmem`
is reached on that workload. A module is reached when it has a nonzero
traced `<module>.self_ms` there, on either side, or when a reached module
of the change's src/gmem imports it, directly or transitively: the tracer
does not wrap a helper called as a module attribute, such as
`_inv._c_scalars` in the metric kernel, so its time counts as its
caller's. Otherwise `gain` is false and `gain_withheld` says why; drift
between the alternating runs on a shared host can meet the other two
conditions. Per traced span it holds each side's median and quartile
distance and the median over pairs of the change/parent ratio; each side's
commit and the git tree hash of its src/ (equal hashes mean that the two
sides ran the same program code); the changed modules; and the
environment. Runs are sequential, one benchmark process at a time.

The per-span ratios of TRACED_PAIRS pairs do not back a per-layer claim:
at the same two commits one run read the sweep layers at 1.32-1.52x the
parent, lattice.make_frame (unchanged code) included, and the next read
0.83-1.01x. A per-call claim takes tools/call_pairs.py's marked rows.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "gmem-bench/1"
WORKLOADS = ("point_stream", "sweep", "verify")
RUN_TIMEOUT_S = 900
PAIRS = 10
TRACED_PAIRS = 3
SEED_BASE = 4000


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the committed files of rev into dest; return the full hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    # leaving the with block closes the pipe and waits for git archive
    with subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        tar = subprocess.run(["tar", "-x", "-C", str(dest)],
                             stdin=archive.stdout)
    failed = [f"{name} exited {code}" for name, code in
              (("git archive", archive.returncode), ("tar", tar.returncode))
              if code]
    if failed:
        raise RuntimeError(f"exporting {sha}: {', '.join(failed)}")
    return sha


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that a stopped run leaves its with
    blocks: the running benchmark child is killed and the temporary
    directory with the exported trees is removed."""
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def quartiles(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return med, q1, q3


def side_summary(vals) -> dict:
    med, q1, q3 = quartiles(vals)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "runs": [round(v, 4) for v in vals]}


def run_pairs(trees, workload, seeds, seconds, trace):
    """Alternating runs; returns {"parent": [...], "change": [...]}."""
    out = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(trees[side], workload, seed, seconds, trace)
            out[side].append(res)
            print(f"# {workload} trace={trace} pair {i} {side}: correct="
                  f"{res['correct']} failed={res['failed']}", file=sys.stderr)
    return out


def end_to_end_entries(workload, seeds, runs, spec) -> list:
    entries = []
    for m in spec["end_to_end"]:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        par, chg = side_summary(vals["parent"]), side_summary(vals["change"])
        rel = chg["median"] / par["median"] - 1.0
        entries.append({
            "workload": workload, "metric": name, "unit": m["unit"],
            "better": m["better"], "bound": m["bound"], "pairs": len(seeds),
            "seeds": seeds, "parent": par, "change": chg, "change_wins": wins,
            "median_change_rel": round(rel, 4),
            "median_diff_exceeds_parent_iqr":
                abs(chg["median"] - par["median"]) > par["iqr"],
            "within_bound": sign * rel <= m["bound"],
            "unresolved": par["iqr"] > m["bound"] * abs(par["median"]),
            "gain": (wins >= 0.9 * len(seeds) and
                     sign * (par["median"] - chg["median"]) > par["iqr"]),
            "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "all_correct": all(r["correct"] for s in runs for r in runs[s]),
        })
    return entries


def changed_modules(parent: str, change: str) -> list:
    """Names of the modules under src/gmem that differ between two
    commits."""
    names = git("diff", "--name-only", parent, change, "--", "src/gmem")
    return sorted({Path(n).stem for n in names.split()})


def reached_layers(runs) -> set:
    """Layers with a nonzero traced module self time (`<layer>.self_ms`)
    in any of runs."""
    return {n.partition(".")[0] for r in runs
            for n, m in r["metrics"].items()
            if n.count(".") == 1 and n.endswith(".self_ms") and m["value"]}


def module_imports(src: Path) -> dict:
    """{module: the modules it imports from its own package} for the
    modules in the directory src, read with ast from `from . import x` and
    `from .x import ...`."""
    imports = {}
    for path in src.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module] if node.module
                             else (a.name for a in node.names))
        imports[path.stem] = names
    return imports


def with_imports(reached, imports) -> set:
    """The modules in reached and every module they import, directly or
    transitively."""
    out, todo = set(), list(reached)
    while todo:
        name = todo.pop()
        if name not in out:
            out.add(name)
            todo.extend(imports.get(name, ()))
    return out


def withhold_gains(entries, changed, reached) -> None:
    """Keep each entry's gain only if a changed module is among the modules
    its workload reached; otherwise set it false and say why in
    gain_withheld (None where nothing was withheld)."""
    for e in entries:
        e["gain_withheld"] = None
        if e["gain"] and not set(changed) & set(reached):
            e["gain"] = False
            e["gain_withheld"] = (
                f"no changed src/gmem module ({', '.join(changed) or 'none'})"
                f" has traced self time on {e['workload']} or is imported by"
                f" a module with it")


def per_layer_entries(workload, runs) -> list:
    """Module self time per operation, and self time per call of every span
    called in the workload on either side. A span one side does not report
    has null statistics on that side."""
    all_runs = runs["parent"] + runs["change"]
    names = dict.fromkeys(n for r in all_runs for n in r["metrics"])
    entries = []
    for n in names:
        layer, _, kind = n.rpartition(".")
        if kind not in ("self_us", "self_ms"):
            continue
        vals = {s: [r["metrics"][n]["value"] if n in r["metrics"] else None
                    for r in runs[s]] for s in runs}
        entry = {"workload": workload, "layer": layer, "path": "scalar"}
        unit = kind.partition("_")[2]
        if "." in layer:
            calls = [r["metrics"].get(f"{layer}.calls", {}).get("value", 0)
                     for r in all_runs]
            if not any(calls):
                continue
            entry.update(N_calls_per_pass=max(calls),
                         unit=f"{unit} self per call")
        elif any(v for s in vals for v in vals[s]):
            entry["unit"] = f"{unit} self per operation (module total)"
        else:
            continue
        for side in ("parent", "change"):
            side_vals = [v for v in vals[side] if v is not None]
            if len(side_vals) < 2:
                entry[side] = None
                continue
            med, q1, q3 = quartiles(side_vals)
            entry[side] = {"median": round(med, 4), "iqr": round(q3 - q1, 4)}
        ratios = [c / p for p, c in zip(vals["parent"], vals["change"])
                  if p and c is not None]
        entry["change_over_parent_pair_median"] = (
            round(statistics.median(ratios), 3) if ratios else None)
        entry["runs"] = len(vals["parent"])
        entries.append(entry)
    return entries


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", default="HEAD", help="changed commit")
    ap.add_argument("--pr", required=True, help="suffix of BENCH_<pr>.json")
    ap.add_argument("--title", required=True, help="one line on the change")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    exit_on_sigterm()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    result = {"schema": SCHEMA, "change": args.title,
              "environment": environment(),
              "method": {
                  "end_to_end": f"python3 perfbench/run.py --workload W --seed S "
                                f"--seconds {seconds:g} --trace 0, run on the "
                                "committed files of the parent and of the change, "
                                "in alternating order per pair (parent first on "
                                "even pairs); quartiles by linear interpolation",
                  "per_layer": f"the same with --trace 1, {TRACED_PAIRS} "
                               "alternating pairs per workload; median over runs "
                               "of each run's per-pass median"}}
    e2e, layers = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side in ("parent", "change"):
            sha = export(getattr(args, side), trees[side])
            result[f"{side}_commit"] = sha
            result[f"{side}_src_tree"] = git("rev-parse", f"{sha}:src")
        changed = changed_modules(result["parent_commit"],
                                  result["change_commit"])
        result["changed_modules"] = changed
        imports = module_imports(trees["change"] / "src" / "gmem")
        for k, w in enumerate(WORKLOADS):
            base = SEED_BASE + 100 * (k + 1) + 1
            seeds = list(range(base, base + PAIRS))
            runs = run_pairs(trees, w, seeds, seconds, 0)
            traced = run_pairs(trees, w, seeds[:TRACED_PAIRS], seconds, 1)
            entries = end_to_end_entries(w, seeds, runs, spec)
            reached = reached_layers(traced["parent"] + traced["change"])
            withhold_gains(entries, changed, with_imports(reached, imports))
            e2e.extend(entries)
            layers.extend(per_layer_entries(w, traced))
    result["end_to_end"] = e2e
    result["per_layer"] = layers
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for e in e2e:
        print(f"{e['workload']:<13} {e['metric']:<12} {e['parent']['median']:>10.4g}"
              f" -> {e['change']['median']:>10.4g} {e['unit']:<4} "
              f"({100 * e['median_change_rel']:+.1f}%, change wins "
              f"{e['change_wins']}/{e['pairs']}, failed "
              f"{e['failed_ops']['parent']}/{e['failed_ops']['change']}; "
              f"within bound {e['within_bound']}, unresolved "
              f"{e['unresolved']}, gain {e['gain']})")
        if e["gain_withheld"]:
            print(f"  gain withheld: {e['gain_withheld']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
