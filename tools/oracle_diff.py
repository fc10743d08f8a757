"""Bitwise output oracle: the seeded outputs of two commits, group by group.

    python3 tools/oracle_diff.py --parent HEAD~1 --change HEAD

Exports both commits' committed files (git archive, as tools/bench_pairs.py
does) into a temporary directory and, in a fresh interpreter per tree that
imports gmem from that tree's src/, dumps float64 arrays of:

* energy, stress (S, tau, sigma, W), tangent and stress+tangent of the
  metric and log models, GGA and LDA in turn, on N_STATES states from
  call_pairs.raw_states(SEED): random lattice angles, stretches in
  [sqrt(0.7), sqrt(1.6)] (C's eigenvalues in [0.7, 1.6]), one in eight
  near-isotropic to 1e-9 relative (the log model's divided-difference limit);
* the metric tangent's cross-check route (the oplus-order assembly that
  verify runs) on the same states;
* one spectral group: Lambda1, Lambda2 and theta of spectral, read by
  name, on the same states and on seeded indefinite and coincident
  tensors (signed zeros included), so the one eigen head that spectral
  and the log kernel share is guarded bit by bit;
* three invariants groups: invariants_C, approx_log_invariants and, with a
  seeded curvature tensor, invariants_C_kappa read by field name (J1 to
  J9) on the same states (invariants_C); invariants_log_exact on the same
  states (invariants_log_exact); and invariant_approximation_errors over the
  perfbench scan grid, SCAN_RATIOS (invariant_scan). A move of the log
  invariants therefore cannot hide a move on the C side;
* run_curve (points and peak) and compare_models over the perfbench sweep
  grid: every protocol kind, the armchair, zigzag and all generic
  directions, both parameter sets, the benchmark's ranges and step counts;
* one bending group: every field of evaluate_geometry over seeded flat,
  cylinder, sphere and cone surfaces and points, without and with a
  reference surface of the same kind; and, on seeded symmetric metric and
  curvature triples, the geometry_from_metrics record without its four
  embedding fields (tangent vectors, gamma and n: None, since the metrics
  determine no embedding), canham_energy,
  bending_stress_moment and bending_tangents. The metrics go in as
  SurfTensor2 triples, and every symmetric field, the six of a record and
  the stress and moment, is dumped as its (11, 22, 12) components;
* one partials_sym group: numdiff.partials_sym at STRESS_STEP and at
  TANGENT_STEP on the first N_STENCIL states, with one callback per form
  of result it takes: energy_metric (a float), stress_log's S (a
  SurfTensor2), energy_log as an np.float64, stress_metric's S as a list
  and as a 1-D array;
* one verify group: every check's max, mean, worst_sample and worst_state
  from verify_derivatives on the metric, log and bending models,
  VERIFY_SAMPLES samples each over seeds VERIFY_SEEDS, and
  VERIFY_SEAM_SAMPLES on the first seed, past the end of verify's first
  block of samples (numdiff, the verify callbacks and the error pass);
* one cli group: the exit code, the number of files written, and the
  stdout, stderr and written file bytes of one in-process cli.run per
  argv, in an empty working directory: one valid run of each command in
  CLI_RUNS (gmem bench is left out: it prints timings), then one run that
  each command rejects in CLI_REJECTIONS, so a change to an error text is
  caught bit for bit too.

Prints, per output group, whether the two dumps are bitwise equal and the
largest absolute difference over the group's largest magnitude. Exits 0
when every group is bitwise equal, 1 otherwise (including a group present
on one side only).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import exit_on_sigterm, export  # noqa: E402
from call_pairs import principal_triple, raw_states  # noqa: E402

N_STATES = 2000
SEED = 20240
N_BENDING = 100  # points per surface kind, and metric triples
N_SPECTRAL = 100  # indefinite tensors, and coincident eigenvalues
N_STENCIL = 100  # states differenced by the partials_sym group
VERIFY_SEEDS = range(8)
VERIFY_SAMPLES = 5
# one block of verify's 256 samples (scenarios._VERIFY_BLOCK) and three
# more, run on the first seed, so that the verify group crosses a block seam
VERIFY_SEAM_SAMPLES = 259
CLI_RUNS = (["verify", "--samples", "3", "--out", "out.json"],
            ["curve", "--out", "out.csv"],
            ["compare", "--out", "out.json"],
            ["contact", "--out", "out.csv"],
            ["beam", "--modulus", "340", "--r-m", "1.0", "--length", "38.19",
             "--theta-w-deg", "17.45", "--out", "out.json"],
            ["cone", "--declination", "300", "--out", "out.json"])
# one argv per command that the command rejects, each with an --out that
# must stay unwritten
CLI_REJECTIONS = (["verify", "--samples", "100001", "--out", "out.json"],
                  ["curve", "--out", "out.csv", "--steps", "0"],
                  ["compare", "--steps", "0", "--out", "out.json"],
                  ["bench", "--n-evals", "1000001", "--out", "out.json"],
                  ["contact", "--steps", "1", "--out", "out.csv"],
                  ["beam", "--modulus", "340", "--r-m", "1.0", "--length",
                   "38.19", "--theta-w-deg", "90", "--out", "out.json"],
                  ["cone", "--declination", "7", "--out", "out.json"])


def _spd(rng, lo, hi):
    """(c11, c22, c12) of a symmetric positive-definite 2x2 with
    eigenvalues in [lo, hi], as Python floats."""
    e1, e2 = rng.uniform(lo, hi, size=2).tolist()
    return principal_triple(e1, e2, rng.uniform(0.0, math.pi))


def _record(g) -> list:
    """A geometry record's fields that are not None, each symmetric one a
    triple: all of them from evaluate_geometry, all but the four embedding
    fields from geometry_from_metrics."""
    return [v for v in g if v is not None]


def _bending_values(bg, SurfTensor2, rng, c_bend) -> list:
    """Seeded outputs of the bending layer at bending stiffness c_bend, as
    arrays in a fixed order."""
    out = []

    def surfaces():
        return (bg.flat_patch(rng.uniform(-1, 1, 3) + (1.0, 0.0, 0.0),
                              rng.uniform(-1, 1, 3) + (0.0, 1.0, 0.0)),
                bg.cylinder_surface(rng.uniform(0.5, 3.0)),
                bg.sphere_surface(rng.uniform(0.5, 3.0)),
                bg.cone_surface(rng.uniform(0.2, 1.3)))

    for _ in range(N_BENDING):
        xi = (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 2.8))
        for surf, ref in zip(surfaces(), surfaces()):
            for reference in (None, ref):
                out.extend(_record(bg.evaluate_geometry(surf, xi, reference)))
    for _ in range(N_BENDING):
        g = bg.geometry_from_metrics(
            SurfTensor2(*_spd(rng, 0.8, 1.3)),
            SurfTensor2(*_spd(rng, 0.7, 1.6)),
            SurfTensor2(*rng.uniform(-0.5, 0.5, 3).tolist()))
        out.extend(_record(g))
        out.append(bg.canham_energy(g, c_bend))
        out.extend(bg.bending_stress_moment(g, c_bend))
        out.extend(bg.bending_tangents(g, c_bend))
    return out


def _spectral_extras(rng):
    """Seeded indefinite tensors, then coincident ones (c12 = +-0.0) of
    either sign, and the zero tensor."""
    out = []
    for _ in range(N_SPECTRAL):
        e1, e2 = rng.uniform(0.1, 1.6), -rng.uniform(0.1, 1.6)
        out.append(principal_triple(e1, e2, rng.uniform(0.0, math.pi)))
    for e in rng.uniform(-1.6, 1.6, N_SPECTRAL).tolist():
        out += [(e, e, 0.0), (e, e, -0.0)]
    return out + [(0.0, 0.0, 0.0), (0.0, 0.0, -0.0)]


def _stencil_values(mm, la, numdiff, SurfTensor2, states, params) -> list:
    """partials_sym at both steps on each (triple, theta) state, with one
    callback per form of result, as arrays in a fixed order."""
    out = []
    for (triple, theta), p in zip(states, params):
        fr = la.make_frame(theta)
        callbacks = (
            lambda *t: mm.energy_metric(SurfTensor2(*t), fr, p),
            lambda *t: mm.stress_log(SurfTensor2(*t), fr, p).S,
            lambda *t: np.float64(mm.energy_log(SurfTensor2(*t), fr, p)),
            lambda *t: list(mm.stress_metric(SurfTensor2(*t), fr, p).S),
            lambda *t: np.array(mm.stress_metric(SurfTensor2(*t), fr, p).S))
        for step in (numdiff.STRESS_STEP, numdiff.TANGENT_STEP):
            out += [numdiff.partials_sym(f, triple, step) for f in callbacks]
    return out


def _cli_values(cli) -> list:
    """Per CLI_RUNS entry, then per CLI_REJECTIONS entry: the exit code and
    the number of files written, then the stdout, stderr and written file
    bytes, as arrays."""
    out = []
    cwd = Path.cwd()
    for argv in CLI_RUNS + CLI_REJECTIONS:
        with tempfile.TemporaryDirectory(prefix="gmem-oracle-cli-") as work:
            os.chdir(work)
            try:
                text, err = io.StringIO(), io.StringIO()
                with (contextlib.redirect_stdout(text),
                      contextlib.redirect_stderr(err)):
                    code = cli.run(argv)
                files = sorted(Path(work).iterdir())
                written = b"".join(f.read_bytes() for f in files)
            finally:
                os.chdir(cwd)
        out += [[code, len(files)],
                *(np.frombuffer(s.getvalue().encode(), np.uint8)
                  for s in (text, err)),
                np.frombuffer(written, np.uint8)]
    return out


def dump(tree: Path, out: Path) -> None:
    """Write every output group of the gmem under tree/src to out (.npz)."""
    import gmem
    from gmem import bending_geometry as bg
    from gmem import cli
    from gmem import invariants as iv
    from gmem import lattice as la
    from gmem import membrane_material as mm
    from gmem import numdiff
    from gmem import scenarios as sc
    from gmem.surface_tensors import SurfTensor2, spectral

    if Path(gmem.__file__).resolve().parent != (tree / "src" / "gmem").resolve():
        raise SystemExit(f"imported gmem from {gmem.__file__}, not {tree}")
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads as wl

    groups: dict[str, list] = {}

    def add(name, values):
        groups.setdefault(name, []).append(np.asarray(values, dtype=float).ravel())

    def add_spectral(c):
        sd = spectral(c)
        add("spectral", [sd.Lambda1, sd.Lambda2, sd.theta])

    kappa_rng = np.random.default_rng(SEED + 1)
    states = raw_states(SEED, N_STATES, math.sqrt(0.7), math.sqrt(1.6))
    for (triple, theta), pname in zip(states, itertools.cycle(mm.PARAM_SETS)):
        c = SurfTensor2(*triple)
        fr = la.make_frame(theta)
        p = mm.material_preset(pname)
        for model in sc.MODEL_NAMES:
            add(f"energy_{model}", getattr(mm, f"energy_{model}")(c, fr, p))
            add(f"stress_{model}",
                wl.stress_row(getattr(mm, f"stress_{model}")(c, fr, p)))
            add(f"tangent_{model}",
                getattr(mm, f"tangent_{model}")(c, fr, p).comp)
            r, t = getattr(mm, f"stress_tangent_{model}")(c, fr, p)
            add(f"stress_tangent_{model}",
                np.concatenate([wl.stress_row(r), t.comp.ravel()]))
        add("tangent_metric_oplus", mm.tangent_metric_oplus(c, fr, p).comp)
        add_spectral(c)
        inv = iv.invariants_C(c, fr)
        kappa = SurfTensor2(*kappa_rng.uniform(-1.0, 1.0, 3))
        add("invariants_C", inv)
        add("invariants_C", iv.approx_log_invariants(inv))
        joint = iv.invariants_C_kappa(c, kappa, fr)
        add("invariants_C", [getattr(joint, f"J{k}") for k in range(1, 10)])
        add("invariants_log_exact", iv.invariants_log_exact(c, fr))
    for triple in _spectral_extras(np.random.default_rng(SEED + 2)):
        add_spectral(SurfTensor2(*triple))
    scan = sc.invariant_approximation_errors(np.linspace(*wl.SCAN_RATIOS))
    add("invariant_scan", [scan["f1_vs_J2E"], scan["f2_vs_J3E"]])

    directions = (wl.ARMCHAIR_DEG, wl.ZIGZAG_DEG) + wl.GENERIC_DEG
    frame = la.make_frame(0.0)
    for kind, _key, inputs in wl.sweep_items(directions):
        if kind == "compare":
            d = wl.run_sweep_item(kind, inputs, frame)
            add("compare_models", [d[n] for n in ("sigma11", "sigma22", "sigma12")])
        elif kind == "curve":
            pts, peak = wl.run_sweep_item(kind, inputs, frame)
            add("run_curve", [tuple(q) for q in pts])
            add("peak_of_curve", peak)
    for values in _bending_values(bg, SurfTensor2, np.random.default_rng(SEED),
                                  sc.DEFAULT_BEND_STIFFNESS):
        add("bending", values)
    for values in _stencil_values(
            mm, la, numdiff, SurfTensor2, states[:N_STENCIL],
            map(mm.material_preset, itertools.cycle(mm.PARAM_SETS))):
        add("partials_sym", values)
    verify_runs = [(seed, VERIFY_SAMPLES) for seed in VERIFY_SEEDS]
    verify_runs.append((VERIFY_SEEDS[0], VERIFY_SEAM_SAMPLES))
    for model in sc.VERIFY_TOLERANCES:
        for seed, n in verify_runs:
            rep = sc.verify_derivatives(model, n_samples=n, seed=seed)
            for check in rep["checks"].values():
                state = check["worst_state"].values()
                add("verify", [check["max"], check["mean"],
                               check["worst_sample"],
                               *np.concatenate([np.ravel(v) for v in state])])
    for values in _cli_values(cli):
        add("cli", values)
    np.savez(out, **{k: np.concatenate(v) for k, v in groups.items()})


def compare(parent: dict, change: dict) -> bool:
    ok = True
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            print(f"{name:28s} only on the {'change' if name in change else 'parent'}")
            ok = False
            continue
        a, b = parent[name], change[name]
        if a.shape != b.shape:
            print(f"{name:28s} shape {a.shape} vs {b.shape}")
            ok = False
            continue
        same = a.tobytes() == b.tobytes()
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        rel = float(np.max(np.abs(a - b))) / scale if scale > 0.0 else 0.0
        print(f"{name:28s} {a.size:8d} values  max rel diff {rel:.3e}  "
              f"{'bitwise equal' if same else 'DIFFERS'}")
        ok = ok and same
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="commit whose outputs are the reference")
    ap.add_argument("--change", help="commit compared against it")
    ap.add_argument("--dump", metavar="NPZ", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        dump(Path.cwd(), Path(args.dump))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    exit_on_sigterm()
    with tempfile.TemporaryDirectory(prefix="gmem-oracle-") as tmp:
        dumps = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            tree = Path(tmp) / side
            sha = export(rev, tree)
            print(f"{side}: {sha}")
            out = Path(tmp) / f"{side}.npz"
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--dump", str(out)], cwd=tree, env=env, check=True)
            with np.load(out) as z:
                dumps[side] = {k: z[k] for k in z.files}
    ok = compare(dumps["parent"], dumps["change"])
    print("all groups bitwise equal" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
