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
* W, S, G and J of scenarios._log_core_fd, the differenced log route that
  gmem bench times, at orders 0, 1 and 2 on the same states (log_core_fd;
  it goes when that route does);
* one spectral group: Lambda1, Lambda2 and theta of spectral, read by
  name, on the same states and on seeded indefinite and coincident
  tensors (signed zeros included), so the one eigen head that spectral
  and the log kernel share is guarded bit by bit;
* three invariants groups: invariants_C, approx_log_invariants and, with a
  seeded curvature tensor, invariants_C_kappa on the same states
  (invariants_C); invariants_log_exact on the same states
  (invariants_log_exact); and invariant_approximation_errors over the
  perfbench scan grid, SCAN_RATIOS (invariant_scan). A move of the log
  invariants therefore cannot hide a move on the C side;
* run_curve (points and peak) and compare_models over the perfbench sweep
  grid: every protocol kind, the armchair, zigzag and all generic
  directions, both parameter sets, the benchmark's ranges and step counts;
* one bending group: every field of evaluate_geometry over seeded flat,
  cylinder, sphere and cone surfaces and points, without and with a
  reference surface of the same kind; and, on seeded symmetric metric and
  curvature triples, the geometry_from_metrics record without its four
  embedding fields (tangent vectors, gamma and n: None since the metrics
  determine no embedding, a made-up planar one before), canham_energy,
  bending_stress_moment and bending_tangents. Each tree is handed the
  input form its geometry_from_metrics takes (SurfTensor2 triples, or
  symmetric 2x2 arrays before the bending layer held triples), and every
  symmetric field, the six of a record and the stress and moment, is
  dumped as its (11, 22, 12) components, so the two forms compare bit by
  bit;
* one verify group: every check's max, mean and worst_sample from
  verify_derivatives on the metric, log and bending models, VERIFY_SAMPLES
  samples each, over seeds VERIFY_SEEDS (numdiff and the verify callbacks);
* one cli group: the exit code, the stdout bytes and the --out file bytes
  of one valid in-process cli.run of each command in CLI_RUNS, in an empty
  working directory (gmem bench is left out: it prints timings).

Prints, per output group, whether the two dumps are bitwise equal and the
largest absolute difference over the group's largest magnitude. Exits 0
when every group is bitwise equal, 1 otherwise (including a group present
on one side only).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
from call_pairs import raw_states  # noqa: E402

N_STATES = 2000
SEED = 20240
N_BENDING = 100  # points per surface kind, and metric triples
N_SPECTRAL = 100  # indefinite tensors, and coincident eigenvalues
VERIFY_SEEDS = range(8)
VERIFY_SAMPLES = 5
CLI_RUNS = (["verify", "--samples", "3", "--out", "out.json"],
            ["curve", "--out", "out.csv"],
            ["compare", "--out", "out.json"],
            ["contact", "--out", "out.csv"],
            ["beam", "--modulus", "340", "--r-m", "1.0", "--length", "38.19",
             "--theta-w-deg", "17.45", "--out", "out.json"],
            ["cone", "--declination", "300", "--out", "out.json"])


def _spd(rng, lo, hi):
    """(c11, c22, c12) of a symmetric positive-definite 2x2 with
    eigenvalues in [lo, hi], as Python floats."""
    e1, e2 = rng.uniform(lo, hi, size=2).tolist()
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return (e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c,
            (e1 - e2) * s * c)


_SYMMETRIC = ("A_cov", "A_contra", "a_cov", "a_contra", "b_cov", "b_contra")
_EMBEDDING = ("A_alpha", "a_alpha", "gamma", "n")


def _triple(m):
    """A symmetric field's (11, 22, 12) components: a triple as it is, a
    2x2 array through its upper triangle."""
    return (m[0, 0], m[1, 1], m[0, 1]) if np.shape(m) == (2, 2) else m


def _record(g, embedded=True) -> list:
    """A geometry record's fields, each symmetric one as its triple; a
    record that is not embedded, from geometry_from_metrics, without its
    _EMBEDDING fields."""
    return [_triple(v) if name in _SYMMETRIC else v
            for name, v in zip(g._fields, g)
            if embedded or name not in _EMBEDDING]


def _metric_form(bg, SurfTensor2):
    """(c11, c22, c12) -> the input form geometry_from_metrics takes on this
    tree: a SurfTensor2, or a symmetric 2x2 array, the form before the
    bending layer held triples."""
    unit = SurfTensor2(1.0, 1.0, 0.0)
    try:
        bg.geometry_from_metrics(unit, unit, unit)
    except (TypeError, ValueError):
        return lambda c11, c22, c12: np.array([[c11, c12], [c12, c22]])
    return SurfTensor2


def _bending_values(bg, SurfTensor2, rng, c_bend) -> list:
    """Seeded outputs of the bending layer at bending stiffness c_bend, as
    arrays in a fixed order."""
    out = []
    form = _metric_form(bg, SurfTensor2)

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
            form(*_spd(rng, 0.8, 1.3)), form(*_spd(rng, 0.7, 1.6)),
            form(*rng.uniform(-0.5, 0.5, 3).tolist()))
        out.extend(_record(g, embedded=False))
        out.append(bg.canham_energy(g, c_bend))
        out.extend(map(_triple, bg.bending_stress_moment(g, c_bend)))
        out.extend(bg.bending_tangents(g, c_bend))
    return out


def _spectral_extras(rng):
    """Seeded indefinite tensors, then coincident ones (c12 = +-0.0) of
    either sign, and the zero tensor."""
    out = []
    for _ in range(N_SPECTRAL):
        e1, e2 = rng.uniform(0.1, 1.6), -rng.uniform(0.1, 1.6)
        phi = rng.uniform(0.0, math.pi)
        c, s = math.cos(phi), math.sin(phi)
        out.append((e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c,
                    (e1 - e2) * s * c))
    for e in rng.uniform(-1.6, 1.6, N_SPECTRAL).tolist():
        out += [(e, e, 0.0), (e, e, -0.0)]
    return out + [(0.0, 0.0, 0.0), (0.0, 0.0, -0.0)]


def _cli_values(cli) -> list:
    """Per CLI_RUNS entry: the exit code, then the stdout and --out file
    bytes, as arrays."""
    out = []
    cwd = Path.cwd()
    for argv in CLI_RUNS:
        with tempfile.TemporaryDirectory(prefix="gmem-oracle-cli-") as work:
            os.chdir(work)
            try:
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    code = cli.run(argv)
                written = (Path(work) / argv[-1]).read_bytes()
            finally:
                os.chdir(cwd)
        out += [[code], np.frombuffer(text.getvalue().encode(), np.uint8),
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
        for order in (0, 1, 2):
            for v in sc._log_core_fd(c, fr, p, order):
                if v is not None:
                    add("log_core_fd", v)
        add_spectral(c)
        inv = iv.invariants_C(c, fr)
        kappa = SurfTensor2(*kappa_rng.uniform(-1.0, 1.0, 3))
        add("invariants_C", inv)
        add("invariants_C", iv.approx_log_invariants(inv))
        add("invariants_C",
            dataclasses.astuple(iv.invariants_C_kappa(c, kappa, fr)))
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
    for model in sc.VERIFY_TOLERANCES:
        for seed in VERIFY_SEEDS:
            rep = sc.verify_derivatives(model, n_samples=VERIFY_SAMPLES,
                                        seed=seed)
            for check in rep["checks"].values():
                add("verify", [check["max"], check["mean"],
                               check["worst_sample"]])
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
