"""Cost split of the public membrane calls, and the cost of the calls the
verify workload makes per bending sample.

    PYTHONPATH=src python3 tools/call_split.py

Each public membrane call is the model's core (`_metric_core` or
`_log_core`) on (C, frame) at the call's order, then the packaging:
`_package_stress`, given the core's W, S and J = sqrt(det C), for a
stress, and `tangent_from_pairs` for a tangent. The span tracer cannot show
the core and `_package_stress`, because they are private.

On STATES point_stream-like states from seed SEED (stretches in
[0.7, 1.6], one state in eight with its principal stretches within 1e-9
relative of each other, a fresh lattice frame per state), every part and
the whole call are timed as a loop over the states with the parts' inputs
precomputed. Each figure is the minimum over REPEAT rounds, in
microseconds per state, and includes the loop's own per-state cost (tens
of nanoseconds). The last column is the core's share of the whole call.
The table's last three rows time invariants_C, invariants_log_exact and
spectral, whole, on the same states: the sweep's invariants calls, which
share the metric and log kernels' invariant scalars (`_c_scalars`,
`_log_scalars`), and the eigendecomposition invariants_log_exact takes
through spectral, whose eigen head (`_eigen_head`) the log core shares.

A second table times, the same way, the bending calls and the pair
products on the single-state path of `gmem verify`: geometry_from_metrics,
canham_energy, bending_stress_moment and bending_tangents on STATES seeded
bending states drawn like verify's (reference metric eigenvalues in
[0.8, 1.3], current in [0.7, 1.6], curvature components in [-0.5, 0.5]),
then tensor_product, oplus_product, boxtimes_product and
tangent_metric_oplus on the membrane states above (each product on a
state's C and the next state's C). Its last rows are the verification
layer's own per-call costs: `_rel_err` on a 3x3 pair (a state's tangent
pair matrix against a copy perturbed by 1e-7 relative) and on a 16-entry
pair (a state's tangent against its major transpose, verify's symmetry
check), `_pair_of` on a state's tangent, `_summary` over 10 rows of one
float each, and the stencil overhead of `partials_sym`: its time minus
six calls of its callback at the stencil's points, for a scalar callback
and for one returning a 3-tuple, both a few float operations.

Reads gmem only; point PYTHONPATH at another tree's src/ to measure it.
"""

from __future__ import annotations

import math
import timeit

import numpy as np

from gmem import bending_geometry as bg
from gmem import invariants as iv
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.lattice import make_frame
from gmem.numdiff import STRESS_STEP, partials_sym
from gmem.surface_tensors import (SurfTensor2, boxtimes_product, oplus_product,
                                  spectral, tangent_from_pairs, tensor_product)

STATES = 256
SEED = 0
REPEAT = 25
NEAR_ISOTROPIC_EVERY = 8
CALLS = (("energy", 0), ("stress", 1), ("tangent", 2), ("stress_tangent", 2))
C_BEND = 0.238  # the verify workload's bending stiffness


def seeded_states(seed: int):
    """(C, frame) pairs like point_stream's stream."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(STATES):
        lam1, lam2 = rng.uniform(0.7, 1.6, size=2)
        if i % NEAR_ISOTROPIC_EVERY == 0:
            lam2 = lam1 * (1.0 + rng.uniform(-1e-9, 1e-9))
        phi = rng.uniform(0.0, math.pi)
        e1, e2 = lam1 * lam1, lam2 * lam2
        c, s = math.cos(phi), math.sin(phi)
        cst = SurfTensor2(float(e1 * c * c + e2 * s * s),
                          float(e1 * s * s + e2 * c * c),
                          float((e1 - e2) * s * c))
        out.append((cst, make_frame(rng.uniform(0.0, 2.0 * math.pi))))
    return out


def _spd(rng, lo, hi):
    """Symmetric positive-definite 2x2 array with eigenvalues in [lo, hi]."""
    e1, e2 = rng.uniform(lo, hi, size=2)
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    m12 = (e1 - e2) * s * c
    return np.array([[e1 * c * c + e2 * s * s, m12],
                     [m12, e1 * s * s + e2 * c * c]])


def bending_states(seed: int):
    """(A_ref, a_cur, b_cur) 2x2 arrays like verify's bending samples."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(STATES):
        b11, b22, b12 = rng.uniform(-0.5, 0.5, size=3)
        out.append((_spd(rng, 0.8, 1.3), _spd(rng, 0.7, 1.6),
                    np.array([[b11, b12], [b12, b22]])))
    return out


def jobs(states, params):
    """(call, part, fn, argument tuples) for every figure of the split."""
    out = []
    for model in ("metric", "log"):
        core = getattr(mm, f"_{model}_core")
        for kind, order in CALLS:
            name = f"{kind}_{model}"
            args = [(c, f, params, order) for c, f in states]
            res = [core(*a) for a in args]
            out.append((name, "core", core, args))
            if kind.startswith("stress"):
                out.append((name, "package", mm._package_stress,
                            [(c, w, s, j) for (c, _f), (w, s, _g, j)
                             in zip(states, res)]))
            if kind.endswith("tangent"):
                out.append((name, "pairs", tangent_from_pairs,
                            [(g,) for _w, _s, g, _j in res]))
            out.append((name, "call", getattr(mm, name),
                        [(c, f, params) for c, f in states]))
    out.append(("invariants_C", "call", iv.invariants_C, states))
    out.append(("invariants_log_exact", "call", iv.invariants_log_exact,
                states))
    out.append(("spectral", "call", spectral, [(c,) for c, _f in states]))
    return out


def call_jobs(states, bstates, params):
    """(call, "call", fn, argument tuples) for every row of the per-call
    table."""
    geoms = [bg.geometry_from_metrics(*m) for m in bstates]
    cs = [c for c, _f in states]
    pairs = list(zip(cs, cs[1:] + cs[:1]))
    return [
        ("geometry_from_metrics", "call", bg.geometry_from_metrics, bstates),
        *[(fn.__name__, "call", fn, [(g, C_BEND) for g in geoms])
          for fn in (bg.canham_energy, bg.bending_stress_moment,
                     bg.bending_tangents)],
        *[(fn.__name__, "call", fn, pairs)
          for fn in (tensor_product, oplus_product, boxtimes_product)],
        ("tangent_metric_oplus", "call", mm.tangent_metric_oplus,
         [(c, f, params) for c, f in states]),
    ]


def _scalar_f(x, y, z):
    return x * y - z * z


def _vector_f(x, y, z):
    return (x * y, y - z, z * x)


def stencil_points(comps, rel_step):
    """The six argument triples at which partials_sym evaluates its
    callback, in its order."""
    out = []
    for i in range(3):
        h = rel_step * max(abs(comps[i]), 1.0)
        for sign in (1.0, -1.0):
            pt = list(comps)
            pt[i] += sign * h
            out.append(tuple(pt))
    return out


def verify_jobs(states, params):
    """(row, part, fn, argument tuples) for the verification layer's own
    calls; a stencil row has a "call" and a "callback" part, the latter
    per callback call."""
    rng = np.random.default_rng(SEED)
    tangents = [mm.tangent_metric(c, f, params).comp for c, f in states]
    pairs = [sc._pair_of(t) for t in tangents]
    comps = [tuple(c) for c, _f in states]
    points = [pt for cc in comps for pt in stencil_points(cc, STRESS_STEP)]
    out = [
        ("_rel_err 3x3", "call", sc._rel_err,
         [(p * (1.0 + 1e-7 * rng.normal(size=(3, 3))), p) for p in pairs]),
        ("_rel_err 16", "call", sc._rel_err,
         [(t.transpose(2, 3, 0, 1), t) for t in tangents]),
        ("_pair_of", "call", sc._pair_of, [(t,) for t in tangents]),
        ("_summary 10 rows", "call", sc._summary,
         [(rng.uniform(0.0, 1e-8, size=10).tolist(), 1e-6)
          for _ in states]),
    ]
    for label, f in (("scalar", _scalar_f), ("3-tuple", _vector_f)):
        name = f"partials_sym {label}"
        out.append((name, "call", partials_sym,
                    [(f, cc, STRESS_STEP) for cc in comps]))
        out.append((name, "callback", f, points))
    return out


def split(table, repeat: int) -> dict:
    """{call: {part: µs per state}}, each the minimum over repeat rounds; a
    round times one loop over the states for every figure in turn, so that
    load changes on the host reach all figures alike."""
    best = {}
    for _ in range(repeat):
        for name, part, fn, args in table:
            def loop():
                for a in args:
                    fn(*a)
            t = 1e6 * timeit.timeit(loop, number=1) / len(args)
            row = best.setdefault(name, {})
            row[part] = min(row.get(part, math.inf), t)
    return best


def main() -> int:
    states = seeded_states(SEED)
    rows = split(jobs(states, mm.GGA), REPEAT)
    cols = ("core", "package", "pairs", "call")
    print(f"{'call (us/state)':24}" + "".join(f"{c:>9}" for c in cols)
          + f"{'core %':>9}")
    for name, parts in rows.items():
        cells = "".join(f"{parts[c]:9.2f}" if c in parts else f"{'-':>9}"
                        for c in cols)
        share = (f"{100.0 * parts['core'] / parts['call']:9.1f}"
                 if "core" in parts else f"{'-':>9}")
        print(f"{name:24}{cells}{share}")
    print()
    calls = split(call_jobs(states, bending_states(SEED), mm.GGA)
                  + verify_jobs(states, mm.GGA), REPEAT)
    print(f"{'verify-path call':30}{'us/call':>9}")
    for name, parts in calls.items():
        if "callback" in parts:  # the stencil's overhead over its callbacks
            name = f"{name} stencil"
            parts = {"call": parts["call"] - 6.0 * parts["callback"]}
        print(f"{name:30}{parts['call']:9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
