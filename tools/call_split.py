"""Cost split of the public membrane calls: unpacking, kernel, packaging.

    PYTHONPATH=src python3 tools/call_split.py

Each public membrane call is `_unpack`, then the model's core
(`_metric_core` or `_log_core`) at the call's order, then the packaging:
`_package_stress` for a stress, `tangent_from_pairs` for a tangent. The
span tracer cannot show this split, because those functions are private.

On STATES point_stream-like states from seed SEED (stretches in
[0.7, 1.6], one state in eight with its principal stretches within 1e-9
relative of each other, a fresh lattice frame per state), every part and
the whole call are timed as a loop over the states with the parts' inputs
precomputed. Each figure is the minimum over REPEAT rounds, in
microseconds per state, and includes the loop's own per-state cost (tens
of nanoseconds). The last column is the core's share of the whole call.

Reads gmem only; point PYTHONPATH at another tree's src/ to measure it.
"""

from __future__ import annotations

import math
import timeit

import numpy as np

from gmem import membrane_material as mm
from gmem.lattice import make_frame
from gmem.surface_tensors import SurfTensor2, tangent_from_pairs

STATES = 256
SEED = 0
REPEAT = 25
NEAR_ISOTROPIC_EVERY = 8
CALLS = (("energy", 0), ("stress", 1), ("tangent", 2), ("stress_tangent", 2))


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


def jobs(states, params):
    """(call, part, fn, argument tuples) for every figure of the table."""
    ccs = [mm._unpack(c, f) for c, f in states]
    out = []
    for model in ("metric", "log"):
        core = getattr(mm, f"_{model}_core")
        for kind, order in CALLS:
            name = f"{kind}_{model}"
            res = [core(cc, params, order) for cc in ccs]
            out.append((name, "unpack", mm._unpack, states))
            out.append((name, "core", core,
                        [(cc, params, order) for cc in ccs]))
            if kind.startswith("stress"):
                out.append((name, "package", mm._package_stress,
                            [(c, w, s) for (c, _f), (w, s, _g)
                             in zip(states, res)]))
            if kind.endswith("tangent"):
                out.append((name, "pairs", tangent_from_pairs,
                            [(g,) for _w, _s, g in res]))
            out.append((name, "call", getattr(mm, name),
                        [(c, f, params) for c, f in states]))
    return out


def split(states, params, repeat: int) -> dict:
    """{call: {part: µs per state}}, each the minimum over repeat rounds; a
    round times one loop over the states for every figure in turn, so that
    load changes on the host reach all figures alike."""
    table = jobs(states, params)
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
    rows = split(seeded_states(SEED), mm.GGA, REPEAT)
    cols = ("unpack", "core", "package", "pairs", "call")
    print(f"{'call (us/state)':24}" + "".join(f"{c:>9}" for c in cols)
          + f"{'core %':>9}")
    for name, parts in rows.items():
        cells = "".join(f"{parts[c]:9.2f}" if c in parts else f"{'-':>9}"
                        for c in cols)
        share = 100.0 * parts["core"] / parts["call"]
        print(f"{name:24}{cells}{share:9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
