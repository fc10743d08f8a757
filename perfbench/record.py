"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record.py

Writes perfbench/reference.json from the program in ./src: the outputs of
the four public stress calls on a fixed set of states, and the compare
percentages, curve peaks and surrogate-error scan of every sweep item any
seed can draw. Re-record only when a change to the program's results is
deliberate, and say so in the change.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from gmem import lattice as la  # noqa: E402
from gmem import membrane_material as mm  # noqa: E402
from gmem.surface_tensors import SurfTensor2  # noqa: E402

REF_SEED = 20180226
N_REF = 16
N_REF_NEAR_ISO = 4
PARAM_SET = "GGA"


def reference_states() -> list:
    """Fixed states spanning the stretch range; the first few near- or
    exactly isotropic."""
    rng = np.random.default_rng(REF_SEED)
    lam1 = rng.uniform(*wl.STRETCH, N_REF)
    lam2 = rng.uniform(*wl.STRETCH, N_REF)
    lam2[:N_REF_NEAR_ISO] = lam1[:N_REF_NEAR_ISO] * (
        1.0 + rng.uniform(-wl.NEAR_ISO_SPLIT, wl.NEAR_ISO_SPLIT, N_REF_NEAR_ISO))
    lam2[0] = lam1[0]
    c11, c22, c12 = wl.c_triple(lam1, lam2, rng.uniform(0.0, math.pi, N_REF))
    theta = rng.uniform(0.0, 2.0 * math.pi, N_REF)
    return [{"c": [float(a), float(b), float(c)], "theta": float(t)}
            for a, b, c, t in zip(c11, c22, c12, theta)]


def point_stream_outputs(states) -> dict:
    params = mm.material_preset(PARAM_SET)
    out = {}
    for name in wl.STREAM_CALLS:
        fn = getattr(mm, name)
        rows = []
        for st in states:
            r = fn(SurfTensor2(*st["c"]), la.make_frame(st["theta"]), params)
            if name.startswith("stress_tangent"):
                rows.append(list(wl.stress_row(r[0])) + r[1].comp.reshape(16).tolist())
            else:
                rows.append(list(wl.stress_row(r)))
        out[name] = rows
    return out


def sweep_references() -> dict:
    frame = la.make_frame(0.0)
    directions = (wl.ARMCHAIR_DEG, wl.ZIGZAG_DEG) + wl.GENERIC_DEG
    refs = {"compare": {}, "curve": {}}
    for kind, key, inputs in wl.sweep_items(directions):
        res = wl.run_sweep_item(kind, inputs, frame)
        if kind == "compare":
            refs["compare"][key] = res
        elif kind == "curve":
            refs["curve"][key] = list(res[1])
        else:
            refs["scan"] = res
    return refs


def main() -> None:
    states = reference_states()
    data = {
        "point_stream": {"param_set": PARAM_SET, "states": states,
                         "outputs": point_stream_outputs(states)},
        "sweep": sweep_references(),
    }
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
