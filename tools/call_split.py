"""Cost split of the public membrane calls, and the cost of the calls on
the path of the verify workload.

    PYTHONPATH=src python3 tools/call_split.py

Each public membrane call is the model's core (`_metric_core` or
`_log_core`) on (C, frame) at the call's order, then the packaging:
`_package_stress`, given the core's W, S and J = sqrt(det C), for a
stress, and `tangent_from_pairs` for a tangent. A metric row also times the
core's coefficient head, `_h_coefficients` at the call's order, on the
core's invariants precomputed with `_c_scalars`: the energy, its
coefficients (H1, H2, H3), the surrogate head `invariants._surrogates`
and, at order 2, the tangent's eight scalar coefficients. The span
tracer cannot show the core, its coefficients and `_package_stress`,
because they are private.

The states, the whole calls and the timing loop are tools/call_pairs.py's:
its STATES point_stream-like records from seed SEED (raw_states), its call
table (side_jobs) and its time_loop. Every part and the whole call are
timed as a loop over the states with the parts' inputs precomputed. Each
figure is the minimum over REPEAT rounds, in microseconds per state, and
includes the loop's own per-state cost (tens of nanoseconds). The last
column is the core's share of the whole call. The table's last three rows
time invariants_C, invariants_log_exact and spectral, whole, on the same
states: the sweep's invariants calls, which share the metric and log
kernels' invariant scalars (`_c_scalars`, `_log_scalars`), and the
eigendecomposition invariants_log_exact takes through spectral, whose eigen
head (`_eigen_head`) the log core shares. Beside each model's stress row,
`run_curve <model> 201` times the sweep workload's path to that call: one
run_curve per protocol kind over CURVE (0.7 to 1.6 in 201 points, pulled
CURVE_DEG from the armchair axis of make_frame(0.0), GGA), in µs per curve
point, so that the row less the stress call is run_curve's own share of
a point.

A second table times, the same way, the bending calls and the pair
products on the single-state path of `gmem verify`:
geometry_from_metrics, canham_energy, bending_stress_moment and
bending_tangents on the first STATES bending state records that verify
draws from default_rng(SEED), as SurfTensor2 triples, each of the last
three also as its core, `_bending_core` at the call's order (0, 1 and 2),
in the "core" column, as a membrane call's core is; then tensor_product,
oplus_product, boxtimes_product and tangent_metric_oplus on the membrane
states above (each product on a state's C and the next state's C). Its
last rows are the verification layer's own costs, first the stencil
overhead of `partials_sym`: its time minus six calls of its callback at
the points partials_sym itself passes it (recorded by stencil_points),
for a scalar callback, for one returning a 3-tuple (a membrane stress)
and for one returning a 6-tuple (bending's stress and moment), each a
few float operations. The per-call rows do not add up to a verify
sample, so the table goes on with the state record each sample is
drawn as (`_membrane_state`, `_bending_state`) and two whole samples, each
evaluated from records drawn in advance from one default_rng(SEED) as
verify draws them: a bending sample (`_bending_sample`) and a
metric-model sample (`_membrane_sample` with GGA). A sample returns its
checks' operands, and verify forms every check's errors once per block of
samples; the next rows time that error pass (`_membrane_errors` on metric
samples, `_bending_errors`) on blocks of 10 and of `_VERIFY_BLOCK`
samples, per block. The table goes on with one whole `verify_derivatives`
per model at 10 samples, the size of the verify workload's pass, and ends
with the two fixed costs of the workload's `gmem verify` invocation
outside those calls: `cli parse verify`, the shared parser's parse_args on
the workload's argv (VERIFY_ARGV), and `_json_text verify 10`, the report
writer on the 10-sample `--model all` payload (verify_payload).

Reads gmem only; point PYTHONPATH at another tree's src/ to measure it.
Its bending and sample rows need a tree whose verify samples take a state
record.
"""

from __future__ import annotations

import math

import numpy as np

import gmem
from call_pairs import SEED, STATES, raw_states, records, side_jobs, time_loop
from gmem import bending_geometry as bg
from gmem import cli
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.invariants import _c_scalars
from gmem.lattice import make_frame
from gmem.numdiff import STRESS_STEP, partials_sym
from gmem.surface_tensors import (SurfTensor2, boxtimes_product,
                                  oplus_product, tangent_from_pairs,
                                  tensor_product)

REPEAT = 25
# the sweep workload's full-range curve, and one of its pull directions
CURVE = (0.7, 1.6, 201)
CURVE_DEG = 12.5
ORDER = {"energy": 0, "stress": 1, "tangent": 2, "stress_tangent": 2}
# the argv of the verify workload's in-process gmem verify, on seed SEED
VERIFY_ARGV = ["verify", "--model", "all", "--samples", "10", "--seed",
               str(SEED), "--out", "verify-report.json"]


def verify_records(draw, size):
    """The first size state records verify draws with draw, from
    default_rng(SEED)."""
    rng = np.random.default_rng(SEED)
    return [draw(rng) for _ in range(size)]


def verify_payload(samples: int) -> dict:
    """The payload cmd_verify reports for gmem verify --model all --samples
    samples --seed SEED, before _json_text adds its schema_version."""
    reports = [sc.verify_derivatives(model, None, samples, SEED)
               for model in sc.VERIFY_TOLERANCES]
    return {"command": "verify", "pass": all(r["pass"] for r in reports),
            "reports": reports}


def coefficient_args(c, frame, p, order):
    """_h_coefficients' arguments in the metric core on (c, frame)."""
    m, n = frame.m_hat, frame.n_hat
    det, J, _p11, _p12, J2, _mC, _nC, J3 = _c_scalars(
        *c, m.c11, m.c12, n.c11, n.c12)
    return J, det, J2, J3, p, order


def curve_row(model: str) -> str:
    return f"run_curve {model} {CURVE[2]}"


def jobs(calls):
    """(call, part, fn, argument tuples) for every figure of the split: each
    call of calls whole, a membrane call also as its core and packaging,
    a metric call as its core's coefficients, and after each stress call
    its model's run_curve, per curve (main divides it by the points)."""
    out = []
    for name, (fn, args) in calls.items():
        kind, _, model = name.rpartition("_")
        if kind in ORDER:
            core = getattr(mm, f"_{model}_core")
            core_args = [(c, f, p, ORDER[kind]) for c, f, p in args]
            res = [core(*a) for a in core_args]
            if model == "metric":
                out.append((name, "coefficients", mm._h_coefficients,
                            [coefficient_args(*a) for a in core_args]))
            out.append((name, "core", core, core_args))
            if kind.startswith("stress"):
                out.append((name, "package", mm._package_stress,
                            [(c, w, s, j) for (c, _f, _p), (w, s, _g, j)
                             in zip(args, res)]))
            if kind.endswith("tangent"):
                out.append((name, "pairs", tangent_from_pairs,
                            [(g,) for _w, _s, g, _j in res]))
        out.append((name, "call", fn, args))
        if kind == "stress":
            out.append((curve_row(model), "call", sc.run_curve, [
                (sc.DeformationProtocol(k, math.radians(CURVE_DEG), *CURVE),
                 model, mm.GGA, make_frame(0.0))
                for k in sc.PROTOCOL_KINDS]))
    return out


def call_jobs(states, oplus):
    """(call, part, fn, argument tuples) for every row of the per-call
    table; oplus is tangent_metric_oplus's (fn, argument tuples). The
    bending rows take as many of verify's bending state records as there
    are states, and each bending model call has a "core" part besides its
    "call": the bending core at the call's order."""
    bstates = [tuple(SurfTensor2(*st[k]) for k in ("a_ref", "a_cur", "b_cur"))
               for st in verify_records(sc._bending_state, len(states))]
    bend_args = [(bg.geometry_from_metrics(*m), sc.DEFAULT_BEND_STIFFNESS)
                 for m in bstates]
    cs = [c for c, _f in states]
    pairs = list(zip(cs, cs[1:] + cs[:1]))
    return [
        ("geometry_from_metrics", "call", bg.geometry_from_metrics, bstates),
        *[row for order, fn in enumerate((bg.canham_energy,
                                          bg.bending_stress_moment,
                                          bg.bending_tangents))
          for row in ((fn.__name__, "core", bg._bending_core,
                       [a + (order,) for a in bend_args]),
                      (fn.__name__, "call", fn, bend_args))],
        *[(fn.__name__, "call", fn, pairs)
          for fn in (tensor_product, oplus_product, boxtimes_product)],
        ("tangent_metric_oplus", "call", *oplus),
    ]


def _scalar_f(x, y, z):
    return x * y - z * z


def _vector_f(x, y, z):
    return (x * y, y - z, z * x)


def _six_f(x, y, z):
    return (x * y, y - z, z * x, x + y, y * z, z - x)


def stencil_points(comps, rel_step):
    """The argument triples partials_sym passes to its callback, in its
    order."""
    out = []
    partials_sym(lambda *pt: out.append(pt) or 0.0, comps, rel_step)
    return out


def verify_jobs(states):
    """(row, part, fn, argument tuples) for the verification layer's own
    calls, a sample's draws, two whole verify samples, the error pass over
    blocks of samples, whole verify runs and the invocation's parse and
    report writer; a stencil row has a "call" and a "callback" part, the
    latter per callback call."""
    comps = [tuple(c) for c, _f in states]
    points = [pt for cc in comps for pt in stencil_points(cc, STRESS_STEP)]
    out = []
    for label, f in (("scalar", _scalar_f), ("3-tuple", _vector_f),
                     ("6-tuple", _six_f)):
        name = f"partials_sym {label}"
        out.append((name, "call", partials_sym,
                    [(f, cc, STRESS_STEP) for cc in comps]))
        out.append((name, "callback", f, points))
    out += [(draws.__name__, "call", draws,
             [(np.random.default_rng(SEED),)] * len(states))
            for draws in (sc._membrane_state, sc._bending_state)]
    # verify's streams of state records, enough for the states and a block
    block = sc._VERIFY_BLOCK
    size = max(block, len(states))
    bend_states = verify_records(sc._bending_state, size)
    metric_states = verify_records(sc._membrane_state, size)
    out += [("_bending_sample", "call", sc._bending_sample,
             [(st,) for st in bend_states[:len(states)]]),
            ("_membrane_sample metric", "call", sc._membrane_sample,
             [("metric", mm.GGA, st) for st in metric_states[:len(states)]])]
    # a block's worth of each sample's operands
    metric = [sc._membrane_sample("metric", mm.GGA, st)
              for st in metric_states[:block]]
    bending = [sc._bending_sample(st) for st in bend_states[:block]]
    checks = sc.VERIFY_TOLERANCES["metric"]
    # a whole block takes about 1 ms, so it is timed on fewer calls
    calls = max(1, len(states) // 16)
    for rows, n in ((10, len(states)), (block, calls)):
        out += [(f"_membrane_errors metric {rows}", "call",
                 sc._membrane_errors, [(metric[:rows], checks)] * n),
                (f"_bending_errors {rows}", "call", sc._bending_errors,
                 [(bending[:rows],)] * n)]
    out += [(f"verify_derivatives {model} 10", "call", sc.verify_derivatives,
             [(model, None, 10, SEED)] * max(1, len(states) // 32))
            for model in sc.VERIFY_TOLERANCES]
    out += [("cli parse verify", "call", cli.build_parser().parse_args,
             [(VERIFY_ARGV,)] * len(states)),
            ("_json_text verify 10", "call", cli._json_text,
             [(verify_payload(10),)] * max(1, len(states) // 4))]
    return out


def split(table, repeat: int) -> dict:
    """{call: {part: µs per state}}, each the minimum over repeat rounds; a
    round times one loop over the states for every figure in turn, so that
    load changes on the host reach all figures alike."""
    best = {}
    for _ in range(repeat):
        for name, part, fn, args in table:
            row = best.setdefault(name, {})
            row[part] = min(row.get(part, math.inf), time_loop(fn, args))
    return best


def main() -> int:
    states = records(gmem, raw_states(SEED))
    calls = side_jobs(gmem, states)
    oplus = calls.pop("tangent_metric_oplus")  # a verify-path row
    rows = split(jobs(calls), REPEAT)
    for model in sc.MODEL_NAMES:
        rows[curve_row(model)]["call"] /= CURVE[2]
    cols = ("coefficients", "core", "package", "pairs", "call")
    width = {c: max(9, len(c) + 1) for c in cols}
    print(f"{'call (us/state)':24}"
          + "".join(f"{c:>{width[c]}}" for c in cols) + f"{'core %':>9}")
    for name, parts in rows.items():
        cells = "".join(f"{parts[c]:{width[c]}.2f}" if c in parts
                        else f"{'-':>{width[c]}}" for c in cols)
        share = (f"{100.0 * parts['core'] / parts['call']:9.1f}"
                 if "core" in parts else f"{'-':>9}")
        print(f"{name:24}{cells}{share}")
    print()
    per_call = split(call_jobs(states, oplus) + verify_jobs(states), REPEAT)
    print(f"{'verify-path call':30}{'core':>9}{'us/call':>9}")
    for name, parts in per_call.items():
        if "callback" in parts:  # the stencil's overhead over its callbacks
            name = f"{name} stencil"
            parts = {"call": parts["call"] - 6.0 * parts["callback"]}
        core = f"{parts['core']:9.2f}" if "core" in parts else f"{'-':>9}"
        print(f"{name:30}{core}{parts['call']:9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
