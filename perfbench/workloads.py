"""The three benchmark workloads: inputs, one timed pass, output checks and
the span counts each pass must produce.

Every workload is single-process, single-thread and closed-loop: one caller
issues the next call when the previous one has returned. Inputs come from
the benchmark seed; gmem receives only the generated inputs (or, for
`verify`, the seed handed to the CLI).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gmem import cli
from gmem import lattice as la
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.surface_tensors import SurfTensor2

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"


@dataclass(frozen=True)
class Config:
    """Sizes of one run. The defaults are the benchmark; smaller values are
    for the smoke test only."""

    stream_states: int = 4096
    chunk: int = 128
    frame_pool: int = 64
    verify_samples: int = 10
    setup_runs: int = 5
    min_passes: int = 3


def load_references(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(got, want, rel) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rel * np.max(np.abs(want))))


def stress_row(r) -> tuple:
    """The ten numbers of a StressResult: S, tau, sigma (pair storage), W."""
    return (r.S.c11, r.S.c22, r.S.c12, r.tau.c11, r.tau.c22, r.tau.c12,
            r.sigma.c11, r.sigma.c22, r.sigma.c12, r.W)


def _call_or_none(fn, *args):
    try:
        return fn(*args)
    except Exception:  # a failed operation is counted, not fatal
        return None


def _run_chunk(fn, chunk, params):
    try:
        return [fn(c, f, params) for c, f in chunk]
    except Exception:  # redo state by state to count the failures
        return [_call_or_none(fn, c, f, params) for c, f in chunk]


# -- point_stream --------------------------------------------------------------

STREAM_CALLS = ("stress_tangent_metric", "stress_tangent_log",
                "stress_metric", "stress_log")
STREAM_PRINTED = {"stress_tangent_metric": "metric_st_us",
                  "stress_tangent_log": "log_st_us",
                  "stress_metric": "metric_s_us", "stress_log": "log_s_us"}
STRETCH = (0.7, 1.6)
NEAR_ISO_SHARE = 0.125
NEAR_ISO_SPLIT = 1e-9      # |lambda1/lambda2 - 1| below this
FITTED_RATIO = 1.3         # surrogate fit range, principal stretch ratio
AGREEMENT_PERCENT = 1.0    # the benchmark_models consistency gate
SYMMETRY_TOL = {"stress_tangent_metric": 1e-10, "stress_tangent_log": 1e-7}
REF_REL = 1e-9
# the log tangent is a central difference; a closed-form replacement may
# move it by the difference error, so its recorded values are looser
REF_REL_TANGENT = {"stress_tangent_metric": 1e-9, "stress_tangent_log": 1e-5}


def c_triple(lam1, lam2, phi):
    """C components for principal stretches lam1, lam2 along angle phi."""
    e1, e2 = lam1 * lam1, lam2 * lam2
    c, s = np.cos(phi), np.sin(phi)
    return e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c, (e1 - e2) * s * c


def stretch_ratio(c11, c22, c12):
    mean = 0.5 * (c11 + c22)
    disc = np.hypot(0.5 * (c11 - c22), c12)
    return np.sqrt((mean + disc) / (mean - disc))


class PointStream:
    """The quadrature-point loop: a seeded stream of (C, frame) states, each
    chunk pushed through the four public stress calls in turn."""

    name = "point_stream"

    def __init__(self, seed: int, cfg: Config, refs: dict):
        if cfg.stream_states % cfg.chunk:
            raise ValueError("stream_states must be a multiple of chunk")
        rng = np.random.default_rng(seed)
        n = cfg.stream_states
        self.chunk = cfg.chunk
        self.ops_per_pass = len(STREAM_CALLS) * cfg.chunk
        self.params = mm.material_preset(refs["point_stream"]["param_set"])
        pool = [la.make_frame(t)
                for t in rng.uniform(0.0, 2.0 * math.pi, cfg.frame_pool)]
        # consecutive states never share a frame
        steps = rng.integers(1, cfg.frame_pool, n)
        frame_idx = (rng.integers(cfg.frame_pool) + np.cumsum(steps)) % cfg.frame_pool
        lam1 = rng.uniform(*STRETCH, n)
        lam2 = rng.uniform(*STRETCH, n)
        near_iso = np.zeros(n, dtype=bool)
        near_iso[rng.choice(n, round(NEAR_ISO_SHARE * n), replace=False)] = True
        split = rng.uniform(-NEAR_ISO_SPLIT, NEAR_ISO_SPLIT, n)
        lam2[near_iso] = np.clip(lam1 * (1.0 + split), *STRETCH)[near_iso]
        c11, c22, c12 = c_triple(lam1, lam2, rng.uniform(0.0, math.pi, n))
        self.stream = [(SurfTensor2(float(a), float(b), float(c)),
                        pool[int(f)])
                       for a, b, c, f in zip(c11, c22, c12, frame_idx)]
        ref = refs["point_stream"]
        self.ref_states = ref["states"]
        self.ref_outputs = ref["outputs"]
        slots = rng.choice(np.nonzero(~near_iso)[0], len(self.ref_states),
                           replace=False)
        self.ref_at = {}
        for k, pos in enumerate(slots):
            st = self.ref_states[k]
            self.stream[int(pos)] = (SurfTensor2(*st["c"]),
                                     la.make_frame(st["theta"]))
            self.ref_at[int(pos)] = k
        comps = np.array([(c.c11, c.c22, c.c12) for c, _f in self.stream])
        self.in_fit = stretch_ratio(*comps.T) <= FITTED_RATIO
        self.pos = 0

    def warm_up(self) -> None:
        c, f = self.stream[0]
        for name in STREAM_CALLS:
            getattr(mm, name)(c, f, self.params)

    def pass_steps(self):
        """One chunk through each public call in turn: four timed steps."""
        start = self.pos
        chunk = self.stream[start:start + self.chunk]
        self.pos = (start + self.chunk) % len(self.stream)
        steps = [(name, functools.partial(_run_chunk, getattr(mm, name),
                                          chunk, self.params))
                 for name in STREAM_CALLS]
        return steps, start

    def check(self, start, outputs):
        outs = dict(zip(STREAM_CALLS, outputs))
        k = len(outs[STREAM_CALLS[0]])
        ok, rows, tans = {}, {}, {}
        for name in STREAM_CALLS:
            with_t = name.startswith("stress_tangent")
            r_rows, t_rows = [], []
            for r in outs[name]:
                if r is None:
                    r_rows.append((math.nan,) * 10)
                    t_rows.append(np.full(16, math.nan))
                elif with_t:
                    r_rows.append(stress_row(r[0]))
                    t_rows.append(r[1].comp.reshape(16))
                else:
                    r_rows.append(stress_row(r))
            rows[name] = np.array(r_rows)
            ok[name] = np.all(np.isfinite(rows[name]), axis=1)
            if with_t:
                t = np.array(t_rows)
                tans[name] = t
                ok[name] &= np.all(np.isfinite(t), axis=1)
                t4 = t.reshape(k, 2, 2, 2, 2)
                asym = np.max(np.abs(t4 - t4.transpose(0, 3, 4, 1, 2)).reshape(k, 16), axis=1)
                ok[name] &= asym <= SYMMETRY_TOL[name] * np.max(np.abs(t), axis=1)
        problems = []
        # the one-pass stress equals the stress-only call
        for st_name, s_name in (("stress_tangent_metric", "stress_metric"),
                                ("stress_tangent_log", "stress_log")):
            scale = np.max(np.abs(rows[s_name]), axis=1)
            diff = np.max(np.abs(rows[st_name] - rows[s_name]), axis=1)
            ok[st_name] &= ~(diff > 1e-12 * scale)
        # metric vs log inside the fitted stretch ratio
        idx = (start + np.arange(k)) % len(self.stream)
        fit = self.in_fit[idx]
        sm, sl = rows["stress_metric"][:, :3], rows["stress_log"][:, :3]
        pct = 100.0 * np.max(np.abs(sm - sl), axis=1) / np.max(np.abs(sl), axis=1)
        ok["stress_metric"] &= ~(fit & ~(pct <= AGREEMENT_PERCENT))
        for j, pos in enumerate(idx):
            ref = self.ref_at.get(int(pos))
            if ref is None:
                continue
            for name in STREAM_CALLS:
                want = self.ref_outputs[name][ref]
                good = _close(rows[name][j], want[:10], REF_REL)
                if name in tans:
                    good &= _close(tans[name][j], want[10:],
                                   REF_REL_TANGENT[name])
                if not good:
                    ok[name][j] = False
                    problems.append(f"{name}: reference state {ref} differs")
        failed = 0
        for name in STREAM_CALLS:
            bad = np.nonzero(~ok[name])[0]
            failed += len(bad)
            for j in bad[:3]:
                c, f = self.stream[int(idx[j])]
                problems.append(f"{name} failed at stream index {int(idx[j])}: "
                                f"C=({c.c11!r}, {c.c22!r}, {c.c12!r}) "
                                f"theta={f.theta_lattice!r}")
        return len(STREAM_CALLS) * k, failed, problems

    def printed(self, parts_list):
        """Per-call figures: us per state, one sample per chunk."""
        return {STREAM_PRINTED[name]: ([p[name] / self.chunk / 1e3
                                        for p in parts_list], "us")
                for name in STREAM_CALLS}

    def expected_calls(self, table) -> dict:
        k = self.chunk
        exp = {f"membrane_material.{n}": k for n in STREAM_CALLS}
        exp["surface_tensors.sqrt_spd"] = 4 * k
        exp["surface_tensors.tangent_from_pairs"] = 2 * k
        return exp

    def structure_problems(self, table) -> list:
        return []


# -- sweep ---------------------------------------------------------------------

ARMCHAIR_DEG = 0.0
ZIGZAG_DEG = math.degrees(sc.ZIGZAG_OFFSET)
GENERIC_DEG = (7.5, 12.5, 17.5, 22.5, 37.5, 42.5, 47.5, 52.5)
PARAM_SETS = ("GGA", "LDA")
COMPARE_RANGE = (1.0, 1.2, 101)
CURVE_RANGE = (0.7, 1.6, 201)
CURVE_PARAMS = "GGA"
SCAN_RATIOS = (1.0, 1.6, 601)
COMPARE_REL, COMPARE_ABS = 1e-6, 1e-9   # percent
PEAK_REL = 1e-9
SCAN_REL = 1e-7


def sweep_directions(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    return ARMCHAIR_DEG, ZIGZAG_DEG, GENERIC_DEG[int(rng.integers(len(GENERIC_DEG)))]


def item_key(kind, deg, last) -> str:
    return f"{kind}/{deg:.6g}/{last}"


def sweep_items(directions) -> list:
    """(kind of item, reference key, inputs) for one full sweep."""
    items = []
    for kind in sc.PROTOCOL_KINDS:
        for deg in directions:
            for pname in PARAM_SETS:
                proto = sc.DeformationProtocol(kind, math.radians(deg), *COMPARE_RANGE)
                items.append(("compare", item_key(kind, deg, pname),
                              (proto, mm.material_preset(pname))))
    for kind in sc.PROTOCOL_KINDS:
        for deg in directions:
            for model in sc.MODEL_NAMES:
                proto = sc.DeformationProtocol(kind, math.radians(deg), *CURVE_RANGE)
                items.append(("curve", item_key(kind, deg, model),
                              (proto, model, mm.material_preset(CURVE_PARAMS))))
    items.append(("scan", "scan", tuple(np.linspace(*SCAN_RATIOS))))
    return items


def _item_or_error(kind, inputs, frame):
    try:
        return run_sweep_item(kind, inputs, frame)
    except Exception as e:  # a failed grid item is counted
        return e


def run_sweep_item(kind, inputs, frame):
    if kind == "compare":
        proto, params = inputs
        return sc.compare_models(proto, params, frame)
    if kind == "curve":
        proto, model, params = inputs
        pts = sc.run_curve(proto, model, params, frame)
        return pts, sc.peak_of_curve(pts)
    return sc.invariant_approximation_errors(inputs)


class Sweep:
    """One pass over the scenario drivers: a compare grid, full-range curves
    with their peaks, and a surrogate-error ratio scan. One frame and one
    parameter set per item, many smooth states."""

    name = "sweep"

    def __init__(self, seed: int, cfg: Config, refs: dict):
        self.refs = refs["sweep"]
        items = sweep_items(sweep_directions(seed))
        order = np.random.default_rng(seed + 1).permutation(len(items))
        self.items = [items[i] for i in order]
        self.frame = la.make_frame(0.0)
        self.ops_per_pass = len(self.items)

    def warm_up(self) -> None:
        seen = set()
        for kind, _key, inputs in self.items:
            if kind not in seen:
                seen.add(kind)
                run_sweep_item(kind, inputs, self.frame)

    def pass_steps(self):
        """Every grid item is one timed step."""
        return [(f"{kind}:{key}",
                 functools.partial(_item_or_error, kind, inputs, self.frame))
                for kind, key, inputs in self.items], None

    def _item_ok(self, kind, key, inputs, res) -> bool:
        if isinstance(res, Exception):
            return False
        want = self.refs[kind].get(key) if kind != "scan" else self.refs["scan"]
        if want is None:
            return False
        if kind == "compare":
            names = ("sigma11", "sigma22", "sigma12")
            return all(abs(res[n] - want[n]) <= COMPARE_REL * abs(want[n]) + COMPARE_ABS
                       for n in names)
        if kind == "curve":
            pts, (lam, peak) = res
            vals = np.array([(q.lam, q.sigma11, q.sigma22, q.sigma12, q.W) for q in pts])
            return (len(pts) == inputs[0].steps and bool(np.all(np.isfinite(vals)))
                    and abs(lam - want[0]) <= 1e-12
                    and abs(peak - want[1]) <= PEAK_REL * abs(want[1]))
        return all(abs(res[n] - want[n]) <= SCAN_REL * abs(want[n]) for n in want)

    def check(self, _context, results):
        problems = []
        for (kind, key, inputs), res in zip(self.items, results):
            if not self._item_ok(kind, key, inputs, res):
                problems.append(f"sweep {kind} {key}: {res!r:.200}")
        return len(self.items), len(problems), problems

    def printed(self, parts_list):
        return {"sweep_s": ([sum(p.values()) / 1e9 for p in parts_list], "s")}

    def _counts(self):
        n_cmp = sum(1 for k, _, _ in self.items if k == "compare")
        curves = [inp[0].steps for k, _, inp in self.items if k == "curve"]
        scans = [len(inp) for k, _, inp in self.items if k == "scan"]
        return n_cmp, curves, scans

    def expected_calls(self, table) -> dict:
        n_cmp, curves, scans = self._counts()
        steps = COMPARE_RANGE[2]
        per_model = n_cmp * steps + sum(curves) // 2
        n_scan = sum(scans)
        return {
            "scenarios.compare_models": n_cmp,
            "scenarios.run_curve": 2 * n_cmp + len(curves),
            "scenarios.peak_of_curve": len(curves),
            "scenarios.invariant_approximation_errors": len(scans),
            "membrane_material.stress_metric": per_model,
            "membrane_material.stress_log": per_model,
            "surface_tensors.sqrt_spd": 2 * per_model,
            "lattice.make_frame": len(scans),
            "invariants.invariants_C": n_scan,
            "invariants.approx_log_invariants": n_scan,
            "invariants.invariants_log_exact": n_scan,
            "surface_tensors.spectral": n_scan,
        }

    def structure_problems(self, table) -> list:
        """Each run_curve span holds one stress span per curve point."""
        n_cmp, curves, _ = self._counts()
        n_pass = len(table.passes_ns)
        per_curve = (table.children_per_span("scenarios.run_curve",
                                             "membrane_material.stress_metric")
                     + table.children_per_span("scenarios.run_curve",
                                               "membrane_material.stress_log"))
        got = np.sort(per_curve)
        want = np.sort(np.tile([COMPARE_RANGE[2]] * (2 * n_cmp) + curves, n_pass))
        if got.shape != want.shape or np.any(got != want):
            return ["run_curve spans do not hold one stress span per point"]
        return []


# -- verify --------------------------------------------------------------------

class Verify:
    """In-process `gmem verify --model all`, stdout captured, report checked."""

    name = "verify"
    ops_per_pass = 1

    def __init__(self, seed: int, cfg: Config, refs: dict):
        rng = np.random.default_rng(seed)
        self.samples = cfg.verify_samples
        self.verify_seed = int(rng.integers(0, 2**31 - 1))
        OUT_DIR.mkdir(exist_ok=True)
        self.out_path = OUT_DIR / "verify-report.json"
        self.argv = ["verify", "--model", "all", "--samples", str(self.samples),
                     "--seed", str(self.verify_seed), "--out", str(self.out_path)]

    def warm_up(self) -> None:
        argv = list(self.argv)
        argv[argv.index("--samples") + 1] = "1"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(argv)

    def _invoke(self):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.run(self.argv)
        except Exception as e:  # a failed invocation is counted
            rc = e
        return rc, buf.getvalue()

    def pass_steps(self):
        """One CLI invocation is one timed step."""
        return [("verify", self._invoke)], None

    def check(self, _context, outputs):
        rc, text = outputs[0]
        problem = None
        try:
            report = json.loads(text)
            written = self.out_path.read_text()
        except (ValueError, OSError) as e:
            problem = f"verify output unreadable: {e}"
        else:
            reports = report.get("reports", [])
            if rc != 0 or report.get("pass") is not True:
                problem = f"verify exit {rc!r}, pass={report.get('pass')!r}"
            elif ([r.get("model") for r in reports] != ["metric", "log", "bending"]
                  or any(r.get("n_samples") != self.samples
                         or r.get("seed") != self.verify_seed for r in reports)
                  or report.get("schema_version") != 1 or written != text):
                problem = "verify report does not match its request"
        return 1, int(problem is not None), [problem] if problem else []

    def printed(self, parts_list):
        return {"verify_s": ([p["verify"] / 1e9 for p in parts_list], "s")}

    def expected_calls(self, table) -> dict:
        s = self.samples
        retries = table.calls_of("numdiff.partials_sym_richardson")
        under = {n: table.count_under(f"membrane_material.{n}",
                                      "numdiff.partials_sym_richardson", 3)
                 for n in ("energy_metric", "stress_metric", "energy_log")}
        n_pass = max(len(table.passes_ns), 1)
        # each retry re-runs one six-evaluation difference at two steps;
        # retries are deterministic for one seed, so the same in every pass
        per_pass = {n: u // n_pass for n, u in under.items()}
        stress_metric = 7 * s + per_pass["stress_metric"]
        return {
            "cli.run": 1,
            "cli.build_parser": 1,
            "cli.cmd_verify": 1,
            "membrane_material.material_preset": 2,
            "scenarios.verify_derivatives": 3,
            "lattice.make_frame": 2 * s,
            "membrane_material.energy_metric": 6 * s + per_pass["energy_metric"],
            "membrane_material.stress_metric": stress_metric,
            "membrane_material.energy_log": 6 * s + per_pass["energy_log"],
            "membrane_material.stress_log": s,
            "membrane_material.tangent_metric": s,
            "membrane_material.tangent_metric_oplus": s,
            "membrane_material.tangent_log": s,
            "surface_tensors.sqrt_spd": stress_metric + s,
            "surface_tensors.tangent_from_pairs": 2 * s,
            "surface_tensors.rearrange": s,
            "surface_tensors.oplus_product": 13 * s,
            "surface_tensors.tensor_product": 2 * s,
            "surface_tensors.boxtimes_product": 2 * s,
            "numdiff.partials_sym": 7 * s + 2 * retries,
            "numdiff.partials_sym_richardson": retries,
            "bending_geometry.geometry_from_metrics": 25 * s,
            "bending_geometry.canham_energy": 12 * s,
            "bending_geometry.bending_stress_moment": 13 * s,
            "bending_geometry.bending_tangents": s,
        }

    def structure_problems(self, table) -> list:
        problems = []
        kids = table.children_per_span("numdiff.partials_sym", None)
        if np.any(kids != 6):
            problems.append("a partials_sym span does not hold six evaluations")
        retries = int(table.calls_of("numdiff.partials_sym_richardson").sum())
        under = sum(table.count_under(f"membrane_material.{n}",
                                      "numdiff.partials_sym_richardson", 3)
                    for n in ("energy_metric", "stress_metric", "energy_log"))
        if under != 12 * retries:
            problems.append(f"{retries} Richardson retries hold {under} "
                            f"model evaluations, expected {12 * retries}")
        return problems


WORKLOADS = {w.name: w for w in (PointStream, Sweep, Verify)}
