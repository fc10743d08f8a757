"""Homogeneous-deformation drivers, model comparison, finite-difference
verification, small closed-form calculators, and the speedup benchmark.

Every driver is a pure function over immutable inputs; randomized engines
take an explicit seed and are deterministic under it.
"""

from __future__ import annotations

import csv
import math
import operator
import platform
import time
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from . import bending_geometry as bg
from . import membrane_material as mm
from . import surface_tensors as _st
from .invariants import (FITTED_STRETCH_RATIO, approx_log_invariants,
                         invariants_C, invariants_log_exact)
from .lattice import ZIGZAG_OFFSET, LatticeFrame, make_frame
from .numdiff import STRESS_STEP, TANGENT_STEP, partials_sym
from .surface_tensors import SurfTensor2, _new, rearrange

STRETCH_RANGE = (0.7, 1.6)
MAX_STEPS = 100_000
# verify keeps one state record per sample and float64 arrays of errors
# until it reports, and bench builds all its state records before timing
# (144 bytes each with the list slot, so about 144 MB at MAX_EVALS)
MAX_SAMPLES = 100_000
MAX_EVALS = 1_000_000
PROTOCOL_KINDS = ("dilatation", "uniaxial-constrained", "pure-shear")
# verify holds the check operands of this many samples at a time
_VERIFY_BLOCK = 256
MODEL_NAMES = ("metric", "log")


@dataclass(frozen=True)
class DeformationProtocol:
    """Homogeneous in-plane deformation family.

    direction_angle is the pull direction in radians from the armchair
    axis; start/end bound the sweep parameter lam (stretch, or area ratio
    J for dilatation). At lam, C has principal values (lam, lam),
    (lam^2, 1) or (lam^2, 1/lam^2) for dilatation, uniaxial-constrained or
    pure-shear, the first along theta_lattice + direction_angle (0 for
    dilatation) in the lattice storage frame.
    """

    kind: str
    direction_angle: float = 0.0
    start: float = 1.0
    end: float = 1.25
    steps: int = 26

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}; "
                             f"choose from {PROTOCOL_KINDS}")
        if not 1 <= operator.index(self.steps) <= MAX_STEPS:
            raise ValueError(f"steps must be in [1, {MAX_STEPS}]")
        if not math.isfinite(self.direction_angle):
            raise ValueError("direction_angle must be finite, got "
                             f"{self.direction_angle!r}")
        lo, hi = STRETCH_RANGE
        for v in (self.start, self.end):
            if not lo <= v <= hi:
                raise ValueError(f"stretch {v} outside supported "
                                 f"range [{lo}, {hi}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps)

    def max_stretch_ratio(self) -> float:
        """Largest principal stretch ratio lambda1/lambda2 of the sweep,
        reached at one of its ends; a one-step sweep has start only."""
        if self.kind == "dilatation":
            return 1.0
        ends = (self.start,) if self.steps == 1 else (self.start, self.end)
        if self.kind == "pure-shear":
            ends = tuple(v * v for v in ends)
        return max(max(v, 1.0 / v) for v in ends)

    def in_fitted_range(self) -> bool:
        """Whether the sweep stays within the stretch ratio the surrogate
        constants were fitted over; the 1e-12 slack admits an end given as
        the rounded sqrt(1.3)."""
        return self.max_stretch_ratio() <= FITTED_STRETCH_RATIO * (1.0 + 1e-12)


class CurvePoint(NamedTuple):
    lam: float
    sigma11: float
    sigma22: float
    sigma12: float
    W: float


def run_curve(protocol: DeformationProtocol, model: str,
              params: mm.MaterialParams,
              frame: LatticeFrame) -> List[CurvePoint]:
    """Cauchy stress components in the pull-aligned Cartesian frame along
    the sweep; one cosine and sine of the pull axis place each point's C
    and rotate its sigma."""
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}; choose from {MODEL_NAMES}")
    stress = getattr(mm, f"stress_{model}")
    kind = protocol.kind
    phi = (0.0 if kind == "dilatation"
           else frame.theta_lattice + protocol.direction_angle)
    c, s = math.cos(phi), math.sin(phi)
    cc, ss, cs, cs2, dcs = c * c, s * s, c * s, 2.0 * c * s, c * c - s * s
    out = []
    for lam in protocol.values().tolist():
        if kind == "dilatation":
            e1 = e2 = lam
        else:
            e1 = lam * lam
            e2 = 1.0 / e1 if kind == "pure-shear" else 1.0
        state = _new(SurfTensor2, _principal_triple(e1, e2, c, s))
        _s, _tau, (g11, g22, g12), W = stress(state, frame, params)
        out.append(_new(CurvePoint, (lam, cc * g11 + ss * g22 + cs2 * g12,
                                     ss * g11 + cc * g22 - cs2 * g12,
                                     dcs * g12 + cs * (g22 - g11), W)))
    return out


def peak_of_curve(points: Sequence[CurvePoint]):
    """(lam, sigma11) at the grid maximum of sigma11."""
    best = max(points, key=lambda q: q.sigma11)
    return best.lam, best.sigma11


def compare_models(protocol: DeformationProtocol, params: mm.MaterialParams,
                   frame: LatticeFrame) -> dict:
    """Pointwise |sigma_metric - sigma_log| over the sweep, normalized per
    component by the log model's sweep maximum, reported as percentages.

    Agreement between the metric and log models is claimed only inside
    the surrogate's fitted range, principal stretch ratios up to 1.3 (see
    FITTED_STRETCH_RATIO); sweeps beyond it measure extrapolation error."""
    met = run_curve(protocol, "metric", params, frame)
    ref = run_curve(protocol, "log", params, frame)
    met_cols = list(zip(*met))[1:4]
    ref_cols = list(zip(*ref))[1:4]
    peaks = [max(map(abs, col)) for col in ref_cols]
    floor = max(1e-9 * max(peaks), 1e-300)
    out = {}
    for n, m, r, peak in zip(CurvePoint._fields[1:4], met_cols, ref_cols,
                             peaks):
        diff = max(abs(a - b) for a, b in zip(m, r))
        out[n] = 100.0 * diff / max(peak, floor)
    return out


def invariant_approximation_errors(ratios: Iterable[float]) -> dict:
    """Max relative error (percent) of the polynomial surrogates f1, f2
    against the exact log invariants over principal-stretch ratios
    lambda1/lambda2, skipping points where the exact value vanishes."""
    fr = make_frame(0.0)
    worst_f1 = 0.0
    worst_f2 = 0.0
    for r in ratios:
        c = _new(SurfTensor2, (r * r, 1.0, 0.0))
        inv = invariants_C(c, fr)
        f1, f2 = approx_log_invariants(inv)
        ex = invariants_log_exact(c, fr)
        if ex.J2E != 0.0:
            worst_f1 = max(worst_f1, abs(f1 - ex.J2E) / ex.J2E)
        if ex.J3E != 0.0:
            worst_f2 = max(worst_f2, abs(f2 - ex.J3E) / abs(ex.J3E))
    return {"f1_vs_J2E": 100.0 * worst_f1, "f2_vs_J3E": 100.0 * worst_f2}


def _principal_triple(e1, e2, c, s):
    """(c11, c22, c12) of the symmetric 2x2 with eigenvalue e1 along the
    unit vector (c, s) and e2 across it, as Python floats."""
    return (e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c,
            (e1 - e2) * s * c)


def _random_spd_triple(u1, u2, u3, lo=0.7, hi=1.6):
    """(c11, c22, c12) of a random SPD 2x2 with eigenvalues in [lo, hi],
    as Python floats, from three uniform [0, 1) draws: the eigenvalues
    lo + (hi - lo) * u1 and * u2 and the eigenvector angle pi * u3.
    That is NumPy's own uniform formula, so the triple is bitwise the one
    rng.uniform(lo, hi, size=2) and rng.uniform(0.0, pi) give for the same
    draws."""
    phi = math.pi * u3
    return _principal_triple(lo + (hi - lo) * u1, lo + (hi - lo) * u2,
                             math.cos(phi), math.sin(phi))


def _row_err(x, ref):
    """Each row's max |x - ref| over its max |ref|, the latter floored at
    1e-12, as an array: row i of x and ref is one error's operands, every
    other axis its entries. A NaN in a row gives that row NaN."""
    x = x.reshape(len(x), -1)
    ref = ref.reshape(len(ref), -1)
    return np.abs(x - ref).max(1) / np.maximum(np.abs(ref).max(1), 1e-12)


def _membrane_state(rng):
    """A random membrane state record, c11, c22, c12 and theta_lattice in
    [0, 2 pi), from one draw of four uniforms, the angle's first."""
    u0, u1, u2, u3 = rng.random(4).tolist()
    c11, c22, c12 = _random_spd_triple(u1, u2, u3)
    return {"c11": c11, "c22": c22, "c12": c12,
            "theta_lattice": 2.0 * math.pi * u0}


def _bending_state(rng):
    """A random bending state record: its a_ref, a_cur and b_cur triples,
    from one draw of nine uniforms, three per triple in that order; b_cur's
    are uniform(-0.5, 0.5), -0.5 + (0.5 - -0.5) * u."""
    r1, r2, r3, a1, a2, a3, b1, b2, b3 = rng.random(9).tolist()
    return {"a_ref": _random_spd_triple(r1, r2, r3, 0.8, 1.3),
            "a_cur": _random_spd_triple(a1, a2, a3, 0.7, 1.6),
            "b_cur": (b1 - 0.5, b2 - 0.5, b3 - 0.5)}


def _membrane_sample(model, params, state):
    """The operands of the checks of one membrane state record: the energy
    stencil, the analytic S, the stress stencil, the tangent's components
    and the rearranged components of the cross-check route; a check that
    the model does not run has None for its own."""
    triple = state["c11"], state["c22"], state["c12"]
    frame = make_frame(state["theta_lattice"])
    c0 = _new(SurfTensor2, triple)
    stress = getattr(mm, f"stress_{model}")
    energy = getattr(mm, f"energy_{model}")

    def w_of(c11, c22, c12):
        return energy(_new(SurfTensor2, (c11, c22, c12)), frame, params)

    def s_of(c11, c22, c12):
        return stress(_new(SurfTensor2, (c11, c22, c12)), frame, params).S

    checks = VERIFY_TOLERANCES[model]
    fd_w = partials_sym(w_of, triple, STRESS_STEP)
    s = s_of(*triple)
    t = getattr(mm, f"tangent_{model}")(c0, frame, params).comp
    fd_s = (partials_sym(s_of, triple, TANGENT_STEP)
            if "tangent_fd" in checks else None)
    t_alt = (rearrange(mm.tangent_metric_oplus(c0, frame, params)).comp
             if "rearrangement" in checks else None)
    return fd_w, s, fd_s, t, t_alt


def _membrane_errors(ops, checks):
    """The errors of each check in checks over a block of membrane
    samples' operands, one per sample."""
    fd_w, s, fd_s, t, t_alt = zip(*ops)
    t = np.array(t)
    flat = t.reshape(len(t), 16)
    errs = {"stress_fd": _row_err(2.0 * np.array(fd_w), np.array(s)),
            "major_symmetry": _row_err(t.transpose(0, 3, 4, 1, 2), flat)}
    if "tangent_fd" in checks:
        errs["tangent_fd"] = _row_err(2.0 * np.array(fd_s),
                                      flat[:, _st._PAIR_TAKE])
    if "rearrangement" in checks:
        errs["rearrangement"] = _row_err(np.array(t_alt), flat)
    return errs


def _bending_sample(state):
    """The operands of the checks of one bending state record: the energy
    stencils in a_cur and in b_cur, the analytic stress and moment as a
    6-tuple, the stress-and-moment stencils in a_cur and in b_cur, and the
    tangents."""
    c_bend = DEFAULT_BEND_STIFFNESS
    a_ref, a_cur, b_cur = state["a_ref"], state["a_cur"], state["b_cur"]
    geometry = bg.geometry_from_metrics
    energy = bg.canham_energy
    stress_moment = bg.bending_stress_moment

    # the unperturbed metrics, built once for every perturbation
    A_ref, a_0, b_0 = (_new(SurfTensor2, t) for t in (a_ref, a_cur, b_cur))

    def tm(g):
        t, m = stress_moment(g, c_bend)
        return t + m

    # one stencil callback per output, energy or stress and moment, and
    # perturbed metric, a_cur or b_cur, whose (11, 22, 12) arrive as a tuple
    def energy_a(*a):
        return energy(geometry(A_ref, _new(SurfTensor2, a), b_0), c_bend)

    def energy_b(*b):
        return energy(geometry(A_ref, a_0, _new(SurfTensor2, b)), c_bend)

    def tm_a(*a):
        return tm(geometry(A_ref, _new(SurfTensor2, a), b_0))

    def tm_b(*b):
        return tm(geometry(A_ref, a_0, _new(SurfTensor2, b)))

    g0 = geometry(A_ref, a_0, b_0)
    an = tm(g0)
    fd_wa = partials_sym(energy_a, a_cur, STRESS_STEP)
    fd_wb = partials_sym(energy_b, b_cur, STRESS_STEP)
    tg = bg.bending_tangents(g0, c_bend)
    fd_a = partials_sym(tm_a, a_cur, TANGENT_STEP)
    fd_b = partials_sym(tm_b, b_cur, TANGENT_STEP)
    return fd_wa, fd_wb, an, fd_a, fd_b, tg


def _bending_errors(ops):
    """The errors of each bending check over a block of samples' operands,
    one per sample; tangent_fd has four per sample, one per tangent block
    c, d, e, f in that order."""
    fd_wa, fd_wb, an, fd_a, fd_b, tg = map(np.array, zip(*ops))
    n = len(tg)
    fd_a = 2.0 * fd_a
    # c, d, e, f: the stress rows of the a_cur and b_cur stencils, then
    # their moment rows
    fd_t = np.stack([fd_a[:, :3], fd_b[:, :3], fd_a[:, 3:], fd_b[:, 3:]], 1)
    e_off = tg[:, 2] - tg[:, 1].transpose(0, 3, 4, 1, 2)
    return {"stress_fd": _row_err(np.concatenate([2.0 * fd_wa, fd_wb], 1),
                                  an),
            "tangent_fd": _row_err(fd_t.reshape(4 * n, 9),
                                   tg.reshape(4 * n, 16)[:, _st._PAIR_TAKE]),
            "transpose_identity": np.abs(e_off).reshape(n, 16).max(1)}


def _summary(errs, n_samples, tol):
    """Max, mean and worst sample of a check's errors, one float64 array
    holding equally many errors of each of n_samples samples in turn. A
    check passes when its max is at most tol; a tol of 0 wants an exact 0.
    argmax takes the first NaN, else the first max, so a NaN error is the
    max and fails its check; worst_sample is the sample holding it. The
    mean sums the errors as Python floats, in order."""
    at = int(np.argmax(errs))
    worst = float(errs[at])
    return {"max": worst, "mean": sum(errs.tolist()) / len(errs), "tol": tol,
            "pass": worst <= tol, "worst_sample": at * n_samples // len(errs)}


DEFAULT_BEND_STIFFNESS = 0.238

# Tolerance of each check that verify_derivatives runs, per model.
VERIFY_TOLERANCES = {
    "metric": {"stress_fd": 1e-6, "tangent_fd": 1e-7,
               "major_symmetry": 0.0, "rearrangement": 1e-12},
    "log": {"stress_fd": 1e-6, "major_symmetry": 0.0},
    "bending": {"stress_fd": 1e-6, "tangent_fd": 1e-7,
                "transpose_identity": 0.0},
}


def verify_derivatives(model: str, params: Optional[mm.MaterialParams] = None,
                       n_samples: int = 200, seed: int = 0) -> dict:
    """Finite-difference verification of every analytic derivative.

    model is "metric", "log", or "bending". Relative errors are collected
    per check over n_samples random states. Each error is one plain
    central difference, measured before its tolerance is applied. The
    samples run in blocks of _VERIFY_BLOCK: a block draws a state record
    per sample, evaluates each sample's check operands from its record,
    and forms each check's errors as one array over the stacked operands
    (_row_err). Each check reports its max, mean and worst_sample, the
    0-based index of the sample holding the max; a NaN error is the max
    and fails the check. Each check also reports worst_state, the record
    that sample was evaluated from: the C components and lattice angle
    (radians) for the metric and log models, the a_ref, a_cur and b_cur
    triples in (11, 22, 12) order for bending.
    The states come from default_rng(seed) in a fixed order, so
    n_samples=k+1 re-runs sample k as the last one.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be <= {MAX_SAMPLES}")
    if model not in VERIFY_TOLERANCES:
        raise ValueError(f"unknown model {model!r}")
    rng = np.random.default_rng(seed)
    p = params if params is not None else mm.GGA
    checks = VERIFY_TOLERANCES[model]
    errs = {name: [] for name in checks}
    states = []
    for start in range(0, n_samples, _VERIFY_BLOCK):
        size = min(_VERIFY_BLOCK, n_samples - start)
        if model == "bending":
            block = [_bending_state(rng) for _ in range(size)]
            rows = _bending_errors(list(map(_bending_sample, block)))
        else:
            block = [_membrane_state(rng) for _ in range(size)]
            rows = _membrane_errors([_membrane_sample(model, p, st)
                                     for st in block], checks)
        states += block
        for name, e in rows.items():
            errs[name].append(e)
    report = {name: _summary(np.concatenate(errs[name]), n_samples, tol)
              for name, tol in checks.items()}
    for check in report.values():
        check["worst_state"] = dict(states[check["worst_sample"]])
    return {
        "model": model,
        "param_set": "" if model == "bending" else p.name or "custom",
        "n_samples": int(n_samples),
        "seed": int(seed),
        "checks": report,
        "pass": all(c["pass"] for c in report.values()),
    }


@dataclass(frozen=True)
class ContactParams:
    """Equilibrium spacing (nm) and adhesion energy (N/m) of the
    graphene/substrate half-space potential."""

    h0: float = 0.34
    gamma: float = 0.14

    def __post_init__(self):
        if not (0.0 < self.h0 < math.inf and 0.0 < self.gamma < math.inf):
            raise ValueError(f"h0 and gamma must be finite and > 0, got "
                             f"h0={self.h0}, gamma={self.gamma}")


def contact_potential(r: float, cp: ContactParams = ContactParams()):
    """(psi, traction) at wall distance r: psi is the adhesion energy per
    area with minimum -gamma at h0, traction = -d psi/d r."""
    if not r > 0.0:
        raise ValueError("wall distance must be positive")
    q3 = (cp.h0 / r) ** 3
    q9 = q3 * q3 * q3
    psi = -cp.gamma * (1.5 * q3 - 0.5 * q9)
    traction = cp.gamma * (4.5 * (q9 - q3) / r)
    return psi, traction


def traction_extremum(cp: ContactParams = ContactParams()) -> float:
    """Distance of maximum pull-off traction: with q = h0/r,
    d(traction)/dr is proportional to 4 q^3 - 10 q^9, which vanishes at
    r = (2.5)^(1/6) h0."""
    return 2.5 ** (1.0 / 6.0) * cp.h0


@dataclass(frozen=True)
class BeamParams:
    """Euler-Bernoulli surrogate of an axially loaded tube: 2D modulus e2d
    (N/m), mean radius r_m (nm), length L (nm), wall angle theta_w."""

    e2d: float
    r_m: float
    length: float
    theta_w: float

    def __post_init__(self):
        if not all(0.0 < x < math.inf
                   for x in (self.e2d, self.r_m, self.length)):
            raise ValueError("modulus and beam geometry must be finite and "
                             "> 0")
        if not 0.0 < self.theta_w < 0.5 * math.pi:
            raise ValueError("theta_w must lie in (0, pi/2)")

    @property
    def i_y(self) -> float:
        return math.pi * self.r_m ** 3


def beam_force(b: BeamParams, delta_axial: float):
    """(F_w, F_A) in nN for an axial end shortening delta_axial (nm):
    F_w = (3 E I_y / L^3) cot(theta_w) delta, F_A = F_w cot(theta_w)."""
    cot = math.tan(0.5 * math.pi - b.theta_w)
    f_w = 3.0 * b.e2d * b.i_y / b.length ** 3 * cot * delta_axial
    return f_w, f_w * cot


ADMISSIBLE_DECLINATIONS = (60.0, 120.0, 180.0, 240.0, 300.0)


def apex_angle(d_theta: float) -> float:
    """Apex angle (degrees) of a cone folded from a flat sheet with an
    admissible angular declination d_theta (degrees)."""
    if float(d_theta) not in ADMISSIBLE_DECLINATIONS:
        raise ValueError(f"declination {d_theta} not in "
                         f"{ADMISSIBLE_DECLINATIONS}")
    return math.degrees(2.0 * math.asin(1.0 - float(d_theta) / 360.0))


BENCH_ROUNDS = 5


def benchmark_models(params: mm.MaterialParams, n_evals: int = 100_000,
                     seed: int = 0) -> dict:
    """Single-threaded throughput of the analytic metric path against the
    spectral log path, stress only and stress+tangent.

    Each route is the scalar core its public calls run,
    membrane_material._metric_core or _log_core (closed-form tangent),
    looked up when benchmark_models is called; n_evals is an integer.

    All paths consume the same precomputed state stream and produce the
    same pair-matrix tangent representation, and a cross-consistency gate
    on a stream prefix runs before any timing. The stream is timed in
    BENCH_ROUNDS rounds of n_evals / BENCH_ROUNDS consecutive states; each
    round times every route's loop over its states, in alternating order
    (reversed in odd rounds), less an empty loop over the same states.
    Each speedup_* is the median over the rounds of the ratio of two
    adjacent loops, and speedup_spread gives its median, min and max; the
    *_s times are sums over the rounds. States keep the ratio of the C
    eigenvalues below 1.3, a principal stretch ratio of at most
    sqrt(1.3) ~ 1.14, inside the surrogate's fitted range, so the gate
    tolerance of the model comparison applies.
    """
    n_evals = operator.index(n_evals)
    if n_evals < 10_000:
        raise ValueError("n_evals must be >= 10000")
    if n_evals > MAX_EVALS:
        raise ValueError(f"n_evals must be <= {MAX_EVALS}")
    rng = np.random.default_rng(seed)
    frame = make_frame(0.0)
    states = []
    for _ in range(n_evals):
        e2 = rng.uniform(0.8, 1.2)
        e1 = e2 * rng.uniform(1.0, 1.3)
        phi = rng.uniform(0.0, math.pi)
        states.append(SurfTensor2(*_principal_triple(
            e1, e2, math.cos(phi), math.sin(phi))))

    # (route, order) -> core, in timing order; each speedup divides the
    # times of two adjacent loops
    loops = {("metric", 1): mm._metric_core, ("log", 1): mm._log_core,
             ("log", 2): mm._log_core, ("metric", 2): mm._metric_core}
    head = states[:100]
    gate = 100.0 * _row_err(
        np.array([mm._metric_core(st, frame, params, 1)[1] for st in head]),
        np.array([mm._log_core(st, frame, params, 1)[1] for st in head]))
    gate_max = float(np.max(gate))  # NaN anywhere propagates, so NaN fails
    if not gate_max < 1.0:
        raise RuntimeError(f"consistency gate failed: max componentwise "
                           f"difference {gate_max:.3g}%")

    for core in dict.fromkeys(loops.values()):
        for st in states[:200]:  # warmup
            core(st, frame, params, 2)

    n = len(states)
    ends = [n * k // BENCH_ROUNDS for k in range(BENCH_ROUNDS + 1)]
    items = list(loops.items())
    timed = {key: [] for key in loops}  # seconds per round
    calib = 0.0
    for r in range(BENCH_ROUNDS):
        chunk = states[ends[r]:ends[r + 1]]
        t0 = time.perf_counter()
        for st in chunk:
            pass
        empty = time.perf_counter() - t0
        calib += empty
        for key, core in (items if r % 2 == 0 else items[::-1]):
            t0 = time.perf_counter()
            for st in chunk:
                core(st, frame, params, key[1])
            timed[key].append(time.perf_counter() - t0 - empty)

    def spread(num, den):
        ratios = sorted(a / b for a, b in zip(timed[num], timed[den]))
        return {"median": ratios[len(ratios) // 2], "min": ratios[0],
                "max": ratios[-1]}

    speedups = {"stress_tangent": spread(("log", 2), ("metric", 2)),
                "stress_only": spread(("log", 1), ("metric", 1))}
    total = {key: sum(t) for key, t in timed.items()}
    return {
        "n_evals": n_evals,
        "seed": int(seed),
        "param_set": params.name or "custom",
        "rounds": BENCH_ROUNDS,
        "calibration_s": calib,
        **{name: {"stress_s": total[name, 1],
                  "stress_tangent_s": total[name, 2],
                  "stress_tangent_us_per_eval": 1e6 * total[name, 2] / n}
           for name in ("metric", "log")},
        **{f"speedup_{name}": s["median"] for name, s in speedups.items()},
        "speedup_spread": speedups,
        "reference_ratio": 1.5,
        "consistency_gate": {"max_percent": gate_max,
                             "tol_percent": 1.0, "pass": True,
                             "n_states": 100},
        "environment": {"platform": platform.platform(),
                        "python": platform.python_version(),
                        "timer": "perf_counter", "threads": 1},
    }


CSV_HEADER = ("step", "lambda_or_J", "sigma11", "sigma22", "sigma12", "W",
              "model", "param_set", "theta_deg")


def _write_csv(path, header, rows, tail=()) -> None:
    """A header, then per row its 0-based step, its floats as %.17g and
    the fields of tail; every line is formed before the file is opened."""
    lines = [[i, *(f"{x:.17g}" for x in row), *tail]
             for i, row in enumerate(rows)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(lines)


def write_curve_csv(path, points: Sequence[CurvePoint], model: str,
                    param_set: str, theta_deg: float) -> None:
    _write_csv(path, CSV_HEADER, points,
               (model, param_set, f"{theta_deg:.17g}"))


def write_contact_csv(path, radii: Sequence[float],
                      cp: ContactParams = ContactParams()) -> None:
    """Every row is computed before the file is opened; a psi or traction
    that overflows or is not finite raises OverflowError and writes
    nothing."""
    rows = []
    for r in map(float, radii):
        try:
            psi, tr = contact_potential(r, cp)
        except OverflowError:
            psi = tr = math.inf
        if not (math.isfinite(psi) and math.isfinite(tr)):
            raise OverflowError(f"psi or traction overflows at r = {r} nm")
        rows.append((r, psi, tr))
    _write_csv(path, ("step", "r_nm", "psi", "traction"), rows)


__all__ = [
    "ADMISSIBLE_DECLINATIONS", "BeamParams", "ContactParams", "CurvePoint",
    "CSV_HEADER", "DEFAULT_BEND_STIFFNESS", "DeformationProtocol",
    "MODEL_NAMES", "PROTOCOL_KINDS", "STRETCH_RANGE", "apex_angle",
    "beam_force", "benchmark_models", "compare_models", "contact_potential",
    "invariant_approximation_errors", "peak_of_curve", "run_curve",
    "traction_extremum", "verify_derivatives", "VERIFY_TOLERANCES",
    "write_contact_csv", "write_curve_csv", "ZIGZAG_OFFSET",
]
