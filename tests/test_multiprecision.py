"""A 40-digit reference for the membrane kernels, the public stress calls
and the bending model.

`_metric_core` and `_log_core` run at order 2 twice on the same double C
and lattice frame: once as shipped, and once on mpmath numbers at 40
significant digits, with the math global of membrane_material, invariants
and surface_tensors swapped (with monkeypatch) for a namespace of mpmath
functions. The second run is the same formula with every operation on C
rounded at 40 digits, so the difference of the two is the shipped
kernel's own rounding error.

States: SAMPLES seeded states per band of u = disc/mean (the eigenvalues
of C are mean (1 +- u)), each evaluated with GGA and with LDA, random
lattice and eigenvector angles, principal stretches in [0.8, 1.3]. Errors
are the largest over the band's states and components: W over the band's
largest |W_ref|, S over max(max |S_ref|, mu0 - mu1) (near C = I, S is
small), G over max |G_ref|. Readings on these states: W 1.8e-15,
S 6.6e-16, metric G 5.5e-16 and log G 6.5e-16 at most, except log G
2.5e-12 on u in [1e-6, 1e-5] and 1.3e-14 on [1e-4, 1e-3]. There the log
kernel's ed = (ln L1 - ln L2) / 4 cancels (ROADMAP item 24): its few-eps
absolute error is a relative error of order eps / u, which the tangent
carries. Every gate is 1e-14 for W and G and 2e-15 for S, except log G on
those two bands, 1e-10 and 1e-12.

The public stress calls, stress_metric and stress_log, run the same way on
the same states, so sqrt_spd and the push-forwards tau = U S U and
sigma = tau / J are checked too. S, tau and sigma are measured like S above
and W like W: readings S 6.6e-16, tau 7.5e-16, sigma 7.7e-16 and
W 1.8e-15 at most; gates 2e-15 and 1e-14.

The bending model runs on the first BENDING_SAMPLES records that verify
draws (scenarios._bending_state on default_rng(0)), with the math global
of bending_geometry swapped for mpmath's sqrt and inf, and the same way on
near-umbilic states, b = k a plus a perturbation of relative size 0 to
1e-4, where H^2 - kappa cancels. A sphere's principal curvatures, through
evaluate_geometry, are checked against 1/R.
"""

import math
import types

import numpy as np
import pytest

from gmem import bending_geometry as bg
from gmem import invariants as iv
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem import surface_tensors as st
from gmem.lattice import make_frame

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
SAMPLES = 40
BANDS = ((1e-9, 1e-8), (1e-6, 1e-5), (1e-4, 1e-3), (1e-2, 1e-1), (0.1, 0.32))
# (W, S, G) gates per model and band
GATES = {"metric": [(1e-14, 2e-15, 1e-14)] * 5,
         "log": [(1e-14, 2e-15, g) for g in (1e-14, 1e-10, 1e-12, 1e-14,
                                             1e-14)]}
CORES = {"metric": mm._metric_core, "log": mm._log_core}
MP_MATH = types.SimpleNamespace(
    sqrt=mpmath.sqrt, log=mpmath.log, exp=mpmath.exp, inf=mpmath.inf,
    hypot=mpmath.hypot, atan2=mpmath.atan2, cos=mpmath.cos, sin=mpmath.sin,
    atanh=mpmath.atanh)


def band_states(lo, hi, seed):
    """SAMPLES (c triple, frame) with u log-uniform in [lo, hi]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(SAMPLES):
        u = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        mean = rng.uniform(0.64 / (1.0 - u), 1.69 / (1.0 + u))
        phi = rng.uniform(0.0, math.pi)
        disc = u * mean
        c = (mean + disc * math.cos(2.0 * phi),
             mean - disc * math.cos(2.0 * phi), disc * math.sin(2.0 * phi))
        out.append((c, make_frame(rng.uniform(0.0, 2.0 * math.pi))))
    return out


def flat(W, s, g):
    """W, S and G of one core result as float arrays."""
    return (np.array([float(W)]), np.array([float(x) for x in s]),
            np.array([float(x) for row in g for x in row]))


@pytest.mark.parametrize("band", range(len(BANDS)),
                         ids=[f"u{lo:g}-{hi:g}" for lo, hi in BANDS])
@pytest.mark.parametrize("model", list(CORES))
def test_kernels_match_a_40_digit_reference(monkeypatch, model, band):
    core = CORES[model]
    states = band_states(*BANDS[band], seed=band)
    for p in (mm.GGA, mm.LDA):
        shipped = [flat(*core(c, frame, p, 2)[:3]) for c, frame in states]
        with monkeypatch.context() as patch, mpmath.workdps(DIGITS):
            for module in (mm, iv, st):
                patch.setattr(module, "math", MP_MATH)
            exact = [core(tuple(map(mpmath.mpf, c)), frame, p, 2)[:3]
                     for c, frame in states]
        assert all(type(W) is mpmath.mpf for W, _s, _g in exact)
        ref = [flat(*r) for r in exact]
        # largest error and largest reference magnitude of W, S and G
        err = np.max([[np.max(np.abs(x - r)) for x, r in zip(got, want)]
                      for got, want in zip(shipped, ref)], axis=0)
        size = np.max([[np.max(np.abs(r)) for r in want] for want in ref],
                      axis=0)
        size[1] = max(size[1], p.mu0 - p.mu1)
        rel = err / size
        assert np.all(rel <= GATES[model][band]), (p.name, rel.tolist())


def stress_arrays(r):
    """W, S, tau and sigma of one StressResult as float arrays."""
    return [np.array([float(r.W)])] + [np.array([float(x) for x in t])
                                       for t in (r.S, r.tau, r.sigma)]


@pytest.mark.parametrize("band", range(len(BANDS)),
                         ids=[f"u{lo:g}-{hi:g}" for lo, hi in BANDS])
@pytest.mark.parametrize("model", list(CORES))
def test_stress_calls_match_a_40_digit_reference(monkeypatch, model, band):
    """The public stress call, packaging (sqrt_spd, tau = U S U and
    sigma = tau / J) included, against the same call on mpmath numbers."""
    call = getattr(mm, f"stress_{model}")
    states = band_states(*BANDS[band], seed=band)
    for p in (mm.GGA, mm.LDA):
        shipped = [stress_arrays(call(st.SurfTensor2(*c), frame, p))
                   for c, frame in states]
        with monkeypatch.context() as patch, mpmath.workdps(DIGITS):
            for module in (mm, iv, st):
                patch.setattr(module, "math", MP_MATH)
            exact = [call(st.SurfTensor2(*map(mpmath.mpf, c)), frame, p)
                     for c, frame in states]
        assert all(type(r.sigma.c12) is mpmath.mpf for r in exact)
        ref = [stress_arrays(r) for r in exact]
        err = np.max([[np.max(np.abs(x - r)) for x, r in zip(got, want)]
                      for got, want in zip(shipped, ref)], axis=0)
        size = np.max([[np.max(np.abs(r)) for r in want] for want in ref],
                      axis=0)
        size[1:] = np.maximum(size[1:], p.mu0 - p.mu1)
        rel = err / size
        assert np.all(rel <= (1e-14, 2e-15, 2e-15, 2e-15)), (p.name,
                                                            rel.tolist())


BENDING_SAMPLES = 200
UMBILIC_SAMPLES = 100
SPHERE_POINTS = 2000


def bending_groups(A, a, b):
    """W, (tau, M0), (c, d, e, f), (J, H, kappa) and (k1, k2) of the
    bending model at the metrics A, a and curvature b, as float arrays."""
    g = bg.geometry_from_metrics(A, a, b)
    c_bend = sc.DEFAULT_BEND_STIFFNESS
    tau, m0 = bg.bending_stress_moment(g, c_bend)
    tg = bg.bending_tangents(g, c_bend)
    return [np.array([float(bg.canham_energy(g, c_bend))]),
            np.array([float(x) for x in tau + m0]),
            np.array([float(x) for t in tg for x in t.ravel()]),
            np.array([float(x) for x in (g.J, g.H, g.kappa_gauss)]),
            np.array([float(g.k1), float(g.k2)])]


def bending_errors(monkeypatch, triples):
    """Per (A, a, b) triple of metric and curvature triples, the error of
    each bending_groups group against the same calls on mpmath numbers,
    normwise over the group's largest reference magnitude."""
    def metrics(triple, num):
        return [st.SurfTensor2(*map(num, t)) for t in triple]

    shipped = [bending_groups(*metrics(t, float)) for t in triples]
    with monkeypatch.context() as patch, mpmath.workdps(DIGITS):
        patch.setattr(bg, "math", types.SimpleNamespace(sqrt=mpmath.sqrt,
                                                        inf=mpmath.inf))
        g = bg.geometry_from_metrics(*metrics(triples[0], mpmath.mpf))
        assert type(g.k2) is type(g.J) is mpmath.mpf
        ref = [bending_groups(*metrics(t, mpmath.mpf)) for t in triples]
    return np.array([[np.max(np.abs(x - r)) / np.max(np.abs(r))
                      for x, r in zip(got, want)]
                     for got, want in zip(shipped, ref)])


def verify_triples(n):
    """(a_ref, a_cur, b_cur) of the first n bending state records that
    verify draws (scenarios._bending_state on default_rng(0))."""
    rng = np.random.default_rng(0)
    return [tuple(s[k] for k in ("a_ref", "a_cur", "b_cur"))
            for s in (sc._bending_state(rng) for _ in range(n))]


def test_bending_model_matches_a_40_digit_reference(monkeypatch):
    """geometry_from_metrics, canham_energy, bending_stress_moment and
    bending_tangents on the verify draws of the bending model, against the
    same calls on mpmath numbers; per state and group, normwise. Readings:
    W 7.1e-16, (tau, M0) 8.1e-16, (c, d, e, f) 8.2e-16, (J, H, kappa)
    2.2e-16 and (k1, k2) 3.2e-16 at most, all gated at 4e-15."""
    rel = bending_errors(monkeypatch, verify_triples(BENDING_SAMPLES))
    assert np.all(rel <= 4e-15), rel.max(axis=0).tolist()


@pytest.mark.parametrize("perturbation", [0.0, 1e-12, 1e-8, 1e-4])
def test_principal_curvatures_keep_their_digits_near_an_umbilic(
        monkeypatch, perturbation):
    """On verify's metrics, b = k a + perturbation |k| p, with k and the
    direction p = b_cur from the same record (k = b_cur's c12): a^-1 b is
    k I plus a trace-free part of relative size perturbation (rounding
    alone at 0). W and (k1, k2) read at most 1.3e-15 and 4.1e-16 against
    the 40-digit value, gated at 4e-15; k1 and k2 from
    sqrt(H^2 - kappa), which cancels there, read 2e-8 to 3e-11."""
    triples = []
    for a_ref, a_cur, p in verify_triples(UMBILIC_SAMPLES):
        k = p[2]
        triples.append((a_ref, a_cur, tuple(
            k * x + perturbation * abs(k) * y for x, y in zip(a_cur, p))))
    rel = bending_errors(monkeypatch, triples)[:, [0, 4]]
    assert np.all(rel <= 4e-15), rel.max(axis=0).tolist()


def test_sphere_principal_curvatures_are_one_over_the_radius():
    """evaluate_geometry on SPHERE_POINTS seeded sphere points, radius in
    [0.5, 3] and polar angle in [0.3, 2.8]: k1 and k2 read at most 6.7e-16
    off 1/R, relative, gated at 4e-15 (2.4e-8 from sqrt(H^2 - kappa))."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(SPHERE_POINTS):
        r = rng.uniform(0.5, 3.0)
        xi = (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 2.8))
        g = bg.evaluate_geometry(bg.sphere_surface(r), xi)
        worst = max(worst, abs(g.k1 * r - 1.0), abs(g.k2 * r - 1.0))
    assert worst <= 4e-15, worst
