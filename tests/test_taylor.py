"""The stress as the derivative of the energy, and the tangent as the
derivative of the stress: Taylor tests through the public energy, stress
and tangent calls of both membrane models and of the bending model.

S is 2 dW/dC and G, the tangent's (11, 22, 12) pair matrix, is 2 dS/dC.
So for a state C, a unit direction D, D^ = (D11, D22, 2 D12) and a step h
the remainders

    W -> S:  r(h) = |W(C + h D) - W(C) - (1/2) h S . D^|,
    S -> G:  r(h) = |S(C + h D) - S(C) - (1/2) h G D^|,

are O(h^2) when the derivative is right and O(h) when it is off by any
fixed amount. The observed order log2(r(h) / r(h/2)) at h = STEP is gated
per state at MIN_ORDER. W -> S reads 1.9992 to 2.0024 and S -> G 1.9999
to 2.0002. With S scaled by 1.01 the worst state of each band reads 0.91
or less in W -> S, for both models; with the metric tangent's g_pz
coefficient scaled by 1.01 the worst verify state reads 1.56 in S -> G.

STEP sits above the rounding floor. In S -> G, r(STEP / 2) is
(STEP / 2)^2 times a second derivative of S of the order of the moduli, at
least 1.7e-7 N/m on these states, while |S| is below 130 N/m and rounded
to a few eps |S|, about 1e-13 N/m; rounding moves the order by less than
1e-5. In W -> S, r(STEP / 2) is at least 2e-9 nN/nm, while |W| is below
15 nN/nm and rounded to a few eps |W|, about 1e-14 nN/nm; rounding moves
the order by about 1e-5. STEP is also small enough that the O(h^3) term
moves either order by less than 3e-3.

States: SAMPLES seeded states of verify's distribution per model
(eigenvalues of C in [0.7, 1.6], random eigenvector and lattice angles),
and SAMPLES near-isotropic states per band, eigenvalues mean (1 +- u) with
u below 1e-3 (the log kernel's series branch) and below 1e-8. GGA and LDA
alternate. Both derivatives see the same states and directions.

Bending takes a_cur and b_cur together, a direction (Da, Db) in R^6, and
tau = 2 dW/da, M0 = dW/db, c = 2 dtau/da, d = dtau/db, e = 2 dM0/da and
f = dM0/db, so the remainders are

    W -> (tau, M0):  r(h) = |W(a + h Da, b + h Db) - W
                           - h ((1/2) tau . Da^ + M0 . Db^)|,
    (tau, M0) -> (c, d, e, f):
                     r(h) = |(tau, M0)(a + h Da, b + h Db) - (tau, M0)
                           - h ((1/2) c Da^ + d Db^, (1/2) e Da^ + f Db^)|,

evaluated through geometry_from_metrics, canham_energy,
bending_stress_moment and bending_tangents at DEFAULT_BEND_STIFFNESS, on
SAMPLES states of verify's bending draw (_bending_state, seed 31) with
one unit Gaussian direction each. Every state reads 1.9998 to 2.0001 in
both. With c, d, e or f scaled by 1.01 the worst state of the tangent
check reads 0.91 to 0.99; with tau or M0 scaled by 1.01 the worst state
of the energy check reads 0.58 or 0.78. STEP sits above the rounding
floor here too: r(STEP / 2) is at least 1.2e-11 (energy) and 3.7e-11
(tangent), while |W| is below 0.08 and |(tau, M0)| below 0.14, each
rounded to a few eps of itself, about 1e-16, so rounding moves either
order by about 1e-5 at most; the O(h^3) term moves it by less than 2e-4.
"""

import math

import numpy as np
import pytest

from gmem import bending_geometry as bg
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.lattice import make_frame
from gmem.surface_tensors import _PAIR_TAKE, SurfTensor2

STEP = 1e-4
MIN_ORDER = 1.8
SAMPLES = 40
PARAMS = (mm.GGA, mm.LDA)
BANDS = ["verify", "u<1e-3", "u<1e-8"]


def verify_states(rng):
    for _ in range(SAMPLES):
        s = sc._membrane_state(rng)
        yield (s["c11"], s["c22"], s["c12"]), s["theta_lattice"]


def near_isotropic_states(rng, u_max):
    for _ in range(SAMPLES):
        mean, u = rng.uniform(0.7, 1.6), rng.uniform(0.0, u_max)
        phi = rng.uniform(0.0, math.pi)
        triple = sc._principal_triple(mean * (1.0 + u), mean * (1.0 - u),
                                      math.cos(phi), math.sin(phi))
        yield triple, rng.uniform(0.0, 2.0 * math.pi)


def observed_order(f, x0, d, slope):
    """log2(r(STEP) / r(STEP / 2)) of r(h) = |f(x0 + h d) - f(x0) - h slope|,
    f taking the components as a list of floats."""
    x0 = np.array(x0)
    f0 = f(x0.tolist())

    def r(h):
        return np.linalg.norm(f((x0 + h * d).tolist()) - f0 - h * slope)

    return math.log2(r(STEP) / r(0.5 * STEP))


def taylor_order(derivative, model, params, triple, theta, d):
    """log2(r(STEP) / r(STEP / 2)) of derivative, "S" (of W) or "G" (of
    S), at the state (triple, theta) along the unit direction d."""
    frame = make_frame(theta)
    stress = getattr(mm, f"stress_{model}")
    c0 = SurfTensor2(*triple)
    d_hat = d * (1.0, 1.0, 2.0)
    if derivative == "S":
        energy = getattr(mm, f"energy_{model}")

        def f(c):
            return energy(c, frame, params)

        slope = 0.5 * np.dot(stress(c0, frame, params).S, d_hat)
    else:
        def f(c):
            return np.array(stress(c, frame, params).S)

        t4 = getattr(mm, f"tangent_{model}")(c0, frame, params).comp
        pair = np.array([[t4[0, 0, 0, 0], t4[0, 0, 1, 1], t4[0, 0, 0, 1]],
                         [t4[1, 1, 0, 0], t4[1, 1, 1, 1], t4[1, 1, 0, 1]],
                         [t4[0, 1, 0, 0], t4[0, 1, 1, 1], t4[0, 1, 0, 1]]])
        slope = 0.5 * pair @ d_hat
    return observed_order(lambda x: f(SurfTensor2(*x)), triple, d, slope)


def assert_taylor_order(derivative, model, band):
    """Every state of the band reads an order of at least MIN_ORDER."""
    rng = np.random.default_rng(31)
    states = (verify_states(rng) if band == "verify" else
              near_isotropic_states(rng, float(band.partition("<")[2])))
    worst, where = math.inf, None
    for i, (triple, theta) in enumerate(states):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        order = taylor_order(derivative, model, PARAMS[i % 2], triple,
                             theta, d)
        if order < worst:
            worst, where = order, (triple, theta, d.tolist())
    assert worst >= MIN_ORDER, (
        f"{model} {band} {derivative}: Taylor order {worst:.3f} at "
        f"(C, theta, D) = {where}")


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("model", sc.MODEL_NAMES)
def test_stress_is_the_derivative_of_the_energy(model, band):
    assert_taylor_order("S", model, band)


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("model", sc.MODEL_NAMES)
def test_tangent_is_the_derivative_of_the_stress(model, band):
    assert_taylor_order("G", model, band)


def bending_order(derivative, state, d):
    """log2(r(STEP) / r(STEP / 2)) of derivative, "stress" ((tau, M0) of
    W) or "tangent" ((c, d, e, f) of (tau, M0)), at the bending state
    record along the unit direction d = (Da, Db) in R^6."""
    c_bend = sc.DEFAULT_BEND_STIFFNESS
    a_ref = SurfTensor2(*state["a_ref"])

    def geometry(x):
        return bg.geometry_from_metrics(a_ref, SurfTensor2(*x[:3]),
                                        SurfTensor2(*x[3:]))

    x0 = state["a_cur"] + state["b_cur"]
    g0 = geometry(x0)
    da_hat, db_hat = d[:3] * (1.0, 1.0, 2.0), d[3:] * (1.0, 1.0, 2.0)
    if derivative == "stress":
        def f(x):
            return bg.canham_energy(geometry(x), c_bend)

        tau, m0 = bg.bending_stress_moment(g0, c_bend)
        slope = 0.5 * np.dot(tau, da_hat) + np.dot(m0, db_hat)
    else:
        def f(x):
            tau, m0 = bg.bending_stress_moment(geometry(x), c_bend)
            return np.array(tau + m0)

        c, dd, e, ff = (np.asarray(t).take(_PAIR_TAKE)
                        for t in bg.bending_tangents(g0, c_bend))
        slope = np.concatenate([0.5 * c @ da_hat + dd @ db_hat,
                                0.5 * e @ da_hat + ff @ db_hat])
    return observed_order(f, x0, d, slope)


@pytest.mark.parametrize("derivative", ["stress", "tangent"])
def test_bending_derivatives_by_taylor_order(derivative):
    """Every bending state reads an order of at least MIN_ORDER."""
    rng = np.random.default_rng(31)
    worst, where = math.inf, None
    for _ in range(SAMPLES):
        state = sc._bending_state(rng)
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        order = bending_order(derivative, state, d)
        if order < worst:
            worst, where = order, (state, d.tolist())
    assert worst >= MIN_ORDER, (
        f"bending {derivative}: Taylor order {worst:.3f} at "
        f"(state, D) = {where}")
