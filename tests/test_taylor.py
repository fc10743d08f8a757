"""The stress as the derivative of the energy, and the tangent as the
derivative of the stress: Taylor tests through the public energy, stress
and tangent calls of both membrane models.

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
"""

import math

import numpy as np
import pytest

from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.lattice import make_frame
from gmem.surface_tensors import SurfTensor2

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
        triple = sc._principal_triple(mean * (1.0 + u), mean * (1.0 - u),
                                      rng.uniform(0.0, math.pi))
        yield triple, rng.uniform(0.0, 2.0 * math.pi)


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
    f0 = f(c0)

    def r(h):
        c = SurfTensor2(*(np.array(triple) + h * d).tolist())
        return np.linalg.norm(f(c) - f0 - h * slope)

    return math.log2(r(STEP) / r(0.5 * STEP))


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
