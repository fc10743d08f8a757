"""The tangent as the derivative of the stress: a Taylor test through the
public stress and tangent calls of both membrane models.

G is the tangent's (11, 22, 12) pair matrix and 2 dS/dC, so for a state C,
a unit direction D and a step h the remainder

    r(h) = |S(C + h D) - S(C) - (1/2) h G D^|,  D^ = (D11, D22, 2 D12),

is O(h^2) when G is right and O(h) when it is off by any fixed amount.
The observed order log2(r(h) / r(h/2)) at h = STEP is gated per state at
MIN_ORDER. The states read 1.9999 to 2.0002; with the metric tangent's
g_pz coefficient scaled by 1.01 the worst verify state reads 1.56.

STEP sits above the rounding floor. r(STEP / 2) is (STEP / 2)^2 times a
second derivative of S of the order of the moduli, at least 1.7e-7 N/m on
these states, while |S| is below 130 N/m and rounded to a few eps |S|,
about 1e-13 N/m; rounding moves the order by less than 1e-5. STEP is also
small enough that the O(h^3) term moves it by less than 1e-3.

States: SAMPLES seeded states of verify's distribution per model
(eigenvalues of C in [0.7, 1.6], random eigenvector and lattice angles),
and SAMPLES near-isotropic states per band, eigenvalues mean (1 +- u) with
u below 1e-3 (the log kernel's series branch) and below 1e-8. GGA and LDA
alternate.
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


def taylor_order(model, params, triple, theta, d):
    """log2(r(STEP) / r(STEP / 2)) at the state (triple, theta) along the
    unit direction d."""
    frame = make_frame(theta)
    stress = getattr(mm, f"stress_{model}")
    t4 = getattr(mm, f"tangent_{model}")(SurfTensor2(*triple), frame,
                                         params).comp
    pair = np.array([[t4[0, 0, 0, 0], t4[0, 0, 1, 1], t4[0, 0, 0, 1]],
                     [t4[1, 1, 0, 0], t4[1, 1, 1, 1], t4[1, 1, 0, 1]],
                     [t4[0, 1, 0, 0], t4[0, 1, 1, 1], t4[0, 1, 0, 1]]])
    s0 = np.array(stress(SurfTensor2(*triple), frame, params).S)
    ds = 0.5 * pair @ (d * (1.0, 1.0, 2.0))

    def r(h):
        c = SurfTensor2(*(np.array(triple) + h * d).tolist())
        return np.linalg.norm(np.array(stress(c, frame, params).S) - s0
                              - h * ds)

    return math.log2(r(STEP) / r(0.5 * STEP))


@pytest.mark.parametrize("band", ["verify", "u<1e-3", "u<1e-8"])
@pytest.mark.parametrize("model", sc.MODEL_NAMES)
def test_tangent_is_the_derivative_of_the_stress(model, band):
    rng = np.random.default_rng(31)
    states = (verify_states(rng) if band == "verify" else
              near_isotropic_states(rng, float(band.partition("<")[2])))
    worst, where = math.inf, None
    for i, (triple, theta) in enumerate(states):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        order = taylor_order(model, PARAMS[i % 2], triple, theta, d)
        if order < worst:
            worst, where = order, (triple, theta, d.tolist())
    assert worst >= MIN_ORDER, (
        f"{model} {band}: Taylor order {worst:.3f} at (C, theta, D) = {where}")
