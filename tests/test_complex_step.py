"""Complex-step derivatives through the unchanged membrane kernels.

The math global of membrane_material, invariants and surface_tensors is
swapped (with monkeypatch) for a namespace of complex functions, and the
kernels are fed an ordered complex type. With h = 1e-30, df/dx is
Im f(x + ih) / h: there is no subtraction, so no step-size trade-off
(Squire & Trapp, SIAM Rev. 40, 110, 1998; Martins, Sturdza & Alonso, ACM
TOMS 29, 245, 2003). The analytic stress S is checked against the complex
step of the energy, and the analytic pair matrix G against that of the
stress, from three evaluations per state at order 1.

States: SAMPLES seeded states per band of u = disc/mean (the eigenvalues
of C are mean (1 +- u)), GGA and LDA alternating, random lattice angles
and eigenvector angles, principal stretches in [0.8, 1.3]. S errors are
normwise per state, over max(|S|, mu0 - mu1): near C = I, S is small. G
errors are normwise per state, over |G|. Every gate is 1e-13 except log G
below u = 1e-2. There the log kernel's ed = (ln L1 - ln L2) / 4 cancels
(ROADMAP item 5): its few-eps absolute error is a relative error of order
eps / u, which the tangent carries. Those bands are gated at
8 eps / u at the band's lower end; ten seeds per band read 0.35 to 2.66
eps / u there.
"""

import cmath
import math
import types

import numpy as np
import pytest

from gmem import invariants as iv
from gmem import membrane_material as mm
from gmem import surface_tensors as st
from gmem.lattice import make_frame

H = 1e-30
SAMPLES = 200
BANDS = ((1e-9, 1e-8), (1e-6, 1e-5), (1e-4, 1e-3), (1e-2, 1e-1), (0.1, 0.32))
# (S gate, G gate) per model and band
GATES = {"metric": [(1e-13, 1e-13)] * 5,
         "log": [(1e-13, 1e-13 if lo >= 1e-2 else 8.0 * 2.0 ** -52 / lo)
                 for lo, _hi in BANDS]}
CORES = {"metric": mm._metric_core, "log": mm._log_core}


class Ordered(complex):
    """A complex number whose arithmetic keeps its type and whose
    comparisons and abs read the real part, so every branch of a kernel
    takes the real state's path."""

    def __lt__(self, other):
        return self.real < other.real

    def __le__(self, other):
        return self.real <= other.real

    def __gt__(self, other):
        return self.real > other.real

    def __ge__(self, other):
        return self.real >= other.real

    def __abs__(self):
        return self if self.real >= 0.0 else -self

    def __neg__(self):
        return Ordered(complex.__neg__(self))

    def __pos__(self):
        return self


def _keep_type(name):
    op = getattr(complex, name)

    def method(self, other):
        out = op(self, other)
        return out if out is NotImplemented else Ordered(out)
    return method


for _name in ("add", "sub", "mul", "truediv", "pow"):
    for _form in (f"__{_name}__", f"__r{_name}__"):
        setattr(Ordered, _form, _keep_type(_form))


def _lifted(fn):
    return lambda *z: Ordered(fn(*z))


def _atan2(y, x):
    """atan2 of the real parts, plus its first-order change along the
    imaginary parts."""
    yr, xr = y.real, x.real
    return Ordered(math.atan2(yr, xr),
                   (xr * y.imag - yr * x.imag) / (xr * xr + yr * yr))


COMPLEX_MATH = types.SimpleNamespace(
    log=_lifted(cmath.log), exp=_lifted(cmath.exp), sqrt=_lifted(cmath.sqrt),
    cos=_lifted(cmath.cos), sin=_lifted(cmath.sin),
    atanh=_lifted(cmath.atanh),
    hypot=lambda a, b: Ordered(cmath.sqrt(a * a + b * b)),
    atan2=_atan2, inf=math.inf)


def complex_step(core, c, frame, p):
    """(S, G) of core at the triple c by complex step: S = 2 dW/dC and
    G = 2 dS/dC, single-entry partials with the 12 column halved, as
    numdiff.partials_sym takes them."""
    S = np.empty(3)
    G = np.empty((3, 3))
    for k, scale in enumerate((2.0 / H, 2.0 / H, 1.0 / H)):
        z = [Ordered(x) for x in c]
        z[k] = Ordered(c[k], H)
        W, s, _g, _J = core(tuple(z), frame, p, 1)
        S[k] = scale * W.imag
        G[:, k] = [scale * x.imag for x in s]
    return S, G


def band_states(lo, hi, seed):
    """SAMPLES (c triple, frame, params) with u log-uniform in [lo, hi]."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(SAMPLES):
        u = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        mean = rng.uniform(0.64 / (1.0 - u), 1.69 / (1.0 + u))
        phi = rng.uniform(0.0, math.pi)
        disc = u * mean
        c = (mean + disc * math.cos(2.0 * phi),
             mean - disc * math.cos(2.0 * phi), disc * math.sin(2.0 * phi))
        p = (mm.GGA, mm.LDA)[i % 2]
        out.append((c, make_frame(rng.uniform(0.0, 2.0 * math.pi)), p))
    return out


def norm_err(x, ref, floor=0.0):
    return float(np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), floor))


def test_ordered_complex_keeps_its_type_and_reads_real_parts():
    z = Ordered(2.0, 1e-30)
    for v in (z + 1.0, 1.0 - z, 3.0 * z, 1.0 / z, z ** 1.5, 2.0 ** z, -z,
              abs(-z), COMPLEX_MATH.atan2(z, 1.0), COMPLEX_MATH.hypot(z, z)):
        assert type(v) is Ordered
    assert 0.0 < z < math.inf and z > 1.0 and not z < 2.0
    assert abs(-z) == z
    # d/dy atan2(y, x) = x / (x^2 + y^2)
    assert COMPLEX_MATH.atan2(z, 1.0).imag == pytest.approx(0.2e-30,
                                                            rel=1e-15)


@pytest.mark.parametrize("band", range(len(BANDS)),
                         ids=[f"u{lo:g}-{hi:g}" for lo, hi in BANDS])
@pytest.mark.parametrize("model", list(CORES))
def test_complex_step_matches_analytic_stress_and_tangent(monkeypatch,
                                                          model, band):
    core = CORES[model]
    states = band_states(*BANDS[band], seed=band)
    analytic = [core(c, frame, p, 2) for c, frame, p in states]
    for module in (mm, iv, st):
        monkeypatch.setattr(module, "math", COMPLEX_MATH)
    s_err = g_err = 0.0
    for (c, frame, p), (_W, s, g, _J) in zip(states, analytic):
        S, G = complex_step(core, c, frame, p)
        s_err = max(s_err, norm_err(S, np.array(s), p.mu0 - p.mu1))
        g_err = max(g_err, norm_err(G, np.array(g)))
    s_gate, g_gate = GATES[model][band]
    assert s_err <= s_gate and g_err <= g_gate, (s_err, g_err)
