"""Deformation invariants of the membrane kernel.

Three sets: the area-split invariants of the right surface Cauchy-Green
tensor C, the exact logarithmic-strain invariants, and the two-constant
polynomial approximations f1, f2 that replace the exact ones in the fast
membrane model. The surrogates and their J2-derivatives are written once,
in _surrogates, which approx_log_invariants and the metric kernel both
call. A nine-scalar extension couples C with a curvature tensor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lattice import LatticeFrame, structural_contraction
from . import surface_tensors as _st
from .surface_tensors import SurfTensor2, _new, spectral


class InvariantState(NamedTuple):
    """Area stretch J1, shear invariant J2, anisotropy invariant J3, and the
    two structural contractions of the area-invariant tensor they derive
    from."""

    J1: float
    J2: float
    J3: float
    mC: float
    nC: float


class LogInvariantState(NamedTuple):
    J1E: float
    J2E: float
    J3E: float


# Constants of the polynomial shear/anisotropy surrogates f1, f2 of
# _surrogates. E1 = 1/4 and G1 = 1/8 are the exact small-strain
# coefficients of J2E = asinh(sqrt J2)^2 / 4 and J3E = J3 g with
# g = (asinh(sqrt J2) / sqrt J2)^3 / 8, as power series in J2. Their exact
# next coefficients are -1/12 and -1/16; E2 and G2 shrink those to a
# relative least-squares fit over principal stretch ratios lambda1/lambda2
# in [1, FITTED_STRETCH_RATIO]. Outside that range the surrogates, and the
# metric model built on them, are extrapolations.
E1, E2, G1, G2 = 0.25, 0.0811, 0.125, 0.06057

# Largest principal stretch ratio lambda1/lambda2 of the fit above.
FITTED_STRETCH_RATIO = 1.3


class CurvatureInvariants(NamedTuple):
    """Joint invariants of C and a symmetric curvature tensor kappa.

    J1..J3 are the membrane invariants; J4, J5 are mean and Gaussian
    curvature; J6 is the pure curvature anisotropy invariant; J7..J9 couple
    stretch and curvature.
    """

    J1: float
    J2: float
    J3: float
    J4: float
    J5: float
    J6: float
    J7: float
    J8: float
    J9: float


def _c_scalars(c11, c22, c12, m11, m12, n11, n12):
    """The one evaluation of the C invariants on plain floats, shared by
    invariants_C and the metric kernel: (det C, J1 = sqrt(det C), the
    traceless part (p11, p12) of C/J1, J2, M:Cb, N:Cb, J3).

    p11 is formed as (c11 - c22) / (2 J1), which keeps its relative
    precision near isotropy, where c11/J1 - tr(C/J1)/2 would cancel."""
    det = c11 * c22 - c12 * c12
    if not (0.0 < det < math.inf and c11 > 0.0):
        raise _st._not_positive_definite(det, c11 + c22)
    J = math.sqrt(det)
    p11 = 0.5 * (c11 - c22) / J
    p12 = c12 / J
    dm = 2.0 * p11
    mC = m11 * dm + 2.0 * m12 * p12
    nC = n11 * dm + 2.0 * n12 * p12
    J3 = 0.125 * mC * (mC * mC - 3.0 * nC * nC)
    return det, J, p11, p12, p11 * p11 + p12 * p12, mC, nC, J3


def _log_scalars(c11, c22, c12, L1, L2, th, m11, m12, n11, n12):
    """The one checked evaluation of the log-strain invariants of C, from
    its components, its eigenvalues L1 >= L2 and the angle th of the L1
    axis, shared by invariants_log_exact and the log kernel: (det C, J1E,
    ed, cos th, sin th, ed11, ed12, M:E, N:E, J2E, J3E), with E the
    deviator of (1/2) ln C. C is rejected unless 0 < det C < inf,
    c11 > 0 and L2 > 0."""
    det = c11 * c22 - c12 * c12
    if not (0.0 < det < math.inf and c11 > 0.0 and L2 > 0.0):
        raise _st._not_positive_definite(det, c11 + c22)
    l1 = 0.5 * math.log(L1)
    l2 = 0.5 * math.log(L2)
    J1E = l1 + l2
    ed = 0.5 * (l1 - l2)
    ct, st = math.cos(th), math.sin(th)
    c2t = ct * ct - st * st
    s2t = 2.0 * ct * st
    ed11 = ed * c2t
    ed12 = ed * s2t
    mE = 2.0 * (m11 * ed11 + m12 * ed12)
    nE = 2.0 * (n11 * ed11 + n12 * ed12)
    J2E = 0.25 * (mE * mE + nE * nE)
    J3E = 0.125 * mE * (mE * mE - 3.0 * nE * nE)
    return det, J1E, ed, ct, st, ed11, ed12, mE, nE, J2E, J3E


def invariants_C(c: SurfTensor2, frame: LatticeFrame) -> InvariantState:
    """Invariants of C: J1 = sqrt(det C), J2 = (1/2) Cp:Cp with Cp the
    traceless part of C/J1, and J3 = ((M:Cb)^3 - 3 (M:Cb)(N:Cb)^2) / 8."""
    c11, c22, c12 = c
    m, n = frame.m_hat, frame.n_hat
    _det, J, _p11, _p12, J2, mC, nC, J3 = _c_scalars(
        c11, c22, c12, m.c11, m.c12, n.c11, n.c12)
    return _new(InvariantState, (J, J2, J3, mC, nC))


def invariants_log_exact(c: SurfTensor2, frame: LatticeFrame) -> LogInvariantState:
    """Invariants of the logarithmic strain (1/2) ln C.

    J1E = ln(l1 l2), J2E = (ln sqrt(l1/l2))^2, and
    J3E = (ln sqrt(l1/l2))^3 cos 6 dtheta.
    """
    c11, c22, c12 = c
    sd = spectral(c)
    m, n = frame.m_hat, frame.n_hat
    _det, J1E, _ed, _ct, _sn, _e11, _e12, _mE, _nE, J2E, J3E = _log_scalars(
        c11, c22, c12, sd.Lambda1, sd.Lambda2, sd.theta,
        m.c11, m.c12, n.c11, n.c12)
    return _new(LogInvariantState, (J1E, J2E, J3E))


def _surrogates(J2):
    """The one evaluation of the surrogates as functions of J2, shared by
    approx_log_invariants and the metric kernel: (f1, f1', f1'', g, g'),
    with f1 = E1 J2 - E2 J2^2, f2 = J3 g, g = G1 - G2 J2 and ' = d/dJ2."""
    return (E1 * J2 - E2 * J2 * J2, E1 - 2.0 * E2 * J2, -2.0 * E2,
            G1 - G2 * J2, -G2)


def approx_log_invariants(inv: InvariantState) -> tuple:
    """Polynomial surrogates f1 = e1 J2 - e2 J2^2 and f2 = J3 (g1 - g2 J2)
    for the exact log invariants J2E, J3E, from _surrogates, the head the
    metric kernel reads."""
    f1, _f1p, _f1pp, g, _gp = _surrogates(inv.J2)
    return f1, inv.J3 * g


def invariants_C_kappa(c: SurfTensor2, kappa: SurfTensor2,
                       frame: LatticeFrame) -> CurvatureInvariants:
    """Nine joint invariants of (C, kappa) under the lattice symmetry.

    Mixed anisotropy invariants are evaluated through the structural triple
    contraction, never through eigenvector angles.
    """
    base = invariants_C(c, frame)
    J = base.J1
    cb = c.scaled(1.0 / J)
    J4 = 0.5 * kappa.trace()
    J5 = kappa.det()
    J6 = 0.125 * structural_contraction(frame, kappa, kappa, kappa)
    J7 = 0.5 * cb.ddot(kappa)
    J8 = 0.125 * structural_contraction(frame, cb, cb, kappa)
    J9 = 0.125 * structural_contraction(frame, kappa, kappa, cb)
    return _new(CurvatureInvariants, (base.J1, base.J2, base.J3,
                                      J4, J5, J6, J7, J8, J9))
