"""Membrane constitutive models for a hexagonal 2D crystal.

Two models share one energy functional: the fast metric model evaluates it
on polynomial invariant surrogates (f1, f2) of C with fully analytic stress
and tangent, and the logarithmic reference model evaluates it on the exact
invariants of (1/2) ln C through the spectral decomposition. The metric
kernel reads the surrogates and their J2-derivatives from
invariants._surrogates and knows nothing else of their form or constants.
Units: lengths nm, forces nN, so surface stresses and energy densities are
N/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import invariants as _inv
from . import surface_tensors as _st
from .lattice import LatticeFrame
from .surface_tensors import (
    SurfTensor2,
    Tangent4,
    _new,
    boxtimes_product,
    oplus_product,
    sqrt_spd,
    tangent_from_pairs,
    tensor_product,
)


@dataclass(frozen=True, slots=True)
class MaterialParams:
    """Calibrated constants of the membrane energy, all moduli in N/m."""

    alpha_hat: float
    epsilon: float
    mu0: float
    mu1: float
    beta_hat: float
    eta0: float
    eta1: float
    name: str = ""


GGA = MaterialParams(1.53, 93.84, 172.18, 27.03, 5.16, 94.65, 4393.26, name="GGA")
LDA = MaterialParams(1.38, 116.43, 164.17, 17.31, 6.22, 86.9, 3611.5, name="LDA")
PARAM_SETS = {"GGA": GGA, "LDA": LDA}


def material_preset(name: str) -> MaterialParams:
    try:
        return PARAM_SETS[name]
    except KeyError:
        raise ValueError(f"unknown parameter set {name!r}; "
                         f"choose from {sorted(PARAM_SETS)}") from None


class StressResult(NamedTuple):
    """2.PK stress S plus its Kirchhoff and Cauchy push-forwards (computed
    with the rotation-free stretch F = sqrt(C)) and the energy density."""

    S: SurfTensor2
    tau: SurfTensor2
    sigma: SurfTensor2
    W: float


def _h_coefficients(J, det, J2, J3, p: MaterialParams, order: int):
    """Energy W, coefficients (H1, H2, H3), and for order >= 2 the tangent's
    eight scalar coefficients (g_inv, g_iso, g_cc, g_pp, g_cp, g_cz, g_pz,
    g_k), formed from the partials dHi/dJj; all analytic, with f1 and
    f2 = J3 g and their J2-derivatives from invariants._surrogates."""
    lnJ = 0.5 * math.log(det)
    Jb = J ** p.beta_hat
    mu = p.mu0 - p.mu1 * Jb
    eta = p.eta0 - p.eta1 * lnJ * lnJ
    f1, f1p, f1pp, g, gp = _inv._surrogates(J2)
    f2 = J3 * g
    ea = math.exp(-p.alpha_hat * lnJ)
    a2 = p.alpha_hat * p.alpha_hat
    W = p.epsilon * (1.0 - (1.0 + p.alpha_hat * lnJ) * ea) + 2.0 * mu * f1 + eta * f2
    if order == 0:
        return W, None, None

    H2 = 2.0 * (2.0 * mu * f1p + gp * eta * J3)
    H3 = eta * g
    mu1b = p.mu1 * p.beta_hat
    H1 = (p.epsilon * a2 * lnJ * ea - 2.0 * mu1b * Jb * f1
          - 2.0 * p.eta1 * lnJ * f2 - H2 * J2 - 3.0 * H3 * J3)
    if order == 1:
        return W, (H1, H2, H3), None

    mu_p = -mu1b * Jb / J
    eta_p = -2.0 * p.eta1 * lnJ / J
    H21 = 2.0 * (2.0 * mu_p * f1p + gp * eta_p * J3)
    H22 = 4.0 * mu * f1pp
    H23 = 2.0 * gp * eta
    H31 = eta_p * g
    H32 = gp * eta
    H11 = (p.epsilon * a2 / J * (1.0 - p.alpha_hat * lnJ) * ea
           - 2.0 * mu1b * p.beta_hat * Jb / J * f1 - 2.0 * p.eta1 / J * f2
           - H21 * J2 - 3.0 * H31 * J3)
    H12 = (-2.0 * mu1b * Jb * f1p - 2.0 * p.eta1 * gp * lnJ * J3
           - H2 - H22 * J2 - 3.0 * H32 * J3)
    H13 = -2.0 * p.eta1 * lnJ * g - 2.0 * gp * eta * J2 - 3.0 * H3
    J2i = 1.0 / (J * J)
    return W, (H1, H2, H3), (
        -H1, H2 * J2i, J * H11 - 2.0 * J2 * H12 - 3.0 * J3 * H13,
        2.0 * H22 * J2i, 2.0 * H12 / J, 0.25 * H13 / J, 0.25 * H23 * J2i,
        3.0 * H3 * J2i)


def _metric_core(c: SurfTensor2, frame: LatticeFrame, p: MaterialParams,
                 order: int):
    """Closed-form evaluation of the metric model.

    Returns (W, S pair triple or None, tangent 3x3 pair matrix or None,
    J = sqrt(det C) or None); order 0 gives the energy, 1 adds the stress
    and J, 2 the tangent. The pair matrix is the sum of outer products
    left[a] * right[b] of the pair vectors ci = C^-1, cp, zz, m, n with
    pre-combined partners, plus g_inv (C^-1 [x] C^-1 + C^-1 (+) C^-1) and
    g_iso (I [x] I + I (+) I - I (x) I). The eight coefficients (g_inv,
    g_iso, g_cc, g_pp, g_cp, g_cz, g_pz, g_k) come from _h_coefficients.
    Only the six upper entries are formed; the lower three mirror them, so
    the matrix is exactly symmetric.
    """
    c11, c22, c12 = c
    m, n = frame.m_hat, frame.n_hat
    m11, m12, n11, n12 = m.c11, m.c12, n.c11, n.c12
    det, J, p11, p12, J2, mC, nC, J3 = _inv._c_scalars(
        c11, c22, c12, m11, m12, n11, n12)
    W, H, coef = _h_coefficients(J, det, J2, J3, p, order)
    if order == 0:
        return W, None, None, None
    H1, H2, H3 = H
    i11, i22, i12 = c22 / det, c11 / det, -c12 / det
    aM = 3.0 * (mC * mC - nC * nC)
    aN = -6.0 * mC * nC
    z11 = aM * m11 + aN * n11
    z12 = aM * m12 + aN * n12
    qh = H2 / J
    rh = 0.25 * H3 / J
    s11 = H1 * i11 + qh * p11 + rh * z11
    s22 = H1 * i22 - qh * p11 - rh * z11
    s12 = H1 * i12 + qh * p12 + rh * z12
    if order == 1:
        return W, (s11, s22, s12), None, J

    g_inv, g_iso, g_cc, g_pp, g_cp, g_cz, g_pz, g_k = coef
    kM = g_k * mC
    kN = g_k * nC

    # partners of ci, cp, zz, m and n; the cp, zz, m, n pair vectors are
    # (x11, -x11, x12), so their 22 entries are the negated 11 entries
    a0 = g_cc * i11 + g_cp * p11 + g_cz * z11
    a1 = g_cc * i22 - g_cp * p11 - g_cz * z11
    a2 = g_cc * i12 + g_cp * p12 + g_cz * z12
    b0 = g_cp * i11 + g_pp * p11 + g_pz * z11
    b1 = g_cp * i22 - g_pp * p11 - g_pz * z11
    b2 = g_cp * i12 + g_pp * p12 + g_pz * z12
    z0 = g_cz * i11 + g_pz * p11
    z1 = g_cz * i22 - g_pz * p11
    z2 = g_cz * i12 + g_pz * p12
    mb0 = kM * m11 - kN * n11
    mb2 = kM * m12 - kN * n12
    nb0 = -kM * n11 - kN * m11
    nb2 = -kM * n12 - kN * m12
    # the 11-row terms other than ci; the 22 row carries them negated
    r0 = p11 * b0 + z11 * z0 + m11 * mb0 + n11 * nb0
    r1 = p11 * b1 + z11 * z1 - m11 * mb0 - n11 * nb0
    r2 = p11 * b2 + z11 * z2 + m11 * mb2 + n11 * nb2
    g00 = i11 * a0 + r0 + g_inv * 2.0 * i11 * i11 + g_iso
    g01 = i11 * a1 + r1 + g_inv * 2.0 * i12 * i12 - g_iso
    g02 = i11 * a2 + r2 + g_inv * 2.0 * i11 * i12
    g11 = i22 * a1 - r1 + g_inv * 2.0 * i22 * i22 + g_iso
    g12 = i22 * a2 - r2 + g_inv * 2.0 * i22 * i12
    g22 = (i12 * a2 + p12 * b2 + z12 * z2 + m12 * mb2 + n12 * nb2
           + g_inv * (i11 * i22 + i12 * i12) + g_iso)
    g = ((g00, g01, g02), (g01, g11, g12), (g02, g12, g22))
    return W, (s11, s22, s12), g, J


def energy_metric(c: SurfTensor2, frame: LatticeFrame, p: MaterialParams) -> float:
    return _metric_core(c, frame, p, 0)[0]


def _package_stress(c: SurfTensor2, W, s_pair, J) -> StressResult:
    """S, tau = U S U and sigma = tau / J; U = sqrt(C), J = sqrt(det C)."""
    u11, u22, u12 = sqrt_spd(c)
    s11, s22, s12 = s_pair
    a11 = u11 * s11 + u12 * s12
    a12 = u11 * s12 + u12 * s22
    a21 = u12 * s11 + u22 * s12
    a22 = u12 * s12 + u22 * s22
    t11 = a11 * u11 + a12 * u12
    t22 = a21 * u12 + a22 * u22
    t12 = a11 * u12 + a12 * u22
    r = 1.0 / J
    return _new(StressResult, (_new(SurfTensor2, s_pair),
                               _new(SurfTensor2, (t11, t22, t12)),
                               _new(SurfTensor2, (r * t11, r * t22, r * t12)),
                               W))


def stress_metric(c: SurfTensor2, frame: LatticeFrame,
                  p: MaterialParams) -> StressResult:
    W, s_pair, _g, J = _metric_core(c, frame, p, 1)
    return _package_stress(c, W, s_pair, J)


def tangent_metric(c: SurfTensor2, frame: LatticeFrame,
                   p: MaterialParams) -> Tangent4:
    """Analytic elasticity tensor 2 dS/dC of the metric model."""
    return tangent_from_pairs(_metric_core(c, frame, p, 2)[2])


def stress_tangent_metric(c: SurfTensor2, frame: LatticeFrame,
                          p: MaterialParams):
    """One-pass (StressResult, Tangent4) evaluation."""
    W, s_pair, g, J = _metric_core(c, frame, p, 2)
    return _package_stress(c, W, s_pair, J), tangent_from_pairs(g)


def _tangent_terms(c: SurfTensor2, frame: LatticeFrame, p: MaterialParams):
    """The tangent as a list of (coefficient, A, B, product-kind) terms with
    kind in {"ot", "op", "bt"} for (x), (+) and [x]: the term list that
    tangent_metric_oplus assembles in the alternative component order."""
    c11, c22, c12 = c
    mv, nv = frame.m_hat, frame.n_hat
    m11, m12, n11, n12 = mv.c11, mv.c12, nv.c11, nv.c12
    det, J, p11, p12, J2, mC, nC, J3 = _inv._c_scalars(
        c11, c22, c12, m11, m12, n11, n12)
    (g_inv, g_iso, g_cc, g_pp, g_cp, g_cz, g_pz,
     g_k) = _h_coefficients(J, det, J2, J3, p, order=2)[2]
    i11, i22, i12 = c22 / det, c11 / det, -c12 / det
    aM = 3.0 * (mC * mC - nC * nC)
    aN = -6.0 * mC * nC
    ci = _new(SurfTensor2, (i11, i22, i12))
    cp = _new(SurfTensor2, (p11, -p11, p12))
    zz = _new(SurfTensor2, (aM * m11 + aN * n11, -(aM * m11 + aN * n11),
                            aM * m12 + aN * n12))
    ident = _new(SurfTensor2, (1.0, 1.0, 0.0))
    terms = [
        (g_cc, ci, ci, "ot"),
        (g_pp, cp, cp, "ot"),
        (g_cp, ci, cp, "ot"), (g_cp, cp, ci, "ot"),
        (g_cz, ci, zz, "ot"), (g_cz, zz, ci, "ot"),
        (g_pz, cp, zz, "ot"), (g_pz, zz, cp, "ot"),
        (g_k * mC, mv, mv, "ot"), (-g_k * mC, nv, nv, "ot"),
        (-g_k * nC, mv, nv, "ot"), (-g_k * nC, nv, mv, "ot"),
        (g_inv, ci, ci, "bt"), (g_inv, ci, ci, "op"),
        (g_iso, ident, ident, "bt"), (g_iso, ident, ident, "op"),
        (-g_iso, ident, ident, "ot"),
    ]
    return terms


# The product each term kind takes in the alternative component order:
# (x) -> (+), (+) -> [x], [x] -> (x); all arguments here are symmetric so
# the transposes in the mapping are free.
_PRODUCT = {"ot": oplus_product, "op": boxtimes_product, "bt": tensor_product}


def tangent_metric_oplus(c: SurfTensor2, frame: LatticeFrame,
                         p: MaterialParams) -> Tangent4:
    """The tangent assembled directly in the alternative component order
    used for matrix assembly; rearrange() maps it back to the standard
    order. The 17 scaled products of the term list are stacked and summed
    in one reduction over the stack, which adds row after row to 0.0: the
    same bits, signed zeros included, as `out += k * product` on a zeroed
    out."""
    terms = _tangent_terms(c, frame, p)
    prods = np.array([_PRODUCT[kind](a, b).comp for _k, a, b, kind in terms])
    prods *= np.array([t[0] for t in terms])[:, None, None, None, None]
    return _new(Tangent4, (np.add.reduce(prods, axis=0, initial=0.0),))


LN_SERIES_U = 1e-3


def _ln_divided2(mean, u):
    """Second divided differences f[1,1,2] and f[1,2,2] of ln at the
    eigenvalues L1,2 = mean * (1 +- u); below u = LN_SERIES_U their series
    in u replaces the difference quotients, which cancel there."""
    if u < LN_SERIES_U:
        u2 = u * u
        even = 1.0 + u2 * (1.0 + u2)
        odd = u * (2.0 / 3.0 + u2 * (0.8 + u2 * (6.0 / 7.0)))
        q = -0.5 / (mean * mean)
        return q * (even - odd), q * (even + odd)
    a = math.atanh(u) / u  # mean * f[1,2]
    q = 0.5 / (u * mean * mean)
    return q * (1.0 / (1.0 + u) - a), q * (a - 1.0 / (1.0 - u))


def _log_core(c: SurfTensor2, frame: LatticeFrame, p: MaterialParams,
              order: int):
    """Spectral evaluation of the logarithmic-strain model.

    Returns (W, S pair triple or None, tangent 3x3 pair matrix or None,
    J = sqrt(det C) or None), the contract of _metric_core. The stress is the energy gradient mapped
    through the derivative of (1/2) ln C: eigenvalue directions scale by
    1/Lambda_a, the mixed direction by the divided difference of ln, which
    switches to its analytic limit at near-coincident eigenvalues.

    The tangent is closed-form in the eigenframe of C (Miehe & Lambrecht
    2001; Jog 2008). With f = ln, f[i,j] and f[i,k,j] its first and second
    divided differences, T = dW/dE and H = dC (primed: eigenframe),
    dS'_ij = f[i,j] dT'_ij + sum_k f[i,k,j] (T'_ik H'_kj + H'_ik T'_kj),
    where dT = (d2W/dE2) : dE and dE'_kl = (1/2) f[k,l] H'_kl. The second
    divided differences switch to their series in u = (L1 - L2)/(L1 + L2)
    below LN_SERIES_U (_ln_divided2). The pair matrix is rotated back with the stress's own
    coefficients; only its six upper entries are formed, so it is exactly
    symmetric.
    """
    c11, c22, c12 = c
    m, n = frame.m_hat, frame.n_hat
    m11, m12, n11, n12 = m.c11, m.c12, n.c11, n.c12
    mean, disc, L1, L2, th = _st._eigen_head(c11, c22, c12)
    det, J1E, ed, ct, st, ed11, ed12, mE, nE, J2E, J3E = _inv._log_scalars(
        c11, c22, c12, L1, L2, th, m11, m12, n11, n12)
    eb = math.exp(p.beta_hat * J1E)
    mu = p.mu0 - p.mu1 * eb
    eta = p.eta0 - p.eta1 * J1E * J1E
    ea = math.exp(-p.alpha_hat * J1E)
    W = (p.epsilon * (1.0 - (1.0 + p.alpha_hat * J1E) * ea)
         + 2.0 * mu * J2E + eta * J3E)
    if order == 0:
        return W, None, None, None

    dW1 = (p.epsilon * p.alpha_hat * p.alpha_hat * J1E * ea
           - 2.0 * p.mu1 * p.beta_hat * eb * J2E - 2.0 * p.eta1 * J1E * J3E)
    aME = 3.0 * (mE * mE - nE * nE)
    aNE = -6.0 * mE * nE
    w11 = 0.125 * eta * (aME * m11 + aNE * n11)
    w12 = 0.125 * eta * (aME * m12 + aNE * n12)
    t11 = dW1 + 2.0 * mu * ed11 + w11
    t22 = dW1 - 2.0 * mu * ed11 - w11
    t12 = 2.0 * mu * ed12 + w12
    # into the eigenframe of C
    cc_ = ct * ct
    ss_ = st * st
    cs_ = ct * st
    tp11 = cc_ * t11 + 2.0 * cs_ * t12 + ss_ * t22
    tp22 = ss_ * t11 - 2.0 * cs_ * t12 + cc_ * t22
    tp12 = (cc_ - ss_) * t12 + cs_ * (t22 - t11)
    sp11 = tp11 / L1
    sp22 = tp22 / L2
    if abs(L1 - L2) < 1e-8 * (L1 + L2):
        k12 = 2.0 / (L1 + L2)
    else:
        # 4 ed == ln L1 - ln L2 exactly: l1, l2, ed scale by powers of two
        k12 = 4.0 * ed / (L1 - L2)
    sp12 = tp12 * k12
    s11 = cc_ * sp11 - 2.0 * cs_ * sp12 + ss_ * sp22
    s22 = ss_ * sp11 + 2.0 * cs_ * sp12 + cc_ * sp22
    s12 = cs_ * (sp11 - sp22) + (cc_ - ss_) * sp12
    if order == 1:
        return W, (s11, s22, s12), None, math.sqrt(det)

    # tangent in the eigenframe: first and second divided differences of ln
    c2_ = cc_ - ss_
    s2t = 2.0 * cs_
    f1 = 1.0 / L1
    f2 = 1.0 / L2
    f112, f122 = _ln_divided2(mean, disc / mean)
    # d2W/dE2 = d11 I(x)I + I(x)v + v(x)I + A m(x)m + B n(x)n
    # + Cn (m(x)n + n(x)m); in the eigenframe m = (mp, -mp, mq),
    # n = (np_, -np_, nq) and v = (vp, -vp, vq)
    a2 = p.alpha_hat * p.alpha_hat
    d11 = (p.epsilon * a2 * (1.0 - p.alpha_hat * J1E) * ea
           - 2.0 * p.mu1 * p.beta_hat * p.beta_hat * eb * J2E
           - 2.0 * p.eta1 * J3E)
    mp = c2_ * m11 + s2t * m12
    mq = c2_ * m12 - s2t * m11
    np_ = c2_ * n11 + s2t * n12
    nq = c2_ * n12 - s2t * n11
    eta_d = -0.25 * p.eta1 * J1E
    vp = (-2.0 * p.mu1 * p.beta_hat * eb * ed
          + eta_d * (aME * mp + aNE * np_))
    vq = eta_d * (aME * mq + aNE * nq)
    A = mu + 0.75 * eta * mE
    B = mu - 0.75 * eta * mE
    Cn = -0.75 * eta * nE
    qpp = A * mp * mp + B * np_ * np_ + 2.0 * Cn * mp * np_
    qpq = A * mp * mq + B * np_ * nq + Cn * (mp * nq + np_ * mq)
    qqq = A * mq * mq + B * nq * nq + 2.0 * Cn * mq * nq
    # eigenframe pair matrix h: d2W/dE2 scaled by f[i,j] on both sides,
    # plus the second-divided-difference terms
    h00 = f1 * f1 * (d11 + 2.0 * vp + qpp - 2.0 * tp11)
    h11 = f2 * f2 * (d11 - 2.0 * vp + qpp - 2.0 * tp22)
    h01 = f1 * f2 * (d11 - qpp)
    h02 = f1 * k12 * (vq + qpq) + 2.0 * f112 * tp12
    h12 = f2 * k12 * (vq - qpq) + 2.0 * f122 * tp12
    h22 = k12 * k12 * qqq + f112 * tp11 + f122 * tp22
    # back to the storage frame, G = P h P^T with the rows of P the
    # coefficients of s11, s22, s12 above; six upper entries, mirrored
    x0 = cc_ * h00 + ss_ * h01 - s2t * h02
    x1 = cc_ * h01 + ss_ * h11 - s2t * h12
    x2 = cc_ * h02 + ss_ * h12 - s2t * h22
    y0 = ss_ * h00 + cc_ * h01 + s2t * h02
    y1 = ss_ * h01 + cc_ * h11 + s2t * h12
    y2 = ss_ * h02 + cc_ * h12 + s2t * h22
    z0 = cs_ * (h00 - h01) + c2_ * h02
    z1 = cs_ * (h01 - h11) + c2_ * h12
    z2 = cs_ * (h02 - h12) + c2_ * h22
    g00 = cc_ * x0 + ss_ * x1 - s2t * x2
    g01 = cc_ * y0 + ss_ * y1 - s2t * y2
    g02 = cc_ * z0 + ss_ * z1 - s2t * z2
    g11 = ss_ * y0 + cc_ * y1 + s2t * y2
    g12 = ss_ * z0 + cc_ * z1 + s2t * z2
    g22 = cs_ * (z0 - z1) + c2_ * z2
    g = ((g00, g01, g02), (g01, g11, g12), (g02, g12, g22))
    return W, (s11, s22, s12), g, math.sqrt(det)


def energy_log(c: SurfTensor2, frame: LatticeFrame, p: MaterialParams) -> float:
    return _log_core(c, frame, p, 0)[0]


def stress_log(c: SurfTensor2, frame: LatticeFrame,
               p: MaterialParams) -> StressResult:
    W, s_pair, _g, J = _log_core(c, frame, p, 1)
    return _package_stress(c, W, s_pair, J)


def tangent_log(c: SurfTensor2, frame: LatticeFrame,
                p: MaterialParams) -> Tangent4:
    """Closed-form elasticity tensor 2 dS/dC of the log model."""
    return tangent_from_pairs(_log_core(c, frame, p, 2)[2])


def stress_tangent_log(c: SurfTensor2, frame: LatticeFrame,
                       p: MaterialParams):
    """One-pass (StressResult, Tangent4) evaluation."""
    W, s_pair, g, J = _log_core(c, frame, p, 2)
    return _package_stress(c, W, s_pair, J), tangent_from_pairs(g)

