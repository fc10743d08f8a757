"""Symmetric 2x2 surface tensors and the fourth-order product algebra.

Everything here operates on components in a local orthonormal surface frame.
Curvilinear component sets are produced only by the geometry module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_new = tuple.__new__  # a record from a tuple holding every field


class NotPositiveDefiniteError(ValueError):
    """Raised when a right Cauchy-Green input fails det > 0, tr > 0."""


class SurfTensor2(NamedTuple):
    """Symmetric second-order surface tensor, three stored components."""

    c11: float
    c22: float
    c12: float

    def trace(self) -> float:
        return self.c11 + self.c22

    def det(self) -> float:
        return self.c11 * self.c22 - self.c12 * self.c12

    def ddot(self, other: "SurfTensor2") -> float:
        """Full contraction a:b; off-diagonal entries count twice."""
        return self.c11 * other.c11 + self.c22 * other.c22 + 2.0 * self.c12 * other.c12

    def scaled(self, s: float) -> "SurfTensor2":
        return SurfTensor2(s * self.c11, s * self.c22, s * self.c12)

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.c11, self.c12], [self.c12, self.c22]])

    def require_positive_definite(self) -> None:
        if not (self.det() > 0.0 and self.trace() > 0.0):
            raise NotPositiveDefiniteError(
                f"tensor is not positive definite: det={self.det()}, tr={self.trace()}")


class SpectralDecomp(NamedTuple):
    """Eigenvalues Lambda1 >= Lambda2, principal stretches, and the angle of
    the maximum-stretch direction, counter-clockwise from the frame's first
    axis, in (-pi/2, pi/2]."""

    Lambda1: float
    Lambda2: float
    lambda1: float
    lambda2: float
    theta: float


def spectral(t: SurfTensor2) -> SpectralDecomp:
    """Closed-form eigendecomposition of a symmetric 2x2 tensor.

    Coincident eigenvalues take theta = 0 by convention.
    """
    mean = 0.5 * (t.c11 + t.c22)
    half_diff = 0.5 * (t.c11 - t.c22)
    disc = math.hypot(half_diff, t.c12)
    L1 = mean + disc
    L2 = mean - disc
    theta = 0.5 * math.atan2(2.0 * t.c12, t.c11 - t.c22)
    s1 = math.sqrt(L1) if L1 > 0.0 else 0.0
    s2 = math.sqrt(L2) if L2 > 0.0 else 0.0
    return SpectralDecomp(L1, L2, s1, s2, theta)


def reconstruct(sd: SpectralDecomp) -> SurfTensor2:
    """Sum of Lambda_a Y_a (x) Y_a; inverse of spectral up to rounding."""
    c, s = math.cos(sd.theta), math.sin(sd.theta)
    return SurfTensor2(sd.Lambda1 * c * c + sd.Lambda2 * s * s,
                       sd.Lambda1 * s * s + sd.Lambda2 * c * c,
                       (sd.Lambda1 - sd.Lambda2) * s * c)


def sqrt_spd(t: SurfTensor2) -> SurfTensor2:
    """Symmetric square root of a positive-definite 2x2 tensor.

    Uses the closed form (C + sqrt(det C) I) / sqrt(tr C + 2 sqrt(det C)).
    """
    c11, c22, c12 = t.c11, t.c22, t.c12
    det = c11 * c22 - c12 * c12
    tr = c11 + c22
    if not (det > 0.0 and tr > 0.0):
        raise NotPositiveDefiniteError(
            f"tensor is not positive definite: det={det}, tr={tr}")
    rd = math.sqrt(det)
    scale = 1.0 / math.sqrt(tr + 2.0 * rd)
    return _new(SurfTensor2, ((c11 + rd) * scale, (c22 + rd) * scale,
                              c12 * scale))


class Tangent4(NamedTuple):
    """Fourth-order surface tensor, full 16 components, no symmetry packing."""

    comp: np.ndarray


def _pair_outer(a: SurfTensor2, b: SurfTensor2, subscripts: str) -> Tangent4:
    """Closed-form pair product: one einsum with no summed index, so each of
    the 16 components is the single product of one entry of a and one of b."""
    return Tangent4(np.einsum(subscripts, a.as_matrix(), b.as_matrix()))


def tensor_product(a: SurfTensor2, b: SurfTensor2) -> Tangent4:
    """(a (x) b)^{abgd} = a^{ab} b^{gd}."""
    return _pair_outer(a, b, "ab,gd->abgd")


def oplus_product(a: SurfTensor2, b: SurfTensor2) -> Tangent4:
    """(a (+) b)^{abgd} = a^{ad} b^{bg}."""
    return _pair_outer(a, b, "ad,bg->abgd")


def boxtimes_product(a: SurfTensor2, b: SurfTensor2) -> Tangent4:
    """(a [x] b)^{abgd} = a^{ag} b^{bd}."""
    return _pair_outer(a, b, "ag,bd->abgd")


def rearrange(t: Tangent4) -> Tangent4:
    """Component reordering used to go from assembly order back to the
    standard order: out^{abgd} = in^{agdb}.

    Maps a (+) b to a (x) b, a (x) b to a [x] b^T, and a [x] b to a (+) b^T.
    """
    return Tangent4(np.einsum("agdb->abgd", t.comp))


def tangent_from_pairs(pairs) -> Tangent4:
    """Expand a 3x3 matrix over index pairs (11, 22, 12) into 16 components."""
    try:
        (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = pairs
        comp = np.array((p00, p02, p02, p01, p20, p22, p22, p21,
                         p20, p22, p22, p21, p10, p12, p12, p11), dtype=float)
        if comp.shape != (16,):  # entries that are not numbers
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"pair matrix must be 3x3, got {pairs!r}") from None
    return _new(Tangent4, (comp.reshape(2, 2, 2, 2),))
