"""Symmetric 2x2 surface tensors and the fourth-order product algebra.

Everything here operates on components in a local orthonormal surface frame.
Curvilinear component sets are produced only by the geometry module, which
keeps covariant and contravariant ones in the same SurfTensor2 triple;
trace and ddot depend on the frame there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_new = tuple.__new__  # a record from a tuple holding every field


class NotPositiveDefiniteError(ValueError):
    """C or a metric fails the one rule, 0 < det < inf and first diagonal
    entry > 0, or on the log paths the guard L2 > 0 on C's eigenvalues."""


def _not_positive_definite(det, tr, what="C") -> NotPositiveDefiniteError:
    """The one rejection text of every positive-definiteness check."""
    return NotPositiveDefiniteError(
        f"{what} is not positive definite: det={det}, tr={tr}")


class SurfTensor2(NamedTuple):
    """Symmetric second-order surface tensor, three stored components. Give
    Python floats: np.float64 ones slow the membrane calls 1.25-2.2x. The
    bending layer keeps covariant and contravariant components in it too,
    where trace and ddot depend on the frame (tr b is a^ab b_ab there)."""

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


class SpectralDecomp(NamedTuple):
    """Eigenvalues Lambda1 >= Lambda2 and the angle of the Lambda1 axis,
    counter-clockwise from the frame's first axis, in (-pi/2, pi/2]."""

    Lambda1: float
    Lambda2: float
    theta: float


def _eigen_head(c11, c22, c12):
    """(mean, disc, L1, L2, theta) of a symmetric 2x2 tensor, L1,2 = mean
    +- disc: the one eigen head, shared by spectral and the log kernel."""
    mean = 0.5 * (c11 + c22)
    disc = math.hypot(0.5 * (c11 - c22), c12)
    return (mean, disc, mean + disc, mean - disc,
            0.5 * math.atan2(2.0 * c12, c11 - c22))


def spectral(t: SurfTensor2) -> SpectralDecomp:
    """Closed-form eigendecomposition of a symmetric 2x2 tensor.

    Coincident eigenvalues take theta = 0 by convention.
    """
    _mean, _disc, L1, L2, theta = _eigen_head(*t)
    return _new(SpectralDecomp, (L1, L2, theta))


def sqrt_spd(t: SurfTensor2) -> SurfTensor2:
    """Symmetric square root of a positive-definite 2x2 tensor.

    Uses the closed form (C + sqrt(det C) I) / sqrt(tr C + 2 sqrt(det C)).
    """
    c11, c22, c12 = t.c11, t.c22, t.c12
    det = c11 * c22 - c12 * c12
    tr = c11 + c22
    if not (0.0 < det < math.inf and c11 > 0.0):
        raise _not_positive_definite(det, tr, "tensor")
    rd = math.sqrt(det)
    scale = 1.0 / math.sqrt(tr + 2.0 * rd)
    return _new(SurfTensor2, ((c11 + rd) * scale, (c22 + rd) * scale,
                              c12 * scale))


class Tangent4(NamedTuple):
    """Fourth-order surface tensor, full 16 components, no symmetry packing."""

    comp: np.ndarray


def _pair_entries(a: SurfTensor2, b: SurfTensor2):
    """The nine single products a^{ij} b^{kl} of two stored triples, rows
    a11, a12, a22 times b11, b12, b22; the pair products lay them out.
    Adding 0.0 turns a -0.0 product into +0.0, as einsum's accumulation
    into a zeroed output does, so the products keep their einsum bits."""
    a11, a22, a12 = a
    b11, b22, b12 = b
    return (a11 * b11 + 0.0, a11 * b12 + 0.0, a11 * b22 + 0.0,
            a12 * b11 + 0.0, a12 * b12 + 0.0, a12 * b22 + 0.0,
            a22 * b11 + 0.0, a22 * b12 + 0.0, a22 * b22 + 0.0)


def tensor_product(a: SurfTensor2, b: SurfTensor2) -> Tangent4:
    """(a (x) b)^{abgd} = a^{ab} b^{gd}."""
    p1, p2, p3, q1, q2, q3, r1, r2, r3 = _pair_entries(a, b)
    comp = np.array((p1, p2, p2, p3, q1, q2, q2, q3,
                     q1, q2, q2, q3, r1, r2, r2, r3))
    return _new(Tangent4, (comp.reshape(2, 2, 2, 2),))


def oplus_product(a: SurfTensor2, b: SurfTensor2) -> Tangent4:
    """(a (+) b)^{abgd} = a^{ad} b^{bg}."""
    p1, p2, p3, q1, q2, q3, r1, r2, r3 = _pair_entries(a, b)
    comp = np.array((p1, q1, p2, q2, p2, q2, p3, q3,
                     q1, r1, q2, r2, q2, r2, q3, r3))
    return _new(Tangent4, (comp.reshape(2, 2, 2, 2),))


def boxtimes_product(a: SurfTensor2, b: SurfTensor2) -> Tangent4:
    """(a [x] b)^{abgd} = a^{ag} b^{bd}."""
    p1, p2, p3, q1, q2, q3, r1, r2, r3 = _pair_entries(a, b)
    comp = np.array((p1, p2, q1, q2, p2, p3, q2, q3,
                     q1, q2, r1, r2, q2, q3, r2, r3))
    return _new(Tangent4, (comp.reshape(2, 2, 2, 2),))


def rearrange(t: Tangent4) -> Tangent4:
    """Component reordering used to go from assembly order back to the
    standard order: out^{abgd} = in^{agdb}, as a transposed view.

    Maps a (+) b to a (x) b, a (x) b to a [x] b^T, and a [x] b to a (+) b^T.
    """
    return _new(Tangent4, (t.comp.transpose(0, 3, 1, 2),))


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
    comp.shape = (2, 2, 2, 2)  # in place: comp owns its data, no view
    return _new(Tangent4, (comp,))


# flat indices of the pair entries (11, 22, 12) x (11, 22, 12) of a
# (2, 2, 2, 2) tangent, in row order: comp.take(_PAIR_TAKE) is the pair
# matrix, tangent_from_pairs' inverse
_PAIR_TAKE = np.array([[0, 3, 1], [12, 15, 13], [4, 7, 5]])
