"""Hexagonal-lattice frame: the two traceless structural tensors of a C6v
monolayer and the sixth-order triple contraction built from them.

The armchair axis sits at theta_lattice from the frame's first axis; the
zigzag axis is 30 degrees further. All anisotropy enters through M, N and
repeats after 60 degrees of lattice rotation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .surface_tensors import SurfTensor2

ZIGZAG_OFFSET = math.pi / 6.0


class LatticeFrame(NamedTuple):
    """Armchair angle plus the structural tensors M = x(x)x - y(x)y and
    N = x(x)y + y(x)x for the rotated lattice axes x, y."""

    theta_lattice: float
    m_hat: SurfTensor2
    n_hat: SurfTensor2


def make_frame(theta_lattice: float = 0.0) -> LatticeFrame:
    """Build the structural tensors for an armchair axis at theta_lattice.

    Componentwise M + iN picks up exp(-2i theta) under rotation, so
    M = [[cos 2t, sin 2t], [sin 2t, -cos 2t]] and
    N = [[-sin 2t, cos 2t], [cos 2t, sin 2t]]. Raises ValueError unless
    theta_lattice is finite.
    """
    if not math.isfinite(theta_lattice):
        raise ValueError(f"theta_lattice must be finite, got {theta_lattice!r}")
    c2 = math.cos(2.0 * theta_lattice)
    s2 = math.sin(2.0 * theta_lattice)
    m_hat = SurfTensor2(c2, -c2, s2)
    n_hat = SurfTensor2(-s2, s2, c2)
    return LatticeFrame(theta_lattice, m_hat, n_hat)


def structural_contraction(frame: LatticeFrame, a: SurfTensor2,
                           b: SurfTensor2, c: SurfTensor2) -> float:
    """Triple contraction of the sixth-order C6v structural tensor.

    H(a, b, c) = (M:a)(M:b)(M:c) - (M:a)(N:b)(N:c) - (N:a)(M:b)(N:c)
    - (N:a)(N:b)(M:c); symmetric in a, b, c. Spherical parts of the
    arguments drop out because M and N are traceless.
    """
    ma, mb, mc = frame.m_hat.ddot(a), frame.m_hat.ddot(b), frame.m_hat.ddot(c)
    na, nb, nc = frame.n_hat.ddot(a), frame.n_hat.ddot(b), frame.n_hat.ddot(c)
    return ma * mb * mc - ma * nb * nc - na * mb * nc - na * nb * mc
