"""Central-difference oracles for symmetric-tensor derivatives.

Symmetric pairs are stored as (11, 22, 12) triples. Differentiation returns
single-entry partials: the off-diagonal column is halved because a stored
perturbation of the 12 component moves both the 12 and 21 tensor entries.
With that convention every derived quantity takes a uniform prefactor
(stress = 2x partials of the energy, and so on).
"""

from __future__ import annotations

import numpy as np

STRESS_STEP = 1e-6
TANGENT_STEP = 1e-5


def partials_sym(f, comps, rel_step):
    """Single-entry partial derivatives of f with respect to a symmetric
    pair-storage triple; f may return a scalar or an array.

    Returns an array of shape f(*comps).shape + (3,), formed from one array
    of the six evaluations, made first in the order (+h, -h) per component.
    """
    comps = tuple(float(x) for x in comps)
    vals, steps = [], []
    for i in range(3):
        h = rel_step * max(abs(comps[i]), 1.0)
        up = list(comps)
        dn = list(comps)
        up[i] += h
        dn[i] -= h
        vals.append(f(*up))
        vals.append(f(*dn))
        steps.append(2.0 * h)
    ev = np.array(vals, dtype=float)
    d = (ev[0::2] - ev[1::2]).reshape(3, -1) / np.array(steps)[:, None]
    d[2] *= 0.5
    return d.T.reshape(ev.shape[1:] + (3,))


def partials_sym_richardson(f, comps, rel_step):
    """Two-step Richardson extrapolation of partials_sym: a reference
    difference for tests, not a retry in verify, whose checks use one
    plain partials_sym each."""
    p1 = partials_sym(f, comps, rel_step)
    p2 = partials_sym(f, comps, 0.5 * rel_step)
    return (4.0 * p2 - p1) / 3.0

