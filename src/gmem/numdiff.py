"""Central-difference oracles for symmetric-tensor derivatives.

Symmetric pairs are stored as (11, 22, 12) triples. Differentiation returns
single-entry partials: the off-diagonal column is halved because a stored
perturbation of the 12 component moves both the 12 and 21 tensor entries.
With that convention every derived quantity takes a uniform prefactor
(stress = 2x partials of the energy, and so on).

partials_sym differences an f that returns a float or a flat sequence of
numbers entry by entry in float arithmetic, since NumPy's set-up costs
more than the six evaluations of a cheap verify callback, and builds one
array at the end. It raises ValueError unless its step is finite and > 0
and its point is three numbers, and TypeError for any other result.
partials_sym is the only central-difference stencil in src/.
"""

from __future__ import annotations

import math

import numpy as np

STRESS_STEP = 1e-6
TANGENT_STEP = 1e-5


def partials_sym(f, comps, rel_step):
    """Single-entry partial derivatives of f with respect to a symmetric
    pair-storage triple; f returns a float or a flat sequence of numbers.

    f is evaluated six times, in the order (+h, -h) per component, with
    h_i = rel_step * max(|c_i|, 1); each partial is (f+ - f-) / (2 h_i), and
    the 12 column is then multiplied by 0.5. Returns shape (3,) for a float
    (np.float64 included) and (n, 3) for a sequence of n numbers.

    Raises ValueError unless rel_step is finite and > 0 and comps is three
    numbers, and TypeError for any other result, such as a nested sequence,
    an array that is not 1-D, or an int or np.float32 scalar.
    """
    if not 0.0 < rel_step < math.inf:
        raise ValueError(f"rel_step must be finite and > 0, got {rel_step!r}")
    try:
        x, y, z = map(float, comps)
    except (TypeError, ValueError):
        raise ValueError(
            f"comps must be three numbers, got {comps!r}") from None
    hx = rel_step * max(abs(x), 1.0)
    hy = rel_step * max(abs(y), 1.0)
    hz = rel_step * max(abs(z), 1.0)
    v0, v1, v2, v3, v4, v5 = (f(x + hx, y, z), f(x - hx, y, z),
                              f(x, y + hy, z), f(x, y - hy, z),
                              f(x, y, z + hz), f(x, y, z - hz))
    sx, sy, sz = 2.0 * hx, 2.0 * hy, 2.0 * hz
    scalar = isinstance(v0, float)
    try:
        if scalar:
            out = ((v0 - v1) / sx, (v2 - v3) / sy, (v4 - v5) / sz * 0.5)
        else:
            out = []
            for a, b, c, d, e, g in zip(v0, v1, v2, v3, v4, v5, strict=True):
                out += ((a - b) / sx, (c - d) / sy, (e - g) / sz * 0.5)
        d = np.array(out, dtype=float)
    except (TypeError, ValueError):
        d = None
    if d is None or d.ndim != 1:
        raise TypeError("partials_sym takes an f that returns a float or a "
                        "flat sequence of numbers of one length, got "
                        f"{type(v0).__name__}")
    return d if scalar else d.reshape(-1, 3)
