"""Central-difference oracles for symmetric-tensor derivatives.

Symmetric pairs are stored as (11, 22, 12) triples. Differentiation returns
single-entry partials: the off-diagonal column is halved because a stored
perturbation of the 12 component moves both the 12 and 21 tensor entries.
With that convention every derived quantity takes a uniform prefactor
(stress = 2x partials of the energy, and so on).

partials_sym has two forms of one arithmetic. The verify callbacks return
a float, a SurfTensor2 or a 6-tuple of floats, and for such cheap
callbacks NumPy's set-up costs more than the six evaluations, so results
that are Python floats, or equal-length tuples of them, are differenced in
float arithmetic and put in one array at the end. Every other result goes
through one array of the six evaluations. Both forms give the same bits.
It raises ValueError unless its step is finite and > 0 and its point is
three numbers. partials_sym is the only central-difference stencil in src/.
"""

from __future__ import annotations

import math

import numpy as np

STRESS_STEP = 1e-6
TANGENT_STEP = 1e-5


def partials_sym(f, comps, rel_step):
    """Single-entry partial derivatives of f with respect to a symmetric
    pair-storage triple; f may return a scalar or an array.

    f is evaluated six times, in the order (+h, -h) per component, with
    h_i = rel_step * max(|c_i|, 1); each partial is (f+ - f-) / (2 h_i), and
    the 12 column is then multiplied by 0.5. Returns an array of shape
    f(*comps).shape + (3,), (n, 3) for an n-tuple. Floats and flat tuples
    of floats take the float form; an ndarray, an np.float64 or a nested
    sequence takes the array form, and so does a tuple holding an int,
    whose exact int difference NumPy would round first.

    Raises ValueError unless rel_step is finite and > 0 and comps is three
    numbers.
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
    vals = (f(x + hx, y, z), f(x - hx, y, z), f(x, y + hy, z),
            f(x, y - hy, z), f(x, y, z + hz), f(x, y, z - hz))
    sx, sy, sz = 2.0 * hx, 2.0 * hy, 2.0 * hz
    v0, v1, v2, v3, v4, v5 = vals
    t = type(v0)
    if t is type(v1) is type(v2) is type(v3) is type(v4) is type(v5):
        if t is float:
            return np.array(((v0 - v1) / sx, (v2 - v3) / sy,
                             (v4 - v5) / sz * 0.5))
        if (issubclass(t, tuple)
                and len(v0) == len(v1) == len(v2) == len(v3) == len(v4)
                == len(v5)):
            out = []
            for a, b, c, d, e, g in zip(v0, v1, v2, v3, v4, v5):
                if not (type(a) is type(b) is type(c) is type(d) is type(e)
                        is type(g) is float):
                    break
                out += ((a - b) / sx, (c - d) / sy, (e - g) / sz * 0.5)
            else:
                return np.array(out).reshape(-1, 3)
    ev = np.array(vals, dtype=float)
    d = (ev[0::2] - ev[1::2]).reshape(3, -1) / np.array((sx, sy, sz))[:, None]
    d[2] *= 0.5
    return d.T.reshape(ev.shape[1:] + (3,))

