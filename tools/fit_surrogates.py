"""Refit of the surrogate constants E2 and G2 of gmem.invariants over the
states of their fit, and the errors of the refit and the shipped sets.

    PYTHONPATH=src python3 tools/fit_surrogates.py

The surrogates are f1 = e1 J2 - e2 J2^2 for J2E and f2 = J3 (g1 - g2 J2)
for J3E, with e1 = 1/4 and g1 = 1/8 fixed at their small-strain values.
The fit is relative least squares over principal stretch ratios r in
(1, 1.3] on the armchair axis, C = diag(r^2, 1): RATIOS is the grid of
gmem's test_05 and invariant_approximation_errors, less r = 1, where J2E
and J3E vanish. Each constant is linear in its residual (f - exact)/exact,
so its fit is one quotient of sums. The script prints the refit and the
shipped e2 and g2, and for each set the largest and the RMS relative
error of f1 and f2 over the same ratios, in percent. A relative
least-squares fit bounds the RMS error, not the largest one.

The fit writes its own f1 and f2 with e2 and g2 free, rather than calling
gmem's surrogate head, invariants._surrogates: the head evaluates the one
shipped constants set, and a constants parameter on it would be an option
that only this fit sets.
"""

from __future__ import annotations

import math

import numpy as np

from gmem.invariants import (E1, E2, FITTED_STRETCH_RATIO, G1, G2,
                             invariants_C, invariants_log_exact)
from gmem.lattice import make_frame
from gmem.surface_tensors import SurfTensor2

RATIOS = np.linspace(1.0, FITTED_STRETCH_RATIO, 601)[1:]


def invariant_table(ratios=RATIOS) -> np.ndarray:
    """Rows (J2, J3, J2E, J3E) of C = diag(r^2, 1) on the armchair axis."""
    frame = make_frame(0.0)
    rows = []
    for r in np.asarray(ratios, dtype=float).tolist():
        c = SurfTensor2(r * r, 1.0, 0.0)
        inv = invariants_C(c, frame)
        ex = invariants_log_exact(c, frame)
        rows.append((inv.J2, inv.J3, ex.J2E, ex.J3E))
    return np.array(rows)


def refit(table: np.ndarray) -> tuple:
    """(e2, g2) minimising the summed squared relative residuals of f1 and
    f2, with e1 and g1 kept."""
    J2, J3, J2E, J3E = table.T
    # residual = a - x b, so x = (a . b) / (b . b)
    a1, b1 = (E1 * J2 - J2E) / J2E, J2 * J2 / J2E
    a2, b2 = (G1 * J3 - J3E) / J3E, J3 * J2 / J3E
    return float(a1 @ b1 / (b1 @ b1)), float(a2 @ b2 / (b2 @ b2))


def errors(table: np.ndarray, e2: float, g2: float) -> dict:
    """Largest and RMS relative errors of f1 and f2, in percent."""
    J2, J3, J2E, J3E = table.T
    out = {}
    for name, rel in (("f1", (E1 * J2 - e2 * J2 * J2 - J2E) / J2E),
                      ("f2", (J3 * (G1 - g2 * J2) - J3E) / J3E)):
        out[f"{name}_max"] = 100.0 * float(np.max(np.abs(rel)))
        out[f"{name}_rms"] = 100.0 * math.sqrt(float(np.mean(rel * rel)))
    return out


def main() -> int:
    table = invariant_table()
    sets = {"refit": refit(table), "shipped": (E2, G2)}
    print(f"{len(table)} ratios in (1, {FITTED_STRETCH_RATIO}], armchair "
          f"axis; errors in percent")
    print(f"{'set':8}{'e2':>10}{'g2':>10}{'f1 max':>11}{'f2 max':>11}"
          f"{'f1 rms':>11}{'f2 rms':>11}")
    for name, (e2, g2) in sets.items():
        err = errors(table, e2, g2)
        print(f"{name:8}{e2:10.5f}{g2:10.5f}{err['f1_max']:11.6f}"
              f"{err['f2_max']:11.6f}{err['f1_rms']:11.4f}"
              f"{err['f2_rms']:11.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
