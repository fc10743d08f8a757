"""Surface kinematics on analytically parametrized surfaces and the
squared-curvature (Canham) bending model.

Geometry records carry both metrics with inverses, curvature components
and the scalar curvature invariants; a record evaluated on a surface also
carries its embedding: tangent vectors, normal and Christoffel symbols.
Bending energy, stress, moment, and the four bending tangents are
analytic, the order-0, 1 and 2 views of one core, _bending_core, as the
membrane calls are of theirs; every derivative is validated elsewhere
against central differences that treat (a_ab, b_ab) as independent inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import surface_tensors as _st
from .surface_tensors import SurfTensor2, _new


class SurfacePointGeometry(NamedTuple):
    """Pointwise first/second fundamental data of a deforming surface.

    Covariant index placement is encoded in names: *_cov holds lower-index
    SurfTensor2 components, *_contra upper-index ones; the reference metric
    is held as A_cov alone. The embedding fields, A_alpha and a_alpha
    (tangent vectors as rows), gamma[g][a][b] (the current surface's
    Christoffel symbols of the second kind) and n, are None in a record
    built from metrics alone.
    """

    A_alpha: Optional[np.ndarray]
    a_alpha: Optional[np.ndarray]
    A_cov: SurfTensor2
    a_cov: SurfTensor2
    a_contra: SurfTensor2
    b_cov: SurfTensor2
    b_contra: SurfTensor2
    gamma: Optional[np.ndarray]
    n: Optional[np.ndarray]
    J: float
    H: float
    kappa_gauss: float
    k1: float
    k2: float


@dataclass(frozen=True)
class AnalyticSurface:
    """Closed-form parametrization x(u, v) with analytic derivatives.

    jacobian returns rows d x / d xi^alpha, hessian the (2, 2, 3) second
    derivatives. singular, if set, flags parameter points where the
    parametrization degenerates.
    """

    name: str
    position: Callable[[float, float], np.ndarray]
    jacobian: Callable[[float, float], np.ndarray]
    hessian: Callable[[float, float], np.ndarray]
    singular: Optional[Callable[[float, float], bool]] = None


def flat_patch(e1=(1.0, 0.0, 0.0), e2=(0.0, 1.0, 0.0),
               origin=(0.0, 0.0, 0.0)) -> AnalyticSurface:
    """Plane x = origin + u e1 + v e2; skew basis vectors are allowed."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    origin = np.asarray(origin, dtype=float)
    jac = np.vstack([e1, e2])
    zero2 = np.zeros((2, 2, 3))
    return AnalyticSurface(
        "flat-patch",
        lambda u, v: origin + u * e1 + v * e2,
        lambda u, v: jac.copy(),
        lambda u, v: zero2.copy(),
    )


def cylinder_surface(radius: float) -> AnalyticSurface:
    """Arc-length parametrized cylinder of radius R; (u, v) = (arc, axial).

    The winding sense is chosen so the normal points toward the axis, which
    makes both principal curvatures non-negative: k = (1/R, 0).
    """
    R = float(radius)
    if not 0.0 < R < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {R}")

    def pos(u, v):
        return np.array([R * math.cos(u / R), -R * math.sin(u / R), v])

    def jac(u, v):
        return np.array([[-math.sin(u / R), -math.cos(u / R), 0.0],
                         [0.0, 0.0, 1.0]])

    def hess(u, v):
        out = np.zeros((2, 2, 3))
        out[0, 0] = [-math.cos(u / R) / R, math.sin(u / R) / R, 0.0]
        return out

    return AnalyticSurface("cylinder", pos, jac, hess)


def sphere_surface(radius: float) -> AnalyticSurface:
    """Sphere of radius R with (u, v) = (azimuth, polar angle), ordered so
    the normal points inward and k = (1/R, 1/R). Poles are singular."""
    R = float(radius)
    if not 0.0 < R < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {R}")

    def pos(u, v):
        return np.array([R * math.sin(v) * math.cos(u),
                         R * math.sin(v) * math.sin(u),
                         R * math.cos(v)])

    def jac(u, v):
        return np.array([
            [-R * math.sin(v) * math.sin(u), R * math.sin(v) * math.cos(u), 0.0],
            [R * math.cos(v) * math.cos(u), R * math.cos(v) * math.sin(u),
             -R * math.sin(v)],
        ])

    def hess(u, v):
        out = np.zeros((2, 2, 3))
        out[0, 0] = [-R * math.sin(v) * math.cos(u),
                     -R * math.sin(v) * math.sin(u), 0.0]
        out[0, 1] = [-R * math.cos(v) * math.sin(u),
                     R * math.cos(v) * math.cos(u), 0.0]
        out[1, 0] = out[0, 1]
        out[1, 1] = [-R * math.sin(v) * math.cos(u),
                     -R * math.sin(v) * math.sin(u), -R * math.cos(v)]
        return out

    return AnalyticSurface("sphere", pos, jac, hess,
                           singular=lambda u, v: abs(math.sin(v)) < 1e-12)


def cone_surface(half_angle: float, tip_offset: float = 0.0) -> AnalyticSurface:
    """Cone with apex half-angle alpha; (u, v) = (azimuth, slant distance).

    Principal curvatures at slant distance s: (cos(alpha)/(s sin(alpha)), 0).
    The apex s = 0 is singular; points with s < tip_offset are rejected so a
    truncated cone can exclude a neighborhood of the tip.
    """
    sa = math.sin(half_angle)
    ca = math.cos(half_angle)
    if not 0.0 < half_angle < 0.5 * math.pi:
        raise ValueError("half_angle must lie in (0, pi/2)")
    cut = max(float(tip_offset), 0.0)

    def pos(u, v):
        return np.array([v * sa * math.cos(u), -v * sa * math.sin(u), v * ca])

    def jac(u, v):
        return np.array([
            [-v * sa * math.sin(u), -v * sa * math.cos(u), 0.0],
            [sa * math.cos(u), -sa * math.sin(u), ca],
        ])

    def hess(u, v):
        out = np.zeros((2, 2, 3))
        out[0, 0] = [-v * sa * math.cos(u), v * sa * math.sin(u), 0.0]
        out[0, 1] = [-sa * math.sin(u), -sa * math.cos(u), 0.0]
        out[1, 0] = out[0, 1]
        return out

    return AnalyticSurface("cone", pos, jac, hess,
                           singular=lambda u, v: v <= cut or v <= 0.0)


def reparametrized(surface: AnalyticSurface, scale_u: float,
                   scale_v: float) -> AnalyticSurface:
    """Same surface under xi -> (scale_u * u, scale_v * v); changes all
    component values but no invariant."""
    su, sv = float(scale_u), float(scale_v)
    sc1 = np.array([su, sv])[:, None]
    sc2 = np.array([[su * su, su * sv], [su * sv, sv * sv]])[:, :, None]

    def sing(u, v):
        return surface.singular(su * u, sv * v) if surface.singular else False

    return AnalyticSurface(
        surface.name + "-reparam",
        lambda u, v: surface.position(su * u, sv * v),
        lambda u, v: sc1 * surface.jacobian(su * u, sv * v),
        lambda u, v: sc2 * surface.hessian(su * u, sv * v),
        singular=sing,
    )


def evaluate_geometry(surface: AnalyticSurface, xi,
                      reference: Optional[AnalyticSurface] = None
                      ) -> SurfacePointGeometry:
    """All pointwise geometry of `surface` at parameter point xi.

    With no reference the point is its own reference (J = 1). Otherwise the
    reference surface is evaluated at the same xi and J is the area stretch
    between the two parametrizations. The metric record comes from
    geometry_from_metrics; the embedding supplies the tangent vectors, the
    normal and the Christoffel symbols. Raises NotPositiveDefiniteError
    for a bad metric: `<surface>: metric at (u, v)` or `reference metric`.
    """
    u, v = float(xi[0]), float(xi[1])
    if surface.singular is not None and surface.singular(u, v):
        raise ValueError(f"{surface.name}: singular parametrization "
                         f"point ({u}, {v})")
    a_alpha = np.asarray(surface.jacobian(u, v), dtype=float)
    second = np.asarray(surface.hessian(u, v), dtype=float)
    # metric products and hessians are exactly symmetric: read each (0, 1)
    (a00, a01), (_, a11) = (a_alpha @ a_alpha.T).tolist()
    deta = a00 * a11 - a01 * a01
    if not (0.0 < deta < math.inf and a00 > 0.0):
        raise _st._not_positive_definite(
            deta, a00 + a11, f"{surface.name}: metric at ({u}, {v})")
    a_cov = _new(SurfTensor2, (a00, a11, a01))
    A_alpha, A_cov = a_alpha, a_cov
    if reference is not None:
        A_alpha = np.asarray(reference.jacobian(u, v), dtype=float)
        (A00, A01), (_, A11) = (A_alpha @ A_alpha.T).tolist()
        A_cov = _new(SurfTensor2, (A00, A11, A01))
    cr = np.cross(a_alpha[0], a_alpha[1])
    n = cr / np.linalg.norm(cr)
    (b00, b01), (_, b11) = np.einsum("abk,k->ab", second, n).tolist()
    g = geometry_from_metrics(A_cov, a_cov, _new(SurfTensor2, (b00, b11, b01)))
    gamma = np.einsum("gk,abk->gab", g.a_contra.as_matrix() @ a_alpha, second)
    return g._replace(A_alpha=A_alpha, a_alpha=a_alpha, gamma=gamma, n=n)


def geometry_from_metrics(A_cov, a_cov, b_cov) -> SurfacePointGeometry:
    """Geometry record built from metric data alone.

    Used by the derivative checks, which vary a_ab and b_ab independently;
    no embedding compatibility is implied. A_cov, a_cov and b_cov are
    SurfTensor2 triples (c11, c22, c12), held as given (anything else
    raises ValueError); a^ab and b^ab = a^-1 b a^-1 are float triples too.
    H is half the trace of t = a^-1 b and k1, k2 = H +- sqrt(h^2 + t12 t21)
    with h = (t11 - t22) / 2. The metrics determine no embedding, so
    A_alpha, a_alpha, gamma and n are None. Raises NotPositiveDefiniteError
    for a bad A_cov (`reference metric`) or a_cov (`metric`).
    """
    if not type(A_cov) is type(a_cov) is type(b_cov) is SurfTensor2:
        raise ValueError("A_cov, a_cov and b_cov must be SurfTensor2 (c11, "
                         "c22, c12) triples, got " + ", ".join(
                             type(x).__name__ for x in (A_cov, a_cov, b_cov)))
    (A00, A11, A01), (a00, a11, a01), (b00, b11, b01) = A_cov, a_cov, b_cov
    detA = A00 * A11 - A01 * A01
    if not (0.0 < detA < math.inf and A00 > 0.0):
        raise _st._not_positive_definite(detA, A00 + A11, "reference metric")
    deta = a00 * a11 - a01 * a01
    if not (0.0 < deta < math.inf and a00 > 0.0):
        raise _st._not_positive_definite(deta, a00 + a11, "metric")
    i00, i01, i11 = a11 / deta, -a01 / deta, a00 / deta
    t00, t01 = i00 * b00 + i01 * b01, i00 * b01 + i01 * b11
    t10, t11 = i01 * b00 + i11 * b01, i01 * b01 + i11 * b11
    # H = a^ab b_ab / 2 summed term by term, whose first two terms are t00
    H, h = 0.5 * (t00 + i01 * b01 + i11 * b11), 0.5 * (t00 - t11)
    kappa = (b00 * b11 - b01 * b01) / deta
    disc = math.sqrt(max(h * h + t01 * t10, 0.0))
    return _new(SurfacePointGeometry, (
        None, None, A_cov, a_cov, _new(SurfTensor2, (i00, i11, i01)), b_cov,
        _new(SurfTensor2, (t00 * i00 + t01 * i01, t10 * i01 + t11 * i11,
                           t00 * i01 + t01 * i11)), None, None,
        math.sqrt(deta / detA), H, kappa, H + disc, H - disc))


# the pairs (11, 22, 12) of a pair block's rows and columns, the position
# of (i, j) among them, and the flat index in the core's blocks of tangent
# entry [block, i, j, k, l] (no NumPy arithmetic at import: it costs 0.1 MB)
_PAIRS = ((0, 0), (1, 1), (0, 1))
_PAIR_OF = ((0, 2), (2, 1))
_BLOCK_TAKE = np.array([[[[[m + 3 * p + q for q in kl] for kl in _PAIR_OF]
                          for p in ij] for ij in _PAIR_OF]
                        for m in (0, 9, 18)])


def _bending_core(g: SurfacePointGeometry, c_bend: float, order: int):
    """The Canham model at g: (W, (tau, M0) as two float triples or None,
    pair blocks or None), up to order 0, 1 or 2. The blocks are one
    (3, 3, 3) array of c, d and f over the pairs (11, 22, 12), the
    symmetric 6x6 [[c, d], [d^T, f]] in block form. With a = a^ab,
    b = b^ab, s = J c_bend and sym4(o)^ijkl = (o^ikjl + o^iljk) / 2,
    c = s [(2H^2 - kappa) a(x)a - 4H (a(x)b + b(x)a) + 4 b(x)b
    - 2 (2H^2 + kappa) sym4(a(x)a) + 8H (sym4(a(x)b) + sym4(b(x)a))],
    d = s [4H a(x)a - a(x)b - 2 b(x)a - 4H sym4(a(x)a)] and
    f = s sym4(a(x)a), in that operation order, each single product plus
    0.0 so that a zero product is +0.0, as in an einsum outer product.
    """
    H, kappa = g.H, g.kappa_gauss
    s, hh = g.J * c_bend, 2.0 * H * H
    W = s * (hh - kappa)
    if order == 0:
        return W, None, None
    a00, a11, a01 = g.a_contra
    b00, b11, b01 = g.b_contra
    h, q = hh + kappa, 4.0 * H
    tau_m0 = ((s * (h * a00 - q * b00), s * (h * a11 - q * b11),
               s * (h * a01 - q * b01)), (s * b00, s * b11, s * b01))
    if order == 1:
        return W, tau_m0, None
    A, B = ((a00, a01), (a01, a11)), ((b00, b01), (b01, b11))
    k_aa, k_a4, k_s = hh - kappa, 2.0 * h, 8.0 * H
    c_t, d_t, f_t = [], [], []
    for i, j in _PAIRS:
        Ai, Aj, Bi, Bj = A[i], A[j], B[i], B[j]
        Aij, Bij = Ai[j], Bi[j]
        for k, l in _PAIRS:
            Akl, Bkl = A[k][l], B[k][l]
            x, y, z = Aij * Akl + 0.0, Aij * Bkl + 0.0, Bij * Akl + 0.0
            a4 = 0.5 * ((Ai[k] * Aj[l] + 0.0) + (Ai[l] * Aj[k] + 0.0))
            ab_s = (0.5 * ((Ai[k] * Bj[l] + 0.0) + (Ai[l] * Bj[k] + 0.0))
                    + 0.5 * ((Bi[k] * Aj[l] + 0.0) + (Bi[l] * Aj[k] + 0.0)))
            c_t.append(s * (k_aa * x - q * (y + z) + 4.0 * (Bij * Bkl + 0.0)
                            - k_a4 * a4 + k_s * ab_s))
            d_t.append(s * (q * x - y - 2.0 * z - q * a4))
            f_t.append(s * a4)
    return W, tau_m0, np.array(c_t + d_t + f_t).reshape(3, 3, 3)


def canham_energy(g: SurfacePointGeometry, c_bend: float) -> float:
    """Bending energy density per reference area, J (c/2)(k1^2 + k2^2),
    as J c (2H^2 - kappa): the form its stress and tangents differentiate."""
    return _bending_core(g, c_bend, 0)[0]


def bending_stress_moment(g: SurfacePointGeometry, c_bend: float):
    """Contravariant bending stress and moment, SurfTensor2 triples (tau, m0).

    tau_b = J c [(2H^2 + kappa) a^ab - 4 H b^ab], M0 = c J b^ab; both equal
    the (a, b)-partials of the bending energy.
    """
    tau, m0 = _bending_core(g, c_bend, 1)[1]
    return _new(SurfTensor2, tau), _new(SurfTensor2, m0)


class BendingTangents(NamedTuple):
    """The four bending moduli: c = 2 dtau/da, d = dtau/db, e = 2 dM0/da,
    f = dM0/db, all contravariant (2, 2, 2, 2) blocks. e equals the major
    transpose of d identically."""

    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray


def bending_tangents(g: SurfacePointGeometry, c_bend: float) -> BendingTangents:
    """The four bending moduli at g, expanded from the core's c, d and f
    pair blocks into one array that the three blocks view; e is the
    major-transpose view of d."""
    out = _bending_core(g, c_bend, 2)[2].take(_BLOCK_TAKE)
    return BendingTangents(out[0], out[1], out[1].transpose(2, 3, 0, 1),
                           out[2])
