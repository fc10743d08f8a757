"""Surface kinematics on analytically parametrized surfaces and the
squared-curvature (Canham) bending model.

Geometry records carry both metrics with inverses, curvature components
and the scalar curvature invariants; a record evaluated on a surface also
carries its embedding: tangent vectors, normal and Christoffel symbols.
Bending energy, stress, moment, and the four bending tangents are
analytic; every derivative is validated elsewhere against central
differences that treat (a_ab, b_ab) as independent inputs.
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
    SurfTensor2 components, *_contra upper-index ones. The embedding
    fields, A_alpha and a_alpha (tangent vectors as rows), gamma[g][a][b]
    (the current surface's Christoffel symbols of the second kind) and
    n, are None in a record built from metrics alone.
    """

    A_alpha: Optional[np.ndarray]
    a_alpha: Optional[np.ndarray]
    A_cov: SurfTensor2
    A_contra: SurfTensor2
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
    raises ValueError); A^ab, a^ab and b^ab = a^-1 b a^-1 are triples too,
    all closed-form 2x2 arithmetic on plain floats. The metrics determine
    no embedding, so A_alpha, a_alpha, gamma and n are None. Raises
    NotPositiveDefiniteError for a bad A_cov (`reference metric`) or a_cov
    (`metric`).
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
    H = 0.5 * (i00 * b00 + i01 * b01 + i01 * b01 + i11 * b11)
    kappa = (b00 * b11 - b01 * b01) / deta
    disc = math.sqrt(max(H * H - kappa, 0.0))
    t00, t01 = i00 * b00 + i01 * b01, i00 * b01 + i01 * b11
    t10, t11 = i01 * b00 + i11 * b01, i01 * b01 + i11 * b11
    return _new(SurfacePointGeometry, (
        None, None, A_cov,
        _new(SurfTensor2, (A11 / detA, A00 / detA, -A01 / detA)), a_cov,
        _new(SurfTensor2, (i00, i11, i01)), b_cov,
        _new(SurfTensor2, (t00 * i00 + t01 * i01, t10 * i01 + t11 * i11,
                           t00 * i01 + t01 * i11)), None, None,
        math.sqrt(deta / detA), H, kappa, H + disc, H - disc))


def canham_energy(g: SurfacePointGeometry, c_bend: float) -> float:
    """Bending energy density per reference area: J (c/2)(k1^2 + k2^2)."""
    return g.J * 0.5 * c_bend * (g.k1 * g.k1 + g.k2 * g.k2)


def bending_stress_moment(g: SurfacePointGeometry, c_bend: float):
    """Contravariant bending stress and moment, SurfTensor2 triples (tau, m0).

    tau_b = J c [(2H^2 + kappa) a^ab - 4 H b^ab], M0 = c J b^ab; both equal
    the (a, b)-partials of the bending energy.
    """
    a00, a11, a01 = g.a_contra
    b00, b11, b01 = g.b_contra
    h = 2.0 * g.H * g.H + g.kappa_gauss
    q, s = 4.0 * g.H, g.J * c_bend
    return (_new(SurfTensor2, (s * (h * a00 - q * b00),
                               s * (h * a11 - q * b11),
                               s * (h * a01 - q * b01))),
            _new(SurfTensor2, (s * b00, s * b11, s * b01)))


# flat index 8a + 4b + 2g + d of [a, b, g, d] -> the flat indices of
# [a, g, b, d] and [a, d, b, g]
_SYM4 = tuple((8 * a + 4 * g + 2 * b + d, 8 * a + 4 * d + 2 * b + g)
              for a in (0, 1) for b in (0, 1) for g in (0, 1) for d in (0, 1))


class BendingTangents(NamedTuple):
    """The four bending moduli: c = 2 dtau/da, d = dtau/db, e = 2 dM0/da,
    f = dM0/db, all contravariant (2, 2, 2, 2) blocks. e equals the major
    transpose of d identically."""

    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray


def bending_tangents(g: SurfacePointGeometry, c_bend: float) -> BendingTangents:
    """The four bending moduli at g. Each of the 48 entries of c, d and f
    is formed in float arithmetic, in the operation order of the
    outer-product form, and the three blocks are views of one array; e is
    the major-transpose view of d."""
    a00, a11, a01 = g.a_contra
    b00, b11, b01 = g.b_contra
    au, bu = (a00, a01, a01, a11), (b00, b01, b01, b11)
    H, kappa, pref = g.H, g.kappa_gauss, g.J * c_bend
    # the four outer products, flat; + 0.0 makes every zero product +0.0,
    # the sign an einsum outer product gives
    aa = [x * y + 0.0 for x in au for y in au]
    ab = [x * y + 0.0 for x in au for y in bu]
    ba = [x * y + 0.0 for x in bu for y in au]
    bb = [x * y + 0.0 for x in bu for y in bu]
    k_aa, k_ab = 2.0 * H * H - kappa, 4.0 * H
    k_a4, k_s = 2.0 * (2.0 * H * H + kappa), 8.0 * H
    c_t, d_t, f_t = [], [], []
    for x, y, z, w, (i, j) in zip(aa, ab, ba, bb, _SYM4):
        # sym4(o) = (o^{agbd} + o^{adbg}) / 2 of o = x (x) y
        a4 = 0.5 * (aa[i] + aa[j])
        ab_s = 0.5 * (ab[i] + ab[j]) + 0.5 * (ba[i] + ba[j])
        c_t.append(pref * (k_aa * x - k_ab * (y + z) + 4.0 * w - k_a4 * a4
                           + k_s * ab_s))
        d_t.append(pref * (k_ab * x - y - 2.0 * z - k_ab * a4))
        f_t.append(pref * a4)
    out = np.array(c_t + d_t + f_t).reshape(3, 2, 2, 2, 2)
    return BendingTangents(out[0], out[1], out[1].transpose(2, 3, 0, 1),
                           out[2])
