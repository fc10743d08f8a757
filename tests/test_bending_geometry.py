"""Surface geometry evaluation and the curvature-quadratic bending model.

The bending calls take and give SurfTensor2 triples; the reference forms
here stay NumPy code on 2x2 arrays, so the tests convert at the call
boundary: `tri` turns a symmetric 2x2 into the triple a call takes, and
`as_matrices` a record's five triples into the 2x2 arrays the reference
forms read."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmem import bending_geometry as bg
from gmem import scenarios as sc
from gmem.surface_tensors import (_PAIR_TAKE, NotPositiveDefiniteError,
                                  SurfTensor2)

CB = 0.238

A0 = np.array([[1.1, 0.1], [0.1, 0.9]])
a0 = np.array([[1.3, -0.2], [-0.2, 0.8]])
b0 = np.array([[0.35, 0.22], [0.22, -0.15]])
SYMMETRIC_FIELDS = ("A_cov", "a_cov", "a_contra", "b_cov", "b_contra")


def tri(m):
    """The SurfTensor2 (c11, c22, c12) of a symmetric 2x2, Python floats."""
    (m00, m01), (_, m11) = np.asarray(m, dtype=float).tolist()
    return SurfTensor2(m00, m11, m01)


def metrics_record(A, a, b):
    """geometry_from_metrics on the triples of three symmetric 2x2s."""
    return bg.geometry_from_metrics(tri(A), tri(a), tri(b))


def as_matrices(g):
    """g with its five symmetric triples as 2x2 arrays."""
    return g._replace(**{f: getattr(g, f).as_matrix()
                         for f in SYMMETRIC_FIELDS})


def pair_of(t4):
    return np.array([
        [t4[0, 0, 0, 0], t4[0, 0, 1, 1], t4[0, 0, 0, 1]],
        [t4[1, 1, 0, 0], t4[1, 1, 1, 1], t4[1, 1, 0, 1]],
        [t4[0, 1, 0, 0], t4[0, 1, 1, 1], t4[0, 1, 0, 1]],
    ])


def test_flat_patch_geometry():
    g = bg.evaluate_geometry(bg.flat_patch(), (0.7, -0.3))
    assert g.J == 1.0
    assert g.H == 0.0 and g.kappa_gauss == 0.0
    assert np.all(g.b_cov.as_matrix() == 0.0)
    assert np.all(g.gamma == 0.0)
    np.testing.assert_allclose(g.n, [0.0, 0.0, 1.0])
    assert bg.canham_energy(g, CB) == 0.0


def test_flat_patch_degenerate_basis_rejected():
    bad = bg.flat_patch(e1=(1.0, 0.0, 0.0), e2=(2.0, 0.0, 0.0))
    with pytest.raises(NotPositiveDefiniteError, match=r"^flat-patch: metric "
                       r"at \(0\.0, 0\.5\) is not positive definite: "
                       r"det=0\.0, tr=5\.0$"):
        bg.evaluate_geometry(bad, (0.0, 0.5))
    with pytest.raises(NotPositiveDefiniteError, match=r"^reference metric is "
                       r"not positive definite: det=0\.0, tr=5\.0$"):
        bg.evaluate_geometry(bg.flat_patch(), (0.0, 0.5), reference=bad)


def test_cylinder_curvatures():
    g = bg.evaluate_geometry(bg.cylinder_surface(2.0), (0.4, 1.7))
    assert g.H == pytest.approx(0.25, rel=1e-13)
    assert abs(g.kappa_gauss) < 1e-14
    assert g.k1 == pytest.approx(0.5, rel=1e-13)
    assert abs(g.k2) < 1e-13
    # arc-length coordinates: unit metric, flat connection
    np.testing.assert_allclose(g.a_cov.as_matrix(), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(g.gamma, 0.0, atol=1e-14)


def test_cylinder_closed_forms_against_flat_reference():
    g = bg.evaluate_geometry(bg.cylinder_surface(1.0), (0.9, 0.4),
                             reference=bg.flat_patch())
    assert g.J == pytest.approx(1.0, rel=1e-13)
    assert bg.canham_energy(g, CB) == pytest.approx(0.5 * CB, rel=1e-12)
    tau, m0 = bg.bending_stress_moment(g, CB)
    np.testing.assert_allclose(m0.as_matrix(), np.diag([CB, 0.0]),
                               atol=1e-13)
    np.testing.assert_allclose(tau.as_matrix(), np.diag([-1.5 * CB, 0.5 * CB]),
                               atol=1e-13)


def test_sphere_curvatures_and_isotropic_stress():
    r = 2.0
    g = bg.evaluate_geometry(bg.sphere_surface(r), (0.7, 1.0))
    assert g.H == pytest.approx(1.0 / r, rel=1e-12)
    assert g.kappa_gauss == pytest.approx(1.0 / r ** 2, rel=1e-12)
    tau, m0 = bg.bending_stress_moment(g, CB)
    # an umbilic point: mixed components are isotropic
    a_cov = g.a_cov.as_matrix()
    np.testing.assert_allclose(tau.as_matrix() @ a_cov,
                               -(CB / r ** 2) * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(m0.as_matrix() @ a_cov, (CB / r) * np.eye(2),
                               atol=1e-14)


def test_sphere_christoffel_symbols():
    g = bg.evaluate_geometry(bg.sphere_surface(2.0), (0.7, 1.0))
    cot = math.cos(1.0) / math.sin(1.0)
    assert g.gamma[0, 0, 1] == pytest.approx(cot, rel=1e-12)
    assert g.gamma[0, 1, 0] == pytest.approx(cot, rel=1e-12)
    assert g.gamma[1, 0, 0] == pytest.approx(-math.sin(1.0) * math.cos(1.0),
                                             rel=1e-12)


def test_sphere_pole_is_singular():
    s = bg.sphere_surface(1.0)
    with pytest.raises(ValueError):
        bg.evaluate_geometry(s, (0.3, 0.0))
    with pytest.raises(ValueError):
        bg.evaluate_geometry(s, (0.3, math.pi))


@pytest.mark.parametrize("surface", [bg.cylinder_surface, bg.sphere_surface])
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_bad_radius_is_rejected_at_construction(surface, radius):
    """A radius that is not finite and > 0 raises ValueError when the
    surface is built, before any evaluation: no ZeroDivisionError at 0,
    no curvatures (0, -1) at -1, no NumPy warning at inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            surface(radius)


def test_cone_curvature_and_apex_guard():
    alpha = math.pi / 6.0
    g = bg.evaluate_geometry(bg.cone_surface(alpha), (0.3, 2.0))
    assert g.k1 == pytest.approx(
        math.cos(alpha) / (2.0 * math.sin(alpha)), rel=1e-12)
    assert abs(g.k2) < 1e-13
    with pytest.raises(ValueError):
        bg.evaluate_geometry(bg.cone_surface(alpha), (0.3, 0.0))
    trunc = bg.cone_surface(alpha, tip_offset=0.5)
    with pytest.raises(ValueError):
        bg.evaluate_geometry(trunc, (0.3, 0.4))
    bg.evaluate_geometry(trunc, (0.3, 0.6))
    with pytest.raises(ValueError):
        bg.cone_surface(0.0)
    with pytest.raises(ValueError):
        bg.cone_surface(math.pi / 2.0)


SURFACES = [
    bg.flat_patch((1.0, 0.3, -0.2), (0.4, 1.1, 0.5), (0.1, -0.2, 0.3)),
    bg.cylinder_surface(1.5),
    bg.sphere_surface(2.0),
    bg.cone_surface(0.6),
    bg.reparametrized(bg.sphere_surface(2.0), 0.7, 1.3),
    bg.reparametrized(bg.cone_surface(0.6), 1.4, 0.8),
]


def central_rows(f, u, v, h=1e-6):
    """Central differences of f in u and in v, stacked along a new axis 0."""
    return np.array([(f(u + h, v) - f(u - h, v)) / (2.0 * h),
                     (f(u, v + h) - f(u, v - h)) / (2.0 * h)])


def max_rel(x, ref):
    return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-12)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
def test_analytic_surface_derivatives_match_differences(surface):
    for u, v in ((0.3, 0.8), (-1.1, 1.9), (2.5, 0.6)):
        assert surface.singular is None or not surface.singular(u, v)
        jac = surface.jacobian(u, v)
        assert max_rel(central_rows(surface.position, u, v), jac) < 1e-8
        hess = surface.hessian(u, v)
        assert max_rel(central_rows(surface.jacobian, u, v), hess) < 1e-8


def test_reparametrization_leaves_invariants_alone():
    base = bg.evaluate_geometry(bg.cylinder_surface(1.5), (0.8, 0.6))
    rep = bg.reparametrized(bg.cylinder_surface(1.5), 2.0, 0.5)
    g = bg.evaluate_geometry(rep, (0.4, 1.2))  # same surface point
    for name in ("H", "kappa_gauss", "k1", "k2"):
        assert getattr(g, name) == pytest.approx(getattr(base, name),
                                                 rel=1e-12, abs=1e-13)
    assert bg.canham_energy(g, CB) == pytest.approx(
        bg.canham_energy(base, CB), rel=1e-12)


def test_geometry_from_metrics_basics():
    g = metrics_record(np.eye(2), np.eye(2), np.diag([0.2, -0.1]))
    assert g.J == 1.0
    assert g.H == pytest.approx(0.05)
    assert g.kappa_gauss == pytest.approx(-0.02)
    m = as_matrices(g)
    np.testing.assert_allclose(m.b_contra, m.a_contra @ m.b_cov @ m.a_contra)
    with pytest.raises(ValueError):
        metrics_record(np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 2)))


@pytest.mark.parametrize("position", ["A_cov", "a_cov", "b_cov"])
@pytest.mark.parametrize("old", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]],
                                 (1.0, 1.0, 0.0), None],
                         ids=["array", "nested-list", "plain-tuple", "None"])
def test_geometry_from_metrics_takes_triples_only(position, old):
    """A 2x2 array, or anything else that is not a SurfTensor2, fails with
    one ValueError naming the (c11, c22, c12) form and the three types."""
    args = {"A_cov": tri(A0), "a_cov": tri(a0), "b_cov": tri(b0)}
    args[position] = old
    got = ", ".join(type(x).__name__ for x in args.values())
    with pytest.raises(ValueError) as err:
        bg.geometry_from_metrics(**args)
    assert str(err.value) == ("A_cov, a_cov and b_cov must be SurfTensor2 "
                              f"(c11, c22, c12) triples, got {got}")


def test_bending_stress_moment_frozen_state():
    g = metrics_record(A0, a0, b0)
    tau, m0 = bg.bending_stress_moment(g, CB)
    assert type(tau) is SurfTensor2 and type(m0) is SurfTensor2
    np.testing.assert_allclose(
        [tau.c11, tau.c22, tau.c12],
        [-0.0405185139816123069, -0.0164520604377161373,
         -0.0253107161127314215], rtol=1e-13)
    np.testing.assert_allclose(
        [m0.c11, m0.c22, m0.c12],
        [0.0693360625360281041, -0.0300760798309886124,
         0.0612099914066322999], rtol=1e-13)


def test_bending_tangents_frozen_state():
    g = metrics_record(A0, a0, b0)
    t = bg.bending_tangents(g, CB)
    c_want = np.array([
        [0.1626433617381, -0.009992374826534, 0.1034210361797],
        [-0.009992374826534, 0.1049015859041, 0.01280734924477],
        [0.1034210361797, 0.01280734924477, 0.1086259049462],
    ])
    d_want = np.array([
        [-0.1664065500865, -0.0730288569901, -0.07670241813972],
        [0.04116888817153, 0.1172967113409, -0.06754255689623],
        [-0.1118031987578, -0.153130761691, -0.07831801571337],
    ])
    f_want = np.array([
        [0.1538664355862, 0.009616652224137, 0.03846660889655],
        [0.009616652224137, 0.4063035564698, 0.06250823945689],
        [0.03846660889655, 0.06250823945689, 0.1298248050259],
    ])
    np.testing.assert_allclose(pair_of(t.c), c_want, rtol=1e-11)
    np.testing.assert_allclose(pair_of(t.d), d_want, rtol=1e-11)
    np.testing.assert_allclose(pair_of(t.e), d_want.T, rtol=1e-11)
    np.testing.assert_allclose(pair_of(t.f), f_want, rtol=1e-11)


def test_moment_stretch_tangent_is_stress_curvature_transpose():
    g = metrics_record(A0, a0, b0)
    t = bg.bending_tangents(g, CB)
    assert np.array_equal(t.e, t.d.transpose(2, 3, 0, 1))


def test_bending_tangent_symmetries():
    """Exactly, on 1,000 of verify's bending draws, each also with a
    near-umbilic curvature and with b = 0: c and f, the second-derivative
    blocks of one variable, carry major symmetry, and all four blocks both
    minor symmetries."""
    rng = np.random.default_rng(0)
    for state in [sc._bending_state(rng) for _ in range(1000)]:
        A, a, b = (SurfTensor2(*state[k]) for k in ("a_ref", "a_cur", "b_cur"))
        for curv in (b, tri(near_umbilic(a.as_matrix(), rng)),
                     SurfTensor2(0.0, 0.0, 0.0)):
            t = bg.bending_tangents(bg.geometry_from_metrics(A, a, curv), CB)
            for q in (t.c, t.f):
                assert np.array_equal(q, q.transpose(2, 3, 0, 1))
            for q in t:
                assert np.array_equal(q, q.transpose(1, 0, 2, 3))
                assert np.array_equal(q, q.transpose(0, 1, 3, 2))


def test_metric_identities_on_curved_surfaces():
    for surf, xi in ((bg.sphere_surface(1.7), (0.5, 1.1)),
                     (bg.cone_surface(0.6, 0.1), (1.0, 1.5)),
                     (bg.cylinder_surface(0.8), (0.2, -0.4))):
        g = bg.evaluate_geometry(surf, xi)
        np.testing.assert_allclose(g.a_cov.as_matrix() @ g.a_contra.as_matrix(),
                                   np.eye(2), atol=1e-12)
        assert np.linalg.norm(g.n) == pytest.approx(1.0, rel=1e-13)
        # tangent vectors are orthogonal to the normal
        np.testing.assert_allclose(g.a_alpha @ g.n, 0.0, atol=1e-12)
        # curvature scalars are consistent with the principal values
        assert g.H == pytest.approx(0.5 * (g.k1 + g.k2), rel=1e-11,
                                    abs=1e-13)
        assert g.kappa_gauss == pytest.approx(g.k1 * g.k2, rel=1e-10,
                                              abs=1e-13)


def geometry_from_metrics_linalg(A_cov, a_cov, b_cov):
    """The np.linalg construction that geometry_from_metrics replaced by
    closed-form 2x2 arithmetic, kept as its reference."""
    A_cov = np.asarray(A_cov, dtype=float)
    a_cov = np.asarray(a_cov, dtype=float)
    b_cov = np.asarray(b_cov, dtype=float)
    for m in (A_cov, a_cov):
        if not (np.linalg.det(m) > 0.0 and m[0, 0] > 0.0):
            raise ValueError("metric must be positive definite")
    a_contra = np.linalg.inv(a_cov)
    J = math.sqrt(np.linalg.det(a_cov) / np.linalg.det(A_cov))
    H = 0.5 * float(np.sum(a_contra * b_cov))
    kappa = float(np.linalg.det(b_cov) / np.linalg.det(a_cov))
    disc = math.sqrt(max(H * H - kappa, 0.0))
    return bg.SurfacePointGeometry(
        None, None, A_cov, a_cov, a_contra, b_cov,
        a_contra @ b_cov @ a_contra, None, None, J, H, kappa, H + disc,
        H - disc)


def rotated_metric(l1, l2, phi):
    """Symmetric matrix with eigenvalues l1, l2, the first along phi."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[l1 * c * c + l2 * s * s, (l1 - l2) * s * c],
                     [(l1 - l2) * s * c, l1 * s * s + l2 * c * c]])


def near_umbilic(a, rng):
    """A curvature whose principal curvatures nearly coincide: b = k a, k
    uniform in (-2, 2), plus a seeded symmetric direction of relative size
    1e-4, 1e-8 or 1e-12."""
    k = rng.uniform(-2.0, 2.0)
    rel = 10.0 ** -rng.choice([4, 8, 12])
    d11, d22, d12 = rng.uniform(-1.0, 1.0, size=3)
    return k * a + rel * abs(k) * np.array([[d11, d12], [d12, d22]])


def spd_metric(scale, log_ratio, phi):
    """Eigenvalues scale and scale * 10**-log_ratio; det / tr^2 is about
    10**-log_ratio."""
    return rotated_metric(scale, scale * 10.0 ** -log_ratio, phi)


def skew_metric(l1, l2, theta):
    """Gram matrix of tangent vectors of lengths l1, l2 at angle theta."""
    off = l1 * l2 * math.cos(theta)
    return np.array([[l1 * l1, off], [off, l2 * l2]])


metrics = st.one_of(
    st.builds(spd_metric, st.floats(0.05, 20.0), st.floats(0.0, 8.0),
              st.floats(0.0, math.pi)),
    st.builds(skew_metric, st.floats(0.2, 5.0), st.floats(0.2, 5.0),
              st.floats(1e-4, math.pi - 1e-4)))
curvatures = st.builds(lambda x, y, z: np.array([[x, y], [y, z]]),
                       *[st.floats(-2.0, 2.0)] * 3)


def condition(m):
    lo, hi = np.linalg.eigvalsh(m)
    return hi / lo


def norm(x):
    """Frobenius norm without squaring the entries, which np.linalg.norm
    does: a curvature below about 1e-154 squares to 0 there."""
    return math.hypot(*np.ravel(x))


def assert_rel(x, y, tol, scale=None, floor=0.0):
    """norm(x - y) <= tol * scale + floor; scale defaults to norm(y)."""
    x, y = np.asarray(x), np.asarray(y)
    scale = norm(y) if scale is None else scale
    bound = tol * scale + floor
    assert norm(x - y) <= bound, (x, y, bound)


@settings(deadline=None, max_examples=400)
@given(metrics, metrics, curvatures)
@example(spd_metric(1.0, 0.0, 0.0), skew_metric(3.0, 0.25, 1e-4),
         np.diag([0.0, 1.075e-172]))
@example(spd_metric(1.0, 0.0, 0.0), spd_metric(1.0, 0.5, 0.5),
         np.diag([0.0, 2.2250738585e-313]))
def test_closed_form_geometry_matches_linalg_construction(A, a, b):
    """Every field agrees with the np.linalg construction to 1e-13 relative,
    scaled by the condition number of the metric the field depends on: the
    two constructions round differently, and an inverse (or a determinant)
    magnifies a rounding difference by up to that factor. Curvature scalars
    are compared on the scale of their terms, which can cancel. The
    reference forms the principal curvatures as H -+ sqrt(H^2 - kappa),
    and near an umbilic point its square root magnifies a difference d of
    its argument to at most sqrt(d); so this check bounds k1 and k2 only
    that loosely there, and
    test_principal_curvatures_keep_their_digits_at_umbilic_points guards
    the shipped mixed-curvature form. The four embedding fields are left
    out: the metrics determine no embedding.

    b_contra and kappa also have absolute floors. Where a result is
    subnormal, a rounding errs by up to half the subnormal step 2**-1074,
    which no relative bound can express. Each b_contra entry is
    (a^-1 b) a^-1: three roundings (two products, one sum) in each entry
    of a^-1 b, carried into the result by two entries of a^-1, then three
    more; the np.linalg construction rounds as often. Two constructions of
    one entry so differ by at most 3 (2 |a^-1| + 1) steps, and the norm
    over the 2x2 entries by twice that. kappa = det b / det a takes three
    roundings before its division, so two constructions differ by at most
    3 / det a + 1 steps, and H^2 - kappa, under the principal curvatures'
    square root, by two steps more."""
    g = as_matrices(metrics_record(A, a, b))
    r = geometry_from_metrics_linalg(A, a, b)
    tA = 1e-13 * condition(A)
    ta = 1e-13 * condition(a)
    for name in ("A_cov", "a_cov", "b_cov"):
        assert np.array_equal(getattr(g, name), getattr(r, name)), name
    assert_rel(g.a_contra, r.a_contra, ta)
    assert_rel(g.J, r.J, tA + ta)
    s_h = norm(r.a_contra) * norm(b)
    s_k = s_h * s_h
    step = 2.0 ** -1074
    assert_rel(g.b_contra, r.b_contra, ta, norm(r.a_contra) * s_h,
               6.0 * (2.0 * norm(r.a_contra) + 1.0) * step)
    assert_rel(g.H, r.H, ta, s_h)
    floor_k = (3.0 / np.linalg.det(a) + 1.0) * step
    assert_rel(g.kappa_gauss, r.kappa_gauss, ta, s_k, floor_k)
    # H^2 - kappa: kappa's floor, and one step for each side's H^2 and
    # difference roundings
    d_q = ta * (2.0 * abs(r.H) * s_h + s_k) + floor_k + 2.0 * step
    disc = 0.5 * (r.k1 - r.k2)
    d_disc = d_q / max(disc, math.sqrt(d_q), 1e-300)
    assert_rel(g.k1, r.k1, 1.0, ta * s_h + d_disc)
    assert_rel(g.k2, r.k2, 1.0, ta * s_h + d_disc)


def test_principal_curvatures_keep_their_digits_at_umbilic_points():
    """At 2,000 exact umbilic states, b = k a with k = +-2**j (so b is
    exact) and a seeded SPD a of condition up to 25, k1 and k2 read k to
    8 eps |k| in float arithmetic alone. The mixed curvature t = a^-1 b
    reads at most 4 eps |k| on these states; H -+ sqrt(H^2 - kappa),
    whose argument cancels, reads up to 3.7e-8 |k|."""
    rng = np.random.default_rng(19)
    eps = np.finfo(float).eps
    for _ in range(2000):
        a = rotated_metric(*rng.uniform(0.2, 5.0, size=2),
                           rng.uniform(0.0, math.pi))
        k = math.ldexp(rng.choice([-1.0, 1.0]), int(rng.integers(-6, 7)))
        g = metrics_record(A0, a, k * a)
        assert abs(g.k1 - k) <= 8.0 * eps * abs(k), (a, k, g.k1)
        assert abs(g.k2 - k) <= 8.0 * eps * abs(k), (a, k, g.k2)


@settings(deadline=None, max_examples=200)
@given(st.floats(0.05, 20.0), st.floats(-20.0, -1e-3), st.floats(0.0, math.pi),
       st.booleans(), curvatures)
def test_non_positive_definite_metric_is_rejected(l1, l2, phi, as_reference,
                                                  b):
    for bad in (rotated_metric(l1, l2, phi), rotated_metric(-l1, l2, phi),
                np.zeros((2, 2))):
        args = (bad, A0, b) if as_reference else (A0, bad, b)
        with pytest.raises(ValueError):
            geometry_from_metrics_linalg(*args)
        with pytest.raises(ValueError):
            metrics_record(*args)
    # exactly singular: the closed-form determinant is exactly 0, where the
    # LU determinant of the reference may round to either sign
    rank_one = np.full((2, 2), l1)
    with pytest.raises(ValueError):
        metrics_record(*((rank_one, A0, b) if as_reference
                         else (A0, rank_one, b)))


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)])
@pytest.mark.parametrize("as_reference", [False, True])
def test_infinite_metric_entry_is_rejected(entry, as_reference):
    """An inf entry makes det non-finite, which fails the rule
    0 < det < inf: the record is never built with J = inf or J = 0."""
    bad = A0.copy()
    bad[entry] = bad[entry[::-1]] = math.inf
    args = (bad, A0, b0) if as_reference else (A0, bad, b0)
    what = "reference metric" if as_reference else "metric"
    with pytest.raises(NotPositiveDefiniteError,
                       match=f"^{what} is not positive definite: det="):
        metrics_record(*args)


# The forms that geometry_from_metrics, bending_stress_moment and
# bending_tangents replaced, kept as their references: the rewrites must
# give the same bits, signed zeros included.

def _det_inv2(m):
    """Determinant and inverse of a positive-definite 2x2 matrix given as
    nested lists, in closed form; ValueError unless det > 0 and m00 > 0."""
    (m00, m01), (m10, m11) = m
    det = m00 * m11 - m01 * m10
    if not (det > 0.0 and m00 > 0.0):
        raise ValueError("metric must be positive definite")
    return det, ((m11 / det, -m01 / det), (-m10 / det, m00 / det))


def _sandwich2(p, b):
    (p00, p01), (_, p11) = p
    (b00, b01), (_, b11) = b
    t00 = p00 * b00 + p01 * b01
    t01 = p00 * b01 + p01 * b11
    t10 = p01 * b00 + p11 * b01
    t11 = p01 * b01 + p11 * b11
    c01 = t00 * p01 + t01 * p11
    return [[t00 * p00 + t01 * p01, c01], [c01, t10 * p01 + t11 * p11]]


def _curvature_scalars(det_a, a_inv, b):
    (i00, i01), (i10, i11) = a_inv
    (b00, b01), (b10, b11) = b
    H = 0.5 * (i00 * b00 + i01 * b01 + i10 * b10 + i11 * b11)
    kappa = (b00 * b11 - b01 * b10) / det_a
    t00, t01 = i00 * b00 + i01 * b10, i00 * b01 + i01 * b11
    t10, t11 = i10 * b00 + i11 * b10, i10 * b01 + i11 * b11
    h = 0.5 * (t00 - t11)
    disc = math.sqrt(max(h * h + t01 * t10, 0.0))
    return H, kappa, H + disc, H - disc


def geometry_from_metrics_helpers(A_cov, a_cov, b_cov):
    A_cov = np.asarray(A_cov, dtype=float)
    a_cov = np.asarray(a_cov, dtype=float)
    b_cov = np.asarray(b_cov, dtype=float)
    A, a, b = A_cov.tolist(), a_cov.tolist(), b_cov.tolist()
    detA, _ = _det_inv2(A)
    deta, a_inv = _det_inv2(a)
    H, kappa, k1, k2 = _curvature_scalars(deta, a_inv, b)
    return bg.SurfacePointGeometry(
        None, None, A_cov, a_cov, np.array(a_inv), b_cov,
        np.array(_sandwich2(a_inv, b)), None, None, math.sqrt(deta / detA),
        H, kappa, k1, k2)


def bending_stress_moment_numpy(g, c_bend):
    h = 2.0 * g.H * g.H + g.kappa_gauss
    tau = g.J * c_bend * (h * g.a_contra - 4.0 * g.H * g.b_contra)
    m0 = c_bend * g.J * g.b_contra
    return tau, m0


def bending_tangents_einsum(g, c_bend):
    au, bu, H, kappa = g.a_contra, g.b_contra, g.H, g.kappa_gauss
    pref = g.J * c_bend

    def ot(x, y):
        return np.einsum("ab,gd->abgd", x, y)

    def sym4(x, y):
        return 0.5 * (np.einsum("ag,bd->abgd", x, y)
                      + np.einsum("ad,bg->abgd", x, y))

    a4 = sym4(au, au)
    ab_s = sym4(au, bu) + sym4(bu, au)
    c_t = pref * ((2.0 * H * H - kappa) * ot(au, au)
                  - 4.0 * H * (ot(au, bu) + ot(bu, au))
                  + 4.0 * ot(bu, bu)
                  - 2.0 * (2.0 * H * H + kappa) * a4
                  + 8.0 * H * ab_s)
    d_t = pref * (4.0 * H * ot(au, au) - ot(au, bu) - 2.0 * ot(bu, au)
                  - 4.0 * H * a4)
    return bg.BendingTangents(c_t, d_t, d_t.transpose(2, 3, 0, 1), pref * a4)


def bending_tangents_outer(g, c_bend):
    """The outer-product form that the float form of bending_tangents
    replaced: sym4 averages two transposed views of an outer product."""
    au, bu, H, kappa = g.a_contra, g.b_contra, g.H, g.kappa_gauss
    pref = g.J * c_bend
    aa = np.multiply.outer(au, au) + 0.0
    ab = np.multiply.outer(au, bu) + 0.0
    ba = np.multiply.outer(bu, au) + 0.0
    bb = np.multiply.outer(bu, bu) + 0.0

    def sym4(o):
        return 0.5 * (o.transpose(0, 2, 1, 3) + o.transpose(0, 2, 3, 1))

    a4 = sym4(aa)
    ab_s = sym4(ab) + sym4(ba)
    c_t = pref * ((2.0 * H * H - kappa) * aa
                  - 4.0 * H * (ab + ba)
                  + 4.0 * bb
                  - 2.0 * (2.0 * H * H + kappa) * a4
                  + 8.0 * H * ab_s)
    d_t = pref * (4.0 * H * aa - ab - 2.0 * ba - 4.0 * H * a4)
    return bg.BendingTangents(c_t, d_t, d_t.transpose(2, 3, 0, 1), pref * a4)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype and x.shape == y.shape
            and x.tobytes() == y.tobytes())


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
# symmetric, with signed zeros: a triple holds one off-diagonal entry
square = st.builds(lambda x, y, z: np.array([[x, y], [y, z]]),
                   *[signed] * 3)
diagonal = st.builds(lambda x, y: np.diag([x, y]), st.floats(0.1, 5.0),
                     st.floats(0.1, 5.0))
any_metric = st.one_of(metrics, diagonal)
any_curvature = st.one_of(curvatures, square)
SHAPES = {"A_alpha": (2, 3), "a_alpha": (2, 3), "gamma": (2, 2, 2),
          "n": (3,)}


@settings(deadline=None, max_examples=400)
@given(any_metric, any_metric, any_curvature)
def test_geometry_from_metrics_matches_helper_form_bitwise(A, a, b):
    """Symmetric metrics and curvatures, signed zeros included; every field
    but the four embedding ones has the helper form's bits, the five
    symmetric fields as 2x2s. The given triples are stored as they are and
    every symmetric field is a SurfTensor2 of Python floats."""
    given_ = tri(A), tri(a), tri(b)
    g = bg.geometry_from_metrics(*given_)
    assert (g.A_cov, g.a_cov, g.b_cov) == given_
    assert g.A_cov is given_[0] and g.a_cov is given_[1]
    assert g.b_cov is given_[2]
    for name in SYMMETRIC_FIELDS:
        x = getattr(g, name)
        assert type(x) is SurfTensor2, name
        assert all(type(c) is float for c in x), name
    r = geometry_from_metrics_helpers(A, a, b)
    for name, x, y in zip(g._fields, as_matrices(g), r):
        if name not in SHAPES:
            assert same_bits(x, y), name
    assert all(type(getattr(g, n)) is float
               for n in ("J", "H", "kappa_gauss", "k1", "k2"))


def contra_records(A, a, b, au, bu):
    """The record of (A, a, b), and the same record with contravariant
    fields au, bu, each as the call reads it (triples) and as the
    reference forms read it (2x2s)."""
    g = metrics_record(A, a, b)
    h = g._replace(a_contra=tri(au), b_contra=tri(bu))
    return (g, as_matrices(g)), (h, as_matrices(h))


@settings(deadline=None, max_examples=300)
@given(any_metric, any_metric, any_curvature, square, square)
def test_bending_stress_moment_matches_numpy_form_bitwise(A, a, b, au, bu):
    for g, gm in contra_records(A, a, b, au, bu):
        tau, m0 = bg.bending_stress_moment(g, CB)
        assert type(tau) is SurfTensor2 and type(m0) is SurfTensor2
        want_tau, want_m0 = bending_stress_moment_numpy(gm, CB)
        assert same_bits(tau.as_matrix(), want_tau)
        assert same_bits(m0.as_matrix(), want_m0)


@settings(deadline=None, max_examples=300)
@given(any_metric, any_metric, any_curvature, square, square)
def test_bending_tangents_match_einsum_form_bitwise(A, a, b, au, bu):
    for g, gm in contra_records(A, a, b, au, bu):
        got = bg.bending_tangents(g, CB)
        want = bending_tangents_einsum(gm, CB)
        for name, x, y in zip(got._fields, got, want):
            assert same_bits(x, y), name


def seeded_bending_records(seed, n):
    """(record, c_bend) pairs on n seeded states: random SPD metrics, every
    fourth current metric diagonal (so a^12 = -0.0), and per state the
    curvature random, +0.0, -0.0, random with b_12 = -0.0 and near-umbilic,
    each also with c_bend = -0.0."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        A = rotated_metric(*rng.uniform(0.8, 1.3, size=2),
                           rng.uniform(0.0, math.pi))
        if i % 4 == 0:
            a = np.diag(rng.uniform(0.7, 1.6, size=2))
        else:
            a = rotated_metric(*rng.uniform(0.7, 1.6, size=2),
                               rng.uniform(0.0, math.pi))
        b11, b22, b12 = rng.uniform(-0.5, 0.5, size=3).tolist()
        for b in ([[b11, b12], [b12, b22]], np.zeros((2, 2)),
                  np.full((2, 2), -0.0), [[b11, -0.0], [-0.0, b22]],
                  near_umbilic(a, rng)):
            g = metrics_record(A, a, b)
            out += [(g, CB), (g, -0.0)]
    return out


def test_bending_tangents_match_outer_product_form_bitwise():
    """2,500 records: every block has the outer-product form's bits, signed
    zeros included; c, d and f are views of one array and e the major
    transpose of d. The core's c and f pair blocks are exactly symmetric,
    and its c, d and f blocks are the blocks' pair entries bit for bit."""
    records = seeded_bending_records(29, 250)
    zero_signs = set()
    for g, c_bend in records:
        got = bg.bending_tangents(g, c_bend)
        want = bending_tangents_outer(as_matrices(g), c_bend)
        for name, x, y in zip(got._fields, got, want):
            assert same_bits(x, y), name
        assert got.c.base is got.d.base is got.f.base
        assert got.e.base is got.d.base
        assert np.array_equal(got.e, got.d.transpose(2, 3, 0, 1))
        c, d, f = bg._bending_core(g, c_bend, 2)[2]
        assert np.array_equal(c, c.T) and np.array_equal(f, f.T)
        for block, t in zip((c, d, f), (got.c, got.d, got.f)):
            assert same_bits(block, t.take(_PAIR_TAKE))
        zero_signs |= {math.copysign(1.0, x) for t in got for x in t.flat
                       if x == 0.0}
    assert len(records) == 2500 and zero_signs == {1.0, -1.0}


def test_only_evaluated_records_carry_an_embedding():
    """The metrics determine no embedding: a metric-only record holds None
    in its four embedding fields, an evaluated one float64 arrays of
    SHAPES' shapes, with and without a reference surface."""
    g = metrics_record(A0, a0, b0)
    assert all(getattr(g, name) is None for name in SHAPES)
    sphere = bg.sphere_surface(1.7)
    for ref in (None, bg.flat_patch()):
        e = bg.evaluate_geometry(sphere, (0.5, 1.1), reference=ref)
        for name, shape in SHAPES.items():
            x = getattr(e, name)
            assert type(x) is np.ndarray and x.dtype == np.float64, name
            assert x.shape == shape, name
