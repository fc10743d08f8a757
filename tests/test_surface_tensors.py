"""Second-order surface tensor algebra and the fourth-order products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmem import membrane_material as mm
from gmem.lattice import make_frame
from gmem.surface_tensors import (
    NotPositiveDefiniteError,
    SurfTensor2,
    Tangent4,
    _PAIR_TAKE,
    boxtimes_product,
    oplus_product,
    rearrange,
    spectral,
    sqrt_spd,
    tangent_from_pairs,
    tensor_product,
)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def test_trace_det_ddot_deviator_inverse():
    t = SurfTensor2(2.0, 3.0, 1.0)
    assert t.trace() == 5.0
    assert t.det() == 5.0
    assert t.ddot(t) == 4.0 + 9.0 + 2.0


def test_plus_and_scaled():
    a = SurfTensor2(1.0, 2.0, 3.0)
    assert a.scaled(2.0).c12 == 6.0
    assert a.scaled(2.0) == (2.0, 4.0, 6.0)


def test_spectral_diagonal():
    sd = spectral(SurfTensor2(4.0, 1.0, 0.0))
    assert sd == (4.0, 1.0, 0.0)


def test_spectral_rotated_by_30_degrees():
    # R(30 deg) diag(4, 1) R^T
    th = math.pi / 6.0
    c, s = math.cos(th), math.sin(th)
    t = SurfTensor2(4 * c * c + s * s, 4 * s * s + c * c, 3 * c * s)
    sd = spectral(t)
    assert sd.Lambda1 == pytest.approx(4.0, rel=1e-14)
    assert sd.Lambda2 == pytest.approx(1.0, rel=1e-14)
    assert sd.theta == pytest.approx(th, rel=1e-14)


def test_spectral_coincident_eigenvalues_take_zero_angle():
    sd = spectral(SurfTensor2(1.7, 1.7, 0.0))
    assert sd.theta == 0.0
    assert sd.Lambda1 == sd.Lambda2 == 1.7


def test_sqrt_spd_diagonal_and_square():
    r = sqrt_spd(SurfTensor2(4.0, 9.0, 0.0))
    assert (r.c11, r.c22, r.c12) == pytest.approx((2.0, 3.0, 0.0), abs=1e-15)
    t = SurfTensor2(1.3, 0.9, 0.15)
    u = sqrt_spd(t)
    sq = u.as_matrix() @ u.as_matrix()
    np.testing.assert_allclose(sq, t.as_matrix(), rtol=1e-14, atol=1e-15)
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_spd(SurfTensor2(1.0, -1.0, 0.0))


@pytest.mark.parametrize("comps", [(math.inf, 1.0, 0.0),
                                   (math.inf, math.inf, 0.0),
                                   (1e200, 1e200, 0.0)])
def test_sqrt_spd_rejects_infinite_and_overflowing_input(comps):
    """An infinite component or a determinant that overflows fails the
    rule 0 < det < inf; sqrt_spd raises instead of returning NaN."""
    c11, c22, c12 = comps
    with pytest.raises(NotPositiveDefiniteError) as err:
        sqrt_spd(SurfTensor2(*comps))
    assert str(err.value) == (f"tensor is not positive definite: "
                              f"det={c11 * c22 - c12 * c12}, tr={c11 + c22}")


def test_product_component_conventions():
    a = SurfTensor2(2.0, 3.0, 0.0)
    b = SurfTensor2(5.0, 7.0, 0.0)
    ot = tensor_product(a, b).comp
    assert ot[0, 0, 1, 1] == 14.0
    assert ot[1, 1, 0, 0] == 15.0
    assert ot[0, 0, 0, 0] == 10.0
    op = oplus_product(a, b).comp
    assert op[0, 1, 1, 0] == 14.0
    assert op[1, 0, 0, 1] == 15.0
    assert op[0, 1, 0, 1] == 0.0
    bt = boxtimes_product(a, b).comp
    assert bt[0, 1, 0, 1] == 14.0
    assert bt[1, 0, 1, 0] == 15.0
    assert bt[0, 1, 1, 0] == 0.0


def test_rearrange_maps_oplus_to_tensor_product():
    a = SurfTensor2(2.0, 3.0, 1.0)
    b = SurfTensor2(5.0, 7.0, -2.0)
    out = rearrange(oplus_product(a, b))
    assert np.array_equal(out.comp, tensor_product(a, b).comp)
    # for symmetric arguments the transpose in the mapping rule is free
    out2 = rearrange(tensor_product(a, b))
    assert np.array_equal(out2.comp, boxtimes_product(a, b).comp)


def test_tangent_from_pairs_expansion():
    p = np.arange(1.0, 10.0).reshape(3, 3)
    t = tangent_from_pairs(p).comp
    assert t[0, 0, 0, 0] == 1.0
    assert t[0, 0, 1, 1] == 2.0
    assert t[0, 0, 0, 1] == 3.0 and t[0, 0, 1, 0] == 3.0
    assert t[1, 1, 0, 0] == 4.0
    assert t[0, 1, 1, 1] == 8.0 and t[1, 0, 1, 1] == 8.0
    assert t[0, 1, 0, 1] == 9.0


def test_tangent_from_pairs_matches_explicit_expansion():
    p = np.random.default_rng(5).normal(size=(3, 3))
    want = np.array([
        [[[p[0, 0], p[0, 2]], [p[0, 2], p[0, 1]]],
         [[p[2, 0], p[2, 2]], [p[2, 2], p[2, 1]]]],
        [[[p[2, 0], p[2, 2]], [p[2, 2], p[2, 1]]],
         [[p[1, 0], p[1, 2]], [p[1, 2], p[1, 1]]]],
    ])
    assert np.array_equal(tangent_from_pairs(p).comp, want)
    # one path for every input: nested tuples, lists, arrays and
    # non-contiguous views expand bitwise alike, by their logical indices
    for m in (p, p.T):
        forms = (tuple(tuple(row) for row in m), m.tolist(),
                 np.ascontiguousarray(m), m)
        assert len({tangent_from_pairs(x).comp.tobytes() for x in forms}) == 1
    # integer entries come back as float64
    floats = tangent_from_pairs(np.arange(1.0, 10.0).reshape(3, 3)).comp
    for ints in ([[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                 np.arange(1, 10).reshape(3, 3)):
        t = tangent_from_pairs(ints).comp
        assert t.dtype == np.float64 and np.array_equal(t, floats)
    ragged = ((1.0, 2.0, 3.0), (4.0, 5.0), (6.0, 7.0, 8.0))
    for bad in (p.ravel(), np.zeros((4, 4)), ragged, np.zeros((3, 3, 1)),
                None):
        with pytest.raises(ValueError, match="3x3"):
            tangent_from_pairs(bad)


def test_pair_layout_round_trips_bitwise():
    """A take of _PAIR_TAKE inverts tangent_from_pairs on seeded pair
    matrices, and tangent_from_pairs inverts it on the four public
    membrane tangents, near-isotropic states included."""
    rng = np.random.default_rng(24)
    for _ in range(100):
        g = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-8, 8)
        back = tangent_from_pairs(g).comp.take(_PAIR_TAKE)
        assert back.dtype == g.dtype and back.tobytes() == g.tobytes()
    tangents = (mm.tangent_metric, mm.tangent_log,
                lambda *a: mm.stress_tangent_metric(*a)[1],
                lambda *a: mm.stress_tangent_log(*a)[1])
    for i in range(40):
        e1 = rng.uniform(0.7, 1.6)
        e2 = e1 * (1.0 + 1e-10) if i % 8 == 0 else rng.uniform(0.7, 1.6)
        phi = rng.uniform(0.0, math.pi)
        c, s = math.cos(phi), math.sin(phi)
        C = SurfTensor2(e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c,
                        (e1 - e2) * s * c)
        frame = make_frame(rng.uniform(0.0, 2.0 * math.pi))
        for tangent in tangents:
            t = tangent(C, frame, mm.GGA).comp
            back = tangent_from_pairs(t.take(_PAIR_TAKE)).comp
            assert back.shape == t.shape and back.tobytes() == t.tobytes()


def test_tangent_from_pairs_owns_its_components():
    """The 16 components come back as a (2, 2, 2, 2) float64 array that
    owns its data, not a view of a flat one."""
    p = np.random.default_rng(5).normal(size=(3, 3))
    t = tangent_from_pairs(p).comp
    assert t.shape == (2, 2, 2, 2) and t.base is None
    ints = tangent_from_pairs(np.arange(1, 10).reshape(3, 3)).comp
    assert ints.dtype == np.float64 and ints.shape == (2, 2, 2, 2)
    with pytest.raises(ValueError, match="3x3"):
        tangent_from_pairs(np.zeros((2, 3)))


def test_pair_products_match_explicit_expansion():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = SurfTensor2(*rng.normal(size=3))
        b = SurfTensor2(*rng.normal(size=3))
        A, B = a.as_matrix(), b.as_matrix()
        want = {name: np.empty((2, 2, 2, 2)) for name in ("ot", "op", "bt")}
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        want["ot"][i, j, k, l] = A[i, j] * B[k, l]
                        want["op"][i, j, k, l] = A[i, l] * B[j, k]
                        want["bt"][i, j, k, l] = A[i, k] * B[j, l]
        for name, fn in (("ot", tensor_product), ("op", oplus_product),
                         ("bt", boxtimes_product)):
            t = fn(a, b)
            assert np.array_equal(t.comp, want[name]), name
            assert t.comp.shape == (2, 2, 2, 2)


@settings(deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0),
       st.floats(-math.pi / 2, math.pi / 2))
def test_spectral_reconstruct_round_trip(l1, l2, th):
    c, s = math.cos(th), math.sin(th)
    t = SurfTensor2(l1 * c * c + l2 * s * s, l1 * s * s + l2 * c * c,
                    (l1 - l2) * s * c)
    sd = spectral(t)
    # the sum of Lambda_a Y_a (x) Y_a rebuilds t up to rounding
    cb, sb = math.cos(sd.theta), math.sin(sd.theta)
    back = SurfTensor2(sd.Lambda1 * cb * cb + sd.Lambda2 * sb * sb,
                       sd.Lambda1 * sb * sb + sd.Lambda2 * cb * cb,
                       (sd.Lambda1 - sd.Lambda2) * sb * cb)
    scale = l1 + l2
    assert abs(back.c11 - t.c11) <= 1e-13 * scale
    assert abs(back.c22 - t.c22) <= 1e-13 * scale
    assert abs(back.c12 - t.c12) <= 1e-13 * scale
    # eigenvalues come back ordered regardless of the input ordering
    assert sd.Lambda1 >= sd.Lambda2


@settings(deadline=None)
@given(finite, finite, finite, finite, finite, finite)
def test_product_contraction_identities(a1, a2, a3, b1, b2, b3):
    """(a (x) b) : x = a (b : x) for any symmetric x, component form."""
    a = SurfTensor2(a1, a2, a3)
    b = SurfTensor2(b1, b2, b3)
    x = np.array([[0.3, -0.2], [-0.2, 1.1]])
    t = tensor_product(a, b).comp
    lhs = np.einsum("abgd,gd->ab", t, x)
    rhs = a.as_matrix() * np.sum(b.as_matrix() * x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1.0 + np.abs(rhs).max()))


# The einsum forms the closed-form pair products replaced, kept as their
# reference: with no summed index each component is one product, and
# einsum's accumulation into a zeroed output turns a -0.0 product into +0.0.
EINSUM_FORMS = ((tensor_product, "ab,gd->abgd"),
                (oplus_product, "ad,bg->abgd"),
                (boxtimes_product, "ag,bd->abgd"))
entries = st.one_of(st.sampled_from([0.0, -0.0]), finite)
triples = st.tuples(entries, entries, entries)


@settings(deadline=None, max_examples=300)
@given(triples, triples)
def test_pair_products_match_einsum_forms_bitwise(a, b):
    a, b = SurfTensor2(*a), SurfTensor2(*b)
    for fn, subscripts in EINSUM_FORMS:
        got = fn(a, b).comp
        want = np.einsum(subscripts, a.as_matrix(), b.as_matrix())
        assert got.dtype == np.float64 and got.shape == (2, 2, 2, 2)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), fn.__name__
        out = rearrange(fn(a, b)).comp
        assert out.tobytes() == np.einsum("agdb->abgd", got).tobytes()
