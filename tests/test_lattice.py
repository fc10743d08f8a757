"""Structural tensors of the hexagonal lattice and their triple contraction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmem.lattice import ZIGZAG_OFFSET, make_frame, structural_contraction
from gmem.surface_tensors import SurfTensor2

comp = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
angle = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)


def test_zigzag_offset_is_thirty_degrees():
    assert ZIGZAG_OFFSET == pytest.approx(math.pi / 6.0)


def test_aligned_frame_components():
    fr = make_frame(0.0)
    assert (fr.m_hat.c11, fr.m_hat.c22, fr.m_hat.c12) == (1.0, -1.0, 0.0)
    assert (fr.n_hat.c11, fr.n_hat.c22, fr.n_hat.c12) == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_rejected(theta):
    with pytest.raises(ValueError,
                       match=f"theta_lattice must be finite, got {theta!r}"):
        make_frame(theta)


def test_quarter_turn_flips_m():
    fr = make_frame(math.pi / 2.0)
    assert fr.m_hat.c11 == pytest.approx(-1.0)
    assert fr.m_hat.c22 == pytest.approx(1.0)
    assert abs(fr.m_hat.c12) < 1e-15
    assert fr.n_hat.c12 == pytest.approx(-1.0)


def test_structural_tensors_are_traceless_orthonormal():
    for th in (0.0, 0.3, 1.2, -0.7):
        fr = make_frame(th)
        assert abs(fr.m_hat.trace()) < 1e-15
        assert abs(fr.n_hat.trace()) < 1e-15
        assert fr.m_hat.ddot(fr.m_hat) == pytest.approx(2.0, rel=1e-15)
        assert fr.n_hat.ddot(fr.n_hat) == pytest.approx(2.0, rel=1e-15)
        assert abs(fr.m_hat.ddot(fr.n_hat)) < 1e-14


def test_half_turn_periodicity_of_structural_tensors():
    # M, N depend on the lattice angle through 2*theta only
    a = make_frame(0.37)
    b = make_frame(0.37 + math.pi)
    assert a.m_hat.c11 == pytest.approx(b.m_hat.c11, abs=1e-14)
    assert a.n_hat.c12 == pytest.approx(b.n_hat.c12, abs=1e-14)


def test_contraction_worked_values():
    fr = make_frame(0.0)
    m, n = fr.m_hat, fr.n_hat
    assert structural_contraction(fr, m, m, m) == pytest.approx(8.0)
    assert structural_contraction(fr, n, n, n) == pytest.approx(0.0, abs=1e-15)
    assert structural_contraction(fr, m, n, n) == pytest.approx(-8.0)
    # the worked value is angle independent
    fr2 = make_frame(0.91)
    assert structural_contraction(
        fr2, fr2.m_hat, fr2.m_hat, fr2.m_hat) == pytest.approx(8.0)


def test_contraction_sixfold_periodicity():
    t = SurfTensor2(0.9, -0.9, 0.4)
    base = structural_contraction(make_frame(0.2), t, t, t)
    shifted = structural_contraction(make_frame(0.2 + math.pi / 3.0), t, t, t)
    assert shifted == pytest.approx(base, rel=1e-12)
    # 30 degrees flips the sign of the third harmonic
    flipped = structural_contraction(make_frame(0.2 + math.pi / 6.0), t, t, t)
    assert flipped == pytest.approx(-base, rel=1e-12)


@settings(deadline=None)
@given(angle, comp, comp, comp, comp, comp, comp, comp, comp, comp)
def test_contraction_is_symmetric_in_its_arguments(
        th, a1, a2, a3, b1, b2, b3, c1, c2, c3):
    fr = make_frame(th)
    a = SurfTensor2(a1, a2, a3)
    b = SurfTensor2(b1, b2, b3)
    c = SurfTensor2(c1, c2, c3)
    vals = [structural_contraction(fr, *p) for p in
            ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))]
    scale = max(abs(v) for v in vals) + 1.0
    assert max(vals) - min(vals) <= 1e-12 * scale


@settings(deadline=None)
@given(angle, comp, comp, comp, comp)
def test_contraction_ignores_spherical_parts(th, a1, a2, a3, shift):
    fr = make_frame(th)
    a = SurfTensor2(a1, a2, a3)
    b = SurfTensor2(0.4, -1.1, 0.8)
    c = SurfTensor2(-0.3, 0.9, 0.1)
    base = structural_contraction(fr, a, b, c)
    shifted = structural_contraction(
        fr, SurfTensor2(a1 + shift, a2 + shift, a3), b, c)
    scale = abs(base) + abs(shift) + 1.0
    assert abs(shifted - base) <= 1e-12 * scale
