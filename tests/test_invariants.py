"""Membrane invariants of C, their logarithmic counterparts, and the
polynomial surrogates."""

import decimal
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmem import invariants as iv
from gmem import membrane_material as mm
from gmem.invariants import (
    DEFAULT_APPROX,
    InvariantState,
    approx_log_invariants,
    invariants_C,
    invariants_C_kappa,
    invariants_log_exact,
)
from gmem.lattice import LatticeFrame, make_frame, structural_contraction
from gmem.surface_tensors import NotPositiveDefiniteError, SurfTensor2, spectral

EIG = st.floats(0.7, 1.6)
ANGLE = st.floats(0.0, math.pi)
NEAR_ISOTROPIC = st.floats(-1e-10, 1e-10)


def spd(l1, l2, th):
    c, s = math.cos(th), math.sin(th)
    return SurfTensor2(l1 * c * c + l2 * s * s, l1 * s * s + l2 * c * c,
                       (l1 - l2) * s * c)


def invariants_C_eigen(c: SurfTensor2, frame: LatticeFrame) -> InvariantState:
    """Eigenvalue route to the invariants of C: the reference that
    invariants_C's contraction route is checked against.

    J2 = (L1/L2 + L2/L1 - 2)/4 and J3 = ((l1/l2 - l2/l1)^3 cos 6 dtheta)/8
    with l_a the principal stretches and dtheta the angle between the
    maximum-stretch axis and the armchair axis.
    """
    c.require_positive_definite()
    sd = spectral(c)
    J = sd.lambda1 * sd.lambda2
    r = sd.Lambda1 / sd.Lambda2
    J2 = 0.25 * (r + 1.0 / r - 2.0)
    rs = sd.lambda1 / sd.lambda2
    dtheta = sd.theta - frame.theta_lattice
    J3 = 0.125 * (rs - 1.0 / rs) ** 3 * math.cos(6.0 * dtheta)
    cb = c.scaled(1.0 / J)
    return InvariantState(J, J2, J3, frame.m_hat.ddot(cb), frame.n_hat.ddot(cb))


def test_fitted_constants():
    assert DEFAULT_APPROX.e1 == 0.25
    assert DEFAULT_APPROX.e2 == 0.0811
    assert DEFAULT_APPROX.g1 == 0.125
    assert DEFAULT_APPROX.g2 == 0.06057


def test_worked_example_diag_4_1():
    inv = invariants_C(SurfTensor2(4.0, 1.0, 0.0), make_frame(0.0))
    assert inv.J1 == pytest.approx(2.0, rel=1e-15)
    assert inv.J2 == pytest.approx(0.5625, rel=1e-14)
    assert inv.J3 == pytest.approx(0.421875, rel=1e-14)
    assert inv.mC == pytest.approx(1.5, rel=1e-14)
    assert abs(inv.nC) < 1e-14


def test_worked_example_rotated_lattice():
    # 30 degrees of lattice rotation flips the sign of the cubic invariant
    inv = invariants_C(SurfTensor2(4.0, 1.0, 0.0), make_frame(math.pi / 6.0))
    assert inv.J1 == pytest.approx(2.0, rel=1e-15)
    assert inv.J2 == pytest.approx(0.5625, rel=1e-14)
    assert inv.J3 == pytest.approx(-0.421875, rel=1e-13)


def test_log_invariants_worked_example():
    ex = invariants_log_exact(SurfTensor2(4.0, 1.0, 0.0), make_frame(0.0))
    assert ex.J1E == pytest.approx(math.log(2.0), rel=1e-15)
    assert ex.J2E == pytest.approx(0.120113253479550356, rel=1e-15)
    assert ex.J3E == pytest.approx(0.041628081498616185, rel=1e-15)


def test_log_invariants_use_stretch_ratio_not_eigenvalue_ratio():
    # the deviator amplitude is half the log of the stretch ratio, i.e. a
    # quarter of the log of the C eigenvalue ratio; mixing the two up
    # inflates J2E by a factor of four
    ex = invariants_log_exact(SurfTensor2(4.0, 1.0, 0.0), make_frame(0.0))
    lam = 0.5 * math.log(math.sqrt(4.0) / math.sqrt(1.0))
    assert ex.J2E == pytest.approx(lam * lam, rel=1e-15)


def test_surrogate_worked_values():
    inv = invariants_C(SurfTensor2(4.0, 1.0, 0.0), make_frame(0.0))
    f1, f2 = approx_log_invariants(inv)
    assert f1 == pytest.approx(0.114964453125, rel=1e-15)
    assert f2 == pytest.approx(0.038360830078125, rel=1e-15)


def test_isotropic_state_has_zero_shear_invariants():
    inv = invariants_C(SurfTensor2(1.21, 1.21, 0.0), make_frame(0.4))
    assert inv.J1 == pytest.approx(1.21, rel=1e-15)
    assert abs(inv.J2) < 1e-15
    assert abs(inv.J3) < 1e-15
    ex = invariants_log_exact(SurfTensor2(1.21, 1.21, 0.0), make_frame(0.4))
    assert ex.J1E == pytest.approx(math.log(1.21), rel=1e-14)
    assert abs(ex.J2E) < 1e-15


def test_not_positive_definite_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        invariants_C(SurfTensor2(1.0, -0.5, 0.0), make_frame(0.0))
    with pytest.raises(NotPositiveDefiniteError):
        invariants_log_exact(SurfTensor2(1.0, -0.5, 0.0), make_frame(0.0))


@pytest.mark.parametrize("comps", [(1.0, 1.0, 1.0), (-1.0, -1.0, 0.0)])
def test_one_message_for_a_non_positive_definite_C(comps):
    """Every invariants and model call that takes C rejects it with one
    text: the metric and log calls and the cross-check route included."""
    c, fr = SurfTensor2(*comps), make_frame(0.3)
    calls = (lambda: invariants_C(c, fr),
             lambda: invariants_log_exact(c, fr),
             lambda: mm.energy_metric(c, fr, mm.GGA),
             lambda: mm.stress_metric(c, fr, mm.GGA),
             lambda: mm.tangent_metric(c, fr, mm.GGA),
             lambda: mm.tangent_metric_oplus(c, fr, mm.GGA),
             lambda: mm.energy_log(c, fr, mm.GGA),
             lambda: mm.stress_log(c, fr, mm.GGA),
             lambda: mm.tangent_log(c, fr, mm.GGA))
    texts = set()
    for call in calls:
        with pytest.raises(NotPositiveDefiniteError) as err:
            call()
        texts.add(str(err.value))
    c11, c22, c12 = comps
    assert texts == {f"C is not positive definite: "
                     f"det={c11 * c22 - c12 * c12}, tr={c11 + c22}"}


@settings(deadline=None)
@given(EIG, EIG, ANGLE, ANGLE)
def test_contraction_and_eigen_routes_agree(l1, l2, phi, thL):
    c = spd(l1, l2, phi)
    fr = make_frame(thL)
    a = invariants_C(c, fr)
    b = invariants_C_eigen(c, fr)
    assert a.J1 == pytest.approx(b.J1, rel=1e-12)
    assert a.J2 == pytest.approx(b.J2, rel=1e-10, abs=1e-14)
    assert a.J3 == pytest.approx(b.J3, rel=1e-9, abs=1e-13)


@settings(deadline=None)
@given(EIG, EIG, NEAR_ISOTROPIC, st.booleans(), ANGLE, ANGLE)
def test_kernel_scalars_match_invariants_C(l1, l2, d, near, phi, thL):
    """The scalars the metric kernel takes from _c_scalars on its
    unpacked components equal invariants_C bitwise, signed zeros
    included, on generic and near-isotropic states."""
    c = spd(l1, l1 * (1.0 + d) if near else l2, phi)
    fr = make_frame(thL)
    _det, J, _p11, _p12, J2, mC, nC, J3 = iv._c_scalars(*mm._unpack(c, fr))
    a = invariants_C(c, fr)
    assert [x.hex() for x in (J, J2, J3, mC, nC)] == [x.hex() for x in a]


def invariants_C_decimal(c: SurfTensor2, frame: LatticeFrame):
    """(J2, J3) of the same formula in 60-digit decimal arithmetic on the
    exact float inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        c11, c22, c12, m11, m12, n11, n12 = map(decimal.Decimal, (
            *c, frame.m_hat.c11, frame.m_hat.c12, frame.n_hat.c11,
            frame.n_hat.c12))
        J = (c11 * c22 - c12 * c12).sqrt()
        p11 = (c11 - c22) / (2 * J)
        p12 = c12 / J
        mC = 2 * (m11 * p11 + m12 * p12)
        nC = 2 * (n11 * p11 + n12 * p12)
        return (float(p11 * p11 + p12 * p12),
                float(mC * (mC * mC - 3 * nC * nC) / 8))


@settings(deadline=None)
@given(EIG, NEAR_ISOTROPIC, ANGLE, ANGLE)
def test_invariants_C_keeps_relative_precision_near_isotropy(l1, d, phi, thL):
    """Within 1e-10 relative of isotropy, J2 keeps its relative precision
    against a 60-digit evaluation, and J3 its precision relative to
    J2^(3/2), the cube of the deviator's size; a traceless part formed as
    c11/J - tr(C/J)/2 cancels and missed J3 by up to 0.13 relative here."""
    c = spd(l1, l1 * (1.0 + d), phi)
    fr = make_frame(thL)
    a = invariants_C(c, fr)
    J2, J3 = invariants_C_decimal(c, fr)
    assert abs(a.J2 - J2) <= 1e-13 * J2
    assert abs(a.J3 - J3) <= 1e-13 * J2 ** 1.5


@settings(deadline=None)
@given(EIG, EIG, ANGLE, st.floats(0.5, 2.0))
def test_area_scaling_touches_only_J1(l1, l2, phi, s):
    fr = make_frame(0.3)
    c = spd(l1, l2, phi)
    a = invariants_C(c, fr)
    b = invariants_C(c.scaled(s), fr)
    assert b.J1 == pytest.approx(s * a.J1, rel=1e-13)
    assert b.J2 == pytest.approx(a.J2, rel=1e-12, abs=1e-15)
    assert b.J3 == pytest.approx(a.J3, rel=1e-11, abs=1e-14)


@settings(deadline=None)
@given(EIG, EIG, ANGLE, ANGLE)
def test_sixty_degree_lattice_periodicity(l1, l2, phi, thL):
    c = spd(l1, l2, phi)
    a = invariants_C(c, make_frame(thL))
    b = invariants_C(c, make_frame(thL + math.pi / 3.0))
    assert b.J3 == pytest.approx(a.J3, rel=1e-10, abs=1e-13)
    ea = invariants_log_exact(c, make_frame(thL))
    eb = invariants_log_exact(c, make_frame(thL + math.pi / 3.0))
    assert eb.J3E == pytest.approx(ea.J3E, rel=1e-9, abs=1e-13)


def test_curvature_invariants_wiring():
    fr = make_frame(0.25)
    c = SurfTensor2(1.3, 0.9, 0.15)
    kap = SurfTensor2(0.5, 0.2, -0.1)
    out = invariants_C_kappa(c, kap, fr)
    base = invariants_C(c, fr)
    assert (out.J1, out.J2, out.J3) == (base.J1, base.J2, base.J3)
    assert out.J4 == pytest.approx(0.35, rel=1e-15)
    assert out.J5 == pytest.approx(0.5 * 0.2 - 0.01, rel=1e-15)
    cb = c.scaled(1.0 / base.J1)
    assert out.J7 == pytest.approx(0.5 * cb.ddot(kap), rel=1e-15)
    assert out.J6 == pytest.approx(
        0.125 * structural_contraction(fr, kap, kap, kap), rel=1e-15)
    assert out.J8 == pytest.approx(
        0.125 * structural_contraction(fr, cb, cb, kap), rel=1e-15)
    assert out.J9 == pytest.approx(
        0.125 * structural_contraction(fr, kap, kap, cb), rel=1e-15)


def test_surrogate_error_shrinks_with_strain():
    """Small strain keeps the surrogates within 0.005 percent; the error at
    ratio 1.3 is an order of magnitude larger."""
    fr = make_frame(0.0)

    def rel_errors(ratio):
        c = SurfTensor2(ratio ** 2, 1.0, 0.0)
        inv = invariants_C(c, fr)
        ex = invariants_log_exact(c, fr)
        f1, f2 = approx_log_invariants(inv)
        return (abs(f1 - ex.J2E) / ex.J2E,
                abs(f2 - ex.J3E) / abs(ex.J3E))

    small = rel_errors(1.05)
    large = rel_errors(1.3)
    assert small[0] < 5e-5 and small[1] < 5e-5
    assert large[0] > 4.0 * small[0]
    assert large[1] > 4.0 * small[1]
