"""Membrane invariants of C, their logarithmic counterparts, and the
polynomial surrogates."""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmem import invariants as iv
from gmem import membrane_material as mm
from gmem.invariants import (
    E1,
    E2,
    G1,
    G2,
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
    sd = spectral(c)
    s1, s2 = math.sqrt(sd.Lambda1), math.sqrt(sd.Lambda2)
    J = s1 * s2
    r = sd.Lambda1 / sd.Lambda2
    J2 = 0.25 * (r + 1.0 / r - 2.0)
    rs = s1 / s2
    dtheta = sd.theta - frame.theta_lattice
    J3 = 0.125 * (rs - 1.0 / rs) ** 3 * math.cos(6.0 * dtheta)
    cb = c.scaled(1.0 / J)
    return InvariantState(J, J2, J3, frame.m_hat.ddot(cb), frame.n_hat.ddot(cb))


def test_fitted_constants():
    assert (E1, E2, G1, G2) == (0.25, 0.0811, 0.125, 0.06057)


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


@pytest.mark.parametrize("comps", [(1.0, 1.0, 1.0), (-1.0, -1.0, 0.0),
                                   (math.nan, 1.0, 0.0), (1.0, 1.0, math.nan),
                                   (math.inf, 1.0, 0.0),
                                   (math.inf, math.inf, 0.0),
                                   (1e200, 1e200, 0.0)])
def test_one_message_for_a_non_positive_definite_C(comps):
    """Every invariants and model call that takes C rejects it with one
    text: the metric and log calls and the cross-check route included.
    A NaN or infinite component, or a det C that overflows, is rejected
    too, never passed through as a NaN, an inf or an OverflowError."""
    c, fr = SurfTensor2(*comps), make_frame(0.3)
    calls = (lambda: invariants_C(c, fr),
             lambda: invariants_log_exact(c, fr),
             lambda: mm.energy_metric(c, fr, mm.GGA),
             lambda: mm.stress_metric(c, fr, mm.GGA),
             lambda: mm.tangent_metric(c, fr, mm.GGA),
             lambda: mm.stress_tangent_metric(c, fr, mm.GGA),
             lambda: mm.tangent_metric_oplus(c, fr, mm.GGA),
             lambda: mm.energy_log(c, fr, mm.GGA),
             lambda: mm.stress_log(c, fr, mm.GGA),
             lambda: mm.tangent_log(c, fr, mm.GGA),
             lambda: mm.stress_tangent_log(c, fr, mm.GGA))
    texts = set()
    for call in calls:
        with pytest.raises(NotPositiveDefiniteError) as err:
            call()
        texts.add(str(err.value))
    c11, c22, c12 = comps
    assert texts == {f"C is not positive definite: "
                     f"det={c11 * c22 - c12 * c12}, tr={c11 + c22}"}


@pytest.mark.parametrize("comps", [(1.0, 1e-17, 0.0), (1.46e16, 1.0, 0.0),
                                   (math.inf, 1.0, 0.0),
                                   (math.inf, math.inf, 0.0)])
def test_log_paths_reject_a_C_without_a_positive_smaller_eigenvalue(comps):
    """diag(1, 1e-17) and (1.46e16, 1, 0) pass the determinant rule, but
    their smaller eigenvalue mean - disc rounds to 0; an infinite component
    fails the rule (det C = inf). Every log path rejects C with the one
    text of their shared head, _log_scalars, none with a bare math domain
    error or a NaN result."""
    c, fr = SurfTensor2(*comps), make_frame(0.3)
    calls = (lambda: invariants_log_exact(c, fr),
             lambda: mm.energy_log(c, fr, mm.GGA),
             lambda: mm.stress_log(c, fr, mm.GGA),
             lambda: mm.tangent_log(c, fr, mm.GGA),
             lambda: mm.stress_tangent_log(c, fr, mm.GGA))
    texts = set()
    for call in calls:
        with pytest.raises(NotPositiveDefiniteError) as err:
            call()
        texts.add(str(err.value))
    c11, c22, c12 = comps
    assert texts == {f"C is not positive definite: "
                     f"det={c11 * c22 - c12 * c12}, tr={c11 + c22}"}


def test_metric_paths_accept_an_ill_conditioned_C():
    """diag(1, 1e-17) passes the rule 0 < det C < inf and c11 > 0."""
    c, fr = SurfTensor2(1.0, 1e-17, 0.0), make_frame(0.3)
    assert invariants_C(c, fr).J1 == math.sqrt(1e-17)
    assert math.isfinite(mm.energy_metric(c, fr, mm.GGA))
    assert math.isfinite(mm.stress_tangent_metric(c, fr, mm.GGA)[0].W)


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
    """The scalars the metric kernel takes from _c_scalars on the
    components of C and the frame equal invariants_C bitwise, signed
    zeros included, on generic and near-isotropic states."""
    c = spd(l1, l1 * (1.0 + d) if near else l2, phi)
    fr = make_frame(thL)
    m, n = fr.m_hat, fr.n_hat
    _det, J, _p11, _p12, J2, mC, nC, J3 = iv._c_scalars(
        *c, m.c11, m.c12, n.c11, n.c12)
    a = invariants_C(c, fr)
    assert [x.hex() for x in (J, J2, J3, mC, nC)] == [x.hex() for x in a]


def log_energy(J1E, J2E, J3E, p):
    """The log model's energy on given invariants, in _log_core's
    operation order."""
    eb = math.exp(p.beta_hat * J1E)
    mu = p.mu0 - p.mu1 * eb
    eta = p.eta0 - p.eta1 * J1E * J1E
    ea = math.exp(-p.alpha_hat * J1E)
    return (p.epsilon * (1.0 - (1.0 + p.alpha_hat * J1E) * ea)
            + 2.0 * mu * J2E + eta * J3E)


def test_energy_log_matches_energy_of_invariants_log_exact():
    """energy_log equals its energy formula on invariants_log_exact's
    (J1E, J2E, J3E) bitwise, on 2,000 seeded states with stretches in
    [0.7, 1.6], one in eight within 1e-9 relative of isotropy, GGA and
    LDA: the report and the kernel form the invariants alike."""
    rng = random.Random(20240)
    differ = []
    for i in range(2000):
        l1 = rng.uniform(math.sqrt(0.7), math.sqrt(1.6))
        l2 = (l1 * (1.0 + rng.uniform(-1e-9, 1e-9)) if i % 8 == 0
              else rng.uniform(math.sqrt(0.7), math.sqrt(1.6)))
        c = spd(l1 * l1, l2 * l2, rng.uniform(0.0, math.pi))
        fr = make_frame(rng.uniform(0.0, 2.0 * math.pi))
        ex = invariants_log_exact(c, fr)
        for p in (mm.GGA, mm.LDA):
            if mm.energy_log(c, fr, p) != log_energy(*ex, p):
                differ.append((i, p.name))
    assert differ == []


def test_energy_metric_uses_the_surrogates_of_approx_log_invariants():
    """On C = (a, 1/a, 0) with a a power of two, det C is exactly 1, so
    ln J = 0 and energy_metric reduces to 2 (mu0 - mu1) f1 + eta0 f2; it
    equals that formula on approx_log_invariants's f1, f2 bitwise, over
    seeded lattice angles, GGA and LDA: the kernel and the report use the
    same surrogate constants."""
    rng = random.Random(4040)
    differ = []
    for k in range(-3, 4):
        c = SurfTensor2(2.0 ** k, 2.0 ** -k, 0.0)
        for _ in range(40):
            fr = make_frame(rng.uniform(0.0, 2.0 * math.pi))
            f1, f2 = approx_log_invariants(invariants_C(c, fr))
            for p in (mm.GGA, mm.LDA):
                w = 2.0 * (p.mu0 - p.mu1) * f1 + p.eta0 * f2
                if mm.energy_metric(c, fr, p) != w:
                    differ.append((k, fr.theta_lattice, p.name))
    assert differ == []


# (c11, c22, c12, theta_lattice, J2E, J3E): J2E = ed^2 and
# J3E = ed^3 cos 6 (theta - theta_lattice), with ed = (ln L1 - ln L2) / 4
# and theta the L1 axis of the same double C, evaluated offline with
# mpmath at 50 digits and rounded to the nearest double. Eigenvalue gaps
# u = (L1 - L2) / (L1 + L2) from 2.7e-9 to 0.46, two or more per decade.
LOG_INVARIANT_LITERALS = (
    (1.3542702276799643, 1.354270235059592, -1.7147802657397825e-10, 2.1994148984049,
     1.8598385056633626e-18, -2.236969439221604e-27),
    (1.1809999678933, 1.1809999598708665, 7.899582430650809e-09, 4.380697731506135,
     1.4069304278943546e-17, -2.894719491893931e-26),
    (1.362908972996075, 1.3629088253800639, -6.694344290763784e-08, 1.2168877262046391,
     1.3363305200601959e-15, -4.866786639371099e-23),
    (1.5407765383170733, 1.540776258306555, -2.5244764063111372e-08, 1.1342782680969627,
     2.1313015668174877e-15, 4.8301588088788285e-23),
    (1.4278894592352394, 1.4278890993517777, 1.0778442912877913e-07, 1.6020373024289558,
     5.394723212893643e-15, -5.497757831356783e-23),
    (1.035245782814197, 1.035245912741757, -2.8123219795940215e-07, 3.435873053172167,
     1.9433890447170666e-14, 1.734645815186736e-21),
    (0.9444322924890546, 0.9444326343363627, -2.489970758194885e-07, 0.12512223332485467,
     2.5565941316250488e-14, 2.2611816756960228e-21),
    (1.457238427137162, 1.4572356046360317, -4.287129953917948e-07, 2.991148953646598,
     2.561081114794717e-13, 1.295882062273644e-19),
    (1.2451251079772372, 1.2451215852447273, -1.2812973354402408e-06, 4.717163634922565,
     7.650189591958571e-13, 2.2603111266183075e-19),
    (0.8740888676586434, 0.87409188697509, 7.072095757552322e-06, 4.8977252834644505,
     1.7111020974932745e-11, 3.275319673071149e-17),
    (0.9896928457780361, 0.9896647721371841, 2.7665153637065873e-06, 6.253778424468633,
     5.224436647930081e-11, 2.73655714252085e-16),
    (1.2512947853314307, 1.2513151121683452, 1.8751597415860834e-05, 0.5981015150091838,
     7.263506166156228e-11, -5.348111303608591e-16),
    (1.0220816401659087, 1.022099532766021, 1.863004242045819e-05, 1.081126818779711,
     1.0221292513313264e-10, 9.387414918527442e-16),
    (1.4558147134654473, 1.455893276812427, -2.6917306888686653e-06, 4.731428336896716,
     1.8286003150762107e-10, 2.462503901199776e-15),
    (1.1051323274149372, 1.1051428593687491, -0.00018255950214001427, 0.9741731957596624,
     6.8277467008578156e-09, -1.9432127240738208e-13),
    (1.5816511815054013, 1.5814824939464014, 0.0003455219361655765, 5.087837374012664,
     1.2643082792407184e-08, 2.4139727282166636e-13),
    (0.9263195713492071, 0.9316946303306448, -0.0010453959123477004, 2.831053008970477,
     2.4088060912403137e-06, 3.6874983836131176e-09),
    (0.8258878844106866, 0.8230516354402286, 0.007699412924967002, 2.9888012056436986,
     2.254346685724267e-05, 3.873738439794732e-08),
    (1.0734709780329144, 1.0748119926901558, 0.013240688428557277, 3.8138339588529417,
     3.808855964581105e-05, 1.5851419457940603e-07),
    (1.1990922708568155, 1.3102253779360244, -0.03490736254999563, 1.4418284215991426,
     0.0006851291128986143, -1.3886973151631106e-05),
    (0.7319620813602747, 0.5760106789461633, 0.045802229769859024, 0.3028787796356445,
     0.004842115282660813, 0.0003285235112705703),
    (0.8776349157656809, 1.0982849774506394, 0.08299502906590053, 2.687557981769412,
     0.004946311904033934, -0.0002450134623300351),
    (0.6085713209880095, 1.50510842575463, -0.04166076578222608, 5.968954162412514,
     0.051752614174242574, 0.006575652953036357),
    (1.552691856600772, 0.643376194763426, 0.12445963407830948, 5.193107753082018,
     0.05267879503680035, 0.005922719172971038),
    (0.9936898319815195, 0.4062730912668443, 0.09511934073283099, 5.279789110215125,
     0.056058555879048795, 0.010347365193856786),
    (0.9550220077845182, 0.3592247551914877, 0.049462046057204175, 4.595609843441477,
     0.061685862313041004, -0.005633141877152042),
    (0.5907259593616021, 0.48837695716776774, -0.24281124900714657, 4.745640901542715,
     0.06180140872930402, 0.006315808515396362),
)
EPS = 2.0 ** -52


@pytest.mark.parametrize("c11, c22, c12, thL, J2E, J3E", LOG_INVARIANT_LITERALS,
                         ids=[f"s{i:02d}" for i in
                              range(len(LOG_INVARIANT_LITERALS))])
def test_log_invariants_match_high_precision_literals(c11, c22, c12, thL,
                                                      J2E, J3E):
    """invariants_log_exact's J2E within 2.5 eps/u relative and J3E within
    3 eps/u of |ed|^3 of 50-digit values: ln of the principal stretch
    ratio and cos 6 dtheta route missed J3E by up to 6.7 eps/u here."""
    c = SurfTensor2(c11, c22, c12)
    mean = 0.5 * (c11 + c22)
    u = math.hypot(0.5 * (c11 - c22), c12) / mean
    ex = invariants_log_exact(c, make_frame(thL))
    assert abs(ex.J2E - J2E) <= 2.5 * EPS / u * J2E
    assert abs(ex.J3E - J3E) <= 3.0 * EPS / u * J2E ** 1.5


def closed_form_log_invariants(J2, J3):
    """(J2E, J3E) as closed forms of invariants_C's J2 and J3: in 2-D, C/J1
    has eigenvalues e^(+-2 ed), so its traceless part has norm
    sqrt J2 = sinh 2 ed, and J2E = ed^2, J3E = ed^3 J3 / J2^(3/2) with
    ed = asinh(sqrt J2) / 2."""
    ed = 0.5 * math.asinh(math.sqrt(J2))
    return ed * ed, ed ** 3 * J3 / J2 ** 1.5


def asinh_ratio_series(terms):
    """The exact Maclaurin coefficients of r(x) = asinh(sqrt x) / sqrt x."""
    return [Fraction((-1) ** k * math.factorial(2 * k),
                     4 ** k * math.factorial(k) ** 2 * (2 * k + 1))
            for k in range(terms)]


def series_product(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def test_log_invariants_are_closed_forms_of_J2_and_J3():
    """The closed forms of invariants_C's J2 and J3 read J2E within 4 eps
    relative and J3E within 5 eps of J2E^(3/2) of the 50-digit literals,
    in every band from u = 2.7e-9 to 0.46, where invariants_log_exact needs
    2.5 eps/u. Their power series in J2, f1 = J2 r^2 / 4 for J2E and
    g = r^3 / 8 for J3E / J3, open with E1 = 1/4 and G1 = 1/8 exactly, and
    go on with -1/12 and -1/16, which the fitted E2 and G2 shrink."""
    worse = []
    for i, (c11, c22, c12, thL, J2E, J3E) in enumerate(
            LOG_INVARIANT_LITERALS):
        inv = invariants_C(SurfTensor2(c11, c22, c12), make_frame(thL))
        j2e, j3e = closed_form_log_invariants(inv.J2, inv.J3)
        if not (abs(j2e - J2E) <= 4.0 * EPS * J2E
                and abs(j3e - J3E) <= 5.0 * EPS * J2E ** 1.5):
            worse.append((i, j2e, J2E, j3e, J3E))
    assert worse == []

    r = asinh_ratio_series(3)
    r2 = series_product(r, r)
    r3 = series_product(r2, r)
    assert (E1, G1) == (r2[0] / 4, r3[0] / 8) == (Fraction(1, 4),
                                                  Fraction(1, 8))
    assert (r2[1] / 4, r3[1] / 8) == (Fraction(-1, 12), Fraction(-1, 16))
    assert 0.0 < E2 < Fraction(1, 12) and 0.0 < G2 < Fraction(1, 16)


def exact_surrogates(J2):
    """(f1, f1', f1'', g, g') of the exact log invariants, J2E = f1(J2) and
    J3E = J3 g(J2), in invariants._surrogates' layout: f1 = J2 r^2 / 4 and
    g = r^3 / 8 with r = asinh(sqrt J2) / sqrt J2. f1'' is NaN: a stress
    does not read it."""
    r = math.asinh(math.sqrt(J2)) / math.sqrt(J2)
    s = math.sqrt(1.0 + J2)
    rp = (1.0 / s - r) / (2.0 * J2)
    return (0.25 * J2 * r * r, 0.25 * r / s, math.nan,
            0.125 * r ** 3, 0.375 * r * r * rp)


def test_metric_stress_on_the_exact_surrogates_is_the_log_stress(monkeypatch):
    """With invariants._surrogates swapped for the exact log invariants'
    closed forms, stress_metric returns stress_log's W and S within 1e-13
    of mu0 - mu1, GGA and LDA, on 1,000 seeded states with eigenvalue gaps
    u in [1e-2, 0.39]: the metric kernel knows the surrogates only through
    that one head, and the log model is the metric model on the exact
    surrogates."""
    rng = random.Random(2447)
    states = []
    for _ in range(1000):
        mean, u = rng.uniform(0.8, 1.25), rng.uniform(1e-2, 0.39)
        states.append((spd(mean * (1.0 + u), mean * (1.0 - u),
                           rng.uniform(0.0, math.pi)),
                       make_frame(rng.uniform(0.0, 2.0 * math.pi))))
    logs = [[mm.stress_log(c, fr, p) for c, fr in states]
            for p in (mm.GGA, mm.LDA)]
    monkeypatch.setattr(iv, "_surrogates", exact_surrogates)
    for p, ref in zip((mm.GGA, mm.LDA), logs):
        worst = 0.0
        for (c, fr), lg in zip(states, ref):
            out = mm.stress_metric(c, fr, p)
            worst = max(worst, abs(out.W - lg.W),
                        *(abs(a - b) for a, b in zip(out.S, lg.S)))
        assert worst <= 1e-13 * (p.mu0 - p.mu1), (p.name, worst)


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
