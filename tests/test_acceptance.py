"""End-to-end acceptance battery.

Each test covers one gate of the library contract at its stated tolerance
and prints a single pass/fail line under pytest -v. Gates that a faithful
implementation cannot reach are asserted at their stated values anyway; the
failure message then reports the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from gmem import bending_geometry as bg
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.lattice import ZIGZAG_OFFSET, make_frame
from gmem.numdiff import STRESS_STEP, TANGENT_STEP, partials_sym
from gmem.surface_tensors import SurfTensor2, _new, rearrange

BOTH_PARAMS = (mm.GGA, mm.LDA)


def random_state(rng):
    e1, e2 = rng.uniform(0.7, 1.6, size=2)
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return SurfTensor2(e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c,
                       (e1 - e2) * s * c)


def stress_triple(model_stress, c, frame, params):
    r = model_stress(c, frame, params)
    return np.array([r.S.c11, r.S.c22, r.S.c12])


def test_01_metric_stress_matches_energy_differences():
    """200 random states per parameter set, relative error below 1e-6,
    wall time under two seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for params in BOTH_PARAMS:
        for _ in range(200):
            frame = make_frame(rng.uniform(0.0, 2.0 * math.pi))
            c = random_state(rng)

            def w_of(c11, c22, c12):
                return mm.energy_metric(SurfTensor2(c11, c22, c12),
                                        frame, params)

            comps = (c.c11, c.c22, c.c12)
            fd = 2.0 * partials_sym(w_of, comps, STRESS_STEP)
            an = stress_triple(mm.stress_metric, c, frame, params)
            err = np.max(np.abs(fd - an)) / max(np.max(np.abs(an)), 1e-12)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"max relative stress error {worst:.3e}"
    assert elapsed < 2.0, f"derivative check took {elapsed:.2f} s"


def test_02_metric_tangent_matches_stress_differences():
    """Analytic tangent against differenced analytic stress below 1e-4,
    major symmetry exact."""
    rng = np.random.default_rng(7)
    worst_fd = 0.0
    asymmetric = 0
    for params in BOTH_PARAMS:
        for _ in range(100):
            frame = make_frame(rng.uniform(0.0, 2.0 * math.pi))
            c = random_state(rng)

            def s_of(c11, c22, c12):
                return stress_triple(mm.stress_metric,
                                     SurfTensor2(c11, c22, c12), frame,
                                     params)

            t4 = mm.tangent_metric(c, frame, params).comp
            pair = np.array([
                [t4[0, 0, 0, 0], t4[0, 0, 1, 1], t4[0, 0, 0, 1]],
                [t4[1, 1, 0, 0], t4[1, 1, 1, 1], t4[1, 1, 0, 1]],
                [t4[0, 1, 0, 0], t4[0, 1, 1, 1], t4[0, 1, 0, 1]],
            ])
            scale = np.max(np.abs(pair))
            comps = (c.c11, c.c22, c.c12)
            fd = 2.0 * partials_sym(s_of, comps, TANGENT_STEP)
            worst_fd = max(worst_fd, np.max(np.abs(fd - pair)) / scale)
            asymmetric += not np.array_equal(t4, t4.transpose(2, 3, 0, 1))
    assert worst_fd < 1e-4, f"max relative tangent error {worst_fd:.3e}"
    assert asymmetric == 0, f"{asymmetric} tangents not major-symmetric"


def test_03_alternative_assembly_rearranges_to_direct_tangent():
    """Tangent assembled in the alternative component order, then
    reordered, against the direct assembly: 1e-12 over 50 states."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        frame = make_frame(rng.uniform(0.0, 2.0 * math.pi))
        c = random_state(rng)
        params = mm.GGA if rng.uniform() < 0.5 else mm.LDA
        direct = mm.tangent_metric(c, frame, params).comp
        alt = rearrange(mm.tangent_metric_oplus(c, frame, params)).comp
        worst = max(worst, np.max(np.abs(alt - direct))
                    / np.max(np.abs(direct)))
    assert worst < 1e-12, f"max rearrangement mismatch {worst:.3e}"


def test_04_reference_state_has_zero_energy_and_stress():
    ident = SurfTensor2(1.0, 1.0, 0.0)
    frame = make_frame(0.37)
    for params in BOTH_PARAMS:
        for fn in (mm.stress_metric, mm.stress_log):
            r = fn(ident, frame, params)
            norm = math.hypot(r.S.c11, r.S.c22, r.S.c12)
            assert norm < 1e-12 * params.epsilon, (
                f"{fn.__name__} {params.name}: |S(I)| = {norm:.3e}")
            assert r.W == 0.0, f"{fn.__name__} {params.name}: W(I) = {r.W!r}"


def test_05_invariant_surrogates_within_two_hundredths_percent():
    """Polynomial surrogates against the exact log invariants over
    principal stretch ratios in [1, 1.3], gate 0.02 percent."""
    # Not met by the default constants. e1 = 1/4 and g1 = 1/8 are the
    # exact small-strain coefficients; e2, g2 are a relative least-squares
    # fit over this range, which bounds the RMS error (0.0083%, 0.0144%),
    # not the maximum (0.021960%, 0.038405%). With g1 = 1/8 kept, no g2
    # brings f2 below 0.0250% here. These maxima are frozen by
    # test_scenarios.py::test_invariant_surrogate_error_maxima. Whether the
    # paper's 0.02% is a maximum, an RMS value or a bound over another
    # range cannot be settled without the paper text.
    out = sc.invariant_approximation_errors(np.linspace(1.0, 1.3, 601))
    msg = (f"measured maxima: f1 {out['f1_vs_J2E']:.6f}%, "
           f"f2 {out['f2_vs_J3E']:.6f}%, gate 0.02%")
    assert out["f1_vs_J2E"] < 0.02 and out["f2_vs_J3E"] < 0.02, msg


def test_06_metric_log_stress_agreement_gates():
    """Sweep-normalized stress differences between the two models inside
    the surrogate's fitted range, principal stretch ratio lambda1/lambda2
    up to 1.3, with the published comparison values reported next to the
    measured ones.

    Uniaxial sweeps reach ratio lam, pure-shear sweeps lam**2, so pure
    shear ends at lam = sqrt(1.3). Pure shear to lam = 1.2 (ratio 1.44)
    is reported as extrapolation and not gated: past the fitted range the
    surrogate error grows as (ln ratio)**4.
    """
    frame = make_frame(0.0)
    shear_end = math.sqrt(1.3)
    cases = [
        ("uniaxial armchair GGA",
         sc.DeformationProtocol("uniaxial-constrained", 0.0, 1.0, 1.25, 101),
         mm.GGA, (0.05, 0.4), (0.019, 0.199)),
        ("uniaxial zigzag GGA",
         sc.DeformationProtocol("uniaxial-constrained", ZIGZAG_OFFSET,
                                1.0, 1.25, 101),
         mm.GGA, (0.05, 0.4), (0.019, 0.194)),
        # The published pure-shear figures are context only. No pure-,
        # simple- or symmetric-shear sweep reproduces them: this model
        # gives GGA and LDA differences within 4% of each other in every
        # such sweep, while the published pairs differ threefold, so the
        # protocol behind them is unknown.
        ("pure shear GGA",
         sc.DeformationProtocol("pure-shear", 0.0, 1.0, shear_end, 101),
         mm.GGA, (0.8, 0.9), (0.35, 0.42)),
        ("pure shear LDA",
         sc.DeformationProtocol("pure-shear", 0.0, 1.0, shear_end, 101),
         mm.LDA, (0.4, 0.5), (0.12, 0.22)),
    ]
    lines = []
    failures = []
    for name, protocol, params, gates, published in cases:
        out = sc.compare_models(protocol, params, frame)
        measured = (out["sigma11"], out["sigma22"])
        lines.append(f"{name}: measured sigma11 {measured[0]:.4f}% / "
                     f"sigma22 {measured[1]:.4f}%, published {published[0]} "
                     f"and {published[1]} percent, gates {gates[0]}% / "
                     f"{gates[1]}%")
        for comp_name, m, g in zip(("sigma11", "sigma22"), measured, gates):
            if not m <= g:
                failures.append(f"{name} {comp_name}: {m:.4f}% > {g}%")
    for name, params in (("pure shear GGA", mm.GGA),
                         ("pure shear LDA", mm.LDA)):
        out = sc.compare_models(
            sc.DeformationProtocol("pure-shear", 0.0, 1.0, 1.2, 101),
            params, frame)
        lines.append(f"{name} to lam 1.2 (ratio 1.44, extrapolation, not "
                     f"gated): sigma11 {out['sigma11']:.4f}% / "
                     f"sigma22 {out['sigma22']:.4f}%")
    report = "\n".join(lines)
    print(report)
    assert not failures, "gate breaches:\n" + "\n".join(failures) + \
        "\nfull comparison:\n" + report


def test_07_anisotropy_periodicity_mirror_and_peak_ordering():
    rng = np.random.default_rng(3)
    frame0 = make_frame(0.0)
    for _ in range(40):
        c = random_state(rng)
        th = rng.uniform(0.0, 2.0 * math.pi)
        w0 = mm.energy_metric(c, make_frame(th), mm.GGA)
        w_per = mm.energy_metric(c, make_frame(th + math.pi / 3.0), mm.GGA)
        assert abs(w_per - w0) <= 1e-12 * max(abs(w0), 1.0)
        # mirror the state across the armchair axis instead of the lattice
        c_mir = SurfTensor2(c.c11, c.c22, -c.c12)
        w_mir = mm.energy_metric(c_mir, frame0, mm.GGA)
        w_ref = mm.energy_metric(c, frame0, mm.GGA)
        assert abs(w_mir - w_ref) <= 1e-12 * max(abs(w_ref), 1.0)
    # no shear response when pulling along a mirror axis
    for direction in (0.0, ZIGZAG_OFFSET):
        pts = sc.run_curve(
            sc.DeformationProtocol("uniaxial-constrained", direction,
                                   1.0, 1.25, 26), "metric", mm.GGA, frame0)
        worst = max(abs(q.sigma12) for q in pts)
        assert worst < 1e-12, f"sigma12 on mirror axis: {worst:.3e}"
    # the stronger direction is the zigzag one
    peak = {}
    for name, direction in (("armchair", 0.0), ("zigzag", ZIGZAG_OFFSET)):
        pts = sc.run_curve(
            sc.DeformationProtocol("uniaxial-constrained", direction,
                                   1.0, 1.25, 251), "metric", mm.GGA, frame0)
        peak[name] = sc.peak_of_curve(pts)[1]
    assert peak["zigzag"] > peak["armchair"], peak


def test_08_bending_derivatives_and_cylinder_closed_forms():
    rep = sc.verify_derivatives("bending", n_samples=50, seed=9)
    checks = rep["checks"]
    assert checks["stress_fd"]["max"] < 1e-6, checks["stress_fd"]
    assert checks["tangent_fd"]["max"] < 1e-5, checks["tangent_fd"]
    assert checks["transpose_identity"]["max"] == 0.0
    cb = 0.238
    radius = 2.0
    g = bg.evaluate_geometry(bg.cylinder_surface(radius), (0.3, 1.1),
                             reference=bg.flat_patch())
    w = bg.canham_energy(g, cb)
    assert abs(w - cb / (2.0 * radius ** 2)) < 1e-12
    tau, m0 = bg.bending_stress_moment(g, cb)
    assert abs(m0.c11 - cb / radius) < 1e-12
    assert abs(m0.c22) < 1e-12 and abs(m0.c12) < 1e-12


def test_09_contact_potential_identities_and_extremum():
    cp = sc.ContactParams()
    psi0, tr0 = sc.contact_potential(cp.h0, cp)
    assert psi0 == -cp.gamma
    assert abs(tr0) < 1e-10
    h = 1e-6
    radii = (0.3, 0.34, 0.4, 0.5, 0.8, 1.2)
    tractions = [sc.contact_potential(r, cp)[1] for r in radii]
    scale = max(abs(t) for t in tractions)
    worst = 0.0
    for r, tr in zip(radii, tractions):
        psi_p, _ = sc.contact_potential(r + h, cp)
        psi_m, _ = sc.contact_potential(r - h, cp)
        fd = -(psi_p - psi_m) / (2.0 * h)
        worst = max(worst, abs(fd - tr) / scale)
    assert worst < 1e-8, f"traction FD mismatch {worst:.3e} of scale {scale:.3g}"
    rx = sc.traction_extremum(cp)
    assert abs(rx - 2.5 ** (1.0 / 6.0) * cp.h0) < 1e-6


def test_10_beam_linearity_and_cone_apex_angles():
    b = sc.BeamParams(340.0, 1.0, 38.19, math.radians(17.45))
    f1, a1 = sc.beam_force(b, 0.05)
    f2, a2 = sc.beam_force(b, 0.1)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-15)
    assert a2 == pytest.approx(2.0 * a1, rel=1e-15)
    f_sum, _ = sc.beam_force(b, 0.05 + 0.1)
    assert f_sum == pytest.approx(f1 + f2, rel=1e-14)
    assert sc.apex_angle(300.0) == pytest.approx(19.19, abs=0.01)
    assert sc.apex_angle(240.0) == pytest.approx(38.94, abs=0.01)


# the kernel as imported, before any test substitutes mm._log_core
LOG_CORE = mm._log_core


def log_core_fd(c, frame, p, order):
    """membrane_material._log_core with G = 2 * partials_sym of its order-1
    stress at relative step TANGENT_STEP, a (3, 3) ndarray: the differenced
    log route that test_11 times against the metric model. It calls
    LOG_CORE, so it can stand in for mm._log_core without calling itself."""
    W, s, _g, J = LOG_CORE(c, frame, p, min(order, 1))
    if order < 2:
        return W, s, None, J
    return W, s, 2.0 * partials_sym(
        lambda *t: LOG_CORE(_new(SurfTensor2, t), frame, p, 1)[1],
        c, TANGENT_STEP), J


def test_differenced_log_route_keeps_the_contract():
    """log_core_fd is _log_core with G twice partials_sym of the order-1
    stress, bit for bit, on a generic GGA state and a near-isotropic LDA
    state (u ~ 1e-9, inside _ln_divided2's series band)."""
    frame = make_frame(0.2)
    for c, p in ((SurfTensor2(1.3, 0.9, 0.15), mm.GGA),
                 (SurfTensor2(1.2 + 1.2e-9, 1.2 - 1.2e-9, 0.0), mm.LDA)):
        for order in (0, 1, 2):
            fd = log_core_fd(c, frame, p, order)
            an = mm._log_core(c, frame, p, order)
            assert fd[:2] == an[:2] and fd[3] == an[3]
            assert (fd[2] is None) == (order < 2)
        g_fd = log_core_fd(c, frame, p, 2)[2]
        ref = 2.0 * partials_sym(
            lambda *t: mm._log_core(SurfTensor2(*t), frame, p, 1)[1],
            c, TANGENT_STEP)
        assert g_fd.shape == (3, 3) and g_fd.tobytes() == ref.tobytes()
        g = np.array(mm._log_core(c, frame, p, 2)[2])
        assert np.max(np.abs(g_fd - g)) <= 1e-8 * np.max(np.abs(g))


def test_11_metric_path_throughput_advantage(monkeypatch):
    """Stress+tangent throughput of the analytic path at least 1.2 times
    the spectral path with its tangent differenced (log_core_fd in place
    of mm._log_core) on 1e5 evaluations, as the median over the bench's
    rounds; the published reference ratio is 1.5 and is reported, not
    gated."""
    monkeypatch.setattr(mm, "_log_core", log_core_fd)
    rep = sc.benchmark_models(mm.GGA, n_evals=100_000, seed=0)
    ratio = rep["speedup_stress_tangent"]
    st, so = (rep["speedup_spread"][k] for k in ("stress_tangent",
                                                 "stress_only"))
    msg = (f"measured speedup {ratio:.3f} (median of {rep['rounds']} "
           f"rounds, min {st['min']:.3f}, max {st['max']:.3f}; stress only "
           f"{so['median']:.3f}, {so['min']:.3f}-{so['max']:.3f}), "
           f"reference {rep['reference_ratio']}, gate 1.2")
    print(msg)
    assert rep["consistency_gate"]["pass"] is True
    assert ratio >= 1.2, msg
