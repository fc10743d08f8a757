"""Deformation drivers, model comparison, the verification engine, and the
closed-form calculators."""

import json
import math

import numpy as np
import pytest

from gmem import bending_geometry as bg
from gmem import membrane_material as mm
from gmem import scenarios as sc
from gmem.lattice import ZIGZAG_OFFSET, make_frame
from gmem.numdiff import STRESS_STEP, TANGENT_STEP, partials_sym
from gmem.surface_tensors import _PAIR_TAKE, SurfTensor2, Tangent4

ARMCHAIR = make_frame(0.0)


def uniaxial(end, steps=2, direction=0.0):
    return sc.DeformationProtocol("uniaxial-constrained", direction,
                                  1.0, end, steps)


def shear(end, steps=2, direction=0.0):
    return sc.DeformationProtocol("pure-shear", direction, 1.0, end, steps)


def test_protocol_validation():
    assert sc.STRETCH_RANGE == (0.7, 1.6)
    assert sc.MODEL_NAMES == ("metric", "log")
    with pytest.raises(ValueError):
        sc.DeformationProtocol("simple-shear")
    with pytest.raises(ValueError):
        sc.DeformationProtocol("pure-shear", 0.0, 0.6, 1.2, 5)
    with pytest.raises(ValueError):
        sc.DeformationProtocol("pure-shear", 0.0, 1.0, 1.7, 5)
    with pytest.raises(ValueError):
        sc.DeformationProtocol("dilatation", 0.0, 1.0, 1.2, 0)
    # steps lies in [1, MAX_STEPS], checked before any sweep array is made
    assert sc.MAX_STEPS == 100_000
    assert sc.DeformationProtocol("dilatation", 0.0, 1.0, 1.2,
                                  sc.MAX_STEPS).steps == sc.MAX_STEPS
    with pytest.raises(ValueError, match=r"steps must be in \[1, 100000\]"):
        sc.DeformationProtocol("dilatation", 0.0, 1.0, 1.2, sc.MAX_STEPS + 1)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_protocol_rejects_a_non_finite_direction(angle):
    with pytest.raises(ValueError,
                       match=f"direction_angle must be finite, got {angle!r}"):
        sc.DeformationProtocol("uniaxial-constrained", angle, 1.0, 1.1, 3)


@pytest.mark.parametrize("steps", [2.5, 3.0])
def test_protocol_takes_steps_as_an_integer(steps):
    """A float step count is refused when the protocol is built, not later
    in np.linspace; a NumPy integer is an integer."""
    with pytest.raises(TypeError):
        sc.DeformationProtocol("pure-shear", 0.0, 1.0, 1.2, steps)
    proto = sc.DeformationProtocol("pure-shear", 0.0, 1.0, 1.2, np.int64(3))
    assert proto.values().tolist() == [1.0, 1.1, 1.2]


def curve_states(monkeypatch, proto, frame=ARMCHAIR, model="metric"):
    """run_curve's points, and the C each point passed to
    mm.stress_<model>, recorded through that call."""
    call = getattr(mm, f"stress_{model}")
    seen = []

    def stress(c, fr, p):
        seen.append(c)
        return call(c, fr, p)

    with monkeypatch.context() as patch:
        patch.setattr(mm, f"stress_{model}", stress)
        return sc.run_curve(proto, model, mm.GGA, frame), seen


def test_protocol_values_and_states(monkeypatch):
    p = sc.DeformationProtocol("dilatation", 0.0, 1.0, 1.21, 3)
    np.testing.assert_allclose(p.values(), [1.0, 1.105, 1.21])
    st = curve_states(monkeypatch, p)[1][-1]
    assert (st.c11, st.c22, st.c12) == (1.21, 1.21, 0.0)

    u = curve_states(monkeypatch, uniaxial(1.2))[1][-1]
    assert (u.c11, u.c22, u.c12) == pytest.approx((1.44, 1.0, 0.0))
    # pulling at ninety degrees lands the stretch on the second axis
    u90 = curve_states(monkeypatch,
                       uniaxial(1.2, direction=math.pi / 2.0))[1][-1]
    assert (u90.c11, u90.c22) == pytest.approx((1.0, 1.44))
    assert abs(u90.c12) < 1e-15

    s = curve_states(monkeypatch, shear(1.15))[1][-1]
    assert (s.c11, s.c22) == pytest.approx((1.3225, 1.0 / 1.3225))

    # largest principal stretch ratio, at either end of the sweep
    assert p.max_stretch_ratio() == 1.0
    assert sc.DeformationProtocol("uniaxial-constrained", 0.0, 0.8, 1.1,
                                  3).max_stretch_ratio() == 1.0 / 0.8
    assert sc.DeformationProtocol("pure-shear", 0.0, 0.9, 1.05,
                                  3).max_stretch_ratio() == 1.0 / (0.9 * 0.9)
    assert shear(1.2).max_stretch_ratio() == 1.2 * 1.2
    # one step evaluates start only, so end does not count
    one = sc.DeformationProtocol("pure-shear", 0.0, 1.0, 1.6, 1)
    np.testing.assert_array_equal(one.values(), [1.0])
    assert one.max_stretch_ratio() == 1.0 and one.in_fitted_range()
    assert sc.DeformationProtocol("uniaxial-constrained", 0.0, 0.9, 1.2,
                                  1).max_stretch_ratio() == 1.0 / 0.9


def test_run_curve_rejects_unknown_model():
    with pytest.raises(ValueError):
        sc.run_curve(uniaxial(1.1), "mooney", mm.GGA, ARMCHAIR)


@pytest.mark.parametrize("kind", sc.PROTOCOL_KINDS)
@pytest.mark.parametrize("direction_deg", [0.0, 30.0, 12.5, -33.0])
@pytest.mark.parametrize("model", sc.MODEL_NAMES)
@pytest.mark.parametrize("lattice", [0.0, 0.4])
def test_run_curve_equals_per_point_loop(monkeypatch, kind, direction_deg,
                                         model, lattice):
    """run_curve is bitwise the literal loop: C by the kind's rule at each
    point, along the pull axis theta_lattice + direction_angle (none for
    dilatation, whose c12 is +0.0), the public stress call, then the
    rotation of sigma into the pull-aligned frame."""
    proto = sc.DeformationProtocol(kind, math.radians(direction_deg),
                                   0.7, 1.6, 37)
    frame = make_frame(lattice)
    phi = (0.0 if kind == "dilatation"
           else frame.theta_lattice + proto.direction_angle)
    c, s = math.cos(phi), math.sin(phi)
    stress = getattr(mm, f"stress_{model}")
    want, states = [], []
    for lam in proto.values().tolist():
        if kind == "dilatation":
            st = SurfTensor2(lam, lam, 0.0)
        else:
            d1 = lam * lam
            d2 = 1.0 if kind == "uniaxial-constrained" else 1.0 / (lam * lam)
            st = SurfTensor2(d1 * c * c + d2 * s * s,
                             d1 * s * s + d2 * c * c, (d1 - d2) * s * c)
        states.append(st)
        r = stress(st, frame, mm.GGA)
        g = r.sigma
        want.append((lam,
                     c * c * g.c11 + s * s * g.c22 + 2.0 * c * s * g.c12,
                     s * s * g.c11 + c * c * g.c22 - 2.0 * c * s * g.c12,
                     (c * c - s * s) * g.c12 + c * s * (g.c22 - g.c11),
                     r.W))
    got, seen = curve_states(monkeypatch, proto, frame, model)
    assert seen == states
    assert all(type(st) is SurfTensor2 for st in seen)
    if kind == "dilatation":
        assert all(math.copysign(1.0, st.c12) == 1.0 for st in seen)
    assert [tuple(q) for q in got] == want
    assert all(type(q.lam) is float for q in got)


def test_uniaxial_armchair_frozen_points():
    pts = sc.run_curve(uniaxial(1.1), "metric", mm.GGA, ARMCHAIR)
    q = pts[1]
    assert q.lam == pytest.approx(1.1, rel=1e-15)
    assert q.sigma11 == pytest.approx(26.6862641044064581, rel=1e-13)
    assert q.sigma22 == pytest.approx(4.16686675668229117, rel=1e-13)
    assert abs(q.sigma12) < 1e-12
    log_q = sc.run_curve(uniaxial(1.1), "log", mm.GGA, ARMCHAIR)[1]
    assert log_q.sigma11 == pytest.approx(26.6849807415642513, rel=1e-13)
    assert log_q.sigma22 == pytest.approx(4.1682952518618133, rel=1e-13)
    far = sc.run_curve(uniaxial(1.2), "metric", mm.GGA, ARMCHAIR)[1]
    assert far.sigma11 == pytest.approx(34.3948393241277157, rel=1e-13)
    assert far.sigma22 == pytest.approx(4.18485890208150048, rel=1e-13)


def test_uniaxial_zigzag_frozen_points():
    pts = sc.run_curve(uniaxial(1.1, direction=ZIGZAG_OFFSET), "metric",
                       mm.GGA, ARMCHAIR)
    assert pts[1].sigma11 == pytest.approx(26.5119596933684981, rel=1e-13)
    assert pts[1].sigma22 == pytest.approx(4.67078213343304776, rel=1e-13)
    assert abs(pts[1].sigma12) < 1e-12
    far = sc.run_curve(uniaxial(1.2, direction=ZIGZAG_OFFSET), "metric",
                       mm.GGA, ARMCHAIR)[1]
    assert far.sigma11 == pytest.approx(37.4855744670469245, rel=1e-13)
    assert far.sigma22 == pytest.approx(5.14022338780789545, rel=1e-13)


def test_pure_shear_frozen_points():
    q = sc.run_curve(shear(1.15), "metric", mm.GGA, ARMCHAIR)[1]
    assert q.sigma11 == pytest.approx(37.8168144283678209, rel=1e-13)
    assert q.sigma22 == pytest.approx(-48.7103328662696338, rel=1e-13)
    lq = sc.run_curve(shear(1.15), "log", mm.GGA, ARMCHAIR)[1]
    assert lq.sigma11 == pytest.approx(37.8973121463848227, rel=1e-13)
    assert lq.sigma22 == pytest.approx(-48.7949806789650124, rel=1e-13)
    rot = sc.run_curve(shear(1.1, direction=math.pi / 12.0), "metric",
                       mm.GGA, ARMCHAIR)[1]
    assert rot.sigma11 == pytest.approx(25.1331199759632194, rel=1e-13)
    assert rot.sigma22 == pytest.approx(-30.2015735106046069, rel=1e-13)
    assert rot.sigma12 == pytest.approx(-1.28213805870161682, rel=1e-12)


def test_curve_point_energy_matches_model(monkeypatch):
    pts, states = curve_states(monkeypatch, uniaxial(1.1))
    st = states[1]
    assert pts[1].W == pytest.approx(
        mm.energy_metric(st, ARMCHAIR, mm.GGA), rel=1e-15)


def test_peak_of_curve_and_direction_ordering():
    fine_arm = sc.run_curve(
        sc.DeformationProtocol("uniaxial-constrained", 0.0, 1.0, 1.25, 251),
        "metric", mm.GGA, ARMCHAIR)
    lam_a, peak_a = sc.peak_of_curve(fine_arm)
    assert lam_a == pytest.approx(1.189, abs=1e-3)
    assert peak_a == pytest.approx(34.5216060696, abs=5e-4)
    fine_zz = sc.run_curve(
        sc.DeformationProtocol("uniaxial-constrained", ZIGZAG_OFFSET,
                               1.0, 1.25, 251), "metric", mm.GGA, ARMCHAIR)
    lam_z, peak_z = sc.peak_of_curve(fine_zz)
    assert lam_z == pytest.approx(1.246, abs=1e-3)
    assert peak_z == pytest.approx(38.5955397934, abs=5e-4)
    assert peak_z > peak_a


def test_compare_models_dilatation_is_exact():
    p = sc.DeformationProtocol("dilatation", 0.0, 1.0, 1.21, 11)
    out = sc.compare_models(p, mm.GGA, ARMCHAIR)
    assert set(out) == {"sigma11", "sigma22", "sigma12"}
    assert out["sigma11"] < 1e-10
    assert out["sigma22"] < 1e-10


def test_compare_models_uniaxial_magnitudes():
    p = sc.DeformationProtocol("uniaxial-constrained", 0.0, 1.0, 1.25, 101)
    out = sc.compare_models(p, mm.GGA, ARMCHAIR)
    assert out["sigma11"] == pytest.approx(0.0166, abs=2e-3)
    assert out["sigma22"] == pytest.approx(0.1204, abs=5e-3)


@pytest.mark.parametrize("kind", sc.PROTOCOL_KINDS)
@pytest.mark.parametrize("direction_deg", [0.0, 17.0, 30.0, 45.0])
def test_sweeps_do_not_depend_on_the_lattice_angle(kind, direction_deg):
    """The sweep is built and rotated back relative to the lattice, so
    turning the storage frame moves sigma and W only in rounding: within
    1e-13 of the sweep's largest magnitude (2.9e-15 and 3.4e-15 measured).
    compare is checked on sigma11 and sigma22; its sigma12 is rounding
    noise around 0 wherever the pull lies on a symmetry axis."""
    proto = sc.DeformationProtocol(kind, math.radians(direction_deg),
                                   0.8, 1.3, 51)
    for model in sc.MODEL_NAMES:
        base = sc.run_curve(proto, model, mm.GGA, ARMCHAIR)
        sig_max = max(abs(v) for q in base for v in q[1:4])
        w_max = max(abs(q.W) for q in base)
        for lattice_deg in (13.0, 77.0, 200.0):
            got = sc.run_curve(proto, model, mm.GGA,
                               make_frame(math.radians(lattice_deg)))
            assert [q.lam for q in got] == [q.lam for q in base]
            for q, r in zip(got, base):
                for a, b in zip(q[1:4], r[1:4]):
                    assert abs(a - b) <= 1e-13 * sig_max
                assert abs(q.W - r.W) <= 1e-13 * w_max
    base = sc.compare_models(proto, mm.GGA, ARMCHAIR)
    for lattice_deg in (13.0, 77.0, 200.0):
        got = sc.compare_models(proto, mm.GGA,
                                make_frame(math.radians(lattice_deg)))
        for name in ("sigma11", "sigma22"):
            assert abs(got[name] - base[name]) <= 100.0 * 1e-13


def test_invariant_surrogate_error_maxima():
    out = sc.invariant_approximation_errors(np.linspace(1.0, 1.3, 601))
    assert out["f1_vs_J2E"] == pytest.approx(0.021959877, rel=1e-5)
    assert out["f2_vs_J3E"] == pytest.approx(0.038404956, rel=1e-5)
    tight = sc.invariant_approximation_errors(np.linspace(1.0, 1.25, 501))
    assert tight["f1_vs_J2E"] == pytest.approx(0.011504798, rel=1e-4)
    assert tight["f2_vs_J3E"] == pytest.approx(0.019924312, rel=1e-4)


def test_verify_derivatives_metric():
    rep = sc.verify_derivatives("metric", n_samples=20, seed=3)
    assert rep["pass"] is True
    assert rep["param_set"] == "GGA"
    assert set(rep["checks"]) == {"stress_fd", "tangent_fd",
                                  "major_symmetry", "rearrangement"}
    for chk in rep["checks"].values():
        if chk["tol"] == 0.0:
            assert chk["max"] == 0.0
        else:
            assert chk["max"] < chk["tol"]
        assert 0.0 <= chk["mean"] <= chk["max"]


def test_verify_derivatives_log_and_bending():
    rep = sc.verify_derivatives("log", params=mm.LDA, n_samples=10, seed=5)
    assert rep["pass"] is True
    assert rep["param_set"] == "LDA"
    assert set(rep["checks"]) == {"stress_fd", "major_symmetry"}
    bend = sc.verify_derivatives("bending", n_samples=10, seed=7)
    assert bend["pass"] is True
    assert bend["checks"]["transpose_identity"]["max"] == 0.0


def test_verify_derivatives_is_deterministic():
    a = sc.verify_derivatives("metric", n_samples=8, seed=11)
    b = sc.verify_derivatives("metric", n_samples=8, seed=11)
    assert a == b


# (model, check) -> (max, mean) as float.hex and worst_sample of
# verify_derivatives(model, n_samples=4, seed=11), recorded before the
# verify helpers moved to float arithmetic and one draw per sample
FROZEN_VERIFY = {
    ("metric", "stress_fd"): (
        "0x1.014ecab52f8a4p-31", "0x1.caed96871799cp-33", 1),
    ("metric", "tangent_fd"): (
        "0x1.31693219bffe7p-31", "0x1.9ff27520ed1b5p-32", 1),
    ("metric", "major_symmetry"): ("0x0.0p+0", "0x0.0p+0", 0),
    ("metric", "rearrangement"): (
        "0x1.0bc246e43aa39p-52", "0x1.154e5a6cf84dep-53", 3),
    ("log", "stress_fd"): (
        "0x1.39eb4207809aap-31", "0x1.64825d2cbf723p-32", 1),
    ("log", "major_symmetry"): ("0x0.0p+0", "0x0.0p+0", 0),
    ("bending", "stress_fd"): (
        "0x1.5831bf0fc6a99p-32", "0x1.e50755284ebbep-33", 1),
    ("bending", "tangent_fd"): (
        "0x1.e39a181ca3f65p-32", "0x1.099057b3bd3e9p-33", 0),
    ("bending", "transpose_identity"): ("0x0.0p+0", "0x0.0p+0", 0),
}


@pytest.mark.parametrize("model", list(sc.VERIFY_TOLERANCES))
def test_verify_reports_its_frozen_bits(model):
    """Every check's max and mean, to the bit, and its worst_sample."""
    checks = sc.verify_derivatives(model, n_samples=4, seed=11)["checks"]
    assert [(model, name) for name in checks] == [
        key for key in FROZEN_VERIFY if key[0] == model]
    for name, check in checks.items():
        assert (check["max"].hex(), check["mean"].hex(),
                check["worst_sample"]) == FROZEN_VERIFY[model, name], name


def test_verify_derivatives_tolerance_handling(monkeypatch):
    tols = sc.VERIFY_TOLERANCES["metric"]
    monkeypatch.setitem(tols, "tangent_fd", 1e-16)
    rep = sc.verify_derivatives("metric", n_samples=5)
    assert rep["pass"] is False
    assert rep["checks"]["tangent_fd"]["pass"] is False
    # one pass rule, max <= tol: a check sitting exactly at its tolerance
    # passes, and bending's transpose_identity passes at its 0.0 with no
    # special case
    at = rep["checks"]["stress_fd"]["max"]
    monkeypatch.setitem(tols, "stress_fd", at)
    rerun = sc.verify_derivatives("metric", n_samples=5)
    assert rerun["checks"]["stress_fd"]["max"] == at
    assert rerun["checks"]["stress_fd"]["pass"] is True
    assert sc._summary(np.array([0.0, 0.0]), 2, 0.0)["pass"] is True
    bend = sc.verify_derivatives("bending", n_samples=3, seed=1)
    assert bend["checks"]["transpose_identity"]["tol"] == 0.0
    assert bend["checks"]["transpose_identity"]["pass"] is True
    with pytest.raises(ValueError):
        sc.verify_derivatives("maxwell")
    with pytest.raises(ValueError):
        sc.verify_derivatives("metric", n_samples=0)


class Drawn(Exception):
    pass


def draw(*_args):
    raise Drawn


def test_sample_and_eval_counts_are_bounded(monkeypatch):
    """verify's n_samples lies in [1, MAX_SAMPLES] and bench's n_evals in
    [10000, MAX_EVALS], checked before any state is drawn: a count at its
    bound reaches the first draw (verify's _membrane_state or
    _bending_state, bench's make_frame), one above it raises ValueError
    first."""
    for name in ("_membrane_state", "_bending_state", "_membrane_sample",
                 "_bending_sample", "make_frame"):
        monkeypatch.setattr(sc, name, draw)
    assert (sc.MAX_SAMPLES, sc.MAX_EVALS) == (100_000, 1_000_000)
    for model in sc.VERIFY_TOLERANCES:
        with pytest.raises(Drawn):
            sc.verify_derivatives(model, n_samples=sc.MAX_SAMPLES)
        with pytest.raises(ValueError, match="n_samples must be <= 100000"):
            sc.verify_derivatives(model, n_samples=sc.MAX_SAMPLES + 1)
    with pytest.raises(Drawn):
        sc.benchmark_models(mm.GGA, n_evals=sc.MAX_EVALS)
    with pytest.raises(ValueError, match="n_evals must be <= 1000000"):
        sc.benchmark_models(mm.GGA, n_evals=sc.MAX_EVALS + 1)


def test_bench_takes_n_evals_as_an_integer(monkeypatch):
    """n_evals is an integer, as verify's n_samples is: a float or a string
    raises TypeError before any state is drawn, and a NumPy integer
    reaches the first draw."""
    monkeypatch.setattr(sc, "make_frame", draw)
    for bad in (10_000.7, 1e5, "100000"):
        with pytest.raises(TypeError):
            sc.benchmark_models(mm.GGA, n_evals=bad)
    with pytest.raises(Drawn):
        sc.benchmark_models(mm.GGA, n_evals=np.int64(10_000))


@pytest.mark.parametrize("model", ["metric", "log"])
def test_verify_errors_do_not_depend_on_tolerances(model, monkeypatch):
    """Each error is measured before its tolerance is applied: with every
    tolerance at 0.0, each check reports the same max, mean, worst_sample
    and worst_state as at the table's values; only tol and pass may
    differ."""
    loose = sc.verify_derivatives(model, n_samples=50, seed=0)["checks"]
    monkeypatch.setitem(sc.VERIFY_TOLERANCES, model,
                        dict.fromkeys(sc.VERIFY_TOLERANCES[model], 0.0))
    strict = sc.verify_derivatives(model, n_samples=50, seed=0)["checks"]
    assert strict.keys() == loose.keys()
    for name, check in loose.items():
        for key in ("max", "mean", "worst_sample", "worst_state"):
            assert strict[name][key] == check[key], (name, key)
        assert strict[name]["tol"] == 0.0


def test_verify_metric_tangent_fd_catches_a_one_percent_coefficient(
        monkeypatch):
    """Scaling one tangent coefficient, g_pz, by 1.01 fails tangent_fd at its
    tolerance (the error reads about 9.1e-5). rearrangement cannot
    see it: the oplus route takes the same coefficients from
    _h_coefficients, so its error stays at roundoff."""
    head = mm._h_coefficients

    def g_pz_off_by_one_percent(*args, **kwargs):
        W, H, coef = head(*args, **kwargs)
        if coef is not None:
            coef = coef[:6] + (coef[6] * 1.01,) + coef[7:]
        return W, H, coef

    monkeypatch.setattr(mm, "_h_coefficients", g_pz_off_by_one_percent)
    rep = sc.verify_derivatives("metric", n_samples=200, seed=0)
    checks = rep["checks"]
    assert rep["pass"] is False
    assert checks["tangent_fd"]["pass"] is False
    assert 5e-5 < checks["tangent_fd"]["max"] < 2e-4
    assert checks["rearrangement"]["max"] < 1e-14
    assert checks["stress_fd"]["pass"] is True


@pytest.mark.parametrize("model, check, seed", [
    ("metric", "tangent_fd", 0), ("log", "stress_fd", 1),
    ("bending", "tangent_fd", 2)])
def test_verify_worst_sample_reruns_as_last_sample(model, check, seed):
    full = sc.verify_derivatives(model, n_samples=6, seed=seed)["checks"]
    k = full[check]["worst_sample"]
    assert k > 0
    rerun = sc.verify_derivatives(model, n_samples=k + 1, seed=seed)
    assert rerun["checks"][check]["max"] == full[check]["max"]
    assert rerun["checks"][check]["worst_sample"] == k
    before = sc.verify_derivatives(model, n_samples=k, seed=seed)
    assert before["checks"][check]["max"] < full[check]["max"]


def spd_triple_drawn(rng, lo, hi):
    """(c11, c22, c12) of an SPD 2x2 from rng.uniform's draws: two
    eigenvalues in [lo, hi), then the eigenvector angle in [0, pi). The
    form verify drew its states with, kept as its reference."""
    e1, e2 = rng.uniform(lo, hi, size=2).tolist()
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return (e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c,
            (e1 - e2) * s * c)


@pytest.mark.parametrize("model, seed", [("metric", 0), ("log", 1)])
def test_verify_worst_state_is_the_last_state_of_the_rerun(model, seed):
    p = mm.GGA
    full = sc.verify_derivatives(model, p, n_samples=6, seed=seed)["checks"]
    for name, check in full.items():
        k = check["worst_sample"]
        # the draws of a k+1 sample run: per sample the lattice angle, then
        # the C triple's eigenvalues and eigenvector angle
        rng = np.random.default_rng(seed)
        for _ in range(k + 1):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            triple = spd_triple_drawn(rng, 0.7, 1.6)
        assert check["worst_state"] == {
            "c11": triple[0], "c22": triple[1], "c12": triple[2],
            "theta_lattice": theta}
        rerun = sc.verify_derivatives(model, p, n_samples=k + 1, seed=seed)
        assert rerun["checks"][name]["worst_state"] == check["worst_state"]
    # the reported state reproduces the reported error
    st = full["stress_fd"]["worst_state"]
    fr = make_frame(st["theta_lattice"])
    x = (st["c11"], st["c22"], st["c12"])
    energy = getattr(mm, f"energy_{model}")
    stress = getattr(mm, f"stress_{model}")(SurfTensor2(*x), fr, p).S
    fd = 2.0 * partials_sym(lambda *c: energy(SurfTensor2(*c), fr, p), x,
                            STRESS_STEP)
    assert (rel_err_wrappers(fd, [stress.c11, stress.c22, stress.c12])
            == full["stress_fd"]["max"])
    # bending reports its worst sample's three input triples
    bending = sc.verify_derivatives("bending", n_samples=6, seed=seed)
    for name, check in bending["checks"].items():
        k = check["worst_sample"]
        rng = np.random.default_rng(seed)
        for _ in range(k + 1):
            a_ref = spd_triple_drawn(rng, 0.8, 1.3)
            a_cur = spd_triple_drawn(rng, 0.7, 1.6)
            b_cur = rng.uniform(-0.5, 0.5, size=3)
        assert check["worst_state"] == {
            "a_ref": a_ref, "a_cur": a_cur, "b_cur": tuple(b_cur.tolist())}
        assert all(type(x) is float for v in check["worst_state"].values()
                   for x in v)
        rerun = sc.verify_derivatives("bending", n_samples=k + 1, seed=seed)
        assert rerun["checks"][name]["worst_state"] == check["worst_state"]


def partials_sym_loop(f, comps, rel_step):
    """The per-column loop that partials_sym replaced, kept as its
    reference."""
    comps = tuple(float(x) for x in comps)
    cols = []
    for i in range(3):
        h = rel_step * max(abs(comps[i]), 1.0)
        up = list(comps)
        dn = list(comps)
        up[i] += h
        dn[i] -= h
        d = (np.asarray(f(*up), dtype=float)
             - np.asarray(f(*dn), dtype=float)) / (2.0 * h)
        if i == 2:
            d = 0.5 * d
        cols.append(d)
    return np.stack(cols, axis=-1)


def test_partials_sym_matches_loop_form_bitwise():
    """partials_sym against the loop, on every result it takes: a float and
    an np.float64, and the flat sequences a SurfTensor2, a 6-tuple of
    floats, a list, a 1-D array and a tuple of ints, each differenced in
    float arithmetic; and a NaN at one point."""
    rng = np.random.default_rng(11)
    callbacks = (lambda x, y, z: math.exp(x) * y - z * z,
                 lambda x, y, z: np.array([x * y, y / z, math.sin(z)]),
                 lambda x, y, z: SurfTensor2(x * y, y / z, math.sin(z)),
                 lambda x, y, z: (x, y * z, math.exp(z), -x, x * x, 0.0),
                 lambda x, y, z: np.float64(x * y) - z,
                 lambda x, y, z: [x - z, math.cos(y), x * y * z],
                 lambda x, y, z: (round(1e7 * x), 3, round(1e7 * y * z)),
                 # NaN at the +h point of the second component only
                 lambda x, y, z: math.nan if y > comps[1] else x * y - z)
    for _ in range(50):
        comps = tuple(rng.uniform(-3.0, 3.0, size=3))
        for f in callbacks:
            for step in (STRESS_STEP, 1e-3):
                got = partials_sym(f, comps, step)
                want = partials_sym_loop(f, comps, step)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("result", [
    lambda x, y, z: ((x, y), (z, x * z)),
    lambda x, y, z: np.full((2, 3), x * y),
    lambda x, y, z: np.array(x - z),
    lambda x, y, z: round(x),
    lambda x, y, z: np.float32(x),
], ids=["nested-tuple", "2-d-array", "0-d-array", "int", "float32"])
def test_partials_sym_rejects_a_result_it_cannot_flatten(result):
    """A result that is not a float or a flat sequence of numbers raises
    TypeError with the one message, after the six evaluations."""
    calls = []

    def f(*pt):
        calls.append(pt)
        return result(*pt)

    with pytest.raises(TypeError, match="returns a float or a flat sequence"):
        partials_sym(f, (1.5, 0.5, 0.25), STRESS_STEP)
    assert len(calls) == 6


def test_partials_sym_evaluates_in_its_documented_order():
    """Six evaluations, (+h, -h) per component in turn, with
    h_i = rel_step * max(|c_i|, 1), each point three Python floats."""
    comps, step = (2.5, -0.25, 0.75), 1e-6
    points = []
    partials_sym(lambda *pt: points.append(pt) or 0.0, comps, step)
    hx, hy, hz = 2.5 * step, step, step
    assert points == [(2.5 + hx, -0.25, 0.75), (2.5 - hx, -0.25, 0.75),
                      (2.5, -0.25 + hy, 0.75), (2.5, -0.25 - hy, 0.75),
                      (2.5, -0.25, 0.75 + hz), (2.5, -0.25, 0.75 - hz)]
    assert all(type(x) is float for pt in points for x in pt)


@pytest.mark.parametrize("comps, step", [
    ((1.0, 1.0, 0.0), 0.0), ((1.0, 1.0, 0.0), -1e-6),
    ((1.0, 1.0, 0.0), math.nan), ((1.0, 1.0, 0.0), math.inf),
    ((1.0, 1.0), 1e-6), ((1.0, 1.0, 0.0, 0.5), 1e-6),
])
def test_partials_sym_rejects_a_bad_step_or_point(comps, step):
    """A step that is not finite and > 0, or a point that is not three
    numbers, raises before f is called."""
    calls = []
    with pytest.raises(ValueError, match="rel_step|comps"):
        partials_sym(lambda *pt: calls.append(pt) or 0.0, comps, step)
    assert calls == []


def rel_err_wrappers(x, ref):
    """The np.max form that _rel_err replaced, kept as its reference."""
    return np.max(np.abs(np.asarray(x) - ref)) / max(np.max(np.abs(ref)),
                                                     1e-12)


def rel_err_methods(x, ref):
    """The ndarray-method form that the np.maximum.reduce one replaced,
    kept as its reference."""
    ref = np.asarray(ref)
    return np.abs(np.subtract(x, ref)).max() / max(np.abs(ref).max(), 1e-12)


def pair_of_nested(t4):
    """The nested-list form that the _PAIR_TAKE gather replaced, kept as
    its reference."""
    return np.array([
        [t4[0, 0, 0, 0], t4[0, 0, 1, 1], t4[0, 0, 0, 1]],
        [t4[1, 1, 0, 0], t4[1, 1, 1, 1], t4[1, 1, 0, 1]],
        [t4[0, 1, 0, 0], t4[0, 1, 1, 1], t4[0, 1, 0, 1]],
    ])


def summary_wrappers(rows, tol):
    """The np.max/np.argmax form that _summary replaced, kept as its
    reference."""
    errs = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    worst = float(np.max(errs))
    return {"max": worst, "mean": sum(errs.ravel().tolist()) / errs.size,
            "tol": tol, "pass": worst <= tol,
            "worst_sample": int(np.argmax(np.max(errs, axis=1)))}


def same_bits(x, y):
    return (type(x) is type(y) and np.asarray(x).dtype == np.asarray(y).dtype
            and np.shape(x) == np.shape(y)
            and np.asarray(x).tobytes() == np.asarray(y).tobytes())


def operand_block(rng, shape, rows):
    """Seeded (rows, *shape) references, each row scaled by its own power
    of ten from 1e-14, below the 1e-12 floor, to 1e2, and x within 1e-6
    relative of them."""
    scale = 10.0 ** rng.integers(-14, 3, size=(rows,) + (1,) * len(shape))
    ref = rng.normal(size=(rows, *shape)) * scale
    return ref * (1.0 + 1e-6 * rng.normal(size=ref.shape)), ref


def test_verify_helpers_match_replaced_forms_bitwise():
    """_row_err, the _PAIR_TAKE gather and _summary against the forms
    they replaced, on seeded arrays: every row of _row_err against
    rel_err_wrappers on blocks of 1 to 12 rows of 3, 3x3, 6 and 2x2x2x2
    entries, the pair matrices of a block of tangents against
    pair_of_nested, transposed views, references below the 1e-12 floor,
    and NaN entries in either input; _summary on arrays of one and of four
    errors per sample against summary_wrappers, with a NaN in the first,
    the last or another sample, and with a max tied between two samples."""
    rng = np.random.default_rng(21)
    for i in range(200):
        shape = ((3,), (3, 3), (6,), (2, 2, 2, 2))[i % 4]
        rows = 1 + i % 12
        x, ref = operand_block(rng, shape, rows)
        if i % 5 == 0:
            x.flat[rng.integers(x.size)] = math.nan
        if i % 7 == 0:
            ref.flat[rng.integers(ref.size)] = math.nan
        refs = [ref]
        if len(shape) == 4:
            x = x.transpose(0, 3, 4, 1, 2)
            refs.append(ref.transpose(0, 1, 4, 2, 3))
        for r in refs:
            got = sc._row_err(x, r)
            assert got.shape == (rows,) and got.dtype == np.float64
            for k in range(rows):
                assert same_bits(got[k], rel_err_wrappers(x[k], r[k]))
        t4 = rng.normal(size=(3, 2, 2, 2, 2))  # a block of three tangents
        if i % 5 == 0:
            t4[tuple(rng.integers(2, size=5))] = math.nan
        for t in (t4, t4.transpose(0, 3, 4, 1, 2),
                  t4.transpose(0, 1, 4, 2, 3)):
            pairs = t.reshape(3, 16)[:, _PAIR_TAKE]
            for k in range(3):
                assert same_bits(pairs[k], pair_of_nested(t[k]))
        # a check's errors, four per sample, then one per sample: a NaN in
        # a random, the first or the last sample, or a max tied between two
        # samples
        rows = np.abs(rng.normal(size=(10, 4)))
        col = rng.integers(4)
        if i % 5 == 0:
            rows[rng.integers(10)] = [0.0, math.nan, 1.0, 0.0]
        elif i % 5 == 1:
            rows[0, col] = math.nan
        elif i % 5 == 2:
            rows[-1, col] = math.nan
        elif i % 5 == 3:
            a, b = rng.choice(10, size=2, replace=False).tolist()
            rows[a, col] = rows[b, col] = rows.max() + 1.0
        for rs in (rows, rows[:, col:col + 1]):
            got = sc._summary(rs.ravel(), len(rs), 1.0)
            want = summary_wrappers(rs.tolist(), 1.0)
            if i % 5 == 3:
                assert got["worst_sample"] == min(a, b)
            assert got.keys() == want.keys()
            for k in got:
                assert same_bits(got[k], want[k]), k
    nan_x = sc._row_err(np.array([[1.0, math.nan]]), np.array([[1.0, 2.0]]))
    nan_ref = sc._row_err(np.array([[1.0, 2.0]]), np.array([[1.0, math.nan]]))
    assert math.isnan(nan_x[0]) and math.isnan(nan_ref[0])


@pytest.mark.parametrize("model", list(sc.VERIFY_TOLERANCES))
def test_verify_worst_state_reproduces_its_sample(model):
    """Each check's worst_state, as reported and after a JSON round trip,
    evaluates to operands whose errors carry the reported max bits."""
    checks = sc.VERIFY_TOLERANCES[model]
    for seed in range(4):
        for n in (4, 259):
            rep = sc.verify_derivatives(model, n_samples=n, seed=seed)
            for name, check in rep["checks"].items():
                state = check["worst_state"]
                for record in (state, json.loads(json.dumps(state))):
                    if model == "bending":
                        errs = sc._bending_errors(
                            [sc._bending_sample(record)])
                    else:
                        errs = sc._membrane_errors(
                            [sc._membrane_sample(model, mm.GGA, record)],
                            checks)
                    assert same_bits(float(np.max(errs[name])),
                                     check["max"]), (seed, n, name)


def test_row_err_keeps_the_method_form_bits_and_every_nan():
    """Seeded blocks of 1 to 9 rows of 3 to 16 entries, rows scaled down
    past the 1e-12 floor, with +inf and -inf entries in x, in ref or in
    both: every row has the bits of the method and the wrapper form. A NaN
    in x or in ref at the first, a middle or the last entry of one row
    gives that row NaN, with the bits of both forms."""
    rng = np.random.default_rng(29)
    for i in range(400):
        shape = ((3,), (3, 3), (6,), (2, 2, 2, 2))[i % 4]
        rows = 1 + i % 9
        x, ref = operand_block(rng, shape, rows)
        size = x[0].size
        if i % 3 == 0:
            for which in ((x,), (ref,), (x, ref))[i // 3 % 3]:
                which.reshape(rows, size)[rng.integers(rows),
                                          rng.integers(size)] = (
                    math.inf if i % 2 else -math.inf)
        pairs = [(x, ref, None)]
        for pos in (0, size // 2, size - 1):
            for which in (0, 1):
                pair = [x.copy(), ref.copy()]
                row = rng.integers(rows)
                pair[which].reshape(rows, size)[row, pos] = math.nan
                pairs.append((*pair, row))
        with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
            for xs, rs, nan_row in pairs:
                got = sc._row_err(xs, rs)
                assert nan_row is None or math.isnan(got[nan_row])
                for k in range(rows):
                    assert same_bits(got[k], rel_err_methods(xs[k], rs[k]))
                    assert same_bits(got[k], rel_err_wrappers(xs[k], rs[k]))


def test_verify_nan_error_fails_its_check(monkeypatch):
    tangent = mm.tangent_metric

    def one_nan_entry(c, frame, params):
        comp = tangent(c, frame, params).comp.copy()
        comp[0, 1, 0, 1] = math.nan
        return Tangent4(comp)

    monkeypatch.setattr(mm, "tangent_metric", one_nan_entry)
    rep = sc.verify_derivatives("metric", n_samples=3, seed=3)
    assert math.isnan(rep["checks"]["tangent_fd"]["max"])
    assert rep["checks"]["tangent_fd"]["pass"] is False
    assert rep["pass"] is False


@pytest.mark.parametrize("model", ["metric", "bending"])
@pytest.mark.parametrize("fault", ["nan", "scaled"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_verify_fault_at_a_block_seam_is_its_worst_sample(monkeypatch, model,
                                                          fault, offset):
    """A NaN, or an entry scaled by 1.01, in one tangent entry of sample k
    alone, for k = B - 1, B and B + 1 with B = _VERIFY_BLOCK: tangent_fd's
    worst_sample is k, and n_samples=k+1 reproduces its max and
    worst_state."""
    k = sc._VERIFY_BLOCK + offset
    calls = []

    def faulty(comp):
        calls.append(None)
        if len(calls) - 1 != k:
            return comp
        comp = comp.copy()
        comp[0, 1, 0, 1] = (math.nan if fault == "nan"
                            else 1.01 * comp[0, 1, 0, 1])
        return comp

    if model == "metric":
        tangent = mm.tangent_metric

        def metric_tangent(c, frame, params):
            return Tangent4(faulty(tangent(c, frame, params).comp))

        monkeypatch.setattr(mm, "tangent_metric", metric_tangent)
    else:
        tangents = bg.bending_tangents

        def bending_tangents(g, c_bend):
            tg = tangents(g, c_bend)
            return tg._replace(c=faulty(tg.c))

        monkeypatch.setattr(bg, "bending_tangents", bending_tangents)
    full = sc.verify_derivatives(model, n_samples=sc._VERIFY_BLOCK + 2,
                                 seed=3)["checks"]["tangent_fd"]
    calls.clear()
    rerun = sc.verify_derivatives(model, n_samples=k + 1,
                                  seed=3)["checks"]["tangent_fd"]
    assert full["worst_sample"] == rerun["worst_sample"] == k
    assert full["pass"] is rerun["pass"] is False
    assert same_bits(full["max"], rerun["max"])
    assert math.isnan(full["max"]) == (fault == "nan")
    assert full["worst_state"] == rerun["worst_state"]


def test_contact_potential_values():
    psi, tr = sc.contact_potential(0.34)
    assert psi == -0.14
    assert tr == 0.0
    psi5, tr5 = sc.contact_potential(0.5)
    assert psi5 == pytest.approx(-0.0638546229792499302, rel=1e-14)
    assert tr5 == pytest.approx(-0.357014573626498744, rel=1e-14)


@pytest.mark.parametrize("r", [0.0, -0.2, math.nan])
def test_contact_rejects_a_wall_distance_not_above_zero(tmp_path, r):
    """A NaN wall distance is refused like a non-positive one, never passed
    through as a NaN psi and traction; write_contact_csv writes nothing."""
    with pytest.raises(ValueError, match="^wall distance must be positive$"):
        sc.contact_potential(r)
    path = tmp_path / "c.csv"
    with pytest.raises(ValueError, match="^wall distance must be positive$"):
        sc.write_contact_csv(path, [0.5, r])
    assert not path.exists()


@pytest.mark.parametrize("field", ["h0", "gamma"])
@pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan])
def test_contact_params_validation(field, value):
    with pytest.raises(ValueError):
        sc.ContactParams(**{field: value})


def test_contact_traction_is_minus_potential_slope():
    h = 1e-6
    psi_p, _ = sc.contact_potential(0.5 + h)
    psi_m, _ = sc.contact_potential(0.5 - h)
    _, tr = sc.contact_potential(0.5)
    assert tr == pytest.approx(-(psi_p - psi_m) / (2.0 * h), rel=1e-8)


def test_traction_extremum_location():
    rx = sc.traction_extremum()
    assert rx == pytest.approx(0.39609763725524241, rel=1e-12)
    assert rx == pytest.approx(2.5 ** (1.0 / 6.0) * 0.34, rel=1e-9)


@pytest.mark.parametrize("h0", [0.1, 0.34, 1.0, 3.7])
def test_traction_extremum_is_a_traction_minimum(h0):
    """Checked on contact_potential alone, not on the closed form: the
    traction at rx is more negative than at rx (1 -+ 1e-4), and its
    central-difference slope there vanishes on the scale |traction| / rx."""
    cp = sc.ContactParams(h0=h0)
    rx = sc.traction_extremum(cp)

    def traction(r):
        return sc.contact_potential(r, cp)[1]

    tr = traction(rx)
    assert tr < traction(rx * (1.0 - 1e-4))
    assert tr < traction(rx * (1.0 + 1e-4))
    h = 1e-6 * rx
    slope = (traction(rx + h) - traction(rx - h)) / (2.0 * h)
    assert abs(slope) * rx / abs(tr) < 1e-8


def test_beam_force_frozen_values():
    b = sc.BeamParams(340.0, 1.0, 38.19, math.radians(17.45))
    assert b.i_y == pytest.approx(math.pi, rel=1e-15)
    f_w, f_a = sc.beam_force(b, 0.1)
    assert f_w == pytest.approx(0.0183021422694824289, rel=1e-13)
    assert f_a == pytest.approx(0.0582241000598239362, rel=1e-13)
    # superposition holds to rounding
    f1, _ = sc.beam_force(b, 0.04)
    f2, _ = sc.beam_force(b, 0.06)
    assert f1 + f2 == pytest.approx(f_w, rel=1e-14)


def test_beam_params_validation():
    for modulus in (0.0, -340.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sc.BeamParams(modulus, 1.0, 38.19, 0.3)
    for r_m in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sc.BeamParams(340.0, r_m, 38.19, 0.3)
    for length in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sc.BeamParams(340.0, 1.0, length, 0.3)
    with pytest.raises(ValueError):
        sc.BeamParams(340.0, 1.0, 38.19, 0.0)
    with pytest.raises(ValueError):
        sc.BeamParams(340.0, 1.0, 38.19, math.pi / 2.0)


def test_apex_angles():
    assert sc.apex_angle(300.0) == pytest.approx(19.1881364537209229,
                                                 rel=1e-13)
    assert sc.apex_angle(240.0) == pytest.approx(38.9424412689813827,
                                                 rel=1e-13)
    assert sc.apex_angle(180.0) == pytest.approx(60.0, rel=1e-13)
    for bad in (0.0, 90.0, 360.0):
        with pytest.raises(ValueError):
            sc.apex_angle(bad)


def test_benchmark_report_shape():
    rep = sc.benchmark_models(mm.GGA, n_evals=10_000, seed=1)
    assert rep["n_evals"] == 10_000
    assert rep["param_set"] == "GGA"
    assert rep["speedup_stress_tangent"] > 0.0
    assert rep["speedup_stress_only"] > 0.0
    assert rep["reference_ratio"] == 1.5
    assert rep["consistency_gate"]["pass"] is True
    assert rep["consistency_gate"]["max_percent"] < 1.0
    assert sorted(rep) == [
        "calibration_s", "consistency_gate", "environment", "log", "metric",
        "n_evals", "param_set", "reference_ratio", "rounds", "seed",
        "speedup_spread", "speedup_stress_only", "speedup_stress_tangent"]
    for name in ("metric", "log"):
        assert rep[name]["stress_s"] > 0.0
        assert rep[name]["stress_tangent_s"] > 0.0
    assert rep["rounds"] == sc.BENCH_ROUNDS == 5
    assert list(rep["speedup_spread"]) == ["stress_tangent", "stress_only"]
    for name, s in rep["speedup_spread"].items():
        assert s["min"] <= s["median"] <= s["max"]
        assert rep[f"speedup_{name}"] == s["median"]
    with pytest.raises(ValueError):
        sc.benchmark_models(mm.GGA, n_evals=5000)


def test_bench_times_every_route_on_the_same_states_in_rounds(monkeypatch):
    """Each of the BENCH_ROUNDS rounds times all four loops, the public
    calls' cores at orders 1 and 2, over the same consecutive states, in
    the table's order in even rounds and reversed in odd ones; the rounds
    cover the stream once, the last taking the remainder."""
    calls = []

    def recorder(name, fn):
        def core(c, frame, p, order):
            calls.append((name, order, id(c)))
            return fn(c, frame, p, order)
        return core

    monkeypatch.setattr(mm, "_metric_core",
                        recorder("metric", mm._metric_core))
    monkeypatch.setattr(mm, "_log_core", recorder("log", mm._log_core))
    n = 10_001
    sc.benchmark_models(mm.GGA, n_evals=n, seed=1)
    timed = calls[-4 * n:]
    routes = [("metric", 1), ("log", 1), ("log", 2), ("metric", 2)]
    pos, stream = 0, []
    for r, size in enumerate((2000, 2000, 2000, 2000, 2001)):
        ids = None
        for route in (routes if r % 2 == 0 else routes[::-1]):
            loop = timed[pos:pos + size]
            pos += size
            assert {call[:2] for call in loop} == {route}
            loop_ids = [call[2] for call in loop]
            assert ids is None or loop_ids == ids
            ids = loop_ids
        stream += ids
    assert pos == 4 * n and len(set(stream)) == n


@pytest.mark.parametrize("component", [1, 2])
def test_bench_gate_fails_on_nan_in_any_stress_component(monkeypatch,
                                                         component):
    """A NaN after the first component also fails the gate: a max() over
    the components keeps a NaN only when it comes first."""
    log_core = mm._log_core

    def stress_with_nan(c, frame, p, order):
        W, s, g, J = log_core(c, frame, p, order)
        s = list(s)
        s[component] = math.nan
        return W, tuple(s), g, J

    monkeypatch.setattr(mm, "_log_core", stress_with_nan)
    with pytest.raises(RuntimeError, match="consistency gate failed"):
        sc.benchmark_models(mm.GGA, n_evals=10_000, seed=1)


def test_curve_csv_round_trip(tmp_path):
    pts = sc.run_curve(uniaxial(1.1, steps=3), "metric", mm.GGA, ARMCHAIR)
    path = tmp_path / "curve.csv"
    sc.write_curve_csv(path, pts, "metric", "GGA", 0.0)
    lines = path.read_text().splitlines()
    assert lines[0] == ("step,lambda_or_J,sigma11,sigma22,sigma12,W,"
                        "model,param_set,theta_deg")
    assert len(lines) == 4
    row = lines[2].split(",")
    assert int(row[0]) == 1
    assert float(row[2]) == pts[1].sigma11
    assert row[6] == "metric" and row[7] == "GGA"
    # byte-stable on rewrite
    first = path.read_bytes()
    sc.write_curve_csv(path, pts, "metric", "GGA", 0.0)
    assert path.read_bytes() == first


def test_contact_csv(tmp_path):
    path = tmp_path / "contact.csv"
    sc.write_contact_csv(path, [0.34, 0.5])
    lines = path.read_text().splitlines()
    assert lines[0] == "step,r_nm,psi,traction"
    assert float(lines[1].split(",")[2]) == -0.14

