"""Metric and logarithmic membrane models: frozen-value anchors, derivative
consistency and symmetry structure."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmem import invariants as iv
from gmem import membrane_material as mm
from gmem.lattice import make_frame
from gmem.numdiff import STRESS_STEP, TANGENT_STEP, partials_sym
from gmem.surface_tensors import (
    NotPositiveDefiniteError,
    SurfTensor2,
    Tangent4,
    boxtimes_product,
    oplus_product,
    rearrange,
    sqrt_spd,
    tensor_product,
)

FRAME = make_frame(0.2)
C0 = SurfTensor2(1.3, 0.9, 0.15)

# the product each term kind of mm._tangent_terms names, in the standard
# component order: (x), (+) and [x]
DIRECT_PRODUCT = {"ot": tensor_product, "op": oplus_product,
                  "bt": boxtimes_product}


def tangent_metric_reference(c, frame, p):
    """Term-list assembly of the tangent in the standard component order:
    the cross-check of the pair-matrix assembly, summed by the same stacked
    reduction as mm.tangent_metric_oplus."""
    terms = mm._tangent_terms(c, frame, p)
    prods = np.array([DIRECT_PRODUCT[kind](a, b).comp
                      for _k, a, b, kind in terms])
    prods *= np.array([t[0] for t in terms])[:, None, None, None, None]
    return Tangent4(np.add.reduce(prods, axis=0, initial=0.0))


def partials_sym_richardson(f, comps, rel_step):
    """Two-step Richardson extrapolation of partials_sym, a reference
    difference for the log-tangent property test."""
    p1 = partials_sym(f, comps, rel_step)
    p2 = partials_sym(f, comps, 0.5 * rel_step)
    return (4.0 * p2 - p1) / 3.0


def pair_of(t4):
    return np.array([
        [t4[0, 0, 0, 0], t4[0, 0, 1, 1], t4[0, 0, 0, 1]],
        [t4[1, 1, 0, 0], t4[1, 1, 1, 1], t4[1, 1, 0, 1]],
        [t4[0, 1, 0, 0], t4[0, 1, 1, 1], t4[0, 1, 0, 1]],
    ])


def test_parameter_presets():
    g = mm.material_preset("GGA")
    assert (g.alpha_hat, g.epsilon, g.mu0, g.mu1, g.beta_hat, g.eta0,
            g.eta1) == (1.53, 93.84, 172.18, 27.03, 5.16, 94.65, 4393.26)
    l = mm.material_preset("LDA")
    assert (l.alpha_hat, l.epsilon, l.mu0, l.mu1, l.beta_hat, l.eta0,
            l.eta1) == (1.38, 116.43, 164.17, 17.31, 6.22, 86.9, 3611.5)
    assert g.name == "GGA" and l.name == "LDA"
    with pytest.raises(ValueError):
        mm.material_preset("PBE")


def test_metric_energy_and_stress_frozen_state():
    assert mm.energy_metric(C0, FRAME, mm.GGA) == pytest.approx(
        4.14472091189880471, rel=1e-14)
    r = mm.stress_metric(C0, FRAME, mm.GGA)
    assert r.W == pytest.approx(4.14472091189880471, rel=1e-14)
    assert r.S.c11 == pytest.approx(24.0640095584278229, rel=1e-13)
    assert r.S.c22 == pytest.approx(-23.4650787760135102, rel=1e-13)
    assert r.S.c12 == pytest.approx(16.6798311204563368, rel=1e-13)


def test_metric_frozen_state_lda():
    r = mm.stress_metric(C0, FRAME, mm.LDA)
    assert r.W == pytest.approx(4.25454422176108825, rel=1e-14)
    assert r.S.c11 == pytest.approx(25.5233908690798856, rel=1e-13)
    assert r.S.c22 == pytest.approx(-22.8136248618290265, rel=1e-13)
    assert r.S.c12 == pytest.approx(17.0455164795324701, rel=1e-13)


def test_log_energy_and_stress_frozen_state():
    assert mm.energy_log(C0, FRAME, mm.GGA) == pytest.approx(
        4.14480832770276442, rel=1e-14)
    r = mm.stress_log(C0, FRAME, mm.GGA)
    assert r.S.c11 == pytest.approx(24.0737829760111836, rel=1e-13)
    assert r.S.c22 == pytest.approx(-23.482981480384373, rel=1e-13)
    assert r.S.c12 == pytest.approx(16.6901620146029816, rel=1e-13)


def test_metric_tangent_frozen_state():
    t = mm.tangent_metric(C0, FRAME, mm.GGA)
    want = np.array([
        [81.408385018709, 10.861438817383, -48.550332597999],
        [10.861438817383, 552.11834001557, -103.5644778572],
        [-48.550332597999, -103.5644778572, 117.44932265415],
    ])
    np.testing.assert_allclose(pair_of(t.comp), want, rtol=1e-11)


def test_dilatation_frozen_values_and_model_equality():
    """At isotropic states both models reduce to the same area response."""
    fr = make_frame(0.0)
    c = SurfTensor2(1.1, 1.1, 0.0)
    for params, w_ref, s_ref in (
            (mm.GGA, 0.905851658840676843, 16.4507861235578862),
            (mm.LDA, 0.922997000729587507, 16.844098346337282)):
        r = mm.stress_metric(c, fr, params)
        assert r.W == pytest.approx(w_ref, rel=1e-14)
        assert r.S.c11 == pytest.approx(s_ref, rel=1e-13)
        assert r.S.c22 == pytest.approx(s_ref, rel=1e-13)
        assert abs(r.S.c12) < 1e-13
        assert mm.energy_log(c, fr, params) == pytest.approx(w_ref, rel=1e-13)
        rl = mm.stress_log(c, fr, params)
        assert rl.S.c11 == pytest.approx(s_ref, rel=1e-12)


def test_reference_state_is_stress_free():
    fr = make_frame(0.7)
    ident = SurfTensor2(1.0, 1.0, 0.0)
    for params in (mm.GGA, mm.LDA):
        for fn in (mm.stress_metric, mm.stress_log):
            r = fn(ident, fr, params)
            assert r.W == 0.0
            assert (r.S.c11, r.S.c22, r.S.c12) == (0.0, 0.0, 0.0)


def test_push_forwards_use_the_stretch():
    r = mm.stress_metric(C0, FRAME, mm.GGA)
    u = sqrt_spd(C0).as_matrix()
    tau = u @ r.S.as_matrix() @ u
    np.testing.assert_allclose(r.tau.as_matrix(), tau, rtol=1e-13)
    j = math.sqrt(C0.det())
    np.testing.assert_allclose(r.sigma.as_matrix(), tau / j, rtol=1e-13)


def test_stress_matches_energy_differences_at_frozen_state():
    def w_of(c11, c22, c12):
        return mm.energy_metric(SurfTensor2(c11, c22, c12), FRAME, mm.GGA)

    fd = 2.0 * partials_sym(w_of, (C0.c11, C0.c22, C0.c12), STRESS_STEP)
    r = mm.stress_metric(C0, FRAME, mm.GGA)
    an = np.array([r.S.c11, r.S.c22, r.S.c12])
    assert np.max(np.abs(fd - an)) / np.max(np.abs(an)) < 1e-6


def test_tangent_matches_stress_differences_at_frozen_state():
    def s_of(c11, c22, c12):
        r = mm.stress_metric(SurfTensor2(c11, c22, c12), FRAME, mm.GGA)
        return np.array([r.S.c11, r.S.c22, r.S.c12])

    fd = 2.0 * partials_sym(s_of, (C0.c11, C0.c22, C0.c12), TANGENT_STEP)
    an = pair_of(mm.tangent_metric(C0, FRAME, mm.GGA).comp)
    assert np.max(np.abs(fd - an)) / np.max(np.abs(an)) < 1e-4


def test_tangent_assemblies_agree():
    for c in (C0, SurfTensor2(0.8, 1.45, -0.3), SurfTensor2(1.05, 1.0, 0.02)):
        fast = mm.tangent_metric(c, FRAME, mm.GGA)
        ref = tangent_metric_reference(c, FRAME, mm.GGA)
        alt = mm.tangent_metric_oplus(c, FRAME, mm.GGA)
        scale = np.max(np.abs(fast.comp))
        assert np.max(np.abs(ref.comp - fast.comp)) < 1e-12 * scale
        assert np.max(np.abs(rearrange(alt).comp - fast.comp)) < 1e-12 * scale


def c_from_stretches(l1, l2, phi):
    c, s = math.cos(phi), math.sin(phi)
    e1, e2 = l1 * l1, l2 * l2
    return SurfTensor2(e1 * c * c + e2 * s * s, e1 * s * s + e2 * c * c,
                       (e1 - e2) * s * c)


stretch = st.floats(0.8, 1.4)
# relative split of the two stretches: exactly isotropic, near-isotropic
# (the log model's divided-difference limit) or well separated
split = st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-0.3, 0.3))
angle = st.floats(0.0, 2.0 * math.pi)
params = st.sampled_from([mm.GGA, mm.LDA])


@settings(deadline=None, max_examples=150)
@given(stretch, split, angle, angle, params)
def test_pair_assembly_matches_cross_check_routes(l1, sp, phi, theta, p):
    c = c_from_stretches(l1, l1 * (1.0 + sp), phi)
    fr = make_frame(theta)
    _w, _s, g, _j = mm._metric_core(c, fr, p, 2)
    assert all(g[a][b] == g[b][a] for a in range(3) for b in range(3))
    fast = mm.tangent_metric(c, fr, p).comp
    assert np.array_equal(fast, fast.transpose(2, 3, 0, 1))
    scale = np.max(np.abs(fast))
    ref = tangent_metric_reference(c, fr, p).comp
    alt = rearrange(mm.tangent_metric_oplus(c, fr, p)).comp
    assert np.max(np.abs(ref - fast)) <= 1e-12 * scale
    assert np.max(np.abs(alt - fast)) <= 1e-12 * scale


def tangent_route_loop(c, frame, p, products):
    """The 17-step `out += k * product` loop that both cross-check routes
    replaced, kept as their reference; products maps each term's product
    kind to the product the route uses."""
    out = np.zeros((2, 2, 2, 2))
    for k, a, b, kind in mm._tangent_terms(c, frame, p):
        out += k * products[kind](a, b).comp
    return out


def test_cross_check_routes_match_loop_form_bitwise():
    """Both routes give the loop's bits, signed zeros included, on seeded
    states and on states where terms vanish: isotropic C (zero deviator
    and anisotropy terms) and the armchair frame (n_hat has a -0.0)."""
    rng = np.random.default_rng(14)
    cases = [(c_from_stretches(*rng.uniform(0.7, 1.6, size=2),
                               rng.uniform(0.0, math.pi)),
              make_frame(rng.uniform(0.0, 2.0 * math.pi)), p)
             for _ in range(40) for p in (mm.GGA, mm.LDA)]
    armchair = make_frame(0.0)
    assert math.copysign(1.0, armchair.n_hat.c11) == -1.0
    for c in (SurfTensor2(1.2, 1.2, 0.0), SurfTensor2(0.9, 0.9, -0.0),
              c_from_stretches(1.1, 1.1, 0.4), C0,
              c_from_stretches(1.3, 0.8, 0.0)):
        for fr in (armchair, make_frame(math.pi / 6.0), FRAME):
            cases += [(c, fr, mm.GGA), (c, fr, mm.LDA)]
    for c, fr, p in cases:
        for route, products in ((tangent_metric_reference, DIRECT_PRODUCT),
                                (mm.tangent_metric_oplus, mm._PRODUCT)):
            got = route(c, fr, p)
            want = tangent_route_loop(c, fr, p, products)
            assert type(got) is Tangent4 and len(got) == 1
            assert got.comp.dtype == want.dtype
            assert got.comp.shape == want.shape
            assert got.comp.flags.c_contiguous
            assert got.comp.tobytes() == want.tobytes()


def test_oplus_route_takes_the_pinned_product_mix():
    """One tangent_metric_oplus call looks up 13 oplus, 2 boxtimes and 2
    tensor products in mm._PRODUCT, the mix the traced benchmark counts;
    counting wrappers go into the table and come out, as the tracer's do."""
    counts = dict.fromkeys(
        ("oplus_product", "boxtimes_product", "tensor_product"), 0)
    saved = dict(mm._PRODUCT)

    def counting(fn):
        def wrapped(a, b):
            counts[fn.__name__] += 1
            return fn(a, b)
        return wrapped

    try:
        for kind, fn in saved.items():
            mm._PRODUCT[kind] = counting(fn)
        mm.tangent_metric_oplus(C0, FRAME, mm.GGA)
    finally:
        mm._PRODUCT.update(saved)
    assert counts == {"oplus_product": 13, "boxtimes_product": 2,
                      "tensor_product": 2}


# the log tangent's divided differences also switch to a series, at
# (L1 - L2)/(L1 + L2) = 1e-3, so splits around it are drawn as well
log_split = st.one_of(split, st.floats(-1e-3, 1e-3))


@settings(deadline=None, max_examples=60)
@given(stretch, log_split, angle, angle, params)
@example(1.1, 0.2, 0.4, 0.3, mm.GGA)  # generic
@example(1.1, 5e-10, 0.4, 0.3, mm.LDA)  # near-isotropic
@example(1.1, 5e-4, 0.4, 0.3, mm.GGA)  # in the log series band
def test_one_pass_stress_and_push_forwards_are_exact(l1, sp, phi, theta, p):
    c = c_from_stretches(l1, l1 * (1.0 + sp), phi)
    fr = make_frame(theta)
    r_m = mm.stress_metric(c, fr, p)
    r_l = mm.stress_log(c, fr, p)
    # one kernel per model: its energy-only order gives the same W bitwise
    assert mm.energy_metric(c, fr, p) == r_m.W
    assert mm.energy_log(c, fr, p) == r_l.W
    # StressResult equality compares S, tau, sigma and W field by field
    assert mm.stress_tangent_metric(c, fr, p)[0] == r_m
    assert mm.stress_tangent_log(c, fr, p)[0] == r_l
    for r in (r_m, r_l):
        assert r.sigma == r.tau.scaled(1.0 / math.sqrt(c.det()))
    # both cores share one (c, frame, p, order) -> (W, S, G, J) contract:
    # None below the requested order, W and S bitwise equal across the
    # orders, J = sqrt(det C) bitwise from order 1 (sigma's 1/J), and the
    # one-pass tangent is the tangent-only one
    for model, core in (("metric", mm._metric_core), ("log", mm._log_core)):
        out = [core(c, fr, p, k) for k in (0, 1, 2)]
        assert all(len(o) == 4 for o in out)
        assert out[0][1:] == (None, None, None) and out[1][2] is None
        assert out[0][0] == out[1][0] == out[2][0]
        assert out[1][1] == out[2][1]
        assert (out[1][3].hex() == out[2][3].hex()
                == math.sqrt(c.det()).hex())
        assert np.array_equal(
            getattr(mm, f"stress_tangent_{model}")(c, fr, p)[1].comp,
            getattr(mm, f"tangent_{model}")(c, fr, p).comp)


@settings(deadline=None, max_examples=200)
@given(stretch, log_split, angle, angle, params)
def test_log_tangent_is_exactly_symmetric_and_matches_differences(
        l1, sp, phi, theta, p):
    c = c_from_stretches(l1, l1 * (1.0 + sp), phi)
    fr = make_frame(theta)
    _w, _s, g, _j = mm._log_core(c, fr, p, 2)
    assert all(g[a][b] == g[b][a] for a in range(3) for b in range(3))
    t = mm.tangent_log(c, fr, p).comp
    assert np.array_equal(t, t.transpose(2, 3, 0, 1))

    def s_of(c11, c22, c12):
        r = mm.stress_log(SurfTensor2(c11, c22, c12), fr, p)
        return np.array([r.S.c11, r.S.c22, r.S.c12])

    fd = 2.0 * partials_sym_richardson(s_of, (c.c11, c.c22, c.c12),
                                       TANGENT_STEP)
    assert np.max(np.abs(pair_of(t) - fd)) <= 1e-8 * np.max(np.abs(fd))


# C eigenvalues over the supported stretch range 0.7-1.6, and relative
# gaps (L1 - L2)/(L1 + L2) from just above the log stress's 1e-8 isotropy
# switch to well separated
eigenvalue = st.floats(0.49, 2.56)
eigen_pair = st.one_of(
    st.tuples(eigenvalue, eigenvalue),
    st.tuples(eigenvalue, st.floats(1.0000001e-8, 1e-6)).map(
        lambda t: (t[0], t[0] * (1.0 - t[1]) / (1.0 + t[1]))))


@settings(deadline=None, max_examples=500)
@given(eigen_pair)
def test_log_stress_k12_reuses_the_eigenvalue_logs(pair):
    # _log_core's generic k12 is 4 ed / (L1 - L2): l1, l2 and ed are the
    # logs scaled by powers of two, so 4 ed is ln L1 - ln L2 bitwise
    L1, L2 = max(pair), min(pair)
    l1 = 0.5 * math.log(L1)
    l2 = 0.5 * math.log(L2)
    ed = 0.5 * (l1 - l2)
    assert 4.0 * ed == math.log(L1) - math.log(L2)


@pytest.mark.parametrize("mean", [0.49, 1.0, 2.56])
def test_ln_divided_difference_branches_agree_at_the_switch(mean):
    below = mm._ln_divided2(mean, math.nextafter(mm.LN_SERIES_U, 0.0))
    at = mm._ln_divided2(mean, mm.LN_SERIES_U)
    for b, a in zip(below, at):
        assert abs(b - a) <= 1e-12 * abs(a)
    # both reach -1/(2 mean^2), the second derivative of ln over two
    iso = mm._ln_divided2(mean, 0.0)
    assert iso[0] == iso[1] == pytest.approx(-0.5 / mean ** 2, rel=1e-15)


def test_tangent_major_symmetry():
    for c in (C0, SurfTensor2(1.5, 0.75, 0.4)):
        t = mm.tangent_metric(c, FRAME, mm.GGA).comp
        assert np.max(np.abs(t - t.transpose(2, 3, 0, 1))) < 1e-10 * np.max(
            np.abs(t))


def test_combined_evaluators_match_single_ones():
    r1, t1 = mm.stress_tangent_metric(C0, FRAME, mm.GGA)
    assert r1.S.c11 == mm.stress_metric(C0, FRAME, mm.GGA).S.c11
    assert np.array_equal(t1.comp, mm.tangent_metric(C0, FRAME, mm.GGA).comp)
    r2, t2 = mm.stress_tangent_log(C0, FRAME, mm.GGA)
    assert r2.S.c11 == mm.stress_log(C0, FRAME, mm.GGA).S.c11
    assert np.allclose(t2.comp, mm.tangent_log(C0, FRAME, mm.GGA).comp,
                       rtol=0.0, atol=0.0)


def test_log_tangent_is_symmetric_and_fd_consistent():
    t = mm.tangent_log(C0, FRAME, mm.GGA).comp
    assert np.max(np.abs(t - t.transpose(2, 3, 0, 1))) < 1e-7 * np.max(
        np.abs(t))

    def s_of(c11, c22, c12):
        r = mm.stress_log(SurfTensor2(c11, c22, c12), FRAME, mm.GGA)
        return np.array([r.S.c11, r.S.c22, r.S.c12])

    fd = 2.0 * partials_sym(s_of, (C0.c11, C0.c22, C0.c12), TANGENT_STEP)
    assert np.max(np.abs(fd - pair_of(t))) / np.max(np.abs(fd)) < 1e-4


def test_near_coincident_eigenvalues_are_stable():
    fr = make_frame(0.1)
    a = SurfTensor2(1.2, 1.2, 0.0)
    b = SurfTensor2(1.2 + 1e-12, 1.2, 1e-13)
    ra = mm.stress_log(a, fr, mm.GGA)
    rb = mm.stress_log(b, fr, mm.GGA)
    assert math.isfinite(rb.S.c11) and math.isfinite(rb.S.c12)
    assert rb.S.c11 == pytest.approx(ra.S.c11, abs=1e-8)
    tb = mm.tangent_log(b, fr, mm.GGA).comp
    assert np.all(np.isfinite(tb))
    ta = mm.tangent_log(a, fr, mm.GGA).comp
    assert np.max(np.abs(tb - ta)) <= 1e-10 * np.max(np.abs(ta))


def test_objectivity_under_co_rotation():
    """Rotating the state and the lattice together changes nothing."""
    phi = 0.83
    c, s = math.cos(phi), math.sin(phi)
    r = np.array([[c, -s], [s, c]])
    m = r @ C0.as_matrix() @ r.T
    c_rot = SurfTensor2(m[0, 0], m[1, 1], 0.5 * (m[0, 1] + m[1, 0]))
    w0 = mm.energy_metric(C0, make_frame(0.2), mm.GGA)
    w1 = mm.energy_metric(c_rot, make_frame(0.2 + phi), mm.GGA)
    assert w1 == pytest.approx(w0, rel=1e-12)
    assert mm.energy_log(c_rot, make_frame(0.2 + phi), mm.GGA) == \
        pytest.approx(mm.energy_log(C0, make_frame(0.2), mm.GGA), rel=1e-12)


def test_sixty_degree_energy_periodicity():
    for dth in (math.pi / 3.0, -math.pi / 3.0, 2.0 * math.pi / 3.0):
        w0 = mm.energy_metric(C0, make_frame(0.2), mm.GGA)
        w1 = mm.energy_metric(C0, make_frame(0.2 + dth), mm.GGA)
        assert w1 == pytest.approx(w0, rel=1e-12)


def test_definiteness_guards():
    with pytest.raises(NotPositiveDefiniteError):
        mm.stress_metric(SurfTensor2(-1.0, 1.0, 0.0), make_frame(0.0), mm.GGA)
    with pytest.raises(NotPositiveDefiniteError):
        mm.stress_log(SurfTensor2(1.0, 1.0, 1.0), make_frame(0.0), mm.GGA)


def test_order_two_partials_match_differences_of_the_coefficients():
    """_h_coefficients' order-2 tangent coefficients are formed from the
    derivatives of its order-1 (H1, H2, H3) in (J, J2, J3) with det = J^2:
    g_cc, g_pp, g_cp, g_cz and g_pz, formed here from central differences
    at step 1e-5 max(|x|, 1), lie within 1e-7 of the largest of the five
    (eta, and with it g_pz, vanishes in the range); g_inv, g_iso and g_k
    are -H1, H2/J^2 and 3 H3/J^2 bit for bit."""
    rng = np.random.default_rng(16)
    for _ in range(40):
        c = c_from_stretches(*rng.uniform(0.7, 1.6, size=2),
                             rng.uniform(0.0, math.pi))
        fr = make_frame(rng.uniform(0.0, 2.0 * math.pi))
        _det, j, _p11, _p12, J2, _mC, _nC, J3 = iv._c_scalars(
            *c, fr.m_hat.c11, fr.m_hat.c12, fr.n_hat.c11, fr.n_hat.c12)
        x = (j, J2, J3)
        for p in (mm.GGA, mm.LDA):
            _w, (H1, H2, H3), coef = mm._h_coefficients(j, j * j, J2, J3, p,
                                                        order=2)
            assert len(coef) == 8
            j2i = 1.0 / (j * j)
            assert coef[:2] == (-H1, H2 * j2i)
            assert coef[7] == 3.0 * H3 * j2i
            fd = []
            for k in range(3):
                h = 1e-5 * max(abs(x[k]), 1.0)
                up, dn = list(x), list(x)
                up[k] += h
                dn[k] -= h
                hu = mm._h_coefficients(up[0], up[0] ** 2, *up[1:], p, 1)[1]
                hd = mm._h_coefficients(dn[0], dn[0] ** 2, *dn[1:], p, 1)[1]
                fd.append([(u - d) / (2.0 * h) for u, d in zip(hu, hd)])
            # fd[k][i] = dHi/dJk
            H11, H12, H13 = fd[0][0], fd[1][0], fd[2][0]
            H22, H23 = fd[1][1], fd[2][1]
            want = (j * H11 - 2.0 * J2 * H12 - 3.0 * J3 * H13,
                    2.0 * H22 / (j * j), 2.0 * H12 / j, 0.25 * H13 / j,
                    0.25 * H23 / (j * j))
            got = coef[2:7]
            scale = max(abs(v) for v in got)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-7 * scale


def test_coefficient_set_matches_stress_assembly():
    """S = H1 C^-1 + (H2/J) dev(C/J) + (H3/4J)(aM M + aN N), assembled from
    tensor algebra with the kernel's scalars and coefficients."""
    det, j, _p11, _p12, J2, mC, nC, J3 = iv._c_scalars(
        *C0, FRAME.m_hat.c11, FRAME.m_hat.c12, FRAME.n_hat.c11,
        FRAME.n_hat.c12)
    _w, (H1, H2, H3), _dh = mm._h_coefficients(j, det, J2, J3, mm.GGA,
                                                 order=1)
    aM = 3.0 * (mC * mC - nC * nC)
    aN = -6.0 * mC * nC
    det = C0.det()
    inv = SurfTensor2(C0.c22 / det, C0.c11 / det, -C0.c12 / det)
    half_diff = 0.5 * (C0.c11 - C0.c22) / j
    perp = SurfTensor2(half_diff, -half_diff, C0.c12 / j)
    fr = FRAME
    z11 = aM * fr.m_hat.c11 + aN * fr.n_hat.c11
    z22 = aM * fr.m_hat.c22 + aN * fr.n_hat.c22
    z12 = aM * fr.m_hat.c12 + aN * fr.n_hat.c12
    s11 = H1 * inv.c11 + H2 / j * perp.c11 + H3 / (4.0 * j) * z11
    s22 = H1 * inv.c22 + H2 / j * perp.c22 + H3 / (4.0 * j) * z22
    s12 = H1 * inv.c12 + H2 / j * perp.c12 + H3 / (4.0 * j) * z12
    r = mm.stress_metric(C0, FRAME, mm.GGA)
    assert s11 == pytest.approx(r.S.c11, rel=1e-13)
    assert s22 == pytest.approx(r.S.c22, rel=1e-13)
    assert s12 == pytest.approx(r.S.c12, rel=1e-13)
