"""Geometry chain: metric, spray, connection, curvature, and the identities
tying them together."""

import numpy as np
import pytest

from finslergeo import catalog, expr, geometry
from finslergeo.defs import DslLagrangian, TangentSample, fiber_aliases
from finslergeo.geometry import DegenerateMetric, _Eval
from finslergeo.jets import Jet, jet_space


@pytest.fixture(scope="module")
def minkowski():
    return catalog.get("minkowski4")


@pytest.fixture(scope="module")
def conformal():
    return catalog.get("conformally-flat")


@pytest.fixture(scope="module")
def szabo():
    return catalog.get("szabo-counterexample")


def test_minkowski_metric(minkowski):
    s = TangentSample([0, 0, 0, 0], [1.0, 0, 0, 0])
    mv = geometry.metric(minkowski.lagrangian, s)
    np.testing.assert_allclose(mv.g, np.diag([1.0, -1, -1, -1]), atol=1e-14)
    assert mv.signature == (1, 3, 0)
    assert mv.det == pytest.approx(-1.0)
    np.testing.assert_allclose(mv.g @ mv.g_inv, np.eye(4), atol=1e-12)


def test_minkowski_flat(minkowski):
    s = TangentSample([0.5, 1, 2, 3], [1.0, 0.4, -0.2, 0.1])
    assert np.max(np.abs(geometry.spray(minkowski.lagrangian, s))) == 0.0
    assert np.max(np.abs(geometry.nonlinear_connection(minkowski.lagrangian, s))) == 0.0
    cv = geometry.hh_curvature(minkowski.lagrangian, s)
    assert np.max(np.abs(cv.hh_riemann)) == 0.0
    assert np.max(np.abs(cv.ricci)) == 0.0


def test_quadratic_lagrangian_metric_is_coefficient_matrix(conformal):
    # for L = g_ab(x) v^a v^b the vertical Hessian recovers g_ab(x), v-free
    x = np.array([0.3, 0.5, -0.4, 0.7])
    factor = float(np.exp(0.2 * x[1] * x[2] + 0.1 * x[3]))
    expected = factor * np.diag([1.0, -1, -1, -1])
    for v in ([1.0, 0.2, 0.1, -0.3], [2.0, -0.5, 0.3, 0.8]):
        mv = geometry.metric(conformal.lagrangian, TangentSample(x, v))
        np.testing.assert_allclose(mv.g, expected, rtol=1e-12)


def test_pseudo_riemannian_spray_and_connection_are_christoffels(conformal):
    # oracle: Christoffel symbols from the metric expression matrix
    psi = "exp(0.2*x1*x2 + 0.1*x3)"
    rows = [
        [f"({psi})" if a == b == 0 else (f"-({psi})" if a == b else "0") for b in range(4)]
        for a in range(4)
    ]
    gexprs = [[expr.parse(src, 4) for src in row] for row in rows]
    x = np.array([0.3, 0.5, -0.4, 0.7])
    v = np.array([1.0, 0.2, 0.1, -0.3])
    gamma_ref = geometry.christoffel_values(gexprs, x)
    s = TangentSample(x, v)
    np.testing.assert_allclose(
        geometry.chern_rund(conformal.lagrangian, s), gamma_ref, atol=1e-12
    )
    np.testing.assert_allclose(
        geometry.spray(conformal.lagrangian, s),
        0.5 * np.einsum("abc,b,c->a", gamma_ref, v, v),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        geometry.nonlinear_connection(conformal.lagrangian, s),
        np.einsum("abc,c->ab", gamma_ref, v),
        atol=1e-12,
    )


def test_connection_invariants(szabo):
    s = szabo.default_samples[0]
    spray = geometry.spray(szabo.lagrangian, s)
    nonlinear = geometry.nonlinear_connection(szabo.lagrangian, s)
    chern_rund = geometry.chern_rund(szabo.lagrangian, s)
    v = s.xdot
    contraction = np.einsum("abc,b,c->a", chern_rund, v, v)
    rel = np.max(np.abs(contraction - 2 * spray)) / max(1.0, np.max(np.abs(spray)))
    assert rel < 1e-8
    rel_n = np.max(np.abs(nonlinear @ v - 2 * spray)) / max(1.0, np.max(np.abs(spray)))
    assert rel_n < 1e-8
    np.testing.assert_allclose(chern_rund, np.swapaxes(chern_rund, 1, 2), atol=0)


def test_cartan_contraction_vanishes(szabo):
    # C_abc xdot^a = 0 since the metric is 0-homogeneous in xdot
    s = szabo.default_samples[0]
    ev = _Eval(szabo.lagrangian, s, 3)
    contracted = np.einsum("abc,a->bc", ev.cartan_values, s.xdot)
    assert np.max(np.abs(contracted)) < 1e-8 * max(1.0, np.max(np.abs(ev.cartan_values)))


def test_euler_identity(szabo, conformal):
    for entry in (szabo, conformal):
        for s in entry.default_samples:
            ev = _Eval(entry.lagrangian, s, 2)
            lhs = float(s.xdot @ ev.g_values @ s.xdot)
            assert lhs == pytest.approx(ev.L.value, rel=1e-9)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
def test_homogeneity(szabo, lam):
    s = szabo.default_samples[0]
    scaled = s.scaled(lam)
    lag = szabo.lagrangian
    ev = _Eval(lag, s, 3)
    evs = _Eval(lag, scaled, 3)
    assert evs.L.value == pytest.approx(lam**2 * ev.L.value, rel=1e-8)
    np.testing.assert_allclose(evs.g_values, ev.g_values, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(
        evs.spray_values, lam**2 * ev.spray_values, rtol=1e-8, atol=1e-12
    )
    contraction = np.einsum("abc,b,c->a", evs.gamma_values, scaled.xdot, scaled.xdot)
    np.testing.assert_allclose(
        contraction, 2 * lam**2 * ev.spray_values, rtol=1e-8, atol=1e-10
    )


def test_skew_identity_two_routes(szabo):
    s = szabo.default_samples[0]
    ev = _Eval(szabo.lagrangian, s, 4)
    curv = ev.curvature
    trace_route = curv.ricci - curv.ricci.T
    curvature_route = geometry.ricci_skew_from_curvature(
        curv.hh_riemann, s.xdot, ev.cartan_trace
    )
    assert np.max(np.abs(trace_route - curvature_route)) < 1e-7


def test_riemann_antisymmetry_last_pair(szabo, conformal):
    for entry in (szabo, conformal):
        s = entry.default_samples[0]
        riem = geometry.hh_curvature(entry.lagrangian, s).hh_riemann
        swap = np.swapaxes(riem, 2, 3)
        assert np.max(np.abs(riem + swap)) < 1e-9 * max(1.0, np.max(np.abs(riem)))


def test_ricci_is_trace(szabo):
    s = szabo.default_samples[0]
    curv = geometry.hh_curvature(szabo.lagrangian, s)
    np.testing.assert_allclose(
        curv.ricci, np.einsum("mamb->ab", curv.hh_riemann), atol=0
    )
    np.testing.assert_allclose(
        curv.skew_ricci, 0.5 * (curv.ricci - curv.ricci.T), atol=0
    )


def test_commutator_residual(minkowski, conformal, szabo):
    for entry, tol in ((minkowski, 1e-9), (conformal, 1e-6), (szabo, 1e-6)):
        s = entry.default_samples[0]
        f = geometry.log_sqrt_det_metric_field(entry.lagrangian)
        assert geometry.commutator_check(entry.lagrangian, s, f) < tol


def test_context_log_det_commutator_equals_the_public_field():
    # the context's own ln sqrt|det g| is the public field's jet, bit for bit
    samples = [
        (ent.lagrangian, s)
        for ent in map(catalog.get, catalog.names())
        for s in ent.default_samples
    ]
    assert len(samples) == 14
    for lag, s in samples:
        ev = _Eval(lag, s, 4)
        field = geometry.log_sqrt_det_metric_field(lag)
        assert ev.log_sqrt_det.coeffs.tobytes() == field(ev.cjets).coeffs.tobytes()
        got = ev.commutator_residual(ev.log_sqrt_det)
        want = geometry.commutator_check(lag, s, field)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_log_det_field_identities(szabo):
    # delta_a ln sqrt|det g| = Gamma^m_am  and  ddot_a of it = C_a
    s = szabo.default_samples[0]
    lag = szabo.lagrangian
    f = geometry.log_sqrt_det_metric_field(lag)
    ev = _Eval(lag, s, 3)
    hd = geometry.values(ev.delta_of(f(ev.cjets)))
    np.testing.assert_allclose(
        hd, np.einsum("mam->a", ev.gamma_values), atol=1e-7
    )
    vd = geometry.vertical_derivative(lag, s, f)
    np.testing.assert_allclose(vd, ev.cartan_trace, atol=1e-7)


def test_horizontal_derivative_of_x_free_field_vanishes(minkowski):
    s = TangentSample([0, 0, 0, 0], [1.0, 0.3, 0, 0])

    def field(cjets):
        n = len(cjets) // 2
        return cjets[n] * cjets[n]  # depends on xdot only

    ev = _Eval(minkowski.lagrangian, s, 3)
    assert np.max(np.abs(geometry.values(ev.delta_of(field(ev.cjets))))) == 0.0


# -- eval_L ------------------------------------------------------------------------


def test_family_p_zero_reduces_to_alpha():
    ent = catalog.get("bogoslovsky", {"p": 0.0})
    s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0.1, -0.3])
    ev = _Eval(ent.lagrangian, s, 2)
    v = s.xdot
    alpha = v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2
    assert ev.L.value == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_family_c1_m0_closed_form(p):
    # with c=1, m=0 the Lagrangian reduces to alpha^(p+1)/beta^(2p)
    ent = catalog.get("bogoslovsky", {"p": p})
    s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0.1, -0.3])
    v = s.xdot
    alpha = v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2
    beta = v[0]
    ev = _Eval(ent.lagrangian, s, 1)
    assert ev.L.value == pytest.approx(alpha ** (p + 1) / beta ** (2 * p), rel=1e-12)


def test_minkowski_hessian_from_L(minkowski):
    ev = _Eval(minkowski.lagrangian, TangentSample([0, 0, 0, 0], [1.0, 0, 0, 0]), 2)
    np.testing.assert_allclose(ev.g_values, np.diag([1.0, -1, -1, -1]), atol=1e-15)


# -- admissibility -------------------------------------------------------------------


def test_probe_minkowski_timelike(minkowski):
    v = geometry.probe_admissibility(
        minkowski.lagrangian, TangentSample([0, 0, 0, 0], [1.0, 0, 0, 0])
    )
    assert v.in_A and v.in_A0 and v.in_T and not v.in_N
    assert v.L_value == pytest.approx(1.0)


def test_probe_minkowski_null(minkowski):
    v = geometry.probe_admissibility(
        minkowski.lagrangian, TangentSample([0, 0, 0, 0], [1.0, 1.0, 0, 0])
    )
    assert v.in_A and v.in_N and not v.in_A0 and not v.in_T


def test_probe_flipped_convention(minkowski):
    # flat mostly-plus Lagrangian: timelike vectors have L < 0, signature (3,1)
    lag = DslLagrangian(
        4,
        expr.parse(
            "-dx0^2 + dx1^2 + dx2^2 + dx3^2", 8, aliases=fiber_aliases(4, None)
        ),
    )
    s = TangentSample([0, 0, 0, 0], [1.0, 0.1, 0, 0])
    assert not geometry.probe_admissibility(lag, s, "+---").in_T
    assert geometry.probe_admissibility(lag, s, "-+++").in_T


def test_probe_family_beta_zero_power_domain(szabo):
    # p > 0 and beta(xdot) = 0: L is undefined there
    s = TangentSample(szabo.default_samples[0].x, [0.0, 1.0, 0.1, 0.1])
    v = geometry.probe_admissibility(szabo.lagrangian, s)
    assert not v.in_A
    assert v.failure_reason in ("power-domain", "division-by-zero")
    assert v.L_value is None


def test_probe_degenerate_metric():
    # L = (v0)^2 alone in dim 2 has a singular vertical Hessian
    lag = DslLagrangian(2, expr.parse("dx0^2", 4, aliases=fiber_aliases(2, None)))
    v = geometry.probe_admissibility(lag, TangentSample([0, 0], [1.0, 0.5]))
    assert not v.in_A
    assert v.failure_reason == "degenerate-metric"


def test_metric_raises_on_degenerate():
    lag = DslLagrangian(2, expr.parse("dx0^2", 4, aliases=fiber_aliases(2, None)))
    with pytest.raises(DegenerateMetric):
        geometry.metric(lag, TangentSample([0, 0], [1.0, 0.5]))


def test_counterexample_signature_from_eigen_oracle(szabo):
    # frozen via independent eigen-decomposition of the FD Hessian: at the
    # default cone (beta > 0, zeta > 0, p = 2) the L-metric is positive definite
    from finslergeo.oracle import fd_partial

    s = szabo.default_samples[0]
    lag = szabo.lagrangian

    def L_of(pt):
        return _Eval(lag, TangentSample(s.x, pt), 1).L.value

    hess = np.empty((4, 4))
    for a in range(4):
        for b in range(4):
            hess[a, b] = 0.5 * fd_partial(L_of, s.xdot, [a, b])
    eig = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    assert np.all(eig > 0)
    mv = geometry.metric(lag, s)
    assert mv.signature == (4, 0, 0)
    np.testing.assert_allclose(mv.g, 0.5 * (hess + hess.T), rtol=1e-5, atol=1e-6)


def test_homogeneity_on_random_admissible_samples(szabo):
    # property over randomly drawn admissible directions, not just defaults
    from finslergeo import berwald

    s = szabo.default_samples[0]
    lag = szabo.lagrangian
    dirs = berwald.sample_admissible_directions(
        lag, s.x, s.xdot, count=6, rng=np.random.default_rng(11)
    )
    for d in dirs:
        base = TangentSample(s.x, d)
        ev = _Eval(lag, base, 3)
        for lam in (0.5, 2.0, 7.0):
            evs = _Eval(lag, base.scaled(lam), 3)
            assert evs.L.value == pytest.approx(lam**2 * ev.L.value, rel=1e-8)
            np.testing.assert_allclose(evs.g_values, ev.g_values, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(
                evs.spray_values, lam**2 * ev.spray_values, rtol=1e-8, atol=1e-10
            )


def plain_cofactor_det(g):
    """Cofactor expansion along the first row, every minor recomputed."""
    n = len(g)
    if n == 1:
        return g[0][0]
    total = None
    for j in range(n):
        minor = [[g[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = g[0][j] * plain_cofactor_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_det_jet_matrix_matches_plain_cofactor_expansion(n):
    rng = np.random.default_rng([11, n])
    space = jet_space(3, 4)
    width = space.ncoeff_upto[4]
    g = [[Jet(space, rng.uniform(-2, 2, width), 4) for _ in range(n)] for _ in range(n)]
    got = geometry.det_jet_matrix(g)
    expected = plain_cofactor_det(g)
    assert got.order == expected.order
    assert np.array_equal(got.coeffs, expected.coeffs)
