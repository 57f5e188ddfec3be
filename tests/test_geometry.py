"""Geometry chain: metric, spray, connection, curvature, and the identities
tying them together."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from finslergeo import berwald, catalog, cli, expr, geometry, jets
from finslergeo.defs import DslLagrangian, TangentSample, fiber_aliases
from finslergeo.expr import ExprDomainError
from finslergeo.geometry import DegenerateMetric, _Eval
from finslergeo.jets import DomainError, Jet, jet_space
from finslergeo.scene import load_scene

REPO = Path(__file__).resolve().parents[1]


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
    ev = _Eval(szabo.lagrangian, s, 3).row(0)
    contracted = np.einsum("abc,a->bc", ev.cartan_values, s.xdot)
    assert np.max(np.abs(contracted)) < 1e-8 * max(1.0, np.max(np.abs(ev.cartan_values)))


def test_euler_identity(szabo, conformal):
    for entry in (szabo, conformal):
        for s in entry.default_samples:
            ev = _Eval(entry.lagrangian, s, 2).row(0)
            lhs = float(s.xdot @ ev.g_values @ s.xdot)
            assert lhs == pytest.approx(ev.L.value, rel=1e-9)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
def test_homogeneity(szabo, lam):
    s = szabo.default_samples[0]
    scaled = s.scaled(lam)
    lag = szabo.lagrangian
    ev = _Eval(lag, s, 3).row(0)
    evs = _Eval(lag, scaled, 3).row(0)
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
    ev = _Eval(szabo.lagrangian, s, 4).row(0)
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
        ev = _Eval(lag, s, 4).row(0)
        field = geometry.log_sqrt_det_metric_field(lag)
        assert ev.log_sqrt_det.coeffs.tobytes() == field(ev.cjets).coeffs.tobytes()
        got = ev.commutator_residual(ev.log_sqrt_det)
        want = geometry.commutator_check(lag, s, field)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # a plain callable is evaluated on the coordinates, as is the field
        # of another Lagrangian: the public calls read the context's own jet
        # only for its own Lagrangian's field
        plain = lambda cj: field(cj)  # noqa: E731
        for call in (geometry.commutator_check, geometry.vertical_derivative):
            assert _outcome_of(lambda: call(lag, s, plain)) == _outcome_of(
                lambda: call(lag, s, field)
            )
        other = geometry.log_sqrt_det_metric_field(
            next(o for o, _ in samples if o is not lag and o.dim == lag.dim)
        )
        assert _outcome_of(lambda: geometry.commutator_check(lag, s, other)) == _outcome_of(
            lambda: geometry.commutator_check(lag, s, lambda cj: other(cj))
        )


def test_log_det_field_identities(szabo):
    # delta_a ln sqrt|det g| = Gamma^m_am  and  ddot_a of it = C_a
    s = szabo.default_samples[0]
    lag = szabo.lagrangian
    f = geometry.log_sqrt_det_metric_field(lag)
    ev = _Eval(lag, s, 3).row(0)
    hd = geometry.values(geometry.delta_of(ev.nonlinear_jets, f(ev.cjets)), (ev.n,))
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

    ev = _Eval(minkowski.lagrangian, s, 3).row(0)
    delta = geometry.delta_of(ev.nonlinear_jets, field(ev.cjets))
    assert np.max(np.abs(geometry.values(delta, (ev.n,)))) == 0.0


# -- eval_L ------------------------------------------------------------------------


def test_family_p_zero_reduces_to_alpha():
    ent = catalog.get("bogoslovsky", {"p": 0.0})
    s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0.1, -0.3])
    ev = _Eval(ent.lagrangian, s, 2).row(0)
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
    ev = _Eval(ent.lagrangian, s, 1).row(0)
    assert ev.L.value == pytest.approx(alpha ** (p + 1) / beta ** (2 * p), rel=1e-12)


def test_minkowski_hessian_from_L(minkowski):
    ev = _Eval(minkowski.lagrangian, TangentSample([0, 0, 0, 0], [1.0, 0, 0, 0]), 2).row(0)
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


def test_values_that_do_not_invert_are_outside_A(digest_scenes):
    # g = [[1, 3], [3, 9]] has eigenvalues about 1.1e-16 and 10: nondegenerate
    # at 1e-18, but its LU factorisation has a zero pivot
    scn = load_scene(dict(digest_scenes)["singular-values"])
    lag, (_, sample) = scn.lagrangian, scn.samples[0]
    tol = scn.options.tol_degenerate
    assert tol == 1e-18
    geometry._last_context = None
    for call in ("metric", "spray", "hh_curvature"):
        with pytest.raises(DegenerateMetric, match="Singular matrix"):
            getattr(geometry, call)(lag, sample, tol)
    verdict, ev = geometry.probe_context(lag, sample, tol_degenerate=tol)
    assert ev.signature() == (2, 0, 0)
    assert not verdict.in_A and verdict.failure_reason == "degenerate-metric"
    # the Berwald witness reads the same record
    in_A, spray = berwald._witness_block(lag, np.concatenate([sample.x, sample.xdot])[None], tol)
    assert in_A.tolist() == [False] and np.isnan(spray).all()


@pytest.mark.parametrize(
    "source, tol",
    [
        ("dx0^2", geometry.TOL_DEGENERATE),
        ("dx0^2 - 1e-12*dx1^2", geometry.TOL_DEGENERATE),
        ("dx0^2 + 6*dx0*dx1 + 9*dx1^2", 1e-18),
    ],
)
def test_the_log_sqrt_det_field_outside_A_reads_the_record(source, tol):
    # det g is 0, about -1e-12 and about 1e-15: each sample is outside A, and
    # every reader past g raises what kept it out, whatever det g's value
    lag = DslLagrangian(2, expr.parse(source, 4, aliases=fiber_aliases(2, None)))
    sample = TangentSample([0.0, 0.0], [1.0, 0.5])
    field = geometry.log_sqrt_det_metric_field(lag)
    for call in ("commutator_check", "vertical_derivative"):
        geometry._last_context = None
        with pytest.raises(DegenerateMetric):
            getattr(geometry, call)(lag, sample, field, tol)
    for call in ("spray", "hh_curvature"):
        geometry._last_context = None
        with pytest.raises(DegenerateMetric):
            getattr(geometry, call)(lag, sample, tol)


def test_counterexample_signature_from_eigen_oracle(szabo):
    # frozen via independent eigen-decomposition of the FD Hessian: at the
    # default cone (beta > 0, zeta > 0, p = 2) the L-metric is positive definite
    from finslergeo.oracle import fd_partial

    s = szabo.default_samples[0]
    lag = szabo.lagrangian

    def L_of(pt):
        return _Eval(lag, TangentSample(s.x, pt), 1).row(0).L.value

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
        ev = _Eval(lag, base, 3).row(0)
        for lam in (0.5, 2.0, 7.0):
            evs = _Eval(lag, base.scaled(lam), 3).row(0)
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
    stack = Jet(space, rng.uniform(-2, 2, (n * n, width)), 4)
    g = [[Jet(space, stack.coeffs[i * n + j], 4) for j in range(n)] for i in range(n)]
    got = geometry.det_jet_matrix(stack)
    expected = plain_cofactor_det(g)
    assert got.order == expected.order
    assert np.array_equal(got.coeffs, expected.coeffs)


# -- the stacked chain against the scalar loops it replaced -------------------------
#
# The chain used to run one scalar Jet operation per tensor component.  These
# loops are kept as references: every stack must hold their jets bit for bit.


def ref_matmul(A, B):
    n = len(A)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = A[i][0] * B[0][j]
            for k in range(1, n):
                acc = acc + A[i][k] * B[k][j]
            out[i, j] = acc
    return out


def ref_invert(g):
    n = len(g)
    space = g[0][0].space
    order = min(g[i][j].order for i in range(n) for j in range(n))
    vinv = np.linalg.inv(np.array([[g[i][j].value for j in range(n)] for i in range(n)]))
    X = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            X[i, j] = space.constant(vinv[i, j], order)
    iters, errdeg = 0, 1
    while errdeg <= order:
        iters += 1
        errdeg *= 2
    for _ in range(iters):
        GX = ref_matmul(g, X)
        for i in range(n):
            GX[i, i] = 2.0 - GX[i, i]
            for j in range(n):
                if i != j:
                    GX[i, j] = -GX[i, j]
        X = ref_matmul(X, GX)
    return X


def ref_koszul(ginv, dg):
    n = len(ginv)
    out = np.empty((n, n, n), dtype=object)
    for b in range(n):
        for c in range(b, n):
            for a in range(n):
                acc = None
                for q in range(n):
                    term = ginv[a, q] * (dg[b, c, q] + dg[c, b, q] - dg[q, b, c])
                    acc = term if acc is None else acc + term
                out[a, b, c] = 0.5 * acc
                out[a, c, b] = out[a, b, c]
    return out


def ref_half_hessian(L, n):
    out = np.empty((n, n), dtype=object)
    for a in range(n):
        da = L.diff(n + a)
        for b in range(a, n):
            out[a, b] = 0.5 * da.diff(n + b)
            out[b, a] = out[a, b]
    return out


def ref_delta_of(N, j, n):
    out = []
    for a in range(n):
        acc = j.diff(a)
        for b in range(n):
            acc = acc - N[b, a] * j.diff(n + b)
        out.append(acc)
    return np.array(out, dtype=object)


def ref_log_sqrt_det(g):
    """ln sqrt|det g| of the scaled matrix, as `geometry.log_sqrt_abs_det`."""
    n = len(g)
    k = math.frexp(max(abs(g[i, j].value) for i in range(n) for j in range(n)))[1]
    scaled = [[Jet(g[i, j].space, np.ldexp(g[i, j].coeffs, -k), g[i, j].order)
               for j in range(n)] for i in range(n)]
    log_det = abs(plain_cofactor_det(scaled)).ln()
    log_det.coeffs[0] += n * k * math.log(2.0)
    return 0.5 * log_det


def ref_values(jets):
    return np.vectorize(lambda j: j.value, otypes=[float])(jets)


def ref_first(jets, variables):
    return np.array([np.vectorize(lambda j: j.first(v), otypes=[float])(jets) for v in variables])


def ref_chain(ev):
    """g, g^-1, the spray, N and Gamma of an evaluation context by the scalar
    loops, as far as its order carries them."""
    n, L, cjets = ev.n, ev.L, ev.cjets
    g = ref_half_hessian(L, n)
    ginv = ref_invert(g)
    bracket = np.empty(n, dtype=object)
    for q in range(n):
        acc = None
        dLq = L.diff(n + q)
        for m in range(n):
            term = cjets[n + m] * dLq.diff(m)
            acc = term if acc is None else acc + term
        bracket[q] = acc - L.diff(q)
    spray = np.empty(n, dtype=object)
    for a in range(n):
        acc = ginv[a, 0] * bracket[0]
        for q in range(1, n):
            acc = acc + ginv[a, q] * bracket[q]
        spray[a] = 0.25 * acc
    chain = {"g": g, "g_inv": ginv, "spray": spray}
    if ev.order >= 3:
        N = np.empty((n, n), dtype=object)
        for a in range(n):
            for b in range(n):
                N[a, b] = spray[a].diff(n + b)
        dg = np.empty((n, n, n), dtype=object)
        for c in range(n):
            for q in range(c, n):
                cols = ref_delta_of(N, g[c, q], n)
                for b in range(n):
                    dg[b, c, q] = dg[b, q, c] = cols[b]
        chain.update(N=N, gamma=ref_koszul(ginv, dg))
    return chain


def ref_curvature(gamma, dgam_x, dgam_v, Nv):
    n = len(gamma)
    delta_gam = dgam_x - np.einsum("ed,ecab->dcab", Nv, dgam_v)
    riem = np.empty((n, n, n, n))
    quad = np.einsum("cds,sab->cadb", gamma, gamma) - np.einsum("cbs,sad->cadb", gamma, gamma)
    for c in range(n):
        for a in range(n):
            for d in range(n):
                for b in range(n):
                    riem[c, a, d, b] = delta_gam[d, c, a, b] - delta_gam[b, c, a, d]
    riem += quad
    ricci = np.einsum("mamb->ab", riem)
    return [riem, ricci, 0.5 * (ricci - ricci.T)]


def ref_commutator_residual(ev, N, f):
    n = ev.n
    Nv = ref_values(N)
    ddf = ref_first(ref_delta_of(N, f, n), range(2 * n))
    dd = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            acc = ddf[a, b]
            for c in range(n):
                acc -= Nv[c, a] * ddf[n + c, b]
            dd[a, b] = acc
    dvf = ref_first(f, range(n, 2 * n))
    rhs = geometry.ricci_skew_from_curvature(ev.curvature.hh_riemann, ev.sample.xdot, dvf)
    return float(np.max(np.abs(dd - dd.T - rhs)))


def assert_same_stack(stack, jets):
    """The stack holds the jets of the array, row-major, bit for bit."""
    flat = np.ravel(jets)
    assert all(j.order == stack.order for j in flat)
    assert stack.coeffs.tobytes() == np.array([j.coeffs for j in flat]).tobytes()


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.float64(g).tobytes() == np.float64(w).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2), st.integers(0, 10**6))
def test_stacked_matrix_algebra_matches_the_scalar_loops(n, validity, seed):
    rng = np.random.default_rng(seed)
    space = jet_space(3, 2)
    width = space.ncoeff_upto[validity]
    coeffs = rng.uniform(-1.0, 1.0, (n * n, width))
    # signed zeros, which the scalar operations keep or drop case by case,
    # and a well-conditioned value part
    coeffs[rng.random(coeffs.shape) < 0.2] = rng.choice([0.0, -0.0])
    coeffs[:, 0] += 3.0 * np.eye(n).ravel()
    g = Jet(space, coeffs, validity)
    rows = np.array(
        [[Jet(space, coeffs[i * n + j], validity) for j in range(n)] for i in range(n)]
    )
    ginv = geometry.invert_jet_matrix(g)
    ref_ginv = ref_invert(rows)
    assert_same_stack(ginv, ref_ginv)
    det = geometry.det_jet_matrix(g)
    ref_det = plain_cofactor_det(rows)
    assert det.order == ref_det.order and det.coeffs.tobytes() == ref_det.coeffs.tobytes()
    dg = Jet(space, rng.uniform(-1.0, 1.0, (n**3, width)), validity)
    ref_dg = np.array([Jet(space, row, validity) for row in dg.coeffs]).reshape(n, n, n)
    assert_same_stack(geometry.koszul(ginv, dg), ref_koszul(ref_ginv, ref_dg))


def ref_newton_invert(g: Jet) -> Jet:
    """`geometry.invert_jet_matrix` with every Newton step a general
    contraction, the first one's products with the constant start included."""
    n = math.isqrt(len(g.coeffs))
    space, order = g.space, g.order
    try:
        vinv = np.linalg.inv(geometry.values(g, (n, n)))
    except np.linalg.LinAlgError as err:
        raise DegenerateMetric(str(err)) from err
    coeffs = np.zeros((n * n, space.ncoeff_upto[order]))
    coeffs[:, 0] = vinv.ravel()
    X = Jet(space, coeffs, order)
    idx = geometry._indices(n)
    ia, ib = idx["matmul"]
    diag = idx["diagonal"]
    iters, errdeg = 0, 1
    while errdeg <= order:
        iters += 1
        errdeg *= 2
    for _ in range(iters):
        GX = geometry.contract(g, X, ia, ib)
        coeffs = -GX.coeffs
        coeffs[diag] = (2.0 - geometry.take_rows(GX, diag)).coeffs
        X = geometry.contract(X, Jet(space, coeffs, GX.order), ia, ib)
    return X


def _outcome(fn, *args):
    """The validity and raw bytes of fn(*args), or the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            X = fn(*args)
    except Exception as err:  # the outcome is what is compared
        return type(err).__name__, str(err)
    return X.order, X.coeffs.tobytes()


def _random_stack(rng, n, validity, kind):
    space = jet_space(3, 2)
    width = space.ncoeff_upto[validity]
    coeffs = rng.uniform(-1.0, 1.0, (n * n, width))
    coeffs[rng.random(coeffs.shape) < 0.3] = rng.choice([0.0, -0.0])
    # a small diagonal gives a start with entries above 1
    diagonal = 0.4 if kind == "huge" else rng.choice([0.4, 3.0])
    coeffs[:, 0] += diagonal * np.eye(n).ravel()
    row, col = int(rng.integers(n * n)), int(rng.integers(width))
    if kind in ("inf", "nan"):
        coeffs[row, col] = {"inf": rng.choice([np.inf, -np.inf]), "nan": np.nan}[kind]
    elif kind == "huge":  # a finite g whose product with the start overflows
        coeffs[row, min(col, 1)] = rng.choice([1.7e308, -1.7e308])
    elif kind == "singular":
        coeffs[np.arange(n) * n + row % n, 0] = 0.0
        coeffs[(row % n) * n + np.arange(n), 0] = 0.0
    return Jet(space, coeffs, validity)


_STACK_KINDS = ("finite", "inf", "nan", "huge", "singular")


@pytest.mark.parametrize("kind", _STACK_KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_first_newton_step_by_scaling_is_the_contraction(n, kind):
    rng = np.random.default_rng([n, _STACK_KINDS.index(kind)])
    for validity in range(3):
        for _ in range(6):
            g = _random_stack(rng, n, validity, kind)
            got, want = _outcome(geometry.invert_jet_matrix, g), _outcome(ref_newton_invert, g)
            assert got == want
            if kind == "singular":
                assert got[0] == "DegenerateMetric"


# -- the stages over the variables g depends on --------------------------------
#
# Each stage must match, bit for bit, the full-space route: the same stage
# with every jet product run over every Cauchy pair (`over_every_pair`); for
# the Newton inversion, `ref_newton_invert` run so.


def over_every_pair(fn):
    """fn with every jet product it makes run over every Cauchy pair of its
    space: the union of any two supports is taken as not known."""

    def full_space(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jets, "_union", lambda a, b: None)
            return fn(*args)

    return full_space


def ref_full_delta_of(N: Jet, j: Jet, n: int) -> Jet:
    count = len(j.coeffs.reshape(-1, j.coeffs.shape[-1]))
    a, r = np.divmod(np.arange(n * count), count)
    dv = geometry.partials(j, range(n, 2 * n))
    acc = geometry.partials(j, range(n))
    for b in range(n):
        acc = acc - geometry.take_rows(N, b * n + a) * geometry.take_rows(dv, b * count + r)
    return acc


_SPARSE_KINDS = ("finite", "negzero", "inf", "nan", "huge")


def _sparse_stack(rng, space, rows, validity, subset, kind, diagonal=0.0):
    """A stack whose coefficients are +0.0 outside the variables `subset`,
    then, by `kind`, one -0.0, inf or NaN anywhere, or a finite value that
    overflows a product (1.7e308 in a value or a first-order slot)."""
    width = space.ncoeff_upto[validity]
    coeffs = rng.uniform(-1.0, 1.0, (rows, width))
    outside = [v for v in range(space.nvars) if v not in subset]
    coeffs[:, space.exponents[:width][:, outside].any(axis=1)] = 0.0
    coeffs[rng.random(coeffs.shape) < 0.2] = 0.0
    if diagonal:
        coeffs[:, 0] += diagonal * np.eye(math.isqrt(rows)).ravel()
    row, col = int(rng.integers(rows)), int(rng.integers(width))
    if kind in ("negzero", "inf", "nan"):
        coeffs[row, col] = {"negzero": -0.0, "inf": np.inf, "nan": np.nan}[kind]
    elif kind == "huge":
        inside = [0] + [space.first_index[v] for v in subset if validity >= 1]
        coeffs[row, inside[col % len(inside)]] = rng.choice([1.7e308, -1.7e308])
    return Jet(space, coeffs, validity)


def _subset(rng, nvars):
    return sorted(int(v) for v in np.flatnonzero(rng.random(nvars) < rng.random()))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6), st.integers(0, 2), st.integers(1, 5), st.sampled_from(_SPARSE_KINDS),
    st.integers(0, 10**6),
)
def test_stages_over_the_support_match_the_full_space(n, validity, nvars, kind, seed):
    rng = np.random.default_rng(seed)
    space = jet_space(nvars, 2)
    subset = _subset(rng, nvars)
    g = _sparse_stack(rng, space, n * n, validity, subset, kind, rng.choice([0.4, 3.0]))
    assert _outcome(geometry.invert_jet_matrix, g) == _outcome(
        over_every_pair(ref_newton_invert), g
    )
    assert _outcome(geometry.log_sqrt_abs_det, g) == _outcome(
        over_every_pair(geometry.log_sqrt_abs_det), g
    )
    ginv = _sparse_stack(rng, space, n * n, validity, _subset(rng, nvars), "finite", 1.0)
    dg = _sparse_stack(rng, space, n**3, validity, subset, kind)
    for pair in ((ginv, dg), (g, dg)):
        assert _outcome(geometry.koszul, *pair) == _outcome(over_every_pair(geometry.koszul), *pair)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6), st.integers(0, 2), st.sampled_from(("finite", "inf", "nan", "fiber")),
    st.integers(0, 10**6),
)
def test_delta_of_without_fiber_dependence_matches_the_loop(n, validity, kind, seed):
    rng = np.random.default_rng(seed)
    space = jet_space(2 * n, 3)
    count = int(rng.choice([1, n * (n + 1) // 2]))
    # j depends on a subset of the x-variables, and on one xdot if "fiber"
    subset = _subset(rng, n) + ([n + int(rng.integers(n))] if kind == "fiber" else [])
    j = _sparse_stack(rng, space, count, validity + 1, subset, rng.choice(["finite", "negzero"]))
    N = _sparse_stack(
        rng, space, n * n, validity, range(2 * n), "finite" if kind == "fiber" else kind
    )
    assert _outcome(geometry.delta_of, N, j) == _outcome(ref_full_delta_of, N, j, n)


def _product_supports(monkeypatch, call, spaces=False) -> list:
    """The support each jet product made by call() ran its pairs over, or
    with `spaces` the (space, support) of each."""
    supports = []
    product = jets._product

    def recording(space, a, b, order, support):
        supports.append((space, support) if spaces else support)
        return product(space, a, b, order, support)

    with monkeypatch.context() as patch:
        patch.setattr(jets, "_product", recording)
        call()
    return supports


def _inversion_supports(monkeypatch, lag, sample):
    """The (space, support) each product of g's inversion ran its pairs
    over, in the order-4 context of the sample."""
    ev = _Eval(lag, sample, 4).row(0)
    ev.g_jets
    return set(_product_supports(monkeypatch, lambda: ev.g_inv_jets, spaces=True))


def test_inversion_runs_over_the_variables_g_depends_on(monkeypatch, minkowski):
    # g^-1 is made in the jet space of the variables g depends on: every
    # product runs over all of that space's variables
    dim6 = DslLagrangian(dim=6, ast=expr.parse(
        "exp(0.2*x1*x2 + 0.15*x4)*(dx0^2 - dx1^2 - dx2^2 - dx3^2 - dx4^2 - dx5^2)",
        12, aliases=fiber_aliases(6, None),
    ))
    sample = TangentSample([0.1, -0.3, 0.25, 0.0, 0.4, -0.2], [1.0, 0.1, -0.15, 0.05, 0.2, -0.1])
    assert _inversion_supports(monkeypatch, dim6, sample) == {(jet_space(3, 4), (0, 1, 2))}
    assert _Eval(dim6, sample, 4).row(0).g_inv_jets.support == (1, 2, 4)
    assert _inversion_supports(
        monkeypatch, minkowski.lagrangian, minkowski.default_samples[0]
    ) == {(jet_space(0, 4), ())}
    # a g that depends on every variable is inverted over all of them
    lag = DslLagrangian(dim=2, ast=expr.parse(
        "exp(0.3*x0 + 0.2*x1)*(dx0^2 - dx1^2) + 0.1*(dx0^4 + dx1^4)/(dx0^2 + dx1^2)",
        4, aliases=fiber_aliases(2, None),
    ))
    assert _inversion_supports(monkeypatch, lag, TangentSample([0.1, 0.2], [1.0, 0.3])) == {
        (jet_space(4, 4), (0, 1, 2, 3))
    }


def _stage_outcome(call):
    """The coefficient bytes, order and support of call()'s jet, or the
    name of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            j = call()
    except (DomainError, DegenerateMetric) as err:
        return type(err).__name__
    return j.coeffs.tobytes(), j.order, j.support


def test_g_stages_on_their_support_are_the_stages_in_the_full_space(digest_scenes):
    # the reference: each stage called in the operands' own space, at every
    # digest scene's samples, alone and as the scene's block
    compact = 0
    for name, doc in digest_scenes:
        scn = load_scene(doc)
        samples = [s for _, s in scn.samples]
        tol = scn.options.tol_degenerate
        for sample in samples + [samples]:
            try:
                with np.errstate(all="ignore"):
                    ev = _Eval(scn.lagrangian, sample, 4, tol)
                    g, count = ev._g_past, len(ev._past)
            except (DomainError, ExprDomainError, DegenerateMetric):
                continue
            if not count:
                continue
            compact += len(g.support) < 2 * ev.n
            stages = [
                (geometry.invert_jet_matrix, [g], (count,)),
                (geometry.log_sqrt_abs_det, [g], (count,)),
            ]
            ginv = _stage_outcome(lambda: ev.g_inv_jets)
            if isinstance(ginv, tuple):
                idx = geometry._indices(ev.n, count)
                with np.errstate(all="ignore"):
                    dg = geometry.delta_of(ev.nonlinear_jets, geometry.take_rows(g, idx["upper"]))
                operands = [ev.g_inv_jets, geometry.take_rows(dg, idx["expand"])]
                stages.append((geometry.koszul, operands, (count,)))
            for stage, operands, args in stages:
                got = _stage_outcome(lambda: geometry._on_support(stage, operands, *args))
                want = _stage_outcome(lambda: stage(*operands, *args))
                assert got == want, (name, stage.__name__)
    assert compact > 10


_CATALOG_SAMPLES = [
    (ent.lagrangian, s) for ent in map(catalog.get, catalog.names()) for s in ent.default_samples
]


def _dsl_sample(rng):
    """A non-quadratic DSL Lagrangian in dimension 2 or 3 and a sample of it."""
    n = int(rng.integers(2, 4))
    a, b, c = rng.uniform(-0.5, 0.5, 3)
    spatial = " - ".join(f"dx{i}^2" for i in range(1, n))
    src = (
        f"exp({a:.3f}*x0 + {b:.3f}*x0*x1)*(dx0^2 - {spatial})"
        f" + {c:.3f}*(dx0^4 + dx1^4)/(dx0^2 + {spatial.replace(' - ', ' + ')})"
    )
    lag = DslLagrangian(n, expr.parse(src, 2 * n, aliases=fiber_aliases(n, None)))
    xdot = np.concatenate([[1.0], rng.uniform(-0.3, 0.3, n - 1)])
    return lag, TangentSample(rng.uniform(-1.0, 1.0, n), xdot)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.booleans())
def test_stacked_chain_matches_the_scalar_loops(seed, order, from_catalog):
    rng = np.random.default_rng(seed)
    if from_catalog:
        lag, sample = _CATALOG_SAMPLES[int(rng.integers(len(_CATALOG_SAMPLES)))]
    else:
        lag, sample = _dsl_sample(rng)
    ev = _Eval(lag, sample, order).row(0)
    assume(ev.admissibility().in_A)
    n = ev.n
    ref = ref_chain(ev)
    assert_same_stack(ev.g_jets, ref["g"])
    assert_same_stack(ev.g_inv_jets, ref["g_inv"])
    assert_same_stack(ev.spray_jets, ref["spray"])
    assert_same_bytes([ev.g_values, ev.spray_values], [
        0.5 * (ref_values(ref["g"]) + ref_values(ref["g"]).T), ref_values(ref["spray"]),
    ])
    f = ev.log_sqrt_det
    want = ref_log_sqrt_det(ref["g"])
    assert f.order == want.order and f.coeffs.tobytes() == want.coeffs.tobytes()
    # the scaling leaves every derivative coefficient of the unscaled logarithm
    unscaled = 0.5 * abs(plain_cofactor_det(ref["g"])).ln()
    assert f.coeffs[1:].tobytes() == unscaled.coeffs[1:].tobytes()
    assert f.value == pytest.approx(unscaled.value, rel=1e-14, abs=1e-14)
    if order < 3:
        return
    assert_same_stack(ev.nonlinear_jets, ref["N"])
    assert_same_stack(ev.gamma_jets, ref["gamma"])
    assert_same_stack(geometry.delta_of(ev.nonlinear_jets, f), ref_delta_of(ref["N"], f, n))
    assert_same_bytes([ev.nonlinear_values, ev.gamma_values],
                      [ref_values(ref["N"]), ref_values(ref["gamma"])])
    cartan = np.empty((n, n, n))
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                v = 0.5 * ref["g"][a, b].diff(n + c).value
                for idx in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                    cartan[idx] = v
    assert_same_bytes([ev.cartan_values], [cartan])
    if order < 4:
        return
    dgam_x = ref_first(ref["gamma"], range(n))
    dgam_v = ref_first(ref["gamma"], range(n, 2 * n))
    assert_same_bytes([ev.gamma_x_derivatives, ev.gamma_fiber_derivatives], [dgam_x, dgam_v])
    curv = ev.curvature
    assert_same_bytes(
        [curv.hh_riemann, curv.ricci, curv.skew_ricci],
        ref_curvature(ref_values(ref["gamma"]), dgam_x, dgam_v, ref_values(ref["N"])),
    )
    assert_same_bytes([ev.commutator_residual(f)], [ref_commutator_residual(ev, ref["N"], f)])


def test_stacked_chain_makes_no_scalar_jet_product(monkeypatch, szabo):
    # from g through the curvature every product is a batched one
    ev = _Eval(szabo.lagrangian, szabo.default_samples[0], 4).row(0)
    calls = []
    mul = Jet.__mul__

    def counting(self, other):
        if isinstance(other, Jet) and self.coeffs.ndim == other.coeffs.ndim == 1:
            calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    ev.g_jets, ev.g_inv_jets, ev.spray_jets, ev.nonlinear_jets, ev.gamma_jets, ev.curvature
    assert calls == []
    ev.L * ev.L  # the counter sees a scalar product
    assert len(calls) == 1


def test_dim6_L_makes_no_product_over_all_twelve_variables(monkeypatch):
    # each product of L runs over the variables its factors depend on
    lag = DslLagrangian(dim=6, ast=expr.parse(
        "exp(0.2*x1*x2 + 0.15*x4)*(dx0^2 - dx1^2 - dx2^2 - dx3^2 - dx4^2 - dx5^2)",
        12, aliases=fiber_aliases(6, None),
    ))
    sample = TangentSample([0.1, -0.3, 0.25, 0.0, 0.4, -0.2], [1.0, 0.1, -0.15, 0.05, 0.2, -0.1])
    supports = _product_supports(monkeypatch, lambda: geometry.eval_L(lag, sample, 4))
    L = geometry.eval_L(lag, sample, 4)
    assert L.space is jet_space(12, 4) and L.support == (1, 2, 4, 6, 7, 8, 9, 10, 11)
    # x1 * x2, three Horner products of exp, six squares and the final product
    assert len(supports) == 11
    assert all(len(s) < 12 for s in supports)


# -- one evaluation context per sample ------------------------------------------------


def _raw(value):
    """The raw bytes of a result: of each array and float, field by field."""
    if dataclasses.is_dataclass(value):
        return tuple(_raw(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return repr(value)


def _outcome_of(call):
    """The raw bytes of call(), or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return _raw(call())
    except Exception as err:
        return (type(err).__name__, str(err))


def _fresh(call):
    """_outcome_of(call) with no context kept from before: a fresh one."""
    geometry._last_context = None
    return _outcome_of(call)


def _field(lag):
    return geometry.log_sqrt_det_metric_field(lag)


_SZABO = catalog.get("szabo-counterexample")
_SCHWARZSCHILD = catalog.get("schwarzschild")
_LAGS = (_SZABO.lagrangian, _SCHWARZSCHILD.lagrangian)
_SAMPLES = (_SZABO.default_samples[0], _SCHWARZSCHILD.default_samples[1])

# Each call at (lag, sample); the commutator of the other Lagrangian's field
# takes the path of a field that is not the context's own.
_CALLS = {
    "probe_admissibility": geometry.probe_admissibility,
    "metric": geometry.metric,
    "spray": geometry.spray,
    "nonlinear_connection": geometry.nonlinear_connection,
    "chern_rund": geometry.chern_rund,
    "hh_curvature": geometry.hh_curvature,
    "vertical_derivative": lambda lag, s: geometry.vertical_derivative(lag, s, _field(lag)),
    "commutator_check": lambda lag, s: geometry.commutator_check(lag, s, _field(lag)),
    "commutator_check_other_field": lambda lag, s: geometry.commutator_check(
        lag, s, _field(_LAGS[1] if lag is _LAGS[0] else _LAGS[0])
    ),
    "detect_berwald": lambda lag, s: berwald.detect_berwald(lag, s.x, s.xdot, count=4, rng=1),
    "obstruction": lambda lag, s: berwald.obstruction(lag, s.x, s.xdot, count=4),
}


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(sorted(_CALLS)), st.integers(0, 1), st.integers(0, 1)),
    min_size=1,
    max_size=8,
))
def test_successive_calls_give_the_bytes_of_a_fresh_context_per_call(calls):
    thunks = [
        lambda c=c, lag=_LAGS[i], s=_SAMPLES[j]: _CALLS[c](lag, s) for c, i, j in calls
    ]
    geometry._last_context = None
    shared = [_outcome_of(thunk) for thunk in thunks]
    assert shared == [_fresh(thunk) for thunk in thunks]


def _counting_orders(monkeypatch) -> list:
    """The order of every `_Eval` built from now on, in build order."""
    orders = []
    init = _Eval.__init__

    def counting_init(self, lag, sample, order, tol_degenerate=geometry.TOL_DEGENERATE):
        orders.append(order)
        init(self, lag, sample, order, tol_degenerate)

    monkeypatch.setattr(_Eval, "__init__", counting_init)
    return orders


@pytest.mark.parametrize("lag, sample", _CATALOG_SAMPLES[::3])
def test_a_context_serves_only_its_own_order(lag, sample, monkeypatch):
    orders = _counting_orders(monkeypatch)
    # after hh_curvature, every reader reads its order-4 context, metric too
    for call in ("metric", "spray", "nonlinear_connection", "chern_rund", "vertical_derivative"):
        geometry._last_context = None
        _CALLS["hh_curvature"](lag, sample)
        thunk = lambda: _CALLS[call](lag, sample)  # noqa: E731
        orders.clear()
        shared = _outcome_of(thunk)
        assert orders == [], call
        assert shared == _fresh(thunk), call
    # and the probe evaluates its sample afresh, at order 4, with a fresh
    # context's bytes
    geometry._last_context = None
    _CALLS["hh_curvature"](lag, sample)
    thunk = lambda: _CALLS["probe_admissibility"](lag, sample)  # noqa: E731
    orders.clear()
    assert _outcome_of(thunk) == _fresh(thunk)
    assert orders == [4, 4]


def test_successive_calls_at_one_sample_build_one_context_per_order(monkeypatch):
    lag, sample = _LAGS[0], _SAMPLES[0]
    orders, scalar_L = _counting_orders(monkeypatch), []
    eval_L_jets = geometry.eval_L_jets

    def counting_L(lag, coord_jets):
        scalar_L.append(lag)
        return eval_L_jets(lag, coord_jets)

    monkeypatch.setattr(geometry, "eval_L_jets", counting_L)
    geometry._last_context = None
    # the public chain of one sample reads one order-4 context, built by the
    # probe; the commutator reads the context's own ln sqrt|det g| and
    # evaluates no L of its own
    assert geometry.probe_admissibility(lag, sample).in_A
    geometry.metric(lag, sample)
    geometry.chern_rund(lag, sample)
    geometry.nonlinear_connection(lag, sample)
    geometry.hh_curvature(lag, sample)
    geometry.commutator_check(lag, sample, _field(lag))
    assert orders == [4]
    assert len(scalar_L) == 1
    # an equal sample of another object is the same key
    geometry.hh_curvature(lag, TangentSample(sample.x.copy(), sample.xdot.copy()))
    assert orders == [4]


def _order_samples(digest_scenes):
    """(lag, sample, degenerate tolerance) of every catalog default sample,
    of five seeded perturbations of each, and of every digest scene's
    samples."""
    rng = np.random.default_rng(24)
    for lag, s in _CATALOG_SAMPLES:
        yield lag, s, geometry.TOL_DEGENERATE
        for _ in range(5):
            x = s.x + 0.05 * max(1.0, np.max(np.abs(s.x))) * rng.uniform(-1, 1, s.dim)
            v = s.xdot + 0.05 * np.max(np.abs(s.xdot)) * rng.uniform(-1, 1, s.dim)
            yield lag, TangentSample(x, v), geometry.TOL_DEGENERATE
    for _, doc in digest_scenes:
        scn = load_scene(doc)
        for _, s in scn.samples:
            yield scn.lagrangian, s, scn.options.tol_degenerate


def test_order_2_and_order_4_contexts_agree_where_the_order_4_L_is_finite(digest_scenes):
    # every reader reads an order-4 context; an order-2 one, the reference
    # of the spray witness, gives the same probe and g bits wherever the
    # order-4 L is finite
    compared = skipped = 0
    for lag, sample, tol in _order_samples(digest_scenes):
        try:
            with np.errstate(all="ignore"):
                ev4 = _Eval(lag, sample, 4, tol).row(0)
        except (DomainError, ExprDomainError, DegenerateMetric):
            ev4 = None
        if ev4 is None or not np.isfinite(ev4.L.coeffs).all():
            skipped += 1
            continue
        ev2 = _Eval(lag, sample, 2, tol).row(0)
        assert _raw(ev2.L.value) == _raw(ev4.L.value)
        for reader in ("g_values", "eigenvalues"):
            assert _outcome_of(lambda: getattr(ev2, reader)) == _outcome_of(
                lambda: getattr(ev4, reader)
            ), reader
        for convention in ("+---", "-+++"):
            assert _raw(ev2.admissibility(convention)) == _raw(ev4.admissibility(convention))
        compared += 1
    assert compared > 100 and skipped > 0


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    return [v for f in dataclasses.fields(value) if isinstance(v := getattr(value, f.name), np.ndarray)]


@pytest.mark.parametrize("call", [
    "metric", "spray", "nonlinear_connection", "chern_rund", "hh_curvature",
    "vertical_derivative", "detect_berwald",
])
def test_mutating_a_returned_array_leaves_later_results_alone(call):
    lag, sample = _LAGS[0], _SAMPLES[0]
    thunk = lambda: _CALLS[call](lag, sample)  # noqa: E731
    geometry._last_context = None
    for a in _arrays(thunk()):
        a[...] = 12345.0
    assert _outcome_of(thunk) == _fresh(thunk)


def test_mutating_the_sample_in_place_leaves_later_results_alone():
    lag, base = _LAGS[0], _SAMPLES[0]
    sample = TangentSample(base.x.copy(), base.xdot.copy())
    geometry._last_context = None
    geometry.hh_curvature(lag, sample)
    sample.x[1] += 0.01
    curvature = lambda: geometry.hh_curvature(lag, sample)  # noqa: E731
    assert _outcome_of(curvature) == _fresh(curvature)
    # the context keeps its own copy of the sample it was built for, so an
    # equal sample still gets that sample's results
    sample = TangentSample(base.x.copy(), base.xdot.copy())
    geometry._last_context = None
    geometry.hh_curvature(lag, sample)
    sample.xdot[1] += 0.01
    commutator = lambda: geometry.commutator_check(lag, base, _field(lag))  # noqa: E731
    assert _outcome_of(commutator) == _fresh(commutator)


def test_mutating_the_params_in_place_leaves_later_results_alone():
    lag = DslLagrangian(2, expr.parse(
        "exp(a*x0)*(dx0^2 - dx1^2) + a*dx0^4/(dx0^2 + dx1^2)", 4, {"a"}, fiber_aliases(2, None),
    ), {"a": 0.3})
    sample = TangentSample([0.1, 0.2], [1.0, 0.3])
    for call in ("metric", "chern_rund", "hh_curvature", "commutator_check"):
        thunk = lambda: _CALLS[call](lag, sample)  # noqa: E731
        geometry._last_context = None
        before = _outcome_of(thunk)
        lag.params["a"] = 0.5
        assert _outcome_of(thunk) == _fresh(thunk) != before
        lag.params["a"] = 0.3
        assert _outcome_of(thunk) == before


def _report_scenes():
    """(name, scene document) of every scene file and catalog entry."""
    for path in sorted((REPO / "scenes").glob("*.json")):
        yield path.name, json.loads(path.read_text(encoding="utf-8"))
    for name in catalog.names():
        yield f"catalog:{name}", {"lagrangian": {"catalog": name}}


@pytest.mark.parametrize("name, doc", list(_report_scenes()))
def test_public_chain_arrays_equal_the_report_arrays(name, doc, tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc), encoding="utf-8")
    cli.main(["report", str(scene), "--out", str(tmp_path / "out")])
    # report.json writes each float to 17 digits, so it reads back exactly;
    # read as an int, a -0 would lose its sign
    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    blocks = json.loads(text, parse_int=float)["samples"]
    scn = load_scene(doc)
    lag = scn.lagrangian
    for (label, sample), block in zip(scn.samples, blocks, strict=True):
        assert block["label"] == label and block["admissibility"]["in_A"]
        curvature = geometry.hh_curvature(lag, sample)
        arrays = {
            "spray": geometry.spray(lag, sample),
            "nonlinear": geometry.nonlinear_connection(lag, sample),
            "chern_rund": geometry.chern_rund(lag, sample),
            "ricci": curvature.ricci,
            "skew_ricci": curvature.skew_ricci,
        }
        for key, array in arrays.items():
            reported = np.array(block[key], dtype=np.float64)
            assert reported.tobytes() == array.tobytes(), (label, key)


# exp(700 x0) at x0 = 1 is finite, but the products that build L's higher
# coefficients leave float range
_NON_FINITE_LAG = DslLagrangian(2, expr.parse(
    "exp(700*x0)*dx0^2 - dx1^2", 4, aliases=fiber_aliases(2, None),
))
_NON_FINITE_SAMPLE = TangentSample([1.0, 0.0], [1.0, 0.2])


@pytest.mark.parametrize("call", [
    "metric", "spray", "nonlinear_connection", "chern_rund", "hh_curvature",
    "vertical_derivative", "commutator_check",
])
def test_every_reader_of_g_at_a_non_finite_L_raises_non_finite(call):
    lag, sample = _NON_FINITE_LAG, _NON_FINITE_SAMPLE
    geometry._last_context = None
    verdict = geometry.probe_admissibility(lag, sample)
    assert not verdict.in_A and verdict.failure_reason == "non-finite"
    for _ in range(2):  # and again from the context that failed
        with pytest.raises(DomainError) as err:
            _CALLS[call](lag, sample)
        assert err.value.reason == "non-finite"


def test_a_field_that_does_not_read_L_has_a_fiber_derivative_at_a_non_finite_L():
    geometry._last_context = None
    field = lambda c: c[0] * c[2]  # noqa: E731  x0 * dx0
    got = geometry.vertical_derivative(_NON_FINITE_LAG, _NON_FINITE_SAMPLE, field)
    assert got.tolist() == [1.0, 0.0]


def ref_partials(j: Jet, variables) -> Jet:
    """`geometry.partials` as a loop over the variables, one `Jet.diff` map
    at a time: the reference for its single gather, scale and scatter."""
    sp = j.space
    rows = j.coeffs.reshape(-1, j.coeffs.shape[-1])
    out = np.zeros((len(variables), len(rows), sp.ncoeff_upto[j.order - 1]))
    for k, var in enumerate(variables):
        src, dst, fac = sp.diff_prefix[var][j.order]
        out[k][:, dst] = rows[:, src] * fac
    return Jet(sp, out.reshape(-1, out.shape[-1]), j.order - 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 4), st.one_of(st.none(), st.integers(1, 6)),
    st.integers(0, 10**6), st.data(),
)
def test_partials_match_the_per_variable_loop(nvars, validity, rows, seed, data):
    rng = np.random.default_rng(seed)
    space = jet_space(nvars, rng.choice([validity, 4]))
    shape = (space.ncoeff_upto[validity],) if rows is None else (rows, space.ncoeff_upto[validity])
    coeffs = rng.uniform(-3.0, 3.0, shape)
    special = rng.random(shape) < rng.choice([0.0, 0.1, 0.5])
    coeffs[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
    j = Jet(space, coeffs, validity)
    variables = data.draw(st.one_of(
        st.permutations(range(nvars)),
        st.lists(st.integers(0, nvars - 1), max_size=2 * nvars),
    ))
    for vs in (variables, tuple(variables)):
        got, want = geometry.partials(j, vs), ref_partials(j, vs)
        assert got.coeffs.ndim == 2 and got.order == want.order
        assert got.coeffs.shape == want.coeffs.shape
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


# -- one block evaluation of many samples ---------------------------------------------


def _report_readers(ev):
    """(name, thunk) for every array a report reads from a sample's context."""
    return [
        ("admissibility", lambda: ev.admissibility()),
        ("metric", ev.metric),
        ("spray", lambda: ev.spray_values),
        ("nonlinear", lambda: ev.nonlinear_values),
        ("chern_rund", lambda: ev.gamma_values),
        ("gamma_x", lambda: ev.gamma_x_derivatives),
        ("gamma_v", lambda: ev.gamma_fiber_derivatives),
        ("cartan_trace", lambda: ev.cartan_trace),
        ("curvature", lambda: ev.curvature),
        ("log_sqrt_det", lambda: ev.log_sqrt_det.coeffs),
        ("commutator", lambda: ev.commutator_residual(ev.log_sqrt_det)),
        ("berwald", lambda: berwald.verdict_at(ev, count=3, rng=0)),
    ]


def _context_outcomes(context):
    """The outcome (`_outcome_of`) of every report reader of the context
    `context()` makes, or, where that raises, what it raised."""
    try:
        with np.errstate(all="ignore"):
            ev = context()
    except Exception as err:
        return (type(err).__name__, str(err))
    return {name: _outcome_of(thunk) for name, thunk in _report_readers(ev)}


def _assert_rows_are_lone_contexts(lag, samples, tol):
    """Each row of the block of `samples` reads as `_Eval` at its sample
    alone, at `tol`; returns the admissibility of each row (None where its
    context raised)."""
    with np.errstate(all="ignore"):
        block = _Eval(lag, samples, 4, tol)
    kinds = []
    for i, sample in enumerate(samples):
        got = _context_outcomes(lambda: block.row(i))
        assert got == _context_outcomes(lambda: _Eval(lag, sample, 4, tol).row(0)), (i, sample)
        kinds.append(None if isinstance(got, tuple) else block.row(i).admissibility())
    return kinds


def _mixed_samples(samples):
    """The samples, each followed by its direction tripled and by its base
    point moved to x0 = 1e308, which takes many a Lagrangian out of float
    range or out of a function's domain."""
    for s in samples:
        yield s
        yield TangentSample(s.x, 3.0 * s.xdot)
        yield TangentSample(np.concatenate([[1e308], s.x[1:]]), s.xdot)


def test_block_rows_are_the_contexts_of_their_samples_alone(digest_scenes):
    seen = set()
    for name, doc in digest_scenes:
        scn = load_scene(doc)
        samples = list(_mixed_samples(s for _, s in scn.samples))
        for tol in {scn.options.tol_degenerate, geometry.TOL_DEGENERATE}:
            for verdict in _assert_rows_are_lone_contexts(scn.lagrangian, samples, tol):
                seen.add("raised" if verdict is None else verdict.failure_reason)
    # rows in A, rows that leave a function's domain, degenerate rows and
    # rows whose order-4 L is not finite all occur
    assert {None, "raised", "degenerate-metric", "non-finite"} <= seen


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([geometry.TOL_DEGENERATE, 0.7, 0.95]))
def test_block_rows_of_random_lagrangians_are_the_contexts_of_their_samples(seed, tol):
    rng = np.random.default_rng(seed)
    lag, sample = _dsl_sample(rng)
    n = lag.dim
    samples = [sample]
    for _ in range(3):  # in A, or degenerate at a coarse tolerance
        samples.append(TangentSample(rng.uniform(-1, 1, n), sample.xdot * rng.uniform(0.5, 2)))
    # exp(...) near float range and past it, where it raises
    for t in (600.0, 1500.0, 4000.0, 12000.0):
        samples.append(TangentSample(np.concatenate([[t], np.zeros(n - 1)]), sample.xdot))
        samples.append(TangentSample(np.concatenate([[-t], np.zeros(n - 1)]), sample.xdot))
    rng.shuffle(samples)
    _assert_rows_are_lone_contexts(lag, samples, tol)


def test_an_array_block_has_the_rows_of_its_samples(entries):
    # the Berwald witness builds its blocks from a (B, 2n) array
    for name, entry in entries.items():
        lag, samples = entry.lagrangian, list(entry.default_samples)
        points = np.array([np.concatenate([s.x, s.xdot]) for s in samples])
        of_array = _Eval(lag, points, 2, geometry.TOL_DEGENERATE)
        of_samples = _Eval(lag, samples, 2, geometry.TOL_DEGENERATE)
        assert len(of_array.samples) == len(samples)
        for i in range(len(samples)):
            a, b = of_array.row(i), of_samples.row(i)
            assert a.signature() == b.signature(), (name, i)
            assert a.g_values.tobytes() == b.g_values.tobytes(), (name, i)
            assert a.spray_values.tobytes() == b.spray_values.tobytes(), (name, i)


def test_a_row_whose_stacked_L_is_not_finite_is_a_row_of_its_block(digest_scenes):
    # the mixed-rows block: a sample whose order-4 L is not finite, one in A
    # and one whose L leaves the domain of ln
    scn = load_scene(dict(digest_scenes)["mixed-rows"])
    ev = _Eval(scn.lagrangian, [s for _, s in scn.samples], 4, scn.options.tol_degenerate)
    rows = [ev.row(0), ev.row(1)]
    assert all(row.block is ev for row in rows)
    order4, inside = (row.admissibility() for row in rows)
    assert (order4.in_A, order4.failure_reason) == (False, "non-finite")
    assert inside.in_A
    # the lone jet's L raises where the stack holds NaN
    with pytest.raises(ExprDomainError) as err:
        ev.row(2)
    assert err.value.reason == "log-domain"


def test_a_sample_of_another_dimension_is_refused(minkowski):
    # n is the Lagrangian's: a sample of 2 or 8 dimensions is not one of it
    for dim in (2, 8):
        sample = TangentSample(np.zeros(dim), np.ones(dim))
        refused = f"a sample of dimension {dim} of a Lagrangian of dimension 4"
        with pytest.raises(ValueError, match=refused):
            geometry.metric(minkowski.lagrangian, sample)
        with pytest.raises(ValueError, match=refused):
            geometry.probe_block(minkowski.lagrangian, [sample, sample])


def test_a_block_of_no_samples_has_no_rows(raising_lagrangians):
    for lag in [_NON_FINITE_LAG, *raising_lagrangians.values()]:
        block = _Eval(lag, [], 4)
        assert block.points.shape == (0, 4)
        assert len(block._finite) == len(block._past) == len(block.g_jets.coeffs) == 0
        evaluation, probes = geometry.probe_block(lag, [])
        assert probes == [] and len(evaluation._past) == 0


@pytest.mark.parametrize("name", ["alpha-zero", "ln-domain"])
def test_a_block_whose_stacked_L_raises_has_no_finite_rows(raising_lagrangians, name):
    lag = raising_lagrangians[name]
    samples = [TangentSample([0.0, 0.0], [1.0, 0.1]), TangentSample([0.3, -0.2], [1.0, -0.4])]
    block = _Eval(lag, samples, 4)
    assert len(block._finite) == len(block._past) == len(block.g_jets.coeffs) == 0
    for i, sample in enumerate(samples):
        # a row is read from its lone evaluation, which raises
        outcome = _context_outcomes(lambda: block.row(i))
        assert isinstance(outcome, tuple)
        assert outcome == _context_outcomes(lambda: _Eval(lag, sample, 4).row(0))
    _, probes = geometry.probe_block(lag, samples)
    assert [(verdict.in_A, ev) for verdict, ev in probes] == [(False, None)] * 2


def test_every_stage_of_a_block_with_no_sample_past_g_is_an_empty_stack(digest_scenes):
    # exp(1000) leaves float range: L is finite at no sample of the block
    scn = load_scene(dict(digest_scenes)["overflow"])
    lag, n = scn.lagrangian, scn.lagrangian.dim
    block = _Eval(lag, [s for _, s in scn.samples], 4)
    assert len(block._finite) == len(block._past) == 0
    for stage in ("g_jets", "g_inv_jets", "spray_jets", "nonlinear_jets", "gamma_jets",
                  "log_sqrt_det", "_log_sqrt_det_delta"):
        jet = getattr(block, stage)
        assert jet.coeffs.shape[0] == 0 and jet.coeffs.dtype == np.float64, stage
    assert block.spray_values.shape == (n, 0)
    assert block.nonlinear_values.shape == (n, n, 0)
    assert block.gamma_values.shape == (n, n, n, 0)
    assert block.gamma_x_derivatives.shape == block.gamma_fiber_derivatives.shape == (n,) * 4 + (0,)
    assert block.curvature == ()
    points = np.array([np.concatenate([s.x, s.xdot]) for _, s in scn.samples])
    in_A, spray = berwald._witness_block(lag, points, geometry.TOL_DEGENERATE)
    assert not in_A.any() and np.isnan(spray).all()


def test_a_rows_g_inverse_is_the_inverse_of_its_values(digest_scenes):
    # every sample past g, alone and in its scene's block: its g^-1 values
    # are the bytes of inverting its g values alone, and a row is in A
    # exactly where the Berwald witness's order-2 block takes it past g
    past = 0
    for name, doc in digest_scenes:
        scn = load_scene(doc)
        lag, tol = scn.lagrangian, scn.options.tol_degenerate
        samples = [s for _, s in scn.samples]
        with np.errstate(all="ignore"):
            for block in [samples] + samples:
                try:
                    ev = _Eval(lag, block, 4, tol)
                except (DomainError, ExprDomainError, DegenerateMetric):
                    continue
                for i in range(len(ev.samples)):
                    try:
                        row = ev.row(i)
                    except (DomainError, ExprDomainError, DegenerateMetric):
                        continue
                    if row._place is None or row._in_past is None:
                        continue
                    past += 1
                    want = np.linalg.inv(row.g_values)
                    assert row.g_inv_values.tobytes() == want.tobytes(), (name, i)
            points = np.array([np.concatenate([s.x, s.xdot]) for s in samples])
            in_A, _ = berwald._witness_block(lag, points, tol)
            order2 = _Eval(lag, samples, 2, tol)
            for i in order2._finite:
                assert in_A[i] == order2.row(i).admissibility().in_A, (name, i)
    assert past >= 70


def test_readers_at_a_scene_tolerance_return_its_report_arrays(
    digest_scenes, tmp_path, monkeypatch
):
    # g = diag(1, -1e-12) is nondegenerate at the near-degenerate scene's
    # tolerance, 1e-14, and not at the default one; a catalog scene at a
    # tolerance of its own is not read from the entry's block, made at the
    # default tolerance, but from an order-4 block the run builds
    scenes = [
        (dict(digest_scenes)["near-degenerate"], 1e-14),
        ({"lagrangian": {"catalog": "bogoslovsky"},
          "options": {"tolerances": {"degenerate": 1e-12}}}, 1e-12),
    ]
    built = []
    init = geometry._Eval.__init__

    def recording_init(self, lag, sample, order, tol_degenerate=geometry.TOL_DEGENERATE):
        built.append((order, tol_degenerate, sample))
        init(self, lag, sample, order, tol_degenerate)

    monkeypatch.setattr(geometry._Eval, "__init__", recording_init)
    for doc, tol in scenes:
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc), encoding="utf-8")
        scn = load_scene(doc)
        built.clear()
        cli.main(["report", str(scene), "--out", str(tmp_path / "out")])
        blocks = [
            sample for order, block_tol, sample in built if order == 4 and block_tol == tol
            and not isinstance(sample, TangentSample)
        ]
        assert len(blocks) == 1 and [s.xdot.tobytes() for s in blocks[0]] == [
            s.xdot.tobytes() for _, s in scn.samples
        ]
        text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        reported = json.loads(text, parse_int=float)["samples"]
        lag = scn.lagrangian
        assert scn.options.tol_degenerate == tol
        field = geometry.log_sqrt_det_metric_field(lag)
        for (_, sample), block in zip(scn.samples, reported, strict=True):
            assert block["admissibility"]["in_A"]
            curvature = geometry.hh_curvature(lag, sample, tol)
            metric = geometry.metric(lag, sample, tol)
            arrays = {
                "spray": geometry.spray(lag, sample, tol),
                "nonlinear": geometry.nonlinear_connection(lag, sample, tol),
                "chern_rund": geometry.chern_rund(lag, sample, tol),
                "ricci": curvature.ricci,
                "skew_ricci": curvature.skew_ricci,
            }
            for key, array in arrays.items():
                assert np.array(block[key], dtype=np.float64).tobytes() == array.tobytes(), key
            assert [metric.det, list(metric.signature)] == [
                block["metric"]["det"], [int(k) for k in block["metric"]["signature"]]
            ]
            commutator = geometry.commutator_check(lag, sample, field, tol)
            assert commutator == block["residuals"]["commutator"]
            assert np.all(np.isfinite(geometry.vertical_derivative(lag, sample, field, tol)))
            if tol == 1e-14:
                # right after the reads at 1e-14, every reader past g
                # refuses the sample at the default tolerance
                for call in ("metric", "spray", "nonlinear_connection", "chern_rund",
                             "hh_curvature"):
                    with pytest.raises(DegenerateMetric):
                        getattr(geometry, call)(lag, sample)
