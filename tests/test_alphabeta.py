"""Closed forms of the (alpha, beta) family against the generic pipeline."""

import numpy as np
import pytest

from finslergeo import alphabeta, berwald, catalog, expr, geometry
from finslergeo.defs import FamilyInstance, TangentSample
from finslergeo.geometry import DegenerateMetric


def _minkowski_family(beta_srcs, c, m, p, aliases=None):
    dim = 4
    rows = [
        ["1" if a == b == 0 else ("-1" if a == b else "0") for b in range(dim)]
        for a in range(dim)
    ]
    alpha = tuple(
        tuple(expr.parse(src, dim, aliases=aliases) for src in row) for row in rows
    )
    beta = tuple(expr.parse(src, dim, aliases=aliases) for src in beta_srcs)
    return FamilyInstance(dim, alpha, beta, c=c, m=m, p=p)


@pytest.fixture(scope="module")
def szabo():
    return catalog.get("szabo-counterexample")


# -- Berwald condition fit -------------------------------------------------------


def test_covariantly_constant_beta_gives_zero_residual_zero_h():
    inst = _minkowski_family(["1", "0", "0", "0"], c=1.0, m=0.0, p=0.5)
    fit = alphabeta.check_berwald_condition(inst, np.zeros(4))
    assert fit.residual == pytest.approx(0.0, abs=1e-15)
    assert fit.h == pytest.approx(0.0, abs=1e-15)


def test_counterexample_fit_matches_h_magnitude(szabo):
    inst = szabo.lagrangian
    for s in szabo.default_samples:
        fit = alphabeta.check_berwald_condition(inst, s.x)
        assert fit.residual < 1e-9
        phi = s.x[2]  # phi = x, chart (u, v, x, y)
        assert abs(fit.h) == pytest.approx(abs(phi / (2 * 1.0 * (2.0 - 1.0))), abs=1e-8)


def test_counterexample_fit_various_parameters():
    for c, p in [(1.0, 2.0), (2.0, 3.0), (1.0, -0.5), (2.0, 0.5)]:
        ent = catalog.get("szabo-counterexample", {"c": c, "p": p})
        x = ent.default_samples[0].x
        fit = alphabeta.check_berwald_condition(ent.lagrangian, x)
        assert fit.residual < 1e-9
        assert abs(fit.h) == pytest.approx(
            abs(x[2] / (2 * c * (p - 1.0))), abs=1e-8
        )


def test_generic_beta_violates_condition():
    # beta = x0 dx0 on Euclidean-signature alpha: nabla beta = dx0 (x) dx0,
    # not of the condition's form for generic parameters (derived check: the
    # fit leaves an order-one residual)
    dim = 2
    alpha = tuple(
        tuple(expr.parse("1" if a == b else "0", dim) for b in range(dim))
        for a in range(dim)
    )
    beta = tuple(expr.parse(src, dim) for src in ["x0", "0"])
    inst = FamilyInstance(dim, alpha, beta, c=1.0, m=0.5, p=2.0)
    fit = alphabeta.check_berwald_condition(inst, np.array([1.3, 0.4]))
    assert fit.residual > 0.05


def test_fitted_h_expression_consistency(szabo):
    # the stored H expression agrees with the pointwise fit (sign included)
    inst = szabo.lagrangian
    x = szabo.default_samples[0].x
    fit = alphabeta.check_berwald_condition(inst, x)
    h_expr_val, dh = alphabeta.FamilyEval(inst, x).h_gradient
    assert h_expr_val == pytest.approx(fit.h, abs=1e-12)
    # phi = x: dH/dx = 1/(2c(1-p)) = -1/2, other components zero
    np.testing.assert_allclose(dh, [0.0, 0.0, -0.5, 0.0], atol=1e-12)


def test_fitted_h_gradient_without_expression(szabo):
    # drop the stored expression: dH must come from the jet-valued fit
    inst = szabo.lagrangian
    bare = FamilyInstance(
        inst.dim, inst.alpha, inst.beta, inst.c, inst.m, inst.p, h_expr=None
    )
    x = szabo.default_samples[0].x
    h_fit, dh_fit = alphabeta.FamilyEval(bare, x).h_gradient
    h_expr, dh_expr = alphabeta.FamilyEval(inst, x).h_gradient
    assert h_fit == pytest.approx(h_expr, abs=1e-10)
    np.testing.assert_allclose(dh_fit, dh_expr, atol=1e-9)


def test_one_evaluation_inverts_alpha_once(monkeypatch, szabo):
    # every closed form at a base point reads one evaluation of alpha
    inst = szabo.lagrangian
    bare = FamilyInstance(
        inst.dim, inst.alpha, inst.beta, inst.c, inst.m, inst.p, h_expr=None
    )
    calls = []
    invert = geometry.invert_jet_matrix

    def counting(g):
        calls.append(g)
        return invert(g)

    monkeypatch.setattr(geometry, "invert_jet_matrix", counting)
    fam = alphabeta.FamilyEval(bare, szabo.default_samples[0].x)
    fam.fit, fam.h_gradient, fam.ricci, fam.causal, fam.connection()
    assert fam.nonmetrizable()
    assert len(calls) == 1


# -- closed forms vs the pipeline ---------------------------------------------------


def test_h_zero_reduces_to_christoffel_spray():
    inst = _minkowski_family(["1", "0", "0", "0"], c=1.0, m=0.0, p=0.5)
    s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0.1, -0.3])
    fam = alphabeta.FamilyEval(inst, s.x)
    np.testing.assert_allclose(fam.spray(s.xdot), np.zeros(4), atol=1e-14)
    np.testing.assert_allclose(fam.connection(), np.zeros((4, 4, 4)), atol=1e-14)


def test_closed_form_spray_matches_pipeline(szabo):
    for s in szabo.default_samples:
        cf = alphabeta.FamilyEval(szabo.lagrangian, s.x).spray(s.xdot)
        pipe = geometry.spray(szabo.lagrangian, s)
        assert np.max(np.abs(cf - pipe)) < 1e-8 * max(1.0, np.max(np.abs(pipe)))


def test_closed_form_connection_matches_pipeline(szabo):
    for s in szabo.default_samples:
        cf = alphabeta.FamilyEval(szabo.lagrangian, s.x).connection()
        pipe = geometry.chern_rund(szabo.lagrangian, s)
        assert np.max(np.abs(cf - pipe)) < 1e-8 * max(1.0, np.max(np.abs(pipe)))


def test_closed_form_connection_matches_extracted_affine(szabo):
    s = szabo.default_samples[0]
    verdict = berwald.detect_berwald(szabo.lagrangian, s.x, s.xdot)
    cf = alphabeta.FamilyEval(szabo.lagrangian, s.x).connection()
    assert np.max(np.abs(cf - verdict.affine_connection)) < 1e-7


def test_closed_form_nonlinear_connection_is_fiber_derivative_of_spray(szabo):
    # derived: the closed-form nonlinear connection is the contraction of the
    # x-only connection with xdot
    s = szabo.default_samples[0]
    gamma = alphabeta.FamilyEval(szabo.lagrangian, s.x).connection()
    closed_N = np.einsum("abc,c->ab", gamma, s.xdot)
    pipe_N = geometry.nonlinear_connection(szabo.lagrangian, s)
    assert np.max(np.abs(closed_N - pipe_N)) < 1e-8


def test_closed_form_ricci_matches_affine_route(szabo):
    s = szabo.default_samples[0]
    rep = berwald.obstruction(szabo.lagrangian, s.x, s.xdot)
    cf = alphabeta.closed_form_ricci(szabo.lagrangian, s.x)
    assert np.max(np.abs(cf.ricci - rep.ricci)) < 1e-6
    assert np.max(np.abs(cf.skew - rep.skew)) < 1e-6


def test_skew_formula_is_antisymmetrization_of_ricci_formula(szabo):
    # pure algebra: the displayed skew equals the antisymmetrized closed Ricci
    for ov in ({}, {"m": 1.0}, {"c": 2.0, "p": 3.0}, {"m": -1.0, "phi": "x + 2*y"}):
        ent = catalog.get("szabo-counterexample", {**ov})
        x = ent.default_samples[0].x
        cf = alphabeta.closed_form_ricci(ent.lagrangian, x)
        np.testing.assert_allclose(cf.skew, 0.5 * (cf.ricci - cf.ricci.T), atol=1e-9)


def test_dh_zero_gives_symmetric_ricci():
    ent = catalog.get("szabo-counterexample", {"phi": "2.5"})
    x = ent.default_samples[0].x
    cf = alphabeta.closed_form_ricci(ent.lagrangian, x)
    assert np.max(np.abs(cf.skew)) < 1e-12
    assert not alphabeta.proposition_nonmetrizable(ent.lagrangian, x)


def test_counterexample_null_beta_f_scalar(szabo):
    # beta = du is null for the light-cone alpha, so f = 2cp
    x = szabo.default_samples[0].x
    cf = alphabeta.closed_form_ricci(szabo.lagrangian, x)
    assert cf.f_scalar == pytest.approx(2 * 1.0 * 2.0, abs=1e-12)
    assert alphabeta.proposition_nonmetrizable(szabo.lagrangian, x)


def test_proposition_fires_exactly_when_f_and_wedge_nonzero(szabo):
    x = szabo.default_samples[0].x
    # f = 0: p = 0 with m = 0 makes f = 0 even though dH may not vanish
    ent0 = catalog.get("szabo-counterexample", {"p": -0.5, "m": 0.0})
    # engineered: f = (1/2)(4cp - m a1); with null beta a1 = 0, so p=0 kills f
    inst = ent0.lagrangian
    cf = alphabeta.closed_form_ricci(inst, x)
    wedge = alphabeta.beta_wedge_dh(inst, x)
    fires = alphabeta.proposition_nonmetrizable(inst, x)
    assert fires == (abs(cf.f_scalar) > 1e-9 and np.max(np.abs(wedge)) > 1e-9)


# -- causal classification ------------------------------------------------------------


def test_causal_minkowski_beta_dt():
    # det zeta = c^3 det(alpha) (c + m a1) = 1 * (-1) * 1 = -1 < 0: viable
    inst = _minkowski_family(["1", "0", "0", "0"], c=1.0, m=0.0, p=0.5)
    s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0, 0])
    cc = alphabeta.classify_causal(inst, s)
    assert cc.det_zeta == pytest.approx(-1.0, abs=1e-12)
    assert cc.p_case == "p_gt_0"
    assert cc.viable
    assert cc.zeta_signature == (1, 3, 0)


def test_causal_p_below_minus_one_never_viable():
    for p in (-2.0, -1.5, -10.0):
        inst = _minkowski_family(["1", "0", "0", "0"], c=1.0, m=0.0, p=p)
        s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0, 0])
        cc = alphabeta.classify_causal(inst, s)
        assert cc.p_case == "p_lt_m1"
        assert not cc.viable


def test_causal_unit_timelike_beta_m_minus_two():
    # c=1, m=-2, beta unit-timelike: det zeta = (-1)(1 - 2) = 1 > 0: not viable
    inst = _minkowski_family(["1", "0", "0", "0"], c=1.0, m=-2.0, p=0.5)
    s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0, 0])
    cc = alphabeta.classify_causal(inst, s)
    assert cc.det_zeta == pytest.approx(1.0, abs=1e-12)
    assert not cc.viable
    assert cc.zeta_signature == (0, 4, 0)


def test_causal_determinant_formula(szabo):
    # det zeta == c^(n-1) det(alpha) (c + m a1) evaluated by substitution
    for ov in ({}, {"m": 1.0}, {"c": 2.0}, {"m": -1.0, "c": 2.0}):
        ent = catalog.get("szabo-counterexample", {**ov})
        inst = ent.lagrangian
        s = ent.default_samples[0]
        fam = alphabeta.FamilyEval(inst, s.x)
        alpha, a1 = fam.alpha, fam.a1
        expected = inst.c ** 3 * np.linalg.det(alpha) * (inst.c + inst.m * a1)
        cc = alphabeta.classify_causal(inst, s)
        assert cc.det_zeta == pytest.approx(expected, rel=1e-12)


def test_causal_p_case_boundaries():
    for p, case in [(0.5, "p_gt_0"), (-0.5, "p_between"), (0.0, "boundary"), (-1.0, "boundary")]:
        inst = _minkowski_family(["1", "0", "0", "0"], c=1.0, m=0.0, p=p)
        s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0, 0])
        assert alphabeta.classify_causal(inst, s).p_case == case


def test_degenerate_alpha_rejected():
    dim = 2
    alpha = tuple(tuple(expr.parse("0", dim) for _ in range(dim)) for _ in range(dim))
    beta = tuple(expr.parse(src, dim) for src in ["1", "0"])
    inst = FamilyInstance(dim, alpha, beta, c=1.0, m=0.0, p=2.0)
    with pytest.raises(DegenerateMetric):
        alphabeta.FamilyEval(inst, np.zeros(2)).connection()


# -- family instance invariants ------------------------------------------------------


def test_family_requires_symmetric_alpha():
    dim = 2
    a01 = expr.parse("x0", dim)
    a10 = expr.parse("x1", dim)
    rows = ((expr.parse("1", dim), a01), (a10, expr.parse("1", dim)))
    with pytest.raises(ValueError):
        FamilyInstance(dim, rows, (expr.parse("1", dim), expr.parse("0", dim)), 1.0, 0.0, 2.0)


def test_family_requires_finite_parameters():
    dim = 2
    alpha = tuple(
        tuple(expr.parse("1" if a == b else "0", dim) for b in range(dim))
        for a in range(dim)
    )
    beta = tuple(expr.parse(s, dim) for s in ["1", "0"])
    with pytest.raises(ValueError):
        FamilyInstance(dim, alpha, beta, c=float("nan"), m=0.0, p=1.0)


def test_p_zero_closed_form_spray_is_alpha_spray():
    # p = 0, m = 0: the connection reduces to alpha's Christoffel symbols
    # (scaling alpha by c does not change its Levi-Civita connection)
    ent = catalog.get("szabo-counterexample", {"p": 2.0})
    inst0 = FamilyInstance(
        4, ent.lagrangian.alpha, ent.lagrangian.beta, c=2.0, m=0.0, p=0.0
    )
    s = ent.default_samples[0]
    gamma_alpha = geometry.christoffel_values(inst0.alpha, s.x)
    expected = 0.5 * np.einsum("abc,b,c->a", gamma_alpha, s.xdot, s.xdot)
    got = alphabeta.FamilyEval(inst0, s.x).spray(s.xdot, h=0.7)  # any H: the bracket is 0
    np.testing.assert_allclose(got, expected, atol=1e-12)
    pipe = geometry.spray(inst0, s)
    np.testing.assert_allclose(pipe, expected, atol=1e-10)


def _radial_flat_instance(c, m, p, C):
    # exact solution of the Berwald condition on flat 2D alpha with a radial
    # gradient one-form: z(u) = c*C*u^(1/p)/(1 - 2*m*C*u^(1/p)), u = |x|^2/2,
    # beta = sqrt(z/u) x, H = 1/(2 c p u sqrt(z/u)); exercises the m-terms of
    # the closed-form bracket with alpha^{-1}(beta,beta) = 2z != 0
    dim = 2
    U = "(0.5*(x0^2 + x1^2))"
    R = f"{U}^{1.0 / p!r}"
    Z = f"({c * C!r}*{R}/(1 - {2 * m * C!r}*{R}))"
    W = f"({Z}/{U})^0.5"
    alpha = tuple(
        tuple(expr.parse("1" if a == b else "0", dim) for b in range(dim))
        for a in range(dim)
    )
    beta = tuple(expr.parse(f"x{a}*{W}", dim) for a in range(dim))
    h_expr = expr.parse(f"1/({2 * c * p!r}*{U}*{W})", dim)
    return FamilyInstance(dim, alpha, beta, c=c, m=m, p=p, h_expr=h_expr)


def test_radial_instance_with_m_nonzero_matches_pipeline():
    inst = _radial_flat_instance(c=1.0, m=0.3, p=2.0, C=0.4)
    x = np.array([1.2, 0.7])
    fit = alphabeta.check_berwald_condition(inst, x)
    assert fit.residual < 1e-12
    h_val, _ = alphabeta.FamilyEval(inst, x).h_gradient
    assert fit.h == pytest.approx(h_val, abs=1e-12)
    seed_dir = x / np.linalg.norm(x)
    verdict = berwald.detect_berwald(inst, x, seed_dir, spread=0.2)
    assert verdict.is_berwald and verdict.max_gamma_deviation < 1e-10
    s = TangentSample(x, seed_dir)
    gam_cf = alphabeta.FamilyEval(inst, x).connection()
    np.testing.assert_allclose(gam_cf, geometry.chern_rund(inst, s), atol=1e-10)
    np.testing.assert_allclose(
        alphabeta.FamilyEval(inst, s.x).spray(s.xdot), geometry.spray(inst, s), atol=1e-10
    )
    # three independent Ricci routes agree the connection is flat here:
    # jet hh-curvature, the extracted affine route, and finite differences
    # of the (verified) closed-form connection field
    ev_ricci = geometry.hh_curvature(inst, s).ricci
    aff = berwald.obstruction(inst, x, seed_dir, spread=0.2).ricci
    step = 1e-6
    dgam = np.zeros((2, 2, 2, 2))
    for mu in range(2):
        xp = x.copy()
        xp[mu] += step
        xm = x.copy()
        xm[mu] -= step
        dgam[mu] = (
            alphabeta.FamilyEval(inst, xp).connection()
            - alphabeta.FamilyEval(inst, xm).connection()
        ) / (2 * step)
    fd = berwald.affine_ricci_from_values(gam_cf, dgam)
    assert np.max(np.abs(ev_ricci)) < 1e-9
    assert np.max(np.abs(aff)) < 1e-9
    assert np.max(np.abs(fd)) < 1e-6


def test_closed_form_ricci_null_beta_all_parameters():
    # the closed Ricci formula is exact on the null-beta class for any c, m, p
    for ov in ({"m": 1.0}, {"m": -1.0, "c": 2.0}, {"c": 2.0, "p": 3.0, "m": 1.0}):
        ent = catalog.get("szabo-counterexample", ov)
        s = ent.default_samples[0]
        rep = berwald.obstruction(ent.lagrangian, s.x, s.xdot)
        cf = alphabeta.closed_form_ricci(ent.lagrangian, s.x)
        assert np.max(np.abs(cf.ricci - rep.ricci)) < 1e-9
        assert np.max(np.abs(cf.skew - rep.skew)) < 1e-9
