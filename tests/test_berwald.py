"""Berwald detection, affine Ricci, the obstruction, and non-metricity."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from finslergeo import berwald, catalog, expr, geometry, scene
from finslergeo.berwald import NoAdmissibleDirections, NotBerwald, affine_ricci_from_values
from finslergeo.defs import TangentSample
from finslergeo.expr import ExprDomainError
from finslergeo.geometry import _Eval
from finslergeo.jets import DomainError, seed


@pytest.fixture(scope="module")
def szabo():
    return catalog.get("szabo-counterexample")


def test_pseudo_riemannian_always_berwald(entries, pseudo_riemannian_names):
    for name in pseudo_riemannian_names:
        e = entries[name]
        s = e.default_samples[0]
        v = berwald.detect_berwald(e.lagrangian, s.x, s.xdot)
        assert v.is_berwald
        assert v.max_gamma_deviation < 1e-10
        assert v.directions_tested >= 2


def test_counterexample_is_berwald(szabo):
    s = szabo.default_samples[0]
    v = berwald.detect_berwald(szabo.lagrangian, s.x, s.xdot)
    assert v.is_berwald
    assert v.max_gamma_deviation < 1e-7


def test_condition_violating_beta_is_not_berwald(entries):
    # oracle for the construction: on flat alpha with beta = x du the
    # covariant derivative dx (x) du is not symmetric, while the Berwald
    # condition's right-hand side always is -> the fit residual must be large
    e = entries["nonberwald-flat"]
    from finslergeo import alphabeta

    fit = alphabeta.check_berwald_condition(e.lagrangian, e.default_samples[0].x)
    assert fit.residual > 0.1
    s = e.default_samples[0]
    v = berwald.detect_berwald(e.lagrangian, s.x, s.xdot)
    assert not v.is_berwald
    assert v.max_gamma_deviation > 1e-3
    # each half of the test detects it on its own
    assert v.fiber_derivative_deviation > berwald.TOL_BERWALD
    assert v.spray_deviation > berwald.TOL_BERWALD


def test_direction_sampling_is_reproducible(szabo):
    s = szabo.default_samples[0]
    d1 = berwald.sample_admissible_directions(
        szabo.lagrangian, s.x, s.xdot, rng=np.random.default_rng(42)
    )
    d2 = berwald.sample_admissible_directions(
        szabo.lagrangian, s.x, s.xdot, rng=np.random.default_rng(42)
    )
    assert len(d1) == len(d2) == 16
    for a, b in zip(d1, d2):
        np.testing.assert_array_equal(a, b)


def test_no_admissible_directions():
    # Minkowski restricted by the family domain: beta = dt, p = 0.5 needs
    # alpha(v,v) > 0; a spacelike seed with a tiny spread never recovers
    ent = catalog.get("bogoslovsky")
    x = np.zeros(4)
    bad_seed = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(NoAdmissibleDirections):
        berwald.sample_admissible_directions(
            ent.lagrangian, x, bad_seed, count=8, spread=0.01
        )


# -- the spray witness against one context per candidate ---------------------------


def _digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


_TOOL = _digest_tool()
# The DSL scenes of tools/report_digests.py whose witness draws leave A.
REJECTION_SCENES = {name: scene.load_scene(doc) for name, doc in _TOOL.REJECTION_SCENES.items()}
WITNESS_OVERFLOW = scene.load_scene(_TOOL.WITNESS_OVERFLOW_SCENE)


def _witness_cases():
    for name in catalog.names():
        entry = catalog.get(name)
        for i in range(len(entry.default_samples)):
            yield pytest.param(
                entry.lagrangian, entry.default_samples, i, berwald.DEFAULT_SPREAD, False,
                id=f"{name}-{i}",
            )
    scenes = {**REJECTION_SCENES, "witness-overflow": WITNESS_OVERFLOW}
    for name, scn in scenes.items():
        samples = [s for _, s in scn.samples]
        for i, (label, _) in enumerate(scn.samples):
            rejects = name in REJECTION_SCENES
            yield pytest.param(
                scn.lagrangian, samples, i, scn.options.spread, rejects, id=f"{name}-{label}"
            )


def order2_probe(lag, sample):
    """(in_A, context) of an order-2 `_Eval` built directly: the reference
    of the spray witness's rows.  A sample whose constructor raises (L
    leaves a function's domain) is outside A, with no context."""
    try:
        with np.errstate(all="ignore"):
            ev = _Eval(lag, sample, 2).row(0)
    except (DomainError, ExprDomainError, geometry.DegenerateMetric):
        return False, None
    return ev.admissibility().in_A, ev


def reference_directions(lag, x, seed_direction, count, rng, spread, max_attempts):
    """Draw and probe one candidate at a time, each in its own order-2
    context: the sampler's reference.  Returns (directions, sprays,
    attempts), the seed first when it lies in A."""
    gen = np.random.default_rng(rng)
    scale = spread * max(1.0, float(np.max(np.abs(seed_direction))))
    in_A, ev = order2_probe(lag, TangentSample(x, seed_direction))
    found = [ev] if in_A else []
    attempts = 0
    while len(found) < count and attempts < max_attempts:
        attempts += 1
        cand = seed_direction + scale * gen.uniform(-1.0, 1.0, size=len(x))
        in_A, ev = order2_probe(lag, TangentSample(x, cand))
        if in_A:
            found.append(ev)
    return [e.sample.xdot for e in found], [e.spray_values for e in found], attempts


@pytest.mark.parametrize("lag, samples, index, spread, rejects", list(_witness_cases()))
def test_spray_witness_rows_equal_one_context_per_row(lag, samples, index, spread, rejects):
    # one block holds 17 draws near every sample of the scene, each at its
    # own x; the rows of sample `index` are checked against their contexts
    gen = np.random.default_rng(11)
    points, owners = [], []
    for i, s in enumerate(samples):
        scale = spread * max(1.0, float(np.max(np.abs(s.xdot))))
        draws = s.xdot + scale * gen.uniform(-1.0, 1.0, size=(17, s.dim))
        points += [np.concatenate([s.x, d]) for d in draws]
        owners += [i] * len(draws)
    in_A, spray = berwald._witness_block(lag, np.array(points), geometry.TOL_DEGENERATE)
    x = samples[index].x
    mine = [r for r, i in enumerate(owners) if i == index]
    for r in mine:
        probe_in_A, ev = order2_probe(lag, TangentSample(x, points[r][len(x):]))
        assert in_A[r] == probe_in_A
        if probe_in_A:
            assert spray[r].tobytes() == ev.spray_values.tobytes()  # down to signed zeros
        else:
            assert np.all(np.isnan(spray[r]))
    # the rejection scenes reach the out-of-A rows; the others do not
    assert (not np.all(in_A[mine])) == rejects


@pytest.mark.parametrize("name", sorted(REJECTION_SCENES))
@pytest.mark.parametrize("seed", [0, 3])
def test_sampled_directions_equal_one_at_a_time(name, seed):
    scn = REJECTION_SCENES[name]
    _, s = scn.samples[0]
    spread = scn.options.spread
    want, want_sprays, _ = reference_directions(
        scn.lagrangian, s.x, s.xdot, 16, seed, spread, berwald.MAX_ATTEMPTS
    )
    got = berwald.sample_admissible_directions(
        scn.lagrangian, s.x, s.xdot, rng=seed, spread=spread
    )
    assert len(got) == len(want) == 16
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # verdict_at keeps the order-4 context's own spray for the seed and the
    # sampled sprays for the rest
    ev = geometry.probe_context(scn.lagrangian, s)[1]
    verdict = berwald.verdict_at(ev, rng=seed, spread=spread)
    gamma = ev.gamma_values
    scale = max(1.0, float(np.max(np.abs(gamma))))
    deviation = 0.0
    for d, g_d in zip(want, [ev.spray_values] + want_sprays[1:]):
        quadratic = 0.5 * np.einsum("abc,b,c->a", gamma, d, d)
        d_scale = max(1.0, float(np.max(np.abs(d))))
        deviation = max(deviation, float(np.max(np.abs(g_d - quadratic))) / (scale * d_scale**2))
    assert verdict.directions_tested == 16
    assert verdict.spray_deviation == deviation


def test_a_seed_direction_outside_A_is_refused():
    # g = diag(1, 0) of L = dx0^2 is degenerate at every direction
    doc = {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": "dx0^2"}},
        "samples": [{"x": [0, 0], "xdot": [1, 0.5]}],
    }
    lag = scene.load_scene(doc).lagrangian
    refused = r"the seed direction at x=\[0\. 0\.\] is outside A \(degenerate-metric\)"
    with pytest.raises(NoAdmissibleDirections, match=refused):
        berwald.detect_berwald(lag, np.zeros(2), np.array([1.0, 0.5]))


def test_no_admissible_directions_reports_the_attempts():
    # with this stream the first three draws leave the sqrt's domain
    scn = REJECTION_SCENES["sqrt-domain"]
    _, s = scn.samples[0]
    spread = scn.options.spread
    for max_attempts in (1, 2, 3):
        want, _, attempts = reference_directions(
            scn.lagrangian, s.x, s.xdot, 16, 7, spread, max_attempts
        )
        assert len(want) < 2 and attempts == max_attempts
        with pytest.raises(NoAdmissibleDirections) as err:
            berwald.sample_admissible_directions(
                scn.lagrangian, s.x, s.xdot, rng=7, spread=spread, max_attempts=max_attempts
            )
        assert str(err.value) == (
            f"found {len(want)} admissible directions at x={s.x} after {attempts} attempts"
        )


def _counting_evals(monkeypatch) -> list:
    """(order, sample argument) of every `_Eval` built from now on."""
    built = []
    init = _Eval.__init__

    def counting(self, lag, sample, order, tol_degenerate=geometry.TOL_DEGENERATE):
        built.append((order, sample))
        init(self, lag, sample, order, tol_degenerate)

    monkeypatch.setattr(_Eval, "__init__", counting)
    return built


def _counting_rounds(monkeypatch) -> list:
    """The points of every witness round from now on."""
    rounds = []
    block = berwald._witness_block

    def counting(lag, points, tol_degenerate):
        rounds.append(points)
        return block(lag, points, tol_degenerate)

    monkeypatch.setattr(berwald, "_witness_block", counting)
    return rounds


def test_the_witness_evaluates_one_block_per_round_and_no_row_alone(monkeypatch):
    # two base points of a rejection scene: each round's draws, at both
    # base points, are one order-2 block, and no draw is evaluated alone
    doc = _TOOL.REJECTION_SCENES["sqrt-domain"]
    second = {"x": [0.2, -0.1, 0.4], "xdot": [1.0, 0.5, 0.4], "label": "p1"}
    scn = scene.load_scene({**doc, "samples": doc["samples"] + [second]})
    built, rounds = _counting_evals(monkeypatch), _counting_rounds(monkeypatch)
    report, _ = scene.run_scene(scn, "berwald")
    entries = report["geometry"]["berwald"]["per_base_point"]
    assert [e["directions_tested"] for e in entries] == [16, 16]
    witness = [sample for order, sample in built if order == 2]
    assert len(rounds) > 1 and len(witness) == len(rounds)
    assert all(isinstance(sample, np.ndarray) for sample in witness)
    assert [len(points) for points in witness] == [len(points) for points in rounds]
    # the first round holds 15 draws at each base point
    assert np.array_equal(rounds[0][:, :3], np.repeat([s.x for _, s in scn.samples], 15, axis=0))


def test_a_block_whose_every_L_is_not_finite_evaluates_no_row_alone(monkeypatch):
    # exp(1000) leaves float range at every draw: every round is one block,
    # outside A as a whole, and no row is evaluated on its own
    lag = scene.load_scene(_TOOL.ERROR_SCENES["overflow"]).lagrangian
    x, xdot = np.array([1.0, 0.0]), np.array([1.0, 0.2])
    built, rounds = _counting_evals(monkeypatch), _counting_rounds(monkeypatch)
    in_A, spray = berwald._witness_block(lag, np.array([[*x, *xdot], [*x, 0.5, 1.0]]), 1e-10)
    assert not in_A.any() and np.isnan(spray).all()
    rounds.clear()
    built.clear()
    with pytest.raises(NoAdmissibleDirections, match="found 0 admissible directions"):
        berwald.sample_admissible_directions(lag, x, xdot, rng=0)
    # the seed's block, then 12 rounds of 16 draws and one of 8
    assert [len(points) for points in rounds] == [1] + [16] * 12 + [8]
    assert [order for order, _ in built] == [2] * len(rounds)
    assert all(isinstance(sample, np.ndarray) for _, sample in built)


def test_a_one_draw_round_reads_the_bits_of_that_draw_alone(monkeypatch, szabo):
    # with the seed in A and two directions asked for, each round draws one
    # direction: a block of one row, whose spray is that draw's own
    s = szabo.default_samples[0]
    seed_in_A, seed_ev = order2_probe(szabo.lagrangian, s)
    assert seed_in_A
    built = _counting_evals(monkeypatch)
    base = (s.x, s.xdot, seed_ev.spray_values, np.random.default_rng(5))
    (directions, sprays), = berwald._witnesses(szabo.lagrangian, [base], 2, 0.25)
    assert len(directions) == 2 and built
    assert all(sample.shape == (1, 8) for _, sample in built)
    in_A, ev = order2_probe(szabo.lagrangian, TangentSample(s.x, directions[1]))
    assert in_A and sprays[1].tobytes() == ev.spray_values.tobytes()


@pytest.mark.parametrize("name", ["alpha-zero", "ln-domain"])
def test_a_lagrangian_whose_stacked_L_raises_has_no_admissible_directions(
    raising_lagrangians, name
):
    lag = raising_lagrangians[name]
    with pytest.raises(NoAdmissibleDirections, match="found 0 admissible directions"):
        berwald.sample_admissible_directions(lag, [0.0, 0.0], [1.0, 0.1], rng=0)


def test_a_zero_seed_direction_is_not_sampled_around(szabo):
    # outside the slit tangent bundle, as a TangentSample with it would be
    s = szabo.default_samples[0]
    with pytest.raises(ValueError, match="zero vector"):
        berwald.sample_admissible_directions(szabo.lagrangian, s.x, np.zeros(4), rng=0)


@pytest.mark.parametrize("count", [0, 1])
def test_fewer_than_two_directions_are_refused_before_any_evaluation(monkeypatch, szabo, count):
    s = szabo.default_samples[0]
    lag = szabo.lagrangian
    ev = geometry.probe_context(lag, s)[1]
    built = _counting_evals(monkeypatch)
    calls = [
        lambda: berwald.sample_admissible_directions(lag, s.x, s.xdot, count, rng=0),
        lambda: berwald.detect_berwald(lag, s.x, s.xdot, count, rng=0),
        lambda: berwald.obstruction(lag, s.x, s.xdot, count),
        lambda: berwald.verdict_at(ev, count, rng=0),
        lambda: berwald.verdicts_at([ev], [0], count),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"need at least 2 directions, got {count}"):
            call()
    assert built == []


# -- affine Ricci -----------------------------------------------------------------


def test_ricci_affine_zero_connection():
    n = 3
    ric = affine_ricci_from_values(np.zeros((n, n, n)), np.zeros((n, n, n, n)))
    assert np.max(np.abs(ric)) == 0.0


def test_ricci_affine_of_christoffels_phi_constant_is_symmetric():
    # phi constant kills dH: the family connection reduces data to alpha's
    # Christoffel symbols, whose Ricci tensor is symmetric
    ent = catalog.get("szabo-counterexample", {"phi": "2.5"})
    x = np.array([0.0, 1.0, 0.5, 0.3])
    ric = affine_ricci_from_values(*geometry.christoffel_gradient(ent.lagrangian.alpha, x))
    assert np.max(np.abs(ric - ric.T)) < 1e-10


def test_ricci_affine_matches_fd_oracle(szabo):
    # oracle: independent finite differences of the Christoffel field
    from finslergeo.oracle import fd_partial

    alpha = szabo.lagrangian.alpha
    x = np.array([0.0, 1.0, 0.5, 0.3])
    n = 4
    gamma = geometry.christoffel_values(alpha, x)
    dgamma = np.empty((n, n, n, n))
    for m in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    dgamma[m, a, b, c] = fd_partial(
                        lambda p, a=a, b=b, c=c: geometry.christoffel_values(alpha, p)[a, b, c],
                        x,
                        [m],
                    )
    expected = berwald.affine_ricci_from_values(gamma, dgamma)
    got = affine_ricci_from_values(*geometry.christoffel_gradient(alpha, x))
    np.testing.assert_allclose(got, expected, atol=1e-6)


def test_two_ricci_routes_agree_on_berwald(entries, szabo):
    # hh-curvature Ricci at any admissible direction == affine Ricci of the
    # extracted connection
    for name in ("conformally-flat", "schwarzschild"):
        e = entries[name]
        s = e.default_samples[0]
        hh = geometry.hh_curvature(e.lagrangian, s).ricci
        aff = berwald.obstruction(e.lagrangian, s.x, s.xdot).ricci
        assert np.max(np.abs(hh - aff)) < 1e-6
    s = szabo.default_samples[0]
    hh = geometry.hh_curvature(szabo.lagrangian, s).ricci
    aff = berwald.obstruction(szabo.lagrangian, s.x, s.xdot).ricci
    assert np.max(np.abs(hh - aff)) < 1e-6


# -- obstruction -----------------------------------------------------------------


def test_obstruction_smooth_case(entries, pseudo_riemannian_names):
    for name in pseudo_riemannian_names:
        e = entries[name]
        s = e.default_samples[0]
        rep = berwald.obstruction(e.lagrangian, s.x, s.xdot)
        assert rep.skew_max_abs < 1e-9
        assert rep.metrizability_necessary_condition_met


def test_obstruction_counterexample_phi_x(szabo):
    s = szabo.default_samples[0]
    rep = berwald.obstruction(szabo.lagrangian, s.x, s.xdot)
    # |(1/2)(R_ux - R_xu)| = |p/(p-1)| * |d_x phi| = 2 for p=2, phi=x
    assert abs(rep.skew[0, 2]) == pytest.approx(2.0, abs=1e-5)
    assert not rep.metrizability_necessary_condition_met
    assert rep.phi_constancy_residual < 1e-6
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 2] = mask[2, 0] = False
    assert np.max(np.abs(rep.skew[mask])) < 1e-7


def test_obstruction_counterexample_phi_y():
    ent = catalog.get("szabo-counterexample", {"phi": "y"})
    s = ent.default_samples[0]
    rep = berwald.obstruction(ent.lagrangian, s.x, s.xdot)
    assert abs(rep.skew[0, 3]) == pytest.approx(2.0, abs=1e-5)
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 3] = mask[3, 0] = False
    assert np.max(np.abs(rep.skew[mask])) < 1e-7


def test_obstruction_requires_berwald(entries):
    e = entries["nonberwald-flat"]
    s = e.default_samples[0]
    with pytest.raises(NotBerwald):
        berwald.obstruction(e.lagrangian, s.x, s.xdot)


def test_phi_constancy_across_eight_directions(szabo):
    # the curvature-route skew is direction-independent on Berwald samples
    s = szabo.default_samples[0]
    lag = szabo.lagrangian
    dirs = berwald.sample_admissible_directions(
        lag, s.x, s.xdot, count=8, rng=np.random.default_rng(3)
    )
    values = []
    for d in dirs:
        ev = _Eval(lag, TangentSample(s.x, d), 4).row(0)
        values.append(
            geometry.ricci_skew_from_curvature(
                ev.curvature.hh_riemann, d, ev.cartan_trace
            )
        )
    spread = max(np.max(np.abs(v - values[0])) for v in values[1:])
    assert spread < 1e-6


# -- non-metricity -----------------------------------------------------------------


def test_nonmetricity_zero_for_levi_civita(szabo):
    alpha = szabo.lagrangian.alpha
    x = szabo.default_samples[0].x
    gamma = geometry.christoffel_values(alpha, x)
    rep = berwald.nonmetricity(gamma, alpha, x)
    assert rep.Q_norm < 1e-12
    assert np.max(np.abs(rep.D)) < 1e-12


def test_nonmetricity_counterexample_nonzero(szabo):
    # H != 0 contributes D != 0, so alpha cannot metrize the connection;
    # derived value: direct evaluation gives |Q| of order |phi| here
    s = szabo.default_samples[0]
    v = berwald.detect_berwald(szabo.lagrangian, s.x, s.xdot)
    rep = berwald.nonmetricity(v.affine_connection, szabo.lagrangian.alpha, s.x)
    assert rep.Q_norm > 0.1


def test_nonmetricity_p0_family_vanishes():
    # p=0, m=0, c=1 family is the pseudo-Riemannian alpha itself
    ent = catalog.get("bogoslovsky", {"p": 0.0})
    s = ent.default_samples[0]
    v = berwald.detect_berwald(ent.lagrangian, s.x, s.xdot)
    rep = berwald.nonmetricity(v.affine_connection, ent.lagrangian.alpha, s.x)
    assert rep.Q_norm < 1e-10


def test_nonmetricity_matches_direct_covariant_derivative(szabo):
    # reconstruct nabla_a g_bc = d_a g_bc - Gamma^s_ab g_sc - Gamma^s_ac g_bs
    # from jets of the reference metric and compare with the D-route
    s = szabo.default_samples[0]
    x = s.x
    alpha = szabo.lagrangian.alpha
    verdict = berwald.detect_berwald(szabo.lagrangian, s.x, s.xdot)
    gamma = verdict.affine_connection
    rep = berwald.nonmetricity(gamma, alpha, x)
    n = 4
    xj = seed(list(x), range(n), 1)
    gj = geometry.eval_metric_exprs(alpha, xj)
    dg = np.empty((n, n, n))
    gv = np.empty((n, n))
    for b in range(n):
        for c in range(n):
            gv[b, c] = gj[b, c].value if hasattr(gj[b, c], "value") else float(gj[b, c])
            for a in range(n):
                dg[a, b, c] = (
                    gj[b, c].first(a) if hasattr(gj[b, c], "first") else 0.0
                )
    direct = (
        dg
        - np.einsum("sab,sc->abc", gamma, gv)
        - np.einsum("sac,bs->abc", gamma, gv)
    )
    np.testing.assert_allclose(rep.Q, direct, atol=1e-8)


def test_nonmetricity_rejects_degenerate_reference(szabo):
    degenerate = tuple(
        tuple(expr.parse("0", 4) for _ in range(4)) for _ in range(4)
    )
    with pytest.raises(Exception):
        berwald.nonmetricity(
            np.zeros((4, 4, 4)), degenerate, szabo.default_samples[0].x
        )


def test_schwarzschild_vacuum_via_gr_fd_oracle(entries):
    # standard GR oracle: affine Ricci from finite differences of the
    # Christoffel symbols of the metric coefficient matrix; the vacuum
    # solution must give zero, and so must the Finsler pipeline
    from finslergeo.oracle import fd_partial

    aliases = {"t": 0, "r": 1, "th": 2, "ph": 3}
    rows = [
        ["(1 - 2*M/r)", "0", "0", "0"],
        ["0", "-1/(1 - 2*M/r)", "0", "0"],
        ["0", "0", "-r^2", "0"],
        ["0", "0", "0", "-r^2*sin(th)^2"],
    ]
    gexprs = [[expr.parse(src, 4, {"M"}, aliases) for src in row] for row in rows]
    params = {"M": 1.0}
    x = entries["schwarzschild"].default_samples[0].x
    n = 4
    gamma = geometry.christoffel_values(gexprs, x, params)
    dgamma = np.empty((n, n, n, n))
    for m in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    dgamma[m, a, b, c] = fd_partial(
                        lambda p, a=a, b=b, c=c: geometry.christoffel_values(
                            gexprs, p, params
                        )[a, b, c],
                        x,
                        [m],
                    )
    ricci_fd = berwald.affine_ricci_from_values(gamma, dgamma)
    assert np.max(np.abs(ricci_fd)) < 1e-6
    e = entries["schwarzschild"]
    pipeline = geometry.hh_curvature(e.lagrangian, e.default_samples[0]).ricci
    assert np.max(np.abs(pipeline)) < 1e-6
