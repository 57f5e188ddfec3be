"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is part of the package's contract.
"""

import json
import time

import numpy as np
import pytest

from finslergeo import alphabeta, berwald, catalog, cli, expr, geometry
from finslergeo.defs import FamilyInstance, TangentSample
from finslergeo.geometry import _Eval
from finslergeo.jets import extract_partial
from finslergeo.oracle import fd_partial


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# -- 1. counterexample reproduction ---------------------------------------------------


def test_criterion_1_counterexample_reproduction():
    t0 = time.time()
    cases = [
        ("x", {(0, 2): 2.0}),
        ("y", {(0, 3): 2.0}),
        ("x + 2*y", {(0, 2): 2.0, (0, 3): 4.0}),
    ]
    for phi, expected in cases:
        ent = catalog.get(
            "szabo-counterexample", {"p": 2.0, "c": 1.0, "m": 0.0, "phi": phi}
        )
        s = ent.default_samples[0]
        verdict = berwald.detect_berwald(ent.lagrangian, s.x, s.xdot)
        assert verdict.is_berwald and verdict.max_gamma_deviation < 1e-7
        rep = berwald.obstruction(ent.lagrangian, s.x, s.xdot)
        hot = np.zeros((4, 4), dtype=bool)
        for (a, b), mag in expected.items():
            assert abs(rep.skew[a, b]) == pytest.approx(mag, abs=1e-5), (phi, a, b)
            hot[a, b] = hot[b, a] = True
        assert np.max(np.abs(rep.skew[~hot])) < 1e-7
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    _report(
        1,
        f"berwald + |half-skew| in {{2, (2,4)}} reproduced for phi = x, y, x+2y "
        f"(sign of the resolved H convention: fitted H = phi/(2c(1-p))); "
        f"{elapsed:.2f}s <= 10s",
    )


# -- 2. parameter independence --------------------------------------------------------


def test_criterion_2_parameter_independence():
    base = None
    for m in (0.0, 1.0, -1.0):
        for c in (1.0, 2.0):
            ent = catalog.get(
                "szabo-counterexample", {"p": 2.0, "c": c, "m": m, "phi": "x"}
            )
            s = ent.default_samples[0]
            rep = berwald.obstruction(ent.lagrangian, s.x, s.xdot)
            val = abs(rep.skew[0, 2])
            if base is None:
                base = val
            assert val == pytest.approx(base, abs=1e-6), (c, m)
    _report(2, f"|half-skew| = {base:.9f} unchanged over m in {{0,1,-1}}, c in {{1,2}}")


# -- 3. smooth-case symmetry ----------------------------------------------------------


def test_criterion_3_smooth_case_symmetry(entries, pseudo_riemannian_names):
    worst = 0.0
    for name in pseudo_riemannian_names:
        e = entries[name]
        for s in e.default_samples:
            rep = berwald.obstruction(e.lagrangian, s.x, s.xdot)
            worst = max(worst, rep.skew_max_abs)
            assert rep.skew_max_abs < 1e-9, (name, rep.skew_max_abs)
    _report(3, f"skew Ricci < 1e-9 on all quadratic entries (worst {worst:.2e})")


# -- 4. identity suite ----------------------------------------------------------------


def test_criterion_4_identity_suite(entries):
    worst = {"euler": 0.0, "contraction": 0.0, "cartan": 0.0, "skew": 0.0, "comm": 0.0}
    for name, e in entries.items():
        lag = e.lagrangian
        for s in e.default_samples:
            ev = _Eval(lag, s, 4).row(0)
            v = s.xdot
            scale_L = max(1.0, abs(ev.L.value))
            r = abs(float(v @ ev.g_values @ v) - ev.L.value) / scale_L
            worst["euler"] = max(worst["euler"], r)
            assert r < 1e-6, (name, "euler")

            scale_G = max(1.0, float(np.max(np.abs(ev.spray_values))))
            r = (
                float(
                    np.max(
                        np.abs(
                            np.einsum("abc,b,c->a", ev.gamma_values, v, v)
                            - 2 * ev.spray_values
                        )
                    )
                )
                / scale_G
            )
            worst["contraction"] = max(worst["contraction"], r)
            assert r < 1e-6, (name, "contraction")

            scale_C = max(1.0, float(np.max(np.abs(ev.cartan_values))))
            r = float(np.max(np.abs(np.einsum("abc,a->bc", ev.cartan_values, v)))) / scale_C
            worst["cartan"] = max(worst["cartan"], r)
            assert r < 1e-6, (name, "cartan")

            curv = ev.curvature
            route1 = curv.ricci - curv.ricci.T
            route2 = geometry.ricci_skew_from_curvature(
                curv.hh_riemann, v, ev.cartan_trace
            )
            scale_R = max(1.0, float(np.max(np.abs(curv.ricci))))
            r = float(np.max(np.abs(route1 - route2))) / scale_R
            worst["skew"] = max(worst["skew"], r)
            assert r < 1e-6, (name, "skew")

            f = geometry.log_sqrt_det_metric_field(lag)
            r = geometry.commutator_check(lag, s, f)
            worst["comm"] = max(worst["comm"], r)
            assert r < 1e-6, (name, "commutator")

            for lam in (0.5, 2.0, 7.0):
                evs = _Eval(lag, s.scaled(lam), 3).row(0)
                assert abs(evs.L.value - lam**2 * ev.L.value) / scale_L < 1e-8 * lam**2
                assert (
                    float(np.max(np.abs(evs.g_values - ev.g_values)))
                    / max(1.0, float(np.max(np.abs(ev.g_values))))
                    < 1e-8
                )
                assert (
                    float(np.max(np.abs(evs.spray_values - lam**2 * ev.spray_values)))
                    / max(1.0, lam**2 * scale_G)
                    < 1e-8
                )
                contraction = np.einsum(
                    "abc,b,c->a", evs.gamma_values, lam * v, lam * v
                )
                assert (
                    float(np.max(np.abs(contraction - 2 * lam**2 * ev.spray_values)))
                    / max(1.0, lam**2 * scale_G)
                    < 1e-8
                )
    _report(
        4,
        "Euler/contraction/Cartan/skew/commutator residuals < 1e-6 and "
        f"homogeneity < 1e-8 on every catalog sample (worst: "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + ")",
    )


# -- 5. closed-form equivalence --------------------------------------------------------


def test_criterion_5_closed_form_equivalence(entries):
    checked = []
    for name in ("bogoslovsky", "kropina", "szabo-counterexample"):
        e = entries[name]
        inst = e.lagrangian
        for s in e.default_samples:
            fit = alphabeta.check_berwald_condition(inst, s.x)
            if fit.residual >= 1e-9:
                continue
            fam = alphabeta.FamilyEval(inst, s.x)
            h = fam.h_gradient[0]
            spray_cf = fam.spray(s.xdot, h)
            spray_pipe = geometry.spray(inst, s)
            assert np.max(np.abs(spray_cf - spray_pipe)) < 1e-6
            gam_cf = fam.connection(h)
            gam_pipe = geometry.chern_rund(inst, s)
            assert np.max(np.abs(gam_cf - gam_pipe)) < 1e-6
            cf = alphabeta.closed_form_ricci(inst, s.x)
            rep = berwald.obstruction(inst, s.x, s.xdot)
            assert np.max(np.abs(cf.ricci - rep.ricci)) < 1e-6
            assert np.max(np.abs(cf.skew - rep.skew)) < 1e-6
            checked.append((name, fit.residual))
    assert len(checked) >= 5
    _report(5, f"closed forms match the jet pipeline within 1e-6 at {len(checked)} samples")


# -- 6. oracle equivalence --------------------------------------------------------------


def test_criterion_6_oracle_equivalence(entries):
    low = ([0], [4], [0, 4], [4, 4])
    high = ([4, 4, 5], [0, 4, 4], [4, 4, 5, 5], [0, 1, 4, 4])
    checked = 0
    for name, e in entries.items():
        n = e.dim
        s = e.default_samples[0]
        ev = _Eval(e.lagrangian, s, 4).row(0)
        z = list(s.x) + list(s.xdot)

        def L_flat(pt):
            return _Eval(
                e.lagrangian, TangentSample(pt[:n], pt[n:]), 1
            ).row(0).L.value

        for multi, tol in [(m, 1e-6) for m in low] + [(m, 1e-4) for m in high]:
            jet_val = extract_partial(ev.L, list(multi))
            ref = fd_partial(L_flat, z, list(multi))
            assert abs(jet_val - ref) / max(1.0, abs(ref)) < tol, (name, multi)
            checked += 1
    _report(6, f"jets vs FD oracle within 1e-6 (order<=2) / 1e-4 (order 3-4), {checked} partials")


# -- 7. causal classification ------------------------------------------------------------


def test_criterion_7_causal_classification():
    dim = 4
    rows = [
        ["1" if a == b == 0 else ("-1" if a == b else "0") for b in range(dim)]
        for a in range(dim)
    ]
    alpha = tuple(tuple(expr.parse(src, dim) for src in row) for row in rows)
    beta = tuple(expr.parse(src, dim) for src in ["1", "0", "0", "0"])
    s = TangentSample([0, 0, 0, 0], [1.0, 0.2, 0, 0])

    inst = FamilyInstance(dim, alpha, beta, c=1.0, m=0.0, p=0.5)
    cc = alphabeta.classify_causal(inst, s)
    assert cc.det_zeta == pytest.approx(1.0**3 * (-1.0) * (1.0 + 0.0), abs=1e-12)
    assert cc.viable

    inst = FamilyInstance(dim, alpha, beta, c=1.0, m=0.0, p=-2.0)
    cc = alphabeta.classify_causal(inst, s)
    assert cc.p_case == "p_lt_m1" and not cc.viable

    inst = FamilyInstance(dim, alpha, beta, c=1.0, m=-2.0, p=0.5)
    cc = alphabeta.classify_causal(inst, s)
    assert cc.det_zeta == pytest.approx((-1.0) * (1.0 - 2.0), abs=1e-12)
    assert not cc.viable

    for p in (-1.01, -3.0, -100.0):
        inst = FamilyInstance(dim, alpha, beta, c=1.0, m=0.0, p=p)
        assert not alphabeta.classify_causal(inst, s).viable
    _report(7, "determinant formula reproduced on all three cases; p < -1 never viable")


# -- 8. Berwald-condition fit -------------------------------------------------------------


def test_criterion_8_berwald_condition_fit():
    ent = catalog.get("szabo-counterexample")
    inst = ent.lagrangian
    for s in ent.default_samples:
        fit = alphabeta.check_berwald_condition(inst, s.x)
        assert fit.residual < 1e-9
        phi = s.x[2]
        expected = abs(phi / (2 * 1.0 * (2.0 - 1.0)))
        assert abs(fit.h) == pytest.approx(expected, abs=1e-8)
    _report(8, "Berwald-condition residual < 1e-9 with |H| = |phi/(2c(p-1))| within 1e-8")


# -- 9. determinism -------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    doc = {
        "lagrangian": {
            "catalog": "szabo-counterexample",
            "overrides": {"p": 2, "c": 1, "m": 0, "phi": "x"},
        },
        "options": {"seed": 3},
    }
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["report", str(p), "--out", str(tmp_path / "a")]) == 2
    assert cli.main(["report", str(p), "--out", str(tmp_path / "b")]) == 2
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    _report(9, f"two runs produced byte-identical reports ({len(a)} bytes)")
