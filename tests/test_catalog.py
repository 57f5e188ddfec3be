"""Catalog entries: loading, overrides, and the expected-values regression."""

import numpy as np
import pytest

from finslergeo import alphabeta, berwald, catalog, expr, geometry
from finslergeo.catalog import InvalidOverride, UnknownEntry
from finslergeo.defs import DslLagrangian, FamilyInstance
from finslergeo.scene import SceneError, load_scene, run_scene


def test_names_are_stable():
    assert catalog.names() == [
        "bogoslovsky",
        "conformally-flat",
        "kropina",
        "minkowski4",
        "nonberwald-flat",
        "schwarzschild",
        "szabo-counterexample",
    ]


def test_every_default_sample_is_admissible(entries):
    for e in entries.values():
        for s in e.default_samples:
            assert geometry.probe_admissibility(e.lagrangian, s).in_A


def test_unknown_name():
    with pytest.raises(UnknownEntry):
        catalog.get("klein-gordon")


def test_minkowski_is_dsl():
    e = catalog.get("minkowski4")
    assert isinstance(e.lagrangian, DslLagrangian)
    ev = geometry.eval_L(e.lagrangian, e.default_samples[0], 1)
    assert ev.value == pytest.approx(1.0)


def test_bogoslovsky_override():
    e = catalog.get("bogoslovsky", {"p": 0.5})
    assert isinstance(e.lagrangian, FamilyInstance)
    assert e.lagrangian.c == 1.0 and e.lagrangian.m == 0.0 and e.lagrangian.p == 0.5


def test_kropina_is_p_one():
    e = catalog.get("kropina")
    assert e.lagrangian.p == 1.0


def test_counterexample_invalid_overrides():
    with pytest.raises(InvalidOverride):
        catalog.get("szabo-counterexample", {"p": 1.0})
    with pytest.raises(InvalidOverride):
        catalog.get("szabo-counterexample", {"c": 0.0})
    with pytest.raises(InvalidOverride):
        catalog.get("szabo-counterexample", {"mass": 2.0})


def test_counterexample_default_sample_respects_search_contract(entries):
    # the deterministic search promises beta(xdot) > 0 and zeta(xdot,xdot) > 0
    e = entries["szabo-counterexample"]
    inst = e.lagrangian
    for s in e.default_samples:
        alpha = np.array(
            [
                [float(expr.eval(inst.alpha[a][b], list(s.x))) for b in range(4)]
                for a in range(4)
            ]
        )
        beta = np.array([float(expr.eval(inst.beta[a], list(s.x))) for a in range(4)])
        bval = float(beta @ s.xdot)
        zeta = inst.c * float(s.xdot @ alpha @ s.xdot) + inst.m * bval**2
        assert bval > 0
        assert zeta > 0


def test_expected_blocks_reproduced(entries):
    for name, e in entries.items():
        exp = e.expected or {}
        if "is_berwald" in exp:
            for i, s in enumerate(e.default_samples):
                v = berwald.detect_berwald(e.lagrangian, s.x, s.xdot)
                assert v.is_berwald == exp["is_berwald"], (name, i)
        s = e.default_samples[0]
        if exp.get("flat"):
            cv = geometry.hh_curvature(e.lagrangian, s)
            assert np.max(np.abs(cv.hh_riemann)) < 1e-10, name
        if exp.get("vacuum"):
            cv = geometry.hh_curvature(e.lagrangian, s)
            assert np.max(np.abs(cv.ricci)) < 1e-9, name
        if exp.get("vacuum") is False:
            cv = geometry.hh_curvature(e.lagrangian, s)
            assert np.max(np.abs(cv.ricci)) > 1e-3, name
        if "skew_max" in exp:
            rep = berwald.obstruction(e.lagrangian, s.x, s.xdot)
            assert rep.skew_max_abs <= exp["skew_max"] + 1e-9, name
        if "half_skew_magnitude" in exp:
            rep = berwald.obstruction(e.lagrangian, s.x, s.xdot)
            assert abs(rep.skew[0, 2]) == pytest.approx(
                exp["half_skew_magnitude"], abs=1e-5
            ), name


def test_schwarzschild_mass_override():
    e = catalog.get("schwarzschild", {"M": 0.5})
    assert e.lagrangian.params["M"] == 0.5
    s = e.default_samples[0]
    cv = geometry.hh_curvature(e.lagrangian, s)
    assert np.max(np.abs(cv.ricci)) < 1e-9  # still vacuum
    assert np.max(np.abs(cv.hh_riemann)) > 1e-3  # but curved


def test_counterexample_phi_override_changes_skew():
    e = catalog.get("szabo-counterexample", {"phi": "3*x"})
    s = e.default_samples[0]
    rep = berwald.obstruction(e.lagrangian, s.x, s.xdot)
    assert abs(rep.skew[0, 2]) == pytest.approx(6.0, abs=1e-5)


def test_a_mass_that_puts_a_default_sample_outside_A_is_a_scene_error():
    # M = 1.5 puts the horizon r = 2M at default sample 0's radius r = 3
    with pytest.raises(SceneError) as err:
        load_scene({"lagrangian": {"catalog": "schwarzschild", "overrides": {"M": 1.5}}})
    assert err.value.pointer == "/lagrangian/catalog"
    assert str(err.value).endswith("default sample 0 is not admissible (division-by-zero)")


def test_the_direction_search_doubles_v_past_candidates_outside_the_cone():
    # with phi = -10x, zeta(xdot, xdot) < 0 at (1, 1, 0.1, 0.1) and
    # (1, 2, 0.1, 0.1) at base point 0, so the search takes (1, 4, 0.1, 0.1)
    doc = {"lagrangian": {"catalog": "szabo-counterexample", "overrides": {"phi": "-10*x"}}}
    scn = load_scene(doc)
    _, sample = scn.samples[0]
    assert sample.x.tolist() == [0.0, 1.0, 0.5, 0.3]
    assert sample.xdot.tolist() == [1.0, 4.0, 0.1, 0.1]
    report, code = run_scene(scn, "report")
    assert code == 2
    assert report["geometry"]["obstruction"]["max_skew_abs"] == pytest.approx(20.0, abs=1e-6)


def test_a_counterexample_with_no_admissible_direction_is_a_scene_error():
    # c = -1 makes zeta(xdot, xdot) negative at every candidate of base point 0
    doc = {"lagrangian": {"catalog": "szabo-counterexample", "overrides": {"c": -1}}}
    with pytest.raises(SceneError) as err:
        load_scene(doc)
    assert err.value.pointer == "/lagrangian/catalog"
    assert "no admissible direction found at x=[0.  1.  0.5 0.3]" in str(err.value)


def test_the_direction_search_reads_alpha_and_beta_as_values(monkeypatch):
    # the search evaluates alpha and beta at each base point as floats: a
    # szabo report builds a FamilyEval only for its two samples' sections
    built = []
    init = alphabeta.FamilyEval.__init__

    def recording_init(self, inst, x):
        built.append(np.asarray(x, dtype=float).tobytes())
        init(self, inst, x)

    monkeypatch.setattr(alphabeta.FamilyEval, "__init__", recording_init)
    scn = load_scene({"lagrangian": {"catalog": "szabo-counterexample"}})
    assert built == []
    run_scene(scn, "report")
    assert built == [s.x.tobytes() for _, s in scn.samples]
    assert "alphabeta" not in vars(catalog)


# The message of an override that no entry takes, by entry.
_UNKNOWN_OVERRIDE = {
    "bogoslovsky": "bogoslovsky accepts only 'p'",
    "conformally-flat": "conformally-flat takes no overrides",
    "kropina": "kropina takes no overrides",
    "minkowski4": "minkowski4 takes no overrides",
    "nonberwald-flat": "nonberwald-flat takes no overrides",
    "schwarzschild": "schwarzschild accepts only 'M'",
    "szabo-counterexample": "szabo-counterexample accepts only 'c', 'm', 'p', 'phi'",
}


@pytest.mark.parametrize("name", catalog.names())
def test_every_entry_names_its_overrides_in_sorted_order(name):
    # the names were a set, printed in an order that changed with the hash seed
    with pytest.raises(InvalidOverride) as err:
        catalog.get(name, {"mass": 2.0})
    assert str(err.value) == _UNKNOWN_OVERRIDE[name] and err.value.key == "mass"
    with pytest.raises(SceneError) as err:
        load_scene({"lagrangian": {"catalog": name, "overrides": {"mass": 2.0}}})
    assert err.value.pointer == "/lagrangian/overrides/mass"


@pytest.mark.parametrize("overrides, key", [({"p": 1.0}, "p"), ({"c": 0.0}, "c")])
def test_counterexample_constraints_name_their_override(overrides, key):
    with pytest.raises(SceneError) as err:
        load_scene({"lagrangian": {"catalog": "szabo-counterexample", "overrides": overrides}})
    assert err.value.pointer == f"/lagrangian/overrides/{key}"
