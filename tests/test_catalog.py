"""Catalog entries: loading, overrides, and the expected-values regression."""

import numpy as np
import pytest

from finslergeo import berwald, catalog, expr, geometry
from finslergeo.catalog import InvalidOverride, UnknownEntry
from finslergeo.defs import DslLagrangian, FamilyInstance
from finslergeo.scene import SceneError, load_scene


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
