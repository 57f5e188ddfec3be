"""Scene validation, report schema conformance, CLI behavior, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from finslergeo import __version__, alphabeta, catalog, cli, geometry
from finslergeo.scene import (
    OPTIONS,
    SUBCOMMANDS,
    SceneError,
    load_scene,
    load_scene_file,
    parse_report,
    render_json,
    run_scene,
    summary_lines,
)

REPO = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO / "docs" / "schemas"


def szabo_scene(**options):
    doc = {
        "lagrangian": {
            "catalog": "szabo-counterexample",
            "overrides": {"p": 2, "c": 1, "m": 0, "phi": "x"},
        }
    }
    if options:
        doc["options"] = options
    return doc


def minkowski_scene():
    return {
        "chart": {"dim": 4},
        "lagrangian": {"dsl": {"source": "dx0^2 - dx1^2 - dx2^2 - dx3^2"}},
        "samples": [
            {"x": [0, 0, 0, 0], "xdot": [1, 0, 0, 0], "label": "timelike"},
            {"x": [0, 0, 0, 0], "xdot": [1, 1, 0, 0], "label": "null"},
        ],
    }


def dsl_params_scene(params):
    return {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": "a*dx0^2 - dx1^2", "params": params}},
        "samples": [{"x": [0, 0], "xdot": [1, 0.1]}],
    }


# -- validation --------------------------------------------------------------------


def test_missing_lagrangian_pointer():
    with pytest.raises(SceneError) as err:
        load_scene({"chart": {"dim": 4}})
    assert err.value.pointer == "/lagrangian"


def test_bad_sample_length_pointer():
    doc = minkowski_scene()
    doc["samples"][1]["xdot"] = [1, 0]
    with pytest.raises(SceneError) as err:
        load_scene(doc)
    assert err.value.pointer == "/samples/1/xdot"


def test_bad_expression_pointer():
    doc = {
        "chart": {"dim": 2},
        "lagrangian": {
            "family": {
                "alpha": [["1", "0"], ["0", "oops"]],
                "beta": ["1", "0"],
                "c": 1,
                "m": 0,
                "p": 2,
            }
        },
        "samples": [{"x": [0, 0], "xdot": [1, 0.1]}],
    }
    with pytest.raises(SceneError) as err:
        load_scene(doc)
    assert err.value.pointer == "/lagrangian/family/alpha/1/1"


@pytest.mark.parametrize("rows, at, message", [
    ([["1", "0"]], "", "expected 2 rows"),
    ([["1", "0"], ["0"]], "/1", "expected 2 entries"),
    ([["1", "0"], "0"], "/1", "expected 2 entries"),
    ([["1", "0"], ["0", 1]], "/1/1", "expected an expression string"),
    ([["1", "0"], ["0", "nope"]], "/1/1", None),
])
def test_expression_matrices_are_read_alike(rows, at, message):
    # a family's alpha and a reference metric: the same errors at the same
    # places under their own pointers
    doc = {
        "chart": {"dim": 2},
        "lagrangian": {"family": {"alpha": [["1", "0"], ["0", "-1"]], "beta": ["1", "0"],
                                  "c": 1, "m": 0, "p": 2}},
        "samples": [{"x": [0, 0], "xdot": [1, 0.1]}],
    }
    errors = []
    for pointer in ("/lagrangian/family/alpha", "/options/reference_metric"):
        bad = json.loads(json.dumps(doc))
        if pointer == "/lagrangian/family/alpha":
            bad["lagrangian"]["family"]["alpha"] = rows
        else:
            bad["options"] = {"reference_metric": rows}
        with pytest.raises(SceneError) as err:
            load_scene(bad)
        assert err.value.pointer == pointer + at
        errors.append(str(err.value).replace(pointer, ""))
    assert errors[0] == errors[1]
    assert message is None or errors[0].endswith(message)


def test_two_lagrangian_kinds_rejected():
    doc = minkowski_scene()
    doc["lagrangian"]["catalog"] = "minkowski4"
    with pytest.raises(SceneError) as err:
        load_scene(doc)
    assert err.value.pointer == "/lagrangian"


def test_chart_dim_mismatch_with_catalog():
    doc = {"chart": {"dim": 3}, "lagrangian": {"catalog": "minkowski4"}}
    with pytest.raises(SceneError) as err:
        load_scene(doc)
    assert err.value.pointer == "/chart/dim"


def test_unknown_convention_rejected():
    with pytest.raises(SceneError) as err:
        load_scene(szabo_scene(signature_convention="+-+-"))
    assert err.value.pointer == "/options/signature_convention"


def test_scene_schema_accepts_fixture_scenes():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / "scene.schema.json").read_text())
    for doc in (szabo_scene(), minkowski_scene()):
        jsonschema.validate(doc, schema)
    for name in ("szabo.json", "minkowski.json"):
        shipped = json.loads((REPO / "scenes" / name).read_text())
        jsonschema.validate(shipped, schema)


@pytest.mark.parametrize(
    "doc, pointer",
    [
        pytest.param(szabo_scene(directoins=4), "/options/directoins", id="unknown-option"),
        pytest.param(
            szabo_scene(tolerances={"berwlad": 1}),
            "/options/tolerances/berwlad",
            id="unknown-tolerance",
        ),
        pytest.param(szabo_scene(spread=0), "/options/spread", id="zero-spread"),
        pytest.param(szabo_scene(spread=-0.5), "/options/spread", id="negative-spread"),
        pytest.param(szabo_scene(spread=True), "/options/spread", id="bool-spread"),
        pytest.param(szabo_scene(threads=2), "/options/threads", id="removed-threads"),
        pytest.param(szabo_scene(seed=True), "/options/seed", id="bool-seed"),
        pytest.param(szabo_scene(seed=-1), "/options/seed", id="negative-seed"),
        pytest.param(szabo_scene(directions=1), "/options/directions", id="one-direction"),
        pytest.param(
            dsl_params_scene({"a": "abc"}), "/lagrangian/dsl/params/a", id="string-param"
        ),
    ],
)
def test_loader_and_schema_reject_the_same_options(doc, pointer):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / "scene.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
    with pytest.raises(SceneError) as err:
        load_scene(doc)
    assert err.value.pointer == pointer


# An integer beyond float range, as a JSON number.
_HUGE = "1" + "0" * 400


def _with_huge(doc, *path):
    """The scene text with the value at `path` replaced by _HUGE."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "HUGE"
    return json.dumps(doc).replace('"HUGE"', _HUGE)


def _family_scene(**extra):
    return {
        "chart": {"dim": 2},
        "lagrangian": {"family": {
            "alpha": [["1", "0"], ["0", "-1"]], "beta": ["1", "0"], "c": 1, "m": 0, "p": 2,
            **extra,
        }},
        "samples": [{"x": [0, 0], "xdot": [1, 0.1]}],
    }


@pytest.mark.parametrize(
    "text, pointer",
    [
        pytest.param(
            _with_huge(minkowski_scene(), "samples", 0, "x", 0), "/samples/0/x/0",
            id="huge-sample",
        ),
        pytest.param(
            _with_huge(szabo_scene(spread=1), "options", "spread"), "/options/spread",
            id="huge-spread",
        ),
        pytest.param(
            _with_huge(_family_scene(), "lagrangian", "family", "c"), "/lagrangian/family/c",
            id="huge-family-c",
        ),
        pytest.param(
            _with_huge(_family_scene(params={"a": 1}), "lagrangian", "family", "params", "a"),
            "/lagrangian/family/params/a",
            id="huge-family-param",
        ),
        pytest.param(
            _with_huge(dsl_params_scene({"a": 1}), "lagrangian", "dsl", "params", "a"),
            "/lagrangian/dsl/params/a",
            id="huge-dsl-param",
        ),
        pytest.param(
            _with_huge(
                {"lagrangian": {"catalog": "schwarzschild", "overrides": {"M": 1}}},
                "lagrangian", "overrides", "M",
            ),
            "/lagrangian/overrides/M",
            id="huge-override",
        ),
        pytest.param(
            json.dumps(dsl_params_scene({"a": "abc"})), "/lagrangian/dsl/params/a",
            id="string-param",
        ),
        pytest.param(
            json.dumps(dsl_params_scene({"a": [1]})), "/lagrangian/dsl/params/a",
            id="list-param",
        ),
        pytest.param(
            json.dumps(dsl_params_scene({"a": "nan"})), "/lagrangian/dsl/params/a",
            id="nan-string-param",
        ),
        pytest.param(
            json.dumps(dsl_params_scene({"a": True})), "/lagrangian/dsl/params/a",
            id="bool-param",
        ),
        pytest.param(
            json.dumps({"lagrangian": {"catalog": "schwarzschild", "overrides": {"M": [1]}}}),
            "/lagrangian/overrides/M",
            id="list-override",
        ),
    ],
)
def test_scene_numbers_are_read_by_one_checked_reader(tmp_path, capsys, text, pointer):
    # each of these ended in a traceback: OverflowError, ValueError or
    # TypeError from float(), or "nan" accepted as a parameter
    p = tmp_path / "scene.json"
    p.write_text(text)
    assert cli.main(["report", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scene error: {pointer}: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("phi", ["1/0", "ln(x-1)", "exp(1000)", "1e308*1e308"])
@pytest.mark.parametrize("subcommand", ["probe", "report"])
def test_a_phi_that_cannot_be_evaluated_is_a_scene_error(tmp_path, capsys, phi, subcommand):
    # each ended in a traceback: ExprDomainError (the first three) or
    # DegenerateMetric from the search for the entry's default samples
    doc = {"lagrangian": {"catalog": "szabo-counterexample", "overrides": {"phi": phi}}}
    p = _write_scene(tmp_path, doc)
    assert cli.main([subcommand, str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scene error: /lagrangian/overrides/phi: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "phi, message",
    [
        ("1)*0+(1", "unexpected trailing input ')' (at byte 1)"),
        ("x +", "(at byte 3)"),
        ("q*x", "unknown identifier 'q' (at byte 0)"),
    ],
)
def test_a_phi_that_does_not_parse_is_a_scene_error(tmp_path, capsys, phi, message):
    # phi was spliced into v*(phi) and (phi)/(...) first: the first value
    # escaped its parentheses and gave a report, the others were errors at
    # /lagrangian/catalog with offsets into the splice
    doc = {"lagrangian": {"catalog": "szabo-counterexample", "overrides": {"phi": phi}}}
    assert cli.main(["report", str(_write_scene(tmp_path, doc)), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scene error: /lagrangian/overrides/phi: override 'phi': ")
    assert err.endswith(message + "\n")
    assert not (tmp_path / "report.json").exists()


def test_the_degenerate_tolerance_reaches_every_nondegeneracy_check(tmp_path):
    # g = diag(1, -1e-12) is nondegenerate at 1e-14: the sample block, the
    # Berwald witness directions and the obstruction read it so, not only
    # the probe
    doc = {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": "dx0^2 - 1e-12*dx1^2"}},
        "samples": [{"x": [0, 0], "xdot": [1, 0.3]}],
        "options": {"tolerances": {"degenerate": 1e-14}},
    }
    report, code = run_scene(load_scene(doc), "report")
    assert code == 0
    sample = report["samples"][0]
    assert sample["admissibility"]["in_A"] and sample["metric"]["signature"] == [1, 1, 0]
    assert "error" not in sample and "cartan_trace" in sample
    (point,) = report["geometry"]["berwald"]["per_base_point"]
    assert point["is_berwald"] and point["directions_tested"] == 16
    assert report["geometry"]["obstruction"]["metrizability_necessary_condition_met"]
    # at the default tolerance the sample is outside A
    doc["options"] = {}
    report, _ = run_scene(load_scene(doc), "report")
    assert report["samples"][0]["admissibility"]["failure_reason"] == "degenerate-metric"


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_values_that_do_not_invert_put_the_sample_outside_A(
    tmp_path, capsys, digest_scenes, subcommand
):
    # g = [[1, 3], [3, 9]] is nondegenerate at the scene's tolerance, 1e-18,
    # but its values do not invert: it ended in LinAlgError
    p = _write_scene(tmp_path, dict(digest_scenes)["singular-values"])
    report = tmp_path / "out" / "report.json"
    code = cli.main([subcommand, str(p), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    if subcommand == "nonmetricity":  # a DSL scene has no reference metric
        assert code == 1 and not report.exists()
        return
    assert code == 0
    (sample,) = json.loads(report.read_text())["samples"]
    assert sample["admissibility"]["in_A"] is False
    assert sample["admissibility"]["failure_reason"] == "degenerate-metric"


@pytest.mark.parametrize("subcommand", ["probe", "report", "causal", "berwald", "obstruction"])
def test_a_family_whose_alpha_is_identically_zero_is_outside_A(tmp_path, capsys, subcommand):
    # ended in DegenerateMetric: "alpha is identically zero"
    p = _write_scene(tmp_path, _family_scene(alpha=[["0", "0"], ["0", "0"]]))
    assert cli.main([subcommand, str(p), "--out", str(tmp_path / "out")]) == 0
    assert "exit code 0" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (sample,) = report["samples"]
    assert sample["admissibility"]["in_A"] is False
    assert sample["admissibility"]["failure_reason"] == "degenerate-metric"


def test_family_scene_with_a_5000_term_alpha_entry_gives_a_report():
    # the symmetry check of alpha compares the two 5000-term sums
    total = " + ".join(["0.0001*x0"] * 5000)
    doc = _family_scene()
    fam = doc["lagrangian"]["family"]
    fam["alpha"] = [["1", total], [total, "-1"]]
    fam["beta"], fam["p"] = ["1", "0.5"], 0.5
    report, code = run_scene(load_scene(doc), "report")
    assert code == 0
    assert report["samples"][0]["admissibility"]["in_A"]


# -- reports -----------------------------------------------------------------------


def test_report_json_round_trip():
    scn = load_scene(minkowski_scene())
    report, _ = run_scene(scn, "report")
    text = render_json(report)
    assert parse_report(text) == report


def test_float_formatting_17_digits():
    text = render_json({"v": 0.1})
    assert "0.1000000000000000" in text
    assert json.loads(text)["v"] == 0.1


def test_reports_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
    for doc, sub in [
        (szabo_scene(), "report"),
        (szabo_scene(), "obstruction"),
        (szabo_scene(), "causal"),
        (minkowski_scene(), "report"),
        (minkowski_scene(), "probe"),
        (minkowski_scene(), "berwald"),
        (_singular_alpha_scene(), "report"),
    ]:
        scn = load_scene(doc)
        report, _ = run_scene(scn, sub)
        jsonschema.validate(report, schema)


def test_nonmetricity_report_with_reference_metric():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
    ref = [
        ["v*(x)", "1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    scn = load_scene(szabo_scene(reference_metric=ref))
    report, code = run_scene(scn, "nonmetricity")
    jsonschema.validate(report, schema)
    qs = [e["Q_norm"] for e in report["geometry"]["nonmetricity"]["per_base_point"]]
    assert max(qs) > 0.1


def test_nonmetricity_reference_metric_out_of_float_range_is_an_error_entry():
    # sin of x0*1e300*1e300 = inf at x0 = 1, first met over floats
    doc = {
        "chart": {"dim": 2},
        "lagrangian": _dsl("dx0^2 - dx1^2"),
        "samples": [_DSL_SAMPLE],
        "options": {"reference_metric": [["1+sin(x0*1e300*1e300)", "0"], ["0", "-1"]]},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf is met without a RuntimeWarning
        report, code = run_scene(load_scene(doc), "nonmetricity")
    assert code == 0
    (entry,) = report["geometry"]["nonmetricity"]["per_base_point"]
    assert entry["error"].startswith("non-finite")


def test_nonmetricity_requires_reference_metric():
    scn = load_scene(szabo_scene())
    with pytest.raises(SceneError):
        run_scene(scn, "nonmetricity")


def test_exit_codes():
    report, code = run_scene(load_scene(szabo_scene()), "report")
    assert code == 2
    assert not report["geometry"]["obstruction"]["metrizability_necessary_condition_met"]
    report, code = run_scene(load_scene(minkowski_scene()), "report")
    assert code == 0
    # flat geometry: all curvature zero in the per-sample blocks
    for s in report["samples"]:
        assert np.max(np.abs(np.array(s["ricci"]))) == 0.0


def test_a_report_builds_one_order_4_block_over_every_base_point(monkeypatch, tmp_path):
    # loading and running a scene evaluate its base points once, in one
    # block: a catalog scene's loader builds it (for szabo, its search's last
    # block of candidates) and run_scene reads it; the spray witness
    # evaluates every base point's draws in one order-2 block per round (one
    # round here, as every draw lies in A), so no other context is built
    built = []
    init = geometry._Eval.__init__

    def counting_init(self, lag, sample, order, tol_degenerate=geometry.TOL_DEGENERATE):
        built.append((order, sample))
        init(self, lag, sample, order, tol_degenerate)

    monkeypatch.setattr(geometry._Eval, "__init__", counting_init)
    catalog_scene = _write_scene(tmp_path, {"lagrangian": {"catalog": "bogoslovsky"}})
    for path in (REPO / "scenes" / "szabo.json", catalog_scene, REPO / "scenes" / "minkowski.json"):
        built.clear()
        scn = load_scene_file(str(path))
        report, _ = run_scene(scn, "report")
        assert all(s["admissibility"]["in_A"] for s in report["samples"]), path
        assert [order for order, _ in built] == [4, 2], path
        block = built[0][1]
        assert [(s.x.tobytes(), s.xdot.tobytes()) for s in block] == [
            (s.x.tobytes(), s.xdot.tobytes()) for _, s in scn.samples
        ], path
        # 15 draws at each base point, each at its own x
        n = scn.dim
        witness = built[1][1]
        assert isinstance(witness, np.ndarray) and witness.shape == (15 * len(scn.samples), 2 * n)
        for i, (_, s) in enumerate(scn.samples):
            assert np.array_equal(witness[15 * i: 15 * (i + 1), :n], np.tile(s.x, (15, 1))), path


def test_every_subcommand_writes_one_admissibility_and_metric_per_sample(
    digest_scenes, tmp_path, capsys
):
    # every subcommand reads one order-4 evaluation per sample, so which one
    # ran does not change a sample's admissibility or metric
    for name, doc in digest_scenes:
        scene = _write_scene(tmp_path, doc)
        written = {}
        for sub in SUBCOMMANDS:
            out = tmp_path / f"out-{sub}"
            report = out / "report.json"
            if report.exists():
                report.unlink()
            cli.main([sub, str(scene), "--out", str(out)])
            if report.exists():  # a subcommand that cannot run writes none
                samples = json.loads(report.read_text(encoding="utf-8"))["samples"]
                written[sub] = json.dumps(
                    [(s["label"], s["admissibility"], s.get("metric")) for s in samples]
                )
        capsys.readouterr()
        assert {"probe", "report"} <= set(written), name
        assert len(set(written.values())) == 1, (name, written)


def test_report_evaluates_L_once_per_base_point(monkeypatch):
    # loading and running evaluate L once at order 4, over a block of the
    # base points (all 2n coordinates stacked); the commutator residual
    # differentiates that L, and the spray witness evaluates L once at order
    # 2, over one block of the 15 draws at each base point
    block_calls, scalar_calls = [], []
    eval_L_jets = geometry.eval_L_jets

    def counting(lag, coord_jets):
        stacked = [j.coeffs.ndim == 2 for j in coord_jets]
        if all(stacked):
            block_calls.append((coord_jets[0].space.order, len(coord_jets[0].coeffs)))
        elif not any(stacked):
            scalar_calls.append(coord_jets)
        return eval_L_jets(lag, coord_jets)

    monkeypatch.setattr(geometry, "eval_L_jets", counting)
    scn = load_scene_file(str(REPO / "scenes" / "szabo.json"))
    report, _ = run_scene(scn, "report")
    in_A = sum(s["admissibility"]["in_A"] for s in report["samples"])
    assert in_A == 2
    assert block_calls == [(4, in_A), (2, 30)]
    assert scalar_calls == []


def test_affine_connection_is_gamma_at_the_sample():
    scn = load_scene_file(str(REPO / "scenes" / "szabo.json"))
    report, _ = run_scene(scn, "report")
    entries = report["geometry"]["berwald"]["per_base_point"]
    for (_, sample), entry in zip(scn.samples, entries):
        gamma = geometry.chern_rund(scn.lagrangian, sample)
        assert np.max(np.abs(np.array(entry["affine_connection"]) - gamma)) <= 1e-12


def test_causal_on_nonfamily_warns():
    report, code = run_scene(load_scene(minkowski_scene()), "causal")
    assert code == 0
    assert any("family" in w for w in report["warnings"])


def test_sample_errors_recorded_not_fatal():
    doc = szabo_scene()
    doc["samples"] = [
        {"x": [0, 1, 0.5, 0.3], "xdot": [0.0, 1.0, 0.1, 0.1], "label": "beta-zero"},
        {"x": [0, 1, 0.5, 0.3], "xdot": [1.0, 1.0, 0.1, 0.1], "label": "good"},
    ]
    report, code = run_scene(load_scene(doc), "probe")
    adm = report["samples"][0]["admissibility"]
    assert not adm["in_A"] and adm["failure_reason"] is not None
    assert report["samples"][1]["admissibility"]["in_A"]


def test_report_evaluates_the_closed_form_once_per_base_point(monkeypatch):
    scn = load_scene_file(str(REPO / "scenes" / "szabo.json"))
    calls = []
    init = alphabeta.FamilyEval.__init__

    def counting(self, inst, x):
        calls.append(x)
        init(self, inst, x)

    monkeypatch.setattr(alphabeta.FamilyEval, "__init__", counting)
    report, _ = run_scene(scn, "report")
    assert len(calls) == len(scn.samples) == 2
    assert len(report["geometry"]["family_proposition"]["per_base_point"]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"lagrangian": {"catalog": "bogoslovsky"}},
        json.loads((REPO / "scenes" / "szabo.json").read_text()),
    ],
    ids=["bogoslovsky", "szabo.json"],
)
def test_report_family_entries_equal_the_public_functions(doc):
    scn = load_scene(doc)
    report, _ = run_scene(scn, "report")
    geo = report["geometry"]
    inst = scn.lagrangian
    for i, (_, sample) in enumerate(scn.samples):
        fit = alphabeta.check_berwald_condition(inst, sample.x)
        residuals = report["samples"][i]["residuals"]
        assert residuals["berwald_condition_fit"] == fit.residual
        assert residuals["fitted_H"] == fit.h
        cf = alphabeta.closed_form_ricci(inst, sample.x)
        prop = geo["family_proposition"]["per_base_point"][i]
        assert prop["f_scalar"] == cf.f_scalar
        assert prop["beta_wedge_dH_max"] == cf.wedge_max_abs
        assert prop["nonmetrizable"] == alphabeta.proposition_nonmetrizable(inst, sample.x)
        cc = alphabeta.classify_causal(inst, sample)
        causal = geo["causal"]["per_base_point"][i]
        assert causal["p_case"] == cc.p_case
        assert causal["det_zeta"] == cc.det_zeta
        assert causal["zeta_signature"] == list(cc.zeta_signature)
        assert causal["viable"] == cc.viable


def _singular_alpha_scene():
    return {
        "chart": {"dim": 2},
        "lagrangian": {
            "family": {
                "alpha": [["x0", "0"], ["0", "-1"]],
                "beta": ["1", "0"],
                "c": 1, "m": 0, "p": 2,
            }
        },
        "samples": [
            {"x": [0, 0], "xdot": [1, 0.3], "label": "singular"},
            {"x": [1, 0], "xdot": [1, 0.3], "label": "regular"},
        ],
    }


@pytest.mark.parametrize(
    "subcommand, sections",
    [
        ("obstruction", ["family_proposition"]),
        ("causal", ["causal"]),
        ("report", ["family_proposition", "causal"]),
    ],
)
def test_singular_alpha_is_a_per_point_error(subcommand, sections):
    report, _ = run_scene(load_scene(_singular_alpha_scene()), subcommand)
    geo = report["geometry"]
    for section in sections:
        singular, regular = geo[section]["per_base_point"]
        assert "alpha is singular" in singular["error"]
        assert "error" not in regular
    if subcommand == "report":
        # the chain's residuals at the singular point do not depend on alpha^-1
        block = report["samples"][0]
        assert "error" not in block and "skew_identity" in block["residuals"]
        assert "berwald_condition_fit" not in block["residuals"]
    if "causal" in geo:
        assert geo["causal"]["per_base_point"][1]["viable"] is True
        # one base point was not classified, so the instance is not called
        # viable; no classified point is non-viable, so there is no warning
        assert geo["causal"]["viable"] is False
        assert "warnings" not in report


def test_proposition_needs_the_berwald_condition():
    doc = {
        "chart": {"dim": 4, "aliases": ["u", "v", "x", "y"]},
        "lagrangian": {
            "family": {
                "alpha": [
                    ["0", "1", "0", "0"],
                    ["1", "0", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "1"],
                ],
                "beta": ["1+x*y", "0", "0.3*u", "0"],
                "c": 1, "m": 0, "p": 2,
            }
        },
        "samples": [{"x": [0.1, 0.2, 0.5, 0.3], "xdot": [1, 1, 0.1, 0.1]}],
    }
    scn = load_scene(doc)
    report, code = run_scene(scn, "report")
    assert report["geometry"]["berwald"]["is_berwald"] is False
    assert report["samples"][0]["residuals"]["berwald_condition_fit"] > 1e-3
    entry = report["geometry"]["family_proposition"]["per_base_point"][0]
    assert entry["nonmetrizable"] is False
    assert report["geometry"]["family_proposition"]["fires"] is False
    assert code == 0
    assert not alphabeta.proposition_nonmetrizable(scn.lagrangian, scn.samples[0][1].x)
    _, szabo_code = run_scene(load_scene_file(str(REPO / "scenes" / "szabo.json")), "report")
    assert szabo_code == 2


def _dsl(source):
    return {"dsl": {"source": source}}


_DSL_SAMPLE = {"x": [1, 0], "xdot": [1, 0.2]}
# exp(1000) overflows the value of L; exp(700) does not, but the products
# that build L's higher Taylor coefficients do
_OVERFLOW = (_dsl("exp(1000*x0)*dx0^2 - dx1^2"), _DSL_SAMPLE, "overflow")
_NON_FINITE = (_dsl("exp(700*x0)*dx0^2 - dx1^2"), _DSL_SAMPLE, "non-finite")
# s = beta(xdot)^2/alpha(xdot, xdot) = 1e-100, and s^-2 is the reciprocal of
# s^2 = 1e-200, whose Taylor coefficients divide by (s^2)^2, which underflows
_UNDERFLOW = (
    {"family": {
        "alpha": [["1", "0"], ["0", "1"]], "beta": ["1", "0"], "c": 1, "m": 0, "p": 2,
    }},
    {"x": [0, 0], "xdot": [1e-50, 1]},
    "division-by-zero",
)
_SIN_OF_INF = (
    _dsl("dx0^2 - dx1^2 + sin(x0*1e300*1e300)*dx1^2"), _DSL_SAMPLE, "non-finite"
)


@pytest.mark.parametrize(
    "subcommand, lagrangian, sample, reason",
    [
        ("probe", *_OVERFLOW),
        ("report", *_OVERFLOW),
        ("probe", *_NON_FINITE),
        ("report", *_NON_FINITE),
        ("probe", *_UNDERFLOW),
        ("report", *_UNDERFLOW),
        ("probe", *_SIN_OF_INF),
        ("report", *_SIN_OF_INF),
    ],
    ids=[
        "probe", "report", "probe-non-finite", "report-non-finite",
        "probe-underflow", "report-underflow", "probe-sin-of-inf", "report-sin-of-inf",
    ],
)
def test_overflow_is_a_tagged_sample_error(subcommand, lagrangian, sample, reason):
    doc = {"chart": {"dim": 2}, "lagrangian": lagrangian, "samples": [sample]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, code = run_scene(load_scene(doc), subcommand)
    assert code == 0
    adm = report["samples"][0]["admissibility"]
    assert adm["in_A"] is False
    assert adm["failure_reason"] == reason


def test_det_out_of_float_range_after_L_keeps_the_commutator_residual():
    # L = exp(360) * 0.96 ~ 2e156 is finite, and so are Gamma, N and the
    # curvature, but det g ~ -1e312 is not
    doc = {
        "chart": {"dim": 2},
        "lagrangian": _dsl("exp(360*x0)*(dx0^2 - dx1^2)"),
        "samples": [_DSL_SAMPLE],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from det or a jet product
        report, code = run_scene(load_scene(doc), "report")
        text = render_json(report)
    assert code == 0
    (sample,) = report["samples"]
    assert sample["admissibility"]["in_A"] is True
    assert "error" not in sample
    assert json.loads(text)["samples"][0]["metric"]["det"] is None
    assert sample["residuals"]["commutator"] == 0.0


def test_curvature_out_of_float_range_after_L_is_not_a_verdict(capsys, tmp_path):
    # L, g and Gamma (about 5e159) are finite; Gamma * Gamma in the curvature
    # and the affine Ricci tensor is not, and nan < tol decides nothing
    doc = {
        "chart": {"dim": 2},
        "lagrangian": _dsl("(1 + 1e160*x0)*dx0^2 - dx1^2"),
        "samples": [{"x": [0, 0], "xdot": [1, 0.1]}],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from a product or the curvature
        report, code = run_scene(load_scene(doc), "report")
        code_cli = cli.main(["report", str(_write_scene(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == code_cli == 0
    (sample,) = report["samples"]
    assert sample["admissibility"]["in_A"] is True
    assert sample["error"] == "overflow: the hh-curvature is out of float range"
    assert "ricci" not in sample and "residuals" not in sample
    assert report["geometry"]["berwald"]["is_berwald"] is True
    obstruction = report["geometry"]["obstruction"]
    assert obstruction["metrizability_necessary_condition_met"] is None
    assert obstruction["max_skew_abs"] is None
    (entry,) = obstruction["per_base_point"]
    assert entry["error"] == "overflow: the affine Ricci tensor is out of float range"
    out = capsys.readouterr().out
    assert "obstruction: not computed (overflow: the affine Ricci tensor" in out
    assert "NON-METRIZABLE" not in out


@pytest.mark.parametrize(
    "source, xdot, what",
    [
        # g (det about -1e-5) is finite; Gamma^0_00 = 0.5 * 1e5 * 1e306 is not
        ("(1e-5 + 1e306*x0)*dx0^2 - dx1^2", [1, 0.1], "the Chern-Rund connection"),
        # Gamma = 5e306 and the spray at xdot (1.7e307) are finite; the spray
        # at a witness direction 1.3 times longer is not
        ("(1 + 1e307*x0)*dx0^2 - dx1^2", [2.6, 0.1], "the spray"),
    ],
    ids=["connection", "witness-spray"],
)
def test_out_of_float_range_after_L_is_not_a_berwald_verdict(source, xdot, what):
    # a deviation of nan, or a max() that drops one, decides nothing
    doc = {
        "chart": {"dim": 2},
        "lagrangian": _dsl(source),
        "samples": [{"x": [0, 0], "xdot": xdot}],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from the chain or the witness
        report, code = run_scene(load_scene(doc), "report")
    assert code == 0
    (sample,) = report["samples"]
    assert sample["admissibility"]["in_A"] is True
    assert sample["error"] == "overflow: the hh-curvature is out of float range"
    detail = f"overflow: {what} is out of float range"
    berwald_section = report["geometry"]["berwald"]
    assert berwald_section["is_berwald"] is None
    assert berwald_section["max_gamma_deviation"] is None
    assert [e["error"] for e in berwald_section["per_base_point"]] == [detail]
    obstruction = report["geometry"]["obstruction"]
    assert obstruction["metrizability_necessary_condition_met"] is None
    assert [e["error"] for e in obstruction["per_base_point"]] == [detail]


# -- CLI ---------------------------------------------------------------------------


def _write_scene(tmp_path, doc, name="scene.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_cli_report_counterexample(tmp_path, capsys):
    p = _write_scene(tmp_path, szabo_scene())
    code = cli.main(["report", str(p), "--out", str(tmp_path / "out")])
    assert code == 2
    out = capsys.readouterr().out
    assert "NON-METRIZABLE" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metadata"]["subcommand"] == "report"


def test_cli_obstruction_not_computed_without_berwald_point(tmp_path, capsys):
    p = _write_scene(tmp_path, {"lagrangian": {"catalog": "nonberwald-flat"}})
    code = cli.main(["report", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "obstruction: not computed (no Berwald base point)" in out
    assert "NON-METRIZABLE" not in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["geometry"]["obstruction"]["max_skew_abs"] is None
    assert report["geometry"]["obstruction"]["metrizability_necessary_condition_met"] is None


def test_cli_berwald_not_computed_without_evaluated_point(tmp_path, capsys):
    doc = {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": "dx0^2 - exp(x0)*dx1^2"}},
        "samples": [{"x": [1e308, 0], "xdot": [1, 0.3], "label": "far"}],
    }
    p = _write_scene(tmp_path, doc)
    code = cli.main(["berwald", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "berwald: not computed (no base point evaluated)" in out
    assert "berwald: NO" not in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["geometry"]["berwald"]["max_gamma_deviation"] is None


def test_report_verdicts_are_null_when_no_base_point_was_evaluated(tmp_path, capsys):
    # the only sample overflows L: nothing was decided, so neither verdict is false
    doc = {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": "dx0^2 - exp(x0)*dx1^2"}},
        "samples": [{"x": [1e308, 0], "xdot": [1, 0.3], "label": "far"}],
    }
    p = _write_scene(tmp_path, doc)
    code = cli.main(["report", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "berwald: not computed (no base point evaluated)" in out
    assert "obstruction: not computed (no Berwald base point)" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    geo = report["geometry"]
    assert geo["berwald"]["is_berwald"] is None
    assert geo["obstruction"]["metrizability_necessary_condition_met"] is None
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, json.loads((SCHEMA_DIR / "report.schema.json").read_text()))


def test_cli_causal_inconclusive_when_a_point_is_not_classified(tmp_path, capsys):
    p = _write_scene(tmp_path, _singular_alpha_scene())
    code = cli.main(["causal", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "causal: inconclusive (1 of 2 base points not classified)" in out
    assert "NOT viable" not in out
    assert "warning" not in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["geometry"]["causal"]["viable"] is False


def _partial_evaluation_scene():
    # the near sample is in A; the far one leaves float range, so every
    # section is computed at one of the two base points
    return {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": "dx0^2 - exp(x0)*dx1^2"}},
        "samples": [
            {"x": [0.1, 0], "xdot": [1, 0.3], "label": "near"},
            {"x": [1e308, 0], "xdot": [1, 0.3], "label": "far"},
        ],
    }


def test_cli_berwald_inconclusive_when_a_point_is_not_evaluated(tmp_path, capsys):
    p = _write_scene(tmp_path, _partial_evaluation_scene())
    code = cli.main(["report", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "berwald: inconclusive (1 of 2 base points not evaluated)" in out
    assert "berwald: YES" not in out
    # the report's boolean keeps its meaning until the verdict type changes
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["geometry"]["berwald"]["is_berwald"] is True


def test_cli_obstruction_inconclusive_when_a_point_is_not_computed(tmp_path, capsys):
    p = _write_scene(tmp_path, _partial_evaluation_scene())
    code = cli.main(["report", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "obstruction: inconclusive (1 of 2 base points not computed)" in out
    assert "NON-METRIZABLE" not in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    obstruction = report["geometry"]["obstruction"]
    assert obstruction["metrizability_necessary_condition_met"] is False
    assert obstruction["max_skew_abs"] == 0.0


def test_cli_negative_verdict_needs_one_computed_point(tmp_path, capsys):
    doc = {
        "lagrangian": {"catalog": "nonberwald-flat"},
        "samples": [
            {"x": [0, 0, 1, 0], "xdot": [1, 1, 0.1, 0.1], "label": "near"},
            {"x": [0, 0, 1, 0], "xdot": [1, 1, 1e300, 1e300], "label": "far"},
        ],
    }
    p = _write_scene(tmp_path, doc)
    assert cli.main(["berwald", str(p), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [e["label"] for e in report["geometry"]["berwald"]["per_base_point"]
            if "error" in e] == ["far"]
    assert "berwald: NO (max deviation" in out


@pytest.mark.parametrize("name", catalog.names())
def test_summary_lines_give_one_line_per_printed_section(tmp_path, capsys, name):
    scn = load_scene({"lagrangian": {"catalog": name}})
    report, _ = run_scene(scn, "report")
    lines = summary_lines(report, scn.options)
    assert [line.split(":")[0] for line in lines] == [
        section.replace("_", " ") for section in report["geometry"]
    ]
    p = _write_scene(tmp_path, {"lagrangian": {"catalog": name}})
    cli.main(["report", str(p), "--out", str(tmp_path / "out")])
    # the header, the column heads and a row per sample come first
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["sample", "in_A", "in_T", "L", "signature"]
    start = 2 + len(report["samples"])
    assert out[start : start + len(lines)] == lines


def test_cli_minkowski_exit_zero(tmp_path):
    p = _write_scene(tmp_path, minkowski_scene())
    assert cli.main(["report", str(p), "--out", str(tmp_path / "out")]) == 0


def test_cli_causal_p_minus_two_warns(tmp_path, capsys):
    doc = {"lagrangian": {"catalog": "szabo-counterexample", "overrides": {"p": -2}}}
    p = _write_scene(tmp_path, doc)
    code = cli.main(["causal", str(p), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "NOT viable" in out
    assert "warning" in out


def test_cli_scene_error_exit_one(tmp_path, capsys):
    p = _write_scene(tmp_path, {"lagrangian": {"catalog": "nope"}})
    assert cli.main(["probe", str(p)]) == 1
    assert "scene error" in capsys.readouterr().err


def test_cli_threads_flag_is_a_usage_error(tmp_path):
    p = _write_scene(tmp_path, minkowski_scene())
    with pytest.raises(SystemExit) as err:
        cli.main(["report", str(p), "--out", str(tmp_path / "out"), "--threads", "2"])
    assert err.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param([], "the following arguments are required: subcommand", id="no-subcommand"),
        pytest.param(
            ["reprot", "SCENE"], "argument subcommand: invalid choice: 'reprot'",
            id="unknown-subcommand",
        ),
        pytest.param(["report"], "the following arguments are required: scene", id="no-scene"),
        pytest.param(
            ["report", "SCENE", "--threads", "2"], "unrecognized arguments: --threads 2",
            id="unknown-flag",
        ),
        pytest.param(
            ["report", "SCENE", "--spread", "0.5"], "unrecognized arguments: --spread 0.5",
            id="spread-has-no-flag",
        ),
        pytest.param(
            ["report", "SCENE", "--seed"], "argument --seed: expected one argument",
            id="flag-without-value",
        ),
        pytest.param(
            ["report", "SCENE", "--signature-convention"],
            "argument --signature-convention: expected one argument",
            id="convention-without-value",
        ),
        pytest.param(
            ["report", "SCENE", "--seed", "--directions", "3"],
            "argument --seed: expected one argument",
            id="flag-before-a-flag",
        ),
    ],
)
def test_usage_errors_exit_one(tmp_path, capsys, monkeypatch, argv, message):
    # exit code 2 is reserved for a proof of non-metrizability
    p = _write_scene(tmp_path, minkowski_scene())
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main([str(p) if a == "SCENE" else a for a in argv])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: finslergeo") and f"error: {message}" in stderr
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: finslergeo")


def test_every_scene_option_but_spread_has_a_flag(capsys):
    flags = {opt.field: opt.flag for opt in OPTIONS}
    assert [field for field, flag in flags.items() if flag is None] == ["spread"]
    with pytest.raises(SystemExit):
        cli.main(["report", "--help"])
    usage = capsys.readouterr().out
    for field, flag in flags.items():
        assert (f"{flag} VALUE" in usage) == (flag is not None), field
    assert "--spread" not in usage


@pytest.mark.parametrize(
    "flags",
    [["--signature-convention", "-+++"], ["--signature-convention=-+++"]],
    ids=["two-words", "equals"],
)
def test_cli_flag_value_may_start_with_a_dash(tmp_path, flags):
    p = _write_scene(tmp_path, minkowski_scene())
    assert cli.main(["probe", str(p), "--out", str(tmp_path / "out"), *flags]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metadata"]["signature_convention"] == "-+++"
    # L > 0 is spacelike under -+++
    assert [s["admissibility"]["in_T"] for s in report["samples"]] == [False, False]


@pytest.mark.parametrize(
    "flags, pointer",
    [
        (["--seed", "-1"], "/options/seed"),
        (["--directions", "0"], "/options/directions"),
        (["--directions", "1"], "/options/directions"),
        (["--tol-berwald", "-1"], "/options/tolerances/berwald"),
        (["--tol-sym", "nan"], "/options/tolerances/sym"),
        (["--tol-degenerate", "0"], "/options/tolerances/degenerate"),
        (["--tol-null", "-0.5"], "/options/tolerances/null"),
        (["--tol-sym", "inf"], "/options/tolerances/sym"),
        (["--directions", "abc"], "/options/directions"),
        (["--directions", "3.0"], "/options/directions"),
        (["--tol-sym", "x"], "/options/tolerances/sym"),
        (["--signature-convention", "foo"], "/options/signature_convention"),
    ],
)
def test_cli_flags_get_the_scene_option_checks(tmp_path, capsys, flags, pointer):
    p = _write_scene(tmp_path, szabo_scene())
    code = cli.main(["report", str(p), "--out", str(tmp_path / "out"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scene error: {pointer}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_negative_scene_seed_is_a_scene_error(tmp_path, capsys):
    p = _write_scene(tmp_path, szabo_scene(seed=-1))
    assert cli.main(["berwald", str(p), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("scene error: /options/seed: ")
    # the scene itself is invalid, whatever the flags say
    assert cli.main(["berwald", str(p), "--out", str(tmp_path / "out"), "--seed", "0"]) == 1


@pytest.mark.parametrize(
    "options, pointer",
    [
        ({"spread": math.inf}, "/options/spread"),
        ({"tolerances": {"sym": math.inf}}, "/options/tolerances/sym"),
        ({"tolerances": {"berwald": math.nan}}, "/options/tolerances/berwald"),
    ],
)
def test_non_finite_scene_options_are_scene_errors(options, pointer):
    # json.load reads Infinity and NaN; an infinite tolerance would pass
    # every test and be written to the report as null
    with pytest.raises(SceneError) as err:
        load_scene(json.loads(json.dumps(szabo_scene(**options))))
    assert err.value.pointer == pointer


def test_cli_missing_file_exit_one(tmp_path):
    assert cli.main(["probe", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("under", ["", "sub"])
def test_cli_out_at_or_under_a_regular_file_exit_one(tmp_path, capsys, under):
    p = _write_scene(tmp_path, minkowski_scene())
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / under if under else blocker
    assert cli.main(["probe", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize(
    "content, what",
    [(b'\xff\xfe{"a":1}', "UTF-8"), (b"[" * 200_000, "nesting")],
    ids=["not-utf8", "nested-too-deeply"],
)
def test_malformed_scene_files_are_scene_errors(tmp_path, capsys, content, what):
    p = tmp_path / "scene.json"
    p.write_bytes(content)
    with pytest.raises(SceneError) as err:
        load_scene_file(str(p))
    assert err.value.pointer == "" and "invalid JSON: " in str(err.value)
    assert cli.main(["probe", str(p), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("scene error: : invalid JSON: ")


def test_deeply_nested_dsl_source_is_a_scene_error(tmp_path, capsys):
    doc = minkowski_scene()
    doc["lagrangian"]["dsl"]["source"] = "(" * 199 + "dx0^2 - dx1^2" + ")" * 199
    with pytest.raises(SceneError) as err:
        load_scene(doc)
    assert err.value.pointer == "/lagrangian/dsl/source"
    assert "nested too deeply" in str(err.value)
    p = _write_scene(tmp_path, doc)
    assert cli.main(["probe", str(p), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("scene error: /lagrangian/dsl/source: ")


def test_long_dsl_sum_evaluates(tmp_path):
    # a left spine 1000 nodes deep; 900 evaluated before the walk was a loop
    doc = minkowski_scene()
    for terms in (900, 1000):
        doc["lagrangian"]["dsl"]["source"] = "dx0^2 - dx1^2 - dx2^2 - dx3^2" + " + x0" * terms
        p = _write_scene(tmp_path, doc)
        assert cli.main(["probe", str(p), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        # x0 is 0 at every sample, so L is that of Minkowski space
        assert [s["admissibility"]["L"] for s in report["samples"]] == [1.0, 0.0]


def test_cli_determinism_byte_identical(tmp_path):
    p = _write_scene(tmp_path, szabo_scene(seed=7))
    cli.main(["report", str(p), "--out", str(tmp_path / "a")])
    cli.main(["report", str(p), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_flag_texts_are_read_as_their_option_type(tmp_path):
    # int() and float() of the text: json.loads would reject both
    p = _write_scene(tmp_path, szabo_scene(seed=7))
    argv = ["berwald", str(p), "--out", str(tmp_path / "a"), "--tol-sym", ".5", "--seed", "007"]
    assert cli.main(argv) == 0
    meta = json.loads((tmp_path / "a" / "report.json").read_text())["metadata"]
    assert meta["seed"] == 7 and meta["tolerances"]["sym"] == 0.5


def test_cli_seed_flag_overrides_scene(tmp_path):
    p = _write_scene(tmp_path, szabo_scene(seed=7))
    cli.main(["berwald", str(p), "--out", str(tmp_path / "a"), "--seed", "11"])
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["metadata"]["seed"] == 11


def test_cli_calls_in_one_process_share_no_state(tmp_path, capsys):
    # the parser is built once; a flag of one call does not reach the next
    p = _write_scene(tmp_path, szabo_scene(seed=7))
    cli.main(["berwald", str(p), "--out", str(tmp_path / "a"), "--seed", "3"])
    cli.main(["berwald", str(p), "--out", str(tmp_path / "b")])
    seeds = [
        json.loads((tmp_path / d / "report.json").read_text())["metadata"]["seed"]
        for d in ("a", "b")
    ]
    assert seeds == [3, 7]
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == f"finslergeo {__version__}"
    with pytest.raises(SystemExit) as err:
        cli.main(["berwald", str(p), "--no-such-flag"])
    assert err.value.code == 1
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert cli.main(["berwald", str(p), "--out", str(tmp_path / "c")]) == 0


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )}
    done = subprocess.run(
        [sys.executable, "-m", "finslergeo", "--version"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0
    assert done.stdout.strip() == f"finslergeo {__version__}"


@pytest.mark.parametrize("scene, code", [("minkowski.json", 0), ("szabo.json", 2)])
def test_a_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(tmp_path, scene, code):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )}
    proc = subprocess.Popen(
        [sys.executable, "-m", "finslergeo", "report", str(REPO / "scenes" / scene),
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the run writes its first line
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert stderr == b""
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["samples"]


def test_a_run_without_stdout_keeps_the_exit_code(tmp_path, monkeypatch):
    # a process started with its stdout closed has sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["report", str(REPO / "scenes" / "szabo.json"), "--out", str(tmp_path)]) == 2
    assert (tmp_path / "report.json").exists()


def test_cli_out_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("FINSLER_OUT_DIR", str(target))
    p = _write_scene(tmp_path, minkowski_scene())
    cli.main(["probe", str(p)])
    assert (target / "report.json").exists()


def test_cli_tolerance_flags_reach_report(tmp_path):
    p = _write_scene(tmp_path, minkowski_scene())
    cli.main(
        [
            "probe", str(p), "--out", str(tmp_path / "a"),
            "--tol-degenerate", "1e-8", "--tol-null", "1e-9",
        ]
    )
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["metadata"]["tolerances"]["degenerate"] == 1e-8
    assert report["metadata"]["tolerances"]["null"] == 1e-9
