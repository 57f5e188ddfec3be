"""Smoke test of tools/report_digests.py, the byte-identity check of reports,
printed summaries, chain arrays and the stage jets of each scene's block:
it runs, every line it prints has its documented shape, the chain calls
give the same digests in either call order, and its mixed-rows scene
reports its sample in A as that sample alone."""

import contextlib
import importlib.util
import io
import json
import re
from collections import Counter
from pathlib import Path

from finslergeo import cli
from finslergeo.scene import SUBCOMMANDS

REPO = Path(__file__).resolve().parents[1]

_DIGEST = r"[0-9a-f]{64}"
_REPORT = re.compile(
    rf"(?P<scene>\S+) (?P<sub>{'|'.join(SUBCOMMANDS)}) (?P<seed>\d+) [012] ({_DIGEST}|-)"
)
_SUMMARY = re.compile(
    rf"(?P<scene>\S+) (?P<sub>{'|'.join(SUBCOMMANDS)}) (?P<seed>\d+) summary {_DIGEST}"
)
_CALL = re.compile(
    rf"(?P<scene>\S+) (?P<kind>chain-rev|chain|L|family|witness|stage):(?P<call>\S+)"
    rf" (?P<label>\S+)"
    rf" (?P<digest>{_DIGEST}|\w+)"
)


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "report_digests", REPO / "tools" / "report_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_lines_have_their_shape(capsys):
    tool = _load_tool()
    assert tool.main([str(REPO)]) == 0
    lines = capsys.readouterr().out.splitlines()
    scenes = [name for name, _ in tool.scene_documents(REPO)]
    shapes = (_REPORT, _SUMMARY, _CALL)
    reports, summaries, calls = (
        [m for m in map(shape.fullmatch, lines) if m] for shape in shapes
    )
    assert len(reports) + len(summaries) + len(calls) == len(lines), [
        line for line in lines if not any(shape.fullmatch(line) for shape in shapes)
    ]
    # a report line and its summary line per scene, seed and subcommand, in
    # that order, before the calls
    runs = [(name, seed, sub) for name in scenes for seed in tool.SEEDS for sub in SUBCOMMANDS]
    assert [(m["scene"], int(m["seed"]), m["sub"]) for m in reports] == runs
    assert [(m["scene"], int(m["seed"]), m["sub"]) for m in summaries] == runs
    assert lines[: 2 * len(runs)] == [
        m.group(0) for pair in zip(reports, summaries) for m in pair
    ]
    kinds = Counter(m["kind"] for m in calls)
    chain_calls = {m["call"] for m in calls if m["kind"] == "chain"}
    assert chain_calls == {
        "metric", "spray", "nonlinear_connection", "chern_rund", "hh_curvature",
        "commutator_check", "vertical_derivative",
    }
    assert {m["call"] for m in calls if m["kind"] == "L"} == {"order2", "order4", "witness-block"}
    assert kinds["L"] * 7 == kinds["chain"] * 3
    assert {m["call"] for m in calls if m["kind"] == "witness"} == {"directions"}
    assert kinds["witness"] * 7 == kinds["chain"]
    # the reverse pass gives each call at each sample its forward digest
    forward = {
        (m["scene"], m["call"], m["label"]): m["digest"] for m in calls if m["kind"] == "chain"
    }
    reverse = {
        (m["scene"], m["call"], m["label"]): m["digest"] for m in calls if m["kind"] == "chain-rev"
    }
    assert kinds["chain-rev"] == kinds["chain"] == len(forward)
    assert reverse == forward
    assert kinds["family"] > 0
    # one line per stage of each scene's block
    stages = [(m["scene"], m["call"], m["label"]) for m in calls if m["kind"] == "stage"]
    assert stages == [(name, stage, "block") for name in scenes for stage in tool.STAGES]
    assert {m["scene"] for m in calls} == set(scenes)


def test_a_row_in_a_mixed_block_reports_as_its_sample_alone(tmp_path):
    # the mixed-rows scene's sample in A sits between a sample whose order-4
    # L is not finite and one whose L leaves the domain of ln: its report
    # block is that of a scene of that sample alone
    tool = _load_tool()
    doc = tool.MIXED_ROWS_SCENE
    alone = dict(doc, samples=[doc["samples"][1]])
    blocks = []
    for name, scene in (("mixed", doc), ("alone", alone)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scene), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["report", str(path), "--out", str(tmp_path / name)])
        blocks.append(json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8")))
    mixed, single = blocks
    reasons = [s["admissibility"]["failure_reason"] for s in mixed["samples"]]
    assert reasons == ["non-finite", None, "log-domain"]
    assert mixed["samples"][1] == single["samples"][0]
    assert "spray" in single["samples"][0] and "error" not in single["samples"][0]
