"""Tests for the benchmark itself: inputs, checks, statistics, tracing.

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stats
import tracer as tracermod
import workloads
from finslergeo import geometry

ROOT = Path(__file__).resolve().parent.parent


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    made = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / label
        d.mkdir()
        workloads.WORKLOADS[name](ROOT, seed, d).generate()
        made[label] = _files(d)
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]


def test_chain_refuses_the_stated_share(tmp_path):
    wl = workloads.ChainPointwise(ROOT, 3, tmp_path)
    wl.generate()
    ops = wl.load()
    families = 4  # bogoslovsky, kropina, nonberwald-flat, szabo-counterexample
    per_entry = 2 * workloads.CHAIN_PERTURBATIONS
    refused = 2 * families * workloads.CHAIN_REFUSED_PER_SAMPLE
    assert len(ops) == 7 * per_entry + refused == 72
    assert sum(not in_A for _, _, in_A, _ in ops) == refused
    for lag, sample, in_A, _ in ops:
        verdict = geometry.probe_admissibility(lag, sample)
        assert verdict.in_A == in_A
        assert in_A or verdict.failure_reason


def test_report_check_rejects_corrupted_reports(tmp_path):
    wl = workloads.ReportCatalog(ROOT, 0, tmp_path)
    wl.generate()
    state = wl.load()
    op = next(i for i, p in enumerate(wl.scene_paths()) if p.name.endswith("minkowski.json"))
    exit_code = wl.run(state, op)
    assert wl.check(state, op, exit_code) == []
    report = json.loads(wl.report_path(op).read_text())
    want = wl.expect[op]
    assert workloads.check_report(report, exit_code, want) == []
    assert workloads.check_report(report, 2, want)
    flipped = json.loads(json.dumps(report))
    flipped["geometry"]["berwald"]["is_berwald"] = False
    assert workloads.check_report(flipped, exit_code, want)
    skewed = json.loads(json.dumps(report))
    skewed["geometry"]["obstruction"]["max_skew_abs"] = 1e-3
    assert workloads.check_report(skewed, exit_code, want)


def test_szabo_expectation_pins_skew_and_exit_code(tmp_path):
    wl = workloads.ReportCatalog(ROOT, 0, tmp_path)
    wl.generate()
    op = next(i for i, p in enumerate(wl.scene_paths()) if p.name.endswith("szabo.json"))
    want = wl.expect[op]
    assert want.skew == 2.0 and want.exit_code == 2 and want.is_berwald
    report = {"geometry": {"berwald": {"is_berwald": True}, "obstruction": {"max_skew_abs": 2.0}}}
    assert workloads.check_report(report, 2, want) == []
    assert workloads.check_report(report, 0, want)
    report["geometry"]["obstruction"]["max_skew_abs"] = 1.5
    assert workloads.check_report(report, 2, want)


def test_tail_percentile_arithmetic():
    values = [float(v) for v in range(1, 101)]
    assert stats.tail(values) == (90.0, 90.0, 100)  # ten values beyond 90
    assert stats.tail(list(reversed(values)))[0] == 90.0
    assert stats.tail(values[:20]) == (10.0, 50.0, 20)
    assert stats.tail(values[:19]) == (10.0, 50.0, 19)  # the median
    assert stats.tail([4.0]) == (4.0, 50.0, 1)
    with pytest.raises(ValueError):
        stats.tail([])


def test_self_times_subtract_children_and_multiplies():
    tr = tracermod.Tracer(pkg=None)
    tr.spans = [
        ["op", 0.0, 10.0, -1, 0, 1.0],
        ["a", 1.0, 5.0, 0, 0, 2.0],
        ["b", 2.0, 3.0, 1, 0, 0.0],
        ["a", 6.0, 7.0, 0, 1, 0.0],
    ]
    tr.mul_s[0] = 3.0
    assert tr.self_times([0]) == {"op": 5.0, "a": 1.0, "b": 1.0, "jets.mul": 3.0}


def _chain_op_counts(tr, wl, state, op_id):
    tr.op_id = op_id
    wl.run(state, 0)
    tr.op_id = None
    return tr.totals([op_id])


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    import finslergeo

    wl = workloads.ChainPointwise(ROOT, 0, tmp_path)
    wl.generate()
    state = wl.load()
    assert tracermod.wrapped_targets(finslergeo) == []
    tr = tracermod.Tracer(finslergeo)
    tr.install()
    try:
        assert tr.missing == []
        assert len(tracermod.wrapped_targets(finslergeo)) == len(list(tracermod._all_targets()))
        first = _chain_op_counts(tr, wl, state, "first")
        second = _chain_op_counts(tr, wl, state, "second")
    finally:
        tr.uninstall()
    assert tracermod.wrapped_targets(finslergeo) == []
    assert first["jets.mul"] > 0 and first == second


def _run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs_print_every_declared_metric_and_counts_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "chain-pointwise", "--seed", "5", "--seconds", "1"]
    plain = _result(_run(*args, "--trace", "0"))
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    first = _result(_run(*args, "--trace", "1"))
    second = _result(_run(*args, "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == second["metrics"][name]["value"], name


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "chain-pointwise", "--seed", "0", "--seconds", "1", "--trace", "0",
                root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_quartile_spread_is_relative_to_the_median():
    # statistics.quantiles (exclusive): q1 = 2.75, q2 = 5.5, q3 = 8.25
    assert stats.quartile_spread([float(v) for v in range(1, 11)]) == pytest.approx(1.0)
