"""The benchmark's layer tracer still finds every function it wraps, and
its anchor still runs on the internals it reads."""

import importlib.util
import sys
from pathlib import Path

import pytest

import finslergeo
from finslergeo import alphabeta, berwald, catalog, cli, expr, geometry, jets, scene  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_module(name):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"finslergeo_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load_bench_module("tracer")


def test_every_trace_target_resolves(tracer):
    targets = [(module, path) for module, path, _ in tracer.SPAN_TARGETS]
    targets += list(tracer.MUL_TARGETS) + [tracer.EVAL_INIT_TARGET]
    for module, path in targets:
        owner, attr = tracer._resolve(finslergeo, module, path)
        assert tracer._own_attr(owner, attr) is not None, f"{module}.{path}"


def test_tracer_installs_and_uninstalls_cleanly(tracer):
    t = tracer.Tracer(finslergeo)
    t.install()
    try:
        assert t.missing == []
        assert len(tracer.wrapped_targets(finslergeo)) == len(tracer.SPAN_TARGETS) + 3
    finally:
        t.uninstall()
    assert tracer.wrapped_targets(finslergeo) == []


def test_the_anchor_stage_costs_run():
    # the anchor builds `_Eval(lag, sample, 4)` and reads its g_inv_jets,
    # gamma_jets and curvature, which a benchmark run would otherwise be the
    # first to find broken
    costs = _load_bench_module("anchor").stage_costs(ROOT, repeats=1)
    assert set(costs) == {
        "anchor.L_ms", "anchor.upto_ginv_ms", "anchor.upto_gamma_ms", "anchor.upto_curvature_ms",
        "anchor.commutator_ms", "anchor.detect_berwald_ms", "anchor.obstruction_ms",
        "anchor.jetspace_8_4_ms",
    }
    assert all(0.0 < ms < float("inf") for ms in costs.values())
