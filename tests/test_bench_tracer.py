"""The benchmark's layer tracer still finds every function it wraps."""

import importlib.util
import sys
from pathlib import Path

import pytest

import finslergeo
from finslergeo import alphabeta, berwald, catalog, cli, expr, geometry, jets, scene  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("finslergeo_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


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
