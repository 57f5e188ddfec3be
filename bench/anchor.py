"""The ROADMAP baseline table, reproduced by the benchmark.

Stage costs are best-of-k wall times, measured with tracing off, on the
default sample 0 of ``scenes/szabo.json``: the cumulative cost of one
order-4 evaluation up to L, g^-1, Gamma and the curvature, then
``commutator_check``, ``detect_berwald`` and ``obstruction`` with 16
directions, and one ``JetSpace(8, 4)`` build.  Work counts are taken with
the tracer installed, over ``scene.run_scene`` of each committed fixture at
its own seed (0), so scene loading is not counted.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from finslergeo import berwald, geometry, jets, scene

REPEATS = 3
DIRECTIONS = 16
FIXTURES = ("szabo", "minkowski")


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def stage_costs(root: Path, repeats: int = REPEATS) -> dict[str, float]:
    """Milliseconds per stage, as named in the ROADMAP baseline."""
    sc = scene.load_scene_file(str(Path(root) / "scenes" / "szabo.json"))
    lag = sc.lagrangian
    s = sc.samples[0][1]
    cum = {"L": [], "ginv": [], "gamma": [], "curvature": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        ev = geometry._Eval(lag, s, 4)
        cum["L"].append(time.perf_counter() - t0)
        ev.g_inv_jets
        cum["ginv"].append(time.perf_counter() - t0)
        ev.gamma_jets
        cum["gamma"].append(time.perf_counter() - t0)
        ev.curvature
        cum["curvature"].append(time.perf_counter() - t0)
    field = geometry.log_sqrt_det_metric_field(lag)
    costs = {
        "anchor.L_ms": min(cum["L"]),
        "anchor.upto_ginv_ms": min(cum["ginv"]),
        "anchor.upto_gamma_ms": min(cum["gamma"]),
        "anchor.upto_curvature_ms": min(cum["curvature"]),
        "anchor.commutator_ms": _best_of(
            lambda: geometry.commutator_check(lag, s, field), repeats
        ),
        "anchor.detect_berwald_ms": _best_of(
            lambda: berwald.detect_berwald(
                lag, s.x, s.xdot, count=DIRECTIONS, rng=np.random.default_rng([0, 0])
            ),
            repeats,
        ),
        "anchor.obstruction_ms": _best_of(
            lambda: berwald.obstruction(lag, s.x, s.xdot, count=DIRECTIONS, rng_seed=[0, 0]),
            repeats,
        ),
        "anchor.jetspace_8_4_ms": _best_of(lambda: jets.JetSpace(8, 4), repeats),
    }
    return {k: 1e3 * v for k, v in costs.items()}


def fixture_counts(root: Path, tracer) -> dict[str, float]:
    """Jet multiplies and evaluations of one report per committed fixture."""
    out = {}
    for stem in FIXTURES:
        tracer.op_id = f"anchor-load-{stem}"
        sc = scene.load_scene_file(str(Path(root) / "scenes" / f"{stem}.json"))
        tracer.op_id = f"anchor-{stem}"
        scene.run_scene(sc, "report")
        counts = tracer.totals([tracer.op_id])
        out[f"anchor.{stem}_mul_count"] = counts["jets.mul"]
        out[f"anchor.{stem}_eval_count"] = sum(
            counts[f"geometry.eval_o{k}"] for k in range(1, 5)
        )
    return out
