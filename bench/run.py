"""finslergeo benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload report-catalog --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
the program untouched; with ``--trace 1`` it installs the layer tracer
(``tracer.py``) and reports per-layer metrics instead.  Human-readable lines
and a provenance record come first; the last line of standard output is the
JSON result.  See README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def import_program():
    """Import finslergeo from this checkout's src/, or None when absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import finslergeo
    except ImportError:
        return None
    if Path(finslergeo.__file__).resolve().parent.parent != src.resolve():
        return None
    return finslergeo


# -- provenance --------------------------------------------------------------


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, tail_pct, tail_n) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
    }


# -- measurement ----------------------------------------------------------------


class Loop:
    """Outcome of one closed-loop phase: op times and failures."""

    def __init__(self):
        self.times: dict = {}  # op -> its wall times, one per cycle
        self.op_ids: list = []  # tracer operation ids of the ops that passed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes: list[int] = []

    def all_ms(self) -> list[float]:
        """Every timed operation's wall time, in ms."""
        return [1e3 * t for ts in self.times.values() for t in ts]


def closed_loop(wl, state, seconds: float, tracer=None) -> Loop:
    """Run whole cycles of the workload's operations, one at a time, until
    `seconds` have passed.  Only the operation is timed; its output check
    runs after the clock stops."""
    loop = Loop()
    ops = range(len(state))
    start = time.perf_counter()
    seq = 0
    while True:
        for op in ops:
            seq += 1
            loop.attempted += 1
            try:
                if tracer is not None:
                    tracer.op_id = seq
                    span = tracer.open("op")
                t0 = time.perf_counter()
                try:
                    result = wl.run(state, op)
                finally:
                    dt = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.close(span)
                        tracer.op_id = None
                problems = wl.check(state, op, result)
            except Exception:  # one failed operation must not end the run
                loop.failed += 1
                loop.problems.append(f"op {op}: {traceback.format_exc(limit=3)}")
                continue
            if problems:
                loop.failed += 1
                loop.problems.extend(problems)
                continue
            loop.times.setdefault(op, []).append(dt)
            loop.op_ids.append(seq)
            path = wl.report_path(op)
            loop.report_bytes.append(path.stat().st_size if path is not None else 0)
        if time.perf_counter() - start >= seconds:
            return loop


def setup_times(args, workdir: Path) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh processes, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), args.workload,
             str(args.seed), str(workdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def untraced(args, pkg, wl, workdir):
    import tracer as tracermod
    from stats import tail

    problems = [f"wrapped before an untraced run: {t}" for t in tracermod.wrapped_targets(pkg)]
    setups = setup_times(args, workdir)
    state = wl.load()
    problems += wl.check_run(state)
    loop = closed_loop(wl, state, args.seconds)
    problems += [f"wrapped after an untraced run: {t}" for t in tracermod.wrapped_targets(pkg)]
    times = loop.all_ms()
    tail_ms, pct, n = tail(times)
    samples = sum(wl.samples(state, op) * len(ts) for op, ts in loop.times.items())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p75": (statistics.quantiles(times, n=4)[2] if len(times) > 1 else times[0], "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "samples_per_s": (samples / (1e-3 * sum(times)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"set-up: median of {len(setups)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setups) + " s",
        f"op_ms_tail is percentile {pct:.1f} of {n} timed operations",
        f"op_ms_p50 = {statistics.median(times):.6g} ms (not a gated metric, see README.md)",
    ]
    return loop, problems, metrics, notes, (pct, n)


def traced(args, pkg, wl, workdir):
    import anchor
    import tracer as tracermod
    from finslergeo import jets
    from stats import tail

    problems = [f"wrapped before tracing: {t}" for t in tracermod.wrapped_targets(pkg)]
    state = wl.load()
    costs = anchor.stage_costs(ROOT)
    half = args.seconds / 2.0
    base = closed_loop(wl, state, half)

    tr = tracermod.Tracer(pkg)
    tr.install()
    try:
        # set-up again, traced, with the jet tables rebuilt
        getattr(jets.jet_space, "cache_clear", lambda: None)()
        tr.op_id = "setup"
        span = tr.open("setup")
        state = wl.load()
        tr.close(span)
        loop = closed_loop(wl, state, half, tracer=tr)
        # the first operation again: its exact counts must repeat
        tr.op_id = "replay"
        wl.run(state, 0)
        tr.op_id = None
        counts = anchor.fixture_counts(ROOT, tr)
    finally:
        tr.uninstall()
    problems += [f"wrapped after tracing: {t}" for t in tracermod.wrapped_targets(pkg)]
    # lazy jet-table builds depend on the cache, not on the operation
    first_counts, replay_counts = tr.totals([loop.op_ids[0]]), tr.totals(["replay"])
    for c in (first_counts, replay_counts):
        c.pop("jets.space_build", None)
    if first_counts != replay_counts:
        problems.append(f"exact counts of a replayed operation differ: {first_counts} != {replay_counts}")

    cycle = loop.op_ids[: len(state)]
    cycle_samples = sum(wl.samples(state, op) for op in range(len(state)))
    n_ops = len(loop.op_ids)
    self_s = tr.self_times(loop.op_ids)
    setup_s = tr.self_times(["setup"])
    c = tr.totals(cycle)

    def per_op(name):
        return self_s.get(name, 0.0) / n_ops

    def per_cycle_op(name):
        return c[name] / len(cycle)

    attempted, accepted = c["berwald.dirs_attempted"], c["berwald.dirs_accepted"]
    evals = sum(c[f"geometry.eval_o{k}"] for k in range(1, 5))
    metrics = {
        "berwald.detect_s": (per_op("berwald.detect"), "s"),
        "berwald.obstruction_s": (per_op("berwald.obstruction"), "s"),
        "berwald.nonmetricity_s": (per_op("berwald.nonmetricity"), "s"),
        "berwald.sample_dirs_s": (per_op("berwald.sample_dirs"), "s"),
        "berwald.dirs_attempted": (per_cycle_op("berwald.dirs_attempted"), "count"),
        "berwald.dirs_accepted": (per_cycle_op("berwald.dirs_accepted"), "count"),
        "berwald.dirs_accept_ratio": (accepted / attempted if attempted else 0.0, "ratio"),
        "berwald.evals_per_sample": (evals / cycle_samples, "count"),
        "geometry.eval_o2_count": (per_cycle_op("geometry.eval_o2"), "count"),
        "geometry.eval_o3_count": (per_cycle_op("geometry.eval_o3"), "count"),
        "geometry.eval_o4_count": (per_cycle_op("geometry.eval_o4"), "count"),
        "jets.mul_count": (per_cycle_op("jets.mul"), "count"),
        "jets.mul_s": (per_op("jets.mul"), "s"),
        "geometry.ginv_s": (per_op("geometry.ginv"), "s"),
        "geometry.L_s": (per_op("geometry.L"), "s"),
        "geometry.probe_s": (per_op("geometry.probe"), "s"),
        "geometry.metric_s": (per_op("geometry.metric"), "s"),
        "geometry.chern_rund_s": (per_op("geometry.chern_rund"), "s"),
        "geometry.curvature_s": (per_op("geometry.curvature"), "s"),
        "geometry.commutator_s": (per_op("geometry.commutator"), "s"),
        "jets.space_build_count": (tr.totals(["setup"])["jets.space_build"], "count"),
        "jets.space_build_s": (setup_s.get("jets.space_build", 0.0), "s"),
        "catalog.get_s": (setup_s.get("catalog.get", 0.0), "s"),
        "scene.load_s": (setup_s.get("scene.load", 0.0), "s"),
        "expr.eval_count": (per_cycle_op("expr.eval"), "count"),
        "expr.eval_s": (per_op("expr.eval"), "s"),
        "alphabeta.s": (per_op("alphabeta"), "s"),
        "scene.run_s": (per_op("scene.run"), "s"),
        "scene.render_s": (per_op("scene.render"), "s"),
        "scene.report_bytes": (statistics.mean(loop.report_bytes), "B"),
        "cli.main_s": (per_op("cli.main"), "s"),
        "trace.overhead_frac": (
            statistics.median(loop.all_ms()) / statistics.median(base.all_ms()) - 1.0, "ratio"
        ),
    }
    for name, value in {**costs, **counts}.items():
        metrics[name] = (value, "count" if name.endswith("_count") else "ms")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tr.write(trace_path)
    _, pct, n = tail(base.all_ms())
    notes = [
        f"traced {n_ops} operations against {sum(map(len, base.times.values()))} untraced; "
        f"spans in {trace_path}",
        f"trace targets not found (their metrics read 0): {', '.join(tr.missing) or 'none'}",
        "counts are per operation over the first traced cycle of "
        f"{len(cycle)} operations",
    ]
    merged = base
    merged.attempted += loop.attempted
    merged.failed += loop.failed
    merged.problems += loop.problems
    return merged, problems, metrics, notes, (pct, n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_program()
    if pkg is None:
        print(f"error: finslergeo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        wl.generate()
        run = traced if args.trace else untraced
        loop, problems, metrics, notes, (pct, n) = run(args, pkg, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = problems + loop.problems
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.attempted} operations, {loop.failed} failed "
          f"(failed_frac {loop.failed / loop.attempted:.6g})")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for p in problems[:20]:
        print(f"check failed: {p}")
    print("provenance " + json.dumps(provenance(args, pct, n), sort_keys=True))
    result = {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
