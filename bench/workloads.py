"""Benchmark workloads: seeded inputs, the timed operation, output checks.

Each workload has three steps.  ``generate`` (benchmark process only) makes
the inputs from the seed and writes them to the work directory.  ``load`` is
the set-up a user pays in a fresh process: it loads the scenes and makes one
``geometry.hh_curvature`` call, which builds the jet tables.  ``run`` is one
timed operation and ``check`` validates its outputs outside the timed region.
The state ``load`` returns holds one entry per operation of a cycle; an
operation is an index into it.

The seed goes only into the generated inputs; the program sees files and
samples, never the seed itself (except as the scene's own ``options.seed``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from finslergeo import catalog, cli, expr, geometry, scene
from finslergeo.defs import FamilyInstance, TangentSample
from finslergeo.oracle import fd_partial

DIRECTIONS = 16
FIXTURES = ("szabo.json", "minkowski.json")
CATALOG_SCENES = ("schwarzschild", "conformally-flat", "bogoslovsky", "kropina", "nonberwald-flat")
# Verdict magnitudes: skews of Levi-Civita Ricci tensors are ~1e-17 today.
TOL_SKEW_ZERO = 1e-9
TOL_SKEW_VALUE = 1e-6
# Identity residuals are ~2.4e-13 at worst today; this keeps them in that class.
TOL_IDENTITY = 1e-12
TOL_ORACLE = 1e-6

CHAIN_PERTURBATIONS = 4  # in-A samples per catalog default sample
CHAIN_REFUSED_PER_SAMPLE = 2  # beta(xdot) = 0 samples per family default sample
CHAIN_SPREAD = 0.02

DIM6 = 6
DIM6_BASE_POINTS = 2


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# -- report workloads ------------------------------------------------------------


@dataclass(frozen=True)
class ReportExpectation:
    """What a scene's report must show: Berwald verdict, skew, exit code."""

    is_berwald: bool
    skew: float | None = None  # expected max_skew_abs, None: not checked
    exit_code: int | None = None  # None: not checked
    symmetric_samples: bool = False  # every sample's skew_ricci is ~0


def check_report(report: dict, exit_code: int, want: ReportExpectation) -> list[str]:
    """Problems found in one report against its expectation (empty: correct)."""
    problems = []
    geo = report.get("geometry", {})
    berwald = geo.get("berwald", {})
    if berwald.get("is_berwald") is not want.is_berwald:
        problems.append(f"is_berwald {berwald.get('is_berwald')!r} != {want.is_berwald!r}")
    if want.skew is not None:
        got = geo.get("obstruction", {}).get("max_skew_abs")
        tol = TOL_SKEW_ZERO if want.skew == 0.0 else TOL_SKEW_VALUE * abs(want.skew)
        if got is None or not abs(got - want.skew) <= tol:
            problems.append(f"max_skew_abs {got!r} != {want.skew!r}")
    if want.exit_code is not None and exit_code != want.exit_code:
        problems.append(f"exit code {exit_code} != {want.exit_code}")
    if want.symmetric_samples:
        for s in report.get("samples", []):
            skew = s.get("skew_ricci")
            if skew is None or not np.max(np.abs(skew)) <= TOL_SKEW_ZERO:
                problems.append(f"sample {s.get('label')}: Ricci is not symmetric")
    return problems


class ReportWorkload:
    """Operation: an in-process ``finslergeo report <scene> --out <dir>``."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = Path(root)
        self.seed = seed
        self.workdir = Path(workdir)
        self.expect: list[ReportExpectation] = []

    def scene_paths(self) -> list[Path]:
        return sorted(self.workdir.glob("scene-*.json"))

    def out_dir(self, op: int) -> Path:
        return self.workdir / f"out-{op}"

    def load(self):
        scenes = [scene.load_scene_file(str(p)) for p in self.scene_paths()]
        first = scenes[0]
        geometry.hh_curvature(first.lagrangian, first.samples[0][1])
        return scenes

    def samples(self, state, op: int) -> int:
        return len(state[op].samples)

    def run(self, state, op: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["report", str(self.scene_paths()[op]), "--out", str(self.out_dir(op))])

    def report_path(self, op: int) -> Path:
        return self.out_dir(op) / "report.json"

    def check(self, state, op: int, exit_code: int) -> list[str]:
        report = json.loads(self.report_path(op).read_text(encoding="utf-8"))
        return check_report(report, exit_code, self.expect[op])

    def check_run(self, state) -> list[str]:
        return []


class ReportCatalog(ReportWorkload):
    """The two committed fixture scenes plus five catalog scenes, 16 directions,
    ``options.seed`` = the workload seed."""

    name = "report-catalog"

    def generate(self) -> None:
        docs = []
        for fixture in FIXTURES:
            doc = json.loads((self.root / "scenes" / fixture).read_text(encoding="utf-8"))
            docs.append((fixture.removesuffix(".json"), doc))
        for name in CATALOG_SCENES:
            docs.append((name, {"lagrangian": {"catalog": name}}))
        for i, (stem, doc) in enumerate(docs):
            opts = doc.setdefault("options", {})
            opts["directions"] = DIRECTIONS
            opts["seed"] = self.seed
            _write_json(self.workdir / f"scene-{i}-{stem}.json", doc)
            self.expect.append(self._expectation(doc))

    @staticmethod
    def _expectation(doc) -> ReportExpectation:
        lag = doc["lagrangian"]
        if "catalog" not in lag:
            # the Minkowski fixture: a quadratic, hence Berwald and metrizable
            return ReportExpectation(is_berwald=True, skew=0.0, exit_code=0)
        entry = catalog.get(lag["catalog"], lag.get("overrides"))
        expected = entry.expected
        if "half_skew_magnitude" in expected:
            # Szabo counterexample: skew |p/(p-1)|, proven non-metrizable
            return ReportExpectation(
                is_berwald=expected["is_berwald"],
                skew=expected["half_skew_magnitude"],
                exit_code=2,
            )
        if expected["is_berwald"]:
            return ReportExpectation(is_berwald=True, skew=0.0, exit_code=0)
        # nonberwald-flat: its summary says NON-METRIZABLE with exit code 0, a
        # known defect that is neither asserted nor hidden (see README.md)
        return ReportExpectation(is_berwald=False)


class ReportDim6(ReportWorkload):
    """One seeded dim-6 conformally flat DSL scene with a few base points."""

    name = "report-dim6"

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, DIM6])
        a, b = (float(v) for v in np.round(rng.uniform(0.1, 0.3, size=2), 6))
        fiber = " - ".join(f"dx{k}^2" for k in range(1, DIM6))
        source = f"exp({a!r}*x1*x2 + {b!r}*x4)*(dx0^2 - {fiber})"
        samples = []
        for i in range(DIM6_BASE_POINTS):
            x = np.round(rng.uniform(-0.5, 0.5, size=DIM6), 6)
            xdot = np.round(np.concatenate([[1.0], rng.uniform(-0.2, 0.2, size=DIM6 - 1)]), 6)
            samples.append({"x": x.tolist(), "xdot": xdot.tolist(), "label": f"p{i}"})
        doc = {
            "chart": {"dim": DIM6},
            "lagrangian": {"dsl": {"source": source}},
            "samples": samples,
        }
        _write_json(self.workdir / "scene-0-dim6.json", doc)
        self.expect = [
            ReportExpectation(is_berwald=True, skew=0.0, exit_code=0, symmetric_samples=True)
        ]


# -- the pointwise chain ------------------------------------------------------------


@dataclass(frozen=True)
class ChainResult:
    verdict: geometry.AdmissibilityVerdict
    metric: geometry.MetricValue | None = None
    gamma: np.ndarray | None = None
    curvature: geometry.CurvatureValue | None = None
    commutator: float | None = None


def _beta_covector(inst: FamilyInstance, x) -> np.ndarray:
    return np.array([float(expr.eval(b, list(x), inst.params)) for b in inst.beta])


class ChainPointwise:
    """Operation: one distinct tangent sample through the public chain
    probe_admissibility -> metric -> chern_rund -> hh_curvature ->
    commutator_check(log_sqrt_det_metric_field).

    Samples are seeded perturbations of every catalog entry's default
    samples; on family entries a fixed share has beta(xdot) = 0, which lies
    outside A and must be refused with a reason.
    """

    name = "chain-pointwise"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = Path(root)
        self.seed = seed
        self.workdir = Path(workdir)

    @property
    def path(self) -> Path:
        return self.workdir / "chain-samples.json"

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        items = []
        for name in catalog.names():
            entry = catalog.get(name)
            lag = entry.lagrangian
            for s in entry.default_samples:
                for _ in range(CHAIN_PERTURBATIONS):
                    x = s.x + CHAIN_SPREAD * max(1.0, np.max(np.abs(s.x))) * rng.uniform(-1, 1, s.dim)
                    v = s.xdot + CHAIN_SPREAD * np.max(np.abs(s.xdot)) * rng.uniform(-1, 1, s.dim)
                    items.append({"entry": name, "x": x.tolist(), "xdot": v.tolist(), "in_A": True})
                if isinstance(lag, FamilyInstance):
                    for _ in range(CHAIN_REFUSED_PER_SAMPLE):
                        x = s.x + CHAIN_SPREAD * max(1.0, np.max(np.abs(s.x))) * rng.uniform(-1, 1, s.dim)
                        beta = _beta_covector(lag, x)
                        v = s.xdot - (beta @ s.xdot) / (beta @ beta) * beta
                        items.append({"entry": name, "x": x.tolist(), "xdot": v.tolist(), "in_A": False})
        order = rng.permutation(len(items))
        _write_json(self.path, [items[i] for i in order])

    def load(self):
        items = json.loads(self.path.read_text(encoding="utf-8"))
        lags = {name: catalog.get(name).lagrangian for name in sorted({it["entry"] for it in items})}
        ops = [
            (lags[it["entry"]], TangentSample(it["x"], it["xdot"]), it["in_A"], it["entry"])
            for it in items
        ]
        lag, sample, _, _ = next(op for op in ops if op[2])
        geometry.hh_curvature(lag, sample)
        return ops

    def samples(self, state, op: int) -> int:
        return 1

    def run(self, state, op: int) -> ChainResult:
        lag, sample, _, _ = state[op]
        verdict = geometry.probe_admissibility(lag, sample)
        if not verdict.in_A:
            return ChainResult(verdict)
        return ChainResult(
            verdict,
            geometry.metric(lag, sample),
            geometry.chern_rund(lag, sample),
            geometry.hh_curvature(lag, sample),
            geometry.commutator_check(lag, sample, geometry.log_sqrt_det_metric_field(lag)),
        )

    def report_path(self, op: int):
        return None

    def check(self, state, op: int, result: ChainResult) -> list[str]:
        lag, sample, in_A, entry = state[op]
        v = result.verdict
        if v.in_A != in_A:
            return [f"{entry} op {op}: in_A {v.in_A} != {in_A} ({v.failure_reason})"]
        if not in_A:
            if not (isinstance(v.failure_reason, str) and v.failure_reason):
                return [f"{entry} op {op}: refused without a reason"]
            return []
        problems = []
        if not (v.failure_reason is None and v.L_value is not None and math.isfinite(v.L_value)):
            problems.append(f"{entry} op {op}: bad verdict {v}")
        g = result.metric.g
        if not (np.all(np.isfinite(g)) and np.array_equal(g, g.T)):
            problems.append(f"{entry} op {op}: metric is not finite and symmetric")
        if not np.allclose(result.gamma, np.swapaxes(result.gamma, 1, 2), rtol=0, atol=TOL_IDENTITY):
            problems.append(f"{entry} op {op}: Chern-Rund Gamma is not symmetric in bc")
        curv = result.curvature
        scale = max(1.0, float(np.max(np.abs(curv.ricci))))
        if not result.commutator <= TOL_IDENTITY * scale:
            problems.append(f"{entry} op {op}: commutator residual {result.commutator:.3e}")
        # the two routes to the skew Ricci: R_ab - R_ba and R^c_dab xdot^d C_c
        cartan = geometry.vertical_derivative(lag, sample, geometry.log_sqrt_det_metric_field(lag))
        route = geometry.ricci_skew_from_curvature(curv.hh_riemann, sample.xdot, cartan)
        skew_res = float(np.max(np.abs((curv.ricci - curv.ricci.T) - route)))
        if not skew_res <= TOL_IDENTITY * scale:
            problems.append(f"{entry} op {op}: skew identity residual {skew_res:.3e}")
        return problems

    def check_run(self, state) -> list[str]:
        """g against the finite-difference oracle, one sample per entry."""
        problems = []
        seen = set()
        for lag, sample, in_A, entry in state:
            if not in_A or entry in seen:
                continue
            seen.add(entry)
            g = geometry.metric(lag, sample).g

            def L_of_xdot(v, lag=lag, x=sample.x):
                return geometry.eval_L(lag, TangentSample(x, v), order=1).value

            n = sample.dim
            ref = np.array(
                [[0.5 * fd_partial(L_of_xdot, sample.xdot, [a, b]) for b in range(n)] for a in range(n)]
            )
            err = float(np.max(np.abs(g - ref)))
            if not err <= TOL_ORACLE * max(1.0, float(np.max(np.abs(g)))):
                problems.append(f"{entry}: metric differs from the oracle by {err:.3e}")
        return problems


WORKLOADS = {w.name: w for w in (ReportCatalog, ChainPointwise, ReportDim6)}
