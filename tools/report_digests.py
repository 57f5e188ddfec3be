"""Print the exit code and SHA-256 of report.json and of the printed
summary for a fixed set of runs, and the SHA-256 of every public chain call
at the same scenes' samples.

    PYTHONPATH=src python tools/report_digests.py [repo root]

Runs ``finslergeo <subcommand> <scene> --out <dir>`` in process for every
subcommand, on every ``scenes/*.json`` and every catalog entry (with its
default samples), on one fixed dim-6 DSL scene (12 jet variables, so the
largest jet space the reports build), on three DSL scenes whose Berwald
witness rejects sampled directions (a sqrt, a power and a log leave their
domain outside the cone) and on two DSL scenes whose only sample leaves float
range (tagged ``overflow`` and ``non-finite``), on one DSL scene whose L is
finite but whose det g is not, on one whose L is finite but whose
curvature is not, on one whose L is finite but whose Chern-Rund connection
is not, on one whose spray at the sample is finite but at a witness
direction is not, on one whose g depends on xdot and on only some of the
variables, on a quadratic one whose g holds -0.0 coefficients from a
negated sum, on a quadratic one whose g is nondegenerate only at its
scene's ``degenerate`` tolerance, on the same one at the default tolerance
(tagged ``near-degenerate-default``: g is degenerate, det g is not 0), on
``szabo-counterexample`` with a phi override, on a DSL scene with one sample in A and one outside it (tagged
``partial-evaluation``), on one whose L is finite to order 2 but not to
order 4 (tagged ``order4-overflow``), on one whose sample in A sits
between one whose order-4 L is not finite and one that leaves a
function's domain (tagged ``mixed-rows``) and on one whose g is
nondegenerate at its scene's ``degenerate`` tolerance but whose values do
not invert (tagged ``singular-values``) and on one seeded dense dim-8 DSL
scene, (q1)^2/q2 with x-dependent quadratic forms q1 and q2 and its sample
in A (tagged ``dense-dim8``), at ``options.seed`` 0 and 3.
Each run prints two lines:

    <scene> <subcommand> <seed> <exit code> <sha256 of report.json or ->
    <scene> <subcommand> <seed> summary <sha256 of the printed summary>

The summary is the run's standard output without its last line, ``report
written to <path>``, whose path is a temporary directory's.

Then, for every sample of the same scenes (a catalog entry's default
samples), each public chain call -- ``metric`` (g and g^-1), ``spray``,
``nonlinear_connection``, ``chern_rund``, ``hh_curvature``, and
``commutator_check`` and ``vertical_derivative`` of ln sqrt|det g|, each at
the scene's ``degenerate`` tolerance -- prints

    <scene> chain:<call> <sample label> <sha256 of the result's raw bytes>

or the name of the exception class it raised in place of the digest.
Every call reads the sample's order-4 context at the scene's tolerance,
whose arrays are bit for bit those of the sample's row of the block every
subcommand's report is written from, so the arrays of ``metric``,
``spray``, ``nonlinear_connection``, ``chern_rund`` and ``hh_curvature``
are the report's.  Then the same calls run again in the reverse order, each
printing

    <scene> chain-rev:<call> <sample label> <digest>

Successive calls at one sample share one evaluation context.  Each pass
starts with no context kept, so the two passes build it through a
different call and read it through the others in the other order, and the
two digests of a call must be equal.  For every sample of a scene with a family Lagrangian (the family
catalog entries with their default samples among them), each
`alphabeta.FamilyEval` reader -- ``christoffel_jets`` (values and
x-derivatives), ``fit``, ``h_gradient``, ``connection()`` and ``ricci`` --
and ``geometry.christoffel_gradient`` of alpha print

    <scene> family:<reader> <sample label> <sha256 of the result's raw bytes>

in the same way.  For every sample of every scene, the Taylor coefficients
of L -- ``geometry.eval_L`` at orders 2 and 4, and an order-2 L over one
fixed block of directions near the sample's at its x, x seeded once and the
directions stacked (``witness-block``) -- print

    <scene> L:<evaluation> <sample label> <sha256 of the coefficients' raw bytes>

and the directions the Berwald witness samples near the sample's,
``berwald.sample_admissible_directions`` with 16 directions, the scene's
spread and the generator [seed, sample index] at each seed, print

    <scene> witness:directions <sample label> <sha256 of the directions' raw bytes>

For every scene, the order-4 block evaluation of all its samples at its
``degenerate`` tolerance, ``geometry._Eval(lag, samples, 4, tol)``, prints
the raw coefficient bytes of each stage jet -- ``g_jets``, ``g_inv_jets``,
``spray_jets``, ``nonlinear_jets``, ``gamma_jets`` and ``log_sqrt_det``,
coefficients that are not finite included --

    <scene> stage:<stage> block <sha256 of the coefficients' raw bytes>

so the bits of a stage that leaves float range, which a report only tags
as an error, are compared too.

Two checkouts that print the same lines write byte-identical reports,
print the same summaries and return byte-identical arrays, so a refactoring can be checked against its
parent by diffing the two outputs.
The repository root defaults to the parent of this script's directory.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from finslergeo import alphabeta, berwald, catalog, cli, geometry
from finslergeo.defs import FamilyInstance
from finslergeo.jets import seed_block
from finslergeo.scene import SUBCOMMANDS, load_scene

SEEDS = (0, 3)

# The shape of the report-dim6 benchmark scene, with fixed coefficients and
# base points.
DIM6_SCENE = {
    "chart": {"dim": 6},
    "lagrangian": {"dsl": {
        "source": "exp(0.2*x1*x2 + 0.15*x4)*(dx0^2 - dx1^2 - dx2^2 - dx3^2 - dx4^2 - dx5^2)",
    }},
    "samples": [
        {"x": [0.1, -0.3, 0.25, 0.0, 0.4, -0.2],
         "xdot": [1.0, 0.1, -0.15, 0.05, 0.2, -0.1], "label": "p0"},
        {"x": [-0.35, 0.2, -0.1, 0.3, -0.45, 0.15],
         "xdot": [1.0, -0.2, 0.05, 0.15, -0.05, 0.1], "label": "p1"},
    ],
}

# Scenes whose spray witness draws directions outside A, so the rejection
# path of the direction sampler shows in the digests.
REJECTION_SCENES = {
    "sqrt-domain": {
        "chart": {"dim": 3},
        "lagrangian": {"dsl": {"source": "exp(0.1*x1)*sqrt(dx0^2 - dx1^2 - dx2^2)^2"}},
        "samples": [{"x": [0.1, 0.2, 0.3], "xdot": [1.0, 0.6, 0.3], "label": "p0"}],
        "options": {"spread": 0.6},
    },
    "power-domain": {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {
            "source": "(dx0^2 - dx1^2)^0.75*((dx0 - dx1)^2)^0.25*exp(0.2*x0)",
        }},
        "samples": [{"x": [0.1, 0.2], "xdot": [1.0, 0.7], "label": "p0"}],
        "options": {"spread": 0.8},
    },
    "log-domain": {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": "dx0^2*exp(0.5*ln(1 - dx1^2/dx0^2))*(1+x1^2)"}},
        "samples": [{"x": [0.1, 0.2], "xdot": [1.0, 0.8], "label": "p0"}],
        "options": {"spread": 0.9},
    },
}

# Scenes whose only sample is outside A because L leaves float range, so the
# error route of every section shows in the digests: exp(1000) overflows L's
# value, exp(700) overflows the products that build its higher coefficients.
ERROR_SCENES = {
    name: {
        "chart": {"dim": 2},
        "lagrangian": {"dsl": {"source": source}},
        "samples": [{"x": [1.0, 0.0], "xdot": [1.0, 0.2], "label": "p0"}],
    }
    for name, source in [
        ("overflow", "exp(1000*x0)*dx0^2 - dx1^2"),
        ("non-finite", "exp(700*x0)*dx0^2 - dx1^2"),
    ]
}


# A scene whose L stays in float range (about 2e156) while det g, about
# -1e312, does not.
OVERFLOW_AFTER_L_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "exp(360*x0)*(dx0^2 - dx1^2)"}},
    "samples": [{"x": [1.0, 0.0], "xdot": [1.0, 0.2], "label": "p0"}],
}


# A scene whose L, g and Gamma (about 5e159) stay in float range while the
# curvature's Gamma * Gamma terms do not.
CURVATURE_OVERFLOW_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "(1 + 1e160*x0)*dx0^2 - dx1^2"}},
    "samples": [{"x": [0.0, 0.0], "xdot": [1.0, 0.1], "label": "p0"}],
}

# A scene whose L and g (det about -1e-5) stay in float range while Gamma,
# about 0.5 * 1e5 * 1e306, does not.
CONNECTION_OVERFLOW_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "(1e-5 + 1e306*x0)*dx0^2 - dx1^2"}},
    "samples": [{"x": [0.0, 0.0], "xdot": [1.0, 0.1], "label": "p0"}],
}

# A scene whose Gamma (5e306) and spray at the sample (1.7e307) stay in float
# range while the spray at a longer witness direction does not.
WITNESS_OVERFLOW_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "(1 + 1e307*x0)*dx0^2 - dx1^2"}},
    "samples": [{"x": [0.0, 0.0], "xdot": [2.6, 0.1], "label": "p0"}],
}

# A scene whose g depends on xdot but not on every variable: x1, dx0 and
# dx1, of six.
PARTIAL_SUPPORT_SCENE = {
    "chart": {"dim": 3},
    "lagrangian": {"dsl": {
        "source": "exp(0.2*x1)*(dx0^2 - dx1^2 - dx2^2) + 0.1*(dx0^4 + dx1^4)/(dx0^2 + dx1^2)",
    }},
    "samples": [{"x": [0.1, 0.3, -0.2], "xdot": [1.0, 0.2, 0.1], "label": "p0"}],
}

# A quadratic scene whose L is a negated sum, so that the coefficients of L
# and g that are zero are -0.0.
NEGATED_SCENE = {
    "chart": {"dim": 3},
    "lagrangian": {"dsl": {"source": "-(exp(0.3*x1)*(dx1^2 + dx2^2) - dx0^2)"}},
    "samples": [{"x": [0.2, -0.1, 0.4], "xdot": [1.0, 0.3, -0.2], "label": "p0"}],
}

# A quadratic scene whose g, diag(1, -1e-12), is nondegenerate at its
# degenerate tolerance and not at the default one.
NEAR_DEGENERATE_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "dx0^2 - 1e-12*dx1^2"}},
    "samples": [{"x": [0.0, 0.0], "xdot": [1.0, 0.3], "label": "p0"}],
    "options": {"tolerances": {"degenerate": 1e-14}},
}

# The near-degenerate scene at the default degenerate tolerance, at which
# its g is degenerate while det g, about -1e-12, is not 0.
NEAR_DEGENERATE_DEFAULT_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "dx0^2 - 1e-12*dx1^2"}},
    "samples": [{"x": [0.0, 0.0], "xdot": [1.0, 0.3], "label": "p0"}],
}

# The counterexample with phi = 2x, spliced into its alpha and H.
PHI_OVERRIDE_SCENE = {
    "lagrangian": {"catalog": "szabo-counterexample", "overrides": {"phi": "2*x"}},
}

# A scene whose first sample is in A and whose second leaves float range,
# so its sections are computed at one of two base points.
PARTIAL_EVALUATION_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "dx0^2 - exp(x0)*dx1^2"}},
    "samples": [
        {"x": [0.1, 0], "xdot": [1, 0.3], "label": "near"},
        {"x": [1e308, 0], "xdot": [1, 0.3], "label": "far"},
    ],
}

# A scene whose order-2 L (about 8.9e300) and g stay in float range while
# the products that build its higher coefficients do not: every subcommand
# reads the order-4 evaluation, so each finds the sample outside A.
ORDER4_OVERFLOW_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "exp(700*x0)*(dx0^2 - dx1^2)"}},
    "samples": [{"x": [0.99, 0.0], "xdot": [1.0, 0.2], "label": "p0"}],
}

# A scene whose sample in A sits between one whose order-2 L is finite and
# whose order-4 L is not (as in the order4-overflow scene) and one whose L
# leaves the domain of ln, so the block of its samples holds all three.
MIXED_ROWS_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "exp(700*x0)*ln(x1)*(dx0^2 - dx1^2)"}},
    "samples": [
        {"x": [0.99, 2.0], "xdot": [1.0, 0.2], "label": "order4"},
        {"x": [0.1, 2.0], "xdot": [1.0, 0.2], "label": "inside"},
        {"x": [0.1, -1.0], "xdot": [1.0, 0.2], "label": "domain"},
    ],
}

# A quadratic scene whose g, [[1, 3], [3, 9]], has eigenvalues about 1.1e-16
# and 10, so it is nondegenerate at its degenerate tolerance, while its LU
# factorisation has a zero pivot: its values do not invert, and its sample
# is outside A.
SINGULAR_VALUES_SCENE = {
    "chart": {"dim": 2},
    "lagrangian": {"dsl": {"source": "dx0^2 + 6*dx0*dx1 + 9*dx1^2"}},
    "samples": [{"x": [0, 0], "xdot": [1, 0.5], "label": "p0"}],
    "options": {"tolerances": {"degenerate": 1e-18}},
}


def _dense_scene(n: int, seed: int) -> dict:
    """A seeded DSL scene (q1)^2/q2 in dimension n, q1 and q2 quadratic
    forms in xdot with every coefficient x-dependent, so that g depends on
    all 2n variables: q1 near diag(1, -1, ..., -1), q2 near the identity,
    and one sample near xdot = (1, 0, ..., 0)."""
    rng = np.random.default_rng([seed, n])

    def form(diagonal):
        terms = []
        for a in range(n):
            for b in range(a, n):
                c = diagonal[a] if a == b else rng.uniform(-0.1, 0.1)
                s = rng.uniform(-0.2, 0.2)
                terms.append(f"{c:.3f}*(1 + {s:.3f}*x{(a + b) % n})*dx{a}*dx{b}")
        return " + ".join(terms)

    q1, q2 = form([1.0] + [-1.0] * (n - 1)), form([1.0] * n)
    x = np.round(rng.uniform(-0.3, 0.3, n), 3)
    xdot = np.round(np.concatenate([[1.0], rng.uniform(-0.2, 0.2, n - 1)]), 3)
    return {
        "chart": {"dim": n},
        "lagrangian": {"dsl": {"source": f"({q1})^2/({q2})"}},
        "samples": [{"x": x.tolist(), "xdot": xdot.tolist(), "label": "p0"}],
    }


# A dense dim-8 scene, its sample in A: the largest n whose ln sqrt|det g|
# the digests cover.
DENSE8_SCENE = _dense_scene(8, 0)

# Offsets of the fixed witness block from a sample's direction.
WITNESS_OFFSETS = 0.05 * np.array([[0.0, 1.0, -1.0, 0.5], [1.0, -0.5, 0.25, -1.0]])


def scene_documents(root: Path):
    """(name, scene document) for the fixture scenes, the catalog, the
    dim-6 scene, the rejection scenes, the error scenes, the
    overflow-after-L, curvature-overflow, connection-overflow and
    witness-overflow scenes, the partial-support, negated-quadratic and
    near-degenerate scenes, the near-degenerate scene at the default
    tolerance, the phi-override scene, the partial-evaluation
    scene, the order4-overflow scene, the mixed-rows scene, the
    singular-values scene and the dense dim-8 scene."""
    for path in sorted((root / "scenes").glob("*.json")):
        yield path.name, json.loads(path.read_text(encoding="utf-8"))
    for name in catalog.names():
        yield f"catalog:{name}", {"lagrangian": {"catalog": name}}
    yield "dim6", DIM6_SCENE
    yield from REJECTION_SCENES.items()
    yield from ERROR_SCENES.items()
    yield "overflow-after-L", OVERFLOW_AFTER_L_SCENE
    yield "curvature-overflow", CURVATURE_OVERFLOW_SCENE
    yield "connection-overflow", CONNECTION_OVERFLOW_SCENE
    yield "witness-overflow", WITNESS_OVERFLOW_SCENE
    yield "partial-support", PARTIAL_SUPPORT_SCENE
    yield "negated-quadratic", NEGATED_SCENE
    yield "near-degenerate", NEAR_DEGENERATE_SCENE
    yield "near-degenerate-default", NEAR_DEGENERATE_DEFAULT_SCENE
    yield "szabo-phi-2x", PHI_OVERRIDE_SCENE
    yield "partial-evaluation", PARTIAL_EVALUATION_SCENE
    yield "order4-overflow", ORDER4_OVERFLOW_SCENE
    yield "mixed-rows", MIXED_ROWS_SCENE
    yield "singular-values", SINGULAR_VALUES_SCENE
    yield "dense-dim8", DENSE8_SCENE


def digest(doc: dict, subcommand: str, workdir: Path) -> tuple[int, str, str]:
    """The exit code of one run and the SHA-256 of its report.json (or "-")
    and of its summary."""
    scene_path = workdir / "scene.json"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "out"
    report = out / "report.json"
    if report.exists():
        report.unlink()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([subcommand, str(scene_path), "--out", str(out)])
    sha = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else "-"
    lines = stdout.getvalue().splitlines(keepends=True)
    if lines and lines[-1].startswith("report written to "):
        lines.pop()
    return code, sha, hashlib.sha256("".join(lines).encode()).hexdigest()


def _chain_calls(lag, sample, tol):
    """(name, thunk) for each public chain call at one sample and degenerate
    tolerance; a thunk returns the arrays whose bytes are digested."""
    field = geometry.log_sqrt_det_metric_field(lag)

    def metric():
        value = geometry.metric(lag, sample, tol)
        return [value.g, value.g_inv]

    def curvature():
        value = geometry.hh_curvature(lag, sample, tol)
        return [value.hh_riemann, value.ricci, value.skew_ricci]

    return [
        ("metric", metric),
        ("spray", lambda: [geometry.spray(lag, sample, tol)]),
        ("nonlinear_connection", lambda: [geometry.nonlinear_connection(lag, sample, tol)]),
        ("chern_rund", lambda: [geometry.chern_rund(lag, sample, tol)]),
        ("hh_curvature", curvature),
        ("commutator_check", lambda: [geometry.commutator_check(lag, sample, field, tol)]),
        ("vertical_derivative",
         lambda: [geometry.vertical_derivative(lag, sample, field, tol)]),
    ]


def _family_calls(inst, x):
    """(name, thunk) for each `FamilyEval` reader at the base point x, each
    of a fresh evaluation, and for the Christoffel gradient of alpha."""
    n = inst.dim
    shape = (n, n, n)

    def christoffel():
        jets = alphabeta.FamilyEval(inst, x).christoffel_jets
        return [geometry.values(jets, shape), geometry.first_derivatives(jets, range(n), shape)]

    def fit():
        value = alphabeta.FamilyEval(inst, x).fit
        return [value.residual, value.h]

    def ricci():
        value = alphabeta.FamilyEval(inst, x).ricci
        return [value.ricci, value.skew, value.f_scalar, value.beta_wedge_dh]

    return [
        ("christoffel_jets", christoffel),
        ("fit", fit),
        ("h_gradient", lambda: list(alphabeta.FamilyEval(inst, x).h_gradient)),
        ("connection", lambda: [alphabeta.FamilyEval(inst, x).connection()]),
        ("ricci", ricci),
        ("christoffel_gradient",
         lambda: list(geometry.christoffel_gradient(inst.alpha, x, inst.params))),
    ]


def _L_calls(lag, sample):
    """(name, thunk) for each evaluation of L at one sample: the jet of
    `geometry.eval_L` at orders 2 and 4, and the order-2 jet over a block of
    directions near the sample's at its x."""
    n = sample.dim
    offsets = np.resize(WITNESS_OFFSETS, (len(WITNESS_OFFSETS), n))
    block = sample.xdot * (1.0 + offsets)

    def witness():
        return [geometry.eval_L_jets(lag, seed_block(sample.x, block, 2)).coeffs]

    return [
        ("order2", lambda: [geometry.eval_L(lag, sample, 2).coeffs]),
        ("order4", lambda: [geometry.eval_L(lag, sample, 4).coeffs]),
        ("witness-block", witness),
    ]


def _witness_directions(scn, index, sample):
    """The thunk of the directions the Berwald witness samples near one
    sample of a scene, at every seed."""

    def directions():
        return [
            d
            for seed in SEEDS
            for d in berwald.sample_admissible_directions(
                scn.lagrangian, sample.x, sample.xdot, 16, [seed, index], scn.options.spread
            )
        ]

    return directions


STAGES = ("g_jets", "g_inv_jets", "spray_jets", "nonlinear_jets", "gamma_jets", "log_sqrt_det")


def _stage_calls(scn):
    """(name, thunk) for each stage jet of the order-4 block evaluation of a
    scene's samples, built once, on the first call."""
    samples = [sample for _, sample in scn.samples]
    block = functools.cache(
        lambda: geometry._Eval(scn.lagrangian, samples, 4, scn.options.tol_degenerate)
    )
    return [(stage, lambda stage=stage: [getattr(block(), stage).coeffs]) for stage in STAGES]


def chain_digest(thunk) -> str:
    try:
        with np.errstate(all="ignore"):
            arrays = thunk()
    except Exception as err:  # the outcome of the call is what is compared
        return type(err).__name__
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.asarray(a, dtype=np.float64).tobytes())
    return sha.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, doc in scene_documents(root):
            for seed in SEEDS:
                seeded = dict(doc, options={**doc.get("options", {}), "seed": seed})
                for sub in SUBCOMMANDS:
                    code, sha, summary = digest(seeded, sub, workdir)
                    print(f"{name} {sub} {seed} {code} {sha}", flush=True)
                    print(f"{name} {sub} {seed} summary {summary}", flush=True)
    for name, doc in scene_documents(root):
        scn = load_scene(doc)
        for index, (label, sample) in enumerate(scn.samples):
            calls = _chain_calls(scn.lagrangian, sample, scn.options.tol_degenerate)
            geometry._last_context = None
            for call, thunk in calls:
                print(f"{name} chain:{call} {label} {chain_digest(thunk)}", flush=True)
            geometry._last_context = None
            for call, thunk in reversed(calls):
                print(f"{name} chain-rev:{call} {label} {chain_digest(thunk)}", flush=True)
            for call, thunk in _L_calls(scn.lagrangian, sample):
                print(f"{name} L:{call} {label} {chain_digest(thunk)}", flush=True)
            witness = chain_digest(_witness_directions(scn, index, sample))
            print(f"{name} witness:directions {label} {witness}", flush=True)
            if isinstance(scn.lagrangian, FamilyInstance):
                for call, thunk in _family_calls(scn.lagrangian, sample.x):
                    print(f"{name} family:{call} {label} {chain_digest(thunk)}", flush=True)
        for stage, thunk in _stage_calls(scn):
            print(f"{name} stage:{stage} block {chain_digest(thunk)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
