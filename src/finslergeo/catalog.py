"""Built-in geometry instances used by tests, docs and the CLI.

Each entry is declared once, as a DSL entry (`_dsl_entry`) or an (alpha,
beta) family entry (`_family_entry`): its sources, its default tangent
samples, the parameters an override may replace (with their defaults) and an
expected-values block that the regression suite reproduces through the full
pipeline.  Overrides are read by one checked reader (`_parameters`), and
every default sample is verified admissible when the entry is instantiated,
by one block evaluation of them that the entry keeps (`evaluation`), so a
report on them at the default degenerate tolerance evaluates each once.
`szabo-counterexample` builds its alpha and H from the override phi and
searches for its default directions, whose last block of candidates is that
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

import numpy as np

from . import geometry
from . import expr as exprmod
from .defs import (
    BadNumber, DslLagrangian, FamilyInstance, LagrangianDef, TangentSample, as_number,
    fiber_aliases,
)


class UnknownEntry(KeyError):
    pass


class InvalidOverride(ValueError):
    """An override the entry does not take; `key` names the override whose
    value is bad, when one is."""

    def __init__(self, message: str, key: Optional[str] = None):
        self.key = key
        super().__init__(message)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    lagrangian: LagrangianDef
    dim: int
    aliases: Optional[Mapping[str, int]]
    default_samples: tuple[TangentSample, ...]
    expected: Optional[Mapping] = None
    description: str = ""
    # the order-4 block evaluation of the default samples that checked them
    evaluation: Optional[geometry._Eval] = field(default=None, compare=False, repr=False)


def _parameters(name: str, overrides: Mapping, defaults: Mapping) -> dict:
    """`defaults` with each override in its place.  An override the entry
    does not take is an InvalidOverride, and so is a value of a numeric
    parameter that is not a number; a string parameter takes the text of
    its value."""
    for key in overrides:
        if key not in defaults:
            allowed = ", ".join(map(repr, sorted(defaults)))
            raise InvalidOverride(
                f"{name} accepts only {allowed}" if defaults else f"{name} takes no overrides",
                key,
            )
    values = dict(defaults)
    for key, default in defaults.items():
        if key in overrides:
            read = str if isinstance(default, str) else as_number
            try:
                values[key] = read(overrides[key])
            except BadNumber as err:
                raise InvalidOverride(f"override {key!r}: {err}", key) from None
    return values


def _entry(name, lag, aliases, samples, expected, description, evaluation=None) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        lagrangian=lag,
        dim=lag.dim,
        aliases=aliases,
        default_samples=tuple(TangentSample(x, xdot) for x, xdot in samples),
        expected=dict(expected),
        description=description,
        evaluation=evaluation,
    )


_Builder = Callable[[str, Mapping], CatalogEntry]


def _dsl_entry(source: str, params: Mapping = {}, aliases=None, **entry) -> _Builder:
    """An entry whose L is `source` over (x, xdot); overrides may replace
    its `params` (name: default)."""

    def build(name: str, overrides: Mapping) -> CatalogEntry:
        values = _parameters(name, overrides, params)
        dim = len(entry["samples"][0][0])
        ast = exprmod.parse(source, 2 * dim, set(params), fiber_aliases(dim, aliases))
        return _entry(name, DslLagrangian(dim, ast, values), aliases, **entry)

    return build


def _family(alpha, beta, aliases, c, m, p, h=None) -> FamilyInstance:
    """The family instance of the alpha rows, beta and H sources."""
    dim = len(beta)
    return FamilyInstance(
        dim,
        tuple(tuple(exprmod.parse(src, dim, aliases=aliases) for src in row) for row in alpha),
        tuple(exprmod.parse(src, dim, aliases=aliases) for src in beta),
        c=c,
        m=m,
        p=p,
        h_expr=None if h is None else exprmod.parse(h, dim, aliases=aliases),
    )


def _family_entry(
    alpha, beta, fixed: Mapping, params: Mapping = {}, aliases=None, **entry
) -> _Builder:
    """An (alpha, beta) family entry whose c, m and p are `fixed` or, for
    those in `params` (name: default), the overrides'."""

    def build(name: str, overrides: Mapping) -> CatalogEntry:
        values = {**fixed, **_parameters(name, overrides, params)}
        return _entry(name, _family(alpha, beta, aliases, **values), aliases, **entry)

    return build


_MINKOWSKI_ALPHA = [
    ["1", "0", "0", "0"],
    ["0", "-1", "0", "0"],
    ["0", "0", "-1", "0"],
    ["0", "0", "0", "-1"],
]
_TIME = ["1", "0", "0", "0"]
_LIGHTCONE_ALIASES = {"u": 0, "v": 1, "x": 2, "y": 3}


def _check_samples(entry: CatalogEntry) -> CatalogEntry:
    """The entry with the block evaluation of its default samples, its own
    if it has one, once each is verified admissible."""
    evaluation, probes = geometry.probe_block(
        entry.lagrangian, entry.default_samples, evaluation=entry.evaluation
    )
    for i, (verdict, _) in enumerate(probes):
        if not verdict.in_A:
            raise ValueError(
                f"catalog entry {entry.name!r}: default sample {i} is not "
                f"admissible ({verdict.failure_reason})"
            )
    return replace(entry, evaluation=evaluation)


def _candidates(inst: FamilyInstance, x: np.ndarray):
    """The directions the search at x tries, in order: (1, 1, 0.1, 0.1)
    with its v-component doubled up to 59 times, where beta(xdot) > 0 and
    zeta(xdot, xdot) > 0; DegenerateMetric where alpha at x is not finite."""
    alpha = geometry.eval_metric_exprs(inst.alpha, x.tolist(), inst.params).astype(float)
    beta = geometry.eval_metric_exprs(inst.beta, x.tolist(), inst.params).astype(float)
    if not np.isfinite(alpha).all():
        raise geometry.DegenerateMetric(f"alpha is not finite at x={x}")
    cand = np.array([1.0, 1.0, 0.1, 0.1])
    for _ in range(60):
        bval = float(beta @ cand)
        zeta = inst.c * float(cand @ alpha @ cand) + inst.m * bval**2
        if bval > 0.0 and zeta > 0.0:
            yield cand
        cand = cand.copy()
        cand[1] *= 2.0


def _admissible_directions(inst: FamilyInstance, base_points) -> tuple[list, geometry._Eval]:
    """At each base point the first of its candidates (`_candidates`) that
    is admissible, and the block evaluation of those directions.  Each round
    evaluates the current candidate of every base point in one block, and
    moves on where it is not admissible."""
    searches = [_candidates(inst, x) for x in base_points]
    current = [next(search, None) for search in searches]
    evaluation = None
    while any(d is not None for d in current):
        pending = [i for i, d in enumerate(current) if d is not None]
        evaluation, probes = geometry.probe_block(
            inst, [TangentSample(base_points[i], current[i]) for i in pending]
        )
        rejected = [i for i, (verdict, _) in zip(pending, probes) if not verdict.in_A]
        if not rejected:
            break
        for i in rejected:
            current[i] = next(searches[i], None)
    for x, d in zip(base_points, current):
        if d is None:
            raise ValueError(f"no admissible direction found at x={x}")
    return current, evaluation


def _szabo_counterexample(name: str, overrides: Mapping) -> CatalogEntry:
    values = _parameters(name, overrides, {"c": 1.0, "m": 0.0, "p": 2.0, "phi": "x"})
    c, m, p, phi = values["c"], values["m"], values["p"], values["phi"]
    if p == 1.0:
        raise InvalidOverride("the counterexample construction requires p != 1", "p")
    if c == 0.0:
        raise InvalidOverride("the counterexample construction requires c != 0", "c")
    aliases = _LIGHTCONE_ALIASES
    alpha = [
        [f"v*({phi})", "1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    # H satisfying the Berwald condition for nabla beta = (phi/2) beta x beta;
    # the sign is opposite to phi/(2c(p-1)) (resolved against the pipeline).
    h = f"({phi})/({2.0 * c * (1.0 - p)!r})"
    try:
        # phi parses on its own, so the splices above keep it whole and an
        # error's offsets are into the override
        exprmod.parse(phi, len(alpha), aliases=aliases)
        inst = _family(alpha, _TIME, aliases, c, m, p, h)
    except (exprmod.ExprSyntaxError, exprmod.ExprNameError) as err:
        raise InvalidOverride(f"override 'phi': {err}", "phi") from None
    base_points = (
        np.array([0.0, 1.0, 0.5, 0.3]),
        np.array([0.2, 0.8, -0.4, 1.1]),
    )
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a phi out of range raises below
            directions, evaluation = _admissible_directions(inst, base_points)
    except (exprmod.ExprDomainError, geometry.DegenerateMetric) as err:
        raise InvalidOverride(
            f"override 'phi': {phi!r} cannot be evaluated at the entry's base points ({err})",
            "phi",
        ) from err
    expected = {
        "is_berwald": True,
        "half_skew_magnitude": abs(p / (p - 1.0)),
        "abs_H_formula": "abs(phi)/abs(2c(p-1))",
    }
    description = "plane-wave family member with non-symmetric Ricci tensor"
    samples = list(zip(base_points, directions))
    return _entry(name, inst, aliases, samples, expected, description, evaluation)


_FLAT_BERWALD = {"is_berwald": True, "flat": True, "skew_max": 0.0}

_BUILDERS: dict[str, _Builder] = {
    "minkowski4": _dsl_entry(
        "dx0^2 - dx1^2 - dx2^2 - dx3^2",
        samples=[([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
                 ([0.3, -0.2, 0.5, 1.0], [2.0, 0.3, -0.2, 0.1])],
        expected=_FLAT_BERWALD,
        description="flat Lorentzian metric, quadratic Lagrangian",
    ),
    "schwarzschild": _dsl_entry(
        "(1 - 2*M/r)*dt^2 - dr^2/(1 - 2*M/r) - r^2*dth^2 - r^2*sin(th)^2*dph^2",
        params={"M": 1.0},
        aliases={"t": 0, "r": 1, "th": 2, "ph": 3},
        samples=[([0.0, 3.0, 1.2, 0.5], [1.0, 0.05, 0.02, 0.01]),
                 ([1.0, 5.0, 0.9, -0.3], [1.0, -0.1, 0.03, 0.02])],
        expected={"is_berwald": True, "vacuum": True},
        description="vacuum black-hole metric, quadratic Lagrangian",
    ),
    "conformally-flat": _dsl_entry(
        "exp(0.2*x1*x2 + 0.1*x3)*(dx0^2 - dx1^2 - dx2^2 - dx3^2)",
        samples=[([0.3, 0.5, -0.4, 0.7], [1.0, 0.2, 0.1, -0.3]),
                 ([-0.1, 0.2, 0.6, -0.5], [1.5, -0.3, 0.2, 0.1])],
        expected={"is_berwald": True, "vacuum": False},
        description="curved non-vacuum pseudo-Riemannian metric",
    ),
    "bogoslovsky": _family_entry(
        _MINKOWSKI_ALPHA, _TIME,
        fixed={"c": 1.0, "m": 0.0},
        params={"p": 0.5},
        samples=[([0.0, 0.0, 0.0, 0.0], [1.0, 0.2, 0.1, -0.3]),
                 ([0.5, 0.1, -0.2, 0.3], [1.0, -0.1, 0.25, 0.05])],
        expected=_FLAT_BERWALD,
        description="flat very-general-relativity family member (c=1, m=0)",
    ),
    "kropina": _family_entry(
        _MINKOWSKI_ALPHA, _TIME,
        fixed={"c": 1.0, "m": 0.0, "p": 1.0},
        samples=[([0.0, 0.0, 0.0, 0.0], [1.0, 0.3, -0.2, 0.1]),
                 ([0.2, -0.4, 0.1, 0.0], [2.0, 0.5, 0.4, -0.3])],
        expected=_FLAT_BERWALD,
        description="classical Kropina case (p=1) on flat data",
    ),
    "szabo-counterexample": _szabo_counterexample,
    "nonberwald-flat": _family_entry(
        [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        ["x", "0", "0", "0"],
        fixed={"c": 1.0, "m": 0.0, "p": 2.0},
        aliases=_LIGHTCONE_ALIASES,
        samples=[([0.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.1, 0.1]),
                 ([0.3, -0.2, 1.5, 0.4], [1.0, 2.0, -0.2, 0.3])],
        expected={"is_berwald": False},
        description="flat alpha with beta = x du: violates the Berwald condition",
    ),
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def get(name: str, overrides: Optional[Mapping] = None) -> CatalogEntry:
    """Instantiate a catalog entry, verifying its default samples."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownEntry(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}"
        ) from None
    return _check_samples(builder(name, dict(overrides or {})))
