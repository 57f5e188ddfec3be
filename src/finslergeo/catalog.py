"""Built-in geometry instances used by tests, docs and the CLI.

Each entry carries a Lagrangian, chart metadata, default tangent samples
(verified admissible when the entry is instantiated) and an expected-values
block that the regression suite reproduces through the full pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import alphabeta, geometry
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


def _parse_matrix(rows, dim, aliases=None, params=()):
    return tuple(
        tuple(exprmod.parse(src, dim, params, aliases) for src in row) for row in rows
    )


def _parse_vector(row, dim, aliases=None, params=()):
    return tuple(exprmod.parse(src, dim, params, aliases) for src in row)


_MINKOWSKI_ALPHA = [
    ["1", "0", "0", "0"],
    ["0", "-1", "0", "0"],
    ["0", "0", "-1", "0"],
    ["0", "0", "0", "-1"],
]


def _number(overrides, key: str, default: float) -> float:
    """The numeric override `key`, or `default` when it is not given."""
    try:
        return as_number(overrides.get(key, default))
    except BadNumber as err:
        raise InvalidOverride(f"override {key!r}: {err}", key) from None


def _check_samples(entry: CatalogEntry) -> CatalogEntry:
    for i, s in enumerate(entry.default_samples):
        verdict = geometry.probe_admissibility(entry.lagrangian, s)
        if not verdict.in_A:
            raise ValueError(
                f"catalog entry {entry.name!r}: default sample {i} is not "
                f"admissible ({verdict.failure_reason})"
            )
    return entry


def _minkowski4(overrides) -> CatalogEntry:
    if overrides:
        raise InvalidOverride("minkowski4 takes no overrides")
    dim = 4
    ast = exprmod.parse(
        "dx0^2 - dx1^2 - dx2^2 - dx3^2", 2 * dim, aliases=fiber_aliases(dim, None)
    )
    samples = (
        TangentSample([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        TangentSample([0.3, -0.2, 0.5, 1.0], [2.0, 0.3, -0.2, 0.1]),
    )
    return CatalogEntry(
        name="minkowski4",
        lagrangian=DslLagrangian(dim, ast),
        dim=dim,
        aliases=None,
        default_samples=samples,
        expected={"is_berwald": True, "flat": True, "skew_max": 0.0},
        description="flat Lorentzian metric, quadratic Lagrangian",
    )


def _schwarzschild(overrides) -> CatalogEntry:
    allowed = {"M"}
    if set(overrides) - allowed:
        raise InvalidOverride(f"schwarzschild accepts only {allowed}")
    M = _number(overrides, "M", 1.0)
    dim = 4
    aliases = {"t": 0, "r": 1, "th": 2, "ph": 3}
    src = (
        "(1 - 2*M/r)*dt^2 - dr^2/(1 - 2*M/r)"
        " - r^2*dth^2 - r^2*sin(th)^2*dph^2"
    )
    ast = exprmod.parse(src, 2 * dim, {"M"}, fiber_aliases(dim, aliases))
    samples = (
        TangentSample([0.0, 3.0, 1.2, 0.5], [1.0, 0.05, 0.02, 0.01]),
        TangentSample([1.0, 5.0, 0.9, -0.3], [1.0, -0.1, 0.03, 0.02]),
    )
    return CatalogEntry(
        name="schwarzschild",
        lagrangian=DslLagrangian(dim, ast, {"M": M}),
        dim=dim,
        aliases=aliases,
        default_samples=samples,
        expected={"is_berwald": True, "vacuum": True},
        description="vacuum black-hole metric, quadratic Lagrangian",
    )


def _conformally_flat(overrides) -> CatalogEntry:
    if overrides:
        raise InvalidOverride("conformally-flat takes no overrides")
    dim = 4
    src = "exp(0.2*x1*x2 + 0.1*x3)*(dx0^2 - dx1^2 - dx2^2 - dx3^2)"
    ast = exprmod.parse(src, 2 * dim, aliases=fiber_aliases(dim, None))
    samples = (
        TangentSample([0.3, 0.5, -0.4, 0.7], [1.0, 0.2, 0.1, -0.3]),
        TangentSample([-0.1, 0.2, 0.6, -0.5], [1.5, -0.3, 0.2, 0.1]),
    )
    return CatalogEntry(
        name="conformally-flat",
        lagrangian=DslLagrangian(dim, ast),
        dim=dim,
        aliases=None,
        default_samples=samples,
        expected={"is_berwald": True, "vacuum": False},
        description="curved non-vacuum pseudo-Riemannian metric",
    )


def _bogoslovsky(overrides) -> CatalogEntry:
    allowed = {"p"}
    if set(overrides) - allowed:
        raise InvalidOverride(f"bogoslovsky accepts only {allowed}")
    p = _number(overrides, "p", 0.5)
    dim = 4
    inst = FamilyInstance(
        dim,
        _parse_matrix(_MINKOWSKI_ALPHA, dim),
        _parse_vector(["1", "0", "0", "0"], dim),
        c=1.0,
        m=0.0,
        p=p,
    )
    samples = (
        TangentSample([0.0, 0.0, 0.0, 0.0], [1.0, 0.2, 0.1, -0.3]),
        TangentSample([0.5, 0.1, -0.2, 0.3], [1.0, -0.1, 0.25, 0.05]),
    )
    return CatalogEntry(
        name="bogoslovsky",
        lagrangian=inst,
        dim=dim,
        aliases=None,
        default_samples=samples,
        expected={"is_berwald": True, "flat": True, "skew_max": 0.0},
        description="flat very-general-relativity family member (c=1, m=0)",
    )


def _kropina(overrides) -> CatalogEntry:
    if overrides:
        raise InvalidOverride("kropina takes no overrides")
    dim = 4
    inst = FamilyInstance(
        dim,
        _parse_matrix(_MINKOWSKI_ALPHA, dim),
        _parse_vector(["1", "0", "0", "0"], dim),
        c=1.0,
        m=0.0,
        p=1.0,
    )
    samples = (
        TangentSample([0.0, 0.0, 0.0, 0.0], [1.0, 0.3, -0.2, 0.1]),
        TangentSample([0.2, -0.4, 0.1, 0.0], [2.0, 0.5, 0.4, -0.3]),
    )
    return CatalogEntry(
        name="kropina",
        lagrangian=inst,
        dim=dim,
        aliases=None,
        default_samples=samples,
        expected={"is_berwald": True, "flat": True, "skew_max": 0.0},
        description="classical Kropina case (p=1) on flat data",
    )


_LIGHTCONE_ALIASES = {"u": 0, "v": 1, "x": 2, "y": 3}


def _find_admissible_direction(inst: FamilyInstance, x: np.ndarray) -> np.ndarray:
    """Deterministic search from (1, 1, 0.1, 0.1): scale the v-component up
    until beta(xdot) > 0, zeta(xdot, xdot) > 0 and the sample is admissible."""
    base = np.array([1.0, 1.0, 0.1, 0.1])
    fam = alphabeta.FamilyEval(inst, x)
    alpha, beta = fam.alpha, fam.beta
    cand = base.copy()
    for _ in range(60):
        bval = float(beta @ cand)
        zeta = inst.c * float(cand @ alpha @ cand) + inst.m * bval**2
        if bval > 0.0 and zeta > 0.0:
            if geometry.probe_admissibility(inst, TangentSample(x, cand)).in_A:
                return cand
        cand = cand.copy()
        cand[1] *= 2.0
    raise ValueError(f"no admissible direction found at x={x}")


def _szabo_counterexample(overrides) -> CatalogEntry:
    allowed = {"c", "m", "p", "phi"}
    if set(overrides) - allowed:
        raise InvalidOverride(f"szabo-counterexample accepts only {allowed}")
    c = _number(overrides, "c", 1.0)
    m = _number(overrides, "m", 0.0)
    p = _number(overrides, "p", 2.0)
    phi_src = str(overrides.get("phi", "x"))
    if p == 1.0:
        raise InvalidOverride("the counterexample construction requires p != 1")
    if c == 0.0:
        raise InvalidOverride("the counterexample construction requires c != 0")
    dim = 4
    aliases = _LIGHTCONE_ALIASES
    alpha_src = [
        [f"v*({phi_src})", "1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    # H satisfying the Berwald condition for nabla beta = (phi/2) beta x beta;
    # the sign is opposite to phi/(2c(p-1)) (resolved against the pipeline).
    h_src = f"({phi_src})/({2.0 * c * (1.0 - p)!r})"
    inst = FamilyInstance(
        dim,
        _parse_matrix(alpha_src, dim, aliases),
        _parse_vector(["1", "0", "0", "0"], dim, aliases),
        c=c,
        m=m,
        p=p,
        h_expr=exprmod.parse(h_src, dim, aliases=aliases),
    )
    base_points = (
        np.array([0.0, 1.0, 0.5, 0.3]),
        np.array([0.2, 0.8, -0.4, 1.1]),
    )
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a phi out of range raises below
            samples = tuple(
                TangentSample(x, _find_admissible_direction(inst, x))
                for x in base_points
            )
    except (exprmod.ExprDomainError, geometry.DegenerateMetric) as err:
        raise InvalidOverride(
            f"override 'phi': {phi_src!r} cannot be evaluated at the entry's base points ({err})",
            "phi",
        ) from err
    return CatalogEntry(
        name="szabo-counterexample",
        lagrangian=inst,
        dim=dim,
        aliases=aliases,
        default_samples=samples,
        expected={
            "is_berwald": True,
            "half_skew_magnitude": abs(p / (p - 1.0)),
            "abs_H_formula": "abs(phi)/abs(2c(p-1))",
        },
        description="plane-wave family member with non-symmetric Ricci tensor",
    )


def _nonberwald_flat(overrides) -> CatalogEntry:
    if overrides:
        raise InvalidOverride("nonberwald-flat takes no overrides")
    dim = 4
    aliases = _LIGHTCONE_ALIASES
    alpha_src = [
        ["0", "1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    inst = FamilyInstance(
        dim,
        _parse_matrix(alpha_src, dim, aliases),
        _parse_vector(["x", "0", "0", "0"], dim, aliases),
        c=1.0,
        m=0.0,
        p=2.0,
    )
    samples = (
        TangentSample([0.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.1, 0.1]),
        TangentSample([0.3, -0.2, 1.5, 0.4], [1.0, 2.0, -0.2, 0.3]),
    )
    return CatalogEntry(
        name="nonberwald-flat",
        lagrangian=inst,
        dim=dim,
        aliases=aliases,
        default_samples=samples,
        expected={"is_berwald": False},
        description="flat alpha with beta = x du: violates the Berwald condition",
    )


_BUILDERS = {
    "minkowski4": _minkowski4,
    "schwarzschild": _schwarzschild,
    "conformally-flat": _conformally_flat,
    "bogoslovsky": _bogoslovsky,
    "kropina": _kropina,
    "szabo-counterexample": _szabo_counterexample,
    "nonberwald-flat": _nonberwald_flat,
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
    return _check_samples(builder(dict(overrides or {})))
