"""Shared domain types: tangent samples and Lagrangian definitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .expr import ExpressionAst


class BadNumber(ValueError):
    """A value read as a number is a bool, not a number, or beyond float
    range."""


def as_number(value) -> float:
    """A number read from a scene or an override, as a float: a bool, any
    other non-number and an integer beyond float range raise BadNumber."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadNumber(f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise BadNumber("the number is beyond float range") from None


@dataclass(frozen=True)
class TangentSample:
    """A point (x, xdot) of the slit tangent bundle in a single chart."""

    x: np.ndarray
    xdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xdot", np.asarray(self.xdot, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.xdot.shape:
            raise ValueError("x and xdot must be 1-d arrays of equal length")
        if not np.any(self.xdot != 0.0):
            raise ValueError("xdot must not be the zero vector")

    @property
    def dim(self) -> int:
        return len(self.x)

    def scaled(self, lam: float) -> "TangentSample":
        return TangentSample(self.x, lam * self.xdot)


@dataclass(frozen=True)
class FamilyInstance:
    """(alpha, beta)-Lagrangian data: L = alpha(v,v) * s^-p * (c + m*s)^(p+1),
    with s = beta(v)^2 / alpha(v,v).

    `alpha` is a symmetric matrix of expressions in the base coordinates,
    `beta` a covector of expressions, and `h_expr` optionally supplies the
    scalar usually obtained by fitting the Berwald condition.
    """

    dim: int
    alpha: tuple  # dim x dim nested tuple of ExpressionAst
    beta: tuple  # dim tuple of ExpressionAst
    c: float
    m: float
    p: float
    h_expr: Optional[ExpressionAst] = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for v in (self.c, self.m, self.p):
            if not np.isfinite(v):
                raise ValueError("family parameters must be finite")
        if len(self.alpha) != self.dim or any(len(r) != self.dim for r in self.alpha):
            raise ValueError("alpha must be a dim x dim expression matrix")
        if len(self.beta) != self.dim:
            raise ValueError("beta must have dim components")
        for a in range(self.dim):
            for b in range(a):
                if self.alpha[a][b] != self.alpha[b][a]:
                    raise ValueError("alpha expression matrix must be symmetric")


@dataclass(frozen=True)
class DslLagrangian:
    """A raw expression for L over the 2n coordinates (x, xdot)."""

    dim: int
    ast: ExpressionAst
    params: Mapping[str, float] = field(default_factory=dict)


LagrangianDef = Union[FamilyInstance, DslLagrangian]


def fiber_aliases(dim: int, base_aliases: Mapping[str, int] | None) -> dict[str, int]:
    """Coordinate alias table for 2n-variable expressions over (x, xdot).

    The fiber coordinate over base coordinate k is spelled ``dx<k>``; base
    aliases (u, v, ...) additionally produce fiber aliases (du, dv, ...).
    """
    table: dict[str, int] = {}
    for k in range(dim):
        table[f"dx{k}"] = dim + k
    if base_aliases:
        for name, idx in base_aliases.items():
            table[name] = idx
            table["d" + name] = dim + idx
    return table
