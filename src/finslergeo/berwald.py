"""Berwald detection, the induced affine connection, and metrizability tests.

A geometry is Berwald when the Chern-Rund connection does not depend on the
fiber coordinate, equivalently when the geodesic spray is quadratic in the
fiber coordinate.  Both are read from exact jets at one tangent sample: the
fiber derivative of Gamma in the sample's order-4 evaluation context, and
the spray at fiber vectors sampled inside the admissible cone against the
quadratic form that Gamma predicts.  The vectors sampled at every base
point of a scene are evaluated together, one order-2 block evaluation per
rejection round (`verdicts_at`).  On a Berwald verdict, Gamma at the
sample is the affine connection of the base point.  Its affine Ricci tensor,
assembled from the exact x-derivatives in the same context, has a skew part
that is the metrizability obstruction: a nonzero skew part proves no
pseudo-Riemannian metric has this connection as its Levi-Civita connection.

The affine Ricci tensor is one formula over a connection's values and exact
x-derivatives, whether these come from the evaluation context or from
`geometry.christoffel_gradient` for an expression metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .defs import LagrangianDef, TangentSample
from .geometry import DegenerateMetric, _Eval, _Row
from .jets import DomainError

TOL_BERWALD = 1e-7
TOL_SYM = 1e-7
DEFAULT_DIRECTIONS = 16
DEFAULT_SPREAD = 0.25
MAX_ATTEMPTS = 200


class NotBerwald(RuntimeError):
    """Obstruction diagnostics require a Berwald verdict first."""


class NoAdmissibleDirections(RuntimeError):
    """The seed direction lies outside A, or direction sampling found fewer
    than two admissible fiber vectors."""


@dataclass(frozen=True)
class BerwaldVerdict:
    """`max_gamma_deviation` is the larger of the two deviations tested.
    The fields are in the order of a report's per-point Berwald entry."""

    is_berwald: bool
    max_gamma_deviation: float
    fiber_derivative_deviation: float  # |dGamma/dxdot| |xdot| / |Gamma|
    spray_deviation: float  # |G(d) - Gamma(d, d)/2| / (|Gamma| |d|^2)
    directions_tested: int
    affine_connection: np.ndarray  # Gamma^a_bc at the seed direction


@dataclass(frozen=True)
class ObstructionReport:
    ricci: np.ndarray
    skew: np.ndarray
    skew_max_abs: float
    metrizability_necessary_condition_met: bool
    phi_constancy_residual: float


@dataclass(frozen=True)
class NonMetricityReport:
    reference_metric: tuple
    D: np.ndarray  # Gamma - christoffel(g_ref)
    Q: np.ndarray  # Q_abc = nabla_a g_bc
    Q_norm: float


# -- direction sampling --------------------------------------------------------


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(0 if rng is None else rng)


def _check_count(count: int) -> None:
    """ValueError unless `count` asks for the two directions a verdict needs."""
    if count < 2:
        raise ValueError(f"need at least 2 directions, got {count}")


def _witness_block(lag: LagrangianDef, points: np.ndarray, tol_degenerate: float):
    """Membership in A and the spray of each row (x, d) of `points`, from
    one order-2 block `_Eval`: a row is in A where the block takes it past g
    at `tol_degenerate` (`_Eval._spectrum`, the record a row's
    admissibility reads), with its column of the block's spray (the spray
    of the sample's lone evaluation, bit for bit), and else has a NaN
    spray; no row, one whose L is not finite included, is evaluated alone."""
    ev = _Eval(lag, points, 2, tol_degenerate)
    inside = ev._finite[ev._past]
    in_A = np.isin(np.arange(len(points)), inside)
    spray = np.full((len(points), ev.n), np.nan)
    spray[inside] = ev.spray_values.T
    return in_A, spray


def _witnesses(
    lag: LagrangianDef,
    bases: list,
    count: int,
    spread: float,
    max_attempts: int = MAX_ATTEMPTS,
    tol_degenerate: float = geometry.TOL_DEGENERATE,
) -> list:
    """Admissible fiber vectors near the seed direction of each base point
    (x, seed_direction, seed_spray, generator) of `bases`, and the spray at
    each: per base point (directions, sprays), or NoAdmissibleDirections
    with fewer than two vectors.

    The seed comes first, with `seed_spray`, unless that is None (the seed
    lies outside A).  In each round, every base point short of `count`
    vectors and within its attempt budget draws as many candidates as it
    still needs from its own generator, and the round's draws, each at its
    base point's x, are one order-2 block (`_witness_block`).  A draw
    outside A counts against the budget, and the vectors are kept in draw
    order: those of probing one candidate at a time at each base point."""
    n = lag.dim
    found = [([], []) if s is None else ([d], [s]) for _, d, s, _ in bases]
    attempts = [0] * len(bases)
    scales = [spread * max(1.0, float(np.max(np.abs(d)))) for _, d, _, _ in bases]
    while True:
        owners, rows = [], []
        for i, (x, d, _, gen) in enumerate(bases):
            size = min(count - len(found[i][0]), max_attempts - attempts[i])
            if size > 0:
                attempts[i] += size
                owners += [i] * size
                draws = d + scales[i] * gen.uniform(-1.0, 1.0, size=(size, n))
                rows.append(np.hstack([np.tile(x, (size, 1)), draws]))
        if not rows:
            break
        points = np.concatenate(rows)
        for i, p, ok, s in zip(owners, points, *_witness_block(lag, points, tol_degenerate)):
            if ok and np.any(p[n:] != 0.0):
                found[i][0].append(p[n:])
                found[i][1].append(s)
    return [
        (directions, sprays) if len(directions) >= 2 else NoAdmissibleDirections(
            f"found {len(directions)} admissible directions at x={x} after {tried} attempts"
        )
        for (x, *_), (directions, sprays), tried in zip(bases, found, attempts)
    ]


def sample_admissible_directions(
    lag: LagrangianDef,
    x: np.ndarray,
    seed_direction: np.ndarray,
    count: int = DEFAULT_DIRECTIONS,
    rng=None,
    spread: float = DEFAULT_SPREAD,
    max_attempts: int = MAX_ATTEMPTS,
) -> list[np.ndarray]:
    """Admissible fiber vectors near `seed_direction`, rejection-sampled.

    The seed direction itself is kept first when admissible; draws landing
    outside the admissible set A are skipped and counted against the attempt
    budget.  Raises NoAdmissibleDirections with fewer than two hits, and
    ValueError for a zero seed direction (outside the slit tangent bundle,
    as `TangentSample` has it) or a `count` below two.
    """
    _check_count(count)
    sample = TangentSample(x, seed_direction)
    point = np.concatenate([sample.x, sample.xdot])[None, :]
    in_A, spray = _witness_block(lag, point, geometry.TOL_DEGENERATE)
    base = (sample.x, sample.xdot, spray[0] if in_A[0] else None, _as_rng(rng))
    found = _witnesses(lag, [base], count, spread, max_attempts)[0]
    if isinstance(found, NoAdmissibleDirections):
        raise found
    return found[0]


# -- Berwald detection ---------------------------------------------------------


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def verdicts_at(
    contexts: Sequence[_Row],
    rngs: Sequence,
    count: int = DEFAULT_DIRECTIONS,
    spread: float = DEFAULT_SPREAD,
    tol_berwald: float = TOL_BERWALD,
) -> list:
    """The Berwald verdict at the base point of each order-4 evaluation
    context, or the error that stopped it; the contexts share one
    Lagrangian and one degenerate tolerance, and base point i draws its
    directions from `rngs[i]`.

    Two deviations, each relative to max(1, |Gamma|), must fall below
    `tol_berwald`: the fiber derivative of Gamma at the context's own
    direction, and the spray at `count` sampled admissible directions d
    against Gamma^a_bc d^b d^c / 2.  Both are necessary conditions.  A
    direction is admissible at the contexts' degenerate tolerance, and all
    base points sample together (`_witnesses`).  A base point whose Gamma
    or its fiber derivative is not finite gets DomainError and samples
    nothing, then one with fewer than two directions NoAdmissibleDirections,
    and then one whose spray is not finite DomainError.  A `count` below
    two is a ValueError."""
    _check_count(count)
    results, bases = {}, {}
    for i, (ev, rng) in enumerate(zip(contexts, rngs)):
        # past a finite L, Gamma or a spray can leave float range, and a NaN
        # deviation would read as a verdict
        try:
            geometry.require_finite(ev.gamma_values, "the Chern-Rund connection")
            geometry.require_finite(
                ev.gamma_fiber_derivatives, "the fiber derivative of the Chern-Rund connection"
            )
            bases[i] = (ev.sample.x, ev.sample.xdot, ev.spray_values, _as_rng(rng))
        except (DomainError, DegenerateMetric) as err:
            results[i] = err
    if bases:
        witnesses = _witnesses(
            contexts[0].lag, list(bases.values()), count, spread,
            tol_degenerate=contexts[0].tol_degenerate,
        )
        for i, found in zip(bases, witnesses):
            try:
                results[i] = found if isinstance(found, Exception) else _verdict(
                    contexts[i], *found, tol_berwald
                )
            except DomainError as err:
                results[i] = err
    return [results[i] for i in range(len(contexts))]


def _verdict(ev: _Row, directions, sprays, tol_berwald: float) -> BerwaldVerdict:
    """The verdict at a context from its witness directions and sprays."""
    geometry.require_finite(np.array(sprays), "the spray")
    gamma = ev.gamma_values
    scale = max(1.0, _max_abs(gamma))
    xdot_scale = max(1.0, _max_abs(ev.sample.xdot))
    fiber = _max_abs(ev.gamma_fiber_derivatives) * xdot_scale / scale
    spray = 0.0
    for d, g_d in zip(directions, sprays):
        quadratic = 0.5 * np.einsum("abc,b,c->a", gamma, d, d)
        d_scale = max(1.0, _max_abs(d))
        spray = max(spray, _max_abs(g_d - quadratic) / (scale * d_scale**2))
    dev = max(fiber, spray)
    return BerwaldVerdict(
        is_berwald=dev < tol_berwald,
        max_gamma_deviation=dev,
        fiber_derivative_deviation=fiber,
        spray_deviation=spray,
        directions_tested=len(directions),
        affine_connection=gamma.copy(),  # the context's array stays its own
    )


def verdict_at(
    ev: _Row,
    count: int = DEFAULT_DIRECTIONS,
    rng=None,
    spread: float = DEFAULT_SPREAD,
    tol_berwald: float = TOL_BERWALD,
) -> BerwaldVerdict:
    """Berwald verdict at the base point of an order-4 evaluation context:
    `verdicts_at` of that one context, whose error it raises."""
    verdict = verdicts_at([ev], [rng], count, spread, tol_berwald)[0]
    if isinstance(verdict, Exception):
        raise verdict
    return verdict


def _seed_context(lag: LagrangianDef, x: np.ndarray, seed_direction: np.ndarray) -> _Row:
    """The order-4 context of the seed direction, evaluated afresh
    (`geometry.probe_context`); NoAdmissibleDirections outside A."""
    sample = TangentSample(x, seed_direction)
    verdict, ev = geometry.probe_context(lag, sample)
    if not verdict.in_A:
        raise NoAdmissibleDirections(
            f"the seed direction at x={sample.x} is outside A ({verdict.failure_reason})"
        )
    return ev


def detect_berwald(
    lag: LagrangianDef,
    x: np.ndarray,
    seed_direction: np.ndarray,
    count: int = DEFAULT_DIRECTIONS,
    rng=None,
    spread: float = DEFAULT_SPREAD,
    tol_berwald: float = TOL_BERWALD,
) -> BerwaldVerdict:
    """Decide at (x, seed_direction) whether Gamma is fiber-independent."""
    _check_count(count)
    ev = _seed_context(lag, x, seed_direction)
    return verdict_at(ev, count, rng, spread, tol_berwald)


# -- affine Ricci ---------------------------------------------------------------


def affine_ricci_from_values(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R_ab = d_m Gamma^m_ab - d_b Gamma^m_am + Gamma^m_ms Gamma^s_ab
    - Gamma^m_bs Gamma^s_am, with dgamma[m] = d Gamma / d x^m."""
    term1 = np.einsum("mmab->ab", dgamma)
    term2 = np.einsum("bmam->ab", dgamma)
    term3 = np.einsum("mms,sab->ab", gamma, gamma)
    term4 = np.einsum("mbs,sam->ab", gamma, gamma)
    return term1 - term2 + term3 - term4


# -- the obstruction -------------------------------------------------------------


def require_berwald(verdict: BerwaldVerdict) -> None:
    """Raise NotBerwald unless the verdict found an affine connection."""
    if not verdict.is_berwald:
        raise NotBerwald(
            f"connection depends on the fiber (deviation "
            f"{verdict.max_gamma_deviation:.3e})"
        )


def obstruction_at(
    ev: _Row, verdict: BerwaldVerdict, tol_sym: float = TOL_SYM
) -> ObstructionReport:
    """Skew part of the affine Ricci tensor at the base point of an order-4
    evaluation context whose Berwald verdict is `verdict`, plus the residual
    of the curvature-route skew at the context's direction (the two routes
    agree on Berwald geometries)."""
    require_berwald(verdict)
    with np.errstate(over="ignore", invalid="ignore"):
        ricci = affine_ricci_from_values(ev.gamma_values, ev.gamma_x_derivatives)
    geometry.require_finite(ricci, "the affine Ricci tensor")
    skew = 0.5 * (ricci - ricci.T)
    skew_max = _max_abs(skew)
    curv_route = geometry.ricci_skew_from_curvature(
        ev.curvature.hh_riemann, ev.sample.xdot, ev.cartan_trace
    )
    ricci_scale = max(1.0, _max_abs(ricci))
    return ObstructionReport(
        ricci=ricci,
        skew=skew,
        skew_max_abs=skew_max,
        metrizability_necessary_condition_met=skew_max < tol_sym * ricci_scale,
        phi_constancy_residual=_max_abs(curv_route - 2.0 * skew),
    )


def obstruction(
    lag: LagrangianDef,
    x: np.ndarray,
    seed_direction: np.ndarray,
    count: int = DEFAULT_DIRECTIONS,
    rng_seed=0,
    spread: float = DEFAULT_SPREAD,
    tol_berwald: float = TOL_BERWALD,
    tol_sym: float = TOL_SYM,
) -> ObstructionReport:
    """The obstruction at (x, seed_direction); raises NotBerwald first when
    the geometry is not Berwald there."""
    _check_count(count)
    ev = _seed_context(lag, x, seed_direction)
    verdict = verdict_at(ev, count, rng_seed, spread, tol_berwald)
    return obstruction_at(ev, verdict, tol_sym)


# -- non-metricity decomposition --------------------------------------------------


def nonmetricity(
    gamma: np.ndarray,
    g_ref_exprs,
    x: np.ndarray,
    params=None,
) -> NonMetricityReport:
    """Decompose Gamma = christoffel(g_ref) + D and report the non-metricity
    Q_abc = nabla_a g_bc = -D^s_ac g_sb - D^s_ab g_sc of the reference metric."""
    x = np.asarray(x, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    # over Python floats, which leave float range as inf without a warning
    g_vals_obj = geometry.eval_metric_exprs(g_ref_exprs, x.tolist(), params)
    g_vals = g_vals_obj.astype(float)
    if abs(np.linalg.det(g_vals)) == 0.0:
        raise DegenerateMetric("reference metric is singular at x")
    gamma_ref = geometry.christoffel_values(g_ref_exprs, x, params)
    D = gamma - gamma_ref
    Q = -np.einsum("sac,sb->abc", D, g_vals) - np.einsum("sab,sc->abc", D, g_vals)
    return NonMetricityReport(
        reference_metric=tuple(tuple(row) for row in g_ref_exprs),
        D=D,
        Q=Q,
        Q_norm=float(np.max(np.abs(Q))),
    )
