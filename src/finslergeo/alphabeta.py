"""Closed forms for the (alpha, beta)-Lagrangian family.

For L = alpha(v,v) s^-p (c + m s)^(p+1) with s = beta(v)^2/alpha(v,v), the
geometry is Berwald exactly when

    nabla_a beta_b = H ([c(1-p) + m a1] beta_a beta_b + c p a1 alpha_ab),

with a1 = alpha^{-1}(beta, beta) and H = H(x) a scalar.  This module fits H
at a base point, evaluates the resulting closed-form spray, connection and
Ricci tensor, and classifies the causal viability of an instance.

Sign convention: H is the value that satisfies the displayed condition for
the actual covariant derivative of beta (the fit is a signed least-squares
problem, so both orientations are covered); the closed forms below then
reproduce the generic jet pipeline.  Any H expression stored on an instance
is used directly and the fit residual serves as a consistency diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as exprmod
from . import geometry
from .berwald import affine_ricci_from_values
from .defs import FamilyInstance, TangentSample
from .geometry import DegenerateMetric
from .jets import Jet, seed

TOL_CONDITION = 1e-9


@dataclass(frozen=True)
class BerwaldConditionFit:
    residual: float  # max-abs of nabla beta minus the fitted right-hand side
    h: float  # fitted (signed) H value at the base point


@dataclass(frozen=True)
class ClosedFormRicci:
    ricci: np.ndarray
    skew: np.ndarray  # (R_ab - R_ba)/2
    f_scalar: float  # (1/2)(4 c p - m alpha^{-1}(beta, beta))
    beta_wedge_dh: np.ndarray  # beta_a d_b H - beta_b d_a H

    @property
    def wedge_max_abs(self) -> float:
        return float(np.max(np.abs(self.beta_wedge_dh)))

    def nonmetrizable(self, tol: float = TOL_CONDITION) -> bool:
        """The proposition's sufficient test: f != 0 and beta wedge dH != 0."""
        return abs(self.f_scalar) > tol and self.wedge_max_abs > tol


@dataclass(frozen=True)
class CausalClass:
    p_case: str  # p_gt_0 | p_between | p_lt_m1 | boundary
    det_zeta: float
    zeta_signature: tuple[int, int, int]
    viable: bool


# -- shared evaluation over jets -----------------------------------------------


def _alpha_beta_jets(inst: FamilyInstance, x_jets):
    """(alpha, alpha_inv, beta, beta_up, a1) as jet-valued tensors."""
    n = inst.dim
    space = x_jets[0].space

    def lift(v):
        return v if isinstance(v, Jet) else space.constant(float(v))

    alpha = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            alpha[a, b] = lift(exprmod.eval(inst.alpha[a][b], x_jets, inst.params))
    beta = np.array(
        [lift(exprmod.eval(inst.beta[a], x_jets, inst.params)) for a in range(n)],
        dtype=object,
    )
    ainv = geometry.invert_jet_matrix(alpha)
    beta_up = np.empty(n, dtype=object)
    for a in range(n):
        acc = ainv[a, 0] * beta[0]
        for b in range(1, n):
            acc = acc + ainv[a, b] * beta[b]
        beta_up[a] = acc
    a1 = beta_up[0] * beta[0]
    for a in range(1, n):
        a1 = a1 + beta_up[a] * beta[a]
    return alpha, ainv, beta, beta_up, a1


def _condition_jets(inst: FamilyInstance, x_jets):
    """Both sides of the Berwald condition over one evaluation of alpha and
    beta: nabla_a beta_b for the Levi-Civita connection of alpha, and the
    tensor multiplying H."""
    n = inst.dim
    alpha, _, beta, _, a1 = _alpha_beta_jets(inst, x_jets)
    gamma = geometry.christoffel_jets(inst.alpha, x_jets, inst.params)
    coeff = inst.c * (1.0 - inst.p) + inst.m * a1
    nabla = np.empty((n, n), dtype=object)
    basis = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            acc = beta[b].diff(a)
            for s in range(n):
                acc = acc - gamma[s, a, b] * beta[s]
            nabla[a, b] = acc
            basis[a, b] = coeff * (beta[a] * beta[b]) + (inst.c * inst.p) * a1 * alpha[a, b]
    return nabla, basis


def fit_h_jet(inst: FamilyInstance, x_jets) -> Jet:
    """Least-squares H, carried through the jet algebra so that derivatives
    of the fitted field are available when no H expression is supplied."""
    n = inst.dim
    space = x_jets[0].space
    A, B = _condition_jets(inst, x_jets)
    num = None
    den = None
    for a in range(n):
        for b in range(n):
            nterm = A[a, b] * B[a, b]
            dterm = B[a, b] * B[a, b]
            num = nterm if num is None else num + nterm
            den = dterm if den is None else den + dterm
    if abs(den.value) < 1e-300:
        return space.constant(0.0)
    return num / den


def check_berwald_condition(inst: FamilyInstance, x) -> BerwaldConditionFit:
    """Fit H at x and report the residual of the Berwald condition."""
    x = np.asarray(x, dtype=float)
    A, B = _condition_jets(inst, seed(list(x), range(len(x)), 1))
    a_vals = geometry.values(A)
    b_vals = geometry.values(B)
    den = float(np.sum(b_vals * b_vals))
    h = float(np.sum(a_vals * b_vals)) / den if den > 1e-300 else 0.0
    residual = float(np.max(np.abs(a_vals - h * b_vals)))
    return BerwaldConditionFit(residual=residual, h=h)


def h_with_gradient(inst: FamilyInstance, x) -> tuple[float, np.ndarray]:
    """H and dH at x, from the stored expression when present, else fitted.

    The fit consumes one derivative order for nabla beta, so fitted gradients
    are taken over order-2 seeds.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if inst.h_expr is not None:
        xj = seed(list(x), range(n), 1)
        hj = exprmod.eval(inst.h_expr, xj, inst.params)
        if not isinstance(hj, Jet):
            return float(hj), np.zeros(n)
    else:
        xj = seed(list(x), range(n), 2)
        hj = fit_h_jet(inst, xj)
    return hj.value, geometry.first_derivatives(hj, range(n))


# -- closed forms ------------------------------------------------------------------


def _alpha_beta_values(inst: FamilyInstance, x):
    n = inst.dim
    alpha = np.array(
        [
            [float(exprmod.eval(inst.alpha[a][b], list(x), inst.params)) for b in range(n)]
            for a in range(n)
        ]
    )
    beta = np.array(
        [float(exprmod.eval(inst.beta[a], list(x), inst.params)) for a in range(n)]
    )
    try:
        ainv = np.linalg.inv(alpha)
    except np.linalg.LinAlgError as err:
        raise DegenerateMetric(f"alpha is singular at x={x}") from err
    return alpha, ainv, beta, ainv @ beta, float(beta @ ainv @ beta)


def _h_term(inst: FamilyInstance, alpha, beta, beta_up) -> np.ndarray:
    """W^a_bc = c p (delta^a_b beta_c + delta^a_c beta_b)
    - beta^a (m beta_b beta_c + c p alpha_bc); Gamma = gamma - H W."""
    n = inst.dim
    cp = inst.c * inst.p
    eye = np.eye(n)
    W = cp * (
        np.einsum("ab,c->abc", eye, beta) + np.einsum("ac,b->abc", eye, beta)
    )
    W -= np.einsum(
        "a,bc->abc", beta_up, inst.m * np.outer(beta, beta) + cp * alpha
    )
    return W


def closed_form_connection(
    inst: FamilyInstance, x, h: Optional[float] = None
) -> np.ndarray:
    """Gamma^a_bc(x) = gamma^a_bc(x) - H W^a_bc for a Berwald family instance."""
    x = np.asarray(x, dtype=float)
    alpha, _, beta, beta_up, _ = _alpha_beta_values(inst, x)
    if h is None:
        h, _ = h_with_gradient(inst, x)
    gamma_alpha = geometry.christoffel_values(inst.alpha, x, inst.params)
    return gamma_alpha - h * _h_term(inst, alpha, beta, beta_up)


def closed_form_spray(
    inst: FamilyInstance, sample: TangentSample, h: Optional[float] = None
) -> np.ndarray:
    """G^a = (1/2) Gamma^a_bc(x) xdot^b xdot^c."""
    gamma = closed_form_connection(inst, sample.x, h)
    return 0.5 * np.einsum("abc,b,c->a", gamma, sample.xdot, sample.xdot)


def closed_form_ricci(inst: FamilyInstance, x) -> ClosedFormRicci:
    """The family's affine Ricci tensor, its skew part, and the data of the
    non-metrizability proposition in closed form, from one (H, dH).

    Exact (cross-checked against the jet pipeline to machine precision)
    whenever beta is null with respect to alpha or H vanishes, which covers
    the plane-wave counterexample class for all parameter values.  On
    Berwald data with alpha^{-1}(beta, beta) != 0 and H != 0 the closed
    Ricci expression is known to deviate from the exact affine Ricci (the
    connection and spray closed forms remain exact); for such instances use
    the affine Ricci of the pipeline's connection (`berwald.obstruction`).
    """
    x = np.asarray(x, dtype=float)
    alpha, _, beta, beta_up, a1 = _alpha_beta_values(inst, x)
    h, dh = h_with_gradient(inst, x)
    c, m, p = inst.c, inst.m, inst.p
    ricci_alpha = affine_ricci_from_values(
        *geometry.christoffel_gradient(inst.alpha, x, inst.params)
    )
    beta_dh = float(beta_up @ dh)
    ricci = (
        ricci_alpha
        + c * p * alpha * (h * h * a1 * (c + 3 * c * p + m * a1) + beta_dh)
        + np.outer(beta, beta) * (2 * c * p * h * h * (c + m * a1) + m * beta_dh)
        - np.outer(beta, dh) * (m * a1 - 3 * c * p)
        - c * p * np.outer(dh, beta)
    )
    # (1/2)(R_ab - R_ba) = (1/2)(4cp - m a1)(beta_a d_b H - beta_b d_a H)
    f_scalar = 0.5 * (4 * c * p - m * a1)
    wedge = np.outer(beta, dh) - np.outer(dh, beta)
    return ClosedFormRicci(
        ricci=ricci, skew=f_scalar * wedge, f_scalar=float(f_scalar), beta_wedge_dh=wedge
    )


def beta_wedge_dh(inst: FamilyInstance, x) -> np.ndarray:
    """Components (beta_a d_b H - beta_b d_a H) of beta wedge dH."""
    return closed_form_ricci(inst, x).beta_wedge_dh


def proposition_nonmetrizable(
    inst: FamilyInstance, x, tol: float = TOL_CONDITION
) -> bool:
    """Sufficient non-metrizability test: f != 0 and beta wedge dH != 0."""
    return closed_form_ricci(inst, x).nonmetrizable(tol)


# -- causal classification ------------------------------------------------------


def classify_causal(inst: FamilyInstance, sample: TangentSample) -> CausalClass:
    """Causal viability of the instance at the sample's base point.

    zeta = c alpha + m beta (x) beta is the effective bilinear form; a viable
    spacetime needs zeta Lorentzian (negative determinant in dimension 4) and
    p outside the range p < -1, whose null structure is a hyperplane and
    never bounds a convex cone.
    """
    x = sample.x
    alpha, _, beta, _, _ = _alpha_beta_values(inst, x)
    n = inst.dim
    zeta = inst.c * alpha + inst.m * np.outer(beta, beta)
    det_zeta = float(np.linalg.det(zeta))
    eig = np.linalg.eigvalsh(0.5 * (zeta + zeta.T))
    scale = float(np.max(np.abs(eig))) or 1.0
    thr = 1e-12 * scale
    sig = (
        int(np.sum(eig > thr)),
        int(np.sum(eig < -thr)),
        int(np.sum(np.abs(eig) <= thr)),
    )
    p = inst.p
    if p < -1.0:
        p_case = "p_lt_m1"
    elif p > 0.0:
        p_case = "p_gt_0"
    elif -1.0 < p < 0.0:
        p_case = "p_between"
    else:
        p_case = "boundary"
    lorentzian = sig in ((1, n - 1, 0), (n - 1, 1, 0))
    viable = p_case != "p_lt_m1" and det_zeta < 0.0 and lorentzian
    return CausalClass(
        p_case=p_case, det_zeta=det_zeta, zeta_signature=sig, viable=viable
    )
