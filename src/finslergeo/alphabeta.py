"""Closed forms for the (alpha, beta)-Lagrangian family.

For L = alpha(v,v) s^-p (c + m s)^(p+1) with s = beta(v)^2/alpha(v,v), the
geometry is Berwald exactly when

    nabla_a beta_b = H ([c(1-p) + m a1] beta_a beta_b + c p a1 alpha_ab),

with a1 = alpha^{-1}(beta, beta) and H = H(x) a scalar.  This module fits H
at a base point, evaluates the resulting closed-form spray, connection and
Ricci tensor, and classifies the causal viability of an instance.  All of
them are read from one `FamilyEval` per base point; the public functions
are readers of a fresh one.

Sign convention: H is the value that satisfies the displayed condition for
the actual covariant derivative of beta (the fit is a signed least-squares
problem, so both orientations are covered); the closed forms below then
reproduce the generic jet pipeline.  Any H expression stored on an instance
is used directly and the fit residual serves as a consistency diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import expr as exprmod
from . import geometry
from .berwald import affine_ricci_from_values
from .defs import FamilyInstance, TangentSample
from .geometry import (
    DegenerateMetric, dot_rows, first_derivatives, stack_jets, take_rows, values,
)
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


@dataclass(frozen=True)
class CausalClass:
    """The fields are in the order of a report's per-point causal entry."""

    p_case: str  # p_gt_0 | p_between | p_lt_m1 | boundary
    det_zeta: float
    zeta_signature: tuple[int, int, int]
    viable: bool


# -- one evaluation per base point ---------------------------------------------------


class FamilyEval:
    """Evaluation of the family's closed forms at one base point.

    Like `geometry._Eval`, the constructor does the evaluation every reader
    shares and raises what stops it: x is seeded once at order 2, alpha and
    beta are evaluated once, and alpha is inverted once (DegenerateMetric
    where alpha is singular).  alpha's Christoffel symbols, both sides of the
    Berwald condition, the H fit and every closed form are lazy readers of
    those jets.  The fit spends one derivative order on nabla beta, so order
    2 leaves dH exact whether H is stored or fitted.
    """

    def __init__(self, inst: FamilyInstance, x):
        self.inst = inst
        self.x = np.asarray(x, dtype=float)
        self.n = n = inst.dim
        self.xjets = seed(list(self.x), range(n), 2)
        # alpha, its inverse and beta as stacks (`geometry.stack_jets`)
        evaluate = geometry.eval_metric_exprs
        self.alpha_jets = stack_jets(evaluate(inst.alpha, self.xjets, inst.params))
        self.beta_jets = stack_jets(evaluate(inst.beta, self.xjets, inst.params))
        try:
            self.alpha_inv_jets = geometry.invert_jet_matrix(self.alpha_jets)
        except DegenerateMetric as err:
            raise DegenerateMetric(f"alpha is singular at x={self.x}") from err
        # beta^a = alpha^{ab} beta_b and a1 = alpha^{-1}(beta, beta)
        self.beta_up_jets = geometry.matvec(self.alpha_inv_jets, self.beta_jets)
        self.a1_jet = dot_rows(self.beta_up_jets, self.beta_jets)
        self.alpha = values(self.alpha_jets, (n, n))
        self.beta = values(self.beta_jets, (n,))
        self.beta_up = values(self.beta_up_jets, (n,))
        self.a1 = self.a1_jet.value

    @cached_property
    def christoffel_jets(self) -> Jet:
        """gamma^a_bc, the Levi-Civita connection of alpha, as a stack."""
        return geometry.levi_civita_jets(self.alpha_jets, self.alpha_inv_jets)

    # -- the Berwald condition and H ------------------------------------------------

    @cached_property
    def condition_jets(self) -> tuple[Jet, Jet]:
        """Both sides of the Berwald condition as (n, n) stacks: nabla_a beta_b
        for the Levi-Civita connection of alpha, and the tensor multiplying H."""
        inst, n = self.inst, self.n
        alpha, beta, gamma = self.alpha_jets, self.beta_jets, self.christoffel_jets
        coeff = inst.c * (1.0 - inst.p) + inst.m * self.a1_jet
        cp_a1 = (inst.c * inst.p) * self.a1_jet
        rows = np.arange(n * n)  # [a, b]
        # d_a beta_b - gamma^s_ab beta_s, subtracted in s order
        nabla = geometry.partials(beta, range(n))
        for s in range(n):
            nabla = nabla - take_rows(gamma, s * n * n + rows) * take_rows(beta, np.full(n * n, s))
        outer = take_rows(beta, rows // n) * take_rows(beta, rows % n)
        basis = coeff * outer + cp_a1 * alpha
        return nabla, basis

    @cached_property
    def fit(self) -> BerwaldConditionFit:
        """Least-squares H at x and the residual of the Berwald condition."""
        A, B = self.condition_jets
        a_vals = values(A, (self.n, self.n))
        b_vals = values(B, (self.n, self.n))
        den = float(np.sum(b_vals * b_vals))
        h = float(np.sum(a_vals * b_vals)) / den if den > 1e-300 else 0.0
        residual = float(np.max(np.abs(a_vals - h * b_vals)))
        return BerwaldConditionFit(residual=residual, h=h)

    @cached_property
    def h_gradient(self) -> tuple[float, np.ndarray]:
        """H and dH at x: from the stored expression when present, else from
        the least-squares fit carried through the jet algebra."""
        if self.inst.h_expr is not None:
            hj = exprmod.eval(self.inst.h_expr, self.xjets, self.inst.params)
            if not isinstance(hj, Jet):
                return float(hj), np.zeros(self.n)
        else:
            A, B = self.condition_jets
            den = dot_rows(B, B)
            if abs(den.value) < 1e-300:
                return 0.0, np.zeros(self.n)
            hj = dot_rows(A, B) / den
        return hj.value, first_derivatives(hj, range(self.n))

    # -- closed forms -------------------------------------------------------------------

    def connection(self, h: Optional[float] = None) -> np.ndarray:
        """Gamma^a_bc(x) = gamma^a_bc(x) - H W^a_bc for a Berwald family
        instance, with H from `h_gradient` unless given, and
        W^a_bc = c p (delta^a_b beta_c + delta^a_c beta_b)
        - beta^a (m beta_b beta_c + c p alpha_bc)."""
        if h is None:
            h = self.h_gradient[0]
        cp = self.inst.c * self.inst.p
        beta = self.beta
        eye = np.eye(self.n)
        W = cp * (
            np.einsum("ab,c->abc", eye, beta) + np.einsum("ac,b->abc", eye, beta)
        )
        W -= np.einsum(
            "a,bc->abc", self.beta_up, self.inst.m * np.outer(beta, beta) + cp * self.alpha
        )
        return values(self.christoffel_jets, (self.n,) * 3) - h * W

    def spray(self, xdot, h: Optional[float] = None) -> np.ndarray:
        """G^a = (1/2) Gamma^a_bc(x) xdot^b xdot^c, with Gamma from
        `connection(h)`."""
        return 0.5 * np.einsum("abc,b,c->a", self.connection(h), xdot, xdot)

    @cached_property
    def ricci(self) -> ClosedFormRicci:
        """The family's affine Ricci tensor, its skew part, and the data of
        the non-metrizability proposition in closed form.

        Exact (cross-checked against the jet pipeline to machine precision)
        whenever beta is null with respect to alpha or H vanishes, which
        covers the plane-wave counterexample class for all parameter values.
        On Berwald data with alpha^{-1}(beta, beta) != 0 and H != 0 the closed
        Ricci expression is known to deviate from the exact affine Ricci (the
        connection and spray closed forms remain exact); for such instances
        use the affine Ricci of the pipeline's connection
        (`berwald.obstruction`).
        """
        alpha, beta, a1 = self.alpha, self.beta, self.a1
        h, dh = self.h_gradient
        c, m, p = self.inst.c, self.inst.m, self.inst.p
        gamma = self.christoffel_jets
        shape = (self.n,) * 3
        ricci_alpha = affine_ricci_from_values(
            values(gamma, shape), first_derivatives(gamma, range(self.n), shape)
        )
        beta_dh = float(self.beta_up @ dh)
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

    def nonmetrizable(self, tol: float = TOL_CONDITION) -> bool:
        """The proposition's sufficient test of non-metrizability.  It assumes
        the Berwald condition, so it needs the fit residual below
        TOL_CONDITION, and then f != 0 and beta wedge dH != 0."""
        cf = self.ricci
        return (
            self.fit.residual < TOL_CONDITION
            and abs(cf.f_scalar) > tol
            and cf.wedge_max_abs > tol
        )

    @cached_property
    def causal(self) -> CausalClass:
        """Causal viability of the instance at x.

        zeta = c alpha + m beta (x) beta is the effective bilinear form; a
        viable spacetime needs zeta Lorentzian, read off its signature (its
        determinant is positive at (1, n-1, 0) in odd n), and p outside the
        range p < -1, whose null structure is a hyperplane and never bounds
        a convex cone.
        """
        inst, n = self.inst, self.n
        zeta = inst.c * self.alpha + inst.m * np.outer(self.beta, self.beta)
        det_zeta = float(np.linalg.det(zeta))
        eig = np.linalg.eigvalsh(0.5 * (zeta + zeta.T))
        sig = tuple(int(k) for k in geometry._signature(eig[None], 1e-12)[0])
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
        viable = p_case != "p_lt_m1" and lorentzian
        return CausalClass(
            p_case=p_case, det_zeta=det_zeta, zeta_signature=sig, viable=viable
        )


# -- public readers, each of a fresh evaluation ----------------------------------------


def check_berwald_condition(inst: FamilyInstance, x) -> BerwaldConditionFit:
    """Fit H at x and report the residual of the Berwald condition."""
    return FamilyEval(inst, x).fit


def closed_form_ricci(inst: FamilyInstance, x) -> ClosedFormRicci:
    """The closed-form Ricci tensor at x; see `FamilyEval.ricci`."""
    return FamilyEval(inst, x).ricci


def beta_wedge_dh(inst: FamilyInstance, x) -> np.ndarray:
    """Components (beta_a d_b H - beta_b d_a H) of beta wedge dH."""
    return FamilyEval(inst, x).ricci.beta_wedge_dh


def proposition_nonmetrizable(
    inst: FamilyInstance, x, tol: float = TOL_CONDITION
) -> bool:
    """Sufficient non-metrizability test where the Berwald condition holds:
    f != 0 and beta wedge dH != 0."""
    return FamilyEval(inst, x).nonmetrizable(tol)


def classify_causal(inst: FamilyInstance, sample: TangentSample) -> CausalClass:
    """Causal viability at the sample's base point; see `FamilyEval.causal`."""
    return FamilyEval(inst, sample.x).causal
