"""Finsler geometry chain at a tangent-bundle sample.

Everything is computed numerically from a single truncated-Taylor (jet)
expansion of the Lagrangian L(x, xdot) in the 2n chart coordinates:

    L -> g = (1/2) vertical Hessian        (the L-metric)
      -> spray G^a = (1/4) g^{aq} (xdot^m d_m ddot_q L - d_q L)
      -> nonlinear connection N^a_b = ddot_b G^a
      -> horizontal derivative  delta_a = d_a - N^b_a ddot_b
      -> connection Gamma^a_bc = (1/2) g^{aq}(delta_b g_cq + delta_c g_bq
                                              - delta_q g_bc)
      -> hh-curvature R^c_adb = delta_d Gamma^c_ab - delta_b Gamma^c_ad
                                + Gamma^c_ds Gamma^s_ab
                                - Gamma^c_bs Gamma^s_ad
      -> Ricci R_ab = R^m_amb and its skew part.

Horizontal derivatives of tensors are taken by keeping the tensor jet-valued
and combining its x-derivatives with N times its xdot-derivatives, so no
symbolic differentiation is needed anywhere.

All operations are pure functions of (definition, sample).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as exprmod
from .defs import DslLagrangian, LagrangianDef, TangentSample
from .expr import ExprDomainError
from .jets import DomainError, Jet, jet_space, powx, seed, seed_block

TOL_DEGENERATE = 1e-10
TOL_NULL = 1e-10

# Sign resolving the contraction slot of the skew-Ricci identity
# (R_ab - R_ba) = sign * R^c_{d a b} xdot^d C_c with R stored as R[c,a,d,b];
# fixed once by requiring the identity to hold numerically on non-quadratic
# Lagrangians (it is a pure index-convention choice).
SKEW_CONTRACTION_SIGN = -1.0


class DegenerateMetric(Exception):
    """The L-metric is singular at the sample: the point is outside A."""


@dataclass(frozen=True)
class MetricValue:
    g: np.ndarray
    g_inv: np.ndarray
    det: float
    signature: tuple[int, int, int]  # (n_plus, n_minus, n_zero)


@dataclass(frozen=True)
class CurvatureValue:
    hh_riemann: np.ndarray  # R[c, a, d, b]
    ricci: np.ndarray  # R_ab = R^m_amb
    skew_ricci: np.ndarray  # (R_ab - R_ba)/2


@dataclass(frozen=True)
class AdmissibilityVerdict:
    in_A: bool
    L_value: Optional[float]
    in_N: bool
    in_A0: bool
    in_T: bool
    failure_reason: Optional[str] = None


def _outside_A(reason: str) -> AdmissibilityVerdict:
    return AdmissibilityVerdict(
        in_A=False, L_value=None, in_N=False, in_A0=False, in_T=False,
        failure_reason=reason,
    )


# -- jet-array helpers --------------------------------------------------------


def values(jets) -> np.ndarray:
    """The value parts of a jet-valued array, as floats of the same shape."""
    jets = np.asarray(jets, dtype=object)
    out = np.empty(jets.shape)
    for idx in np.ndindex(jets.shape):
        out[idx] = jets[idx].value
    return out


def first_derivatives(jets, variables) -> np.ndarray:
    """out[m, ...] = d jets[...] / d variables[m], read off the jets."""
    jets = np.asarray(jets, dtype=object)
    variables = list(variables)
    out = np.empty((len(variables),) + jets.shape)
    for idx in np.ndindex(jets.shape):
        j = jets[idx]
        for m, var in enumerate(variables):
            out[(m,) + idx] = j.first(var)
    return out


def koszul(ginv, dg) -> np.ndarray:
    """Gamma^a_bc = (1/2) g^{aq} (D_b g_cq + D_c g_bq - D_q g_bc), with
    dg[m, a, b] = D_m g_ab for a derivation D (partial or horizontal)."""
    n = len(ginv)
    out = np.empty((n, n, n), dtype=object)
    for b in range(n):
        for c in range(b, n):
            for a in range(n):
                acc = None
                for q in range(n):
                    term = ginv[a, q] * (dg[b, c, q] + dg[c, b, q] - dg[q, b, c])
                    acc = term if acc is None else acc + term
                out[a, b, c] = 0.5 * acc
                out[a, c, b] = out[a, b, c]
    return out


def matmul_jets(A, B):
    n = len(A)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = A[i][0] * B[0][j]
            for k in range(1, n):
                acc = acc + A[i][k] * B[k][j]
            out[i, j] = acc
    return out


def invert_jet_matrix(g) -> np.ndarray:
    """Inverse of a jet-valued matrix via Newton iteration in the truncated
    algebra, started from the numeric inverse of the value part."""
    n = len(g)
    space = g[0][0].space
    order = min(g[i][j].order for i in range(n) for j in range(n))
    values = np.array([[g[i][j].value for j in range(n)] for i in range(n)])
    try:
        vinv = np.linalg.inv(values)
    except np.linalg.LinAlgError as err:
        raise DegenerateMetric(str(err)) from err
    X = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            X[i, j] = space.constant(vinv[i, j], order)
    iters, errdeg = 0, 1
    while errdeg <= order:
        iters += 1
        errdeg *= 2
    for _ in range(iters):
        GX = matmul_jets(g, X)
        for i in range(n):
            GX[i, i] = 2.0 - GX[i, i]
            for j in range(n):
                if i != j:
                    GX[i, j] = -GX[i, j]
        X = matmul_jets(X, GX)
    return X


def det_jet_matrix(g):
    """Determinant of a jet-valued matrix by cofactor expansion along the
    first row, each minor computed once.

    The minor on the last ``len(cols)`` rows and the columns ``cols`` is
    memoised on ``cols``; its terms are summed in the same order as the
    plain recursion, so the result is the same jet bit for bit.
    """
    n = len(g)
    minors: dict = {}

    def minor(cols):
        row = n - len(cols)
        if len(cols) == 1:
            return g[row][cols[0]]
        if cols not in minors:
            total = None
            for pos, c in enumerate(cols):
                term = g[row][c] * minor(cols[:pos] + cols[pos + 1:])
                if pos % 2 == 1:
                    term = -term
                total = term if total is None else total + term
            minors[cols] = total
        return minors[cols]

    return minor(tuple(range(n)))


# -- Lagrangian evaluation -----------------------------------------------------


def _half_hessian(L: Jet, n: int) -> np.ndarray:
    """The L-metric g_ab = (1/2) ddot_a ddot_b L as jets, from the jet of L
    over x then xdot (variable n + a is xdot^a)."""
    out = np.empty((n, n), dtype=object)
    for a in range(n):
        da = L.diff(n + a)
        for b in range(a, n):
            out[a, b] = 0.5 * da.diff(n + b)
            out[b, a] = out[a, b]
    return out


def eval_L_jets(lag: LagrangianDef, coord_jets: Sequence[Jet]) -> Jet:
    """L as a jet, given the 2n seeded coordinate jets (x then xdot)."""
    if isinstance(lag, DslLagrangian):
        return exprmod.eval(lag.ast, coord_jets, lag.params)
    n = lag.dim
    xj = coord_jets[:n]
    vj = coord_jets[n:]
    aval = None
    for a in range(n):
        for b in range(a, n):
            entry = exprmod.eval(lag.alpha[a][b], xj, lag.params)
            if isinstance(entry, (int, float)) and entry == 0.0:
                continue
            weight = 1.0 if a == b else 2.0
            term = (weight * entry) * vj[a] * vj[b]
            aval = term if aval is None else aval + term
    if aval is None:
        raise DegenerateMetric("alpha is identically zero")
    bval = None
    for a in range(n):
        entry = exprmod.eval(lag.beta[a], xj, lag.params)
        if isinstance(entry, (int, float)) and entry == 0.0:
            continue
        term = entry * vj[a]
        bval = term if bval is None else bval + term
    if bval is None:
        bval = xj[0].space.constant(0.0)
    s = bval * bval / aval
    return aval * powx(s, -lag.p) * powx(lag.c + lag.m * s, lag.p + 1.0)


def eval_L(lag: LagrangianDef, sample: TangentSample, order: int = 4) -> Jet:
    """Jet of L at the sample with all mixed (x, xdot) partials to `order`."""
    n = sample.dim
    order = max(1, order)
    cjets = seed(
        list(sample.x) + list(sample.xdot), range(2 * n), order
    )
    return eval_L_jets(lag, cjets)


# -- the chained evaluation ------------------------------------------------------


class _Eval:
    """Lazy evaluation of the geometry chain at one sample.

    Jet validity bookkeeping (seeded order k): g has validity k-2, the spray
    k-2, N and Gamma k-3.  Values need k=3, curvature needs k=4.
    """

    def __init__(self, lag: LagrangianDef, sample: TangentSample, order: int):
        self.lag = lag
        self.sample = sample
        self.order = order
        self.n = sample.dim
        self.cjets = seed(
            list(sample.x) + list(sample.xdot), range(2 * self.n), order
        )
        self.space = self.cjets[0].space
        # an overflow inside a product is tagged by `admissibility`, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            self.L = eval_L_jets(lag, self.cjets)

    # index helpers: variable a is x^a, variable n+a is xdot^a
    def dx(self, j: Jet, a: int) -> Jet:
        return j.diff(a)

    def dv(self, j: Jet, a: int) -> Jet:
        return j.diff(self.n + a)

    @cached_property
    def g_jets(self) -> np.ndarray:
        return _half_hessian(self.L, self.n)

    @cached_property
    def g_values(self) -> np.ndarray:
        raw = values(self.g_jets)
        return 0.5 * (raw + raw.T)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.g_values)

    def signature(self, tol_degenerate: float = TOL_DEGENERATE) -> tuple[int, int, int]:
        eig = self.eigenvalues
        scale = float(np.max(np.abs(eig)))
        if scale == 0.0:
            return (0, 0, self.n)
        thr = tol_degenerate * scale
        n_plus = int(np.sum(eig > thr))
        n_minus = int(np.sum(eig < -thr))
        return (n_plus, n_minus, self.n - n_plus - n_minus)

    def require_nondegenerate(self, tol_degenerate: float = TOL_DEGENERATE):
        if self.signature(tol_degenerate)[2] > 0:
            raise DegenerateMetric(
                f"L-metric is singular at the sample (eigenvalues {self.eigenvalues})"
            )

    def metric(self, tol_degenerate: float = TOL_DEGENERATE) -> MetricValue:
        self.require_nondegenerate(tol_degenerate)
        return MetricValue(
            g=self.g_values,
            g_inv=self.g_inv_values,
            det=float(np.linalg.det(self.g_values)),
            signature=self.signature(tol_degenerate),
        )

    def admissibility(
        self,
        convention: str = "+---",
        tol_degenerate: float = TOL_DEGENERATE,
        tol_null: float = TOL_NULL,
    ) -> AdmissibilityVerdict:
        if not np.all(np.isfinite(self.L.coeffs)):
            return _outside_A("non-finite")
        L_value = self.L.value
        sig = self.signature(tol_degenerate)
        in_A = sig[2] == 0
        xdot = np.abs(self.sample.xdot)
        scale = float(np.abs(self.g_values).dot(xdot).dot(xdot))
        in_N = abs(L_value) <= tol_null * max(scale, 1e-300)
        in_A0 = in_A and not in_N
        n = self.n
        if convention == "+---":
            lorentzian = sig == (1, n - 1, 0)
            positive = L_value > 0.0
        else:
            lorentzian = sig == (n - 1, 1, 0)
            positive = L_value < 0.0
        in_T = in_A0 and positive and lorentzian
        reason = None if in_A else "degenerate-metric"
        return AdmissibilityVerdict(
            in_A=in_A, L_value=L_value, in_N=in_N, in_A0=in_A0, in_T=in_T,
            failure_reason=reason,
        )

    @cached_property
    def g_inv_values(self) -> np.ndarray:
        """The inverse of g's values; its readers check g is nondegenerate
        first, `metric` at its own tolerance."""
        return np.linalg.inv(self.g_values)

    @cached_property
    def g_inv_jets(self) -> np.ndarray:
        self.require_nondegenerate()
        return invert_jet_matrix(self.g_jets)

    @cached_property
    def spray_jets(self) -> np.ndarray:
        n = self.n
        bracket = np.empty(n, dtype=object)
        for q in range(n):
            acc = None
            dLq = self.dv(self.L, q)
            for m in range(n):
                term = self.cjets[n + m] * self.dx(dLq, m)
                acc = term if acc is None else acc + term
            bracket[q] = acc - self.dx(self.L, q)
        ginv = self.g_inv_jets
        out = np.empty(n, dtype=object)
        for a in range(n):
            acc = ginv[a, 0] * bracket[0]
            for q in range(1, n):
                acc = acc + ginv[a, q] * bracket[q]
            out[a] = 0.25 * acc
        return out

    @cached_property
    def spray_values(self) -> np.ndarray:
        return values(self.spray_jets)

    @cached_property
    def nonlinear_jets(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n), dtype=object)
        for a in range(n):
            for b in range(n):
                out[a, b] = self.dv(self.spray_jets[a], b)
        return out

    @cached_property
    def nonlinear_values(self) -> np.ndarray:
        return values(self.nonlinear_jets)

    def delta_of(self, j: Jet) -> list[Jet]:
        """Horizontal derivative of a jet-valued scalar, one jet per index."""
        n = self.n
        out = []
        for a in range(n):
            acc = self.dx(j, a)
            for b in range(n):
                acc = acc - self.nonlinear_jets[b, a] * self.dv(j, b)
            out.append(acc)
        return out

    @cached_property
    def gamma_jets(self) -> np.ndarray:
        n = self.n
        dg = np.empty((n, n, n), dtype=object)  # dg[b, c, q] = delta_b g_cq
        for c in range(n):
            for q in range(c, n):
                cols = self.delta_of(self.g_jets[c, q])
                for b in range(n):
                    dg[b, c, q] = cols[b]
                    dg[b, q, c] = cols[b]
        return koszul(self.g_inv_jets, dg)

    @cached_property
    def gamma_values(self) -> np.ndarray:
        return values(self.gamma_jets)

    @cached_property
    def gamma_x_derivatives(self) -> np.ndarray:
        """dGamma[m, a, b, c] = d Gamma^a_bc / d x^m at fixed xdot."""
        return first_derivatives(self.gamma_jets, range(self.n))

    @cached_property
    def cartan_values(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n, n))
        for a in range(n):
            for b in range(a, n):
                for c in range(b, n):
                    v = 0.5 * self.dv(self.g_jets[a, b], c).value
                    for idx in {
                        (a, b, c), (a, c, b), (b, a, c),
                        (b, c, a), (c, a, b), (c, b, a),
                    }:
                        out[idx] = v
        return out

    @cached_property
    def cartan_trace(self) -> np.ndarray:
        self.require_nondegenerate()
        return np.einsum("mn,amn->a", self.g_inv_values, self.cartan_values)

    @cached_property
    def gamma_fiber_derivatives(self) -> np.ndarray:
        """dGamma_v[e, a, b, c] = d Gamma^a_bc / d xdot^e at fixed x."""
        return first_derivatives(self.gamma_jets, range(self.n, 2 * self.n))

    @cached_property
    def curvature(self) -> CurvatureValue:
        n = self.n
        gamma = self.gamma_values
        # delta_d Gamma^c_ab = d_d Gamma - N^e_d ddot_e Gamma
        dgam_x = self.gamma_x_derivatives  # [m, c, a, b]
        dgam_v = self.gamma_fiber_derivatives  # [e, c, a, b]
        delta_gam = dgam_x - np.einsum("ed,ecab->dcab", self.nonlinear_values, dgam_v)
        riem = np.empty((n, n, n, n))
        quad = np.einsum("cds,sab->cadb", gamma, gamma) - np.einsum(
            "cbs,sad->cadb", gamma, gamma
        )
        for c in range(n):
            for a in range(n):
                for d in range(n):
                    for b in range(n):
                        riem[c, a, d, b] = (
                            delta_gam[d, c, a, b] - delta_gam[b, c, a, d]
                        )
        riem += quad
        ricci = np.einsum("mamb->ab", riem)
        skew = 0.5 * (ricci - ricci.T)
        return CurvatureValue(hh_riemann=riem, ricci=ricci, skew_ricci=skew)

    @cached_property
    def log_sqrt_det(self) -> Jet:
        """ln sqrt|det g| as a jet over this context's coordinates."""
        return 0.5 * abs(det_jet_matrix(self.g_jets)).ln()

    def commutator_residual(self, f: Jet) -> float:
        """Residual of [delta_a, delta_b] f = R^c_{dab} xdot^d ddot_c f for a
        scalar field f given as a jet over this context's coordinates."""
        n = self.n
        Nv = self.nonlinear_values
        ddf = first_derivatives(self.delta_of(f), range(2 * n))  # [var, b]
        dd = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                acc = ddf[a, b]
                for c in range(n):
                    acc -= Nv[c, a] * ddf[n + c, b]
                dd[a, b] = acc
        lhs = dd - dd.T
        dvf = first_derivatives(f, range(n, 2 * n))
        rhs = ricci_skew_from_curvature(self.curvature.hh_riemann, self.sample.xdot, dvf)
        return float(np.max(np.abs(lhs - rhs)))


# -- public operations ---------------------------------------------------------


def metric(
    lag: LagrangianDef,
    sample: TangentSample,
    tol_degenerate: float = TOL_DEGENERATE,
) -> MetricValue:
    """The L-metric (half the vertical Hessian) with inverse and signature."""
    return _Eval(lag, sample, 2).metric(tol_degenerate)


def spray(lag: LagrangianDef, sample: TangentSample) -> np.ndarray:
    return _Eval(lag, sample, 2).spray_values


def nonlinear_connection(lag: LagrangianDef, sample: TangentSample) -> np.ndarray:
    return _Eval(lag, sample, 3).nonlinear_values


def chern_rund(lag: LagrangianDef, sample: TangentSample) -> np.ndarray:
    return _Eval(lag, sample, 3).gamma_values


def hh_curvature(lag: LagrangianDef, sample: TangentSample) -> CurvatureValue:
    return _Eval(lag, sample, 4).curvature


def vertical_derivative(
    lag: LagrangianDef,
    sample: TangentSample,
    scalar_field: Callable[[Sequence[Jet]], Jet],
) -> np.ndarray:
    """ddot_a f, the fiber derivative of a jet-valued scalar field."""
    ev = _Eval(lag, sample, 3)
    f = scalar_field(ev.cjets)
    return first_derivatives(f, range(ev.n, 2 * ev.n))


def ricci_skew_from_curvature(
    riem: np.ndarray, xdot: np.ndarray, covector: np.ndarray
) -> np.ndarray:
    """The curvature route of the skew identity: R_ab - R_ba as the
    contraction R^c_{d a b} xdot^d C_c (index placement fixed numerically)."""
    return SKEW_CONTRACTION_SIGN * np.einsum("cdab,d,c->ab", riem, xdot, covector)


def commutator_check(
    lag: LagrangianDef,
    sample: TangentSample,
    scalar_field: Callable[[Sequence[Jet]], Jet],
) -> float:
    """Residual of [delta_a, delta_b] f = R^c_{dab} xdot^d ddot_c f."""
    ev = _Eval(lag, sample, 4)
    return ev.commutator_residual(scalar_field(ev.cjets))


def probe_context(
    lag: LagrangianDef,
    sample: TangentSample,
    order: int,
    convention: str = "+---",
    tol_degenerate: float = TOL_DEGENERATE,
    tol_null: float = TOL_NULL,
) -> tuple[AdmissibilityVerdict, Optional[_Eval]]:
    """Admissibility of the sample and the evaluation context, seeded at
    `order`, that decided it; the context is None when L cannot be evaluated."""
    if convention not in ("+---", "-+++"):
        raise ValueError(f"unknown signature convention {convention!r}")
    try:
        ev = _Eval(lag, sample, order)
    except (DomainError, ExprDomainError) as err:
        reason = getattr(err, "reason", None) or str(err)
        return _outside_A(reason), None
    return ev.admissibility(convention, tol_degenerate, tol_null), ev


@lru_cache(maxsize=None)
def _order2_slots(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient slots in JetSpace(2n, 2), variables x then xdot, of the
    monomials xdot^a xdot^b [a, b], x^m xdot^q [m, q] and x^q [q]."""
    space = jet_space(2 * n, 2)

    def slot(*variables):
        e = [0] * (2 * n)
        for v in variables:
            e[v] += 1
        return space.index[tuple(e)]

    vv = np.array([[slot(n + a, n + b) for b in range(n)] for a in range(n)])
    xv = np.array([[slot(m, n + q) for q in range(n)] for m in range(n)])
    x1 = np.array([slot(q) for q in range(n)])
    return vv, xv, x1


def spray_witness(
    lag: LagrangianDef, x: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership in A and the spray at (x, d) for each row d of `directions`.

    L is evaluated once, to order 2, over the whole block: the x-jets are
    scalar, so every x-only subexpression is evaluated once, and the
    xdot-jets are batched.  Row by row, the mask equals the `in_A` of
    ``probe_context(lag, TangentSample(x, d), 2)`` and the spray equals its
    context's `spray_values`, bit for bit: both are read from L's
    coefficients with the float operations of `_Eval`, in its order (each
    validity-0 jet product is the 0.0 + a * b of `np.bincount`; `eigvalsh`
    and `inv` run on the stacked matrices).  A row outside A, including one
    whose L left a function's domain, has a spray of NaN.
    """
    x = np.asarray(x, dtype=float)
    directions = np.asarray(directions, dtype=float)
    rows, n = directions.shape
    in_A = np.zeros(rows, dtype=bool)
    spray = np.full((rows, n), np.nan)
    cjets = seed_block(x, directions, 2)
    try:
        with np.errstate(all="ignore"):
            L = eval_L_jets(lag, cjets)
    except (DomainError, ExprDomainError):
        return in_A, spray  # raised by the x-jets or a constant: every row alike
    coeffs = np.broadcast_to(L.coeffs, (rows, L.coeffs.shape[-1]))
    vv, xv, x1 = _order2_slots(n)

    # g_jets values: 0.5 * dv_b dv_a L, each diff scaling by the exponent
    raw = coeffs[:, vv] * np.where(np.eye(n, dtype=bool), 2.0, 1.0) * 0.5
    g = 0.5 * (raw + raw.transpose(0, 2, 1))
    finite = np.all(np.isfinite(coeffs), axis=1) & np.all(np.isfinite(g), axis=(1, 2))
    eig = np.linalg.eigvalsh(np.where(finite[:, None, None], g, np.eye(n)))
    thr = TOL_DEGENERATE * np.max(np.abs(eig), axis=1)
    nonzero = np.sum(eig > thr[:, None], axis=1) + np.sum(eig < -thr[:, None], axis=1)
    in_A = finite & (nonzero == n)

    inside = np.flatnonzero(in_A)
    if inside.size:
        coeffs = coeffs[inside]
        # bracket_q = sum_m xdot^m d_m ddot_q L - d_q L, summed over m in order
        terms = 0.0 + directions[inside][:, :, None] * coeffs[:, xv]  # [row, m, q]
        bracket = terms[:, 0]
        for m in range(1, n):
            bracket = bracket + terms[:, m]
        bracket = bracket - coeffs[:, x1]
        # G^a = (1/4) sum_q g^{aq} bracket_q, summed over q in order
        terms = 0.0 + np.linalg.inv(raw[inside]) * bracket[:, None, :]  # [row, a, q]
        acc = terms[:, :, 0]
        for q in range(1, n):
            acc = acc + terms[:, :, q]
        spray[inside] = acc * 0.25
    return in_A, spray


def probe_admissibility(
    lag: LagrangianDef,
    sample: TangentSample,
    convention: str = "+---",
    tol_degenerate: float = TOL_DEGENERATE,
    tol_null: float = TOL_NULL,
) -> AdmissibilityVerdict:
    """Membership in the sets A (smooth, nondegenerate), N (null), A0, T."""
    return probe_context(lag, sample, 2, convention, tol_degenerate, tol_null)[0]


def log_sqrt_det_metric_field(lag: LagrangianDef) -> Callable[[Sequence[Jet]], Jet]:
    """The scalar field ln sqrt|det g| as a jet-valued function on TM."""

    def field(coord_jets: Sequence[Jet]) -> Jet:
        g = _half_hessian(eval_L_jets(lag, coord_jets), len(coord_jets) // 2)
        return 0.5 * abs(det_jet_matrix(g)).ln()

    return field


# -- expression-metric helpers (pseudo-Riemannian reference data) -------------


def eval_metric_exprs(exprs, coords, params=None) -> np.ndarray:
    """Evaluate an array of expressions (a metric, a one-form) at scalar-like
    coordinates.  Over jet coordinates every entry is a jet: constant
    entries become constant jets."""
    exprs = np.asarray(exprs, dtype=object)
    space = getattr(coords[0], "space", None)
    out = np.empty(exprs.shape, dtype=object)
    for idx in np.ndindex(exprs.shape):
        v = exprmod.eval(exprs[idx], coords, params)
        out[idx] = v if space is None or isinstance(v, Jet) else space.constant(float(v))
    return out


def levi_civita_jets(g, ginv) -> np.ndarray:
    """Christoffel symbols of a metric g given as jets over seeded base
    coordinates, from g and its inverse g^-1 as jets."""
    n = len(g)
    dg = np.empty((n, n, n), dtype=object)  # dg[m, a, b] = d_m g_ab
    for a in range(n):
        for b in range(n):
            for m in range(n):
                dg[m, a, b] = g[a, b].diff(m)
    return koszul(ginv, dg)


def christoffel_jets(g_exprs, x_jets, params=None) -> np.ndarray:
    """Christoffel symbols of an expression metric over seeded base jets."""
    g = eval_metric_exprs(g_exprs, x_jets, params)
    return levi_civita_jets(g, invert_jet_matrix(g))


def christoffel_values(g_exprs, x: np.ndarray, params=None) -> np.ndarray:
    xj = seed(list(x), range(len(x)), 1)
    return values(christoffel_jets(g_exprs, xj, params))


def christoffel_gradient(g_exprs, x, params=None) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols of an expression metric at x, and their exact
    x-derivatives dgamma[m, a, b, c] = d Gamma^a_bc / d x^m."""
    x = np.asarray(x, dtype=float)
    gamma = christoffel_jets(g_exprs, seed(list(x), range(len(x)), 2), params)
    return values(gamma), first_derivatives(gamma, range(len(x)))
