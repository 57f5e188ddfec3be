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

Each tensor of jets from g on is a stack: one `Jet` whose coefficient row
r holds the tensor's component r in row-major order (g and N have n^2
rows, Gamma n^3), and at a block of samples the rows (component, sample)
(`_Eval`).  A stage is a few operations on stacks.  A contraction
sum_k A[..k] B[k..] is one stacked product over the rows (k, result row),
both operands gathered by row-index arrays (`contract`), summed as
``acc = acc + term`` in k order: the order of the loop that would sum one
component at a time, so every row is that loop's jet bit for bit.  The
product's temporaries hold k times the result's rows.  The values and first
derivatives of a stack are columns of its coefficient array.  The inversion
of g, ln sqrt|det g| and the Koszul contraction run in the jet space of the
variables their operands depend on (`_on_support`; see "Supports" in
`jets`): g's are read off its coefficients, so a quadratic L gives a g, a
g^-1 and a Koszul contraction in a space free of xdot.  A horizontal
derivative of a jet that does not depend on xdot is its x-partials
(`delta_of`), the bits of the full computation.  ln sqrt|det g| is
(1/2)(ln|det G0| + tr ln(I + E)), G0 g's values and E = G0^-1 (g - G0),
whose series ends at E^4: O(n^3) products (`log_sqrt_abs_det`).

All operations are pure functions of (definition, sample).  Every sample
is evaluated in a block (`_Eval`) and read through its row (`_Row`), the
one reader of a sample: a lone sample is a block of one, whose row the
public readers of that sample share (`_context`); a report reads every
sample of a scene from one order-4 block (`probe_block`), and the Berwald
witness reads its sampled directions from order-2 blocks.  A block decides
once which of its samples are in A, where L is smooth and g nondegenerate:
one pass over g's values (`_Eval._spectrum`) takes their eigenvalues and
signature, the samples whose g is nondegenerate and whose values invert,
and the inverse and ln|det| of the values there, and every reader of
membership in A, of g^-1 or of ln sqrt|det g| reads that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, wraps
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


def _quiet(fn):
    """fn with numpy's overflow and invalid-value warnings off.  Past a finite
    L a stage of the chain can leave float range; what reads its values
    checks them (`require_finite`) and tags the overflow."""

    @wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return quiet


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, or DomainError("overflow") when one is not finite."""
    if not np.all(np.isfinite(values)):
        raise DomainError("overflow", f"{what} is out of float range")
    return values


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


# -- tensor stacks ------------------------------------------------------------------


def stack_jets(jets) -> Jet:
    """The jets of an array of any shape as one stack: row r holds component
    r in row-major order, cut to the jets' common validity.  Its support is
    read off its coefficients."""
    flat = np.asarray(jets, dtype=object).ravel()
    space = flat[0].space
    order = min(j.order for j in flat)
    width = space.ncoeff_upto[order]
    return Jet(space, np.array([j.coeffs[:width] for j in flat]), order)


def take_rows(s: Jet, index, order: Optional[int] = None) -> Jet:
    """The stack of the rows `index` of the stack s, with s's support, cut
    to validity `order` (s's by default): a product of validity `order`
    reads no coefficient past it."""
    if order is None or order == s.order:
        return Jet(s.space, s.coeffs[index], s.order, s.support)
    return Jet(s.space, s.coeffs[index, : s.space.ncoeff_upto[order]], order, s.support)


def contract(a: Jet, b: Jet, ia: np.ndarray, ib: np.ndarray) -> Jet:
    """Row r is sum_k a[ia[r, k]] * b[ib[r, k]]: one stacked product over
    the rows (k, r), each operand gathered at the product's validity,
    summed over k in order as ``acc = acc + term``, which is the scalar
    loop's order, so every row is that loop's jet bit for bit."""
    order = min(a.order, b.order)
    terms = take_rows(a, ia.T.ravel(), order) * take_rows(b, ib.T.ravel(), order)
    return _sum_over(terms, ia.shape[1])


def _sum_over(terms: Jet, k: int) -> Jet:
    """The stack of `terms`, whose rows are (k, rest), summed over k in
    order as ``acc = acc + term``."""
    t = terms.coeffs.reshape(k, -1, terms.coeffs.shape[-1])
    acc = t[0]
    for i in range(1, k):
        acc = acc + t[i]
    return Jet(terms.space, acc, terms.order, terms._support)


def matvec(A: Jet, v: Jet, samples: int = 1, n: Optional[int] = None) -> Jet:
    """y[i] = sum_k A[i, k] v[k] of a stacked n x n matrix and n-vector, at
    each of `samples` samples (rows (component, sample)); n is read off v's
    rows where not given."""
    ia, ib = _indices(n or len(v.coeffs) // samples, samples)["matvec"]
    return contract(A, v, ia, ib)


def dot_rows(u: Jet, v: Jet) -> Jet:
    """sum_i u[i] v[i] as a scalar jet, accumulated in row order."""
    prods = u * v
    acc = prods.coeffs[0]
    for row in prods.coeffs[1:]:
        acc = acc + row
    return Jet(prods.space, acc, prods.order, prods.support)


def partials(j: Jet, variables) -> Jet:
    """The stack of d j / d v for v in `variables`, of a jet or a stack j:
    rows v-major, then j's rows.  Each row is `Jet.diff`'s jet: every
    coefficient is the one product source * exponent that `Jet.diff` makes,
    gathered, scaled and scattered for all the variables at once
    (`_partials_plan`), and every other coefficient is +0.0.  The stack
    has j's support."""
    if j.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    sp = j.space
    rows = j.coeffs.reshape(-1, j.coeffs.shape[-1])
    src, var, dst, fac = _partials_plan(sp, j.order, tuple(variables))
    out = np.zeros((len(variables), len(rows), sp.ncoeff_upto[j.order - 1]))
    out[var, :, dst] = (rows[:, src] * fac).T
    return Jet(sp, out.reshape(-1, out.shape[-1]), j.order - 1, j.support)


_NO_MAP = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))


@lru_cache(maxsize=None)
def _partials_plan(space, order: int, variables: tuple) -> tuple:
    """The maps `JetSpace.diff_prefix` of each variable at validity `order`,
    joined: (source slot, place k in `variables`, target slot, exponent) of
    every coefficient of the k-th partial."""
    maps = [space.diff_prefix[var][order] for var in variables]
    src, dst, fac = (np.concatenate(parts) for parts in zip(_NO_MAP, *maps))
    return src, np.repeat(np.arange(len(maps)), [len(m[0]) for m in maps]), dst, fac


def values(jets: Jet, shape=()) -> np.ndarray:
    """The value parts of a jet or a stack, as floats of the tensor's shape."""
    return jets.coeffs[..., 0].reshape(shape).copy()


def first_derivatives(jets: Jet, variables, shape=()) -> np.ndarray:
    """out[m, ...] = d jets[...] / d variables[m], for seeded variables,
    read off a jet or a stack of the tensor's shape."""
    if jets.order < 1:
        raise ValueError("an order-0 jet has no first derivatives")
    cols = [jets.space.first_index[var] for var in variables]
    # a jet's coefficients are one row or a stack of rows: .T moves the
    # variables first
    return jets.coeffs[..., cols].T.reshape((len(cols),) + tuple(shape))


def _lift(index: np.ndarray, samples: int) -> np.ndarray:
    """Row indices into a stack of `samples` samples, rows (component,
    sample), of the component indices `index` (1-D, or [result, k] for a
    contraction): component r becomes the rows r * samples + s, the sample
    axis right after the first."""
    if samples == 1:
        return index
    s = np.arange(samples).reshape((1, samples) + (1,) * (index.ndim - 1))
    return (index[:, None] * samples + s).reshape((-1,) + index.shape[1:])


@lru_cache(maxsize=128)
def _indices(n: int, samples: int = 1) -> dict:
    """Row-index arrays of the stacked operations on n-dimensional tensors
    at `samples` samples, whose stacks hold rows (component, sample); a
    contraction's pair of arrays is indexed [result row, k]."""
    if samples != 1:
        return {
            name: tuple(_lift(i, samples) for i in rows) if isinstance(rows, tuple)
            else _lift(rows, samples)
            for name, rows in _indices(n).items()
        }
    rows = np.arange(n * n).reshape(n, n)  # rows[i, k] of an n x n stack
    b, c = np.triu_indices(n)  # the components b <= c of a symmetric matrix
    pairs = len(b)
    pair = np.empty((n, n), dtype=np.int64)  # pair[b, c]: the place of (min, max)
    pair[b, c] = pair[c, b] = np.arange(pairs)
    upper = np.arange(n * pairs).reshape(n, pairs)  # upper[q, p] of an n x pairs stack
    q, qb, qc = np.repeat(np.arange(n), pairs), np.tile(b, n), np.tile(c, n)
    return {
        # C[i, j] = sum_k A[i, k] B[k, j]
        "matmul": (np.repeat(rows, n, axis=0), np.tile(rows.T, (n, 1))),
        # y[i] = sum_k A[i, k] v[k]
        "matvec": (rows, rows % n),
        # G[a, p] = sum_q A[a, q] T[q, p] over the pairs p = (b <= c)
        "koszul": (np.repeat(rows, pairs, axis=0), np.tile(upper.T, (n, 1))),
        # the rows D[b, c, q], D[c, b, q] and D[q, b, c] of the rows (q, b <= c) of T
        "koszul_terms": ((qb * n + qc) * n + q, (qc * n + qb) * n + q, (q * n + qb) * n + qc),
        "diagonal": np.arange(n) * (n + 1),
        "transpose": rows.T.ravel(),
        # tr AB = sum_ij A[i, j] B[j, i] for (A, B) = (E, E), (E^2, E), (E^2, E^2)
        # of a stack [E; E^2] (`log_sqrt_abs_det`), indexed [power, ij]
        "traces": (np.arange(n * n) + n * n * np.array([[0], [1], [1]]),
                   rows.T.ravel() + n * n * np.array([[0], [0], [1]])),
        # the rows (b <= c) of a symmetric matrix
        "upper": b * n + c,
        # the rows (m, b, c) of a stack whose rows are (m, b <= c)
        "expand": (np.arange(n)[:, None, None] * pairs + pair).ravel(),
        # the rows [max(a, b), min(a, b)] of a Hessian stack [b, a], for g[a, b]
        "hessian": (np.maximum(rows // n, rows % n) * n + np.minimum(rows // n, rows % n)).ravel(),
        # the row of the coordinate xdot^m of each row (m, q) of the spray's bracket
        "bracket": np.repeat(np.arange(n), n),
    }


def koszul(ginv: Jet, dg: Jet, samples: int = 1, n: Optional[int] = None) -> Jet:
    """Gamma^a_bc = (1/2) g^{aq} (D_b g_cq + D_c g_bq - D_q g_bc), with
    dg[m, a, b] = D_m g_ab for a derivation D (partial or horizontal), at
    each of `samples` samples (n read off g^-1's rows where not given); both
    operands and the result are stacks.  The b <= c part is one contraction
    over q, g^{-1} on the left, scaled after the sum."""
    idx = _indices(n or math.isqrt(len(ginv.coeffs) // samples), samples)
    bcq, cbq, qbc = idx["koszul_terms"]
    inner = take_rows(dg, bcq) + take_rows(dg, cbq) - take_rows(dg, qbc)  # T[q, b <= c]
    ia, ib = idx["koszul"]
    return take_rows(0.5 * contract(ginv, inner, ia, ib), idx["expand"])


def invert_jet_matrix(g: Jet, samples: int = 1, vinv: Optional[np.ndarray] = None) -> Jet:
    """Inverse of a stacked jet matrix, at each of `samples` samples, via
    Newton iteration in the truncated algebra, X <- X (2I - gX), started
    from the constant jet X0 of `vinv`, the numeric inverse of the value
    part [sample, i, j]: taken here where not given, and DegenerateMetric
    where it does not exist."""
    if vinv is None:
        n = math.isqrt(len(g.coeffs) // samples)
        try:  # one inverse per sample
            vinv = np.linalg.inv(values(g, (n, n, samples)).transpose(2, 0, 1))
        except np.linalg.LinAlgError as err:
            raise DegenerateMetric(str(err)) from err
    n, space, order = vinv.shape[-1], g.space, g.order
    coeffs = np.zeros((n * n * samples, space.ncoeff_upto[order]))
    coeffs[:, 0] = vinv.transpose(1, 2, 0).ravel()
    X = Jet(space, coeffs, order, ())
    idx = _indices(n, samples)
    ia, ib = idx["matmul"]
    diag = idx["diagonal"]
    iters, errdeg = 0, 1
    while errdeg <= order:
        iters += 1
        errdeg *= 2
    for _ in range(iters):
        GX = contract(g, X, ia, ib)
        # 2 I - GX as the scalar loop forms it, signed zeros included: the
        # diagonal through the lifted constant 2.0, the rest negated
        coeffs = -GX.coeffs
        coeffs[diag] = (2.0 - take_rows(GX, diag)).coeffs
        M = Jet(space, coeffs, GX.order, GX.support)
        X = contract(X, M, ia, ib)
    return X


@_quiet
def log_sqrt_abs_det(
    g: Jet, samples: Optional[int] = None, n: Optional[int] = None,
    vinv: Optional[np.ndarray] = None, log_abs_det: Optional[np.ndarray] = None,
) -> Jet:
    """ln sqrt|det g| of a stacked jet matrix: one jet, or with `samples` a
    stack of one per sample (n read off g's rows where not given).

    It is (1/2)(ln|det G0| + tr ln(I + E)), G0 the value part of g and
    E = G0^-1 (g - G0) (Higham, *Functions of Matrices*, ch. 11), and
    tr ln(I + E) = tr E - tr E^2/2 + tr E^3/3 - tr E^4/4 is exact: E has no
    constant term, so E^5 vanishes at every validity up to `MAX_ORDER` = 4.
    E is one product of the constant G0^-1 with g's coefficients, E^2 one
    contraction, and the traces of E^2, E^3 = E^2 E and E^4 = E^2 E^2 one
    stacked product: O(n^3) products.  `vinv` [sample, a, b] and
    `log_abs_det` [sample] are G0^-1 and ln|det G0|, taken here where not
    given: DomainError("abs-domain") where det G0 is 0 or not finite."""
    count = 1 if samples is None else samples
    n = n or math.isqrt(len(g.coeffs) // count)
    if vinv is None:
        g0 = values(g, (n, n, count)).transpose(2, 0, 1)
        log_abs_det = np.linalg.slogdet(g0)[1]
        if not np.isfinite(log_abs_det).all():
            raise DomainError("abs-domain", "det g is 0 or not finite")
        vinv = np.linalg.inv(g0)
    e = np.einsum("sik,kjsc->ijsc", vinv, g.coeffs.reshape(n, n, count, g.coeffs.shape[-1]))
    e[..., 0] = 0.0  # E = G0^-1 g - I
    e = e.reshape(g.coeffs.shape)
    E = Jet(g.space, e, g.order, g._support if np.isfinite(vinv).all() else None)
    idx = _indices(n, count)
    E2 = contract(E, E, *idx["matmul"])
    both = Jet(g.space, np.concatenate([E.coeffs, E2.coeffs]), E.order, E._support)
    traces = contract(both, both, *idx["traces"])  # rows (power 2..4, sample)
    t2, t3, t4 = traces.coeffs.reshape(3, count, traces.coeffs.shape[-1])
    log_det = _sum_over(take_rows(E, idx["diagonal"]), n).coeffs - t2 / 2 + t3 / 3 - t4 / 4
    log_det[:, 0] += log_abs_det
    log_det = log_det if samples is not None else log_det[0]
    return 0.5 * Jet(g.space, log_det, E.order, traces._support)


def _on_support(stage: Callable[..., Jet], operands: Sequence[Jet], *args) -> Jet:
    """stage(*operands, *args), a stage over g's stacks, run in the space
    jet_space(len(S), order) of the variables S its operands depend on and
    scattered back into +0.0 rows: bit for bit the stage in the operands'
    space.  A stage ends in a product, whose coefficients outside its
    support are +0.0, and inside S a product sums the same pairs in the same
    order, since the graded order restricted to S's monomials is S's own.  A
    result that is not finite is made again in the full space, as
    `jets._product` does."""
    space = operands[0].space
    support = tuple(sorted(set().union(*(op.support for op in operands))))
    if len(support) == space.nvars:
        return stage(*operands, *args)
    sub, slots = _subspace(space, support)
    place = {v: i for i, v in enumerate(support)}
    out = stage(*(
        Jet(sub, op.coeffs[..., slots[: sub.ncoeff_upto[op.order]]], op.order,
            tuple(place[v] for v in op.support))
        for op in operands
    ), *args)
    if not np.isfinite(out.coeffs).all():
        return stage(*operands, *args)
    coeffs = np.zeros(out.coeffs.shape[:-1] + (space.ncoeff_upto[out.order],))
    coeffs[..., slots[: out.coeffs.shape[-1]]] = out.coeffs
    return Jet(space, coeffs, out.order, tuple(support[v] for v in out.support))


@lru_cache(maxsize=256)
def _subspace(space, support: tuple) -> tuple:
    """The jet space of the variables `support` of `space`, and the slot in
    `space` of each of its monomials."""
    sub = jet_space(len(support), space.order)
    exponents = np.zeros((sub.ncoeff, space.nvars), dtype=np.int64)
    exponents[:, list(support)] = sub.exponents
    return sub, space.slots(exponents)


# -- Lagrangian evaluation -----------------------------------------------------


def _half_hessian(L: Jet, n: int) -> Jet:
    """The L-metric g_ab = (1/2) ddot_b ddot_a L as a stack, from the jet of
    L over x then xdot (variable n + a is xdot^a), or from a stack of L at
    several samples (rows (component, sample)); both triangles read the jet
    of the upper one.  Its support is read off its coefficients: g can
    depend on fewer variables than L (none of xdot, for a quadratic L)."""
    samples = 1 if L.coeffs.ndim == 1 else len(L.coeffs)
    hess = partials(partials(L, range(n, 2 * n)), range(n, 2 * n))  # [b, a, sample]
    return 0.5 * Jet(hess.space, hess.coeffs[_indices(n, samples)["hessian"]], hess.order)


def eval_L_jets(lag: LagrangianDef, coord_jets: Sequence[Jet]) -> Jet:
    """L as a jet, given the 2n seeded coordinate jets (x then xdot); alpha
    and beta read the first n.  Each jet it makes keeps the support of the
    operation that made it (see `expr.eval`)."""
    if isinstance(lag, DslLagrangian):
        return exprmod.eval(lag.ast, coord_jets, lag.params)
    n = lag.dim
    vj = coord_jets[n:]
    aval = None
    for a in range(n):
        for b in range(a, n):
            entry = exprmod.eval(lag.alpha[a][b], coord_jets, lag.params)
            if isinstance(entry, (int, float)) and entry == 0.0:
                continue
            weight = 1.0 if a == b else 2.0
            term = (weight * entry) * vj[a] * vj[b]
            aval = term if aval is None else aval + term
    if aval is None:
        raise DegenerateMetric("alpha is identically zero")
    bval = None
    for a in range(n):
        entry = exprmod.eval(lag.beta[a], coord_jets, lag.params)
        if isinstance(entry, (int, float)) and entry == 0.0:
            continue
        term = entry * vj[a]
        bval = term if bval is None else bval + term
    if bval is None:
        bval = 0.0
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


def delta_of(N: Jet, j: Jet) -> Jet:
    """Horizontal derivative delta_a j = d_a j - N^b_a ddot_b j of a jet or
    a stack j at the samples of the stack N (rows (component, sample), and
    j's rows (component, sample) at the same samples): rows a-major, then
    j's rows.  One product over the rows (b, a, j's row), N on the left,
    subtracted from d_a j in b order.

    Where every fiber partial of j is +-0.0 and N is finite, each of those
    products is +0.0, and acc - 0.0 is acc bit for bit: the result is then
    the x-partials, cut to the validity the products would leave (as for a
    g that does not depend on xdot)."""
    n = N.space.nvars // 2
    count = len(j.coeffs.reshape(-1, j.coeffs.shape[-1]))
    dv = partials(j, range(n, 2 * n))  # [b, r]
    acc = partials(j, range(n))  # [a, r]
    order = min(acc.order, N.order)
    width = N.space.ncoeff_upto[order]
    if not dv.coeffs.any() and np.isfinite(N.coeffs[:, :width]).all():
        return Jet(acc.space, acc.coeffs[:, :width], order, acc.support)
    rows_N, rows_dv = _delta_plan(n, count, len(N.coeffs) // (n * n))
    terms = take_rows(N, rows_N, order) * take_rows(dv, rows_dv, order)
    by_b = terms.coeffs.reshape(n, n * count, -1)
    for b in range(n):
        acc = acc - Jet(terms.space, by_b[b], terms.order, terms._support)
    return acc


def _kept(j: Jet, rows: np.ndarray) -> Jet:
    """The rows `rows` (sorted and distinct) of a stack: the stack itself
    where they are all of its rows."""
    return j if len(rows) == len(j.coeffs) else take_rows(j, rows)


class _Eval:
    """Lazy evaluation of the geometry chain over a block of samples of one
    Lagrangian: Griewank & Walther's vector mode over evaluation points.

    The block is a sequence of B samples, the B rows (x, xdot) of one array,
    or one `TangentSample`, a block of one seeded as one jet, whose L raises
    where one jet raises (it leaves a function's domain, or a family's alpha
    is identically zero); a stacked L is NaN there instead.  The block
    keeps its samples only as `points` [sample, (x, xdot)], its own copy, and
    `samples` reads them off it.  L is evaluated once over B-row coordinate
    stacks, each stage from g on is one stacked pass over the rows
    (component, sample), and a stage's values carry the sample axis last.
    Every sample is read through its `_Row` (`row`), a row of this block.

    Validity (seeded order k): g and the spray k-2, N and Gamma k-3; g's
    values need k=2, those of N and Gamma k=3, the curvature k=4.  The
    public readers read k=4 (`_context`, `probe_block`), the Berwald witness
    k=2 blocks; where the k=4 L is finite, a k=2 block has the bits of its L
    value, g, eigenvalues and admissibility.  g is taken at the samples
    whose L is finite (`_finite`), and the stages past g at the samples
    `_past` that one value pass over g (`_spectrum`) takes past g: those
    whose g is finite and nondegenerate and whose values invert.  A row's
    admissibility, its g^-1 and its stages past g, and the Berwald
    witness's membership in A all read that one record.
    """

    def __init__(
        self,
        lag: LagrangianDef,
        sample,
        order: int,
        tol_degenerate: float = TOL_DEGENERATE,
    ):
        self.lag = lag
        self.order = order
        self.tol_degenerate = tol_degenerate
        self.n = n = lag.dim
        # a lone sample's stacked L is its one jet's: `row` reads it as is
        self.alone = isinstance(sample, TangentSample)
        if not isinstance(sample, np.ndarray):
            sample = (sample,) if self.alone else tuple(sample)
            for dim in {s.dim for s in sample} - {n}:
                raise ValueError(f"a sample of dimension {dim} of a Lagrangian of dimension {n}")
            sample = [np.concatenate([s.x, s.xdot]) for s in sample]
        self.points = np.array(sample, dtype=float).reshape(len(sample), 2 * n)
        # an overflow inside a product is tagged by `admissibility`, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            if self.alone:
                cjets = seed(self.points[0].tolist(), range(2 * n), order)
                jets = [eval_L_jets(lag, cjets), *cjets]
                # each as a stack of one row
                self.L, *self.cjets = (
                    Jet(j.space, j.coeffs[None], j.order, j._support) for j in jets
                )
            else:
                self.cjets = seed_block((), self.points, order)
                try:
                    self.L = eval_L_jets(lag, self.cjets)
                except (DomainError, ExprDomainError, DegenerateMetric):
                    space = self.cjets[0].space
                    self.L = Jet(space, np.full((len(self.points), space.ncoeff), np.nan), order)
        self.space = self.cjets[0].space

    # -- the block's samples ----------------------------------------------------

    def evaluates(self, lag: LagrangianDef, samples: Sequence[TangentSample], tol: float) -> bool:
        """Whether this is the order-4 evaluation of `samples` of `lag` at
        the degenerate tolerance `tol`: the same Lagrangian object, the same
        coordinate bytes, in order, and the same tolerance."""
        points = np.array([np.concatenate([s.x, s.xdot]) for s in samples])
        same = self.lag is lag and self.order == 4 and self.tol_degenerate == tol
        return same and points.tobytes() == self.points.tobytes()

    @cached_property
    def _finite(self) -> np.ndarray:
        """The samples whose L is finite, in order: the samples of g's
        stack."""
        return np.isfinite(self.L.coeffs).all(axis=1).nonzero()[0]

    @cached_property
    def _spectrum(self) -> tuple:
        """The one value pass over g, at the samples of g's stack: g's
        symmetrised values [sample, a, b], their eigenvalues [sample, k],
        the signature (n+, n-, n0) of each, the places `past` in g's stack
        of the samples the stages past g are evaluated at, and there the
        inverse of g's values [place in past, a, b] and their ln|det|
        [place in past], the one determinant a block takes of g's values.

        A g whose values are not finite is degenerate: its eigenvalues are
        NaN, and its signature (0, 0, n).  A sample is past g where g is
        nondegenerate (an eigenvalue within `tol_degenerate` of zero,
        relative to the largest, counts as zero) and the LU factorisation of
        its values, with partial pivoting, has no zero pivot (slogdet's sign
        is not 0).  g is exactly symmetric where it is finite, so that is
        the LU `inv` runs, and the values invert at every place of `past`."""
        n = self.n
        raw = values(self.g_jets, (n, n, -1)).transpose(2, 0, 1)
        g = 0.5 * (raw + raw.transpose(0, 2, 1))
        finite = np.isfinite(g).all(axis=(1, 2))
        eig = np.linalg.eigvalsh(g if finite.all() else np.where(finite[:, None, None], g, 0.0))
        eig[~finite] = np.nan
        signature = _signature(eig, self.tol_degenerate)
        past = (signature[:, 2] == 0).nonzero()[0]
        sign, log_abs_det = np.linalg.slogdet(g[past])
        past = past[sign != 0]
        return g, eig, signature, past, np.linalg.inv(g[past]), log_abs_det[sign != 0]

    @property
    def _past(self) -> np.ndarray:
        return self._spectrum[3]

    @cached_property
    def _g_past(self) -> Jet:
        """g at the samples past g."""
        past, width = self._past, len(self._finite)
        if len(past) == width:
            return self.g_jets
        return take_rows(self.g_jets, (np.arange(self.n**2)[:, None] * width + past).ravel())

    samples = property(lambda ev: tuple(TangentSample(*np.split(p, 2)) for p in ev.points))

    def row(self, index: int) -> "_Row":
        """Sample `index`, read through its `_Row` of this block.  Where its
        stacked L is not finite, the sample's one-jet L is evaluated only to
        raise what it raises (it leaves a function's domain); where it
        raises nothing, the row's L is not finite."""
        place = int(np.searchsorted(self._finite, index))
        if place == len(self._finite) or self._finite[place] != index:
            if not self.alone:
                cjets = seed(self.points[index].tolist(), range(2 * self.n), self.order)
                with np.errstate(over="ignore", invalid="ignore"):
                    eval_L_jets(self.lag, cjets)
            place = None
        return _Row(self, index, place)

    # -- the stages, stacks over the block's samples -----------------------------

    @cached_property
    def g_jets(self) -> Jet:
        return _half_hessian(_kept(self.L, self._finite), self.n)

    # Past g, a stage is a stack over the samples past g, rows (component,
    # sample), and its values carry those samples last.

    @cached_property
    @_quiet
    def g_inv_jets(self) -> Jet:
        return _on_support(invert_jet_matrix, [self._g_past], len(self._past), self._spectrum[4])

    @cached_property
    @_quiet
    def spray_jets(self) -> Jet:
        n, samples = self.n, len(self._past)
        at_past = self._finite[self._past]
        L = _kept(self.L, at_past)
        # bracket_q = sum_m xdot^m d_m ddot_q L - d_q L: one product over the
        # rows (m, q), the coordinate on the left, summed over m in order;
        # the coordinates are cut to the product's validity, k-2
        cut = self.space.ncoeff_upto[self.order - 2]
        xdot = [_kept(c, at_past).coeffs[:, :cut] for c in self.cjets[n:]]
        xdot = Jet(self.space, np.concatenate(xdot), self.order - 2, tuple(range(n, 2 * n)))
        ddvL = partials(partials(L, range(n, 2 * n)), range(n))  # [m, q, sample]
        terms = take_rows(xdot, _indices(n, samples)["bracket"]) * ddvL
        bracket = _sum_over(terms, n) - partials(L, range(n))
        return 0.25 * matvec(self.g_inv_jets, bracket, samples, n)

    @cached_property
    def spray_values(self) -> np.ndarray:
        return values(self.spray_jets, (self.n, len(self._past)))

    @cached_property
    def nonlinear_jets(self) -> Jet:
        """N^a_b = ddot_b G^a."""
        dv = partials(self.spray_jets, range(self.n, 2 * self.n))  # [b, a]
        return take_rows(dv, _indices(self.n, len(self._past))["transpose"])

    @cached_property
    def nonlinear_values(self) -> np.ndarray:
        return values(self.nonlinear_jets, (self.n, self.n, len(self._past)))

    @cached_property
    @_quiet
    def gamma_jets(self) -> Jet:
        idx = _indices(self.n, len(self._past))
        dg = delta_of(self.nonlinear_jets, take_rows(self._g_past, idx["upper"]))  # [b, c <= q]
        # dg[b, c, q] = delta_b g_cq, both triangles from the c <= q jet
        operands = [self.g_inv_jets, take_rows(dg, idx["expand"])]
        return _on_support(koszul, operands, len(self._past), self.n)

    @cached_property
    def gamma_values(self) -> np.ndarray:
        return values(self.gamma_jets, (self.n,) * 3 + (len(self._past),))

    @cached_property
    def gamma_x_derivatives(self) -> np.ndarray:
        """dGamma[m, a, b, c, sample] = d Gamma^a_bc / d x^m at fixed xdot."""
        return first_derivatives(self.gamma_jets, range(self.n), self.gamma_values.shape)

    @cached_property
    def gamma_fiber_derivatives(self) -> np.ndarray:
        """dGamma_v[e, a, b, c, sample] = d Gamma^a_bc / d xdot^e at fixed x."""
        n = self.n
        return first_derivatives(self.gamma_jets, range(n, 2 * n), self.gamma_values.shape)

    @cached_property
    @_quiet
    def curvature(self) -> tuple:
        """The hh-curvature and its Ricci tensors at each sample past g, in
        order, each from that sample's own arrays (`_curvature`): a
        curvature that leaves float range is kept, and its row raises."""
        stacks = (
            self.gamma_values, self.gamma_x_derivatives, self.gamma_fiber_derivatives,
            self.nonlinear_values,
        )
        return tuple(
            _curvature(*(np.ascontiguousarray(a[..., s]) for a in stacks))
            for s in range(len(self._past))
        )

    @cached_property
    def log_sqrt_det(self) -> Jet:
        """ln sqrt|det g| at the samples past g, as a stack over the
        block's coordinates, from the inverse and the ln|det| of g's values
        that `_spectrum` took: O(n^3) products (`log_sqrt_abs_det`)."""
        args = (len(self._past), self.n, *self._spectrum[4:])
        return _on_support(log_sqrt_abs_det, [self._g_past], *args)

    @cached_property
    def _log_sqrt_det_delta(self) -> Jet:
        """delta_a ln sqrt|det g| (`log_sqrt_det`), rows (a, sample)."""
        return delta_of(self.nonlinear_jets, self.log_sqrt_det)


def _curvature(
    gamma: np.ndarray, dgam_x: np.ndarray, dgam_v: np.ndarray, nonlinear: np.ndarray
) -> CurvatureValue:
    """R^c_adb = delta_d Gamma^c_ab - delta_b Gamma^c_ad + Gamma^c_ds Gamma^s_ab
    - Gamma^c_bs Gamma^s_ad at one sample, from its Gamma [c, a, b], the
    x- and xdot-derivatives of Gamma [m, c, a, b] and N [a, b]."""
    # delta_d Gamma^c_ab = d_d Gamma - N^e_d ddot_e Gamma
    delta_gam = dgam_x - np.einsum("ed,ecab->dcab", nonlinear, dgam_v)
    quad = np.einsum("cds,sab->cadb", gamma, gamma) - np.einsum(
        "cbs,sad->cadb", gamma, gamma
    )
    # riem[c, a, d, b] = delta_gam[d, c, a, b] - delta_gam[b, c, a, d]
    riem = delta_gam.transpose(1, 2, 0, 3) - delta_gam.transpose(1, 2, 3, 0)
    riem += quad
    ricci = np.einsum("mamb->ab", riem)
    skew = 0.5 * (ricci - ricci.T)
    return CurvatureValue(hh_riemann=riem, ricci=ricci, skew_ricci=skew)


def _slice(name: str) -> cached_property:
    """The `_Row` reader of the block's stage `name`: the sample's part of
    it (a stack's rows, an array's last index, as its own array)."""

    def read(row: "_Row"):
        place = row._past_place()
        stage = getattr(row.block, name)
        if isinstance(stage, Jet):
            rows = stage.coeffs[place :: len(row.block._past)]
            return Jet(stage.space, rows, stage.order, stage._support)
        return np.ascontiguousarray(stage[..., place])

    return cached_property(read)


class _Row:
    """Sample `index` of a block `_Eval`, with the readers of one sample.
    It evaluates nothing the block has evaluated: its L, g, eigenvalues,
    signature and stage jets and values are its sample's slices of the
    block's stacks (a jet's rows, an array's last index).

    Its `sample` is read off the block's `points` when first read.  Where
    L is not finite, every reader of g raises DomainError ("non-finite").
    The sample is in A where the block took it past g (`_Eval._spectrum`);
    where it did not, g^-1 and every stage past g, ln sqrt|det g| among
    them, raise what kept it out (`_past_place`): DegenerateMetric where g
    is degenerate or its values do not invert, whatever det g's value."""

    def __init__(self, block: _Eval, index: int, place: Optional[int]):
        self.block = block
        self.lag, self.order, self.n, self.space = block.lag, block.order, block.n, block.space
        self.tol_degenerate = block.tol_degenerate
        self._index, self._place = index, place  # place in g's stack; None: L is not finite

    sample = cached_property(lambda row: TangentSample(*np.split(row.block.points[row._index], 2)))

    @cached_property
    def L(self) -> Jet:
        L = self.block.L
        return Jet(L.space, L.coeffs[self._index], L.order, L._support)

    @cached_property
    def cjets(self) -> list[Jet]:
        return [Jet(c.space, c.coeffs[self._index], c.order, c._support) for c in self.block.cjets]

    def _g_place(self) -> int:
        if self._place is None:
            raise DomainError("non-finite", "L is not finite at the sample")
        return self._place

    @cached_property
    def g_jets(self) -> Jet:
        place = self._g_place()
        g = self.block.g_jets
        return Jet(g.space, g.coeffs[place :: len(self.block._finite)], g.order, g._support)

    @cached_property
    def g_values(self) -> np.ndarray:
        return self.block._spectrum[0][self._g_place()]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.block._spectrum[1][self._g_place()]

    def signature(self) -> tuple[int, int, int]:
        """(n+, n-, n0) of g's eigenvalues, where an eigenvalue within
        `tol_degenerate` times the largest in magnitude counts as zero."""
        return self._signature

    @cached_property
    def _signature(self) -> tuple[int, int, int]:
        return tuple(int(k) for k in self.block._spectrum[2][self._g_place()])

    def metric(self) -> MetricValue:
        g_inv = self.g_inv_values
        with np.errstate(over="ignore", invalid="ignore"):  # out of float range: inf
            det = float(np.linalg.det(self.g_values))
        return MetricValue(
            g=self.g_values,
            g_inv=g_inv,
            det=det,
            signature=self.signature(),
        )

    def admissibility(
        self, convention: str = "+---", tol_null: float = TOL_NULL
    ) -> AdmissibilityVerdict:
        try:
            sig = self.signature()
        except DomainError as err:
            return _outside_A(err.reason)
        L_value = self.L.value
        in_A = self._in_past is not None
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
        """The inverse of g's values, the block's at the sample."""
        return self.block._spectrum[4][self._past_place()]

    @cached_property
    def cartan_values(self) -> np.ndarray:
        """C_abc = (1/2) ddot_c g_ab, read for a <= b <= c and symmetrised."""
        n = self.n
        dv = first_derivatives(self.g_jets, range(n, 2 * n), (n, n))  # [c, a, b]
        a, b, c = _sorted_triples(n)
        return (0.5 * dv[c, a, b]).reshape(n, n, n)

    @cached_property
    def cartan_trace(self) -> np.ndarray:
        return np.einsum("mn,amn->a", self.g_inv_values, self.cartan_values)

    # -- the stages past g: the sample's slices of the block's ---------------

    @cached_property
    def _in_past(self) -> Optional[int]:
        """The sample's place among the block's samples past g, or None."""
        past, place = self.block._past, self._g_place()
        i = int(np.searchsorted(past, place))
        return i if i < len(past) and past[i] == place else None

    def _past_place(self) -> int:
        """`_in_past`, or what kept the sample from past g raised: a
        degenerate g, or values with a zero LU pivot."""
        if self._in_past is None:
            if self.signature()[2] > 0:
                raise DegenerateMetric(
                    f"L-metric is singular at the sample (eigenvalues {self.eigenvalues})"
                )
            raise DegenerateMetric("Singular matrix")
        return self._in_past

    g_inv_jets = _slice("g_inv_jets")
    spray_jets = _slice("spray_jets")
    nonlinear_jets = _slice("nonlinear_jets")
    gamma_jets = _slice("gamma_jets")
    spray_values = _slice("spray_values")
    nonlinear_values = _slice("nonlinear_values")
    gamma_values = _slice("gamma_values")
    gamma_x_derivatives = _slice("gamma_x_derivatives")  # [m, a, b, c]
    gamma_fiber_derivatives = _slice("gamma_fiber_derivatives")  # [e, a, b, c]
    _log_sqrt_det_delta = _slice("_log_sqrt_det_delta")  # rows a

    @cached_property
    def curvature(self) -> CurvatureValue:
        place = self._past_place()
        value = self.block.curvature[place]
        require_finite(value.hh_riemann, "the hh-curvature")
        return value

    @cached_property
    def log_sqrt_det(self) -> Jet:
        """ln sqrt|det g| as a jet over the sample's coordinates, past g:
        its row of the block's stack, as the stack holds it."""
        place = self._past_place()
        stack = self.block.log_sqrt_det
        return Jet(stack.space, stack.coeffs[place], stack.order, stack._support)

    @_quiet
    def commutator_residual(self, f: Jet) -> float:
        """Residual of [delta_a, delta_b] f = R^c_{dab} xdot^d ddot_c f for a
        scalar field f given as a jet over the sample's coordinates."""
        n = self.n
        Nv = self.nonlinear_values
        own = f is self.__dict__.get("log_sqrt_det")
        delta = self._log_sqrt_det_delta if own else delta_of(self.nonlinear_jets, f)
        ddf = first_derivatives(delta, range(2 * n), (n,))  # [var, b]
        # dd[a, b] = ddf[a, b] - sum_c N^c_a ddf[n + c, b], subtracted in c order
        dd = ddf[:n].copy()
        for c in range(n):
            dd -= Nv[c][:, None] * ddf[n + c][None, :]
        lhs = dd - dd.T
        dvf = first_derivatives(f, range(n, 2 * n))
        rhs = ricci_skew_from_curvature(self.curvature.hh_riemann, self.sample.xdot, dvf)
        return float(require_finite(np.max(np.abs(lhs - rhs)), "the commutator residual"))


def _signature(eig: np.ndarray, tol: float) -> np.ndarray:
    """(n+, n-, n0) of each row of eigenvalues [sample, k], where an
    eigenvalue within `tol` times the largest in magnitude counts as zero."""
    thr = tol * np.abs(eig).max(axis=1, keepdims=True)
    plus, minus = (eig > thr).sum(axis=1), (eig < -thr).sum(axis=1)
    return np.array([plus, minus, eig.shape[1] - plus - minus]).T


@lru_cache(maxsize=None)
def _sorted_triples(n: int) -> np.ndarray:
    """Each index triple (a, b, c) of an n x n x n tensor, row-major, sorted
    to a <= b <= c: [3, n^3]."""
    return np.sort(np.indices((n, n, n)).reshape(3, -1), axis=0)


@lru_cache(maxsize=128)
def _delta_plan(n: int, count: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of N and of j's fiber partials [b, r] that `delta_of`
    multiplies for each of its rows (b, a, r): r over the `count` rows of j,
    rows (component, sample) at `samples` samples."""
    b, a, r = np.indices((n, n, count)).reshape(3, -1)
    return (b * n + a) * samples + r % samples, b * count + r


# -- public operations ---------------------------------------------------------

# The last context `_context` built: (lag, key, context).
_last_context: Optional[tuple] = None


def _context(
    lag: LagrangianDef,
    sample: TangentSample,
    tol_degenerate: float = TOL_DEGENERATE,
    fresh: bool = False,
) -> _Row:
    """The order-4 evaluation context of (lag, sample, tol_degenerate),
    which every public reader of the chain gets from here: the context built
    last when this request has its key and is not `fresh`, else a new one,
    the row of the sample's lone block, kept in its place.  Order 4 is the
    curvature's, so every reader, the probe and `metric` among them, reads
    the one context a report is written from, and one sample's public chain
    evaluates L once.

    The key is `lag` by identity, the bytes of `sample.x` and `sample.xdot`,
    the degenerate tolerance and a snapshot of `lag.params` (the repr of
    each value, so -0.0 and 0.0 differ), all taken when the context is
    built.  The context holds its own copy of the sample, so a caller who
    mutates theirs changes neither the context nor the next key it matches.
    A constructor that raises keeps nothing.  The slot is read and written
    whole, so callers in several threads can at worst each build their own
    context."""
    global _last_context
    params = tuple((name, repr(value)) for name, value in lag.params.items())
    key = (sample.x.tobytes(), sample.xdot.tobytes(), tol_degenerate, params)
    last = _last_context
    if not fresh and last is not None and last[0] is lag and last[1] == key:
        return last[2]
    ev = _Eval(lag, sample, 4, tol_degenerate).row(0)
    _last_context = (lag, key, ev)
    return ev


def _field_jet(ev: _Row, scalar_field: Callable[[Sequence[Jet]], Jet]) -> Jet:
    """The scalar field as a jet over the context's coordinates: the
    context's own ln sqrt|det g| when the field is that of its Lagrangian
    (the same jet, bit for bit), else the field evaluated on them."""
    if isinstance(scalar_field, _LogSqrtDetField) and scalar_field.lag is ev.lag:
        return ev.log_sqrt_det
    return scalar_field(ev.cjets)


# The readers below get their context from `_context`, so successive calls at
# one sample share it, and return arrays the caller owns: the report's arrays.


def metric(
    lag: LagrangianDef,
    sample: TangentSample,
    tol_degenerate: float = TOL_DEGENERATE,
) -> MetricValue:
    """The L-metric (half the vertical Hessian) with inverse and signature,
    from the sample's context; g and g^-1 are the caller's copies."""
    value = _context(lag, sample, tol_degenerate).metric()
    return replace(value, g=value.g.copy(), g_inv=value.g_inv.copy())


def spray(
    lag: LagrangianDef, sample: TangentSample, tol_degenerate: float = TOL_DEGENERATE
) -> np.ndarray:
    """G^a from the sample's context, as the caller's copy."""
    return _context(lag, sample, tol_degenerate).spray_values.copy()


def nonlinear_connection(
    lag: LagrangianDef, sample: TangentSample, tol_degenerate: float = TOL_DEGENERATE
) -> np.ndarray:
    """N^a_b from the sample's context, as the caller's copy."""
    return _context(lag, sample, tol_degenerate).nonlinear_values.copy()


def chern_rund(
    lag: LagrangianDef, sample: TangentSample, tol_degenerate: float = TOL_DEGENERATE
) -> np.ndarray:
    """Gamma^a_bc from the sample's context, as the caller's copy."""
    return _context(lag, sample, tol_degenerate).gamma_values.copy()


def hh_curvature(
    lag: LagrangianDef, sample: TangentSample, tol_degenerate: float = TOL_DEGENERATE
) -> CurvatureValue:
    """The hh-curvature and its Ricci tensors from the sample's context, as
    the caller's copies."""
    value = _context(lag, sample, tol_degenerate).curvature
    return CurvatureValue(
        hh_riemann=value.hh_riemann.copy(),
        ricci=value.ricci.copy(),
        skew_ricci=value.skew_ricci.copy(),
    )


def vertical_derivative(
    lag: LagrangianDef,
    sample: TangentSample,
    scalar_field: Callable[[Sequence[Jet]], Jet],
    tol_degenerate: float = TOL_DEGENERATE,
) -> np.ndarray:
    """ddot_a f, the fiber derivative of a jet-valued scalar field, in the
    sample's context (see `_field_jet`)."""
    ev = _context(lag, sample, tol_degenerate)
    return first_derivatives(_field_jet(ev, scalar_field), range(ev.n, 2 * ev.n))


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
    tol_degenerate: float = TOL_DEGENERATE,
) -> float:
    """Residual of [delta_a, delta_b] f = R^c_{dab} xdot^d ddot_c f in the
    sample's context (see `_field_jet`)."""
    ev = _context(lag, sample, tol_degenerate)
    return ev.commutator_residual(_field_jet(ev, scalar_field))


def probe_context(
    lag: LagrangianDef,
    sample: TangentSample,
    convention: str = "+---",
    tol_degenerate: float = TOL_DEGENERATE,
    tol_null: float = TOL_NULL,
) -> tuple[AdmissibilityVerdict, Optional[_Row]]:
    """Admissibility of the sample and the evaluation context that decided
    it; the context is None when L cannot be evaluated (it leaves a
    function's domain, or a family's alpha is identically zero).  The sample
    is evaluated afresh, and its context left in `_context`'s slot for the
    readers called after it, so its arrays are read, never mutated."""
    _check_convention(convention)
    return _probed(lambda: _context(lag, sample, tol_degenerate, fresh=True), convention, tol_null)


def probe_block(
    lag: LagrangianDef,
    samples: Sequence[TangentSample],
    convention: str = "+---",
    tol_degenerate: float = TOL_DEGENERATE,
    tol_null: float = TOL_NULL,
    evaluation: Optional[_Eval] = None,
) -> tuple[_Eval, list[tuple[AdmissibilityVerdict, Optional[_Row]]]]:
    """Admissibility of each sample and the context that decided it, as
    `probe_context` gives them, from one block evaluation of the samples:
    `evaluation` where it evaluates these samples of `lag` at
    `tol_degenerate` (a catalog entry's, say), else a new one.  Each context
    is the block's row (`_Eval.row`).  Returns the block and (verdict,
    context) per sample."""
    _check_convention(convention)
    samples = tuple(samples)
    if evaluation is None or not evaluation.evaluates(lag, samples, tol_degenerate):
        evaluation = _Eval(lag, samples, 4, tol_degenerate)
    return evaluation, [
        _probed(lambda i=i: evaluation.row(i), convention, tol_null) for i in range(len(samples))
    ]


def _check_convention(convention: str) -> None:
    if convention not in ("+---", "-+++"):
        raise ValueError(f"unknown signature convention {convention!r}")


def _probed(
    context: Callable[[], _Row], convention: str, tol_null: float
) -> tuple[AdmissibilityVerdict, Optional[_Row]]:
    """The admissibility of the context `context()` makes and the context,
    or outside A and None where L cannot be evaluated (it leaves a
    function's domain, or a family's alpha is identically zero)."""
    try:
        ev = context()
    except (DomainError, ExprDomainError) as err:
        reason = getattr(err, "reason", None) or str(err)
        return _outside_A(reason), None
    except DegenerateMetric:  # a family whose alpha is identically zero
        return _outside_A("degenerate-metric"), None
    return ev.admissibility(convention, tol_null), ev


def probe_admissibility(
    lag: LagrangianDef,
    sample: TangentSample,
    convention: str = "+---",
    tol_degenerate: float = TOL_DEGENERATE,
    tol_null: float = TOL_NULL,
) -> AdmissibilityVerdict:
    """Membership in the sets A (smooth, nondegenerate), N (null), A0, T of
    the sample, evaluated afresh (`probe_context`)."""
    return probe_context(lag, sample, convention, tol_degenerate, tol_null)[0]


@dataclass(frozen=True, eq=False)
class _LogSqrtDetField:
    """The field of `log_sqrt_det_metric_field`: a callable that names its
    Lagrangian, so the chain can tell it from any other field."""

    lag: LagrangianDef

    def __call__(self, coord_jets: Sequence[Jet]) -> Jet:
        L = eval_L_jets(self.lag, coord_jets)
        return log_sqrt_abs_det(_half_hessian(L, len(coord_jets) // 2))


def log_sqrt_det_metric_field(lag: LagrangianDef) -> Callable[[Sequence[Jet]], Jet]:
    """The scalar field ln sqrt|det g| as a jet-valued function on TM.
    Given to `commutator_check` or `vertical_derivative` with the same
    `lag`, it is read off the sample's context (`_Row.log_sqrt_det`, the
    same jet) without evaluating L again."""
    return _LogSqrtDetField(lag)


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


def levi_civita_jets(g: Jet, ginv: Jet) -> Jet:
    """Christoffel symbols of a metric g given as a stack of jets over seeded
    base coordinates, from g and its inverse as stacks."""
    n = math.isqrt(len(g.coeffs))
    return koszul(ginv, partials(g, range(n)))  # dg[m, a, b] = d_m g_ab


def christoffel_jets(g_exprs, x_jets, params=None) -> Jet:
    """Christoffel symbols of an expression metric over seeded base jets."""
    g = stack_jets(eval_metric_exprs(g_exprs, x_jets, params))
    return levi_civita_jets(g, invert_jet_matrix(g))


def christoffel_values(g_exprs, x: np.ndarray, params=None) -> np.ndarray:
    n = len(x)
    xj = seed(list(x), range(n), 1)
    return values(christoffel_jets(g_exprs, xj, params), (n, n, n))


def christoffel_gradient(g_exprs, x, params=None) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols of an expression metric at x, and their exact
    x-derivatives dgamma[m, a, b, c] = d Gamma^a_bc / d x^m."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    gamma = christoffel_jets(g_exprs, seed(list(x), range(n), 2), params)
    return values(gamma, (n, n, n)), first_derivatives(gamma, range(n), (n, n, n))
