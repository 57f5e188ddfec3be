"""Forward-mode truncated-Taylor (jet) arithmetic up to total order 4.

A Jet stores the Taylor coefficients of a smooth function at a point, over a
fixed set of active variables, truncated at a total degree <= 4.  Arithmetic
is exact truncated-polynomial algebra: products are Cauchy products cut at
the truncation degree, elementary functions are applied by composing with
their univariate Taylor expansions.  Mixed partial derivatives are then read
off the coefficients exactly (no step-size error).

Conventions:
  * coefficients are Taylor coefficients, i.e. the coefficient of the
    monomial ``prod(v_i^e_i)`` is ``partial^e f / prod(e_i!)``;
  * ``extract_partial`` converts back to true mixed partials;
  * each jet carries a validity ``order`` and stores only the coefficients
    of degree <= order, the first ``space.ncoeff_upto[order]`` slots of the
    graded monomial order; coefficients above the validity are not stored,
    since no result valid to that order reads them.

Jets are immutable value types; all operations return fresh jets and are safe
to use from multiple threads.  A jet's ``coeffs`` is one vector of
``ncoeff_upto[order]`` coefficients, or a stack of such rows (shape (B,
ncoeff_upto[order])), B jets of one space and one validity (Griewank &
Walther's vector mode over evaluation points).  Every operation gives each
row of a stack the coefficients it gives that row as one jet, bit for bit,
and a single jet combines with a stack as if it stood in every row.  The
shape decides one thing only: where one jet raises `DomainError`, a stack
row that leaves a function's domain becomes a row of NaN and the other rows
go on.

Supports (Griewank & Walther's sparse forward mode, *Evaluating
Derivatives*, ch. 13).  Every jet, one row or a stack, stores its
coefficients over all the variables of its space, and its ``support`` is a
sorted tuple of variables outside which every coefficient is +-0.0 (a
coefficient is outside when its monomial has a variable that is not in the
tuple).  The operation that makes a jet sets it: a seeded coordinate has
its own variable, a constant none, a sum the union of its operands', a
derivative or a gather of rows its parent's, and a scaling by a finite
value keeps it.  Where it is not known (a product that is not finite, a
scaling by a value that is not, a stack assembled from jets, the metric
read off a Hessian), `stack_support` reads it off the coefficients once.

A product sums only the Cauchy pairs whose two monomials lie in the union U
of its operands' supports (`_pairs`), in pair order, over the full-width
arrays.  Every pair left out has a factor +-0.0; while its other factor is
finite it adds +-0.0 to a sum that starts at +0.0 and so is never -0.0,
which leaves the sum as it is: every coefficient has the bits of the
product over every pair (+0.0 outside U).  A non-finite operand coefficient would meet a zero in a
pair left out (inf * 0 is NaN), but it also reaches the result through its
pair with the constant monomial; so when the result is not finite, the
product runs again over every pair, the full-space route bit for bit.

Every elementary function, on a float, a jet or a stack row, takes its
Taylor coefficients from one univariate formula through `_taylor`, the one
place where a float error of the formula becomes a `DomainError`: a result
out of float range is ``overflow``, an underflowed divisor (the reciprocal
of a value whose powers underflow to 0) is ``division-by-zero``, and sin or
cos of an infinite value is ``non-finite``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Sequence, Union

import numpy as np

MAX_ORDER = 4

Scalar = Union[int, float, "Jet"]


class DomainError(ArithmeticError):
    """A value left the domain where the requested operation is smooth.

    ``reason`` is a short machine-readable tag (``division-by-zero``,
    ``log-domain``, ``sqrt-domain``, ``power-domain``, ``abs-domain``,
    ``overflow``, ``non-finite``) used by admissibility probing to classify
    why a tangent-bundle point fails.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


def _monomials(nvars: int, order: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= order, graded order."""
    mons: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        block = set()
        for combo in combinations_with_replacement(range(nvars), deg):
            e = [0] * nvars
            for v in combo:
                e[v] += 1
            block.add(tuple(e))
        mons.extend(sorted(block))
    return mons


class JetSpace:
    """Shared immutable tables for jets of a given (nvars, order) signature.

    The space spans the monomials up to degree ``order`` in graded order; a
    jet of validity v stores the coefficients of the prefix
    ``ncoeff_upto[v]`` only, and the tables are cut to that prefix by
    ``pair_count[v]`` (products) and ``diff_prefix[var][v]`` (derivatives).

    The tables are built with array operations.  Each monomial is encoded as
    a mixed-radix integer in base ``order + 1`` (exact, since no exponent
    exceeds ``order``), so the slot of a sum ``mi + mj`` or of a lowered
    monomial ``m - e_v`` is a ``searchsorted`` over the sorted codes.  The
    Cauchy pairs are enumerated i-major, j over the graded prefix that keeps
    ``deg i + deg j <= order``, then stably sorted by product degree.  That
    order is part of the result: ``Jet.__mul__`` sums each coefficient's
    products with ``np.bincount`` in pair order, so a different pair order
    gives jets that differ in the last bits.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
        self.nvars = nvars
        self.order = order
        self.monomials = _monomials(nvars, order)
        self.ncoeff = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.degrees = np.array([sum(m) for m in self.monomials], dtype=np.int64)
        # coefficient slot of the linear monomial of each variable
        units = [tuple(int(i == k) for i in range(nvars)) for k in range(nvars)]
        self.first_index = [self.index[u] for u in units] if order >= 1 else []
        # graded order => all monomials of degree <= d form a prefix
        self.ncoeff_upto = [int(np.sum(self.degrees <= d)) for d in range(order + 1)]

        # Mixed-radix codes; Python ints (object arrays) where int64 would
        # overflow, i.e. beyond 27 variables at order 4.
        code_dtype = np.int64 if (order + 1) ** nvars <= np.iinfo(np.int64).max else object
        radix = np.array([(order + 1) ** v for v in range(nvars)], dtype=code_dtype)
        exps = np.array(self.monomials, dtype=np.int64).reshape(self.ncoeff, nvars)
        self._radix, self.exponents = radix, exps
        self._codes = codes = exps.astype(code_dtype) @ radix
        self._by_code = np.argsort(codes, kind="stable")
        slot = self._slot_of_code

        # Cauchy-product table sorted by total degree of the product, so the
        # slice [:pair_count[v]] multiplies exactly up to validity v.
        upto = np.array(self.ncoeff_upto, dtype=np.int64)
        counts = upto[order - self.degrees]
        mul_i = np.repeat(np.arange(self.ncoeff, dtype=np.int64), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        mul_j = np.arange(len(mul_i), dtype=np.int64) - starts
        degs = self.degrees[mul_i] + self.degrees[mul_j]
        by_degree = np.argsort(degs, kind="stable")
        self._mul_i = mul_i[by_degree]
        self._mul_j = mul_j[by_degree]
        self._mul_k = slot(codes[self._mul_i] + codes[self._mul_j])
        degs = degs[by_degree]
        self.pair_count = [int(np.sum(degs <= v)) for v in range(order + 1)]

        # per-variable polynomial differentiation maps (source slot, target
        # slot, exponent); the sources ascend, so diff_prefix[v][d] keeps
        # those of degree <= d, and diff_prefix[v][order] is the whole map
        self.diff_prefix = []
        for v in range(nvars):
            src = np.flatnonzero(exps[:, v]).astype(np.int64)
            dst = slot(codes[src] - radix[v])
            fac = exps[src, v].astype(np.float64)
            counts = np.searchsorted(src, upto).tolist()
            self.diff_prefix.append([(src[:c], dst[:c], fac[:c]) for c in counts])

    def _slot_of_code(self, target: np.ndarray) -> np.ndarray:
        by_code = self._by_code
        return by_code[np.searchsorted(self._codes, target, sorter=by_code)].astype(np.int64)

    def slots(self, exponents: np.ndarray) -> np.ndarray:
        """The slot of each monomial given as a row of exponents."""
        return self._slot_of_code(exponents.astype(self._codes.dtype) @ self._radix)

    def constant(self, value: float, order: int | None = None) -> "Jet":
        order = self.order if order is None else order
        c = np.zeros(self.ncoeff_upto[order])
        c[0] = float(value)
        return Jet(self, c, order, ())


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


def stack_support(s: "Jet") -> tuple[int, ...]:
    """The variables of s's space that some coefficient of the jet or stack
    s depends on: those of every slot that is not +-0.0 in some row (a NaN
    keeps its variables in)."""
    width = s.coeffs.shape[-1]
    touched = (s.coeffs.reshape(-1, width) != 0.0).any(axis=0)
    return tuple(np.flatnonzero(s.space.exponents[:width][touched].any(axis=0)).tolist())


@lru_cache(maxsize=4096)
def _union(a: tuple[int, ...] | None, b: tuple[int, ...] | None) -> tuple[int, ...] | None:
    """The union of two supports; None (not known) if either is."""
    if a is None or b is None:
        return None
    return a if a == b else tuple(sorted(set(a).union(b)))


@lru_cache(maxsize=256)
def _pairs(space: JetSpace, support: tuple[int, ...] | None) -> tuple:
    """The Cauchy pairs of `space` whose two monomials lie in the variables
    `support` (every pair for None), in pair order: their slots (i, j, k)
    and, for each validity, how many of them it keeps, as ``pair_count``."""
    if support is None or len(support) == space.nvars:
        return space._mul_i, space._mul_j, space._mul_k, space.pair_count
    outside = np.ones(space.nvars, dtype=bool)
    outside[list(support)] = False
    inside = ~space.exponents[:, outside].any(axis=1)
    keep = np.flatnonzero(inside[space._mul_i] & inside[space._mul_j])
    counts = np.searchsorted(keep, space.pair_count).tolist()
    return space._mul_i[keep], space._mul_j[keep], space._mul_k[keep], counts


def _product(
    space: JetSpace, a: np.ndarray, b: np.ndarray, order: int, support: tuple[int, ...] | None
) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """The Cauchy product of two coefficient arrays of `space` to validity
    `order` over the pairs of `support` (`_pairs`), each coefficient summed
    over its pairs in pair order, and the product's support.  The pairs of
    validity `order` read only that prefix, so an operand of a higher
    validity needs no cut.  With a stack operand the product is a stack,
    every row summed on its own by one np.bincount over `_row_bins`.
    A result over fewer pairs that is not finite is made again over every
    pair, with its support not known (see "Supports" in the module
    docstring)."""
    mul_i, mul_j, mul_k, counts = _pairs(space, support)
    cnt = counts[order]
    width = space.ncoeff_upto[order]
    left, right = a.take(mul_i[:cnt], axis=-1), b.take(mul_j[:cnt], axis=-1)
    prods = np.multiply(left, right, out=left if left.shape == right.shape else None)
    if prods.ndim == 1:
        out = np.bincount(mul_k[:cnt], weights=prods, minlength=width)
    else:
        rows = len(prods)
        bins = _row_bins(space, support, rows, order)
        out = np.bincount(bins, weights=prods.ravel(), minlength=rows * width)
        # a stack of no rows: np.bincount of no keys counts in integers
        out = out.reshape(rows, width) if rows else np.zeros((0, width))
    if cnt < space.pair_count[order] and not np.isfinite(out).all():
        return _product(space, a, b, order, None)
    return out, support


def _row_bins(
    space: JetSpace, support: tuple[int, ...] | None, rows: int, order: int
) -> np.ndarray:
    """The np.bincount keys of a stacked product over the pairs of
    `support`: mul_k + row * width, for rows of the product's width
    ncoeff_upto[order].  The keys of r rows are the first ones of any more
    rows, so one array per (space, support, order), for the most rows
    asked yet, serves every row count."""
    _, _, mul_k, counts = _pairs(space, support)
    keys = mul_k[: counts[order]]
    held = _bins_held(space, support, order)
    bins = held[0]
    if len(bins) < rows * len(keys):
        width = space.ncoeff_upto[order]
        bins = held[0] = (keys + width * np.arange(rows)[:, None]).ravel()
    return bins[: rows * len(keys)]


@lru_cache(maxsize=256)
def _bins_held(space: JetSpace, support: tuple[int, ...] | None, order: int) -> list:
    """The one-element list that holds `_row_bins`'s keys of (space,
    support, order)."""
    return [np.empty(0, dtype=np.int64)]


class Jet:
    """Truncated multivariate Taylor value, or a stack of them, and its
    support; see module docstring.  A jet made with ``support`` None has a
    support not known yet, which the `support` property reads off the
    coefficients on first use."""

    __slots__ = ("space", "coeffs", "order", "_support")

    def __init__(
        self,
        space: JetSpace,
        coeffs: np.ndarray,
        order: int,
        support: tuple[int, ...] | None = None,
    ):
        self.space = space
        self.coeffs = coeffs
        self.order = order
        self._support = support

    @property
    def support(self) -> tuple[int, ...]:
        """The sorted variables outside which every coefficient is +-0.0."""
        if self._support is None:
            self._support = stack_support(self)
        return self._support

    # -- coefficient access ---------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def first(self, var: int) -> float:
        """First partial derivative with respect to seeded variable `var`."""
        if self.order < 1:
            raise ValueError("an order-0 jet has no first derivatives")
        return float(self.coeffs[self.space.first_index[var]])

    def diff(self, var: int) -> "Jet":
        """Jet of the partial derivative with respect to seeded variable
        `var`; validity drops by one order."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        sp = self.space
        src, dst, fac = sp.diff_prefix[var][self.order]
        out = np.zeros(self.coeffs.shape[:-1] + (sp.ncoeff_upto[self.order - 1],))
        out[..., dst] = self.coeffs[..., src] * fac
        return Jet(sp, out, self.order - 1, self._support)

    # -- coercion ---------------------------------------------------------

    def _constant(self, value, order: int) -> "Jet":
        """A constant jet over this jet's space, or a stack of constants for
        a column of values (shape (rows, 1))."""
        width = self.space.ncoeff_upto[order]
        if isinstance(value, np.ndarray):
            c = np.zeros((len(value), width))
            c[:, :1] = value
        else:
            c = np.zeros(width)
            c[0] = value
        return Jet(self.space, c, order, ())

    def _lift(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return self._constant(float(other), self.order)
        return None

    def _aligned(self, o: "Jet") -> tuple[np.ndarray, np.ndarray, int]:
        """Both operands' coefficients over their common validity."""
        if o.space is not self.space:
            raise ValueError("jets from different spaces cannot be combined")
        order = min(self.order, o.order)
        a, b = self.coeffs, o.coeffs
        if self.order != o.order:
            cut = self.space.ncoeff_upto[order]
            a, b = a[..., :cut], b[..., :cut]
        return a, b, order

    def _scaled(self, coeffs: np.ndarray, factor) -> "Jet":
        """The jet of `coeffs`, self's coefficients scaled by `factor` (a
        float or a column), which keeps self's support while it is finite."""
        support = self._support if np.isfinite(factor).all() else None
        return Jet(self.space, coeffs, self.order, support)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, order = self._aligned(o)
        return Jet(self.space, a + b, order, _union(self._support, o._support))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, order = self._aligned(o)
        return Jet(self.space, a - b, order, _union(self._support, o._support))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, order = self._aligned(o)
        return Jet(self.space, b - a, order, _union(self._support, o._support))

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order, self._support)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, (int, float, np.integer, np.floating)):
                c = float(other)
                return self._scaled(self.coeffs * c, c)
            return NotImplemented
        a, b, order = self._aligned(other)
        out, support = _product(self.space, a, b, order, _union(self.support, other.support))
        return Jet(self.space, out, order, support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            c = float(other)
            if c == 0.0:
                raise DomainError("division-by-zero")
            return self._scaled(self.coeffs / c, c)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def __pow__(self, expo):
        if isinstance(expo, Jet):
            # general exponent: b^e = exp(e*ln b), needs positive base
            return (expo * self.ln()).exp()
        return powx(self, expo)

    # -- univariate composition -------------------------------------------

    def _compose(self, taylor) -> "Jet":
        """sum_k taylor[k] * (self - value)^k by Horner in the jet algebra;
        for a stack, taylor[k] is a column of one coefficient per row."""
        order = self.order
        if order == 0:
            return self._constant(taylor[0], 0)
        h = self.coeffs.copy()
        h[..., 0] = 0.0
        # the first step, constant(taylor[order]) * h, is a scale; its 0.0 is
        # the +0.0 at which np.bincount starts every product's sum
        top = taylor[order]
        out = self._scaled(h * top + 0.0, top)
        out = out + self._constant(taylor[order - 1], order)
        h = Jet(self.space, h, order, self._support)
        for k in range(order - 2, -1, -1):
            out = out * h + self._constant(taylor[k], order)
        return out

    def _apply(self, taylor_of, *args) -> "Jet":
        """Compose with the Taylor coefficients taylor_of(value, order, *args),
        row by row for a stack.  Where that raises, one jet raises and a
        stack row gets NaN Taylor coefficients, which Horner's scheme spreads
        to every coefficient of the row."""
        if self.coeffs.ndim == 1:
            return self._compose(_taylor(taylor_of, self.value, self.order, *args))
        table = []
        for v in self.coeffs[:, 0].tolist():
            try:
                table.append(_taylor(taylor_of, v, self.order, *args))
            except DomainError:
                table.append([math.nan] * (self.order + 1))
        return self._compose(np.array(table).reshape(-1, self.order + 1).T[..., None])

    def _reciprocal(self) -> "Jet":
        return self._apply(_reciprocal_taylor)

    def exp(self) -> "Jet":
        return self._apply(_exp_taylor)

    def ln(self) -> "Jet":
        return self._apply(_ln_taylor)

    def sqrt(self) -> "Jet":
        return self._apply(_sqrt_taylor)

    def sin(self) -> "Jet":
        return self._apply(_sin_taylor)

    def cos(self) -> "Jet":
        return self._apply(_cos_taylor)

    def __abs__(self) -> "Jet":
        if self.coeffs.ndim == 2:
            # a row at 0 becomes NaN where one jet raises
            sign = np.sign(self.coeffs[:, :1])
            sign[sign == 0.0] = math.nan
            return self._scaled(self.coeffs * sign, sign)
        v = self.value
        if v > 0.0:
            return self
        if v < 0.0:
            return -self
        raise DomainError("abs-domain", "abs is not differentiable at 0")

    def _powi(self, k: int) -> "Jet":
        if k < 0:
            # a stack row at 0 fails in the reciprocal, where one jet fails here
            if self.coeffs.ndim == 1 and self.value == 0.0:
                raise DomainError("power-domain", "0 raised to a negative power")
            return self._powi(-k)._reciprocal()
        if k == 0:
            return self._constant(1.0, self.order)
        # binary powering from the lowest bit, with no product by the
        # constant 1 and no squaring after the highest bit
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                break
            base = base * base
        # the product 1 * self this skips adds 0.0 to self's coefficients
        return result + 0.0 if result is self else result

    def _powr(self, r: float) -> "Jet":
        return self._apply(_powr_taylor, r)

    def __repr__(self) -> str:
        if self.coeffs.ndim == 2:
            return f"Jet(order={self.order}, rows={len(self.coeffs)})"
        return f"Jet(order={self.order}, value={self.value!r})"


# -- univariate Taylor coefficients ----------------------------------------
#
# Each returns the Taylor coefficients [f(v), f'(v), f''(v)/2, ...] up to
# `order`, or raises DomainError outside the domain.  Floats, jets and the
# rows of stacks share them, so all three get the same float arithmetic; they
# are called only through `_taylor`.


def _taylor(taylor_of, v: float, order: int, *args) -> list[float]:
    """taylor_of(v, order, *args), with the float errors it raises reported
    as DomainError: OverflowError as ``overflow``, ZeroDivisionError as
    ``division-by-zero`` and ValueError (sin or cos of an infinite value) as
    ``non-finite``.  The detail names the function, e.g. ``exp``."""
    try:
        return taylor_of(v, order, *args)
    except OverflowError as err:
        reason, error = "overflow", err
    except ZeroDivisionError as err:
        reason, error = "division-by-zero", err
    except ValueError as err:
        reason, error = "non-finite", err
    name = taylor_of.__name__.strip("_").removesuffix("_taylor")
    raise DomainError(reason, f"{name}: {error}") from error


def _reciprocal_taylor(v: float, order: int) -> list[float]:
    if v == 0.0:
        raise DomainError("division-by-zero", "jet value is zero")
    return [(-1.0) ** k / v ** (k + 1) for k in range(order + 1)]


def _exp_taylor(v: float, order: int) -> list[float]:
    ev = math.exp(v)
    return [ev / math.factorial(k) for k in range(order + 1)]


def _ln_taylor(v: float, order: int) -> list[float]:
    if v <= 0.0:
        raise DomainError("log-domain", f"ln of {v}")
    taylor = [math.log(v)]
    taylor += [(-1.0) ** (k + 1) / (k * v**k) for k in range(1, order + 1)]
    return taylor


def _sqrt_taylor(v: float, order: int) -> list[float]:
    if v <= 0.0:
        raise DomainError("sqrt-domain", f"sqrt of {v}")
    taylor = [math.sqrt(v)]
    coef = 0.5
    for k in range(1, order + 1):
        taylor.append(coef * v ** (0.5 - k))
        coef *= (0.5 - k) / (k + 1)
    return taylor


def _sin_taylor(v: float, order: int) -> list[float]:
    s, c = math.sin(v), math.cos(v)
    cycle = [s, c, -s, -c]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_taylor(v: float, order: int) -> list[float]:
    s, c = math.sin(v), math.cos(v)
    cycle = [c, -s, -c, s]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _powi_taylor(v: float, order: int, k: int) -> list[float]:
    """Only the value v**k, for floats: an integer power of a jet is a
    product by binary powering (`Jet._powi`), valid for any base."""
    if v == 0.0 and k < 0:
        raise DomainError("power-domain", "0 raised to a negative power")
    return [v**k]


def _powr_taylor(v: float, order: int, r: float) -> list[float]:
    if v <= 0.0:
        raise DomainError("power-domain", f"non-integer power of non-positive base {v}")
    taylor = [v**r]
    coef = r
    for k in range(1, order + 1):
        taylor.append(coef * v ** (r - k))
        coef *= (r - k) / (k + 1)
    return taylor


# -- generic scalar helpers (accept floats or jets) --------------------------


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating))


def sin(v: Scalar):
    return v.sin() if isinstance(v, Jet) else _taylor(_sin_taylor, v, 0)[0]


def cos(v: Scalar):
    return v.cos() if isinstance(v, Jet) else _taylor(_cos_taylor, v, 0)[0]


def exp(v: Scalar):
    return v.exp() if isinstance(v, Jet) else _taylor(_exp_taylor, v, 0)[0]


def ln(v: Scalar):
    return v.ln() if isinstance(v, Jet) else _taylor(_ln_taylor, v, 0)[0]


def sqrt(v: Scalar):
    return v.sqrt() if isinstance(v, Jet) else _taylor(_sqrt_taylor, v, 0)[0]


def absval(v: Scalar):
    return abs(v)


def divide(a: Scalar, b: Scalar):
    if _is_number(b) and float(b) == 0.0:
        raise DomainError("division-by-zero")
    if _is_number(a) and isinstance(b, Jet):
        return b.__rtruediv__(float(a))
    return a / b


def powx(base: Scalar, expo: Scalar):
    """base**expo with principal real semantics.

    Integer-valued exponents use binary powering and are valid for
    any base (except 0 to a negative power); non-integer exponents require a
    strictly positive base.
    """
    if isinstance(expo, Jet):
        return (expo * ln(base)).exp()
    e = float(expo)
    if e.is_integer():
        k = int(e)
        if isinstance(base, Jet):
            return base._powi(k)
        return _taylor(_powi_taylor, float(base), 0, k)[0]
    if isinstance(base, Jet):
        return base._powr(e)
    return _taylor(_powr_taylor, float(base), 0, e)[0]


# -- seeding and extraction ---------------------------------------------------


def seed(
    values: Sequence[float], active: Iterable[int], order: int
) -> list[Jet]:
    """Jets for a point, differentiating with respect to `active` variables.

    Returns one jet per input value.  Active variable slots are assigned in
    increasing original-index order; extraction indices refer to these slots.
    Inactive variables become constants.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    active_sorted = sorted(set(active))
    if active_sorted and not (
        0 <= active_sorted[0] and active_sorted[-1] < len(values)
    ):
        raise ValueError("active indices out of range")
    sp = jet_space(len(active_sorted), order)
    slot = {var: i for i, var in enumerate(active_sorted)}
    out = []
    for i, v in enumerate(values):
        j = sp.constant(float(v))
        if i in slot:
            j.coeffs[sp.first_index[slot[i]]] = 1.0
            j._support = (slot[i],)
        out.append(j)
    return out


def seed_block(point: Sequence[float], rows: np.ndarray, order: int) -> list[Jet]:
    """Jets for B points that share their leading coordinates `point`.

    The active variables are the coordinates of `point`, then the columns of
    `rows` (shape (B, k)).  Returns one jet per coordinate of `point` and
    one stack per column; row r of the block holds the jets that
    `seed` gives the point ``point + rows[r]``.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    rows = np.asarray(rows, dtype=float)
    nfixed = len(point)
    sp = jet_space(nfixed + rows.shape[1], order)
    out: list[Jet] = []
    for i, v in enumerate(point):
        j = sp.constant(float(v))
        j.coeffs[sp.first_index[i]] = 1.0
        j._support = (i,)
        out.append(j)
    for m in range(rows.shape[1]):
        coeffs = np.zeros((len(rows), sp.ncoeff))  # validity sp.order: full width
        coeffs[:, 0] = rows[:, m]
        coeffs[:, sp.first_index[nfixed + m]] = 1.0
        out.append(Jet(sp, coeffs, sp.order, (nfixed + m,)))
    return out


def extract_partial(jet: Jet, multi_index: Sequence[int]) -> float:
    """True mixed partial derivative for the given seeded-variable list.

    ``multi_index`` lists one entry per differentiation, e.g. ``[0, 1, 1]``
    for the third mixed partial d^3 f / (dv0 dv1^2).  Stored Taylor
    coefficients are multiplied back by the multinomial factorials.
    """
    e = [0] * jet.space.nvars
    for v in multi_index:
        e[v] += 1
    if sum(e) > jet.order:
        raise ValueError(
            f"requested order {sum(e)} exceeds jet validity order {jet.order}"
        )
    factor = 1.0
    for k in e:
        factor *= math.factorial(k)
    return float(jet.coeffs[jet.space.index[tuple(e)]]) * factor
