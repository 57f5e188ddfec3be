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
shape decides two things only: where one jet raises `DomainError`, a stack
row that leaves a function's domain becomes a row of NaN and the other rows
go on; and only a single jet is restricted to a support.

Supports (Griewank & Walther's sparse forward mode, *Evaluating
Derivatives*, ch. 13).  A single jet built inside `expr.eval` or
`geometry.eval_L_jets` records its ``support``: the sorted tuple of the
seeded variables it depends on, a seeded coordinate one and a constant none.
It stores its coefficients in ``jet_space(len(support), order)``, keeps the
space it was seeded in as ``seeded`` (jets of different seeded spaces do not
combine), and its ``fill`` is the value that every coefficient outside the
support has over all the seeded variables (+0.0, -0.0 after a negation, or
NaN).  `restrict` and `embed` convert at the boundary, so every jet returned
to a caller spans all the seeded variables, as do every stack and every
jet with ``support`` None.  Jets of equal supports combine over their one space;
otherwise both are widened into the union of the supports (a cached slot
map, `_merge`), and a product of disjoint supports is an outer product with
one pair per coefficient.  The graded monomial order and the pair order both
restrict to a sorted subset of the variables keeping their order, so each
stored coefficient sums the same nonzero terms in the same order as over all
the variables, where the rest of the sum only adds +-0.0 to a sum that starts
at +0.0: the coefficients are the same bit for bit.  The one exception is a
non-finite coefficient, which over all the variables also meets the zeros
outside a support and turns inf * 0 into NaN there.  A stack whose rows are
a tensor's components is cut the same way, by `restrict_stack` to the
variables of `stack_support` and back by `embed_stack`; that gives the same
bits only while every operand and result is finite, which
`geometry._over_support` checks.

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
from typing import Iterable, NamedTuple, Sequence, Union

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
        return Jet(self, c, order)


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


def _product(space: JetSpace, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """The Cauchy product of two coefficient arrays of `space` to validity
    `order`, each coefficient summed over its pairs in pair order.  The
    pairs of validity `order` read only that prefix, so an operand of a
    higher validity needs no cut.  With a stack operand the product is a
    stack, every row summed on its own by one np.bincount over `_row_bins`."""
    cnt = space.pair_count[order]
    width = space.ncoeff_upto[order]
    prods = a.take(space._mul_i[:cnt], axis=-1) * b.take(space._mul_j[:cnt], axis=-1)
    if prods.ndim == 1:
        return np.bincount(space._mul_k[:cnt], weights=prods, minlength=width)
    rows = len(prods)
    out = np.bincount(_row_bins(space, rows, order), weights=prods.ravel(), minlength=rows * width)
    return out.reshape(rows, width)


@lru_cache(maxsize=256)
def _row_bins(space: JetSpace, rows: int, order: int) -> np.ndarray:
    """The np.bincount keys of a stacked product: mul_k + row * width, for
    rows of the product's width ncoeff_upto[order]."""
    cnt = space.pair_count[order]
    width = space.ncoeff_upto[order]
    return (space._mul_k[:cnt] + width * np.arange(rows)[:, None]).ravel()


class Jet:
    """Truncated multivariate Taylor value, or a stack of them; see module
    docstring.

    ``support`` is None for a jet over every variable of its space, else the
    variables of the space ``seeded`` it depends on; ``fill`` is then the
    value of every coefficient outside them (see "Supports" in the module
    docstring).  ``seeded`` is the space itself when ``support`` is None."""

    __slots__ = ("space", "coeffs", "order", "support", "fill", "seeded")

    def __init__(
        self,
        space: JetSpace,
        coeffs: np.ndarray,
        order: int,
        support: tuple[int, ...] | None = None,
        fill: float = 0.0,
        seeded: JetSpace | None = None,
    ):
        self.space = space
        self.coeffs = coeffs
        self.order = order
        self.support = support
        self.fill = fill
        self.seeded = space if seeded is None else seeded

    # -- coefficient access ---------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def first(self, var: int) -> float:
        """First partial derivative with respect to seeded variable `var`."""
        if self.order < 1:
            raise ValueError("an order-0 jet has no first derivatives")
        return float(embed(self).coeffs[self.seeded.first_index[var]])

    def diff(self, var: int) -> "Jet":
        """Jet of the partial derivative with respect to seeded variable
        `var`, over all the seeded variables; validity drops by one order."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        j = embed(self)
        sp = j.space
        src, dst, fac = sp.diff_prefix[var][j.order]
        out = np.zeros(j.coeffs.shape[:-1] + (sp.ncoeff_upto[j.order - 1],))
        out[..., dst] = j.coeffs[..., src] * fac
        return Jet(sp, out, j.order - 1)

    # -- coercion ---------------------------------------------------------

    def _constant(self, value, order: int) -> "Jet":
        """A constant jet over this jet's space and support, or a stack of
        constants for a column of values (shape (rows, 1))."""
        width = self.space.ncoeff_upto[order]
        if isinstance(value, np.ndarray):
            c = np.zeros((len(value), width))
            c[:, :1] = value
        else:
            c = np.zeros(width)
            c[0] = value
        return Jet(self.space, c, order, self.support, 0.0, self.seeded)

    def _lift(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return self._constant(float(other), self.order)
        return None

    def _aligned(self, o: "Jet") -> tuple[JetSpace, tuple | None, np.ndarray, np.ndarray, int]:
        """The space and support both operands combine over, and their
        coefficients there over their common validity."""
        order = min(self.order, o.order)
        if self.support == o.support:
            _same_seeded(self, o)
            a, b = self.coeffs, o.coeffs
            if self.order != o.order:
                cut = self.space.ncoeff_upto[order]
                a, b = a[..., :cut], b[..., :cut]
            return self.space, self.support, a, b, order
        union = _union(self, o)
        width = union.space.ncoeff_upto[order]
        a = _widen(self, union.slots_a, width, order)
        b = _widen(o, union.slots_b, width, order)
        return union.space, union.support, a, b, order

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        space, support, a, b, order = self._aligned(o)
        return Jet(space, a + b, order, support, self.fill + o.fill, self.seeded)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        space, support, a, b, order = self._aligned(o)
        return Jet(space, a - b, order, support, self.fill - o.fill, self.seeded)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        space, support, a, b, order = self._aligned(o)
        return Jet(space, b - a, order, support, o.fill - self.fill, self.seeded)

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order, self.support, -self.fill, self.seeded)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, (int, float, np.integer, np.floating)):
                c = float(other)
                return Jet(
                    self.space, self.coeffs * c, self.order, self.support, self.fill * c,
                    self.seeded,
                )
            return NotImplemented
        # outside both supports every sum is +0.0 plus products with a fill
        fill = self.fill * other.fill + 0.0
        order = min(self.order, other.order)
        if self.support == other.support:
            _same_seeded(self, other)
            out = _product(self.space, self.coeffs, other.coeffs, order)
            return Jet(self.space, out, order, self.support, fill, self.seeded)
        union = _union(self, other)
        if union.outer is not None:
            # disjoint supports: one pair per coefficient, summed from +0.0
            width = union.space.ncoeff_upto[order]
            ia, ib = union.outer
            out = self.coeffs[ia[:width]] * other.coeffs[ib[:width]] + 0.0
            return Jet(union.space, out, order, union.support, fill, self.seeded)
        space, support, a, b, order = self._aligned(other)
        return Jet(space, _product(space, a, b, order), order, support, fill, self.seeded)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            c = float(other)
            if c == 0.0:
                raise DomainError("division-by-zero")
            return Jet(
                self.space, self.coeffs / c, self.order, self.support, self.fill / c, self.seeded
            )
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
        # the +0.0 at which np.bincount starts every product's sum.  Only a
        # jet with a support reads its fill, and a stack has none.
        top = taylor[order]
        fill = 0.0 if self.support is None else self.fill * top + 0.0
        out = Jet(self.space, h * top + 0.0, order, self.support, fill, self.seeded)
        out = out + self._constant(taylor[order - 1], order)
        h = Jet(self.space, h, order, self.support, self.fill, self.seeded)
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
        return self._compose(np.array(table).T[..., None])

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
            v = self.coeffs[:, :1]
            sign = np.where(v > 0.0, 1.0, np.where(v < 0.0, -1.0, math.nan))
            return Jet(self.space, self.coeffs * sign, self.order)
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


# -- supports --------------------------------------------------------------


@lru_cache(maxsize=None)
def _all_variables(nvars: int) -> tuple[int, ...]:
    return tuple(range(nvars))


@lru_cache(maxsize=1024)
def _embedding(sub: tuple[int, ...], sup: tuple[int, ...], order: int) -> np.ndarray:
    """The slot in jet_space(len(sup), order) of each monomial of
    jet_space(len(sub), order), where sub is a sorted subset of sup.  The
    slots ascend and keep the degree, so a validity prefix maps into the
    prefix of the same validity."""
    small, big = jet_space(len(sub), order), jet_space(len(sup), order)
    exps = np.zeros((small.ncoeff, big.nvars), dtype=np.int64)
    exps[:, [sup.index(v) for v in sub]] = small.exponents
    return big.slots(exps)


class _Union(NamedTuple):
    """Two jets' supports merged: the space and support of the union, the
    slots each operand's coefficients take there (None: they are already
    over it), and for disjoint supports the `outer` tables, the slot of
    each factor of every coefficient of the union's space."""

    space: JetSpace
    support: tuple[int, ...] | None
    slots_a: np.ndarray | None
    slots_b: np.ndarray | None
    outer: tuple[np.ndarray, np.ndarray] | None = None


@lru_cache(maxsize=1024)
def _merge(sa: tuple[int, ...], sb: tuple[int, ...], order: int) -> _Union:
    support = tuple(sorted(set(sa) | set(sb)))
    space = jet_space(len(support), order)
    outer = None
    if not set(sa) & set(sb):
        exps = space.exponents
        outer = tuple(
            jet_space(len(s), order).slots(exps[:, [support.index(v) for v in s]])
            for s in (sa, sb)
        )
    return _Union(
        space, support, _embedding(sa, support, order), _embedding(sb, support, order), outer
    )


def _same_seeded(a: Jet, b: Jet) -> None:
    if a.seeded is not b.seeded:
        raise ValueError("jets from different spaces cannot be combined")


def _union(a: Jet, b: Jet) -> _Union:
    """The union of the supports of two jets of one seeded space."""
    _same_seeded(a, b)
    if a.support is not None and b.support is not None:
        return _merge(a.support, b.support, a.space.order)
    full, sub = (a, b) if a.support is None else (b, a)
    slots = _embedding(sub.support, _all_variables(full.space.nvars), full.space.order)
    return _Union(full.space, None, *((None, slots) if full is a else (slots, None)))


def _widen(j: Jet, slots: np.ndarray | None, width: int, order: int) -> np.ndarray:
    """j's coefficients of validity `order` at `slots` of a vector of
    `width` that holds j.fill elsewhere; with slots None, just cut."""
    cut = j.space.ncoeff_upto[order]
    if slots is None:
        return j.coeffs[..., :cut]
    out = np.full(width, j.fill)
    out[slots[:cut]] = j.coeffs[:cut]
    return out


def restrict(j):
    """A single jet over all its space's variables as a jet over the ones its
    coefficients depend on (`stack_support`): every coefficient outside them
    is +0.0, which becomes the fill.  Anything else (a float, a stack, a jet
    that already has a support) is returned as it is."""
    if not isinstance(j, Jet) or j.support is not None or j.coeffs.ndim != 1:
        return j
    support = stack_support(j)
    if len(support) == j.space.nvars:
        return j
    sub = restrict_stack(j, support)
    return Jet(sub.space, sub.coeffs, j.order, support, 0.0, j.space)


def embed(j):
    """A jet with a support as the jet over all the variables of its seeded
    space, with its fill in every slot outside the support.  Anything else
    is returned as it is."""
    if not isinstance(j, Jet) or j.support is None:
        return j
    space = j.seeded
    slots = _embedding(j.support, _all_variables(space.nvars), space.order)
    coeffs = np.full(space.ncoeff_upto[j.order], j.fill)
    coeffs[slots[: len(j.coeffs)]] = j.coeffs
    return Jet(space, coeffs, j.order)


def stack_support(*stacks: Jet) -> tuple[int, ...]:
    """The variables of the one space of some jets or stacks that some
    coefficient of theirs depends on: those of every slot whose bits are
    not +0.0 in some row, so a coefficient of -0.0 or NaN keeps its
    variables in."""
    sp = stacks[0].space
    touched = np.zeros(sp.ncoeff, dtype=bool)
    for s in stacks:
        rows = np.ascontiguousarray(s.coeffs).view(np.int64)
        touched[: rows.shape[-1]] |= rows.reshape(-1, rows.shape[-1]).any(axis=0)
    return tuple(np.flatnonzero(sp.exponents[touched].any(axis=0)).tolist())


def restrict_stack(s: Jet, support: tuple[int, ...]) -> Jet:
    """The jet or stack s over the variables `support` of its space, which
    hold every coefficient whose bits are not +0.0 (`stack_support`).  Products,
    sums and scalings of such stacks give each coefficient the bits they
    give it over all the variables while every operand stays finite; see
    "Supports" in the module docstring."""
    sp = s.space
    sub = jet_space(len(support), sp.order)
    slots = _embedding(support, _all_variables(sp.nvars), sp.order)
    return Jet(sub, s.coeffs[..., slots[: sub.ncoeff_upto[s.order]]], s.order)


def embed_stack(s: Jet, support: tuple[int, ...], space: JetSpace) -> Jet:
    """A jet or a stack over the variables `support` of `space` as one over
    all of them, with +0.0 in every other slot."""
    slots = _embedding(support, _all_variables(space.nvars), space.order)
    width = s.coeffs.shape[-1]
    out = np.zeros(s.coeffs.shape[:-1] + (space.ncoeff_upto[s.order],))
    out[..., slots[:width]] = s.coeffs
    return Jet(space, out, s.order)


class Restricted:
    """A sequence of coordinates (floats, jets or stacks over one seeded
    space) whose single jets are restricted to their supports on first use."""

    def __init__(self, coords: Sequence):
        self.coords = coords
        self._restricted: dict[int, object] = {}

    def __getitem__(self, i: int):
        try:
            return self._restricted[i]
        except KeyError:
            v = self._restricted[i] = restrict(self.coords[i])
            return v


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
            e = [0] * sp.nvars
            e[slot[i]] = 1
            j.coeffs[sp.index[tuple(e)]] = 1.0
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
        out.append(j)
    for m in range(rows.shape[1]):
        coeffs = np.zeros((len(rows), sp.ncoeff))  # validity sp.order: full width
        coeffs[:, 0] = rows[:, m]
        coeffs[:, sp.first_index[nfixed + m]] = 1.0
        out.append(Jet(sp, coeffs, sp.order))
    return out


def extract_partial(jet: Jet, multi_index: Sequence[int]) -> float:
    """True mixed partial derivative for the given seeded-variable list.

    ``multi_index`` lists one entry per differentiation, e.g. ``[0, 1, 1]``
    for the third mixed partial d^3 f / (dv0 dv1^2).  Stored Taylor
    coefficients are multiplied back by the multinomial factorials.
    """
    jet = embed(jet)
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
