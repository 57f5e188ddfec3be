"""Jet arithmetic: exactness on polynomials, elementary functions, and
agreement with the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslergeo import jets
from finslergeo.jets import (
    DomainError, Jet, JetSpace, extract_partial, jet_space, seed, seed_block,
)
from finslergeo.oracle import fd_partial

# -- the product and differentiation tables -------------------------------------


def reference_tables(space):
    """The tables of `space`, built by a plain loop over monomial pairs."""
    pairs = []
    for i, mi in enumerate(space.monomials):
        di = sum(mi)
        for j, mj in enumerate(space.monomials):
            dj = sum(mj)
            if di + dj > space.order:
                continue
            k = space.index[tuple(a + b for a, b in zip(mi, mj))]
            pairs.append((di + dj, i, j, k))
    pairs.sort(key=lambda t: t[0])
    degs = np.array([p[0] for p in pairs], dtype=np.int64)
    tables = {
        "_mul_i": np.array([p[1] for p in pairs], dtype=np.int64),
        "_mul_j": np.array([p[2] for p in pairs], dtype=np.int64),
        "_mul_k": np.array([p[3] for p in pairs], dtype=np.int64),
        "pair_count": [int(np.sum(degs <= v)) for v in range(space.order + 1)],
        "diff_prefix": [],
    }
    for v in range(space.nvars):
        src, dst, fac, deg = [], [], [], []
        for i, m in enumerate(space.monomials):
            if m[v] == 0:
                continue
            lower = list(m)
            lower[v] -= 1
            src.append(i)
            dst.append(space.index[tuple(lower)])
            fac.append(float(m[v]))
            deg.append(sum(m))
        # the maps of a validity-d jet: its sources of degree <= d
        tables["diff_prefix"].append([
            tuple(
                np.array([t for t, e in zip(table, deg) if e <= d], dtype=dtype)
                for table, dtype in ((src, np.int64), (dst, np.int64), (fac, np.float64))
            )
            for d in range(space.order + 1)
        ])
    return tables


def assert_tables_match_reference(space):
    for name, expected in reference_tables(space).items():
        got = getattr(space, name)
        if name == "pair_count":
            assert got == expected
            continue
        if name == "diff_prefix":
            got = [a for per_var in got for maps in per_var for a in maps]
            expected = [a for per_var in expected for maps in per_var for a in maps]
        arrays = zip(got, expected, strict=True) if isinstance(expected, list) else [(got, expected)]
        for g, e in arrays:
            assert g.dtype == e.dtype, name
            assert np.array_equal(g, e), name


@pytest.mark.parametrize(
    "nvars, order",
    [(n, o) for n in range(9) for o in range(jets.MAX_ORDER + 1)]
    # (12, 4) is the dim-6 space; at (40, 2) the codes exceed int64
    + [(12, 4), (40, 2)],
)
def test_tables_match_reference_loop(nvars, order):
    assert_tables_match_reference(JetSpace(nvars, order))



def test_square_at_three():
    (j,) = seed([3.0], {0}, 2)
    sq = j * j
    assert sq.value == 9.0
    assert extract_partial(sq, [0]) == 6.0
    assert extract_partial(sq, [0, 0]) == 2.0
    # stored Taylor coefficient of the quadratic monomial is 1
    assert sq.coeffs[sq.space.index[(2,)]] == 1.0


def test_bilinear_mixed_coefficient():
    a, b = seed([1.0, 2.0], {0, 1}, 2)
    f = a * b
    assert f.coeffs[f.space.index[(1, 1)]] == 1.0
    assert extract_partial(f, [0, 1]) == 1.0


def test_sin_series_at_zero():
    (x,) = seed([0.0], {0}, 4)
    np.testing.assert_allclose(x.sin().coeffs, [0, 1, 0, -1 / 6, 0], atol=1e-15)


def test_exp_fourth_derivative():
    (x,) = seed([0.0], {0}, 4)
    assert extract_partial(x.exp(), [0, 0, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_third_mixed_partial():
    a, b = seed([1.3, -0.7], {0, 1}, 4)
    assert extract_partial(a * b * b, [0, 1, 1]) == pytest.approx(2.0, abs=1e-13)


def test_polynomial_partials_exact():
    # f = 2 x^2 y z - x^4 + 3 y^2: all order <= 4 partials are exact
    x, y, z = seed([1.5, -2.0, 0.7], {0, 1, 2}, 4)
    f = 2 * x * x * y * z - x * x * x * x + 3 * y * y
    xv, yv, zv = 1.5, -2.0, 0.7
    assert f.value == pytest.approx(2 * xv**2 * yv * zv - xv**4 + 3 * yv**2, rel=1e-15)
    assert extract_partial(f, [0]) == pytest.approx(4 * xv * yv * zv - 4 * xv**3, rel=1e-15)
    assert extract_partial(f, [0, 0]) == pytest.approx(4 * yv * zv - 12 * xv**2, rel=1e-15)
    assert extract_partial(f, [0, 1, 2]) == pytest.approx(4 * xv, rel=1e-15)
    assert extract_partial(f, [0, 0, 0, 0]) == pytest.approx(-24.0, rel=1e-15)
    assert extract_partial(f, [0, 0, 1, 2]) == pytest.approx(4.0, rel=1e-15)


def test_inactive_variables_are_constant():
    jx, jy = seed([2.0, 5.0], {0}, 2)
    f = jx * jy
    assert f.value == 10.0
    assert extract_partial(f, [0]) == 5.0
    assert jy.space.nvars == 1


def test_seed_order_out_of_range():
    with pytest.raises(ValueError):
        seed([1.0], {0}, 5)
    with pytest.raises(ValueError):
        seed([1.0], {0}, 0)


def test_extract_degree_exceeds_order():
    (x,) = seed([1.0], {0}, 2)
    with pytest.raises(ValueError):
        extract_partial(x * x, [0, 0, 0])


def test_first_derivative_needs_validity_one():
    (x,) = seed([0.5], {0}, 1)
    assert (x * x).first(0) == 1.0
    with pytest.raises(ValueError):
        x.diff(0).first(0)


def smooth(x, y):
    return (x * x * y).sin() if isinstance(x, Jet) else math.sin(x * x * y)


def generic(x, y):
    if isinstance(x, Jet):
        return (x * x * y).sin() + (1 + x * x + y * y).ln() * y
    return math.sin(x * x * y) + math.log(1 + x * x + y * y) * y


@pytest.mark.parametrize("point", [(0.4, 0.9), (-1.1, 0.3), (0.8, -0.6)])
def test_low_order_partials_match_fd(point):
    x, y = seed(list(point), {0, 1}, 2)
    f = generic(x, y)
    for multi in ([0], [1], [0, 0], [0, 1], [1, 1]):
        ref = fd_partial(lambda p: generic(p[0], p[1]), point, multi)
        assert extract_partial(f, multi) == pytest.approx(ref, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("multi", [[0, 0, 1], [0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]])
def test_high_order_partials_match_fd_of_lower_order_jets(multi):
    point = (0.5, -0.8)
    x, y = seed(list(point), {0, 1}, 4)
    jet_val = extract_partial(generic(x, y), multi)

    # oracle: finite-difference the jet-computed lower-order partial
    head, tail = multi[0], multi[1:]

    def lower(p):
        a, b = seed(list(p), {0, 1}, len(tail))
        return extract_partial(generic(a, b), tail)

    ref = fd_partial(lower, point, [head], step=1e-5)
    assert jet_val == pytest.approx(ref, rel=1e-4, abs=1e-6)


# -- algebraic property tests --------------------------------------------------


def _random_jet(space, rng, order):
    return Jet(space, rng.uniform(-2, 2, space.ncoeff_upto[order]), order)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_product_rule_exact(seed_int):
    rng = np.random.default_rng(seed_int)
    space = jet_space(3, 4)
    a = _random_jet(space, rng, 4)
    b = _random_jet(space, rng, 4)
    for v in range(3):
        lhs = (a * b).diff(v)
        rhs = a.diff(v) * b + a * b.diff(v)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_sum_rule_and_ring_axioms(seed_int):
    rng = np.random.default_rng(seed_int)
    space = jet_space(2, 4)
    a, b, c = (_random_jet(space, rng, 4) for _ in range(3))
    np.testing.assert_allclose((a + b).diff(0).coeffs, (a.diff(0) + b.diff(0)).coeffs, atol=1e-13)
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-13)
    np.testing.assert_allclose(
        (a * (b + c)).coeffs, (a * b + a * c).coeffs, atol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_chain_rule_exact(seed_int):
    rng = np.random.default_rng(seed_int)
    space = jet_space(2, 4)
    g = _random_jet(space, rng, 4)
    g.coeffs[0] = rng.uniform(0.5, 2.0)  # keep ln/sqrt in domain
    for v in range(2):
        np.testing.assert_allclose(
            g.exp().diff(v).coeffs, (g.exp() * g.diff(v)).coeffs, atol=1e-11
        )
        np.testing.assert_allclose(
            g.ln().diff(v).coeffs, (g.diff(v) / g).coeffs, atol=1e-11
        )
        np.testing.assert_allclose(
            g.sin().diff(v).coeffs, (g.cos() * g.diff(v)).coeffs, atol=1e-11
        )


def test_division_matches_multiplication_by_reciprocal():
    rng = np.random.default_rng(7)
    space = jet_space(2, 3)
    a = _random_jet(space, rng, 3)
    b = _random_jet(space, rng, 3)
    b.coeffs[0] = 1.7
    q = a / b
    np.testing.assert_allclose((q * b).coeffs, a.coeffs, atol=1e-12)


def test_domain_errors():
    (x,) = seed([0.0], {0}, 2)
    with pytest.raises(DomainError):
        (x * 0.0 + 0.0)._reciprocal()
    with pytest.raises(DomainError):
        x.ln()
    with pytest.raises(DomainError):
        (x - 1.0).sqrt()
    with pytest.raises(DomainError):
        abs(x)
    with pytest.raises(DomainError) as err:
        jets.powx(x, -2.0)
    assert err.value.reason == "power-domain"
    with pytest.raises(DomainError):
        jets.powx(x - 1.0, 0.5)
    # float errors of a Taylor formula, on jets and on floats
    (tiny,) = seed([1e-200], {0}, 2)  # its reciprocal divides by 1e-400 = 0.0
    for op, reason in [
        (lambda: tiny._reciprocal(), "division-by-zero"),
        (lambda: (x + 1000.0).exp(), "overflow"),
        (lambda: jets.exp(1000.0), "overflow"),
        (lambda: jets.powx(1e200, 2.0), "overflow"),
        (lambda: (x + math.inf).sin(), "non-finite"),
        (lambda: jets.sin(math.inf), "non-finite"),
        (lambda: jets.cos(-math.inf), "non-finite"),
    ]:
        with pytest.raises(DomainError) as err:
            op()
        assert err.value.reason == reason


def test_integer_pow_negative_base():
    (x,) = seed([-1.5], {0}, 3)
    p = jets.powx(x, 3.0)
    assert p.value == pytest.approx((-1.5) ** 3)
    assert extract_partial(p, [0]) == pytest.approx(3 * (-1.5) ** 2)
    q = jets.powx(x, -2.0)
    assert q.value == pytest.approx((-1.5) ** -2)


def test_float_helpers_match_math():
    assert jets.sin(0.3) == math.sin(0.3)
    assert jets.ln(2.0) == math.log(2.0)
    with pytest.raises(DomainError):
        jets.sqrt(-1.0)
    with pytest.raises(DomainError):
        jets.divide(1.0, 0.0)


# -- batched jets: each row equals the scalar operation bit for bit ----------------

batches = st.fixed_dictionaries({
    "nvars": st.integers(1, 8),
    "order": st.integers(0, jets.MAX_ORDER),
    "rows": st.integers(1, 17),
    "seed": st.integers(0, 2**32 - 1),
})


def _random_block(space, rng, rows):
    """A stack with random coefficients, validity and row values, and
    the scalar jets of its rows."""
    order = int(rng.integers(0, space.order + 1))
    coeffs = rng.uniform(-2.0, 2.0, (rows, space.ncoeff_upto[order]))
    batch = Jet(space, coeffs, order)
    return batch, [Jet(space, coeffs[r].copy(), order) for r in range(rows)]


def _with_values(batch, scalars, values):
    batch.coeffs[:, 0] = values
    for j, v in zip(scalars, values):
        j.coeffs[0] = v


def same_bits(a, b) -> bool:
    """Equal float arrays, down to the sign of zero."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_rows_match(batch_op, scalar_op, batch, scalars):
    """batch_op(batch) equals scalar_op on each row bit for bit; a row where
    the scalar operation raises DomainError is NaN in the batch, in every
    stored coefficient."""
    out = batch_op(batch)
    coeffs = np.broadcast_to(out.coeffs, (len(scalars), out.coeffs.shape[-1]))
    for r, j in enumerate(scalars):
        try:
            expected = scalar_op(j)
        except DomainError:
            assert np.all(np.isnan(coeffs[r])), r
            continue
        assert out.order == expected.order
        assert same_bits(coeffs[r], expected.coeffs), r


@settings(max_examples=60, deadline=None)
@given(batches)
def test_batch_ring_operations_match_scalar_rows(case):
    rng = np.random.default_rng(case["seed"])
    space = jet_space(case["nvars"], case["order"])
    a, a_rows = _random_block(space, rng, case["rows"])
    b, b_rows = _random_block(space, rng, case["rows"])
    c = _random_jet(space, rng, int(rng.integers(0, space.order + 1)))
    k = float(rng.uniform(-3.0, 3.0))
    for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
        out = op(a, b)
        for r in range(case["rows"]):
            expected = op(a_rows[r], b_rows[r])
            assert out.order == expected.order
            assert same_bits(out.coeffs[r], expected.coeffs)
        # a scalar jet or a float on either side stands in every row
        assert_rows_match(lambda u: op(c, u), lambda u: op(c, u), a, a_rows)
        assert_rows_match(lambda u: op(u, c), lambda u: op(u, c), a, a_rows)
        assert_rows_match(lambda u: op(k, u), lambda u: op(k, u), a, a_rows)
        assert_rows_match(lambda u: op(u, k), lambda u: op(u, k), a, a_rows)
    assert_rows_match(lambda u: -u, lambda u: -u, a, a_rows)
    if a.order >= 1:
        for v in range(case["nvars"]):
            assert_rows_match(lambda u: u.diff(v), lambda u: u.diff(v), a, a_rows)


@settings(max_examples=60, deadline=None)
@given(batches)
def test_batch_functions_match_scalar_rows_and_nan_outside_the_domain(case):
    rng = np.random.default_rng(case["seed"])
    space = jet_space(case["nvars"], case["order"])
    a, a_rows = _random_block(space, rng, case["rows"])
    # a third of the rows at zero, a third negative, the rest positive
    kind = rng.integers(0, 3, case["rows"])
    values = np.where(kind == 0, 0.0, np.where(kind == 1, -1.0, 1.0)) * rng.uniform(
        0.25, 2.0, case["rows"]
    )
    _with_values(a, a_rows, values)
    functions = [
        lambda u: u.exp(),
        lambda u: u.ln(),
        lambda u: u.sqrt(),
        lambda u: u.sin(),
        lambda u: u.cos(),
        abs,
        lambda u: u._reciprocal(),
        lambda u: jets.divide(1.5, u),
    ]
    functions += [lambda u, e=e: jets.powx(u, e) for e in (-3.0, -1.0, 0.0, 2.0, 3.0)]
    functions += [lambda u, e=e: jets.powx(u, e) for e in (0.5, -1.5, 2.7)]
    for f in functions:
        assert_rows_match(f, f, a, a_rows)
    if not np.all(kind == 2):
        # some row left a domain: its NaN stays in that row alone
        out = a.ln() * a
        assert np.all(np.isnan(out.coeffs[kind != 2]))
        assert not np.any(np.isnan(out.coeffs[kind == 2]))


def assert_same_bits_as_one_row(got, expected_op):
    """got, a stack of one row, is expected_op()'s jet bit for bit, or NaN
    where that raises DomainError."""
    try:
        expected = expected_op()
    except DomainError:  # values of either sign: ln and real powers fail
        assert np.all(np.isnan(got.coeffs))
        return
    assert got.order == expected.order
    assert got.coeffs.shape == (1,) + expected.coeffs.shape
    assert same_bits(got.coeffs[0], expected.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, jets.MAX_ORDER), st.integers(0, 2**32 - 1))
def test_a_one_row_stack_and_the_jet_give_the_same_bits(nvars, order, seed_int):
    rng = np.random.default_rng(seed_int)
    space = jet_space(nvars, order)
    (a, (a_row,)), (b, (b_row,)) = (_random_block(space, rng, 1) for _ in range(2))
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v, lambda u, v: u / v):
        for u, v in ((a, b), (a, b_row), (a_row, b)):
            assert_same_bits_as_one_row(op(u, v), lambda: op(a_row, b_row))
    unary = [lambda u: u.exp(), lambda u: u.ln(), abs]
    unary += [lambda u, e=e: u**e for e in (2, 3, -1, -2, 0.5, -1.5, 2.7)]
    for op in unary:
        assert_same_bits_as_one_row(op(a), lambda: op(a_row))


def test_seed_block_rows_are_seeded_points():
    x = [0.3, -1.2]
    rows = np.array([[1.0, 0.5, -0.25], [2.0, 0.0, 4.0]])
    block = seed_block(x, rows, 3)
    for r in range(len(rows)):
        scalar = seed(x + list(rows[r]), range(5), 3)
        for j, s in zip(block, scalar):
            got = j.coeffs if j.coeffs.ndim == 1 else j.coeffs[r]
            assert j.order == s.order
            assert same_bits(got, s.coeffs)


# -- storage: a jet keeps exactly the prefix of its validity -----------------------
#
# The reference is the full-width jet algebra: every jet padded with zeros to
# space.ncoeff, products summed over the Cauchy pairs up to the validity into a
# full-width array, sums cut at the validity by zeroing the tail, and every
# diff source mapped.  A stored jet must hold ncoeff_upto[order] coefficients,
# bit for bit the prefix of the reference, whose tail is zero.


def ref_trunc(space, coeffs, order):
    coeffs[space.ncoeff_upto[order]:] = 0.0
    return coeffs


def ref_mul(space, a, b, order):
    cnt = space.pair_count[order]
    prods = a[space._mul_i[:cnt]] * b[space._mul_j[:cnt]]
    return np.bincount(space._mul_k[:cnt], weights=prods, minlength=space.ncoeff)


def ref_diff(space, a, var):
    src, dst, fac = space.diff_prefix[var][space.order]  # every source
    out = np.zeros(space.ncoeff)
    out[dst] = a[src] * fac
    return out


class FullJet:
    """A jet padded to the full width of its space, with the full-width
    arithmetic above and the composition and powers of `Jet`."""

    def __init__(self, space, coeffs, order):
        self.space, self.coeffs, self.order = space, coeffs, order

    @classmethod
    def padded(cls, space, coeffs, order):
        full = np.zeros(space.ncoeff)
        full[: len(coeffs)] = coeffs
        return cls(space, full, order)

    @property
    def value(self):
        return float(self.coeffs[0])

    def _lift(self, other):
        if isinstance(other, FullJet):
            return other
        return FullJet.padded(self.space, [float(other)], self.space.order)

    def _trunc(self, coeffs, other):
        order = min(self.order, other.order)
        return FullJet(self.space, ref_trunc(self.space, coeffs, order), order)

    def __add__(self, other):
        o = self._lift(other)
        return self._trunc(self.coeffs + o.coeffs, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return self._trunc(self.coeffs - o.coeffs, o)

    def __rsub__(self, other):
        o = self._lift(other)
        return self._trunc(o.coeffs - self.coeffs, o)

    def __neg__(self):
        return FullJet(self.space, -self.coeffs, self.order)

    def __mul__(self, other):
        if not isinstance(other, FullJet):
            return FullJet(self.space, self.coeffs * float(other), self.order)
        order = min(self.order, other.order)
        return FullJet(self.space, ref_mul(self.space, self.coeffs, other.coeffs, order), order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, FullJet):
            return FullJet(self.space, self.coeffs / float(other), self.order)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self._reciprocal()

    def diff(self, var):
        return FullJet(self.space, ref_diff(self.space, self.coeffs, var), self.order - 1)

    def __abs__(self):
        if self.value == 0.0:
            raise DomainError("abs-domain")
        return self if self.value > 0.0 else -self

    def _apply(self, taylor_of, *args):
        taylor = jets._taylor(taylor_of, self.value, self.order, *args)
        h = FullJet(self.space, self.coeffs.copy(), self.order)
        h.coeffs[0] = 0.0
        out = FullJet.padded(self.space, [taylor[self.order]], self.order)
        for k in range(self.order - 1, -1, -1):
            out = out * h + taylor[k]
        return out

    def exp(self):
        return self._apply(jets._exp_taylor)

    def ln(self):
        return self._apply(jets._ln_taylor)

    def sqrt(self):
        return self._apply(jets._sqrt_taylor)

    def sin(self):
        return self._apply(jets._sin_taylor)

    def cos(self):
        return self._apply(jets._cos_taylor)

    def _reciprocal(self):
        return self._apply(jets._reciprocal_taylor)

    def _powr(self, r):
        return self._apply(jets._powr_taylor, r)

    def _powi(self, k):
        if k < 0:
            if self.value == 0.0:
                raise DomainError("power-domain")
            return self._powi(-k)._reciprocal()
        result, base = FullJet.padded(self.space, [1.0], self.order), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


def _full_row(u, r):
    """Row r of an operand as the reference sees it."""
    if isinstance(u, Jet) and u.coeffs.ndim == 2:
        return FullJet.padded(u.space, u.coeffs[r], u.order)
    if isinstance(u, Jet):
        return FullJet.padded(u.space, u.coeffs, u.order)
    return u


def assert_prefix_of_reference(space, coeffs, order, expected):
    width = space.ncoeff_upto[order]
    assert order == expected.order
    assert coeffs.shape == (width,)
    assert same_bits(coeffs, expected.coeffs[:width])
    assert np.all(expected.coeffs[width:] == 0.0)


def assert_stores_reference_prefix(op, *operands):
    """op on the stored jets, row by row for a batch, keeps exactly the
    prefix of op on the full-width reference; where the reference raises
    DomainError, a scalar jet raises the same reason and a batch row is NaN."""
    batch = next((u for u in operands if isinstance(u, Jet) and u.coeffs.ndim == 2), None)
    rows = 1 if batch is None else len(batch.coeffs)
    try:
        out = op(*operands)
    except DomainError as err:
        assert batch is None
        with pytest.raises(DomainError) as ref_err:
            op(*(_full_row(u, 0) for u in operands))
        assert ref_err.value.reason == err.reason
        return
    # a scalar result of a batch operation (u**0) stands in every row
    stored = np.broadcast_to(out.coeffs, (rows, out.coeffs.shape[-1]))
    for r in range(rows):
        coeffs = stored[r]
        try:
            expected = op(*(_full_row(u, r) for u in operands))
        except DomainError:
            assert batch is not None and np.all(np.isnan(coeffs)), r
            continue
        assert_prefix_of_reference(out.space, coeffs, out.order, expected)


_UNARY = [
    lambda u: -u,
    lambda u: u.exp(),
    lambda u: u.ln(),
    lambda u: u.sqrt(),
    lambda u: u.sin(),
    lambda u: u.cos(),
    abs,
    lambda u: u._reciprocal(),
] + [lambda u, k=k: u._powi(k) for k in (-3, -1, 0, 2, 3)] + [
    lambda u, e=e: u._powr(e) for e in (0.5, -1.5, 2.7)
]
_BINARY = [
    lambda u, v: u * v,
    lambda u, v: u + v,
    lambda u, v: u - v,
    lambda u, v: u / v,
]


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({
    "nvars": st.integers(0, 8),
    "order": st.integers(0, jets.MAX_ORDER),
    "rows": st.integers(1, 5),
    "seed": st.integers(0, 2**32 - 1),
}))
def test_jets_store_exactly_the_valid_prefix_of_the_full_width_result(case):
    rng = np.random.default_rng(case["seed"])
    space = jet_space(case["nvars"], case["order"])
    a, b = (_random_jet(space, rng, int(rng.integers(0, space.order + 1))) for _ in range(2))
    block, _ = _random_block(space, rng, case["rows"])
    # values of either sign, so that ln, sqrt and the real powers fail on some
    for u in (a, b, block):
        u.coeffs[..., 0] = rng.choice([-1.0, 1.0], u.coeffs.shape[:-1]) * rng.uniform(
            0.25, 2.0, u.coeffs.shape[:-1]
        )
    k = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
    for u in (a, block):
        assert u.coeffs.shape[-1] == space.ncoeff_upto[u.order]
        for op in _UNARY:
            assert_stores_reference_prefix(op, u)
        for op in _BINARY:
            for v in (b, block, k):
                assert_stores_reference_prefix(op, u, v)
                assert_stores_reference_prefix(op, v, u)
        for var in range(space.nvars if u.order >= 1 else 0):
            assert_stores_reference_prefix(lambda w: w.diff(var), u)


# -- the work of powers and compositions ---------------------------------------------


def _count_products(monkeypatch):
    """The spaces of the scalar jet products made from now on."""
    spaces = []
    mul = Jet.__mul__

    def counting(self, other):
        if isinstance(other, Jet):
            spaces.append(self.space)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    return spaces


@pytest.mark.parametrize("k, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_binary_powering_makes_no_wasted_product(monkeypatch, k, products):
    (x,) = seed([0.7], [0], 4)
    expected = x
    for _ in range(k - 1):
        expected = expected * x
    spaces = _count_products(monkeypatch)
    got = x._powi(k)
    assert len(spaces) == products
    np.testing.assert_allclose(got.coeffs, expected.coeffs, rtol=1e-15)


def test_the_first_power_is_the_product_by_one_it_skips():
    # 1 * u sums from +0.0, so u's -0.0 coefficients come out as +0.0
    (x,) = seed([0.7], [0], 4)
    u = -x
    assert np.any(np.signbit(u.coeffs) & (u.coeffs == 0.0))
    assert same_bits(u._powi(1).coeffs, (u.space.constant(1.0) * u).coeffs)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_a_composition_makes_order_minus_one_products(monkeypatch, order):
    x, y = seed([0.4, -0.3], [0, 1], order)
    u = x * y + x
    spaces = _count_products(monkeypatch)
    for f in (u.exp(), u.sin(), u._reciprocal(), u._powr(0.5)):
        assert f.order == order
    assert len(spaces) == 4 * (order - 1)
