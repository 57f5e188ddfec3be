"""Supports: every jet stores its coefficients over all the variables of
its space, records the variables outside which they are all +-0.0, and a
product runs only the Cauchy pairs whose monomials lie in the union of its
operands' supports.  Every result of `expr.eval` and
`geometry.eval_L_jets` must equal, bit for bit and non-finite coefficients
included, the jet of the full-space route: the same evaluation with every
coordinate's support set to all the variables of its space, so that every
product it makes of them runs over every pair."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslergeo import berwald, catalog, expr, geometry, jets
from finslergeo.defs import DslLagrangian, FamilyInstance, TangentSample
from finslergeo.expr import Binary, Const, Coord, ExprDomainError, Param, Unary
from finslergeo.geometry import DegenerateMetric
from finslergeo.jets import DomainError, Jet, jet_space, seed, seed_block

# -- the full-space route: the reference ----------------------------------------


def full_space(coords):
    """The coordinates, each jet with the support of all its space's variables."""
    return [
        Jet(c.space, c.coeffs, c.order, tuple(range(c.space.nvars))) if isinstance(c, Jet) else c
        for c in coords
    ]


def full_space_eval(ast, coords, params=None):
    return expr.eval(ast, full_space(coords), params)


def full_space_L(lag, coords):
    return geometry.eval_L_jets(lag, full_space(coords))


# -- comparison ---------------------------------------------------------------------


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


_ERRORS = (DomainError, ExprDomainError, DegenerateMetric)


def assert_support_holds(j: Jet):
    """Every coefficient of j outside its support is +-0.0."""
    width = j.coeffs.shape[-1]
    outside = [v for v in range(j.space.nvars) if v not in j.support]
    slots = j.space.exponents[:width][:, outside].any(axis=1)
    assert np.all(j.coeffs[..., slots] == 0.0)


def assert_matches_full_space(tracked, reference):
    """tracked() equals reference() bit for bit, or raises what it raises;
    a jet's support holds."""
    with np.errstate(all="ignore"):
        try:
            expected = reference()
        except _ERRORS as err:
            with pytest.raises(type(err)) as got:
                tracked()
            assert str(got.value) == str(err)
            return
        got = tracked()
    if not isinstance(expected, Jet):
        assert not isinstance(got, Jet) and same_bits(float(got), float(expected))
        return
    assert type(got) is type(expected)
    assert got.space is expected.space and got.order == expected.order
    assert same_bits(got.coeffs, expected.coeffs)
    assert_support_holds(got)


def recorded_supports(monkeypatch, call) -> list:
    """The support each jet product made by call() ran its pairs over."""
    supports = []
    product = jets._product

    def recording(space, a, b, order, support):
        supports.append(support)
        return product(space, a, b, order, support)

    with monkeypatch.context() as patch:
        patch.setattr(jets, "_product", recording)
        call()
    return supports


# -- random inputs ------------------------------------------------------------------


def _random_coordinates(rng, nvars, order, count):
    """`count` jets over one seeded space, each depending on a random subset
    of its variables (none: a constant; all: a full-space jet), with random
    coefficients on that subset's monomials and a random validity."""
    space = jet_space(nvars, order)
    coords = []
    for _ in range(count):
        support = rng.random(nvars) < 0.4
        validity = int(rng.integers(0, order + 1))
        width = space.ncoeff_upto[validity]
        inside = ~np.any(space.exponents[:width][:, ~support], axis=1)
        coeffs = np.where(inside, rng.uniform(-1.5, 1.5, width), 0.0)
        coeffs[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)
        coords.append(Jet(space, coeffs, validity))
    return coords


def _ast(max_leaves):
    leaves = st.one_of(
        st.builds(Const, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, -0.25])),
        st.builds(Coord, st.integers(0, 3)),
        st.builds(Param, st.just("a")),
    )

    def extend(children):
        unary = st.builds(
            Unary, st.sampled_from(["neg", "sin", "cos", "exp", "ln", "sqrt", "abs"]), children
        )
        binary = st.builds(
            Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children
        )
        power = st.builds(
            Binary,
            st.just("pow"),
            children,
            st.builds(Const, st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, -1.0, -2.0, 0.5, 1.5])),
        )
        return st.one_of(unary, binary, power)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _subtrees(node):
    yield node
    if isinstance(node, Unary):
        yield from _subtrees(node.arg)
    elif isinstance(node, Binary):
        yield from _subtrees(node.left)
        yield from _subtrees(node.right)


_spaces = st.fixed_dictionaries({
    "nvars": st.integers(1, 6),
    "order": st.integers(1, jets.MAX_ORDER),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=80, deadline=None)
@given(_ast(12), _spaces)
def test_every_subexpression_matches_the_full_space_route(ast, case):
    rng = np.random.default_rng(case["seed"])
    coords = _random_coordinates(rng, case["nvars"], case["order"], 4)
    params = {"a": float(rng.uniform(-2.0, 2.0))}
    for node in _subtrees(ast):
        assert_matches_full_space(
            lambda: expr.eval(node, coords, params),
            lambda: full_space_eval(node, coords, params),
        )


@settings(max_examples=60, deadline=None)
@given(_ast(10), _spaces)
def test_seeded_coordinates_with_random_active_sets(ast, case):
    # inactive coordinates are constants: their support is empty
    rng = np.random.default_rng(case["seed"])
    active = [v for v in range(4) if rng.random() < 0.6]
    coords = seed(rng.uniform(-1.5, 1.5, 4), active, case["order"])
    params = {"a": 0.75}
    assert_matches_full_space(
        lambda: expr.eval(ast, coords, params), lambda: full_space_eval(ast, coords, params)
    )


def _family(rng, n, draw_ast):
    """A random family instance over n base coordinates."""
    def entry():
        return draw_ast() if rng.random() < 0.6 else Const(float(rng.choice([0.0, 1.0, -1.0])))

    upper = {(a, b): entry() for a in range(n) for b in range(a, n)}
    alpha = tuple(tuple(upper[min(a, b), max(a, b)] for b in range(n)) for a in range(n))
    beta = tuple(entry() for _ in range(n))
    c, m = (float(v) for v in rng.uniform(0.5, 2.0, 2))
    p = float(rng.choice([0.0, 1.0, 2.0, 0.5, -1.0]))
    return FamilyInstance(dim=n, alpha=alpha, beta=beta, c=c, m=m, p=p, params={"a": 0.5})


def _base_ast(n):
    # coordinates of the base only, for alpha and beta
    return _ast(6).filter(lambda t: all(
        not isinstance(s, Coord) or s.index < n for s in _subtrees(t)
    ))


@settings(max_examples=60, deadline=None)
@given(st.data(), _spaces)
def test_lagrangians_match_the_full_space_route(data, case):
    rng = np.random.default_rng(case["seed"])
    n = 2
    if data.draw(st.booleans()):
        lag = DslLagrangian(dim=n, ast=data.draw(_ast(12)), params={"a": 0.5})
    else:
        lag = _family(rng, n, lambda: data.draw(_base_ast(n)))
    # seeded points, random coordinates and, as in the spray witness, a
    # block of batched fiber coordinates next to scalar base coordinates
    x = rng.uniform(-1.0, 1.0, n)
    xdot = rng.uniform(0.3, 1.5, n)
    order = case["order"]
    rows = xdot * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, (3, n)))
    for coords in (
        seed(list(x) + list(xdot), range(2 * n), order),
        _random_coordinates(rng, 2 * n, order, 2 * n),
        seed_block(x, rows, min(order, 2)),
    ):
        assert_matches_full_space(
            lambda: geometry.eval_L_jets(lag, coords), lambda: full_space_L(lag, coords)
        )


# -- the scenes whose L leaves float range --------------------------------------------


def _dsl(source):
    return DslLagrangian(dim=2, ast=expr.parse(source, 4, aliases={"dx0": 2, "dx1": 3}))


@pytest.mark.parametrize("source, reason", [
    ("exp(1000*x0)*dx0^2 - dx1^2", "overflow"),
    ("exp(700*x0)*dx0^2 - dx1^2", "non-finite"),
])
def test_out_of_range_L_keeps_its_tag_and_detail(source, reason):
    lag = _dsl(source)
    sample = TangentSample([1.0, 0.0], [1.0, 0.2])
    coords = seed([1.0, 0.0, 1.0, 0.2], range(4), 4)
    with np.errstate(all="ignore"):
        verdict, _ = geometry.probe_context(lag, sample)
        try:
            reference = full_space_L(lag, coords)
        except ExprDomainError as err:
            expected = err.reason
            with pytest.raises(ExprDomainError) as got:
                geometry.eval_L(lag, sample, 4)
            assert str(got.value) == str(err)
        else:
            expected = "non-finite" if not np.all(np.isfinite(reference.coeffs)) else None
            assert not np.all(np.isfinite(geometry.eval_L(lag, sample, 4).coeffs))
    assert expected == reason
    assert verdict.failure_reason == reason


def test_a_non_finite_L_has_the_bits_of_the_full_space_route():
    # the digest tool's non-finite sample: exp(700) * 1.4^k overflows in
    # products whose pairs over every variable also meet the zeros outside
    # a support
    lag = _dsl("exp(700*x0)*dx0^2 - dx1^2")
    coords = seed([1.0, 0.0, 1.0, 0.2], range(4), 4)
    assert_matches_full_space(
        lambda: geometry.eval_L_jets(lag, coords), lambda: full_space_L(lag, coords)
    )
    with np.errstate(all="ignore"):
        L = geometry.eval_L(lag, TangentSample([1.0, 0.0], [1.0, 0.2]), 4)
    assert np.isnan(L.coeffs).any()


# -- supports of seeded coordinates and of what is made from them ----------------------


def test_a_seeded_coordinate_depends_on_its_own_variable():
    coords = seed([0.5, -1.0, 2.0], range(3), 4)
    x1 = coords[1]
    assert x1.support == (1,) and x1.space is jet_space(3, 4)
    assert x1.value == -1.0 and x1.first(1) == 1.0 and np.count_nonzero(x1.coeffs) == 2
    # a constant depends on no variable; a product on its factors' variables
    (c, _) = seed([3.0, 1.0], [1], 2)
    assert c.support == ()
    assert (coords[0] * coords[2]).support == (0, 2)
    assert (coords[0] * coords[1] * coords[2]).support == (0, 1, 2)


def test_jets_seeded_apart_cannot_be_combined():
    # x0 of a 2-variable seed, of a 1-variable seed and of a 3-variable seed
    # share a support, not a space
    a = seed([1.0, 2.0], [0, 1], 4)
    b = seed([3.0], [0], 4)
    c = seed([3.0, 4.0, 5.0], range(3), 4)[0]
    assert a[0].support == b[0].support == c.support == (0,)
    for u, v in [(a[0], b[0]), (b[0], a[0]), (a[0], c), (a[0].exp(), c), (a[0], b[0].sin())]:
        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
            with pytest.raises(ValueError, match="different spaces"):
                op(u, v)
    with pytest.raises(ValueError, match="different spaces"):
        expr.eval(expr.parse("x0 * x1", 2), [a[0], b[0]])
    x, v = seed_block([0.3], np.array([[1.0], [2.0]]), 2)
    with pytest.raises(ValueError, match="different spaces"):
        seed([1.0, 2.0, 3.0], range(3), 2)[0] * v


def test_a_scaling_by_a_value_that_is_not_finite_reads_its_support_off():
    # inf or NaN times the zeros outside x0's support is NaN there
    x0, x1 = seed([0.5, -1.0], range(2), 2)
    _, v = seed_block([0.3], np.array([[1.0], [0.0], [-1.0]]), 2)
    with np.errstate(all="ignore"):
        # a scaling, abs of a stack row at 0, and Horner's first scaling by
        # the NaN Taylor coefficients of a row outside ln's domain
        scaled = [x0 * math.inf, x0 * math.nan, x0 / math.nan, abs(v), v.ln()]
    for j in scaled:
        assert j.support == (0, 1)
        assert_support_holds(j)
    assert (x0 * 1e300).support == (x0 / 1e-300).support == (0,)


def test_a_sum_keeps_the_sign_of_the_zeros_outside_its_support():
    # -(x0) - x1 holds -0.0 in x2's slots
    x0, x1, x2 = seed([0.5, -1.0, 2.0], range(3), 2)
    ast = expr.parse("-x0 - x1", 3)
    got = expr.eval(ast, [x0, x1, x2])
    expected = full_space_eval(ast, [x0, x1, x2])
    assert same_bits(got.coeffs, expected.coeffs) and got.support == (0, 1)
    assert math.copysign(1.0, got.coeffs[x2.space.first_index[2]]) == -1.0
    # a product sums from +0.0 outside its operands' supports too
    ast = expr.parse("-x0*x1 + -x1*x1", 3)
    assert same_bits(expr.eval(ast, [x0, x1, x2]).coeffs, full_space_eval(ast, [x0, x1, x2]).coeffs)


def test_disjoint_supports_multiply_as_an_outer_product():
    x0, x1 = seed([0.5, -1.0], range(2), 4)
    product = x0.exp() * x1.sin()
    assert product.support == (0, 1)
    full = full_space(seed([0.5, -1.0], range(2), 4))
    assert same_bits(product.coeffs, (full[0].exp() * full[1].sin()).coeffs)
    # with a third variable outside both supports
    x0, x1, x2 = seed([0.5, -1.0, 2.0], range(3), 4)
    product = x0.exp() * x1.sin()
    assert product.support == (0, 1)
    full = full_space([x0, x1])
    assert same_bits(product.coeffs, (full[0].exp() * full[1].sin()).coeffs)


def test_a_jet_with_a_support_meets_a_batch_over_all_the_variables():
    x, v = seed_block([0.3], np.array([[1.0], [2.0]]), 2)
    assert x.support == (0,) and v.support == (1,)
    out = x.exp() * v
    assert out.coeffs.ndim == 2 and out.support == (0, 1)
    fx, fv = full_space([x, v])
    assert same_bits(out.coeffs, (fx.exp() * fv).coeffs)


def test_derivatives_of_a_jet_with_a_support_are_by_seeded_variable():
    # x1*x1 depends on x1 alone; its coefficients span both variables
    coords = seed([0.5, 2.0], range(2), 2)
    ast = expr.parse("x1*x1", 2)
    j = expr.eval(ast, coords)
    full = full_space_eval(ast, coords)
    assert j.support == (1,) and full.support == (0, 1)
    assert [j.first(v) for v in range(2)] == [full.first(v) for v in range(2)] == [0.0, 4.0]
    for multi in ([0], [1], [0, 1], [1, 1]):
        assert jets.extract_partial(j, multi) == jets.extract_partial(full, multi)
    assert jets.extract_partial(j, [1, 1]) == 2.0
    for v in range(2):
        assert j.diff(v).support == (1,)
        assert same_bits(j.diff(v).coeffs, full.diff(v).coeffs)
    for derivatives in (geometry.first_derivatives, geometry.partials):
        got, want = derivatives(j, range(2)), derivatives(full, range(2))
        assert same_bits(getattr(got, "coeffs", got), getattr(want, "coeffs", want))
    assert geometry.partials(j, range(2)).support == (1,)


def test_an_outer_product_sums_from_plus_zero():
    # x0 * -x1: the zeros of x0 times -1 are -0.0 before the sum from +0.0
    coords = seed([0.5, -1.0], range(2), 4)
    ast = expr.parse("x0*-x1", 2)
    got = expr.eval(ast, coords)
    assert same_bits(got.coeffs, full_space_eval(ast, coords).coeffs)
    assert not np.any(np.signbit(got.coeffs) & (got.coeffs == 0.0))


@pytest.mark.parametrize("name", catalog.names())
def test_the_witness_block_makes_no_product_over_all_the_variables(name, monkeypatch):
    # the stacks of base and fiber coordinates keep their supports, over
    # the draws of every default sample of the entry
    entry = catalog.get(name)
    n = entry.dim
    rng = np.random.default_rng(7)
    points = np.concatenate([
        np.hstack([np.tile(s.x, (16, 1)), s.xdot * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, (16, n)))])
        for s in entry.default_samples
    ])
    supports = recorded_supports(
        monkeypatch,
        lambda: berwald._witness_block(entry.lagrangian, points, geometry.TOL_DEGENERATE),
    )
    assert supports and all(s is not None and len(s) < 2 * n for s in supports)
