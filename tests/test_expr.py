"""Expression parsing, evaluation, and the pretty-print round trip."""

import dataclasses
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from finslergeo import expr
from finslergeo.expr import (
    Binary,
    Const,
    Coord,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    Param,
    Unary,
)
from finslergeo.jets import seed
from finslergeo.oracle import fd_partial


def test_parse_structure():
    ast = expr.parse("2*x0 + x1^2", 2)
    assert ast == Binary(
        "add",
        Binary("mul", Const(2.0), Coord(0)),
        Binary("pow", Coord(1), Const(2.0)),
    )


def test_parse_parameters():
    ast = expr.parse("c*(1 - p)", 1, {"c", "p"})
    assert ast == Binary(
        "mul", Param("c"), Binary("sub", Const(1.0), Param("p"))
    )


def test_unknown_identifier_without_alias():
    with pytest.raises(ExprNameError) as err:
        expr.parse("v*phi", 4, {"phi"})
    assert err.value.offset == 0
    # with the chart alias table the same source parses
    ast = expr.parse("v*phi", 4, {"phi"}, aliases={"u": 0, "v": 1})
    assert ast == Binary("mul", Coord(1), Param("phi"))


def test_coordinate_out_of_range():
    with pytest.raises(ExprNameError):
        expr.parse("x7", 4)


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("x0 + ", 1)
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("x0 $ 2", 1)
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError):
        expr.parse("sin x0", 1)
    with pytest.raises(ExprSyntaxError):
        expr.parse("(x0", 1)


def test_precedence_and_associativity():
    assert expr.eval(expr.parse("2 + 3 * 4", 1), [0.0]) == 14.0
    assert expr.eval(expr.parse("2 - 3 - 4", 1), [0.0]) == -5.0
    assert expr.eval(expr.parse("12 / 3 / 2", 1), [0.0]) == 2.0
    # pow binds tighter than unary minus; pow is left-associative
    assert expr.eval(expr.parse("-x0^2", 1), [3.0]) == -9.0
    assert expr.eval(expr.parse("2^3^2", 1), [0.0]) == 64.0
    assert expr.eval(expr.parse("2*(1+1)^3", 1), [0.0]) == 16.0


def test_eval_arithmetic():
    assert expr.eval(expr.parse("x0^2 - x1^2", 2), [3.0, 2.0]) == 5.0


def test_eval_is_pure():
    ast = expr.parse("sin(x0)*exp(x1) + c", 2, {"c"})
    args = ([0.37, -1.2], {"c": 4.0})
    assert expr.eval(ast, *args) == expr.eval(ast, *args)


def test_eval_over_jets_gives_derivatives():
    ast = expr.parse("x0^2 - x1^2", 2)
    jx, jy = seed([3.0, 2.0], {0}, 1)
    out = expr.eval(ast, [jx, jy])
    assert out.value == 5.0
    assert out.first(0) == 6.0


def test_domain_error_carries_offset():
    ast = expr.parse("1 + ln(x0)", 1)
    with pytest.raises(ExprDomainError) as err:
        expr.eval(ast, [-1.0])
    assert err.value.reason == "log-domain"
    assert err.value.offset == 4
    with pytest.raises(ExprDomainError) as err:
        expr.eval(expr.parse("1/x0", 1), [0.0])
    assert err.value.reason == "division-by-zero"


def test_pow_constant_integer_exponent_negative_base():
    assert expr.eval(expr.parse("x0^2", 1), [-3.0]) == 9.0
    assert expr.eval(expr.parse("x0^(-2)", 1), [-2.0]) == 0.25
    with pytest.raises(ExprDomainError) as err:
        expr.eval(expr.parse("x0^0.5", 1), [-3.0])
    assert err.value.reason == "power-domain"


def test_missing_parameter_value():
    ast = expr.parse("c*x0", 1, {"c"})
    with pytest.raises(ExprNameError):
        expr.eval(ast, [1.0], {})


def test_unicode_minus_tolerated():
    assert expr.eval(expr.parse("x0−x1", 2), [5.0, 3.0]) == 2.0


# -- round trip -----------------------------------------------------------------


def _ast_strategy():
    leaves = st.one_of(
        st.builds(
            Const,
            st.floats(
                min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
        ),
        st.builds(Coord, st.integers(0, 2)),
        st.builds(Param, st.sampled_from(["a", "bb"])),
    )

    def extend(children):
        unary = st.builds(
            Unary,
            st.sampled_from(["neg", "sin", "cos", "exp", "ln", "sqrt", "abs"]),
            children,
        )
        binary = st.builds(
            Binary,
            st.sampled_from(["add", "sub", "mul", "div", "pow"]),
            children,
            children,
        )
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(_ast_strategy())
def test_pretty_print_round_trip(ast):
    printed = expr.pretty(ast)
    reparsed = expr.parse(printed, 3, {"a", "bb"})
    assert reparsed == ast


@pytest.mark.parametrize(
    "src",
    [
        "-x0^2 + 3.5*(x1 - x2/x0)^2 - sqrt(x1)*sin(x0)",
        "x0*-x1",
        "abs(x0)^(-3)/(1 + exp(-(x1)))",
        "cos(x0)^2 + sin(x0)^2",
    ],
)
def test_round_trip_from_source(src):
    a1 = expr.parse(src, 3)
    assert expr.parse(expr.pretty(a1), 3) == a1


# -- equality, hashing and printing without recursion ---------------------------


# The reference: the AST as plain frozen dataclasses, whose generated __eq__
# and __hash__ recurse once per node, and the recursive printer.
@dataclass(frozen=True)
class _RefConst:
    value: float


@dataclass(frozen=True)
class _RefCoord:
    index: int


@dataclass(frozen=True)
class _RefParam:
    name: str


@dataclass(frozen=True)
class _RefUnary:
    op: str
    arg: object


@dataclass(frozen=True)
class _RefBinary:
    op: str
    left: object
    right: object


def _reference(node):
    if isinstance(node, Const):
        return _RefConst(node.value)
    if isinstance(node, Coord):
        return _RefCoord(node.index)
    if isinstance(node, Param):
        return _RefParam(node.name)
    if isinstance(node, Unary):
        return _RefUnary(node.op, _reference(node.arg))
    return _RefBinary(node.op, _reference(node.left), _reference(node.right))


def _reference_pretty(ast) -> str:
    def prec(node) -> int:
        if isinstance(node, Binary):
            return expr._PREC[node.op]
        if isinstance(node, Unary) and node.op == "neg":
            return expr._PREC["neg"]
        return 9

    def rec(node) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Coord):
            return f"x{node.index}"
        if isinstance(node, Param):
            return node.name
        if isinstance(node, Unary):
            if node.op == "neg":
                inner = rec(node.arg)
                if prec(node.arg) < expr._PREC["neg"]:
                    inner = f"({inner})"
                return f"-{inner}"
            return f"{node.op}({rec(node.arg)})"
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[node.op]
        p = expr._PREC[node.op]
        left = rec(node.left)
        if prec(node.left) < p:
            left = f"({left})"
        right = rec(node.right)
        if prec(node.right) <= p:
            right = f"({right})"
        return f"{left}{sym}{right}"

    return rec(ast)


def _rebuilt(node):
    """An equal tree of new nodes with other spans."""
    if isinstance(node, Unary):
        return Unary(node.op, _rebuilt(node.arg), node.span + 1)
    if isinstance(node, Binary):
        return Binary(node.op, _rebuilt(node.left), _rebuilt(node.right), node.span + 1)
    return type(node)(getattr(node, node._compared[0]), node.span + 1)


def _small_trees():
    """Trees over few leaves, so that equal trees are drawn often; -0.0 and
    NaN constants among them."""
    leaves = st.one_of(
        st.builds(Const, st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan])),
        st.builds(Coord, st.integers(0, 1)),
        st.builds(Param, st.sampled_from(["a", "b"])),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sin"]), children),
            st.builds(Binary, st.sampled_from(["add", "mul"]), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_small_trees(), _small_trees())
def test_equality_and_hash_match_the_recursive_dataclass_methods(a, b):
    for u, v in ((a, b), (a, _rebuilt(a)), (a, a), (b, _rebuilt(a))):
        assert (u == v) == (_reference(u) == _reference(v))
        assert (u != v) == (_reference(u) != _reference(v))
    assert hash(a) == hash(_reference(a))
    assert hash(_rebuilt(b)) == hash(_reference(b))
    assert (a == 1.0) is False


@settings(max_examples=60, deadline=None)
@given(_ast_strategy())
def test_pretty_matches_the_recursive_printer(ast):
    assert expr.pretty(ast) == _reference_pretty(ast)


def test_long_sum_compares_hashes_and_prints_without_recursion():
    src = " + ".join(f"{i}*x0" for i in range(5000))
    a, b = expr.parse(src, 1), expr.parse(src, 1)
    try:
        equal, same_hash = a == b, hash(a) == hash(b)
        differs = a != expr.parse(src + " + x0", 1)
        round_trip = expr.parse(expr.pretty(a), 1) == a
    except RecursionError:  # fail below, not with a thousand-frame traceback
        equal = same_hash = differs = round_trip = None
    assert equal and same_hash
    assert differs
    assert round_trip


# The reference repr: the one a frozen dataclass generates, of classes with
# the AST classes' names and fields.
_REPR_REFERENCE = {
    cls: dataclasses.make_dataclass(
        cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True
    )
    for cls in (Const, Coord, Param, Unary, Binary)
}


def _repr_reference(node):
    values = [getattr(node, f.name) for f in dataclasses.fields(node)]
    return _REPR_REFERENCE[type(node)](
        *(_repr_reference(v) if isinstance(v, expr._Node) else v for v in values)
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(_small_trees(), _ast_strategy()))
def test_repr_matches_the_generated_dataclass_repr(ast):
    for node in (ast, _rebuilt(ast)):
        assert repr(node) == str(node) == repr(_repr_reference(node))


def test_long_sum_has_a_repr():
    a = expr.parse(" + ".join(["x0"] * 5000), 1)
    try:
        text, printed = repr(a), str(a)
    except RecursionError:  # fail below, not with a thousand-frame traceback
        text = printed = None
    assert text is not None, "repr recursed once per node"
    assert printed == text
    assert text.startswith("Binary(op='add', left=Binary(op='add', left=")
    assert text.count("Coord(index=0, span=") == 5000
    assert text.endswith(f"right=Coord(index=0, span={5 * 4999}), span={5 * 4999 - 2})")


# -- jet derivatives vs finite differences -----------------------------------------


@pytest.mark.parametrize(
    "src,point",
    [
        ("sin(x0)*exp(0.3*x1) + x0^3/(1 + x1^2)", [0.7, -0.4]),
        ("sqrt(1 + x0^2 + x1^2)*cos(x0*x1)", [1.2, 0.5]),
        ("ln(2 + x0)*x1 - x0/x1", [0.3, 1.7]),
    ],
)
def test_jet_first_derivatives_match_fd(src, point):
    ast = expr.parse(src, 2)
    cjets = seed(point, {0, 1}, 1)
    out = expr.eval(ast, cjets)
    for v in range(2):
        ref = fd_partial(lambda p: expr.eval(ast, list(p)), point, [v], step=1e-5)
        rel = abs(out.first(v) - ref) / max(1.0, abs(ref))
        assert rel < 1e-6
