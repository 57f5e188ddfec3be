"""Scalar expression language for metric components and scalar fields.

Grammar (see docs/expressions.md for the EBNF):

    expr    = term {("+"|"-") term}
    term    = unary {("*"|"/") unary}
    unary   = "-" unary | power
    power   = atom {"^" atom}
    atom    = NUMBER | IDENT | FUNC "(" expr ")" | "(" expr ")"

Precedence: ``^`` > unary ``-`` > ``*``,``/`` > ``+``,``-``; all binary
operators associate to the left.  There is no implicit multiplication.
Coordinates are written ``x0``, ``x1``, ...; a chart may add aliases
(e.g. ``u``, ``v``).  Functions: sin, cos, exp, ln, sqrt, abs.

Evaluation is generic over "scalar-like" values: plain floats or jets, so
evaluating over seeded jets yields the expression's derivatives for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence, Union

from . import jets
from .jets import DomainError

# name -> the function over floats or jets
_FUNCTION_OF = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "ln": jets.ln,
    "sqrt": jets.sqrt,
    "abs": jets.absval,
}
FUNCTIONS = tuple(_FUNCTION_OF)


class ExprSyntaxError(ValueError):
    """Malformed source; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


class ExprNameError(ValueError):
    """Unknown or out-of-range identifier; `offset` as above."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


class ExprDomainError(ArithmeticError):
    """Evaluation left a function's domain; carries the node offset."""

    def __init__(self, reason: str, offset: int):
        self.reason = reason
        self.offset = offset
        super().__init__(f"{reason} (at byte {offset})")


class _Node:
    """Equality and hashing of AST nodes by their compared fields (every
    field but `span`), and their repr, as a frozen dataclass's generated
    methods give them, but walked with a loop: a long sum such as
    ``x0 + x0 + ... + x0`` needs no deep Python stack."""

    _compared: tuple = ()  # the names of the compared fields, in order

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a.__class__ is not b.__class__:
                return False
            for name in a._compared:
                u, v = getattr(a, name), getattr(b, name)
                if isinstance(u, _Node):
                    if u is not v:
                        pairs.append((u, v))
                elif not (u is v or u == v):  # a tuple's comparison of fields
                    return False
        return True

    def __hash__(self):
        # hash((f1, f2, ...)) of the compared fields, children first, each
        # child in the tuple as a stand-in that hashes to the child's hash
        hashes: dict[int, _Hashed] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            fields = [getattr(node, name) for name in node._compared]
            pending = [f for f in fields if isinstance(f, _Node) and id(f) not in hashes]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            hashes[id(node)] = _Hashed(
                hash(tuple(hashes[id(f)] if isinstance(f, _Node) else f for f in fields))
            )
        return hashes[id(self)].value

    def __repr__(self):
        # ClassName(field=value, ...) over every field, a child node being a
        # piece still to render, expanded with a loop as `pretty` does
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            pieces = [f"{node.__class__.__qualname__}("]
            for i, f in enumerate(fields(node)):
                value = getattr(node, f.name)
                pieces.append(f"{', ' if i else ''}{f.name}=")
                pieces.append(value if isinstance(value, _Node) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)


class _Hashed:
    """A stand-in for a node in a tuple being hashed: it hashes to the
    node's hash."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    value: float
    span: int = field(default=-1, compare=False)
    _compared = ("value",)


@dataclass(frozen=True, eq=False, repr=False)
class Coord(_Node):
    index: int
    span: int = field(default=-1, compare=False)
    _compared = ("index",)


@dataclass(frozen=True, eq=False, repr=False)
class Param(_Node):
    name: str
    span: int = field(default=-1, compare=False)
    _compared = ("name",)


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Node):
    op: str
    arg: "ExpressionAst"
    span: int = field(default=-1, compare=False)
    _compared = ("op", "arg")


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Node):
    op: str
    left: "ExpressionAst"
    right: "ExpressionAst"
    span: int = field(default=-1, compare=False)
    _compared = ("op", "left", "right")


ExpressionAst = Union[Const, Coord, Param, Unary, Binary]


# -- lexer ---------------------------------------------------------------


_SYMBOLS = "+-*/^()"


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, byte offset); kind in num/ident/sym/end."""
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "−":  # tolerate the typographic minus
            tokens.append(("sym", "-", _byte_offset(source, i)))
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, _byte_offset(source, i)))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(("num", source[start:i], _byte_offset(source, start)))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(("ident", source[start:i], _byte_offset(source, start)))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(source, i))
    tokens.append(("end", "", _byte_offset(source, n)))
    return tokens


# -- parser --------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, dim: int, params, aliases):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.dim = dim
        self.params = set(params) if params else set()
        self.aliases = dict(aliases) if aliases else {}
        for name in list(self.aliases) + list(self.params):
            if name in FUNCTIONS:
                raise ExprNameError(f"{name!r} is a reserved function name", 0)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, text: str):
        kind, val, off = self.peek()
        if kind != "sym" or val != text:
            raise ExprSyntaxError(f"expected {text!r}", off)
        return self.take()

    def parse(self) -> ExpressionAst:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> ExpressionAst:
        node = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                rhs = self.term()
                node = Binary("add" if val == "+" else "sub", node, rhs, off)
            else:
                return node

    def term(self) -> ExpressionAst:
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "sym" and val in "*/":
                self.take()
                rhs = self.unary()
                node = Binary("mul" if val == "*" else "div", node, rhs, off)
            else:
                return node

    def unary(self) -> ExpressionAst:
        kind, val, off = self.peek()
        if kind == "sym" and val == "-":
            self.take()
            return Unary("neg", self.unary(), off)
        return self.power()

    def power(self) -> ExpressionAst:
        node = self.atom()
        while True:
            kind, val, off = self.peek()
            if kind == "sym" and val == "^":
                self.take()
                rhs = self.atom()
                node = Binary("pow", node, rhs, off)
            else:
                return node

    def atom(self) -> ExpressionAst:
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val), off)
        if kind == "sym" and val == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_sym("(")
                arg = self.expr()
                self.expect_sym(")")
                return Unary(val, arg, off)
            return self.name(val, off)
        raise ExprSyntaxError(f"expected a value, got {val!r}", off)

    def name(self, text: str, off: int) -> ExpressionAst:
        if text in self.aliases:
            idx = self.aliases[text]
            if not 0 <= idx < self.dim:
                raise ExprNameError(
                    f"alias {text!r} maps to coordinate {idx} outside dim {self.dim}",
                    off,
                )
            return Coord(idx, off)
        if text.startswith("x") and text[1:].isdigit():
            idx = int(text[1:])
            if idx >= self.dim:
                raise ExprNameError(
                    f"coordinate {text!r} exceeds chart dimension {self.dim}", off
                )
            return Coord(idx, off)
        if text in self.params:
            return Param(text, off)
        raise ExprNameError(f"unknown identifier {text!r}", off)


def parse(
    source: str,
    dim: int,
    params: Sequence[str] | set | None = None,
    aliases: Mapping[str, int] | None = None,
) -> ExpressionAst:
    """Parse `source` into an immutable AST over `dim` coordinates.

    `params` declares the legal parameter names; `aliases` maps extra
    coordinate spellings to indices (aliases take precedence over the
    canonical ``x<k>`` forms).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    parser = _Parser(source, dim, params, aliases)
    try:
        return parser.parse()
    except RecursionError:  # the parser descends once per nesting level
        raise ExprSyntaxError("expression nested too deeply", parser.peek()[2]) from None


# -- evaluation ----------------------------------------------------------


def eval(
    node: ExpressionAst,
    coords: Sequence,
    params: Mapping[str, float] | None = None,
):
    """Evaluate over scalar-like coordinates (floats, or jets and stacks of
    one space); each jet it makes keeps the support its operation gives it
    (see "Supports" in `jets`).  Domain failures (log of a non-positive
    value, division by zero, ...) are reported as ExprDomainError carrying
    the offending node's byte offset.

    The chain of first operands (a binary node's left operand, a unary
    node's argument) is walked with a loop, not recursion, so a long sum
    such as ``x0 + x0 + ... + x0`` needs no deep Python stack; each node
    still evaluates its first operand, then its second, then itself."""
    spine = []
    while isinstance(node, (Unary, Binary)):
        spine.append(node)
        node = node.arg if isinstance(node, Unary) else node.left
    value = _leaf(node, coords, params)
    for node in reversed(spine):
        try:
            value = _apply(node, value, coords, params)
        except DomainError as err:
            raise ExprDomainError(err.reason, node.span) from err
        except ZeroDivisionError:
            raise ExprDomainError("division-by-zero", node.span) from None
    return value


def _leaf(node: ExpressionAst, coords: Sequence, params: Mapping[str, float] | None):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index]
    try:
        return float((params or {})[node.name])
    except KeyError:
        raise ExprNameError(f"parameter {node.name!r} has no value", node.span)


def _apply(node: Unary | Binary, first, coords: Sequence, params):
    """The value of `node` given the value of its first operand."""
    if isinstance(node, Unary):
        if node.op == "neg":
            return -first
        if node.op not in _FUNCTION_OF:
            raise ValueError(f"unknown unary op {node.op!r}")
        return _FUNCTION_OF[node.op](first)
    rhs = eval(node.right, coords, params)
    if node.op == "pow":
        # a constant integer exponent keeps a negative base legal (`jets.powx`)
        return jets.powx(first, rhs)
    if node.op == "add":
        return first + rhs
    if node.op == "sub":
        return first - rhs
    if node.op == "mul":
        return first * rhs
    if node.op == "div":
        return jets.divide(first, rhs)
    raise ValueError(f"unknown binary op {node.op!r}")


# -- pretty printing -------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _prec(node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    return 9


def _operand(node, parenthesized: bool) -> list:
    return ["(", node, ")"] if parenthesized else [node]


def pretty(ast: ExpressionAst) -> str:
    """Render with minimal parentheses; reparsing gives an identical AST.

    A stack of pending pieces, each a string or a node still to render, is
    expanded with a loop, so a long sum needs no deep Python stack."""
    out = []
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Const):
            out.append(repr(node.value))
        elif isinstance(node, Coord):
            out.append(f"x{node.index}")
        elif isinstance(node, Param):
            out.append(node.name)
        else:
            if isinstance(node, Unary) and node.op == "neg":
                pieces = ["-", *_operand(node.arg, _prec(node.arg) < _PREC["neg"])]
            elif isinstance(node, Unary):
                pieces = [f"{node.op}(", node.arg, ")"]
            else:
                p = _PREC[node.op]
                # left associativity: same-precedence right children need parens
                pieces = [
                    *_operand(node.left, _prec(node.left) < p),
                    _SYMBOL[node.op],
                    *_operand(node.right, _prec(node.right) <= p),
                ]
            stack.extend(reversed(pieces))
    return "".join(out)
