"""Parser, evaluator and symbolic derivatives for field expressions.

Grammar (coordinates are x1..xn):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := NUMBER | 'pi' | 'x' DIGIT+ | '(' expr ')'
            | ('sin'|'cos'|'exp') '(' expr ')' | '-' factor

Expressions evaluate vectorized over numpy point arrays of shape
(..., dim) and are closed under differentiation, so directional
derivatives of any order stay analytic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "ExprParseError",
    "parse",
    "evaluate",
    "diff",
    "constant",
    "coordinate",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "call",
    "max_coordinate",
    "is_constant",
    "to_str",
    "Lowering",
]


class ExprParseError(ValueError):
    """Raised on a malformed expression; carries the 0-based offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (column {pos + 1})")
        self.message = message
        self.pos = pos


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    axis: int  # zero-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str  # sin | cos | exp
    arg: "Expr"


Expr = Union[Num, Coord, Neg, BinOp, Call]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


# ---------------------------------------------------------------------------
# smart constructors (light constant folding keeps derivative trees small)

def constant(value: float) -> Expr:
    return Num(float(value))


def coordinate(axis: int) -> Expr:
    if axis < 0:
        raise ValueError("coordinate axis must be >= 0")
    return Coord(axis)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
        if a.value == -1.0:
            return neg(b)
    if isinstance(b, Num):
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
        if b.value == -1.0:
            return neg(a)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and a.value == 0.0:
        return Num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return BinOp("/", a, b)


def call(fn: str, a: Expr) -> Expr:
    if fn not in _FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    return Call(fn, a)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-zA-Z]+\d*)"
    r"|(?P<op>[-+*/()]))"
)

_COORD_RE = re.compile(r"x(\d+)$")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, pos=None):
        raise ExprParseError(message, self.pos if pos is None else pos)

    def next_token(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:]
            stripped = rest.lstrip()
            if not stripped:
                self.pos = len(self.text)
                return None, None, len(self.text)
            bad = self.pos + (len(rest) - len(stripped))
            self.error(f"unexpected character {stripped[0]!r}", bad)
        self.pos = m.end()
        for kind in ("number", "name", "op"):
            if m.group(kind) is not None:
                return kind, m.group(kind), m.start(kind)
        raise AssertionError("unreachable")

    def expect_op(self, op, opened_at=None):
        kind, text, pos = self.next_token()
        if kind != "op" or text != op:
            if op == ")" and opened_at is not None:
                self.error("unclosed parenthesis opened here", opened_at)
            where = pos if kind is not None else len(self.text)
            self.error(f"expected {op!r}", where)

    def parse_expr(self):
        node = self.parse_term()
        while True:
            save = self.pos
            kind, text, _ = self.next_token()
            if kind == "op" and text in "+-":
                rhs = self.parse_term()
                node = BinOp(text, node, rhs)
            else:
                self.pos = save
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            save = self.pos
            kind, text, _ = self.next_token()
            if kind == "op" and text in "*/":
                rhs = self.parse_factor()
                node = BinOp(text, node, rhs)
            else:
                self.pos = save
                return node

    def parse_factor(self):
        kind, text, pos = self.next_token()
        if kind is None:
            self.error("unexpected end of expression", len(self.text))
        if kind == "number":
            return Num(float(text))
        if kind == "name":
            if text == "pi":
                return Num(math.pi)
            if text in _FUNCTIONS:
                kind2, text2, pos2 = self.next_token()
                if kind2 != "op" or text2 != "(":
                    self.error(f"expected '(' after {text!r}",
                               pos2 if kind2 is not None else len(self.text))
                arg = self.parse_expr()
                self.expect_op(")", opened_at=pos2)
                return Call(text, arg)
            m = _COORD_RE.match(text)
            if m:
                index = int(m.group(1))
                if index < 1:
                    self.error("coordinates start at x1", pos)
                return Coord(index - 1)
            self.error(f"unknown identifier {text!r}", pos)
        if kind == "op":
            if text == "-":
                return Neg(self.parse_factor())
            if text == "(":
                node = self.parse_expr()
                self.expect_op(")", opened_at=pos)
                return node
        self.error(f"unexpected token {text!r}", pos)

    def parse_all(self):
        node = self.parse_expr()
        kind, text, pos = self.next_token()
        if kind is not None:
            self.error(f"unexpected trailing token {text!r}", pos)
        return node


def parse(text: str) -> Expr:
    """Parse an expression string; raises ExprParseError with a position."""
    if not text.strip():
        raise ExprParseError("empty expression", 0)
    return _Parser(text).parse_all()


# ---------------------------------------------------------------------------
# evaluation

def _eval(node, pts):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        if node.axis >= pts.shape[-1]:
            raise ValueError(
                f"expression references x{node.axis + 1} but points have "
                f"dimension {pts.shape[-1]}")
        return pts[..., node.axis]
    if isinstance(node, Neg):
        return -_eval(node.arg, pts)
    if isinstance(node, BinOp):
        a = _eval(node.left, pts)
        b = _eval(node.right, pts)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Call):
        return _FUNCTIONS[node.fn](_eval(node.arg, pts))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Expr, pts) -> np.ndarray:
    """Evaluate at points of shape (..., dim); returns shape (...,)."""
    pts = np.asarray(pts, dtype=float)
    out = _eval(node, pts)
    if np.ndim(out) == 0:
        return np.full(pts.shape[:-1], float(out))
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# lowering to straight-line numpy source

class Lowering:
    """Straight-line numpy source for several expressions at once.

    ``emit(node, inputs)`` appends to ``lines`` the assignments that
    compute node, with coordinate x_{i+1} read from the source variable
    inputs[i], and returns the name that holds the value. A subtree
    already emitted for the same inputs is not computed again, so fields,
    their components and their derivatives share work. Constant subtrees
    are folded to values, with the arithmetic ``evaluate`` uses, so that
    compiled code computes what ``evaluate`` computes. The source is built
    from the tree's node types, operators and function names only, never
    from expression text. Emitted names are v<n> (temporaries), k<n>
    (constants) and the function names; callers name their own variables
    otherwise.
    """

    def __init__(self):
        self.lines = []
        self.namespace = dict(_FUNCTIONS)
        self._names = {}
        self._temps = 0

    def emit(self, node: Expr, inputs) -> str:
        constant = is_constant(node)
        key = (node, () if constant else tuple(inputs))
        name = self._names.get(key)
        if name is not None:
            return name
        if constant:
            name = f"k{len(self.namespace)}"
            self.namespace[name] = float(_eval(node, None))
        elif isinstance(node, Coord):
            name = inputs[node.axis]
        else:
            if isinstance(node, Neg):
                text = f"-{self.emit(node.arg, inputs)}"
            elif isinstance(node, BinOp) and node.op in ("+", "-", "*", "/"):
                text = (f"{self.emit(node.left, inputs)} {node.op} "
                        f"{self.emit(node.right, inputs)}")
            elif isinstance(node, Call) and node.fn in _FUNCTIONS:
                text = f"{node.fn}({self.emit(node.arg, inputs)})"
            else:
                raise TypeError(f"not an expression node: {node!r}")
            name = f"v{self._temps}"
            self._temps += 1
            self.lines.append(f"{name} = {text}")
        self._names[key] = name
        return name

    def define(self, source: str, name: str):
        """Runs source, which may read every emitted name and ``np``, and
        returns the function it defines as name."""
        namespace = dict(self.namespace, np=np)
        exec(compile(source, f"<lowered {name}>", "exec"), namespace)
        return namespace[name]


# ---------------------------------------------------------------------------
# symbolic differentiation

def diff(node: Expr, axis: int) -> Expr:
    """d(node)/d x_{axis+1} as a new expression tree."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Coord):
        return Num(1.0 if node.axis == axis else 0.0)
    if isinstance(node, Neg):
        return neg(diff(node.arg, axis))
    if isinstance(node, BinOp):
        da = diff(node.left, axis)
        db = diff(node.right, axis)
        if node.op == "+":
            return add(da, db)
        if node.op == "-":
            return sub(da, db)
        if node.op == "*":
            return add(mul(da, node.right), mul(node.left, db))
        num = sub(mul(da, node.right), mul(node.left, db))
        return div(num, mul(node.right, node.right))
    if isinstance(node, Call):
        du = diff(node.arg, axis)
        if node.fn == "sin":
            outer = call("cos", node.arg)
        elif node.fn == "cos":
            outer = neg(call("sin", node.arg))
        else:
            outer = node
        return mul(outer, du)
    raise TypeError(f"not an expression node: {node!r}")


def max_coordinate(node: Expr) -> int:
    """Highest coordinate index used, 1-based (0 when constant)."""
    if isinstance(node, Coord):
        return node.axis + 1
    if isinstance(node, Neg):
        return max_coordinate(node.arg)
    if isinstance(node, BinOp):
        return max(max_coordinate(node.left), max_coordinate(node.right))
    if isinstance(node, Call):
        return max_coordinate(node.arg)
    return 0


def is_constant(node: Expr) -> bool:
    return max_coordinate(node) == 0


def to_str(node: Expr) -> str:
    """Render back to grammar-compatible text (for debugging/reports)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Coord):
        return f"x{node.axis + 1}"
    if isinstance(node, Neg):
        return f"-{_paren(node.arg, atom=True)}"
    if isinstance(node, Call):
        return f"{node.fn}({to_str(node.arg)})"
    if isinstance(node, BinOp):
        left = _paren(node.left, atom=node.op in "*/")
        right = _paren(node.right, atom=node.op in "*/-")
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def _paren(node, atom):
    s = to_str(node)
    if atom and isinstance(node, BinOp):
        return f"({s})"
    return s
