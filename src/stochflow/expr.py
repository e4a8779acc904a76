"""Parser, evaluator and symbolic derivatives for field expressions.

Grammar (coordinates are x1..xn), read by Python's parser (``parse``):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := NUMBER | 'pi' | 'x' DIGIT+ | '(' expr ')'
            | ('sin'|'cos'|'exp') '(' expr ')' | '-' factor

Expressions evaluate vectorized over numpy point arrays of shape
(..., dim) and are closed under differentiation, so directional
derivatives of any order stay analytic. There is one evaluator:
``Lowering`` turns expressions into straight-line numpy operations,
``Functions`` runs them for a batch of expressions on point arrays, and
``evaluate`` is the batch of one.

Nodes are hash-consed. Every constructor (the node classes themselves,
the smart constructors and the parser) returns the one live node with
its type, operator or function name and children, the children compared
by identity; so two trees of the same structure are the same object, and
``==`` and ``hash`` are identity. Constants are keyed on the type and
``float.hex()`` of their value, as ``Lowering`` keys them: ``Num(0.0)``
and ``Num(-0.0)`` are two nodes and are not equal. The intern table
holds nodes weakly, so a tree lives only as long as its users hold it.
Shared nodes make memos cheap: ``diff`` is memoized per (node, axis),
``max_coordinate`` is computed once per node, and ``Lowering`` lowers a
node once per set of inputs; ``proofs.is_identically_zero`` keeps one
answer per node. ``post_order`` is the tree walker that ``Lowering``,
``diff`` and that zero test share.
The memo of ``diff`` is a slot of the node, replaced whole, so values
stay right when threads share nodes; but interning takes no lock, and
two threads that build the same structure at once may get two nodes,
which then compare unequal.
"""

from __future__ import annotations

import ast
import math
import operator
import warnings
import weakref
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "ExprParseError",
    "parse",
    "evaluate",
    "Functions",
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
    "post_order",
    "Lowering",
    "MAX_DEPTH",
]


class ExprParseError(ValueError):
    """Raised on a malformed expression; carries the 0-based offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (column {pos + 1})")
        self.message = message
        self.pos = pos


_set = object.__setattr__

# The intern table: (node type, operator, function or value type, key) ->
# a weakref.KeyedRef to the live node. Keys hold no node: a child is
# keyed by its id, which stays its own while the parent, which holds it,
# lives. (Holding children in the keys would keep every node whose memos
# lead back to it alive for good: exp(u) is a factor of its own
# derivative.)
_TABLE = {}


def _forget(ref):
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


def _intern(cls, tag, key, *fields):
    """The live node of cls under tag and key, or a new one with the given
    fields (cls.__slots__, in order), entered into the table only once
    its fields are set."""
    key = (cls, tag, key)
    ref = _TABLE.get(key)
    node = None if ref is None else ref()
    if node is not None:
        return node
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        _set(node, name, value)
    _set(node, "_max_coordinate", fields[0] + 1 if cls is Coord else max(
        (f._max_coordinate for f in fields if isinstance(f, _Node)), default=0))
    _set(node, "_diffs", ())
    _TABLE[key] = weakref.KeyedRef(node, _forget, key)
    return node


class _Node:
    """Base of the node types: interned, immutable, compared by identity.

    Besides its fields a node carries what depends on its structure
    alone: its highest coordinate and the derivatives ``diff`` has taken
    of it.
    """

    __slots__ = ("__weakref__", "_max_coordinate", "_diffs")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Num(_Node):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        return _intern(cls, type(value), float(value).hex(), value)


class Coord(_Node):
    __slots__ = ("axis",)  # zero-based

    def __new__(cls, axis: int):
        return _intern(cls, None, axis, axis)


class Neg(_Node):
    __slots__ = ("arg",)

    def __new__(cls, arg: "Expr"):
        return _intern(cls, None, id(arg), arg)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")  # op is one of + - * /

    def __new__(cls, op: str, left: "Expr", right: "Expr"):
        return _intern(cls, op, id(left) << 64 | id(right), op, left, right)


class Call(_Node):
    __slots__ = ("fn", "arg")  # fn is sin | cos | exp

    def __new__(cls, fn: str, arg: "Expr"):
        return _intern(cls, fn, id(arg), fn, arg)


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

_OPERATOR_NODES = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# the most operations parse nests one in another. Lowering, diff and the
# zero test walk a tree with their own stack (post_order), but parse's
# converter recurses once per level, as Python's parser does
MAX_DEPTH = 100
_TOO_DEEP = f"operations nested more than {MAX_DEPTH} deep"


def parse(text: str) -> Expr:
    """Parse an expression string; raises ExprParseError with a position.

    Python's parser reads the text; what the grammar writes is converted,
    anything else raises at its node. Any whitespace separates tokens, a
    line break too; '#' (a comment to Python) and ',' are rejected first.
    An operation nested in MAX_DEPTH others, such as the last '+' of a
    sum of 102 terms, raises at its node, and so does Python's parser at a
    depth it cannot read.
    """
    source = (text if text.isprintable()  # no whitespace but ' '
              else "".join(" " if c.isspace() else c for c in text)).lstrip()
    if not source:
        raise ExprParseError("empty expression", 0)
    lead = len(text) - len(source)
    hidden = [text.index(c) for c in "#,\0" if c in text]
    if hidden:
        raise ExprParseError(f"unexpected character {text[min(hidden)]!r}", min(hidden))
    try:
        with warnings.catch_warnings():  # 1in(x1) warns, then fails: fail at once
            warnings.simplefilter("error")
            tree = ast.parse(source, mode="eval")
    except (RecursionError, MemoryError):  # Python's parser gives up on depth
        raise ExprParseError(_TOO_DEEP, lead) from None
    except SyntaxError as e:
        if not e.offset:  # where Python runs out of text
            raise ExprParseError("unexpected end of expression", len(text)) from None
        message = ("unclosed parenthesis opened here"
                   if e.msg == "'(' was never closed" else e.msg)
        raise ExprParseError(message, lead + e.offset - 1) from None
    data = source.encode()  # Python's columns count UTF-8 bytes

    def fail(message, node):
        raise ExprParseError(message, lead + len(data[:node.col_offset].decode()))

    def convert(node, depth):
        """node as an expression; depth operations enclose it."""
        kind = type(node)
        if depth == MAX_DEPTH and kind in (ast.BinOp, ast.UnaryOp, ast.Call):
            fail(_TOO_DEEP, node)
        if kind is ast.BinOp and type(node.op) in _OPERATOR_NODES:
            return BinOp(_OPERATOR_NODES[type(node.op)], convert(node.left, depth + 1),
                         convert(node.right, depth + 1))
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            return Neg(convert(node.operand, depth + 1))
        # as written: Python reads ｘ1 as x1, and (sin)(x1) as a call of sin
        name = data[node.col_offset:node.end_col_offset].decode()
        if kind is ast.Constant and type(node.value) in (int, float) \
                and set(name) <= set("0123456789.eE+-"):  # not 1_0, 0x1f or 2j
            return Num(float(name))
        if kind is ast.Name and name == "pi":
            return Num(math.pi)
        if kind is ast.Name and name[:1] == "x" and name[1:].isdecimal():
            if int(name[1:]) < 1:
                fail("coordinates start at x1", node)
            return Coord(int(name[1:]) - 1)
        if kind is ast.Name:
            fail(f"expected '(' after {name!r}" if name in _FUNCTIONS
                 else f"unknown identifier {name!r}", node)
        if kind is ast.Call and type(node.func) is ast.Name \
                and node.func.id in _FUNCTIONS and name.startswith(node.func.id):
            if len(node.args) != 1 or node.keywords:
                fail(f"{node.func.id} takes one argument", node)
            return Call(node.func.id, convert(node.args[0], depth + 1))
        fail(f"not in the expression grammar: {name!r}", node)

    return convert(tree.body, 0)


# ---------------------------------------------------------------------------
# lowering to straight-line numpy code

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
_APPLY = {**_OPERATORS, "neg": operator.neg, **_FUNCTIONS}


def _operation(node):
    """(operator, operands) of a node; (None, ()) for a leaf."""
    if isinstance(node, (Num, Coord)):
        return None, ()
    if isinstance(node, Neg):
        return "neg", (node.arg,)
    if isinstance(node, BinOp) and node.op in _OPERATORS:
        return node.op, (node.left, node.right)
    if isinstance(node, Call) and node.fn in _FUNCTIONS:
        return node.fn, (node.arg,)
    raise TypeError(f"not an expression node: {node!r}")


def post_order(node, done, finish):
    """Calls finish(n) on node and on each node below it that is not
    done(n), each after its operands. The tree is walked with a stack of
    the nodes still to finish, not by recursion, so its depth meets no
    recursion limit; a node shared by several parents is finished once."""
    stack = [node]
    while stack:
        top = stack[-1]
        if done(top):
            stack.pop()
            continue
        pending = [a for a in _operation(top)[1] if not done(a)]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        finish(top)


class Lowering:
    """Straight-line numpy code for several expressions at once.

    ``emit(node, inputs)`` appends the operations that compute node, with
    coordinate x_{i+1} read from the variable inputs[i], and returns the
    name that holds the value. A node is lowered once per Lowering and
    set of inputs, across all ``emit`` calls: the Lowering keeps, per
    inputs, the name each node was lowered to, so a node that an earlier
    expression, or the same tree elsewhere, has emitted is found without
    walking it, and emitting costs time linear in the number of nodes
    not yet lowered. (Nodes are interned, so fields, their components
    and their derivatives share nodes, and work.) The Lowering holds the
    nodes it has lowered for as long as it lives. Constant subtrees are
    folded to values when they are lowered, by the same operations on
    Python floats (and on the numpy scalars that sin, cos and exp
    return), so a constant 1/0 raises ZeroDivisionError in ``emit``.
    Folding can make different nodes compute the same operation
    ((2*pi)*x1 and (pi*2)*x1, say), so each operation is also keyed on
    its operator and operand names and emitted once.

    The code has two back ends. ``run`` executes the operations
    directly, for code that runs once or a few times (a residual pass
    over a test basis): it compiles nothing and keeps each temporary
    only until its last use. For code that runs many times (a Heun
    step), ``heun`` renders ``code`` as Python source, built from the
    tree's node types, operators and function names only, never from
    expression text, either as statements on Python floats or as ufunc
    calls into arrays allocated once, and compiles it with
    ``namespace``, which maps every emitted constant and function name
    to its value. Emitted names are v<n> (temporaries), k<n> (constants)
    and the function names; callers name their own variables otherwise.
    """

    def __init__(self):
        self.code = []  # (operator, *operand names); code[n] computes v<n>
        self.namespace = dict(_FUNCTIONS)
        self._names = {}  # operation or constant key -> name
        self._values = {}  # constant name -> value as folded
        self._lowered = {}  # inputs -> {node: the name it was lowered to}

    def emit(self, node: Expr, inputs) -> str:
        inputs = tuple(inputs)
        names = self._lowered.setdefault(inputs, {})

        def lower(n):  # each operand not yet lowered first (post_order)
            op, args = _operation(n)
            names[n] = self._lower(n, op, [names[a] for a in args], inputs)

        post_order(node, names.__contains__, lower)
        return names[node]

    def _lower(self, node, op, operands, inputs):
        if isinstance(node, Num):
            return self._constant(node.value)
        if isinstance(node, Coord):
            if node.axis >= len(inputs):
                raise ValueError(f"expression references x{node.axis + 1} but "
                                 f"points have dimension {len(inputs)}")
            return inputs[node.axis]
        key = (op, *operands)
        if all(n in self._values for n in operands):
            # numpy's exp(1000) is inf, as an evaluation gives, without a
            # warning; a Python float's 1/0 still raises
            with np.errstate(all="ignore"):
                value = _APPLY[op](*(self._values[n] for n in operands))
            return self._constant(value)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"v{len(self.code)}"
            self.code.append(key)
        return name

    def _constant(self, value):
        # the type is part of the key: a Python float and a numpy float
        # divide by zero differently
        key = (type(value), float(value).hex())
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"k{len(self.namespace)}"
            self.namespace[name] = float(value)
            self._values[name] = value
        return name

    def constant_value(self, name: str):
        """The value that name was folded to, or None when name is not an
        emitted constant."""
        return self._values.get(name)

    def run(self, results, env, reduce, shape) -> list:
        """[reduce(value of name) for name in results], by executing the
        emitted code on env (input name -> array of shape ``shape``).

        Each value is reduced as soon as it is computed, and each
        temporary is dropped after its last use. A constant result is
        reduced as np.full(shape, value).
        """
        last = self._last_reads()
        wanted = dict.fromkeys(results)
        values = dict(env, **self.namespace)
        for name in wanted:
            if name in self._values:
                wanted[name] = reduce(np.full(shape, self.namespace[name]))
            elif name in env:
                wanted[name] = reduce(env[name])
        for n, (op, *args) in enumerate(self.code):
            name = f"v{n}"
            value = _APPLY[op](*[values[a] for a in args])
            if name in wanted:
                wanted[name] = reduce(value)
            if name in last:
                values[name] = value
            for a in args:
                if last[a] == n:
                    values.pop(a, None)
            del value
        return [wanted[name] for name in results]

    def peak_arrays(self) -> int:
        """The most computed values that ``run`` holds at once, each an
        array of the points' shape: one operation's value and the earlier
        ones still to be read, or the np.full of a constant result."""
        last = self._last_reads()
        live, peak = set(), 1
        for n, (_, *args) in enumerate(self.code):
            peak = max(peak, len(live) + 1)
            if f"v{n}" in last:
                live.add(f"v{n}")
            live -= {a for a in args if last[a] == n}
        return peak

    def _last_reads(self) -> dict:
        """name -> the index of the last operation that reads it."""
        return {a: n for n, (_, *args) in enumerate(self.code) for a in args}


class Functions:
    """Scalar fields evaluated together on point arrays (..., dim).

    The expressions are lowered into one ``Lowering``, so subexpressions
    they share (the cos/sin factors of a trig basis, say) are computed
    once per point array. Functions may be given as an iterator, each
    expression lowered as it arrives; the Lowering holds every node it
    has lowered, so the trees live as long as the Functions does.
    """

    def __init__(self, functions, dim: int):
        self._low = Lowering()
        inputs = [f"x{i}" for i in range(dim)]
        self._names = [self._low.emit(f, inputs) for f in functions]

    def __len__(self):
        return len(self._names)

    @property
    def peak_arrays(self) -> int:
        """The most arrays of the points' shape that reduce holds at once."""
        return self._low.peak_arrays()

    def reduce(self, pts, reduce) -> list:
        """[reduce(f(pts)) for each function f], each value reduced, and
        its temporaries dropped, as soon as it is computed."""
        env = {f"x{i}": pts[..., i] for i in range(pts.shape[-1])}
        return self._low.run(self._names, env, reduce, pts.shape[:-1])


def evaluate(node: Expr, pts) -> np.ndarray:
    """Evaluate at points of shape (..., dim); returns shape (...,).

    The batch of one expression in ``Functions``: each distinct node is
    computed once, however often the tree refers to it.
    """
    pts = np.asarray(pts, dtype=float)
    out, = Functions([node], pts.shape[-1]).reduce(
        pts, lambda v: np.asarray(v, dtype=float))
    return out


# ---------------------------------------------------------------------------
# symbolic differentiation

def diff(node: Expr, axis: int) -> Expr:
    """d(node)/d x_{axis+1}; memoized on the node, so a subtree shared by
    several parents is differentiated once, and walked by ``post_order``,
    each node after its operands."""
    if not isinstance(node, _Node):
        raise TypeError(f"not an expression node: {node!r}")

    def remember(n):
        memo = n._diffs + (None,) * (axis + 1 - len(n._diffs))
        _set(n, "_diffs", memo[:axis] + (_derivative(n, axis),) + memo[axis + 1:])

    post_order(node, lambda n: axis < len(n._diffs) and n._diffs[axis] is not None,
               remember)
    return node._diffs[axis]


def _derivative(node, axis):
    """d(node)/d x_{axis+1}, its operands' derivatives being in their memos."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Coord):
        return Num(1.0 if node.axis == axis else 0.0)
    if isinstance(node, Neg):
        return neg(node.arg._diffs[axis])
    if isinstance(node, BinOp):
        da, db = node.left._diffs[axis], node.right._diffs[axis]
        if node.op == "+":
            return add(da, db)
        if node.op == "-":
            return sub(da, db)
        if node.op == "*":
            return add(mul(da, node.right), mul(node.left, db))
        num = sub(mul(da, node.right), mul(node.left, db))
        return div(num, mul(node.right, node.right))
    du = node.arg._diffs[axis]  # a Call: _operation admits no other node
    if node.fn == "sin":
        outer = call("cos", node.arg)
    elif node.fn == "cos":
        outer = neg(call("sin", node.arg))
    else:
        outer = node
    return mul(outer, du)


def max_coordinate(node: Expr) -> int:
    """Highest coordinate index used, 1-based (0 when constant)."""
    if not isinstance(node, _Node):
        raise TypeError(f"not an expression node: {node!r}")
    return node._max_coordinate


def is_constant(node: Expr) -> bool:
    return max_coordinate(node) == 0
