import gc
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from example_systems import hamiltonian_torus_system
from oracles import recursive_diff, to_str, walk
from stochflow import expr, heun
from stochflow.manifold import apply_field, make_test_basis


def ev(text, *coords):
    return float(expr.evaluate(expr.parse(text), np.array(coords)))


def test_numbers_and_pi():
    assert ev("2", 0.0) == 2.0
    assert ev("2.5e-1", 0.0) == 0.25
    assert ev(".5", 0.0) == 0.5
    assert ev("pi", 0.0) == math.pi


def test_precedence_and_unary_minus():
    assert ev("1 + 2 * 3", 0.0) == 7.0
    assert ev("(1 + 2) * 3", 0.0) == 9.0
    assert ev("2 - 3 - 4", 0.0) == -5.0
    assert ev("12 / 3 / 2", 0.0) == 2.0
    assert ev("-2 * 3", 0.0) == -6.0
    assert ev("--2", 0.0) == 2.0
    assert ev("2 * -3", 0.0) == -6.0


def test_coordinates_and_functions():
    assert ev("x1", 0.3, 0.7) == 0.3
    assert ev("x2", 0.3, 0.7) == 0.7
    assert ev("sin(pi / 2)", 0.0) == pytest.approx(1.0)
    assert ev("cos(0)", 0.0) == 1.0
    assert ev("exp(1)", 0.0) == pytest.approx(math.e)
    assert ev("sin(2 * pi * x1)", 0.25) == pytest.approx(1.0)


def test_vectorized_evaluation_shapes():
    node = expr.parse("x1 * x2")
    pts = np.random.rand(5, 7, 2)
    out = expr.evaluate(node, pts)
    assert out.shape == (5, 7)
    np.testing.assert_allclose(out, pts[..., 0] * pts[..., 1])
    const = expr.parse("3.5")
    assert expr.evaluate(const, pts).shape == (5, 7)


@pytest.mark.parametrize("bad,column", [
    ("sin(2*pi*x1", 4),       # points at the unclosed '('
    ("1 +", 4),
    ("foo", 1),
    ("x", 1),
    ("x0", 1),                # coordinates start at x1
    ("1 2", 3),
    ("", 1),
    ("sin 2", 5),
    ("(1 + 2", 1),
    # Python reads these; the grammar has none of them, so each is
    # reported at the node, or at the character it begins with
    ("x1 ** 2", 1),
    ("1 + x1 ** 2", 5),
    ("x1 % 2", 1),
    ("x1 // 2", 1),
    ("+x1", 1),
    ("not x1", 1),
    ("x1 < 2", 1),
    ("sin(x1, x2)", 7),
    ("sin(x1,)", 7),
    ("sin(x=1)", 1),
    ("2*sin()", 3),
    ("(sin)(x1)", 1),
    ("\uff53in(x1)", 1),       # a fullwidth s
    ("1_0", 1),
    ("0x1f", 1),
    ("2j", 1),
    ("'a'", 1),
    ("True", 1),
    ("x1 # c", 4),            # not a comment
    ("x1.real", 1),
    ("x1[0]", 1),
    ("(x1, x2)", 4),
    ("\uff581", 1),            # a fullwidth x, which Python reads as x
    ("x\u0661 + x0", 6),       # columns count characters, not UTF-8 bytes
    ("x\u0661 + (1", 6),
    ("01", 1),                # Python has no leading-zero integers
])
def test_parse_errors_carry_position(bad, column):
    with pytest.raises(expr.ExprParseError) as e:
        expr.parse(bad)
    assert e.value.pos + 1 == column



def nested(depth: int) -> str:
    """An expression whose deepest operation has depth operations above it:
    a sum of depth + 2 terms, nested to the left."""
    return "+".join(["x1"] * (depth + 2))


def test_parse_reads_operations_nested_up_to_max_depth():
    for text in (nested(expr.MAX_DEPTH - 1),
                 "-" * expr.MAX_DEPTH + "x1",
                 "sin(" * expr.MAX_DEPTH + "x1" + ")" * expr.MAX_DEPTH):
        assert expr.parse(text) is not None
    # at the operation nested in MAX_DEPTH others, or where the text
    # starts when Python's own parser gives up
    for text, column in ((nested(expr.MAX_DEPTH), 1),
                         ("  " + nested(5000), 3),
                         ("  " + "-" * 5000 + "x1", 3),
                         ("1 + " + "-" * (expr.MAX_DEPTH + 1) + "x1",
                          4 + expr.MAX_DEPTH)):
        with pytest.raises(expr.ExprParseError,
                           match=f"nested more than {expr.MAX_DEPTH} deep") as e:
            expr.parse(text)
        assert e.value.pos + 1 == column


def test_lowering_walks_a_tree_of_any_depth():
    # the lowering keeps its own stack, so a tree built deeper than
    # Python's recursion limit, and deeper than parse reads, evaluates
    node = expr.coordinate(0)
    for k in range(5000):
        node = expr.add(node, expr.constant(float(k % 3)))
    assert expr.evaluate(node, np.array([[0.5], [1.0]])).tolist() == [
        0.5 + 4999, 1.0 + 4999]

def test_diff_and_the_zero_test_walk_a_tree_of_any_depth():
    # 1000 products of sin(x1), built with the smart constructors, nest
    # deeper than Python's recursion limit lets a recursive walk go
    s = expr.call("sin", expr.coordinate(0))
    left = right = s
    for _ in range(1000):
        left, right = expr.mul(left, s), expr.mul(s, right)
    x = 1.5  # d/dx sin(x)^1001 = 1001 sin(x)^1000 cos(x)
    want = 1001 * math.sin(x) ** 1000 * math.cos(x)
    assert float(expr.evaluate(expr.diff(left, 0), np.array([x]))) == pytest.approx(
        want, rel=1e-10)
    assert expr.diff(left, 0) is expr.diff(left, 0)
    assert not expr.is_identically_zero(left)
    assert expr.is_identically_zero(expr.sub(left, right))


def test_derivative_basics():
    node = expr.parse("sin(2*pi*x1)")
    d = expr.diff(node, 0)
    x = np.array([0.1])
    assert expr.evaluate(d, x)[()] == pytest.approx(2 * math.pi * math.cos(2 * math.pi * 0.1))
    assert expr.evaluate(expr.diff(node, 1), np.array([0.1, 0.5]))[()] == 0.0


def test_derivative_quotient_and_exp():
    # d/dx [exp(x)/x] = exp(x)(x-1)/x^2
    node = expr.parse("exp(x1) / x1")
    d = expr.diff(node, 0)
    for x in (0.5, 1.0, 2.3):
        want = math.exp(x) * (x - 1) / x**2
        assert float(expr.evaluate(d, np.array([x]))) == pytest.approx(want)


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_derivative_matches_finite_differences(a, b):
    node = expr.parse("sin(2*pi*x1)*cos(x2) + exp(x1*x2/10)")
    h = 1e-6
    pt = np.array([a, b])
    for axis in (0, 1):
        e = np.zeros(2)
        e[axis] = h
        fd = (expr.evaluate(node, pt + e) - expr.evaluate(node, pt - e)) / (2 * h)
        an = expr.evaluate(expr.diff(node, axis), pt)
        assert abs(float(fd) - float(an)) < 1e-6 * (1 + abs(float(an)))


def test_max_coordinate_and_constants():
    assert expr.max_coordinate(expr.parse("sin(x3) + x1")) == 3
    assert expr.max_coordinate(expr.parse("2 * pi")) == 0
    assert expr.is_constant(expr.parse("1 + 2"))
    assert not expr.is_constant(expr.parse("x1"))


# ---------------------------------------------------------------------------
# interning and memos

def test_equal_structure_is_one_node():
    assert expr.parse("sin(2*pi*x1)*x2") is expr.parse("sin(2*pi*x1) * x2")
    assert expr.BinOp("+", expr.Coord(0), expr.Num(1.0)) is expr.parse("x1 + 1")
    assert expr.parse("x1 + 1") is not expr.parse("1 + x1")
    assert expr.parse("x1 + 1") == expr.parse("(x1) + 1.0")
    assert expr.parse("x1 + 1") != expr.parse("x1 + 2")


def test_signed_zeros_are_two_constants():
    assert expr.constant(0.0) is not expr.constant(-0.0)
    assert expr.Num(0.0) != expr.Num(-0.0)
    assert expr.constant(-0.0) is expr.neg(expr.constant(0.0))


def test_nodes_are_immutable_and_survive_a_copy():
    import copy
    import pickle
    e = expr.parse("exp(-x1) / (2 + cos(x2))")
    with pytest.raises(AttributeError):
        e.op = "*"
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_derivatives_are_memoized():
    e = expr.parse("sin(2*pi*x1) * cos(x1*x2) / (2 + x2)")
    d = expr.diff(e, 0)
    assert expr.diff(e, 0) is d
    assert expr.diff(e, 1) is not d
    assert expr.diff(expr.parse("sin(2*pi*x1) * cos(x1*x2) / (2 + x2)"), 0) is d


def live_nodes():
    return sum(len(t) for tables in expr._TABLES.values() for t in tables.values())


def test_intern_table_shrinks_back():
    # diff memoizes 0 and 1 on the leaves it derives, and a leaf may live
    # for the process (manifold's default density is the constant 1), so
    # whether 0 and 1 outlive this test depends on the tests before it:
    # held here, they are counted before and after alike
    zero_and_one = expr.constant(0.0), expr.constant(1.0)
    gc.collect()
    before = live_nodes()
    nodes = [expr.parse(f"sin({k}*x1) * exp(x2 / {k + 1}) + {k}") for k in range(50)]
    nodes += [expr.diff(expr.diff(n, 0), 1) for n in nodes]
    assert live_nodes() > before + 500
    del nodes
    gc.collect()
    assert live_nodes() == before


def test_hamiltonian_generator_terms_differentiate_each_node_once():
    # X_i(X_i f_k) over the 49 functions of basis_k 3: 10,808 diff calls
    # when shared subtrees were rebuilt and differentiated again
    calls = []
    derivative = expr._derivative

    def counted(node, axis):
        calls.append((node, axis))
        return derivative(node, axis)

    sys = hamiltonian_torus_system()
    m = sys.manifold
    basis = make_test_basis(m, 3)
    expr._derivative = counted
    try:
        terms = [apply_field(m, X, apply_field(m, X, f))
                 for f in basis.functions for X in sys.diffusions]
    finally:
        expr._derivative = derivative
    assert len(terms) == 98
    assert len(calls) == len(set(calls))
    assert len(calls) <= 1000


# ---------------------------------------------------------------------------
# lowering

def lowered(nodes, pts):
    """Each node's values on pts through Lowering.run, reduced by identity."""
    low = expr.Lowering()
    inputs = [f"x{i}" for i in range(pts.shape[-1])]
    names = [low.emit(node, inputs) for node in nodes]
    env = {name: pts[..., i] for i, name in enumerate(inputs)}
    return low.run(names, env, lambda v: v, pts.shape[:-1])


def buffered(nodes, pts):
    """Each node's values on pts through the buffered ufunc calls, each
    copied (times 1.0, which is exact) into a row of the result, and the
    number of buffers used."""
    low = expr.Lowering()
    inputs = [f"x{i}" for i in range(pts.shape[-1])]
    names = [low.emit(node, inputs) for node in nodes]
    head, lines = heun._buffered(low, [
        *((op, *args, f"v{n}") for n, (op, *args) in enumerate(low.code)),
        *(("*", name, "1.0", f"out[{i}, ...]") for i, name in enumerate(names))])
    source = (f"def values(out, {', '.join(inputs)}):\n    lead = out.shape[1:]\n"
              + "".join(f"    {line}\n" for line in head + lines))
    out = np.empty((len(nodes),) + pts.shape[:-1])
    heun._define(low, source, "values")(out, *np.moveaxis(pts, -1, 0))
    return out, sum(line.startswith("u") for line in head), len(low.code)


def test_lowering_runs_what_evaluate_computes():
    texts = ["sin(2*pi*x1)*cos(2*pi*x2)", "-x1/(1 + x2) + 2*3", "x2",
             "1/sin(0*x1) + x1", "exp(-sin(2*pi*x1)) - exp(-sin(2*pi*x1))",
             "3.5", "(x1 - 0) * (x1 - 0) * -(2*pi)",
             # sin(0) is a numpy zero, which divides to inf where the
             # Python zero beside it would raise
             "1/sin(0) + 0*x1"]
    nodes = [expr.parse(t) for t in texts]
    pts = np.random.default_rng(0).uniform(-1, 1, size=(4, 3, 2))
    with np.errstate(divide="ignore"):
        got = lowered(nodes, pts)
        in_buffers, n_buffers, n_temporaries = buffered(nodes, pts)
        for node, vals, buffered_vals in zip(nodes, got, in_buffers):
            want = walk(node, pts)
            np.testing.assert_array_equal(vals, want)
            np.testing.assert_array_equal(buffered_vals, want)
            np.testing.assert_array_equal(expr.evaluate(node, pts), want)
    # the buffers of dead temporaries are reused
    assert n_buffers < n_temporaries


def test_lowering_shares_operations_across_expressions():
    low = expr.Lowering()
    a = low.emit(expr.parse("sin(2*pi*x1) * x2"), ["p", "q"])
    b = low.emit(expr.parse("x2 * sin((pi*2)*x1)"), ["p", "q"])
    # (2*pi)*x1 with 2*pi folded, its sin, and the two products
    assert len(low.code) == 4
    assert a != b
    assert low.emit(expr.parse("sin(2*pi*x1) * x2"), ["p", "q"]) == a
    assert len(low.code) == 4
    # other inputs are other values
    assert low.emit(expr.parse("sin(2*pi*x1) * x2"), ["q", "p"]) != a


def test_lowering_cost_is_linear_in_distinct_nodes():
    # 2**60 root-to-leaf paths, 61 distinct nodes: walking the tree, or
    # hashing it as a value, would not finish
    node = expr.coordinate(0)
    for _ in range(60):
        node = expr.BinOp("+", node, node)
    low = expr.Lowering()
    (vals,) = lowered([node], np.array([[1.0], [0.5]]))
    np.testing.assert_array_equal(vals, [2.0 ** 60, 2.0 ** 59])
    low.emit(node, ["x0"])
    assert len(low.code) == 60


def test_evaluate_cost_is_linear_in_distinct_nodes(monkeypatch):
    def doubled(n):
        node = expr.coordinate(0)
        for _ in range(n):
            node = expr.BinOp("+", node, node)
        return node

    visited = []
    lower = expr.Lowering._lower
    monkeypatch.setattr(expr.Lowering, "_lower", lambda self, node, *rest:
                        visited.append(node) or lower(self, node, *rest))
    expr.evaluate(doubled(10), np.array([[1.0]]))
    assert len(visited) == 11
    # 2**60 root-to-leaf paths, 61 distinct nodes, as above
    np.testing.assert_array_equal(expr.evaluate(doubled(60), np.array([[1.0], [0.5]])),
                                  [2.0 ** 60, 2.0 ** 59])


# Trees over x1, x2 and x3, evaluated on points of dimension 2, so x3 is
# beyond it; the constants include both zeros, infinities and exp's
# overflow point, and subtrees are shared
_RAW_LEAVES = st.one_of(
    st.sampled_from([0, 1, 0, 1, 2]).map(expr.Coord),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 710.0, math.inf, -math.inf]).map(expr.Num),
    st.floats(-3, 3).map(expr.Num),
)


def _raw_extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: expr.BinOp(*t)),
        st.tuples(st.sampled_from("+-*/"), children).map(
            lambda t: expr.BinOp(t[0], t[1], t[1])),
        st.tuples(st.sampled_from("+*"), children, children).map(
            lambda t: expr.BinOp(t[0], t[1], expr.BinOp("-", t[2], t[1]))),
        children.map(expr.Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
            lambda t: expr.Call(*t)),
    )


RAW_EXPRESSIONS = st.recursive(_RAW_LEAVES, _raw_extend, max_leaves=8)
# Trees the grammar can write: its constants are finite and not negative
# (it writes -1 as Neg(1))
WRITTEN_EXPRESSIONS = st.recursive(st.one_of(
    st.integers(0, 2).map(expr.Coord),
    st.just(math.pi).map(expr.Num),
    st.floats(0.0, allow_infinity=False).map(expr.Num),
), _raw_extend, max_leaves=8)
RAW_POINTS = np.array([[0.0, -0.0], [0.5, -1.5], [800.0, -800.0],
                       [1e308, 2.0], [-2.5, 3.0]])


def outcome(f, node, pts):
    """f(node, pts), or the type of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            return f(node, pts)
    except (ArithmeticError, TypeError, ValueError) as e:
        return type(e)


@given(RAW_EXPRESSIONS)
def test_evaluate_matches_the_tree_walker(node):
    want = outcome(walk, node, RAW_POINTS)
    got = outcome(expr.evaluate, node, RAW_POINTS)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want, equal_nan=True)
        # the zeros carry the same sign (a nan's sign is not kept:
        # constants are keyed on float.hex, which has one "nan")
        assert np.array_equal(np.signbit(got) & (got == 0),
                              np.signbit(want) & (want == 0))


@given(WRITTEN_EXPRESSIONS)
def test_roundtrip_through_to_str(node):
    assert expr.parse(to_str(node)) is node


def test_evaluate_raises_what_the_tree_walker_raises():
    pts = np.array([[0.5, 0.25]])
    for text, error in (("1/0 + x1", ZeroDivisionError), ("x1 + x3", ValueError),
                        ("x3 * (1/0)", ValueError), ("(1/0) * x3", ZeroDivisionError)):
        node = expr.parse(text)
        assert outcome(walk, node, pts) is error
        assert outcome(expr.evaluate, node, pts) is error
    for not_a_node in (1.0, "x1", expr.BinOp("+", expr.Coord(0), 2.0)):
        assert outcome(walk, not_a_node, pts) is TypeError
        assert outcome(expr.evaluate, not_a_node, pts) is TypeError


def test_lowering_lowers_each_node_once_across_emits():
    low = expr.Lowering()
    lowered_nodes = []
    lower = low._lower
    low._lower = lambda node, *rest: lowered_nodes.append(node) or lower(node, *rest)
    node = expr.parse("sin(2*pi*x1)*cos(2*pi*x2) + sin(2*pi*x1)*x2")
    name = low.emit(node, ["p", "q"])
    code = list(low.code)
    assert len(lowered_nodes) == len(set(lowered_nodes))
    n_lowered = len(lowered_nodes)
    assert low.emit(node, ["p", "q"]) == name
    assert low.emit(expr.parse("sin(2*pi*x1) * x2"), ["p", "q"]) in {
        f"v{n}" for n in range(len(code))}
    assert low.code == code
    assert len(lowered_nodes) == n_lowered
    # other inputs lower the tree again, to other operations
    assert low.emit(node, ["q", "p"]) != name
    assert len(low.code) > len(code)


def test_lowering_checks_coordinates_against_inputs():
    with pytest.raises(ValueError, match="references x3"):
        expr.Lowering().emit(expr.parse("x1 + x3"), ["a", "b"])


# ---------------------------------------------------------------------------
# exact zero test

def commuted(node):
    """node with the operands of every sum and product swapped."""
    if isinstance(node, expr.BinOp):
        a, b = commuted(node.left), commuted(node.right)
        return expr.BinOp(node.op, *((b, a) if node.op in "+*" else (a, b)))
    if isinstance(node, expr.Neg):
        return expr.Neg(commuted(node.arg))
    if isinstance(node, expr.Call):
        return expr.Call(node.fn, commuted(node.arg))
    return node


def distributed(node):
    """node with a*(b+c) rewritten as a*b + a*c, and (a+b)+c as a+(b+c):
    equal as functions, rounded differently."""
    if isinstance(node, expr.BinOp):
        a, b = distributed(node.left), distributed(node.right)
        if node.op == "*" and isinstance(b, expr.BinOp) and b.op in "+-":
            return expr.BinOp(b.op, expr.BinOp("*", a, b.left),
                              expr.BinOp("*", a, b.right))
        if node.op == "+" and isinstance(a, expr.BinOp) and a.op == "+":
            return expr.BinOp("+", a.left, expr.BinOp("+", a.right, b))
        return expr.BinOp(node.op, a, b)
    if isinstance(node, expr.Neg):
        return expr.Neg(distributed(node.arg))
    if isinstance(node, expr.Call):
        return expr.Call(node.fn, distributed(node.arg))
    return node


# values stay within a few units, so rounding stays far below 1e-12
_LEAVES = st.one_of(
    st.integers(0, 1).map(expr.Coord),
    st.floats(-2, 2, allow_nan=False).map(expr.Num),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: expr.BinOp(*t)),
        children.map(expr.Neg),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(
            lambda t: expr.Call(*t)),
        children.map(lambda c: expr.Call("exp", expr.Call("sin", c))),
        st.tuples(children, children).map(lambda t: expr.BinOp(
            "/", t[0], expr.BinOp("+", expr.Num(2.0), expr.Call("cos", t[1])))),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=6)
POINTS = np.random.default_rng(1).uniform(0.0, 1.0, size=(64, 2))


@given(EXPRESSIONS)
def test_zero_test_is_sound_and_sees_commuted_and_distributed_forms(e):
    for other in (commuted(e), distributed(e), distributed(commuted(e))):
        d = expr.BinOp("-", e, other)
        assert expr.is_identically_zero(d)
        assert np.max(np.abs(expr.evaluate(d, POINTS))) <= 1e-12
    if expr.is_identically_zero(e):
        assert np.max(np.abs(expr.evaluate(e, POINTS))) <= 1e-12


@given(EXPRESSIONS, st.integers(0, 1))
def test_diff_returns_the_node_of_the_recursive_derivative(e, axis):
    # the stack walk builds each derivative with the same constructors,
    # so interning hands back the very node the recursion builds
    assert expr.diff(e, axis) is recursive_diff(e, axis)


def test_zero_test_answers_not_zero_when_it_cannot_tell():
    assert not expr.is_identically_zero(expr.parse("x1"))
    assert not expr.is_identically_zero(expr.parse("1e-300"))
    # true identities it does not use
    assert not expr.is_identically_zero(
        expr.parse("sin(x1)*sin(x1) + cos(x1)*cos(x1) - 1"))
    assert not expr.is_identically_zero(expr.parse("x1*x2/x2 - x1"))
    # undefined or too large to expand
    assert not expr.is_identically_zero(expr.parse("x1/0 - x1/0"))
    assert not expr.is_identically_zero(expr.parse("1e999 - 1e999"))
    def power(base, n):
        node = base
        for _ in range(n - 1):
            node = expr.BinOp("*", node, base)
        return expr.BinOp("-", node, node)
    # 3 terms cubed expand to 10; 5 terms to the 7th to 330, and on the
    # way a product of 210 by 5 terms passes the 1024-term cap
    assert expr.is_identically_zero(power(expr.parse("x1 + x2 + 1"), 3))
    assert not expr.is_identically_zero(power(expr.parse("x1 + x2 + x3 + x4 + 1"), 7))


def test_zero_test_on_quotients_and_constants():
    assert expr.is_identically_zero(expr.parse("x1/(1 + x2) - x1/(x2 + 1)"))
    assert expr.is_identically_zero(expr.parse("x1/4 - 0.25*x1"))
    assert expr.is_identically_zero(expr.parse("2*pi*x1 - x1*pi*2"))
    assert expr.is_identically_zero(expr.parse("exp(x1 - x2) - exp(-x2 + x1)"))
    assert not expr.is_identically_zero(expr.parse("x1/3 - 0.3333333333333333*x1"))
