"""Exact proofs about expressions: the zero test.

``sde`` asks it which fields are divergence-free, and ``currents`` which
coefficients of a residual contraction vanish. Neither runs while an
experiment is set up, so no set-up compiles this module.
"""

from __future__ import annotations

import math
import weakref

from .expr import Call, Coord, Expr, Neg, Num, post_order

__all__ = ["is_identically_zero"]

# a sum or product with more terms is answered "not zero"
_MAX_ZERO_TEST_TERMS = 1024


class _Undecided(Exception):
    pass


def _ratio(n: int, d: int) -> tuple:
    """n/d as (numerator, denominator) in lowest terms, d > 0."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return n // g, d // g


# node -> the answer of is_identically_zero
_ZERO_TESTS = weakref.WeakKeyDictionary()


def is_identically_zero(node: Expr) -> bool:
    """True only when node is zero as a function wherever it is defined;
    sound, not complete; memoized on the node.

    The expression is expanded into a polynomial with exact rational
    coefficients, each a reduced (numerator, denominator) pair of ints
    (every float constant is the rational it stores) over
    atoms: the coordinates, sin, cos and exp of a canonical argument, and
    reciprocals of non-constant denominators. node is zero when every
    coefficient cancels. Identities between atoms, such as
    sin^2 + cos^2 = 1, are not used, and a sum or product with more than
    1024 terms, a non-finite constant or a division by zero answers
    False, so False means "not shown to be zero". (Deciding zero for this
    class of expressions is undecidable in general: Richardson, 1968.)
    A constant or a coordinate is answered without expanding it.
    """
    if isinstance(node, Num):
        return node.value == 0.0  # False for a non-finite constant
    if isinstance(node, Coord):
        return False

    def put(out, mono, n, d):  # out[mono] += n/d, dropping a zero sum
        if mono in out:
            m, e = out[mono]
            n, d = m * d + n * e, e * d
        if n:
            out[mono] = _ratio(n, d)
        else:
            del out[mono]

    def add(p, q):
        out = dict(p)
        for mono, (n, d) in q.items():
            put(out, mono, n, d)
        if len(out) > _MAX_ZERO_TEST_TERMS:
            raise _Undecided
        return out

    def mul(p, q):
        if len(p) * len(q) > _MAX_ZERO_TEST_TERMS:
            raise _Undecided
        out = {}
        for mp, (n, d) in p.items():
            for mq, (m, e) in q.items():
                powers = dict(mp)
                for a, k in mq:
                    powers[a] = powers.get(a, 0) + k
                put(out, frozenset(powers.items()), n * m, d * e)
        return out

    def neg(p):
        return {mono: (-n, d) for mono, (n, d) in p.items()}

    def atom(key):
        return {frozenset({(key, 1)}): (1, 1)}

    def expand(n):  # n's polynomial, those of its operands being in seen
        if isinstance(n, Num):
            if not math.isfinite(n.value):
                raise _Undecided
            return {frozenset(): float(n.value).as_integer_ratio()} if n.value else {}
        if isinstance(n, Coord):
            return atom(("x", n.axis))
        if isinstance(n, Neg):
            return neg(seen[n.arg])
        if isinstance(n, Call):
            return atom((n.fn, frozenset(seen[n.arg].items())))
        a, b = seen[n.left], seen[n.right]  # a BinOp
        if n.op == "+":
            return add(a, b)
        if n.op == "-":
            return add(a, neg(b))
        if n.op == "*":
            return mul(a, b)
        if not b:
            raise _Undecided  # division by zero
        if set(b) == {frozenset()}:  # times the reciprocal constant
            m, e = b[frozenset()]
            return mul(a, {frozenset(): _ratio(e, m)})
        return mul(a, atom(("/", frozenset(b.items()))))

    seen = {}
    known = _ZERO_TESTS.get(node)
    if known is None:
        try:
            post_order(node, seen.__contains__, lambda n: seen.__setitem__(n, expand(n)))
            known = not seen[node]
        except _Undecided:
            known = False
        _ZERO_TESTS[node] = known
    return known
