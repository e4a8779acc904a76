"""Exact proofs about expressions: the zero test.

``sde`` asks it which fields are divergence-free, and ``currents`` which
coefficients of a residual contraction vanish. Neither runs while an
experiment is set up, so no set-up compiles this module, and only a
test that has to expand a tree imports ``fractions``.
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


# node -> the answer of is_identically_zero
_ZERO_TESTS = weakref.WeakKeyDictionary()


def is_identically_zero(node: Expr) -> bool:
    """True only when node is zero as a function wherever it is defined;
    sound, not complete; memoized on the node.

    The expression is expanded into a polynomial with exact rational
    coefficients (every float constant is the rational it stores) over
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
    from fractions import Fraction

    def add(p, q):
        out = dict(p)
        for mono, c in q.items():
            c = out.get(mono, 0) + c
            if c:
                out[mono] = c
            else:
                del out[mono]
        if len(out) > _MAX_ZERO_TEST_TERMS:
            raise _Undecided
        return out

    def mul(p, q):
        if len(p) * len(q) > _MAX_ZERO_TEST_TERMS:
            raise _Undecided
        out = {}
        for mp, cp in p.items():
            for mq, cq in q.items():
                powers = dict(mp)
                for a, k in mq:
                    powers[a] = powers.get(a, 0) + k
                mono = frozenset(powers.items())
                c = out.get(mono, 0) + cp * cq
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return out

    def atom(key):
        return {frozenset({(key, 1)}): Fraction(1)}

    def expand(n):  # n's polynomial, those of its operands being in seen
        if isinstance(n, Num):
            if not math.isfinite(n.value):
                raise _Undecided
            return {frozenset(): Fraction(n.value)} if n.value else {}
        if isinstance(n, Coord):
            return atom(("x", n.axis))
        if isinstance(n, Neg):
            return {mono: -c for mono, c in seen[n.arg].items()}
        if isinstance(n, Call):
            return atom((n.fn, frozenset(seen[n.arg].items())))
        a, b = seen[n.left], seen[n.right]  # a BinOp
        if n.op == "+":
            return add(a, b)
        if n.op == "-":
            return add(a, {mono: -c for mono, c in b.items()})
        if n.op == "*":
            return mul(a, b)
        if not b:
            raise _Undecided  # division by zero
        if set(b) == {frozenset()}:
            return mul(a, {frozenset(): 1 / b[frozenset()]})
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
