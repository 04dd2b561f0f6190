"""Sparse polynomial arithmetic with exact coefficients.

A polynomial is a dict mapping exponent tuples to nonzero coefficients,
Python ints or Fractions (or ``linalg.Gi`` values, which mix with both);
exponents may be negative (Laurent polynomials).  ``p_add_into`` is the
package's one sparse accumulate, for any hashable keys: the enveloping
algebra, the character layer and the branching oracle go through it, and so
do the sparse vectors and columns of ``linalg`` and the matrix models built on
them.  ``p_mul`` is its one multiply, on keys that add: exponent tuples packed
into ints (``characters._pack``), as the h-determinant uses it.
"""
from __future__ import annotations


def p_add_into(target, src, scale=1) -> None:
    """target += scale * src, in place, dropping zero coefficients.  A scale
    of exactly 1 or -1 adds or subtracts the terms without a multiplication,
    and a zero scale leaves target as it is."""
    if not scale:
        return
    sign = scale if scale == 1 or scale == -1 else 0
    for e, c in src.items():
        if sign == 1:
            v = target.get(e, 0) + c
        elif sign:
            v = target.get(e, 0) - c
        else:
            v = target.get(e, 0) + scale * c
        if v:
            target[e] = v
        else:
            target.pop(e, None)


def p_mul(a, b):
    """Product of two polynomials."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out
