"""Sparse polynomial arithmetic with exact coefficients.

A polynomial is a dict mapping exponent tuples to nonzero coefficients,
Python ints or Fractions; exponents may be negative (Laurent polynomials),
and a key may be any tuple whose entries add.  ``p_add_into`` and ``p_mul``
are the package's one add-into/multiply pair for such dicts: the enveloping
algebra, the character layer and the branching oracle all go through them.
"""
from __future__ import annotations

from operator import add


def p_add_into(target, src, scale=1) -> None:
    """target += scale * src, in place, dropping zero coefficients.  With the
    default scale the terms are added without a multiplication."""
    plain = scale == 1
    for e, c in src.items():
        v = target.get(e, 0) + (c if plain else scale * c)
        if v:
            target[e] = v
        else:
            target.pop(e, None)


def p_mul(a, b):
    """Product of two polynomials."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out
