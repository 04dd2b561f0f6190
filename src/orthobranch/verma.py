"""Fusion multiplicities for tensor products of sl(2) highest-weight modules.

For highest weights ``a`` and ``b``, the tensor product of the two cyclic
modules freely generated over the lowering operator carries, in each weight
``c = a + b - 2k`` (``k`` a non-negative integer), a space of dimension
``k + 1``; the dimension of its subspace killed by the raising operator counts
homomorphisms from the cyclic module of highest weight ``c`` into the tensor
product.  Generically that count is 1; on an explicit fence-bounded region of
integer parameters it jumps to 2.

Two independent routes are provided:

* :func:`fusion_multiplicity` — closed-form region test (piecewise-linear
  fences in the parameters).
* :func:`fusion_oracle` — exact kernel computation of the raising action on
  the standard monomial basis.

The two agree everywhere (this is checked exhaustively in the test suite).

Both routes work in ints.  One reader puts a, b and c over their common
denominator ``L``, with numerators ``A``, ``B`` and ``C``, and returns the
depth ``k = (A + B - C) / 2L`` when that is a natural number, together with
each parameter as an int, or ``None`` when it is not integral.  The jump
region below is one predicate on those ints, and the band elimination
compares them with its indices.  Integral and non-integral parameters take
the same path, and the query and the tables keep Fraction parameters.

Derivation of the closed form, recorded here because the region's orientation
matters.  Write ``u_m = f^m v_a (x) f^(k-m) v_b`` for ``m = 0..k``.  The
raising operator sends ``u_m`` to ``A_m u'_(m-1) + B'_m u'_m`` where
``A_m = m(a - m + 1)`` and ``B'_m = (k - m)(b - k + m + 1)``, with ``u'_j``
the weight-``(c+2)`` basis.  The resulting ``k x (k+1)`` matrix is chained:
row ``j`` is supported on columns ``j`` and ``j+1``.  Its kernel has dimension
2 exactly when some ``B'`` entry vanishes at a column index no later than a
vanishing ``A`` entry, which unpacks to

    a, b integers in [0, k-1]   and   k <= a + b + 1,

equivalently (eliminating k = (a+b-c)/2):

    |a - b| <= -c - 2   and   a + b + c >= -2,

together with integrality and the parity condition ``a + b - c`` a
non-negative even integer.  The first inequality says the weight fence
crossings of the two factors are nested; the second bounds the depth of the
target weight.  Both inequalities together force ``a, b >= 0``, so no
separate positivity clause is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional, Tuple

from .records import FrozenRecord

__all__ = [
    "FusionQuery",
    "fusion_multiplicity",
    "fusion_oracle",
    "fusion_grid",
]


class FusionQuery(FrozenRecord):
    """Triple of highest weights (a, b, c) for a fusion multiplicity query.

    A ``Fraction`` argument is stored as it is; any other (an int, a string
    such as ``"3/2"``) goes through ``Fraction``.  So the fields are always
    Fractions."""

    _fields = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.__dict__.update(a=_fraction(a), b=_fraction(b), c=_fraction(c))


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _read(q: FusionQuery) -> Tuple[Optional[int], Optional[int], Optional[int], Optional[int]]:
    """(k, a, b, c) in ints: the depth ``k = (a + b - c) / 2``, and each
    parameter read as an int, with ``None`` for a depth that is not a natural
    number and for a parameter that is not integral.

    With ``L`` the lcm of the three denominators and ``A``, ``B``, ``C`` the
    numerators over ``L``, the depth is ``(A + B - C) / 2L``."""
    a, b, c = q.a, q.b, q.c
    da, db, dc = a.denominator, b.denominator, c.denominator
    common = lcm(da, db, dc)
    k, rest = divmod(a.numerator * (common // da) + b.numerator * (common // db)
                     - c.numerator * (common // dc), 2 * common)
    return (k if rest == 0 and k >= 0 else None,
            a.numerator if da == 1 else None,
            b.numerator if db == 1 else None,
            c.numerator if dc == 1 else None)


def _jumps(a: Optional[int], b: Optional[int], c: Optional[int]) -> bool:
    """The jump region ``|a - b| <= -c - 2`` and ``a + b + c >= -2``, on
    integral parameters only (``None`` marks one that is not integral)."""
    return (a is not None and b is not None and c is not None
            and abs(a - b) <= -c - 2 and a + b + c >= -2)


def fusion_multiplicity(q: FusionQuery) -> int:
    """Closed-form fusion multiplicity.

    Returns 0 unless ``a + b - c`` is an even integer >= 0 (no vector of
    weight ``c`` of the right kind exists otherwise).  Returns 2 on the
    integer jump region

        ``|a - b| <= -c - 2``  and  ``a + b + c >= -2``,

    and 1 everywhere else.  The region is cut out by fences: the boundary
    hyperplanes are where an interleaving pattern between the two factor
    parameters and the target parameter degenerates.  Both tests run in
    ints over the common denominator of a, b and c.
    """
    k, a, b, c = _read(q)
    if k is None:
        return 0
    return 2 if _jumps(a, b, c) else 1


def fusion_oracle(q: FusionQuery) -> int:
    """Independent multiplicity count by exact linear algebra.

    Computes the kernel dimension of the raising-operator action from the
    weight-``c`` space of the tensor product (dimension ``k + 1`` where
    ``k = (a + b - c)/2``) to the weight-``(c + 2)`` space (dimension ``k``),
    using the standard monomial basis action
    ``e . f^m v = m (a - m + 1) f^(m-1) v`` extended by the coproduct rule.

    The matrix is bidiagonal: row ``j`` holds ``B'_j`` in column ``j`` and
    ``A_(j+1)`` in column ``j + 1``.  Its rank comes from Gaussian
    elimination confined to that band, column by column.  Only rows
    ``j - 1`` and ``j`` can reach column ``j``.  Row ``j - 1`` arrives
    reduced to its column-``j`` entry, because its column ``j - 1`` was
    cleared by the previous pivot, or was zero.  When that entry is nonzero
    it is the pivot, and clearing column ``j`` from row ``j`` leaves row
    ``j``'s other entry unchanged.  Otherwise row ``j`` pivots on a nonzero
    ``B'_j``.  So the elimination takes ``O(k)`` exact zero tests of the
    entries, and no division.  Each test compares ints: an entry vanishes
    only at an integral a or b, and a parameter that is not integral (read
    as ``None``) never equals the index, so the same loop serves every
    rational a and b.
    """
    k, a, b, _ = _read(q)
    if k is None:
        return 0
    rank = 0
    carry = False  # row j - 1, reduced to a nonzero entry in column j alone
    for j in range(k + 1):
        # Row j < k: A_(j+1) = (j+1)(a-j) vanishes exactly when a = j, and
        # B'_j = (k-j)(b-k+j+1) exactly when b = k-j-1.
        a_entry = j < k and a != j  # row j, column j + 1
        b_entry = j < k and b != k - j - 1  # row j, column j
        if carry:  # pivot on row j - 1; row j keeps its column j + 1 entry
            rank += 1
            carry = a_entry
        elif b_entry:  # pivot on row j
            rank += 1
            carry = False
        else:
            carry = a_entry
    return k + 1 - rank


def fusion_grid(
    a_values: Iterable[Fraction], k_values: Iterable[int]
) -> List[Tuple[Fraction, Fraction, Fraction, int]]:
    """Tabulate (a, b, c, multiplicity) over all pairs from ``a_values`` and
    depths from ``k_values``, with ``c = a + b - 2k``, pair by pair and then
    by depth in the given order.  ``a + b`` is formed once per pair; each
    cell's multiplicity is ``fusion_multiplicity``'s, so a negative depth
    gives 0.  Used by the demo CLI.
    """
    table = []
    avals = [_fraction(x) for x in a_values]
    for a in avals:
        for b in avals:
            total = a + b
            for k in k_values:
                c = total - 2 * k
                table.append((a, b, c, fusion_multiplicity(FusionQuery(a, b, c))))
    return table
