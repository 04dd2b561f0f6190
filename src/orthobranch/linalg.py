"""Exact linear algebra over the Gaussian rationals.

A scalar is an exact number: a Python int or Fraction when it is real, a
``Gi`` only when its imaginary part is nonzero.  The matrix models are built
in a Chevalley basis with rational structure constants and store real
columns; ``Gi`` carries the i of the rotation generators X[a,b] that
``MatrixRep.action`` returns and bundles hold, and of the measurement chain
over the defining representation.  The ladder checks (``matrixrep.act`` and
``measure.verify_power_identity``) split each X[a,b] into a real and an
imaginary part of int columns and never multiply a ``Gi``.
Since ``int / int`` is a float, a library division has a Fraction or a
``Gi`` on one side (``Fraction(1) / x``).  ``qi_to_string`` and
``qi_from_string`` write and read the exact strings of matrix bundles, and
``exact`` is the one normaliser (an int wherever a part is integral).

Sparse vectors are dicts mapping a hashable key (e.g. a monomial exponent
tuple) to a nonzero scalar; ``polyarith.p_add_into`` is their one
accumulate-and-drop-zeros step.  Every linear operator the package builds is
held as sparse columns (``Cols``): column j maps row index i to the nonzero
entry (i, j), and ``apply_cols`` applies one to a sparse vector.

``TrackedEchelon`` is the package's one elimination.  It keeps an echelon
spanning set of sparse vectors and tracks how each stored row expands in the
inserted vectors, so membership comes with coordinates, also for a vector
that an insert finds dependent.  Every solve reads its answer from one: a
solution of M x = b is ``coordinates(b)`` over the columns of M, column r of
the inverse of a symmetric M is ``coordinates({r: 1})`` over its rows, and
``kernel`` takes a kernel basis from the dependent columns.  Coordinates over
independent vectors are unique, so none of these depends on the pivot order.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, List, Optional, Tuple, Union

from .polyarith import p_add_into

_REAL = (int, Fraction)


class Gi:
    """The Gaussian rational re + im*i with im != 0; parts are ints or
    Fractions.  ``Gi(re, 0)`` returns ``re`` itself, so a real result of any
    operation is a plain int or Fraction.  ``+ - * /`` take an int or a
    Fraction on either side; a ``Gi`` is never zero and never equal to a
    real number, and it has no ordering."""

    __slots__ = ("re", "im")

    def __new__(cls, re, im=0):
        if not im:
            return re
        self = object.__new__(cls)
        self.re, self.im = re, im
        return self

    def __add__(self, other):
        if type(other) is Gi:
            return Gi(self.re + other.re, self.im + other.im)
        return Gi(self.re + other, self.im) if isinstance(other, _REAL) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Gi:
            return Gi(self.re - other.re, self.im - other.im)
        return Gi(self.re - other, self.im) if isinstance(other, _REAL) else NotImplemented

    def __rsub__(self, other):
        return Gi(other - self.re, -self.im) if isinstance(other, _REAL) else NotImplemented

    def __mul__(self, other):
        a, b = self.re, self.im
        if type(other) is Gi:  # the zero real parts of imaginary numbers are skipped
            c, d = other.re, other.im
            if not a:
                return Gi(-(b * d), b * c) if c else -(b * d)
            if not c:
                return Gi(-(b * d), a * d)
            return Gi(a * c - b * d, a * d + b * c)
        if isinstance(other, _REAL):
            return Gi(a * other, b * other) if a else Gi(0, b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / other) if isinstance(other, (Gi, *_REAL)) else NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, _REAL):
            return NotImplemented
        inv = other / Fraction(self.re * self.re + self.im * self.im)
        return Gi(self.re * inv, -self.im * inv)

    def __neg__(self):
        return Gi(-self.re, -self.im)

    def __eq__(self, other):  # a real number falls back to identity: never equal
        if type(other) is Gi:
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Gi({self.re!r}, {self.im!r})"


Scalar = Union[int, Fraction, Gi]
SparseVec = Dict[Hashable, Scalar]
Cols = List[Dict[int, Scalar]]  # a matrix as sparse columns: cols[j] = {i: entry}


def exact(c):
    """c with every real part an int when it is integral, else an exact
    Fraction: a ``Gi`` has both parts normalised, and anything else goes
    through ``Fraction`` first (so "p/q" reads as well)."""
    if type(c) is int:
        return c
    if type(c) is Gi:
        return Gi(exact(c.re), exact(c.im))
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def qi_to_string(x: Scalar) -> str:
    """The exact string bundles hold: "p/q", or "p/q+r/si" for a ``Gi``."""
    if not isinstance(x, Gi):
        return f"{x.numerator}/{x.denominator}"
    re, im = x.re, x.im
    return f"{re.numerator}/{re.denominator}+{im.numerator}/{im.denominator}i"


def qi_from_string(s: str) -> Scalar:
    """The scalar of an exact string, its parts normalised by ``exact``;
    "p/q-r/si" reads as well.  Anything but a string, and a zero denominator,
    is a ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"not an exact string: {s!r}")
    s = s.strip()
    try:
        if not s.endswith("i"):
            return exact(s)
        body = s[:-1]
        cut = body.find("+", 1)
        if cut == -1:
            cut = body.find("-", 1)
            while cut != -1 and body[cut - 1] in "+-/eE":
                cut = body.find("-", cut + 1)
        if cut == -1:
            raise ValueError(f"cannot parse complex rational {s!r}")
        return Gi(exact(body[:cut]), exact(body[cut:] if body[cut] != "+" else body[cut + 1:]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


# ---------------------------------------------------------------------------
# Sparse vectors
# ---------------------------------------------------------------------------


def apply_cols(cols: Cols, vec: SparseVec,
               out: Optional[SparseVec] = None) -> SparseVec:
    """out += M vec for the matrix M with sparse columns cols; returns out
    (a new vector when out is None)."""
    if out is None:
        out = {}
    for j, c in vec.items():
        p_add_into(out, cols[j], c)
    return out


class TrackedEchelon:
    """Spanning set of sparse vectors in echelon form, pivoted on the largest
    key present (keys must be mutually comparable, e.g. same-length tuples).
    It also tracks how each stored row expands in the originally inserted
    vectors, so membership comes with coordinates.  Where the two leading
    entries are ints, a step is fraction-free (the vector is scaled by the
    row's pivot over their gcd) and a stored row of ints is divided by its
    content, so ints stay ints until the returned coordinates."""

    __slots__ = ("rows", "count")

    def __init__(self):
        self.rows: Dict[Hashable, Tuple[SparseVec, Dict[int, Scalar]]] = {}
        self.count = 0

    def _reduce(self, vec: SparseVec):
        """(vec reduced against the rows, its expansion in the inserted
        vectors with vec itself at index ``count``)."""
        vec = dict(vec)
        combo: Dict[int, Scalar] = {self.count: 1}
        while vec:
            key = max(vec)
            entry = self.rows.get(key)
            if entry is None:
                break
            row, row_combo = entry
            a, p = vec[key], row[key]
            if type(a) is int and type(p) is int:
                g = gcd(a, p)
                m, c = p // g, -(a // g)
                if m != 1:
                    for part in (vec, combo):
                        for k in part:
                            part[k] *= m
            else:
                c = -(a / p)
            p_add_into(vec, row, c)
            p_add_into(combo, row_combo, c)
        return vec, combo

    def _solution(self, combo: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """The coordinates read off the combo of a vector that reduced to 0."""
        inv = Fraction(-1) / combo.pop(self.count)
        return {i: inv * c for i, c in combo.items()}

    def insert(self, vec: SparseVec) -> Tuple[Optional[int], Dict[int, Scalar]]:
        """(index, {index: 1}) after storing vec if it is independent of the
        inserted vectors, else (None, its ``coordinates`` over them)."""
        red, combo = self._reduce(vec)
        if not red:
            return None, self._solution(combo)
        if all(type(x) is int for x in (*red.values(), *combo.values())):
            g = gcd(*red.values(), *combo.values())
            red, combo = ({k: v // g for k, v in d.items()} for d in (red, combo))
        self.rows[max(red)] = (red, combo)
        self.count += 1
        return self.count - 1, {self.count - 1: 1}

    def coordinates(self, vec: SparseVec) -> Optional[Dict[int, Scalar]]:
        """Expansion of vec over the inserted independent vectors, or None if
        vec is outside their span.  Coefficients satisfy
        vec = sum coeff[i] * inserted_i."""
        red, combo = self._reduce(vec)
        return None if red else self._solution(combo)


def kernel(cols: List[SparseVec]) -> List[Dict[int, Scalar]]:
    """Basis of the kernel of the matrix with sparse columns cols: for each
    column j that depends on the columns before it, the vector {j: 1} minus
    its coordinates over the independent ones.  These coordinates are unique,
    so the basis is the one a reduced row echelon form reads off its free
    columns."""
    ech = TrackedEchelon()
    independent: List[int] = []
    out: List[Dict[int, Scalar]] = []
    for j, col in enumerate(cols):
        idx, combo = ech.insert(col)
        if idx is not None:
            independent.append(j)
            continue
        vec = {independent[i]: -c for i, c in combo.items()}
        vec[j] = 1
        out.append(dict(sorted(vec.items())))
    return out
