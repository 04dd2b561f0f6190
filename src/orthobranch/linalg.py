"""Exact linear algebra over the Gaussian rationals.

Scalars are pairs (re, im) of Fractions ("qi" values).

Sparse vectors are dicts mapping a hashable key (e.g. a monomial exponent
tuple) to a nonzero qi value.  ``sv_add_scaled`` is their one
accumulate-and-drop-zeros step.  Every linear operator the package builds is
held as sparse columns (``Cols``): column j maps row index i to the nonzero
entry (i, j), and ``apply_cols`` applies one to a sparse vector.
``TrackedEchelon`` keeps a reduced spanning set of sparse vectors and tracks
how each stored row expands in the inserted vectors, so membership comes with
coordinates, also for a vector that an insert finds dependent.

Dense lists of rows appear only as the input of ``rref``, the package's one
Gauss-Jordan elimination; ``nullspace``, ``solve`` and ``inverse`` read their
results from it.  It pivots on the first nonzero entry of each column, and
since the reduced row echelon form is unique, the pivot choice changes no
kernel basis, inverse or particular solution.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

Qi = Tuple[Fraction, Fraction]
SparseVec = Dict[Hashable, Qi]
Cols = List[Dict[int, Qi]]  # a matrix as sparse columns: cols[j] = {i: entry}

QI_ZERO: Qi = (Fraction(0), Fraction(0))
QI_ONE: Qi = (Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Gaussian-rational scalars
# ---------------------------------------------------------------------------


def qi(re=0, im=0) -> Qi:
    return (Fraction(re), Fraction(im))


def qadd(a: Qi, b: Qi) -> Qi:
    return (a[0] + b[0], a[1] + b[1])


def qsub(a: Qi, b: Qi) -> Qi:
    return (a[0] - b[0], a[1] - b[1])


def qmul(a: Qi, b: Qi) -> Qi:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qdiv(a: Qi, b: Qi) -> Qi:
    d = b[0] * b[0] + b[1] * b[1]
    if not d:
        raise ZeroDivisionError("division by complex zero")
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def qneg(a: Qi) -> Qi:
    return (-a[0], -a[1])


def qis0(a: Qi) -> bool:
    return not a[0] and not a[1]


# ---------------------------------------------------------------------------
# Sparse complex vectors
# ---------------------------------------------------------------------------


def sv_add_scaled(target: SparseVec, src: SparseVec, coeff: Qi) -> None:
    """target += coeff * src, in place, dropping exact zeros.  A coefficient of
    exactly 1 or -1 adds or subtracts the terms without a multiplication."""
    if qis0(coeff):
        return
    sign = coeff[0] if not coeff[1] and coeff[0] in (1, -1) else 0
    for key, val in src.items():
        cur = target.get(key, QI_ZERO)
        if sign == 1:
            new = qadd(cur, val)
        elif sign == -1:
            new = qsub(cur, val)
        else:
            new = qadd(cur, qmul(coeff, val))
        if qis0(new):
            target.pop(key, None)
        else:
            target[key] = new


def sv_scale(vec: SparseVec, coeff: Qi) -> SparseVec:
    if qis0(coeff):
        return {}
    return {k: qmul(coeff, v) for k, v in vec.items()}


def apply_cols(cols: Cols, vec: SparseVec,
               out: Optional[SparseVec] = None) -> SparseVec:
    """out += M vec for the matrix M with sparse columns cols; returns out
    (a new vector when out is None)."""
    if out is None:
        out = {}
    for j, c in vec.items():
        sv_add_scaled(out, cols[j], c)
    return out


class TrackedEchelon:
    """Reduced spanning set of sparse complex vectors, pivoted on the largest
    key present (keys must be mutually comparable, e.g. same-length tuples).
    It also tracks how each stored row expands in the originally inserted
    vectors, so membership comes with coordinates."""

    __slots__ = ("rows", "count")

    def __init__(self):
        self.rows: Dict[Hashable, Tuple[SparseVec, Dict[int, Qi]]] = {}
        self.count = 0

    def _reduce(self, vec: SparseVec, combo: Dict[int, Qi]):
        vec = dict(vec)
        while vec:
            key = max(vec)
            entry = self.rows.get(key)
            if entry is None:
                return vec, combo
            row, row_combo = entry
            c = qneg(vec[key])
            sv_add_scaled(vec, row, c)
            sv_add_scaled(combo, row_combo, c)
        return vec, combo

    def insert(self, vec: SparseVec) -> Tuple[Optional[int], Dict[int, Qi]]:
        """(index, {index: 1}) after storing vec if it is independent of the
        inserted vectors, else (None, its ``coordinates`` over them)."""
        idx = self.count
        red, combo = self._reduce(vec, {idx: QI_ONE})
        if not red:
            del combo[idx]
            return None, {i: qneg(c) for i, c in combo.items()}
        key = max(red)
        inv = qdiv(QI_ONE, red[key])
        self.rows[key] = (sv_scale(red, inv), sv_scale(combo, inv))
        self.count += 1
        return idx, {idx: QI_ONE}

    def coordinates(self, vec: SparseVec) -> Optional[Dict[int, Qi]]:
        """Expansion of vec over the inserted independent vectors, or None if
        vec is outside their span.  Coefficients satisfy
        vec = sum coeff[i] * inserted_i."""
        red, combo = self._reduce(vec, {})
        if red:
            return None
        return {i: qneg(c) for i, c in combo.items()}


# ---------------------------------------------------------------------------
# Elimination on dense rows
# ---------------------------------------------------------------------------


def rref(rows: List[List[Qi]], ncols: int) -> List[int]:
    """Bring rows to reduced row echelon form in place, pivoting only in the
    first ncols columns (later columns ride along, e.g. a right-hand side);
    returns the pivot columns in order."""
    pivots: List[int] = []
    for col in range(ncols):
        prow = len(pivots)
        piv = next((i for i in range(prow, len(rows)) if not qis0(rows[i][col])), None)
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pv = rows[prow][col]
        top = rows[prow] = [qdiv(x, pv) for x in rows[prow]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != prow and not qis0(f):
                rows[i] = [qsub(x, qmul(f, y)) for x, y in zip(row, top)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def nullspace(rows: List[List[Qi]]) -> List[List[Qi]]:
    """Basis of the right kernel, one vector per non-pivot column."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = rref(work, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [QI_ZERO] * ncols
        vec[fc] = QI_ONE
        for prow, pcol in enumerate(pivots):
            vec[pcol] = qneg(work[prow][fc])
        basis.append(vec)
    return basis


def solve(rows: List[List[Qi]], rhs: List[Qi]) -> Optional[List[Qi]]:
    """One solution of rows * x = rhs (free unknowns set to zero), or None if
    the system is inconsistent."""
    ncols = len(rows[0]) if rows else 0
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = rref(work, ncols)
    if any(not qis0(row[ncols]) for row in work[len(pivots):]):
        return None
    x = [QI_ZERO] * ncols
    for prow, pcol in enumerate(pivots):
        x[pcol] = work[prow][ncols]
    return x


def inverse(rows: List[List[Qi]]) -> List[List[Qi]]:
    """Inverse of a square matrix; raises ValueError if it is singular."""
    n = len(rows)
    work = [list(r) + [QI_ONE if i == j else QI_ZERO for j in range(n)]
            for i, r in enumerate(rows)]
    if len(rref(work, n)) != n:
        raise ValueError("matrix is singular")
    return [r[n:] for r in work]
