"""Exact linear algebra over the rationals and the Gaussian rationals.

Dense routines work on lists of lists of Fraction.  Elimination pivots on the
smallest-magnitude nonzero entry of the current column, which keeps
numerators and denominators small in practice while staying exact.

Complex scalars are pairs (re, im) of Fractions ("qi" values).  Sparse vectors
are dicts mapping a hashable key (e.g. a monomial exponent tuple) to a qi
pair; the echelon classes keep reduced spanning sets of such vectors and can
track expansion coefficients for solving coordinates against a stored basis.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

Qi = Tuple[Fraction, Fraction]
SparseVec = Dict[Hashable, Qi]

QI_ZERO: Qi = (Fraction(0), Fraction(0))
QI_ONE: Qi = (Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Dense rational matrices
# ---------------------------------------------------------------------------


def mat_copy(rows):
    return [list(r) for r in rows]


def identity_matrix(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def matvec(rows, vec):
    return [sum((a * b for a, b in zip(r, vec) if a and b), Fraction(0)) for r in rows]


def matmul(a, b):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    bt = [[b[i][j] for i in range(len(b))] for j in range(cols)]
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in bt]
            for row in a]


def transpose(rows):
    if not rows:
        return []
    return [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]


def _rref(rows, ncols):
    """Reduced row echelon form in-place; returns pivot column list."""
    work = rows
    nrows = len(work)
    pivots = []
    prow = 0
    for col in range(ncols):
        best = None
        for i in range(prow, nrows):
            v = work[i][col]
            if v:
                if best is None or abs(v) < abs(work[best][col]):
                    best = i
        if best is None:
            continue
        work[prow], work[best] = work[best], work[prow]
        pv = work[prow][col]
        if pv != 1:
            work[prow] = [x / pv for x in work[prow]]
        for i in range(nrows):
            if i != prow and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return pivots


def rank(rows) -> int:
    if not rows:
        return 0
    work = mat_copy(rows)
    return len(_rref(work, len(rows[0])))


def solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return [] if not rhs or all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _rref(work, ncols)
    for row in work:
        if all(v == 0 for v in row[:ncols]) and row[ncols]:
            return None
    x = [Fraction(0)] * ncols
    for prow, pcol in enumerate(pivots):
        x[pcol] = work[prow][ncols]
    return x


def inverse(rows):
    n = len(rows)
    work = [list(r) + list(e) for r, e in zip(rows, identity_matrix(n))]
    pivots = _rref(work, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]


def column_space_basis(rows):
    """Indices and vectors of a basis of the column space."""
    if not rows:
        return [], []
    work = mat_copy(rows)
    pivots = _rref(work, len(rows[0]))
    cols = [[rows[i][c] for i in range(len(rows))] for c in pivots]
    return pivots, cols


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


def qconj(a: Qi) -> Qi:
    return (a[0], -a[1])


def qis0(a: Qi) -> bool:
    return not a[0] and not a[1]


# ---------------------------------------------------------------------------
# Sparse complex vectors
# ---------------------------------------------------------------------------


def sv_add_scaled(target: SparseVec, src: SparseVec, coeff: Qi) -> None:
    """target += coeff * src, in place, dropping exact zeros."""
    if qis0(coeff):
        return
    for key, val in src.items():
        cur = target.get(key, QI_ZERO)
        new = qadd(cur, qmul(coeff, val))
        if qis0(new):
            target.pop(key, None)
        else:
            target[key] = new


def sv_scale(vec: SparseVec, coeff: Qi) -> SparseVec:
    if qis0(coeff):
        return {}
    return {k: qmul(coeff, v) for k, v in vec.items()}


def sv_conj(vec: SparseVec) -> SparseVec:
    return {k: qconj(v) for k, v in vec.items()}


def sv_is_real(vec: SparseVec) -> bool:
    return all(not v[1] for v in vec.values())


class QiEchelon:
    """Reduced spanning set of sparse complex vectors, pivoted on the largest
    key present (keys must be mutually comparable, e.g. same-length tuples)."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: Dict[Hashable, SparseVec] = {}

    def reduce(self, vec: SparseVec) -> SparseVec:
        vec = dict(vec)
        while vec:
            key = max(vec)
            row = self.rows.get(key)
            if row is None:
                return vec
            sv_add_scaled(vec, row, qneg(vec[key]))
        return vec

    def insert(self, vec: SparseVec) -> Optional[Hashable]:
        """Reduce and store; returns the new pivot key, or None if dependent."""
        red = self.reduce(vec)
        if not red:
            return None
        key = max(red)
        inv = qdiv(QI_ONE, red[key])
        self.rows[key] = sv_scale(red, inv)
        return key

    def __len__(self):
        return len(self.rows)

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)


class TrackedEchelon:
    """Echelon that also tracks how each stored row expands in the originally
    inserted vectors, so membership comes with coordinates."""

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
            for idx, cc in row_combo.items():
                cur = combo.get(idx, QI_ZERO)
                new = qadd(cur, qmul(c, cc))
                if qis0(new):
                    combo.pop(idx, None)
                else:
                    combo[idx] = new
        return vec, combo

    def insert(self, vec: SparseVec) -> Optional[int]:
        """Returns the index assigned to the vector if independent, else None."""
        idx = self.count
        red, combo = self._reduce(vec, {idx: QI_ONE})
        if not red:
            return None
        key = max(red)
        inv = qdiv(QI_ONE, red[key])
        self.rows[key] = (sv_scale(red, inv), {i: qmul(inv, c) for i, c in combo.items()})
        self.count += 1
        return idx

    def coordinates(self, vec: SparseVec) -> Optional[Dict[int, Qi]]:
        """Expansion of vec over the inserted independent vectors, or None if
        vec is outside their span.  Coefficients satisfy
        vec = sum coeff[i] * inserted_i."""
        red, combo = self._reduce(vec, {})
        if red:
            return None
        return {i: qneg(c) for i, c in combo.items()}


def qi_nullspace(rows: List[List[Qi]]) -> List[List[Qi]]:
    """Right kernel basis of a small dense complex matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    prow = 0
    for col in range(ncols):
        best = None
        for i in range(prow, nrows):
            if not qis0(work[i][col]):
                best = i
                break
        if best is None:
            continue
        work[prow], work[best] = work[best], work[prow]
        pv = work[prow][col]
        work[prow] = [qdiv(x, pv) for x in work[prow]]
        for i in range(nrows):
            if i != prow and not qis0(work[i][col]):
                f = work[i][col]
                work[i] = [qsub(x, qmul(f, y)) for x, y in zip(work[i], work[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [QI_ZERO] * ncols
        vec[fc] = QI_ONE
        for prow_i, pcol in enumerate(pivots):
            vec[pcol] = qneg(work[prow_i][fc])
        basis.append(vec)
    return basis


def qi_matmul(a: List[List[Qi]], b: List[List[Qi]]) -> List[List[Qi]]:
    """Dense product of complex-rational matrices."""
    if not a or not b:
        return []
    inner = len(b)
    ncols = len(b[0])
    out = []
    for row in a:
        acc = [QI_ZERO] * ncols
        for k in range(inner):
            c = row[k]
            if qis0(c):
                continue
            bk = b[k]
            for j in range(ncols):
                if not qis0(bk[j]):
                    acc[j] = qadd(acc[j], qmul(c, bk[j]))
        out.append(acc)
    return out


def qi_inverse(rows: List[List[Qi]]) -> List[List[Qi]]:
    """Inverse of a small dense complex-rational matrix (raises if singular)."""
    n = len(rows)
    work = [list(r) + [QI_ONE if i == j else QI_ZERO for j in range(n)]
            for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if not qis0(work[i][col]):
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        pv = work[col][col]
        work[col] = [qdiv(x, pv) for x in work[col]]
        for i in range(n):
            if i != col and not qis0(work[i][col]):
                f = work[i][col]
                work[i] = [qsub(x, qmul(f, y)) for x, y in zip(work[i], work[col])]
    return [r[n:] for r in work]
