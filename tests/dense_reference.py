"""Dense reference routines that only the tests use.

A plain Fraction Gauss-Jordan elimination, written out here on purpose so
that the references the tests compare against stay independent of the
package's own kernel (``orthobranch.linalg.rref``): the band elimination of
``verma.fusion_oracle`` and the Gaussian-rational ``nullspace`` are both
checked against ``nullspace`` below.  ``dense`` turns the package's sparse
columns into lists of rows, and ``qi_matmul`` multiplies such rows.
"""
from fractions import Fraction

from orthobranch.linalg import QI_ZERO, qadd, qis0, qmul


def dense(cols, nrows):
    """Rows of the matrix whose sparse columns are cols: cols[j] = {i: entry}."""
    return [[col.get(i, QI_ZERO) for col in cols] for i in range(nrows)]


def qi_matmul(a, b):
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


def _rref(rows, ncols):
    """Reduced row echelon form in place; returns the pivot columns."""
    pivots = []
    for col in range(ncols):
        prow = len(pivots)
        piv = next((i for i in range(prow, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pv = rows[prow][col]
        rows[prow] = [x / pv for x in rows[prow]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != prow and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[prow])]
        pivots.append(col)
    return pivots


def rank(rows) -> int:
    return len(_rref([list(r) for r in rows], len(rows[0]))) if rows else 0


def nullspace(rows):
    """Basis of the right kernel of the matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = _rref(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -work[prow][fc]
        basis.append(vec)
    return basis
