"""Dense reference routines that only the tests use.

``nullspace`` runs the package's Gauss-Jordan kernel on a whole dense
matrix; the tests compare structured fast paths (such as the band
elimination of ``verma.fusion_oracle``) against it.
"""
from fractions import Fraction

from orthobranch.linalg import _rref, mat_copy


def nullspace(rows):
    """Basis of the right kernel of the matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = mat_copy(rows)
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
