"""Dense reference routines that only the tests use.

A plain Fraction Gauss-Jordan elimination, written out here on purpose so
that the references the tests compare against stay independent of the
package's own kernel (``orthobranch.linalg.rref``): the band elimination of
``verma.fusion_oracle`` and the Gaussian-rational ``nullspace`` are both
checked against ``nullspace`` below.  ``dense`` turns the package's sparse
columns into lists of rows, and ``qi_matmul`` multiplies such rows.
``polynomial_columns`` computes a polynomial model's generator and reflection
matrices the direct way, one polynomial application per column, for
comparison with the matrices the package derives from the closure.
"""
from fractions import Fraction

from orthobranch.enveloping import canon_gen
from orthobranch.linalg import QI_ZERO, qadd, qi, qis0, qmul, sv_scale
from orthobranch.matrixrep import poly_apply_table, poly_reflect


def dense(cols, nrows):
    """Rows of the matrix whose sparse columns are cols: cols[j] = {i: entry}."""
    return [[col.get(i, QI_ZERO) for col in cols] for i in range(nrows)]


def poly_apply_pair(frame, a, b, poly):
    """X[a,b] applied to a polynomial in the frame's variables."""
    sign, pair = canon_gen(a, b)
    if not sign:
        return {}
    return poly_apply_table(frame.pair_action(*pair), poly, qi(sign), {})


def polynomial_columns(rep):
    """({(a, b): columns of X[a,b]}, columns of the reflection with its
    det-twist) of a polynomial model: every generator and the reflection is
    applied to every basis polynomial, and the image's coordinates are read
    off the model's echelon."""
    frame, model = rep.frame, rep.model

    def coords(img):
        found = model.coordinates(img)
        assert found is not None, "image left the model span"
        return found

    gens = {(a, b): [coords(poly_apply_pair(frame, a, b, v)) for v in model.vectors]
            for (a, b) in frame.generators}
    tw = qi(rep.twist_sign)
    return gens, [sv_scale(coords(poly_reflect(frame, v)), tw) for v in model.vectors]


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
