"""Spaces of symmetry-breaking operators between nested orthogonal groups.

Given a matrix model ``big`` of an irreducible of the group on coordinates
``0..n`` and a matrix model ``sub`` of an irreducible of the subgroup on
``1..n``, ``hom_space`` computes the space of subgroup-equivariant linear
maps ``big -> sub`` together with an explicit basis of verified operators.

Method (all exact arithmetic, no character theory).  Every step works on
coordinate vectors and the models' sparse columns: the stored Chevalley
columns (``MatrixRep.apply``), the reflection columns ``reflection()``
(det-twist included), and each model's ``PolyModel`` record: weight tags,
construction recipes and ``gram``, the Gram matrix of the invariant pairing.

1.  Collect the subgroup highest-weight vectors of weight ``mu'`` (the
    subgroup label) inside ``big``.  The candidates are the basis vectors
    whose weight tag restricts (first ``rank(sub)`` coordinates) to ``mu'``;
    the highest-weight vectors among their combinations form the kernel of
    the subgroup's raising root vectors.  Each is a big root vector or half
    the sum of two, so it applies through big's real stored columns.

2.  Refine the rotation-group count to the full orthogonal subgroup.  For an
    induced label (even-size subgroup, last row >= 1) every highest-weight
    vector extends, by Frobenius reciprocity.  Otherwise the distinguished
    reflection (largest-coordinate sign flip, an element of both groups)
    defines the involution ``w -> R_big S_w(R_sub e_0)`` on the
    highest-weight space, both reflections det-twisted; its fixed vectors
    are exactly the ones giving reflection-equivariant maps.

3.  For each surviving vector ``w`` build the columns of the equivariant
    embedding ``S_w : sub -> big`` by replaying the subgroup model's recipe
    on top of ``w``: a lowering step applies the subgroup root vector through
    big's stored columns, a reflection step applies ``R_big`` times the
    subgroup's twist sign.

4.  Convert embeddings to projections with the invariant bilinear pairing:
    ``T = B_sub^{-1} S^T B_big`` is subgroup-equivariant ``big -> sub``.
    Row k of ``S^T B_big`` is ``s_k^T B_big``, the combination of the rows
    of big's ``gram`` (derived at construction) given by column k of ``S``.

Every solve reads its answer from a ``linalg.TrackedEchelon``, the package's
one elimination: the kernels of steps 1 and 2 through ``linalg.kernel``, the
involution images of step 2 as coordinates over the highest-weight basis, and
``B_sub^{-1}`` of step 4 as the coordinates of each unit vector over the rows
of the symmetric ``B_sub``.

Every returned operator is verified on stored columns, no X[a,b] formed:
``T M = M T`` for each element M of the subgroup's Chevalley basis, which
spans the complexified subalgebra (on big through ``big.apply``), and
``T R_big = R_sub T`` for the reflections.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .linalg import Cols, Scalar, TrackedEchelon, apply_cols, kernel
from .polyarith import p_add_into
from .records import Record
from .weights import InvalidRankError
from .matrixrep import MatrixRep, basis_name

CoordVec = Dict[int, Scalar]


class SymmetryBreakingOperator(Record):
    """An equivariant map from the big model onto the subgroup model.

    ``matrix`` holds dim(big) sparse columns: column j is the image of big
    basis vector j in sub-model coordinates.  ``hw`` is the subgroup
    highest-weight vector of big that the operator was built from; measuring
    an operator without one (a hand-built operator) raises ``ValueError``.
    ``verified`` holds while the models and the matrix content are those
    that the equivariance check last passed on.  Equality and the repr
    take big, sub, matrix and hw; what the check passed on is neither
    compared nor shown.
    """

    _fields = ("big", "sub", "matrix", "hw")

    def __init__(self, big: MatrixRep, sub: MatrixRep, matrix: Cols,
                 hw: Optional[CoordVec] = None) -> None:
        self.big = big
        self.sub = sub
        self.matrix = matrix
        self.hw = hw
        self._checked = None  # (big, sub, matrix) as the equivariance check passed them

    @property
    def verified(self) -> bool:
        return self._checked == (self.big, self.sub, self.matrix)


def _require_models(big: MatrixRep, sub: MatrixRep) -> None:
    if big.model is None or sub.model is None:
        raise InvalidRankError(
            "hom_space needs weight-graded polynomial models on both sides"
        )
    if set(sub.indices) != set(big.indices) - {min(big.indices)}:
        raise InvalidRankError(
            f"subgroup coordinates {sub.indices} must be the big coordinates "
            f"{big.indices} minus the smallest"
        )


def subgroup_hw_space(big: MatrixRep, sub: MatrixRep) -> List[CoordVec]:
    """Basis (as big-model coordinate vectors) of the subgroup
    highest-weight vectors of weight mu' (sub's label) inside the big model."""
    srank = sub.frame.rank
    target = tuple(sub.label.mu)
    cand = [i for i, t in enumerate(big.model.tags) if t[:srank] == target]
    raising = [big.frame.root_coords(combo) for _w, combo in sub.frame.raising_ops()]
    # kernel of the stacked raising actions on the candidate span: a
    # candidate's column holds its image under raising operator r at (r, row)
    cols = [{(r, k): x for r, coords in enumerate(raising)
             for k, x in big.apply(coords, {i: 1}).items()} for i in cand]
    return [{cand[i]: c for i, c in vec.items()} for vec in kernel(cols)]


def _mirror_embedding(big: MatrixRep, sub: MatrixRep, w: CoordVec) -> Cols:
    """Columns of S_w: the images in the big model of every subgroup basis
    vector, replaying the subgroup model's construction recipe on top of the
    highest-weight image w.  Reflection steps apply big's reflection times
    the subgroup's twist sign, so both det-twists enter."""
    smodel = sub.model
    ops = [big.frame.root_coords(combo) for _w, combo in sub.frame.lowering_ops()]
    images: Cols = []
    for rec in smodel.recipes:
        if rec.kind == "seed":
            images.append(dict(w))
        elif rec.kind == "op":
            images.append(big.apply(ops[rec.op_index], images[rec.parent]))
        elif rec.kind == "refl":
            image = apply_cols(big.reflection(), images[rec.parent])
            images.append({i: sub.twist_sign * x for i, x in image.items()})
        else:  # pragma: no cover
            raise AssertionError(f"unknown recipe kind {rec.kind!r}")
    return images


def _reflection_fixed_space(big: MatrixRep, sub: MatrixRep,
                            hw_basis: List[CoordVec]) -> List[CoordVec]:
    """Basis, as sparse coefficient vectors over hw_basis, of the vectors
    fixed by the involution w -> R_big S_w(R_sub e_0), both reflections
    det-twisted: the obstruction for non-induced subgroup labels."""
    ech = TrackedEchelon()
    for w in hw_basis:
        ech.insert(w)
    refl_seed = sub.reflection()[0]
    # the fixed vectors: kernel of M - I, column j of M holding the
    # coordinates of the involution image of hw_basis[j]
    cols: List[CoordVec] = []
    for j, w in enumerate(hw_basis):
        col = ech.coordinates(apply_cols(big.reflection(),
                                         apply_cols(_mirror_embedding(big, sub, w), refl_seed)))
        if col is None:
            raise AssertionError("involution image is not a hw-space member")
        p_add_into(col, {j: 1}, -1)
        cols.append(col)
    return kernel(cols)


def _transpose_pair_matrix(big: MatrixRep, sub: MatrixRep, s_cols: Cols) -> Cols:
    """T = B_sub^{-1} S^T B_big as dim(big) sparse columns, S given by its
    columns s_k; row k of S^T B_big combines the rows of big's Gram matrix."""
    gram_big = big.model.gram
    stb: Cols = [dict() for _ in range(big.dim)]
    for k, s in enumerate(s_cols):
        for j, v in apply_cols(gram_big, s).items():
            stb[j][k] = v
    # B_sub is symmetric, so column r of B_sub^{-1} is the expansion of e_r
    # over its rows
    ech = TrackedEchelon()
    for row in sub.model.gram:
        if ech.insert(row)[0] is None:
            raise ValueError("matrix is singular")
    binv_cols: Cols = [dict(sorted(ech.coordinates({r: 1}).items())) for r in range(sub.dim)]
    return [apply_cols(binv_cols, col) for col in stb]


def _equivariance_pairs(big: MatrixRep, sub: MatrixRep) -> Iterator[Tuple[str, Cols, Cols]]:
    """(name, M_big, M_sub) for T M_big = M_sub T: each element of the subgroup's
    Chevalley basis (on big over big's basis), then the distinguished reflection."""
    for x, combo in sub.frame.basis.items():
        coords = big.frame.root_coords(combo)
        yield basis_name(x), [big.apply(coords, {j: 1}) for j in range(big.dim)], sub.chevalley()[x]
    yield "the reflection", big.reflection(), sub.reflection()


def _verify_operator(op: SymmetryBreakingOperator) -> None:
    T = op.matrix
    for what, mbig, msub in _equivariance_pairs(op.big, op.sub):
        for j in range(op.big.dim):
            if apply_cols(T, mbig[j]) != apply_cols(msub, T[j]):
                raise AssertionError(f"operator not equivariant for {what}")
    op._checked = (op.big, op.sub, [dict(col) for col in T])


def hom_space(big: MatrixRep, sub: MatrixRep) -> Tuple[int, List[SymmetryBreakingOperator]]:
    """Multiplicity and a verified operator basis for Hom_subgroup(big, sub)."""
    _require_models(big, sub)
    hw = subgroup_hw_space(big, sub)
    if not hw:
        return 0, []
    if sub.label.induced:
        chosen = hw
    else:
        chosen = [apply_cols(hw, combo) for combo in _reflection_fixed_space(big, sub, hw)]
    ops: List[SymmetryBreakingOperator] = []
    for w in chosen:
        T = _transpose_pair_matrix(big, sub, _mirror_embedding(big, sub, w))
        op = SymmetryBreakingOperator(big=big, sub=sub, matrix=T, hw=w)
        _verify_operator(op)
        ops.append(op)
    return len(ops), ops
