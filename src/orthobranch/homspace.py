"""Spaces of symmetry-breaking operators between nested orthogonal groups.

Given a matrix model ``big`` of an irreducible of the group on coordinates
``0..n`` and a matrix model ``sub`` of an irreducible of the subgroup on
``1..n``, ``hom_space`` computes the space of subgroup-equivariant linear
maps ``big -> sub`` together with an explicit basis of verified operators.

Method (all exact arithmetic, no character theory):

1.  Collect the subgroup highest-weight vectors of weight ``mu'`` (the
    subgroup label) inside ``big``: basis vectors of ``big`` carry weight
    tags whose restriction (first ``rank(sub)`` coordinates) grades the model
    over subgroup weights, so the candidates form a small linear system with
    the subgroup's raising root vectors.

2.  Refine the rotation-group count to the full orthogonal subgroup.  For an
    induced label (even-size subgroup, last row >= 1) every highest-weight
    vector extends, by Frobenius reciprocity.  Otherwise the distinguished
    reflection ``g`` (largest-coordinate sign flip, an element of both
    groups) defines an involution ``w -> twist * reflect(S_w(reflect(seed)))``
    on the highest-weight-vector space whose fixed vectors are exactly the
    ones giving reflection-equivariant maps.

3.  For each surviving vector ``w`` build the equivariant embedding
    ``S_w : sub -> big`` by replaying the recorded construction recipe of the
    subgroup model on top of ``w`` (lowering operators map to the same
    operators; reflection steps map to the reflection of ``big`` with the
    product of the two det-twists).

4.  Convert embeddings to projections with the invariant bilinear pairing:
    ``T = B_sub^{-1} S^T B_big`` is subgroup-equivariant ``big -> sub``.

Every returned operator is verified literally: ``T X = X T`` for all
subgroup generators and ``T R_big = R_sub T`` for the reflections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .linalg import (
    Qi,
    QI_ONE,
    QI_ZERO,
    inverse,
    nullspace,
    qadd,
    qi,
    qi_matmul,
    qis0,
    qmul,
    qsub,
    solve,
    sv_add_scaled,
)
from .weights import InvalidRankError
from .matrixrep import (
    MatrixRep,
    Poly,
    fischer_pair,
    mono_weight,
    poly_apply_combo,
    poly_reflect,
)

CoordVec = Dict[int, Qi]


@dataclass
class SymmetryBreakingOperator:
    """An equivariant map from the big model onto the subgroup model.

    ``matrix`` is dim(sub) x dim(big); ``seed_coords`` are the coordinates in
    the big model of the subgroup highest-weight vector the operator was
    grown from.
    """

    big: MatrixRep
    sub: MatrixRep
    matrix: List[List[Qi]]
    seed_coords: CoordVec = field(default_factory=dict)
    verified: bool = False

    def apply_coords(self, vec: CoordVec) -> List[Qi]:
        out = [QI_ZERO] * self.sub.dim
        for j, c in vec.items():
            if qis0(c):
                continue
            for i in range(self.sub.dim):
                a = self.matrix[i][j]
                if not qis0(a):
                    out[i] = qadd(out[i], qmul(c, a))
        return out


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


def _restrict_tag(tag: Tuple[int, ...], sub_rank: int) -> Tuple[int, ...]:
    return tag[:sub_rank]


def subgroup_hw_space(big: MatrixRep, sub_label_mu: Tuple[int, ...],
                      sub_frame) -> List[CoordVec]:
    """Basis (as big-model coordinate vectors) of the subgroup
    highest-weight vectors of weight mu' inside the big model."""
    model = big.model
    srank = sub_frame.rank
    target = tuple(sub_label_mu)
    cand = [i for i, t in enumerate(model.tags) if _restrict_tag(t, srank) == target]
    if not cand:
        return []
    raising = sub_frame.raising_ops()
    if not raising:
        return [{i: QI_ONE} for i in cand]
    # kernel of the stacked raising actions on the candidate span
    rows: List[List[Qi]] = []
    images: List[List[CoordVec]] = []
    bigframe = big.frame
    for _w, combo in raising:
        per_cand = []
        for i in cand:
            img = poly_apply_combo(bigframe, combo, model.vectors[i])
            coords = model.coordinates(img)
            if coords is None:
                raise AssertionError("raising image left the big model span")
            per_cand.append(coords)
        images.append(per_cand)
    for per_cand in images:
        touched = sorted({k for coords in per_cand for k in coords})
        for k in touched:
            rows.append([coords.get(k, QI_ZERO) for coords in per_cand])
    kern = nullspace(rows) if rows else [
        [QI_ONE if i == j else QI_ZERO for i in range(len(cand))] for j in range(len(cand))
    ]
    out = []
    for vec in kern:
        out.append({cand[i]: c for i, c in enumerate(vec) if not qis0(c)})
    return out


def _coords_to_poly(model, coords: CoordVec) -> Poly:
    out: Poly = {}
    for i, c in coords.items():
        sv_add_scaled(out, model.vectors[i], c)
    return out


def _mirror_embedding(big: MatrixRep, sub: MatrixRep, w_poly: Poly) -> List[Poly]:
    """Images in the big model of every subgroup basis vector, replaying the
    subgroup model's construction recipe on top of the highest-weight image
    w_poly.  Reflection steps pick up the product of the two det-twists."""
    bigframe = big.frame
    smodel = sub.model
    refl_sign = qi(Fraction(big.twist_sign * sub.twist_sign))
    images: List[Poly] = []
    for rec in smodel.recipes:
        if rec.kind == "seed":
            images.append(dict(w_poly))
        elif rec.kind == "op":
            combo = smodel.ops[rec.op_index]
            images.append(poly_apply_combo(bigframe, combo, images[rec.parent]))
        elif rec.kind == "refl":
            img = poly_reflect(bigframe, images[rec.parent])
            images.append({m: qmul(c, refl_sign) for m, c in img.items()})
        else:  # pragma: no cover
            raise AssertionError(f"unknown recipe kind {rec.kind!r}")
    return images


def _reflection_involution(big: MatrixRep, sub: MatrixRep,
                           hw_basis: List[CoordVec]) -> List[List[Qi]]:
    """Matrix (in the hw_basis) of w -> twists * reflect_big(S_w(pi(g) seed)),
    the obstruction involution for non-induced subgroup labels."""
    bigframe = big.frame
    smodel = sub.model
    seed = smodel.vectors[0]
    refl_seed = poly_reflect(sub.frame, seed)
    seed_coords = smodel.coordinates(refl_seed)
    if seed_coords is None:
        raise AssertionError("subgroup reflection left the subgroup model span")
    sign = qi(Fraction(big.twist_sign * sub.twist_sign))
    # express each hw vector as a polynomial, mirror, evaluate
    cols: List[CoordVec] = []
    for w in hw_basis:
        w_poly = _coords_to_poly(big.model, w)
        images = _mirror_embedding(big, sub, w_poly)
        acc: Poly = {}
        for j, c in seed_coords.items():
            sv_add_scaled(acc, images[j], c)
        acc = poly_reflect(bigframe, acc)
        acc = {m: qmul(c, sign) for m, c in acc.items()}
        coords = big.model.coordinates(acc)
        if coords is None:
            raise AssertionError("involution image left the big model span")
        cols.append(coords)
    # solve each column against the hw basis
    keys = sorted({k for w in hw_basis for k in w} | {k for c in cols for k in c})
    basis_mat = [[w.get(k, QI_ZERO) for w in hw_basis] for k in keys]
    out_cols: List[List[Qi]] = []
    for c in cols:
        rhs = [c.get(k, QI_ZERO) for k in keys]
        sol = solve(basis_mat, rhs)
        if sol is None:
            raise AssertionError("involution image is not a hw-space member")
        out_cols.append(sol)
    m = len(hw_basis)
    return [[out_cols[j][i] for j in range(m)] for i in range(m)]


def _fixed_space(mat: List[List[Qi]]) -> List[List[Qi]]:
    """Basis of the +1 eigenspace of a small matrix."""
    m = len(mat)
    rows = [[qsub(mat[i][j], QI_ONE if i == j else QI_ZERO) for j in range(m)]
            for i in range(m)]
    return nullspace(rows)


def _gram_dense(model) -> List[List[Qi]]:
    rows = model.gram_rows()
    n = model.dim
    out = [[QI_ZERO] * n for _ in range(n)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[i][j] = v
    return out


def _transpose_pair_matrix(big: MatrixRep, sub: MatrixRep,
                           s_images: List[Poly]) -> List[List[Qi]]:
    """T = B_sub^{-1} S^T B_big as a dense dim(sub) x dim(big) matrix."""
    bmodel = big.model
    smodel = sub.model
    bigframe = big.frame
    # (S^T B_big)[k][j] = B(s_k, b_j); pairing vanishes except on opposite tags
    by_weight: Dict[Tuple[int, ...], List[int]] = {}
    for j, t in enumerate(bmodel.tags):
        by_weight.setdefault(t, []).append(j)
    stb = [[QI_ZERO] * big.dim for _ in range(sub.dim)]
    for k, sp in enumerate(s_images):
        if not sp:
            continue
        # s_k is homogeneous for the subgroup weight only; collect every big
        # weight its monomials touch and pair against the dual blocks
        tags = {mono_weight(bigframe, m) for m in sp}
        cand: set = set()
        for tag in tags:
            cand.update(by_weight.get(tuple(-c for c in tag), ()))
        for j in sorted(cand):
            v = fischer_pair(bigframe, sp, bmodel.vectors[j])
            if not qis0(v):
                stb[k][j] = v
    binv = inverse(_gram_dense(smodel))
    return qi_matmul(binv, stb)


def _verify_operator(op: SymmetryBreakingOperator) -> None:
    big, sub, T = op.big, op.sub, op.matrix
    sframe = sub.frame
    pairs = [(a, b) for i, a in enumerate(sframe.indices) for b in sframe.indices[i + 1:]]
    for (a, b) in pairs:
        bcols = big.sparse_action(a, b)
        scols = sub.sparse_action(a, b)
        for j in range(big.dim):
            # T (X big) e_j
            lhs = [QI_ZERO] * sub.dim
            for i2, c in bcols[j].items():
                for i in range(sub.dim):
                    t = T[i][i2]
                    if not qis0(t):
                        lhs[i] = qadd(lhs[i], qmul(c, t))
            # (X sub) T e_j
            rhs = [QI_ZERO] * sub.dim
            for i2 in range(sub.dim):
                t = T[i2][j]
                if qis0(t):
                    continue
                for i, c in scols[i2].items():
                    rhs[i] = qadd(rhs[i], qmul(t, c))
            if lhs != rhs:
                raise AssertionError(f"operator not equivariant for generator ({a},{b})")
    # reflection equivariance
    Rb = big.reflection()
    Rs = sub.reflection()
    lhs = qi_matmul(T, Rb)
    rhs = qi_matmul(Rs, T)
    if lhs != rhs:
        raise AssertionError("operator not equivariant for the reflection")
    op.verified = True


def hom_space(big: MatrixRep, sub: MatrixRep) -> Tuple[int, List[SymmetryBreakingOperator]]:
    """Multiplicity and a verified operator basis for Hom_subgroup(big, sub)."""
    _require_models(big, sub)
    sframe = sub.frame
    if sub.label is None:
        raise InvalidRankError("subgroup representation needs a label")
    hw = subgroup_hw_space(big, sub.label.mu, sframe)
    if not hw:
        return 0, []
    induced = sub.group_tag == "O_even" and sub.label.mu[-1] >= 1
    if induced:
        chosen = hw
    else:
        inv = _reflection_involution(big, sub, hw)
        fixed = _fixed_space(inv)
        chosen = []
        for combo in fixed:
            vec: CoordVec = {}
            for i, c in enumerate(combo):
                sv_add_scaled(vec, hw[i], c)
            chosen.append(vec)
    ops: List[SymmetryBreakingOperator] = []
    for w in chosen:
        w_poly = _coords_to_poly(big.model, w)
        s_images = _mirror_embedding(big, sub, w_poly)
        T = _transpose_pair_matrix(big, sub, s_images)
        op = SymmetryBreakingOperator(big=big, sub=sub, matrix=T, seed_coords=w)
        _verify_operator(op)
        ops.append(op)
    return len(ops), ops


# ---------------------------------------------------------------------------
# independent dense route (for cross-checks on small representations)
# ---------------------------------------------------------------------------

def hom_space_dense(big: MatrixRep, sub: MatrixRep,
                    max_unknowns: int = 1500) -> int:
    """Multiplicity by directly solving the full equivariance system
    T X_big = X_sub T (all subgroup generators) plus the reflection
    constraint.  Exponentially heavier than hom_space; intended as an
    independent check on small models."""
    nu = big.dim * sub.dim
    if nu > max_unknowns:
        raise InvalidRankError(f"dense route limited to {max_unknowns} unknowns, got {nu}")
    sframe = sub.frame
    pairs = [(a, b) for i, a in enumerate(sframe.indices) for b in sframe.indices[i + 1:]]
    rows: List[List[Qi]] = []

    def unk(i: int, j: int) -> int:
        return i * big.dim + j

    for (a, b) in pairs:
        Xb = big.action(a, b)
        Xs = sub.action(a, b)
        for i in range(sub.dim):
            for j in range(big.dim):
                row = [QI_ZERO] * nu
                for k in range(big.dim):
                    if not qis0(Xb[k][j]):
                        row[unk(i, k)] = qadd(row[unk(i, k)], Xb[k][j])
                for k in range(sub.dim):
                    if not qis0(Xs[i][k]):
                        row[unk(k, j)] = qsub(row[unk(k, j)], Xs[i][k])
                if any(not qis0(x) for x in row):
                    rows.append(row)
    Rb = big.reflection()
    Rs = sub.reflection()
    for i in range(sub.dim):
        for j in range(big.dim):
            row = [QI_ZERO] * nu
            for k in range(big.dim):
                if not qis0(Rb[k][j]):
                    row[unk(i, k)] = qadd(row[unk(i, k)], Rb[k][j])
            for k in range(sub.dim):
                if not qis0(Rs[i][k]):
                    row[unk(k, j)] = qsub(row[unk(k, j)], Rs[i][k])
            if any(not qis0(x) for x in row):
                rows.append(row)
    if not rows:
        return nu
    return len(nullspace(rows))
