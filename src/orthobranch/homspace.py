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
from typing import Dict, Iterator, List, Tuple

from .linalg import (
    Cols,
    Qi,
    QI_ONE,
    QI_ZERO,
    apply_cols,
    inverse,
    nullspace,
    qi,
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

    ``matrix`` holds dim(big) sparse columns: column j is the image of big
    basis vector j in sub-model coordinates.  ``seed_coords`` are the
    coordinates in the big model of the subgroup highest-weight vector the
    operator was grown from.
    """

    big: MatrixRep
    sub: MatrixRep
    matrix: Cols
    seed_coords: CoordVec = field(default_factory=dict)
    verified: bool = False


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


def _reflection_fixed_space(big: MatrixRep, sub: MatrixRep,
                            hw_basis: List[CoordVec]) -> List[List[Qi]]:
    """Basis, as coefficient vectors over hw_basis, of the vectors fixed by
    the involution w -> twists * reflect_big(S_w(pi(g) seed)), the
    obstruction for non-induced subgroup labels."""
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
    # the fixed vectors: kernel of M - I, M having the solutions as columns
    m = len(hw_basis)
    return nullspace([[qsub(out_cols[j][i], QI_ONE if i == j else QI_ZERO) for j in range(m)]
                      for i in range(m)])


def _transpose_pair_matrix(big: MatrixRep, sub: MatrixRep, s_images: List[Poly]) -> Cols:
    """T = B_sub^{-1} S^T B_big as dim(big) sparse columns."""
    bmodel = big.model
    bigframe = big.frame
    # (S^T B_big)[k][j] = B(s_k, b_j); pairing vanishes except on opposite tags
    by_weight: Dict[Tuple[int, ...], List[int]] = {}
    for j, t in enumerate(bmodel.tags):
        by_weight.setdefault(t, []).append(j)
    stb: Cols = [dict() for _ in range(big.dim)]
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
                stb[j][k] = v
    gram = sub.model.gram_rows()
    binv = inverse([[row.get(j, QI_ZERO) for j in range(sub.dim)] for row in gram])
    binv_cols = [{i: row[k] for i, row in enumerate(binv) if not qis0(row[k])}
                 for k in range(sub.dim)]
    return [apply_cols(binv_cols, col) for col in stb]


def _operator_pairs(big: MatrixRep, sub: MatrixRep) -> Iterator[Tuple[str, Cols, Cols]]:
    """What T X_big = X_sub T must hold for: each subgroup generator, then the
    distinguished reflection, as (name, X_big, X_sub)."""
    for (a, b) in sub.frame.generators:
        yield f"generator ({a},{b})", big.action(a, b), sub.action(a, b)
    yield "the reflection", big.reflection(), sub.reflection()


def _verify_operator(op: SymmetryBreakingOperator) -> None:
    T = op.matrix
    for what, xbig, xsub in _operator_pairs(op.big, op.sub):
        for j in range(op.big.dim):
            if apply_cols(T, xbig[j]) != apply_cols(xsub, T[j]):
                raise AssertionError(f"operator not equivariant for {what}")
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
    if sub.label.induced:
        chosen = hw
    else:
        chosen = []
        for combo in _reflection_fixed_space(big, sub, hw):
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
    rows: List[List[Qi]] = []
    for _what, xbig, xsub in _operator_pairs(big, sub):
        # row (i, j): (T X_big - X_sub T)[i][j] in the unknowns T[i][k] at i*dim(big)+k
        for i in range(sub.dim):
            for j in range(big.dim):
                row = [QI_ZERO] * nu
                for k, x in xbig[j].items():
                    row[i * big.dim + k] = x
                for k in range(sub.dim):
                    x = xsub[k].get(i)
                    if x is not None:
                        u = k * big.dim + j
                        row[u] = qsub(row[u], x)
                if any(not qis0(x) for x in row):
                    rows.append(row)
    if not rows:
        return nu
    return len(nullspace(rows))
