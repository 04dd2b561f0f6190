from fractions import Fraction

import pytest

from orthobranch.branching import fd_label, full_decomposition, oracle_multiplicity
from orthobranch.homspace import hom_space, hom_space_dense
from orthobranch.linalg import qi, qis0
from orthobranch.matrixrep import act
from orthobranch.enveloping import gen
from orthobranch.weights import InvalidRankError, rank_context

from dense_reference import dense


def test_vector_to_trivial(reps):
    big = reps.get(3, (1, 0))
    sub = reps.get(3, (0,), 1, which="sub")
    mult, ops = hom_space(big, sub)
    assert mult == 1
    assert ops[0].verified
    assert any(not qis0(c) for row in dense(ops[0].matrix, sub.dim) for c in row)


def test_vector_to_vector(reps):
    big = reps.get(3, (1, 0))
    sub = reps.get(3, (1,), None, which="sub")
    mult, _ = hom_space(big, sub)
    assert mult == 1


def test_trivial_to_vector_vanishes(reps):
    big = reps.get(3, (0, 0))
    sub = reps.get(3, (1,), None, which="sub")
    mult, ops = hom_space(big, sub)
    assert mult == 0 and ops == []


def test_operator_equivariance_literal(reps):
    big = reps.get(3, (2, 1))
    sub = reps.get(3, (2,), None, which="sub")
    mult, ops = hom_space(big, sub)
    assert mult == 1
    T = dense(ops[0].matrix, sub.dim)
    for (a, b) in [(1, 2), (1, 3), (2, 3)]:
        Xb = dense(act(gen(a, b), big), big.dim)
        Xs = dense(act(gen(a, b), sub), sub.dim)
        lhs = [[sum_prod(T, Xb, i, j) for j in range(big.dim)] for i in range(sub.dim)]
        rhs = [[sum_prod(Xs, T, i, j) for j in range(big.dim)] for i in range(sub.dim)]
        assert lhs == rhs


def sum_prod(A, B, i, j):
    from orthobranch.linalg import qadd, qmul
    s = qi(0)
    for k in range(len(B)):
        s = qadd(s, qmul(A[i][k], B[k][j]))
    return s


def test_det_twist_sensitivity(reps):
    big = reps.get(3, (1, 0))
    plus = reps.get(3, (0,), 1, which="sub")
    minus = reps.get(3, (0,), -1, which="sub")
    assert hom_space(big, plus)[0] == 1
    assert hom_space(big, minus)[0] == 0


def test_matches_oracle_and_dense_small_grid(reps):
    cases = [
        (3, (1, 1), None),
        (3, (2, 0), None),
        (4, (1, 0), 1),
        (4, (1, 1), 1),
    ]
    for n, mu, eps in cases:
        big = reps.get(n, mu, eps)
        big_lab = fd_label(n + 1, mu, eps)
        for sub_lab, want in full_decomposition(big_lab):
            if sub_lab.group_size % 2:
                sub = reps.get(n, sub_lab.mu, sub_lab.eps, which="sub")
            else:
                sub = reps.get(n, sub_lab.mu, sub_lab.eps if sub_lab.mu[-1] == 0 else None,
                               which="sub")
            got, ops = hom_space(big, sub)
            assert got == want == oracle_multiplicity(big_lab, sub_lab)
            assert all(op.verified for op in ops)
            if big.dim * sub.dim <= 400:
                assert hom_space_dense(big, sub) == want


def test_requires_polynomial_models(reps):
    from orthobranch.matrixrep import standard_rep
    big = standard_rep(rank_context(3))
    sub = reps.get(3, (0,), 1, which="sub")
    with pytest.raises(InvalidRankError):
        hom_space(big, sub)


def test_dense_route_unknown_cap(reps):
    big = reps.get(3, (2, 1))
    sub = reps.get(3, (2,), None, which="sub")
    with pytest.raises(InvalidRankError):
        hom_space_dense(big, sub, max_unknowns=10)
