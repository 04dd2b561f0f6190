import random
from fractions import Fraction

import pytest

import dense_reference
from dense_reference import qi_matmul
from orthobranch.linalg import (
    TrackedEchelon,
    apply_cols,
    inverse,
    nullspace,
    qadd,
    qdiv,
    qi,
    qis0,
    qmul,
    rref,
    solve,
    sv_add_scaled,
    sv_scale,
)

F = Fraction


def rand_mat(rng, rows, cols, den=3):
    return [[F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(cols)]
            for _ in range(rows)]


def lift(rows):
    return [[qi(x) for x in row] for row in rows]


def identity(n):
    return [[qi(1) if i == j else qi(0) for j in range(n)] for i in range(n)]


def matvec(rows, vec):
    return [qi_matmul([row], [[x] for x in vec])[0][0] for row in rows]


def test_rank_and_nullspace():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert len(rref(lift(m), 3)) == 2
    ns = nullspace(lift(m))
    assert len(ns) == 1
    v = ns[0]
    assert all(qis0(x) for x in matvec(lift(m), v))


def test_solve_and_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_mat(rng, 4, 4)
        while dense_reference.rank(a) < 4:
            a = rand_mat(rng, 4, 4)
        inv = inverse(lift(a))
        assert qi_matmul(lift(a), inv) == identity(4)
        rhs = [qi(rng.randint(-5, 5)) for _ in range(4)]
        x = solve(lift(a), rhs)
        assert matvec(lift(a), x) == rhs


def test_inconsistent_solve_and_singular_inverse():
    m = lift([[F(1), F(2)], [F(2), F(4)]])
    assert solve(m, [qi(1), qi(3)]) is None
    assert solve(m, [qi(1), qi(2)]) == [qi(1), qi(0)]  # free unknown set to zero
    with pytest.raises(ValueError):
        inverse(m)


def test_nullspace_matches_dense_reference():
    rng = random.Random(7)
    for shape in [(2, 4), (3, 3), (4, 6), (5, 3), (3, 5)]:
        for _ in range(6):
            a = rand_mat(rng, *shape)
            if rng.random() < 0.5:  # repeat a combination of rows: lower the rank
                a[-1] = [x + 2 * y for x, y in zip(a[0], a[1 % len(a)])]
            want = [[qi(x) for x in vec] for vec in dense_reference.nullspace(a)]
            assert nullspace(lift(a)) == want


def test_qi_scalar_arithmetic():
    a, b = qi(1, 2), qi(3, -1)
    assert qadd(a, b) == qi(4, 1)
    assert qmul(a, b) == qi(5, 5)          # (1+2i)(3-i) = 5+5i
    assert qdiv(qmul(a, b), b) == a
    assert qis0(qi(0, 0)) and not qis0(a)


def test_sparse_vector_helpers():
    u = {0: qi(1), 2: qi(0, 1)}
    v = {0: qi(2), 1: qi(1, 1)}
    sv_add_scaled(u, v, qi(2))
    assert u == {0: qi(5), 1: qi(2, 2), 2: qi(0, 1)}
    sv_add_scaled(u, {0: qi(1)}, qi(-5))   # exact zeros are dropped
    assert u == {1: qi(2, 2), 2: qi(0, 1)}
    sv_add_scaled(u, {1: qi(1), 2: qi(0, 1)}, qi(-1))   # coefficients +-1 add, subtract
    assert u == {1: qi(1, 2)}
    sv_add_scaled(u, {1: qi(-1, -2), 3: qi(4)}, qi(1))
    assert u == {3: qi(4)}
    assert sv_scale(u, qi(0)) == {}
    cols = [{1: qi(1)}, {0: qi(0, 1)}]     # the matrix [[0, i], [1, 0]]
    assert apply_cols(cols, {0: qi(2), 1: qi(3)}) == {0: qi(0, 3), 1: qi(2)}
    out = {0: qi(0, -3)}
    assert apply_cols(cols, {1: qi(3)}, out) is out and out == {}


def test_qi_echelon_rank_tracking():
    ech = TrackedEchelon()
    assert ech.insert({0: qi(1), 1: qi(0, 1)}) == (0, {0: qi(1)})
    assert ech.insert({0: qi(2), 1: qi(0, 2)}) == (None, {0: qi(2)})   # dependent
    assert ech.insert({1: qi(1)}) == (1, {1: qi(1)})
    assert ech.insert({0: qi(7, 1)}) == (None, {0: qi(7, 1), 1: qi(1, -7)})
    assert ech.count == 2
    assert ech.coordinates({0: qi(7, 1)}) == {0: qi(7, 1), 1: qi(1, -7)}
    assert ech.coordinates({2: qi(1)}) is None


def test_qi_matrix_routines():
    rng = random.Random(11)
    a = [[qi(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(3)]
         for _ in range(3)]
    # force invertibility by adding 5 on the diagonal
    for i in range(3):
        a[i][i] = qadd(a[i][i], qi(5))
    inv = inverse(a)
    assert qi_matmul(a, inv) == identity(3)
    wide = [[qi(1), qi(0, 1), qi(2)]]
    ns = nullspace(wide)
    assert len(ns) == 2
    for v in ns:
        s = qi(0)
        for j in range(3):
            s = qadd(s, qmul(wide[0][j], v[j]))
        assert qis0(s)
