import random
from fractions import Fraction

from dense_reference import nullspace
from orthobranch.linalg import (
    QiEchelon,
    identity_matrix,
    inverse,
    matmul,
    matvec,
    qadd,
    qconj,
    qdiv,
    qi,
    qi_inverse,
    qi_matmul,
    qi_nullspace,
    qis0,
    qmul,
    rank,
    solve,
    sv_add_scaled,
    sv_conj,
    sv_is_real,
    sv_scale,
)

F = Fraction


def rand_mat(rng, rows, cols, den=3):
    return [[F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(cols)]
            for _ in range(rows)]


def test_rank_and_nullspace():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    v = ns[0]
    assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in m)


def test_solve_and_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_mat(rng, 4, 4)
        while rank(a) < 4:
            a = rand_mat(rng, 4, 4)
        inv = inverse(a)
        assert matmul(a, inv) == identity_matrix(4)
        rhs = [F(rng.randint(-5, 5)) for _ in range(4)]
        x = solve(a, rhs)
        assert matvec(a, x) == rhs


def test_qi_scalar_arithmetic():
    a, b = qi(1, 2), qi(3, -1)
    assert qadd(a, b) == qi(4, 1)
    assert qmul(a, b) == qi(5, 5)          # (1+2i)(3-i) = 5+5i
    assert qdiv(qmul(a, b), b) == a
    assert qconj(a) == qi(1, -2)
    assert qis0(qi(0, 0)) and not qis0(a)


def test_sparse_vector_helpers():
    u = {0: qi(1), 2: qi(0, 1)}
    v = {0: qi(2), 1: qi(1, 1)}
    sv_add_scaled(u, v, qi(2))
    assert u == {0: qi(5), 1: qi(2, 2), 2: qi(0, 1)}
    assert sv_scale(u, qi(0)) == {}
    assert sv_conj({0: qi(1, 3)}) == {0: qi(1, -3)}
    assert sv_is_real({0: qi(2)}) and not sv_is_real({0: qi(0, 1)})


def test_qi_echelon_rank_tracking():
    ech = QiEchelon()
    assert ech.insert({0: qi(1), 1: qi(0, 1)}) is not None
    assert ech.insert({0: qi(2), 1: qi(0, 2)}) is None   # dependent
    assert ech.insert({1: qi(1)}) is not None
    assert len(ech) == 2
    assert ech.contains({0: qi(7, 1)})


def test_qi_matrix_routines():
    rng = random.Random(11)
    a = [[qi(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(3)]
         for _ in range(3)]
    # force invertibility by adding 5 on the diagonal
    for i in range(3):
        a[i][i] = qadd(a[i][i], qi(5))
    inv = qi_inverse(a)
    prod = qi_matmul(a, inv)
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (qi(1) if i == j else qi(0))
    wide = [[qi(1), qi(0, 1), qi(2)]]
    ns = qi_nullspace(wide)
    assert len(ns) == 2
    for v in ns:
        s = qi(0)
        for j in range(3):
            s = qadd(s, qmul(wide[0][j], v[j]))
        assert qis0(s)
