import random
from fractions import Fraction

import pytest

import dense_reference
from dense_reference import qi_matmul
from orthobranch.linalg import Gi, TrackedEchelon, apply_cols, kernel
from orthobranch.polyarith import p_add_into

F = Fraction


def rand_mat(rng, rows, cols, den=3):
    return [[F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(cols)]
            for _ in range(rows)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matvec(rows, vec):
    return [qi_matmul([row], [[x] for x in vec])[0][0] for row in rows]


def sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


def columns(rows):
    """The sparse columns of a matrix given by its dense rows."""
    return [sparse(col) for col in zip(*rows)]


def solve(rows, rhs):
    """One solution of rows * x = rhs, read as the coordinates of rhs over
    the columns (zero at the dependent ones), or None if inconsistent."""
    ech = TrackedEchelon()
    independent = [j for j, col in enumerate(columns(rows)) if ech.insert(col)[0] is not None]
    x = ech.coordinates(sparse(rhs))
    if x is None:
        return None
    out = [0] * len(rows[0])
    for i, c in x.items():
        out[independent[i]] = c
    return out


def inverse(rows):
    """Row r of the inverse is the expansion of e_r over the rows."""
    ech = TrackedEchelon()
    if any(ech.insert(sparse(row))[0] is None for row in rows):
        raise ValueError("matrix is singular")
    n = len(rows)
    return [[row.get(i, 0) for i in range(n)] for row in (ech.coordinates({r: 1}) for r in range(n))]


def dense_kernel(rows):
    n = len(rows[0])
    return [[v.get(j, 0) for j in range(n)] for v in kernel(columns(rows))]


def test_rank_and_nullspace():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    ech = TrackedEchelon()
    assert [ech.insert(sparse(row))[0] for row in m] == [0, None, 1]   # rank 2
    ns = dense_kernel(m)
    assert len(ns) == 1
    v = ns[0]
    assert not any(matvec(m, v))
    # a zero column is a kernel vector on its own; all-zero columns give the identity
    assert kernel([{0: 1}, {}, {0: 2, 1: 1}]) == [{1: 1}]
    assert kernel([{}, {}]) == [{0: 1}, {1: 1}] and kernel([]) == []


def test_solve_and_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_mat(rng, 4, 4)
        while dense_reference.rank(a) < 4:
            a = rand_mat(rng, 4, 4)
        inv = inverse(a)
        assert qi_matmul(a, inv) == identity(4) == qi_matmul(inv, a)
        rhs = [rng.randint(-5, 5) for _ in range(4)]
        x = solve(a, rhs)
        assert matvec(a, x) == rhs


def test_inconsistent_solve_and_singular_inverse():
    m = [[F(1), F(2)], [F(2), F(4)]]
    assert solve(m, [1, 3]) is None
    assert solve(m, [1, 2]) == [1, 0]  # free unknown set to zero
    with pytest.raises(ValueError):
        inverse(m)


def test_nullspace_matches_dense_reference():
    rng = random.Random(7)
    for shape in [(2, 4), (3, 3), (4, 6), (5, 3), (3, 5)]:
        for _ in range(6):
            a = rand_mat(rng, *shape)
            if rng.random() < 0.5:  # repeat a combination of rows: lower the rank
                a[-1] = [x + 2 * y for x, y in zip(a[0], a[1 % len(a)])]
            want = dense_reference.nullspace(a)
            assert dense_kernel(a) == want
    for _ in range(6):   # Gaussian rationals, rank 2 of 3 rows
        a = [[Gi(F(rng.randint(-3, 3)), F(rng.randint(-3, 3), rng.randint(1, 3)))
              for _ in range(5)] for _ in range(2)]
        a.append([x - Gi(0, 2) * y for x, y in zip(a[0], a[1])])
        assert dense_kernel(a) == dense_reference.nullspace(a)


def test_qi_scalar_arithmetic():
    a, b = Gi(1, 2), Gi(3, -1)
    assert a + b == Gi(4, 1) and a - b == Gi(-2, 3)
    assert a * b == Gi(5, 5)          # (1+2i)(3-i) = 5+5i
    assert a * b / b == a and (a / b) * b == a   # division round trips
    for x in (0, 7, F(-2, 3)):
        assert Gi(x, 0) is x and Gi(x, F(0)) is x
    assert Gi(0, 1) * Gi(0, -1) == 1 and type(Gi(0, 1) * Gi(0, -1)) is int
    assert type(a - a) is int and a - a == 0
    # an int or a Fraction on either side
    assert F(1, 2) / Gi(0, 1) == Gi(0, F(-1, 2))
    assert 3 * Gi(1, 1) == Gi(3, 3) == Gi(1, 1) * 3
    assert 1 - Gi(1, 1) == Gi(0, -1) and F(1) + Gi(0, 2) == Gi(1, 2) == Gi(0, 2) + 1
    assert -Gi(1, -1) == Gi(-1, 1)
    # equality and hash against reals
    assert Gi(1, 1) != 1 and 1 != Gi(1, 1) and Gi(1, 1) != F(1)
    assert Gi(2, F(1, 2)) == Gi(F(2), F(1, 2))
    assert hash(Gi(2, F(1, 2))) == hash(Gi(F(2), F(1, 2)))
    assert {Gi(0, 1) * Gi(0, -1), F(1), 1, Gi(1, 1), Gi(F(1), 1)} == {1, Gi(1, 1)}
    with pytest.raises(ZeroDivisionError):
        Gi(1, 1) / 0
    with pytest.raises(ZeroDivisionError):
        Gi(1, 1) / F(0)
    with pytest.raises(TypeError):
        Gi(1, 1) < Gi(2, 1)           # no ordering
    # no float from int operands
    for x in (Gi(3, 4) / 2, 3 / Gi(3, 4), Gi(3, 4) / Gi(1, 2)):
        assert isinstance(x, Gi) and {type(x.re), type(x.im)} <= {int, F}
    assert type(Gi(2, 2) / Gi(1, 1)) is F
    assert {type(x) for row in inverse([[2, 1], [1, 1]]) for x in row} <= {int, F}
    assert {type(x) for x in solve([[2, 0], [0, 3]], [1, 1])} == {F}
    assert {type(x) for v in kernel([{0: 2}, {0: 3}, {1: 1}, {1: 5}]) for x in v.values()} == {int, F}


def test_sparse_vector_helpers():
    u = {0: 1, 2: Gi(0, 1)}
    v = {0: 2, 1: Gi(1, 1)}
    p_add_into(u, v, 2)
    assert u == {0: 5, 1: Gi(2, 2), 2: Gi(0, 1)}
    p_add_into(u, {0: 1}, -5)   # exact zeros are dropped
    assert u == {1: Gi(2, 2), 2: Gi(0, 1)}
    p_add_into(u, {1: 1, 2: Gi(0, 1)}, -1)   # coefficients +-1 add, subtract
    assert u == {1: Gi(1, 2)}
    p_add_into(u, {1: Gi(-1, -2), 3: 4}, 1)
    assert u == {3: 4}
    p_add_into(u, {3: 1, 4: 1}, 0)   # a zero scale changes nothing
    assert u == {3: 4}
    p_add_into(u, {3: Gi(0, 1)}, Gi(0, 1))   # i * i leaves a real entry
    assert u == {3: 3} and type(u[3]) is int
    cols = [{1: 1}, {0: Gi(0, 1)}]     # the matrix [[0, i], [1, 0]]
    assert apply_cols(cols, {0: 2, 1: 3}) == {0: Gi(0, 3), 1: 2}
    out = {0: Gi(0, -3)}
    assert apply_cols(cols, {1: 3}, out) is out and out == {}


def test_qi_echelon_rank_tracking():
    ech = TrackedEchelon()
    assert ech.insert({0: 1, 1: Gi(0, 1)}) == (0, {0: 1})
    assert ech.insert({0: 2, 1: Gi(0, 2)}) == (None, {0: 2})   # dependent
    assert ech.insert({1: 1}) == (1, {1: 1})
    assert ech.insert({0: Gi(7, 1)}) == (None, {0: Gi(7, 1), 1: Gi(1, -7)})
    assert ech.count == 2
    assert ech.coordinates({0: Gi(7, 1)}) == {0: Gi(7, 1), 1: Gi(1, -7)}
    assert ech.coordinates({2: 1}) is None


def test_qi_matrix_routines():
    rng = random.Random(11)
    a = [[Gi(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(3)]
         for _ in range(3)]
    # force invertibility by adding 5 on the diagonal
    for i in range(3):
        a[i][i] = a[i][i] + 5
    inv = inverse(a)
    assert qi_matmul(a, inv) == identity(3)
    wide = [[1, Gi(0, 1), 2]]
    ns = dense_kernel(wide)
    assert len(ns) == 2 and ns == dense_reference.nullspace(wide)
    for v in ns:
        s = 0
        for j in range(3):
            s = s + wide[0][j] * v[j]
        assert s == 0
