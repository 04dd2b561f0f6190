"""Reference values the benchmark computes without calling orthobranch.

Everything here follows the textbook formulas directly, so a wrong answer
from the program cannot be reproduced by sharing its code:

- O(N) labels (row lengths ``mu`` plus a sign ``eps``) and their partitions,
  with ``eps = -1`` meaning the associate partition (first column replaced
  by ``N`` minus it);
- the Weyl dimension formula for so(N), doubled for O(2r) labels with a
  nonzero last row;
- the interlacing branching rule O(N) > O(N-1);
- the own-group infinitesimal character ``mu + rho``;
- the closed forms of the universal scalar ``C = g / phi`` and of the
  coupled-power eigenvalues ``b^(1..3)``;
- the kernel dimension of the raising-operator matrix of the rank-one
  fusion problem, by plain elimination.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product


def rank_of(group_size: int) -> int:
    return max(1, group_size // 2)


def transpose(alpha):
    alpha = [a for a in alpha if a]
    if not alpha:
        return ()
    return tuple(sum(1 for a in alpha if a >= k) for k in range(1, alpha[0] + 1))


def valid_partition(group_size: int, alpha) -> bool:
    cols = transpose(alpha) + (0, 0)
    return cols[0] + cols[1] <= group_size


def associate(group_size: int, alpha):
    cols = list(transpose(alpha)) or [0]
    cols[0] = group_size - cols[0]
    return transpose(sorted((c for c in cols if c), reverse=True))


def label_partition(group_size: int, mu, eps) -> tuple:
    """Partition of the O(group_size) irrep with rows ``mu`` and sign ``eps``."""
    alpha = tuple(int(c) for c in mu if c)
    if eps == -1 and len(alpha) < group_size / 2:
        return associate(group_size, alpha)
    return alpha


def partition_label(group_size: int, beta):
    """Rows (padded to the rank) and sign of the O(group_size) irrep with
    partition ``beta``."""
    rank = rank_of(group_size)
    if len(beta) > rank:
        rows, eps = associate(group_size, beta), -1
    else:
        rows, eps = tuple(beta), 1
    return tuple(rows) + (0,) * (rank - len(rows)), eps


def own_rho(group_size: int):
    r = rank_of(group_size)
    if group_size % 2:
        return tuple(Fraction(2 * (r - i) + 1, 2) for i in range(1, r + 1))
    return tuple(Fraction(r - i) for i in range(1, r + 1))


def inf_char(group_size: int, mu):
    """``mu + rho`` with the rho of O(group_size) itself."""
    mu = tuple(mu) + (0,) * (rank_of(group_size) - len(mu))
    return tuple(Fraction(m) + p for m, p in zip(mu, own_rho(group_size)))


def o_dim(group_size: int, alpha) -> int:
    """Dimension of the O(group_size) irrep with partition ``alpha``."""
    alpha = tuple(a for a in alpha if a)
    if not valid_partition(group_size, alpha):
        raise ValueError(f"{alpha} is not an O({group_size}) label")
    r = rank_of(group_size)
    if len(alpha) > r:
        alpha = associate(group_size, alpha)
    mu = alpha + (0,) * (r - len(alpha))
    rho = own_rho(group_size)
    lam = [Fraction(m) + p for m, p in zip(mu, rho)]
    dim = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            dim *= (lam[i] ** 2 - lam[j] ** 2) / (rho[i] ** 2 - rho[j] ** 2)
        if group_size % 2:
            dim *= lam[i] / rho[i]
    if group_size % 2 == 0 and mu[-1] > 0:
        dim *= 2
    if dim.denominator != 1:
        raise ArithmeticError(f"non-integral Weyl dimension {dim}")
    return int(dim)


def interlacing(group_size: int, alpha) -> dict:
    """The restriction of O(group_size)'s irrep ``alpha`` to O(group_size-1):
    every valid partition ``beta`` with alpha_1 >= beta_1 >= alpha_2 >= ...,
    each with multiplicity 1."""
    alpha = tuple(a for a in alpha if a) + (0,)
    ranges = [range(alpha[k + 1], alpha[k] + 1) for k in range(len(alpha) - 1)]
    out = {}
    for beta in product(*ranges):
        beta = tuple(b for b in beta if b)
        if valid_partition(group_size - 1, beta):
            out[beta] = 1
    return out


def interlace_mult(big_size: int, alpha, beta) -> int:
    return interlacing(big_size, alpha).get(tuple(b for b in beta if b), 0)


def closed_scalar(n: int, i: int, eps: int, lam, nu):
    """(g, phi) of the universal scalar C_{i,eps} = g / phi."""
    li = lam[i - 1]
    h = li
    for j, lj in enumerate(lam, start=1):
        if j != i:
            h *= (li - lj) * (li + lj)
    g = Fraction(1)
    for nj in nu:
        g *= (li - nj + Fraction(eps, 2)) * (li + nj + Fraction(eps, 2))
    if n % 2:
        return eps * li * g, 2 * eps * h
    return g, (2 * li + eps) * h


def closed_b(ell: int, n: int, lam, nu) -> Fraction:
    lam2 = sum(c * c for c in lam)
    nu2 = sum(c * c for c in nu)
    if ell == 1:
        return Fraction(0)
    if ell == 2:
        return lam2 - nu2 - Fraction(n * (n - 1), 8)
    if ell == 3:
        return (1 - n) * lam2 + n * nu2 + Fraction(n * (n - 1) * (2 * n - 1), 24)
    raise ValueError(f"no closed form for ell = {ell}")


def rank(rows) -> int:
    """Rank by fraction-free row elimination (exact for ints and Fractions)."""
    work = [list(r) for r in rows]
    rk = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((k for k in range(rk, len(work)) if work[k][col]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        p = work[rk]
        for k in range(rk + 1, len(work)):
            x = work[k][col]
            if x:
                work[k] = [p[col] * v - x * u for u, v in zip(p, work[k])]
        rk += 1
    return rk


def fusion_kernel(a, b, c) -> int:
    """Dimension of the raising operator's kernel on the weight-c space of
    the tensor product of the rank-one modules of highest weights a and b."""
    a, b, c = (Fraction(x) for x in (a, b, c))
    k2 = a + b - c
    if k2.denominator != 1 or k2 < 0 or k2.numerator % 2:
        return 0
    if a.denominator == b.denominator == 1:
        a, b = int(a), int(b)
    k = int(k2) // 2
    rows = [[0] * (k + 1) for _ in range(k)]
    for m in range(k + 1):
        if m >= 1:
            rows[m - 1][m] += m * (a - m + 1)
        if m < k:
            rows[m][m] += (k - m) * (b - k + m + 1)
    return k + 1 - rank(rows)
