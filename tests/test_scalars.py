import itertools
import math
import random
from fractions import Fraction

import pytest

from dense_reference import tuple_mul
from orthobranch.polyarith import p_add_into
from orthobranch.scalars import (
    C_val,
    b_closed,
    g_val,
    h_val,
    nonvanishing_predicate,
    phi_val,
    scalar_query,
)
from orthobranch.weights import rank_context

CTX3 = rank_context(3)
CTX4 = rank_context(4)


def p_const(c, nvars):
    return {(0,) * nvars: Fraction(c)} if c else {}


def p_var(index, nvars, coeff=1):
    return {tuple(int(k == index) for k in range(nvars)): Fraction(coeff)}


def p_sum(*polys):
    out = {}
    for p in polys:
        p_add_into(out, p)
    return out


def total_degree(poly):
    """Total degree; -1 for the zero polynomial."""
    return max((sum(exp) for exp in poly), default=-1)


def g_symbolic(ctx, i, eps):
    """g_{i,eps} expanded as an exact polynomial in (lambda_1..lambda_r,
    nu_1..nu_s), variables ordered lambda first, then nu."""
    nvars = ctx.r + ctx.s
    li = p_var(i - 1, nvars)
    half_eps = p_const(Fraction(eps, 2), nvars)
    poly = p_const(1, nvars)
    for j in range(ctx.s):
        left = p_sum(li, p_var(ctx.r + j, nvars, -1), half_eps)
        right = p_sum(li, p_var(ctx.r + j, nvars), half_eps)
        poly = tuple_mul(poly, tuple_mul(left, right))
    if ctx.n % 2:
        poly = tuple_mul(p_var(i - 1, nvars, eps), poly)
    return poly


def q4(i, eps, lam, nu=None):
    return scalar_query(CTX4, i, eps, lam, nu)


def q3(i, eps, lam, nu=None):
    return scalar_query(CTX3, i, eps, lam, nu)


def test_h_values():
    assert h_val(q4(1, 1, ("3/2", "1/2"))) == 3
    assert h_val(q4(2, 1, ("1", "0"))) == 0
    assert h_val(q4(1, 1, ("2", "1"))) == 6


def test_phi_values():
    assert phi_val(q4(1, 1, ("3/2", "1/2"))) == 12
    assert phi_val(q3(1, -1, ("2", "1"))) == -12
    assert phi_val(q4(1, -1, ("1/2", "1/4"))) == 0


def test_g_values():
    assert g_val(q4(1, 1, ("3/2", "1/2"), ("1", "0"))) == 12
    assert g_val(q3(1, -1, ("2", "1"), ("1/2",))) == -4
    assert g_val(q4(1, 1, ("1/2", "1/4"), ("1", "0"))) == 0


def test_C_values():
    c = C_val(q4(1, 1, ("3/2", "1/2"), ("1", "0")))
    assert c.defined and Fraction(c.numerator, 1) / c.denominator == 1
    c = C_val(q3(1, 1, ("2", "0"), ("1/2",)))
    assert c.defined and Fraction(c.numerator, 1) / c.denominator == Fraction(3, 4)
    c = C_val(q4(1, -1, ("1/2", "1/4"), ("1", "0")))
    assert not c.defined


def test_nonvanishing_predicate():
    assert nonvanishing_predicate(q4(1, 1, ("3/2", "1/2"), ("1", "0")))
    assert not nonvanishing_predicate(q4(1, 1, ("1/2", "1/4"), ("1", "0")))
    assert not nonvanishing_predicate(q4(1, 1, ("-1/2", "1/4"), ("2", "0")))


def test_b_closed_values():
    lam, nu = ("3/2", "1/2"), ("1", "0")
    assert b_closed(1, CTX4, lam, nu) == 0
    assert b_closed(2, CTX4, lam, nu) == 0
    assert b_closed(3, CTX4, lam, nu) == 0
    assert b_closed(2, CTX3, ("2", "0"), ("1/2",)) == Fraction(4 - Fraction(1, 4) - Fraction(3 * 2, 8))
    with pytest.raises(ValueError):
        b_closed(4, CTX4, lam, nu)


def test_phi_h_relation():
    rng = random.Random(7)
    for _ in range(50):
        lam = (Fraction(rng.randint(-8, 8), 2), Fraction(rng.randint(-8, 8), 2))
        for i in (1, 2):
            for eps in (1, -1):
                qo = q3(i, eps, lam)
                assert phi_val(qo) == 2 * eps * h_val(qo)
                qe = q4(i, eps, lam)
                li = lam[i - 1]
                assert phi_val(qe) == (2 * li + eps) * h_val(qe)


def _signed_perms(vals):
    r = len(vals)
    for perm in itertools.permutations(range(r)):
        for signs in itertools.product((1, -1), repeat=r):
            yield tuple(signs[k] * vals[perm[k]] for k in range(r))


def test_g_invariance_under_sub_weyl_group():
    lam = (Fraction(5, 2), Fraction(1, 2))
    nu = (Fraction(2), Fraction(1))
    base = g_val(q4(1, 1, lam, nu))
    for nu2 in _signed_perms(nu):
        assert g_val(q4(1, 1, lam, nu2)) == base


def test_g_phi_invariance_fixing_coordinate_i():
    # signed permutations of lambda that fix the first coordinate
    lam = (Fraction(7, 2), Fraction(3, 2), )
    nu = (Fraction(1), Fraction(0))
    g0 = g_val(q4(1, 1, lam, nu))
    p0 = phi_val(q4(1, 1, lam, nu))
    flipped = (lam[0], -lam[1])
    assert g_val(q4(1, 1, flipped, nu)) == g0
    assert phi_val(q4(1, 1, flipped, nu)) == p0


def test_reflection_law():
    rng = random.Random(11)
    for ctx, s in ((CTX3, 1), (CTX4, 2)):
        for _ in range(25):
            lam = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(2))
            nu = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(s))
            for i in (1, 2):
                refl = tuple(-c if k == i - 1 else c for k, c in enumerate(lam))
                lhs = g_val(scalar_query(ctx, i, 1, lam, nu))
                rhs = g_val(scalar_query(ctx, i, -1, refl, nu))
                assert lhs == rhs


def test_g_degree_bound():
    rng = random.Random(12)
    for ctx in (CTX3, CTX4):
        for i in (1, 2):
            for eps in (1, -1):
                poly = g_symbolic(ctx, i, eps)
                assert total_degree(poly) <= ctx.n
                # the expansion is g itself: compare values at random points
                for _ in range(5):
                    lam = tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(ctx.r))
                    nu = tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(ctx.s))
                    point = lam + nu
                    value = sum(c * math.prod(x ** e for x, e in zip(point, exp))
                                for exp, c in poly.items())
                    assert value == g_val(scalar_query(ctx, i, eps, lam, nu))


def test_nonvanishing_matches_g_even_n():
    # For even n the predicate excludes one extra point beyond the zero set of
    # g: the value lam_i + eps/2 = 0, which is exactly where the numerator of
    # the denominator family picks up its (2*lam_i + eps) factor.  So the
    # honest equivalence is: predicate  <=>  g != 0  and  2*lam_i + eps != 0.
    rng = random.Random(13)
    for _ in range(100):
        lam = (Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2))
        nu = (Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2))
        for i in (1, 2):
            for eps in (1, -1):
                qq = q4(i, eps, lam, nu)
                extra = 2 * lam[i - 1] + eps != 0
                assert nonvanishing_predicate(qq) == (g_val(qq) != 0 and extra)
                if nonvanishing_predicate(qq):
                    assert g_val(qq) != 0


def test_nonvanishing_implies_g_odd_n():
    rng = random.Random(14)
    for _ in range(100):
        lam = (
            Fraction(rng.randint(-6, 6), 2),
            Fraction(rng.randint(-6, 6), 2),
        )
        nu = (Fraction(rng.randint(-6, 6), 2),)
        for i in (1, 2):
            for eps in (1, -1):
                qq = q3(i, eps, lam, nu)
                if nonvanishing_predicate(qq) and lam[i - 1] != 0:
                    assert g_val(qq) != 0
