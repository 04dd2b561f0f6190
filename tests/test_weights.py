from fractions import Fraction

import pytest

from orthobranch.weights import (
    InvalidRankError,
    SingularWeightError,
    as_weight,
    group_rho,
    chamber_test,
    is_nonsingular,
    lattice_box,
    norms,
    positive_system,
    rank_context,
    rho,
)


def test_rank_context_splits():
    ctx = rank_context(4)
    assert (ctx.n, ctx.r, ctx.s) == (4, 2, 2)
    assert ctx.parity == "even"
    ctx = rank_context(3)
    assert (ctx.n, ctx.r, ctx.s) == (3, 2, 1)
    assert ctx.parity == "odd"
    ctx = rank_context(2)
    assert (ctx.n, ctx.r, ctx.s) == (2, 1, 1)


def test_rank_context_rejects_bad_n():
    with pytest.raises(InvalidRankError):
        rank_context(1)
    with pytest.raises(InvalidRankError):
        rank_context(0)


def test_rho_values():
    assert rho(rank_context(4)) == (Fraction(3, 2), Fraction(1, 2))
    assert rho(rank_context(3)) == (Fraction(1), Fraction(0))
    # the subgroup side o(n) of the pair has rho = group_rho(n)
    assert group_rho(4) == (Fraction(1), Fraction(0))
    assert group_rho(3) == (Fraction(1, 2),)


def test_as_weight_parses_rationals():
    assert as_weight(["3/2", 1]) == (Fraction(3, 2), Fraction(1))
    assert as_weight((Fraction(1, 2),)) == (Fraction(1, 2),)


def test_nonsingular():
    assert is_nonsingular((Fraction(3, 2), Fraction(1, 2)))
    assert not is_nonsingular((1, 1))
    assert not is_nonsingular((1, -1))
    assert not is_nonsingular((1, 0, 0))


def test_norms():
    l1, l2 = norms((3, -4))
    assert l1 == 7 and l2 == 25


def test_positive_system_and_chamber():
    ctx = rank_context(4)
    xi = (Fraction(9, 2), Fraction(5, 2))
    roots = positive_system(xi, ctx)
    assert len(roots) == 4  # e1-e2, e1+e2, e1, e2 oriented positively
    inside = chamber_test(xi)
    assert inside((Fraction(11, 2), Fraction(5, 2)))
    assert not inside((Fraction(5, 2), Fraction(5, 2)))
    assert not inside((Fraction(9, 2), Fraction(-5, 2)))


def test_chamber_negative_coordinate_base():
    # a base with a negative coordinate orients the short root the other way
    xi = (Fraction(9, 2), Fraction(-5, 2))
    inside = chamber_test(xi)
    assert inside((Fraction(9, 2), Fraction(-7, 2)))
    assert not inside((Fraction(9, 2), Fraction(5, 2)))


def test_chamber_singular_base_rejected():
    with pytest.raises(SingularWeightError):
        chamber_test((1, 1))((2, 1))


def test_lattice_box_contents():
    ctx = rank_context(4)
    xi = (Fraction(9, 2), Fraction(5, 2))
    pts = lattice_box(xi, 1, ctx)
    inside = chamber_test(xi)
    assert xi in pts
    for p in pts:
        assert all((a - b).denominator == 1 for a, b in zip(p, xi))
        assert inside(p)
    assert (Fraction(11, 2), Fraction(5, 2)) in pts
    # out-of-chamber translate is excluded
    assert (Fraction(7, 2), Fraction(7, 2)) not in pts


def test_lattice_box_zero_bound():
    ctx = rank_context(4)
    xi = (Fraction(9, 2), Fraction(5, 2))
    assert lattice_box(xi, 0, ctx) == [xi]
