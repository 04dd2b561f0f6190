"""Closed-form scalar families for the symmetry-breaking identity.

For the pair o(n+1) > o(n), with lambda of length r and nu of length s:

  h_i(lambda)   = lambda_i * prod_{j != i} (lambda_i - lambda_j)(lambda_i + lambda_j)

  phi_{i,eps}(lambda), the normalizing polynomial:
      n odd:  2 * eps * h_i(lambda)
      n even: (2*lambda_i + eps) * h_i(lambda) / lambda_i, evaluated in the
              factored form (2*lambda_i + eps) * lambda_i-free product, i.e.
              (2*lambda_i + eps) * prod_{j != i} (...) * lambda_i

  g_{i,eps}(lambda, nu), the numerator of the universal scalar:
      n odd:  eps * lambda_i * prod_{j=1}^{s} (lambda_i - nu_j + eps/2)(lambda_i + nu_j + eps/2)
      n even:            prod_{j=1}^{s} (lambda_i - nu_j + eps/2)(lambda_i + nu_j + eps/2)

  C_{i,eps} = g_{i,eps} / phi_{i,eps} wherever phi does not vanish.

The eigenvalue closed forms b^(1..3) of the low Casimir powers are also here.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .records import FrozenRecord
from .weights import RankContext, Weight, as_weight, norms


class ScalarQuery(FrozenRecord):
    _fields = ("ctx", "i", "eps", "lam", "nu")

    def __init__(self, ctx: RankContext, i: int, eps: int, lam: Weight,
                 nu: Optional[Weight] = None) -> None:
        self.__dict__.update(ctx=ctx, i=i, eps=eps, lam=lam, nu=nu)  # eps is +1 or -1


def scalar_query(ctx: RankContext, i: int, eps, lam, nu=None) -> ScalarQuery:
    """Validated constructor; eps may be +-1 or '+'/'-'."""
    if isinstance(eps, str):
        eps = {"+": 1, "-": -1}[eps]
    if eps not in (1, -1):
        raise ValueError(f"eps must be +-1, got {eps!r}")
    if not 1 <= i <= ctx.r:
        raise ValueError(f"index i={i} out of range 1..{ctx.r}")
    lam = as_weight(lam)
    if len(lam) != ctx.r:
        raise ValueError(f"lambda must have length {ctx.r}")
    if nu is not None:
        nu = as_weight(nu)
        if len(nu) != ctx.s:
            raise ValueError(f"nu must have length {ctx.s}")
    return ScalarQuery(ctx=ctx, i=i, eps=eps, lam=lam, nu=nu)


class RationalFunctionValue(FrozenRecord):
    _fields = ("numerator", "denominator", "defined")

    def __init__(self, numerator: Fraction, denominator: Fraction, defined: bool) -> None:
        self.__dict__.update(numerator=numerator, denominator=denominator, defined=defined)

    @property
    def value(self) -> Fraction:
        if not self.defined:
            raise ZeroDivisionError("rational function value is undefined here")
        return self.numerator / self.denominator


def h_val(q: ScalarQuery) -> Fraction:
    lam = q.lam
    li = lam[q.i - 1]
    out = li
    for j, lj in enumerate(lam, start=1):
        if j != q.i:
            out *= (li - lj) * (li + lj)
    return out


def phi_val(q: ScalarQuery) -> Fraction:
    li = q.lam[q.i - 1]
    if q.ctx.n % 2:  # n odd
        return 2 * q.eps * h_val(q)
    return (2 * li + q.eps) * h_val(q)


def g_val(q: ScalarQuery) -> Fraction:
    if q.nu is None:
        raise ValueError("g needs a nu component")
    li = q.lam[q.i - 1]
    half_eps = Fraction(q.eps, 2)
    prod = Fraction(1)
    for nj in q.nu:
        prod *= (li - nj + half_eps) * (li + nj + half_eps)
    if q.ctx.n % 2:  # n odd
        return q.eps * li * prod
    return prod


def C_val(q: ScalarQuery) -> RationalFunctionValue:
    num = g_val(q)
    den = phi_val(q)
    return RationalFunctionValue(numerator=num, denominator=den, defined=den != 0)


def nonvanishing_predicate(q: ScalarQuery) -> bool:
    """True iff lambda_i + eps/2 avoids {+-nu_j} (and 0 as well when n is even)."""
    if q.nu is None:
        raise ValueError("the nonvanishing predicate needs a nu component")
    val = q.lam[q.i - 1] + Fraction(q.eps, 2)
    forbidden = {nj for nj in q.nu} | {-nj for nj in q.nu}
    if q.ctx.n % 2 == 0:
        forbidden.add(Fraction(0))
    return val not in forbidden


def b_closed(ell: int, ctx: RankContext, lam, nu) -> Fraction:
    """Closed forms for the first three transfered Casimir-power eigenvalues."""
    if ell not in (1, 2, 3):
        raise ValueError(f"closed forms exist for ell in {{1,2,3}}, got {ell}")
    lam, nu = as_weight(lam), as_weight(nu)
    n = ctx.n
    if ell == 1:
        return Fraction(0)
    _, lam2 = norms(lam)
    _, nu2 = norms(nu)
    if ell == 2:
        return lam2 - nu2 - Fraction(n * (n - 1), 8)
    return (1 - n) * lam2 + n * nu2 + Fraction((n - 1) * n * (2 * n - 1), 24)
