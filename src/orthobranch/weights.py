"""Rank contexts, nonsingularity, dominance chambers, and lattice boxes.

The ambient situation is the nested pair of Lie algebras o(n+1) > o(n) with
ranks r = floor((n+1)/2) and s = floor(n/2).  Weights are tuples of exact
rationals of length r (or s on the subgroup side).  The working root family on
the rank-r side is {±e_i ± e_j} together with the short elements {±e_i}
(adjoined by convention when o(n+1) is of type D).

Pairing convention: long roots pair as ±x_i ± x_j.  Short elements use the
doubled pairing ±2x_i for integrality tests (so the half-integer lattice
behaves correctly) and the plain ±x_i for chamber positivity.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Tuple

from .records import FrozenRecord

Weight = Tuple[Fraction, ...]


class InvalidRankError(ValueError):
    """Raised for rank contexts with n < 2."""


class SingularWeightError(ValueError):
    """Raised when an operation needs a nonsingular weight but got a singular one."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed the configured desk-scale caps."""


def as_weight(coords) -> Weight:
    """Coerce a sequence of rational-ish things to a tuple of Fractions."""
    return tuple(Fraction(c) for c in coords)


class RankContext(FrozenRecord):
    _fields = ("n", "r", "s", "parity")

    def __init__(self, n: int, r: int, s: int, parity: str) -> None:
        self.__dict__.update(n=n, r=r, s=s, parity=parity)  # parity of n: "odd" or "even"


def rank_context(n: int) -> RankContext:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidRankError(f"rank context needs an integer n >= 2, got {n!r}")
    return RankContext(n=n, r=(n + 1) // 2, s=n // 2, parity="odd" if n % 2 else "even")


def group_rho(m: int) -> Weight:
    """Half sum of positive roots for o(m), normalized so the trivial rep of
    O(m) has infinitesimal character rho: (m/2 - 1, m/2 - 2, ..., m/2 - floor(m/2))."""
    return tuple(Fraction(m - 2 * i, 2) for i in range(1, m // 2 + 1))


def rho(ctx: RankContext) -> Weight:
    """rho for the big side o(n+1): ((n-1)/2, (n-3)/2, ..., (n+1)/2 - r)."""
    return group_rho(ctx.n + 1)


def is_nonsingular(lam) -> bool:
    """True iff every coordinate is nonzero and absolute values are pairwise distinct."""
    lam = as_weight(lam)
    if any(c == 0 for c in lam):
        return False
    mags = [abs(c) for c in lam]
    return len(set(mags)) == len(mags)


def norms(lam):
    """Return (l1, l2_squared) = (sum |c|, sum c^2), both exact."""
    lam = as_weight(lam)
    l1 = sum((abs(c) for c in lam), Fraction(0))
    l2sq = sum((c * c for c in lam), Fraction(0))
    return l1, l2sq


class SignedRoot(FrozenRecord):
    """A root from {±(e_i - e_j), ±(e_i + e_j), ±e_i}.

    kind is "diff" (e_i - e_j), "sum" (e_i + e_j) or "short" (e_i); sign is the
    overall sign in {+1, -1}; indices are 1-based with i < j for two-index kinds.
    """

    _fields = ("kind", "sign", "i", "j")

    def __init__(self, kind: str, sign: int, i: int, j: Optional[int] = None) -> None:
        self.__dict__.update(kind=kind, sign=sign, i=i, j=j)

    def chamber_pairing(self, w) -> Fraction:
        w = as_weight(w)
        if self.kind == "diff":
            val = w[self.i - 1] - w[self.j - 1]
        elif self.kind == "sum":
            val = w[self.i - 1] + w[self.j - 1]
        else:
            val = w[self.i - 1]
        return self.sign * val

    def integrality_pairing(self, w) -> Fraction:
        val = self.chamber_pairing(w)
        if self.kind == "short":
            val = 2 * val
        return val


def _root_patterns(rank: int):
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            yield ("diff", i, j)
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            yield ("sum", i, j)
    for i in range(1, rank + 1):
        yield ("short", i, None)


def _positive_system_raw(xi: Weight):
    if not is_nonsingular(xi):
        raise SingularWeightError(f"positive system undefined for singular weight {xi}")
    roots = []
    for kind, i, j in _root_patterns(len(xi)):
        for sign in (1, -1):
            root = SignedRoot(kind=kind, sign=sign, i=i, j=j)
            pairing = root.integrality_pairing(xi)
            if pairing.denominator == 1 and pairing > 0:
                roots.append(root)
    return roots


def positive_system(xi, ctx: RankContext):
    """All roots alpha with <alpha^vee, xi> a positive integer, in canonical order."""
    xi = as_weight(xi)
    if len(xi) != ctx.r:
        raise ValueError(f"weight length {len(xi)} does not match rank {ctx.r}")
    return _positive_system_raw(xi)


def chamber_test(xi):
    """The chamber test of xi: eta -> True iff eta pairs strictly positively
    with every root of the positive integral system attached to xi (xi must
    be nonsingular).  That system is computed once, each root's chamber
    pairing as its int coefficients; the test takes eta over a common
    denominator and pairs in ints."""
    xi = as_weight(xi)
    rank = len(xi)
    units = [tuple(int(k == t) for k in range(rank)) for t in range(rank)]
    forms = [[int(root.chamber_pairing(u)) for u in units] for root in _positive_system_raw(xi)]

    def inside(eta) -> bool:
        eta = as_weight(eta)
        if len(eta) != rank:
            raise ValueError("weights live in different rank spaces")
        common = lcm(*(c.denominator for c in eta))
        ints = [c.numerator * (common // c.denominator) for c in eta]
        return all(sum(map(mul, form, ints)) > 0 for form in forms)

    return inside


def _integer_shifts(rank: int, budget: int):
    """Yield all integer vectors m of the given length with sum |m_i| <= budget."""
    if rank == 0:
        yield ()
        return
    for head in range(-budget, budget + 1):
        for tail in _integer_shifts(rank - 1, budget - abs(head)):
            yield (head,) + tail


def lattice_box(xi, bound, ctx: RankContext):
    """All lattice translates xi + m (m integral) inside the chamber of xi with
    |lambda - xi|_1 <= bound, sorted lexicographically."""
    xi = as_weight(xi)
    if len(xi) != ctx.r:
        raise ValueError(f"weight length {len(xi)} does not match rank {ctx.r}")
    bound = Fraction(bound)
    if bound < 0:
        return []
    if not is_nonsingular(xi):
        raise SingularWeightError(f"lattice box undefined for singular base {xi}")
    budget = int(bound)  # truncation: steps are integral, so only floor matters
    inside = chamber_test(xi)
    out = []
    for shift in _integer_shifts(len(xi), budget):
        lam = tuple(x + m for x, m in zip(xi, shift))
        if inside(lam):
            out.append(lam)
    out.sort()
    return out
