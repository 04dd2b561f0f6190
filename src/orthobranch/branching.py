"""Finite-dimensional branching for the pair O(n+1) > O(n).

The oracle route is pure character arithmetic, independent of any matrix
realization:

1. the dominant part of the big irrep's weight multiset: its Freudenthal
   table on dominant weights (one table also when the even-size group label
   has a full-length row vector: its mirror's table restricts to the same
   part, so the restriction is doubled),
2. restriction of that dominant part to the subgroup, by counting the Weyl
   orbit points that land on each of the subgroup's dominant weights,
3. the so(n)-constituents of that restriction, each coefficient read off
   the restricted dominant part by Racah's alternating sum over the Weyl
   group (``characters.peel``); every coefficient must be nonnegative, which
   checks steps 1 and 2,
4. resolution of the O(n)-labels (det-twists) from the big irrep's
   character on the non-identity component of O(n), its twisted character.
   Its value at the coset torus point is a Weyl-invariant Laurent
   polynomial, and the twisted counts d_beta = #beta - #assoc(beta) are
   its coefficients over the constituents' twisted characters, read off its
   dominant part by Racah's sum again.  For odd size 2s+1 the twisted
   character is read off step 1's table (O(2s+1) = SO(2s+1) x {+-I}), and
   the constituents' twisted characters are those of Sp(2s-2) (R. Wendt,
   "Weyl's character formula for non-connected Lie groups and orthogonal
   groups", Ann. of Math. 154 (2001)), so the sum is of type C_{s-1}.  For
   even size the twisted character is the h-determinant at the coset
   eigenvalues, and the constituents' are (-1)^|beta| times so(n)-characters,
   so the sum is of type B.  Its sum over the orbits must equal its value at
   t = 1, taken independently (the trace check).  A self-associate label of
   an even-size group is induced from the rotation subgroup, so its
   character there is zero and nothing is computed: every ambiguous
   constituent splits evenly.

Labels are `FDLabel` records: group parity tag, weakly decreasing nonnegative
integer rows mu, and an optional sign eps selecting the det-twist (equivalent
to passing the associate partition).  `interlace_predicate` is the closed-form
prediction -- partition interlacing filtered by the two-column validity
condition -- and is cross-validated against the oracle in the test suite.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional, Tuple

from .characters import (
    CharacterCheckError,
    associate_partition,
    dominant_char,
    is_so_dominant,
    label_to_partition,
    o_char_on_multiset,
    o_irrep_dim,
    partition_to_label,
    partition_valid_for_o,
    peel,
    racah_coefficients,
    restrict_weights,
    so_rank,
    weyl_dim,
)
from .records import FrozenRecord
from .regions import (
    FencePreconditionError,
    RegionDescriptor,
    away_from_fences,
    region_descriptor,
    same_region,
)
from .weights import (
    RankContext,
    ResourceLimitError,
    Weight,
    as_weight,
    group_rho,
    lattice_box,
    rank_context,
    rho,
)

O_ODD = "O_odd"
O_EVEN = "O_even"


class FDLabel(FrozenRecord):
    """Finite-dimensional irrep label for an orthogonal group O(N).

    group_tag is "O_odd" (N = 2*rank+1) or "O_even" (N = 2*rank); mu holds the
    row lengths padded to the rank; eps = -1 selects the det-twist (associate
    partition).  For O_odd eps is mandatory; for O_even it defaults to +1 and
    is only meaningful when mu has a zero last row (otherwise the two signs
    name the same irrep and the label is canonicalized to +1).
    """

    _fields = ("group_tag", "mu", "eps")

    def __init__(self, group_tag: str, mu: Tuple[int, ...], eps: Optional[int] = None) -> None:
        if group_tag not in (O_ODD, O_EVEN):
            raise ValueError(f"unknown group tag {group_tag!r}")
        mu = tuple(int(c) for c in mu)
        if any(c < 0 for c in mu) or list(mu) != sorted(mu, reverse=True):
            raise ValueError(f"rows {mu} must be weakly decreasing and nonnegative")
        if not mu:
            raise ValueError("rows must have positive length (the group rank)")
        if group_tag == O_ODD:
            if eps not in (1, -1):
                raise ValueError("O_odd labels require eps in {+1,-1}")
        else:
            if eps is None:
                eps = 1
            if eps not in (1, -1):
                raise ValueError("eps must be +1 or -1")
            if mu[-1] >= 1:
                eps = 1  # induced: the det-twist is isomorphic; canonical +
        self.__dict__.update(group_tag=group_tag, mu=mu, eps=eps)

    @property
    def induced(self) -> bool:
        """Even group size with a nonzero last row: the irreducible is induced
        from the rotation subgroup and isomorphic to its det-twist."""
        return self.group_tag == O_EVEN and self.mu[-1] >= 1

    @property
    def rank(self) -> int:
        return len(self.mu)

    @property
    def group_size(self) -> int:
        return 2 * self.rank + (1 if self.group_tag == O_ODD else 0)

    @property
    def partition(self) -> Tuple[int, ...]:
        return label_to_partition(self.group_size, self.mu, self.eps)

    def dim(self) -> int:
        return o_irrep_dim(self.group_size, self.partition)


def fd_label(group_size: int, mu, eps: Optional[int] = None) -> FDLabel:
    """Build a canonical FDLabel for O(group_size) from row lengths."""
    rank = so_rank(group_size)
    tag = O_ODD if group_size % 2 else O_EVEN
    mu = tuple(int(c) for c in mu)
    if len(mu) < rank:
        mu = mu + (0,) * (rank - len(mu))
    if len(mu) != rank:
        raise ValueError(f"rows {mu} incompatible with O({group_size}) of rank {rank}")
    if tag == O_ODD and eps is None:
        eps = 1
    return FDLabel(tag, mu, eps)


def label_from_partition(group_size: int, alpha) -> FDLabel:
    return fd_label(group_size, *partition_to_label(group_size, alpha))


def inf_char_of(label: FDLabel) -> Weight:
    """Infinitesimal character mu + rho taken with the label's own group."""
    return tuple(Fraction(m) + p for m, p in zip(label.mu, group_rho(label.group_size)))


# ---------------------------------------------------------------------------
# Oracle: full restriction decomposition
# ---------------------------------------------------------------------------


def _coset_eigenvalues(big_size: int):
    """Eigenvalue multiset (as single Laurent terms) of a maximal-torus element
    of the non-identity component of O(big_size - 1), embedded in O(big_size).

    Returns (terms, nvars).  Even subgroup size 2s': eigenvalues
    {1} u {1, -1} u {t_k^{+-1} : k < s'}; odd size 2s'+1: {1} u {-1} u
    {-t_k^{+-1} : k <= s'}.  Without the leading 1, the multiset is the
    subgroup's own coset point, where the twisted characters of its
    constituents are those of Sp(2s'-2) in t for even size and (-1)^|beta|
    times those of SO(2s'+1) for odd size.  The odd big group's step 4
    reads the multiset at t = 1 only, for its trace check.
    """
    m = big_size - 1
    odd = m % 2
    nvars = (m - 1) // 2
    zero = (0,) * nvars
    terms = [(zero, 1)] * (2 - odd) + [(zero, -1)]
    for k in range(nvars):
        for s in (1, -1):
            terms.append((tuple(s if j == k else 0 for j in range(nvars)), -1 if odd else 1))
    return terms, nvars


def _orbit_size(u) -> int:
    """Number of points in the orbit of u under the signed permutations
    (the Weyl group of types B and C)."""
    size = factorial(len(u)) << sum(1 for x in u if x)
    for x in set(u):
        size //= factorial(u.count(x))
    return size


def _twisted_character(big_size: int, alpha, mu, table):
    """The character of the O(big_size)-irrep alpha (rows mu, Freudenthal
    table ``table``) at the coset torus point of ``_coset_eigenvalues``, as
    (kind, part, value): part is its dominant part for the Weyl group of
    type kind in the coset's torus variables, and value its value at t = 1,
    taken independently of part.

    Odd big size 2s+1: O(2s+1) = SO(2s+1) x {+-I}, and -I acts on alpha by
    (-1)^|alpha|, so the character at g is (-1)^|alpha| times that of V(mu)
    at -g, the torus point (-t_1, ..., -t_{s-1}, -1).  A weight v of the
    table's orbits contributes (-1)^|v| t^(v_1, ..., v_{s-1}); for each
    distinct entry a of v, one copy of it dropped leaves the dominant u,
    reached by 2 orbit points if a > 0 (the dropped entry's sign is free)
    and by 1 if a = 0.  The kind is C_{s-1}, whose characters are the
    twisted ones of O(2s) (Wendt).  The value is the h-determinant of alpha
    at the coset's eigenvalues with every t = 1, in ints.

    Even big size 2s (a label that is not induced): the h-determinant at the
    coset eigenvalues, of kind B_{s-1}, part its B-dominant terms and value the
    sum of all its coefficients, so that a term off the Weyl-invariant part
    shows.  det = -1 on the coset, where the associate's character is the
    negative: the determinant is taken for mu's own partition, the shorter
    of alpha and its associate, and negated when alpha is the associate.
    """
    terms, nvars = _coset_eigenvalues(big_size)
    if big_size % 2:
        sign = -1 if sum(alpha) % 2 else 1
        part: dict[tuple, int] = {}
        for v, c in table.items():
            c = -sign * c if sum(v) % 2 else sign * c
            prev = None
            for k, a in enumerate(v):  # v is B-dominant: equal entries adjoin
                if a != prev:
                    u = v[:k] + v[k + 1:]
                    part[u] = part.get(u, 0) + (2 * c if a else c)
                    prev = a
        value = o_char_on_multiset(alpha, [((), c) for _, c in terms], 0).get((), 0)
        return "C", part, value
    rows = tuple(x for x in mu if x)
    sign = 1 if rows == alpha else -1
    poly = o_char_on_multiset(rows, terms, nvars)
    part = {u: sign * c for u, c in poly.items() if is_so_dominant(big_size - 1, u)}
    return "B", part, sign * sum(poly.values())


def _so_constituents(big_size: int, table) -> "dict[tuple, int]":
    """{so(big_size - 1) highest weight: multiplicity} in the restriction of
    the O(big_size)-irrep whose rows mu have the Freudenthal table table
    (``dominant_char(big_size, mu)``; its first key is mu, and the label's
    sign does not matter on the torus), on dominant weights throughout
    (steps 1-3).

    A full row vector of an even size (an induced label) has the table of mu
    and that of its mirror, mu with the last entry negated; the mirror's
    table is the table with every key's last entry negated, and restriction
    to so(big_size - 1) reads absolute values only, so the restriction is
    the table's doubled.
    """
    restricted = restrict_weights(table, big_size)
    if big_size % 2 == 0 and next(iter(table))[-1] >= 1:
        restricted = {u: 2 * c for u, c in restricted.items()}
    return peel(restricted, big_size - 1)


@lru_cache(maxsize=None)
def o_restrict_decomposition(big_size: int, alpha) -> "dict[tuple, int]":
    """Decompose the O(big_size)-irrep with partition alpha under O(big_size-1).

    Returns {sub partition: multiplicity}.
    """
    alpha = tuple(a for a in alpha if a)
    if not partition_valid_for_o(big_size, alpha):
        raise ValueError(f"{alpha} is not a valid O({big_size}) label")
    m = big_size - 1
    if m < 2:
        raise ValueError("subgroup smaller than O(2) is not supported")
    mu, _eps = partition_to_label(big_size, alpha)

    induced = big_size % 2 == 0 and mu[-1] >= 1  # alpha is self-associate
    table = dominant_char(big_size, mu)
    so_labels = _so_constituents(big_size, table)

    def failed(what: str) -> CharacterCheckError:
        return CharacterCheckError(f"restricting O({big_size}) {alpha}: {what}")

    out: dict[tuple, int] = {}
    ambiguous: dict[tuple, int] = {}
    if m % 2 == 0:
        for tau, c in so_labels.items():
            if tau[-1] > 0:
                taubar = tau[:-1] + (-tau[-1],)
                if so_labels.get(taubar, 0) != c:
                    raise failed(f"so({m}) constituent {tau} and its mirror {taubar} differ")
                beta = tuple(x for x in tau if x)
                out[beta] = out.get(beta, 0) + c
            elif tau[-1] == 0:
                ambiguous[tau] = c
    else:
        ambiguous = dict(so_labels)

    if ambiguous:
        # d_beta = #beta - #assoc(beta), the coefficients of the twisted
        # character over the constituents' twisted characters: sp_beta for
        # an even subgroup, (-1)^|beta| so_beta for an odd one.  An induced
        # representation's character vanishes outside SO(2s), and the coset
        # element has det -1: every d_beta is zero.
        diffs: dict[tuple, int] = {}
        if not induced:
            kind, part, value = _twisted_character(big_size, alpha, mu, table)
            total = sum(c * _orbit_size(u) for u, c in part.items())
            if total != value:
                raise failed(f"the twisted character's dominant part sums to {total} "
                             f"over its orbits, not to its value {value} at t = 1")
            for lam, d in racah_coefficients(kind, (m - 1) // 2, part):
                beta = tuple(x for x in lam if x)
                diffs[beta] = -d if kind == "B" and sum(beta) % 2 else d
        for tau, c in ambiguous.items():
            beta = tuple(x for x in tau if x)
            d = diffs.pop(beta, 0)
            if (c + d) % 2 or abs(d) > c:
                raise failed(f"twisted count {d} does not split the {c} copies of {tau}")
            plus, minus = (c + d) // 2, (c - d) // 2
            if plus:
                out[beta] = out.get(beta, 0) + plus
            if minus:
                bassoc = associate_partition(m, beta)
                out[bassoc] = out.get(bassoc, 0) + minus
        if diffs:
            raise failed(f"twisted constituents {diffs} have no so({m}) counterpart")
    return out


DEFAULT_DIM_CAP = 20000


def _capped_decomposition(big: FDLabel, dim_cap: int) -> "dict[tuple, int]":
    """o_restrict_decomposition of big, whose dimension may be at most dim_cap.

    The cap is a resource check, not a correctness check, so big's dimension
    comes from Weyl's formula, doubled for an induced label (the sum of two
    so-irreps of one dimension), not from the h-determinant of ``dim()``."""
    dim = weyl_dim(big.group_size, big.mu) * (2 if big.induced else 1)
    if dim > dim_cap:
        raise ResourceLimitError(f"big irrep dimension {dim} exceeds the cap {dim_cap}")
    return o_restrict_decomposition(big.group_size, big.partition)


def oracle_multiplicity(big: FDLabel, sub: FDLabel, dim_cap: int = DEFAULT_DIM_CAP) -> int:
    """Branching multiplicity [big|_{O(n)} : sub] by exact character arithmetic."""
    if sub.group_size + 1 != big.group_size:
        raise ValueError(
            f"sizes O({big.group_size}) > O({sub.group_size}) do not form an adjacent pair"
        )
    return _capped_decomposition(big, dim_cap).get(sub.partition, 0)


def full_decomposition(big: FDLabel, dim_cap: int = DEFAULT_DIM_CAP):
    """All (sub FDLabel, multiplicity) constituents of the restriction."""
    decomp = _capped_decomposition(big, dim_cap)
    pairs = [(label_from_partition(big.group_size - 1, beta), c) for beta, c in decomp.items()]
    pairs.sort(key=lambda pc: (pc[0].mu, -(pc[0].eps or 1)))
    return pairs


# ---------------------------------------------------------------------------
# Closed-form prediction
# ---------------------------------------------------------------------------


def interlace_predicate(big: FDLabel, sub: FDLabel) -> int:
    """1 if the sub partition interlaces the big partition (row-wise
    alpha_k >= beta_k >= alpha_{k+1}), else 0.  Label validity is enforced by
    the FDLabel constructors; this is the closed-form counterpart of the
    oracle and is exhaustively cross-checked in the tests."""
    if sub.group_size + 1 != big.group_size:
        raise ValueError("labels do not form an adjacent orthogonal pair")
    alpha = big.partition
    beta = sub.partition
    k_max = max(len(alpha), len(beta)) + 1

    def part(p, k):
        return p[k] if k < len(p) else 0

    for k in range(k_max):
        if not (part(alpha, k) >= part(beta, k) >= part(alpha, k + 1)):
            return 0
    return 1


# ---------------------------------------------------------------------------
# Reduced coherent families and stability scans
# ---------------------------------------------------------------------------


def family_base(ctx: RankContext, eps: Optional[int] = None) -> Weight:
    """Base point xi of the reduced family for the big group O(n+1): rho for
    odd sizes (whose sign eps defaults to +1, as in ``fd_label``), rho +
    (1, ..., 1) for even sizes."""
    if (ctx.n + 1) % 2:
        if eps not in (None, 1, -1):
            raise ValueError("odd-size families carry a sign eps of +1 or -1")
        return rho(ctx)
    if eps is not None:
        raise ValueError("even-size families carry no sign")
    return tuple(c + 1 for c in rho(ctx))


def _family_label(ctx: RankContext, lam, eps: Optional[int]) -> FDLabel:
    """The big group's label F(lam - rho) at the family point lam."""
    return fd_label(ctx.n + 1, (a - b for a, b in zip(lam, rho(ctx))), eps)


def reduced_family(ctx: RankContext, eps: Optional[int] = None, bound: int = 0):
    """FDLabels of the big group whose infinitesimal characters enumerate
    the lattice box around the family base.  Even-size groups exclude labels
    with a zero last row (those are reachable only through translation)."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    xi = family_base(ctx, eps)
    return [_family_label(ctx, lam, eps) for lam in lattice_box(xi, bound, ctx)]


class StabilityReport(FrozenRecord):
    _fields = ("region", "samples", "constant", "fence_crossings")

    def __init__(self, region: RegionDescriptor, samples: tuple, constant: bool,
                 fence_crossings: tuple) -> None:
        self.__dict__.update(region=region, samples=samples, constant=constant,
                             fence_crossings=fence_crossings)


def stability_scan(xi, sub: FDLabel, bound: int, eps: Optional[int] = None,
                   dim_cap: int = DEFAULT_DIM_CAP) -> StabilityReport:
    """Scan branching multiplicities [F(lam - rho) : sub] over the lattice
    points of the box around xi that share xi's region, and report jumps at
    region boundaries.  Each big irrep the scan reads may have dimension at
    most dim_cap (ResourceLimitError otherwise).

    xi must be away from all fences of nu = inf_char_of(sub); lattice points
    must shift xi by the integer lattice aligned with the big group's
    finite-dimensional labels.
    """
    n = sub.group_size
    ctx = rank_context(n)
    xi = as_weight(xi)
    if len(xi) != ctx.r:
        raise ValueError(f"base point must have length {ctx.r}")
    nu = inf_char_of(sub)
    if not away_from_fences(xi, nu):
        raise FencePreconditionError(f"base point {xi} sits on or next to a fence of {nu}")
    if (ctx.n + 1) % 2 == 0 and eps is not None:
        raise ValueError("even-size big groups carry no family sign")
    for a, b in zip(xi, rho(ctx)):
        if (a - b).denominator != 1:
            raise ValueError(
                f"base point {xi} is not aligned with the finite-dimensional lattice"
            )
    region = region_descriptor(xi, nu)

    def mult_at(lam) -> int:
        return oracle_multiplicity(_family_label(ctx, lam, eps), sub, dim_cap)

    box = lattice_box(xi, bound, ctx)
    in_region = [lam for lam in box if same_region(region, lam)]
    sample_map = {lam: mult_at(lam) for lam in in_region}
    samples = tuple(sorted(sample_map.items()))
    constant = len(set(sample_map.values())) <= 1

    crossings = []
    seen = set()
    for lam in in_region:
        base_mult = sample_map[lam]
        for i in range(ctx.r):
            for step in (1, -1):
                nb = tuple(c + (step if k == i else 0) for k, c in enumerate(lam))
                if nb in seen or nb in sample_map:
                    continue
                if not region.chamber(nb) or same_region(region, nb):
                    continue
                seen.add(nb)
                crossings.append((lam, nb, mult_at(nb) - base_mult))
    crossings.sort()
    return StabilityReport(region=region, samples=samples, constant=constant,
                           fence_crossings=tuple(crossings))
