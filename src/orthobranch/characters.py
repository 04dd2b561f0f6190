"""Exact character combinatorics for so(m) and the full orthogonal groups O(m).

Connected side: Freudenthal's recursion for so(m)-irreps (types B_s and D_s
plus abelian so(2)) run on dominant weights only, a string weight read at
its dominant representative, into one cached table {dominant weight:
multiplicity} per highest weight; restriction of such dominant tables to
so(m-1) by counting orbit points; and the decomposition of a dominant part
into irreducibles by Racah's alternating sum over the Weyl group, which reads
every constituent's coefficient off the multiset without a table per
constituent.  ``so_char`` spreads a table over its Weyl orbits for the
callers that need every weight, and ``weyl_dim`` is Weyl's dimension formula.

Disconnected side: O(m)-irreps are indexed by partitions alpha with
alpha^T_1 + alpha^T_2 <= m; tensoring with det corresponds to the associate
partition (first column replaced by its complement).  Characters on both
components are computed through the classical h-determinant

    char_alpha(g) = det( h_{alpha_i - i + j}(x) - h_{alpha_i - i - j}(x) )

evaluated at the eigenvalue multiset x of g, with h_k the complete homogeneous
sums.  Evaluating at reflection-coset eigenvalues (entries like -1 or -t)
yields the twisted character data that resolves the +-/det-twist labels during
branching, independently of any matrix realization.

All arithmetic is on Python ints: weights are integral, Freudenthal's
recursion uses the integral vector 2*rho (twice ``weights.group_rho``) and
divides exactly, and Laurent polynomials in torus variables are dicts
{exponent tuple: int} (exponents may be negative), added through
``polyarith.p_add_into``.  The h-determinant packs each exponent tuple into
one int in a balanced radix sized from its input (Kronecker substitution),
multiplies with ``polyarith.p_mul`` on those keys and unpacks its result to
tuples.
An ``so_char`` weight multiset is such a polynomial in its rank's variables.
Every self-check of the arithmetic raises CharacterCheckError, also under
``python -O``.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from operator import add, sub

from .polyarith import p_add_into, p_mul
from .weights import group_rho


class CharacterCheckError(RuntimeError):
    """A self-check of the character arithmetic failed: a Freudenthal quotient
    that is not a positive integer, a weight multiset that is not a character
    (a key that is not dominant, a negative constituent coefficient), or a
    constituent count that does not add up.  It reports a defect or an
    invalid multiset, never a bad label."""


# ---------------------------------------------------------------------------
# so(m) structure
# ---------------------------------------------------------------------------


def so_alg(m: int):
    """Cartan type of so(m) as ("B"|"D"|"so2", rank)."""
    if m < 2:
        raise ValueError(f"so({m}) is not supported")
    if m == 2:
        return ("so2", 1)
    s, rem = divmod(m, 2)
    return ("B", s) if rem else ("D", s)


def so_rank(m: int) -> int:
    return so_alg(m)[1]


def _positive_roots(kind: str, s: int):
    roots = []
    for i in range(s):
        for j in range(i + 1, s):
            for sign in (1, -1):
                root = [0] * s
                root[i], root[j] = 1, sign
                roots.append(tuple(root))
    if kind == "B":
        for i in range(s):
            root = [0] * s
            root[i] = 1
            roots.append(tuple(root))
    return roots


def _dominant(kind: str, mu) -> bool:
    for k in range(len(mu) - 1):
        if mu[k] < mu[k + 1]:
            return False
    if kind == "B":
        return mu[-1] >= 0
    return len(mu) < 2 or mu[-2] >= abs(mu[-1])


def is_so_dominant(m: int, mu) -> bool:
    kind, s = so_alg(m)
    mu = tuple(int(c) for c in mu)
    if len(mu) != s:
        return False
    return kind == "so2" or _dominant(kind, mu)


def _orbit(kind: str, v):
    """All weights in the Weyl orbit of a dominant v: the signed permutations
    of v, with an even number of sign changes in type D when no entry is 0."""
    out = set()
    parity = None
    if kind == "D" and 0 not in v:
        parity = sum(1 for c in v if c < 0) % 2
    for perm in set(permutations(v)):
        for w in product(*[(c, -c) if c else (c,) for c in perm]):
            if parity is None or sum(1 for c in w if c < 0) % 2 == parity:
                out.add(w)
    return out


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _dominant_below(kind: str, seeds, pos):
    """The dominant weights v <= some seed, i.e. with seed - v a sum of
    positive roots, for an iterable of dominant seeds.

    One walk down from all the seeds at once, one positive root at a time,
    keeping only dominant weights: between two dominant weights v < u there
    is always a positive root alpha with u - alpha dominant and still >= v
    (Stembridge, "The partial order of dominant weights", Adv. Math. 136
    (1998)), so the walk reaches every one of them.
    """
    stack = list(seeds)
    seen = set(stack)
    while stack:
        u = stack.pop()
        for alpha in pos:
            v = tuple(map(sub, u, alpha))
            if v not in seen and _dominant(kind, v):
                seen.add(v)
                stack.append(v)
    return seen


def _dominant_rep(kind: str, w):
    """The dominant weight in the Weyl orbit of w: its absolute entries in
    decreasing order, with the last one negated in type D when w has an odd
    number of negative entries and none that is 0."""
    v = sorted(map(abs, w), reverse=True)
    if kind == "D" and v[-1] and sum(1 for c in w if c < 0) % 2:
        v[-1] = -v[-1]
    return tuple(v)


@lru_cache(maxsize=None)
def dominant_char(m: int, mu) -> "dict[tuple, int]":
    """Freudenthal table {dominant weight: multiplicity} of the so(m)-irrep
    with highest weight mu (a tuple of ints): mu first, then the other
    dominant weights by decreasing length.  Its Weyl orbits make up the
    whole character (``so_char``)."""
    kind, s = so_alg(m)
    if not is_so_dominant(m, mu):
        raise ValueError(f"{mu} is not dominant for so({m})")
    if kind == "so2":
        return {mu: 1}
    pos = _positive_roots(kind, s)
    two_rho = tuple(int(2 * c) for c in group_rho(m))  # integral in both types
    top = _dot(mu, mu) + _dot(mu, two_rho)

    # Freudenthal, outer weights first: every weight v + k*alpha read below
    # is longer than v, so its dominant representative is already in `table`
    # or has multiplicity 0.
    dominants = sorted(_dominant_below(kind, (mu,), pos), key=lambda v: -_dot(v, v))
    # each positive root e_i + sign*e_j (sign 0 for a short root e_i) as
    # (alpha, i, j, sign, (alpha, alpha))
    roots = []
    for alpha in pos:
        nonzero = [k for k, a in enumerate(alpha) if a]
        i, j = nonzero[0], nonzero[-1]
        roots.append((alpha, i, j, alpha[j] if j != i else 0, len(nonzero)))
    table: dict[tuple, int] = {mu: 1}
    reps: dict[tuple, tuple] = {}  # v + k*alpha -> its dominant representative
    for v in dominants:
        if v == mu:
            continue
        denom = top - _dot(v, v) - _dot(v, two_rho)
        total = 0
        for alpha, i, j, sign, step in roots:
            # The alpha-string through the weight v is unbroken, so it ends
            # at the first k with multiplicity 0; (v + k*alpha, alpha) grows
            # by (alpha, alpha) at each step.
            pairing = v[i] + sign * v[j]
            w = v
            while True:
                w = tuple(map(add, w, alpha))
                pairing += step
                rep = reps.get(w)
                if rep is None:
                    rep = reps[w] = _dominant_rep(kind, w)
                mw = table.get(rep, 0)
                if not mw:
                    break
                total += mw * pairing
        val, rem = divmod(2 * total, denom) if denom > 0 else (0, 0)
        if rem or val <= 0:
            raise CharacterCheckError(
                f"Freudenthal gives {2 * total}/{denom} at {v} in the so({m}) "
                f"character of {mu}, not a positive integer"
            )
        table[v] = val
    return table


def so_char(m: int, mu) -> "dict[tuple, int]":
    """Full weight multiset {weight: multiplicity} of the so(m)-irrep with
    (dominant, integral) highest weight mu: the Weyl orbits of its dominant
    table, in the table's order."""
    kind, _ = so_alg(m)
    table = dominant_char(m, tuple(int(c) for c in mu))
    if kind == "so2":
        return dict(table)
    full: dict[tuple, int] = {}
    for v, c in table.items():
        full.update(dict.fromkeys(_orbit(kind, v), c))
    return full


def weyl_dim(m: int, mu) -> int:
    """Dimension of the so(m)-irrep with (dominant, integral) highest weight
    mu by Weyl's dimension formula, the product over the positive roots
    alpha of (mu + rho, alpha) / (rho, alpha), taken in ints through 2*rho
    and divided once at the end."""
    kind, s = so_alg(m)
    mu = tuple(int(c) for c in mu)
    if not is_so_dominant(m, mu):
        raise ValueError(f"{mu} is not dominant for so({m})")
    if kind == "so2":
        return 1
    two_rho = tuple(int(2 * c) for c in group_rho(m))
    shifted = tuple(2 * a + b for a, b in zip(mu, two_rho))
    num = den = 1
    for alpha in _positive_roots(kind, s):
        num *= _dot(shifted, alpha)
        den *= _dot(two_rho, alpha)
    return num // den


def _rho_shifts(kind: str, two_rho, f_cap: int, sum_caps):
    """(delta, det w) for the Weyl group elements w whose shift delta =
    rho - w(rho) has f = (delta, 2*rho) <= f_cap and partial sums
    delta_1 + ... + delta_k <= sum_caps[k-1] for k < rank; sorted by f, with
    the list of those f.

    A DFS from 2*rho down its W-orbit: each step reflects q = w(2*rho) in a
    simple root alpha with (q, alpha) > 0, which flips det w and adds a
    positive multiple of alpha to delta.  Every w is reached by such a chain
    (a reduced word read from the left), and along a chain f and the partial
    sums only grow (each positive root has nonnegative partial sums), so a
    node over a cap has no descendant under it and the DFS stops there.
    """
    s = len(two_rho)
    # In terms of q: delta = (2*rho - q) / 2.  A reflection with (q, alpha)
    # = d > 0 adds d to f and moves one partial sum of q, that of q_1..q_k
    # with k the reflection's first coordinate (none for type B's e_s), down
    # by d; it must stay >= the floor that a cap on delta's partial sum sets.
    sum_floors = [t - 2 * c for t, c in zip(accumulate(two_rho), sum_caps)]
    seen = {two_rho}
    stack = [(two_rho, 0, 1)]
    found = []
    while stack:
        q, f, sign = stack.pop()
        found.append((f, q, sign))
        moves = [(q[:i] + (q[i + 1], q[i]) + q[i + 2:], q[i] - q[i + 1], i)
                 for i in range(s - 1) if q[i] > q[i + 1]]
        if kind == "B":
            if q[-1] > 0:
                moves.append((q[:-1] + (-q[-1],), q[-1], None))
        elif q[-2] + q[-1] > 0:  # type D's last simple root e_{s-1} + e_s
            moves.append((q[:-2] + (-q[-1], -q[-2]), q[-2] + q[-1], s - 2))
        for nxt, d, k in moves:
            if f + d <= f_cap and nxt not in seen and (
                    k is None or sum(nxt[:k + 1]) >= sum_floors[k]):
                seen.add(nxt)
                stack.append((nxt, f + d, -sign))
    found.sort(key=lambda entry: entry[0])
    return ([(tuple((a - b) // 2 for a, b in zip(two_rho, q)), sign) for _, q, sign in found],
            [f for f, _, _ in found])


def peel(weights: "dict[tuple, int]", m: int) -> "dict[tuple, int]":
    """Decompose a Weyl-invariant weight multiset into so(m)-irreps.

    The multiset is given by its dominant part N = {dominant weight: count}
    (all of it for so(2)).  The coefficient of V(lam) is Racah's alternating
    sum (Humphreys, Introduction to Lie Algebras and Representation Theory,
    Ch. VI)

        c(lam) = sum over w in W of det(w) * N((lam + rho - w rho)^+),

    with p^+ the dominant weight in the orbit of p: it is the coefficient of
    e^(lam + rho) in the character times sum_w det(w) e^(w rho), which by
    Weyl's character formula is the multiplicity of V(lam).

    The candidates lam are every dominant weight at or below a key of N, not
    the keys alone: a negative coefficient can sit outside the support, as
    in V(1,0) - V(0,0) of so(5), whose dominant part is {(1,0): 1}.  Every
    nonzero coefficient lies below a maximal one, and a maximal one is a key,
    so the walk finds them all.  They are read largest first, and the first
    negative one raises CharacterCheckError, as does a key that is not
    dominant; the nonzero ones come back in decreasing lexicographic order.

    The sum never runs over all of W (``_rho_shifts``).  A term is nonzero
    only where p = lam + delta has a key as p^+, and then f(p) = (p, 2*rho)
    is at most F, the largest f of a key, since p^+ - p is a sum of positive
    roots; for k below the rank, p_1 + ... + p_k is at most the same partial
    sum of p^+, as the first k entries of p^+ are the k largest of |p|.  With
    f(lam) and those partial sums of a dominant lam nonnegative, the shifts
    with f(delta) > F - min f(lam) or a partial sum over the keys' largest
    add nothing, and each lam reads only the shifts with f(delta) <=
    F - f(lam).  The pruning is exact.
    """
    kind, s = so_alg(m)
    support = {w: c for w, c in weights.items() if c}
    if kind == "so2":
        return dict(sorted(support.items()))
    for w in support:
        if not _dominant(kind, w):
            raise CharacterCheckError(f"peeling so({m}) meets the weight {w}, which is not dominant")
    if not support:
        return {}
    two_rho = tuple(int(2 * c) for c in group_rho(m))
    candidates = sorted(_dominant_below(kind, support, _positive_roots(kind, s)), reverse=True)
    f_top = max(_dot(w, two_rho) for w in support)
    sum_caps = [max(sums) for sums in zip(*(accumulate(w[:-1]) for w in support))]
    f_lams = [_dot(lam, two_rho) for lam in candidates]
    shifts, fs = _rho_shifts(kind, two_rho, f_top - min(f_lams), sum_caps)
    at: dict[tuple, int] = {}  # p -> N(p^+), for the p that several lam share
    labels: dict[tuple, int] = {}
    for lam, f_lam in zip(candidates, f_lams):
        c = 0
        for delta, sign in shifts[:bisect_right(fs, f_top - f_lam)]:
            p = tuple(map(add, lam, delta))
            count = at.get(p)
            if count is None:
                count = at[p] = support.get(_dominant_rep(kind, p), 0)
            c += sign * count
        if c < 0:
            raise CharacterCheckError(
                f"peeling so({m}) by Racah's formula meets coefficient {c} at {lam}; "
                f"a character has none that is negative"
            )
        if c:
            labels[lam] = c
    return labels


def restrict_weights(weights: "dict[tuple, int]", m_from: int) -> "dict[tuple, int]":
    """Restrict a Weyl-invariant weight multiset of so(m_from), given by its
    dominant part, to so(m_from - 1); returns the dominant part of the result.

    Each dominant weight v with count c stands for its whole Weyl orbit, and
    the result counts the orbit's points that land on each dominant weight
    of the subalgebra:

    - odd m_from, B_s -> D_s (equal rank): the B-orbit of v is the D-orbit
      of v, and when v_s != 0 also that of its mirror (v_s -> -v_s);
    - even m_from, D_s -> B_{s-1} (the last coordinate dropped): dropping one
      absolute entry a of v leaves the dominant u, hit by 1 point if a = 0,
      by 2 if a > 0 and v has an entry 0 (the dropped entry's sign is free),
      and by 1 otherwise (the parity of the sign changes fixes it).
    """
    out: dict[tuple, int] = {}
    if m_from % 2:
        for v, c in weights.items():
            out[v] = out.get(v, 0) + c
            if v[-1]:
                mirror = v[:-1] + (-v[-1],)
                out[mirror] = out.get(mirror, 0) + c
        return out
    for v, c in weights.items():
        mags = sorted(map(abs, v), reverse=True)
        for k, a in enumerate(mags):
            if k and mags[k - 1] == a:
                continue  # one orbit point set per distinct value
            u = tuple(mags[:k] + mags[k + 1:])
            hits = 2 if a and mags[-1] == 0 else 1
            out[u] = out.get(u, 0) + hits * c
    return out


# ---------------------------------------------------------------------------
# Partition bookkeeping for O(m)
# ---------------------------------------------------------------------------


def transpose_partition(alpha):
    alpha = tuple(a for a in alpha if a)
    if not alpha:
        return ()
    return tuple(sum(1 for a in alpha if a >= k) for k in range(1, alpha[0] + 1))


def partition_valid_for_o(m: int, alpha) -> bool:
    """Column condition alpha^T_1 + alpha^T_2 <= m for an O(m) label."""
    t = transpose_partition(alpha)
    c1 = t[0] if t else 0
    c2 = t[1] if len(t) > 1 else 0
    return c1 + c2 <= m


def associate_partition(m: int, alpha):
    """Partner partition under tensoring with det: first column -> m minus it."""
    alpha = tuple(a for a in alpha if a)
    if not partition_valid_for_o(m, alpha):
        raise ValueError(f"{alpha} is not a valid O({m}) label")
    t = list(transpose_partition(alpha))
    if not t:
        t = [0]
    t[0] = m - t[0]
    t = tuple(a for a in t if a)
    # transpose back (t is weakly decreasing by validity)
    return transpose_partition(t)


def label_to_partition(m: int, mu, eps: int):
    """O(m) label (row lengths mu, sign eps) -> partition.

    eps=+1 is the partition mu itself; eps=-1 its associate.  For even m with
    a full-length mu (mu_rank >= 1) both signs name the same representation.
    """
    alpha = tuple(int(c) for c in mu if c)
    if any(c < 0 for c in mu) or list(mu) != sorted(mu, reverse=True):
        raise ValueError(f"row label {mu} must be weakly decreasing and nonnegative")
    if len(alpha) > so_rank(m):
        raise ValueError(f"row label {mu} has more than {so_rank(m)} rows for O({m})")
    if eps not in (1, -1):
        raise ValueError("eps must be +-1")
    if eps == 1:
        return alpha
    return associate_partition(m, alpha)


def partition_to_label(m: int, alpha):
    """Partition -> canonical O(m) label (mu padded to the rank, eps)."""
    alpha = tuple(a for a in alpha if a)
    if not partition_valid_for_o(m, alpha):
        raise ValueError(f"{alpha} is not a valid O({m}) label")
    rank = so_rank(m)
    if len(alpha) <= rank:
        mu = alpha + (0,) * (rank - len(alpha))
        return mu, 1  # also for a self-associate label (m even, len(alpha) == rank)
    beta = associate_partition(m, alpha)
    mu = beta + (0,) * (rank - len(beta))
    return mu, -1


def o_irrep_dim(m: int, alpha) -> int:
    """Dimension through the h-determinant at m eigenvalues 1 (label-layer
    oracle, independent of Freudenthal)."""
    if not partition_valid_for_o(m, alpha):
        raise ValueError(f"{tuple(alpha)} is not a valid O({m}) label")
    dim = o_char_on_multiset(alpha, [((), 1)] * m, 0).get((), 0)
    if dim <= 0:
        raise CharacterCheckError(f"the h-determinant gives dimension {dim} for O({m}) {alpha}")
    return dim


# ---------------------------------------------------------------------------
# Universal orthogonal characters on arbitrary eigenvalue multisets
# ---------------------------------------------------------------------------


def _h_sequence(terms, K: int):
    """h_0..h_K of a multiset given as single Laurent terms (packed exponent,
    coeff), as polynomials on packed keys.

    Adds one term x at a time through h_d <- h_d + x * h_{d-1}, for d rising;
    multiplying by x adds its packed exponent to every key.  h_d has exponent
    entries of at most d*M in size (M the largest entry of a term), the bound
    ``_radix`` is sized from.
    """
    hs = [{0: 1}] + [{} for _ in range(K)]
    for exp, coeff in terms:
        if not coeff:
            continue
        for d in range(1, K + 1):
            p_add_into(hs[d], {e + exp: c for e, c in hs[d - 1].items()}, coeff)
    return hs


def _det(rows):
    """Determinant of a square matrix of Laurent polynomials on packed keys,
    by expansion along the top row with each minor (a set of the lower rows'
    columns) computed once: n * 2^(n-1) products instead of n!."""
    n = len(rows)
    memo = {}

    def minor(cols):
        i = n - len(cols)
        if len(cols) == 1:
            return rows[i][cols[0]]
        out = memo.get(cols)
        if out is None:
            out = {}
            for k, j in enumerate(cols):
                if rows[i][j]:
                    p_add_into(out, p_mul(rows[i][j], minor(cols[:k] + cols[k + 1:])),
                               -1 if k % 2 else 1)
            memo[cols] = out
        return out

    return minor(tuple(range(n)))


def _radix(alpha, terms) -> int:
    """Radix 2*l*K*M + 1 of the balanced packing for the h-determinant of
    alpha (l = len(alpha), K = alpha_1 + l, M the largest exponent entry of
    the terms in size, at least 1).  A determinant entry is some h_k with
    k < K, so a product of l entries has exponent entries of size below
    l*K*M, and each fits one balanced digit in [-l*K*M, l*K*M]."""
    ell = len(alpha)
    big = max((abs(x) for exp, _ in terms for x in exp), default=0)
    return 2 * ell * (alpha[0] + ell) * max(1, big) + 1


def _pack(exp, radix: int) -> int:
    """Exponent tuple -> one int, first entry the most significant balanced
    digit: sums of tuples become sums of ints (Kronecker substitution), and
    the ints compare as the tuples do lexicographically."""
    key = 0
    for x in exp:
        key = key * radix + x
    return key


def _unpack(key: int, radix: int, nvars: int):
    """Inverse of ``_pack`` for tuples of nvars balanced digits."""
    half = radix // 2
    out = [0] * nvars
    for k in range(nvars - 1, -1, -1):
        out[k] = (key + half) % radix - half
        key = (key - out[k]) // radix
    return tuple(out)


def _int_coeff(c) -> int:
    q = Fraction(c)
    if q.denominator != 1:
        raise ValueError(f"eigenvalue coefficient {c} is not an integer")
    return q.numerator


def o_char_on_multiset(alpha, terms, nvars: int):
    """Character of the O-irrep with partition alpha at an eigenvalue multiset.

    terms: the eigenvalues as single Laurent terms (exp tuple, integer coeff)
    in nvars torus variables (constants 1 / -1 have the zero exponent).
    Returns a Laurent polynomial with int coefficients.

    The h-sequence and the determinant run on exponents packed into one int
    each (``_pack``, in the radix of ``_radix``), so a product of monomials
    is one int addition; the result is unpacked to tuples, in the order the
    tuple arithmetic would give.
    """
    alpha = tuple(a for a in alpha if a)
    ell = len(alpha)
    if ell == 0:
        return {(0,) * nvars: 1}
    terms = [(tuple(exp), _int_coeff(c)) for exp, c in terms]
    radix = _radix(alpha, terms)
    # the determinant reads h_k for k up to alpha_1 + l - 1 only
    hs = _h_sequence([(_pack(exp, radix), c) for exp, c in terms], alpha[0] + ell - 1)

    def h(k):
        return hs[k] if k >= 0 else {}

    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            entry = dict(h(alpha[i - 1] - i + j))
            p_add_into(entry, h(alpha[i - 1] - i - j), -1)
            row.append(entry)
        rows.append(row)
    return {_unpack(e, radix, nvars): c for e, c in _det(rows).items()}
