"""Normal-ordered arithmetic in U(o(n+1, C)).

Generators are X_ij = E_ij - E_ji for 0 <= i < j <= n (X_ji is -X_ij, X_ii = 0,
the convention ``canon_gen`` encodes), with the bracket table

    [X_ab, X_ij] = d_bi X_aj + d_bj X_ia + d_ai X_jb + d_aj X_bi

that ``gen_bracket`` encodes.  Both are the package's only copies: the matrix
models bracket and canonicalize generator pairs through them too.

A monomial is a tuple of canonical (i, j) pairs; normal order means
nondecreasing in the lexicographic generator order, achieved by adjacent
transpositions with bracket correction (memoized).  Normal ordering,
``commutator`` and the Jacobi checks read the bracket from one table over
generator pairs, ``_moved_past``, which fills ``_BRACKET_MEMO`` from
``gen_bracket`` (441 entries at most up to n = 6).  Elements are dicts from
monomials to exact coefficients (an int where integral, else a Fraction) in
a thin immutable class; `*`
returns normal-ordered products, while `monomial(...)` lets tests build raw
unordered words.

On top of this: the two Casimirs, the recursively defined invariant elements
(the A/B ladder, the D ladder, their pairings), the g_n twist, and the
invariance check used throughout the representation layer.  ``commutator``
with a left side of degree <= 1 applies ad_x as a derivation of normal-ordered
words, so it forms no product word and orders only the words a bracket changes.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Dict, Iterable, Tuple, Union

from .linalg import exact
from .polyarith import p_add_into
from .weights import RankContext

Pair = Tuple[int, int]
Monomial = Tuple[Pair, ...]
Coeff = Union[int, Fraction]


def canon_gen(i: int, j: int):
    """Return (sign, (i,j)) with i<j, or (0, None) when i == j."""
    if i == j:
        return 0, None
    if i < j:
        return 1, (i, j)
    return -1, (j, i)


def flip_sign(i: int, j: int, top: int) -> int:
    """The sign of X_ij under conjugation by the sign flip of coordinate top:
    -1 exactly when one of i, j is top."""
    return -1 if (i == top) != (j == top) else 1


def gen_bracket(x, y) -> Dict[Pair, int]:
    """[X_ab, X_ij] for generator pairs x = (a, b), y = (i, j), as
    {canonical pair: integer coefficient}."""
    (a, b), (i, j) = x, y
    out: Dict[Pair, int] = {}
    for hit, p, q in ((b == i, a, j), (b == j, i, a), (a == i, j, b), (a == j, b, i)):
        if hit:
            sign, pair = canon_gen(p, q)
            if sign:
                p_add_into(out, {pair: sign})
    return out


class UEElement:
    """Immutable linear combination of monomials in the X_ij."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Coeff] = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = exact(coeff)
                if coeff != 0:
                    clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("UEElement is immutable")

    def __eq__(self, other):
        return isinstance(other, UEElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "UEElement") -> "UEElement":
        out = dict(self.terms)
        p_add_into(out, other.terms)
        return UEElement(out)

    def __sub__(self, other: "UEElement") -> "UEElement":
        out = dict(self.terms)
        p_add_into(out, other.terms, -1)
        return UEElement(out)

    def scale(self, c) -> "UEElement":
        c = exact(c)
        return UEElement({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "UEElement") -> "UEElement":
        """Product, returned in normal-ordered form."""
        out: Dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                p_add_into(out, _normal_order_monomial(m1 + m2), c1 * c2)
        return UEElement(out)

    def __repr__(self):
        if not self.terms:
            return "UE(0)"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = self.terms[mono]
            word = "*".join(f"X{i}{j}" if max(i, j) < 10 else f"X[{i},{j}]" for i, j in mono) or "1"
            bits.append(f"({coeff})*{word}")
        return "UE(" + " + ".join(bits) + ")"


ZERO = UEElement({})


def gen(i: int, j: int) -> UEElement:
    """The generator X_ij as an element (handles X_ji = -X_ij and X_ii = 0)."""
    sign, pair = canon_gen(i, j)
    if sign == 0:
        return ZERO
    return UEElement({(pair,): sign})


def monomial(pairs: Iterable[Pair], coeff=1) -> UEElement:
    """Raw (possibly unordered) word; factors given as (i, j) with i != j."""
    word = []
    sign = 1
    for i, j in pairs:
        s, pair = canon_gen(i, j)
        if s == 0:
            return ZERO
        sign *= s
        word.append(pair)
    return UEElement({tuple(word): Fraction(coeff) * sign})


def bracket(x, y) -> UEElement:
    """Lie bracket of two generators, each given as an (i, j) pair."""
    return UEElement({(pair,): c for pair, c in gen_bracket(tuple(x), tuple(y)).items()})


_ORDER_MEMO: Dict[Monomial, Dict[Monomial, int]] = {}
_BRACKET_MEMO: Dict[Pair, Dict[Pair, Tuple[Tuple[Pair, int], ...]]] = {}


def _moved_past(x: Pair, y: Pair) -> Tuple[Tuple[Pair, int], ...]:
    """[x, y] as normal ordering reads it, as (pair, coefficient) items: from
    ``gen_bracket`` with the larger pair first, and none when x == y.  It is
    the one bracket table of normal ordering, ``commutator`` and the Jacobi
    checks, filled in ``_BRACKET_MEMO[x][y]`` one generator pair at a time."""
    row = _BRACKET_MEMO.get(x)
    if row is None:
        row = _BRACKET_MEMO[x] = {}
    moved = row.get(y)
    if moved is None:
        if y < x:
            moved = tuple(gen_bracket(x, y).items())
        elif y > x:
            moved = tuple((pair, -c) for pair, c in gen_bracket(y, x).items())
        else:
            moved = ()
        row[y] = moved
    return moved


def _normal_order_monomial(word: Monomial) -> Dict[Monomial, int]:
    """Canonical form of a word of canonical pairs, as {monomial: coeff}."""
    cached = _ORDER_MEMO.get(word)
    if cached is not None:
        return cached
    swap_at = None
    for k in range(len(word) - 1):
        if word[k] > word[k + 1]:
            swap_at = k
            break
    if swap_at is None:
        result = {word: 1}
        _ORDER_MEMO[word] = result
        return result
    k = swap_at
    x, y = word[k], word[k + 1]
    out = dict(_normal_order_monomial(word[:k] + (y, x) + word[k + 2 :]))
    for pair, sign in _moved_past(x, y):
        p_add_into(out, _normal_order_monomial(word[:k] + (pair,) + word[k + 2 :]), sign)
    _ORDER_MEMO[word] = out
    return out


def normal_order(e: UEElement) -> UEElement:
    out: Dict[Monomial, Coeff] = {}
    for word, coeff in e.terms.items():
        p_add_into(out, _normal_order_monomial(word), coeff)
    return UEElement(out)


def _ctx_n(ctx) -> int:
    """Accept a RankContext or a bare integer n >= 1."""
    if isinstance(ctx, RankContext):
        return ctx.n
    if isinstance(ctx, int) and ctx >= 1:
        return ctx
    raise ValueError(f"need a rank context or integer n >= 1, got {ctx!r}")


def casimir(ctx, which: str = "full") -> UEElement:
    """-sum of X_ij^2 over 0 <= i < j <= n ("full") or 1 <= i < j <= n ("sub")."""
    n = _ctx_n(ctx)
    if which not in ("full", "sub"):
        raise ValueError(f"which must be 'full' or 'sub', got {which!r}")
    lo = 0 if which == "full" else 1
    terms: Dict[Monomial, Coeff] = {}
    for i in range(lo, n + 1):
        for j in range(i + 1, n + 1):
            terms[((i, j), (i, j))] = -1
    return UEElement(terms)


def ladder_casimir(N: int, ctx) -> UEElement:
    """The Casimir combination that the ladder element A^(N) equals, N = 2, 3:
    A^(2) = C_G - C_G' and A^(3) = (1 - n) C_G + n C_G'."""
    n = _ctx_n(ctx)
    cG, cGp = casimir(n, "full"), casimir(n, "sub")
    if N == 2:
        return cG - cGp
    if N == 3:
        return cG.scale(1 - n) + cGp.scale(n)
    raise ValueError(f"A^({N}) has no Casimir closed form here; N must be 2 or 3")


_AB_MEMO: Dict[Tuple[int, int], Tuple[UEElement, Tuple[UEElement, ...]]] = {}


def _ab_ladder(N: int, n: int):
    """(A^(N), (B_1^(N), ..., B_n^(N))) by the defining recursion, memoized."""
    key = (N, n)
    if key in _AB_MEMO:
        return _AB_MEMO[key]
    if N == 1:
        a = ZERO
        b = tuple(gen(0, j) for j in range(1, n + 1))
    else:
        a_prev, b_prev = _ab_ladder(N - 1, n)
        a = ZERO
        for k in range(1, n + 1):
            a = a + gen(k, 0) * b_prev[k - 1]
        b = []
        for j in range(1, n + 1):
            term = gen(0, j) * a_prev
            for k in range(1, n + 1):
                term = term + gen(k, j) * b_prev[k - 1]
            b.append(term)
        b = tuple(b)
    _AB_MEMO[key] = (a, b)
    return a, b


def build_A(N: int, ctx) -> UEElement:
    if N < 1:
        raise ValueError("need N >= 1")
    return _ab_ladder(N, _ctx_n(ctx))[0]


def build_B(N: int, ctx) -> Tuple[UEElement, ...]:
    if N < 1:
        raise ValueError("need N >= 1")
    return _ab_ladder(N, _ctx_n(ctx))[1]


_D_MEMO: Dict[Tuple[int, int], Tuple[UEElement, ...]] = {}


def build_Dj(ell: int, ctx) -> Tuple[UEElement, ...]:
    """(D_1^(ell), ..., D_n^(ell)): D_j^(1) = X_j0, D_k^(ell+1) = sum_j D_j^(ell) X_kj."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    n = _ctx_n(ctx)
    key = (ell, n)
    if key in _D_MEMO:
        return _D_MEMO[key]
    if ell == 1:
        d = tuple(gen(j, 0) for j in range(1, n + 1))
    else:
        d_prev = build_Dj(ell - 1, ctx)
        d = []
        for k in range(1, n + 1):
            term = ZERO
            for j in range(1, n + 1):
                term = term + d_prev[j - 1] * gen(k, j)
            d.append(term)
        d = tuple(d)
    _D_MEMO[key] = d
    return d


def build_Dscript(ell: int, N: int, ctx) -> UEElement:
    """sum_j D_j^(ell) B_j^(N)."""
    if ell < 1 or N < 1:
        raise ValueError("need ell >= 1 and N >= 1")
    d = build_Dj(ell, ctx)
    b = build_B(N, ctx)
    out = ZERO
    for dj, bj in zip(d, b):
        out = out + dj * bj
    return out


def build_C(ell: int, ctx) -> UEElement:
    """C^(ell) = sum_j D_j^(ell-1) X_0j; defined for ell >= 2."""
    if ell < 2:
        raise ValueError("C^(ell) is defined for ell >= 2")
    return build_Dscript(ell - 1, 1, ctx)


def ad_gn(e: UEElement, ctx) -> UEElement:
    """Conjugation by diag(1, ..., 1, -1): X_ij -> flip_sign(i, j, n) X_ij."""
    n = _ctx_n(ctx)
    return normal_order(UEElement({word: prod(flip_sign(i, j, n) for i, j in word) * coeff
                                   for word, coeff in e.terms.items()}))


def commutator(a: UEElement, b: UEElement) -> UEElement:
    """a*b - b*a, in normal order.  For a of degree <= 1, on each sorted word
    w of b, [x, w] is the sum over the letters y of w of w with y replaced by
    ``_moved_past(x, y)``, normal-ordered: the bracket terms that ordering x*w
    and w*x leaves once the sorted word cancels.  So it equals the product
    form term for term, for any bracket table.  Unsorted words of b, and a of
    degree > 1, take the product form."""
    if any(len(m) > 1 for m in a.terms):
        return a * b - b * a
    letters = [(m[0], c) for m, c in a.terms.items() if m]
    out: Dict[Monomial, Coeff] = {}
    for w, cw in b.terms.items():
        if list(w) != sorted(w):
            word = UEElement({w: cw})
            p_add_into(out, (a * word - word * a).terms)
            continue
        for k, y in enumerate(w):
            for x, cx in letters:
                for pair, c in _moved_past(x, y):
                    p_add_into(out, _normal_order_monomial(w[:k] + (pair,) + w[k + 1 :]), c * cx * cw)
    return UEElement(out)


def ue_to_obj(e: UEElement):
    """JSON-ready serialization: sorted [{"monomial": [[i,j], ...], "coeff": "p/q"}]."""
    items = sorted(e.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [
        {"monomial": [[i, j] for i, j in mono], "coeff": str(coeff)}
        for mono, coeff in items
    ]


# ---------------------------------------------------------------------------
# bundled identity suite (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def _check(failures, checks, name, params, lhs: UEElement, rhs: UEElement):
    """Counts one check and records a counterexample when lhs != rhs.  Both
    sides must be in normal order, as every result of ``*``, ``+``, ``-``,
    ``scale``, ``ad_gn`` and ``commutator`` on normal-ordered elements is;
    then equal elements have equal terms."""
    checks[0] += 1
    if lhs != rhs:
        failures.append({
            "check": name,
            "params": params,
            "lhs": ue_to_obj(lhs),
            "rhs": ue_to_obj(rhs),
        })


def verify_identities(ctx, max_degree: int = 4):
    """Run the symbolic identity suite up to the given total degree.

    Covers: the degree-2 and degree-3 ladder elements against Casimir
    combinations; the splitting of each transfer element off its ladder; the
    subalgebra commutation relations and the det-twist sign rules, the B and
    D families through one loop each; and Jacobi on all generator triples,
    summed bilinearly from the bracket table ``_moved_past``.
    Returns (checks_run, failures), each failure a replayable JSON-ready
    counterexample.  Not checked: the defining sums of ``build_Dscript``,
    ``build_C`` and ``build_Dj`` (each against its own body cannot fail).
    """
    n = _ctx_n(ctx)
    failures: list = []
    checks = [0]

    for N in (2, 3):
        _check(failures, checks, f"ladder{N}-casimir", {"n": n},
               build_A(N, n), ladder_casimir(N, n))

    sub_pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]

    for total in range(3, max_degree + 1):
        for ell in range(1, total - 1):
            N = total - ell
            _check(failures, checks, "transfer-split", {"n": n, "ell": ell, "N": N},
                   build_Dscript(ell, N, n),
                   build_C(ell + 1, n) * build_A(N - 1, n)
                   + build_Dscript(ell + 1, N - 1, n))

    # commutation relations with the subalgebra, per family and degree
    for ell in range(1, max_degree):
        A = build_A(ell, n)
        families = (("commute-B", build_B(ell, n)), ("commute-D", build_Dj(ell, n)))
        for (a, b) in sub_pairs:
            x = gen(a, b)
            _check(failures, checks, "commute-A", {"n": n, "ell": ell, "a": a, "b": b},
                   commutator(x, A), ZERO)
            for j in range(1, n + 1):
                for name, fam in families:  # [X_ab, F_j] = d_bj F_a - d_aj F_b
                    rhs = fam[a - 1] if b == j else fam[b - 1].scale(-1) if a == j else ZERO
                    _check(failures, checks, name,
                           {"n": n, "ell": ell, "a": a, "b": b, "j": j},
                           commutator(x, fam[j - 1]), rhs)
        for N in range(1, max_degree - ell + 1):
            DS = build_Dscript(ell, N, n)
            for (a, b) in sub_pairs:
                _check(failures, checks, "commute-transfer",
                       {"n": n, "ell": ell, "N": N, "a": a, "b": b},
                       commutator(gen(a, b), DS), ZERO)

    # det-twist sign rules
    for ell in range(1, max_degree):
        A = build_A(ell, n)
        _check(failures, checks, "twist-A", {"n": n, "ell": ell}, ad_gn(A, n), A)
        families = (("twist-B", build_B(ell, n)), ("twist-D", build_Dj(ell, n)))
        for j in range(1, n + 1):
            for name, fam in families:
                _check(failures, checks, name, {"n": n, "ell": ell, "j": j},
                       ad_gn(fam[j - 1], n), fam[j - 1].scale(flip_sign(0, j, n)))
        if ell >= 2:
            C = build_C(ell, n)
            _check(failures, checks, "twist-chain", {"n": n, "ell": ell}, ad_gn(C, n), C)
        for N in range(1, max_degree - ell + 1):
            DS = build_Dscript(ell, N, n)
            _check(failures, checks, "twist-transfer", {"n": n, "ell": ell, "N": N},
                   ad_gn(DS, n), DS)

    # Jacobi on all generator triples: [[x, y], z] is bilinear in the
    # bracket table ``_moved_past``, as ``commutator`` computes it
    gens = [(i, j) for i in range(0, n + 1) for j in range(i + 1, n + 1)]
    for xi_ in range(len(gens)):
        for yi in range(xi_ + 1, len(gens)):
            for zi in range(yi + 1, len(gens)):
                x, y, z = gens[xi_], gens[yi], gens[zi]
                lhs: Dict[Monomial, Coeff] = {}
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                    for p, c in _moved_past(u, v):
                        p_add_into(lhs, {(q,): d for q, d in _moved_past(p, w)}, c)
                _check(failures, checks, "jacobi", {"n": n, "triple": [x, y, z]},
                       UEElement(lhs), ZERO)

    return checks[0], failures
