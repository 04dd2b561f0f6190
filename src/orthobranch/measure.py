"""Measuring symmetry-breaking scalars on concrete matrix models.

Setting: ``big`` is a matrix model of an irreducible of the group on
coordinates ``0..n`` with infinitesimal character ``lam`` (its own-group
highest weight plus rho), ``sub`` one of the subgroup on ``1..n``, and ``T``
a verified equivariant operator between them.  ``F`` denotes the defining
(n+1)-dimensional representation, whose extreme weights in the big weight
coordinates are ``+-e_j`` (plus 0 when the group size n+1 is odd).

Everything is phrased on tuples: an element of ``big (x) F`` is the tuple
``V = (u_0, ..., u_n)`` standing for ``sum_a u_a (x) f_a`` with each ``u_a``
a coordinate vector in the big model.  The coupled operator ctilde, the
matrix form of -sum_{a<b} X[a,b] (x) X^F[a,b] (X^F[a,b]: f_b -> f_a, f_a ->
-f_b on ``F``), is the Casimir check's form K (``Frame.casimir_form``) with
one leg on F: ctilde = sum K[x,y] M_x (x) F_y over the Chevalley basis, M_x
the stored columns and F_y = ``Frame.basis[y]`` on F, so measurement forms no
X[a,b].  F is in its f-basis, where F_y carries i, so the chain holds ``Gi``
(a real weight basis for F is left for later).  The shifted Casimir on the
tensor product acts tuple-wise:

    cDelta(V)_a = (casimir(big) + n) u_a + 2 ctilde(V)_a,

since the defining representation's own Casimir scalar is n.  The spectral
projector onto the ``lam + eps e_i`` primary part is the product of the
factors ``cDelta - (|lam + mu|^2 - |rho|^2)`` over the other extreme weights
``mu`` of ``F``; dividing by the product of eigenvalue gaps
``prod_mu (|lam + eps e_i|^2 - |lam + mu|^2)`` normalizes it to an honest
projector.  Each factor is ``2 ctilde + (casimir(big) + n - shift)``, so the
projector is a polynomial of degree n in ``ctilde``.  ``measure_scalar``
measures the scalar of ``(T (x) first-slot-restriction) o projector o (u -> u
(x) f_0)`` against ``T`` as an exact ratio; non-proportionality to ``T``
raises ``IdentityViolationError``.

Everything is measured on the subgroup highest-weight vector ``w`` that the
operator was built from.  ``W_k(u)``, the first slot of ``ctilde^k (u (x)
f_0)``, is a subgroup endomorphism of big (``f_0`` is subgroup-fixed and the
slot projection runs along a subgroup-stable complement), and big restricts
to the subgroup without multiplicities (Gelfand-Tsetlin), so ``W_k w = b_k
w`` exactly.  The chain of first slots of ``w``, k = 0, 1, ..., is cached on
big under ``w`` (det twins share that cache and the stored columns);
``measure_scalar`` combines its slots with the projector polynomial's
coefficients, ``b_eval`` reads the ell-th one, and both check that each slot
is an exact multiple of ``w`` and that ``T`` of the result is proportional to
``T w``.  As ``W_k w = b_k w`` holds whatever ``T`` is, the line cannot see a
wrong operator, so a measurement first re-runs the equivariance check of
``hom_space`` unless it passed on the current matrix.

``verify_power_identity`` checks ``ctilde^N (u (x) f_0)`` against the ladder
elements A_N, B_N one basis vector u at a time, with no division and no
``Gi``: ``matrixrep.scaled_generators`` gives each d X[a,b] as a real and an
imaginary part of int columns, a vector is a (real, imaginary) pair of int
dicts, and ``matrixrep.apply_letter`` applies one letter to it.  The chain
applies d ctilde through the letters (X^F is real), and each word w acts with
its coefficient times d^(N - len w), so both sides are d^N times the true
ones (as in fraction-free elimination, Bareiss 1968).  The words of A_N and
every B_N,j share one suffix trie (``matrixrep.suffix_trie``), so each
distinct suffix is applied once per basis vector.  A failure is reported by
``power_identity_counterexample`` as the first basis vector and slot where
the sides differ.

``b_eval`` measures the same composition for powers of ``ctilde`` instead of
the projector, and ``b_reconstruct`` interpolates those measurements across a
grid of representation pairs into an exact polynomial in the two
infinitesimal characters, using only monomials invariant under both full
orthogonal Weyl groups (even powers coordinate-wise).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Cols, Gi, Scalar, TrackedEchelon, apply_cols
from .polyarith import p_add_into
from .records import Record
from .weights import RankContext, ResourceLimitError, rank_context, rho
from .scalars import RationalFunctionValue
from .matrixrep import (IntPair, Letter, MatrixRep, apply_letter, expected_casimir_scalar,
                        scaled_generators, suffix_trie, word_sums)
from .homspace import SymmetryBreakingOperator, _verify_operator

CoordVec = Dict[int, Scalar]
Tuple_ = List[CoordVec]

GRID_BOX = 2  # the reconstruction grid's bound on every label row


class IdentityViolationError(AssertionError):
    """The measured composition failed to be proportional to the operator —
    the universal-scalar statement would be falsified by this example."""


# ---------------------------------------------------------------------------
# tuple machinery
# ---------------------------------------------------------------------------

def coupling_step(mats: Dict[object, Cols], form: Dict, combos: Dict, V: Tuple_) -> Tuple_:
    """ctilde V = sum form[x, y] M_x (x) F_y on a tuple over F, M_x = mats[x] and
    F_y = sum combos[y][(a, b)] X^F[a,b]: per (x, y), the slots that F_y sends
    into each slot are combined first, then M_x is applied once per slot."""
    out: Tuple_ = [dict() for _ in V]
    for (x, y), k in form.items():
        into: Dict[int, CoordVec] = {}
        for (a, b), c in combos[y].items():
            p_add_into(into.setdefault(a, {}), V[b], k * c)
            p_add_into(into.setdefault(b, {}), V[a], -k * c)
        for slot, u in into.items():
            apply_cols(mats[x], u, out[slot])
    return out


def ambient_weights(ctx: RankContext) -> List[Tuple[Fraction, ...]]:
    """Extreme weights of the defining representation in big coordinates:
    +-e_j for j = 1..r, plus 0 when the group size n+1 is odd."""
    r = ctx.r
    out: List[Tuple[Fraction, ...]] = []
    for j in range(r):
        for s in (1, -1):
            w = [Fraction(0)] * r
            w[j] = Fraction(s)
            out.append(tuple(w))
    if ctx.parity == "even":  # n even <-> group size n+1 odd <-> weight 0 occurs
        out.append(tuple(Fraction(0) for _ in range(r)))
    return out


def _norm2(v: Sequence[Fraction]) -> Fraction:
    return sum(Fraction(c) * Fraction(c) for c in v)


def projector_factors(ctx: RankContext, lam: Sequence[Fraction], i: int,
                      eps: int) -> Tuple[List[Fraction], Fraction]:
    """Shifts for the spectral-projector factors and the normalizing product.

    Factors run over the extreme weights mu != eps*e_i of the defining
    representation: shift = |lam+mu|^2 - |rho|^2.  The normalizer is
    prod (|lam + eps e_i|^2 - |lam + mu|^2); zero iff the projector direction
    is singular at lam."""
    lam = tuple(Fraction(c) for c in lam)
    if not (1 <= i <= ctx.r):
        raise ValueError(f"direction index i={i} outside 1..{ctx.r}")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    r2 = _norm2(rho(ctx))
    target = [Fraction(0)] * ctx.r
    target[i - 1] = Fraction(eps)
    tnorm = _norm2([a + b for a, b in zip(lam, target)])
    shifts: List[Fraction] = []
    norm = Fraction(1)
    for mu in ambient_weights(ctx):
        if list(mu) == target:
            continue
        mnorm = _norm2([a + b for a, b in zip(lam, mu)])
        shifts.append(mnorm - r2)
        norm *= (tnorm - mnorm)
    return shifts, norm


# ---------------------------------------------------------------------------
# the highest-weight chain (cached per representation and hw vector)
# ---------------------------------------------------------------------------

def _insert_first_slot(big: MatrixRep, u: CoordVec) -> Tuple_:
    V: Tuple_ = [dict() for _ in big.indices]
    V[0] = dict(u)
    return V


def _hw_chain(op: SymmetryBreakingOperator, K: int, what: str) -> List[CoordVec]:
    """W_0 w, ..., W_K w for the operator's hw vector w, after the equivariance
    check (unless it passed on the current matrix) and with each slot checked
    to be an exact multiple of w: IdentityViolationError if either fails.  The
    first slots and the last full tuple are cached on big under w."""
    w = op.hw
    if w is None:
        raise ValueError("operator has no subgroup highest-weight vector; "
                         "measure the operators hom_space returns")
    if not op.verified:
        try:
            _verify_operator(op)
        except AssertionError:
            raise IdentityViolationError(
                f"{what} composition is not proportional to the operator") from None
    big = op.big
    chain = big.cache.setdefault(("hw-chain", frozenset(w.items())),
                                 [[w], _insert_first_slot(big, w)])
    firsts, V = chain
    mats, frame = big.chevalley(), big.frame
    while len(firsts) <= K:
        V = coupling_step(mats, frame.casimir_form, frame.basis, V)
        firsts.append(V[0])
    chain[1] = V
    for v in firsts[:K + 1]:
        if any(j not in w for j in v) or len({v.get(j, 0) * (Fraction(1) / c)
                                              for j, c in w.items()}) != 1:
            raise IdentityViolationError(f"{what} chain leaves the subgroup highest-weight line")
    return firsts[:K + 1]


def _ratio_against(op: SymmetryBreakingOperator, w: CoordVec, image: CoordVec,
                   what: str) -> Scalar:
    """The unique c with T(image) = c T(w), for the hw vector w and its
    measured image; raises IdentityViolationError if there is none."""
    Tw = apply_cols(op.matrix, w)
    if not Tw:
        raise IdentityViolationError(f"{what}: T w = 0 on the hw vector (operator may be zero)")
    Timage = apply_cols(op.matrix, image)
    quotients = {Timage.get(i, 0) * (Fraction(1) / b) for i, b in Tw.items()}
    if len(quotients) != 1 or any(i not in Tw for i in Timage):
        raise IdentityViolationError(f"{what} composition is not proportional to the operator")
    return quotients.pop()


class MeasureResult(Record):
    """Outcome of measuring the spectral-projector composition against T.

    ``raw_numerator`` is the measured ratio against the raw factor product:
    a Fraction, or a ``linalg.Gi`` when it is not real, which only a zero
    ``normalizer`` lets through (``value.defined`` is then False).
    ``probes_checked`` counts the hw vectors measured on: 1 per operator."""

    _fields = ("value", "raw_numerator", "normalizer", "probes_checked")

    def __init__(self, value: RationalFunctionValue, raw_numerator: Scalar,
                 normalizer: Fraction, probes_checked: int) -> None:
        self.value = value
        self.raw_numerator = raw_numerator
        self.normalizer = normalizer
        self.probes_checked = probes_checked


def measure_scalar(op: SymmetryBreakingOperator, i: int, eps: int) -> MeasureResult:
    """Measure the universal scalar of the projector composition.

    Computes ``(T (x) first-slot-restriction) o P_{lam + eps e_i} o
    (u -> u (x) f_0) = scalar * T`` and returns the scalar as an exact
    rational-function value: numerator measured against the raw factor
    product, denominator the eigenvalue-gap normalizer.  Raises
    IdentityViolationError if the operator fails its equivariance check or
    the composition fails proportionality to T on the hw vector; a zero
    normalizer yields ``defined=False``."""
    big = op.big
    ctx = rank_context(len(big.indices) - 1)
    shifts, norm = projector_factors(ctx, big.inf_char, i, eps)
    # p(x) = prod (2x + cas + n - shift), lowest degree first: the projector
    # is p(ctilde), since each factor cDelta - shift is 2 ctilde + cas + n - shift
    diag = expected_casimir_scalar(big) + ctx.n
    poly = [Fraction(1)]
    for s in shifts:
        poly = [(diag - s) * a + 2 * b for a, b in zip(poly + [0], [0] + poly)]
    w0: CoordVec = {}
    for c, first in zip(poly, _hw_chain(op, len(shifts), "projector")):
        p_add_into(w0, first, c)
    ratio = _ratio_against(op, op.hw, w0, "projector")
    if not isinstance(ratio, Gi):
        ratio = Fraction(ratio)
    if norm == 0:
        value = RationalFunctionValue(numerator=Fraction(0), denominator=Fraction(0),
                                      defined=False)
    elif isinstance(ratio, Gi):
        raise IdentityViolationError("measured scalar is not real")
    else:
        value = RationalFunctionValue(numerator=ratio, denominator=norm, defined=True)
    return MeasureResult(value=value, raw_numerator=ratio, normalizer=norm,
                         probes_checked=1)


def b_eval(op: SymmetryBreakingOperator, ell: int) -> Fraction:
    """Measured coefficient of the ell-th coupled power:
    T((ctilde^ell (w (x) f_0))_0) = b * T(w) on the operator's hw vector w,
    with the checks of ``measure_scalar``."""
    if ell < 0:
        raise ValueError(f"power ell={ell} must be >= 0")
    ratio = _ratio_against(op, op.hw, _hw_chain(op, ell, "power")[ell], "power")
    if isinstance(ratio, Gi):
        raise IdentityViolationError("power scalar is not real")
    return Fraction(ratio)


# ---------------------------------------------------------------------------
# symbolic-vs-matrix cross-verification of the coupled powers
# ---------------------------------------------------------------------------

def _coupled_ints(letters: Dict[Tuple[int, int], Letter], V: List[IntPair]) -> List[IntPair]:
    """d ctilde V = -sum d X[a,b] (x) X^F[a,b] V on a tuple of int pairs, the
    letters d X[a,b] of ``scaled_generators``: slot a gains -d X[a,b] V[b]
    and slot b gains d X[a,b] V[a]."""
    out: List[IntPair] = [({}, {}) for _ in V]
    neg = [tuple({j: -c for j, c in part.items()} for part in v) for v in V]
    for (a, b), letter in letters.items():
        apply_letter(letter, neg[b], out[a])
        apply_letter(letter, V[a], out[b])
    return out


def power_identity_counterexample(big: MatrixRep, N: int) -> Optional[dict]:
    """None when ctilde^N (u (x) f_0) = (A_N u) (x) f_0 + sum_j (B_{N,j} u) (x) f_j
    holds on every basis vector u, A_N and B_N the symbolic elements of the
    enveloping-algebra layer, both sides times d^N as the module docstring
    describes.  Otherwise the first failure, JSON-ready: {"basis_vector": j,
    "slot": s} for the first basis vector and the first slot (0 for A_N, j
    for B_{N,j}) where the sides differ, or {"slot": s, "word": [[a, b], ...]}
    for the first word longer than N, which fails the check.  A model that is
    not on coordinates 0..n (a subgroup side) raises ValueError."""
    from .enveloping import build_A, build_B
    if big.indices != tuple(range(len(big.indices))):
        raise ValueError(f"the power check needs a model on coordinates 0..n, not {big.indices}")
    ctx = rank_context(len(big.indices) - 1)
    elements = [build_A(N, ctx), *build_B(N, ctx)]
    for slot, e in enumerate(elements):
        for word in e.terms:
            if len(word) > N:
                return {"slot": slot, "word": [list(g) for g in word]}
    d, letters = scaled_generators(big, big.frame.generators)
    trie = suffix_trie([[(w, c * d ** (N - len(w))) for w, c in e.terms.items()]
                        for e in elements])
    for j in range(big.dim):
        V: List[IntPair] = [({}, {}) for _ in big.indices]
        V[0] = ({j: 1}, {})
        for _ in range(N):
            V = _coupled_ints(letters, V)
        for slot, (v, want) in enumerate(zip(V, word_sums(trie, letters, ({j: 1}, {}), len(V)))):
            if v != want:
                return {"basis_vector": j, "slot": slot}
    return None


def verify_power_identity(big: MatrixRep, N: int) -> bool:
    """Check the universal-enveloping expansion of the N-th coupled power on
    every basis vector: True when ``power_identity_counterexample`` finds no
    counterexample."""
    return power_identity_counterexample(big, N) is None


# ---------------------------------------------------------------------------
# polynomial reconstruction of the power coefficients
# ---------------------------------------------------------------------------

def _inv_monomials(r: int, s: int, half_degree: int):
    """Exponent pairs (a, b) for the Weyl-invariant monomials
    prod lam_k^{2 a_k} prod nu_k^{2 b_k} of plain degree <= 2*half_degree."""
    return [(e[:r], e[r:]) for e in product(range(half_degree + 1), repeat=r + s)
            if sum(e) <= half_degree]


def reconstruction_grid(ctx: RankContext):
    """All pairs (operator, lam, nu) from representations of the nested pair
    with rows bounded by ``GRID_BOX``, within ``construct_irrep``'s default
    dimension cap, and nonzero operator space.  Det-twists are skipped: they
    repeat the same pair of infinitesimal characters."""
    from .matrixrep import construct_irrep
    from .homspace import hom_space

    def partitions(rank: int):  # at most two nonzero rows
        return [mu for mu in product(range(GRID_BOX + 1), repeat=min(rank, 2))
                if list(mu) == sorted(mu, reverse=True)]

    def models(rank: int, which: str):
        for mu in partitions(rank):
            try:
                yield construct_irrep(ctx, mu, which=which)
            except ResourceLimitError:
                continue

    subs = list(models(ctx.s, "sub"))
    pairs = []
    for big in models(ctx.r, "big"):
        for sub in subs:
            mult, ops = hom_space(big, sub)
            if mult == 0:
                continue
            pairs.append((ops[0], big.inf_char, sub.inf_char))
    return pairs


def b_reconstruct(ell: int, ctx: RankContext):
    """Interpolate the measured power coefficient into an exact polynomial.

    Evaluates ``b_eval`` on the grid of representation pairs built from the
    highest-weight box ``GRID_BOX`` and solves, through the package's one
    elimination (``linalg.TrackedEchelon``), for the coefficients of the
    Weyl-invariant monomials of plain degree <= ell.
    Returns {((a_1..a_r), (b_1..b_s)): coefficient} for the polynomial
    sum c * prod lam_k^{2 a_k} prod nu_k^{2 b_k}.  Raises ResourceLimitError
    if the grid does not determine every coefficient, and
    IdentityViolationError if the measurements are not polynomial of that
    shape at all."""
    monos = _inv_monomials(ctx.r, ctx.s, ell // 2)
    # column m holds monomial m at each grid point, keyed by the point's index
    cols: List[Dict[int, Fraction]] = [{} for _ in monos]
    rhs: Dict[int, Fraction] = {}
    for g, (op, lam, nu) in enumerate(reconstruction_grid(ctx)):
        for col, (ea, eb) in zip(cols, monos):
            v = Fraction(1)
            for k, e in enumerate(ea):
                v *= Fraction(lam[k]) ** (2 * e)
            for k, e in enumerate(eb):
                v *= Fraction(nu[k]) ** (2 * e)
            if v:
                col[g] = v
        b = b_eval(op, ell)
        if b:
            rhs[g] = b
    ech = TrackedEchelon()
    for col in cols:
        ech.insert(col)
    coeffs = ech.coordinates(rhs)
    if coeffs is None:
        raise IdentityViolationError(
            "power coefficients are not a polynomial of the requested shape"
        )
    if ech.count < len(monos):
        raise ResourceLimitError(
            f"interpolation grid (rows <= {GRID_BOX}) determines only "
            f"{ech.count} of {len(monos)} coefficients"
        )
    return {monos[m]: c for m, c in sorted(coeffs.items())}
