"""Dense reference routines that only the tests use.

A dense Gauss-Jordan elimination on lists of rows, written out here on
purpose so that the references the tests compare against stay independent
of the package's own kernel (``orthobranch.linalg.TrackedEchelon``): the band
elimination of ``verma.fusion_oracle`` and ``linalg.kernel`` are both checked
against ``nullspace`` below, and every reference that needs a kernel calls
that ``nullspace``.  It takes ints, Fractions and ``Gi`` entries alike.
``dense`` turns the package's sparse columns into lists of rows,
``qi_matmul`` multiplies such rows, and ``parts`` reads any scalar as its
(real, imaginary) pair.
A built model keeps no polynomial, so ``basis_polynomials`` reads them from a
fresh closure (``matrixrep._close_model``).  ``polynomial_columns`` computes
a polynomial model's generator and reflection matrices the direct way, one
polynomial application per column, for comparison with the matrices the
package derives from the closure.

The root system the other way round: ``pair_action`` derives the action of
one X[a,b] on a frame's variables through the real coordinates (zeta+- =
z_p -+ i z_q), and ``solved_root_vectors`` finds every root vector as the
kernel of the ad(h_k) eigen-equations.  Neither reads the closed forms that
``Frame`` writes down.

Eight independent routes to what the package computes another way:
``x_casimir_scalar`` applies the quadratic invariant as -sum X[a,b]^2
through the X[a,b] columns that ``casimir_scalar`` never forms,
``x_coupling_step`` applies ctilde by its X-index formula, where
``measure.coupling_step`` applies the Casimir form K to the Chevalley
columns and the defining representation (``casimir_shifted_step`` and
``dense_b`` use it),
``plain_act`` evaluates an enveloping element word by word in the model's
own numbers, where ``act`` clears one common denominator first,
``fischer_gram`` pairs every two basis polynomials of opposite weight for
the Gram matrix that a model derives from its seed's row and its recipes,
``hom_space_dense`` solves the full equivariance system, one equation per
subgroup generator X[a,b] (``_operator_pairs``, formed by ``action``), for
the dimension ``hom_space`` finds from highest-weight vectors and checks on
the Chevalley basis, ``primary_projector`` spans
the image of the spectral projector that ``measure_scalar`` applies to one
highest-weight vector only, ``dense_projector_ratio`` and ``dense_b`` measure
the universal scalars on three dense probe vectors instead of that one
(``probe_ratio`` asks all three for one ratio), and
``is_invariant`` tests an enveloping element against every subalgebra
generator and the twist.

The character layer's h-determinant, too: ``h_determinant`` expands
det(h_{alpha_i - i + j} - h_{alpha_i - i - j}) by Leibniz, one signed
product per permutation, with each h_k summed over the k-multisets of the
eigenvalues and with tuple exponent keys multiplied by ``tuple_mul``, where
``characters.o_char_on_multiset`` packs the exponents into ints, builds h_k
one eigenvalue at a time and expands along the top row with shared minors.

And the so-character route on whole weight multisets: ``full_orbit_so_char``
runs Freudenthal on every weight, spreading each multiplicity over its Weyl
orbit as soon as it is known, ``full_restrict_weights`` drops a coordinate
of every weight and ``full_peel`` subtracts whole characters, where the
package's ``dominant_char``, ``restrict_weights`` and ``peel`` work on the
dominant weights alone and count orbit points.  ``subtracting_peel`` is the
peel on dominant parts that subtracts one ``dominant_char`` table per
constituent, where ``peel`` reads every coefficient off the multiset by
Racah's alternating sum.

And the rank-one fusion table in Fractions: ``fraction_query`` wraps each
parameter with ``Fraction``, ``fraction_multiplicity`` and
``fraction_oracle`` form ``a + b - c`` per call and test its parity with
``_even_natural``, ``fraction_jump_region`` is the jump region's two
inequalities on Fractions, and ``fraction_grid`` builds each cell from
those, where ``verma`` reads a, b and c once as ints over their common
denominator.
"""
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from operator import add
from typing import List, Optional

from orthobranch.characters import (
    CharacterCheckError, _dominant, _dominant_below, _positive_roots, dominant_char, so_alg,
)
from orthobranch.enveloping import ad_gn, commutator, gen, normal_order
from orthobranch.linalg import Gi, TrackedEchelon, apply_cols
from orthobranch.matrixrep import (
    MatrixRep, _close_model, expected_casimir_scalar, fischer_pair, poly_apply_table,
    poly_reflect, so_bracket,
)
from orthobranch.polyarith import p_add_into
from orthobranch.measure import (
    CoordVec, IdentityViolationError, Tuple_, _insert_first_slot, projector_factors,
)
from orthobranch.weights import InvalidRankError, RankContext, group_rho, rank_context, rho


def dense(cols, nrows):
    """Rows of the matrix whose sparse columns are cols: cols[j] = {i: entry}."""
    return [[col.get(i, 0) for col in cols] for i in range(nrows)]


def parts(x):
    """(re, im) of a scalar: an int, a Fraction or a Gi."""
    return (x.re, x.im) if isinstance(x, Gi) else (x, 0)


def _real_coordinates(frame):
    """(var_to_z, z_to_var): each variable as a combination of the real
    coordinates (set, index), zeta+- = z_p -+ i z_q and the spare itself, and
    the inverse, z_p = (zeta+ + zeta-)/2 and z_q = i(zeta+ - zeta-)/2."""
    half = Fraction(1, 2)
    var_to_z, z_to_var = [], {}
    for set_id, kind, k in frame.var_specs:
        if kind == "0":
            var_to_z.append([((set_id, frame.spare), 1)])
        else:
            p, q = frame.pairs[k - 1]
            i_sign = -1 if kind == "+" else 1
            var_to_z.append([((set_id, p), 1), ((set_id, q), Gi(0, i_sign))])
    for set_id in (0, 1):
        for k, (p, q) in enumerate(frame.pairs, start=1):
            vp = frame.var_index[(set_id, "+", k)]
            vm = frame.var_index[(set_id, "-", k)]
            z_to_var[(set_id, p)] = [(vp, half), (vm, half)]
            z_to_var[(set_id, q)] = [(vp, Gi(0, half)), (vm, Gi(0, -half))]
        if frame.spare is not None:
            z_to_var[(set_id, frame.spare)] = [(frame.var_index[(set_id, "0", 0)], 1)]
    return var_to_z, z_to_var


def pair_action(frame, a, b):
    """Action of X[a,b] (any two frame indices) on the variables,
    var -> {var': coeff}: X[a,b] sends z_b to z_a and z_a to -z_b."""
    var_to_z, z_to_var = _real_coordinates(frame)
    table = {}
    for v, expansion in enumerate(var_to_z):
        out = {}
        for (set_id, j), coeff in expansion:
            if j == b:
                target, c = (set_id, a), coeff
            elif j == a:
                target, c = (set_id, b), -coeff
            else:
                continue
            for v2, c2 in z_to_var[target]:
                p_add_into(out, {v2: c2}, c)
        if out:
            table[v] = out
    return table


def poly_apply_pair(frame, a, b, poly):
    """X[a,b] applied to a polynomial in the frame's variables."""
    return poly_apply_table(pair_action(frame, a, b), poly)


def solved_root_vectors(frame):
    """{root: X[a,b] combination} with every root vector solved for: the one
    kernel vector, in the span of the generators joining the root's index
    pairs (or the spare and its pair), of ad(h_k) - c_k on each nonzero
    coordinate c_k of the root."""

    def solve_root(span, constraints):
        rows = []
        for k, c in constraints:
            h = {frame.pairs[k - 1]: Gi(0, 1)}
            ad = [so_bracket(h, {g: 1}) for g in span]
            assert all(g in span for col in ad for g in col), "ad image left the span"
            for r, g in enumerate(span):
                rows.append([col.get(g, 0) - (c if s == r else 0)
                             for s, col in enumerate(ad)])
        kern = nullspace(rows)
        assert len(kern) == 1, f"root space in {span} has dimension {len(kern)}"
        return {g: c for g, c in zip(span, kern[0]) if c}

    roots = {}
    m = frame.rank
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            span = [tuple(sorted((x, y))) for x in frame.pairs[i - 1] for y in frame.pairs[j - 1]]
            for ci in (1, -1):
                for cj in (1, -1):
                    root = tuple(ci if k == i else cj if k == j else 0 for k in range(1, m + 1))
                    roots[root] = solve_root(span, [(i, ci), (j, cj)])
        if frame.spare is not None:
            span = [(frame.spare, x) for x in frame.pairs[i - 1]]
            for c in (1, -1):
                root = tuple(c if k == i else 0 for k in range(1, m + 1))
                roots[root] = solve_root(span, [(i, c)])
    return roots


def basis_polynomials(rep):
    """The basis polynomials of a polynomial model, from a fresh closure of
    its label: a built model keeps none."""
    return _close_model(rep.frame, rep.label, rep.dim)[1]


def polynomial_columns(rep):
    """({(a, b): columns of X[a,b]}, columns of the reflection with its
    det-twist) of a polynomial model: every generator and the reflection is
    applied to every basis polynomial, and the image's coordinates are read
    off an echelon of the basis polynomials as they are, complex entries and
    all."""
    frame, vectors = rep.frame, basis_polynomials(rep)
    ech = TrackedEchelon()
    for v in vectors:
        ech.insert(v)

    def coords(img):
        found = ech.coordinates(img)
        assert found is not None, "image left the model span"
        return found

    gens = {(a, b): [coords(poly_apply_pair(frame, a, b, v)) for v in vectors]
            for (a, b) in frame.generators}
    tw = rep.twist_sign
    return gens, [{i: tw * x for i, x in coords(poly_reflect(frame, v)).items()}
                  for v in vectors]


def fischer_gram(rep):
    """Sparse rows of B[i][j] = fischer_pair(b_i, b_j) over every pair of
    basis polynomials of opposite weight: the reference for the Gram matrix
    that a model derives from its seed's pairings and its recipes."""
    frame, vectors, tags = rep.frame, basis_polynomials(rep), rep.model.tags
    rows = [dict() for _ in vectors]
    for i, v in enumerate(vectors):
        for j, u in enumerate(vectors):
            if tags[j] == tuple(-c for c in tags[i]):
                x = fischer_pair(frame, v, u)
                if x:
                    rows[i][j] = x
    return rows


def x_casimir_scalar(rep):
    """Scalar of -sum X[a,b]^2 over the frame's generators, applied to every
    basis vector through the columns ``action`` forms; raises AssertionError
    unless it acts by one real scalar."""
    xs = [rep.action(a, b) for (a, b) in rep.frame.generators]
    expected = None
    for j in range(rep.dim):
        acc = {}  # sum of X[a,b]^2 e_j, the invariant's negative
        for cols in xs:
            apply_cols(cols, cols[j], acc)
        if any(i != j for i in acc):
            raise AssertionError("quadratic invariant does not act by a scalar")
        scal = -acc.get(j, 0)
        if expected is None:
            expected = scal
        elif expected != scal:
            raise AssertionError("quadratic invariant scalar differs between basis vectors")
    if expected is None or isinstance(expected, Gi):
        raise AssertionError(f"quadratic invariant scalar {expected} is not real")
    return Fraction(expected)


def plain_act(element, rep):
    """Columns of a universal-enveloping element on rep, word by word in the
    model's own exact numbers: each word's letters are applied right to left
    through ``action`` to every basis vector and the result is added with
    the word's coefficient, with no common denominator."""
    terms = element.terms
    cols = [dict() for _ in range(rep.dim)]
    xs = {}  # each X[a,b] formed once
    for word, coeff in terms.items():
        for (a, b) in word:
            if a not in rep.indices or b not in rep.indices:
                raise InvalidRankError(
                    f"generator ({a},{b}) outside representation coordinates {rep.indices}"
                )
            if (a, b) not in xs:
                xs[a, b] = rep.action(a, b)
        last = xs[word[-1]] if word else [{j: 1} for j in range(rep.dim)]
        for j, vec in enumerate(last):
            for g in reversed(word[:-1]):
                if not vec:
                    break
                vec = apply_cols(xs[g], vec)
            p_add_into(cols[j], vec, coeff)
    return cols


def qi_matmul(a, b):
    """Dense product of complex-rational matrices."""
    if not a or not b:
        return []
    inner = len(b)
    ncols = len(b[0])
    out = []
    for row in a:
        acc = [0] * ncols
        for k in range(inner):
            c = row[k]
            if not c:
                continue
            bk = b[k]
            for j in range(ncols):
                if bk[j]:
                    acc[j] = acc[j] + c * bk[j]
        out.append(acc)
    return out


def _rref(rows, ncols):
    """Reduced row echelon form in place; returns the pivot columns."""
    pivots = []
    for col in range(ncols):
        prow = len(pivots)
        piv = next((i for i in range(prow, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        inv = Fraction(1) / rows[prow][col]
        rows[prow] = [x * inv for x in rows[prow]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != prow and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[prow])]
        pivots.append(col)
    return pivots


def rank(rows) -> int:
    return len(_rref([list(r) for r in rows], len(rows[0]))) if rows else 0


def nullspace(rows):
    """Basis of the right kernel of the matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = _rref(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -work[prow][fc]
        basis.append(vec)
    return basis


def _operator_pairs(big, sub):
    """What T X_big = X_sub T must hold for: each subgroup generator X[a,b],
    formed by ``action``, then the distinguished reflection, as (name, X_big,
    X_sub)."""
    for (a, b) in sub.frame.generators:
        yield f"generator ({a},{b})", big.action(a, b), sub.action(a, b)
    yield "the reflection", big.reflection(), sub.reflection()


def hom_space_dense(big, sub, max_unknowns: int = 1500) -> int:
    """Multiplicity by directly solving the full equivariance system
    T X_big = X_sub T (all subgroup generators) plus the reflection
    constraint.  Exponentially heavier than hom_space; an independent check
    on small models."""
    nu = big.dim * sub.dim
    if nu > max_unknowns:
        raise InvalidRankError(f"dense route limited to {max_unknowns} unknowns, got {nu}")
    rows = []
    for _what, xbig, xsub in _operator_pairs(big, sub):
        # row (i, j): (T X_big - X_sub T)[i][j] in the unknowns T[i][k] at i*dim(big)+k
        for i in range(sub.dim):
            for j in range(big.dim):
                row = [0] * nu
                for k, x in xbig[j].items():
                    row[i * big.dim + k] = x
                for k in range(sub.dim):
                    x = xsub[k].get(i)
                    if x is not None:
                        u = k * big.dim + j
                        row[u] = row[u] - x
                if any(row):
                    rows.append(row)
    if not rows:
        return nu
    return len(nullspace(rows))


@dataclass
class PrimaryComponent:
    """Echelon basis of the image of the factor product on big (x) F.

    Each basis element is a tuple (list indexed like the ambient coordinates)
    of coordinate vectors in the big model.  ``eigenvalue`` is the shifted
    Casimir scalar on the component (None for a rank-0 component)."""

    big: MatrixRep
    i: int
    eps: int
    dim: int
    basis: List[list]
    eigenvalue: Optional[Fraction]


def _flatten(V):
    out = {}
    for pos, comp in enumerate(V):
        for idx, c in comp.items():
            out[(pos, idx)] = c
    return out


def _norm2(v):
    return sum(Fraction(c) * Fraction(c) for c in v)


def x_coupling_step(big: MatrixRep, V: Tuple_) -> Tuple_:
    """One application of ctilde on a tuple over F by the index formula
    ctilde(V)_a = sum_{b<a} X[b,a] u_b - sum_{b>a} X[a,b] u_b, reading each
    X[a,b] from ``action``."""
    idx = big.indices
    xs = {g: big.action(*g) for g in big.frame.generators}
    out: Tuple_ = [dict() for _ in idx]
    for pos_a, a in enumerate(idx):
        acc = out[pos_a]
        for pos_b, b in enumerate(idx):
            if b < a:
                apply_cols(xs[b, a], V[pos_b], acc)
            elif b > a:
                neg = {j: -c for j, c in V[pos_b].items()}
                apply_cols(xs[a, b], neg, acc)
    return out


def casimir_shifted_step(big: MatrixRep, ctx: RankContext, V: Tuple_,
                         shift: Fraction) -> Tuple_:
    """One factor (cDelta - shift) V with cDelta the tensor-product Casimir."""
    cas = expected_casimir_scalar(big)
    diag = cas + ctx.n - shift
    ct = x_coupling_step(big, V)
    out: Tuple_ = []
    for pos in range(len(V)):
        acc: CoordVec = {}
        p_add_into(acc, V[pos], diag)
        p_add_into(acc, ct[pos], 2)
        out.append(acc)
    return out


PROBES = 3  # dense probe vectors: e_0 and two seeded random Gaussian vectors


def _rand_coordvec(dim: int, rng: random.Random) -> CoordVec:
    out: CoordVec = {}
    for i in range(dim):
        re = rng.randint(-9, 9)
        im = rng.randint(-9, 9)
        if re or im:
            out[i] = Gi(re, im)
    return out


def dense_probes(big: MatrixRep) -> List[CoordVec]:
    """e_0 and two dense random vectors, drawn from the representation data."""
    rng = random.Random(repr((big.dim, tuple(str(c) for c in big.inf_char), big.indices)))
    return [{0: 1}] + [_rand_coordvec(big.dim, rng) for _ in range(PROBES - 1)]


def probe_ratio(op, pairs, what: str):
    """The unique c with T(v) = c T(u) across the pairs (u, v) with
    T(u) != 0; raises IdentityViolationError if the pairs disagree."""
    ratio = None
    for u, v in pairs:
        Tu = apply_cols(op.matrix, u)
        if not Tu:
            continue
        Tv = apply_cols(op.matrix, v)
        quotients = {Tv.get(i, 0) * (Fraction(1) / b) for i, b in Tu.items()}
        if len(quotients) != 1 or any(i not in Tu for i in Tv):
            raise IdentityViolationError(f"{what} composition is not proportional to the operator")
        c = quotients.pop()
        if ratio is None:
            ratio = c
        elif ratio != c:
            raise IdentityViolationError(f"{what} scalar differs between probe vectors")
    if ratio is None:
        raise IdentityViolationError(f"{what}: no probe vector had T u != 0 (operator may be zero)")
    return ratio


def dense_projector_ratio(op, i: int, eps: int):
    """(raw_numerator, normalizer) of ``measure_scalar``, measured on the
    dense probes: the factor product applied to each u (x) f_0, its first
    slot against u through T, one ratio for all probes."""
    big = op.big
    ctx = rank_context(len(big.indices) - 1)
    shifts, norm = projector_factors(ctx, big.inf_char, i, eps)
    pairs = []
    for u in dense_probes(big):
        V = _insert_first_slot(big, u)
        for s in shifts:
            V = casimir_shifted_step(big, ctx, V, s)
        pairs.append((u, V[0]))
    ratio = probe_ratio(op, pairs, "projector")
    return (ratio if isinstance(ratio, Gi) else Fraction(ratio)), norm


def dense_b(op, ell: int) -> Fraction:
    """``b_eval`` measured on the dense probes: the first slot of
    ctilde^ell (u (x) f_0) against u through T, one ratio for all probes."""
    pairs = []
    for u in dense_probes(op.big):
        V = _insert_first_slot(op.big, u)
        for _ in range(ell):
            V = x_coupling_step(op.big, V)
        pairs.append((u, V[0]))
    return Fraction(probe_ratio(op, pairs, "power"))


def primary_projector(big, i: int, eps: int) -> PrimaryComponent:
    """Image of the factor product on all of big (x) F, with the Casimir
    eigenvalue check that identifies it as the primary component."""
    ctx = rank_context(len(big.indices) - 1)
    lam = big.inf_char
    shifts, _norm = projector_factors(ctx, lam, i, eps)
    slots = len(big.indices)
    ech = TrackedEchelon()
    kept = []
    for pos in range(slots):
        for j in range(big.dim):
            V = [dict() for _ in range(slots)]
            V[pos] = {j: 1}
            for s in shifts:
                V = casimir_shifted_step(big, ctx, V, s)
            flat = _flatten(V)
            if not flat:
                continue
            if ech.insert(flat)[0] is not None:
                kept.append(V)
    if not kept:
        return PrimaryComponent(big=big, i=i, eps=eps, dim=0, basis=[], eigenvalue=None)
    # eigenvalue check: cDelta acts on the image by |lam + eps e_i|^2 - |rho|^2
    target = [Fraction(0)] * ctx.r
    target[i - 1] = Fraction(eps)
    eig = _norm2([a + b for a, b in zip(lam, target)]) - _norm2(rho(ctx))
    for V in kept:
        W = casimir_shifted_step(big, ctx, V, eig)
        if any(comp for comp in W):
            raise IdentityViolationError(
                "projector image is not a Casimir eigenspace at the expected value"
            )
    return PrimaryComponent(big=big, i=i, eps=eps, dim=len(kept), basis=kept,
                            eigenvalue=eig)


def is_invariant(e, n: int) -> bool:
    """True iff the enveloping element e commutes with every subalgebra
    generator X_ab (1 <= a < b <= n) and is fixed by the g_n twist."""
    e = normal_order(e)
    if ad_gn(e, n) != e:
        return False
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if commutator(gen(a, b), e).terms:
                return False
    return True


def tuple_mul(a, b):
    """Product of two polynomials with exponent-tuple keys."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _h_polys(top, terms, nvars):
    """Complete homogeneous sums h_0..h_top of the eigenvalues terms, h_k
    summed over the k-multisets of their positions."""
    hs = []
    for k in range(top + 1):
        out = {}
        for picked in combinations_with_replacement(range(len(terms)), k):
            e, c = (0,) * nvars, 1
            for t in picked:
                e = tuple(map(add, e, terms[t][0]))
                c *= terms[t][1]
            out[e] = out.get(e, 0) + c
        hs.append({e: c for e, c in out.items() if c})
    return hs


def h_determinant(alpha, terms, nvars):
    """The universal O-character of the partition alpha at the eigenvalues
    terms ((exp tuple, int coeff) pairs), by Leibniz expansion of the
    h-determinant: one signed product per permutation, the rows taken from
    the last one up, so that products over the same choice of lower rows are
    formed once."""
    alpha = tuple(a for a in alpha if a)
    ell = len(alpha)
    if not ell:
        return {(0,) * nvars: 1}
    hs = _h_polys(alpha[0] + ell - 1, [(tuple(e), c) for e, c in terms], nvars)

    def h(k):
        return hs[k] if k >= 0 else {}

    entry = {}
    for i in range(ell):
        for j in range(ell):
            entry[i, j] = dict(h(alpha[i] - i + j))
            p_add_into(entry[i, j], h(alpha[i] - i - j - 2), -1)
    out = {}

    def expand(i, cols, prod):
        # rows i+1.. take the columns outside cols; prod is their product
        if i < 0:
            inversions = sum(cols[a] > cols[b] for a in range(ell) for b in range(a + 1, ell))
            p_add_into(out, prod, -1 if inversions % 2 else 1)
            return
        for j in range(ell):
            if j not in cols and entry[i, j]:
                nxt = tuple_mul(entry[i, j], prod)
                if nxt:
                    expand(i - 1, (j,) + cols, nxt)

    expand(ell - 1, (), {(0,) * nvars: 1})
    return out


def full_orbit(kind, v):
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


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def full_orbit_so_char(m, mu):
    """The whole weight multiset of the so(m)-irrep mu by Freudenthal on every
    weight: each dominant weight's multiplicity is spread over its orbit at
    once, and a string weight v + k*alpha is read off that full table."""
    kind, s = so_alg(m)
    mu = tuple(int(c) for c in mu)
    if kind == "so2":
        return {mu: 1}
    pos = _positive_roots(kind, s)
    two_rho = tuple(int(2 * c) for c in group_rho(m))
    top = _dot(mu, mu) + _dot(mu, two_rho)
    dominants = sorted(_dominant_below(kind, (mu,), pos), key=lambda v: -_dot(v, v))
    full = dict.fromkeys(full_orbit(kind, mu), 1)
    for v in dominants:
        if v == mu:
            continue
        denom = top - _dot(v, v) - _dot(v, two_rho)
        total = 0
        for alpha in pos:
            w = v
            while True:
                w = tuple(map(add, w, alpha))
                mw = full.get(w, 0)
                if not mw:
                    break
                total += mw * _dot(w, alpha)
        val, rem = divmod(2 * total, denom)
        if rem or val <= 0:
            raise AssertionError(f"Freudenthal gives {2 * total}/{denom} at {v} in {mu}")
        full.update(dict.fromkeys(full_orbit(kind, v), val))
    return full


def full_restrict_weights(weights, m_from):
    """Restrict a whole weight multiset of so(m_from) to the so(m_from - 1)
    torus: odd m_from keeps every coordinate, even m_from drops the last."""
    if m_from % 2:
        return dict(weights)
    out = {}
    for w, c in weights.items():
        out[w[:-1]] = out.get(w[:-1], 0) + c
    return out


def full_peel(weights, m):
    """Peel a whole Weyl-invariant weight multiset into so(m)-irreps, taking
    off the full character of its lex-max weight each time."""
    kind, _ = so_alg(m)
    remaining = {w: c for w, c in weights.items() if c}
    if kind == "so2":
        return dict(sorted(remaining.items()))
    labels = {}
    while remaining:
        top = max(remaining)
        count = remaining[top]
        if count <= 0 or not _dominant(kind, top):
            raise AssertionError(f"peeling so({m}) meets {count} at {top}")
        labels[top] = labels.get(top, 0) + count
        p_add_into(remaining, full_orbit_so_char(m, top), -count)
    return labels


def subtracting_peel(weights, m):
    """Decompose a Weyl-invariant weight multiset, given by its dominant
    part, into so(m)-irreps by subtracting the dominant table of its lex-max
    weight until nothing is left; a count that is not positive there, and a
    key that is not dominant, raise CharacterCheckError."""
    kind, _ = so_alg(m)
    remaining = {w: c for w, c in weights.items() if c}
    labels = {}
    if kind == "so2":
        return dict(sorted(remaining.items()))
    for w in remaining:
        if not _dominant(kind, w):
            raise CharacterCheckError(f"peeling so({m}) meets the weight {w}, which is not dominant")
    while remaining:
        top = max(remaining)
        count = remaining[top]
        if count <= 0:
            raise CharacterCheckError(
                f"peeling so({m}) meets multiplicity {count} at the lex-max weight "
                f"{top}; a character has a positive one at a dominant weight"
            )
        labels[top] = labels.get(top, 0) + count
        p_add_into(remaining, dominant_char(m, top), -count)
    return labels


def fraction_query(a, b, c):
    """The triple (a, b, c), each wrapped with ``Fraction``."""
    return Fraction(a), Fraction(b), Fraction(c)


def _even_natural(x: Fraction) -> bool:
    """True iff x is an even integer >= 0."""
    return x.denominator == 1 and x >= 0 and x.numerator % 2 == 0


def fraction_multiplicity(a, b, c) -> int:
    """The closed-form fusion multiplicity on Fractions: 0 unless a + b - c
    is an even natural number, 2 on the integral jump region
    |a - b| <= -c - 2 and a + b + c >= -2, and 1 elsewhere."""
    a, b, c = fraction_query(a, b, c)
    if not _even_natural(a + b - c):
        return 0
    return 2 if fraction_jump_region(a, b, c) else 1


def fraction_jump_region(a, b, c) -> bool:
    """Integral a, b and c with |a - b| <= -c - 2 and a + b + c >= -2, in
    Fractions."""
    a, b, c = fraction_query(a, b, c)
    integral = a.denominator == 1 and b.denominator == 1 and c.denominator == 1
    return integral and abs(a - b) <= -c - 2 and a + b + c >= -2


def fraction_oracle(a, b, c) -> int:
    """The band elimination of the raising matrix on Fractions: row j holds
    B'_j = (k-j)(b-k+j+1) in column j and A_(j+1) = (j+1)(a-j) in column
    j + 1, each tested against zero as a Fraction comparison."""
    a, b, c = fraction_query(a, b, c)
    if not _even_natural(a + b - c):
        return 0
    k = int((a + b - c) / 2)
    rank = 0
    carry = False
    for j in range(k + 1):
        a_entry = j < k and a != j
        b_entry = j < k and b != k - j - 1
        if carry:
            rank += 1
            carry = a_entry
        elif b_entry:
            rank += 1
            carry = False
        else:
            carry = a_entry
    return k + 1 - rank


def fraction_grid(a_values, k_values):
    """(a, b, c, multiplicity) over all pairs from a_values and depths from
    k_values, c = a + b - 2k formed per cell in Fractions."""
    table = []
    avals = [Fraction(x) for x in a_values]
    for a in avals:
        for b in avals:
            for k in k_values:
                c = a + b - 2 * k
                table.append((a, b, c, fraction_multiplicity(a, b, c)))
    return table
