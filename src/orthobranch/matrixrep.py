"""Explicit matrix models of finite-dimensional orthogonal-group irreducibles.

Coordinates and conventions
---------------------------
A representation lives over a fixed tuple of ambient coordinate indices
(``0..n`` for the larger group of a nested pair, ``1..n`` for the smaller
one).  The Lie algebra basis consists of the rotation generators ``X[a,b]``
(``a < b`` ambient indices) acting on the coordinate functions by

    X[a,b] : z_b -> z_a,   z_a -> -z_b,   (others fixed),

so on column vectors ``X[a,b] = E[a,b] - E[b,a]`` (antisymmetric).  The
abstract bracket is the generator table ``enveloping.gen_bracket``, extended
bilinearly by ``so_bracket``; X[b,a] = -X[a,b] (``enveloping.canon_gen``).

Weight coordinates pair ambient indices from the *top*: weight coordinate
``k`` (1-based) corresponds to the index pair ``(i_{L-2k}, i_{L-2k+1})`` of
the ascending index tuple, and when the tuple has odd length the smallest
index is the left-over "spare".  With this suffix pairing the Cartan of the
smaller group is literally contained in the Cartan of the larger one, and
dropping the last weight coordinate matches the weight-restriction map used
by the character layer.  A frame has at least two indices (O(1) is never a
member of a pair).  The distinguished reflection of every group is the sign
flip of the *largest* ambient coordinate, the second member of pair 1, which
is also the conjugation used by the symbolic enveloping-algebra layer; on the
variables below it is a permutation, zeta1+ <-> zeta1- in z and in w.

Irreducible models are built inside polynomials in two vector variables
``z, w``, written in complex weight coordinates: for each index pair ``(p,q)``
the variables ``zeta+ = z_p - i z_q`` (weight ``+e_k``) and
``zeta- = z_p + i z_q`` (weight ``-e_k``), plus the spare coordinate with
weight 0.  Every monomial then has a well-defined weight, so echelon bases
stay weight-homogeneous for free.

The root vectors are written down, not solved for (a Chevalley basis,
Humphreys, *Introduction to Lie Algebras*, Sec. 25).  With ``(p_k, q_k)`` the
index pair of weight coordinate k, ``zeta(c e_k)`` the variable of weight
``c e_k`` (c = +-1), ``zeta_0`` the spare variable and u the spare index:

    E(c_i e_i + c_j e_j) = -c_i c_j X[p_j,p_i] + i c_i X[q_j,p_i]
                           + i c_j X[p_j,q_i] + X[q_j,q_i]      (i < j),
        zeta(-c_i e_i) -> -2 c_i c_j zeta(c_j e_j),
        zeta(-c_j e_j) ->  2 c_i c_j zeta(c_i e_i);
    E(c e_k) = i c X[u,p_k] + X[u,q_k]                  (frames with a spare),
        zeta(-c e_k) -> 2 i c zeta_0,   zeta_0 -> -i c zeta(c e_k).

Each acts by that table on the z variables and on the w variables alike and
kills every other variable, so the closure applies one table per root.

Every model, the trivial and det labels included, comes from one closure.
A highest-weight label ``(m1, m2)`` is seeded by
``(zeta1+ in z)^(m1-m2) * D^(m2)`` (the constant 1 for a zero label) with
``D = zeta1+(z) zeta2+(w) - zeta2+(z) zeta1+(w)``, the seed is checked to be
killed by all raising root vectors, and the module is the closure of the seed
under the lowering root vectors (plus the distinguished reflection for the
even-size full-row labels, whose orthogonal irreducible is induced from the
rotation subgroup).  Labels with more than two nonzero rows are out of scope
and raise ``ResourceLimitError``.

The det-twist ``eps = -1`` never changes the underlying polynomial model:
it multiplies the action of every reflection by ``-1`` (``twist_sign``).

Polynomials serve only to find the basis and end with the closure
(``_close_model``).  Its coordinates of each lowering image F v_i and
reflected vector R v_i are the columns of F and R; h_k acts by the weight
tags; the raising root vectors follow in basis order from the recipes
(E v_0 = 0, E F v_p = F E v_p + [E, F] v_p and E R v_p = R (R E R) v_p).
Both tables are the frame's, made once with it: [E, F] is read from
``structure``, the table the bracket check reads too, and R E R from
``conjugates``.
A model stores these Chevalley columns, R and a ``PolyModel`` record of the
tags, the recipes and the Gram matrix of the invariant pairing, which
invariance fixes up to one scalar (Schur): the seed's row pairs polynomials,
the other rows follow from the recipes (``_invariant_gram``).  ``action``
forms an X[a,b] from the columns on request, its real and imaginary parts
each a real combination of them; only ``scaled_generators`` (so ``act`` and
``measure.verify_power_identity``), ``verify_reflection`` and
``rep_to_bundle`` call it.

Every scalar is the one exact number of ``linalg`` (an int or a Fraction
when real, else a ``linalg.Gi``), and ``polyarith.p_add_into`` is the one
sparse accumulate.  Most of it is real: the seed is integral, a long root's
table has entries +-2 and moves the weight's coordinate sum by 0 or +-2, a
short root's has +-i, +-2i and moves it by +-1.  So each basis polynomial is
real or imaginary by the parity of that sum (the echelon holds the imaginary
ones times -i and eliminates in ints); the stored columns and the Gram matrix
(it pairs mu with -mu) are real.  Only the X[a,b] carry i (X[p,q] = -i h_k),
each purely real or purely imaginary.  Columns are normalised by
``linalg.exact``, the normaliser bundles are read with, so a loaded bundle
holds the same scalar types as the model it was written from.

Construction is self-verifying by checks apart from that derivation, all on
the real stored columns: the seed is annihilated by the raising operators,
the dimension matches character theory, a non-induced span is
reflection-stable, the quadratic Casimir (the frame's ``casimir_form``) acts
by the expected scalar, ``_verify_rep`` checks every bracket relation of
the Chevalley basis (the frame's ``structure``) on probe vectors, and the
derived Gram matrix must come out symmetric.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .characters import o_char_on_multiset
from .linalg import Cols, Gi, Scalar, TrackedEchelon, apply_cols, exact
from .linalg import qi_from_string, qi_to_string
from .polyarith import p_add_into
from .records import Record
from .weights import InvalidRankError, RankContext, ResourceLimitError, group_rho
from .branching import FDLabel, fd_label, inf_char_of
from .enveloping import UEElement, flip_sign, gen_bracket

Pair = Tuple[int, int]
Combo = Dict[Pair, Scalar]  # element of the rotation algebra as a combination of X[a,b]
Mono = Tuple[int, ...]  # dense exponent tuple over a frame's variable list
Poly = Dict[Mono, Scalar]
VarTable = Dict[int, Dict[int, Scalar]]  # a linear map on a frame's variables: var -> {var': coeff}
IntPair = Tuple[Dict[int, int], Dict[int, int]]  # the vector re + i im, each part sparse ints
Letter = Tuple[Cols, Cols]  # d X[a,b] as its real and imaginary int columns ([] where zero)
Trie = Tuple[Dict[int, Scalar], Dict[Pair, "Trie"]]  # ({slot: coeff}, {letter: child})

DEFAULT_DIM_CAP = 400


# ---------------------------------------------------------------------------
# abstract bracket on X[a,b] combinations
# ---------------------------------------------------------------------------

def so_bracket(e1: Combo, e2: Combo) -> Combo:
    """Bracket of two rotation-algebra elements given as X[a,b] combinations:
    the bilinear extension of the generator table ``gen_bracket``."""
    out: Combo = {}
    for p1, c1 in e1.items():
        for p2, c2 in e2.items():
            table = gen_bracket(p1, p2)
            if table:
                p_add_into(out, table, c1 * c2)
    return out


# ---------------------------------------------------------------------------
# frames: index pairing, complex variables, root vectors
# ---------------------------------------------------------------------------

class Frame:
    """All coordinate data attached to one ascending tuple of ambient indices."""

    def __init__(self, indices: Tuple[int, ...]):
        if list(indices) != sorted(set(indices)):
            raise InvalidRankError(f"indices {indices} must be strictly ascending")
        if len(indices) < 2:
            raise InvalidRankError(f"indices {indices}: a frame needs at least two indices")
        self.indices = tuple(indices)
        L = len(indices)
        self.rank = L // 2
        self.spare: Optional[int] = indices[0] if L % 2 else None
        # weight coordinate k (1-based) <-> pair (indices[L-2k], indices[L-2k+1])
        self.pairs: Tuple[Pair, ...] = tuple(
            (indices[L - 2 * k], indices[L - 2 * k + 1]) for k in range(1, self.rank + 1)
        )
        self.reflection_index = indices[-1]
        # the rotation generators X[a,b], a < b, in bundle and verification order
        self.generators: Tuple[Pair, ...] = tuple(
            (a, b) for i, a in enumerate(indices) for b in indices[i + 1:]
        )

        # variable list: for each vector set (0 = z, 1 = w):
        #   for k = 1..m: "+k" then "-k"; finally the spare if present.
        specs: List[Tuple[int, str, int]] = []  # (set, sign-kind, k)
        for set_id in (0, 1):
            for k in range(1, self.rank + 1):
                specs.append((set_id, "+", k))
                specs.append((set_id, "-", k))
            if self.spare is not None:
                specs.append((set_id, "0", 0))
        self.var_specs = tuple(specs)
        self.nvars = len(specs)
        self.var_index: Dict[Tuple[int, str, int], int] = {s: i for i, s in enumerate(specs)}

        wts = []
        for (_set, kind, k) in specs:
            w = [0] * self.rank
            if kind == "+":
                w[k - 1] = 1
            elif kind == "-":
                w[k - 1] = -1
            wts.append(tuple(w))
        self.var_weight: Tuple[Tuple[int, ...], ...] = tuple(wts)

        # distinguished reflection: flip the largest ambient index, the second
        # member of pair 1, which swaps the variables +1 <-> -1 of each vector set
        swap = {self.var_index[(s, c, 1)]: self.var_index[(s, d, 1)]
                for s in (0, 1) for c, d in (("+", "-"), ("-", "+"))}
        self.reflection_perm = tuple(swap.get(v, v) for v in range(self.nvars))

        # the root vectors in closed form (module docstring), each with its
        # action on the variables of both vector sets; an image (c, k, c2, k2, x)
        # sends zeta(c e_k) to x zeta(c2 e_k2), k = 0 naming the spare
        def zeta(set_id: int, c: int, k: int) -> int:  # the variable of weight c e_k
            return self.var_index[(set_id, "+" if c > 0 else "-" if c < 0 else "0", k)]

        def add_root(w: Dict[int, int], combo: Combo,
                     images: List[Tuple[int, int, int, int, Scalar]]) -> None:
            root = tuple(w.get(k, 0) for k in range(1, self.rank + 1))
            self.roots[root] = combo
            self.root_tables[root] = {zeta(s, c, k): {zeta(s, c2, k2): x}
                                      for s in (0, 1) for c, k, c2, k2, x in images}

        self.roots: Dict[Tuple[int, ...], Combo] = {}  # keyed by the root in weight coordinates
        self.root_tables: Dict[Tuple[int, ...], VarTable] = {}
        for i, (p_i, q_i) in enumerate(self.pairs, start=1):
            for j, (p_j, q_j) in enumerate(self.pairs[i:], start=i + 1):
                for ci in (1, -1):
                    for cj in (1, -1):
                        s = ci * cj
                        add_root({i: ci, j: cj},
                                 {(p_j, p_i): -s, (q_j, p_i): Gi(0, ci),
                                  (p_j, q_i): Gi(0, cj), (q_j, q_i): 1},
                                 [(-ci, i, cj, j, -2 * s), (-cj, j, ci, i, 2 * s)])
            if self.spare is not None:
                u = self.spare
                for c in (1, -1):
                    add_root({i: c}, {(u, p_i): Gi(0, c), (u, q_i): 1},
                             [(-c, i, 0, 0, Gi(0, 2 * c)), (0, 0, c, i, Gi(0, -c))])

        # the Chevalley basis: the root vectors, then h_k = i X[p_k, q_k]
        self.basis: Dict[object, Combo] = dict(self.roots)
        self.basis.update((k, {pair: Gi(0, 1)}) for k, pair in enumerate(self.pairs, start=1))
        ech = TrackedEchelon()
        for e in self.basis.values():
            ech.insert(e)
        keys = list(self.basis)
        self.gen_coords: Dict[Pair, Dict[object, Scalar]] = {
            g: {keys[i]: c for i, c in sorted(ech.coordinates({g: 1}).items())}
            for g in self.generators}
        # the quadratic Casimir -sum X[a,b]^2 as the form K over the basis:
        # sum K[x, y] M_x M_y, with K = -sum_g c_g (x) c_g for c_g = gen_coords[g]
        form: Dict[Tuple[object, object], Scalar] = {}
        for c in self.gen_coords.values():
            for x, cx in c.items():
                p_add_into(form, {(x, y): cy for y, cy in c.items()}, -cx)
        self.casimir_form = {xy: exact(k) for xy, k in form.items()}
        # structure constants, taken when the frame is made: structure[i][k]
        # holds the items (z, N) of [x, y] = sum N z, x = keys[i], y = keys[i+1+k]
        self.structure = [[tuple((z, exact(n)) for z, n in self.root_coords(
            so_bracket(self.basis[x], self.basis[y])).items()) for y in keys[i + 1:]]
            for i, x in enumerate(keys)]
        # R E R over the basis for each raising root vector E, R the reflection
        top = self.reflection_index
        self.conjugates = {w: self.root_coords({(a, b): flip_sign(a, b, top) * c
                                                for (a, b), c in e.items()})
                           for w, e in self.raising_ops()}

    # -- Cartan and root vectors -------------------------------------------

    def root_coords(self, combo: Combo) -> Dict[object, Scalar]:
        """combo expanded over the Chevalley basis: the root vectors (keyed by
        root) and h_k (keyed by k)."""
        out: Dict[object, Scalar] = {}
        for pair, c in combo.items():
            p_add_into(out, self.gen_coords[pair], c)
        return out

    def lowering_ops(self) -> List[Tuple[Tuple[int, ...], Combo]]:
        """The negative roots' vectors (first nonzero coordinate < 0), by
        descending root."""
        return [(w, e) for w, e in sorted(self.roots.items(), reverse=True)
                if next(c for c in w if c) < 0]

    def raising_ops(self) -> List[Tuple[Tuple[int, ...], Combo]]:
        """The positive roots' vectors, by ascending root."""
        return [(w, e) for w, e in sorted(self.roots.items()) if next(c for c in w if c) > 0]


@lru_cache(maxsize=None)
def get_frame(indices: Tuple[int, ...]) -> Frame:
    return Frame(indices)


# ---------------------------------------------------------------------------
# sparse polynomial operations
# ---------------------------------------------------------------------------

def poly_apply_table(table: VarTable, poly: Poly) -> Poly:
    """D(poly) for the derivation D that acts on the variables by table."""
    out: Poly = {}
    for mono, coeff in poly.items():
        for v, exp in enumerate(mono):
            if not exp:
                continue
            tab = table.get(v)
            if not tab:
                continue
            base = coeff if exp == 1 else coeff * exp
            for v2, c in tab.items():
                lst = list(mono)
                lst[v] -= 1
                lst[v2] += 1
                key = tuple(lst)
                new = out.get(key, 0) + base * c
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
    return out


def poly_reflect(frame: Frame, poly: Poly) -> Poly:
    """The distinguished reflection of poly: an involution permuting the
    variables, so it permutes the exponents of each monomial."""
    perm = frame.reflection_perm
    return {tuple(mono[v] for v in perm): coeff for mono, coeff in poly.items()}


def mono_weight(frame: Frame, mono: Mono) -> Tuple[int, ...]:
    w = [0] * frame.rank
    for v, exp in enumerate(mono):
        if not exp:
            continue
        vw = frame.var_weight[v]
        for k in range(frame.rank):
            if vw[k]:
                w[k] += vw[k] * exp
    return tuple(w)


def poly_weight(frame: Frame, poly: Poly) -> Tuple[int, ...]:
    it = iter(poly)
    first = mono_weight(frame, next(it))
    for mono in it:
        if mono_weight(frame, mono) != first:
            raise AssertionError("polynomial is not weight-homogeneous")
    return first


def fischer_pair(frame: Frame, p1: Poly, p2: Poly) -> Scalar:
    """Invariant bilinear pairing: monomials pair with their sign-swapped
    duals, contributing (product of exponent factorials) * 2^(paired-variable
    degree).  Symmetric, nondegenerate, and infinitesimally invariant:
    B(Xu, v) = -B(u, Xv) for every rotation generator, B(gu, gv) = B(u, v)
    for the distinguished reflection."""
    total = 0
    for mono, c1 in p1.items():
        lst = [0] * frame.nvars
        val = 1
        shift = 0
        for v, exp in enumerate(mono):
            if not exp:
                continue
            set_id, kind, k = frame.var_specs[v]
            if kind == "+":
                lst[frame.var_index[(set_id, "-", k)]] = exp
                shift += exp
            elif kind == "-":
                lst[frame.var_index[(set_id, "+", k)]] = exp
                shift += exp
            else:
                lst[v] = exp
            val *= factorial(exp)
        c2 = p2.get(tuple(lst))
        if c2 is None:
            continue
        total = total + c1 * c2 * (val * 2 ** shift)
    return total


# ---------------------------------------------------------------------------
# polynomial models
# ---------------------------------------------------------------------------

class Recipe(Record):
    """How basis vector i arose: kind is 'seed', 'op' (the lowering root
    vector ``frame.lowering_ops()[op_index]`` applied to parent), or 'refl'
    (distinguished reflection of parent)."""

    _fields = ("kind", "parent", "op_index")

    def __init__(self, kind: str, parent: int = -1, op_index: int = -1) -> None:
        self.kind = kind
        self.parent = parent
        self.op_index = op_index


class PolyModel(Record):
    """What a built model keeps of its closure: the weight tag and the
    construction recipe of each basis vector, and ``gram``, the sparse rows of
    the invariant pairing's matrix B[i][j] = B(b_i, b_j)."""

    _fields = ("tags", "recipes", "gram")

    def __init__(self, tags: List[Tuple[int, ...]], recipes: List[Recipe],
                 gram: Optional[List[Dict[int, Scalar]]] = None) -> None:
        self.tags = tags
        self.recipes = recipes
        self.gram = [] if gram is None else gram


def _binom_seed(frame: Frame, mu: Sequence[int]) -> Poly:
    nonzero = [c for c in mu if c]
    if len(nonzero) > 2:
        raise ResourceLimitError(
            f"label rows {tuple(mu)}: models with more than two nonzero rows are out of scope"
        )
    m1 = mu[0] if len(mu) >= 1 else 0
    m2 = mu[1] if len(mu) >= 2 else 0
    if len(nonzero) >= 2 and frame.rank < 2:
        raise InvalidRankError(f"rows {tuple(mu)} need rank >= 2, frame has rank {frame.rank}")
    seed: Poly = {}
    a = m1 - m2
    vz1 = frame.var_index[(0, "+", 1)]
    if m2 == 0:
        mono = [0] * frame.nvars
        mono[vz1] = a
        seed[tuple(mono)] = 1
        return seed
    vz2 = frame.var_index[(0, "+", 2)]
    vw1 = frame.var_index[(1, "+", 1)]
    vw2 = frame.var_index[(1, "+", 2)]
    for k in range(m2 + 1):
        mono = [0] * frame.nvars
        mono[vz1] = a + (m2 - k)
        mono[vw2] = m2 - k
        mono[vz2] = k
        mono[vw1] = k
        seed[tuple(mono)] = comb(m2, k) * (-1) ** k
    return seed


def _close_model(frame: Frame, label: FDLabel,
                 dim_cap: int) -> Tuple[PolyModel, List[Poly], List[Cols], Cols]:
    """The model of label (no ``gram`` yet), its basis polynomials, and the
    columns of its lowering root vectors (``lower[op_index]``) and untwisted reflection."""
    mu = tuple(label.mu) + (0,) * (frame.rank - len(label.mu))
    seed = _binom_seed(frame, mu)
    tag = tuple(mu)
    if poly_weight(frame, seed) != tag:
        raise AssertionError(f"seed for {label} does not have weight {tag}")

    for w, _e in frame.raising_ops():
        if poly_apply_table(frame.root_tables[w], seed):
            raise AssertionError(f"seed for {label} not annihilated by raising root {w}")

    lows = frame.lowering_ops()
    use_refl = label.induced
    model, vectors = PolyModel([tag], [Recipe("seed")]), [seed]
    ech = TrackedEchelon()
    ech.insert(seed)

    def real(poly: Poly, weight: Tuple[int, ...]) -> Poly:
        """poly of that weight, times -i when the weight's coordinate sum and
        the seed's differ in parity: real (module docstring).  One weight
        gets one factor, so coordinates are unchanged."""
        odd = (sum(weight) - sum(tag)) % 2
        return {m: c * Gi(0, -1) for m, c in poly.items()} if odd else poly

    lower: List[Dict[int, Dict[int, Scalar]]] = [dict() for _ in lows]  # [op][i]: F_op v_i
    refl: Dict[int, Dict[int, Scalar]] = {}  # [i]: R v_i
    queue = [0]
    while queue:
        i = queue.pop()
        base = vectors[i]
        base_tag = model.tags[i]
        steps = [(poly_apply_table(frame.root_tables[w], base), tuple(map(add, base_tag, w)),
                  Recipe("op", i, op_index), lower[op_index])
                 for op_index, (w, _f) in enumerate(lows)]
        if use_refl:
            steps.append((poly_reflect(frame, base), (-base_tag[0],) + base_tag[1:],
                          Recipe("refl", i), refl))
        for img, new_tag, recipe, coords in steps:
            idx, coords[i] = ech.insert(real(img, new_tag))
            if idx is not None:  # img is independent of the basis: added to it
                if idx != len(vectors):
                    raise AssertionError(f"echelon index {idx} != model dimension {len(vectors)}")
                vectors.append(img)
                model.tags.append(new_tag)
                model.recipes.append(recipe)
                if len(vectors) > dim_cap:
                    raise ResourceLimitError(
                        f"model for {label} exceeded dimension cap {dim_cap}"
                    )
                queue.append(idx)
    if not use_refl:
        # non-induced labels: the span must already be reflection-stable
        for i, v in enumerate(vectors):  # R keeps a weight's coordinate sum's parity
            refl[i] = ech.coordinates(real(poly_reflect(frame, v), model.tags[i]))
            if refl[i] is None:
                raise AssertionError(f"model for {label} is not reflection-stable")
    span = range(len(vectors))
    lower_cols = [[{k: exact(x) for k, x in col[i].items()} for i in span] for col in lower]
    return model, vectors, lower_cols, [{k: exact(x) for k, x in refl[i].items()} for i in span]


def _invariant_gram(frame: Frame, model: PolyModel, vectors: List[Poly],
                    lower: List[Cols], refl: Cols) -> List[Dict[int, Scalar]]:
    """Sparse rows of B[i][j] = B(b_i, b_j), the invariant pairing.  The seed
    row pairs polynomials (``fischer_pair``); row i of a recipe follows by
    invariance, B(F v_p, v_j) = -B(v_p, F v_j) and B(R v_p, v_j) = B(v_p, R v_j)
    (R untwisted), over j of weight -tag_i.  Asymmetric rows raise AssertionError."""
    by_weight: Dict[Tuple[int, ...], List[int]] = {}
    for j, t in enumerate(model.tags):
        by_weight.setdefault(t, []).append(j)
    rows: List[Dict[int, Scalar]] = []
    for i, (t, rec) in enumerate(zip(model.tags, model.recipes)):
        dual = by_weight.get(tuple(-c for c in t), ())
        if rec.kind == "seed":
            row = {j: fischer_pair(frame, vectors[0], vectors[j]) for j in dual}
        else:
            cols, sign = (lower[rec.op_index], -1) if rec.kind == "op" else (refl, 1)
            parent = rows[rec.parent]
            row = {j: sign * sum(x * parent[k] for k, x in cols[j].items() if k in parent)
                   for j in dual}
        rows.append({j: exact(v) for j, v in row.items() if v})
    for i, row in enumerate(rows):
        for j, v in row.items():
            if rows[j].get(i) != v:
                raise AssertionError(f"invariant pairing is not symmetric: B[{i}][{j}] = {v}, "
                                     f"B[{j}][{i}] = {rows[j].get(i, 0)}")
    return rows


def _generator_matrices(frame: Frame, model: PolyModel, lower: List[Cols],
                        refl: Cols) -> Dict[object, Cols]:
    """Columns of every Chevalley basis element of a closed model by the
    module docstring's recursion, with [E, F] read from the frame's
    ``structure`` and R E R from its ``conjugates``; column j of a raising
    root vector reads columns p < j only."""
    lows = frame.lowering_ops()
    mats: Dict[object, Cols] = {w: cols for (w, _f), cols in zip(lows, lower)}
    for k in range(1, frame.rank + 1):
        mats[k] = [{j: t[k - 1]} if t[k - 1] else {} for j, t in enumerate(model.tags)]

    keys = list(frame.basis)

    def stored(x, y) -> Dict[object, Scalar]:  # [x, y] from structure's [x, y] or [y, x]
        i, j = keys.index(x), keys.index(y)
        if i < j:
            return dict(frame.structure[i][j - i - 1])
        return {z: -n for z, n in frame.structure[j][i - j - 1]}

    raising = [w for w, _e in frame.raising_ops()]
    brackets = [[stored(w, f) for f, _f in lows] for w in raising]
    mats.update((w, [{}]) for w in raising)  # E v_0 = 0 at the seed
    for rec in model.recipes[1:]:
        p = rec.parent
        for r, w in enumerate(raising):
            if rec.kind == "op":
                col = apply_cols(lower[rec.op_index], mats[w][p],
                                 _apply(mats, brackets[r][rec.op_index], {p: 1}))
            else:
                col = apply_cols(refl, _apply(mats, frame.conjugates[w], {p: 1}))
            mats[w].append({i: exact(x) for i, x in col.items()})
    return {key: mats[key] for key in keys}


def _apply(mats: Dict, coords: Dict, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """sum coords[key] mats[key] vec for matrices given by their columns."""
    out: Dict[int, Scalar] = {}
    for key, c in coords.items():
        apply_cols(mats[key], {j: c * x for j, x in vec.items()}, out)
    return out


def _re_im(x: Scalar) -> Tuple[Scalar, Scalar]:
    """The real and imaginary parts of an exact scalar."""
    return (x.re, x.im) if type(x) is Gi else (x, 0)


def _combined(mats: Dict, coords: Dict, dim: int, q: int = 1) -> Cols:
    """Columns of sum coords[key] mats[key] / q, entries normalised by
    ``exact``; a key missing from mats acts by zero.  With real coords over a
    common denominator q, pass q times them: the sum is then made in ints
    where the columns are, and each entry is divided once."""
    terms = [(mats[key], c) for key, c in coords.items() if key in mats]
    out: Cols = []
    for j in range(dim):
        col: Dict[int, Scalar] = {}
        for cols, c in terms:
            p_add_into(col, cols[j], c)
        out.append({i: exact(x if q == 1 else Fraction(x, q)) for i, x in col.items()})
    return out


# ---------------------------------------------------------------------------
# representation objects
# ---------------------------------------------------------------------------

class MatrixRep(Record):
    """A concrete finite-dimensional representation with exact matrices.

    Every operator is held as sparse columns (``linalg.Cols``): column j maps
    a row index to the nonzero coordinate of the image of basis vector j.
    A constructed model stores the columns of the frame's Chevalley basis
    (``chevalley()``; ``Frame.basis``: each root vector keyed by its root,
    h_k by k); ``action`` forms a generator X[a,b], a < b, from them on each
    request and keeps nothing.  The defining representation and a loaded
    bundle hold the X[a,b] they were made from in ``_x`` instead and derive
    the Chevalley columns on request.  Every one is made with the columns of
    the distinguished reflection (largest-coordinate sign flip), det-twist
    included, which ``reflection()`` returns; ``apply`` applies an element
    given by its ``Frame.root_coords``.

    The label is the one record of what the representation is.  Derived from
    it: ``inf_char`` (mu + rho of the label's own group), ``twist_sign``
    (the label's eps, the sign the reflection carries) and ``group_size``
    (from ``indices``); a bundle's ``group_tag`` and ``highest_weight`` are
    read off the label by ``_metadata``.

    Two representations are equal when every field is, the stored columns
    and ``cache`` included (``SymmetryBreakingOperator.verified`` relies on
    it); the repr leaves the columns and the cache out.  A representation is
    mutable and unhashable.
    """

    _fields = ("dim", "label", "indices", "_refl", "kind", "model", "_chev", "_x", "cache")
    _hidden = ("_refl", "_chev", "_x", "cache")

    def __init__(self, dim: int, label: FDLabel, indices: Tuple[int, ...], _refl: Cols,
                 kind: str = "model", model: Optional[PolyModel] = None,
                 _chev: Optional[Dict[object, Cols]] = None,
                 _x: Optional[Dict[Pair, Cols]] = None, cache: Optional[Dict] = None) -> None:
        self.dim = dim
        self.label = label
        self.indices = indices
        self._refl = _refl
        self.kind = kind
        self.model = model
        self._chev = {} if _chev is None else _chev
        self._x = {} if _x is None else _x
        self.cache = {} if cache is None else cache

    @property
    def inf_char(self) -> Tuple[Fraction, ...]:
        return inf_char_of(self.label)

    @property
    def twist_sign(self) -> int:
        """The label's eps: +1 for an induced label, whose twist is isomorphic."""
        return self.label.eps

    @property
    def group_size(self) -> int:
        return len(self.indices)

    @property
    def frame(self) -> Frame:
        return get_frame(self.indices)

    def chevalley(self) -> Dict[object, Cols]:
        """Columns of the Chevalley basis: stored by a constructed model, else
        derived from the X[a,b] the representation was made from (one that it
        lacks acts by zero)."""
        return self._chev or {key: _combined(self._x, combo, self.dim)
                              for key, combo in self.frame.basis.items()}

    def apply(self, coords: Dict[object, Scalar], vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """sum coords[key] M_key vec over the Chevalley columns M_key."""
        return _apply(self.chevalley(), coords, vec)

    def action(self, a: int, b: int) -> Cols:
        """Columns of X[a,b], a < b: the stored ones, else formed and not kept."""
        cols = self._x.get((a, b))
        if cols is not None:
            return cols
        if a >= b:
            raise InvalidRankError("action requires a < b")
        if a not in self.indices or b not in self.indices:
            raise InvalidRankError(
                f"generator ({a},{b}) outside representation coordinates {self.indices}"
            )
        # the Chevalley columns are real, so each part of X[a,b] is the real
        # combination of them by that part of its coordinates
        coords, mats = self.frame.gen_coords[(a, b)], self.chevalley()
        parts = []
        for k in (0, 1):
            part = {key: Fraction(p) for key, c in coords.items() if (p := _re_im(c)[k])}
            q = lcm(*(p.denominator for p in part.values()))
            parts.append(_combined(mats, {key: int(p * q) for key, p in part.items()}, self.dim, q))
        return [{i: Gi(r.get(i, 0), m.get(i, 0)) for i in {**r, **m}} for r, m in zip(*parts)]

    def reflection(self) -> Cols:
        """Columns of the distinguished reflection, det-twist included; every
        representation carries one."""
        return self._refl


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _indices_for(ctx: RankContext, which: str) -> Tuple[int, ...]:
    """The indices of a rank context's side: 'big' = 0..n, 'sub' = 1..n."""
    if which == "big":
        return tuple(range(0, ctx.n + 1))
    if which == "sub":
        return tuple(range(1, ctx.n + 1))
    raise InvalidRankError(f"unknown side {which!r}")


def standard_rep(ctx: RankContext) -> MatrixRep:
    """The defining representation of the larger group on coordinates 0..n,
    with literal antisymmetric generator matrices in the f-basis."""
    indices = _indices_for(ctx, "big")
    size = len(indices)
    label = fd_label(size, (1,), 1)
    # X[a,b] = E[a,b] - E[b,a]; each index is its own position
    cols = {(a, b): [{a: 1} if j == b else {b: -1} if j == a else {}
                     for j in range(size)] for a, b in get_frame(indices).generators}
    rep = MatrixRep(
        dim=size,
        label=label,
        indices=indices,
        kind="standard",
        _x=cols,
        _refl=[{i: -1 if i == size - 1 else 1} for i in range(size)],
    )
    _verify_rep(rep, probes=size)
    return rep


def construct_irrep(
    ctx: RankContext,
    mu,
    eps: Optional[int] = None,
    which: str = "big",
    dim_cap: int = DEFAULT_DIM_CAP,
) -> MatrixRep:
    """Build the orthogonal-group irreducible with row lengths mu and sign eps
    over a side of the rank context ('big' = 0..n, 'sub' = 1..n); the trivial
    and det labels (mu = 0) go through the same closure.

    The generator matrices come from the closure's coordinates by the
    recursion of the module docstring and are checked apart from it: against
    character theory's dimension, the Casimir scalar, and every bracket
    relation on probe vectors; then ``_invariant_gram`` derives the Gram rows.
    """
    indices = _indices_for(ctx, which)
    label = fd_label(len(indices), mu, eps)
    frame = get_frame(indices)
    expected = label.dim()
    if expected > dim_cap:
        raise ResourceLimitError(
            f"irreducible {label} has dimension {expected} > cap {dim_cap}"
        )
    model, vectors, lower, refl = _close_model(frame, label, dim_cap)
    if len(vectors) != expected:
        raise AssertionError(
            f"model for {label} has dimension {len(vectors)}, character theory says {expected}"
        )
    rep = MatrixRep(
        dim=expected,
        label=label,
        indices=indices,
        model=model,
        _chev=_generator_matrices(frame, model, lower, refl),
        _refl=[{i: exact(label.eps * x) for i, x in col.items()} for col in refl],
    )
    _verify_rep(rep)
    model.gram = _invariant_gram(frame, model, vectors, lower, refl)
    return rep


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def casimir_scalar(rep: MatrixRep) -> Fraction:
    """Scalar of the quadratic invariant -sum X[a,b]^2 over the frame's own
    generators, applied as the frame's ``casimir_form`` to the Chevalley
    columns; raises if the action is not scalar."""
    cols = rep.chevalley()
    expected: Optional[Scalar] = None
    for j in range(rep.dim):
        acc: Dict[int, Scalar] = {}  # the invariant applied to e_j
        for (x, y), c in rep.frame.casimir_form.items():
            apply_cols(cols[x], {i: c * v for i, v in cols[y][j].items()}, acc)
        if any(i != j for i in acc):
            raise AssertionError("quadratic invariant does not act by a scalar")
        scal = acc.get(j, 0)
        if expected is None:
            expected = scal
        elif expected != scal:
            raise AssertionError("quadratic invariant scalar differs between basis vectors")
    if expected is None or isinstance(expected, Gi):
        raise AssertionError(f"quadratic invariant scalar {expected} is not real")
    return Fraction(expected)


def expected_casimir_scalar(rep: MatrixRep) -> Fraction:
    rho_own = group_rho(rep.group_size)
    lam = rep.inf_char
    return sum(c * c for c in lam) - sum(c * c for c in rho_own)


def basis_name(key) -> str:
    """A key of ``Frame.basis`` as messages name it: hk, or E(root)."""
    return f"h{key}" if type(key) is int else f"E{key}"


def _verify_rep(rep: MatrixRep, probes: int = 3) -> None:
    """Casimir scalar plus M_x M_y v - M_y M_x v = sum_z N[z] M_z v on real
    probe vectors v for the Chevalley columns M and every pair x before y of
    the frame's basis, with the frame's structure constants N; each M_x v and
    each product formed once."""
    cas = casimir_scalar(rep)
    exp = expected_casimir_scalar(rep)
    if cas != exp:
        raise AssertionError(f"Casimir scalar {cas} != expected {exp} for {rep.label}")
    cols = rep.chevalley()
    step = max(1, rep.dim // max(probes, 1))
    pv = [{t: 1, (t + 1) % rep.dim: 2} for t in range(0, rep.dim, step)]
    xv = [{key: apply_cols(c, vec) for key, c in cols.items()} for vec in pv]  # M_x v
    keys = list(rep.frame.basis)
    for i, (x, brackets) in enumerate(zip(keys, rep.frame.structure)):
        for y, br in zip(keys[i + 1:], brackets):
            for mv in xv:
                lhs = apply_cols(cols[x], mv[y])
                rhs = apply_cols(cols[y], mv[x])
                for z, s in br:
                    p_add_into(rhs, mv[z], s)
                if lhs != rhs:
                    raise AssertionError(f"bracket fidelity failed for "
                                         f"[{basis_name(x)},{basis_name(y)}] on {rep.label}")


def verify_reflection(rep: MatrixRep) -> None:
    """R^2 = 1 and R X[a,b] = flip_sign(a, b, top) X[a,b] R for the reflection
    R, every generator and top the largest index, then tr R = the label's
    character at a reflection, which fixes the det-twist sign; raises
    AssertionError naming the first relation that fails."""
    refl, top = rep.reflection(), rep.frame.reflection_index
    if any(apply_cols(refl, col) != {j: 1} for j, col in enumerate(refl)):
        raise AssertionError("reflection does not square to the identity")
    for a, b in rep.frame.generators:
        x, s = rep.action(a, b), flip_sign(a, b, top)
        if any(apply_cols(refl, xj) != {i: s * v for i, v in apply_cols(x, rj).items()}
               for xj, rj in zip(x, refl)):
            raise AssertionError(f"reflection does not conjugate X[{a},{b}] to "
                                 f"{'-' if s < 0 else ''}X[{a},{b}]")
    alpha, size = rep.label.partition, rep.label.group_size
    trace = sum(col.get(j, 0) for j, col in enumerate(refl))
    want = o_char_on_multiset(alpha, [((), 1)] * (size - 1) + [((), -1)], 0).get((), 0)
    if trace != want:
        raise AssertionError(f"reflection has trace {trace}, but the character of {alpha} "
                             f"at a reflection is {want}")


# ---------------------------------------------------------------------------
# enveloping-algebra action
# ---------------------------------------------------------------------------

def scaled_generators(rep: MatrixRep, pairs) -> Tuple[int, Dict[Pair, Letter]]:
    """(d, {(a, b): (re, im)}) for the generators pairs: d is the lcm of the
    denominators of every part of every entry of their X[a,b], and re and im
    are int columns with re + i im = d X[a,b].  A part that is zero
    everywhere is the empty list; each X[a,b] of a model the package writes
    is purely real or purely imaginary, so one of its parts is.  Each X[a,b]
    is formed once per call (``action``), and nothing is kept on rep."""
    xs = {g: rep.action(*g) for g in pairs}
    d = lcm(*{p.denominator for cols in xs.values() for col in cols for x in col.values()
              for p in _re_im(x)})

    def letter(cols: Cols) -> Letter:
        re, im = ([{i: p.numerator * (d // p.denominator) for i, x in col.items()
                    if (p := _re_im(x)[k])} for col in cols] for k in (0, 1))
        return re if any(re) else [], im if any(im) else []

    return d, {g: letter(cols) for g, cols in xs.items()}


def apply_letter(letter: Letter, vec: IntPair, out: IntPair) -> IntPair:
    """out += M vec for the letter M = re + i im and the vector vec = (u, v),
    u + i v, as four ``apply_cols`` on ints: re u - im v into the real part
    and re v + im u into the imaginary part (an empty part is skipped).
    Returns out."""
    (m_re, m_im), (u, v), (o_re, o_im) = letter, vec, out
    if m_re:
        apply_cols(m_re, u, o_re)
        apply_cols(m_re, v, o_im)
    if m_im:
        apply_cols(m_im, u, o_im)
        apply_cols(m_im, {j: -c for j, c in v.items()}, o_re)
    return out


def suffix_trie(sums) -> Trie:
    """The word sums sums[slot] = [(word (g1, ..., gk), c), ...] as one trie
    over the words read from the right, the first letter applied first: the
    node of a suffix holds {slot: c} for the words equal to it and a child
    per letter that extends it to the left."""
    root: Trie = ({}, {})
    for slot, words in enumerate(sums):
        for word, c in words:
            node = root
            for g in reversed(word):
                node = node[1].setdefault(g, ({}, {}))
            node[0][slot] = c
    return root


def word_sums(trie: Trie, letters: Dict[Pair, Letter], vec: IntPair, slots: int) -> List[IntPair]:
    """[sum c M_g1 ... M_gk vec over the words (g1, ..., gk) of slot s] for
    s < slots, M_g = letters[g]: each distinct suffix of the trie's words
    is applied to vec once (``apply_letter``), and a suffix that kills vec
    ends its branch."""
    out = [({}, {}) for _ in range(slots)]
    stack = [(trie, vec)]
    while stack:
        (coeffs, children), v = stack.pop()
        for slot, c in coeffs.items():
            p_add_into(out[slot][0], v[0], c)
            p_add_into(out[slot][1], v[1], c)
        for g, child in children.items():
            w = apply_letter(letters[g], v, ({}, {}))
            if w[0] or w[1]:
                stack.append((child, w))
    return out


def act(element: UEElement, rep: MatrixRep) -> Cols:
    """Columns of a universal-enveloping element (its ``terms``: generator-pair
    words to rational coefficients) on the representation.  Word (g1, ..., gk) acts
    as the operator product g1 ... gk.  Generators outside the
    representation's coordinate set raise InvalidRankError.  Each word w acts
    through the int letters d X of ``scaled_generators``, with its
    coefficient times d^(D - len w), D the element's degree, on the (real,
    imaginary) pair of each basis vector (``word_sums``): the sum is d^D
    times the element, and each part of each entry is divided by d^D once
    (``exact``)."""
    terms = element.terms
    d, letters = scaled_generators(rep, {g for word in terms for g in word})
    D = max(map(len, terms), default=0)
    trie = suffix_trie([[(word, c * d ** (D - len(word))) for word, c in terms.items()]])
    scale = d ** D
    cols: Cols = []
    for j in range(rep.dim):
        (re, im), = word_sums(trie, letters, ({j: 1}, {}), 1)
        cols.append({i: Gi(exact(Fraction(re.get(i, 0), scale)),
                           exact(Fraction(im.get(i, 0), scale))) for i in {**re, **im}})
    return cols


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _flat_strings(cols: Cols) -> List[str]:
    """Row-major exact strings of a square matrix given by its columns."""
    dim = len(cols)
    flat = [qi_to_string(0)] * (dim * dim)
    for j, col in enumerate(cols):
        for i, x in col.items():
            flat[i * dim + j] = qi_to_string(x)
    return flat


def _cols_from_strings(flat: List[str], dim: int, what: str) -> Cols:
    """Sparse columns of a row-major list of exact strings; the zero string
    that ``qi_to_string`` writes is skipped without being parsed."""
    if not isinstance(flat, list):
        raise ValueError(f"{what} is not an array of exact strings")
    vals = [(k, qi_from_string(s)) for k, s in enumerate(flat) if s != "0/1"]
    if len(flat) != dim * dim:
        raise ValueError(f"{what} has {len(flat)} entries, expected {dim * dim}")
    cols: Cols = [dict() for _ in range(dim)]
    for k, x in vals:
        if x:
            cols[k % dim][k // dim] = x
    return cols


def _int_array(x, what: str) -> Tuple[int, ...]:
    """A bundle's array of integers what; anything else is a malformed file."""
    if not isinstance(x, list) or any(type(c) is not int for c in x):
        raise ValueError(f"bundle {what} {x!r} is not an array of integers")
    return tuple(x)


def _metadata(rep: MatrixRep) -> dict:
    """The bundle metadata that rep's label determines, as values: what
    ``rep_to_bundle`` writes and ``rep_from_bundle`` checks."""
    return {"group_tag": rep.label.group_tag, "highest_weight": rep.label.mu,
            "inf_char": rep.inf_char, "twist_sign": rep.twist_sign}


def rep_to_bundle(rep: MatrixRep) -> dict:
    """JSON-ready bundle: dimension, generator list, row-major matrices of the
    generators and of the distinguished reflection (det-twist included) as
    exact rational strings, and metadata: the label's rows and eps, the
    indices, the kind, and the fields ``_metadata`` derives from the label
    (tuples written as lists of exact strings)."""
    generators = rep.frame.generators
    matrices = {f"{a},{b}": _flat_strings(rep.action(a, b)) for (a, b) in generators}
    derived = {key: [str(c) for c in v] if isinstance(v, tuple) else v
               for key, v in _metadata(rep).items()}
    return {
        "dim": rep.dim,
        "generators": [[a, b] for (a, b) in generators],
        "matrices": matrices,
        "reflection": _flat_strings(rep.reflection()),
        "metadata": {
            "rows": list(rep.label.mu),
            "eps": rep.label.eps,
            "indices": list(rep.indices),
            "kind": rep.kind,
            **derived,
        },
    }


def det_twisted(rep: MatrixRep) -> MatrixRep:
    """Sibling representation tensored with the determinant character.

    The generator action is unchanged, so twins share the stored columns and
    the hw-chain cache; only the reflection's sign and the label's flip (a
    reflection matrix already at hand, e.g. one read from a bundle, is
    negated).  When the twist is isomorphic to the original (even group size
    with a nonzero last row), the representation itself is returned."""
    label = rep.label
    if label.induced:
        return rep
    return MatrixRep(dim=rep.dim, label=FDLabel(label.group_tag, label.mu, -label.eps),
                     indices=rep.indices,
                     _refl=[{i: -x for i, x in col.items()} for col in rep._refl],
                     kind=rep.kind, model=rep.model, _chev=rep._chev, _x=rep._x, cache=rep.cache)


def rep_from_bundle(bundle: dict) -> MatrixRep:
    """Rebuild a literal matrix representation from a serialized bundle.

    It reads ``dim``, ``matrices``, ``reflection`` and the metadata ``rows``,
    ``eps`` and ``indices``; every entry goes through ``qi_from_string``, so
    the scalars have the types of the model the bundle was written from.  The
    metadata fields that the label determines (``_metadata``) must equal, as
    values, what the rows give, and ``dim`` must be the dimension character
    theory gives the rows, and the matrix keys must be exactly the frame's
    generators written "a,b": a mismatch is a malformed file and raises
    ValueError.  The matrices read are kept as the X[a,b] in ``_x``, so
    ``action`` returns them verbatim and ``chevalley()`` derives from them;
    algebraic sanity (``casimir_scalar``, ``verify_reflection``) is
    re-established by the caller, not assumed.  A bundle without a
    ``reflection`` is malformed and raises KeyError; a field of another JSON
    type than the writer's raises ValueError."""
    if not (isinstance(bundle, dict) and isinstance(bundle["metadata"], dict)
            and isinstance(bundle["matrices"], dict) and type(bundle["dim"]) is int):
        raise ValueError("a bundle, its metadata and matrices must be JSON objects, its dim an int")
    meta, dim = bundle["metadata"], bundle["dim"]
    indices = _int_array(meta["indices"], "metadata indices")
    keys = {f"{a},{b}": (a, b) for a, b in get_frame(indices).generators}
    got = set(bundle["matrices"])
    if got != set(keys):
        raise ValueError(f"bundle matrix keys must be the generators a,b of indices "
                         f"{list(indices)}: unexpected {sorted(got - set(keys))}, "
                         f"missing {sorted(set(keys) - got)}")
    actions = {g: _cols_from_strings(bundle["matrices"][key], dim, f"matrix {key}")
               for key, g in keys.items()}
    rep = MatrixRep(
        dim=dim,
        label=fd_label(len(indices), _int_array(meta["rows"], "metadata rows"), meta.get("eps")),
        indices=indices,
        kind="bundle",
        _refl=_cols_from_strings(bundle["reflection"], dim, "reflection"),
        _x=actions,
    )
    for key, want in _metadata(rep).items():
        got = meta.get(key)
        try:
            same = (tuple(Fraction(c) for c in got) if isinstance(want, tuple) else got) == want
        except (TypeError, ValueError):
            same = False
        if not same:
            raise ValueError(f"bundle metadata {key} {got!r} does not match rows "
                             f"{list(rep.label.mu)} and eps {rep.label.eps}")
    if dim != rep.label.dim():
        raise ValueError(f"bundle dim {dim} does not match rows {list(rep.label.mu)}: "
                         f"character theory says {rep.label.dim()}")
    return rep


def bundle_to_json(bundle: dict) -> str:
    return json.dumps(bundle, sort_keys=True, indent=2)
