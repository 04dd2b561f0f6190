import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest

from dense_reference import h_determinant, subtracting_peel
from orthobranch import characters
from orthobranch.branching import _coset_eigenvalues, _so_constituents
from orthobranch.polyarith import p_add_into, p_mul
from orthobranch.weights import group_rho
from orthobranch.characters import (
    CharacterCheckError,
    associate_partition,
    dominant_char,
    so_alg,
    is_so_dominant,
    label_to_partition,
    o_char_on_multiset,
    o_irrep_dim,
    partition_to_label,
    partition_valid_for_o,
    peel,
    restrict_weights,
    so_char,
    so_rank,
    transpose_partition,
    weyl_dim,
)


def test_so_rank():
    assert so_rank(3) == 1
    assert so_rank(4) == 2
    assert so_rank(5) == 2
    assert so_rank(7) == 3


def test_so_char_vector_reps():
    assert so_char(3, (1,)) == {(1,): 1, (0,): 1, (-1,): 1}
    c5 = so_char(5, (1, 0))
    assert sum(c5.values()) == 5
    assert c5[(0, 0)] == 1
    assert c5[(1, 0)] == 1 and c5[(-1, 0)] == 1
    assert c5[(0, 1)] == 1 and c5[(0, -1)] == 1


def test_weyl_dims():
    assert weyl_dim(3, (2,)) == 5
    assert weyl_dim(5, (1, 0)) == 5
    assert weyl_dim(5, (1, 1)) == 10
    assert weyl_dim(5, (2, 0)) == 14
    assert weyl_dim(4, (1, 0)) == 4
    assert weyl_dim(4, (1, 1)) == 3   # self-dual half of the 2-form space
    assert weyl_dim(4, (1, -1)) == 3
    assert weyl_dim(7, (1, 0, 0)) == 7


def test_weight_multiplicity_interior():
    # adjoint of so(5): zero weight has multiplicity 2 (the Cartan)
    adj = so_char(5, (1, 1))
    assert adj[(0, 0)] == 2
    assert adj[(1, 1)] == 1


def test_peel_recovers_tensor_square_so3():
    # V(1) (x) V(1) = V(2) + V(1) + V(0) for so(3); peel reads the dominant part
    v = so_char(3, (1,))
    prod: dict = {}
    for w1, c1 in v.items():
        for w2, c2 in v.items():
            key = (w1[0] + w2[0],)
            prod[key] = prod.get(key, 0) + c1 * c2
    dominant = {w: c for w, c in prod.items() if w[0] >= 0}
    assert peel(dominant, 3) == {(2,): 1, (1,): 1, (0,): 1}


def test_restrict_weights_parity():
    # odd: B_2 -> D_2, (1, 0) has a zero last entry, so no mirror
    assert restrict_weights(dominant_char(5, (1, 0)), 5) == {(1, 0): 1, (0, 0): 1}
    # (1, 1) of B_2 splits into (1, 1) and its mirror (1, -1) of D_2
    assert restrict_weights(dominant_char(5, (1, 1)), 5) == \
        {(1, 1): 1, (1, -1): 1, (1, 0): 1, (0, 0): 2}
    # even: D_2 -> B_1 drops the last entry; the orbit of (1, 0) gives (1,)
    # once, from (1, 0), and (0,) twice, from (0, 1) and (0, -1)
    assert restrict_weights(dominant_char(4, (1, 0)), 4) == {(1,): 1, (0,): 2}
    # no zero entry: the parity fixes the dropped entry's sign
    assert restrict_weights({(2, 1, 1): 1}, 6) == {(1, 1): 1, (2, 1): 1}
    assert restrict_weights({(2, 1, 0): 1}, 6) == {(1, 0): 2, (2, 0): 2, (2, 1): 1}


def test_transpose_and_validity():
    assert transpose_partition((3, 1)) == (2, 1, 1)
    assert transpose_partition(()) == ()
    assert partition_valid_for_o(4, (1, 1)) is True
    assert partition_valid_for_o(4, (1, 1, 1)) is True
    assert partition_valid_for_o(4, (2, 2, 2)) is False
    assert partition_valid_for_o(5, (1, 1, 1, 1)) is True


def test_associate_partition():
    assert associate_partition(5, ()) == (1, 1, 1, 1, 1)
    assert associate_partition(5, (1,)) == (1, 1, 1, 1)
    assert associate_partition(4, (1, 1)) == (1, 1)       # self-associate
    assert associate_partition(3, (2,)) == (2, 1)
    assert associate_partition(5, associate_partition(5, (2, 1))) == (2, 1)
    with pytest.raises(ValueError):
        associate_partition(4, (2, 2, 2))


def test_label_partition_round_trip():
    assert label_to_partition(5, (1, 0), 1) == (1,)
    assert label_to_partition(5, (1, 0), -1) == (1, 1, 1, 1)
    assert partition_to_label(5, (1, 1, 1, 1)) == ((1, 0), -1)
    assert partition_to_label(5, (2, 1)) == ((2, 1), 1)
    assert partition_to_label(4, (1, 1, 1)) == ((1, 0), -1)


def test_o_irrep_dims():
    assert o_irrep_dim(5, (1,)) == 5
    assert o_irrep_dim(5, (1, 1, 1, 1)) == 5      # det twist of the vector rep
    assert o_irrep_dim(5, (2,)) == 14
    assert o_irrep_dim(4, (1, 1)) == 6            # full 2-form space, O(4)-irreducible
    assert o_irrep_dim(4, (2,)) == 9
    assert o_irrep_dim(3, (1,)) == 3
    assert o_irrep_dim(6, (1, 1, 1)) == 20


def test_o_dim_vs_so_dims():
    # an O(m) irrep restricted to SO(m) is one SO-irrep, or two when the
    # partition is strictly shorter than its associate's mirror image
    assert o_irrep_dim(4, (1, 1)) == weyl_dim(4, (1, 1)) + weyl_dim(4, (1, -1))
    assert o_irrep_dim(5, (2, 1)) == weyl_dim(5, (2, 1))
    assert o_irrep_dim(4, (2, 0)) == weyl_dim(4, (2, 0))


def test_dominance():
    assert is_so_dominant(5, (2, 1))
    assert is_so_dominant(4, (1, -1))
    assert not is_so_dominant(4, (1, -2))
    assert not is_so_dominant(5, (1, 2))
    assert not is_so_dominant(5, (1, -1))


def _weyl_product_dim(m, mu):
    """Weyl's dimension formula prod_{alpha > 0} (mu + rho, alpha) / (rho, alpha)."""
    s = so_rank(m)
    rho = [Fraction(m - 2 * i, 2) for i in range(1, s + 1)]
    pos = [(i, j, sign) for i in range(s) for j in range(i + 1, s) for sign in (1, -1)]
    if m % 2:
        pos += [(i, None, 0) for i in range(s)]
    dim = Fraction(1)
    for i, j, sign in pos:
        def pair(v):
            return v[i] + (sign * v[j] if j is not None else 0)
        dim *= pair([a + r for a, r in zip(mu, rho)]) / pair(rho)
    return dim


def _dominant_weights(m, top):
    s = so_rank(m)
    return [mu for mu in product(range(-top, top + 1), repeat=s)
            if is_so_dominant(m, mu)]


def test_freudenthal_matches_weyl_product_formula():
    for m in range(3, 9):
        for mu in _dominant_weights(m, 4):
            assert sum(so_char(m, mu).values()) == _weyl_product_dim(m, mu), (m, mu)
            assert weyl_dim(m, mu) == _weyl_product_dim(m, mu), (m, mu)


def test_so_char_multiplicities_are_ints():
    for m, mu in ((3, (4,)), (6, (3, 2, -1)), (7, (4, 2, 1))):
        assert all(type(c) is int and c > 0 for c in so_char(m, mu).values())


def test_o_irrep_dim_matches_weyl_dim():
    for m in range(3, 9):
        s = so_rank(m)
        for mu in _dominant_weights(m, 3):
            if mu[-1] < 0:
                continue
            alpha = tuple(c for c in mu if c)
            expected = weyl_dim(m, mu)
            if m % 2 == 0 and len(alpha) == s:
                # full-length rows: SO(m) sees the label and its mirror image
                expected += weyl_dim(m, mu[:-1] + (-mu[-1],))
            assert o_irrep_dim(m, alpha) == expected, (m, alpha)
            assert o_irrep_dim(m, associate_partition(m, alpha)) == expected, (m, alpha)


def test_peel_rejects_a_multiset_that_is_not_a_character():
    # one copy of the vector weight alone: peeling so(5) leaves negative counts
    with pytest.raises(CharacterCheckError):
        peel({(1, 0): 1}, 5)


def test_peel_rejects_a_weight_that_is_not_dominant():
    # a dominant part holds no weight outside the dominant chamber, even one
    # that the table of its lex-max weight would cancel
    with pytest.raises(CharacterCheckError, match="not dominant"):
        peel({(0, 1): 1}, 5)
    with pytest.raises(CharacterCheckError, match="not dominant"):
        peel({(1, 0): 1, (-1, 0): 1, (0, 0): 1}, 5)
    with pytest.raises(CharacterCheckError, match="not dominant"):
        peel({(1, 1, 0): 1, (1, -1, 0): 1}, 6)


def test_character_check_survives_optimize(run_optimized):
    code = ("from orthobranch.characters import CharacterCheckError, peel\n"
            "try:\n"
            "    peel({(1, 0): 1}, 5)\n"
            "except CharacterCheckError:\n"
            "    print('raised')\n")
    assert run_optimized(code).strip() == "raised"


def test_peel_dominance_check_survives_optimize(run_optimized):
    code = ("from orthobranch.characters import CharacterCheckError, peel\n"
            "try:\n"
            "    peel({(0, 1): 1}, 5)\n"
            "except CharacterCheckError as exc:\n"
            "    print(exc)\n")
    assert "not dominant" in run_optimized(code)


def _partitions(size_cap, length_cap):
    """Every partition with at most size_cap boxes and length_cap rows."""
    out = []

    def grow(rest, top, rows):
        out.append(tuple(rows))
        if len(rows) < length_cap:
            for k in range(min(rest, top), 0, -1):
                grow(rest - k, k, rows + [k])

    grow(size_cap, size_cap, [])
    return out


def test_h_determinant_matches_leibniz_at_identity_and_coset_eigenvalues():
    for m in range(3, 9):
        coset, nvars = _coset_eigenvalues(m)
        multisets = (([((), 1)] * m, 0), (coset, nvars), (coset[1:], nvars))
        for alpha in _partitions(6, m):
            if not partition_valid_for_o(m, alpha):
                continue
            for terms, nv in multisets:
                assert o_char_on_multiset(alpha, terms, nv) == h_determinant(alpha, terms, nv), \
                    (m, alpha, terms)


def test_h_determinant_matches_leibniz_on_random_multisets():
    rng = random.Random(23)
    alphas = [a for a in _partitions(5, 4) if a]
    for _ in range(150):
        nvars = rng.randint(0, 3)
        terms = [(tuple(rng.randint(-3, 3) for _ in range(nvars)), rng.choice((1, -1, 2, -2)))
                 for _ in range(rng.randint(0, 5))]
        alpha = rng.choice(alphas)
        assert o_char_on_multiset(alpha, terms, nvars) == h_determinant(alpha, terms, nvars), \
            (alpha, terms)


def test_packed_exponents_reach_the_radix_bound():
    # Every exponent entry of a product of len(alpha) determinant entries has
    # size at most l*K*M (l = len(alpha), K = alpha_1 + l, M the largest entry
    # of a term): a product whose entries reach +-l*K*M unpacks exactly.
    alpha, nvars, M = (2, 1), 3, 3
    terms = [((3, -1, 0), 1), ((0, 2, -3), -2)]
    radix = characters._radix(alpha, terms)
    bound = len(alpha) * (alpha[0] + len(alpha)) * M
    left, right = (bound, -bound, 1), (0, 0, bound - 1)
    top = tuple(a + b for a, b in zip(left, right))
    assert top == (bound, -bound, bound)
    packed = p_mul({characters._pack(left, radix): 1}, {characters._pack(right, radix): -1})
    assert {characters._unpack(e, radix, nvars): c for e, c in packed.items()} == {top: -1}
    corners = sorted(product((-bound, 0, bound), repeat=nvars))
    keys = [characters._pack(e, radix) for e in corners]
    assert keys == sorted(keys)  # the packing keeps lexicographic order
    assert [characters._unpack(k, radix, nvars) for k in keys] == corners
    # the determinant's own exponents stay within the bound
    poly = o_char_on_multiset(alpha, terms, nvars)
    assert poly == h_determinant(alpha, terms, nvars)
    assert max(abs(x) for e in poly for x in e) <= bound


def _restricted(size, mu):
    """The dominant part of the O(size) label mu's weights on so(size - 1)."""
    weights = dict(dominant_char(size, mu))
    if size % 2 == 0 and mu[-1] >= 1:
        p_add_into(weights, dominant_char(size, mu[:-1] + (-mu[-1],)))
    return restrict_weights(weights, size)


def test_racah_peel_matches_the_subtracting_peel(labels_5000):
    # every restricted multiset the oracle meets in the sweep: the same
    # constituents, dict order included
    checked = set()
    for size, alpha in labels_5000:
        mu, _ = partition_to_label(size, alpha)
        if (size, mu) in checked:
            continue
        checked.add((size, mu))
        weights = _restricted(size, mu)
        expected = subtracting_peel(weights, size - 1)
        assert list(peel(weights, size - 1).items()) == list(expected.items()), (size, mu)
    assert len(checked) == 371


_FIRST_NEGATIVE = re.compile(r"(-?\d+) at (?:the lex-max weight )?(\([-\d, ]*\))")


def _outcome(peeler, weights, m):
    """The constituents in order, or the (count, weight) at which it raised."""
    try:
        return list(peeler(weights, m).items())
    except CharacterCheckError as exc:
        return _FIRST_NEGATIVE.search(str(exc)).groups()


def test_racah_peel_raises_where_the_subtracting_peel_raises():
    # virtual characters: sums of one to three irreducible ones with
    # coefficients of both signs; the first negative coefficient, largest
    # weight first, is where both raise
    rng = random.Random(26)
    outcomes = {True: 0, False: 0}
    for m in range(3, 10):
        tops = _dominant_weights(m, 3)
        for _ in range(30):
            weights = {}
            for lam in rng.sample(tops, rng.randint(1, 3)):
                p_add_into(weights, dominant_char(m, lam), rng.choice((-2, -1, 1, 1, 2)))
            expected = _outcome(subtracting_peel, weights, m)
            assert _outcome(peel, weights, m) == expected, (m, weights)
            outcomes[isinstance(expected, tuple)] += 1
    assert min(outcomes.values()) > 30


def test_racah_peel_finds_a_negative_coefficient_below_the_support():
    # V(1,0) - V(0,0) of so(5), V(1,0,0) - V(0,0,0) of so(7) and
    # V(1,1,0) - 3 V(0,0,0) of so(6): the zero weight, where the coefficient
    # is negative, is not a key of the dominant part
    for m, weights, lam, c in ((5, {(1, 0): 1}, (0, 0), -1),
                               (7, {(1, 0, 0): 1}, (0, 0, 0), -1),
                               (6, {(1, 1, 0): 1}, (0, 0, 0), -3)):
        with pytest.raises(CharacterCheckError,
                           match=re.escape(f"Racah's formula meets coefficient {c} at {lam};")):
            peel(weights, m)
        assert _outcome(subtracting_peel, weights, m) == (str(c), str(lam))


def _weyl_group_shifts(kind, s):
    """{(rho - w rho, det w)} over the Weyl group, w a signed permutation
    (an even number of sign changes in type D), det w its determinant."""
    rho = group_rho(2 * s + (kind == "B"))
    out = set()
    for perm in permutations(range(s)):
        inversions = sum(perm[i] > perm[j] for i in range(s) for j in range(i + 1, s))
        for signs in product((1, -1), repeat=s):
            flips = signs.count(-1)
            if kind == "D" and flips % 2:
                continue
            w_rho = [sg * rho[k] for sg, k in zip(signs, perm)]
            delta = tuple(int(a - b) for a, b in zip(rho, w_rho))
            out.add((delta, (-1) ** (inversions + flips)))
    return out


def test_rho_shifts_are_the_weyl_group_pruned_exactly():
    # the DFS reaches every element of W with its determinant, and its caps
    # keep exactly the shifts under them
    for m in range(3, 12):
        kind, s = so_alg(m)
        two_rho = tuple(int(2 * c) for c in group_rho(m))
        every = _weyl_group_shifts(kind, s)
        for f_cap, sum_caps in ((10 ** 6, [10 ** 6] * (s - 1)), (12, [2, 3, 3, 4][:s - 1]),
                                (7, [1] * (s - 1))):
            shifts, fs = characters._rho_shifts(kind, two_rho, f_cap, sum_caps)
            kept = {(d, sign) for d, sign in every
                    if sum(a * b for a, b in zip(d, two_rho)) <= f_cap
                    and all(sum(d[:k + 1]) <= cap for k, cap in enumerate(sum_caps))}
            assert len(shifts) == len(set(shifts)) and set(shifts) == kept, (m, f_cap)
            assert fs == sorted(fs) == [sum(a * b for a, b in zip(d, two_rho)) for d, _ in shifts]
        assert len(characters._rho_shifts(kind, two_rho, 10 ** 6, [10 ** 6] * (s - 1))[0]) \
            == len(every) == (2 ** s if kind == "B" else 2 ** (s - 1)) * len(list(permutations(range(s))))


def test_weyl_dim_is_the_size_of_the_character(labels_5000):
    # Weyl's product against the orbit sum of the Freudenthal table: every
    # highest weight of the sweep's big labels (with the mirror of a full
    # row) and of their so-constituents, and samples at ranks 5 and 6
    highest = set()
    for size, alpha in labels_5000:
        mu, _ = partition_to_label(size, alpha)
        highest.add((size, mu))
        if size % 2 == 0 and mu[-1] >= 1:
            highest.add((size, mu[:-1] + (-mu[-1],)))
        highest.update((size - 1, tau) for tau in _so_constituents(size, mu))
    for m in range(10, 14):
        highest.update((m, mu) for mu in _dominant_weights(m, 1))
        highest.update((m, mu + (0,) * (so_rank(m) - 3)) for mu in ((2, 1, 0), (2, 1, 1), (3, 1, 0)))
    assert len(highest) == 580
    for m, mu in sorted(highest):
        assert weyl_dim(m, mu) == sum(so_char(m, mu).values()), (m, mu)


def test_freudenthal_quotient_check_raises(monkeypatch):
    # a string weight read off the table without its dominant representative
    # misses multiplicities, and the quotient stops being an integer
    monkeypatch.setattr(characters, "_dominant_rep", lambda kind, w: w)
    dominant_char.cache_clear()
    try:
        with pytest.raises(CharacterCheckError,
                           match=re.escape("Freudenthal gives 8/6 at (1, 1) in the so(5) "
                                           "character of (2, 1), not a positive integer")):
            dominant_char(5, (2, 1))
    finally:
        dominant_char.cache_clear()


def test_freudenthal_quotient_check_survives_optimize(run_optimized):
    code = ("from orthobranch import characters\n"
            "characters._dominant_rep = lambda kind, w: w\n"
            "try:\n"
            "    characters.dominant_char(5, (2, 1))\n"
            "except characters.CharacterCheckError as exc:\n"
            "    print(exc)\n")
    assert "Freudenthal gives 8/6 at (1, 1)" in run_optimized(code)


def test_o_irrep_dim_check_raises(monkeypatch):
    monkeypatch.setattr(characters, "o_char_on_multiset", lambda alpha, terms, nvars: {})
    with pytest.raises(CharacterCheckError,
                       match=re.escape("the h-determinant gives dimension 0 for O(5) (1,)")):
        o_irrep_dim(5, (1,))
