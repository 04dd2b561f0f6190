import hashlib
from fractions import Fraction

from dense_reference import (
    fraction_grid,
    fraction_jump_region,
    fraction_multiplicity,
    fraction_oracle,
    fraction_query,
    nullspace,
)
from orthobranch.verma import (
    FusionQuery,
    _jumps,
    fusion_grid,
    fusion_multiplicity,
    fusion_oracle,
)


def Q(a, b, c):
    return FusionQuery(Fraction(a), Fraction(b), Fraction(c))


def test_parity_gate():
    assert fusion_multiplicity(Q(0, 0, -1)) == 0
    assert fusion_oracle(Q(0, 0, -1)) == 0
    assert fusion_multiplicity(Q("1/2", 0, "3/2")) == 0   # a+b-c = -1


def test_generic_value_one():
    assert fusion_multiplicity(Q("1/2", 0, "1/2")) == 1
    assert fusion_oracle(Q("1/2", 0, "1/2")) == 1
    assert fusion_multiplicity(Q(3, 5, 8)) == 1
    assert fusion_oracle(Q(3, 5, 8)) == 1


def test_jump_examples():
    # smallest jump: a = b = 0, c = -2 (k = 1)
    assert fusion_oracle(Q(0, 0, -2)) == 2
    assert fusion_multiplicity(Q(0, 0, -2)) == 2
    assert fusion_oracle(Q(1, 0, -3)) == 2
    assert fusion_multiplicity(Q(1, 0, -3)) == 2
    assert fusion_oracle(Q(2, 2, -4)) == 2
    assert fusion_multiplicity(Q(2, 2, -4)) == 2


def test_near_misses_stay_one():
    # violates the difference fence |a-b| <= -c-2
    assert fusion_oracle(Q(3, 0, -3)) == 1
    assert fusion_multiplicity(Q(3, 0, -3)) == 1
    # violates the sum fence (no jump below the bounded window)
    assert fusion_oracle(Q(-2, -2, -6)) == 1
    assert fusion_multiplicity(Q(-2, -2, -6)) == 1
    # non-integer labels never jump
    assert fusion_oracle(Q("1/2", "1/2", -3)) == 1
    assert fusion_multiplicity(Q("1/2", "1/2", -3)) == 1


def test_dual_route_agreement_integer_grid():
    mismatches = []
    jumps = 0
    for a in range(-6, 5):
        for b in range(-6, 5):
            for k in range(0, 9):
                q = Q(a, b, a + b - 2 * k)
                mo, mp = fusion_oracle(q), fusion_multiplicity(q)
                if mo != mp:
                    mismatches.append((a, b, k, mo, mp))
                if mo == 2:
                    jumps += 1
    assert mismatches == []
    assert jumps > 0


def test_dual_route_agreement_rational_samples():
    import random
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-24, 24), rng.choice([2, 3, 4, 5]))
        b = Fraction(rng.randint(-24, 24), rng.choice([2, 3, 4, 5]))
        k = rng.randint(0, 6)
        q = FusionQuery(a, b, a + b - 2 * k)
        assert fusion_oracle(q) == fusion_multiplicity(q)


def test_fusion_grid_shape():
    rows = fusion_grid(range(-2, 3), range(0, 4))
    assert len(rows) == 5 * 5 * 4
    for a, b, c, m in rows:
        assert a + b - c == 2 * ((a + b - c) // 2)
        assert m == fusion_oracle(FusionQuery(a, b, c))


def _dense_raising_matrix(a, b, k):
    """The k x (k+1) matrix of the raising operator on the weight-c space."""
    rows = [[Fraction(0)] * (k + 1) for _ in range(k)]
    for m in range(k + 1):
        if m >= 1:
            rows[m - 1][m] += m * (a - m + 1)
        if m <= k - 1:
            rows[m][m] += (k - m) * (b - (k - m) + 1)
    return rows


def test_band_kernel_matches_dense_reference():
    values = [Fraction(v, 2) for v in range(-8, 7)]  # -4, -7/2, ..., 3
    for a in values:
        for b in values:
            for k in range(0, 11):
                want = len(nullspace(_dense_raising_matrix(a, b, k))) if k else 1
                assert fusion_oracle(Q(a, b, a + b - 2 * k)) == want, (a, b, k)


# a and b in -6..5, in halves and in thirds (so pairs of them have common
# denominators 1, 2, 3 and 6)
HALVES_AND_THIRDS = sorted({Fraction(n, d) for d in (2, 3) for n in range(-6 * d, 5 * d + 1)})


def test_fusion_matches_the_fraction_route():
    # c = a + b - 2k for k in -2..10, then c off that lattice: an odd
    # difference and differences that are not integral
    offsets = (0, 1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
    for a in HALVES_AND_THIRDS:
        for b in HALVES_AND_THIRDS:
            for k in range(-2, 11):
                for off in offsets:
                    c = a + b - 2 * k + off
                    q = FusionQuery(a, b, c)
                    want = fraction_multiplicity(a, b, c), fraction_oracle(a, b, c)
                    assert repr((fusion_multiplicity(q), fusion_oracle(q))) == repr(want), (a, b, c)


def test_jump_predicate_matches_the_fraction_inequalities():
    # the predicate on its own, also where a + b - c is odd: there |a - b|
    # and -c - 2 differ in parity, which the queries above never reach
    for a in range(-8, 8):
        for b in range(-8, 8):
            for c in range(-20, 8):
                assert _jumps(a, b, c) == fraction_jump_region(a, b, c), (a, b, c)
    # None marks a parameter that is not integral
    for a, b, c in ((None, 0, -2), (0, None, -2), (0, 0, None)):
        assert not _jumps(a, b, c)
    assert _jumps(0, 0, -2)


def test_fusion_query_fields_are_fractions_from_any_argument():
    for args in ((3, -2, 1), ("3", "-2", "1"), (Fraction(3), Fraction(-2), Fraction(1)),
                 ("1/2", 0, Fraction(-7, 3)), (Fraction(1, 2), "0", "-7/3")):
        q = FusionQuery(*args)
        want = fraction_query(*args)
        assert all(type(x) is Fraction for x in (q.a, q.b, q.c))
        assert repr(q) == repr(FusionQuery(*want))
        assert q == FusionQuery(*want) and hash(q) == hash(FusionQuery(*want))
        assert (q.a, q.b, q.c) == want
        assert fusion_multiplicity(q) == fraction_multiplicity(*args)
        assert fusion_oracle(q) == fraction_oracle(*args)
    x = Fraction(5, 2)
    assert FusionQuery(x, x, x).a is x


def test_fusion_grid_matches_the_fraction_route():
    halves = [v for v in HALVES_AND_THIRDS if v.denominator <= 2]
    thirds = [v for v in HALVES_AND_THIRDS if v.denominator != 2]
    for avals in (range(-6, 6), halves, thirds, ["1/2", 0, Fraction(-4, 3)]):
        rows = fusion_grid(avals, range(-2, 11))
        want = fraction_grid(avals, range(-2, 11))
        assert len(rows) == len(want)
        for got, row in zip(rows, want):
            assert repr(got) == repr(row)
        assert {m for a, b, c, m in rows if a + b - c < 0} == {0}


def test_fusion_table_digest_is_pinned():
    # the benchmark's fusion query: the grid over 11 consecutive integers from
    # each start it can draw, k = 0..9, and the oracle on every cell; the
    # digest was computed with the Fraction route
    h = hashlib.sha256()
    for a0 in range(-6, -2):
        avals = [Fraction(a) for a in range(a0, a0 + 11)]
        for a, b, c, m in fusion_grid(avals, range(10)):
            h.update(repr((a, b, c, m, fusion_oracle(FusionQuery(a, b, c)))).encode())
    assert h.hexdigest() == "c91434a1863fef80d12f0fc718006c1bbb18ebbfcd2c2fb1e6a78fa57e059279"
