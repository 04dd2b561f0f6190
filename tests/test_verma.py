from fractions import Fraction

from dense_reference import nullspace
from orthobranch.verma import (
    FusionQuery,
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
