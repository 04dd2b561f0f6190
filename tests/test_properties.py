"""Randomized property suites: symbolic algebra laws, scalar-family symmetry
laws, and fence/region soundness.  Each suite runs at least 100 seeded cases.
"""

import random
from fractions import Fraction

from orthobranch.enveloping import (
    UEElement,
    bracket,
    casimir,
    commutator,
    gen,
    monomial,
    normal_order,
)
from orthobranch.regions import (
    lattice_path,
    region_descriptor,
    same_region,
    signature_support,
)
from orthobranch.scalars import g_val, h_val, phi_val, scalar_query
from orthobranch.weights import chamber_test, is_nonsingular, lattice_box, rank_context

F = Fraction


# ---------------------------------------------------------------------------
# suite 1: enveloping-algebra laws
# ---------------------------------------------------------------------------

def test_jacobi_identity_random_triples():
    rng = random.Random(101)
    n = 4
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    cases = 0
    while cases < 110:
        x, y, z = (rng.choice(pairs) for _ in range(3))
        gx, gy, gz = gen(*x), gen(*y), gen(*z)
        lhs = (commutator(gx, commutator(gy, gz))
               + commutator(gy, commutator(gz, gx))
               + commutator(gz, commutator(gx, gy)))
        assert not normal_order(lhs).terms, (x, y, z)
        # degree-1 bracket consistency: [x,y] as generators matches the
        # product commutator
        assert normal_order(commutator(gx, gy)) == normal_order(bracket(x, y))
        cases += 1


def test_normal_order_confluence_random_words():
    # associativity of the ordered product: reducing a random word by any
    # bracketing gives the same normal form
    rng = random.Random(102)
    n = 3
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    for _ in range(110):
        word = [rng.choice(pairs) for _ in range(rng.randint(2, 4))]
        as_monomial = normal_order(monomial(word))
        left = UEElement({(): F(1)})
        for p in word:
            left = left * gen(*p)
        right = gen(*word[0])
        rest = UEElement({(): F(1)})
        for p in word[1:]:
            rest = rest * gen(*p)
        right = right * rest
        assert normal_order(left) == as_monomial == normal_order(right)


def test_casimir_centrality_random_elements():
    rng = random.Random(103)
    n = 3
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    cG = casimir(n, "full")
    for _ in range(110):
        word = [rng.choice(pairs) for _ in range(rng.randint(1, 3))]
        e = monomial(word, rng.randint(1, 5))
        assert not normal_order(commutator(e, cG)).terms


# ---------------------------------------------------------------------------
# suite 2: scalar-family symmetry laws
# ---------------------------------------------------------------------------

def rand_frac(rng):
    return F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))


def test_weyl_invariance_of_g_in_nu():
    rng = random.Random(201)
    for _ in range(120):
        n = rng.choice([3, 4])
        ctx = rank_context(n)
        lam = tuple(rand_frac(rng) for _ in range(ctx.r))
        nu = tuple(rand_frac(rng) for _ in range(ctx.s))
        i = rng.randint(1, ctx.r)
        eps = rng.choice([1, -1])
        base = g_val(scalar_query(ctx, i, eps, lam, nu))
        perm = list(nu)
        rng.shuffle(perm)
        signed = tuple(rng.choice([1, -1]) * c for c in perm)
        assert g_val(scalar_query(ctx, i, eps, lam, signed)) == base


def test_signed_permutations_fixing_i_leave_g_and_phi():
    rng = random.Random(202)
    cases = 0
    while cases < 110:
        n = rng.choice([3, 4])
        ctx = rank_context(n)
        if ctx.r < 2:
            continue
        lam = tuple(rand_frac(rng) for _ in range(ctx.r))
        nu = tuple(rand_frac(rng) for _ in range(ctx.s))
        i = rng.randint(1, ctx.r)
        eps = rng.choice([1, -1])
        others = [k for k in range(ctx.r) if k != i - 1]
        perm = others.copy()
        rng.shuffle(perm)
        new_lam = list(lam)
        for dst, src in zip(others, perm):
            new_lam[dst] = rng.choice([1, -1]) * lam[src]
        new_lam = tuple(new_lam)
        q0 = scalar_query(ctx, i, eps, lam, nu)
        q1 = scalar_query(ctx, i, eps, new_lam, nu)
        assert g_val(q0) == g_val(q1)
        assert phi_val(q0) == phi_val(q1)
        assert h_val(q0) == h_val(q1)
        cases += 1


def test_reflection_law_links_the_two_signs():
    rng = random.Random(203)
    for _ in range(120):
        n = rng.choice([3, 4])
        ctx = rank_context(n)
        lam = tuple(rand_frac(rng) for _ in range(ctx.r))
        nu = tuple(rand_frac(rng) for _ in range(ctx.s))
        i = rng.randint(1, ctx.r)
        flipped = tuple(-c if k == i - 1 else c for k, c in enumerate(lam))
        plus = g_val(scalar_query(ctx, i, 1, lam, nu))
        minus = g_val(scalar_query(ctx, i, -1, flipped, nu))
        assert plus == minus


# ---------------------------------------------------------------------------
# suite 3: fence/region soundness
# ---------------------------------------------------------------------------

def rand_base(rng, rank):
    # strictly decreasing positive half-integers: always nonsingular and
    # integrally aligned with themselves
    steps = sorted((rng.randint(1, 4) for _ in range(rank)), reverse=True)
    vals = []
    total = F(rng.randint(1, 3), 2)
    for k in range(rank, 0, -1):
        vals.append(total + sum(steps[:k]))
    return tuple(vals)


def test_signature_support_is_shift_invariant():
    rng = random.Random(301)
    for _ in range(120):
        rank = rng.choice([2, 3])
        srank = rank if rng.random() < 0.5 else rank - 1
        srank = max(srank, 1)
        lam = tuple(rand_frac(rng) for _ in range(rank))
        nu = tuple(rand_frac(rng) for _ in range(srank))
        shift = tuple(rng.randint(-5, 5) for _ in range(rank))
        moved = tuple(c + m for c, m in zip(lam, shift))
        assert signature_support(lam, nu) == signature_support(moved, nu)


def test_lattice_path_soundness():
    rng = random.Random(302)
    ctx = rank_context(4)
    produced = 0
    attempts = 0
    while produced < 100 and attempts < 4000:
        attempts += 1
        xi = rand_base(rng, 2)
        nu = (F(rng.randint(0, 4)) + F(1, 2) * rng.choice([0, 1]),
              F(rng.randint(0, 2)))
        desc = region_descriptor(xi, nu)
        if not desc.away_from_fences:
            continue
        box = lattice_box(xi, 3, ctx)
        targets = [lam for lam in box if same_region(desc, lam)]
        if len(targets) < 2:
            continue
        lam = rng.choice([t for t in targets if t != xi] or targets)
        path = lattice_path(xi, lam, nu)
        assert path[0] == xi and path[-1] == lam
        assert len(path) == 1 + sum(abs(a - b) for a, b in zip(lam, xi))
        for p, q in zip(path, path[1:]):
            diff = [abs(a - b) for a, b in zip(p, q)]
            assert sum(diff) == 1  # unit steps
        for p in path:
            assert same_region(desc, p)
            assert chamber_test(xi)(p)
        produced += 1
    assert produced >= 100


def test_region_membership_iff_same_signature():
    rng = random.Random(303)
    checked = 0
    while checked < 120:
        xi = rand_base(rng, 2)
        nu = (F(rng.randint(0, 5)), F(rng.randint(0, 3), 2))
        if not is_nonsingular(xi):
            continue
        desc = region_descriptor(xi, nu)
        if not desc.away_from_fences:
            continue
        shift = tuple(rng.randint(-3, 3) for _ in range(2))
        lam = tuple(c + m for c, m in zip(xi, shift))
        got = same_region(desc, lam)
        from orthobranch.regions import multi_signature
        expect = (chamber_test(xi)(lam)
                  and multi_signature(lam, nu).entries == desc.signature.entries)
        assert got == expect
        checked += 1
