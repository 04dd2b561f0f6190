from fractions import Fraction
from itertools import product

import pytest

from orthobranch.regions import (
    FencePreconditionError,
    LatticeError,
    SignatureKey,
    away_from_fences,
    lattice_path,
    multi_signature,
    region_descriptor,
    same_region,
    signature_support,
)
from orthobranch.weights import chamber_test


H = Fraction(1, 2)


def test_support_full_half_integer_pairing():
    keys = signature_support((Fraction(9, 2), Fraction(5, 2)), (1, 0))
    assert len(keys) == 8  # every (i, j, delta) combination is half-integral
    assert SignatureKey(1, 1, 1) in keys


def test_support_empty_when_incommensurate():
    assert signature_support((Fraction(9, 2), Fraction(5, 2)),
                             (Fraction(1, 3),)) == []


def test_support_shift_invariance():
    nu = (Fraction(4), Fraction(1))
    base = (Fraction(13, 2), Fraction(5, 2))
    shifted = (base[0] + 3, base[1] - 2)
    assert signature_support(base, nu) == signature_support(shifted, nu)


def test_multi_signature_signs():
    sig = multi_signature((Fraction(9, 2), Fraction(5, 2)), (1, 0))
    d = dict(sig.entries)
    assert d[SignatureKey(1, 1, 1)] == 1  # 9/2 + 1 > 0
    assert d[SignatureKey(1, 1, -1)] == 1  # 9/2 - 1 > 0
    assert all(s in (1, -1) for s in d.values())


def test_away_from_fences():
    assert away_from_fences((Fraction(9, 2), Fraction(5, 2)), (1, 0))
    # 3/2 - 1 = 1/2 sits on a fence
    assert not away_from_fences((Fraction(3, 2), Fraction(5, 2)), (1, 0))


def test_region_descriptor_same_region():
    nu = (Fraction(4), Fraction(1))
    xi = (Fraction(13, 2), Fraction(5, 2))
    desc = region_descriptor(xi, nu)
    assert desc.away_from_fences
    assert same_region(desc, (Fraction(15, 2), Fraction(5, 2)))
    # crossing the fence lam_1 - 4 = 1/2 flips a signature entry
    assert not same_region(desc, (Fraction(7, 2), Fraction(5, 2)))


def test_same_region_requires_integral_translate():
    desc = region_descriptor((Fraction(13, 2), Fraction(5, 2)), (4, 1))
    with pytest.raises(LatticeError):
        same_region(desc, (Fraction(6), Fraction(5, 2)))


def test_same_region_requires_off_fence_base():
    desc = region_descriptor((Fraction(9, 2), Fraction(7, 2)), (4, 1))
    assert not desc.away_from_fences  # 9/2 - 4 = 1/2
    with pytest.raises(FencePreconditionError):
        same_region(desc, (Fraction(11, 2), Fraction(7, 2)))


def test_same_region_matches_the_signature_route():
    # same_region against the chamber test plus lam's whole multi-signature,
    # on every translate with shifts -3..3; the descriptor's repr, hash and
    # equality do not see the tests it caches
    cases = [
        ((13 * H, 5 * H), (4, 1)),
        ((9 * H, -5 * H), (3 * H,)),
        ((13 * H, 7 * H, 3 * H), (5, H)),
        ((11 * H, -7 * H, H), (2, H)),
    ]
    for base, nu in cases:
        desc = region_descriptor(base, nu)
        assert desc.away_from_fences
        before = repr(desc), hash(desc)
        inside = chamber_test(base)
        seen = set()
        for shift in product(range(-3, 4), repeat=len(base)):
            lam = tuple(c + d for c, d in zip(base, shift))
            want = inside(lam) and multi_signature(lam, nu).entries == desc.signature.entries
            assert same_region(desc, lam) == want, (base, nu, lam)
            seen.add(want)
        assert seen == {True, False}
        assert (repr(desc), hash(desc)) == before
        assert desc == region_descriptor(base, nu)


def test_same_region_lattice_error_comes_before_the_fence_error():
    desc = region_descriptor((Fraction(9, 2), Fraction(7, 2)), (4, 1))
    with pytest.raises(LatticeError):
        same_region(desc, (Fraction(5), Fraction(7, 2)))


def test_lattice_path_steps_stay_in_region():
    nu = (Fraction(4), Fraction(1))
    xi = (Fraction(13, 2), Fraction(5, 2))
    target = (Fraction(19, 2), Fraction(7, 2))
    path = lattice_path(xi, target, nu)
    assert path[0] == xi and path[-1] == target
    desc = region_descriptor(xi, nu)
    l1 = sum(abs(a - b) for a, b in zip(xi, target))
    assert len(path) == l1 + 1
    for a, b in zip(path, path[1:]):
        diff = [y - x for x, y in zip(a, b)]
        assert sum(abs(d) for d in diff) == 1
        assert same_region(desc, b)
