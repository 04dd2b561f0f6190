import hashlib
import json
from fractions import Fraction

import pytest

from orthobranch import enveloping
from orthobranch.enveloping import (
    UEElement,
    ad_gn,
    bracket,
    build_A,
    build_B,
    build_C,
    build_Dj,
    build_Dscript,
    casimir,
    commutator,
    gen,
    monomial,
    normal_order,
    ue_to_obj,
    verify_identities,
)

from dense_reference import is_invariant

ZERO = UEElement({})


def test_gen_antisymmetry_and_diagonal():
    assert gen(1, 0) == gen(0, 1).scale(-1)
    assert gen(2, 2) == ZERO
    assert gen(0, 1) + gen(1, 0) == ZERO


def test_bracket_examples():
    assert bracket((0, 1), (1, 2)) == gen(0, 2)
    assert bracket((0, 1), (2, 3)) == ZERO
    assert bracket((0, 1), (0, 1)) == ZERO


def test_bracket_antisymmetry_random_pairs():
    pairs = [(0, 1), (1, 2), (0, 3), (2, 3), (1, 3)]
    for x in pairs:
        for y in pairs:
            assert bracket(x, y) == bracket(y, x).scale(-1)


def test_normal_order_single_swap():
    lhs = normal_order(monomial([(1, 2), (0, 1)]))
    rhs = monomial([(0, 1), (1, 2)]) - gen(0, 2)
    assert lhs == rhs


def test_fraction_coefficients_normal_order_exactly():
    third = Fraction(1, 3)
    e = monomial([(1, 2), (0, 1)], third) + gen(0, 1).scale(Fraction(2, 3))
    lhs = normal_order(e)
    assert lhs == (monomial([(0, 1), (1, 2)], third) - gen(0, 2).scale(third)
                   + gen(0, 1).scale(Fraction(2, 3)))
    assert lhs.terms[((0, 2),)] == Fraction(-1, 3)
    # an integral product of Fraction coefficients is stored as an int
    prod = gen(0, 1).scale(third) * gen(1, 2).scale(Fraction(6, 2))
    assert prod.terms == {((0, 1), (1, 2)): 1}
    assert type(prod.terms[((0, 1), (1, 2))]) is int


def test_normal_order_fixpoint_and_zero():
    ordered = monomial([(0, 1), (1, 2)])
    assert normal_order(ordered) == ordered
    assert normal_order(ZERO) == ZERO


def test_normal_order_respects_products():
    # (X01 * X12) * X02  ==  X01 * (X12 * X02) after ordering
    a, b, c = gen(0, 1), gen(1, 2), gen(0, 2)
    assert normal_order((a * b) * c) == normal_order(a * (b * c))


def test_casimir_expansion_n2():
    expect = (monomial([(0, 1), (0, 1)])
              + monomial([(0, 2), (0, 2)])
              + monomial([(1, 2), (1, 2)])).scale(-1)
    assert casimir(2, "full") == expect
    assert casimir(2, "sub") == monomial([(1, 2), (1, 2)]).scale(-1)
    assert casimir(1, "full") == monomial([(0, 1), (0, 1)]).scale(-1)


def test_casimir_is_central():
    n = 3
    c = casimir(n, "full")
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            assert normal_order(commutator(gen(i, j), c)) == ZERO


def test_ladder_low_degree():
    n = 4
    assert build_A(1, n) == ZERO
    expect = ZERO
    for a in range(1, n + 1):
        expect = expect + monomial([(a, 0), (0, a)])
    assert normal_order(build_A(2, n)) == normal_order(expect)
    assert build_B(1, n) == tuple(gen(0, j) for j in range(1, n + 1))
    assert build_Dj(1, n) == tuple(gen(j, 0) for j in range(1, n + 1))


def test_degree3_ladder_is_casimir_combination():
    for n in (2, 3, 4):
        lhs = normal_order(build_A(3, n))
        rhs = normal_order(
            casimir(n, "full").scale(1 - n) + casimir(n, "sub").scale(n))
        assert lhs == rhs


def test_chain_and_transfer_definitions():
    n = 3
    assert normal_order(build_C(2, n)) == normal_order(build_Dscript(1, 1, n))
    lhs = normal_order(build_Dscript(2, 2, n))
    rhs = normal_order(build_C(3, n) * build_A(1, n) + build_Dscript(3, 1, n))
    assert lhs == rhs
    with pytest.raises(ValueError):
        build_C(1, n)
    with pytest.raises(ValueError):
        build_A(0, n)


def test_twist_signs():
    n = 3
    assert ad_gn(gen(0, n), n) == gen(0, n).scale(-1)
    assert ad_gn(gen(0, 1), n) == gen(0, 1)
    a3 = build_A(3, n)
    assert ad_gn(a3, n) == normal_order(a3)
    bs = build_B(2, n)
    assert ad_gn(bs[n - 1], n) == normal_order(bs[n - 1]).scale(-1)
    assert ad_gn(bs[0], n) == normal_order(bs[0])


def test_invariance():
    n = 3
    assert is_invariant(build_A(3, n), n)
    assert is_invariant(build_Dscript(2, 2, n), n)
    assert is_invariant(casimir(n, "full"), n)
    assert not is_invariant(gen(0, 1), n)


def test_identity_suite_clean():
    # exact counts: a check dropped from or added to the suite shows here
    for n, count in ((2, 50), (3, 135), (4, 358), (5, 891), (6, 2057)):
        checks, failures = verify_identities(n, max_degree=4)
        assert failures == []
        assert checks == count


def _empty_memos(monkeypatch):
    # every module memo of the enveloping layer, the bracket table included,
    # emptied for one test and restored after it
    for memo in ("_ORDER_MEMO", "_AB_MEMO", "_D_MEMO", "_BRACKET_MEMO"):
        monkeypatch.setattr(enveloping, memo, {})


def test_identity_suite_memo_is_bounded(monkeypatch):
    # commutators order only the words a bracket changes, never the product
    # words x*w and w*x, so the ordering memo stays small; the bracket table
    # holds at most one entry per pair of the 21 generators of n = 6
    _empty_memos(monkeypatch)
    assert sum(verify_identities(n, max_degree=4)[0] for n in (3, 4, 5, 6)) == 3441
    assert len(enveloping._ORDER_MEMO) <= 6000
    assert sum(map(len, enveloping._BRACKET_MEMO.values())) <= 21 ** 2


def _plant(monkeypatch, how):
    # moves or doubles the entry [X_12, X_01] of the bracket table, so that
    # the first-descent order of normal ordering decides the results
    real = enveloping.gen_bracket
    edits = {"doubled": lambda out: {p: 2 * c for p, c in out.items()},
             "to-the-top": lambda out: {(0, 3): c for c in out.values()}}

    def planted(x, y):
        out = real(x, y)
        return edits[how](out) if (x, y) == ((1, 2), (0, 1)) else out

    monkeypatch.setattr(enveloping, "gen_bracket", planted)
    _empty_memos(monkeypatch)


@pytest.mark.parametrize("how", [None, "doubled", "to-the-top"])
def test_commutator_matches_the_product_form(monkeypatch, how):
    if how:
        _plant(monkeypatch, how)
    for n in (2, 3, 4):
        gens = [gen(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        elements = [build_A(N, n) for N in range(1, 5)]
        for ell in range(1, 5):
            elements += build_B(ell, n) + build_Dj(ell, n)
            elements += [build_Dscript(ell, N, n) for N in range(1, 5 - ell)]
        for x in gens:
            for e in elements:
                assert commutator(x, e) == x * e - e * x
    raw = [monomial([(1, 2), (0, 1)]), monomial([(0, 2), (1, 2), (0, 1)], Fraction(1, 2)),
           monomial([(2, 3), (0, 1), (1, 3), (0, 1)]) + monomial([(0, 1), (1, 2)]).scale(3),
           UEElement({(): 5}), build_B(2, 3)[0] + monomial([(1, 3), (0, 2)])]
    lefts = [gen(1, 2), gen(0, 1).scale(2) - gen(1, 2) + gen(0, 3).scale(Fraction(1, 3))
             + UEElement({(): 7}), UEElement({(): 4}), gen(0, 1) * gen(1, 2) + gen(0, 2)]
    for a in lefts:
        for b in raw + [build_A(3, 3), build_Dscript(1, 2, 3)]:
            assert commutator(a, b) == a * b - b * a


def test_identity_suite_compares_normal_ordered_elements(monkeypatch):
    # _check compares terms as given, which decides equality only when both
    # sides are already in normal order
    seen = []
    check = enveloping._check

    def ordered_check(failures, checks, name, params, lhs, rhs):
        assert normal_order(lhs) == lhs and normal_order(rhs) == rhs, (name, params)
        seen.append(name)
        check(failures, checks, name, params, lhs, rhs)

    monkeypatch.setattr(enveloping, "_check", ordered_check)
    for n in (2, 3, 4):
        checks, failures = verify_identities(n, max_degree=4)
        assert failures == [] and checks == len(seen)
        seen.clear()


# (edit of [X_12, X_01], n, checks_run, failures, sha256 of the failure list
# as sorted-key JSON); the n = 3, 4 rows recorded from the suite before its B
# and D families shared one loop, the n = 5, 6 rows from the suite before
# commutators and Jacobi were computed without product words
PLANTED = [
    ("doubled", 3, 135, 43, "62ae63d5b03bae8d0e78c7db0e5be02e4b0a04cb129563a6046c9ebd3403ba4b"),
    ("doubled", 4, 358, 69, "b1ea3ae6286be75b199d50197d18d5f5d854d18af946654ea4be6b55e1e4893c"),
    ("to-the-top", 3, 135, 62, "1da1929c28eaf3cf725d4410db6833bf239714d72df6b7ddf6f871219d779c16"),
    ("to-the-top", 4, 358, 90, "280e650191db90926d5e02dc4c6da2aeed18fb2f725abc4a1780e5facba39527"),
    ("doubled", 5, 891, 97, "30c7fe829acffb967c345348969a2a5f5506f0aaccdb45b5a54cf7b43579b4f3"),
    ("doubled", 6, 2057, 127, "dddd9732a241114fddf6b208043a644cc5a0de8597623a3699031a05eb517576"),
    ("to-the-top", 5, 891, 133, "d8c3a3d9c5f1c863f9c2f60967300bf5db6c27bdd378448244a87537b810e0af"),
    ("to-the-top", 6, 2057, 180, "552cb60ed97d3b661bfbcde05a06d679f5c3cbb2616a2b2c6dcf388832e691ba"),
]


@pytest.mark.parametrize("how, n, count, failed, digest", PLANTED)
def test_identity_suite_under_a_planted_bracket_edit(monkeypatch, how, n, count, failed, digest):
    # "doubled" doubles the entry; "to-the-top" moves it to X_03, which the
    # twist by diag(1, ..., 1, -1) does not fix, so twist checks fail too
    _plant(monkeypatch, how)
    checks, failures = verify_identities(n, max_degree=4)
    text = json.dumps(failures, sort_keys=True).encode("utf-8")
    assert (checks, len(failures), hashlib.sha256(text).hexdigest()) == (count, failed, digest)
    assert [f["check"] for f in failures[:2]] == ["ladder3-casimir", "transfer-split"]
    twisted = any(f["check"].startswith("twist-") for f in failures)
    assert twisted == ((how, n) == ("to-the-top", 3))


def test_serialization_shape():
    e = gen(0, 1).scale(Fraction(3, 2)) + monomial([(0, 1), (1, 2)])
    obj = ue_to_obj(e)
    assert obj == [
        {"monomial": [[0, 1]], "coeff": "3/2"},
        {"monomial": [[0, 1], [1, 2]], "coeff": "1"},
    ]
