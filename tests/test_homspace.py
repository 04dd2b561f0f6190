import hashlib
import inspect
import json

import pytest

from orthobranch.branching import fd_label, full_decomposition, oracle_multiplicity
from orthobranch.homspace import hom_space
from orthobranch.matrixrep import Recipe, act, construct_irrep
from orthobranch.enveloping import gen
from orthobranch.weights import InvalidRankError, rank_context

from dense_reference import dense, hom_space_dense, parts


def test_vector_to_trivial(reps):
    big = reps.get(3, (1, 0))
    sub = reps.get(3, (0,), 1, which="sub")
    mult, ops = hom_space(big, sub)
    assert mult == 1
    assert ops[0].verified
    assert any(c for row in dense(ops[0].matrix, sub.dim) for c in row)


def test_vector_to_vector(reps):
    big = reps.get(3, (1, 0))
    sub = reps.get(3, (1,), None, which="sub")
    mult, _ = hom_space(big, sub)
    assert mult == 1


def test_trivial_to_vector_vanishes(reps):
    big = reps.get(3, (0, 0))
    sub = reps.get(3, (1,), None, which="sub")
    mult, ops = hom_space(big, sub)
    assert mult == 0 and ops == []


def test_operator_equivariance_literal(reps):
    big = reps.get(3, (2, 1))
    sub = reps.get(3, (2,), None, which="sub")
    mult, ops = hom_space(big, sub)
    assert mult == 1
    T = dense(ops[0].matrix, sub.dim)
    for (a, b) in [(1, 2), (1, 3), (2, 3)]:
        Xb = dense(act(gen(a, b), big), big.dim)
        Xs = dense(act(gen(a, b), sub), sub.dim)
        lhs = [[sum_prod(T, Xb, i, j) for j in range(big.dim)] for i in range(sub.dim)]
        rhs = [[sum_prod(Xs, T, i, j) for j in range(big.dim)] for i in range(sub.dim)]
        assert lhs == rhs


def sum_prod(A, B, i, j):
    s = 0
    for k in range(len(B)):
        s = s + A[i][k] * B[k][j]
    return s


def test_det_twist_sensitivity(reps):
    big = reps.get(3, (1, 0))
    plus = reps.get(3, (0,), 1, which="sub")
    minus = reps.get(3, (0,), -1, which="sub")
    assert hom_space(big, plus)[0] == 1
    assert hom_space(big, minus)[0] == 0


def test_matches_oracle_and_dense_small_grid(reps):
    cases = [
        (3, (1, 1), None),
        (3, (2, 0), None),
        (4, (1, 0), 1),
        (4, (1, 1), 1),
    ]
    for n, mu, eps in cases:
        big = reps.get(n, mu, eps)
        big_lab = fd_label(n + 1, mu, eps)
        for sub_lab, want in full_decomposition(big_lab):
            if sub_lab.group_size % 2:
                sub = reps.get(n, sub_lab.mu, sub_lab.eps, which="sub")
            else:
                sub = reps.get(n, sub_lab.mu, sub_lab.eps if sub_lab.mu[-1] == 0 else None,
                               which="sub")
            got, ops = hom_space(big, sub)
            assert got == want == oracle_multiplicity(big_lab, sub_lab)
            assert all(op.verified for op in ops)
            if big.dim * sub.dim <= 400:
                assert hom_space_dense(big, sub) == want


def test_requires_polynomial_models(reps):
    from orthobranch.matrixrep import standard_rep
    big = standard_rep(rank_context(3))
    sub = reps.get(3, (0,), 1, which="sub")
    with pytest.raises(InvalidRankError):
        hom_space(big, sub)


def test_dense_route_unknown_cap(reps):
    big = reps.get(3, (2, 1))
    sub = reps.get(3, (2,), None, which="sub")
    with pytest.raises(InvalidRankError):
        hom_space_dense(big, sub, max_unknowns=10)


def operator_digest(cols):
    """sha256 of an operator's sparse columns, each column's entries in row order."""
    entries = [[[i, *map(str, parts(x))] for i, x in sorted(col.items())] for col in cols]
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


# (n, big rows, big eps, sub rows, sub eps, digests of the returned operators):
# an induced big label with a non-induced sub under both det twists; an
# induced sub whose model has reflection recipes, under a det-twisted big; a
# non-induced even-size sub and the zero-multiplicity twist of the same pair;
# a rank-3 pair with both det twists
PINNED_OPERATORS = [
    (3, (2, 1), None, (1,), 1,
     ["214bc772310002f4c3f3ae42a9f56a7ce41f2aeee386f08fb48ba1bd8d2e73f7"]),
    (3, (2, 1), None, (1,), -1,
     ["9fee23a4ef69fef7f9c094bcf9a35a7f52111ede5dcd767e77a115d0801b8c32"]),
    (4, (2, 1), -1, (1, 1), None,
     ["ea56db8bca107409261bd6f4f29b4341c7df7e8be7ee0db5f55544046428c586"]),
    (4, (1, 1), 1, (1, 0), 1,
     ["def1e2df5ccf23aa274a08fa00f449dc6db141541553d0cb3ac5ae197f533233"]),
    (4, (1, 1), 1, (1, 0), -1, []),
    (6, (1, 1), -1, (1, 1, 0), -1,
     ["a70483529c4816801bcf1a803280cae614efb3b51884de2f02f2a54982d09534"]),
]


@pytest.mark.parametrize("n, big_rows, big_eps, sub_rows, sub_eps, digests", PINNED_OPERATORS)
def test_operator_bytes_are_pinned(reps, n, big_rows, big_eps, sub_rows, sub_eps, digests):
    big = reps.get(n, big_rows, big_eps)
    sub = reps.get(n, sub_rows, sub_eps, which="sub")
    mult, ops = hom_space(big, sub)
    assert mult == len(digests)
    assert [operator_digest(op.matrix) for op in ops] == digests


def _double_one_gram_entry(rep):
    """Double entry (0, j) of the subgroup model's Gram matrix for its first
    nonzero j, leaving (j, 0) as it is: T = B_sub^-1 S^T B_big then differs
    from an equivariant map by a non-scalar factor."""
    row = rep.model.gram[0]
    j = next(iter(row))
    row[j] = row[j] * 2


# the first element of the subgroup's Chevalley basis, the root vector of
# root (1,) on the frame 1..3
EQUIVARIANCE_FAILURE = "operator not equivariant for E(1,)"


def test_equivariance_check_can_fail(reps, run_optimized):
    big = reps.get(3, (2, 1))
    sub = construct_irrep(rank_context(3), (2,), which="sub")   # fresh: changed below
    _double_one_gram_entry(sub)
    with pytest.raises(AssertionError) as exc:
        hom_space(big, sub)
    assert str(exc.value) == EQUIVARIANCE_FAILURE
    code = ("from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep\n"
            "from orthobranch.homspace import hom_space\n"
            + inspect.getsource(_double_one_gram_entry) +
            "big = construct_irrep(rank_context(3), (2, 1))\n"
            "sub = construct_irrep(rank_context(3), (2,), which='sub')\n"
            "_double_one_gram_entry(sub)\n"
            "try:\n"
            "    hom_space(big, sub)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    assert run_optimized(code) == EQUIVARIANCE_FAILURE + "\n"


def test_singular_gram_block_raises(reps):
    # the pairing of the weight-0 vector with itself, the one entry of its
    # 1-by-1 block of the Gram matrix, set to zero
    big = reps.get(3, (2, 1))
    sub = construct_irrep(rank_context(3), (2,), which="sub")   # fresh: changed below
    zero = sub.model.tags.index((0,))
    sub.model.gram[zero].clear()
    with pytest.raises(ValueError, match="singular"):
        hom_space(big, sub)


def _push_the_seed_image_off_the_hw_span(sub):
    """Add basis vector k to column 0 of sub's reflection, k the first one
    whose weight is neither sub's label nor the label with its last entry
    negated: S_w(R_sub e_0) then has a part of a weight that no subgroup
    highest-weight vector of big has, for every hw vector w."""
    mu = tuple(sub.label.mu)
    k = next(k for k, t in enumerate(sub.model.tags) if t not in (mu, mu[:-1] + (-mu[-1],)))
    sub.reflection()[0][k] = 1


def test_an_involution_image_off_the_hw_span_raises(reps, run_optimized):
    # O(4) (2,1) -> O(3) (1): a 2-dimensional hw space, a non-induced label
    big = reps.get(3, (2, 1))
    sub = construct_irrep(rank_context(3), (1,), which="sub")   # fresh: changed below
    _push_the_seed_image_off_the_hw_span(sub)
    with pytest.raises(AssertionError, match="involution image is not a hw-space member"):
        hom_space(big, sub)
    code = ("from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep\n"
            "from orthobranch.homspace import hom_space\n"
            + inspect.getsource(_push_the_seed_image_off_the_hw_span) +
            "big = construct_irrep(rank_context(3), (2, 1))\n"
            "sub = construct_irrep(rank_context(3), (1,), which='sub')\n"
            "_push_the_seed_image_off_the_hw_span(sub)\n"
            "try:\n"
            "    hom_space(big, sub)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    assert run_optimized(code) == "involution image is not a hw-space member\n"


def _unknown_recipe_kind(sub):
    """Give the subgroup model's last basis vector a construction recipe of a
    kind that no model builds."""
    sub.model.recipes[-1] = Recipe("bogus", 0)


def test_an_unknown_recipe_kind_raises(reps, run_optimized):
    # replaying the subgroup model's recipes onto a hw vector meets a kind
    # that is neither seed, op nor refl
    big = reps.get(3, (2, 1))
    sub = construct_irrep(rank_context(3), (1,), which="sub")   # fresh: changed below
    _unknown_recipe_kind(sub)
    with pytest.raises(AssertionError) as exc:
        hom_space(big, sub)
    assert str(exc.value) == "unknown recipe kind 'bogus'"
    code = ("from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import Recipe, construct_irrep\n"
            "from orthobranch.homspace import hom_space\n"
            + inspect.getsource(_unknown_recipe_kind) +
            "big = construct_irrep(rank_context(3), (2, 1))\n"
            "sub = construct_irrep(rank_context(3), (1,), which='sub')\n"
            "_unknown_recipe_kind(sub)\n"
            "try:\n"
            "    hom_space(big, sub)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    assert run_optimized(code) == "unknown recipe kind 'bogus'\n"
