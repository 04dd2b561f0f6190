import copy
import inspect
import json
from fractions import Fraction

import pytest

from orthobranch import enveloping, matrixrep, measure
from orthobranch.cli import main
from orthobranch.enveloping import monomial
from orthobranch.homspace import SymmetryBreakingOperator, hom_space, subgroup_hw_space
from orthobranch.linalg import Gi, apply_cols, qi_from_string, qi_to_string
from orthobranch.matrixrep import (
    act, construct_irrep, det_twisted, rep_from_bundle, rep_to_bundle, standard_rep,
)
from orthobranch.measure import (
    IdentityViolationError,
    b_eval,
    b_reconstruct,
    measure_scalar,
    verify_power_identity,
)
from orthobranch.scalars import C_val, b_closed, scalar_query
from orthobranch.weights import ResourceLimitError, rank_context

from dense_reference import (
    casimir_shifted_step, dense_b, dense_projector_ratio, plain_act, primary_projector,
    x_coupling_step,
)

CTX3 = rank_context(3)
CTX4 = rank_context(4)

F = Fraction


def only_op(big, sub):
    mult, ops = hom_space(big, sub)
    assert mult == 1
    return ops[0]


def test_anchor_trivial_pair(reps):
    op = only_op(reps.get(4, (0, 0), 1), reps.get(4, (0, 0), None, which="sub"))
    res = measure_scalar(op, 1, 1)
    assert res.value.defined and res.value.value == 1
    q = scalar_query(CTX4, 1, 1, op.big.inf_char, op.sub.inf_char)
    assert res.value.value == C_val(q).value


def test_anchor_vector_pair(reps):
    op = only_op(reps.get(3, (1, 0)), reps.get(3, (0,), 1, which="sub"))
    res = measure_scalar(op, 1, 1)
    assert res.value.defined and res.value.value == F(3, 4)
    q = scalar_query(CTX3, 1, 1, op.big.inf_char, op.sub.inf_char)
    assert C_val(q).value == F(3, 4)


def test_measure_matches_closed_form_both_signs(reps):
    op = only_op(reps.get(3, (2, 1)), reps.get(3, (1,), None, which="sub"))
    for i in (1, 2):
        for eps in (1, -1):
            q = scalar_query(CTX3, i, eps, op.big.inf_char, op.sub.inf_char)
            want = C_val(q)
            if not want.defined:
                continue
            got = measure_scalar(op, i, eps)
            assert got.value.defined
            assert got.value.value == want.value


def test_measure_undefined_at_degenerate_factor(reps):
    # even n, lam_2 = 1/2, eps = -1: the normalizer factor 2*lam_2 + eps
    # vanishes, so the measured value is undefined (0 denominator)
    op = only_op(reps.get(4, (0, 0), 1), reps.get(4, (0, 0), None, which="sub"))
    q = scalar_query(CTX4, 2, -1, op.big.inf_char, op.sub.inf_char)
    from orthobranch.scalars import phi_val
    assert phi_val(q) == 0
    res = measure_scalar(op, 2, -1)
    assert not res.value.defined
    assert res.normalizer == 0


def test_power_identity(reps):
    assert verify_power_identity(standard_rep(CTX3), 1)
    assert verify_power_identity(standard_rep(CTX3), 2)
    assert verify_power_identity(standard_rep(CTX4), 2)
    assert verify_power_identity(construct_irrep(CTX3, (0,)), 3)
    assert verify_power_identity(reps.get(3, (2, 0)), 2)


def _edited_flat(flat, how):
    """A matrix of a bundle (row-major exact strings) edited: "double" doubles
    its first nonzero entry, "seventh" adds 1/7 to entry (0, 0), "negate"
    negates every entry."""
    flat = list(flat)
    if how == "negate":
        return [qi_to_string(-qi_from_string(x)) for x in flat]
    k = next(k for k, x in enumerate(flat) if x != "0/1") if how == "double" else 0
    x = qi_from_string(flat[k])
    flat[k] = qi_to_string(2 * x if how == "double" else x + Fraction(1, 7))
    return flat


# (edit, generator edited, the check verify-ue --bundle reports): doubling an
# entry or adding 1/7 makes -sum X[a,b]^2 act by no scalar, so the Casimir
# check reports it first; negating a whole generator leaves the Casimir, and
# only the power identity sees it
POWER_EDITS = [("double", "0,1", "bundle-casimir"), ("seventh", "1,2", "bundle-casimir"),
               ("negate", "1,2", "bundle-power")]


def _edited_power_bundle(reps, how, key):
    bundle = rep_to_bundle(reps.get(3, (2, 1)))
    bundle["matrices"][key] = _edited_flat(bundle["matrices"][key], how)
    return bundle


def _power_sides(rep, N, j):
    """Both sides of the power identity on basis vector j, slot by slot, from
    the dense references: ctilde^N (e_j (x) f_0) by the index formula, and
    A_N, B_N,1, ..., B_N,n word by word."""
    n = len(rep.indices) - 1
    V = measure._insert_first_slot(rep, {j: 1})
    for _ in range(N):
        V = x_coupling_step(rep, V)
    return V, [plain_act(e, rep)[j] for e in (enveloping.build_A(N, n), *enveloping.build_B(N, n))]


@pytest.mark.parametrize("how, key, check", POWER_EDITS)
def test_power_identity_can_fail(reps, tmp_path, capsys, run_optimized, how, key, check):
    rep = rep_from_bundle(_edited_power_bundle(reps, how, key))
    # N = 1 cannot fail: A_1 = 0 and B_1,j = X_0j, so both sides are the same columns
    assert [verify_power_identity(rep, N) for N in (1, 2, 3)] == [True, False, False]
    # the counterexample replays: on its basis vector the sides differ first in its slot
    for N in (2, 3):
        where = measure.power_identity_counterexample(rep, N)
        lhs, rhs = _power_sides(rep, N, where["basis_vector"])
        slot = where["slot"]
        assert lhs[:slot] == rhs[:slot] and lhs[slot] != rhs[slot], (N, where)
    path = tmp_path / f"{how}.json"
    path.write_text(json.dumps(_edited_power_bundle(reps, how, key)))
    argv = ["verify-ue", "--n", "3", "--max-degree", "3", "--bundle", str(path)]
    capsys.readouterr()
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["check"] == check and report["params"]["bundle"] == str(path)
    if check == "bundle-casimir":
        assert report["error"].startswith("quadratic invariant "), report  # casimir_scalar's text
    fields = ["1", check]
    if check == "bundle-power":  # N = 2 fails first, on basis vector 0 in the slot of B_2,1
        assert (report["params"]["N"], report["basis_vector"], report["slot"]) == (2, 0, 1)
        assert report == {"check": check, "params": {"bundle": str(path), "N": 2},
                          **measure.power_identity_counterexample(rep, 2)}
        fields += ["0", "1"]
    code = ("import contextlib, io, json, sys\n"
            "from orthobranch.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(sys.argv[1:])\n"
            "report = json.loads(out.getvalue())\n"
            "where = [report[k] for k in ('basis_vector', 'slot') if k in report]\n"
            "print(code, report['check'], *where)\n")
    assert run_optimized(code, *argv).split() == fields


def test_tampered_bundles_round_trip(reps):
    # bundles whose X[a,b] no model has: each POWER_EDITS edit of O(4) (2,1),
    # O(4) (1,0) with every generator times 1+i, and O(4) (2,1) with entry 0
    # of X[0,1] given parts over 101 and 103.  Each stores the Chevalley
    # columns its X[a,b] give, complex ones included; over Q(i) that change
    # of basis is invertible, so the matrices read are written back exactly
    bundles = {f"{how} {key}": _edited_power_bundle(reps, how, key) for how, key, _ in POWER_EDITS}
    scaled = bundles["times 1+i"] = rep_to_bundle(reps.get(3, (1, 0)))
    scaled["matrices"] = {key: [qi_to_string(qi_from_string(x) * Gi(1, 1)) for x in flat]
                          for key, flat in scaled["matrices"].items()}
    mixed = bundles["mixed entry"] = rep_to_bundle(reps.get(3, (2, 1)))
    mixed["matrices"]["0,1"][0] = "1/101+1/103i"
    for name, bundle in bundles.items():
        assert rep_to_bundle(rep_from_bundle(bundle))["matrices"] == bundle["matrices"], name
    # the scaled bundle's columns are the model's times 1+i
    want = {key: [{i: x * Gi(1, 1) for i, x in col.items()} for col in cols]
            for key, cols in reps.get(3, (1, 0)).chevalley().items()}
    assert rep_from_bundle(scaled).chevalley() == want


def test_a_word_longer_than_the_power_fails_the_check(reps, monkeypatch):
    # the trivial model acts by zero, so the extra word adds nothing to either
    # side: only the degree bound can turn the check down
    build_B = enveloping.build_B

    def padded(N, ctx):
        first, *rest = build_B(N, ctx)
        return (first + monomial([(0, 1)] * (N + 1)), *rest)

    models = [construct_irrep(CTX3, (0,)), rep_from_bundle(rep_to_bundle(reps.get(3, (2, 1))))]
    assert all(verify_power_identity(rep, N) for rep in models for N in (1, 2, 3))
    monkeypatch.setattr(enveloping, "build_B", padded)
    assert [verify_power_identity(rep, N) for rep in models for N in (1, 2, 3)] == [False] * 6
    # the counterexample names the element's slot (B_N,1) and the long word
    assert measure.power_identity_counterexample(models[1], 2) == {"slot": 1, "word": [[0, 1]] * 3}


def test_b_eval_matches_closed_forms(reps):
    op = only_op(reps.get(4, (0, 0), 1), reps.get(4, (0, 0), None, which="sub"))
    lam, nu = op.big.inf_char, op.sub.inf_char
    assert b_eval(op, 1) == 0
    assert b_eval(op, 2) == b_closed(2, CTX4, lam, nu) == 0
    assert b_eval(op, 3) == b_closed(3, CTX4, lam, nu) == 0
    op2 = only_op(reps.get(3, (2, 1)), reps.get(3, (1,), None, which="sub"))
    lam2, nu2 = op2.big.inf_char, op2.sub.inf_char
    for ell in (1, 2, 3):
        assert b_eval(op2, ell) == b_closed(ell, CTX3, lam2, nu2)


def test_b_eval_rejects_a_negative_power(reps):
    op = only_op(reps.get(3, (2, 1)), reps.get(3, (1,), None, which="sub"))
    assert b_eval(op, 0) == 1
    with pytest.raises(ValueError, match="ell=-1"):
        b_eval(op, -1)


@pytest.mark.parametrize("n, big_rows, big_eps, sub_rows, sub_eps", [
    (3, (2, 1), None, (1,), None),
    (4, (2, 1), 1, (1, 1), None),
    (6, (1, 0, 0), 1, (1, 0, 0), 1),
], ids=["O4-2,1", "O5-2,1", "O7-1,0,0"])
def test_projector_polynomial_matches_the_factor_product(
        reps, monkeypatch, n, big_rows, big_eps, sub_rows, sub_eps):
    # the projector read off the power chain, sum_k p_k ctilde^k, against the
    # product of the factors (cDelta - shift) applied one after the other
    op = only_op(reps.get(n, big_rows, big_eps), reps.get(n, sub_rows, sub_eps, which="sub"))
    big, ctx = op.big, rank_context(n)
    seen = []

    def recording(op_, w, image, what):
        seen.append((w, image))
        return ratio_against(op_, w, image, what)

    ratio_against = measure._ratio_against
    monkeypatch.setattr(measure, "_ratio_against", recording)
    for i in range(1, ctx.r + 1):
        for eps in (1, -1):
            seen.clear()
            measure_scalar(op, i, eps)
            ((w, w0),) = seen
            assert w == op.hw
            shifts, _norm = measure.projector_factors(ctx, big.inf_char, i, eps)
            V = [dict(w)] + [dict() for _ in big.indices[1:]]
            for s in shifts:
                V = casimir_shifted_step(big, ctx, V, s)
            assert w0 == V[0], (i, eps)


def test_one_chain_serves_every_direction_and_power(reps, monkeypatch):
    # O(5) (2,1): four directions of four factors each and the powers 1..3,
    # on the one hw vector, take the chain to ctilde^4: 4 coupling steps
    # (three dense probes took 12; a product per direction and a chain per
    # power would take 66)
    op = only_op(reps.get(4, (2, 1), 1), reps.get(4, (1, 1), None, which="sub"))
    op = _fresh_cache(op)
    steps = []
    step = measure.coupling_step

    def counted(mats, form, combos, V):
        steps.append(1)
        return step(mats, form, combos, V)

    monkeypatch.setattr(measure, "coupling_step", counted)
    for i in (1, 2):
        for eps in (1, -1):
            measure_scalar(op, i, eps)
    for ell in (1, 2, 3):
        b_eval(op, ell)
    assert len(steps) == 4


def _double_one_entry(op):
    """A copy of op whose first nonzero matrix entry is doubled."""
    cols = [dict(col) for col in op.matrix]
    j = next(j for j, col in enumerate(cols) if col)
    row, x = next(iter(cols[j].items()))
    cols[j][row] = 2 * x
    return SymmetryBreakingOperator(op.big, op.sub, cols, op.hw)


def test_a_wrong_operator_fails_the_measurement(reps, run_optimized):
    bad = _double_one_entry(only_op(reps.get(3, (2, 1)), reps.get(3, (1,), None, which="sub")))
    with pytest.raises(IdentityViolationError, match="projector composition"):
        measure_scalar(bad, 1, 1)
    with pytest.raises(IdentityViolationError, match="power composition"):
        b_eval(bad, 2)
    code = ("from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep\n"
            "from orthobranch.homspace import SymmetryBreakingOperator, hom_space\n"
            "from orthobranch.measure import IdentityViolationError, b_eval, measure_scalar\n"
            + inspect.getsource(_double_one_entry) +
            "big = construct_irrep(rank_context(3), (2, 1))\n"
            "sub = construct_irrep(rank_context(3), (1,), which='sub')\n"
            "bad = _double_one_entry(hom_space(big, sub)[1][0])\n"
            "for measure in (lambda: measure_scalar(bad, 1, 1), lambda: b_eval(bad, 2)):\n"
            "    try:\n"
            "        measure()\n"
            "    except IdentityViolationError as exc:\n"
            "        print(exc)\n")
    assert run_optimized(code).splitlines() == [
        "projector composition is not proportional to the operator",
        "power composition is not proportional to the operator"]


def _double_one_entry_in_place(op):
    """Double op's first nonzero matrix entry, in op's own columns."""
    col = next(col for col in op.matrix if col)
    row, x = next(iter(col.items()))
    col[row] = 2 * x


def test_a_changed_matrix_is_checked_again(reps, run_optimized):
    # an in-place change after a passing measurement: the next measurement
    # sees that the matrix is not the one the equivariance check passed on
    op = only_op(reps.get(3, (2, 1)), reps.get(3, (1,), None, which="sub"))
    measure_scalar(op, 1, 1)
    _double_one_entry_in_place(op)
    assert not op.verified
    with pytest.raises(IdentityViolationError, match="projector composition"):
        measure_scalar(op, 1, 1)
    with pytest.raises(IdentityViolationError, match="power composition"):
        b_eval(op, 2)
    code = ("from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep\n"
            "from orthobranch.homspace import hom_space\n"
            "from orthobranch.measure import IdentityViolationError, b_eval, measure_scalar\n"
            + inspect.getsource(_double_one_entry_in_place) +
            "big = construct_irrep(rank_context(3), (2, 1))\n"
            "sub = construct_irrep(rank_context(3), (1,), which='sub')\n"
            "op = hom_space(big, sub)[1][0]\n"
            "measure_scalar(op, 1, 1)\n"
            "_double_one_entry_in_place(op)\n"
            "for run in (lambda: measure_scalar(op, 1, 1), lambda: b_eval(op, 2)):\n"
            "    try:\n"
            "        run()\n"
            "    except IdentityViolationError as exc:\n"
            "        print(exc)\n")
    assert run_optimized(code).splitlines() == [
        "projector composition is not proportional to the operator",
        "power composition is not proportional to the operator"]


def test_an_operator_without_hw_vector_is_a_usage_error(reps):
    op = only_op(reps.get(3, (2, 1)), reps.get(3, (1,), None, which="sub"))
    hand_built = SymmetryBreakingOperator(big=op.big, sub=op.sub, matrix=op.matrix)
    with pytest.raises(ValueError, match="highest-weight vector"):
        measure_scalar(hand_built, 1, 1)
    with pytest.raises(ValueError, match="highest-weight vector"):
        b_eval(hand_built, 1)


def _corrupt_each_step(step, hw):
    """coupling_step with one entry of its output's first slot changed:
    1 is added at the first big index outside the support of hw."""

    def corrupted(mats, form, combos, V):
        out = step(mats, form, combos, V)
        k = min(set(range(len(next(iter(mats.values()))))) - set(hw))
        out[0][k] = out[0].get(k, 0) + 1
        return out

    return corrupted


def _fresh_cache(op):
    """A copy of op whose big model has an empty chain cache."""
    big = copy.copy(op.big)
    big.cache = {}
    return SymmetryBreakingOperator(big, op.sub, op.matrix, op.hw)


def test_a_chain_off_the_hw_line_fails_the_measurement(reps, monkeypatch, run_optimized):
    op = only_op(reps.get(4, (2, 1), 1), reps.get(4, (1, 1), None, which="sub"))
    monkeypatch.setattr(measure, "coupling_step", _corrupt_each_step(measure.coupling_step, op.hw))
    with pytest.raises(IdentityViolationError, match="projector chain leaves"):
        measure_scalar(_fresh_cache(op), 1, 1)
    with pytest.raises(IdentityViolationError, match="power chain leaves"):
        b_eval(_fresh_cache(op), 1)
    code = ("import copy\n"
            "from orthobranch import measure\n"
            "from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep\n"
            "from orthobranch.homspace import SymmetryBreakingOperator, hom_space\n"
            "from orthobranch.measure import IdentityViolationError, b_eval, measure_scalar\n"
            + inspect.getsource(_corrupt_each_step) + inspect.getsource(_fresh_cache) +
            "big = construct_irrep(rank_context(4), (2, 1), eps=1)\n"
            "sub = construct_irrep(rank_context(4), (1, 1), which='sub')\n"
            "op = hom_space(big, sub)[1][0]\n"
            "measure.coupling_step = _corrupt_each_step(measure.coupling_step, op.hw)\n"
            "for run in (lambda: measure_scalar(_fresh_cache(op), 1, 1),\n"
            "            lambda: b_eval(_fresh_cache(op), 1)):\n"
            "    try:\n"
            "        run()\n"
            "    except IdentityViolationError as exc:\n"
            "        print(exc)\n")
    assert run_optimized(code).splitlines() == [
        "projector chain leaves the subgroup highest-weight line",
        "power chain leaves the subgroup highest-weight line"]


@pytest.mark.parametrize("n, big_rows, big_eps, sub_rows, sub_eps", [
    (3, (2, 1), None, (1,), None),
    (3, (3, 1), None, (2,), None),
    (4, (2, 1), -1, (1, 1), None),
    (4, (1, 1), -1, (1, 0), -1),
], ids=["O4-2,1-hw2", "O4-3,1-hw2", "O5-2,1-det", "O5-1,1-det-det"])
def test_the_hw_line_matches_the_dense_probes(reps, n, big_rows, big_eps, sub_rows, sub_eps):
    # induced big (n = 3, with a 2-dimensional hw space), det-twisted big,
    # induced sub: the hw line gives what three dense probes give
    big, sub = reps.get(n, big_rows, big_eps), reps.get(n, sub_rows, sub_eps, which="sub")
    op = only_op(big, sub)
    if n == 3:
        assert len(subgroup_hw_space(big, sub)) == 2
    for i in range(1, rank_context(n).r + 1):
        for eps in (1, -1):
            res = measure_scalar(op, i, eps)
            assert res.probes_checked == 1
            assert repr((res.raw_numerator, res.normalizer)) == repr(dense_projector_ratio(op, i, eps))
    for ell in range(4):
        assert repr(b_eval(op, ell)) == repr(dense_b(op, ell))


@pytest.mark.parametrize("n, rows, eps", [
    (3, (2, 1), None), (4, (2, 1), 1), (5, (2, 1, 0), 1), (6, (2, 1, 0), 1),
    (6, (2, 1, 0), -1), (4, (5, 0), 1),
], ids=["O4-2,1-induced", "O5-2,1", "O6-2,1,0", "O7-2,1,0", "O7-2,1,0-det", "O5-5,0"])
def test_coupling_step_matches_the_x_reference(reps, n, rows, eps):
    # ctilde^k (w (x) f_0), k <= n + 2, for w the highest plus i times the
    # last basis vector: the form K over the Chevalley columns and F gives
    # what the X-index formula gives, slot for slot
    big = reps.get(n, rows, eps)
    frame = big.frame
    V = W = measure._insert_first_slot(big, {0: 1, big.dim - 1: Gi(0, 1)})
    for _ in range(n + 2):
        V = measure.coupling_step(big.chevalley(), frame.casimir_form, frame.basis, V)
        W = x_coupling_step(big, W)
        assert V == W
    assert any(V)


def test_a_constructed_model_keeps_no_x(reps):
    # a built model, its det twin, the defining representation and a loaded
    # bundle each store one action, the columns of the frame's Chevalley
    # basis; hom spaces, measurements, act and bundles form X[a,b] from them
    # and keep nothing but the measurement's hw-chain cache
    big = construct_irrep(CTX4, (2, 1), eps=1)
    twin = det_twisted(big)
    standard = standard_rep(CTX4)
    loaded = rep_from_bundle(json.loads(json.dumps(rep_to_bundle(reps.get(3, (2, 1))))))
    for rep in (big, twin, standard, loaded):
        chev = rep._chev
        before = {key: [dict(col) for col in cols] for key, cols in chev.items()}
        if rep.kind == "model":
            op = only_op(rep, reps.get(4, (1, 1), None, which="sub"))
            measure_scalar(op, 1, 1)
            b_eval(op, 3)
        act(monomial([(0, 1), (1, 2)]), rep)
        rep_to_bundle(rep)
        assert set(vars(rep)) == set(matrixrep.MatrixRep._fields)
        assert rep._chev is chev and chev == before
        assert list(chev) == list(rep.frame.basis)
        assert all(len(cols) == rep.dim for cols in chev.values())
        assert all(key[0] == "hw-chain" for key in rep.cache), rep.kind
    assert standard.cache == {} and loaded.cache == {}
    assert big.cache is twin.cache and big._chev is twin._chev


def test_a_loaded_bundle_keeps_exactly_its_matrices(reps):
    bundle = json.loads(json.dumps(rep_to_bundle(reps.get(3, (2, 1)))))
    rep = rep_from_bundle(bundle)
    act(monomial([(0, 1), (1, 2)]), rep)
    assert verify_power_identity(rep, 2)
    assert rep_to_bundle(rep)["matrices"] == bundle["matrices"]


def test_primary_projector_examples(reps):
    triv = reps.get(4, (0, 0), 1)
    comp = primary_projector(triv, 1, 1)
    assert comp.dim == 5
    assert comp.eigenvalue == 4  # Casimir scalar of the vector representation
    vec = reps.get(4, (1, 0), 1)
    comp2 = primary_projector(vec, 1, 1)
    assert comp2.dim == 14
    assert comp2.eigenvalue == 10
    # exit the chamber: rank-0 component
    triv_even = reps.get(3, (1, 1))
    comp3 = primary_projector(triv_even, 2, -1)
    if comp3.dim == 0:
        assert comp3.eigenvalue is None


def evaluate(poly, lam, nu):
    """A b_reconstruct polynomial at (lam, nu): its keys hold the exponents of
    the squared coordinates ((lam_1^2, lam_2^2, ...), (nu_1^2, ...))."""
    total = F(0)
    for (ea, eb), c in poly.items():
        for x, e in zip(lam + nu, ea + eb):
            c *= F(x) ** (2 * e)
        total += c
    return total


def test_b_reconstruct_small():
    # off the interpolation grid: twelve generic points fix the four coefficients
    points = [((F(a, 2), F(b, 3)), (F(c, 5),))
              for a in (1, 7) for b in (-2, 5, 11) for c in (1, 4)]
    got = {ell: b_reconstruct(ell, CTX3) for ell in (1, 2, 3)}
    for ell, poly in got.items():
        for lam, nu in points:
            assert evaluate(poly, lam, nu) == b_closed(ell, CTX3, lam, nu), (ell, lam, nu)
    # b^(2) = |lam|^2 - |nu|^2 - n(n-1)/8 term by term at n = 3
    assert got[2] == {((1, 0), (0,)): 1, ((0, 1), (0,)): 1,
                      ((0, 0), (1,)): -1, ((0, 0), (0,)): -F(3, 4)}
    assert got[1] == {}


def test_b_reconstruct_rejects_a_non_polynomial_grid(monkeypatch):
    # one grid value shifted by 1: the ten measurements of b^(2) are no
    # longer a polynomial of its four monomials
    grid = measure.reconstruction_grid(CTX3)
    monkeypatch.setattr(measure, "reconstruction_grid", lambda ctx: grid)
    first, exact = grid[0][0], measure.b_eval

    def shifted(op, ell):
        return exact(op, ell) + (1 if op is first else 0)

    monkeypatch.setattr(measure, "b_eval", shifted)
    with pytest.raises(IdentityViolationError, match="not a polynomial"):
        b_reconstruct(2, CTX3)


def test_b_reconstruct_rejects_a_grid_that_is_too_small(monkeypatch):
    # two grid points cannot fix the four coefficients of b^(2)
    grid = measure.reconstruction_grid(CTX3)[:2]
    monkeypatch.setattr(measure, "reconstruction_grid", lambda ctx: grid)
    with pytest.raises(ResourceLimitError, match="determines only 2 of 4 coefficients"):
        b_reconstruct(2, CTX3)


def test_reconstruction_grid_builds_each_model_once(monkeypatch):
    # the grid of n = 3 holds 6 big and 3 subgroup labels; each b_reconstruct
    # call builds each of them once
    built = []

    def counted(ctx, mu, eps=None, which="big", **kw):
        built.append((tuple(mu), which))
        return construct_irrep(ctx, mu, eps=eps, which=which, **kw)

    monkeypatch.setattr(matrixrep, "construct_irrep", counted)
    for ell in (1, 2, 3):
        b_reconstruct(ell, CTX3)
    assert len(built) == 27
    assert len(set(built)) == 9


def test_power_check_refuses_a_subgroup_side_bundle(tmp_path, capsys):
    # the O(4) (1,1) model on coordinates 1..4 that verify-scalar writes for
    # the pair O(5) > O(4): the power check indexes tuple slots by ambient
    # index, so it refuses the model (exit 2, where it raised IndexError);
    # without the power check the bundle passes its two checks
    path = str(tmp_path / "sub.json")
    assert main(["verify-scalar", "--n", "4", "--big", "2,1", "--sub", "1,1", "--i", "1",
                 "--eps", "+", "--emit-sub", path]) == 0
    with open(path, encoding="utf-8") as fh:
        sub = rep_from_bundle(json.load(fh))
    with pytest.raises(ValueError, match=r"coordinates 0..n, not \(1, 2, 3, 4\)"):
        verify_power_identity(sub, 2)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify-ue", "--n", "3", "--max-degree", "3", "--bundle", path])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "coordinates 0..n" in err
    assert main(["verify-ue", "--n", "3", "--max-degree", "1", "--bundle", path]) == 0
    assert json.loads(capsys.readouterr().out)["bundle_checks"] == 2


def _zero_operator(op):
    """A copy of op whose matrix is zero, which the equivariance check passes."""
    return SymmetryBreakingOperator(op.big, op.sub, [{} for _ in op.matrix], op.hw)


def _imaginary_chain(hw_chain):
    """hw_chain with every vector it returns multiplied by i."""

    def chain(op, K, what):
        return [{j: Gi(0, 1) * x for j, x in v.items()} for v in hw_chain(op, K, what)]

    return chain


def _chain_off_the_line(hw_chain):
    """hw_chain with 1 added to its last vector at the first big basis vector
    whose image under T has a part outside T w."""

    def chain(op, K, what):
        out = hw_chain(op, K, what)
        Tw = apply_cols(op.matrix, op.hw)
        k = next(j for j, col in enumerate(op.matrix) if set(col) - set(Tw))
        return out[:-1] + [{**out[-1], k: out[-1].get(k, 0) + 1}]

    return chain


# a planted fault for each check of _ratio_against and each "not real"
# check, with the messages of measure_scalar and of b_eval
RATIO_FAILURES = {
    "zero": ("projector: T w = 0 on the hw vector (operator may be zero)",
             "power: T w = 0 on the hw vector (operator may be zero)"),
    "imaginary": ("measured scalar is not real", "power scalar is not real"),
    "off-line": ("projector composition is not proportional to the operator",
                 "power composition is not proportional to the operator"),
}


@pytest.mark.parametrize("how", sorted(RATIO_FAILURES))
def test_the_ratio_checks_can_fail(reps, monkeypatch, run_optimized, how):
    # the zero operator passes the equivariance check and leaves T w = 0; a
    # chain times i gives a ratio that is not real; a chain that leaves the
    # hw line past _hw_chain's own check gives a composition that is not
    # proportional to T
    op = only_op(reps.get(3, (2, 1)), reps.get(3, (1,), None, which="sub"))
    if how == "zero":
        op = _zero_operator(op)
    else:
        plant = _imaginary_chain if how == "imaginary" else _chain_off_the_line
        monkeypatch.setattr(measure, "_hw_chain", plant(measure._hw_chain))
    projector, power = RATIO_FAILURES[how]
    with pytest.raises(IdentityViolationError) as exc:
        measure_scalar(op, 1, 1)
    assert str(exc.value) == projector
    with pytest.raises(IdentityViolationError) as exc:
        b_eval(op, 2)
    assert str(exc.value) == power
    code = ("import sys\n"
            "from orthobranch import measure\n"
            "from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep\n"
            "from orthobranch.homspace import SymmetryBreakingOperator, hom_space\n"
            "from orthobranch.linalg import Gi, apply_cols\n"
            "from orthobranch.measure import IdentityViolationError, b_eval, measure_scalar\n"
            + inspect.getsource(_zero_operator) + inspect.getsource(_imaginary_chain)
            + inspect.getsource(_chain_off_the_line) +
            "big = construct_irrep(rank_context(3), (2, 1))\n"
            "sub = construct_irrep(rank_context(3), (1,), which='sub')\n"
            "op = hom_space(big, sub)[1][0]\n"
            "if sys.argv[1] == 'zero':\n"
            "    op = _zero_operator(op)\n"
            "elif sys.argv[1] == 'imaginary':\n"
            "    measure._hw_chain = _imaginary_chain(measure._hw_chain)\n"
            "else:\n"
            "    measure._hw_chain = _chain_off_the_line(measure._hw_chain)\n"
            "for run in (lambda: measure_scalar(op, 1, 1), lambda: b_eval(op, 2)):\n"
            "    try:\n"
            "        run()\n"
            "    except IdentityViolationError as exc:\n"
            "        print(exc)\n")
    assert run_optimized(code, how).splitlines() == [projector, power]
