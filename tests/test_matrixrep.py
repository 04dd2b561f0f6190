import hashlib
import inspect
import json
from fractions import Fraction

import pytest

from orthobranch.branching import fd_label, inf_char_of
from orthobranch.characters import o_irrep_dim
from orthobranch.cli import main
from orthobranch.enveloping import UEElement, build_A, build_B, casimir, gen
from orthobranch import matrixrep
from orthobranch.linalg import Gi, TrackedEchelon, exact
from orthobranch.polyarith import p_add_into
from orthobranch.matrixrep import (
    _verify_rep,
    act,
    bundle_to_json,
    casimir_scalar,
    construct_irrep,
    det_twisted,
    expected_casimir_scalar,
    Frame,
    get_frame,
    qi_from_string,
    qi_to_string,
    rep_from_bundle,
    rep_to_bundle,
    scaled_generators,
    standard_rep,
    verify_reflection,
)
from orthobranch.weights import InvalidRankError, ResourceLimitError, rank_context

from dense_reference import (
    dense,
    fischer_gram,
    pair_action,
    parts,
    plain_act,
    polynomial_columns,
    qi_matmul,
    solved_root_vectors,
    x_casimir_scalar,
)

CTX2 = rank_context(2)
CTX3 = rank_context(3)
CTX4 = rank_context(4)

F = Fraction


def mat_eq(a, b):
    return a == b


def scaled_identity(c, dim):
    return [[F(c) if i == j else 0 for j in range(dim)] for i in range(dim)]


def test_standard_rep_basics():
    rep = standard_rep(CTX4)
    assert rep.dim == 5
    assert dense(act(casimir(4, "full"), rep), 5) == scaled_identity(4, 5)
    assert dense(act(UEElement({(): F(2)}), rep), 5) == scaled_identity(2, 5)   # the empty word
    # antisymmetric generator images
    m = dense(rep.action(0, 3), 5)
    for i in range(5):
        for j in range(5):
            re, im = parts(m[i][j])
            rre, rim = parts(m[j][i])
            assert re == -rre and im == -rim == 0
    # the distinguished basis vector is killed by every subgroup generator
    pos = rep.indices.index(0)
    for a in range(1, 5):
        for b in range(a + 1, 5):
            col = rep.action(a, b)
            for j, c in enumerate(col):
                assert c.get(pos, 0) == 0 or j != pos
            assert col[pos] == {}


def test_act_is_a_homomorphism():
    rep = standard_rep(CTX3)
    x, y = gen(0, 1), gen(1, 2)
    lhs = dense(act(x * y, rep), rep.dim)
    rhs = qi_matmul(dense(act(x, rep), rep.dim), dense(act(y, rep), rep.dim))
    assert mat_eq(lhs, rhs)
    assert dense(act(gen(1, 0), rep), rep.dim) == [[-x for x in row]
                                                   for row in dense(act(gen(0, 1), rep), rep.dim)]


def test_act_ladder_identity_on_standard_rep():
    for n in (3, 4):
        rep = standard_rep(rank_context(n))
        lhs = dense(act(build_A(2, n), rep), rep.dim)
        rhs_full = dense(act(casimir(n, "full"), rep), rep.dim)
        rhs_sub = dense(act(casimir(n, "sub"), rep), rep.dim)
        want = [[a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(rhs_full, rhs_sub)]
        assert mat_eq(lhs, want)


def _loaded(rep):
    """rep written to a bundle and read back, as a file would be."""
    return rep_from_bundle(json.loads(json.dumps(rep_to_bundle(rep))))


def _shifted(element, lo):
    """element with every generator index raised by lo: the same element over
    the indices lo..lo+n of a subgroup frame."""
    return UEElement({tuple((a + lo, b + lo) for a, b in word): c
                      for word, c in element.terms.items()})


def _act_elements(rep):
    """A^(3) and each B_j^(3) (words of lengths 1 to 3), a constant and both
    Casimirs, over rep's own indices."""
    n, lo = len(rep.indices) - 1, rep.indices[0]
    elements = [build_A(3, n), *build_B(3, n), casimir(n, "full"), casimir(n, "sub")]
    return [_shifted(e, lo) for e in elements] + [UEElement({(): F(7, 2)}), UEElement({(): F(2)})]


def _is_normalised(x):
    """Every part of x is an int where it is integral (what linalg.exact makes)."""
    return all(type(p) is int or (type(p) is F and p.denominator > 1) for p in parts(x))


def test_act_matches_the_plain_reference(reps):
    # constructed models (big and sub frames, induced or not), a det twin, the
    # defining and trivial representations and loaded bundles, among them the
    # dim-64 O(4) (5,2), whose common denominator is 239,719,573,094,400
    models = [reps.get(n, rows, eps, side) for n, rows, eps, side in POLYNOMIAL_ROUTE_LABELS]
    models += [det_twisted(reps.get(4, (2, 0), 1)), standard_rep(CTX3), standard_rep(CTX4),
               construct_irrep(CTX3, (0,))]
    models += [_loaded(reps.get(3, rows)) for rows in ((2, 1), (5, 2))]
    models.append(_loaded(reps.get(4, (2, 0), 1)))
    for rep in models:
        for element in _act_elements(rep):
            got = act(element, rep)
            assert got == plain_act(element, rep), (rep.label, element)
            assert all(_is_normalised(x) for col in got for x in col.values()), rep.label
    sub = reps.get(3, (2,), None, "sub")   # on 1..3: the ladder's X[0,j] are outside it
    for evaluate in (act, plain_act):
        with pytest.raises(InvalidRankError, match=r"generator \(0,\d\) outside"):
            evaluate(build_A(3, 3), sub)


def test_scaled_generator_columns_are_gaussian_integers(reps):
    # the O(4) (2,1) bundle with entry 0 of X[0,1] given parts over 101 and
    # 103, primes that divide no other entry's denominator: d takes both, and
    # that X[0,1] is the one generator with two nonzero parts
    bundle = rep_to_bundle(reps.get(3, (2, 1)))
    d21 = scaled_generators(rep_from_bundle(bundle), get_frame((0, 1, 2, 3)).generators)[0]
    assert d21 % 101 and d21 % 103
    bundle["matrices"]["0,1"][0] = "1/101+1/103i"
    for rep, want, mixed in [(_loaded(reps.get(3, (5, 2))), 239719573094400, set()),
                             (reps.get(6, (2, 1, 0)), None, set()),
                             (rep_from_bundle(bundle), d21 * 101 * 103, {(0, 1)})]:
        d, scaled = scaled_generators(rep, rep.frame.generators)
        assert want is None or d == want
        assert scaled.keys() == set(rep.frame.generators)
        for (a, b), (re, im) in scaled.items():
            # a part that is zero everywhere is the empty list, else a column
            # per basis vector, and one part is empty unless X[a,b] is mixed
            assert [len(part) for part in (re, im)].count(0) == (0 if (a, b) in mixed else 1)
            assert all(len(part) in (0, rep.dim) for part in (re, im))
            assert all(type(p) is int for part in (re, im) for col in part for p in col.values())
            assert all(p for part in (re, im) for col in part for p in col.values())
            re, im = (part or [{}] * rep.dim for part in (re, im))
            got = [{i: exact(Gi(F(r.get(i, 0), d), F(m.get(i, 0), d))) for i in {**r, **m}}
                   for r, m in zip(re, im)]
            assert got == rep.action(a, b)


def test_act_forms_each_generator_once_per_call(reps, monkeypatch):
    # act forms its letters in one scaled_generators call, over exactly the
    # generators its words read, and forms no X[a,b] through action; the
    # dim-35 O(5) (2,1) model and its loaded bundle both form them from
    # their Chevalley columns
    calls = []
    scaled, action = matrixrep.scaled_generators, matrixrep.MatrixRep.action
    monkeypatch.setattr(matrixrep, "scaled_generators",
                        lambda rep, pairs: calls.append(sorted(pairs)) or scaled(rep, pairs))
    monkeypatch.setattr(matrixrep.MatrixRep, "action",
                        lambda rep, a, b: calls.append(("action", a, b)) or action(rep, a, b))
    model = reps.get(4, (2, 1))
    for rep in (model, _loaded(model)):
        for element in (build_A(3, 4), casimir(4, "full"), *build_B(3, 4)):
            calls.clear()
            act(element, rep)
            letters = {g for word in element.terms for g in word}
            assert calls == [sorted(letters)], element


def test_construct_irrep_examples(reps):
    r3 = reps.get(2, (1,))
    assert r3.dim == 3
    assert casimir_scalar(r3) == 2
    triv = construct_irrep(CTX2, (0,))
    assert triv.dim == 1 and casimir_scalar(triv) == 0
    r5 = reps.get(4, (1, 0))
    assert r5.dim == 5
    assert r5.inf_char == (F(5, 2), F(1, 2))


def test_casimir_scalar_law(reps):
    for n, mu in [(3, (1, 1)), (4, (1, 1)), (4, (2, 0))]:
        rep = reps.get(n, mu)
        assert casimir_scalar(rep) == expected_casimir_scalar(rep)
        lab = fd_label(n + 1, mu, 1 if (n + 1) % 2 else None)
        lam = inf_char_of(lab)
        rho = inf_char_of(fd_label(n + 1, (0,) * len(mu), 1 if (n + 1) % 2 else None))
        assert expected_casimir_scalar(rep) == (
            sum(c * c for c in lam) - sum(c * c for c in rho))


def test_casimir_scalar_matches_the_x_form(reps):
    # the Chevalley-basis form against -sum X[a,b]^2 through the formed X[a,b]:
    # constructed models (big and sub frames, induced or not), a det twin,
    # the defining representation, both one-dimensional ones and loaded bundles
    models = [reps.get(n, rows, eps, side) for n, rows, eps, side in POLYNOMIAL_ROUTE_LABELS]
    models += [reps.get(6, (2, 1, 0)), det_twisted(reps.get(4, (2, 0), 1)),
               standard_rep(CTX3), standard_rep(CTX4), construct_irrep(CTX3, (0,)),
               construct_irrep(CTX4, (0,), -1)]
    models += [rep_from_bundle(json.loads(json.dumps(rep_to_bundle(rep)))) for rep in models[:3]]
    for rep in models:
        assert casimir_scalar(rep) == x_casimir_scalar(rep) == expected_casimir_scalar(rep), rep.label


def test_dims_match_character_oracle(reps):
    for n, mu, eps in [(3, (2, 1), None), (4, (1, 1), 1), (4, (2, 1), 1), (3, (2, 0), None)]:
        rep = reps.get(n, mu, eps)
        lab = fd_label(n + 1, mu, eps)
        assert rep.dim == o_irrep_dim(n + 1, lab.partition)


def test_reflection_conjugation(reps):
    # conjugating a generator by the reflection flips the sign exactly when
    # one index equals the reflection coordinate
    rep = reps.get(3, (1, 1))
    refl = dense(rep.reflection(), rep.dim)
    nmax = max(rep.indices)
    for (a, b) in [(0, 1), (0, nmax), (1, nmax), (1, 2)]:
        m = dense(act(gen(a, b), rep), rep.dim)
        conj = qi_matmul(qi_matmul(refl, m), refl)
        sign = -1 if (a == nmax) != (b == nmax) else 1
        want = [[sign * x for x in row] for row in m]
        assert mat_eq(conj, want)


def test_reflection_is_involutive(reps):
    rep = reps.get(3, (2, 0))
    refl = dense(rep.reflection(), rep.dim)
    assert qi_matmul(refl, refl) == scaled_identity(1, rep.dim)


def test_subgroup_irrep_lives_on_shifted_indices():
    rep = construct_irrep(CTX3, (1,), which="sub")
    assert rep.group_size == 3
    assert 0 not in rep.indices
    assert rep.dim == 3


def test_qi_string_round_trip():
    vals = [F(1, 2), Gi(F(-3), F(2, 5)), Gi(0, F(-1)), 0]
    for v in vals:
        assert qi_from_string(qi_to_string(v)) == v


def test_bundle_round_trip(reps):
    rep = reps.get(2, (1,))
    bundle = rep_to_bundle(rep)
    json.dumps(bundle)  # must be JSON-serializable as-is
    back = rep_from_bundle(bundle)
    assert back.dim == rep.dim
    assert back.inf_char == rep.inf_char
    for (a, b) in [(0, 1), (0, 2), (1, 2)]:
        assert back.action(a, b) == rep.action(a, b)
    assert casimir_scalar(back) == casimir_scalar(rep)


def test_bundle_keeps_the_reflection(reps):
    for n, mu, eps in [(2, (1,), None), (3, (1, 0), -1)]:
        rep = reps.get(n, mu, eps)
        back = rep_from_bundle(json.loads(json.dumps(rep_to_bundle(rep))))
        assert back.reflection() == rep.reflection()
        assert back.twist_sign == rep.twist_sign
        assert det_twisted(back).reflection() == det_twisted(rep).reflection()
        again, first = rep_to_bundle(back), rep_to_bundle(rep)
        assert all(again[k] == first[k] for k in ("dim", "generators", "matrices", "reflection"))


BUNDLE_DIGESTS = [  # sha256 of the written bundle file, (n, rows, eps, side)
    ((2, (1,), None, "big"), "5bc831c21d320657026e675b7d0ea403f88ebea6ce1d398ffb1099393ef4097c"),
    ((3, (2, 1), None, "big"), "0a7594056375eb9b6768dd663190d13836babcd5cb61b03f5e921b7c4ebfd800"),
    ((3, (1, 0), -1, "big"), "3f134eb47350158c8d7dfc8b3d7b4326ef8192615f95099096b51f61fd572153"),
    ((4, (2, 0), 1, "big"), "5785d61fa8b6bb8b8b32a202937bf8779453de98f095f88eedb854abe9bcf0cb"),
    ((5, (1, 1, 0), 1, "big"), "3c066a06ced0dd9e5964f2fae2649831e39f414ff14b7eb7063cd32a621cebb3"),
    ((3, (2,), None, "sub"), "896480b1f6d19eb84c49f56c6580e5a8e2dd9564fecafdcd85f595bdff667b5e"),
]


@pytest.mark.parametrize("case, digest", BUNDLE_DIGESTS)
def test_bundle_bytes_are_pinned(case, digest):
    n, rows, eps, side = case
    rep = construct_irrep(rank_context(n), rows, eps=eps, which=side)
    text = bundle_to_json(rep_to_bundle(rep)) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_bundle_entries_other_than_the_zero_string_are_parsed(reps):
    rep = reps.get(2, (1,))
    bundle = rep_to_bundle(rep)
    k = bundle["matrices"]["0,1"].index("0/1")
    bundle["matrices"]["0,1"][k] = "zero"
    with pytest.raises(ValueError):
        rep_from_bundle(bundle)
    bundle["matrices"]["0,1"][k] = " 0/1"   # zero written another way: parsed, then dropped
    assert rep_from_bundle(bundle).action(0, 1) == rep.action(0, 1)


def test_bundle_entry_that_is_not_a_string_is_malformed(reps, tmp_path, run_optimized):
    # the O(4) (1,0) bundle with entry 0 of "0,1" a number: a usage error
    # (exit 2), not a refuted identity, also under python -O
    bundle = rep_to_bundle(reps.get(3, (1, 0)))
    bundle["matrices"]["0,1"][0] = 5
    with pytest.raises(ValueError, match="not an exact string: 5"):
        rep_from_bundle(bundle)
    path = tmp_path / "number.json"
    path.write_text(json.dumps(bundle))
    argv = ["verify-ue", "--n", "3", "--max-degree", "2", "--bundle", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    code = ("import sys\n"
            "from orthobranch.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n")
    assert run_optimized(code, *argv).split() == ["2"]


def test_bundle_without_reflection_has_none(reps, tmp_path, run_optimized):
    # every bundle the writer makes has a reflection: one without is a
    # malformed file, a usage error (exit 2) also under python -O
    bundle = rep_to_bundle(reps.get(2, (1,)))
    del bundle["reflection"]
    with pytest.raises(KeyError, match="reflection"):
        rep_from_bundle(bundle)
    path = tmp_path / "no_reflection.json"
    path.write_text(json.dumps(bundle))
    argv = ["verify-ue", "--n", "2", "--max-degree", "2", "--bundle", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    code = ("import sys\n"
            "from orthobranch.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n")
    assert run_optimized(code, *argv).split() == ["2"]


ONE_INDEX_BUNDLE = {  # what an O(1) model would be written as, metadata matching rows [0]
    "dim": 1, "generators": [], "matrices": {}, "reflection": ["1/1"],
    "metadata": {"rows": [0], "eps": 1, "indices": [0], "kind": "model", "group_tag": "O_odd",
                 "highest_weight": ["0"], "inf_char": ["1/2"], "twist_sign": 1}}
MALFORMED = {  # edits of a written bundle b
    "top-level-array": lambda b: [b],
    "metadata-array": lambda b: {**b, "metadata": [b["metadata"]]},
    "reflection-number": lambda b: {**b, "reflection": 5},
    "indices-null": lambda b: {**b, "metadata": {**b["metadata"], "indices": None}},
    "dim-null": lambda b: {**b, "dim": None},
    "matrix-null": lambda b: {**b, "matrices": {**b["matrices"], "0,1": None}},
    "zero-denominator": lambda b: {**b, "matrices": {
        **b["matrices"], "0,1": ["1/0", *b["matrices"]["0,1"][1:]]}},
    "zero-denominators-complex": lambda b: {**b, "matrices": {
        **b["matrices"], "0,1": ["0/0+1/0i", *b["matrices"]["0,1"][1:]]}},
    "one-index": lambda b: ONE_INDEX_BUNDLE,
}


@pytest.mark.parametrize("how", MALFORMED)
def test_malformed_bundle_is_a_usage_error(reps, tmp_path, capsys, run_optimized, how):
    # a field of the wrong JSON shape, an entry with a zero denominator, or a
    # frame of one index (which once loaded as an O(3) label and failed
    # bundle-casimir): exit 2 with empty stdout and no traceback, also under -O
    bundle = MALFORMED[how](rep_to_bundle(reps.get(3, (1, 0))))
    with pytest.raises(ValueError):
        rep_from_bundle(bundle)
    path = tmp_path / f"{how}.json"
    path.write_text(json.dumps(bundle))
    argv = ["verify-ue", "--n", "3", "--max-degree", "3", "--bundle", str(path)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "Traceback" not in err, err
    code = ("import contextlib, io, sys\n"
            "from orthobranch.cli import main\n"
            "err = io.StringIO()\n"
            "try:\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, 'Traceback' in err.getvalue())\n")
    assert run_optimized(code, *argv).split() == ["2", "False"]


def _reflection_edited(reps, how):
    """The O(4) (2,1) bundle (dim 16) with its reflection replaced by the
    identity ("identity") or with column how negated (an int)."""
    bundle = rep_to_bundle(reps.get(3, (2, 1)))
    dim = bundle["dim"]
    if how == "identity":
        bundle["reflection"] = [qi_to_string(int(i == j)) for i in range(dim) for j in range(dim)]
    else:
        bundle["reflection"] = [qi_to_string(-qi_from_string(x)) if k % dim == how else x
                                for k, x in enumerate(bundle["reflection"])]
    return bundle


def test_reflection_check_holds_on_models(reps):
    # both twists of O(5) models, induced O(4) models, a subgroup model, the
    # defining and the one-dimensional representations, and their bundles
    models = [reps.get(n, rows, eps, which=side) for n, rows, eps, side in (
        (3, (2, 1), None, "big"), (3, (5, 2), None, "big"), (4, (2, 1), 1, "big"),
        (4, (2, 1), -1, "big"), (4, (1, 1), -1, "big"), (4, (2, 1), None, "sub"))]
    models += [standard_rep(CTX4), construct_irrep(CTX3, (0,), -1),
               construct_irrep(CTX3, (0,), 1, "sub")]
    for rep in models:
        verify_reflection(rep)
        verify_reflection(rep_from_bundle(rep_to_bundle(rep)))


def test_every_negated_reflection_column_is_caught(reps):
    for k in range(16):
        with pytest.raises(AssertionError, match="reflection does not square to the identity"):
            verify_reflection(rep_from_bundle(_reflection_edited(reps, k)))


# (edit of the O(4) (2,1) reflection, the first relation that fails)
REFLECTION_EDITS = [("identity", "reflection does not conjugate X[0,3] to -X[0,3]"),
                    (5, "reflection does not square to the identity")]


def _assert_reflection_caught(bundle, n, message, path, capsys, run_optimized):
    """verify_reflection on the bundle raises message, and verify-ue --n n
    --bundle reports it as exit 1, in-process and under python -O."""
    with pytest.raises(AssertionError) as exc:
        verify_reflection(rep_from_bundle(bundle))
    assert str(exc.value) == message
    path.write_text(json.dumps(bundle))
    argv = ["verify-ue", "--n", str(n), "--max-degree", "3", "--bundle", str(path)]
    capsys.readouterr()
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {"check": "bundle-reflection", "params": {"bundle": str(path)},
                      "error": message}
    code = ("import contextlib, io, json, sys\n"
            "from orthobranch.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, json.loads(out.getvalue()))\n")
    assert run_optimized(code, *argv).strip() == f"1 {report}"


@pytest.mark.parametrize("how, message", REFLECTION_EDITS)
def test_reflection_check_can_fail(reps, tmp_path, capsys, run_optimized, how, message):
    # the identity is an involution, so only the conjugation sign of X[a,3] catches it
    _assert_reflection_caught(_reflection_edited(reps, how), 3, message,
                              tmp_path / f"{how}.json", capsys, run_optimized)


def test_reflection_of_the_other_twist_is_caught(reps, tmp_path, capsys, run_optimized):
    # -R keeps R^2 = 1 and every conjugation sign: it is the reflection of the
    # det-twist, so only the trace tells the O(5) (1,1) eps = +1 bundle apart
    bundle = rep_to_bundle(reps.get(4, (1, 1), 1))
    bundle["reflection"] = [qi_to_string(-qi_from_string(x)) for x in bundle["reflection"]]
    _assert_reflection_caught(
        bundle, 4, "reflection has trace -2, but the character of (1, 1) at a reflection is 2",
        tmp_path / "negated.json", capsys, run_optimized)


def test_bundle_check_count_per_max_degree(reps, tmp_path, capsys, run_optimized):
    # Casimir and reflection, plus the power identity for N = 2 .. max-degree
    # (at most 3); N = 1 is not run, since it cannot fail
    path = tmp_path / "o4.json"
    path.write_text(json.dumps(rep_to_bundle(reps.get(3, (2, 1)))))
    argvs = [["verify-ue", "--n", "3", "--max-degree", str(d), "--bundle", str(path)]
             for d in (1, 2, 3)]
    counts = []
    for argv in argvs:
        capsys.readouterr()
        assert main(argv) == 0
        counts.append(json.loads(capsys.readouterr().out)["bundle_checks"])
    assert counts == [2, 3, 4]
    code = ("import contextlib, io, json, sys\n"
            "from orthobranch.cli import main\n"
            "for d in ('1', '2', '3'):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        main(['verify-ue', '--n', '3', '--max-degree', d, '--bundle', sys.argv[1]])\n"
            "    print(json.loads(out.getvalue())['bundle_checks'])\n")
    assert run_optimized(code, str(path)).split() == ["2", "3", "4"]


# a field the label determines, edited away from what the rows give
METADATA_EDITS = [("inf_char", ["3", "0"]), ("twist_sign", -1), ("group_tag", "O_odd"),
                  ("highest_weight", ["2", "0"]), ("inf_char", None), ("rows", None)]


def _edited_bundle(reps, key, value):
    bundle = rep_to_bundle(reps.get(3, (1, 0)))  # O(4) (1,0): inf_char (2, 0)
    bundle["metadata"][key] = value
    return bundle


@pytest.mark.parametrize("key, value", METADATA_EDITS)
def test_bundle_metadata_must_match_its_rows(reps, tmp_path, capsys, key, value):
    with pytest.raises(ValueError):
        rep_from_bundle(_edited_bundle(reps, key, value))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(_edited_bundle(reps, key, value)))
    with pytest.raises(SystemExit) as exc:
        main(["verify-ue", "--n", "3", "--max-degree", "2", "--bundle", str(path)])
    assert exc.value.code == 2


def _rekeyed_bundle(reps, how):
    """The O(4) (1,0) bundle with an extra matrix "0,9", or with its "2,3"
    matrix keyed "3,2"."""
    bundle = rep_to_bundle(reps.get(3, (1, 0)))
    matrices = bundle["matrices"]
    if how == "extra":
        matrices["0,9"] = matrices["0,1"]
    else:
        matrices["3,2"] = matrices.pop("2,3")
    return bundle


@pytest.mark.parametrize("how, extra, missing", [("extra", "'0,9'", ""),
                                                 ("swapped", "'3,2'", "'2,3'")])
def test_bundle_matrix_keys_must_be_the_generators(reps, tmp_path, capsys, run_optimized,
                                                   how, extra, missing):
    # a malformed file: exit 2 with one error line after argparse's usage, where
    # the swapped key used to be reported as a refuted Casimir identity
    message = (f"bundle matrix keys must be the generators a,b of indices [0, 1, 2, 3]: "
               f"unexpected [{extra}], missing [{missing}]")
    with pytest.raises(ValueError) as exc:
        rep_from_bundle(_rekeyed_bundle(reps, how))
    assert str(exc.value) == message
    path = tmp_path / f"{how}.json"
    path.write_text(json.dumps(_rekeyed_bundle(reps, how)))
    argv = ["verify-ue", "--n", "3", "--max-degree", "2", "--bundle", str(path)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"orthobranch: error: {message}"]
    code = ("import sys\n"
            "from orthobranch.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n")
    assert run_optimized(code, *argv).split() == ["2"]


def _doubled_bundle(reps):
    """The O(4) (1,0) bundle with every matrix replaced by the block-diagonal
    sum of two copies: a representation of dimension 8 that satisfies every
    relation, under rows whose irreducible has dimension 4."""
    bundle = rep_to_bundle(reps.get(3, (1, 0)))
    dim = bundle["dim"]

    def doubled(flat):
        return [flat[(i % dim) * dim + j % dim] if i // dim == j // dim else "0/1"
                for i in range(2 * dim) for j in range(2 * dim)]

    bundle["matrices"] = {key: doubled(flat) for key, flat in bundle["matrices"].items()}
    bundle["reflection"] = doubled(bundle["reflection"])
    bundle["dim"] = 2 * dim
    return bundle


def test_bundle_dim_must_match_its_rows(reps, tmp_path, run_optimized):
    with pytest.raises(ValueError, match="bundle dim 8 does not match rows"):
        rep_from_bundle(_doubled_bundle(reps))
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(_doubled_bundle(reps)))
    with pytest.raises(SystemExit) as exc:
        main(["verify-ue", "--n", "3", "--max-degree", "2", "--bundle", str(path)])
    assert exc.value.code == 2
    code = ("import sys\n"
            "from orthobranch.cli import main\n"
            "try:\n"
            "    main(['verify-ue', '--n', '3', '--max-degree', '2', '--bundle', sys.argv[1]])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n")
    assert run_optimized(code, str(path)).split() == ["2"]


def test_bundle_metadata_is_compared_as_values(reps):
    back = rep_from_bundle(_edited_bundle(reps, "inf_char", ["4/2", "0/7"]))
    assert back.inf_char == (2, 0) and back.label == reps.get(3, (1, 0)).label


def test_bundle_metadata_check_survives_optimize(reps, tmp_path, run_optimized):
    paths = []
    for k, (key, value) in enumerate(METADATA_EDITS):
        paths.append(str(tmp_path / f"edited{k}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(_edited_bundle(reps, key, value), fh)
    code = ("import sys\n"
            "from orthobranch.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    try:\n"
            "        main(['verify-ue', '--n', '3', '--max-degree', '2', '--bundle', path])\n"
            "    except SystemExit as exc:\n"
            "        print(exc.code)\n")
    assert run_optimized(code, *paths).split() == ["2"] * len(METADATA_EDITS)


def test_casimir_check_survives_optimize(reps, tmp_path, run_optimized):
    # every generator times 1+i: the quadratic invariant becomes 2i times a
    # real scalar, which casimir_scalar must reject also under python -O
    bundle = rep_to_bundle(reps.get(3, (1, 0)))
    bundle["matrices"] = {
        key: [qi_to_string(qi_from_string(x) * Gi(1, 1)) for x in flat]
        for key, flat in bundle["matrices"].items()
    }
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(bundle))
    code = ("import json, sys\n"
            "from orthobranch.matrixrep import casimir_scalar, rep_from_bundle\n"
            "rep = rep_from_bundle(json.load(open(sys.argv[1])))\n"
            "try:\n"
            "    print(casimir_scalar(rep))\n"
            "except AssertionError:\n"
            "    print('raised')\n")
    assert run_optimized(code, str(path)).strip() == "raised"


def test_det_twisted_properties(reps):
    base = reps.get(4, (2, 0), 1)
    tw = det_twisted(base)
    assert tw.dim == base.dim
    assert tw.twist_sign == -base.twist_sign
    assert tw.label.eps == -1
    assert tw.action(0, 1) == base.action(0, 1)   # same connected action
    # reflections differ by the overall sign
    r0, r1 = dense(base.reflection(), base.dim), dense(tw.reflection(), tw.dim)
    assert r1 == [[-x for x in row] for row in r0]
    # even-size groups with full rows: the twist is isomorphic, same object
    full = reps.get(3, (1, 1))
    assert det_twisted(full) is full


def test_dim_cap():
    with pytest.raises(ResourceLimitError):
        construct_irrep(CTX4, (3, 0), dim_cap=10)


# (n, rows, eps, side): induced and not, det twists, sub frames (O(3) on 1..3,
# O(2) on 1..2, O(4) on 1..4), the O(3) frame 0..2 and the trivial rep
POLYNOMIAL_ROUTE_LABELS = [
    (3, (2, 1), None, "big"), (3, (2, 0), 1, "big"), (3, (2, 0), -1, "big"),
    (4, (2, 1), 1, "big"), (4, (1, 0), -1, "big"), (3, (2,), None, "sub"),
    (2, (1,), None, "sub"), (4, (1, 1), None, "sub"), (2, (2,), -1, "big"),
    (3, (0, 0), -1, "big"),
]


@pytest.mark.parametrize("n, rows, eps, side", POLYNOMIAL_ROUTE_LABELS)
def test_generator_matrices_match_the_polynomial_route(reps, n, rows, eps, side):
    rep = reps.get(n, rows, eps, side)
    gens, refl = polynomial_columns(rep)
    for (a, b), cols in gens.items():
        assert rep.action(a, b) == cols, (a, b)
    assert rep.reflection() == refl


# (n, rows, eps): induced O(4) labels, whose recipes hold reflection steps,
# and non-induced labels of O(5), O(6) and O(7) (dims 16 to 105)
GRAM_LABELS = [(3, (2, 1), None), (3, (2, 2), None), (3, (5, 2), None), (4, (2, 1), 1),
               (5, (2, 2, 0), 1), (6, (2, 1, 0), 1), (6, (2, 1, 0), -1)]


@pytest.mark.parametrize("n, rows, eps", GRAM_LABELS)
def test_derived_gram_matches_the_fischer_reference(reps, n, rows, eps):
    rep = reps.get(n, rows, eps)
    assert rep.model.gram == fischer_gram(rep)


def _reachable(obj):
    """obj and everything reachable from it through attributes, dict keys and
    values, lists and tuples."""
    stack, seen = [obj], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            stack += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple)):
            stack += x
        elif hasattr(x, "__dict__"):
            stack += vars(x).values()


def test_a_built_model_holds_no_polynomial(reps):
    models = [construct_irrep(CTX3, (2, 1)), det_twisted(construct_irrep(CTX4, (2, 0), 1)),
              construct_irrep(CTX3, (0, 0), -1), construct_irrep(CTX4, (0,))]
    for rep in models:
        assert set(vars(rep.model)) == {"tags", "recipes", "gram"}, rep.label
        nvars = rep.frame.nvars
        for x in _reachable(rep):
            assert not isinstance(x, TrackedEchelon), rep.label
            # a polynomial is a dict keyed by exponent tuples over the variables
            assert not (isinstance(x, dict) and any(
                isinstance(k, tuple) and len(k) == nvars for k in x)), rep.label


def _gram_with_one_lowering_entry_doubled():
    """The Gram derivation of O(4) (2,1) from a fresh closure, with the first
    nonzero entry of the first lowering root vector's columns doubled."""
    frame = get_frame((0, 1, 2, 3))
    model, vectors, lower, refl = matrixrep._close_model(frame, fd_label(4, (2, 1), None), 16)
    col = next(c for c in lower[0] if c)
    k = next(iter(col))
    col[k] = col[k] * 2
    return matrixrep._invariant_gram(frame, model, vectors, lower, refl)


GRAM_FAILURE = "invariant pairing is not symmetric: B[0][10] = 2304, B[10][0] = 4608"


def test_gram_symmetry_check_can_fail(run_optimized):
    with pytest.raises(AssertionError) as exc:
        _gram_with_one_lowering_entry_doubled()
    assert str(exc.value) == GRAM_FAILURE
    code = ("from orthobranch import matrixrep\n"
            "from orthobranch.branching import fd_label\n"
            "from orthobranch.matrixrep import get_frame\n"
            + inspect.getsource(_gram_with_one_lowering_entry_doubled) +
            "try:\n"
            "    _gram_with_one_lowering_entry_doubled()\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    assert run_optimized(code) == GRAM_FAILURE + "\n"


def test_closed_form_roots_match_the_solver():
    # frames (0..L-1) and (1..L) for L = 2..9: with and without a spare, and
    # with the spare at 0 or 1
    count = 0
    for size in range(2, 10):
        for indices in (tuple(range(size)), tuple(range(1, size + 1))):
            frame = Frame(indices)
            solved = solved_root_vectors(frame)
            assert list(frame.roots.items()) == list(solved.items()), indices
            assert frame.root_tables.keys() == solved.keys()
            for root, combo in solved.items():
                want = {}
                for (a, b), c in combo.items():
                    for v, image in pair_action(frame, a, b).items():
                        p_add_into(want.setdefault(v, {}), image, c)
                assert frame.root_tables[root] == {v: x for v, x in want.items() if x}, (
                    indices, root)
                count += 1
    assert count == 200


def _flip_one_lowering_entry(setitem):
    """Negate the first entry of the first lowering root's table on the frame
    0..3, through setitem(table, variable, images)."""
    frame = get_frame((0, 1, 2, 3))
    table = frame.root_tables[frame.lowering_ops()[0][0]]
    v = next(iter(table))
    setitem(table, v, {v2: -c for v2, c in table[v].items()})


def test_closed_form_table_corruption_is_caught(monkeypatch, run_optimized):
    _flip_one_lowering_entry(monkeypatch.setitem)   # undone after the test
    with pytest.raises(AssertionError, match="character theory says 16"):
        construct_irrep(CTX3, (2, 1))
    code = ("from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep, get_frame\n"
            + inspect.getsource(_flip_one_lowering_entry) +
            "_flip_one_lowering_entry(dict.__setitem__)\n"
            "try:\n"
            "    construct_irrep(rank_context(3), (2, 1))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    out = run_optimized(code)
    assert "character theory says 16" in out, out


def _corrupt_where_the_square_is_unchanged(rep):
    """Set entry (r, 0) of the stored column of the last Cartan element h_k
    to 1, where basis vectors 0 and r both have a zero last weight entry: h_k
    is diagonal with that entry, so its row 0 and column r are zero and the
    changed matrix has the same square.  The Casimir check, whose only Cartan
    terms are the h_k^2, cannot see this; only a bracket relation can."""
    k = rep.frame.rank
    tags = rep.model.tags
    assert tags[0][k - 1] == 0
    r = next(j for j, t in enumerate(tags) if j and t[k - 1] == 0)
    rep._chev[k][0][r] = 1


BRACKET_FAILURE = ("bracket fidelity failed for [E(1, 1),E(-1, -1)] on "
                   "FDLabel(group_tag='O_even', mu=(2, 0), eps=1)")


def test_bracket_check_can_fail(run_optimized):
    rep = construct_irrep(CTX3, (2, 0), eps=1)   # a fresh model: it is changed below
    _corrupt_where_the_square_is_unchanged(rep)
    assert casimir_scalar(rep) == expected_casimir_scalar(rep)
    with pytest.raises(AssertionError) as exc:
        _verify_rep(rep)
    assert str(exc.value) == BRACKET_FAILURE
    code = ("from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import _verify_rep, construct_irrep\n"
            + inspect.getsource(_corrupt_where_the_square_is_unchanged) +
            "rep = construct_irrep(rank_context(3), (2, 0), eps=1)\n"
            "_corrupt_where_the_square_is_unchanged(rep)\n"
            "try:\n"
            "    _verify_rep(rep)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    assert run_optimized(code).strip() == BRACKET_FAILURE


def test_recursion_corruption_is_caught_cartan(monkeypatch):
    # one Cartan eigenvalue: the weight tag of one basis vector, which the
    # recursion reads as the diagonal of h_k
    close = matrixrep._close_model

    def shifted_tag(frame, label, dim_cap):
        model, *rest = close(frame, label, dim_cap)
        model.tags[1] = (model.tags[1][0] + 1,) + model.tags[1][1:]
        return (model, *rest)

    monkeypatch.setattr(matrixrep, "_close_model", shifted_tag)
    with pytest.raises(AssertionError, match="quadratic invariant|bracket fidelity"):
        construct_irrep(CTX3, (2, 1))


@pytest.mark.parametrize("n, rows, eps", [(3, (2, 1), None), (4, (2, 1), 1)])
def test_recursion_corruption_is_caught_bracket(monkeypatch, n, rows, eps):
    # one [E, F] structure constant: the frame's stored bracket of the first
    # raising and the first lowering root vector, doubled in one coefficient;
    # the recursion and the bracket check both read it
    frame = get_frame(tuple(range(n + 1)))
    keys = list(frame.basis)
    i, j = sorted((keys.index(frame.raising_ops()[0][0]), keys.index(frame.lowering_ops()[0][0])))
    structure = [list(row) for row in frame.structure]
    (z, c), *rest = structure[i][j - i - 1]
    structure[i][j - i - 1] = ((z, 2 * c), *rest)
    monkeypatch.setattr(frame, "structure", structure)
    with pytest.raises(AssertionError, match="quadratic invariant|bracket fidelity"):
        construct_irrep(rank_context(n), rows, eps=eps)


def _closure_plant(how, setattr):
    """Plant a fault that one check of the construction must catch on O(5),
    through setattr(obj, name, value); returns the rows to construct.
    "weight": the (2,1) seed times zeta1+(z); "homogeneous": the (2,1) seed
    plus the monomial zeta1+(z), of another weight; "raising": the (2,1)
    seed's first monomial zeta1+(z)^2 zeta2+(w) alone, of weight (2,1) but
    moved by E(e1 - e2); "echelon": an echelon that numbers each new vector
    one too high; "casimir" and "real": the (2,1) Chevalley columns times 2
    and times 1 + i, so the Casimir scalar comes out 4 and 2i times the
    expected one; "reflection": a reflection swapping the z and w variables,
    on (1,0)."""
    from orthobranch import matrixrep
    frame, seed = matrixrep.get_frame((0, 1, 2, 3, 4)), matrixrep._binom_seed
    z1 = frame.var_index[(0, "+", 1)]
    if how == "weight":
        setattr(matrixrep, "_binom_seed", lambda fr, mu: {
            tuple(e + (v == z1) for v, e in enumerate(m)): c for m, c in seed(fr, mu).items()})
    elif how == "homogeneous":
        setattr(matrixrep, "_binom_seed", lambda fr, mu: {
            **seed(fr, mu), tuple(int(v == z1) for v in range(fr.nvars)): 1})
    elif how == "raising":
        setattr(matrixrep, "_binom_seed", lambda fr, mu: dict([next(iter(seed(fr, mu).items()))]))
    elif how == "echelon":
        echelon = matrixrep.TrackedEchelon

        class Shifted(echelon):
            def insert(self, vec):
                idx, coords = echelon.insert(self, vec)
                return (None if idx is None else idx + 1), coords

        setattr(matrixrep, "TrackedEchelon", Shifted)
    elif how in ("casimir", "real"):
        gen, factor = matrixrep._generator_matrices, 2 if how == "casimir" else matrixrep.Gi(1, 1)
        setattr(matrixrep, "_generator_matrices", lambda *args: {
            key: [{i: factor * x for i, x in col.items()} for col in cols]
            for key, cols in gen(*args).items()})
    else:
        setattr(frame, "reflection_perm",
                tuple(frame.var_index[(1 - s, kind, k)] for s, kind, k in frame.var_specs))
        return (1, 0)
    return (2, 1)


CLOSURE_FAILURES = {
    "weight": "seed for FDLabel(group_tag='O_odd', mu=(2, 1), eps=1) does not have weight (2, 1)",
    "homogeneous": "polynomial is not weight-homogeneous",
    "echelon": "echelon index 2 != model dimension 1",
    "casimir": "Casimir scalar 48 != expected 12 for FDLabel(group_tag='O_odd', mu=(2, 1), eps=1)",
    "real": "quadratic invariant scalar Gi(Fraction(0, 1), Fraction(24, 1)) is not real",
    "raising": ("seed for FDLabel(group_tag='O_odd', mu=(2, 1), eps=1) not annihilated by "
                "raising root (1, -1)"),
    "reflection": "model for FDLabel(group_tag='O_odd', mu=(1, 0), eps=1) is not reflection-stable",
}


@pytest.mark.parametrize("how", CLOSURE_FAILURES)
def test_closure_checks_can_fail(monkeypatch, run_optimized, how):
    rows = _closure_plant(how, monkeypatch.setattr)   # undone after the test
    with pytest.raises(AssertionError) as exc:
        construct_irrep(CTX4, rows)
    assert str(exc.value) == CLOSURE_FAILURES[how]
    code = ("import sys\n"
            "from orthobranch.weights import rank_context\n"
            "from orthobranch.matrixrep import construct_irrep\n"
            + inspect.getsource(_closure_plant) +
            "rows = _closure_plant(sys.argv[1], setattr)\n"
            "try:\n"
            "    construct_irrep(rank_context(4), rows)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    assert run_optimized(code, how).strip() == CLOSURE_FAILURES[how]
