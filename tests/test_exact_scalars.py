"""The one number type through a model's life: closure, stored Chevalley
and reflection columns, the X[a,b] that ``action`` forms, Gram matrix, bundle
round trip, hom operator and measurement.  Every stored scalar is an int, a
Fraction or a ``Gi`` with a nonzero imaginary part, and the Chevalley basis
keeps the pieces that are real in exact arithmetic real: the stored
Chevalley columns of a constructed model hold no ``Gi`` at all."""
import json
from fractions import Fraction

from orthobranch.enveloping import build_A
from orthobranch.homspace import _mirror_embedding, hom_space, subgroup_hw_space
from orthobranch.linalg import Gi, exact
from orthobranch.matrixrep import (
    _verify_rep, act, casimir_scalar, get_frame, rep_from_bundle, rep_to_bundle,
)
from orthobranch.measure import b_eval, measure_scalar, verify_power_identity

from dense_reference import basis_polynomials


def leaves(obj):
    """The scalars held in obj: the values of dicts, lists and tuples,
    recursively; dict keys (indices, monomials, roots) are not scalars."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from leaves(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from leaves(v)
    else:
        yield obj


def check_scalar(x):
    assert type(x) in (int, Fraction, Gi), repr(x)
    if type(x) is Gi:
        assert x.im != 0, repr(x)
        assert type(x.re) in (int, Fraction) and type(x.im) in (int, Fraction), repr(x)


def scalar_types(cols):
    """{(column, row): type} of a matrix's entries, a ``Gi`` with the types of
    its parts."""
    return {(j, i): (Gi, type(x.re), type(x.im)) if type(x) is Gi else type(x)
            for j, col in enumerate(cols) for i, x in col.items()}


def pure(values):
    """True when the values are all real or all purely imaginary."""
    values = list(values)
    return (not any(isinstance(x, Gi) for x in values)
            or all(isinstance(x, Gi) and x.re == 0 for x in values))


def stored(rep):
    """Everything a representation holds that is made of scalars."""
    out = [rep._chev, rep._refl, rep.cache]
    if rep.model is not None:
        out.append(rep.model.gram)
    return out


def check_rep(rep):
    for x in leaves(stored(rep)):
        check_scalar(x)
    if rep.kind == "model":
        assert not any(isinstance(x, Gi) for x in leaves(rep._chev))
    for (a, b) in rep.frame.generators:
        assert pure(leaves(rep.action(a, b))), (a, b)
    assert not any(isinstance(x, Gi) for x in leaves(rep.reflection()))
    if rep.model is not None:
        for poly in basis_polynomials(rep):   # the closure's, which the model does not keep
            assert pure(poly.values())
        assert not any(isinstance(x, Gi) for x in leaves(rep.model.gram))


def test_models_hold_one_exact_number_type(reps):
    o4 = reps.get(3, (2, 1))
    o5 = reps.get(4, (2, 1), -1)
    o7 = reps.get(6, (2, 1, 0))
    sub = reps.get(4, (1, 1), None, which="sub")
    mult, ops = hom_space(o5, sub)
    assert mult == 1
    op = ops[0]
    assert not any(isinstance(x, Gi) for x in leaves(op.matrix))
    for x in leaves(op.matrix):
        check_scalar(x)
    result = measure_scalar(op, 1, 1)
    assert type(result.raw_numerator) is Fraction
    assert type(result.normalizer) is Fraction
    assert type(result.value.numerator) is type(result.value.denominator) is Fraction
    assert type(b_eval(op, 3)) is Fraction
    back = rep_from_bundle(json.loads(json.dumps(rep_to_bundle(o4))))
    assert back.chevalley() == o4.chevalley() and back.reflection() == o4.reflection()
    for rep in (o4, o5):  # a loaded bundle holds the types of the model it came from
        loaded = rep_from_bundle(json.loads(json.dumps(rep_to_bundle(rep))))
        assert ({g: scalar_types(loaded.action(*g)) for g in rep.frame.generators}
                == {g: scalar_types(rep.action(*g)) for g in rep.frame.generators})
        assert ({key: scalar_types(cols) for key, cols in loaded.chevalley().items()}
                == {key: scalar_types(cols) for key, cols in rep.chevalley().items()})
        assert scalar_types(loaded.reflection()) == scalar_types(rep.reflection())
    for rep in (o4, o5, o7, sub, back):
        check_rep(rep)
    # every stored Chevalley entry is in exact's form: no Fraction(k, 1)
    assert all(type(x) is type(exact(x)) for x in leaves(o7._chev))
    frame = o7.frame
    for x in leaves([frame.roots, frame.root_tables, frame.gen_coords]):
        check_scalar(x)


def test_frame_tables_are_real():
    # the Casimir form, the structure constants and the reflection's
    # conjugates over the Chevalley basis, for group sizes 2..9, and every
    # subgroup root vector over the larger group's basis, for n = 3..6
    for size in range(2, 10):
        frame = get_frame(tuple(range(size)))
        for x in leaves([frame.casimir_form, [dict(br) for row in frame.structure for br in row],
                         frame.conjugates]):
            check_scalar(x)
            assert not isinstance(x, Gi), (size, x)
    for n in range(3, 7):
        big, sub = get_frame(tuple(range(n + 1))), get_frame(tuple(range(1, n + 1)))
        for combo in sub.roots.values():
            assert not any(isinstance(x, Gi) for x in big.root_coords(combo).values())


def test_model_checks_do_no_complex_arithmetic(reps, monkeypatch):
    # the Casimir and bracket checks of constructed models (big and sub
    # frames, a det twin) and of a loaded bundle, which converted its X[a,b]
    # to Chevalley columns once at load, run on real columns with the frames'
    # real tables; so do the hom space's highest-weight kernel and
    # embeddings, whose only complex step expands the subgroup's root vectors
    # over big's basis.  The power check and act run on the int parts of
    # d X[a,b], formed from the real columns and the coordinates' int parts
    models = [reps.get(4, (2, 1), -1), reps.get(6, (2, 1, 0)), reps.get(4, (1, 1), None, "sub")]
    o4 = reps.get(3, (2, 1))
    bundle = rep_from_bundle(json.loads(json.dumps(rep_to_bundle(o4))))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        method = getattr(Gi, name)
        monkeypatch.setattr(Gi, name, lambda *args, _m=method: calls.append(1) or _m(*args))
    for rep in (*models, bundle):
        casimir_scalar(rep)
        _verify_rep(rep)
    assert calls == []
    assert verify_power_identity(bundle, 2) and verify_power_identity(bundle, 3)
    assert calls == []
    for rep in (o4, bundle):
        assert any(act(build_A(3, 3), rep))
    assert calls == []
    big, sub = models[0], models[2]
    hw = subgroup_hw_space(big, sub)
    images = _mirror_embedding(big, sub, hw[0])
    assert not any(isinstance(x, Gi) for x in leaves([hw, images]))
