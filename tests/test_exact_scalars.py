"""The one number type through a model's life: closure, generator and
reflection columns, Gram matrix, bundle round trip, hom operator and
measurement.  Every stored scalar is an int, a Fraction or a ``Gi`` with a
nonzero imaginary part, and the Chevalley basis keeps the pieces that are
real in exact arithmetic real."""
import json
from fractions import Fraction

from orthobranch.homspace import hom_space
from orthobranch.linalg import Gi
from orthobranch.matrixrep import rep_from_bundle, rep_to_bundle
from orthobranch.measure import b_eval, measure_scalar


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
    out = [rep._cols, rep._refl, rep.cache]
    if rep.model is not None:
        model = rep.model
        out += [model.vectors, model.ops, model.gram_rows(),
                [row for row in model.ech.rows.values()]]
    return out


def check_rep(rep):
    for x in leaves(stored(rep)):
        check_scalar(x)
    for (a, b), cols in rep._cols.items():
        assert pure(leaves(cols)), (a, b)
    assert not any(isinstance(x, Gi) for x in leaves(rep.reflection()))
    if rep.model is not None:
        for poly in rep.model.vectors:
            assert pure(poly.values())
        assert not any(isinstance(x, Gi) for x in leaves(rep.model.gram_rows()))


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
    assert back._cols == o4._cols and back.reflection() == o4.reflection()
    for rep in (o4, o5):  # a loaded bundle holds the types of the model it came from
        loaded = rep_from_bundle(json.loads(json.dumps(rep_to_bundle(rep))))
        assert ({g: scalar_types(cols) for g, cols in loaded._cols.items()}
                == {g: scalar_types(cols) for g, cols in rep._cols.items()})
        assert scalar_types(loaded.reflection()) == scalar_types(rep.reflection())
    for rep in (o4, o5, o7, sub, back):
        check_rep(rep)
    frame = o7.frame
    for x in leaves([frame.root_vectors(), frame.root_tables, frame._gen_coords]):
        check_scalar(x)
