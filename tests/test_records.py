"""The record classes' repr, equality, hashing and immutability.

The expected reprs (in full, or as the sha256 of a long one) and field lists
were recorded when these classes were still dataclasses, so they pin the
behaviour that the plain classes replaced without change: reprs appear in
error messages and in the CLI's output.
"""
import copy
import hashlib
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path
from types import SimpleNamespace

import pytest

import orthobranch as ob
from orthobranch.homspace import hom_space
from orthobranch.matrixrep import construct_irrep, det_twisted

# name: (fields compared and hashed, the repr or the sha256 of a long one)
EXPECTED = {
    "RankContext": (("n", "r", "s", "parity"), "RankContext(n=4, r=2, s=2, parity='even')"),
    "SignedRoot": (("kind", "sign", "i", "j"), "SignedRoot(kind='diff', sign=1, i=1, j=2)"),
    "SignatureKey": (("i", "j", "delta"), "SignatureKey(i=1, j=2, delta=-1)"),
    "MultiSignature": (("entries",),
                       "f567ac1245ed4ed67bcc97843a2acec985e0b196ea137b7eefc58fb5d39d6fcc"),
    "RegionDescriptor": (("base", "nu", "signature", "away_from_fences"),
                         "e91213d1fefe3c17c6e070a1ff1b1d7094dd1e79df6b99e86515ff6d9d1ac561"),
    "ScalarQuery": (("ctx", "i", "eps", "lam", "nu"),
                    "d252e1c5a435ad806c2fc181a196b1e74af1a91a4b619b26f1be70deffb282a3"),
    "RationalFunctionValue": (("numerator", "denominator", "defined"),
                              "RationalFunctionValue(numerator=Fraction(20, 1), "
                              "denominator=Fraction(30, 1), defined=True)"),
    "FusionQuery": (("a", "b", "c"),
                    "FusionQuery(a=Fraction(1, 1), b=Fraction(3, 2), c=Fraction(-2, 1))"),
    "FDLabel": (("group_tag", "mu", "eps"), "FDLabel(group_tag='O_odd', mu=(2, 1), eps=1)"),
    "StabilityReport": (("region", "samples", "constant", "fence_crossings"),
                        "d3793c96d8ac166e9f89a06819281ef71c2d8571172a389ff54f05ed11e2b327"),
    "SymmetryBreakingOperator": (("big", "sub", "matrix", "hw"),
                                 "18da725786cbea4c316826a4fe61605fabae6f042e1d4f82e336981960fdb566"),
    "Recipe": (("kind", "parent", "op_index"), "Recipe(kind='op', parent=0, op_index=0)"),
    "PolyModel": (("tags", "recipes", "gram"),
                  "74d4beeda724e679b7e79aba1b99abc3ddbae62aebd8e94f6f45a7c8fd87c987"),
    "MatrixRep": (("dim", "label", "indices", "_refl", "kind", "model", "_chev", "_x",
                   "cache"),
                  "7d87125fbd40a7e40c7ed1a18d86b6053420ef6a6481706fd1fe172f5a014019"),
    "MeasureResult": (("value", "raw_numerator", "normalizer", "probes_checked"),
                      "fca6a18461056d4ca65404b879a7a1f876cc1bffb5d22c804e6a2b75b0e7b9d4"),
}
UNHASHABLE = {"SymmetryBreakingOperator", "Recipe", "PolyModel", "MatrixRep", "MeasureResult"}


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, named by its class."""
    big = construct_irrep(ob.rank_context(3), (1, 0), eps=1)
    sub = construct_irrep(ob.rank_context(3), (1,), which="sub")
    op = hom_space(big, sub)[1][0]
    region = ob.region_descriptor((Fr(9, 2), Fr(3, 2)), (Fr(1), Fr(0)))
    query = ob.scalar_query(ob.rank_context(3), 1, "+", (Fr(5, 2), Fr(1, 2)), (Fr(1),))
    out = [ob.rank_context(4), ob.positive_system((Fr(5, 2), Fr(1, 2)), ob.rank_context(4))[0],
           ob.SignatureKey(1, 2, -1), region.signature, region, query, ob.C_val(query),
           ob.FusionQuery(1, "3/2", -2), ob.fd_label(5, (2, 1)),
           ob.stability_scan((Fr(9, 2), Fr(5, 2)), ob.fd_label(4, (0, 0)), 1),
           op, big.model.recipes[1], big.model, big, ob.measure_scalar(op, 1, 1)]
    return {type(x).__name__: x for x in out}


@pytest.mark.parametrize("name", EXPECTED)
def test_repr_is_unchanged(records, name):
    text = repr(records[name])
    want = EXPECTED[name][1]
    if not want.startswith(f"{name}("):
        text = hashlib.sha256(text.encode()).hexdigest()
    assert text == want


@pytest.mark.parametrize("name", EXPECTED)
def test_equality_is_field_by_field_within_one_class(records, name):
    x, fields = records[name], EXPECTED[name][0]
    assert x == copy.copy(x) and not x != copy.copy(x)
    # the same fields on an object of another class never compare equal
    assert x != SimpleNamespace(**{f: getattr(x, f) for f in fields})
    assert x != tuple(getattr(x, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
        for f in fields:  # mutable: each field is compared
            other = copy.copy(x)
            setattr(other, f, object())
            assert x != other, f
    else:
        assert hash(x) == hash(tuple(getattr(x, f) for f in fields))


@pytest.mark.parametrize("name", sorted(set(EXPECTED) - UNHASHABLE))
def test_frozen_records_refuse_assignment(records, name):
    x = records[name]
    field = EXPECTED[name][0][0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(x, field, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(x, field)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        x.extra = 1
    assert repr(x) == repr(copy.copy(x))


def test_matrix_rep_compares_its_cache_and_the_operator_does_not_compare_its_check(records):
    big, op = records["MatrixRep"], records["SymmetryBreakingOperator"]
    other = copy.copy(big)
    other.cache = {"planted": 1}
    assert big != other and repr(big) == repr(other)
    assert op.verified
    fresh = ob.SymmetryBreakingOperator(op.big, op.sub, op.matrix, op.hw)
    assert not fresh.verified and fresh == op
    assert det_twisted(big) != big
    assert det_twisted(det_twisted(big)) == big


def test_signature_keys_keep_their_order():
    keys = [ob.SignatureKey(2, 1, 1), ob.SignatureKey(1, 2, 1), ob.SignatureKey(1, 2, -1)]
    assert sorted(keys) == [keys[2], keys[1], keys[0]]
    assert keys[2] < keys[1] <= keys[1] < keys[0] and keys[0] >= keys[0] > keys[1]
    with pytest.raises(TypeError):
        keys[0] < (2, 1, 1)


def test_region_descriptor_caches_its_derived_tests(records):
    region = records["RegionDescriptor"]
    assert region.chamber is region.chamber and region.chamber((Fr(11, 2), Fr(3, 2)))
    assert region.sign_tests == ((0, -6, True), (0, -4, True), (0, -5, True), (0, -5, True),
                                 (1, -3, True), (1, -1, True), (1, -2, True), (1, -2, True))
    assert hash(region) == hash((region.base, region.nu, region.signature,
                                 region.away_from_fences))


def test_fd_label_validates_and_canonicalizes_at_construction():
    assert vars(ob.FDLabel("O_even", [3, 1], -1)) == {
        "group_tag": "O_even", "mu": (3, 1), "eps": 1}
    assert ob.FDLabel("O_even", (3, 0)).eps == 1
    for args, message in [(("O_x", (1,), 1), "unknown group tag 'O_x'"),
                          (("O_odd", (1, 2), 1), r"rows \(1, 2\) must be weakly decreasing"),
                          (("O_odd", (), 1), "rows must have positive length"),
                          (("O_odd", (1,)), "O_odd labels require eps"),
                          (("O_even", (1, 0), 2), "eps must be")]:
        with pytest.raises(ValueError, match=message):
            ob.FDLabel(*args)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_importing_the_package_loads_no_dataclasses_inspect_or_hashlib(flags):
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import orthobranch, orthobranch.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'hashlib'} & (set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ob.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
