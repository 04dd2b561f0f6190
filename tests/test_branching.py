import hashlib
import re
from fractions import Fraction
from itertools import product

import pytest

from orthobranch.branching import (
    FDLabel,
    O_EVEN,
    O_ODD,
    family_base,
    fd_label,
    full_decomposition,
    inf_char_of,
    interlace_predicate,
    o_restrict_decomposition,
    oracle_multiplicity,
    reduced_family,
    stability_scan,
)
from dense_reference import full_orbit_so_char, full_peel, full_restrict_weights
from orthobranch import branching
from orthobranch.characters import (
    CharacterCheckError, associate_partition, dominant_char, partition_to_label, so_char,
)
from orthobranch.polyarith import p_add_into
from orthobranch.regions import FencePreconditionError
from orthobranch.weights import ResourceLimitError, rank_context

CTX3 = rank_context(3)
CTX4 = rank_context(4)


def F(size, mu, eps=None):
    return fd_label(size, mu, eps)


def test_label_canonicalization():
    lab = F(5, (1,))
    assert lab.group_tag == O_ODD and lab.mu == (1, 0) and lab.eps == 1
    assert F(4, (2, 1)).eps == 1           # full rows: canonical sign
    assert F(4, (2, 1), -1).eps == 1       # det twist is isomorphic, folded
    assert F(4, (1, 0), -1).eps == -1      # zero last row keeps the sign
    with pytest.raises(ValueError):
        FDLabel(O_ODD, (1, 0), None)
    with pytest.raises(ValueError):
        F(5, (1, 2))


def test_label_dims():
    assert F(5, (1, 0)).dim() == 5
    assert F(5, (1, 0), -1).dim() == 5
    assert F(5, (2, 0)).dim() == 14
    assert F(4, (1, 0)).dim() == 4
    assert F(4, (1, 1)).dim() == 6
    assert F(3, (1,)).dim() == 3
    assert F(3, (0,), -1).dim() == 1


def test_inf_char_examples():
    assert inf_char_of(F(5, (1, 0))) == (Fraction(5, 2), Fraction(1, 2))
    assert inf_char_of(F(5, (0, 0))) == (Fraction(3, 2), Fraction(1, 2))
    assert inf_char_of(F(4, (1, 0))) == (Fraction(2), Fraction(0))
    assert inf_char_of(F(3, (2,))) == (Fraction(5, 2),)


def test_oracle_examples():
    assert oracle_multiplicity(F(5, (1, 0)), F(4, (0, 0))) == 1
    assert oracle_multiplicity(F(5, (3, 3)), F(4, (1, 0))) == 0
    assert oracle_multiplicity(F(5, (4, 2)), F(4, (3, 1))) == 1
    assert oracle_multiplicity(F(4, (1, 0)), F(3, (1,))) == 1
    assert oracle_multiplicity(F(4, (1, 0)), F(3, (0,), -1)) == 0


def test_full_decomposition_counts_dimensions():
    for big in (F(5, (2, 1)), F(4, (2, 1)), F(5, (1, 1))):
        parts = full_decomposition(big)
        assert sum(lab.dim() * c for lab, c in parts) == big.dim()
        assert all(c == 1 for _, c in parts)  # multiplicity-free pair


def test_dimension_cap_reads_the_h_determinant_dimension(labels_5000):
    # the cap takes Weyl's formula (doubled for an induced label); at a cap one
    # below the h-determinant's dimension it must refuse and name that dimension
    for size, alpha in labels_5000:
        big = branching.label_from_partition(size, alpha)
        dim = big.dim()
        with pytest.raises(ResourceLimitError,
                           match=f"^big irrep dimension {dim} exceeds the cap {dim - 1}$"):
            full_decomposition(big, dim_cap=dim - 1)


def test_det_twist_decomposition_mirrors():
    plus = dict((lab.partition, c)
                for lab, c in full_decomposition(F(5, (2, 0), 1)))
    minus = dict((lab.partition, c)
                 for lab, c in full_decomposition(F(5, (2, 0), -1)))
    assert sum(plus.values()) == sum(minus.values())
    assert plus != minus  # the twist moves the constituent labels


def test_interlace_examples():
    assert interlace_predicate(F(5, (4, 2)), F(4, (3, 1))) == 1
    assert interlace_predicate(F(5, (3, 3)), F(4, (1, 0))) == 0
    assert interlace_predicate(F(5, (0, 0)), F(4, (0, 0))) == 1
    assert interlace_predicate(F(5, (2, 1)), F(4, (2, 1))) == 1


def test_interlace_matches_oracle_small_grid():
    bigs = [F(5, mu, e) for mu in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]
            for e in (1, -1)]
    subs = []
    for m1 in range(4):
        for m2 in range(m1 + 1):
            if m2 >= 1:
                subs.append(F(4, (m1, m2)))
            else:
                subs.extend([F(4, (m1, 0)), F(4, (m1, 0), -1)])
    for big in bigs:
        for sub in subs:
            assert interlace_predicate(big, sub) == oracle_multiplicity(big, sub), \
                (big, sub)


def _labels(size, top):
    """Every O(size) label whose first row is at most top, both signs."""
    rank = size // 2
    out = []
    for mu in product(range(top + 1), repeat=rank):
        if list(mu) == sorted(mu, reverse=True):
            out.extend({F(size, mu, 1), F(size, mu, -1)})
    return sorted(out, key=lambda lab: (lab.mu, lab.eps))


def test_interlace_matches_oracle_even_sizes():
    # O(4), O(6), O(8): the self-associate labels take the induced-label
    # shortcut, and every sub label of first row <= 3 holds every constituent
    for size in (4, 6, 8):
        subs = _labels(size - 1, 3)
        for big in _labels(size, 3):
            total = 0
            for sub in subs:
                mult = oracle_multiplicity(big, sub)
                assert interlace_predicate(big, sub) == mult, (big, sub)
                total += mult * sub.dim()
            assert total == big.dim(), big


def test_self_associate_characters_vanish_on_the_coset():
    # the premise of the shortcut: an induced label's full h-determinant at
    # the coset eigenvalues is zero
    for size in (4, 6, 8):
        terms, nvars = branching._coset_eigenvalues(size)
        s = size // 2
        alphas = [mu for mu in product(range(1, 5), repeat=s)
                  if list(mu) == sorted(mu, reverse=True)]
        assert alphas
        for alpha in alphas:
            assert associate_partition(size, alpha) == alpha
            assert branching.o_char_on_multiset(alpha, terms, nvars) == {}, (size, alpha)


def test_self_associate_label_computes_no_determinant(monkeypatch):
    real = branching.o_char_on_multiset
    calls = []

    def counted(alpha, terms, nvars):
        calls.append(tuple(alpha))
        return real(alpha, terms, nvars)

    monkeypatch.setattr(branching, "o_char_on_multiset", counted)
    o_restrict_decomposition.cache_clear()
    try:
        decomp = o_restrict_decomposition(6, (3, 2, 1))
    finally:
        o_restrict_decomposition.cache_clear()
    assert (3, 2, 1) not in calls
    big = F(6, (3, 2, 1))
    assert decomp == {sub.partition: 1 for sub in _labels(5, 3)
                      if interlace_predicate(big, sub)}


def test_family_base():
    assert family_base(CTX3) == (Fraction(2), Fraction(1))           # big group O(4)
    assert family_base(CTX4, 1) == (Fraction(3, 2), Fraction(1, 2))  # big group O(5)
    assert family_base(CTX4) == family_base(CTX4, 1)  # the sign defaults to +1
    with pytest.raises(ValueError):
        family_base(CTX3, 1)  # even-size big group carries no sign


def test_reduced_family():
    base_only = reduced_family(CTX4, 1, bound=0)
    assert len(base_only) == 1
    assert base_only[0] == FDLabel(O_ODD, (0, 0), 1)
    fam = reduced_family(CTX3, bound=2)
    assert all(lab.group_tag == O_EVEN for lab in fam)
    assert all(lab.mu[-1] >= 1 for lab in fam)  # zero last row excluded
    assert FDLabel(O_EVEN, (1, 1)) in fam
    assert FDLabel(O_EVEN, (3, 1)) in fam


def test_stability_scan_constant_one():
    rep = stability_scan((Fraction(13, 2), Fraction(5, 2)), F(4, (3, 1)), 4)
    assert rep.constant
    mults = dict(rep.samples)
    for t in range(3, 8):
        lam = (Fraction(2 * t + 3, 2), Fraction(5, 2))
        assert mults[lam] == 1
    drops = [(a, b, d) for a, b, d in rep.fence_crossings
             if b[0] == Fraction(7, 2)]
    assert drops and all(d == -1 for _, _, d in drops)


def test_stability_scan_all_zero():
    rep = stability_scan((Fraction(9, 2), Fraction(5, 2)), F(4, (0, 0)), 3)
    assert rep.constant
    assert rep.samples and all(m == 0 for _, m in rep.samples)


def test_stability_scan_fence_precondition():
    # nu = (4,1); xi_1 = 9/2 sits exactly on the fence nu_1 + 1/2
    with pytest.raises(FencePreconditionError):
        stability_scan((Fraction(9, 2), Fraction(5, 2)), F(4, (3, 1)), 2)


def test_stability_scan_lattice_alignment():
    with pytest.raises(ValueError):
        stability_scan((Fraction(6), Fraction(5, 2)), F(4, (3, 1)), 2)


def test_full_decomposition_same_after_cache_clear():
    big = F(7, (3, 2, 1), -1)
    first = full_decomposition(big)
    dominant_char.cache_clear()
    o_restrict_decomposition.cache_clear()
    assert o_restrict_decomposition.cache_info().currsize == 0
    assert full_decomposition(big) == first
    assert sum(c * sub.dim() for sub, c in first) == big.dim()


def test_restriction_integrality_check_raises(monkeypatch):
    # Doubling every constituent character makes the peel's exact division
    # by its leading coefficient fail, which must raise, not truncate.
    real = branching.o_char_on_multiset
    calls = []

    def doubled_constituents(alpha, terms, nvars):
        calls.append(alpha)
        poly = real(alpha, terms, nvars)
        return poly if len(calls) == 1 else {e: 2 * c for e, c in poly.items()}

    monkeypatch.setattr(branching, "o_char_on_multiset", doubled_constituents)
    o_restrict_decomposition.cache_clear()
    try:
        with pytest.raises(CharacterCheckError):
            o_restrict_decomposition(5, (2, 1))
    finally:
        o_restrict_decomposition.cache_clear()


def _planted(monkeypatch, big_size, alpha, message, **patches):
    """o_restrict_decomposition(big_size, alpha) with branching's names
    patched must raise CharacterCheckError with the given message."""
    for name, value in patches.items():
        monkeypatch.setattr(branching, name, value)
    o_restrict_decomposition.cache_clear()
    try:
        with pytest.raises(CharacterCheckError,
                           match=re.escape(f"restricting O({big_size}) {alpha}: {message}")):
            o_restrict_decomposition(big_size, alpha)
    finally:
        o_restrict_decomposition.cache_clear()


def test_mirror_check_raises(monkeypatch):
    # an so(4) constituent without its mirror image
    real = branching._so_constituents
    _planted(monkeypatch, 5, (2, 1), "so(4) constituent (1, 1) and its mirror (1, -1) differ",
             _so_constituents=lambda n, mu: {t: c for t, c in real(n, mu).items() if t != (1, -1)})


def test_leading_exponent_check_raises(monkeypatch):
    real = branching.o_char_on_multiset

    def with_stray_term(alpha, terms, nvars):
        return {**real(alpha, terms, nvars), (9, 10): 1}

    _planted(monkeypatch, 7, (2, 1), "leading exponent (9, 10) is not a partition",
             o_char_on_multiset=with_stray_term)


def test_leading_term_check_raises(monkeypatch):
    # the big label's character is the true one, the constituents' lose
    # their leading term
    real = branching.o_char_on_multiset
    calls = []

    def headless_constituents(alpha, terms, nvars):
        calls.append(alpha)
        poly = real(alpha, terms, nvars)
        return poly if len(calls) == 1 else {e: c for e, c in poly.items() if e != max(poly)}

    _planted(monkeypatch, 7, (2, 1), "constituent (2, 1) has no term at its leading exponent",
             o_char_on_multiset=headless_constituents)


def test_twisted_split_check_raises(monkeypatch):
    # doubled so-constituents against the true twisted counts: 2 + 1 is odd
    real = branching._so_constituents
    _planted(monkeypatch, 5, (2, 1), "twisted count 1 does not split the 2 copies of (2, 0)",
             _so_constituents=lambda n, mu: {t: 2 * c for t, c in real(n, mu).items()})


def test_twisted_counterpart_check_raises(monkeypatch):
    real = branching._so_constituents
    _planted(monkeypatch, 5, (2, 1), "twisted constituents {(1,): 1} have no so(4) counterpart",
             _so_constituents=lambda n, mu: {t: c for t, c in real(n, mu).items() if t != (1, 0)})


def test_negative_constituent_check_raises(monkeypatch):
    # the dominant part {(1, 0): 1} added to the restriction is V(1,0) - V(0,0)
    # of so(5), and O(6) (2, 2) has no so(5) constituent (0, 0) to cancel it
    real = branching.restrict_weights

    def plus_a_virtual_part(weights, m_from):
        out = real(weights, m_from)
        return {**out, (1, 0): out.get((1, 0), 0) + 1}

    monkeypatch.setattr(branching, "restrict_weights", plus_a_virtual_part)
    o_restrict_decomposition.cache_clear()
    try:
        with pytest.raises(CharacterCheckError,
                           match=re.escape("peeling so(5) by Racah's formula meets coefficient "
                                           "-1 at (0, 0)")):
            o_restrict_decomposition(6, (2, 2))
    finally:
        o_restrict_decomposition.cache_clear()


def test_oracle_caches_only_the_big_table():
    # steps 3 and 4 of an odd-size label read no so-constituent's table: after
    # a cold decomposition the character cache holds the big label's alone
    dominant_char.cache_clear()
    o_restrict_decomposition.cache_clear()
    try:
        decomp = o_restrict_decomposition(7, (7, 3, 1))
        assert dominant_char.cache_info().currsize == 1
        assert dominant_char(7, (7, 3, 1))
        assert dominant_char.cache_info().hits == 1
    finally:
        dominant_char.cache_clear()
        o_restrict_decomposition.cache_clear()
    assert len(decomp) == 30 and set(decomp.values()) == {1}  # 5 * 3 * 2 interlacing rows


def test_dominant_route_matches_the_full_orbit_route(labels_5000):
    # steps 1-3 on dominant weights against Freudenthal, restriction and
    # peeling on whole weight multisets: equal so-constituents, dict order
    # included, and so_char repr-identical to the full-orbit table for the
    # big label, its mirror and every constituent
    assert len(labels_5000) == 598
    checked = set()
    for size, alpha in labels_5000:
        mu, _ = partition_to_label(size, alpha)
        if (size, mu) in checked:
            continue
        checked.add((size, mu))
        highest = [mu]
        if size % 2 == 0 and mu[-1] >= 1:
            highest.append(mu[:-1] + (-mu[-1],))
        weights = {}
        for top in highest:
            assert repr(so_char(size, top)) == repr(full_orbit_so_char(size, top)), (size, top)
            p_add_into(weights, full_orbit_so_char(size, top))
        expected = full_peel(full_restrict_weights(weights, size), size - 1)
        got = branching._so_constituents(size, mu)
        assert list(got.items()) == list(expected.items()), (size, mu)
        for tau in got:
            assert repr(so_char(size - 1, tau)) == repr(full_orbit_so_char(size - 1, tau)), \
                (size - 1, tau)
    assert len(checked) == 371


def test_decomposition_digest_is_pinned(labels_5000):
    # o_restrict_decomposition over the labels above, dict order included,
    # as the full-orbit route gave it
    dump = [(size, alpha, list(o_restrict_decomposition(size, alpha).items()))
            for size, alpha in labels_5000]
    assert hashlib.sha256(repr(dump).encode()).hexdigest() == \
        "7368b7c5559be16af1e20e7264983ef0c77d828ecd94cb9c016a911fc104e0cc"
