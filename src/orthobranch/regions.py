"""Multi-signatures, fences, interleaving regions, and lattice paths.

For lambda of length r and nu of length s, the signature support is the set of
triples (i, j, delta) with lambda_i + delta*nu_j a half-integer; the
multi-signature records the sign of each such combination.  Fences are the
affine walls where a supported combination equals +-1/2; a base point away
from all fences determines a region: the lattice translates with the same
chamber and the same multi-signature.  Inside one region any two lattice
points are joined by a unit-step path that never leaves the region.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Tuple

from .records import FrozenRecord
from .weights import (
    SingularWeightError,
    Weight,
    as_weight,
    chamber_test,
    is_nonsingular,
)


class LatticeError(ValueError):
    """Raised when a weight is not an integral translate of the region base."""


class FencePreconditionError(ValueError):
    """Raised when a region operation needs an away-from-fences base."""


class NoPathError(ValueError):
    """Raised when no in-region lattice path exists between the endpoints."""


@total_ordering
class SignatureKey(FrozenRecord):
    """A support triple (i, j, delta), ordered as the tuple of its fields."""

    _fields = ("i", "j", "delta")

    def __init__(self, i: int, j: int, delta: int) -> None:
        self.__dict__.update(i=i, j=j, delta=delta)  # delta is +1 or -1

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values() < other._values()
        return NotImplemented


class MultiSignature(FrozenRecord):
    """Sorted ((key, sign), ...) pairs; sign is the sign of lambda_i + delta*nu_j."""

    _fields = ("entries",)

    def __init__(self, entries: Tuple[Tuple[SignatureKey, int], ...]) -> None:
        self.__dict__.update(entries=entries)

    @property
    def support(self) -> Tuple[SignatureKey, ...]:
        return tuple(key for key, _ in self.entries)


class RegionDescriptor(FrozenRecord):
    """The region of a base point: its chamber and its multi-signature.

    ``region_descriptor`` fills the fields; ``chamber`` and ``sign_tests``
    are derived from them once per descriptor, on first use."""

    _fields = ("base", "nu", "signature", "away_from_fences")

    def __init__(self, base: Weight, nu: Weight, signature: MultiSignature,
                 away_from_fences: bool) -> None:
        self.__dict__.update(base=base, nu=nu, signature=signature,
                             away_from_fences=away_from_fences)

    @cached_property
    def chamber(self):
        """The chamber test of the base (``weights.chamber_test``): its
        positive integral system is computed once per descriptor."""
        return chamber_test(self.base)

    @cached_property
    def sign_tests(self):
        """The multi-signature as int tests on integral translates.

        Every integral translate base + d has the base's signature support,
        so each entry (i, j, delta) with sign s becomes (i - 1, m, s > 0)
        with m = floor(-(base_i + delta*nu_j)).  The value base_i + d_i +
        delta*nu_j is a half-integer, so it is positive exactly when the int
        d_i exceeds m, and the entry keeps its sign when (d_i > m) == (s > 0).
        """
        base, nu = self.base, self.nu
        return tuple(
            (key.i - 1, math.floor(-(base[key.i - 1] + key.delta * nu[key.j - 1])), sign > 0)
            for key, sign in self.signature.entries
        )


def _is_half_integer(q: Fraction) -> bool:
    return q.denominator == 2


def signature_support(lam, nu):
    """Triples (i, j, delta) with lambda_i + delta*nu_j in Z + 1/2, in sorted order.

    The support only depends on lambda modulo integral translations.
    """
    lam, nu = as_weight(lam), as_weight(nu)
    keys = []
    for i, li in enumerate(lam, start=1):
        for j, nj in enumerate(nu, start=1):
            for delta in (1, -1):
                if _is_half_integer(li + delta * nj):
                    keys.append(SignatureKey(i=i, j=j, delta=delta))
    keys.sort(key=lambda k: (k.i, k.j, -k.delta))
    return keys


def multi_signature(lam, nu) -> MultiSignature:
    lam, nu = as_weight(lam), as_weight(nu)
    entries = []
    for key in signature_support(lam, nu):
        val = lam[key.i - 1] + key.delta * nu[key.j - 1]
        entries.append((key, 1 if val > 0 else -1))  # val != 0 since 0 is not in Z+1/2
    return MultiSignature(entries=tuple(entries))


def away_from_fences(xi, nu) -> bool:
    """True iff no supported combination xi_i + delta*nu_j equals +-1/2."""
    xi, nu = as_weight(xi), as_weight(nu)
    half = Fraction(1, 2)
    for key in signature_support(xi, nu):
        val = xi[key.i - 1] + key.delta * nu[key.j - 1]
        if val == half or val == -half:
            return False
    return True


def region_descriptor(xi, nu) -> RegionDescriptor:
    xi, nu = as_weight(xi), as_weight(nu)
    return RegionDescriptor(
        base=xi,
        nu=nu,
        signature=multi_signature(xi, nu),
        away_from_fences=away_from_fences(xi, nu),
    )


def same_region(descriptor: RegionDescriptor, lam) -> bool:
    """True iff lam is an integral translate of the base, lies in the base's
    chamber, and carries the same multi-signature.

    Raises ``LatticeError`` for a weight that is not an integral translate,
    then ``FencePreconditionError`` for a base on a fence.  The signature is
    compared through ``descriptor.sign_tests`` on the int shifts lam - base,
    without forming lam's multi-signature."""
    lam = as_weight(lam)
    base = descriptor.base
    if len(lam) != len(base):
        raise LatticeError("weight length does not match the region base")
    shifts = []
    for a, b in zip(lam, base):
        d = a - b
        if d.denominator != 1:
            raise LatticeError(f"{lam} is not an integral translate of {base}")
        shifts.append(d.numerator)
    if not descriptor.away_from_fences:
        raise FencePreconditionError("region membership needs an away-from-fences base")
    if not descriptor.chamber(lam):
        return False
    return all((shifts[i] > m) == positive for i, m, positive in descriptor.sign_tests)


def lattice_path(xi, lam, nu):
    """A unit-step path from xi to lam staying inside their common region.

    Steps are +-e_i; the path has length exactly |lam - xi|_1.  Greedy rule:
    move the coordinate with the largest remaining gap (ties: smallest index);
    if that step would exit the region, try the other gap coordinates in the
    same order before giving up.
    """
    xi, lam, nu = as_weight(xi), as_weight(lam), as_weight(nu)
    if not is_nonsingular(xi):
        raise SingularWeightError(f"path base must be nonsingular, got {xi}")
    descriptor = region_descriptor(xi, nu)
    if not descriptor.away_from_fences:
        raise FencePreconditionError("lattice paths need an away-from-fences base")
    if not same_region(descriptor, lam):
        raise NoPathError(f"{lam} is not in the region of {xi}")
    path = [xi]
    current = list(xi)
    while tuple(current) != lam:
        gaps = sorted(
            (i for i in range(len(lam)) if current[i] != lam[i]),
            key=lambda i: (-abs(lam[i] - current[i]), i),
        )
        for i in gaps:
            step = 1 if lam[i] > current[i] else -1
            candidate = current.copy()
            candidate[i] += step
            if same_region(descriptor, tuple(candidate)):
                current = candidate
                break
        else:
            raise NoPathError(f"no in-region step from {tuple(current)} toward {lam}")
        path.append(tuple(current))
    return path
