"""Exact-arithmetic branching combinatorics for nested orthogonal groups.

Submodules:
  weights     rank contexts, chambers, lattice boxes
  regions     multi-signatures, fences, in-region lattice paths
  scalars     the h / phi / g / C scalar families and b^(1..3) closed forms
  enveloping  normal-ordered U(o(n+1)) with the recursive invariant elements
  characters  exact weight multiplicities and orthogonal-group characters
  matrixrep   explicit irreducible representations over the rationals
  homspace    equivariant operator spaces between restricted representations
  measure     Casimir-power projectors and scalar measurement / reconstruction
  branching   finite-dimensional branching oracle, interlacing, stability scans
  verma       the rank-one infinite-dimensional fusion demo
  records     the plain record bases of the package's result and query types
  cli         command-line front end

Import contract: every CLI call and every benchmark round is a fresh process
that pays for this import, so it loads little.  From the standard library,
``import orthobranch`` loads fractions (with decimal and numbers), json,
typing, functools, itertools, operator, math and bisect, most of them already
loaded at interpreter start-up; ``orthobranch.cli`` adds argparse.  The
package uses no dataclasses: importing ``dataclasses`` loads inspect, ast,
dis and tokenize, and each decorated class execs its generated methods at
import.  Its records are plain classes on the two bases in ``records``.
``hashlib`` is loaded only when an SVG slice is drawn.  A test checks that
the import loads none of dataclasses, inspect and hashlib.
"""

from .weights import (
    InvalidRankError,
    RankContext,
    SignedRoot,
    SingularWeightError,
    as_weight,
    chamber_test,
    is_nonsingular,
    lattice_box,
    norms,
    positive_system,
    rank_context,
    rho,
)
from .regions import (
    FencePreconditionError,
    LatticeError,
    MultiSignature,
    NoPathError,
    RegionDescriptor,
    SignatureKey,
    away_from_fences,
    lattice_path,
    multi_signature,
    region_descriptor,
    same_region,
    signature_support,
)
from .scalars import (
    C_val,
    RationalFunctionValue,
    ScalarQuery,
    b_closed,
    g_val,
    h_val,
    nonvanishing_predicate,
    phi_val,
    scalar_query,
)
from .weights import ResourceLimitError
from .enveloping import (
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
from .characters import (
    CharacterCheckError,
    associate_partition,
    label_to_partition,
    o_irrep_dim,
    partition_to_label,
    so_rank,
    weyl_dim,
)
from .branching import (
    FDLabel,
    O_EVEN,
    O_ODD,
    StabilityReport,
    family_base,
    fd_label,
    full_decomposition,
    inf_char_of,
    interlace_predicate,
    oracle_multiplicity,
    reduced_family,
    stability_scan,
)
from .matrixrep import (
    MatrixRep,
    act,
    casimir_scalar,
    construct_irrep,
    det_twisted,
    expected_casimir_scalar,
    rep_from_bundle,
    rep_to_bundle,
    standard_rep,
)
from .homspace import (
    SymmetryBreakingOperator,
    hom_space,
)
from .measure import (
    IdentityViolationError,
    MeasureResult,
    b_eval,
    b_reconstruct,
    measure_scalar,
    verify_power_identity,
)
from .verma import (
    FusionQuery,
    fusion_grid,
    fusion_multiplicity,
    fusion_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
