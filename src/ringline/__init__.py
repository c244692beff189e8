"""Finite rings with unity, their projective lines, and line classification."""

import os
import sys

# OpenBLAS starts a busy worker pool when numpy loads; no ringline command calls BLAS.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .build import (
    RingRecipe,
    build_recipe,
    direct_product,
    emit_ring_file,
    matrix_ring,
    parse_recipe,
    parse_ring_file,
    quotient_dual_numbers,
    ring_from_spec,
    ring_gf,
    ring_zn,
    skew_dual_numbers,
    structure_constants_algebra,
    triangular_ring,
)
from .catalog import (
    CatalogEntry,
    EntryResult,
    RunReport,
    builtin_catalog,
    evaluate_entry,
    run_catalog,
)
from .core import (
    FiniteRing,
    RingFingerprint,
    characteristic,
    fingerprint,
    ideal_lattice,
    is_commutative,
    jacobson_radical,
    maximal_ideal_count,
    semisimple_blocks,
    unit_elements,
    validate_ring,
    zero_divisor_count,
)
from .errors import (
    NoDistantPair,
    NotAbelianGroup,
    NotAssociative,
    NotClosed,
    NotDistributive,
    NotPrime,
    NoUnity,
    OrderTooLarge,
    RecipeError,
    RightLineBreakdown,
    RinglineError,
    RingSyntaxError,
    RingValidationError,
    UnknownCandidate,
    ZeroIndexNotZero,
)
from .line import (
    Point,
    ProjectiveLine,
    build_line,
    point_type,
)
from .stats import (
    LineSignature,
    StatValue,
    jacobson_stat,
    max_distant_set,
    pair_intersection_stat,
    signature,
    triple_intersection_stat,
)

__version__ = "0.1.0"
