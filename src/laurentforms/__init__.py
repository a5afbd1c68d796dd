"""Exact computer algebra for Hermitian forms over Z[t, t^-1].

Provides the integer Laurent polynomial ring with its involution,
Hermitian forms with congruence and determinant machinery, recognition
and certified reduction to the standard surface form, the Wall
self-intersection calculus, fraction-field homology of chain complexes,
and a bounded congruence-move search.
"""

from .laurent import (
    LaurentPoly,
    UnitWitness,
    ZERO,
    ONE,
    T,
    T_INV,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    assoc_eq,
    iota,
)
from .forms import (
    BaseChange,
    HermitianForm,
    InternalCheckError,
    ReductionCertificate,
    ReductionVerdict,
    ReplayMismatch,
    certify_reduction,
    congruence,
    det_congruence_check,
    determinant,
    h2_sum,
    prenormalize_units,
    solve_hermitian_zero_aug,
)
from .wallcalc import (
    IntersectionEvent,
    SurfaceModel,
    WallClass,
    hermitize,
    lambda_self,
    mu,
    pairing_shape_check,
    project,
)
from .homology import ChainComplex, rank_qt, torsion_order
from .search import (
    DEFAULT_BOUNDS,
    MoveSpec,
    ProbeReport,
    SearchBounds,
    SearchOutcome,
    Swap,
    Transvection,
    UnitScale,
    bounded_isometry_search,
    conjecture_probe,
    stabilize,
)

__version__ = "0.1.0"
