"""Exact decision procedures for additive Deligne-Simpson problems.

Residue-orbit (Fuchsian) existence via star-quiver root systems, unramified
irregular existence via the associated decision quiver, Coxeter-type
existence and rigidity, parahoric strata and slope certification, and a JSON
command-line surface (``ds-kit``).  All arithmetic is exact over the
Gaussian rationals.
"""

from __future__ import annotations

from .core import (
    OrbitSpec,
    Scalar,
    as_partition,
    dual_partition,
    factor_ranks,
    min_partition_with_r_parts,
    orbit_dim,
    partitions_of,
)
from .coxeter import (
    CharPolySpec,
    SimpleTypeQuery,
    coxeter_ds_decide,
    ds_generator,
    h1_dimension,
    is_rigid_coxeter_gl,
    residue_representative,
    rigid_table_simple_type,
)
from .errors import (
    BudgetExceededError,
    DescentGuardError,
    DsKitError,
    InputError,
    ResonantError,
    TruncationError,
)
from .formal import (
    CertifiedSlope,
    CoxeterFormalType,
    FormalConnection,
    RegularSingularCandidate,
    SlopeVerdict,
    StandardParahoric,
    Stratum,
    UpperBoundOnly,
    certify_slope,
    coxeter_canonical_type,
    is_fundamental,
    leading_stratum,
    omega_power,
    regsing_normalize,
    standard_parahorics,
)
from .fuchsian import (
    CBData,
    FuchsianRigidity,
    build_cb_data,
    fuchsian_ds_exists,
    fuchsian_rigidity,
)
from .laurent import LaurentMatrix
from .rootsys import (
    DEFAULT_BUDGET,
    Quiver,
    RootClass,
    classify_root,
    in_sigma_lambda,
    p_value,
    positive_roots_leq,
)
from .unramified import (
    HiroeData,
    UnramBlock,
    UnramFormalType,
    build_base_quiver,
    build_hiroe_data,
    count_rank2_moduli,
    unramified_ds_exists,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CBData",
    "CertifiedSlope",
    "CharPolySpec",
    "CoxeterFormalType",
    "DEFAULT_BUDGET",
    "DescentGuardError",
    "DsKitError",
    "FormalConnection",
    "FuchsianRigidity",
    "HiroeData",
    "InputError",
    "LaurentMatrix",
    "OrbitSpec",
    "Quiver",
    "RegularSingularCandidate",
    "ResonantError",
    "RootClass",
    "Scalar",
    "SimpleTypeQuery",
    "SlopeVerdict",
    "StandardParahoric",
    "Stratum",
    "TruncationError",
    "UnramBlock",
    "UnramFormalType",
    "UpperBoundOnly",
    "as_partition",
    "build_base_quiver",
    "build_cb_data",
    "build_hiroe_data",
    "certify_slope",
    "classify_root",
    "count_rank2_moduli",
    "coxeter_canonical_type",
    "coxeter_ds_decide",
    "ds_generator",
    "dual_partition",
    "factor_ranks",
    "fuchsian_ds_exists",
    "fuchsian_rigidity",
    "h1_dimension",
    "in_sigma_lambda",
    "is_fundamental",
    "is_rigid_coxeter_gl",
    "leading_stratum",
    "min_partition_with_r_parts",
    "omega_power",
    "orbit_dim",
    "p_value",
    "partitions_of",
    "positive_roots_leq",
    "regsing_normalize",
    "residue_representative",
    "rigid_table_simple_type",
    "standard_parahorics",
    "unramified_ds_exists",
    "__version__",
]
