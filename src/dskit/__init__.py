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
    as_partition,
    dual_partition,
    min_partition_with_r_parts,
    orbit_dim,
    partitions_of,
    residue_arm,
)
from .coxeter import (
    SimpleTypeQuery,
    coxeter_ds_decide,
    h1_dimension,
    is_rigid_coxeter_gl,
    residue_representative,
    rigid_table_readings,
)
from .errors import (
    BudgetExceededError,
    DsKitError,
    InputError,
    ResonantError,
    TruncationError,
)
from .formal import (
    CertifiedSlope,
    CoxeterFormalType,
    RegularSingularCandidate,
    SlopeVerdict,
    StandardParahoric,
    Stratum,
    UpperBoundOnly,
    certify_slope,
    is_fundamental,
    leading_stratum,
    omega_power,
    regsing_normalize,
)
from .fuchsian import (
    CBData,
    FuchsianRigidity,
    build_cb_data,
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
)
from .unramified import (
    HiroeData,
    UnramBlock,
    UnramFormalType,
    build_hiroe_data,
    count_rank2_moduli,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CBData",
    "CertifiedSlope",
    "CoxeterFormalType",
    "DEFAULT_BUDGET",
    "DsKitError",
    "FuchsianRigidity",
    "HiroeData",
    "InputError",
    "LaurentMatrix",
    "OrbitSpec",
    "Quiver",
    "RegularSingularCandidate",
    "ResonantError",
    "RootClass",
    "SimpleTypeQuery",
    "SlopeVerdict",
    "StandardParahoric",
    "Stratum",
    "TruncationError",
    "UnramBlock",
    "UnramFormalType",
    "UpperBoundOnly",
    "as_partition",
    "build_cb_data",
    "build_hiroe_data",
    "certify_slope",
    "classify_root",
    "count_rank2_moduli",
    "coxeter_ds_decide",
    "dual_partition",
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
    "regsing_normalize",
    "residue_arm",
    "residue_representative",
    "rigid_table_readings",
    "__version__",
]
