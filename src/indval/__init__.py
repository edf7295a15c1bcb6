"""Exact inductive valuations on Q[x] over a p-adic base.

Augmentation chains, residual polynomial operators, key-polynomial detection
and lifting, graded factorization, and limit augmentations of continuous
families; all arithmetic exact.
"""

from types import ModuleType as _ModuleType

from .augmentation import (
    ContinuousChain,
    LimitValuation,
    StabilityReport,
    augment,
    continuous_chain_from_json,
    limit_augment,
    stability,
    validate_continuous_chain,
)
from .basefield import ExpansionReport, PadicValuation, Poly, phi_expansion
from .chains import (
    InductiveValuation,
    Step,
    chain_from_json,
    expansion_report,
    is_equivalent,
    is_minimal,
    is_unit,
    key_semivaluation,
    validate_chain,
)
from .errors import (
    ChainError,
    DomainError,
    IndvalError,
    InvariantError,
    ParseError,
    ResourceError,
)
from .keys import (
    GradedFactorization,
    enumerate_keys,
    graded_divides,
    graded_factorization,
    lift_key,
)
from .residual import (
    GradedDecomposition,
    HomogeneousUnit,
    KeyCheck,
    ResidualData,
    ResidualIdeal,
    decompose,
    is_key,
    key_check,
    residual_data,
    residual_ideal,
    residual_lift,
    residual_poly,
    unit_lift,
    unit_residue,
)
from .towers import (
    TowerElem,
    TowerField,
    TowerPoly,
    ff_factor,
    ff_is_irreducible,
    monic_irreducibles,
    tower_extend,
)
from .values import (
    INFINITY,
    Value,
    in_subgroup,
    is_commensurable,
    subgroup_index,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
