"""Integral invariants of holomorphic vector fields on explicit compact
complex manifolds, computed two independent ways: direct quadrature of the
divergence against top powers of the Ricci form of an automorphic volume
density, and exact rational residue summation over the zero set."""

__version__ = "0.1.0"

from .errors import (
    DifferentiationQualityError,
    DomainError,
    EvaluationError,
    HoloinvError,
    IllPosedIntegrandError,
    NonInvertibleClassError,
    NonsingularityError,
)
from .geometry import (
    Character,
    DeckGenerator,
    ManifoldSpec,
    Transition,
    VectorFieldSpec,
    VolumeFormSpec,
    deck_group_report,
    sample_domain_points,
    verify_automorphic,
    verify_field_transitions,
    verify_invariant_axes,
    verify_invariant_field,
    verify_volume_transitions,
)
from .invariant import (
    NORMALIZATION,
    InvariantResult,
    deformation_invariant_curve,
    interpolated_volume,
    invariant_alternative,
    invariant_direct,
)
from .localization import (
    CohomologyClass,
    FixedPointData,
    ZeroComponent,
    class_inverse,
    class_mul,
    class_pow,
    component_contribution,
    component_contribution_parts,
    fixed_point_data_from_dict,
    fixed_point_data_to_dict,
    load_fixed_point_data,
    localization_sum,
    rescale_field,
    unnormalized_invariant,
)
from .quadrature import (
    IntegrationDomain,
    IntegrationResult,
    QuadratureSpec,
    integrate,
)
from .registry import ExampleBundle, registry_get, registry_names

__all__ = [name for name in dir() if not name.startswith("_")]
