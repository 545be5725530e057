"""Exact intersection theory and classification for regular del Pezzo
surfaces over imperfect fields: divisor-class arithmetic on the base-change
models, the p=2 / p=3 conductor tables, volume bounds, and the example
gallery."""

from .lattice import (
    DivisorClass,
    ModelMismatchError,
    NonIntegralClassError,
    NotCartierError,
    SurfaceModel,
    UnsupportedModelError,
    blowup,
    canonical_square,
    canonicalize_model,
    class_from_json,
    class_to_json,
    discrepancy,
    display_class,
    display_model,
    exceptional_classes,
    hirzebruch,
    intersect,
    is_ample,
    is_cartier,
    is_effective,
    is_nef,
    lattice_model,
    model_from_json,
    model_to_json,
    nakai_ample,
    projective_plane,
    proper_transform,
    quadric,
    resolution_pullback,
    riemann_roch_chi,
    total_transform,
    weighted_plane,
)
from .classify import (
    BoundContext,
    ClassificationRow,
    FilterAudit,
    GeometricallyNormalRegime,
    RestrictionCase,
    audit_m_filters,
    classify_rows,
    ell_max,
    fujita_multiple,
    gg_exponent,
    restriction_cases,
    restriction_cases_oracle,
    va_threshold,
    volume_bound_epsilon,
    volume_bound_r,
)
from .gallery import (
    ExampleRecord,
    GalleryReport,
    build_gallery,
    complete_intersection_is_del_pezzo,
    complete_intersection_k2,
    hypersurface_is_del_pezzo,
    hypersurface_k2,
    verify_gallery,
)

__version__ = "0.1.0"
