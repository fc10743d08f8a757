"""Anisotropic hyperelastic membrane and bending models for hexagonal 2D
crystals, with finite-difference verification of every analytic derivative.
"""

from .surface_tensors import (
    NotPositiveDefiniteError,
    SpectralDecomp,
    SurfTensor2,
    Tangent4,
    boxtimes_product,
    oplus_product,
    rearrange,
    spectral,
    sqrt_spd,
    tangent_from_pairs,
    tensor_product,
)
from .lattice import ZIGZAG_OFFSET, LatticeFrame, make_frame, structural_contraction
from .invariants import (
    CurvatureInvariants,
    FITTED_STRETCH_RATIO,
    InvariantState,
    LogInvariantState,
    approx_log_invariants,
    invariants_C,
    invariants_C_kappa,
    invariants_log_exact,
)
from .membrane_material import (
    GGA,
    LDA,
    PARAM_SETS,
    MaterialParams,
    StressResult,
    energy_log,
    energy_metric,
    material_preset,
    stress_log,
    stress_metric,
    stress_tangent_log,
    stress_tangent_metric,
    tangent_log,
    tangent_metric,
    tangent_metric_oplus,
)
from .bending_geometry import (
    AnalyticSurface,
    BendingTangents,
    SurfacePointGeometry,
    bending_stress_moment,
    bending_tangents,
    canham_energy,
    cone_surface,
    cylinder_surface,
    evaluate_geometry,
    flat_patch,
    geometry_from_metrics,
    reparametrized,
    sphere_surface,
)
from .scenarios import (
    BeamParams,
    ContactParams,
    CurvePoint,
    DeformationProtocol,
    apex_angle,
    beam_force,
    benchmark_models,
    compare_models,
    contact_potential,
    invariant_approximation_errors,
    peak_of_curve,
    run_curve,
    traction_extremum,
    verify_derivatives,
)

__version__ = "1.0.0"
