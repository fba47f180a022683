"""Probabilistic reachable sets for saturated linear systems under unbounded noise.

The package certifies a quadratic contraction rate over the saturation
hull of a linear feedback loop, tightens it through the region of
linearity when the noise permits, and turns the resulting expectation
bounds into ellipsoidal probabilistic reachable sets and ultimate bounds.
A Monte Carlo layer and a CLI validate and export the results.
"""

from .bounds import (
    ContractionProfile,
    effective_rate,
    expectation_bound_sequence,
    linear_region_scaling,
    noise_energy,
    select_rate,
)
from .certify import (
    ContractionCertificate,
    VerificationReport,
    closed_loop_rate,
    min_contraction_rate,
    synthesize_contraction,
    verify_certificate,
)
from .errors import (
    CertificateError,
    ConfigError,
    NotApplicableError,
    PreconditionError,
    SatreachError,
    SynthesisError,
)
from .model import (
    FeedbackGain,
    SystemSpec,
    saturate,
    vertex_matrices,
)
from .montecarlo import (
    EnsembleStats,
    SimulationConfig,
    simulate_ensemble,
)
from .sets import Ellipsoid, area, boundary_polyline, prs_sequence, pub

__version__ = "0.6.0"

__all__ = [
    "CertificateError",
    "ConfigError",
    "ContractionCertificate",
    "ContractionProfile",
    "Ellipsoid",
    "EnsembleStats",
    "FeedbackGain",
    "NotApplicableError",
    "PreconditionError",
    "SatreachError",
    "SimulationConfig",
    "SynthesisError",
    "SystemSpec",
    "VerificationReport",
    "area",
    "boundary_polyline",
    "closed_loop_rate",
    "effective_rate",
    "expectation_bound_sequence",
    "linear_region_scaling",
    "min_contraction_rate",
    "noise_energy",
    "prs_sequence",
    "pub",
    "saturate",
    "select_rate",
    "simulate_ensemble",
    "synthesize_contraction",
    "verify_certificate",
    "vertex_matrices",
]
