"""Bohl exponents, exponential dichotomies and dichotomy spectra for
nonautonomous linear difference systems x(n+1) = A(n) x(n) on the integers.

The package estimates per-solution Bohl intervals, certifies exponential
dichotomies of scaled systems with explicit (K, rho) constants, assembles
the dichotomy spectrum with its gap ranks, builds the spectral bundle
fibers, and mechanically verifies that sampled solutions respect the
containments the theory predicts.
"""

from .bohl import (BohlEstimate, BohlParams, GeneralExponents, bohl_exponents,
                   general_exponents, scalar_bohl, scalar_bohl_estimate)
from .bundles import (ProjectorFamily, SpectralBundleFiber, WhitneyReport,
                      bundle_fibers, projector_family,
                      restricted_fiber_system, whitney_sum_check)
from .containment import (ContainmentReport, SampleRow,
                          verify_endpoint_attainability,
                          verify_fiber_containment, verify_global_containment)
from .dichotomy import (DecayFit, DichotomyAnalyzer, DichotomyParams,
                        DichotomyVerdict, SpectralInterval, SpectrumEstimate,
                        estimate_spectrum, fit_decay_constants,
                        periodic_spectrum_oracle, scalar_spectrum,
                        test_dichotomy)
from .errors import (DichospecError, DecayFitError, ParameterError,
                     ProjectorDriftError, SingularMatrixError,
                     SpectrumConsistencyError, SubspaceError, ValidationError,
                     WindowCapError)
from .scenario import Scenario, ScenarioError, canonical_json, load_scenario
from .sequences import BoundReport, MatrixSequence, ScalarSequence
from .transition import (OrbitLog, ScaledMatrix, WindowProducts,
                         orbit_lognorms, transition)
from .triangularize import (KinematicPair, SignificanceReport,
                            diagonal_significance, qr_triangularize)

__version__ = "0.1.0"

__all__ = [
    "BohlEstimate", "BohlParams", "GeneralExponents", "bohl_exponents",
    "general_exponents", "scalar_bohl", "scalar_bohl_estimate",
    "ProjectorFamily", "SpectralBundleFiber", "WhitneyReport", "bundle_fibers",
    "projector_family", "restricted_fiber_system",
    "whitney_sum_check",
    "ContainmentReport", "SampleRow", "verify_endpoint_attainability",
    "verify_fiber_containment", "verify_global_containment",
    "DecayFit", "DichotomyAnalyzer", "DichotomyParams", "DichotomyVerdict",
    "SpectralInterval", "SpectrumEstimate", "estimate_spectrum",
    "fit_decay_constants", "periodic_spectrum_oracle", "scalar_spectrum",
    "test_dichotomy",
    "DichospecError", "DecayFitError", "ParameterError", "ProjectorDriftError",
    "SingularMatrixError", "SpectrumConsistencyError", "SubspaceError",
    "ValidationError", "WindowCapError",
    "Scenario", "ScenarioError", "canonical_json", "load_scenario",
    "BoundReport", "MatrixSequence", "ScalarSequence",
    "OrbitLog", "ScaledMatrix", "WindowProducts", "orbit_lognorms", "transition",
    "KinematicPair", "SignificanceReport", "diagonal_significance",
    "qr_triangularize",
    "__version__",
]
