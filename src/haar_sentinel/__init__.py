"""Statistical verification of Haar-randomness via observable spectra."""

__version__ = "0.8.0"

from .ensembles import (
    EnsembleSpec,
    generate_expectation_samples,
    natural_assignment,
)
from .haar_moments import (
    MomentBounds,
    MomentValue,
    exact_moment,
    haar_variance,
    moment_bounds,
    required_samples,
    sampling_error_bound,
)
from .mub import (
    MubBasis,
    MubSet,
    UnsupportedDimensionError,
    check_mub,
    mub_basis,
    mub_complete_set,
)
from .spectrum import (
    EigenAssignment,
    Permutation,
    Spectrum,
    apply_permutation,
    expand,
    make_spectrum,
    number_operator,
    number_operator_assignment,
    trace,
)
from .verify import (
    MomentEstimate,
    RandomnessReport,
    average_randomness,
    estimate_moment,
    load_samples,
    mub_randomness,
    observable_estimates,
    permutation_randomness,
)

__all__ = [
    "EigenAssignment",
    "EnsembleSpec",
    "MomentBounds",
    "MomentEstimate",
    "MomentValue",
    "MubBasis",
    "MubSet",
    "Permutation",
    "RandomnessReport",
    "Spectrum",
    "UnsupportedDimensionError",
    "apply_permutation",
    "average_randomness",
    "check_mub",
    "estimate_moment",
    "exact_moment",
    "expand",
    "generate_expectation_samples",
    "haar_variance",
    "load_samples",
    "make_spectrum",
    "moment_bounds",
    "mub_basis",
    "mub_complete_set",
    "mub_randomness",
    "natural_assignment",
    "number_operator",
    "number_operator_assignment",
    "observable_estimates",
    "permutation_randomness",
    "required_samples",
    "sampling_error_bound",
    "trace",
]
