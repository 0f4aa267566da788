"""Numerical laboratory for spectra of random tridiagonal matrices with
periodic closure.

The package samples coefficient ensembles, builds the matrix family
(asymmetric operator, symmetric reference, rank-2 corner perturbation and
transfer matrices), estimates the limit-theory objects (integrated density
of states, Lyapunov exponent, log-potential) and traces the predicted
eigenvalue curves with their density.  A command line front end under
``tricurves.cli`` orchestrates reproducible experiments.
"""

from .errors import (
    ValidationError,
    NumericalError,
    EigenSolveError,
    SingularResolventError,
    VerificationFailure,
)
from .ensembles import (
    DistributionSpec,
    EnsembleSpec,
    CoefficientSequence,
    sample,
    analytic_means,
    mean_log_coupling,
)
from .operators import OperatorBundle, TransferState, build
from .eigensolvers import SpectrumResult, ResolventCorners, spectrum, resolvent_corners, rank2_det
from .spectral import IdsEstimate, LyapunovEstimate, estimate_ids, lyapunov_transfer, lyapunov_thouless
from .curves import CurveModel, coupling_g, trace_curve, real_support_sigma, limit_measure_integral

__version__ = "0.1.0"
