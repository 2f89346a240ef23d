"""Greedy quasi-Newton methods from the Broyden family.

SR1, DFP, BFGS and fixed-mixture updates driven by greedily selected (or
randomized) basis directions against exact Hessian actions, with inverse
maintenance, convergence diagnostics, objective oracles, dataset ingestion,
and a benchmark CLI.
"""

from .broyden import (
    UpdateKind,
    UpdateRule,
    broyden_update,
    greedy_direction,
    relative_op_error,
    sigma,
)
from .data_io import (
    LibsvmDataset,
    RngStream,
    SyntheticSpec,
    generate_logsumexp,
    generate_start,
    parse_libsvm,
    serialize_libsvm,
)
from .errors import (
    DatasetNotFound,
    DimensionMismatch,
    DimensionTooLarge,
    GreedyQnError,
    InvalidPlan,
    MalformedLine,
    NonFiniteResult,
    NonMonotoneIndices,
    NonPositiveCurvature,
    NonPositiveHessianDiagonal,
    NonPositiveScale,
    NotPositiveDefinite,
    SingularCapacitance,
    UnmappedLabel,
)
from .objectives import (
    LogisticProblem,
    LogSumExpProblem,
    ObjectiveOracle,
    QuadraticProblem,
)
from .operator_core import SpdState, factorize
from .solvers import (
    CONVERGED,
    MAX_ITER_REACHED,
    NUMERICAL_FAILURE,
    DirectionKind,
    DirectionStrategy,
    FunctionResidual,
    GradientNorm,
    IterationRecord,
    RunTrace,
    SolverConfig,
    TraceOptions,
    classical_qn,
    gradient_method,
    lambda_f,
    solve_general,
)

__version__ = "0.1.0"

__all__ = [
    "UpdateKind",
    "UpdateRule",
    "broyden_update",
    "greedy_direction",
    "relative_op_error",
    "sigma",
    "LibsvmDataset",
    "RngStream",
    "SyntheticSpec",
    "generate_logsumexp",
    "generate_start",
    "parse_libsvm",
    "serialize_libsvm",
    "GreedyQnError",
    "DatasetNotFound",
    "DimensionMismatch",
    "DimensionTooLarge",
    "InvalidPlan",
    "MalformedLine",
    "NonFiniteResult",
    "NonMonotoneIndices",
    "NonPositiveCurvature",
    "NonPositiveHessianDiagonal",
    "NonPositiveScale",
    "NotPositiveDefinite",
    "SingularCapacitance",
    "UnmappedLabel",
    "LogisticProblem",
    "LogSumExpProblem",
    "ObjectiveOracle",
    "QuadraticProblem",
    "SpdState",
    "factorize",
    "CONVERGED",
    "MAX_ITER_REACHED",
    "NUMERICAL_FAILURE",
    "DirectionKind",
    "DirectionStrategy",
    "FunctionResidual",
    "GradientNorm",
    "IterationRecord",
    "RunTrace",
    "SolverConfig",
    "TraceOptions",
    "classical_qn",
    "gradient_method",
    "lambda_f",
    "solve_general",
]
