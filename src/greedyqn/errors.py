"""Exception types shared across the package."""


class GreedyQnError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(GreedyQnError):
    """Operands have incompatible shapes."""


class DimensionTooLarge(GreedyQnError):
    """Problem dimension exceeds the dense diagnostics' cap, or a dense array numpy can index."""


class NotPositiveDefinite(GreedyQnError):
    """A factorization pivot fell below the positive-definiteness threshold."""


class SingularCapacitance(GreedyQnError):
    """The 2x2 capacitance block of a low-rank inverse update is singular.

    The requested update would make the maintained operator singular; the
    caller must reject the update or refactorize from scratch.
    """


class NonPositiveScale(GreedyQnError):
    """A rescale factor must be strictly positive."""


class NonPositiveCurvature(GreedyQnError):
    """A curvature value that must be positive was not (operator lost
    definiteness along the probed direction)."""


class NonPositiveHessianDiagonal(GreedyQnError):
    """A Hessian diagonal entry is not positive; the oracle's Hessian lost
    definiteness."""


class NotConverged(GreedyQnError):
    """An iterative solve met neither of its stopping tests within its step budget."""


class NonFiniteResult(GreedyQnError):
    """An oracle output, a scale or an operator entry is NaN or inf, or a ratio would overflow."""


class MalformedLine(GreedyQnError):
    """A dataset line could not be parsed."""

    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        msg = f"line {line_no}: malformed"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonMonotoneIndices(GreedyQnError):
    """Feature indices within a dataset line are not strictly increasing."""

    def __init__(self, line_no):
        self.line_no = line_no
        super().__init__(f"line {line_no}: feature indices must be strictly increasing")


class UnmappedLabel(GreedyQnError):
    """A class label is not in {-1, +1} after applying the label map."""

    def __init__(self, line_no, value):
        self.line_no = line_no
        self.value = value
        super().__init__(
            f"line {line_no}: label {value!r} is not in {{-1, +1}} and no mapping covers it"
        )


class DatasetNotFound(GreedyQnError):
    """A referenced dataset file does not exist or cannot be read."""


class InvalidPlan(GreedyQnError):
    """An experiment plan failed validation."""
