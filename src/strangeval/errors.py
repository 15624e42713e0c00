"""Exception types shared by the exact, operator, and numeric layers.

``INPUT_ERRORS`` names the ones a property of the input raises, which the
command line reports with exit code 2; ``InternalInconsistencyError`` is
the one that is always a bug."""


class ParameterError(ValueError):
    """Mathematically invalid input: lower-parameter pole, integer c where
    a non-integer is required, and similar precondition violations."""


class InternalInconsistencyError(RuntimeError):
    """An identity the algebra guarantees has failed (nonzero series tail,
    reconstruction mismatch, remainder of the wrong shape).  Always a bug,
    never a property of the input."""


class UnsupportedOperatorError(ValueError):
    """Operator has a coefficient denominator outside powers of x(1-x)."""


class BranchCutError(ValueError):
    """Evaluation point lies on [1, oo), where no branch is defined."""


class DegenerateConnectionError(ValueError):
    """The z -> 1-z connection formula degenerates: c-a-b is an integer
    (decided exactly on the rational parameters) and the two-term form
    divides by zero."""


class GammaPoleError(ValueError):
    """Gamma requested at a nonpositive integer."""


class NonConvergenceError(ArithmeticError):
    """An iteration hit its cap."""


INPUT_ERRORS = (
    ParameterError,
    UnsupportedOperatorError,
    BranchCutError,
    DegenerateConnectionError,
    GammaPoleError,
    NonConvergenceError,
)
