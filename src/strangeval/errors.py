"""Exception types shared by the exact, operator, and numeric layers."""


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
    """An iteration hit its cap; ``best`` carries the final iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
