"""Exception types shared across the solver suite."""


class MajoranaSolverError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(MajoranaSolverError):
    """A potential or expression produced a non-finite value."""


class GridMismatchError(MajoranaSolverError, ValueError):
    """Two grid functions do not share the same grid."""


class DegenerateFunctionError(MajoranaSolverError, ValueError):
    """A function with zero norm cannot be normalized."""


class SusyConsistencyError(MajoranaSolverError):
    """Both sector zero-mode candidates appear normalizable, which is
    impossible for a real superpotential on the line."""


class BrokenSusyError(MajoranaSolverError):
    """An operation that requires an unbroken-SUSY ground state was
    invoked on a broken (or wrong-sector) configuration."""


class InvalidFamilyError(MajoranaSolverError):
    """A shape-invariant family is inconsistent (e.g. a negative
    partial remainder sum, no real spectrum)."""


class UnboundLevelError(MajoranaSolverError):
    """A level asked of a shape-invariant family lies above its bound
    levels, at or past the continuum threshold."""


class DiscretizationError(MajoranaSolverError):
    """The finite-difference oracle produced values incompatible with a
    positive semi-definite operator."""


class InstabilityError(MajoranaSolverError):
    """The time integrator produced non-finite values."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")

    def __reduce__(self):  # pickle rebuilds an exception from its args
        return type(self), (self.step, *self.args)


class DivergenceError(MajoranaSolverError):
    """Norm drift of the integrated state exceeded the hard limit."""


class StationaryStateError(MajoranaSolverError, ValueError):
    """The ground state has no density period."""


class PotentialSyntaxError(MajoranaSolverError, ValueError):
    """A potential expression failed to parse; carries the byte offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"{message} (offset {position})")

    def __reduce__(self):
        return type(self), (self.position, self.message)


class ReservedNameError(MajoranaSolverError, ValueError):
    """A potential parameter has a name no expression can read as it:
    ``x`` or a function's, which an expression reads as the coordinate or
    the function, or a name that is not one identifier."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"parameter {name!r} can never be read: an expression reads x and "
            "function names as themselves, and a parameter name must be one "
            "identifier (a letter or _, then letters, digits or _)"
        )

    def __reduce__(self):
        return type(self), (self.name,)


class ConfigError(MajoranaSolverError, ValueError):
    """A run configuration is malformed or incomplete."""
