"""Exception hierarchy and warning categories.

The three error families map onto the CLI exit codes: configuration/usage
problems exit 1, data/validation problems exit 2, numerical failures exit 3.
"""


class CenterEffectsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ConfigError(CenterEffectsError):
    """Invalid configuration, parameters, or model specification."""

    exit_code = 1


class SpecError(ConfigError):
    """A design specification references unknown terms or is malformed."""


class ParameterError(ConfigError):
    """A numeric parameter is outside its valid range."""


class UsageError(ConfigError):
    """Bad command-line usage."""


class DataError(CenterEffectsError):
    """Input data is structurally invalid for the requested computation."""

    exit_code = 2


class SchemaError(DataError):
    """A required column is missing from (or duplicated in) the input."""


class ParseError(DataError):
    """A cell could not be parsed as the required numeric type."""


class EmptyInputError(DataError):
    """The input contains no data rows."""


class MissingDataError(DataError):
    """A row contains a missing cell and dropping is not enabled."""


class PositivityError(DataError):
    """Some (center, arm) cell is empty."""

    def __init__(self, message, cells=()):
        super().__init__(message)
        self.cells = tuple(cells)


class InsufficientDataError(DataError):
    """Too few observations for the requested computation."""


class ShapeError(DataError):
    """Array dimensions do not match the fitted model or each other."""


class NumericalError(CenterEffectsError):
    """Numerical failure during estimation."""

    exit_code = 3


class EmptyFitError(NumericalError):
    """A model fit was requested on zero rows."""


class DegenerateFitError(NumericalError):
    """The fit is not identified (single-class outcome, unobserved category)."""


class DivisionError(NumericalError):
    """A weighting denominator is zero on an observation the estimator uses."""


class NoDonorError(NumericalError):
    """The transport estimator has no donor centers (m = 1)."""


class ComparatorError(NumericalError):
    """The comparator regression lost its treatment column to aliasing."""


class TestError(NumericalError):
    """A hypothesis test could not be computed (e.g. singular covariance)."""

    __test__ = False  # keep pytest from collecting this exception class


class SaturatedModelError(NumericalError):
    """A regression has no residual degrees of freedom."""


class BootstrapError(NumericalError):
    """Too many bootstrap resamples failed."""


class StudyError(NumericalError):
    """Too many simulation replicates failed."""


class AliasedColumnsWarning(UserWarning):
    """Rank-deficient design: aliased columns were dropped."""


class SeparationWarning(UserWarning):
    """Complete or quasi-complete separation detected in a logistic or multinomial fit."""


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at the iteration cap before converging."""
