"""Exception hierarchy: one class for each outcome a caller tells apart.

``DataError`` covers anything wrong with input files, schemas, selectors
or stored corpora, and ``AnalysisError`` computations that are starved or
degenerate rather than fed bad bytes; the CLI maps the two to its exit
codes.  Which fault it was is said by the message, which names the file,
line, row, column or selector involved.  A new class is added only for an
outcome that some caller catches separately.
"""


class DisclimError(Exception):
    """Base class for all library errors."""


class DataError(DisclimError):
    """Bad input data: parse, schema, coercion, selection or persistence."""


class AnalysisError(DisclimError):
    """A computation that cannot proceed on otherwise valid data."""


class EmptyIntersectionError(AnalysisError):
    """Series share no common year; nothing to join."""


class TooFewPairsError(AnalysisError):
    def __init__(self, n: int, minimum: int = 3):
        self.n = n
        super().__init__(f"only {n} complete pairs; need at least {minimum}")


class ZeroVarianceError(AnalysisError):
    """A constant series makes the coefficient undefined."""
