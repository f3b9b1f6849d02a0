"""Exception hierarchy.

Two broad families matter to callers (and to the CLI's exit codes):
``DataError`` for anything wrong with input files, schemas, or stored
corpora, and ``AnalysisError`` for computations that are starved or
degenerate rather than fed bad bytes.
"""


class DisclimError(Exception):
    """Base class for all library errors."""


class DataError(DisclimError):
    """Bad input data: parse, schema, coercion, or persistence problems."""


class ParseError(DataError):
    pass


class RaggedRowError(ParseError):
    """A data row whose cell count differs from the header's.

    ``line_number`` is 1-based and counts physical input lines, header
    included.
    """

    def __init__(self, line_number: int, expected: int, got: int,
                 source_path: str = "<memory>"):
        self.line_number = line_number
        self.expected = expected
        self.got = got
        self.source_path = source_path
        super().__init__(
            f"{source_path}: line {line_number}: expected {expected} cells, got {got}"
        )


class EmptyInputError(ParseError):
    pass


class DuplicateHeaderError(ParseError):
    def __init__(self, name: str, source_path: str = "<memory>"):
        self.name = name
        self.source_path = source_path
        super().__init__(f"{source_path}: duplicate column name: {name!r}")


class SchemaError(DataError):
    pass


class AmbiguousSchemaError(SchemaError):
    pass


class UnknownSchemaError(SchemaError):
    pass


class UnparseableNumberError(DataError):
    """A cell that should be numeric but is not.  Row is 1-based over data rows."""

    def __init__(self, cell: str, row: int, column: str):
        self.cell = cell
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: cannot parse {cell!r} as a number")


class YearOutOfRangeError(DataError):
    def __init__(self, year: int, row: int | None = None):
        self.year = year
        self.row = row
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}year {year} outside [1850, 2100]")


class NegativeValueError(DataError):
    pass


class UnknownSelectorError(DataError):
    pass


class UnknownMeasureError(DataError):
    pass


class ManifestMissingError(DataError):
    pass


class DigestMismatchError(DataError):
    pass


class KindMismatchError(DataError):
    pass


class MissingIsoCodesError(DataError):
    """Choropleth input contains entities without ISO codes; none are dropped."""

    def __init__(self, entities: list[str]):
        self.entities = list(entities)
        names = ", ".join(self.entities)
        super().__init__(f"entities without ISO codes: {names}")


class EmptyMatrixError(DataError):
    pass


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
