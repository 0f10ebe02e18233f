"""Exception hierarchy shared across the engine."""


class OpenPopError(Exception):
    """Base class for all errors raised by openpop."""


# --- catalog ---------------------------------------------------------------

class CatalogError(OpenPopError):
    pass


class DuplicateNameError(CatalogError):
    pass


class NoGlobalPopulationError(CatalogError):
    pass


class UnknownPopulationError(CatalogError):
    pass


class UnknownRelationError(CatalogError):
    pass


class UnknownAttributeError(CatalogError):
    pass


class TypeMismatchError(CatalogError):
    pass


class InvalidPercentError(CatalogError):
    pass


class TooManyAttributesError(CatalogError):
    pass


class NegativeCountError(CatalogError):
    pass


class CsvParseError(CatalogError):
    """Malformed ingestion input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CatalogIoError(CatalogError):
    pass


class FormatVersionMismatchError(CatalogError):
    pass


# --- dialect ---------------------------------------------------------------

class DialectSyntaxError(OpenPopError):
    """Parse failure with source location and the expected token set."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        if expected:
            message = f"{message} (expected {' or '.join(expected)})"
        super().__init__(f"{line}:{col}: {message}")


# --- ipf -------------------------------------------------------------------

class StructuralZeroError(OpenPopError):
    pass


class EmptySampleError(OpenPopError):
    pass


# --- generator -------------------------------------------------------------

class NoPopulationMarginalsError(OpenPopError):
    pass


class EmptyDistributionError(OpenPopError):
    pass


class NonFiniteLossError(OpenPopError):
    pass


class ConfigError(OpenPopError):
    pass


# --- executor --------------------------------------------------------------

class NoUsableSampleError(OpenPopError):
    pass


class NoMetadataError(OpenPopError):
    pass


class UnknownMechanismNoMetadataError(NoMetadataError):
    pass
