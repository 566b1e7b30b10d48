"""Exception hierarchy shared across the package."""


class StockcastError(Exception):
    """Base class for all package-specific errors."""


# --- data ingestion ---------------------------------------------------------

class EmptySeries(StockcastError):
    """Fewer than two valid rows survived parsing."""


class DuplicateDate(StockcastError):
    """The same calendar date appears more than once."""


# --- preprocessing ----------------------------------------------------------

class EmptyPartition(StockcastError):
    """A train/test split left one side empty."""


class DegenerateRange(StockcastError):
    """All values equal; a min-max scaler cannot be fit."""


# --- windowing and models ---------------------------------------------------

class WindowTooLarge(StockcastError):
    """The series is too short for the requested window/horizon."""


class WindowTooSmall(StockcastError):
    """The input window is too short for the requested architecture."""


class ArityMismatch(StockcastError):
    """Model input/output arity disagrees with the forecasting call."""


class ShapeMismatch(StockcastError):
    """Array shapes disagree in a layer or optimizer call, or a gradient is missing."""


# --- training and statistics ------------------------------------------------

class NonFiniteGradient(StockcastError):
    """A gradient check produced NaN or infinite gradients."""


class NonFiniteLoss(StockcastError):
    """Training diverged to a NaN or infinite loss."""


class DegenerateDifferential(StockcastError):
    """The DM loss differential is identically zero (or has no variance)."""


class TooFewRuns(StockcastError):
    """A loss interval needs at least two runs."""


# --- CLI / configuration ----------------------------------------------------

class ParseError(StockcastError):
    """A config or input file failed to parse; message names the field."""


class MissingDataFile(StockcastError):
    """A stock referenced by the config has no CSV in the data directory."""


class MalformedInput(StockcastError):
    """A CSV handed to a command does not match the expected schema."""
