"""Exception types raised across the pipeline.

Every failure mode a caller might want to catch has its own class; all of
them derive from RadiomicsError so the CLI can trap the lot in one place.
"""


class RadiomicsError(Exception):
    """Base class for all errors raised by this package."""


# --- volume / mask ingestion ---------------------------------------------

class MissingFile(RadiomicsError):
    pass


class MalformedHeader(RadiomicsError):
    """Sidecar is unparseable or inconsistent with the payload."""


class NonFiniteData(RadiomicsError):
    pass


class DegenerateOutput(RadiomicsError):
    """Resampling would produce a zero-sized axis."""


class EmptyMask(RadiomicsError):
    pass


class ShapeMismatch(RadiomicsError):
    pass


# --- network weights -------------------------------------------------------

class WeightsMissing(MissingFile):
    pass


class MalformedWeights(RadiomicsError):
    pass


class NonFiniteWeights(RadiomicsError):
    pass


class IndivisibleDims(RadiomicsError):
    """Pooling input has an odd spatial extent."""


# --- mixture fitting -------------------------------------------------------

class EmptySamples(RadiomicsError):
    pass


class InvalidK(RadiomicsError):
    pass


class LengthMismatch(RadiomicsError):
    pass


# --- classification --------------------------------------------------------

class EmptyTraining(RadiomicsError):
    pass


class SingleClassTraining(RadiomicsError):
    pass


class DimMismatch(RadiomicsError):
    pass


class TooFewRows(RadiomicsError):
    pass


class SingleClass(RadiomicsError):
    pass


# --- survival ---------------------------------------------------------------

class NoEvents(RadiomicsError):
    pass


# --- orchestration -----------------------------------------------------------

class ManifestInvalid(RadiomicsError):
    pass


class UnwritableOutput(RadiomicsError):
    """An output directory or file cannot be created or written."""


class MissingColumn(RadiomicsError):
    pass


class DegenerateLabels(RadiomicsError):
    """Median split put every patient in the same class."""


class UnknownPatient(RadiomicsError):
    pass


class BadMapIndex(RadiomicsError):
    pass
