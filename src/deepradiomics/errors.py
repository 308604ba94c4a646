"""Exception types raised across the pipeline, and the file boundary.

Every failure mode a caller might want to catch has its own class; all of
them derive from RadiomicsError so the CLI can trap the lot in one place.

Every file the package touches goes through the three boundary functions
at the end: read_input, json_object and write_output.  They turn OS,
decoding and JSON failures into RadiomicsErrors that name the path.
"""

import json
from pathlib import Path


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
    """Resampling would produce a zero-sized axis or more than MAX_VOXELS voxels."""


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


# --- the file boundary -------------------------------------------------------

def read_input(path, what: str, error: type, missing: type | None = None,
               binary: bool = False, newline: str | None = None):
    """The bytes (`binary`) or UTF-8 text, read with open()'s `newline`, of input file `path`.

    A missing file raises `missing` (default `error`); other OS and decoding failures raise `error`.
    """
    try:
        if binary:
            return Path(path).read_bytes()
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except FileNotFoundError:
        raise (missing or error)(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:  # a directory, say; bad UTF-8
        raise error(f"{path}: cannot read {what}: {e}") from e


def json_object(text, path, error: type) -> dict:
    """The JSON object in `text` (str or UTF-8 bytes); bad, deep or non-object JSON raises `error`."""
    try:
        doc = json.loads(text.decode() if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as e:
        raise error(f"{path}: bad JSON: {e}") from e
    if not isinstance(doc, dict):
        raise error(f"{path}: must be a JSON object")
    return doc


def write_output(path, data, what: str) -> None:
    """Write `data` (bytes, or str written as UTF-8) to `path`; any OS failure is UnwritableOutput."""
    try:
        Path(path).write_bytes(data.encode() if isinstance(data, str) else data)
    except OSError as e:  # a directory, say
        raise UnwritableOutput(f"{path}: cannot write {what}: {e}") from e


def is_int_at_least(value, low: int) -> bool:
    """True for a JSON integer >= low; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low
