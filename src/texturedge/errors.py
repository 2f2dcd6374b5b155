"""Exception types raised by the texturedge library.

Every library-specific failure derives from :class:`TexturedgeError` so
callers can catch one base class. The CLI maps these onto exit codes
(data errors vs. internal invariant violations). A parameter outside its
range, which the caller chose, is a plain ``ValueError``, not one of
these, and the CLI reports it as a usage error.
"""


class TexturedgeError(Exception):
    """Base class for all texturedge errors."""


# --- image decoding / dataset ingest ---------------------------------------

class BadMagicError(TexturedgeError):
    """Input does not start with a supported PGM magic number."""


class TruncatedDataError(TexturedgeError):
    """A PGM or texture-map stream does not match its header."""


class MaxvalUnsupportedError(TexturedgeError):
    """PGM maxval exceeds 255 (only 8-bit rasters are supported)."""


class MalformedLineError(TexturedgeError):
    """An annotation index line does not match the expected format."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class CenterOutOfBoundsError(TexturedgeError):
    """ROI center lies outside the image."""


# --- enhancement ------------------------------------------------------------

class TilesTooManyError(TexturedgeError):
    """More equalization tiles requested than pixels along an axis."""


# --- texture ----------------------------------------------------------------

class EmptyRegionError(TexturedgeError):
    """Co-occurrence region contains no pixels."""


class WindowTooLargeError(TexturedgeError):
    """Image too small to support windowed texture computation."""


class DimensionMismatchError(TexturedgeError):
    """Rasters that must share dimensions do not."""


# --- segmentation / evaluation ----------------------------------------------

class DegenerateMapError(TexturedgeError):
    """Map is constant; no threshold can split it."""


class NoPositivesError(TexturedgeError):
    """Ground truth contains no positive pixels in the evaluated region."""


class NoNegativesError(TexturedgeError):
    """Ground truth contains no negative pixels in the evaluated region."""


# --- pipeline ---------------------------------------------------------------

class NoGroundTruthError(TexturedgeError):
    """Record carries no center/radius annotation to work from."""


class MissingImageError(TexturedgeError):
    """Dataset does not contain an image for the requested id."""


class MissingRecordError(TexturedgeError):
    """Annotation index has no record for the requested id."""


class InternalInvariantError(TexturedgeError):
    """A cross-check the library guarantees has failed (a bug)."""
