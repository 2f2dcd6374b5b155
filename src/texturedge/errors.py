"""Exception types raised by the texturedge library, one per CLI exit code.

A parameter outside its range, which the caller chose, is a plain
``ValueError`` (exit 1). Input the data decides — a PGM or texture map that
does not decode, a missing image or record, a circle outside the image, a
constant map, a reference with no positive or negative pixels — raises
:class:`TexturedgeError` (exit 2), whose message says what is wrong. A
failed cross-check the library guarantees raises
:class:`InternalInvariantError` (exit 3).
"""


class TexturedgeError(Exception):
    """The input data cannot be processed (exit 2)."""


class MalformedLineError(TexturedgeError):
    """An annotation index line does not match the expected format."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class InternalInvariantError(TexturedgeError):
    """A cross-check the library guarantees has failed (a bug, exit 3)."""
