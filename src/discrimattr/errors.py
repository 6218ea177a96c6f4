"""Exception hierarchy shared across the package."""
from contextlib import contextmanager


class DiscrimAttrError(Exception):
    """Base class for all package errors."""


class ConfigError(DiscrimAttrError):
    """Invalid configuration or usage (missing paths, bad flags)."""


class DataFormatError(DiscrimAttrError):
    """Malformed input data. Carries file/line context when available."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


@contextmanager
def open_text(path, newline=None):
    """`path` read as UTF-8 text, a leading byte-order mark dropped; a file that
    cannot be opened or decoded is a `DataFormatError` naming it. Keep the block
    to reading: any `OSError` in it is reported as this file's."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as e:
        raise DataFormatError(f"cannot read: {e}", path=str(path))


class EmptyCorpusError(DataFormatError):
    """Raised when an operation needs at least one document."""


class EvidenceError(DiscrimAttrError):
    """A positive verdict reached rendering without usable evidence."""
