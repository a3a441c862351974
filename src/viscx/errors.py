"""Exception hierarchy shared across the package, the by-name enum
lookup whose failure is one of them, the file readers whose messages
name the file on one line, and the line reader of the text formats.

Everything raised on bad data derives from ViscxError so the CLI can map
data problems to a single exit code.
"""

from enum import Enum
from pathlib import Path
from typing import Iterator


class ViscxError(Exception):
    """Base class for all viscx data and pipeline errors."""


class TaxonomyError(ViscxError):
    """Malformed taxonomy input: cycles, dangling parents, duplicate ids."""


class UnknownConceptError(ViscxError):
    """A concept id does not resolve in the lattice or membership table."""


class UnrelatedConceptsError(ViscxError):
    """A chain-length query was made for concepts with no is_a chain."""


class VisParseError(ViscxError):
    """Syntax or validation error in a VIS document, with source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ConfigError(ViscxError):
    """Invalid pipeline configuration file or value."""


class StoreError(ViscxError):
    """Unreadable or inconsistent index store file."""


class UnindexableQueryError(ViscxError):
    """The query text contains no vocabulary concept to search with."""


def one_line(path) -> str:
    """`path` as text with its control characters escaped, so that an
    error message naming it stays on one line; a plain path reads as is."""
    return repr(str(path))[1:-1]


def read_text(path, what: str, error: type[ViscxError] = ViscxError) -> str:
    """The UTF-8 text of the `what` file at `path`, without a leading byte
    order mark (which some editors write), or `error`."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {one_line(p)}: {exc}") from None


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based number, line) for each line of `text`, split at ``\\n``
    only, that is neither blank nor a ``#`` comment, which may be
    indented."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def read_bytes(path, what: str, error: type[ViscxError] = ViscxError) -> bytes:
    """The bytes of the `what` file at `path`, which must be UTF-8, or
    `error` as `read_text` words it."""
    p = Path(path)
    try:
        data = p.read_bytes()
        if not data.isascii():  # ASCII is UTF-8; only other bytes are checked
            data.decode("utf-8")
        return data
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {one_line(p)}: {exc}") from None


class NamedEnum(Enum):
    """An enum chosen by its value in config files and on the command
    line; subclasses name what they are with ``what=...``."""

    def __init_subclass__(cls, what: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls.what = what

    @classmethod
    def from_name(cls, name: str):
        try:
            return cls(name)
        except ValueError:
            choices = "|".join(member.value for member in cls)
            raise ViscxError(
                f"unknown {cls.what} {name!r} (use {choices})") from None
