"""Pipeline configuration: flat key=value file.

Keys and their value syntax::

    taxonomy       = path/to/taxonomy.tsv   (relative to the config file)
    impact_alt     = number in [0,1]
    impact_src     = number in [0,1]
    impact_text    = number in [0,1]
    window         = integer >= 0
    patterns       = pattern | pattern | ...  (e.g. SEM OTHER{0,3} COLOR SEM)
    tconorm        = max|psum|bsum
    kernel         = max|min|product
    t_mu           = number in [0,1]
    t_sim          = number >= 0
    fusion_literal = true|false  (or yes|no, on|off, 1|0)
    ndcg_n         = integers >= 1, comma-separated

Every key is optional and an unknown key is refused; blank lines and ``#``
comments are ignored. A store's config snapshot is read back through the
same per-key readers, which take a file's string or a JSON value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Mapping

from .context import (DEFAULT_IMPACTS, DEFAULT_PATTERNS, DEFAULT_WINDOW,
                      AreaKind, SyntacticPattern, parse_pattern)
from .errors import ConfigError, ViscxError
from .fusion import FacetKernel
from .membership import TConormKind


@dataclass(frozen=True)
class PipelineConfig:
    """Every field is a config key. `t_mu` bounds the membership difference
    still read as correspondence, `t_sim` is the similarity floor of a
    term/record pair, and `fusion_literal` applies the printed rule."""

    taxonomy: str | None = None
    impact_alt: float = DEFAULT_IMPACTS[AreaKind.ALT_ATTRIBUTE]
    impact_src: float = DEFAULT_IMPACTS[AreaKind.SRC_TOKENS]
    impact_text: float = DEFAULT_IMPACTS[AreaKind.SURROUNDING_TEXT]
    window: int = DEFAULT_WINDOW
    patterns: tuple[SyntacticPattern, ...] = DEFAULT_PATTERNS
    tconorm: TConormKind = TConormKind.PROBABILISTIC_SUM
    kernel: FacetKernel = FacetKernel.MAX
    t_mu: float = 0.1
    t_sim: float = 0.05
    fusion_literal: bool = False
    ndcg_n: tuple[int, ...] = (5, 10, 20)

    def __post_init__(self):
        for key in ("impact_alt", "impact_src", "impact_text", "t_mu"):
            if not (0.0 <= getattr(self, key) <= 1.0):
                raise ConfigError(f"{key} out of [0,1]: {getattr(self, key)!r}")
        if self.window < 0:
            raise ConfigError(f"window must be >= 0: {self.window!r}")
        if not (self.t_sim >= 0.0):  # also refuses nan
            raise ConfigError(f"t_sim must be >= 0: {self.t_sim!r}")
        if any(n < 1 for n in self.ndcg_n):
            raise ConfigError(f"ndcg_n cutoffs must be >= 1: {self.ndcg_n!r}")

    @property
    def impacts(self) -> dict[AreaKind, float]:
        return {AreaKind.ALT_ATTRIBUTE: self.impact_alt,
                AreaKind.SRC_TOKENS: self.impact_src,
                AreaKind.SURROUNDING_TEXT: self.impact_text}

    def snapshot(self) -> dict:
        """JSON-friendly view, embedded in the index store meta line."""
        return {f.name: _json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_snapshot(cls, data: Mapping) -> "PipelineConfig":
        """A config from key -> value, where a value is a config file's
        string or a snapshot's JSON value; a missing key keeps its default."""
        values = {}
        for key, value in data.items():
            if key not in _READERS:
                raise ConfigError(f"unknown configuration key {key!r}")
            try:
                values[key] = _READERS[key](value)
            # a value of the wrong type or out of range
            except (AttributeError, LookupError, TypeError, ValueError,
                    ArithmeticError, ViscxError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
        return cls(**values)


def _json(value):
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    if isinstance(value, SyntacticPattern):
        return value.text()
    return value.value if isinstance(value, Enum) else value


def _items(value, sep: str):
    """A file's `sep`-separated string, or a snapshot's list, as items."""
    if isinstance(value, str):
        return [item for item in value.split(sep) if item.strip()]
    return value


_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


def _bool(value) -> bool:
    return value if isinstance(value, bool) else _BOOLS[value.lower()]


def _float(value) -> float:
    """A file's string or a snapshot's number; a JSON bool is no number."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    """A file's string or a snapshot's integral number."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _path(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a path, got {value!r}")
    return value


_READERS = {
    "taxonomy": _path,
    "impact_alt": _float,
    "impact_src": _float,
    "impact_text": _float,
    "window": _int,
    "patterns": lambda v: tuple(parse_pattern(p) for p in _items(v, "|")),
    "tconorm": TConormKind.from_name,
    "kernel": FacetKernel.from_name,
    "t_mu": _float,
    "t_sim": _float,
    "fusion_literal": _bool,
    "ndcg_n": lambda v: tuple(_int(n) for n in _items(v, ",")),
}


def parse_config(text: str, *, base_dir: Path | None = None) -> PipelineConfig:
    """Parse configuration text; relative taxonomy paths resolve against
    `base_dir` when given."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _eq, value = line.partition("=")
        key = key.strip().lower()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    if "taxonomy" in values:
        path = Path(values["taxonomy"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise ConfigError(f"taxonomy file not found: {path}")
        values["taxonomy"] = str(path)
    return PipelineConfig.from_snapshot(values)


def load_config(path: str | Path) -> PipelineConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config(text, base_dir=p.parent)
