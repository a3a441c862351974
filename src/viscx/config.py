"""Pipeline configuration: flat key=value file with documented defaults.

Recognized keys::

    taxonomy      = path/to/taxonomy.tsv
    impact_alt    = 0.9
    impact_src    = 0.7
    impact_text   = 0.5
    window        = 600
    patterns      = COLOR SEM | TEXTURE SEM | SEM SPATIAL SEM | ...
    tconorm       = psum          (max|psum|bsum)
    kernel        = max           (max|min|product)
    t_mu          = 0.1
    t_sim         = 0.05
    fusion_literal = false
    ndcg_n        = 5,10,20

Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .context import (DEFAULT_IMPACTS, DEFAULT_PATTERNS, DEFAULT_WINDOW,
                      AreaKind, SyntacticPattern, parse_pattern)
from .errors import ConfigError, ViscxError
from .fusion import FacetKernel, FusionConfig
from .membership import TConormKind

_IMPACT_KEYS = {
    "impact_alt": AreaKind.ALT_ATTRIBUTE,
    "impact_src": AreaKind.SRC_TOKENS,
    "impact_text": AreaKind.SURROUNDING_TEXT,
}


@dataclass(frozen=True)
class PipelineConfig:
    taxonomy: str | None = None
    impacts: Mapping[AreaKind, float] = field(
        default_factory=lambda: dict(DEFAULT_IMPACTS))
    window: int = DEFAULT_WINDOW
    patterns: tuple[SyntacticPattern, ...] = DEFAULT_PATTERNS
    tconorm: TConormKind = TConormKind.PROBABILISTIC_SUM
    kernel: FacetKernel = FacetKernel.MAX
    t_mu: float = 0.1
    t_sim: float = 0.05
    fusion_literal: bool = False
    ndcg_n: tuple[int, ...] = (5, 10, 20)

    def __post_init__(self):
        for kind, value in self.impacts.items():
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"impact for {kind.value} out of [0,1]: {value!r}")
        if self.window < 0:
            raise ConfigError(f"window must be >= 0: {self.window!r}")
        if not (0.0 <= self.t_mu <= 1.0):
            raise ConfigError(f"t_mu out of [0,1]: {self.t_mu!r}")
        if self.t_sim < 0.0:
            raise ConfigError(f"t_sim must be >= 0: {self.t_sim!r}")
        if any(n < 1 for n in self.ndcg_n):
            raise ConfigError(f"ndcg_n cutoffs must be >= 1: {self.ndcg_n!r}")

    def fusion(self) -> FusionConfig:
        return FusionConfig(t_mu=self.t_mu, t_sim=self.t_sim,
                            kernel=self.kernel, literal=self.fusion_literal)

    def snapshot(self) -> dict:
        """JSON-friendly view, embedded in the index store meta line."""
        return {
            "taxonomy": self.taxonomy,
            "impact_alt": self.impacts[AreaKind.ALT_ATTRIBUTE],
            "impact_src": self.impacts[AreaKind.SRC_TOKENS],
            "impact_text": self.impacts[AreaKind.SURROUNDING_TEXT],
            "window": self.window,
            "patterns": [p.text() for p in self.patterns],
            "tconorm": self.tconorm.value,
            "kernel": self.kernel.value,
            "t_mu": self.t_mu,
            "t_sim": self.t_sim,
            "fusion_literal": self.fusion_literal,
            "ndcg_n": list(self.ndcg_n),
        }

    @classmethod
    def from_snapshot(cls, data: Mapping) -> "PipelineConfig":
        return cls(
            taxonomy=data.get("taxonomy"),
            impacts={kind: float(data[key]) for key, kind in _IMPACT_KEYS.items()
                     if key in data} or dict(DEFAULT_IMPACTS),
            window=int(data.get("window", DEFAULT_WINDOW)),
            patterns=tuple(parse_pattern(p) for p in data["patterns"])
            if "patterns" in data else DEFAULT_PATTERNS,
            tconorm=TConormKind.from_name(data.get("tconorm", "psum")),
            kernel=FacetKernel.from_name(data.get("kernel", "max")),
            t_mu=float(data.get("t_mu", 0.1)),
            t_sim=float(data.get("t_sim", 0.05)),
            fusion_literal=bool(data.get("fusion_literal", False)),
            ndcg_n=tuple(int(n) for n in data.get("ndcg_n", (5, 10, 20))),
        )


def _parse_bool(value: str, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"bad boolean for {key}: {value!r}")


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

    cfg = PipelineConfig()
    impacts = dict(cfg.impacts)
    kwargs: dict = {}
    try:
        for key, value in values.items():
            if key == "taxonomy":
                path = Path(value)
                if base_dir is not None and not path.is_absolute():
                    path = base_dir / path
                if not path.exists():
                    raise ConfigError(f"taxonomy file not found: {path}")
                kwargs["taxonomy"] = str(path)
            elif key in _IMPACT_KEYS:
                impacts[_IMPACT_KEYS[key]] = float(value)
            elif key == "window":
                kwargs["window"] = int(value)
            elif key == "patterns":
                kwargs["patterns"] = tuple(
                    parse_pattern(part.strip())
                    for part in value.split("|") if part.strip())
            elif key == "tconorm":
                kwargs["tconorm"] = TConormKind.from_name(value)
            elif key == "kernel":
                kwargs["kernel"] = FacetKernel.from_name(value)
            elif key == "t_mu":
                kwargs["t_mu"] = float(value)
            elif key == "t_sim":
                kwargs["t_sim"] = float(value)
            elif key == "fusion_literal":
                kwargs["fusion_literal"] = _parse_bool(value, key)
            elif key == "ndcg_n":
                kwargs["ndcg_n"] = tuple(
                    int(n) for n in value.split(",") if n.strip())
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except ViscxError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None
    return replace(cfg, impacts=impacts, **kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config(text, base_dir=p.parent)
