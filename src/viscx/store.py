"""Persisted index store: one JSON record per line, preceded by a meta
line carrying the format version, the corpus directory (document ``d`` is
``<corpus>/d.html`` and ``.vis``), the taxonomy path and the sha256 of its
text, and a config snapshot, so later commands can run without
re-supplying them and refuse another taxonomy. A store of another format
version is refused on load; version 1 also held area text, per-record
paths and fusion notes.

Records are written sorted by document id with sorted keys and hold no
path, so the same store content always produces the same bytes wherever
the corpus lives, and load(save(store)) is the identity.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

from .context import AreaKind, ContextualConcept, ExtractionArea, SyntacticTerm
from .config import PipelineConfig
from .errors import StoreError, ViscxError
from .fusion import EnrichedVisRecord, FusionProvenance
from .vis import VisRecord

STORE_VERSION = 2


@dataclass(frozen=True)
class StoreMeta:
    taxonomy: str | None = None
    config: Mapping | None = None
    version: int = STORE_VERSION
    corpus: str | None = None
    taxonomy_sha256: str | None = None


@dataclass(frozen=True)
class IndexRecord:
    """Everything the pipeline knows about one document."""

    doc_id: str
    areas: tuple[ExtractionArea, ...]
    vis_records: tuple[VisRecord, ...]
    contextual: tuple[ContextualConcept, ...] | None = None
    terms: tuple[SyntacticTerm, ...] | None = None
    enriched: tuple[EnrichedVisRecord, ...] | None = None


@dataclass
class IndexStore:
    meta: StoreMeta = field(default_factory=StoreMeta)
    records: dict[str, IndexRecord] = field(default_factory=dict)

    def add(self, record: IndexRecord) -> None:
        if record.doc_id in self.records:
            raise StoreError(f"duplicate document id {record.doc_id!r}")
        self.records[record.doc_id] = record


# -- encoding -------------------------------------------------------------


def _pairs_out(pairs: frozenset[tuple[str, float]]) -> list[list]:
    return [[name, imp] for name, imp in sorted(pairs)]


def _pairs_in(data) -> frozenset[tuple[str, float]]:
    return frozenset((name, float(imp)) for name, imp in data)


def _area_out(area: ExtractionArea) -> dict:
    return {"kind": area.kind.value, "tokens": list(area.tokens),
            "impact": area.base_impact}


def _area_in(data) -> ExtractionArea:
    return ExtractionArea(AreaKind(data["kind"]), tuple(data["tokens"]),
                          float(data["impact"]))


def _vis_out(record: VisRecord) -> dict:
    return {"vo": record.vo_id, "vsc": record.vsc, "r": record.r_vsc,
            "colors": dict(sorted(record.colors.items())),
            "textures": dict(sorted(record.textures.items())),
            "spatial": sorted(list(pair) for pair in record.spatial)}


def _vis_in(data) -> VisRecord:
    return VisRecord(data["vo"], data["vsc"], float(data["r"]),
                     {k: float(v) for k, v in data["colors"].items()},
                     {k: float(v) for k, v in data["textures"].items()},
                     frozenset((rel, target) for rel, target in data["spatial"]))


def _term_out(term: SyntacticTerm) -> dict:
    return {"head": list(term.head) if term.head is not None else None,
            "colors": _pairs_out(term.colors),
            "textures": _pairs_out(term.textures),
            "spatials": _pairs_out(term.spatials)}


def _term_in(data) -> SyntacticTerm:
    head = data.get("head")
    return SyntacticTerm(
        (head[0], float(head[1])) if head is not None else None,
        _pairs_in(data["colors"]), _pairs_in(data["textures"]),
        _pairs_in(data["spatials"]))


def _cx_out(cx: ContextualConcept) -> dict:
    return {"cx": cx.cx, "imp": cx.imp, "area": cx.area_kind.value}


def _cx_in(data) -> ContextualConcept:
    return ContextualConcept(data["cx"], float(data["imp"]), AreaKind(data["area"]))


def _enriched_out(record: EnrichedVisRecord) -> dict:
    out = _vis_out(record)
    prov = record.provenance
    out.update({
        "original_vsc": record.original_vsc,
        "final_mu": record.final_mu,
        "provenance": None if prov is None else {
            "decision": prov.decision, "branch": prov.branch,
            "matched_head": prov.matched_head,
            "mu_vsc": prov.mu_vsc, "mu_cx": prov.mu_cx},
    })
    return out


def _enriched_in(data) -> EnrichedVisRecord:
    prov = data.get("provenance")
    return EnrichedVisRecord(
        vo_id=data["vo"], vsc=data["vsc"], r_vsc=float(data["r"]),
        colors={k: float(v) for k, v in data["colors"].items()},
        textures={k: float(v) for k, v in data["textures"].items()},
        spatial=frozenset((rel, target) for rel, target in data["spatial"]),
        original_vsc=data["original_vsc"], final_mu=float(data["final_mu"]),
        provenance=None if prov is None else FusionProvenance(
            prov["decision"], prov["branch"], prov["matched_head"],
            float(prov["mu_vsc"]),
            float(prov["mu_cx"]) if prov["mu_cx"] is not None else None))


def record_to_dict(record: IndexRecord) -> dict:
    return {
        "type": "record",
        "doc_id": record.doc_id,
        "areas": [_area_out(a) for a in record.areas],
        "vis_records": [_vis_out(r) for r in record.vis_records],
        "contextual": None if record.contextual is None
        else [_cx_out(c) for c in record.contextual],
        "terms": None if record.terms is None
        else [_term_out(t) for t in record.terms],
        "enriched": None if record.enriched is None
        else [_enriched_out(e) for e in record.enriched],
    }


def record_from_dict(data: Mapping) -> IndexRecord:
    return IndexRecord(
        doc_id=data["doc_id"],
        areas=tuple(_area_in(a) for a in data["areas"]),
        vis_records=tuple(_vis_in(r) for r in data["vis_records"]),
        contextual=None if data["contextual"] is None
        else tuple(_cx_in(c) for c in data["contextual"]),
        terms=None if data["terms"] is None
        else tuple(_term_in(t) for t in data["terms"]),
        enriched=None if data["enriched"] is None
        else tuple(_enriched_in(e) for e in data["enriched"]),
    )


def _meta_in(data: Mapping) -> StoreMeta:
    version = data.get("version")
    if version != STORE_VERSION:
        raise StoreError(
            f"store version {version} is not supported (this viscx reads "
            f"version {STORE_VERSION}); re-run ingest and enrich to rebuild it")
    meta = StoreMeta(**{k: v for k, v in data.items() if k != "type"})
    if meta.config is not None:
        if not isinstance(meta.config, dict):
            raise StoreError("meta config must be an object or null")
        PipelineConfig.from_snapshot(meta.config)  # fails here, not later
    return meta


def _line(data: Mapping) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def save_store(store: IndexStore, path: str | Path) -> None:
    """Write the store to `path`, replacing it atomically.

    The lines go to a temporary file in the target's directory, which
    `os.replace` then moves over the target; on any failure the temporary
    file is removed and the target is left as it was. A symlinked target
    is followed, so the link survives, and an existing target's permission
    bits are kept. There is no fsync, so this protects against a process
    that dies mid-write, not against power loss.
    """
    target = Path(path).resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as out:
            out.write(_line({"type": "meta", **asdict(store.meta)}))
            for doc_id in sorted(store.records):
                out.write(_line(record_to_dict(store.records[doc_id])))
        if target.exists():
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_store(path: str | Path) -> IndexStore:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreError(f"cannot read index store {p}: {exc}") from None
    store = IndexStore()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            kind = data.get("type")
            if kind == "meta":
                store.meta = _meta_in(data)
            elif kind == "record":
                store.add(record_from_dict(data))
            else:
                raise StoreError(f"unknown line type {kind!r}")
        except StoreError as exc:
            raise StoreError(f"{p}:{lineno}: {exc}") from None
        except (json.JSONDecodeError, RecursionError) as exc:
            raise StoreError(f"{p}:{lineno}: bad JSON: {exc}") from None
        # a field of the wrong shape or out of range
        except (AttributeError, KeyError, TypeError, ValueError,
                ArithmeticError, ViscxError) as exc:
            raise StoreError(f"{p}:{lineno}: malformed line: {exc}") from None
    return store
