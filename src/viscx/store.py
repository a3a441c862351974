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

import contextlib
import json
import os
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .context import AreaKind, ContextualConcept, ExtractionArea, SyntacticTerm
from .config import PipelineConfig
from .errors import StoreError, ViscxError, one_line, read_text
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
    #: the IndexRecord fields its records hold; the others are None
    fields: tuple[str, ...] = field(default_factory=lambda: RECORD_FIELDS)

    def add(self, record: IndexRecord) -> None:
        if record.doc_id in self.records:
            raise StoreError(f"duplicate document id {record.doc_id!r}")
        self.records[record.doc_id] = record


# -- encoding -------------------------------------------------------------


def _str(value, null_ok: bool = False) -> str:
    """`value`, a string (or None with `null_ok`): JSON gives any type."""
    if not isinstance(value, str) and not (null_ok and value is None):
        raise StoreError(f"expected a string, got {value!r}")
    return value


def _pairs_out(pairs: frozenset[tuple[str, float]]) -> list[list]:
    return [[name, imp] for name, imp in sorted(pairs)]


def _pairs_in(data) -> frozenset[tuple[str, float]]:
    return frozenset((name, float(imp)) for name, imp in data)


def _area_out(area: ExtractionArea) -> dict:
    return {"kind": area.kind.value, "tokens": list(area.tokens),
            "impact": area.base_impact}


def _area_in(data) -> ExtractionArea:
    tokens = tuple(data["tokens"])
    if set(map(type, tokens)) - {str}:  # one check per area, not per token
        raise StoreError(f"area tokens must be strings: {tokens!r}")
    return ExtractionArea(AreaKind(data["kind"]), tokens, float(data["impact"]))


def _vis_out(record: VisRecord) -> dict:
    return {"vo": record.vo_id, "vsc": record.vsc, "r": record.r_vsc,
            "colors": dict(sorted(record.colors.items())),
            "textures": dict(sorted(record.textures.items())),
            "spatial": sorted(list(pair) for pair in record.spatial)}


def _vis_in(data, cls=VisRecord, *extra) -> VisRecord:
    """A VisRecord, or a `cls` subclass with its `extra` fields."""
    return cls(data["vo"], data["vsc"], float(data["r"]),
               {k: float(v) for k, v in data["colors"].items()},
               {k: float(v) for k, v in data["textures"].items()},
               frozenset((rel, target) for rel, target in data["spatial"]),
               *extra)


def _term_out(term: SyntacticTerm) -> dict:
    return {"head": list(term.head) if term.head is not None else None,
            "colors": _pairs_out(term.colors),
            "textures": _pairs_out(term.textures),
            "spatials": _pairs_out(term.spatials)}


def _term_in(data) -> SyntacticTerm:
    head = data.get("head")
    return SyntacticTerm(
        (_str(head[0]), float(head[1])) if head is not None else None,
        _pairs_in(data["colors"]), _pairs_in(data["textures"]),
        _pairs_in(data["spatials"]))


def _cx_out(cx: ContextualConcept) -> dict:
    return {"cx": cx.cx, "imp": cx.imp, "area": cx.area_kind.value}


def _cx_in(data) -> ContextualConcept:
    return ContextualConcept(_str(data["cx"]), float(data["imp"]),
                             AreaKind(data["area"]))


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
    return _vis_in(
        data, EnrichedVisRecord, _str(data["original_vsc"]),
        float(data["final_mu"]),
        None if prov is None else FusionProvenance(
            _str(prov["decision"]), _str(prov["branch"]),
            _str(prov["matched_head"], null_ok=True), float(prov["mu_vsc"]),
            float(prov["mu_cx"]) if prov["mu_cx"] is not None else None))


#: IndexRecord field -> (encoder, decoder) of one of its items; `load_store`
#: decodes only the fields it is asked for and leaves the others None
_CODECS = {"areas": (_area_out, _area_in), "vis_records": (_vis_out, _vis_in),
           "contextual": (_cx_out, _cx_in), "terms": (_term_out, _term_in),
           "enriched": (_enriched_out, _enriched_in)}
RECORD_FIELDS = tuple(_CODECS)
_NULLABLE = {"contextual", "terms", "enriched"}  # null before enrich


def record_to_dict(record: IndexRecord) -> dict:
    out = {"type": "record", "doc_id": record.doc_id}
    for name, (encode, _decode) in _CODECS.items():
        items = getattr(record, name)
        out[name] = None if items is None else list(map(encode, items))
    return out


def record_from_dict(data: Mapping,
                     fields: tuple[str, ...] = RECORD_FIELDS) -> IndexRecord:
    values = dict.fromkeys(RECORD_FIELDS)
    for name in fields:
        items = data[name]
        if items is not None or name not in _NULLABLE:
            values[name] = tuple(map(_CODECS[name][1], items))
    return IndexRecord(doc_id=_str(data["doc_id"]), **values)


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


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A text file to write that replaces `path` atomically on success.

    The text goes to a temporary file in the target's directory, which
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
            yield out
        if target.exists():
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_store(store: IndexStore, path: str | Path) -> None:
    """Write the store to `path`, replacing it atomically (`atomic_writer`)."""
    if missing := [f for f in RECORD_FIELDS if f not in store.fields]:
        raise StoreError(f"cannot save a store loaded without its records' "
                         f"{', '.join(missing)}")
    with atomic_writer(path) as out:
        out.write(_line({"type": "meta", **asdict(store.meta)}))
        for doc_id in sorted(store.records):
            out.write(_line(record_to_dict(store.records[doc_id])))


def load_store(path: str | Path,
               fields: Iterable[str] | None = None) -> IndexStore:
    """The store at `path`, its records holding only the IndexRecord `fields`
    (all when None): an unread field is neither decoded nor checked, while
    the meta line and every line's JSON, type and document id always are."""
    wanted = set(RECORD_FIELDS if fields is None else fields)
    if unknown := wanted - set(RECORD_FIELDS):
        raise ValueError(f"not IndexRecord fields: {sorted(unknown)}")
    text = read_text(path, "index store", StoreError)
    name = one_line(Path(path))
    store = IndexStore(fields=tuple(f for f in RECORD_FIELDS if f in wanted))
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            kind = data.get("type")
            if kind == "meta":
                store.meta = _meta_in(data)
            elif kind == "record":
                store.add(record_from_dict(data, store.fields))
            else:
                raise StoreError(f"unknown line type {kind!r}")
        except StoreError as exc:
            raise StoreError(f"{name}:{lineno}: {exc}") from None
        except (json.JSONDecodeError, RecursionError) as exc:
            raise StoreError(f"{name}:{lineno}: bad JSON: {exc}") from None
        # a field of the wrong shape or out of range
        except (AttributeError, LookupError, TypeError, ValueError,
                ArithmeticError, ViscxError) as exc:
            raise StoreError(f"{name}:{lineno}: malformed line: {exc}") from None
    return store
