"""Persisted index store: a JSON meta line, then one line per column.

The meta line carries the format version, the corpus directory (document
``d`` is ``<corpus>/d.html`` and ``.vis``), the taxonomy path and the
sha256 of its text, and a config snapshot, so later commands can run
without re-supplying them and refuse another taxonomy. The snapshot's
taxonomy is the meta line's and is not written twice; a snapshot whose
taxonomy differs keeps its own.

Then come the column lines: ``doc_id``, then each `IndexRecord` field in
`RECORD_FIELDS` order, each holding the value of every document in
document-id order::

    {"column":"areas","count":300,"values":[...],"crc32":"0a1b2c3d"}

The crc32 covers the text of the line before it. A load checks every
column line's place, count and crc32, but parses and decodes only
``doc_id`` and the columns it is asked for, so a search pays only for
the fields its strategy reads. Within a column, equal item texts are
decoded and checked once, and the loaded records share that one object:
a few concepts, area kinds and impacts make most of a column's items.
Records are never mutated, so sharing them is safe.

Since format version 4 the ``enriched`` column holds, per visual record
and in the same order, only its fusion decision:
``{"branch","matched_head","mu_cx","mu_vsc"}``. An enriched record is
made of that and its visual record (`fusion.EnrichedVisRecord`), so a
load that reads ``enriched`` also decodes ``vis_records``, and a save
refuses an enriched record that does not hold its document's visual
record. A store of another format version is refused on load:
version 3 wrote each enriched record whole, a second copy of its visual
record; version 2 held one JSON record per document, and version 1 also
area text, per-record paths and fusion notes.

Values are written with sorted keys and hold no path, so the same store
content always produces the same column lines wherever the corpus lives,
and load(save(store)) is the identity.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import zlib
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .context import AreaKind, ContextualConcept, ExtractionArea, SyntacticTerm
from .config import PipelineConfig
from .errors import StoreError, ViscxError, one_line, read_bytes
from .fusion import DECISIONS, EnrichedVisRecord, FusionProvenance
from .vis import VisRecord

STORE_VERSION = 4


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
        (_str(head[0]), float(head[1])) if head is not None else None,
        _pairs_in(data["colors"]), _pairs_in(data["textures"]),
        _pairs_in(data["spatials"]))


def _cx_out(cx: ContextualConcept) -> dict:
    return {"cx": cx.cx, "imp": cx.imp, "area": cx.area_kind.value}


def _cx_in(data) -> ContextualConcept:
    return ContextualConcept(_str(data["cx"]), float(data["imp"]),
                             AreaKind(data["area"]))


def _number(value) -> float:
    if isinstance(value, (str, bool)):  # JSON's other types `float` takes
        raise StoreError(f"expected a number, got {value!r}")
    return float(value)


def _enriched_out(record: EnrichedVisRecord) -> dict:
    return record.provenance._asdict()


def _enriched_in(data) -> FusionProvenance:
    branch = _str(data["branch"])
    if branch not in DECISIONS:
        raise StoreError(f"unknown fusion branch {branch!r}")
    head = _str(data["matched_head"], null_ok=DECISIONS[branch] == "kept")
    mu_cx = data["mu_cx"]
    return FusionProvenance(branch, head, _number(data["mu_vsc"]),
                            None if mu_cx is None else _number(mu_cx))


def _enriched_records(vis: tuple[VisRecord, ...],
                      decisions: tuple[FusionProvenance, ...]) -> tuple:
    """A document's enriched records: its visual records, each with its
    fusion decision."""
    if len(decisions) != len(vis):
        raise StoreError(f"{len(decisions)} enriched items, not one per "
                         f"visual record ({len(vis)})")
    return tuple(map(EnrichedVisRecord, vis, decisions))


def _check_enriched(record: IndexRecord) -> None:
    """Refuse to save enriched records that the enriched column, which
    holds only their decisions, would not load as they are."""
    vis, enriched = record.vis_records, record.enriched
    if len(enriched) != len(vis):
        raise StoreError(
            f"cannot save document {record.doc_id!r}: {len(enriched)} "
            f"enriched records, not one per visual record ({len(vis)})")
    for k, (visual, e) in enumerate(zip(vis, enriched)):
        if e.vis != visual:
            raise StoreError(f"cannot save document {record.doc_id!r}, "
                             f"enriched record {e.vo_id!r}: its visual record "
                             f"differs from the document's visual record {k} "
                             f"({visual.vo_id!r})")


#: IndexRecord field -> (encoder, decoder) of one of its items, in
#: IndexRecord's field order; `load_store` decodes only the columns it is
#: asked for and leaves the others None. An enriched item decodes to its
#: `FusionProvenance`, which makes the record with its visual record.
_CODECS = {"areas": (_area_out, _area_in), "vis_records": (_vis_out, _vis_in),
           "contextual": (_cx_out, _cx_in), "terms": (_term_out, _term_in),
           "enriched": (_enriched_out, _enriched_in)}
RECORD_FIELDS = tuple(_CODECS)
_NULLABLE = {"contextual", "terms", "enriched"}  # null before enrich
_COLUMNS = ("doc_id", *RECORD_FIELDS)  # the column lines, in file order

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_BATCH = 64  # values per piece of a column line written
_scan = json.JSONDecoder().scan_once  # (value, end) of the JSON at an index
_SPACE = re.compile(r"[ \t\n\r]*").match  # the whitespace JSON allows
_BLANK = " \t\n\r"  # its characters; "", the end of a line, is in it too
# A column line: _HEAD with the column's name, its value count, _VALUES,
# the values, "]", and _CRC with the crc32 of all the text before _CRC.
_HEAD = '{{"column":"{}","count":'
_VALUES = ',"values":['
_CRC = ',"crc32":"%08x"}'
_TAIL = len(_CRC % 0)
#: what a value of the wrong shape or out of range raises while decoded
_MALFORMED = (AttributeError, LookupError, TypeError, ValueError,
              ArithmeticError)


def _meta_out(meta: StoreMeta) -> str:
    data = {"type": "meta", **asdict(meta)}
    config = data["config"]  # a copy, made by asdict
    if config is not None and config.get("taxonomy") == meta.taxonomy:
        config.pop("taxonomy", None)  # held once, as meta.taxonomy
    return _JSON.encode(data) + "\n"


def _meta_in(data: Mapping) -> StoreMeta:
    if (kind := data.get("type")) != "meta":
        raise StoreError(f"unknown line type {kind!r}; the first line must "
                         "be the meta line")
    version = data.get("version")
    if version != STORE_VERSION:
        raise StoreError(
            f"store version {version} is not supported (this viscx reads "
            f"version {STORE_VERSION}); re-run ingest and enrich to rebuild it")
    meta = StoreMeta(**{k: v for k, v in data.items() if k != "type"})
    if meta.config is not None:
        if not isinstance(meta.config, dict):
            raise StoreError("meta config must be an object or null")
        meta.config.setdefault("taxonomy", meta.taxonomy)
        PipelineConfig.from_snapshot(meta.config)  # fails here, not later
    return meta


def _write_column(out: TextIO, column: str, count: int,
                  values: Iterable) -> None:
    """The column line of `count` `values`, written a few values at a time
    with a running crc32, so that no column is held whole in memory."""
    crc = 0
    for piece in _column_pieces(column, count, values):
        out.write(piece)
        crc = zlib.crc32(piece.encode(), crc)
    out.write(_CRC % crc + "\n")


def _column_pieces(column: str, count: int, values: Iterable) -> Iterator[str]:
    yield f"{_HEAD.format(column)}{count}{_VALUES}"
    values, separator = iter(values), ""
    # one encode call per _BATCH values: each call has a fixed cost
    while batch := list(islice(values, _BATCH)):
        yield separator + _JSON.encode(batch)[1:-1]  # the values, no brackets
        separator = ","
    yield "]"


def _column_at(data: bytes, start: int, end: int,
               column: str) -> tuple[int, int]:
    """The count of the column line `data[start:end]` and the offset of its
    values list, once the line is checked to be `column`'s and to match
    its crc32."""
    head = _HEAD.format(column).encode()
    if not data.startswith(head, start, end):
        raise StoreError(f"expected the {column} column line")
    crc = zlib.crc32(memoryview(data)[start:end - _TAIL])
    if data[end - _TAIL:end] != (_CRC % crc).encode():
        raise StoreError(f"checksum mismatch: the {column} column line does "
                         "not match its crc32")
    values = data.find(_VALUES.encode(), start, end)
    count = data[start + len(head):values]
    if values < 0 or not count.isdigit():
        raise StoreError(f"malformed {column} column line")
    return int(count), values + len(_VALUES) - 1


def _doc_ids(text: bytes, count: int) -> list[str]:
    doc_ids = json.loads(text)
    if len(doc_ids) != count:
        raise StoreError(f"doc_id column holds {len(doc_ids)} values, not "
                         f"its count {count}")
    seen = set()
    for doc_id in doc_ids:
        if not isinstance(doc_id, str):
            raise StoreError(f"document id {doc_id!r} is not a string")
        if doc_id in seen:
            raise StoreError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
    return doc_ids


def _decode_column(line: str, at: int, column: str, doc_ids: list[str],
                   vis_column: list | None = None) -> list:
    """The decoded value of each document in the column line `line`, whose
    values list opens at `at`, so no column is held whole as JSON. The
    items of a document's list are scanned one by one, as the JSON scanner
    scans a list (with the same whitespace and the same errors; `line`
    ends with its crc32, so only an item can run to its end), and then
    decoded. Equal item texts are decoded, and so checked, once: the
    records loaded share that one object, as they may, since records are
    never mutated. The enriched column needs each document's decoded
    visual records, `vis_column`, for its records to hold."""
    decode = _CODECS[column][1]
    nullable = column in _NULLABLE
    decoded: dict[str, object] = {}  # item text -> its decoded value
    values = []
    at += 1  # past the '['
    try:
        for _ in doc_ids:
            if values:
                if line[at] != ",":
                    raise StoreError(f"expected ',' at column {at + 1}")
                at += 1
            if line[at] != "[":  # null, or no list: scanned and decoded whole
                item, at = _scan(line, at)
                if item is None and nullable:
                    values.append(None)
                    continue
                value = tuple(map(decode, item))
            else:
                texts, fresh = [], []  # fresh: the (text, JSON) to decode
                at += 1
                if line[at] in _BLANK:
                    at = _SPACE(line, at).end()
                sep = line[at]
                if sep == "]":
                    at += 1
                while sep != "]":
                    item, end = _scan(line, at)
                    text = line[at:end]
                    texts.append(text)
                    if text not in decoded:
                        fresh.append((text, item))
                    at = end + 1
                    sep = line[end:at]
                    if sep in _BLANK:
                        end = _SPACE(line, end).end()
                        at = end + 1
                        sep = line[end:at]
                    if sep == ",":
                        if line[at] in _BLANK:
                            at = _SPACE(line, at).end()
                    elif sep != "]":
                        raise json.JSONDecodeError("Expecting ',' delimiter",
                                                   line, end)
                for text, item in fresh:
                    if text not in decoded:
                        decoded[text] = decode(item)
                value = tuple(map(decoded.__getitem__, texts))
            values.append(value if vis_column is None else
                          _enriched_records(vis_column[len(values)], value))
    except StopIteration as exc:  # _scan found no JSON value
        problem = f"bad JSON: expecting a value at column {exc.value + 1}"
    except (json.JSONDecodeError, RecursionError) as exc:
        problem = f"bad JSON: {exc}"
    except ViscxError as exc:
        problem = str(exc)
    except _MALFORMED as exc:
        problem = f"malformed value: {exc}"
    else:
        if at == len(line) - _TAIL - 1 and line[at] == "]":
            return values
        raise StoreError(f"{column} column: expected ']' after its "
                         f"{len(values)} values, at column {at + 1}")
    doc_id = doc_ids[len(values)]  # the first value not decoded
    raise StoreError(f"{column} of document {doc_id!r}: {problem}")


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A text file to write that replaces `path` atomically on success.

    The text goes to a temporary file in the target's directory, which
    `os.replace` then moves over the target; on any failure the temporary
    file is removed and the target is left as it was; an error that names
    the temporary file is raised again naming `path`. A symlinked target
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
    except BaseException as exc:
        # not there when its directory is missing or a parent is a file
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def save_store(store: IndexStore, path: str | Path) -> None:
    """Write the store to `path`, replacing it atomically (`atomic_writer`).
    Refuses, before writing, enriched records that do not hold their
    document's visual records, one each, in order (`_check_enriched`)."""
    if missing := [f for f in RECORD_FIELDS if f not in store.fields]:
        raise StoreError(f"cannot save a store loaded without its records' "
                         f"{', '.join(missing)}")
    doc_ids = sorted(store.records)
    records = [store.records[doc_id] for doc_id in doc_ids]
    for record in records:
        if record.enriched is not None:
            _check_enriched(record)
    with atomic_writer(path) as out:
        out.write(_meta_out(store.meta))
        _write_column(out, "doc_id", len(doc_ids), doc_ids)
        for name, (encode, _decode) in _CODECS.items():
            _write_column(out, name, len(records), (
                None if (items := getattr(record, name)) is None
                else list(map(encode, items)) for record in records))


def load_store(path: str | Path,
               fields: Iterable[str] | None = None) -> IndexStore:
    """The store at `path`, its records holding only the IndexRecord `fields`
    (all when None). The meta line, the document ids, and every column
    line's place, crc32 and count are always checked; a column not asked
    for is neither parsed nor decoded, except ``vis_records`` when
    ``enriched`` is asked for, whose records hold them."""
    wanted = set(RECORD_FIELDS if fields is None else fields)
    if unknown := wanted - set(RECORD_FIELDS):
        raise ValueError(f"not IndexRecord fields: {sorted(unknown)}")
    decoded = wanted | ({"vis_records"} if "enriched" in wanted else set())
    data = read_bytes(path, "index store", StoreError)
    name = one_line(Path(path))
    store = IndexStore(fields=tuple(f for f in RECORD_FIELDS if f in wanted))
    columns = {}
    start = 0
    try:
        for lineno, column in enumerate(("meta", *_COLUMNS), start=1):
            if start >= len(data):
                raise StoreError(f"missing the {column} line" if lineno == 1
                                 else f"missing the {column} column line")
            end = data.find(b"\n", start)
            end = len(data) if end < 0 else end
            if column == "meta":
                store.meta = _meta_in(json.loads(data[start:end]))
            else:
                count, at = _column_at(data, start, end, column)
                if column == "doc_id":
                    doc_ids = _doc_ids(data[at:end - _TAIL], count)
                elif count != len(doc_ids):
                    raise StoreError(f"{column} column has count {count}, "
                                     f"not the {len(doc_ids)} of doc_id")
                elif column in decoded:
                    columns[column] = _decode_column(
                        str(memoryview(data)[start:end], "utf-8"),
                        at - start, column, doc_ids,
                        columns["vis_records"] if column == "enriched"
                        else None)
            start = end + 1
        if start < len(data):
            lineno += 1
            raise StoreError("unexpected line after the last column")
    except StoreError as exc:
        raise StoreError(f"{name}:{lineno}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StoreError(f"{name}:{lineno}: bad JSON: {exc}") from None
    except (*_MALFORMED, ViscxError) as exc:  # a meta value of the wrong shape
        raise StoreError(f"{name}:{lineno}: malformed line: {exc}") from None
    unread = [None] * len(doc_ids)
    values = [columns[f] if f in wanted else unread for f in RECORD_FIELDS]
    store.records = dict(zip(doc_ids, map(IndexRecord, doc_ids, *values)))
    return store
