"""Persisted index store: a JSON meta line, then one line per column.

The meta line carries the format version, the corpus directory (document
``d`` is ``<corpus>/d.html`` and ``.vis``), the taxonomy path and the
sha256 of its text, and a config snapshot, so later commands can run
without re-supplying them and refuse another taxonomy. The snapshot's
taxonomy is the meta line's and is not written twice; a snapshot whose
taxonomy differs keeps its own.

Then come the column lines: ``doc_id``, holding every document id in
order, then each `IndexRecord` field in `RECORD_FIELDS` order. A record
column line holds each distinct item of the column once (``items``,
numbered in order of first reference) and, per document in document-id
order, the list of its items' numbers, or null (``values``)::

    {"column":"doc_id","count":300,"values":["a","b",...],"crc32":"..."}
    {"column":"terms","count":300,"items":[...],"values":[[0,1],[2],null,...],"crc32":"0a1b2c3d"}

The crc32 covers the text of the line before it. A load checks every
column line's place, count and crc32, but parses and decodes only
``doc_id`` and the columns it is asked for, so a search pays only for
the fields its strategy reads. Each item is decoded and checked once,
and the loaded records share that one object: a few concepts, area
kinds and impacts make most of a column's items. Records are never
mutated, so sharing them is safe.

The ``enriched`` column holds, per visual record and in the same order,
only its fusion decision: ``{"branch","matched_head","mu_cx","mu_vsc"}``.
An enriched record is made of that and its visual record
(`fusion.EnrichedVisRecord`), so a load that reads ``enriched`` also
decodes ``vis_records``, and a save refuses an enriched record that does
not hold its document's visual record. A store of another format version
is refused on load: version 4 wrote every item wherever it occurred;
version 3 also wrote each enriched record whole, a second copy of its
visual record; version 2 held one JSON record per document, and version
1 also area text, per-record paths and fusion notes.

Values are written with sorted keys and hold no path, so the same store
content always produces the same column lines wherever the corpus lives,
and load(save(store)) is the identity.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, TextIO

from .context import AreaKind, ContextualConcept, ExtractionArea, SyntacticTerm
from .config import PipelineConfig
from .errors import StoreError, ViscxError, one_line, read_bytes
from .fusion import DECISIONS, EnrichedVisRecord, FusionProvenance
from .vis import VisRecord

STORE_VERSION = 5


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


def _number(value) -> float:
    if isinstance(value, (str, bool)):  # JSON's other types `float` takes
        raise StoreError(f"expected a number, got {value!r}")
    return float(value)


def _pairs_out(pairs: frozenset[tuple[str, float]]) -> list[list]:
    return [[name, imp] for name, imp in sorted(pairs)]


def _pairs_in(data) -> frozenset[tuple[str, float]]:
    return frozenset((name, _number(imp)) for name, imp in data)


def _area_out(area: ExtractionArea) -> dict:
    return {"kind": area.kind.value, "tokens": list(area.tokens),
            "impact": area.base_impact}


def _area_in(data) -> ExtractionArea:
    tokens = tuple(data["tokens"])
    if set(map(type, tokens)) - {str}:  # one check per area, not per token
        raise StoreError(f"area tokens must be strings: {tokens!r}")
    return ExtractionArea(AreaKind(data["kind"]), tokens,
                          _number(data["impact"]))


def _vis_out(record: VisRecord) -> dict:
    return {"vo": record.vo_id, "vsc": record.vsc, "r": record.r_vsc,
            "colors": dict(sorted(record.colors.items())),
            "textures": dict(sorted(record.textures.items())),
            "spatial": sorted(list(pair) for pair in record.spatial)}


def _maker(cls):
    """A function making an instance of `cls`, a frozen dataclass, from
    its field values in order, as `cls` itself does, `__post_init__` check
    included; the values fill the instance's ``__dict__`` at once instead
    of passing one by one through the frozen setter."""
    names = tuple(f.name for f in fields(cls))
    check = hasattr(cls, "__post_init__")

    def make(*values):
        instance = object.__new__(cls)
        instance.__dict__.update(zip(names, values))
        if check:
            instance.__post_init__()
        return instance
    return make


_vis_record = _maker(VisRecord)
_index_record = _maker(IndexRecord)


def _vis_in(data) -> VisRecord:
    return _vis_record(data["vo"], data["vsc"], _number(data["r"]),
                       {k: _number(v) for k, v in data["colors"].items()},
                       {k: _number(v) for k, v in data["textures"].items()},
                       frozenset((rel, target) for rel, target in data["spatial"]))


def _term_out(term: SyntacticTerm) -> dict:
    return {"head": list(term.head) if term.head is not None else None,
            "colors": _pairs_out(term.colors),
            "textures": _pairs_out(term.textures),
            "spatials": _pairs_out(term.spatials)}


def _term_in(data) -> SyntacticTerm:
    head = data.get("head")
    return SyntacticTerm(
        (_str(head[0]), _number(head[1])) if head is not None else None,
        _pairs_in(data["colors"]), _pairs_in(data["textures"]),
        _pairs_in(data["spatials"]))


def _cx_out(cx: ContextualConcept) -> dict:
    return {"cx": cx.cx, "imp": cx.imp, "area": cx.area_kind.value}


def _cx_in(data) -> ContextualConcept:
    return ContextualConcept(_str(data["cx"]), _number(data["imp"]),
                             AreaKind(data["area"]))


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
        if e.vis is not visual and e.vis != visual:
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
# A column line: _HEAD with the column's name, its count, its items (in a
# record column) and values, and _CRC with the crc32 of the text before it.
_HEAD = '{{"column":"{}","count":'
_CRC = ',"crc32":"%08x"}'
_TAIL = len(_CRC % 0)
#: the memo key of an item whose text a save has encoded, for the columns
#: whose items are not hashable: a visual record's identity, and an
#: enriched record's decision, which is all of it that the column holds
_ITEM_KEYS = {"vis_records": id, "enriched": attrgetter("provenance")}
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


def _column_line(column: str, values: list,
                 items: Iterable[str] | None = None) -> str:
    """The column line of `values`, sealed with its crc32; a record
    column's also holds its `items` texts."""
    text = f"{_HEAD.format(column)}{len(values)}"
    if items is not None:
        text += f',"items":[{",".join(items)}]'
    text += f',"values":{_JSON.encode(values)}'
    return text + _CRC % zlib.crc32(text.encode()) + "\n"


def _numbered(name: str, records: list[IndexRecord]) -> tuple[dict, list]:
    """The number of each distinct item text of column `name`, in order of
    first reference, and each record's list of its item numbers. An item
    whose memo key (itself, or its `_ITEM_KEYS` key) was met is not
    encoded again."""
    encode, key = _CODECS[name][0], _ITEM_KEYS.get(name)
    numbers, memo, values = {}, {}, []
    for record in records:
        if (items := getattr(record, name)) is None:
            values.append(None)
            continue
        values.append(refs := [])
        for item, k in zip(items, map(key, items) if key else items):
            if (number := memo.get(k)) is None:
                number = memo[k] = numbers.setdefault(
                    _JSON.encode(encode(item)), len(numbers))
            refs.append(number)
    return numbers, values


def _column_at(line: bytes, column: str) -> int:
    """The count of the column line `line`, once it is checked to be
    `column`'s and to match its crc32."""
    head = _HEAD.format(column).encode()
    if not line.startswith(head):
        raise StoreError(f"expected the {column} column line")
    crc = zlib.crc32(memoryview(line)[:-_TAIL])
    if line[-_TAIL:] != (_CRC % crc).encode():
        raise StoreError(f"checksum mismatch: the {column} column line does "
                         "not match its crc32")
    # the line ends with _CRC, so it holds a "," after the head
    count = line[len(head):line.index(b",", len(head))]
    if not count.isdigit():
        raise StoreError(f"malformed {column} column line")
    return int(count)


def _doc_ids(line: dict, count: int) -> list[str]:
    doc_ids = line["values"]
    if type(doc_ids) is not list or len(doc_ids) != count:
        raise StoreError(f"doc_id column does not hold its {count} ids")
    if wrong := [doc_id for doc_id in doc_ids if type(doc_id) is not str]:
        raise StoreError(f"document id {wrong[0]!r} is not a string")
    if len(set(doc_ids)) < count:
        twice = next(d for d, n in Counter(doc_ids).items() if n > 1)
        raise StoreError(f"duplicate document id {twice!r}")
    return doc_ids


def _decode_column(line: dict, column: str, doc_ids: list[str],
                   vis_column: list | None = None) -> list:
    """The decoded value of each document in the parsed column line
    `line`. Each item is decoded, and so checked, once: the records
    loaded share that one object, as they may, since records are never
    mutated. The enriched column needs each document's decoded visual
    records, `vis_column`, for its records to hold. Any fault is named by
    `_first_fault`."""
    items, values = line["items"], line["values"]
    if (type(items) is not list or type(values) is not list
            or len(values) != len(doc_ids)):
        raise StoreError(f"malformed {column} column line: it must hold a "
                         "list of items and a list of one value per document")
    kinds = {list, type(None)} if column in _NULLABLE else {list}
    try:
        decoded = list(map(_CODECS[column][1], items))
        numbers = list(chain.from_iterable(filter(None, values)))
        # each value a list of item numbers, and every item referenced
        if (set(map(type, values)) - kinds or set(map(type, numbers)) - {int}
                or set(numbers) != set(range(len(items)))):
            raise ValueError
        take = decoded.__getitem__
        loaded = [None if refs is None else tuple(map(take, refs))
                  for refs in values]
        if vis_column is not None:
            loaded = [None if decisions is None else _enriched_records(
                vis, decisions) for vis, decisions in zip(vis_column, loaded)]
    except (ViscxError, *_MALFORMED):
        _first_fault(column, doc_ids, values, items, vis_column)
    return loaded


def _first_fault(column: str, doc_ids: list[str], values: list, items: list,
                 vis_column: list | None) -> NoReturn:
    """Raise the StoreError of the first document whose value does not
    load: it is neither a list of item numbers nor a null the column may
    hold, an item it references does not decode, or its enriched records
    cannot be made; else of an item that no document references."""
    decoded = {}
    for n, (doc_id, refs) in enumerate(zip(doc_ids, values)):
        try:
            if refs is None and column in _NULLABLE:
                continue
            if type(refs) is not list:
                raise StoreError(f"expected a list of item numbers, got "
                                 f"{refs!r}")
            for ref in refs:
                if type(ref) is not int or not 0 <= ref < len(items):
                    raise StoreError(f"expected the number of one of the "
                                     f"column's {len(items)} items, got "
                                     f"{ref!r}")
                if ref not in decoded:
                    decoded[ref] = _CODECS[column][1](items[ref])
            if vis_column is not None:
                _enriched_records(vis_column[n], tuple(map(decoded.get, refs)))
        except (ViscxError, *_MALFORMED) as exc:
            problem = (str(exc) if isinstance(exc, ViscxError)
                       else f"malformed value: {exc}")
            raise StoreError(f"{column} of document {doc_id!r}: {problem}"
                             ) from None
    unreferenced = set(range(len(items))) - set(decoded)
    raise StoreError(f"{column} column: no document references item "
                     f"{min(unreferenced)}")


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
        out.write(_column_line("doc_id", doc_ids))
        for name in RECORD_FIELDS:
            numbers, values = _numbered(name, records)
            out.write(_column_line(name, values, numbers))


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
    lines = read_bytes(path, "index store", StoreError).split(b"\n")
    if not lines[-1]:
        lines.pop()  # what follows the last newline
    name = one_line(Path(path))
    store = IndexStore(fields=tuple(f for f in RECORD_FIELDS if f in wanted))
    columns = {}
    try:
        for lineno, column in enumerate(("meta", *_COLUMNS), start=1):
            if lineno > len(lines):
                raise StoreError(f"missing the {column} line" if lineno == 1
                                 else f"missing the {column} column line")
            line = lines[lineno - 1]
            if column == "meta":
                store.meta = _meta_in(json.loads(line))
                continue
            count = _column_at(line, column)
            if column == "doc_id":
                doc_ids = _doc_ids(json.loads(line), count)
            elif count != len(doc_ids):
                raise StoreError(f"{column} column has count {count}, not "
                                 f"the {len(doc_ids)} of doc_id")
            elif column in decoded:
                columns[column] = _decode_column(
                    json.loads(line), column, doc_ids, columns.get(
                        "vis_records") if column == "enriched" else None)
        if len(lines) > lineno:
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
    store.records = dict(zip(doc_ids, map(_index_record, doc_ids, *values)))
    return store
