import copy
import functools
import json
import pickle
import re
import tempfile
import zlib
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscx import (PipelineConfig, StoreError, ViscxError, VisRecord,
                   enrich_store, ingest_corpus, store as store_module)
from viscx.context import (DEFAULT_PATTERNS, AreaKind, ContextualConcept,
                           ExtractionArea, SyntacticTerm, parse_pattern,
                           tokenize)
from viscx.fusion import (DECISIONS, EnrichedVisRecord, FacetKernel,
                          FusionProvenance)
from viscx.membership import TConormKind
from viscx.retrieval import STRATEGY_FIELDS, Strategy
from viscx.store import (RECORD_FIELDS, STORE_VERSION, IndexRecord,
                         IndexStore, StoreMeta, load_store, save_store)

import corpusgen
import decoding

#: the index in a store's lines of each column line; the meta line is 0
LINE = {column: n for n, column in enumerate(("doc_id", *RECORD_FIELDS), 1)}


def full_record(doc_id="doc1"):
    vis = VisRecord("vo1", "flower", 0.7, {"red": 0.5}, {"uniform": 0.8},
                    frozenset({("near", "vo2")}))
    vis2 = VisRecord("vo2", "ground", 0.9)
    enriched = EnrichedVisRecord(vis, FusionProvenance(
        "correspondence_specialized", "rose", 0.88, 0.91))
    enriched2 = EnrichedVisRecord(vis2, FusionProvenance("unmatched", None,
                                                         0.6))
    return IndexRecord(
        doc_id=doc_id,
        areas=(ExtractionArea(AreaKind.ALT_ATTRIBUTE, ("red", "roses"), 0.9),
               ExtractionArea(AreaKind.SURROUNDING_TEXT,
                              ("smooth", "roses", "here"), 0.5)),
        vis_records=(vis, vis2),
        contextual=(ContextualConcept("rose", 0.9, AreaKind.ALT_ATTRIBUTE),),
        terms=(SyntacticTerm(("rose", 0.9), frozenset({("red", 0.9)}),
                             frozenset(), frozenset()),),
        enriched=(enriched, enriched2))


def test_record_roundtrip(tmp_path):
    record = full_record()
    store = IndexStore()
    store.add(record)
    save_store(store, tmp_path / "index.jsonl")
    loaded = load_store(tmp_path / "index.jsonl").records
    assert loaded == {"doc1": record}
    assert repr(loaded["doc1"]) == repr(record)


def test_store_roundtrip(tmp_path):
    store = IndexStore(meta=StoreMeta(taxonomy="tax.tsv",
                                      config=PipelineConfig().snapshot()))
    store.add(full_record("doc1"))
    store.add(full_record("doc2"))
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded == store


def test_store_partial_record_roundtrip(tmp_path):
    record = IndexRecord("d", (), (VisRecord("vo1", "sky", 0.5),))
    store = IndexStore()
    store.add(record)
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded.records["d"].contextual is None
    assert loaded.records["d"].enriched is None
    assert loaded == store


def test_store_bytes_are_stable(tmp_path):
    store = IndexStore()
    store.add(full_record("b"))
    store.add(full_record("a"))
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_store(store, p1)
    save_store(load_store(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    # documents come out sorted by id regardless of insertion order
    lines = p1.read_text().splitlines()
    assert lines[1].startswith('{"column":"doc_id","count":2,"values":["a","b"],')


def test_duplicate_doc_id_rejected():
    store = IndexStore()
    store.add(full_record("x"))
    with pytest.raises(StoreError, match="duplicate document id"):
        store.add(full_record("x"))


def test_load_errors(tmp_path):
    missing = tmp_path / "absent.jsonl"
    with pytest.raises(StoreError, match="cannot read"):
        load_store(missing)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(StoreError, match="bad JSON"):
        load_store(bad)
    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"type":"mystery"}\n')
    with pytest.raises(StoreError, match="unknown line type"):
        load_store(wrong)
    not_utf8 = tmp_path / "not_utf8.jsonl"
    not_utf8.write_bytes(b'{"type":"meta"}\n\xff\n')
    with pytest.raises(StoreError, match="cannot read index store .*not_utf8"):
        load_store(not_utf8)


def test_load_rejects_other_store_versions(tmp_path):
    store = IndexStore()
    store.add(full_record("a"))
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    assert load_store(path).meta.version == STORE_VERSION
    text = path.read_text()
    assert f'"version":{STORE_VERSION}' in text
    path.write_text(text.replace(f'"version":{STORE_VERSION}', '"version":99'))
    with pytest.raises(StoreError, match="store version 99"):
        load_store(path)


V1_STORE = (
    '{"config":null,"taxonomy":null,"type":"meta","version":1}\n'
    '{"areas":[],"contextual":null,"doc_id":"d","enriched":null,'
    '"html_path":"c/d.html","log":[],"terms":null,"type":"record",'
    '"vis_path":"c/d.vis","vis_records":[]}\n')


def test_v1_store_is_refused_with_a_rebuild_hint(tmp_path):
    path = tmp_path / "v1.jsonl"
    path.write_text(V1_STORE, encoding="utf-8")
    with pytest.raises(StoreError, match=r"v1\.jsonl:1: store version 1 "
                       r".*re-run ingest and enrich"):
        load_store(path)


V2_STORE = (
    '{"config":null,"corpus":null,"taxonomy":null,"taxonomy_sha256":null,'
    '"type":"meta","version":2}\n'
    '{"areas":[],"contextual":null,"doc_id":"d","enriched":null,"terms":null,'
    '"type":"record","vis_records":[]}\n')


def test_v2_store_is_refused_with_a_rebuild_hint(tmp_path):
    path = tmp_path / "v2.jsonl"
    path.write_text(V2_STORE, encoding="utf-8")
    for fields in (None, ()):
        with pytest.raises(StoreError, match=r"v2\.jsonl:1: store version 2 "
                           r".*re-run ingest and enrich"):
            load_store(path, fields)


def test_v3_store_is_refused_with_a_rebuild_hint(tmp_path):
    """Version 3 wrote each enriched record whole, beside its visual record."""
    vis = ('{"colors":{},"r":0.5,"spatial":[],"textures":{},"vo":"vo1",'
           '"vsc":"sky"}')
    enriched = (vis[:-1] + ',"final_mu":0.5,"original_vsc":"sky",'
                '"provenance":{"branch":"unmatched","decision":"kept",'
                '"matched_head":null,"mu_cx":null,"mu_vsc":0.5}}')
    values = {"doc_id": '"d"', "areas": "[]", "vis_records": f"[{vis}]",
              "contextual": "[]", "terms": "[]", "enriched": f"[{enriched}]"}
    path = tmp_path / "v3.jsonl"
    path.write_text(
        '{"config":null,"corpus":null,"taxonomy":null,"taxonomy_sha256":null,'
        '"type":"meta","version":3}\n' + "".join(
            sealed(f'{{"column":"{column}","count":1,"values":[{value}]')
            + "\n" for column, value in values.items()), encoding="utf-8")
    for fields in (None, (), ("enriched",)):
        with pytest.raises(StoreError, match=r"v3\.jsonl:1: store version 3 "
                           r"is not supported \(this viscx reads version 5\)"
                           r"; re-run ingest and enrich"):
            load_store(path, fields)


def test_v4_store_is_refused_with_a_rebuild_hint(tmp_path):
    """Version 4 wrote every item wherever it occurred."""
    lines = saved_lines(tmp_path)
    lines[0]["version"] = 4
    for column in RECORD_FIELDS:
        line = lines[LINE[column]]
        lines[LINE[column]] = {"column": column, "count": line["count"],
                               "values": decoding.expanded(line), "crc32": ""}
    path = tmp_path / "v4.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, (), ("enriched",)):
        with pytest.raises(StoreError, match=r"v4\.jsonl:1: store version 4 "
                           r"is not supported \(this viscx reads version 5\)"
                           r"; re-run ingest and enrich"):
            load_store(path, fields)


def test_meta_line_holds_the_taxonomy_path_once(tmp_path):
    path = tmp_path / "index.jsonl"
    for taxonomy, config_taxonomy in [("tax/one.tsv", "tax/one.tsv"),
                                      (None, None), ("tax/one.tsv", None),
                                      ("tax/one.tsv", "tax/two.tsv")]:
        config = PipelineConfig(taxonomy=config_taxonomy).snapshot()
        store = IndexStore(meta=StoreMeta(taxonomy=taxonomy, config=config))
        save_store(store, path)
        meta_line = path.read_text(encoding="utf-8").splitlines()[0]
        # the config holds it only when it is not the meta line's own
        assert ("taxonomy" in json.loads(meta_line)["config"]) == (
            config_taxonomy != taxonomy)
        assert meta_line.count("tax/one.tsv") == (taxonomy is not None)
        assert load_store(path).meta == store.meta


def saved_lines(tmp_path) -> list[dict]:
    store = IndexStore(meta=StoreMeta(taxonomy="tax.tsv",
                                      config=PipelineConfig().snapshot(),
                                      corpus="corpus", taxonomy_sha256="0" * 64))
    store.add(full_record("a"))
    store.add(IndexRecord("b", (), (VisRecord("vo1", "sky", 0.5),)))
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def sealed(body: str) -> str:
    """A column line: `body`, the text before its crc32, and the crc32."""
    return f'{body},"crc32":"{zlib.crc32(body.encode()):08x}"}}'


def line_text(line, seal: bool = True) -> str:
    """One store line: a string as is, a dict as compact JSON. A column line
    (a dict with a "crc32") gets a crc32 computed afresh, so that a damaged
    value reaches the decoders, unless `seal` is false."""
    if isinstance(line, str):
        return line
    if not (seal and isinstance(line, dict) and "crc32" in line):
        return json.dumps(line, separators=(",", ":"))
    body = {key: value for key, value in line.items() if key != "crc32"}
    return sealed(json.dumps(body, separators=(",", ":"))[:-1])


def store_text(lines, unsealed=()) -> str:
    """Store text with one line per item (see line_text); the lines at the
    indices `unsealed` keep the crc32 they hold."""
    return "".join(line_text(line, n not in unsealed) + "\n"
                   for n, line in enumerate(lines))


def _set(line: dict, keys, value) -> dict:
    node = line
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return line


def _set_value(lines, column: str, keys, value) -> list:
    """`lines` with the node at `keys` of `column`'s values set to `value`;
    `keys` start with the document's index, and in a record column go on
    into its items (see decoding.with_value)."""
    def change(old):
        return _set(old, keys[1:], value) if keys[1:] else value
    lines[LINE[column]] = decoding.with_value(lines[LINE[column]], keys[0],
                                              change)
    return lines


def _column_line(lines, column: str, render, render_item=json.dumps) -> list:
    """`lines` with `column`'s line written afresh, each document's list of
    item numbers rendered as JSON text by `render` (None as null) and each
    item by `render_item`, and sealed."""
    line = lines[LINE[column]]
    items = ",".join(map(render_item, line["items"]))
    values = ",".join("null" if value is None else render(value)
                      for value in line["values"])
    lines[LINE[column]] = sealed(
        f'{{"column":"{column}","count":{line["count"]},"items":[{items}],'
        f'"values":[{values}]')
    return lines


def _spaced(value) -> str:
    """A list or an item with JSON whitespace around and inside it."""
    if isinstance(value, list):
        inner = " ,\t".join(map(_spaced, value))
        return f"[ \r{inner}\t ]" if inner else "[ ]"
    return json.dumps(value, separators=(" , ", " :\r"))


def test_store_text_rebuilds_the_saved_file(tmp_path):
    lines = saved_lines(tmp_path)
    assert store_text(lines) == (tmp_path / "index.jsonl").read_text()
    # a record column line numbers its items as decoding.packed does
    for column in RECORD_FIELDS:
        line = lines[LINE[column]]
        assert decoding.packed(line, decoding.expanded(line)) == line


@pytest.mark.parametrize("damage", [
    lambda lines: lines + [[1]],
    lambda lines: lines[:LINE["areas"]] + [sealed(
        '{"column":"areas","count":2,"values":[' + "[" * 5000)]
    + lines[LINE["areas"] + 1:],
    lambda lines: [_set(lines[0], ["config"], "x")] + lines[1:],
    lambda lines: [_set(lines[0], ["config", "window"], "x")] + lines[1:],
    lambda lines: _set_value(lines, "enriched", [0], "x"),
    lambda lines: _set_value(lines, "terms", [0], [1]),
    lambda lines: _set_value(lines, "areas", [0, 0, "impact"], 5),
    lambda lines: _set_value(lines, "areas", [0, 0, "impact"], 10 ** 400),
    lambda lines: _set_value(lines, "doc_id", [1], "a"),
    lambda lines: _set_value(lines, "doc_id", [0], 5),
    lambda lines: _set_value(lines, "areas", [0, 0, "tokens", 0], 1),
    lambda lines: _set_value(lines, "contextual", [0, 0, "cx"], 5),
    lambda lines: _set_value(lines, "terms", [0, 0, "head", 0], 5),
    lambda lines: _set_value(lines, "terms", [0, 0, "head"], []),
    lambda lines: _set_value(lines, "terms", [0, 0, "head"], ["rose"]),
    # the original concept is the visual record's, the decision the branch's
    lambda lines: _set_value(lines, "vis_records", [0, 0, "vsc"], 5),
    lambda lines: _set_value(lines, "enriched", [0, 0, "branch"], 5),
    lambda lines: _set_value(lines, "enriched", [0, 0, "branch"], []),
    lambda lines: _set_value(lines, "enriched", [0, 0, "matched_head"], 5),
    # a document's value that is neither a list nor null, or null where
    # the column holds a list for every document
    lambda lines: _set_value(lines, "areas", [1], 7),
    lambda lines: _set_value(lines, "contextual", [0], {"cx": "rose"}),
    lambda lines: _set_value(lines, "areas", [0], None),
    lambda lines: _column_line(lines, "contextual",
                               lambda value: json.dumps(value)[:-1] + ",]"),
    lambda lines: _column_line(lines, "terms",
                               lambda value: "[,]" if value else "[]"),
], ids=["list-line", "deep-nesting", "config-string", "config-window",
        "enriched-string", "terms-number", "impact-5",
        "impact-huge", "duplicate-doc", "doc-id-number", "token-number",
        "cx-number", "head-number", "head-empty", "head-short",
        "original-vsc-number", "decision-number", "branch-list",
        "matched-head-number", "document-number", "document-object",
        "areas-null", "trailing-comma", "comma-only"])
def test_malformed_line_gives_store_error(tmp_path, damage):
    lines = damage(saved_lines(tmp_path))
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=r"damaged\.jsonl:\d+: "):
        load_store(path)


def test_json_whitespace_inside_a_column_line_loads(tmp_path):
    """Whitespace inside a document's list of item numbers, and around or
    inside the items, is JSON and loads as the compact text does."""
    lines = saved_lines(tmp_path)
    for column in RECORD_FIELDS:
        lines = _column_line(lines, column, _spaced, _spaced)
    path = tmp_path / "spaced.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    assert b" :\r" in path.read_bytes()
    assert load_store(path).records == load_store(
        tmp_path / "index.jsonl").records


def test_a_damaged_item_in_several_documents_is_named_at_the_first(
        tmp_path):
    """An item text that fails to decode is reported once, at the first
    document holding it, with the message of decoding it there."""
    store = IndexStore()
    for doc_id in "abcd":
        store.add(full_record(doc_id))
    save_store(store, tmp_path / "index.jsonl")
    lines = [json.loads(line) for line in
             (tmp_path / "index.jsonl").read_text().splitlines()]
    for doc in (1, 2, 3):
        _set_value(lines, "contextual", [doc, 0, "imp"], "high")
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    with pytest.raises(StoreError) as error:
        load_store(path)
    assert str(error.value) == (
        f"{path}:{LINE['contextual'] + 1}: contextual of document "
        "'b': expected a number, got 'high'")


def repeating_store() -> IndexStore:
    """Documents that repeat each other's items, and one that does not."""
    store = IndexStore()
    for doc_id in ("a", "b", "c"):
        store.add(full_record(doc_id))
    other = full_record("d")
    store.add(replace(other, contextual=(
        ContextualConcept("rose", 0.5, AreaKind.ALT_ATTRIBUTE),
        *other.contextual)))
    return store


def test_an_interning_load_equals_the_plain_decode(tmp_path):
    store = repeating_store()
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded.records == decoding.plain_records(path) == store.records
    assert repr(loaded.records) == repr(store.records)
    save_store(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    assert load_store(tmp_path / "again.jsonl") == loaded


def test_equal_item_texts_load_as_one_object(tmp_path):
    path = tmp_path / "index.jsonl"
    save_store(repeating_store(), path)
    records = list(load_store(path).records.values())
    for name in ("areas", "vis_records", "contextual", "terms"):
        items = [item for record in records for item in getattr(record, name)]
        by_text = {}
        for text, item in zip(decoding.item_texts(path, name), items):
            assert by_text.setdefault(text, item) is item, name
        assert len(by_text) < len(items), name


def test_each_distinct_item_text_is_decoded_once(tmp_path, monkeypatch,
                                                 base_lattice):
    """On the seed-1 corpus, loading decodes one syntactic term and one
    contextual concept per distinct item text, not per item."""
    corpusgen.generate_corpus(tmp_path / "corpus", seed=1)
    cfg = PipelineConfig()
    store = ingest_corpus(tmp_path / "corpus", cfg)
    enrich_store(store, base_lattice, cfg)
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    calls = {}
    for column in ("terms", "contextual"):
        encode, decode = store_module._CODECS[column]

        def counted(data, decode=decode, column=column):
            calls[column] = calls.get(column, 0) + 1
            return decode(data)
        monkeypatch.setitem(store_module._CODECS, column, (encode, counted))
    assert load_store(path) == store
    for column in ("terms", "contextual"):
        texts = decoding.item_texts(path, column)
        assert calls[column] == len(set(texts)) < len(texts), column


def test_a_column_line_holds_each_distinct_item_once(tmp_path):
    """A save numbers each distinct item text of a column once, in order of
    first reference, and refers to it from every document that holds it
    (that this loads and saves again as it was:
    test_an_interning_load_equals_the_plain_decode)."""
    path = tmp_path / "index.jsonl"
    save_store(repeating_store(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for column in RECORD_FIELDS:
        line = json.loads(lines[LINE[column]])
        assert list(line) == ["column", "count", "items", "values", "crc32"]
        texts = list(map(decoding.item_text, line["items"]))
        assert len(set(texts)) == len(texts), column
        refs = [n for value in line["values"] if value for n in value]
        assert list(dict.fromkeys(refs)) == list(range(len(texts))), column
        assert len(refs) > len(texts), column  # every document repeats some
        for text in texts:
            assert lines[LINE[column]].count(text) == 1, column


@pytest.mark.parametrize("column, keys, value, doc, problem", [
    ("areas", ["values", 1], "x", "b",
     "expected a list of item numbers, got 'x'"),
    ("contextual", ["values", 1], {"0": 0}, "b",
     "expected a list of item numbers, got {'0': 0}"),
    ("areas", ["values", 0], None, "a",
     "expected a list of item numbers, got None"),
    ("vis_records", ["values", 1, 0], True, "b",
     "expected the number of one of the column's 3 items, got True"),
    ("areas", ["values", 1], [True], "b",
     "expected the number of one of the column's 2 items, got True"),
    ("vis_records", ["values", 1, 0], -1, "b",
     "expected the number of one of the column's 3 items, got -1"),
    ("vis_records", ["values", 1, 0], 3, "b",
     "expected the number of one of the column's 3 items, got 3"),
    ("vis_records", ["values", 1, 0], 2.0, "b",
     "expected the number of one of the column's 3 items, got 2.0"),
    ("terms", ["values", 0, 0], "0", "a",
     "expected the number of one of the column's 1 items, got '0'"),
    ("vis_records", ["items", 2, "r"], 2, "b",
     "malformed value: recognition probability out of [0,1]: 2.0"),
    ("enriched", ["items", 0, "branch"], "guessed", "a",
     "unknown fusion branch 'guessed'"),
], ids=["value-string", "value-object", "value-null", "ref-bool",
        "ref-bool-to-a-referenced-item", "ref-negative", "ref-count",
        "ref-float", "ref-string", "item-of-second-document",
        "item-of-first-document"])
def test_a_bad_item_number_or_item_is_named_at_its_first_document(
        tmp_path, column, keys, value, doc, problem):
    """A document's value that is not a list of the numbers of the
    column's items, or an item that does not decode, gives one StoreError
    that names the line and the first document that holds or references
    it."""
    lines = saved_lines(tmp_path)
    _set(lines[LINE[column]], keys, value)
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, [column]):
        with pytest.raises(StoreError) as error:
            load_store(path, fields)
        assert str(error.value) == (f"{path}:{LINE[column] + 1}: {column} "
                                    f"of document '{doc}': {problem}")


def test_an_item_no_document_references_is_refused(tmp_path):
    lines = saved_lines(tmp_path)
    items = lines[LINE["areas"]]["items"]
    items.insert(1, items[0])
    lines[LINE["areas"]]["values"][0] = [0, 2]
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    with pytest.raises(StoreError) as error:
        load_store(path, ["areas"])
    assert str(error.value) == (f"{path}:{LINE['areas'] + 1}: areas column: "
                                "no document references item 1")
    assert load_store(path, ["terms"]).records["a"].areas is None


@pytest.mark.parametrize("column, keys, value", [
    ("areas", [0, 0, "impact"], "0.9"),
    ("areas", [0, 1, "impact"], True),
    ("vis_records", [0, 0, "r"], "0.5"),
    ("vis_records", [0, 0, "colors", "red"], True),
    ("vis_records", [0, 0, "textures", "uniform"], "0.8"),
    ("contextual", [0, 0, "imp"], "0.9"),
    ("contextual", [0, 0, "imp"], True),
    ("terms", [0, 0, "head", 1], "0.9"),
    ("terms", [0, 0, "colors", 0, 1], True),
], ids=["area-impact-string", "area-impact-bool", "vis-r-string",
        "vis-color-bool", "vis-texture-string", "cx-imp-string",
        "cx-imp-bool", "term-head-string", "term-pair-bool"])
def test_a_number_of_an_item_must_be_a_json_number(tmp_path, column, keys,
                                                   value):
    """Every decoder takes a number only from a JSON number, though
    `float` would take a numeric string or a bool: the areas, visual
    records, contextual concepts, term heads and term attribute pairs, as
    the enriched decisions (test_a_membership_value_must_be_a_number_...)."""
    lines = _set_value(saved_lines(tmp_path), column, keys, value)
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, [column]):
        with pytest.raises(StoreError) as error:
            load_store(path, fields)
        assert str(error.value) == (f"{path}:{LINE[column] + 1}: {column} of "
                                    f"document 'a': expected a number, got "
                                    f"{value!r}")


@pytest.mark.parametrize("imp", [1.5, -0.25, float("nan")])
def test_a_contextual_impact_out_of_the_unit_interval_is_refused_at_load(
        tmp_path, imp):
    lines = _set_value(saved_lines(tmp_path), "contextual", [0, 0, "imp"], imp)
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, ["contextual"]):
        with pytest.raises(StoreError) as error:
            load_store(path, fields)
        assert str(error.value) == (
            f"{path}:{LINE['contextual'] + 1}: contextual of document 'a': "
            f"impact out of [0,1]: {imp!r}")
    with pytest.raises(ViscxError, match=re.escape(f"out of [0,1]: {imp!r}")):
        ContextualConcept("rose", imp, AreaKind.ALT_ATTRIBUTE)


def test_null_matched_head_loads(tmp_path):
    """A kept record needs no matched head; it keeps its visual concept."""
    lines = _set_value(saved_lines(tmp_path), "enriched", [0, 0, "branch"],
                       "correspondence_kept")
    lines = _set_value(lines, "enriched", [0, 0, "matched_head"], None)
    path = tmp_path / "null_head.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    record = load_store(path).records["a"].enriched[0]
    assert record.provenance.matched_head is None
    assert record.provenance.branch == "correspondence_kept"
    assert (record.vsc, record.provenance.decision) == ("flower", "kept")


@pytest.mark.parametrize("fields", [(), ("areas",), ("terms", "contextual"),
                                    ("enriched", "vis_records")])
def test_partial_load_builds_only_the_named_fields(tmp_path, fields):
    saved_lines(tmp_path)
    full = load_store(tmp_path / "index.jsonl")
    partial = load_store(tmp_path / "index.jsonl", fields)
    assert set(partial.fields) == set(fields)
    assert partial.meta == full.meta
    assert list(partial.records) == list(full.records)
    for doc_id, record in partial.records.items():
        for name in RECORD_FIELDS:
            want = getattr(full.records[doc_id], name) if name in fields else None
            assert getattr(record, name) == want, name


def test_partial_load_refuses_unknown_field_names(tmp_path):
    saved_lines(tmp_path)
    with pytest.raises(ValueError, match="not IndexRecord fields.*'vis'"):
        load_store(tmp_path / "index.jsonl", ["vis"])


def _crc_mismatch(lines):
    """`lines` with one areas value changed in the text, crc32 kept."""
    text = line_text(lines[LINE["areas"]])
    assert '"impact":0.9,' in text
    lines[LINE["areas"]] = text.replace('"impact":0.9,', '"impact":0.8,', 1)
    return lines


def _areas_of_one_document(lines):
    """`lines` whose areas column holds only the first document's value."""
    areas = lines[LINE["areas"]]
    areas.update(count=1, values=areas["values"][:1])
    return lines


def _swap(lines, a, b):
    lines[a], lines[b] = lines[b], lines[a]
    return lines


@pytest.mark.parametrize("damage, lineno", [
    (lambda lines: lines + [[1]], 8),
    (lambda lines: lines + ["{"], 8),
    (lambda lines: [_set(lines[0], ["config", "window"], "x")] + lines[1:], 1),
    (lambda lines: [_set(lines[0], ["version"], 1)] + lines[1:], 1),
    (lambda lines: [_set(lines[LINE["terms"]], ["column"], "areas")
                    if n == LINE["terms"] else line
                    for n, line in enumerate(lines)], LINE["terms"] + 1),
    (lambda lines: _set_value(lines, "doc_id", [0], 5), 2),
    (lambda lines: _set_value(lines, "doc_id", [1], "a"), 2),
    (_crc_mismatch, LINE["areas"] + 1),
    (lambda lines: lines[:LINE["areas"]] + lines[LINE["areas"] + 1:],
     LINE["areas"] + 1),
    (lambda lines: lines[:-1], len(LINE) + 1),
    (lambda lines: lines + [lines[-1]], len(LINE) + 2),
    (lambda lines: _swap(lines, LINE["contextual"], LINE["terms"]),
     LINE["contextual"] + 1),
    (_areas_of_one_document, LINE["areas"] + 1),
], ids=["list-line", "bad-json", "config-window", "meta-version",
        "column-name", "doc-id-number", "duplicate-doc", "crc-mismatch",
        "missing-column", "missing-last-column", "extra-column",
        "reordered-columns", "count-differs"])
def test_partial_load_checks_every_line(tmp_path, damage, lineno):
    """What every line must get right (its place, crc32 and count, the
    meta line and the document ids) is checked whichever fields are read,
    even none, and the error names the line."""
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(damage(saved_lines(tmp_path))), encoding="utf-8")
    for fields in [()] + [(name,) for name in RECORD_FIELDS]:
        with pytest.raises(StoreError, match=rf"damaged\.jsonl:{lineno}: "):
            load_store(path, fields)


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_partial_load_leaves_an_unread_field_unchecked(tmp_path, name):
    """A column that does not decode but matches its crc32 loads when it is
    not read, and fails at its line when it is."""
    lines = _set_value(saved_lines(tmp_path), name, [0], "x")
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, [name]):
        with pytest.raises(StoreError, match=rf"damaged\.jsonl:{LINE[name] + 1}"
                           rf": {name} of document 'a': "):
            load_store(path, fields)
    # enriched records are rebuilt from the visual records, so reading
    # enriched reads vis_records too
    others = [field for field in RECORD_FIELDS if field != name
              and (field, name) != ("enriched", "vis_records")]
    assert load_store(path, others).records["a"].doc_id == "a"


def test_save_refuses_a_partly_loaded_store(tmp_path):
    saved_lines(tmp_path)
    path = tmp_path / "index.jsonl"
    before = path.read_bytes()
    partial = load_store(path, ("vis_records",))
    with pytest.raises(StoreError, match="cannot save a store loaded without "
                       "its records' areas, contextual, terms, enriched"):
        save_store(partial, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.jsonl"]
    save_store(load_store(path), path)  # a full load saves as it was read
    assert path.read_bytes() == before


def _node_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5)


@st.composite
def damages(draw, lines):
    """One damage to one of `lines`: (line index, how, key path, value),
    where `value` is the cut for "truncate"; see damaged_text."""
    n = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["truncate", "replace", "delete"]))
    if how == "truncate":
        return n, how, (), draw(st.integers(0, len(json.dumps(lines[n])) - 1))
    keys = draw(st.sampled_from(list(_node_paths(lines[n]))))
    return n, how, keys, draw(JSON_VALUES)


def damaged_text(lines, damage) -> str:
    """The store text of `lines` with one line truncated, replaced by a
    JSON value, or with one node replaced or one key deleted. A damaged
    column line gets a fresh crc32 (see line_text), unless the damage is
    to its crc32."""
    n, how, keys, value = damage
    lines = copy.deepcopy(lines)
    if how == "truncate":
        lines[n] = json.dumps(lines[n])[:value]
    elif not keys:
        lines[n] = value
    elif how == "delete" and isinstance(keys[-1], str):
        node = lines[n]
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    else:
        _set(lines[n], keys, value)
    return store_text(lines, unsealed={n} if keys[:1] == ("crc32",) else ())


@functools.cache
def stored_lines() -> list:
    """The lines of `saved_lines`, saved once."""
    with tempfile.TemporaryDirectory() as tmp:
        return saved_lines(Path(tmp))


def loads_or_store_error(path, fields_list) -> None:
    for fields in fields_list:
        try:
            load_store(path, fields)
        except StoreError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.deferred(lambda: damages(stored_lines())))
@example((LINE["terms"], "replace", ("items", 0, "head", 1), "0.9"))
@example((LINE["areas"], "delete", ("items", 1, "kind"), None))
@example((LINE["vis_records"], "replace", ("items", 2), [0]))
@example((LINE["enriched"], "replace", ("items",), {"0": 1}))
@example((LINE["contextual"], "replace", ("values", 0, 0), True))
def test_truncated_or_mutated_line_gives_store_error_only(damage):
    """A damaged line, its items included, either still decodes or raises
    StoreError; no other exception escapes load_store, whichever fields
    it reads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.jsonl"
        path.write_text(damaged_text(stored_lines(), damage),
                        encoding="utf-8")
        loads_or_store_error(path, (None, ()))


#: what replaces a node of a column line's items or item numbers
REPLACEMENTS = (None, True, -1, 2.5, 10 ** 400, "x", [], {}, [0])


def test_every_damaged_item_or_item_number_gives_store_error_only(tmp_path):
    """Each node of every record column's items and lists of item numbers,
    deleted or replaced by each of REPLACEMENTS, either still loads or
    raises StoreError, whichever fields are read."""
    lines = saved_lines(tmp_path)
    path = tmp_path / "damaged.jsonl"
    for column in RECORD_FIELDS:
        n = LINE[column]
        for keys in _node_paths(lines[n]):
            if keys[:1] not in (("items",), ("values",)):
                continue
            for how, value in [("delete", None), *(
                    ("replace", value) for value in REPLACEMENTS)]:
                path.write_text(damaged_text(lines, (n, how, keys, value)),
                                encoding="utf-8")
                loads_or_store_error(path, (None, (column,)))


@pytest.mark.parametrize("fault", ["encode", "rename"])
def test_failed_save_leaves_old_file_and_no_stray_file(tmp_path, monkeypatch,
                                                       fault):
    import viscx.store
    store = IndexStore()
    store.add(full_record("a"))
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    assert [p.name for p in tmp_path.iterdir()] == ["index.jsonl"]
    before = path.read_bytes()
    store.add(full_record("b"))

    def broken(*_args):
        raise OSError(f"{fault} failed")
    if fault == "encode":  # after the lines before the enriched column
        monkeypatch.setitem(viscx.store._CODECS, "enriched", (broken, None))
    else:
        monkeypatch.setattr(viscx.store.os, "replace", broken)
    with pytest.raises(OSError, match=f"{fault} failed"):
        save_store(store, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.jsonl"]


def test_save_through_symlink_keeps_the_link(tmp_path):
    real = tmp_path / "real.jsonl"
    link = tmp_path / "link.jsonl"
    save_store(IndexStore(), real)
    link.symlink_to(real)
    store = IndexStore()
    store.add(full_record("a"))
    save_store(store, link)
    assert link.is_symlink()
    assert load_store(real) == store
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl",
                                                          "real.jsonl"]


def test_save_keeps_the_permission_bits_of_the_old_file(tmp_path):
    path = tmp_path / "index.jsonl"
    save_store(IndexStore(), path)
    path.chmod(0o600)
    save_store(IndexStore(), path)
    assert path.stat().st_mode & 0o777 == 0o600


# -- the enriched column holds each record's fusion decision ---------------


#: what a save writes of an enriched record; the rest is derived
DECISION_KEYS = ["branch", "matched_head", "mu_cx", "mu_vsc"]


def test_the_enriched_column_holds_one_decision_per_visual_record(tmp_path):
    lines = saved_lines(tmp_path)
    assert lines[0]["version"] == 5
    assert lines[LINE["enriched"]]["values"] == [[0, 1], None]
    a, b = decoding.expanded(lines[LINE["enriched"]])
    assert b is None  # not enriched
    assert a == [{"branch": "correspondence_specialized",
                  "matched_head": "rose", "mu_cx": 0.91, "mu_vsc": 0.88},
                 {"branch": "unmatched", "matched_head": None, "mu_cx": None,
                  "mu_vsc": 0.6}]


def _holding(record, **changes):
    """`record` whose first enriched record holds its visual record
    changed by `changes`, with the same fusion decision."""
    first, *rest = record.enriched
    return replace(record, enriched=(EnrichedVisRecord(
        replace(first.vis, **changes), first.provenance), *rest))


def _assign(**changes):
    """A change that assigns `changes`, in order, to the first enriched
    record (``decision`` to its provenance)."""
    def change(record):
        first = record.enriched[0]
        for name, value in changes.items():
            setattr(first.provenance if name == "decision" else first, name,
                    value)
    return change


def _rebuilt(record, branch):
    """The first enriched record made anew with its decision's branch set
    to `branch`."""
    first = record.enriched[0]
    return EnrichedVisRecord(first.vis, first.provenance._replace(
        branch=branch))


ANOTHER_VISUAL_RECORD = (r"its visual record differs from the document's "
                         r"visual record 0 \('vo1'\)")


@pytest.mark.parametrize("change, error, problem", [
    (lambda r: EnrichedVisRecord(r.enriched[0].vis), TypeError,
     "missing 1 required positional argument: 'provenance'"),
    (lambda r: _rebuilt(r, "guessed"), ValueError,
     "unknown fusion branch 'guessed'"),
    (_assign(decision="kept"), AttributeError,
     "'FusionProvenance' object has no setter"),
    (_assign(vsc="flower"), FrozenInstanceError, "field 'vsc'"),
    (_assign(original_vsc="plant"), FrozenInstanceError, "field 'original_vsc'"),
    (_assign(final_mu=0.95), FrozenInstanceError, "field 'final_mu'"),
    (lambda r: _holding(r, vo_id="vo9"), StoreError,
     f"enriched record 'vo9': {ANOTHER_VISUAL_RECORD}"),
    (lambda r: _holding(r, r_vsc=0.6), StoreError, ANOTHER_VISUAL_RECORD),
    (lambda r: _holding(r, colors={"red": 0.4}), StoreError,
     ANOTHER_VISUAL_RECORD),
    (lambda r: _holding(r, textures={}), StoreError, ANOTHER_VISUAL_RECORD),
    (lambda r: _holding(r, spatial=frozenset()), StoreError,
     ANOTHER_VISUAL_RECORD),
    (lambda r: replace(r.enriched[0], vsc="flower", final_mu=0.88,
                       decision="kept"), TypeError,
     "unexpected keyword argument"),
], ids=["no-provenance", "unknown-branch", "decision", "vsc", "original-vsc",
        "final-mu", "vo-id", "r-vsc", "colors", "textures", "spatial",
        "three-fields"])
def test_save_refuses_an_enriched_record_its_decision_does_not_rebuild(
        tmp_path, change, error, problem):
    """The enriched column keeps only the fusion decision, so an enriched
    record that differs from what its visual record and decision make is
    never written. It holds the two and derives the rest, so a record with
    no decision, an unknown branch, or a decision, concept, original
    concept or fused membership of its own cannot be made, by assignment
    or by `dataclasses.replace`; a save refuses one that holds another
    visual record than its document's at its place."""
    path = tmp_path / "index.jsonl"
    store = IndexStore()
    store.add(full_record("a"))
    save_store(store, path)
    before = path.read_bytes()
    with pytest.raises(error, match=problem):
        store.records["a"] = change(store.records["a"])
        save_store(store, path)
    if error is not StoreError:  # nothing was made or changed
        assert store.records["a"] == full_record("a")
        first = store.records["a"].enriched[0]
        assert (first.vsc, first.original_vsc, first.final_mu,
                first.provenance.decision) == ("rose", "flower", 0.91,
                                               "replaced")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.jsonl"]


def test_save_refuses_enriched_records_of_another_count(tmp_path):
    record = full_record("a")
    for enriched in (record.enriched[:1], record.enriched * 2, ()):
        store = IndexStore()
        store.add(replace(record, enriched=enriched))
        with pytest.raises(StoreError, match=rf"cannot save document 'a': "
                           rf"{len(enriched)} enriched records, not one per "
                           r"visual record \(2\)"):
            save_store(store, tmp_path / "index.jsonl")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("damage, problem", [
    (lambda items: items[:1], r"1 enriched items, not one per visual record "
                              r"\(2\)"),
    (lambda items: items * 2, r"4 enriched items, not one per visual record "
                              r"\(2\)"),
    (lambda items: [], r"0 enriched items, not one per visual record \(2\)"),
    (lambda items: [{**items[0], "branch": "guessed"}, items[1]],
     "unknown fusion branch 'guessed'"),
    (lambda items: [{**items[0], "matched_head": None}, items[1]],
     "expected a string, got None"),
], ids=["fewer", "more", "none", "unknown-branch", "replaced-without-head"])
def test_load_refuses_enriched_items_that_do_not_rebuild_records(
        tmp_path, damage, problem):
    """A load names the enriched line and the document of an item count
    other than the visual records', an unknown branch, or a decision that
    installs a head it does not name."""
    lines = saved_lines(tmp_path)
    lines[LINE["enriched"]] = decoding.with_value(lines[LINE["enriched"]], 0,
                                                  damage)
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, ["enriched"]):
        with pytest.raises(StoreError, match=rf"damaged\.jsonl:"
                           rf"{LINE['enriched'] + 1}: enriched of document "
                           rf"'a': {problem}"):
            load_store(path, fields)
    assert load_store(path, ["vis_records"]).records["a"].enriched is None


def test_reading_enriched_decodes_the_visual_records_it_rebuilds_from(
        tmp_path):
    """A damaged visual record fails a load of enriched at its own line;
    the visual records stay out of the records unless asked for."""
    saved_lines(tmp_path)
    full = load_store(tmp_path / "index.jsonl")
    partial = load_store(tmp_path / "index.jsonl", ["enriched"])
    assert partial.fields == ("enriched",)
    assert partial.records["a"].vis_records is None
    assert partial.records["a"].enriched == full.records["a"].enriched
    lines = _set_value(saved_lines(tmp_path), "vis_records", [0, 0, "r"], 2)
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=rf"damaged\.jsonl:"
                       rf"{LINE['vis_records'] + 1}: vis_records of document "
                       "'a': "):
        load_store(path, ["enriched"])


#: visual concepts of generated documents; the last is not in the lattice
GENERATED_CONCEPTS = ("rose", "flower", "tulip", "sky", "cathedral", "qwzx")
#: alt texts: headed terms, a more specific or unrelated context, attributes
#: with no head, and none
GENERATED_TEXTS = ("red roses", "blue sky", "red spotted", "spotted flowers",
                   "grey cathedral near red tulips", "")
generated_object = st.tuples(
    st.sampled_from(GENERATED_CONCEPTS), st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    st.dictionaries(st.sampled_from(["red", "blue", "grey"]),
                    st.sampled_from([0.25, 0.5]), max_size=2),
    st.dictionaries(st.sampled_from(["spotted", "uniform"]),
                    st.sampled_from([0.5, 1.0]), max_size=1))


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(st.tuples(st.lists(generated_object, max_size=3),
                               st.sampled_from(GENERATED_TEXTS),
                               st.sampled_from(GENERATED_TEXTS)),
                     max_size=6),
       tconorm=st.sampled_from(list(TConormKind)),
       fusion_literal=st.booleans())
def test_enriched_stores_round_trip_through_their_fusion_decisions(
        base_lattice, docs, tconorm, fusion_literal):
    """For stores that enrichment builds, under every t-conorm and either
    fusion rule: load(save(store)) == store, every enriched record loads
    as it was built (attribute by attribute, each value with its type),
    and the enriched column holds only each
    visual record's decision keys. A "COLOR TEXTURE" pattern mines headless
    terms, so that every fusion branch can occur."""
    cfg = PipelineConfig(tconorm=tconorm, fusion_literal=fusion_literal,
                         patterns=DEFAULT_PATTERNS
                         + (parse_pattern("COLOR TEXTURE"),))
    store = IndexStore()
    for n, (objects, alt, text) in enumerate(docs):
        areas = tuple(ExtractionArea(kind, tokenize(words), imp)
                      for kind, words, imp in
                      ((AreaKind.ALT_ATTRIBUTE, alt, 0.9),
                       (AreaKind.SURROUNDING_TEXT, text, 0.5)) if words)
        # weights in name order, as the store writes and so loads them
        vis = tuple(VisRecord(f"vo{i}", vsc, r, dict(sorted(colors.items())),
                              dict(sorted(textures.items())))
                    for i, (vsc, r, colors, textures) in enumerate(objects))
        store.add(IndexRecord(f"d{n}", areas, vis))
    enrich_store(store, base_lattice, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        save_store(store, path)
        loaded = load_store(path)
        text = path.read_text(encoding="utf-8")
    assert loaded == store
    for doc_id, record in store.records.items():
        assert (list(map(typed_attributes, loaded.records[doc_id].enriched))
                == list(map(typed_attributes, record.enriched)))
        for e in record.enriched:
            assert e.provenance.decision == DECISIONS[e.provenance.branch]
    column = decoding.expanded(json.loads(text.splitlines()[LINE["enriched"]]))
    for value, record in zip(column, loaded.records.values()):
        assert len(value) == len(record.vis_records)
        assert all(sorted(item) == DECISION_KEYS for item in value)


#: every attribute an enriched record is read by
ENRICHED_ATTRIBUTES = ("vo_id", "vsc", "r_vsc", "colors", "textures",
                       "spatial", "original_vsc", "final_mu", "provenance")


def typed_attributes(record) -> list:
    """Each of `record`'s ENRICHED_ATTRIBUTES and its provenance's
    decision, with its type, so that 1 and 1.0 differ."""
    values = [getattr(record, name) for name in ENRICHED_ATTRIBUTES]
    values.append(record.provenance.decision)
    return [(type(value), value) for value in values]


def derived_attributes(vis: VisRecord, prov: FusionProvenance) -> list:
    """The attributes of the enriched record of `vis` under the decision
    `prov`, derived as stores have derived them since format 4 began
    to keep only the decision: the concept is the matched head unless the
    decision is kept, the fused membership ``max(mu_vsc, mu_cx)``, and the
    visual fields are the visual record's."""
    decision = DECISIONS[prov.branch]
    values = [vis.vo_id, vis.vsc if decision == "kept" else prov.matched_head,
              vis.r_vsc, vis.colors, vis.textures, vis.spatial, vis.vsc,
              prov.mu_vsc if prov.mu_cx is None else max(prov.mu_vsc,
                                                         prov.mu_cx),
              prov, decision]
    return [(type(value), value) for value in values]


@pytest.mark.parametrize("seed", [1, None], ids=["seed-1", "acceptance"])
def test_a_vis_cx_load_validates_each_visual_record_once(
        tmp_path, monkeypatch, base_lattice, seed):
    """A vis+cx load validates one visual record per distinct item text of
    the vis_records column (not one more per enriched record), and every
    enriched record is a VisRecord that holds its document's visual record
    itself, with the attributes its decision derives."""
    if seed is None:  # the acceptance corpus, with its kernel
        corpusgen.generate_corpus(tmp_path / "corpus")
        cfg = PipelineConfig(kernel=FacetKernel.MIN)
    else:
        corpusgen.generate_corpus(tmp_path / "corpus", seed=seed)
        cfg = PipelineConfig()
    store = ingest_corpus(tmp_path / "corpus", cfg)
    enrich_store(store, base_lattice, cfg)
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    validations = []
    post_init = VisRecord.__post_init__

    def counted(record):
        validations.append(record)
        post_init(record)
    monkeypatch.setattr(VisRecord, "__post_init__", counted)
    loaded = load_store(path, STRATEGY_FIELDS[Strategy.VIS_CX])
    monkeypatch.undo()
    texts = decoding.item_texts(path, "vis_records")
    assert len(validations) == len(set(texts))
    for doc_id, record in loaded.records.items():
        assert len(record.enriched) == len(record.vis_records)
        for vis, e, built in zip(record.vis_records, record.enriched,
                                 store.records[doc_id].enriched):
            assert isinstance(e, VisRecord)
            assert e.vis is vis
            assert typed_attributes(e) == typed_attributes(built) == (
                derived_attributes(vis, e.provenance))
        assert pickle.loads(pickle.dumps(record.enriched)) == record.enriched


@pytest.mark.parametrize("branch", [
    "correspondence_specialized", "correction_context", "correction_literal"])
def test_a_replacing_decisions_head_must_be_a_concept_token(tmp_path, branch):
    """A replaced or corrected record takes its matched head as its
    concept, so a head that is no concept token is refused at load."""
    lines = _set_value(saved_lines(tmp_path), "enriched", [0, 0, "branch"],
                       branch)
    lines = _set_value(lines, "enriched", [0, 0, "matched_head"], "Rose!")
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, ["enriched"]):
        with pytest.raises(StoreError) as error:
            load_store(path, fields)
        assert str(error.value) == (
            f"{path}:{LINE['enriched'] + 1}: enriched of document 'a': "
            "malformed value: invalid semantic concept 'Rose!'")


def test_a_kept_decisions_head_is_not_its_concept(tmp_path):
    """A kept record keeps its visual concept, so its matched head is
    loaded as written, and saved again as it was read."""
    lines = _set_value(saved_lines(tmp_path), "enriched", [0, 0, "branch"],
                       "correspondence_unrelated")
    lines = _set_value(lines, "enriched", [0, 0, "matched_head"], "Rose!")
    path = tmp_path / "kept.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    record = load_store(path).records["a"].enriched[0]
    assert (record.vsc, record.provenance.matched_head) == ("flower", "Rose!")
    save_store(load_store(path), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("key, value, problem", [
    ("mu_vsc", True, "expected a number, got True"),
    ("mu_vsc", "0.5", "expected a number, got '0.5'"),
    ("mu_vsc", float("nan"), "malformed value: mu_vsc out of [0,1]: nan"),
    ("mu_vsc", 1.5, "malformed value: mu_vsc out of [0,1]: 1.5"),
    ("mu_vsc", -0.25, "malformed value: mu_vsc out of [0,1]: -0.25"),
    ("mu_cx", False, "expected a number, got False"),
    ("mu_cx", "x", "expected a number, got 'x'"),
    ("mu_cx", float("nan"), "malformed value: mu_cx out of [0,1]: nan"),
    ("mu_cx", -1, "malformed value: mu_cx out of [0,1]: -1.0"),
    ("mu_cx", 1e300, "malformed value: mu_cx out of [0,1]: 1e+300"),
], ids=["vsc-bool", "vsc-string", "vsc-nan", "vsc-above", "vsc-below",
        "cx-bool", "cx-string", "cx-nan", "cx-below", "cx-above"])
def test_a_membership_value_must_be_a_number_in_the_unit_interval(
        tmp_path, key, value, problem):
    """A decision's membership values are JSON numbers in [0,1] (mu_cx may
    be null): anything else is refused at load, naming the store, line and
    document, and by the record's constructor."""
    lines = _set_value(saved_lines(tmp_path), "enriched", [0, 0, key], value)
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    for fields in (None, ["enriched"]):
        with pytest.raises(StoreError) as error:
            load_store(path, fields)
        assert str(error.value) == (f"{path}:{LINE['enriched'] + 1}: enriched "
                                    f"of document 'a': {problem}")
    first = full_record().enriched[0]
    if problem.startswith("malformed"):
        with pytest.raises(ValueError, match=re.escape(problem[17:])):
            EnrichedVisRecord(first.vis, first.provenance._replace(
                **{key: float(value)}))
