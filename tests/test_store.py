import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscx import PipelineConfig, StoreError, VisRecord
from viscx.context import AreaKind, ContextualConcept, ExtractionArea, SyntacticTerm
from viscx.fusion import EnrichedVisRecord, FusionProvenance
from viscx.store import (STORE_VERSION, IndexRecord, IndexStore, StoreMeta,
                         load_store, record_from_dict, record_to_dict,
                         save_store)


def full_record(doc_id="doc1"):
    vis = VisRecord("vo1", "flower", 0.7, {"red": 0.5}, {"uniform": 0.8},
                    frozenset({("near", "vo2")}))
    vis2 = VisRecord("vo2", "ground", 0.9)
    enriched = EnrichedVisRecord(
        vo_id="vo1", vsc="rose", r_vsc=0.7, colors={"red": 0.5},
        textures={"uniform": 0.8}, spatial=frozenset({("near", "vo2")}),
        original_vsc="flower", final_mu=0.91,
        provenance=FusionProvenance("replaced", "correspondence_specialized",
                                    "rose", 0.88, 0.91))
    return IndexRecord(
        doc_id=doc_id,
        areas=(ExtractionArea(AreaKind.ALT_ATTRIBUTE, ("red", "roses"), 0.9),
               ExtractionArea(AreaKind.SURROUNDING_TEXT,
                              ("smooth", "roses", "here"), 0.5)),
        vis_records=(vis, vis2),
        contextual=(ContextualConcept("rose", 0.9, AreaKind.ALT_ATTRIBUTE),),
        terms=(SyntacticTerm(("rose", 0.9), frozenset({("red", 0.9)}),
                             frozenset(), frozenset()),),
        enriched=(enriched,))


def test_record_dict_roundtrip():
    record = full_record()
    assert record_from_dict(record_to_dict(record)) == record


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
    # records come out sorted by doc id regardless of insertion order
    lines = p1.read_text().splitlines()
    assert '"doc_id":"a"' in lines[1] and '"doc_id":"b"' in lines[2]


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


def saved_lines(tmp_path) -> list[dict]:
    store = IndexStore(meta=StoreMeta(taxonomy="tax.tsv",
                                      config=PipelineConfig().snapshot(),
                                      corpus="corpus", taxonomy_sha256="0" * 64))
    store.add(full_record("a"))
    store.add(IndexRecord("b", (), (VisRecord("vo1", "sky", 0.5),)))
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def store_text(lines) -> str:
    """Store text with one line per item: a dict as JSON, a string as is."""
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                   for line in lines)


def _set(line: dict, keys, value) -> dict:
    node = line
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return line


@pytest.mark.parametrize("damage", [
    lambda lines: lines + [[1]],
    lambda lines: lines + ["[" * 5000],
    lambda lines: [_set(lines[0], ["config"], "x")] + lines[1:],
    lambda lines: [_set(lines[0], ["config", "window"], "x")] + lines[1:],
    lambda lines: lines[:1] + [_set(lines[1], ["enriched"], "x")] + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["terms"], [1])] + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["areas", 0, "impact"], 5)]
    + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["areas", 0, "impact"],
                                    10 ** 400)] + lines[2:],
    lambda lines: lines + [lines[1]],
    lambda lines: lines[:1] + [_set(lines[1], ["doc_id"], 5)] + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["areas", 0, "tokens", 0], 1)]
    + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["contextual", 0, "cx"], 5)]
    + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["terms", 0, "head", 0], 5)]
    + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["terms", 0, "head"], [])]
    + lines[2:],
    lambda lines: lines[:1] + [_set(lines[1], ["terms", 0, "head"], ["rose"])]
    + lines[2:],
], ids=["list-line", "deep-nesting", "config-string", "config-window",
        "enriched-string", "terms-number", "impact-5",
        "impact-huge", "duplicate-doc", "doc-id-number", "token-number",
        "cx-number", "head-number", "head-empty", "head-short"])
def test_malformed_line_gives_store_error(tmp_path, damage):
    lines = damage(saved_lines(tmp_path))
    path = tmp_path / "damaged.jsonl"
    path.write_text(store_text(lines), encoding="utf-8")
    with pytest.raises(StoreError, match=r"damaged\.jsonl:\d+: "):
        load_store(path)


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
    JSON value, or with one node replaced or one key deleted."""
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
    return store_text(lines)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_truncated_or_mutated_line_gives_store_error_only(data):
    """A damaged line either still decodes or raises StoreError; no other
    exception escapes load_store."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = saved_lines(Path(tmp))
        path = Path(tmp) / "damaged.jsonl"
        path.write_text(damaged_text(lines, data.draw(damages(lines))),
                        encoding="utf-8")
        try:
            load_store(path)
        except StoreError:
            pass


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
    if fault == "encode":
        monkeypatch.setattr(viscx.store, "record_to_dict", broken)
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
