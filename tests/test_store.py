import pytest

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
        doc_id=doc_id, html_path=f"corpus/{doc_id}.html",
        vis_path=f"corpus/{doc_id}.vis",
        areas=(ExtractionArea(AreaKind.ALT_ATTRIBUTE, ("red", "roses"), 0.9,
                              "red roses"),
               ExtractionArea(AreaKind.SURROUNDING_TEXT,
                              ("smooth", "roses", "here"), 0.5,
                              "smooth roses here")),
        vis_records=(vis, vis2),
        contextual=(ContextualConcept("rose", 0.9, AreaKind.ALT_ATTRIBUTE),),
        terms=(SyntacticTerm(("rose", 0.9), frozenset({("red", 0.9)}),
                             frozenset(), frozenset()),),
        enriched=(enriched,),
        log=("vo1: replaced",))


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
    record = IndexRecord("d", "d.html", "d.vis", (), (VisRecord("vo1", "sky", 0.5),))
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
