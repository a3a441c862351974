import os
from dataclasses import replace

from viscx import PipelineConfig, VisRecord, cli
from viscx.context import AreaKind, ExtractionArea, tokenize
from viscx.fusion import FusionProvenance
from viscx.pipeline import (enrich_document, ingest_corpus, ingest_document,
                            pair_corpus)
from viscx.store import IndexRecord


def record_with(alt_text=None, vsc="flower", r=0.7):
    areas = ()
    if alt_text is not None:
        areas = (ExtractionArea(AreaKind.ALT_ATTRIBUTE, tokenize(alt_text),
                                0.9),)
    return IndexRecord("doc", areas,
                       (VisRecord("vo1", vsc, r, colors={"red": 0.5}),))


def test_enrich_without_context_keeps_records(base_lattice):
    enriched = enrich_document(record_with(None), base_lattice,
                               PipelineConfig())
    assert enriched.contextual == ()
    assert enriched.terms == ()
    e = enriched.enriched[0]
    assert e.vsc == "flower" and e.original_vsc == "flower"
    assert e.provenance.decision == "kept"
    # with no context the membership value is the visual evidence alone
    assert e.final_mu == 0.7


def test_enrich_specializes_from_alt(base_lattice):
    enriched = enrich_document(record_with("red roses"), base_lattice,
                               PipelineConfig())
    e = enriched.enriched[0]
    assert e.vsc == "rose" and e.original_vsc == "flower"
    prov = e.provenance
    assert (prov.decision, prov.branch, prov.matched_head) == (
        "replaced", "correspondence_specialized", "rose")
    assert e.final_mu == max(prov.mu_vsc, prov.mu_cx)


def test_enrich_unknown_vsc_left_out_of_fusion(base_lattice):
    enriched = enrich_document(record_with("red roses", vsc="gizmo"),
                               base_lattice, PipelineConfig())
    e = enriched.enriched[0]
    assert e.vsc == "gizmo"
    assert e.provenance == FusionProvenance("unknown_concept", None, 0.7, None)
    assert e.provenance.decision == "kept"
    assert e.final_mu == 0.7


def test_an_unknown_concept_between_known_records_keeps_its_place(
        base_lattice):
    """The unknown record is kept in its place, and the known ones are
    enriched as they are without it."""
    cfg = PipelineConfig()
    known = (VisRecord("vo1", "flower", 0.7, colors={"red": 0.5}),
             VisRecord("vo3", "building", 0.75, colors={"grey": 0.5}))
    unknown = VisRecord("vo2", "gizmo", 0.4, colors={"blue": 0.3})
    base = record_with("red roses by an old grey cathedral")
    mixed = enrich_document(replace(base, vis_records=(
        known[0], unknown, known[1])), base_lattice, cfg).enriched
    alone = enrich_document(replace(base, vis_records=known),
                            base_lattice, cfg).enriched
    assert [e.vo_id for e in mixed] == ["vo1", "vo2", "vo3"]
    assert mixed[1].provenance == FusionProvenance(
        "unknown_concept", None, unknown.r_vsc, None)
    assert mixed[1].provenance.decision == "kept"
    assert mixed[1].final_mu == unknown.r_vsc
    assert (mixed[1].vsc, mixed[1].original_vsc) == ("gizmo", "gizmo")
    assert (mixed[0], mixed[2]) == alone
    assert {e.provenance.branch for e in alone} == {
        "correspondence_specialized"}


def test_records_sharing_a_vo_id_are_each_enriched(base_lattice):
    """`parse_vis` refuses a repeated vo id, but a store edited by hand may
    hold one; each record is still enriched from its own concept."""
    record = replace(record_with("red roses"), vis_records=(
        VisRecord("vo1", "flower", 0.7), VisRecord("vo1", "sky", 0.6)))
    enriched = enrich_document(record, base_lattice, PipelineConfig()).enriched
    assert [e.original_vsc for e in enriched] == ["flower", "sky"]


def test_enrich_leaves_base_lattice_untouched(base_lattice):
    size = len(base_lattice)
    enrich_document(record_with("red roses"), base_lattice, PipelineConfig())
    assert len(base_lattice) == size


def test_enrich_is_pure_recompute(base_lattice):
    cfg = PipelineConfig()
    once = enrich_document(record_with("red roses"), base_lattice, cfg)
    twice = enrich_document(once, base_lattice, cfg)
    assert once == twice


def test_pair_corpus_warns_and_sorts(tmp_path, caplog):
    for stem in ("b", "a"):
        (tmp_path / f"{stem}.html").write_text("<html></html>")
        (tmp_path / f"{stem}.vis").write_text("")
    (tmp_path / "lonely.vis").write_text("")
    with caplog.at_level("WARNING"):
        pairs = pair_corpus(tmp_path)
    assert [stem for stem, _h, _v in pairs] == ["a", "b"]
    assert any("lonely" in r.message for r in caplog.records)


def test_pair_corpus_reads_names_as_glob_does(tmp_path, caplog):
    """A directory named like a page is paired (and skipped as
    unreadable at ingest), a dotfile's stem is Path.stem, and names that
    differ only in case do not pair."""
    for name in ("a.html", "a.vis", "A.vis", "c.HTML", "c.vis", ".html",
                 ".html.vis", ".b.html", ".b.vis", "dir.vis", "notes.txt"):
        (tmp_path / name).write_text("")
    (tmp_path / "dir.html").mkdir()
    with caplog.at_level("WARNING"):
        pairs = pair_corpus(tmp_path)
    assert pairs == [(stem, tmp_path / html, tmp_path / vis) for stem, html, vis in (
        (".b", ".b.html", ".b.vis"), (".html", ".html", ".html.vis"),
        ("a", "a.html", "a.vis"), ("dir", "dir.html", "dir.vis"))]
    assert [r.getMessage() for r in caplog.records] == [
        "no .html page for A.vis; skipped", "no .html page for c.vis; skipped"]
    globbed = {p.stem for p in tmp_path.glob("*.html")} & {
        p.stem for p in tmp_path.glob("*.vis")}
    assert [stem for stem, _h, _v in pairs] == sorted(globbed)
    caplog.clear()
    with caplog.at_level("WARNING"):
        store = ingest_corpus(tmp_path, PipelineConfig())
    assert sorted(store.records) == [".b", ".html", "a"]
    assert any(r.getMessage().startswith("dir: unreadable, document skipped")
               for r in caplog.records)


def test_a_corpus_directory_that_cannot_be_listed_is_an_error(
        tmp_path, monkeypatch, capsys):
    """Path.glob read an unlistable directory as an empty corpus."""
    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))
    monkeypatch.setattr(os, "scandir", denied)
    out = tmp_path / "store.jsonl"
    assert cli.main(["ingest", "--corpus", str(tmp_path), "--out", str(out)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert not out.exists()


def test_enrich_tags_each_area_once(base_lattice, monkeypatch):
    """The contextual concepts and the syntactic terms read one tagging
    of each area."""
    import viscx.context
    import viscx.pipeline
    calls = []

    def counted(tokens, lattice):
        calls.append(tuple(tokens))
        return tag_tokens(tokens, lattice)
    tag_tokens = viscx.context.tag_tokens
    monkeypatch.setattr(viscx.context, "tag_tokens", counted)
    monkeypatch.setattr(viscx.pipeline, "tag_tokens", counted)
    texts = ("red roses", "a grey cathedral", "red roses")
    record = replace(record_with(), areas=tuple(
        ExtractionArea(AreaKind.SURROUNDING_TEXT, tokenize(text), 0.5)
        for text in texts))
    enriched = enrich_document(record, base_lattice, PipelineConfig())
    assert calls == [tokenize(text) for text in texts]
    monkeypatch.undo()
    assert enrich_document(record, base_lattice, PipelineConfig()) == enriched
    assert {c.cx for c in enriched.contextual} == {"rose", "cathedral"}


def test_a_byte_order_mark_before_a_document_is_ignored(tmp_path):
    """A .vis or .html file that starts with a UTF-8 byte order mark is
    ingested as the same file without it."""
    html = ('<html><body><img src="d.jpg" alt="red roses">'
            '<p>Smooth roses.</p></body></html>')
    vis = "vis vo1 { sem: flower@0.7; color: red=0.6; texture: ; spa: ; }\n"
    records = []
    for bom in ("", "\ufeff"):
        paths = tmp_path / f"d{len(bom)}.html", tmp_path / f"d{len(bom)}.vis"
        for path, text in zip(paths, (html, vis)):
            path.write_text(bom + text, encoding="utf-8")
        records.append(ingest_document("d", *paths, PipelineConfig()))
    assert records[1] == records[0]
    assert records[0].vis_records[0].vsc == "flower"
    assert records[0].areas[0].tokens == ("red", "roses")
