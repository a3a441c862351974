"""Corpus ingestion and document enrichment.

Ingestion pairs every ``.html`` page with its ``.vis`` sidecar by filename
stem, extracts the context areas around the paired image and parses the
visual records. Enrichment then mines contextual concepts and syntactic
terms, builds the per-document membership table, and matches terms to
records and fuses them in one call (`fusion.enrich_records`), writing
provenance for every decision.

Enrichment always recomputes from the ingested fields, so re-running it
over an already-enriched store is a no-op.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig
from .context import apply_patterns, assign_impacts, extract_areas, tag_tokens
from .errors import VisParseError, ViscxError, one_line
from .fusion import enrich_records
from .membership import aggregate_mu_tot
from .store import IndexRecord, IndexStore, StoreMeta
from .taxonomy import SemanticLattice
from .vis import parse_vis

log = logging.getLogger(__name__)


def pair_corpus(corpus_dir: str | Path) -> list[tuple[str, Path, Path]]:
    """(stem, html, vis) triples for every properly paired document,
    sorted by stem; unpaired files are skipped with a warning."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise ViscxError(f"corpus directory not found: {one_line(root)}")
    html_files = {p.stem: p for p in root.glob("*.html")}
    vis_files = {p.stem: p for p in root.glob("*.vis")}
    for stem in sorted(set(html_files) - set(vis_files)):
        log.warning("no .vis sidecar for %s; skipped", html_files[stem].name)
    for stem in sorted(set(vis_files) - set(html_files)):
        log.warning("no .html page for %s; skipped", vis_files[stem].name)
    return [(stem, html_files[stem], vis_files[stem])
            for stem in sorted(set(html_files) & set(vis_files))]


def ingest_document(doc_id: str, html_path: Path, vis_path: Path,
                    cfg: PipelineConfig) -> IndexRecord:
    # without a leading byte order mark, as every input file is read
    html = html_path.read_text(encoding="utf-8-sig")
    records = parse_vis(vis_path.read_text(encoding="utf-8-sig"))
    areas = extract_areas(html, image_ref=doc_id,
                          impacts=cfg.impacts, window=cfg.window)
    return IndexRecord(doc_id=doc_id, areas=tuple(areas),
                       vis_records=tuple(records))


def ingest_corpus(corpus_dir: str | Path, cfg: PipelineConfig) -> IndexStore:
    """One IndexRecord per paired document; unreadable or malformed
    documents are skipped with a warning."""
    store = IndexStore(meta=StoreMeta(taxonomy=cfg.taxonomy,
                                      config=cfg.snapshot(),
                                      corpus=str(corpus_dir)))
    for stem, html_path, vis_path in pair_corpus(corpus_dir):
        try:
            store.add(ingest_document(stem, html_path, vis_path, cfg))
        except VisParseError as exc:
            log.warning("%s: malformed VIS, document skipped: %s", stem, exc)
        except (OSError, UnicodeDecodeError) as exc:
            log.warning("%s: unreadable, document skipped: %s", stem, exc)
    return store


def enrich_document(record: IndexRecord, lattice: SemanticLattice,
                    cfg: PipelineConfig) -> IndexRecord:
    """Mine context, build the membership table, then match and fuse
    every visual record in one call. Each area is tagged once, for both
    the contextual concepts and the syntactic terms."""
    tagged = [tag_tokens(area.tokens, lattice) for area in record.areas]
    contextual = assign_impacts(record.areas, tagged)
    head_imps = {c.cx: c.imp for c in contextual}
    terms = tuple(dict.fromkeys(  # first-seen order, duplicates dropped
        term for area, tokens in zip(record.areas, tagged)
        for term in apply_patterns(tokens, cfg.patterns,
                                   area_impact=area.base_impact,
                                   head_imps=head_imps)))

    table = aggregate_mu_tot(
        [(r.vsc, r.r_vsc) for r in record.vis_records if r.vsc in lattice],
        [(c.cx, c.imp) for c in contextual], lattice, cfg.tconorm)
    enriched = enrich_records(record.vis_records, terms, table, lattice, cfg)
    return replace(record, contextual=contextual, terms=terms,
                   enriched=tuple(enriched))


def enrich_store(store: IndexStore, lattice: SemanticLattice,
                 cfg: PipelineConfig) -> IndexStore:
    for doc_id in sorted(store.records):
        store.records[doc_id] = enrich_document(store.records[doc_id],
                                                lattice, cfg)
    store.meta = replace(store.meta, taxonomy=cfg.taxonomy,
                         taxonomy_sha256=lattice.fingerprint,
                         config=cfg.snapshot())
    return store
