"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence (run with ``pytest -v -s``).

The retrieval-ordering criteria run the full pipeline over a generated
50-document corpus (see corpusgen) where 20% of the visual semantic
labels are corrupted to taxonomy siblings while the page context carries
the correct specific concept.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import pytest

from viscx import (Concept, PipelineConfig, Qrels, RankedList,
                   bundled_taxonomy_path, enrich_store, eval_report,
                   ingest_corpus, insert_concept, load_store,
                   load_taxonomy, ndcg_at_n, parse_taxonomy, parse_vis,
                   save_store, serialize_vis)
from viscx.fusion import FacetKernel, SimilarityMatrix, best_correspondences
from viscx.membership import TConormKind, _tconorm, aggregate_mu_tot
from viscx.taxonomy import SemRelation

import corpusgen
import oracles
from test_vis import random_document


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS: {name} ({detail})")


# -- criterion: NDCG exactness ---------------------------------------------


def test_acceptance_ndcg_exactness():
    start = time.monotonic()

    def ranked(grades):
        items = tuple((f"g{i}", float(len(grades) - i)) for i in range(len(grades)))
        qrels = Qrels({("q", f"g{i}"): g for i, g in enumerate(grades)})
        return RankedList("q", items), qrels

    perfect, qrels = ranked([2, 1, 0])
    assert abs(ndcg_at_n(perfect, qrels, 3) - 1.0) <= 1e-9

    reversed_list, qrels = ranked([0, 1, 2])
    value = ndcg_at_n(reversed_list, qrels, 3)
    expected = (1 / math.log2(3) + 3 / 2) / (3 + 1 / math.log2(3))
    assert abs(value - 0.5869) <= 1e-3
    assert value == pytest.approx(expected, abs=1e-12)

    empty, qrels = ranked([0, 0, 0])
    assert ndcg_at_n(empty, qrels, 3) == 0.0

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("NDCG exactness", f"reversed={value:.4f}, {elapsed:.3f}s")


# -- criterion: membership aggregation equals the brute-force oracle -------


def test_acceptance_mu_tot_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20240801)
    instances = 0
    while instances < 200:
        n = rng.randint(2, 20)
        text, parents = oracles.random_taxonomy(rng, n)
        lattice = parse_taxonomy(text)
        ids = list(parents)
        vis = [(rng.choice(ids), rng.random()) for _ in range(rng.randint(0, 5))]
        cx = [(rng.choice(ids), rng.random()) for _ in range(rng.randint(0, 5))]
        kind = rng.choice(["max", "psum", "bsum"])
        table = aggregate_mu_tot(vis, cx, lattice,
                                 TConormKind.from_name(kind))
        vis_col, cx_col, tot_col = oracles.mu_table_oracle(
            parents, ids, vis, cx, kind)
        for cid in ids:
            assert table.vis_side(cid) == vis_col[cid]
            assert table.cx_side(cid) == cx_col[cid]
            assert table.total(cid) == tot_col[cid]
        instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("mu_tot oracle equivalence",
           f"{instances} instances exact, {elapsed:.2f}s")


# -- criterion: t-conorm algebraic laws -------------------------------------


def test_acceptance_tconorm_laws():
    rng = random.Random(7)
    checked = 0
    for _ in range(10_000):
        a, b, c = rng.random(), rng.random(), rng.random()
        for kind in TConormKind:
            ab = _tconorm(kind, a, b)
            assert abs(ab - _tconorm(kind, b, a)) <= 1e-12
            assert abs(_tconorm(kind, ab, c)
                       - _tconorm(kind, a, _tconorm(kind, b, c))) <= 1e-12
            assert _tconorm(kind, a, 0.0) == a
            lo, hi = sorted((b, c))
            assert _tconorm(kind, a, lo) <= _tconorm(kind, a, hi) + 1e-12
            assert 0.0 <= ab <= 1.0
        checked += 1
    report("t-conorm laws", f"{checked} random triples, all kinds, 1e-12")


# -- criterion: lattice property suite over the bundled taxonomy -----------


def test_acceptance_lattice_suite():
    lattice = load_taxonomy(bundled_taxonomy_path())
    ids = lattice.concept_ids()
    pairs = 0
    for a, b in itertools.product(ids, repeat=2):
        rel = lattice.relation(a, b)
        back = lattice.relation(b, a)
        assert (rel is SemRelation.SPECIFIC) == (back is SemRelation.GENERIC)
        eps = lattice.path_sim_epsilon(a, b)
        assert 0.0 <= eps <= 1.0
        assert eps == lattice.path_sim_epsilon(b, a)
        assert (eps == 1.0) == (a == b)
        if rel is not SemRelation.UNRELATED:
            assert lattice.path_length_norm(a, b) == lattice.path_length_norm(b, a)
        pairs += 1

    before = {(a, b): lattice.relation(a, b)
              for a, b in itertools.product(ids, repeat=2)}
    extended = insert_concept(lattice, Concept("peony"), ["flower"])
    assert all(extended.relation(a, b) is rel for (a, b), rel in before.items())
    raw = {cid: extended.parents(cid) for cid in extended.concept_ids()}
    assert extended.longest_path == oracles.longest_root_leaf(raw)
    report("lattice suite", f"{pairs} ordered pairs over {len(ids)} concepts")


# -- criterion: round-trips --------------------------------------------------


def test_acceptance_roundtrips(tmp_path):
    rng = random.Random(123)
    documents = 0
    records_total = 0
    while records_total < 1000:
        doc = random_document(rng)
        canonical = sorted(doc, key=lambda r: r.vo_id)
        assert parse_vis(serialize_vis(doc)) == canonical
        records_total += len(doc)
        documents += 1

    corpus_dir = tmp_path / "corpus"
    corpusgen.generate_corpus(corpus_dir)
    cfg = replace(PipelineConfig(), taxonomy=str(bundled_taxonomy_path()))
    store = ingest_corpus(corpus_dir, cfg)
    enrich_store(store, load_taxonomy(bundled_taxonomy_path()), cfg)
    path = tmp_path / "index.jsonl"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded == store
    save_store(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    report("round-trips",
           f"{records_total} VIS records / {documents} documents; "
           f"store of {len(store.records)} docs byte-stable")


# -- criteria: strategy ordering and correction on the corrupted corpus -----


@pytest.fixture(scope="module")
def corrupted_corpus_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("figure5")
    start = time.monotonic()
    info = corpusgen.generate_corpus(tmp / "corpus")
    # facet kernel set to min so shared attributes reward agreement;
    # everything else stays at defaults
    cfg = replace(PipelineConfig(), kernel=FacetKernel.MIN,
                  taxonomy=str(bundled_taxonomy_path()))
    lattice = load_taxonomy(bundled_taxonomy_path())
    store = ingest_corpus(tmp / "corpus", cfg)
    enrich_store(store, lattice, cfg)
    report_ = eval_report(store, lattice, cfg, list(info.queries),
                          Qrels(info.qrels), n_values=(10,))
    elapsed = time.monotonic() - start
    return info, store, report_, elapsed


def test_acceptance_strategy_ordering(corrupted_corpus_run):
    info, store, report_, elapsed = corrupted_corpus_run
    assert len(store.records) == 50
    assert len(info.corrupted_docs()) == 10
    means = {row[0]: row[2] for row in report_.rows}
    assert means["vis+cx"] > means["cx"] > means["vis"], means
    assert means["vis+cx"] > means["tfidf"], means
    assert means["vis+cx"] - means["vis"] >= 0.05, means
    assert elapsed < 60.0
    report("strategy ordering analog",
           "mean NDCG@10: vis+cx={vis+cx:.4f} > cx={cx:.4f} > vis={vis:.4f}, "
           "tfidf={tfidf:.4f}; {s:.2f}s".format(**means, s=elapsed))


def test_acceptance_correction_behavior(corrupted_corpus_run):
    info, store, _report, _elapsed = corrupted_corpus_run
    corrupted = info.corrupted_docs()
    fixed = 0
    for doc in corrupted:
        enriched = store.records[doc.doc_id].enriched[0]
        assert enriched.original_vsc == doc.vsc_written
        if (enriched.provenance.decision in ("corrected", "replaced")
                and enriched.vsc == doc.concept):
            fixed += 1
    ratio = fixed / len(corrupted)
    assert ratio >= 0.8, f"only {fixed}/{len(corrupted)} corrupted records fixed"
    report("correction behavior",
           f"{fixed}/{len(corrupted)} corrupted records restored to ground truth")


# -- criterion: correspondence selection equals brute force -----------------


def test_acceptance_best_correspondences_bruteforce():
    rng = random.Random(4242)
    config = PipelineConfig(t_sim=0.05)
    instances = 0
    for _ in range(1000):
        n_terms = rng.randint(1, 6)
        n_units = rng.randint(1, 6)
        values = tuple(
            tuple(round(rng.uniform(0.0, 2.2), 3) for _ in range(n_units))
            for _ in range(n_terms))
        head_imps = tuple(rng.choice([0.0, 0.5, 0.7, 0.9]) for _ in range(n_terms))
        matrix = SimilarityMatrix(values, head_imps)
        got = [(p.term_index, p.vis_index, p.sim)
               for p in best_correspondences(matrix, config)]
        assert got == oracles.argmax_pairs_oracle(values, head_imps, config.t_sim)
        instances += 1
    report("best-correspondence brute force", f"{instances} random matrices <= 6x6")
