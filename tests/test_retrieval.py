import functools
import heapq
import math
import re
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from viscx import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, PipelineConfig,
                   StoreError, UnindexableQueryError, UnknownConceptError,
                   ViscxError, VisRecord, enrich_store, ingest_corpus,
                   retrieval)
from viscx.context import AreaKind, ExtractionArea, SyntacticTerm, tokenize
from viscx.fusion import FacetKernel
from viscx.membership import MembershipTable, TConormKind, aggregate_mu_tot
from viscx.pipeline import enrich_document
from viscx.retrieval import (ALL_STRATEGIES, BOUND_SLACK, STRATEGY_FIELDS,
                             Qrels, Query, RankedList, Strategy, eval_report,
                             load_queries, make_scorer, ndcg_at_n, parse_query,
                             rank, rank_with_scorer)
from viscx.store import (RECORD_FIELDS, IndexRecord, IndexStore, load_store,
                         save_store)

import corpusgen
import decoding
import oracles


@pytest.mark.parametrize("enum, message", [
    (Strategy, "unknown strategy 'x' (use vis|cx|vis+cx|tfidf)"),
    (FacetKernel, "unknown facet kernel 'x' (use max|min|product)"),
    (TConormKind, "unknown t-conorm 'x' (use max|psum|bsum)"),
])
def test_from_name(enum, message):
    assert [enum.from_name(member.value) for member in enum] == list(enum)
    with pytest.raises(ViscxError) as info:
        enum.from_name("x")
    assert str(info.value) == message


def test_parse_query_examples(base_lattice):
    q = parse_query("Whirly Flowers", base_lattice)
    assert len(q.terms) == 1
    assert q.terms[0].head == ("flower", 1.0)
    assert q.terms[0].textures == frozenset({("whirly", 1.0)})

    q = parse_query("Green and White Walls", base_lattice)
    assert len(q.terms) == 1
    assert q.terms[0].head == ("wall", 1.0)
    assert {name for name, _ in q.terms[0].colors} == {"green", "white"}

    with pytest.raises(UnindexableQueryError):
        parse_query("asdf qwer", base_lattice)


def test_parse_query_spatial_phrase(base_lattice):
    q = parse_query("People in front of buildings", base_lattice)
    heads = {t.head[0] for t in q.terms}
    assert heads == {"person", "building"}
    for t in q.terms:
        assert t.spatials == frozenset({("covers", 1.0)})


def test_parse_query_bare_concept_falls_back(base_lattice):
    q = parse_query("roses", base_lattice)
    assert q.terms[0].head == ("rose", 1.0)
    assert q.terms[0].colors == frozenset()


def area(kind, text, imp):
    return ExtractionArea(kind, tokenize(text), imp)


def make_doc(doc_id, vsc, r, alt_text, colors=None, textures=None):
    areas = []
    if alt_text:
        areas.append(area(AreaKind.ALT_ATTRIBUTE, alt_text, 0.9))
    return IndexRecord(
        doc_id=doc_id, areas=tuple(areas),
        vis_records=(VisRecord("vo1", vsc, r, colors or {}, textures or {}),))


@pytest.fixture()
def enriched_store(base_lattice):
    cfg = PipelineConfig()
    store = IndexStore()
    # docA: visual says flower, context specializes it to rose
    store.add(enrich_document(
        make_doc("docA", "flower", 0.7, "red roses", colors={"red": 0.6}),
        base_lattice, cfg))
    # docB: flower with flower-only context
    store.add(enrich_document(
        make_doc("docB", "flower", 0.7, "red flowers", colors={"red": 0.6}),
        base_lattice, cfg))
    # docC: something else entirely
    store.add(enrich_document(
        make_doc("docC", "sky", 0.9, "blue sky", colors={"blue": 0.8}),
        base_lattice, cfg))
    return store, cfg


def test_rank_single_doc(base_lattice):
    cfg = PipelineConfig()
    store = IndexStore()
    store.add(enrich_document(
        make_doc("only", "rose", 0.8, "red roses"), base_lattice, cfg))
    q = parse_query("red roses", base_lattice)
    for strategy in (Strategy.VIS, Strategy.CX, Strategy.VIS_CX):
        ranked = rank(store, base_lattice, cfg, q, strategy, 5)
        assert ranked.doc_ids() == ("only",)


def test_rank_specialized_doc_wins_under_vis_cx(enriched_store, base_lattice):
    store, cfg = enriched_store
    assert store.records["docA"].enriched[0].vsc == "rose"
    assert store.records["docB"].enriched[0].vsc == "flower"
    q = parse_query("red roses", base_lattice)
    ranked = rank(store, base_lattice, cfg, q, Strategy.VIS_CX, 5)
    ids = ranked.doc_ids()
    assert ids.index("docA") < ids.index("docB")
    scores = dict(ranked.items)
    assert scores["docA"] > scores["docB"]


def test_rank_is_deterministic(enriched_store, base_lattice):
    store, cfg = enriched_store
    q = parse_query("red flowers", base_lattice)
    for strategy in ALL_STRATEGIES:
        first = rank(store, base_lattice, cfg, q, strategy, 10)
        second = rank(store, base_lattice, cfg, q, strategy, 10)
        assert first == second


def test_rank_top_k_is_prefix_of_full_ranking(enriched_store, base_lattice):
    store, cfg = enriched_store
    q = parse_query("red flowers", base_lattice)
    n = len(store.records)
    for strategy in ALL_STRATEGIES:
        full = rank(store, base_lattice, cfg, q, strategy, n)
        for k in range(1, n + 2):
            assert rank(store, base_lattice, cfg, q, strategy, k).items == \
                full.items[:k]
        for k in (0, -1):
            with pytest.raises(ViscxError):
                rank(store, base_lattice, cfg, q, strategy, k)


def test_rank_empty_store(base_lattice):
    cfg = PipelineConfig()
    ranked = rank(IndexStore(), base_lattice, cfg,
                  Query("anything", ()), Strategy.TFIDF, 5)
    assert ranked.items == ()


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory, base_lattice):
    """The 50-document acceptance corpus, ingested and enriched with the
    min facet kernel, plus its parsed queries."""
    corpus = tmp_path_factory.mktemp("acceptance") / "corpus"
    info = corpusgen.generate_corpus(corpus)
    cfg = replace(PipelineConfig(), kernel=FacetKernel.MIN)
    store = ingest_corpus(corpus, cfg)
    enrich_store(store, base_lattice, cfg)
    queries = [parse_query(text, base_lattice, patterns=cfg.patterns)
               for _qid, text in info.queries]
    return store, cfg, queries


@pytest.mark.parametrize("kernel", list(FacetKernel))
def test_scorer_matches_score_oracle(acceptance_run, base_lattice, kernel):
    store, cfg, queries = acceptance_run
    cfg = replace(cfg, kernel=kernel)
    parents = {cid: base_lattice.parents(cid)
               for cid in base_lattice.concept_ids()}
    vocabs = (COLOR_NAMES, TEXTURE_NAMES, SPATIAL_NAMES)
    for strategy in (Strategy.VIS, Strategy.CX, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        for query in queries:
            for doc_id, record in store.records.items():
                want = oracles.score_oracle(
                    parents, record, query.terms, strategy.value,
                    cfg.tconorm.value, kernel.value, vocabs)
                got = scorer.score(query, doc_id)
                assert abs(got - want) <= 1e-12, (strategy, query.raw, doc_id)


def test_a_loaded_scorer_views_each_unit_object_once(acceptance_run,
                                                     base_lattice, tmp_path,
                                                     monkeypatch):
    """Over a loaded store, whose documents share equal items, one
    `make_scorer` makes one `scoring_view` call per distinct unit object,
    and ranks and scores as `oracles.score_oracle` at every k."""
    store, cfg, queries = acceptance_run
    save_store(store, tmp_path / "acceptance.jsonl")
    store = load_store(tmp_path / "acceptance.jsonl")
    parents = {cid: base_lattice.parents(cid)
               for cid in base_lattice.concept_ids()}
    vocabs = (COLOR_NAMES, TEXTURE_NAMES, SPATIAL_NAMES)
    viewed = []

    def counted(unit, lattice):
        viewed.append(unit)
        return view(unit, lattice)
    view = retrieval.scoring_view
    monkeypatch.setattr(retrieval, "scoring_view", counted)
    for strategy, units in (
            (Strategy.VIS, lambda r: [u for u in r.vis_records
                                      if u.vsc in base_lattice]),
            (Strategy.CX, lambda r: r.terms),
            (Strategy.VIS_CX, lambda r: [u for u in r.enriched
                                         if u.vsc in base_lattice])):
        viewed.clear()
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        every = [u for record in store.records.values() for u in units(record)]
        assert len(viewed) == len({id(u) for u in every}), strategy
        assert {id(u) for u in viewed} == {id(u) for u in every}, strategy
        if strategy is Strategy.CX:
            assert len(viewed) < len(every)
        for query in queries:
            want = {doc_id: oracles.score_oracle(
                parents, record, query.terms, strategy.value,
                cfg.tconorm.value, cfg.kernel.value, vocabs)
                for doc_id, record in store.records.items()}
            for k in (1, 10, 1000):
                got = rank_with_scorer(scorer, query, k).items
                ranked = heapq.nsmallest(
                    k, [(doc_id, score) for doc_id, score in want.items()
                        if score > 0.0],
                    key=lambda item: (-item[1], item[0]))
                assert [doc_id for doc_id, _ in got] == [
                    doc_id for doc_id, _ in ranked], (strategy, query.raw, k)
                for doc_id, score in got:
                    assert abs(score - want[doc_id]) <= 1e-12, (
                        strategy, query.raw, doc_id)


@functools.cache
def _reference_parents(lattice) -> dict[str, tuple[str, ...]]:
    return {cid: lattice.parents(cid) for cid in lattice.concept_ids()}


@functools.cache
def _reference_mu(lattice, vis, cx, kind: str, concept: str) -> float:
    """mu_tot of one concept from `oracles.mu_table_oracle`, memoised per
    (evidence, concept) across the calls of `reference_score`."""
    _vis_col, _cx_col, tot_col = oracles.mu_table_oracle(
        _reference_parents(lattice), [concept], vis, cx, kind)
    return tot_col[concept]


def reference_score(store, lattice, cfg, strategy, query, doc_id, *,
                    bound: bool = False) -> float:
    """The plain scorer: over the query terms, the max over the document's
    units of the dense `oracles.dense_view_part` plus epsilon times the
    membership of the unit's and the term's heads, taken from the
    brute-force `oracles.mu_table_oracle`. With `bound`, the plain bound:
    `oracles.dense_facet_bound` in place of the facet sums, over every
    unit."""
    record = store.records[doc_id]
    if strategy is Strategy.VIS:
        units = [r for r in record.vis_records if r.vsc in lattice]
        vis, cx = [(r.vsc, r.r_vsc) for r in units], []
    elif strategy is Strategy.CX:
        units = list(record.terms)
        vis, cx = [], [(c.cx, c.imp) for c in record.contextual]
    else:
        units = [e for e in record.enriched if e.vsc in lattice]
        vis, cx = [(e.vsc, e.final_mu) for e in units], []
    if not units:
        return 0.0
    vis, cx = (tuple((lattice.require(c), w) for c, w in pairs)
               for pairs in (vis, cx))

    def mu(unit) -> float:
        head = unit.vsc if isinstance(unit, VisRecord) else unit.head[0]
        return _reference_mu(lattice, vis, cx, cfg.tconorm.value,
                             lattice.require(head))

    total = 0.0
    for term in query.terms:
        sims = []
        for unit in units:
            facets, eps = oracles.dense_view_part(term, unit, lattice,
                                                  cfg.kernel.value)
            if bound:
                facets = oracles.dense_facet_bound(term, unit, cfg.kernel.value)
            sims.append(facets if eps is None
                        else facets + eps * (mu(unit) + mu(term)))
        total += max(sims)
    return total


HEADLESS_QUERIES = ["red", "red spotted", "left of"]


def mix_and_headless(lattice, cfg) -> list[Query]:
    """The 30-query mix and the three headless queries, parsed."""
    return [parse_query(text, lattice, patterns=cfg.patterns)
            for text in decoding.query_mix(lattice) + HEADLESS_QUERIES]


@pytest.mark.parametrize("tconorm", list(TConormKind))
@pytest.mark.parametrize("kernel", list(FacetKernel))
def test_scorer_equals_the_plain_reference(acceptance_run, base_lattice,
                                           kernel, tconorm):
    """One warm scorer per strategy scores every document exactly (==) as
    `reference_score`, over the 30-query mix and headless queries."""
    store, cfg, _queries = acceptance_run
    cfg = replace(cfg, kernel=kernel, tconorm=tconorm)
    queries = mix_and_headless(base_lattice, cfg)
    assert all(term.head is None for query in queries[-3:]
               for term in query.terms)
    for strategy in (Strategy.VIS, Strategy.CX, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        for query in queries:
            for doc_id in store.records:
                assert (scorer.score(query, doc_id) == reference_score(
                    store, base_lattice, cfg, strategy, query, doc_id)), (
                        strategy, query.raw, doc_id)


def plain_ranking(scorer, query, k) -> tuple[tuple[str, float], ...]:
    """Score every document with `score`, keep those above 0, and take the
    k smallest by (-score, id)."""
    scored = [(doc_id, s) for doc_id in scorer.store.records
              if (s := scorer.score(query, doc_id)) > 0.0]
    return tuple(heapq.nsmallest(k, scored, key=lambda item: (-item[1], item[0])))


def doc_bounds(scorer, query) -> dict[str, float]:
    """`bounds` of each document's node, by id in store order."""
    ids = list(scorer.store.records)
    return dict(zip(ids, scorer.bounds(query, [scorer._docs[doc_id]
                                               for doc_id in ids])))


def group_bounds(scorer, query) -> list[tuple[float, tuple[str, ...]]]:
    """``(bound, member ids)`` of each root node, in the scorer's order."""
    return [(bound, members) for bound, (members, *_) in zip(
        scorer.bounds(query, scorer.nodes), scorer.nodes)]


@pytest.mark.parametrize("tconorm", list(TConormKind))
@pytest.mark.parametrize("kernel", list(FacetKernel))
def test_bounds_are_the_plain_bound_and_never_undercut_the_score(
        acceptance_run, base_lattice, kernel, tconorm):
    """Per document node in store order, `bounds` is the plain per-unit
    bound (==) and at least `score`, but for float rounding far under
    `BOUND_SLACK`."""
    store, cfg, _queries = acceptance_run
    cfg = replace(cfg, kernel=kernel, tconorm=tconorm)
    queries = mix_and_headless(base_lattice, cfg)
    for strategy in (Strategy.VIS, Strategy.CX, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        for query in queries:
            ids = list(store.records)
            bounds = scorer.bounds(query, [scorer._docs[doc_id]
                                           for doc_id in ids])
            assert len(bounds) == len(ids)
            for doc_id, bound in zip(ids, bounds):
                assert bound == reference_score(
                    store, base_lattice, cfg, strategy, query, doc_id,
                    bound=True), (strategy, query.raw, doc_id)
                assert scorer.score(query, doc_id) - bound <= 1e-12, (
                    strategy, query.raw, doc_id)


@pytest.mark.parametrize("tconorm", list(TConormKind))
@pytest.mark.parametrize("kernel", list(FacetKernel))
def test_pruned_ranking_equals_the_plain_full_ranking(acceptance_run,
                                                      base_lattice, kernel,
                                                      tconorm):
    store, cfg, _queries = acceptance_run
    cfg = replace(cfg, kernel=kernel, tconorm=tconorm)
    queries = mix_and_headless(base_lattice, cfg)
    n = len(store.records)
    for strategy in (Strategy.VIS, Strategy.CX, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        for query in queries:
            for k in (1, 2, 10, 20, n - 1, n, n + 2):
                assert (rank_with_scorer(scorer, query, k).items
                        == plain_ranking(scorer, query, k)), (
                            strategy, query.raw, k)


def test_documents_tied_at_the_kth_score_rank_by_id(base_lattice):
    """Equal documents stored out of id order tie at every k-th score (and
    bound); the smaller ids win, and no document is dropped or repeated."""
    cfg = PipelineConfig()
    store = IndexStore()
    for doc_id in ("d4", "d2", "top", "d3", "d1"):
        doc = (make_doc("top", "rose", 0.9, "red roses", colors={"red": 0.9})
               if doc_id == "top" else
               make_doc(doc_id, "flower", 0.7, "red flowers",
                        colors={"red": 0.6}))
        store.add(enrich_document(doc, base_lattice, cfg))
    query = parse_query("red roses", base_lattice)
    for strategy in (Strategy.VIS, Strategy.CX, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        full = plain_ranking(scorer, query, 5)
        assert [doc_id for doc_id, _score in full] == [
            "top", "d1", "d2", "d3", "d4"], strategy
        assert full[0][1] > full[1][1] == full[4][1], strategy
        bounds = doc_bounds(scorer, query)
        assert bounds["d1"] == bounds["d2"] == bounds["d3"] == bounds["d4"]
        for k in range(1, 7):
            assert rank_with_scorer(scorer, query, k).items == full[:k], (
                strategy, k)


def test_a_document_whose_bound_is_the_kth_score_is_still_scored(base_lattice):
    """Under ``min`` a one-color unit's bound is its exact score: "a" ties
    the k-th score exactly at its bound, after "b" (whose bound is higher),
    and its smaller id wins."""
    cfg = replace(PipelineConfig(), kernel=FacetKernel.MIN)
    store = IndexStore()
    store.add(enrich_document(make_doc("b", "rose", 0.9, "",
                                       colors={"red": 0.5, "blue": 0.3}),
                              base_lattice, cfg))
    store.add(enrich_document(make_doc("a", "sky", 0.9, "",
                                       colors={"red": 0.5}), base_lattice, cfg))
    query = parse_query("red", base_lattice)
    for strategy in (Strategy.VIS, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        bounds = doc_bounds(scorer, query)
        assert bounds["b"] > bounds["a"] == scorer.score(query, "a") \
            == scorer.score(query, "b") == 0.5 / 11
        assert rank_with_scorer(scorer, query, 1).doc_ids() == ("a",)


def test_a_bound_one_ulp_below_its_score_is_still_scored(base_lattice):
    """The facet sums divide per facet and the bound once, so "a"'s bound
    lies one ulp below its exact score, which "b" (a larger bound from a
    color the query lacks) ties; `BOUND_SLACK` keeps "a" scored, and its
    smaller id wins."""
    cfg = replace(PipelineConfig(), kernel=FacetKernel.MIN)
    store = IndexStore()
    for doc_id, colors in (("b", {"red": 0.65234375, "blue": 0.1}),
                           ("a", {"red": 0.65234375})):
        store.add(enrich_document(make_doc(doc_id, "sky", 0.9, "", colors=colors,
                                           textures={"spotted": 0.5}),
                                  base_lattice, cfg))
    query = parse_query("red spotted", base_lattice)
    for strategy in (Strategy.VIS, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        bounds = doc_bounds(scorer, query)
        score = scorer.score(query, "a")
        assert score == scorer.score(query, "b") < bounds["b"]
        assert bounds["a"] == score - math.ulp(score)
        assert rank_with_scorer(scorer, query, 1).doc_ids() == ("a",)


def test_an_unknown_cx_head_raises_only_against_a_headed_term(base_lattice):
    """The bound pass reads every headed (term, unit head) pair, so a cx
    term with an unknown head fails a headed query even at k = 1, where
    its document would be pruned; a headless query ranks as before."""
    cfg = PipelineConfig()
    docs = [enrich_document(make_doc(doc_id, "rose", 0.9, "red roses",
                                     colors={"red": 0.9}), base_lattice, cfg)
            for doc_id in ("d1", "d2")]
    sky = enrich_document(make_doc("d3", "sky", 0.9, "blue sky",
                                   colors={"blue": 0.8}), base_lattice, cfg)

    def with_head(head):
        store = IndexStore()
        for record in docs + [replace(sky, terms=tuple(
                replace(t, head=(head, t.head[1])) for t in sky.terms))]:
            store.add(record)
        return make_scorer(store, base_lattice, cfg, Strategy.CX)

    headed = parse_query("red roses", base_lattice)
    headless = parse_query("red", base_lattice)
    known = with_head("sky")
    top = rank_with_scorer(known, headed, 1).items
    assert top[0][0] == "d1"
    bounds = doc_bounds(known, headed)
    assert bounds["d3"] < top[0][1] - BOUND_SLACK
    damaged = with_head("zzz")
    for k in (1, 3):
        with pytest.raises(UnknownConceptError) as info:
            rank_with_scorer(damaged, headed, k)
        assert str(info.value) == "unknown concept 'zzz'"
        assert (rank_with_scorer(damaged, headless, k).items
                == plain_ranking(known, headless, k))


def test_the_first_unknown_cx_head_in_store_order_is_the_one_named(
        base_lattice):
    """Two documents hold different unknown cx heads; the one stored first,
    though its id sorts last, is named, whatever k."""
    cfg = PipelineConfig()

    def doc(doc_id, vsc, text, colors, head=None):
        record = enrich_document(make_doc(doc_id, vsc, 0.9, text,
                                          colors=colors), base_lattice, cfg)
        if head is None:
            return record
        return replace(record, terms=tuple(
            replace(t, head=(head, t.head[1])) for t in record.terms))

    store = IndexStore()
    for record in (doc("d9", "sky", "blue sky", {"blue": 0.8}, "yyy"),
                   doc("d1", "rose", "red roses", {"red": 0.9}),
                   doc("d2", "rose", "red roses", {"red": 0.9}),
                   doc("d3", "sky", "blue sky", {"blue": 0.8}, "zzz")):
        store.add(record)
    scorer = make_scorer(store, base_lattice, cfg, Strategy.CX)
    for k in (1, 3):
        with pytest.raises(UnknownConceptError) as info:
            rank_with_scorer(scorer, parse_query("red roses", base_lattice), k)
        assert str(info.value) == "unknown concept 'yyy'"


def vis_doc(doc_id, *objects) -> IndexRecord:
    """A document of visual objects ``(vsc, r, colors, textures)`` only."""
    return IndexRecord(doc_id, (), tuple(
        VisRecord(f"vo{i}", vsc, r, colors, textures)
        for i, (vsc, r, colors, textures) in enumerate(objects)))


def test_a_lower_group_holds_a_top_document_after_a_higher_group_is_pruned(
        base_lattice):
    """Under ``min``, "a1"'s blue mass, which the query lacks, lifts
    its group's bound above its score; "a2" is pruned inside that group
    once "a1" is scored, and "b1", alone in a lower group, still enters
    the top 1."""
    cfg = replace(PipelineConfig(), kernel=FacetKernel.MIN)
    store = IndexStore()
    for record in (vis_doc("a1", ("rose", 0.9, {"blue": 1.0}, {})),
                   vis_doc("a2", ("rose", 0.5, {}, {})),
                   vis_doc("b1", ("rose", 0.875, {"red": 1.0}, {}),
                           ("sky", 0.9, {}, {}))):
        store.add(record)
    query = parse_query("red roses", base_lattice)
    scorer = make_scorer(store, base_lattice, cfg, Strategy.VIS)
    (high, high_members), (low, low_members) = group_bounds(scorer, query)
    assert (high_members, low_members) == (("a1", "a2"), ("b1",))
    bounds = doc_bounds(scorer, query)
    a1, b1 = scorer.score(query, "a1"), scorer.score(query, "b1")
    assert high > low >= b1 > a1 > bounds["a2"] + BOUND_SLACK
    assert rank_with_scorer(scorer, query, 1).items == (("b1", b1),)
    for k in (1, 2, 3):
        assert (rank_with_scorer(scorer, query, k).items
                == plain_ranking(scorer, query, k)), k


#: visual concepts of generated documents: rose under flower, sky and
#: cathedral apart
GROUP_CONCEPTS = ("rose", "flower", "sky", "cathedral")
#: alt texts: headed terms, attributes with no head (no term) and none
GROUP_TEXTS = ("red roses", "blue sky", "red spotted", "spotted flowers", "")
#: headless cx units, one of which a document may be drawn to hold
HEADLESS_TERMS = (SyntacticTerm(None, colors=frozenset({("red", 0.5)})),
                  SyntacticTerm(None, colors=frozenset({("red", 0.5)}),
                                textures=frozenset({("spotted", 0.75)})))
GROUP_QUERIES = ("red roses", "blue sky above grey cathedral",
                 "spotted flowers", "red", "red spotted")
visual_object = hst.tuples(
    hst.sampled_from(GROUP_CONCEPTS), hst.sampled_from([0.5, 0.75, 0.9]),
    hst.dictionaries(hst.sampled_from(["red", "blue", "grey"]),
                     hst.sampled_from([0.25, 0.5]), max_size=2),
    hst.dictionaries(hst.sampled_from(["spotted", "uniform"]),
                     hst.sampled_from([0.5, 1.0]), max_size=1))


@settings(max_examples=60, deadline=None)
@given(docs=hst.lists(hst.tuples(hst.lists(visual_object, max_size=3),
                                 hst.sampled_from(GROUP_TEXTS),
                                 hst.sampled_from((None,) + HEADLESS_TERMS),
                                 hst.sampled_from([None, 0.25, 0.9])),
                      min_size=1, max_size=12),
       order=hst.randoms(use_true_random=False),
       kernel=hst.sampled_from(list(FacetKernel)),
       tconorm=hst.sampled_from(list(TConormKind)))
def test_group_bounds_cover_their_members_and_rank_as_the_plain_ranking(
        base_lattice, docs, order, kernel, tconorm):
    """Over small stores of many head sets (shared and distinct heads,
    documents with no visual object or no term, headless cx terms, two
    records of one concept) in a random store order: the groups split the
    store, every group bound is at least each member's `bounds` value, and
    every k ranks as scoring every document."""
    cfg = replace(PipelineConfig(), kernel=kernel, tconorm=tconorm)
    ids = [f"d{i:02d}" for i in range(len(docs))]
    order.shuffle(ids)
    store = IndexStore()
    for doc_id, (objects, text, headless, again) in zip(ids, docs):
        if objects and again is not None:  # a second record of one concept
            objects = objects + [(objects[0][0], again, {"red": 0.5}, {})]
        areas = (area(AreaKind.ALT_ATTRIBUTE, text, 0.9),) if text else ()
        record = enrich_document(replace(vis_doc(doc_id, *objects),
                                         areas=areas), base_lattice, cfg)
        if headless is not None:
            record = replace(record, terms=record.terms + (headless,))
        store.add(record)
    n = len(store.records)
    for strategy in (Strategy.VIS, Strategy.CX, Strategy.VIS_CX):
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        for text in GROUP_QUERIES:
            query = parse_query(text, base_lattice, patterns=cfg.patterns)
            groups = group_bounds(scorer, query)
            assert sorted(doc_id for _bound, members in groups
                          for doc_id in members) == sorted(ids)
            bounds = doc_bounds(scorer, query)
            for bound, members in groups:
                assert all(bound >= bounds[doc_id] for doc_id in members), (
                    strategy, text)
            for k in sorted({1, 2, 10, n - 1, n, n + 2} - {0}):
                assert (rank_with_scorer(scorer, query, k).items
                        == plain_ranking(scorer, query, k)), (strategy, text, k)


#: evidence anchors of a group's members: a chain (rose, flower and its
#: synonym bloom, vegetation), a concept below it (oak) and one apart (sky)
MU_ANCHORS = ("rose", "flower", "bloom", "vegetation", "oak", "sky")
#: concepts read: the anchors, concepts above them (tree, entity), below
#: them (tulip) and unrelated to them (cathedral)
MU_READS = ("rose", "flower", "vegetation", "oak", "sky", "tulip", "tree",
            "entity", "cathedral")
evidence = hst.lists(hst.tuples(
    hst.sampled_from(MU_ANCHORS),
    hst.one_of(hst.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
               hst.floats(0.0, 1.0))), max_size=6)


@settings(max_examples=300, deadline=None)
@given(members=hst.lists(evidence, min_size=1, max_size=8),
       kind=hst.sampled_from(list(TConormKind)))
def test_a_group_mu_is_at_least_each_member_total(base_lattice, members,
                                                  kind):
    """A group's membership bound (`retrieval._group_mu`) over up to 8
    members, whose evidence repeats anchors, is at least each member's
    `MembershipTable.total` in floats (no tolerance), with the member's
    evidence on the visual side and on the contextual side, at concepts
    equal to, above, below and unrelated to the anchors."""
    top: dict = {}
    tables = []
    for pairs in members:
        retrieval._add_evidence(top, pairs)
        tables += [aggregate_mu_tot(pairs, [], base_lattice, kind),
                   aggregate_mu_tot([], pairs, base_lattice, kind)]
    mu_of = retrieval._group_mu(top, base_lattice, kind)
    for concept in MU_READS:
        bound = mu_of(concept)
        assert all(bound >= table.total(concept) for table in tables), concept


def test_a_ranking_builds_no_state_for_the_members_of_a_pruned_group(
        base_lattice, monkeypatch):
    """At k = 1 "red roses" prunes the sky and cathedral groups on their
    group bounds: no membership total of their members is read, while
    both rose documents are bounded and so read. A tf-idf ranking computes
    the norms of the documents its postings reach, and no other."""
    made = []
    aggregate = retrieval.aggregate_mu_tot
    monkeypatch.setattr(retrieval, "aggregate_mu_tot",
                        lambda *args: made.append(aggregate(*args))
                        or made[-1])
    read = []
    total = MembershipTable.total
    monkeypatch.setattr(MembershipTable, "total",
                        lambda table, concept: read.append(id(table))
                        or total(table, concept))
    store = IndexStore()
    for record in (vis_doc("r1", ("rose", 0.9, {"red": 1.0}, {})),
                   vis_doc("r2", ("rose", 0.5, {"red": 0.25}, {})),
                   vis_doc("s1", ("sky", 0.9, {"blue": 1.0}, {})),
                   vis_doc("s2", ("sky", 0.5, {}, {})),
                   vis_doc("c1", ("cathedral", 0.9, {"grey": 0.5}, {})),
                   vis_doc("c2", ("cathedral", 0.75, {}, {}))):
        store.add(record)
    scorer = make_scorer(store, base_lattice, PipelineConfig(), Strategy.VIS)
    tables = dict(zip(store.records, made))
    query = parse_query("red roses", base_lattice)
    (top, score), = rank_with_scorer(scorer, query, 1).items
    assert top == "r1"
    assert {doc_id for doc_id, table in tables.items()
            if id(table) in read} == {"r1", "r2"}
    pruned = [members for bound, members in group_bounds(scorer, query)
              if bound < score - BOUND_SLACK]
    assert pruned == [("s1", "s2"), ("c1", "c2")]

    index = tfidf_scorer(base_lattice, [
        ("d1", "red roses"), ("d2", "blue sky"), ("d3", "red sky"),
        ("d4", "grey wall")])
    rank_with_scorer(index, Query("roses", ()), 1)
    assert set(index._norm) == {"d1"}
    rank_with_scorer(index, Query("red roses", ()), 1)
    assert set(index._norm) == {"d1", "d3"}
    assert set(index.postings) == {"rose", "red"}


def test_a_group_bounds_its_members_only_where_they_can_be_pruned(
        base_lattice, monkeypatch):
    """A group of one is its document's node. At k = 2 the rose group's
    two members cannot fill the heap before the last (``len(best) +
    len(members) <= k``), so they are scored in id order and never
    bounded; at k = 1 they are bounded and scored in order of bound."""
    store = IndexStore()
    for record in (vis_doc("r1", ("rose", 0.5, {"red": 0.25}, {})),
                   vis_doc("r2", ("rose", 0.9, {"red": 1.0}, {})),
                   vis_doc("s1", ("sky", 0.9, {"blue": 1.0}, {}))):
        store.add(record)
    scorer = make_scorer(store, base_lattice, PipelineConfig(), Strategy.VIS)
    group, lone = scorer.nodes
    assert lone is scorer._docs["s1"]
    assert (group[0], group[3]) == (("r1", "r2"), None)
    bounded = []
    bounds = scorer.bounds
    monkeypatch.setattr(scorer, "bounds", lambda query, nodes: bounded.append(
        [members for members, *_ in nodes]) or bounds(query, nodes))
    query = parse_query("red roses", base_lattice)
    assert [doc_id for doc_id, _s in scorer.candidates(query, 2)][:2] == [
        "r1", "r2"]
    assert bounded == [[("r1", "r2"), ("s1",)]]
    bounded.clear()
    assert scorer.candidates(query, 1)[0][0] == "r2"
    assert bounded == [[("r1", "r2"), ("s1",)], [("r1",), ("r2",)]]
    for k in (1, 2, 3):
        assert (rank_with_scorer(scorer, query, k).items
                == plain_ranking(scorer, query, k)), k


@pytest.mark.parametrize("kernel", [None, FacetKernel.MIN, FacetKernel.PRODUCT],
                         ids=["default", "min", "product"])
def test_partial_load_ranks_as_the_full_load(acceptance_run, base_lattice,
                                             tmp_path, kernel):
    """Each strategy ranks the 30-query mix (k=1000) over a store loaded
    with only its fields exactly as over the fully loaded store."""
    store, cfg, _queries = acceptance_run
    path = tmp_path / "acceptance.jsonl"
    save_store(store, path)
    cfg = PipelineConfig() if kernel is None else replace(cfg, kernel=kernel)
    queries = decoding.query_mix(base_lattice)
    assert len(queries) == 30
    assert decoding.partial_load_differences(path, base_lattice, cfg,
                                             queries) == []


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_make_scorer_refuses_a_store_without_its_fields(acceptance_run,
                                                        base_lattice, tmp_path,
                                                        strategy):
    store, cfg, _queries = acceptance_run
    path = tmp_path / "acceptance.jsonl"
    save_store(store, path)
    wanted = STRATEGY_FIELDS[strategy]
    others = [name for name in RECORD_FIELDS if name not in wanted]
    with pytest.raises(ViscxError, match=f"{re.escape(strategy.value)} search "
                       f"reads {', '.join(wanted)}, which the store was "
                       "loaded without"):
        make_scorer(load_store(path, others), base_lattice, cfg, strategy)
    if len(wanted) > 1:  # every field it reads is needed
        with pytest.raises(ViscxError, match=f"reads {wanted[0]},"):
            make_scorer(load_store(path, others + list(wanted[1:])),
                        base_lattice, cfg, strategy)
    make_scorer(load_store(path, wanted), base_lattice, cfg, strategy)


def test_make_scorer_names_the_first_unenriched_document(base_lattice):
    """cx and vis+cx scorers refuse a store of an unenriched document at
    `make_scorer`, naming the first one in store order; vis and tfidf
    scorers are made."""
    store = IndexStore()
    for doc_id in ("d9", "d1"):
        store.add(make_doc(doc_id, "rose", 0.9, "red roses"))
    cfg = PipelineConfig()
    for strategy, message in ((Strategy.CX, "has no syntactic terms"),
                              (Strategy.VIS_CX, "is not enriched")):
        with pytest.raises(StoreError) as info:
            make_scorer(store, base_lattice, cfg, strategy)
        assert str(info.value) == (f"document 'd9' {message}; run enrich "
                                   f"before {strategy.value} search")
    for strategy in (Strategy.VIS, Strategy.TFIDF):
        make_scorer(store, base_lattice, cfg, strategy)


def test_scorer_reused_across_queries_matches_fresh_scorers(acceptance_run,
                                                           base_lattice):
    store, cfg, queries = acceptance_run
    q1, q2 = queries[0], queries[1]
    n = len(store.records)
    for strategy in ALL_STRATEGIES:
        shared = make_scorer(store, base_lattice, cfg, strategy)
        rankings = []
        for query in (q1, q2, q1):
            fresh = make_scorer(store, base_lattice, cfg, strategy)
            ranked = rank_with_scorer(shared, query, n)
            assert ranked == rank_with_scorer(fresh, query, n), strategy
            rankings.append(ranked)
        assert rankings[0] != rankings[1], strategy


def test_a_dropped_scorer_is_freed_without_a_collection(acceptance_run,
                                                        base_lattice):
    """A scorer holds no reference cycle, also after ranking has filled
    its state on first read, so dropping it frees it at once."""
    store, cfg, queries = acceptance_run
    for strategy in ALL_STRATEGIES:
        scorer = make_scorer(store, base_lattice, cfg, strategy)
        for k in (1, len(store.records)):
            rank_with_scorer(scorer, queries[0], k)
        dropped = weakref.ref(scorer)
        del scorer
        assert dropped() is None, strategy


def test_tfidf_doc_with_query_word_beats_doc_without(base_lattice):
    cfg = PipelineConfig()
    store = IndexStore()
    docs = {
        "d1": "rose roses garden",  # plurals fold to the query words
        "d2": "sky gardens",
        "d3": "sky cloud",
    }
    for doc_id, text in docs.items():
        store.add(IndexRecord(
            doc_id, (area(AreaKind.SURROUNDING_TEXT, text, 0.5),),
            (VisRecord("vo1", "sky", 0.5),)))
    ranked = rank(store, base_lattice, cfg, Query("rose garden", ()),
                  Strategy.TFIDF, 5)
    # d1 carries the query word twice, d2 only shares "garden", d3 nothing
    assert ranked.doc_ids() == ("d1", "d2")

    # frozen hand computation: w = tf * ln(N/df), cosine similarity
    idf_rose, idf_garden = math.log(3 / 1), math.log(3 / 2)
    q_norm = math.sqrt(idf_rose ** 2 + idf_garden ** 2)
    d1_dot = idf_rose * 2 * idf_rose + idf_garden * idf_garden
    d1_norm = math.sqrt((2 * idf_rose) ** 2 + idf_garden ** 2)
    scores = dict(ranked.items)
    assert scores["d1"] == pytest.approx(d1_dot / (q_norm * d1_norm))


def tfidf_store(docs) -> IndexStore:
    """A store of (doc_id, areas) documents, each area a tuple of tokens."""
    store = IndexStore()
    for doc_id, areas in docs:
        store.add(IndexRecord(doc_id, tuple(
            ExtractionArea(AreaKind.SURROUNDING_TEXT, tuple(tokens), 0.5)
            for tokens in areas), ()))
    return store


def oracle_ranking(store, query_text, k) -> tuple[tuple[str, float], ...]:
    """Every positive `oracles.tfidf_oracle` score, sorted by (-score, id),
    the first k."""
    scores = oracles.tfidf_oracle(store, query_text)
    return tuple(sorted(((doc_id, s) for doc_id, s in scores.items() if s > 0.0),
                        key=lambda item: (-item[1], item[0]))[:k])


#: folded words, plural variants that fold onto them ("skies" -> "sky",
#: "boxes" -> "box"), words that do not fold ("glass", "bus") and one
#: word no generated document holds
TFIDF_WORDS = ("rose", "roses", "sky", "skies", "box", "boxes", "glass",
               "bus", "garden", "gardens", "red", "zebra")
tfidf_areas = hst.lists(hst.lists(hst.sampled_from(TFIDF_WORDS[:-1]),
                                  max_size=5), max_size=3)


@settings(max_examples=200, deadline=None)
@given(docs=hst.lists(tfidf_areas, max_size=7),
       everywhere=hst.sampled_from([(), ("garden",), ("roses", "rose")]),
       order=hst.randoms(use_true_random=False),
       words=hst.lists(hst.sampled_from(TFIDF_WORDS), max_size=6))
def test_tfidf_postings_score_and_rank_as_the_plain_cosine(base_lattice, docs,
                                                           everywhere, order,
                                                           words):
    """Over small stores (empty areas, plural variants, tokens held by every
    document, so of idf 0) in a random store order and queries with
    repeated and unknown tokens: every score is the plain cosine (==), and
    every k ranks as sorting every positive plain score."""
    ids = [f"d{i}" for i in range(len(docs))]
    order.shuffle(ids)
    store = tfidf_store((doc_id, areas + [list(everywhere)])
                        for doc_id, areas in zip(ids, docs))
    scorer = make_scorer(store, base_lattice, PipelineConfig(), Strategy.TFIDF)
    text = " ".join(words)
    expected = oracles.tfidf_oracle(store, text)
    query = Query(text, ())
    assert {doc_id: scorer.score(query, doc_id)
            for doc_id in store.records} == expected
    n = len(store.records)
    for k in sorted({1, 3, n, n + 1} - {0}):
        assert (rank_with_scorer(scorer, query, k).items
                == oracle_ranking(store, text, k)), k


def tfidf_scorer(base_lattice, docs):
    store = tfidf_store((doc_id, [text.split()]) for doc_id, text in docs)
    return make_scorer(store, base_lattice, PipelineConfig(), Strategy.TFIDF)


def test_a_query_of_tokens_every_document_holds_ranks_nothing(base_lattice):
    scorer = tfidf_scorer(base_lattice, [("d1", "red garden roses"),
                                         ("d2", "gardens red sky"),
                                         ("d3", "garden red")])
    query = Query("red gardens garden", ())
    for k in (1, 3, 4):
        assert rank_with_scorer(scorer, query, k).items == ()
    assert [scorer.score(query, d) for d in ("d1", "d2", "d3")] == [0.0] * 3


def test_a_document_of_tokens_every_document_holds_never_ranks(base_lattice):
    scorer = tfidf_scorer(base_lattice, [("d1", "garden roses"),
                                         ("common", "gardens garden"),
                                         ("d2", "garden sky")])
    for text in ("garden roses sky", "garden", "roses"):
        query = Query(text, ())
        assert scorer.score(query, "common") == 0.0
        for k in (1, 3, 4):
            assert "common" not in rank_with_scorer(scorer, query, k).doc_ids()
    assert rank_with_scorer(scorer, Query("garden roses sky", ()),
                            3).doc_ids() == ("d1", "d2")


def test_a_document_sharing_no_query_token_scores_zero(base_lattice):
    """`score` answers for every document, also those the postings never
    reach (the benchmark's checks sample scores through it)."""
    scorer = tfidf_scorer(base_lattice, [("d1", "red roses"), ("d2", "blue sky"),
                                         ("d3", "")])
    query = Query("roses", ())
    assert scorer.score(query, "d1") > 0.0
    assert scorer.score(query, "d2") == scorer.score(query, "d3") == 0.0
    assert rank_with_scorer(scorer, query, 3).doc_ids() == ("d1",)


def test_store_order_does_not_change_the_tfidf_ranking(base_lattice):
    """Postings list documents in store order, and "d3" and "d0" tie: the
    ranking is the same in either order, ties broken by id."""
    docs = [("d1", "rose roses garden"), ("d2", "sky gardens"),
            ("d3", "sky rose"), ("d4", "garden rose"), ("d0", "roses skies")]
    forward = tfidf_scorer(base_lattice, docs)
    backward = tfidf_scorer(base_lattice, docs[::-1])
    for text in ("rose garden", "skies", "gardens roses sky", "box"):
        query = Query(text, ())
        for k in range(1, 7):
            assert (rank_with_scorer(forward, query, k)
                    == rank_with_scorer(backward, query, k)), (text, k)
    ranked = rank_with_scorer(forward, Query("rose garden", ()), 5)
    assert ranked.doc_ids() == ("d4", "d1", "d2", "d0", "d3")
    assert ranked.items[3][1] == ranked.items[4][1]


def ranked_of(grades):
    # doc ids g0, g1... with the given grades in rank order
    items = tuple((f"g{i}", float(len(grades) - i)) for i in range(len(grades)))
    qrels = Qrels({("q", f"g{i}"): g for i, g in enumerate(grades)})
    return RankedList("q", items), qrels


def test_ndcg_perfect_list_is_one():
    ranked, qrels = ranked_of([2, 1, 0])
    assert ndcg_at_n(ranked, qrels, 3) == pytest.approx(1.0, abs=1e-9)


def test_ndcg_reversed_example():
    ranked, qrels = ranked_of([0, 1, 2])
    # DCG = 0 + 1/log2(3) + 3/2; ideal = 3 + 1/log2(3)
    assert ndcg_at_n(ranked, qrels, 3) == pytest.approx(0.5869, abs=1e-3)


def test_ndcg_all_irrelevant_is_zero():
    ranked, qrels = ranked_of([0, 0, 0])
    assert ndcg_at_n(ranked, qrels, 3) == 0.0


def test_ndcg_bad_cutoff():
    ranked, qrels = ranked_of([1])
    with pytest.raises(Exception):
        ndcg_at_n(ranked, qrels, 0)


def test_ndcg_matches_oracle_and_invariants():
    import random
    rng = random.Random(23)
    for _ in range(200):
        grades = [rng.choice([0, 1, 2]) for _ in range(rng.randint(1, 12))]
        ranked, qrels = ranked_of(grades)
        n = rng.randint(1, 12)
        value = ndcg_at_n(ranked, qrels, n)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(
            oracles.ndcg_oracle(grades, grades, n), abs=1e-12)
        # permuting equal-grade docs leaves ndcg unchanged
        by_grade = sorted(range(len(grades)), key=lambda i: (-grades[i], i))
        rng.shuffle(by_grade)
        by_grade.sort(key=lambda i: -grades[i])
        permuted = [grades[i] for i in by_grade]
        ranked2, _ = ranked_of(permuted)
        qrels2 = Qrels({("q", f"g{i}"): g for i, g in enumerate(permuted)})
        monotone = all(permuted[i] >= permuted[i + 1]
                       for i in range(len(permuted) - 1))
        if monotone:
            graded = [g for g in permuted if g > 0]
            if graded:
                assert ndcg_at_n(ranked2, qrels2, n) == pytest.approx(1.0)


def test_ndcg_equals_one_iff_grade_monotone():
    ranked, qrels = ranked_of([2, 2, 1, 0])
    assert ndcg_at_n(ranked, qrels, 4) == pytest.approx(1.0)
    ranked, qrels = ranked_of([1, 2])
    assert ndcg_at_n(ranked, qrels, 2) < 1.0


def test_ndcg_prefix_stability(enriched_store, base_lattice):
    store, cfg = enriched_store
    qrels = Qrels({("q1", "docA"): 2, ("q1", "docB"): 1})
    q = parse_query("red roses", base_lattice)
    big = rank(store, base_lattice, cfg, q, Strategy.VIS_CX, 10, "q1")
    small = rank(store, base_lattice, cfg, q, Strategy.VIS_CX, 2, "q1")
    assert big.items[:2] == small.items
    assert ndcg_at_n(big, qrels, 2) == ndcg_at_n(small, qrels, 2)


def test_eval_report_shape_and_determinism(enriched_store, base_lattice, caplog):
    store, cfg = enriched_store
    queries = [("q1", "red roses"), ("q2", "blue sky"),
               ("q3", "asdf qwer"), ("q4", "red flowers")]
    qrels = Qrels({("q1", "docA"): 2, ("q1", "docB"): 1,
                   ("q2", "docC"): 2, ("q3", "docA"): 1})
    # q4 has no judgments, q3 is unindexable: both excluded with warnings
    report = eval_report(store, base_lattice, cfg, queries, qrels,
                         n_values=(5, 10))
    assert len(report.rows) == len(ALL_STRATEGIES) * 2
    strategies = {row[0] for row in report.rows}
    assert strategies == {"vis", "cx", "vis+cx", "tfidf"}
    assert len(report.warnings) == 2
    per_query_ids = {qid for _s, qid, _n, _v in report.per_query}
    assert per_query_ids == {"q1", "q2"}
    again = eval_report(store, base_lattice, cfg, queries, qrels,
                        n_values=(5, 10))
    assert again.rows == report.rows
    assert again.per_query == report.per_query
    text = report.summary_text()
    assert text.startswith("strategy\tn\tmean_ndcg\n")


def test_eval_report_perfect_single_query(enriched_store, base_lattice):
    store, cfg = enriched_store
    qrels = Qrels({("q1", "docA"): 2})
    report = eval_report(store, base_lattice, cfg, [("q1", "red roses")],
                         qrels, strategies=(Strategy.VIS_CX,), n_values=(5,))
    assert report.rows[0] == ("vis+cx", 5, pytest.approx(1.0))


def test_eval_report_unknown_qrels_docs_are_grade_zero(enriched_store,
                                                       base_lattice):
    store, cfg = enriched_store
    # the ghost judgment would cap NDCG below 1 if it stayed in the ideal
    qrels = Qrels({("q1", "docA"): 2, ("q1", "ghost"): 2})
    report = eval_report(store, base_lattice, cfg, [("q1", "red roses")],
                         qrels, strategies=(Strategy.VIS_CX,), n_values=(5,))
    assert report.rows[0] == ("vis+cx", 5, pytest.approx(1.0))
    assert any("ghost" in w for w in report.warnings)


def test_eval_report_names_a_query_that_judges_only_unknown_documents(
        enriched_store, base_lattice):
    """q1 judges only a document the store lacks and q2 judges nothing:
    both are excluded, each with its own reason."""
    store, cfg = enriched_store
    report = eval_report(store, base_lattice, cfg,
                         [("q1", "red roses"), ("q2", "red roses"),
                          ("q3", "red roses")],
                         Qrels({("q1", "ghost"): 2, ("q3", "docA"): 2}),
                         strategies=(Strategy.VIS_CX,), n_values=(5,))
    assert report.warnings == (
        "qrels reference unknown documents ['ghost']; treated as grade 0",
        "query 'q1' judges only unknown documents; excluded",
        "query 'q2' has no relevance judgments; excluded")
    assert [qid for _s, qid, _n, _v in report.per_query] == ["q3"]


def test_load_queries_and_qrels(tmp_path):
    qfile = tmp_path / "queries.tsv"
    qfile.write_text("q1\tWhirly Flowers\nq2\tSmeared Sand\n", encoding="utf-8")
    assert load_queries(qfile) == [("q1", "Whirly Flowers"), ("q2", "Smeared Sand")]
    rfile = tmp_path / "qrels.tsv"
    rfile.write_text("q1\tdoc1\t2\nq1\tdoc2\t0\n", encoding="utf-8")
    qrels = Qrels.from_path(rfile)
    assert qrels.grade("q1", "doc1") == 2
    assert qrels.grade("q1", "missing") == 0
    assert qrels.has_query("q1") and not qrels.has_query("q9")


def test_query_lines_end_at_newline_only(tmp_path):
    qfile = tmp_path / "queries.tsv"
    qfile.write_text("q1\tRed\u2028Roses\n", encoding="utf-8")
    assert load_queries(qfile) == [("q1", "Red\u2028Roses")]
    qfile.write_bytes(b"q1\tRed Roses\r\n\r\nq2\tBlue Sky\r\n")
    assert load_queries(qfile) == [("q1", "Red Roses"), ("q2", "Blue Sky")]


def test_queries_skip_an_indented_comment(tmp_path):
    qfile = tmp_path / "queries.tsv"
    qfile.write_text("  # note\nq1\tRed Roses\n\t# note\tmore\n", encoding="utf-8")
    assert load_queries(qfile) == [("q1", "Red Roses")]


def test_qrels_skip_an_indented_comment():
    assert Qrels.from_text("  # note\nq1\td1\t2\n\t# a\tb\tc\n").grades == {
        ("q1", "d1"): 2}


def test_qrels_lines_end_at_newline_only(tmp_path):
    assert Qrels.from_text("q1\td\x851\t1\n").grades == {("q1", "d\x851"): 1}
    rfile = tmp_path / "qrels.tsv"
    rfile.write_bytes(b"q1\td1\t2\r\nq1\td2\t0\r\n")
    assert Qrels.from_path(rfile).grades == {("q1", "d1"): 2, ("q1", "d2"): 0}
    assert Qrels.from_text("q1\td1\t2\r\n").grades == {("q1", "d1"): 2}


def test_malformed_query_and_qrels_files(tmp_path):
    from viscx import ViscxError
    bad_queries = tmp_path / "queries.tsv"
    bad_queries.write_text("q1 no tab here\n", encoding="utf-8")
    with pytest.raises(ViscxError, match="expected id<TAB>text"):
        load_queries(bad_queries)
    with pytest.raises(ViscxError, match="grade must be an integer"):
        Qrels.from_text("q1\tdoc1\thigh\n")
    with pytest.raises(ViscxError, match="expected query_id"):
        Qrels.from_text("q1 doc1 2\n")
    with pytest.raises(ViscxError, match="negative grade"):
        Qrels({("q1", "d1"): -1})
    with pytest.raises(ViscxError,
                       match=r"grade 1001 for \(q1, d1\) is above 1000"):
        Qrels.from_text("q1\td1\t1001\n")


@pytest.mark.parametrize("grade", ["1_0", "\uff12", "\u00b2", "0x1", "1.0",
                                   "+-1", "- 1", "", "1e3"])
def test_a_grade_is_a_sign_and_ascii_digits(grade):
    with pytest.raises(ViscxError, match=f"qrels line 1: grade must be an "
                       f"integer, got {re.escape(repr(grade))}$"):
        Qrels.from_text(f"q1\td1\t{grade}\n")


def test_grades_parse_with_a_sign_leading_zeros_and_spaces():
    qrels = Qrels.from_text("q1\td1\t+2\nq1\td2\t-0\nq1\td3\t 0001000 \n")
    assert qrels.grades == {("q1", "d1"): 2, ("q1", "d2"): 0,
                            ("q1", "d3"): 1000}


def test_an_overlong_grade_is_refused_without_echoing_it():
    for digits in (5, 5000):
        with pytest.raises(ViscxError, match=r"^qrels line 2: grade "
                           r"'9{5,20}(\.\.\.)?' for \(q1, d2\) is above "
                           r"1000$"):
            Qrels.from_text("q1\td1\t1\nq1\td2\t" + "9" * digits + "\n")
        with pytest.raises(ViscxError, match=r"^qrels line 1: negative grade "
                           r"for \(q1, d1\)$"):
            Qrels.from_text("q1\td1\t-" + "9" * digits + "\n")
    text = "0" * 5000 + "7"  # leading zeros count for nothing
    assert Qrels.from_text(f"q1\td1\t{text}\n").grades == {("q1", "d1"): 7}
    with pytest.raises(ViscxError) as raised:
        Qrels.from_text("q1\td1\t" + "x" * 5000 + "\n")
    assert str(raised.value) == ("qrels line 1: grade must be an integer, "
                                 "got 'xxxxxxxxxxxxxxxxxxxx...'")


def test_the_largest_grade_has_a_finite_ndcg():
    qrels = Qrels({("q1", "d1"): 1000, ("q1", "d2"): 1000})
    ranked = RankedList("q1", (("d2", 1.0), ("d1", 0.5)))
    assert ndcg_at_n(ranked, qrels, 2) == 1.0


def test_repeated_query_id_is_rejected(tmp_path):
    qfile = tmp_path / "queries.tsv"
    qfile.write_text("q1\tRed Roses\n\nq2\tBlue Sky\nq1 \tGrey Walls\n",
                     encoding="utf-8")
    with pytest.raises(ViscxError, match="queries line 4: duplicate query id "
                                         "'q1', first given on line 1"):
        load_queries(qfile)


def test_unreadable_query_and_qrels_files_name_the_path(tmp_path):
    for name, load in (("queries", load_queries), ("qrels", Qrels.from_path)):
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(b"q1\td1\t2\n\xff")
        with pytest.raises(ViscxError, match=f"cannot read {name} .*{path.name}"):
            load(path)
        with pytest.raises(ViscxError, match=f"cannot read {name} .*missing"):
            load(tmp_path / "missing.tsv")


def test_duplicate_qrels_pair_is_rejected():
    with pytest.raises(ViscxError, match="line 3: duplicate judgment .*"
                                         "first given on line 1"):
        Qrels.from_text("q1\td1\t2\nq1\td2\t1\nq1 \td1\t0\n")
    # the same document under another query is not a duplicate
    qrels = Qrels.from_text("q1\td1\t2\nq2\td1\t0\n")
    assert qrels.grade("q1", "d1") == 2 and qrels.grade("q2", "d1") == 0
