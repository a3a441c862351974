"""The benchmark's tracer (`perfbench/tracer.py`) installs on the package
and uninstalls cleanly, so a change that drops or renames a name it hooks
fails here rather than in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

from viscx import PipelineConfig, VisRecord, membership, retrieval
from viscx.context import AreaKind, ExtractionArea, tokenize
from viscx.pipeline import enrich_document
from viscx.store import IndexRecord, IndexStore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict[tuple[str, ...], object]:
    """Every attribute of every viscx module, and of every class bound in
    one, keyed by where it is bound."""
    out: dict[tuple[str, ...], object] = {}
    for name, module in list(sys.modules.items()):
        if name != "viscx" and not name.startswith("viscx."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    out[name, attr, cls_attr] = cls_value
    return out


def test_tracer_installs_counts_and_restores_every_binding(monkeypatch,
                                                           base_lattice):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    before = _bindings()
    tracer.install()
    try:
        patched = _bindings()
        assert ("viscx.membership", "MembershipTable", "total") in {
            key for key in patched if patched[key] is not before[key]}
        table = membership.aggregate_mu_tot([("rose", 0.8)], [], base_lattice)
        table.total("flower")
        table.total("flower")
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["membership.aggregate_mu_tot.calls"] == 1
    assert metrics["membership.concepts_read"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_times_the_tfidf_scorer_and_counts_scores(monkeypatch,
                                                         base_lattice):
    """With the tracer installed, making a scorer under every strategy
    makes the tf-idf index once, through the name the tracer rebinds, and
    ranking scores documents through the `score` it counts."""
    cfg = PipelineConfig()
    store = IndexStore()
    for doc_id, vsc, text in (("d1", "rose", "red roses"),
                              ("d2", "sky", "blue sky"),
                              ("d3", "flower", "red flowers")):
        areas = (ExtractionArea(AreaKind.ALT_ATTRIBUTE, tokenize(text), 0.9),)
        objects = (VisRecord("vo1", vsc, 0.8, {"red": 0.5}, {}),)
        store.add(enrich_document(IndexRecord(doc_id, areas, objects),
                                  base_lattice, cfg))
    query = retrieval.parse_query("red roses", base_lattice)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        rankings = {}
        for strategy in retrieval.ALL_STRATEGIES:
            scorer = retrieval.make_scorer(store, base_lattice, cfg, strategy)
            rankings[strategy] = retrieval.rank_with_scorer(scorer, query, 2)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["retrieval.tfidf_index.calls"] == 1
    assert metrics["retrieval.score.calls"] > 0
    assert metrics["retrieval.rank_with_scorer.calls"] == 4
    assert all(ranked.doc_ids()[0] == "d1" for ranked in rankings.values())
