"""Per-layer tracing from outside the package.

A Tracer wraps viscx functions by rebinding every module-level name that
refers to them (``structure_similarity`` is bound in both ``viscx.fusion``
and ``viscx.retrieval``, for example) and methods on their classes.
``uninstall`` puts the originals back, so untraced code runs with no
wrapper at all.

Timed wrappers keep a stack, so a layer's self time is its duration minus
the time of the timed calls inside it. Counted wrappers only count; their
time stays in the enclosing timed layer. Spans (name, start, end, parent)
are kept in memory for the coarse layers listed in SPAN_LAYERS and
written out when the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import viscx
from viscx import cli, membership, pipeline, retrieval, store, taxonomy

#: layers whose every call is kept as a span; the rest are aggregated
SPAN_LAYERS = frozenset({
    "cli.main", "pipeline.pair_corpus", "vis.parse_vis",
    "context.extract_areas", "membership.aggregate_mu_tot",
    "fusion.best_correspondences", "store.save_store", "store.load_store",
    "retrieval.parse_query", "retrieval.rank_with_scorer",
    "retrieval.tfidf_index",
})

BRANCHES = ("correspondence_specialized", "correspondence_kept",
            "correspondence_unrelated", "correction_context",
            "correction_visual", "correction_literal",
            "correction_literal_kept", "unmatched", "headless",
            "unknown_concept")



class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []        # [start, child_time, span_parent]
        self._patches: list[tuple[object, str, object]] = []
        self._fresh_scorers: set[int] = set()
        self._table_reads: dict[int, set[str]] = {}
        self._last_paired = 0
        self._timed_names: set[str] = set()

    # -- wrapping ----------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        self._timed_names.add(name)
        keep = name in SPAN_LAYERS
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter(), 0.0, len(spans) if keep else parent]
            if keep:
                spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[frame[2]] = (name, frame[0], end, parent)
            if after is not None:
                after(result, duration, *args, **kwargs)
            return result
        return wrapper

    def _counted(self, name: str, fn, after=None):
        calls = self.calls
        calls[name] += 0  # reported even when never called

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every viscx module-level name bound to `original` at
        `wrapper`."""
        for modname, module in list(sys.modules.items()):
            if modname != "viscx" and not modname.startswith("viscx."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _method(self, cls, attr: str, wrap) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def install(self) -> None:
        t, c = self._timed, self._counted
        fn = {
            "cli.main": (cli.main, t, None),
            "pipeline.pair_corpus": (pipeline.pair_corpus, t, self._after_pair),
            "pipeline.ingest_corpus": (pipeline.ingest_corpus, c, self._after_ingest),
            "pipeline.enrich_document": (pipeline.enrich_document, c, self._after_enrich),
            "vis.parse_vis": (viscx.vis.parse_vis, t, None),
            "vis.facet_vectors": (viscx.vis.facet_vectors, c, None),
            "context.extract_areas": (viscx.context.extract_areas, t, None),
            "context.tag_tokens": (viscx.context.tag_tokens, t, None),
            "context.assign_impacts": (viscx.context.assign_impacts, t, None),
            "context.apply_patterns": (viscx.context.apply_patterns, t, None),
            "context.term_vectors": (viscx.context.term_vectors, c, None),
            "taxonomy.insert_concept": (taxonomy.insert_concept, c, None),
            "membership.aggregate_mu_tot": (membership.aggregate_mu_tot, t, self._after_table),
            "fusion.structure_similarity": (viscx.fusion.structure_similarity, t, None),
            "fusion.best_correspondences": (viscx.fusion.best_correspondences, t, None),
            "store.save_store": (store.save_store, t, self._after_save),
            "store.load_store": (store.load_store, t, None),
            "retrieval.parse_query": (retrieval.parse_query, t, None),
            "retrieval.make_scorer": (retrieval.make_scorer, c, self._after_make_scorer),
            "retrieval.rank_with_scorer": (retrieval.rank_with_scorer, t, self._after_rank),
            "retrieval.tfidf_index": (retrieval._TfIdfIndex, t, None),
        }
        for name, (original, kind, after) in fn.items():
            self._rebind(original, kind(name, original, after))
        lattice = taxonomy.SemanticLattice
        self._method(lattice, "relation", lambda f: c("taxonomy.relation", f))
        self._method(lattice, "path_length_norm", lambda f: t("taxonomy.path_length_norm", f))
        self._method(lattice, "path_sim_epsilon", lambda f: t("taxonomy.path_sim_epsilon", f))
        self._method(retrieval._Scorer, "score",
                     lambda f: c("retrieval.score", f, self._after_score))
        for attr in ("total", "vis_side", "cx_side"):
            self._method(membership.MembershipTable, attr, self._table_read)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters filled from results ---------------------------------------

    def _after_pair(self, result, _duration, *_a, **_k):
        self.counts["pipeline.docs_paired"] += len(result)
        self._last_paired = len(result)

    def _after_ingest(self, store_, *_a, **_k):
        self.counts["pipeline.docs_skipped"] += self._last_paired - len(store_.records)

    def _after_enrich(self, record, *_a, **_k):
        for e in record.enriched:
            self.counts[f"fusion.branch.{e.provenance.branch}"] += 1

    def _after_save(self, _result, _duration, _store, path, *_a, **_k):
        self.counts["store.bytes_written"] += Path(path).stat().st_size

    def _after_make_scorer(self, scorer, *_a, **_k):
        self._fresh_scorers.add(id(scorer))

    def _after_rank(self, _result, duration, scorer, *_a, **_k):
        self.counts["retrieval.queries"] += 1
        if id(scorer) in self._fresh_scorers:
            self._fresh_scorers.discard(id(scorer))
            self.counts["retrieval.scorer_warm_s"] += duration

    def _after_score(self, score, *_a, **_k):
        if score > 0.0:
            self.counts["retrieval.docs_positive"] += 1

    def _after_table(self, table, _duration, *_a, **_k):
        # a new table may reuse the id of a dead one: close that one first
        self._flush_table(id(table))
        self._table_reads[id(table)] = set()
        self.counts["membership.concepts_computed"] += len(table.universe)

    def _table_read(self, original):
        reads = self._table_reads

        def wrapper(table, concept):
            seen = reads.get(id(table))
            if seen is not None:
                seen.add(concept)
            return original(table, concept)
        return wrapper

    def _flush_table(self, key: int) -> None:
        seen = self._table_reads.pop(key, None)
        if seen is not None:
            self.counts["membership.concepts_read"] += len(seen)

    def flush_tables(self) -> None:
        for key in list(self._table_reads):
            self._flush_table(key)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls of every wrapped layer, self time of every timed one, and
        the derived counts (0 where a layer did no work)."""
        self.flush_tables()
        calls, self_s, counts = self.calls, self.self_s, self.counts
        queries = counts["retrieval.queries"]
        out = {}
        for name in self._timed_names:
            out[f"{name}.self_s"] = self_s[name]
            calls[name] += 0
        for name in calls:
            out[f"{name}.calls"] = calls[name]
        for name in ("pipeline.docs_paired", "pipeline.docs_skipped",
                     "membership.concepts_computed", "membership.concepts_read",
                     "store.bytes_written", "retrieval.scorer_warm_s"):
            out[name] = counts[name]
        computed = counts["membership.concepts_computed"]
        out["membership.read_ratio"] = (
            counts["membership.concepts_read"] / computed if computed else 0.0)
        out["retrieval.docs_scored_per_query"] = (
            calls["retrieval.score"] / queries if queries else 0.0)
        out["retrieval.docs_returned_per_query"] = (
            counts["retrieval.docs_positive"] / queries if queries else 0.0)
        for branch in BRANCHES:
            out[f"fusion.branch.{branch}"] = counts[f"fusion.branch.{branch}"]
        return out
