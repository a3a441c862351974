"""Query parsing, the four indexing strategies, NDCG@n and the
evaluation report.

Strategies score a parsed query against each document and rank by
descending score (ties broken by document id):

* ``vis``    - query term against the original visual records, membership
  built from visual evidence alone;
* ``cx``     - query term against the mined syntactic terms, membership
  from contextual evidence alone;
* ``vis+cx`` - query term against the enriched records, membership from
  their fused concepts and values;
* ``tfidf``  - cosine over tf-idf weighted context tokens.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .config import PipelineConfig
from .context import (DEFAULT_PATTERNS, SyntacticTerm, apply_patterns,
                      singularize, tag_tokens, terms_from_window, tokenize)
from .errors import NamedEnum, StoreError, UnindexableQueryError, ViscxError
from .fusion import scoring_view, view_similarity
from .membership import aggregate_mu_tot
from .store import IndexStore
from .taxonomy import SemanticLattice

log = logging.getLogger(__name__)


class Strategy(NamedEnum, what="strategy"):
    VIS = "vis"
    CX = "cx"
    VIS_CX = "vis+cx"
    TFIDF = "tfidf"


ALL_STRATEGIES = (Strategy.VIS, Strategy.CX, Strategy.VIS_CX, Strategy.TFIDF)


@dataclass(frozen=True)
class Query:
    """A topic query parsed through the same tag/pattern machinery as
    contextual text; query concepts carry impact 1.0."""

    raw: str
    terms: tuple[SyntacticTerm, ...]

    @property
    def term(self) -> SyntacticTerm:
        return self.terms[0]


def _subsumes(a: SyntacticTerm, b: SyntacticTerm) -> bool:
    """True when term a covers term b: same head concept and a superset
    of attribute concepts per facet."""
    ha = a.head[0] if a.head else None
    hb = b.head[0] if b.head else None
    if ha != hb:
        return False
    for fa, fb in zip(a.facets(), b.facets()):
        if not {n for n, _ in fb} <= {n for n, _ in fa}:
            return False
    return True


def parse_query(text: str, lattice: SemanticLattice, *,
                patterns=None) -> Query:
    """Tag and pattern-match the query text into syntactic terms.

    When no pattern fires, terms are built from the whole tagged stream
    with nearest-head attribute attachment; a query with no vocabulary
    concept at all is rejected as unindexable.
    """
    patterns = DEFAULT_PATTERNS if patterns is None else patterns
    tagged = tag_tokens(tokenize(text), lattice)
    terms = list(apply_patterns(tagged, patterns, area_impact=1.0))
    if not terms:
        terms = terms_from_window(list(tagged), 1.0, None)
    if not terms:
        raise UnindexableQueryError(
            f"query {text!r} contains no vocabulary concept")
    kept = [t for t in terms
            if not any(o is not t and _subsumes(o, t) for o in terms)]
    return Query(text, tuple(dict.fromkeys(kept)))


# -- scoring --------------------------------------------------------------


class _TfIdfIndex:
    """Standard tf * log(N/df) weighting with cosine scoring over the
    plural-folded context tokens of every document."""

    def __init__(self, store: IndexStore):
        self.doc_tf: dict[str, Counter] = {}
        self.df: Counter = Counter()
        for doc_id, record in store.records.items():
            tf = Counter(singularize(tok)
                         for area in record.areas for tok in area.tokens)
            self.doc_tf[doc_id] = tf
            self.df.update(tf.keys())
        self.n_docs = len(self.doc_tf)
        self._idf = {term: math.log(self.n_docs / df)
                     for term, df in self.df.items()}
        self._norm = {}
        for doc_id, tf in self.doc_tf.items():
            weights = [count * self._idf[term] for term, count in tf.items()]
            self._norm[doc_id] = math.sqrt(sum(w * w for w in weights))

    def query_weights(self, query_text: str) -> tuple[dict[str, float], float]:
        """The query's tf-idf weights and their norm."""
        q_tf = Counter(singularize(tok) for tok in tokenize(query_text))
        q_weights = {term: count * self._idf[term]
                     for term, count in q_tf.items() if term in self._idf}
        return q_weights, math.sqrt(sum(w * w for w in q_weights.values()))

    def score(self, query: tuple[dict[str, float], float], doc_id: str) -> float:
        """Cosine of a document against `query_weights(...)`."""
        q_weights, q_norm = query
        if q_norm == 0.0 or self._norm[doc_id] == 0.0:
            return 0.0
        tf = self.doc_tf[doc_id]
        dot = sum(w * tf[term] * self._idf[term]
                  for term, w in q_weights.items() if term in tf)
        return dot / (q_norm * self._norm[doc_id])


class _Scorer:
    """Scores documents under one strategy. Each document's membership
    table and the scoring views of its units are built on first use and
    kept; the query's views (or tf-idf weights) are rebuilt only when a
    different query object comes in, so ranking every document for one
    query, and evaluating many queries, stays cheap."""

    def __init__(self, store: IndexStore, lattice: SemanticLattice,
                 cfg: PipelineConfig, strategy: Strategy):
        self.store = store
        self.lattice = lattice
        self.cfg = cfg
        self.strategy = strategy
        self.tfidf = _TfIdfIndex(store) if strategy is Strategy.TFIDF else None
        self._cache: dict[str, tuple] = {}
        self._query: Query | None = None
        self._query_state = None

    def _doc_state(self, doc_id: str):
        state = self._cache.get(doc_id)
        if state is not None:
            return state
        record = self.store.records[doc_id]
        lattice = self.lattice
        if self.strategy is Strategy.VIS:
            units = [r for r in record.vis_records if r.vsc in lattice]
            vis_pairs = [(r.vsc, r.r_vsc) for r in units]
            cx_pairs = []
        elif self.strategy is Strategy.CX:
            if record.terms is None:
                raise StoreError(
                    f"document {doc_id!r} has no syntactic terms; "
                    "run enrich before cx search")
            units = list(record.terms)
            vis_pairs = []
            cx_pairs = [(c.cx, c.imp) for c in record.contextual or ()]
        else:  # VIS_CX
            if record.enriched is None:
                raise StoreError(
                    f"document {doc_id!r} is not enriched; "
                    "run enrich before vis+cx search")
            units = [e for e in record.enriched if e.vsc in lattice]
            vis_pairs = [(e.vsc, e.final_mu) for e in units]
            cx_pairs = []
        table = aggregate_mu_tot(lattice.concept_ids(), vis_pairs, cx_pairs,
                                 lattice, self.cfg.tconorm)
        state = ([scoring_view(unit, lattice) for unit in units], table)
        self._cache[doc_id] = state
        return state

    def _query_views(self, query: Query):
        if query is not self._query:
            if self.strategy is Strategy.TFIDF:
                state = self.tfidf.query_weights(query.raw)
            else:
                state = [scoring_view(term, self.lattice) for term in query.terms]
            self._query, self._query_state = query, state
        return self._query_state

    def score(self, query: Query, doc_id: str) -> float:
        query_views = self._query_views(query)
        if self.strategy is Strategy.TFIDF:
            return self.tfidf.score(query_views, doc_id)
        views, table = self._doc_state(doc_id)
        if not views:
            return 0.0
        lattice, kernel = self.lattice, self.cfg.kernel
        total = 0.0
        for query_view in query_views:
            total += max(view_similarity(query_view, view, table, lattice, kernel)
                         for view in views)
        return total


@dataclass(frozen=True)
class RankedList:
    """Descending scores; equal scores break by ascending doc id."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _score in self.items)


def make_scorer(store: IndexStore, lattice: SemanticLattice,
                cfg: PipelineConfig, strategy: Strategy) -> _Scorer:
    return _Scorer(store, lattice, cfg, strategy)


def rank_with_scorer(scorer: _Scorer, query: Query, k: int,
                     query_id: str = "") -> RankedList:
    if k < 1:
        raise ViscxError(f"result count k must be >= 1: {k!r}")
    scored = []
    for doc_id in scorer.store.records:
        s = scorer.score(query, doc_id)
        if s > 0.0:
            scored.append((doc_id, s))
    top = heapq.nsmallest(k, scored, key=lambda item: (-item[1], item[0]))
    return RankedList(query_id, tuple(top))


def rank(store: IndexStore, lattice: SemanticLattice, cfg: PipelineConfig,
         query: Query, strategy: Strategy, k: int = 10,
         query_id: str = "") -> RankedList:
    """Top-k documents for a parsed query under one strategy."""
    if not isinstance(strategy, Strategy):
        strategy = Strategy.from_name(strategy)
    return rank_with_scorer(make_scorer(store, lattice, cfg, strategy),
                            query, k, query_id)


# -- graded relevance ------------------------------------------------------


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments; missing pairs default to grade 0."""

    grades: Mapping[tuple[str, str], int]

    def __post_init__(self):
        for (qid, doc_id), grade in self.grades.items():
            if grade < 0:
                raise ViscxError(f"negative grade for ({qid}, {doc_id})")

    def grade(self, query_id: str, doc_id: str) -> int:
        return self.grades.get((query_id, doc_id), 0)

    def has_query(self, query_id: str) -> bool:
        return any(qid == query_id for qid, _doc in self.grades)

    def grades_for(self, query_id: str) -> list[int]:
        return [g for (qid, _doc), g in self.grades.items() if qid == query_id]

    @classmethod
    def from_text(cls, text: str) -> "Qrels":
        grades: dict[tuple[str, str], int] = {}
        first_line: dict[tuple[str, str], int] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ViscxError(
                    f"qrels line {lineno}: expected query_id<TAB>doc_id<TAB>grade")
            qid, doc_id, grade = parts
            pair = (qid.strip(), doc_id.strip())
            if pair in first_line:
                raise ViscxError(
                    f"qrels line {lineno}: duplicate judgment for {pair}, "
                    f"first given on line {first_line[pair]}")
            first_line[pair] = lineno
            try:
                grades[pair] = int(grade)
            except ValueError:
                raise ViscxError(
                    f"qrels line {lineno}: grade must be an integer, "
                    f"got {grade.strip()!r}") from None
        return cls(grades)

    @classmethod
    def from_path(cls, path: str | Path) -> "Qrels":
        return cls.from_text(_read_text(path, "qrels"))


def _read_text(path: str | Path, what: str) -> str:
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ViscxError(f"cannot read {what} {p}: {exc}") from None


def load_queries(path: str | Path) -> list[tuple[str, str]]:
    """Queries file: one ``id<TAB>text`` per line, each id once."""
    queries = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(
            _read_text(path, "queries").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        qid, tab, text = line.partition("\t")
        if not tab:
            raise ViscxError(f"queries line {lineno}: expected id<TAB>text")
        qid = qid.strip()
        if qid in first_line:
            raise ViscxError(
                f"queries line {lineno}: duplicate query id {qid!r}, "
                f"first given on line {first_line[qid]}")
        first_line[qid] = lineno
        queries.append((qid, text.strip()))
    return queries


def ndcg_at_n(ranked: RankedList, qrels: Qrels, n: int) -> float:
    """Normalized discounted cumulative gain at cutoff n.

    Gains are 2^grade - 1 discounted by log2(rank + 1); the normalizer is
    the ideal DCG over that query's judged documents, and a query with no
    relevant document scores 0.
    """
    if n < 1:
        raise ViscxError(f"ndcg cutoff must be >= 1: {n!r}")
    dcg = 0.0
    for i, (doc_id, _score) in enumerate(ranked.items[:n], start=1):
        gain = (2 ** qrels.grade(ranked.query_id, doc_id)) - 1
        dcg += gain / math.log2(i + 1)
    ideal = sorted(qrels.grades_for(ranked.query_id), reverse=True)[:n]
    idcg = sum(((2 ** g) - 1) / math.log2(i + 1)
               for i, g in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


# -- report ----------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Per-strategy mean NDCG rows plus the per-query breakdown."""

    rows: tuple[tuple[str, int, float], ...]
    per_query: tuple[tuple[str, str, int, float], ...]
    warnings: tuple[str, ...] = ()

    def summary_text(self) -> str:
        lines = ["strategy\tn\tmean_ndcg"]
        for strategy, n, mean in self.rows:
            lines.append(f"{strategy}\t{n}\t{mean:.6f}")
        return "\n".join(lines) + "\n"

    def per_query_text(self) -> str:
        lines = ["strategy\tquery_id\tn\tndcg"]
        for strategy, qid, n, value in self.per_query:
            lines.append(f"{strategy}\t{qid}\t{n}\t{value:.6f}")
        return "\n".join(lines) + "\n"


def eval_report(store: IndexStore, lattice: SemanticLattice,
                cfg: PipelineConfig, queries: Sequence[tuple[str, str]],
                qrels: Qrels, strategies: Sequence[Strategy] = ALL_STRATEGIES,
                n_values: Sequence[int] | None = None) -> EvalReport:
    """Rank every usable query under every strategy and average NDCG@n.

    Queries without judgments or without any vocabulary concept are
    excluded (with a warning) for all strategies, keeping means
    comparable.
    """
    n_values = tuple(n_values if n_values is not None else cfg.ndcg_n)
    warnings: list[str] = []
    unknown_docs = sorted({doc_id for (_qid, doc_id) in qrels.grades
                           if doc_id not in store.records})
    if unknown_docs:
        qrels = Qrels({pair: grade for pair, grade in qrels.grades.items()
                       if pair[1] in store.records})
        warnings.append(
            f"qrels reference unknown documents {unknown_docs}; treated as grade 0")
        log.warning(warnings[-1])
    usable: list[tuple[str, Query]] = []
    for qid, text in queries:
        if not qrels.has_query(qid):
            warnings.append(f"query {qid!r} has no relevance judgments; excluded")
            log.warning(warnings[-1])
            continue
        try:
            usable.append((qid, parse_query(text, lattice, patterns=cfg.patterns)))
        except UnindexableQueryError:
            warnings.append(f"query {qid!r} ({text!r}) is unindexable; excluded")
            log.warning(warnings[-1])
    rows: list[tuple[str, int, float]] = []
    per_query: list[tuple[str, str, int, float]] = []
    k = max(n_values) if n_values else 10
    for strategy in strategies:
        scorer = make_scorer(store, lattice, cfg, strategy)
        ndcg_values: dict[int, list[float]] = {n: [] for n in n_values}
        for qid, query in usable:
            ranked = rank_with_scorer(scorer, query, k, qid)
            for n in n_values:
                value = ndcg_at_n(ranked, qrels, n)
                ndcg_values[n].append(value)
                per_query.append((strategy.value, qid, n, value))
        for n in n_values:
            values = ndcg_values[n]
            mean = sum(values) / len(values) if values else 0.0
            rows.append((strategy.value, n, mean))
    return EvalReport(tuple(rows), tuple(per_query), tuple(warnings))
