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

`make_scorer` builds `_Scorer` (the first three) or `_TfIdfIndex` in one
pass over the store; `rank_with_scorer` ranks either's ``candidates``.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from .config import PipelineConfig
from .context import (DEFAULT_PATTERNS, SyntacticTerm, apply_patterns,
                      singularize, tag_tokens, terms_from_window, tokenize)
from .errors import (NamedEnum, StoreError, UnindexableQueryError, ViscxError,
                     read_text)
from .fusion import (FacetKernel, ScoringView, scoring_view, view_mass,
                     view_part)
from .membership import aggregate_mu_tot
from .store import IndexStore
from .taxonomy import SemanticLattice
from .vis import VOCAB_SIZE

log = logging.getLogger(__name__)


class Strategy(NamedEnum, what="strategy"):
    VIS = "vis"
    CX = "cx"
    VIS_CX = "vis+cx"
    TFIDF = "tfidf"


ALL_STRATEGIES = (Strategy.VIS, Strategy.CX, Strategy.VIS_CX, Strategy.TFIDF)

#: the IndexRecord fields each strategy scores, or that they hold (enriched
#: records hold their visual records); a one-shot search
#: decodes only these (``load_store(path, STRATEGY_FIELDS[strategy])``)
STRATEGY_FIELDS = {Strategy.VIS: ("vis_records",),
                   Strategy.CX: ("terms", "contextual"),
                   Strategy.VIS_CX: ("vis_records", "enriched"),
                   Strategy.TFIDF: ("areas",)}


@dataclass(frozen=True)
class Query:
    """A topic query parsed through the same tag/pattern machinery as
    contextual text; query concepts carry impact 1.0."""

    raw: str
    terms: tuple[SyntacticTerm, ...]


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
    """The ``tfidf`` scorer: standard tf * log(N/df) weighting with cosine
    scoring over the plural-folded context tokens of every document. Per
    folded token, the postings list the ids of the documents that hold it,
    in store order; a list's length is its token's df, and the counts stay
    in `doc_tf`. Per query, rebuilt only when a different query object
    comes in: the cosines of the documents its postings reach."""

    def __init__(self, store: IndexStore):
        self.doc_tf: dict[str, Counter] = {}
        self.postings: dict[str, list[str]] = defaultdict(list)
        fold = functools.cache(singularize)  # once per distinct token
        for doc_id, record in store.records.items():
            tf = self.doc_tf[doc_id] = Counter(map(fold, chain.from_iterable(
                area.tokens for area in record.areas)))
            for term in tf:
                self.postings[term].append(doc_id)
        n_docs = len(self.doc_tf)
        self._idf = idf = {term: math.log(n_docs / len(ids))
                           for term, ids in self.postings.items()}
        self._norm = {}
        for doc_id, tf in self.doc_tf.items():
            weights = [count * idf[term] for term, count in tf.items()]
            self._norm[doc_id] = math.sqrt(sum([w * w for w in weights]))
        self._query: Query | None = None
        self._cosines: dict[str, float] = {}

    def cosines(self, query: Query) -> dict[str, float]:
        """The cosine of the query text's tf-idf weights with each document
        its postings reach, in the order they reach it; every other
        document scores 0. Per document the dot product adds ``w * tf *
        idf`` from 0.0 per query term in query order, as a sum over the
        query terms the document holds would. A term held by every document
        has idf 0, adds 0.0 and is not walked, so each reached document
        and the query have a positive norm."""
        if query is self._query:
            return self._cosines
        q_tf = Counter(singularize(tok) for tok in tokenize(query.raw))
        idf, doc_tf = self._idf, self.doc_tf
        q_weights = {term: count * idf[term]
                     for term, count in q_tf.items() if term in idf}
        q_norm = math.sqrt(sum(w * w for w in q_weights.values()))
        dots: dict[str, float] = {}
        for term, w in q_weights.items():
            if w:
                term_idf = idf[term]
                for doc_id in self.postings[term]:
                    dots[doc_id] = (dots.get(doc_id, 0.0)
                                    + w * doc_tf[doc_id][term] * term_idf)
        norm = self._norm
        self._query, self._cosines = query, {
            doc_id: dot / (q_norm * norm[doc_id])
            for doc_id, dot in dots.items()}
        return self._cosines

    def score(self, query: Query, doc_id: str) -> float:
        return self.cosines(query).get(doc_id, 0.0)

    def candidates(self, query: Query, k: int) -> list[tuple[str, float]]:
        """For every k, ``(doc_id, cosine)`` of each document the query's
        postings reach with a positive cosine: all that can score above 0."""
        return [item for item in self.cosines(query).items() if item[1] > 0.0]


class _MaxTotals(dict):
    """Read as a membership table by the bound pass: at a concept, the
    largest total of a group of documents' tables, memoised across queries
    as each table memoises its own."""

    def __init__(self, tables: list):
        super().__init__()
        self._tables = tables

    def __missing__(self, concept: str) -> float:
        value = self[concept] = max([t.total(concept) for t in self._tables])
        return value

    total = dict.__getitem__


class _Scorer:
    """The scorer of ``vis``, ``cx`` and ``vis+cx``.

    Built in one pass over the store, in store order. Per document: the
    membership table, one ``(view, mu of the unit's head)`` pair per unit,
    mu None for a headless unit or a head the lattice does not know, and
    for `bounds` one ``(head, mu, largest view mass)`` triple per distinct
    unit head; equal scoring views of units are interned, so they are one
    object, and a unit object that several documents share (a loaded
    store's equal items are one object) is viewed once. Per group of
    documents sharing a set of unit heads: its member ids in ascending
    order, a `_MaxTotals` over their tables and per head the largest unit
    mu and the largest view mass. Per query, rebuilt only when a different
    query object comes in: each term's view and a memo from the ``id`` of
    an interned view to `view_part`, so a term is compared with each
    distinct unit view once, and per document only the membership part is
    added, with the term head's mu read once; for the bounds, each term's
    view mass and a memo of epsilon per unit head."""

    def __init__(self, store: IndexStore, lattice: SemanticLattice,
                 cfg: PipelineConfig, strategy: Strategy):
        self.store = store
        self.lattice = lattice
        self.cfg = cfg
        self._query: Query | None = None
        self._query_state: list = []
        views: dict[ScoringView, ScoringView] = {}
        unit_views: dict[int, ScoringView] = {}  # id of a unit the store holds
        self._docs: dict[str, tuple] = {}
        by_heads: dict[frozenset, tuple[list, list, dict]] = {}
        for doc_id, record in store.records.items():
            if strategy is Strategy.VIS:
                units = [r for r in record.vis_records if r.vsc in lattice]
                vis_pairs = [(r.vsc, r.r_vsc) for r in units]
                cx_pairs = []
            elif strategy is Strategy.CX:
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
            table = aggregate_mu_tot(vis_pairs, cx_pairs, lattice, cfg.tconorm)
            pairs = []
            heads: dict[str | None, tuple] = {}
            for unit in units:
                view = unit_views.get(id(unit))
                if view is None:
                    view = scoring_view(unit, lattice)
                    view = unit_views[id(unit)] = views.setdefault(view, view)
                head = view[0]
                mu = (table.total(head)
                      if head is not None and head in lattice else None)
                pairs.append((view, mu))
                mass = view_mass(view)
                if head not in heads or mass > heads[head][2]:
                    heads[head] = (head, mu, mass)
            self._docs[doc_id] = (pairs, table, list(heads.values()))
            members, tables, top = by_heads.setdefault(frozenset(heads),
                                                       ([], [], {}))
            members.append(doc_id)
            tables.append(table)
            for head, mu, mass in heads.values():
                _head, top_mu, top_mass = top.get(head, (head, mu, mass))
                # mu is None for every member or for none: the head decides
                top[head] = (head, None if mu is None else max(top_mu, mu),
                             max(top_mass, mass))
        self._groups = [
            (sorted(members), _MaxTotals(tables), list(top.values()))
            for members, tables, top in by_heads.values()]

    def _query_terms(self, query: Query) -> list[tuple]:
        if query is not self._query:
            state = []
            for term in query.terms:
                view = scoring_view(term, self.lattice)
                state.append((view, {}, view_mass(view), {}))
            self._query, self._query_state = query, state
        return self._query_state

    def score(self, query: Query, doc_id: str) -> float:
        query_terms = self._query_terms(query)
        units, table, _heads = self._docs[doc_id]
        if not units:
            return 0.0
        lattice, kernel = self.lattice, self.cfg.kernel
        total = 0.0
        for term_view, memo, _mass, _eps in query_terms:
            mu_term = None if term_view[0] is None else table.total(term_view[0])
            best = 0.0  # similarities are non-negative
            for view, mu in units:
                part = memo.get(id(view))
                if part is None:
                    part = memo[id(view)] = view_part(term_view, view,
                                                      lattice, kernel)
                sim, eps = part
                if eps is not None:
                    sim += eps * (mu + mu_term)
                if sim > best:
                    best = sim
            total += best
        return total

    def bounds(self, query: Query, doc_ids: Sequence[str]) -> dict[str, float]:
        """Per document of `doc_ids`, an upper bound on `score`, built as
        `score` is: per query term, the max over the units of a facet bound
        plus the semantic part, epsilon times the two heads' mu, summed
        over the terms from 0.0.

        The facet bound reads only the two views' masses (`view_mass`):
        ``(term + unit) / VOCAB_SIZE`` under ``max``, ``min(term, unit) /
        VOCAB_SIZE`` under ``min`` and ``product``. Every weight lies in
        [0,1], so per entry ``max(x, y) <= x + y`` and ``min(x, y)`` and
        ``x * y`` are at most ``x`` and at most ``y``; summed over entries
        and facets, `view_part`'s facet sums are at most this bound, which
        divides once where they divide per facet, so in floats it may fall
        below them by rounding, far under `BOUND_SLACK`. The bound grows
        with the unit mass, and units of one head share epsilon and mu, so
        per head only the largest mass is read. Epsilon depends only on
        the two heads and is memoised per term by unit head. A headless
        side adds no semantic part, and every headed (term, unit head)
        pair is evaluated, so an unknown head raises as in `score`."""
        docs = self._docs
        return dict(zip(doc_ids, self._bounds(
            self._query_terms(query), [docs[doc_id] for doc_id in doc_ids])))

    def _bounds(self, query_terms, states) -> list[float]:
        """The bound of `bounds` per ``(_, table, heads)`` state: a
        document's membership table and head triples, or a group's
        `_MaxTotals` and head maxima."""
        lattice = self.lattice
        union = self.cfg.kernel is FacetKernel.MAX  # else an intersection
        out = []
        for _units, table, heads in states:
            total = 0.0
            if heads:
                for term_view, _memo, term_mass, eps_of in query_terms:
                    head = term_view[0]
                    mu_term = None if head is None else table.total(head)
                    best = 0.0
                    for unit_head, mu, mass in heads:
                        bound = (term_mass + mass if union else
                                 min(term_mass, mass)) / VOCAB_SIZE
                        if mu_term is not None and unit_head is not None:
                            eps = eps_of.get(unit_head)
                            if eps is None:
                                eps = eps_of[unit_head] = lattice.path_sim_epsilon(
                                    head, unit_head)
                            bound += eps * (mu + mu_term)
                        if bound > best:
                            best = bound
                    total += best
            out.append(total)
        return out

    def group_bounds(self, query: Query) -> list[tuple[float, list[str]]]:
        """Per group of documents sharing a set of unit heads, in store
        order of their first members, ``(bound, member ids)`` with the ids
        in ascending order. The bound is that of `bounds`, built from the
        group's largest unit mu and view mass per head and its largest
        total at each term head. Every operation of the bound (``+``,
        ``min``, the division by `VOCAB_SIZE`, the product with epsilon
        >= 0) is monotone in floats, so a group's bound is at least each
        member's, with no slack. A group reads its heads in its first
        member's order, so an unknown head raises as in `bounds`: for the
        first document in store order that has one."""
        groups = self._groups
        return list(zip(self._bounds(self._query_terms(query), groups),
                        [members for members, _totals, _heads in groups]))

    def candidates(self, query: Query, k: int) -> list[tuple[str, float]]:
        """``(doc_id, score)`` of every positive exact score computed on the
        way to the top k, which holds the top k.

        Each group of documents sharing a set of unit heads is first
        bounded cheaply (`group_bounds`), and the groups are visited in
        order of descending bound, keeping the k best exact scores so far;
        the visit stops at the first group whose bound lies more than
        `BOUND_SLACK` below the k-th of them, since none of its documents
        nor any after it can reach the top k. Within a visited group, each
        member is bounded (`bounds`) and scored exactly in order of
        descending bound (ascending id on a tie), up to the first member
        whose bound lies that far below the k-th score. A member's bound is
        not needed, and not computed, when it is the group's only member or
        when the group's members are too few to fill the top k. A k of at
        least the number of documents never fills the top k before the
        last group, so it scores every document exactly."""
        scored = []
        best: list[float] = []  # min-heap of the k best exact scores so far
        groups = self.group_bounds(query)
        groups.sort(key=itemgetter(0), reverse=True)
        for group_bound, members in groups:
            if len(best) == k and group_bound < best[0] - BOUND_SLACK:
                break
            # no member can be pruned when a lone member's bound is the
            # group's, just checked, or when the heap cannot fill before
            # the last member
            prune = len(members) > 1 and len(best) + len(members) > k
            if prune:
                bounds = self.bounds(query, members)
                # stable: members are in id order, so equal bounds keep it
                order = sorted(members, key=bounds.__getitem__, reverse=True)
            else:
                order = members
            for doc_id in order:
                if (prune and len(best) == k
                        and bounds[doc_id] < best[0] - BOUND_SLACK):
                    break
                s = self.score(query, doc_id)
                if s > 0.0:
                    scored.append((doc_id, s))
                    if len(best) < k:
                        heapq.heappush(best, s)
                    elif s > best[0]:
                        heapq.heapreplace(best, s)
        return scored


#: how far below the k-th exact score a document's bound must lie before
#: ranking stops: far above the float gap between a bound and its score
#: (under 1e-12 for sums of a few dozen values <= 5), so a skipped document
#: can neither enter nor tie into the top k
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class RankedList:
    """Descending scores; equal scores break by ascending doc id."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _score in self.items)


def make_scorer(store: IndexStore, lattice: SemanticLattice | None,
                cfg: PipelineConfig,
                strategy: Strategy) -> _Scorer | _TfIdfIndex:
    """The scorer of `store` under `strategy`, built in one pass over the
    store. Raises ViscxError when the store was loaded without a field the
    strategy reads, and StoreError, naming the first such document in
    store order, when ``cx`` or ``vis+cx`` meets a document not enriched."""
    if missing := [f for f in STRATEGY_FIELDS[strategy]
                   if f not in store.fields]:
        raise ViscxError(f"{strategy.value} search reads {', '.join(missing)}, "
                         "which the store was loaded without")
    if strategy is Strategy.TFIDF:
        return _TfIdfIndex(store)
    return _Scorer(store, lattice, cfg, strategy)


def rank_with_scorer(scorer: _Scorer | _TfIdfIndex, query: Query, k: int,
                     query_id: str = "") -> RankedList:
    """The k documents of highest positive score, ties broken by ascending
    document id, taken from `scorer.candidates`: the scores and the
    ranking are those of scoring every document."""
    if k < 1:
        raise ViscxError(f"result count k must be >= 1: {k!r}")
    top = heapq.nsmallest(k, scorer.candidates(query, k),
                          key=lambda item: (-item[1], item[0]))
    return RankedList(query_id, tuple(top))


def rank(store: IndexStore, lattice: SemanticLattice, cfg: PipelineConfig,
         query: Query, strategy: Strategy, k: int = 10,
         query_id: str = "") -> RankedList:
    """Top-k documents for a parsed query under one strategy."""
    return rank_with_scorer(make_scorer(store, lattice, cfg, strategy),
                            query, k, query_id)


# -- graded relevance ------------------------------------------------------

#: the largest grade: 2^1000, and a sum of under 10^7 such gains, are
#: finite floats
MAX_GRADE = 1000


def _grade(text: str, where: str, pair: tuple[str, str]) -> int:
    """The grade written as `text`: an optional sign and ASCII digits. One
    of more significant digits than MAX_GRADE is out of range and refused
    before `int` reads it; an error echoes at most 20 characters of it."""
    shown = repr(text if len(text) <= 20 else text[:20] + "...")
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ViscxError(f"{where}: grade must be an integer, got {shown}")
    digits = digits.lstrip("0") or "0"
    if len(digits) <= len(str(MAX_GRADE)):
        return -int(digits) if text[:1] == "-" else int(digits)
    if text[:1] == "-":
        raise ViscxError(f"{where}: negative grade for ({pair[0]}, {pair[1]})")
    raise ViscxError(f"{where}: grade {shown} for ({pair[0]}, {pair[1]}) is "
                     f"above {MAX_GRADE}")


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments; missing pairs default to grade 0."""

    grades: Mapping[tuple[str, str], int]

    def __post_init__(self):
        by_query: dict[str, list[int]] = {}  # grades per query id, in order
        for (qid, doc_id), grade in self.grades.items():
            if grade < 0:
                raise ViscxError(f"negative grade for ({qid}, {doc_id})")
            if grade > MAX_GRADE:
                raise ViscxError(f"grade {grade} for ({qid}, {doc_id}) is "
                                 f"above {MAX_GRADE}")
            by_query.setdefault(qid, []).append(grade)
        object.__setattr__(self, "_by_query", by_query)

    def grade(self, query_id: str, doc_id: str) -> int:
        return self.grades.get((query_id, doc_id), 0)

    def has_query(self, query_id: str) -> bool:
        return query_id in self._by_query

    def grades_for(self, query_id: str) -> list[int]:
        return list(self._by_query.get(query_id, ()))

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
            grades[pair] = _grade(grade.strip(), f"qrels line {lineno}", pair)
        return cls(grades)

    @classmethod
    def from_path(cls, path: str | Path) -> "Qrels":
        return cls.from_text(read_text(path, "qrels"))


def load_queries(path: str | Path) -> list[tuple[str, str]]:
    """Queries file: one ``id<TAB>text`` per line, each id once."""
    queries = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(
            read_text(path, "queries").splitlines(), start=1):
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
