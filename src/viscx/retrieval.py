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
pass over the store, which checks every document; what a ranking reads of
a document is made on its first read, so a one-shot search builds it only
for the documents its ranking reaches. `rank_with_scorer` ranks either's
``candidates``; `_Scorer`'s bound and visit treat a group of documents
and a document as nodes of one kind.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .config import PipelineConfig
from .context import (DEFAULT_PATTERNS, SyntacticTerm, apply_patterns,
                      singularize, tag_tokens, terms_from_window, tokenize)
from .errors import (NamedEnum, StoreError, UnindexableQueryError, ViscxError,
                     clip, data_lines, read_text)
from .fusion import (FacetKernel, ScoringView, scoring_view, view_mass,
                     view_part)
from .membership import MembershipTable, TConormKind, aggregate_mu_tot
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


class _OnFirstRead(dict):
    """A dict that makes a missing key's value with ``make(key)`` on the
    key's first read and keeps it."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _norm(tf: Counter, idf: dict[str, float]) -> float:
    """The norm of a document's tf-idf weights."""
    weights = [count * idf[term] for term, count in tf.items()]
    return math.sqrt(sum([w * w for w in weights]))


class _TfIdfIndex:
    """The ``tfidf`` scorer: standard tf * log(N/df) weighting with cosine
    scoring over the plural-folded context tokens of every document.

    Built in one pass over the store: each document's folded token counts
    (`doc_tf`), each token's df and idf. What a query reads is filled on
    its first read and kept: per folded token, the postings, the ids of
    the documents that hold it in store order, and per document its norm,
    so a one-shot search builds them only for the documents its query
    reaches. Per query, rebuilt only when a different query object comes
    in: the cosines of the documents its postings reach."""

    def __init__(self, store: IndexStore):
        fold = functools.cache(singularize)  # once per distinct token
        self.doc_tf = doc_tf = {
            doc_id: Counter(map(fold, chain.from_iterable(
                area.tokens for area in record.areas)))
            for doc_id, record in store.records.items()}
        df: Counter = Counter()
        for tf in doc_tf.values():
            df.update(tf.keys())
        n_docs = len(doc_tf)
        self._idf = idf = {term: math.log(n_docs / count)
                           for term, count in df.items()}
        self.postings: dict[str, list[str]] = _OnFirstRead(
            lambda term: [doc_id for doc_id, tf in doc_tf.items()
                          if term in tf])
        self._norm: dict[str, float] = _OnFirstRead(
            lambda doc_id: _norm(doc_tf[doc_id], idf))
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


#: per evidence value of a group's table, how far `_group_mu` raises its
#: bound above the table's float total
_MU_MARGIN = 2e-15


def _add_evidence(top: dict, pairs: list[tuple[str, float]]) -> None:
    """Merge one document's evidence pairs into a group's ``[largest
    value, largest count of values]`` per anchor."""
    counts: dict[str, int] = {}
    for anchor, value in pairs:
        count = counts[anchor] = counts.get(anchor, 0) + 1
        held = top.get(anchor)
        if held is None:
            top[anchor] = [value, count]
        else:
            if value > held[0]:
                held[0] = value
            if count > held[1]:
                held[1] = count


def _group_mu(top: dict, lattice: SemanticLattice,
              kind: TConormKind) -> Callable[[str], float]:
    """At a concept, memoised, a bound on the membership total of every
    document whose evidence `_add_evidence` merged into `top`: the total
    of a table holding, per anchor, as many copies of the largest value as
    the most any document holds there, plus a margin. The copies sit on
    the table's visual side whichever side a document's evidence fills:
    the other side folds to 0.0, and the t-conorm of x and 0.0 is x in
    either order.

    Every t-conorm has identity 0 and is monotone, and carrying a value by
    its anchor's step is monotone in the value, so the table's exact total
    is at least each document's. (Folding the raw values before carrying
    would not be: under ``psum``, two values of 0.1 and a step of 0.5 give
    0.69 that way and 0.84 carried first.) Float totals need not keep that
    order: the ``psum`` fold subtracts a product, and each document folds
    in its own order. A fold step on values in [0,1] rounds by under
    4.5e-16 and does not enlarge an earlier error, so the margin,
    `_MU_MARGIN` (2e-15) per value of the table plus one, covers the
    rounding of both totals and of its own addition, and lies far below
    `BOUND_SLACK`."""
    pairs = [(lattice.require(anchor), value)
             for anchor, (value, count) in top.items() for _ in range(count)]
    table = MembershipTable(pairs, [], lattice, kind)
    margin = (len(pairs) + 1) * _MU_MARGIN
    bound = _OnFirstRead(lambda concept: table.total(concept) + margin)
    return bound.__getitem__


def _head_triples(lattice: SemanticLattice, mu_of: Callable[[str], float],
                  masses: dict) -> list[tuple]:
    """``(head, mu, largest view mass)`` per head of `masses`, mu None for
    no head or a head the lattice does not know."""
    return [(head, mu_of(head) if head is not None and head in lattice
             else None, mass) for head, mass in masses.items()]


def _doc_node(evidence: dict, lattice: SemanticLattice, doc_id: str) -> tuple:
    """A document's `_Scorer` node, from its evidence, which it takes out."""
    views, table, masses = evidence.pop(doc_id)
    heads = _head_triples(lattice, table.total, masses)
    mus = {head: mu for head, mu, _mass in heads}
    return ((doc_id,), table.total, heads,
            [(view, mus[view[0]]) for view in views])


class _Scorer:
    """The scorer of ``vis``, ``cx`` and ``vis+cx``.

    Built in one pass over the store, in store order, which runs every
    check of the evidence: `StoreError` for the first document not
    enriched, and `aggregate_mu_tot`'s for every document. Per document it
    keeps the membership table, the scoring view of each unit and the
    largest view mass per unit head; equal scoring views of units are
    interned, so they are one object, and a unit object that several
    documents share (a loaded store's equal items) is viewed once. Each
    strategy's evidence fills one side of the tables: ``vis`` and
    ``vis+cx`` the visual, ``cx`` the contextual.

    Ranking reads nodes ``(member ids, mu_of, head triples, units)``. A
    document's node, made on its first read and kept, holds its id, its
    table's `total`, a ``(head, mu, largest view mass)`` triple per unit
    head, mu None for no head or a head the lattice does not know, and a
    ``(view, mu of the unit's head)`` pair per unit. The root `nodes`, in
    store order of first members, are one per group of documents sharing
    a set of unit heads: its ids in ascending order, a bound on each
    member's membership from the largest values and counts of values they
    hold per anchor (`_group_mu`), the largest view mass per head, and
    units None; a group of one is its member's node. So a one-shot search
    builds only the nodes of the groups of one and of the members of the
    groups it visits.

    Per query, rebuilt only when a different query object comes in: each
    term's view and a memo from the ``id`` of an interned view to
    `view_part`, so a term is compared with each distinct unit view once,
    and per document only the membership part is added, with the term
    head's mu read once; for the bounds, each term's view mass and a memo
    of epsilon per unit head."""

    def __init__(self, store: IndexStore, lattice: SemanticLattice,
                 cfg: PipelineConfig, strategy: Strategy):
        self.store = store
        self.lattice = lattice
        self.cfg = cfg
        self._query: Query | None = None
        self._query_state: list = []
        views: dict[ScoringView, ScoringView] = {}
        # per id of a unit the store holds: its interned view and view mass
        unit_views: dict[int, tuple[ScoringView, float]] = {}
        evidence: dict[str, tuple] = {}
        by_heads: dict[frozenset, tuple[list, dict, dict]] = {}
        for doc_id, record in store.records.items():
            if strategy is Strategy.VIS:
                units = [r for r in record.vis_records if r.vsc in lattice]
                pairs = [(r.vsc, r.r_vsc) for r in units]
            elif strategy is Strategy.CX:
                if record.terms is None:
                    raise StoreError(
                        f"document {doc_id!r} has no syntactic terms; "
                        "run enrich before cx search")
                units = list(record.terms)
                pairs = [(c.cx, c.imp) for c in record.contextual or ()]
            else:  # VIS_CX
                if record.enriched is None:
                    raise StoreError(
                        f"document {doc_id!r} is not enriched; "
                        "run enrich before vis+cx search")
                units = [e for e in record.enriched if e.vsc in lattice]
                pairs = [(e.vsc, e.final_mu) for e in units]
            sides = ([], pairs) if strategy is Strategy.CX else (pairs, [])
            table = aggregate_mu_tot(*sides, lattice, cfg.tconorm)
            doc_views = []
            masses: dict[str | None, float] = {}  # per head, in unit order
            for unit in units:
                viewed = unit_views.get(id(unit))
                if viewed is None:
                    view = scoring_view(unit, lattice)
                    view = views.setdefault(view, view)
                    viewed = unit_views[id(unit)] = (view, view_mass(view))
                view, mass = viewed
                doc_views.append(view)
                head = view[0]
                if head not in masses or mass > masses[head]:
                    masses[head] = mass
            evidence[doc_id] = (doc_views, table, masses)
            group = by_heads.get(key := frozenset(masses))
            if group is None:
                group = by_heads[key] = ([], {}, {})
            members, top, group_evidence = group
            members.append(doc_id)
            for head, mass in masses.items():
                if head not in top or mass > top[head]:
                    top[head] = mass
            _add_evidence(group_evidence, pairs)
        # made by functions that do not hold the scorer, so that no
        # reference cycle keeps a dropped scorer alive until a collection
        self._docs: dict[str, tuple] = _OnFirstRead(
            functools.partial(_doc_node, evidence, lattice))
        self.nodes: list[tuple] = []
        for members, top, group_evidence in by_heads.values():
            if len(members) == 1:
                self.nodes.append(self._docs[members[0]])
            else:
                mu_of = _group_mu(group_evidence, lattice, cfg.tconorm)
                self.nodes.append((tuple(sorted(members)), mu_of,
                                   _head_triples(lattice, mu_of, top), None))

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
        _members, mu_of, _heads, units = self._docs[doc_id]
        if not units:
            return 0.0
        lattice, kernel = self.lattice, self.cfg.kernel
        total = 0.0
        for term_view, memo, _mass, _eps in query_terms:
            mu_term = None if term_view[0] is None else mu_of(term_view[0])
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

    def bounds(self, query: Query, nodes: Sequence[tuple]) -> list[float]:
        """Per node of `nodes`, an upper bound on the `score` of each of
        its members, built as `score` is: per query term, the max over the
        node's head triples of a facet bound plus the semantic part,
        epsilon times the two heads' mu, summed over the terms from 0.0.

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
        pair is evaluated, so an unknown head raises as in `score`; a
        group reads its heads in its first member's order, so the head
        named is that of the first document in store order that has one.

        A group's bound reads no member's node. Its mu, `_group_mu`, is
        raised by a margin that covers float rounding, so it is at least
        each member's total in floats, its masses are its members' largest,
        and every other operation of the bound (``+``, ``min``, the division
        by `VOCAB_SIZE`, the product with epsilon >= 0, max and sum) is
        monotone in floats, so a group's bound is at least each member's."""
        lattice = self.lattice
        union = self.cfg.kernel is FacetKernel.MAX  # else an intersection
        query_terms = self._query_terms(query)
        out = []
        for _members, mu_of, heads, _units in nodes:
            total = 0.0
            if heads:
                for term_view, _memo, term_mass, eps_of in query_terms:
                    head = term_view[0]
                    mu_term = None if head is None else mu_of(head)
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

    def candidates(self, query: Query, k: int) -> list[tuple[str, float]]:
        """``(doc_id, score)`` of every positive exact score computed on the
        way to the top k (`_visit`), which holds the top k; a k of at least
        the number of documents scores every document exactly."""
        scored: list[tuple[str, float]] = []
        self._visit(query, self.nodes, k, scored, [])
        return scored

    def _visit(self, query: Query, nodes: list[tuple], k: int,
               scored: list[tuple[str, float]], best: list[float]) -> None:
        """Visit `nodes` in order of descending `bounds` (a stable sort:
        groups in store order, members in id order), keeping the k best
        exact scores so far in the min-heap `best` and every positive one
        in `scored`, up to the first node whose bound lies more than
        `BOUND_SLACK` below the k-th, since no member of it or of a later
        node can reach the top k. A node of several members that can still
        prune, more than the heap lacks (``len(best) + len(members) > k``),
        has its members' nodes visited the same way. Any other's members
        are scored in id order with no bound of their own: a document's,
        whose bound was just checked, or a group's that cannot fill the
        heap before its last member."""
        docs = self._docs
        for bound, (members, _mu_of, _heads, _units) in sorted(
                zip(self.bounds(query, nodes), nodes), key=itemgetter(0),
                reverse=True):
            if len(best) == k and bound < best[0] - BOUND_SLACK:
                return
            if len(members) > 1 and len(best) + len(members) > k:
                self._visit(query, [docs[doc_id] for doc_id in members], k,
                            scored, best)
                continue
            for doc_id in members:
                s = self.score(query, doc_id)
                if s > 0.0:
                    scored.append((doc_id, s))
                    if len(best) < k:
                        heapq.heappush(best, s)
                    elif s > best[0]:
                        heapq.heapreplace(best, s)


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
    shown = repr(clip(text, 20))
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
        for lineno, line in data_lines(text):
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
    for lineno, line in data_lines(read_text(path, "queries")):
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

    Queries without judgments, with judgments of unknown documents only
    or without any vocabulary concept are excluded (with a warning) for
    all strategies, keeping means comparable.
    """
    n_values = tuple(n_values if n_values is not None else cfg.ndcg_n)
    warnings: list[str] = []
    unknown_docs = sorted({doc_id for (_qid, doc_id) in qrels.grades
                           if doc_id not in store.records})
    judged = qrels
    if unknown_docs:
        qrels = Qrels({pair: grade for pair, grade in qrels.grades.items()
                       if pair[1] in store.records})
        warnings.append(
            f"qrels reference unknown documents {unknown_docs}; treated as grade 0")
        log.warning(warnings[-1])
    usable: list[tuple[str, Query]] = []
    for qid, text in queries:
        if not qrels.has_query(qid):
            why = ("judges only unknown documents" if judged.has_query(qid)
                   else "has no relevance judgments")
            warnings.append(f"query {qid!r} {why}; excluded")
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
