"""Similarity between syntactic terms and visual index structures,
best-correspondence selection, and the fusion that produces enriched
records.

Similarity adds three facet sums (one per vocabulary, each normalized by
the vocabulary size 11) to a semantic part: the lattice path similarity of
the two head concepts weighted by the sum of their aggregated membership
values. It is computed between scoring views, built once per term or
record and reused for every pair it takes part in: a unit's canonical head
and, per facet, only its non-zero (vocabulary index, weight) entries with
their mass, so a facet sum walks the few entries a unit has rather than
all 11. Fusion then either keeps the visual concept (always one the
lattice does not know), replaces it with a more specific contextual one,
or corrects it wholesale when the membership values disagree beyond a
threshold. Each outcome is a branch with one decision (`DECISIONS`), and
`_enrich` derives the enriched record from the visual record, the branch,
the matched head and the two membership values; the index store keeps
only those four and rebuilds the record with `_enrich` on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .context import SyntacticTerm
from .errors import NamedEnum
from .membership import MembershipTable
from .taxonomy import SemanticLattice, SemRelation
from .vis import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, VOCAB_SIZE,
                  VisRecord)

if TYPE_CHECKING:  # config imports FacetKernel from here
    from .config import PipelineConfig


class FacetKernel(NamedEnum, what="facet kernel"):
    MAX = "max"
    MIN = "min"
    PRODUCT = "product"


#: the kernels that are 0 where either side is 0 (`view_part` walks ``max``
#: over the union of two facets instead)
_INTERSECTION_KERNELS = {
    FacetKernel.MIN: min,
    FacetKernel.PRODUCT: lambda a, b: a * b,
}


#: the decision each fusion branch takes: a kept record keeps its visual
#: concept, a replaced or corrected one takes the matched head
DECISIONS = {
    "correspondence_specialized": "replaced",
    "correspondence_kept": "kept",
    "correspondence_unrelated": "kept",
    "correction_context": "corrected",
    "correction_visual": "kept",
    "correction_literal": "corrected",
    "correction_literal_kept": "kept",
    "unmatched": "kept",
    "headless": "kept",
    "unknown_concept": "kept",
}


@dataclass(frozen=True)
class FusionProvenance:
    """Everything needed to reconstruct one fusion decision: with the
    visual record, its branch, matched head and membership values rebuild
    the enriched record (`_enrich`), which is all the index store keeps of
    it; the decision is the branch's."""

    decision: str  # kept | replaced | corrected, DECISIONS[branch]
    branch: str
    matched_head: str | None
    mu_vsc: float
    mu_cx: float | None


@dataclass(frozen=True)
class EnrichedVisRecord(VisRecord):
    """A VisRecord after fusion: possibly respecialized or corrected
    semantic concept, the fused membership value, and provenance."""

    original_vsc: str = ""
    final_mu: float = 0.0
    provenance: FusionProvenance | None = None


#: one facet of a scoring view: the (vocabulary index, weight) entries with
#: weight > 0 in index order, the largest weight where a name repeats, and
#: the facet's mass, the builtin `sum` of those weights
Facet = tuple[tuple[tuple[int, float], ...], float]

#: a unit's canonical head (None when headless) and its facets in
#: (textures, spatials, colors) order, the order the facet sums are added in;
#: hashable, so equal views can be interned
ScoringView = tuple[str | None, tuple[Facet, Facet, Facet]]

_NO_FACET: Facet = ((), 0.0)

_TEXTURE_INDEX, _SPATIAL_INDEX, _COLOR_INDEX = (
    {name: j for j, name in enumerate(names)}
    for names in (TEXTURE_NAMES, SPATIAL_NAMES, COLOR_NAMES))


def _facet(index: dict[str, int], pairs) -> Facet:
    """The facet of a collection of (name, weight) pairs."""
    if not pairs:
        return _NO_FACET
    if len(pairs) == 1:
        (name, w), = pairs
        return (((index[name], w),), w) if w > 0.0 else _NO_FACET
    best: dict[int, float] = {}
    for name, w in pairs:
        j = index[name]
        if w > best.get(j, 0.0):
            best[j] = w
    if not best:
        return _NO_FACET
    entries = tuple(sorted(best.items()))
    return entries, sum([w for _j, w in entries])


def scoring_view(unit: SyntacticTerm | VisRecord,
                 lattice: SemanticLattice) -> ScoringView:
    """What similarity reads of a term or record: a record's spatial
    relations weigh 1.0 per relation kind. An unknown head is kept as
    written, so it raises only when paired with another head."""
    if isinstance(unit, SyntacticTerm):
        head = unit.head[0] if unit.head is not None else None
        textures, spatials, colors = unit.textures, unit.spatials, unit.colors
    else:
        head = unit.vsc
        textures, colors = unit.textures.items(), unit.colors.items()
        spatials = [(rel, 1.0) for rel, _target in unit.spatial]
    if head is not None:
        head = lattice.resolve(head) or head
    return head, (_facet(_TEXTURE_INDEX, textures),
                  _facet(_SPATIAL_INDEX, spatials),
                  _facet(_COLOR_INDEX, colors))


def view_part(a: ScoringView, b: ScoringView, lattice: SemanticLattice,
              kernel: FacetKernel = FacetKernel.MAX) -> tuple[float, float | None]:
    """The part of `view_similarity` that reads no membership table: the
    three facet sums added from 0.0, and the path similarity of the two
    heads (None when either view has no head).

    A facet sum is ``sum(map(kernel, x, y)) / VOCAB_SIZE`` over the two
    dense 11-entry weight vectors, computed from the non-zero entries
    alone. Under ``max`` it walks the union of the two facets (an empty
    side adds the other side's mass); under ``min`` and ``product`` the
    intersection (an empty one adds 0 and is left out). The result is the
    dense sum bit for bit: every weight is finite and in [0,1], so each
    entry the walk skips is a kernel value of +0.0, and ``x + 0.0 == x``;
    the walk keeps index order and adds with the builtin `sum`, whose
    compensated float summation (Python >= 3.12) is also unchanged by
    +0.0 terms.
    """
    facets = 0.0
    if kernel is FacetKernel.MAX:
        for (xs, x_mass), (ys, y_mass) in zip(a[1], b[1]):
            if not xs:
                facets += y_mass / VOCAB_SIZE
            elif not ys:
                facets += x_mass / VOCAB_SIZE
            else:  # sorted, a repeated index keeps its larger weight last
                facets += sum(dict(sorted(xs + ys)).values()) / VOCAB_SIZE
    else:
        k = _INTERSECTION_KERNELS[kernel]
        for (xs, _x_mass), (ys, _y_mass) in zip(a[1], b[1]):
            if xs and ys:
                other = dict(ys)
                facets += sum([k(w, other[j]) for j, w in xs
                               if j in other]) / VOCAB_SIZE
    if a[0] is None or b[0] is None:
        return facets, None
    return facets, lattice.path_sim_epsilon(a[0], b[0])


def view_mass(view: ScoringView) -> float:
    """The sum of a view's three facet masses."""
    (_xs, texture_mass), (_ys, spatial_mass), (_zs, color_mass) = view[1]
    return texture_mass + spatial_mass + color_mass


def view_similarity(a: ScoringView, b: ScoringView, table: MembershipTable,
                    lattice: SemanticLattice,
                    kernel: FacetKernel = FacetKernel.MAX) -> float:
    """Similarity of two scoring views; see `structure_similarity`."""
    facets, eps = view_part(a, b, lattice, kernel)
    if eps is None:
        return facets
    return facets + eps * (table.total(b[0]) + table.total(a[0]))


def structure_similarity(st: SyntacticTerm, unit: SyntacticTerm | VisRecord,
                         table: MembershipTable, lattice: SemanticLattice,
                         kernel: FacetKernel = FacetKernel.MAX) -> float:
    """Similarity of a syntactic term to a VIS record (or, for term-term
    scoring, to another syntactic term).

    Non-negative; each facet sum lies in [0,1], the semantic part is
    path-similarity times the sum of the two heads' membership values and
    is 0 when either side has no semantic head.
    """
    return view_similarity(scoring_view(st, lattice), scoring_view(unit, lattice),
                           table, lattice, kernel)


@dataclass(frozen=True)
class SimilarityMatrix:
    """All term-to-record similarities for one document; rows are terms,
    columns are records. Row head impacts drive tie-breaking."""

    values: tuple[tuple[float, ...], ...]
    head_imps: tuple[float, ...]


def build_similarity_matrix(terms: Sequence[SyntacticTerm],
                            units: Sequence[VisRecord | SyntacticTerm],
                            table: MembershipTable, lattice: SemanticLattice,
                            kernel: FacetKernel = FacetKernel.MAX) -> SimilarityMatrix:
    term_views = [scoring_view(st, lattice) for st in terms]
    unit_views = [scoring_view(unit, lattice) for unit in units]
    values = tuple(
        tuple(view_similarity(tv, uv, table, lattice, kernel) for uv in unit_views)
        for tv in term_views)
    head_imps = tuple(st.head[1] if st.head is not None else 0.0 for st in terms)
    return SimilarityMatrix(values, head_imps)


@dataclass(frozen=True)
class CorrespondencePair:
    """A term/record pair achieving the best correspondence for that
    record's column; indexes are 0-based."""

    term_index: int
    vis_index: int
    sim: float


def best_correspondences(matrix: SimilarityMatrix,
                         config: PipelineConfig) -> list[CorrespondencePair]:
    """Per record column, the argmax term with similarity at or above the
    floor. One term may win several columns; near-ties (within 1e-9) break
    toward the higher head impact, then the lower term index."""
    pairs: list[CorrespondencePair] = []
    for k, column in enumerate(zip(*matrix.values)):
        best = max(column)
        if best < config.t_sim:
            continue
        floor = max(best - 1e-9, config.t_sim)
        candidates = [i for i, v in enumerate(column) if v >= floor]
        winner = min(candidates, key=lambda i: (-matrix.head_imps[i], i))
        pairs.append(CorrespondencePair(winner, k, column[winner]))
    return pairs


def _enrich(vis: VisRecord, branch: str, matched_head: str | None,
            mu_vsc: float, mu_cx: float | None = None) -> EnrichedVisRecord:
    """The enriched record of one fusion decision, derived from the visual
    record and the decision's branch, matched head and membership values:
    the branch's `DECISIONS` entry, the matched head as the concept unless
    the decision is kept, and ``max(mu_vsc, mu_cx)`` as the fused
    membership (``mu_vsc`` when there is no contextual value)."""
    decision = DECISIONS[branch]
    return EnrichedVisRecord(
        vo_id=vis.vo_id, vsc=vis.vsc if decision == "kept" else matched_head,
        r_vsc=vis.r_vsc, colors=dict(vis.colors), textures=dict(vis.textures),
        spatial=vis.spatial, original_vsc=vis.vsc,
        final_mu=mu_vsc if mu_cx is None else max(mu_vsc, mu_cx),
        provenance=FusionProvenance(decision, branch, matched_head, mu_vsc,
                                    mu_cx))


def keep_unmatched(vis: VisRecord, table: MembershipTable,
                   lattice: SemanticLattice) -> EnrichedVisRecord:
    """Pass a record through fusion unchanged (no correspondence found)."""
    return _enrich(vis, "unmatched", None,
                   table.total(lattice.require(vis.vsc)))


def fuse(vis: VisRecord, st: SyntacticTerm, table: MembershipTable,
         lattice: SemanticLattice, config: PipelineConfig) -> EnrichedVisRecord:
    """Fuse one matched term into its record.

    Within the correspondence band (membership difference <= t_mu) the
    more specific of the two concepts is installed, never a more generic
    one, and unrelated concepts leave the record untouched. Outside the
    band the concept with the higher membership wins (or, in literal
    mode, the printed keep-if-negative-difference rule applies). The
    fused membership is always the max of the two values.
    """
    vsc = lattice.require(vis.vsc)
    mu_v = table.total(vsc)
    if st.head is None:
        return _enrich(vis, "headless", None, mu_v)
    cx = lattice.require(st.head[0])
    mu_c = table.total(cx)

    if abs(mu_v - mu_c) <= config.t_mu:
        rel = lattice.relation(vsc, cx)
        if rel is SemRelation.GENERIC:
            branch = "correspondence_specialized"
        elif rel is SemRelation.UNRELATED:
            branch = "correspondence_unrelated"
        else:
            branch = "correspondence_kept"
    elif config.fusion_literal:
        branch = ("correction_literal_kept" if mu_v - mu_c < 0
                  else "correction_literal")
    elif mu_c > mu_v:
        branch = "correction_context"
    else:
        branch = "correction_visual"
    return _enrich(vis, branch, cx, mu_v, mu_c)


def enrich_records(records: Sequence[VisRecord], terms: Sequence[SyntacticTerm],
                   table: MembershipTable, lattice: SemanticLattice,
                   config: PipelineConfig) -> list[EnrichedVisRecord]:
    """Run the full correspondence-and-fusion stage for one document: every
    record, enriched, in input order. A record whose concept the lattice
    does not know takes no part in matching and is kept, with its
    recognition probability as its membership value."""
    known = [k for k, record in enumerate(records) if record.vsc in lattice]
    matrix = build_similarity_matrix(terms, [records[k] for k in known],
                                     table, lattice, config.kernel)
    matched = {known[pair.vis_index]: terms[pair.term_index]
               for pair in best_correspondences(matrix, config)}
    enriched: list[EnrichedVisRecord] = []
    for k, record in enumerate(records):
        if k in matched:
            enriched.append(fuse(record, matched[k], table, lattice, config))
        elif record.vsc in lattice:
            enriched.append(keep_unmatched(record, table, lattice))
        else:
            enriched.append(_enrich(record, "unknown_concept", None,
                                    record.r_vsc))
    return enriched
