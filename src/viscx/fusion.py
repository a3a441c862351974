"""Similarity between syntactic terms and visual index structures,
best-correspondence selection, and the fusion that produces enriched
records.

Similarity adds three facet sums (one per vocabulary, each normalized by
the vocabulary size 11) to a semantic part: the lattice path similarity of
the two head concepts weighted by the sum of their aggregated membership
values. It is computed between scoring views: a unit's canonical head and
its three facet vectors, built once per term or record and reused for
every pair it takes part in. Fusion then either keeps the visual concept,
replaces it with a more specific contextual one, or corrects it wholesale
when the membership values disagree beyond a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .context import SyntacticTerm, term_vectors
from .errors import NamedEnum
from .membership import MembershipTable
from .taxonomy import SemanticLattice, SemRelation
from .vis import VOCAB_SIZE, VisRecord, facet_vectors

if TYPE_CHECKING:  # config imports FacetKernel from here
    from .config import PipelineConfig


class FacetKernel(NamedEnum, what="facet kernel"):
    MAX = "max"
    MIN = "min"
    PRODUCT = "product"


_KERNELS = {
    FacetKernel.MAX: max,
    FacetKernel.MIN: min,
    FacetKernel.PRODUCT: lambda a, b: a * b,
}


@dataclass(frozen=True)
class FusionProvenance:
    """Everything needed to reconstruct one fusion decision."""

    decision: str  # kept | replaced | corrected
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


#: a unit's canonical head (None when headless) and its facet vectors in
#: (textures, spatials, colors) order, the order the facet sums are added in
ScoringView = tuple[str | None, tuple[tuple[float, ...], ...]]


def scoring_view(unit: SyntacticTerm | VisRecord,
                 lattice: SemanticLattice) -> ScoringView:
    """What similarity reads of a term or record. An unknown head is kept
    as written, so it raises only when paired with another head."""
    if isinstance(unit, SyntacticTerm):
        head = unit.head[0] if unit.head is not None else None
        vec = term_vectors(unit)
    else:
        head, vec = unit.vsc, facet_vectors(unit)
    if head is not None:
        head = lattice.resolve(head) or head
    return head, (vec.textures, vec.spatials, vec.colors)


def view_similarity(a: ScoringView, b: ScoringView, table: MembershipTable,
                    lattice: SemanticLattice,
                    kernel: FacetKernel = FacetKernel.MAX) -> float:
    """Similarity of two scoring views; see `structure_similarity`."""
    k = _KERNELS[kernel]
    a_head, a_vecs = a
    b_head, b_vecs = b
    total = 0.0
    for x, y in zip(a_vecs, b_vecs):
        total += sum(map(k, x, y)) / VOCAB_SIZE
    if a_head is not None and b_head is not None:
        total += (lattice.path_sim_epsilon(a_head, b_head)
                  * (table.total(b_head) + table.total(a_head)))
    return total


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

    @property
    def n_terms(self) -> int:
        return len(self.values)

    @property
    def n_units(self) -> int:
        return len(self.values[0]) if self.values else 0


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
    for k in range(matrix.n_units):
        column = [matrix.values[i][k] for i in range(matrix.n_terms)]
        if not column:
            continue
        best = max(column)
        if best < config.t_sim:
            continue
        floor = max(best - 1e-9, config.t_sim)
        candidates = [i for i, v in enumerate(column) if v >= floor]
        winner = min(candidates, key=lambda i: (-matrix.head_imps[i], i))
        pairs.append(CorrespondencePair(winner, k, column[winner]))
    return pairs


def _enrich(vis: VisRecord, vsc: str, final_mu: float,
            provenance: FusionProvenance) -> EnrichedVisRecord:
    return EnrichedVisRecord(
        vo_id=vis.vo_id, vsc=vsc, r_vsc=vis.r_vsc, colors=dict(vis.colors),
        textures=dict(vis.textures), spatial=vis.spatial,
        original_vsc=vis.vsc, final_mu=final_mu, provenance=provenance)


def keep_unmatched(vis: VisRecord, table: MembershipTable,
                   lattice: SemanticLattice) -> EnrichedVisRecord:
    """Pass a record through fusion unchanged (no correspondence found)."""
    mu_v = table.total(lattice.require(vis.vsc))
    return _enrich(vis, vis.vsc, mu_v,
                   FusionProvenance("kept", "unmatched", None, mu_v, None))


def fuse(pair: CorrespondencePair, vis: VisRecord, st: SyntacticTerm,
         table: MembershipTable, lattice: SemanticLattice,
         config: PipelineConfig) -> EnrichedVisRecord:
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
        return _enrich(vis, vis.vsc, mu_v,
                       FusionProvenance("kept", "headless", None, mu_v, None))
    cx = lattice.require(st.head[0])
    mu_c = table.total(cx)
    final_mu = max(mu_v, mu_c)

    if abs(mu_v - mu_c) <= config.t_mu:
        rel = lattice.relation(vsc, cx)
        if rel is SemRelation.GENERIC:
            decision, branch, new_vsc = "replaced", "correspondence_specialized", cx
        elif rel is SemRelation.UNRELATED:
            decision, branch, new_vsc = "kept", "correspondence_unrelated", vis.vsc
        else:
            decision, branch, new_vsc = "kept", "correspondence_kept", vis.vsc
    elif config.fusion_literal:
        if mu_v - mu_c < 0:
            decision, branch, new_vsc = "kept", "correction_literal_kept", vis.vsc
        else:
            decision, branch, new_vsc = "corrected", "correction_literal", cx
    elif mu_c > mu_v:
        decision, branch, new_vsc = "corrected", "correction_context", cx
    else:
        decision, branch, new_vsc = "kept", "correction_visual", vis.vsc

    return _enrich(vis, new_vsc, final_mu,
                   FusionProvenance(decision, branch, cx, mu_v, mu_c))


def enrich_records(records: Sequence[VisRecord], terms: Sequence[SyntacticTerm],
                   table: MembershipTable, lattice: SemanticLattice,
                   config: PipelineConfig) -> tuple[list[EnrichedVisRecord],
                                                  list[CorrespondencePair]]:
    """Run the full correspondence-and-fusion stage for one document,
    returning enriched records in input order plus the matched pairs."""
    matrix = build_similarity_matrix(terms, records, table, lattice, config.kernel)
    pairs = best_correspondences(matrix, config)
    by_record = {pair.vis_index: pair for pair in pairs}
    enriched: list[EnrichedVisRecord] = []
    for k, record in enumerate(records):
        pair = by_record.get(k)
        if pair is None:
            enriched.append(keep_unmatched(record, table, lattice))
        else:
            enriched.append(
                fuse(pair, record, terms[pair.term_index], table, lattice, config))
    return enriched, pairs
