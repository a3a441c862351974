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
threshold. Each outcome is a branch with one decision (`DECISIONS`). An
enriched record holds its visual record, not a copy, and its decision
(`FusionProvenance`), and derives the rest; the index store keeps only
the decision, and a load hands it the visual record again.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .context import SyntacticTerm
from .errors import NamedEnum
from .membership import MembershipTable
from .taxonomy import SemanticLattice, SemRelation
from .vis import (_TOKEN_OK, COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES,
                  VOCAB_SIZE, VisRecord)

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


class FusionProvenance(NamedTuple):
    """One fusion decision: the branch taken, the matched head and the two
    membership values; the decision (kept | replaced | corrected) is the
    branch's. With the visual record, all an enriched record is made of."""

    branch: str
    matched_head: str | None
    mu_vsc: float
    mu_cx: float | None = None

    @property
    def decision(self) -> str:
        return DECISIONS[self.branch]


class EnrichedVisRecord(VisRecord):
    """A VisRecord after fusion: the visual record it holds, not copied and
    not validated again, and its fusion decision, which needs a known
    branch, a concept token for a head that replaces or corrects, and
    membership values in [0,1]. It reads its visual fields through the held
    record, whose concept is `original_vsc`, and derives once its concept
    `vsc` (the matched head unless kept) and `final_mu` (the larger mu)."""

    def __init__(self, vis: VisRecord, provenance: FusionProvenance):
        branch, head, mu_vsc, mu_cx = provenance
        if branch not in DECISIONS:
            raise ValueError(f"unknown fusion branch {branch!r}")
        kept = DECISIONS[branch] == "kept"
        if not (kept or isinstance(head, str) and _TOKEN_OK.fullmatch(head)):
            raise ValueError(f"invalid semantic concept {head!r}")
        if not 0.0 <= mu_vsc <= 1.0:
            raise ValueError(f"mu_vsc out of [0,1]: {mu_vsc!r}")
        if mu_cx is not None and not 0.0 <= mu_cx <= 1.0:
            raise ValueError(f"mu_cx out of [0,1]: {mu_cx!r}")
        self.__dict__.update(
            vis=vis, provenance=provenance, vsc=vis.vsc if kept else head,
            final_mu=mu_vsc if mu_cx is None else max(mu_vsc, mu_cx))

    def __setattr__(self, name, *_value):
        raise FrozenInstanceError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.vis == other.vis
                and self.provenance == other.provenance)

    def __repr__(self):
        return (f"{type(self).__qualname__}(vis={self.vis!r}, "
                f"provenance={self.provenance!r})")

    vo_id, r_vsc, colors, textures, spatial, original_vsc = (
        property(attrgetter(f"vis.{name}")) for name in
        ("vo_id", "r_vsc", "colors", "textures", "spatial", "vsc"))


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


def keep_unmatched(vis: VisRecord, table: MembershipTable,
                   lattice: SemanticLattice) -> EnrichedVisRecord:
    """Pass a record through fusion unchanged (no correspondence found)."""
    return EnrichedVisRecord(vis, FusionProvenance(
        "unmatched", None, table.total(lattice.require(vis.vsc))))


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
        return EnrichedVisRecord(vis, FusionProvenance("headless", None, mu_v))
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
    return EnrichedVisRecord(vis, FusionProvenance(branch, cx, mu_v, mu_c))


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
            enriched.append(EnrichedVisRecord(record, FusionProvenance(
                "unknown_concept", None, record.r_vsc)))
    return enriched
