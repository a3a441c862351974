"""Fuzzy membership of concepts in the visual content.

One piece of evidence, a contextual concept with its impact or a visual
semantic concept with its recognition probability, scores how likely each
lattice concept describes the content. Evidence is propagated unchanged
to more generic concepts and reinforced (the value plus normalized chain
length, clamped at 1) toward more specific ones; unrelated concepts score
0. The lattice keeps, per concept, the step by which each related anchor
reaches it (`SemanticLattice.membership_steps`), so a membership value is
one dict read and at most one addition. A document's membership table,
built by `aggregate_mu_tot`, folds its visual and its contextual evidence
with a configurable t-conorm (`_tconorm`) and combines the two sides; it
computes a concept's total on its first read and memoises it, since
fusion and scoring read only a few concepts of each document. Its one
fold, which the total and both sides share, applies the t-conorm inline
and skips unrelated evidence, whose membership, 0, is the identity of
every t-conorm.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import NamedEnum, ViscxError
from .taxonomy import SemanticLattice


class TConormKind(NamedEnum, what="t-conorm"):
    MAX = "max"
    PROBABILISTIC_SUM = "psum"
    BOUNDED_SUM = "bsum"


def _tconorm(kind: TConormKind, a: float, b: float) -> float:
    """One of the three supported t-conorms, identity 0, on operands
    already known to lie in [0,1]."""
    if kind is TConormKind.MAX:
        return a if a >= b else b
    if kind is TConormKind.PROBABILISTIC_SUM:
        return a + b - a * b
    return min(a + b, 1.0)


class MembershipTable:
    """A document's aggregated likelihoods over the lattice concepts: the
    visual side folds the visual evidence, the context side the contextual
    evidence, and the total is their t-conorm. Built by `aggregate_mu_tot`
    from validated, canonical evidence. A total is computed on its first
    read and memoised; the two sides, which the pipeline never reads, are
    folded on each read."""

    def __init__(self, vis_pairs: list[tuple[str, float]],
                 cx_pairs: list[tuple[str, float]], lattice: SemanticLattice,
                 kind: TConormKind):
        self._vis = vis_pairs
        self._cx = cx_pairs
        self._lattice = lattice
        self._kind = kind
        self._totals: dict[str, float] = {}

    @property
    def universe(self) -> tuple[str, ...]:
        """The canonical ids a table can be read at: every lattice concept."""
        return self._lattice.concept_ids()

    def _fold(self, pairs: list[tuple[str, float]],
              steps: Mapping[str, float | None]) -> float:
        """The t-conorm of the memberships `pairs` carry to the concept
        whose `SemanticLattice.membership_steps` are `steps`, folded left
        to right from 0 as `_tconorm` folds. An anchor absent from `steps`
        carries 0, the identity of every t-conorm, so it is skipped."""
        kind = self._kind
        acc = 0.0
        for anchor, value in pairs:
            if anchor not in steps:
                continue
            step = steps[anchor]
            if step is not None:
                value += step
                if value > 1.0:
                    value = 1.0
            if kind is TConormKind.MAX:
                if value > acc:
                    acc = value
            elif kind is TConormKind.PROBABILISTIC_SUM:
                acc = acc + value - acc * value
            else:
                acc += value
                if acc > 1.0:
                    acc = 1.0
        return acc

    def total(self, concept: str) -> float:
        value = self._totals.get(concept)
        if value is None:
            steps = self._lattice.membership_steps(concept)
            value = self._totals[concept] = _tconorm(
                self._kind, self._fold(self._vis, steps),
                self._fold(self._cx, steps))
        return value

    def vis_side(self, concept: str) -> float:
        return self._fold(self._vis, self._lattice.membership_steps(concept))

    def cx_side(self, concept: str) -> float:
        return self._fold(self._cx, self._lattice.membership_steps(concept))


def aggregate_mu_tot(vis_concepts: Sequence[tuple[str, float]],
                     cx_concepts: Sequence[tuple[str, float]],
                     lattice: SemanticLattice,
                     kind: TConormKind = TConormKind.PROBABILISTIC_SUM
                     ) -> MembershipTable:
    """Fold the document's visual and contextual evidence into a table.

    At a concept the visual side folds the membership carried from each
    of `vis_concepts` (recognition probabilities) and the context side
    from each of `cx_concepts` (impacts), left to right with identity 0;
    the total is their t-conorm. This is the one place evidence is
    checked: every concept must be known and every value lie in [0,1], so
    the table's folds take their operands unchecked.
    """
    vis_pairs = [(lattice.require(vsc), r) for vsc, r in vis_concepts]
    cx_pairs = [(lattice.require(cx), imp) for cx, imp in cx_concepts]
    for _vsc, r in vis_pairs:
        if not (0.0 <= r <= 1.0):
            raise ViscxError(f"recognition probability out of [0,1]: {r!r}")
    for _cx, imp in cx_pairs:
        if not (0.0 <= imp <= 1.0):
            raise ViscxError(f"impact out of [0,1]: {imp!r}")
    return MembershipTable(vis_pairs, cx_pairs, lattice, kind)
