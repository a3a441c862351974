"""Fuzzy membership of concepts in the visual content.

Two membership functions score how likely a lattice concept describes the
content: one anchored on a contextual concept with its impact, one on a
visual semantic concept with its recognition probability. Evidence is
propagated unchanged to more generic concepts and reinforced (impact plus
normalized chain length, clamped at 1) toward more specific ones;
unrelated concepts score 0. Per-document evidence is folded with a
configurable t-conorm into a membership table over the concept universe.
The table computes a concept's value on its first read and memoises it,
since fusion and scoring read only a few concepts of each document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .errors import NamedEnum, UnknownConceptError, ViscxError
from .taxonomy import SemanticLattice, SemRelation


class TConormKind(NamedEnum, what="t-conorm"):
    MAX = "max"
    PROBABILISTIC_SUM = "psum"
    BOUNDED_SUM = "bsum"


def _check_unit(value: float, what: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ViscxError(f"{what} out of [0,1]: {value!r}")


def tconorm(kind: TConormKind, a: float, b: float) -> float:
    """Apply one of the three supported t-conorms; inputs must lie in
    [0,1], the identity element is 0."""
    _check_unit(a, "t-conorm operand")
    _check_unit(b, "t-conorm operand")
    return _tconorm(kind, a, b)


def _tconorm(kind: TConormKind, a: float, b: float) -> float:
    """`tconorm` on operands already known to lie in [0,1]."""
    if kind is TConormKind.MAX:
        return a if a >= b else b
    if kind is TConormKind.PROBABILISTIC_SUM:
        return a + b - a * b
    return min(a + b, 1.0)


def _membership(c: str, anchor: str, value: float,
                lattice: SemanticLattice) -> float:
    rel = lattice.relation(c, anchor)
    if rel is SemRelation.EQUAL or rel is SemRelation.GENERIC:
        return value
    if rel is SemRelation.SPECIFIC:
        return min(value + lattice.path_length_norm(anchor, c), 1.0)
    return 0.0


def mu_cx(c: str, cx: str, imp: float, lattice: SemanticLattice) -> float:
    """Likelihood that concept c describes a visual entity also described
    by the contextual concept cx carrying impact imp."""
    _check_unit(imp, "impact")
    return _membership(c, cx, imp, lattice)


def mu_vsc(c: str, vsc: str, r: float, lattice: SemanticLattice) -> float:
    """Likelihood that concept c describes the content indexed by the
    visual semantic concept vsc recognized with probability r."""
    _check_unit(r, "recognition probability")
    return _membership(c, vsc, r, lattice)


class _LazyColumn(Mapping[str, float]):
    """One membership column over the universe: a concept's value is
    computed on its first read and memoised."""

    def __init__(self, universe: tuple[str, ...], members: frozenset[str],
                 compute: Callable[[str], float]):
        self._universe = universe
        self._members = members
        self._compute = compute
        self._memo: dict[str, float] = {}

    def __getitem__(self, concept: str) -> float:
        try:
            return self._memo[concept]
        except KeyError:
            if concept not in self._members:
                raise
        value = self._memo[concept] = self._compute(concept)
        return value

    def __iter__(self) -> Iterator[str]:
        return iter(self._universe)

    def __len__(self) -> int:
        return len(self._universe)

    def __contains__(self, concept: object) -> bool:
        return concept in self._members


@dataclass(frozen=True)
class MembershipTable:
    """Aggregated likelihoods over the document's concept universe:
    the visual-evidence column, the context-evidence column, and their
    t-conorm combination. The columns built by `aggregate_mu_tot` compute
    each concept's value on its first read and memoise it."""

    universe: tuple[str, ...]
    mu_tot_vis: Mapping[str, float]
    mu_tot_cx: Mapping[str, float]
    mu_tot: Mapping[str, float]

    def _get(self, table: Mapping[str, float], concept: str) -> float:
        try:
            return table[concept]
        except KeyError:
            raise UnknownConceptError(
                f"concept {concept!r} missing from membership table") from None

    def total(self, concept: str) -> float:
        return self._get(self.mu_tot, concept)

    def vis_side(self, concept: str) -> float:
        return self._get(self.mu_tot_vis, concept)

    def cx_side(self, concept: str) -> float:
        return self._get(self.mu_tot_cx, concept)


def aggregate_mu_tot(universe: Sequence[str],
                     vis_concepts: Sequence[tuple[str, float]],
                     cx_concepts: Sequence[tuple[str, float]],
                     lattice: SemanticLattice,
                     kind: TConormKind = TConormKind.PROBABILISTIC_SUM
                     ) -> MembershipTable:
    """Fold the two membership functions over the document evidence.

    For every universe concept the visual column folds mu_vsc over
    `vis_concepts` and the context column folds mu_cx over `cx_concepts`
    (left to right, identity 0); the combined value is their t-conorm.
    Concepts and evidence values are validated here, so the folds, whose
    every operand then lies in [0,1], skip `tconorm`'s checks; each column
    value is computed on its first read.
    """
    if universe is lattice.concept_ids():
        ids = tuple(universe)
    else:
        ids = tuple(dict.fromkeys(lattice.require(token) for token in universe))
    members = frozenset(ids)
    vis_pairs = [(lattice.require(vsc), r) for vsc, r in vis_concepts]
    cx_pairs = [(lattice.require(cx), imp) for cx, imp in cx_concepts]
    for _vsc, r in vis_pairs:
        _check_unit(r, "recognition probability")
    for _cx, imp in cx_pairs:
        _check_unit(imp, "impact")

    def fold(pairs: list[tuple[str, float]]) -> Callable[[str], float]:
        def compute(cid: str) -> float:
            acc = 0.0
            for anchor, value in pairs:
                acc = _tconorm(kind, acc, _membership(cid, anchor, value, lattice))
            return acc
        return compute

    vis_col = _LazyColumn(ids, members, fold(vis_pairs))
    cx_col = _LazyColumn(ids, members, fold(cx_pairs))
    tot_col = _LazyColumn(
        ids, members, lambda cid: _tconorm(kind, vis_col[cid], cx_col[cid]))
    return MembershipTable(ids, vis_col, cx_col, tot_col)
