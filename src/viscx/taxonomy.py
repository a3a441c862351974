"""Hypernym/hyponym concept lattice with path-based similarity queries.

The lattice is a directed acyclic graph of lowercase concept ids connected
by is_a edges (child -> parent). It is loaded from a tab-separated taxonomy
file; `insert_concept` builds a new lattice with one more concept, the
original is never mutated. All queries resolve synonyms to their canonical
id first. A lattice parsed from text carries the sha256 of that text as its
fingerprint.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import (TaxonomyError, UnknownConceptError, UnrelatedConceptsError,
                     data_lines, one_line, read_text)

try:  # the built-in sha256; hashlib loads OpenSSL, about 3.5 MB resident
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

if TYPE_CHECKING:  # context imports this module
    from .context import TaggedToken

_ID_RE = re.compile(r"[a-z][a-z0-9_]*")


class SemRelation(Enum):
    """How concept a sits relative to concept b in the is_a graph."""

    EQUAL = "equal"
    #: a is an ancestor (hypernym) of b
    GENERIC = "generic"
    #: a is a descendant (hyponym) of b
    SPECIFIC = "specific"
    UNRELATED = "unrelated"


@dataclass(frozen=True)
class Concept:
    """A lattice node: canonical id plus alias tokens that resolve to it;
    both follow the id pattern ``[a-z][a-z0-9_]*``."""

    id: str
    synonyms: frozenset[str] = frozenset()

    def __post_init__(self):
        if not _ID_RE.fullmatch(self.id):
            raise TaxonomyError(f"invalid concept id {self.id!r}")
        for syn in sorted(self.synonyms):
            if not _ID_RE.fullmatch(syn):
                raise TaxonomyError(f"invalid synonym {syn!r} of {self.id!r}")


class SemanticLattice:
    """Immutable is_a DAG over concepts.

    The constructor checks for cycles and measures `longest_path`, the
    edge count of the longest root-to-leaf chain, which normalizes chain
    lengths. The rest is built on first use, which is safe because the
    lattice never changes: per concept, a step row (`membership_steps`)
    from one breadth-first walk up and one down, from which relations and
    chain lengths are read; per canonical head, a row of undirected path
    similarities from one walk both ways; and token tags per token.
    """

    def __init__(self, concepts: Sequence[Concept], parents: Mapping[str, Sequence[str]],
                 fingerprint: str | None = None):
        #: sha256 hex digest of the taxonomy text; None for a built lattice
        self.fingerprint = fingerprint
        if not concepts:
            raise TaxonomyError("no roots: taxonomy declares no concepts")
        self._concepts: dict[str, Concept] = {}
        self._synonyms: dict[str, str] = {}
        for concept in concepts:
            if concept.id in self._concepts:
                raise TaxonomyError(f"duplicate concept id {concept.id!r}")
            self._concepts[concept.id] = concept
        for concept in concepts:
            for syn in sorted(concept.synonyms):
                if syn == concept.id:
                    continue
                if syn in self._concepts:
                    raise TaxonomyError(
                        f"synonym {syn!r} of {concept.id!r} clashes with a concept id")
                owner = self._synonyms.get(syn)
                if owner is not None and owner != concept.id:
                    raise TaxonomyError(
                        f"synonym {syn!r} claimed by both {owner!r} and {concept.id!r}")
                self._synonyms[syn] = concept.id

        self._order: tuple[str, ...] = tuple(c.id for c in concepts)
        self._parents: dict[str, tuple[str, ...]] = {}
        for cid in self._order:
            resolved: list[str] = []
            for token in parents.get(cid, ()):
                pid = token if token in self._concepts else self._synonyms.get(token)
                if pid is None:
                    raise TaxonomyError(f"unknown parent {token!r} for concept {cid!r}")
                if pid not in resolved:
                    resolved.append(pid)
            self._parents[cid] = tuple(resolved)

        kids: dict[str, list[str]] = {cid: [] for cid in self._order}
        for cid in self._order:
            for pid in self._parents[cid]:
                kids[pid].append(cid)
        self._children = {cid: tuple(lst) for cid, lst in kids.items()}

        self._finalize()
        #: per canonical head, its path similarity to every concept
        self._eps_rows: dict[str, dict[str, float]] = {}
        self._steps: dict[str, dict[str, float | None]] = {}
        #: token tags, filled by context.tag_tokens
        self._tags: dict[str, TaggedToken] = {}

    def _finalize(self) -> None:
        # Kahn topological pass: parents before children, each passing its
        # depth down. Whatever keeps unprocessed parents sits on a cycle.
        pending = {cid: len(self._parents[cid]) for cid in self._order}
        queue = deque(cid for cid in self._order if pending[cid] == 0)
        depth = dict.fromkeys(self._order, 0)
        while queue:
            cid = queue.popleft()
            below = depth[cid] + 1
            for kid in self._children[cid]:
                depth[kid] = max(depth[kid], below)
                pending[kid] -= 1
                if pending[kid] == 0:
                    queue.append(kid)
        stuck = {cid for cid in self._order if pending[cid]}
        if stuck:
            edges = sorted((cid, pid) for cid in stuck
                           for pid in self._parents[cid] if pid in stuck)
            raise TaxonomyError(f"cycle detected among is_a edges: {edges}")
        self.longest_path: int = max(depth.values())

    def _walk(self, cid: str, *edge_tables: dict[str, tuple[str, ...]]) -> dict[str, int]:
        """The edge count from `cid` (0 for itself) to every concept a
        breadth-first search reaches along parents, children or both."""
        dist = {cid: 0}
        queue = deque([cid])
        while queue:
            near = queue.popleft()
            d = dist[near] + 1
            for table in edge_tables:
                for far in table[near]:
                    if far not in dist:
                        dist[far] = d
                        queue.append(far)
        return dist

    # -- lookup ---------------------------------------------------------

    def concept_ids(self) -> tuple[str, ...]:
        """All canonical ids in declaration order."""
        return self._order

    def parents(self, cid: str) -> tuple[str, ...]:
        return self._parents[self.require(cid)]

    def resolve(self, token: str) -> str | None:
        """Canonical id for a token, via synonyms; None when unknown."""
        if token in self._concepts:  # a canonical id is already normalized
            return token
        t = token.strip().lower()
        if t in self._concepts:
            return t
        return self._synonyms.get(t)

    def require(self, token: str) -> str:
        cid = self.resolve(token)
        if cid is None:
            raise UnknownConceptError(f"unknown concept {token!r}")
        return cid

    def __contains__(self, token: str) -> bool:
        return self.resolve(token) is not None

    def __len__(self) -> int:
        return len(self._order)

    # -- relations and paths --------------------------------------------

    def relation(self, a: str, b: str) -> SemRelation:
        """Equal, Generic (a above b), Specific (a below b) or Unrelated."""
        ca, cb = self.require(a), self.require(b)
        if ca == cb:
            return SemRelation.EQUAL
        steps = self.membership_steps(cb)
        if ca not in steps:
            return SemRelation.UNRELATED
        return SemRelation.SPECIFIC if steps[ca] is None else SemRelation.GENERIC

    def _norm(self, edges: int) -> float:
        return min(edges / max(self.longest_path, 1), 1.0)

    def path_length_norm(self, a: str, b: str) -> float:
        """Edge count of the shortest is_a chain between two related
        concepts, normalized by the lattice's longest root-to-leaf chain.

        Zero for equal concepts; raises for unrelated ones, callers are
        expected to check `relation` first.
        """
        ca, cb = self.require(a), self.require(b)
        if ca == cb:
            return 0.0
        steps = self.membership_steps(cb)
        if ca not in steps:
            raise UnrelatedConceptsError(
                f"concepts {ca!r} and {cb!r} share no is_a chain")
        norm = steps[ca]  # None when a lies below b: read a's row instead
        return self.membership_steps(ca)[cb] if norm is None else norm

    def membership_steps(self, cid: str) -> dict[str, float | None]:
        """How evidence on each related anchor reaches canonical concept
        `cid`: None when `cid` is the anchor or lies above it (the value
        passes unchanged), `path_length_norm(anchor, cid)` when `cid` lies
        below it (the value is reinforced by it, clamped at 1). Unrelated
        anchors are absent. Built on the first call per concept from one
        walk up and one walk down."""
        steps = self._steps.get(cid)
        if steps is None:
            if cid not in self._concepts:
                raise UnknownConceptError(f"{cid!r} is not a canonical concept id")
            steps = {anchor: self._norm(edges)
                     for anchor, edges in self._walk(cid, self._parents).items()}
            # cid itself and every concept below it: None
            steps.update(dict.fromkeys(self._walk(cid, self._children)))
            self._steps[cid] = steps
        return steps

    def path_sim_epsilon(self, a: str, b: str) -> float:
        """Path similarity 1/(1+d) with d the shortest undirected is_a
        distance; 1 on equal concepts, 0 when no path exists at all. Read
        from `a`'s row, which one walk over parents and children fills on
        the first call per head."""
        row = self._eps_rows.get(a)
        if row is None:
            ca = self.require(a)
            row = self._eps_rows.get(ca)
            if row is None:
                row = self._eps_rows[ca] = {
                    near: 1.0 / (1.0 + d) for near, d in
                    self._walk(ca, self._parents, self._children).items()}
        eps = row.get(b)
        return row.get(self.require(b), 0.0) if eps is None else eps


def insert_concept(lattice: SemanticLattice, concept: Concept,
                   parents: Iterable[str]) -> SemanticLattice:
    """A new lattice with `concept` attached below `parents`; `lattice`
    itself when the id (or one of its synonyms) already resolves to an
    existing concept."""
    if lattice.resolve(concept.id) is not None:
        return lattice
    parent_list = tuple(parents)
    for token in parent_list:
        if lattice.resolve(token) is None:
            raise UnknownConceptError(
                f"unknown parent {token!r} for new concept {concept.id!r}")
    return SemanticLattice([*lattice._concepts.values(), concept],
                           {**lattice._parents, concept.id: parent_list})


def parse_taxonomy(text: str, source: str = "<string>") -> SemanticLattice:
    """Build a lattice from taxonomy text.

    One record per line, lines ending at ``\\n``:
    ``concept<TAB>parent1,parent2<TAB>syn1,syn2``; the parent field is
    empty for roots, the synonym field may be omitted, and a fourth field
    is refused. Blank lines and ``#`` comments are skipped; everything is
    lowercase-normalized.
    """
    concepts: list[Concept] = []
    parents: dict[str, list[str]] = {}
    for lineno, line in data_lines(text):
        fields = line.split("\t")
        if len(fields) > 3:
            raise TaxonomyError(f"{source}:{lineno}: expected at most 3 "
                                f"tab-separated fields, got {len(fields)}")
        fields += [""] * (3 - len(fields))
        cid = fields[0].strip().lower()
        if not cid:
            raise TaxonomyError(f"{source}:{lineno}: missing concept id")
        parent_tokens = [p.strip().lower() for p in fields[1].split(",") if p.strip()]
        synonyms = frozenset(s.strip().lower() for s in fields[2].split(",") if s.strip())
        try:
            concepts.append(Concept(cid, synonyms))
        except TaxonomyError as exc:
            raise TaxonomyError(f"{source}:{lineno}: {exc}") from None
        parents[cid] = parent_tokens
    return SemanticLattice(concepts, parents,
                           sha256(text.encode("utf-8")).hexdigest())


def load_taxonomy(path: str | Path) -> SemanticLattice:
    """Load a lattice from a taxonomy file (UTF-8; a leading byte order
    mark is not part of the text or its fingerprint)."""
    text = read_text(path, "taxonomy", TaxonomyError)
    return parse_taxonomy(text, source=one_line(Path(path)))


def bundled_taxonomy_path() -> Path:
    """Path of the taxonomy file shipped with the package."""
    return Path(__file__).parent / "data" / "taxonomy.base.tsv"
