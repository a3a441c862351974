"""Hypernym/hyponym concept lattice with path-based similarity queries.

The lattice is a directed acyclic graph of lowercase concept ids connected
by is_a edges (child -> parent). It is loaded from a tab-separated taxonomy
file and can be extended one concept at a time; extension returns a new
lattice, the original is never mutated. All queries resolve synonyms to
their canonical id first. A lattice parsed from text carries the sha256 of
that text as its fingerprint.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import TaxonomyError, UnknownConceptError, UnrelatedConceptsError

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
    """A lattice node: canonical id plus alias tokens that resolve to it."""

    id: str
    synonyms: frozenset[str] = frozenset()

    def __post_init__(self):
        if not _ID_RE.fullmatch(self.id):
            raise TaxonomyError(f"invalid concept id {self.id!r}")


class SemanticLattice:
    """Immutable is_a DAG over concepts.

    `longest_path` is the edge count of the longest root-to-leaf chain and
    is recomputed whenever the lattice is extended; it normalizes the
    chain-length queries below. Path queries are memoised per canonical
    pair on the instance, and token tags per token, which is safe because
    the lattice never changes; an extended copy starts with empty memos.
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

        self.roots: frozenset[str] = frozenset(
            cid for cid in self._order if not self._parents[cid])
        self._finalize()
        self._path_norms: dict[tuple[str, str], float] = {}
        self._epsilons: dict[tuple[str, str], float] = {}
        #: token tags, filled by context.tag_tokens
        self._tags: dict[str, TaggedToken] = {}

    def _finalize(self) -> None:
        # Kahn topological pass: parents before children. Whatever survives
        # with unprocessed parents sits on a cycle.
        pending = {cid: len(self._parents[cid]) for cid in self._order}
        queue = deque(cid for cid in self._order if pending[cid] == 0)
        depth: dict[str, int] = {cid: 0 for cid in queue}
        ancestors: dict[str, frozenset[str]] = {}
        topo: list[str] = []
        while queue:
            cid = queue.popleft()
            topo.append(cid)
            parent_ids = self._parents[cid]
            anc: set[str] = set()
            d = 0
            for pid in parent_ids:
                anc.add(pid)
                anc |= ancestors[pid]
                d = max(d, depth[pid] + 1)
            ancestors[cid] = frozenset(anc)
            depth[cid] = d
            for kid in self._children[cid]:
                pending[kid] -= 1
                if pending[kid] == 0:
                    queue.append(kid)
        if len(topo) < len(self._order):
            stuck = {cid for cid in self._order if cid not in ancestors}
            edges = sorted(
                (cid, pid)
                for cid in stuck
                for pid in self._parents[cid]
                if pid in stuck)
            raise TaxonomyError(f"cycle detected among is_a edges: {edges}")
        self._ancestors = ancestors
        self.longest_path: int = max(depth.values())

    # -- lookup ---------------------------------------------------------

    def concept_ids(self) -> tuple[str, ...]:
        """All canonical ids in declaration order."""
        return self._order

    def concepts(self) -> tuple[Concept, ...]:
        return tuple(self._concepts[cid] for cid in self._order)

    def parents(self, cid: str) -> tuple[str, ...]:
        return self._parents[self.require(cid)]

    def edges(self) -> tuple[tuple[str, str], ...]:
        """(child, parent) pairs in declaration order."""
        return tuple(
            (cid, pid) for cid in self._order for pid in self._parents[cid])

    def resolve(self, token: str) -> str | None:
        """Canonical id for a token, via synonyms; None when unknown."""
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
        if ca in self._ancestors[cb]:
            return SemRelation.GENERIC
        if cb in self._ancestors[ca]:
            return SemRelation.SPECIFIC
        return SemRelation.UNRELATED

    def _chain_edges(self, descendant: str, ancestor: str) -> int:
        # shortest upward chain; multiple inheritance picks the short one
        seen = {descendant}
        queue = deque([(descendant, 0)])
        while queue:
            cid, d = queue.popleft()
            if cid == ancestor:
                return d
            for pid in self._parents[cid]:
                if pid not in seen:
                    seen.add(pid)
                    queue.append((pid, d + 1))
        raise UnrelatedConceptsError(
            f"no is_a chain from {descendant!r} up to {ancestor!r}")

    def path_length_norm(self, a: str, b: str) -> float:
        """Edge count of the is_a chain between two related concepts,
        normalized by the lattice's longest root-to-leaf chain.

        Zero for equal concepts; raises for unrelated ones, callers are
        expected to check `relation` first.
        """
        ca, cb = self.require(a), self.require(b)
        norm = self._path_norms.get((ca, cb))
        if norm is not None:
            return norm
        rel = self.relation(ca, cb)
        if rel is SemRelation.EQUAL:
            edges = 0
        elif rel is SemRelation.GENERIC:
            edges = self._chain_edges(cb, ca)
        elif rel is SemRelation.SPECIFIC:
            edges = self._chain_edges(ca, cb)
        else:
            raise UnrelatedConceptsError(
                f"concepts {ca!r} and {cb!r} share no is_a chain")
        norm = self._path_norms[ca, cb] = min(
            edges / max(self.longest_path, 1), 1.0)
        return norm

    def path_sim_epsilon(self, a: str, b: str) -> float:
        """Path similarity 1/(1+d) with d the shortest undirected is_a
        distance; 1 on equal concepts, 0 when no path exists at all."""
        # memo keys are canonical ids, which resolve to themselves, so a
        # hit on the raw pair needs no resolution
        eps = self._epsilons.get((a, b))
        if eps is None:
            ca, cb = self.require(a), self.require(b)
            eps = self._epsilons.get((ca, cb))
            if eps is None:
                eps = self._epsilons[ca, cb] = self._epsilon(ca, cb)
        return eps

    def _epsilon(self, ca: str, cb: str) -> float:
        if ca == cb:
            return 1.0
        seen = {ca}
        queue = deque([(ca, 0)])
        while queue:
            cid, d = queue.popleft()
            for nxt in self._parents[cid] + self._children[cid]:
                if nxt == cb:
                    return 1.0 / (1.0 + d + 1)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, d + 1))
        return 0.0

    # -- extension --------------------------------------------------------

    def with_concept(self, concept: Concept, parents: Iterable[str]) -> "SemanticLattice":
        """Extended copy with `concept` attached below `parents`.

        A no-op returning self when the id (or one of its synonyms) already
        resolves to an existing concept.
        """
        if self.resolve(concept.id) is not None:
            return self
        parent_list = tuple(parents)
        for token in parent_list:
            if self.resolve(token) is None:
                raise UnknownConceptError(
                    f"unknown parent {token!r} for new concept {concept.id!r}")
        concepts = list(self.concepts()) + [concept]
        parent_map = {cid: self._parents[cid] for cid in self._order}
        parent_map[concept.id] = parent_list
        return SemanticLattice(concepts, parent_map)


def insert_concept(lattice: SemanticLattice, concept: Concept,
                   parents: Iterable[str]) -> SemanticLattice:
    """Attach a contextual concept below existing parents; see
    SemanticLattice.with_concept for the no-op and error rules."""
    return lattice.with_concept(concept, parents)


def parse_taxonomy(text: str, source: str = "<string>") -> SemanticLattice:
    """Build a lattice from taxonomy text.

    One record per line: ``concept<TAB>parent1,parent2<TAB>syn1,syn2``;
    the parent field is empty for roots, the synonym field may be omitted.
    Blank lines and ``#`` comments are skipped; everything is
    lowercase-normalized.
    """
    concepts: list[Concept] = []
    parents: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.rstrip("\n").split("\t")
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
    """Load a lattice from a taxonomy file (UTF-8)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TaxonomyError(f"cannot read taxonomy {p}: {exc}") from None
    return parse_taxonomy(text, source=str(p))


def bundled_taxonomy_path() -> Path:
    """Path of the taxonomy file shipped with the package."""
    return Path(__file__).parent / "data" / "taxonomy.base.tsv"
