"""Webpage context mining: extraction areas, impact assignment, token
tagging, syntactic pattern matching and the resulting syntactic terms.

The extractor pulls three kinds of areas around an image element (alt
attribute, src filename tokens, nearby text), each carrying a configured
base impact. Tokens are tagged against the facet vocabularies and the
concept lattice, then pattern matching over the tag sequence produces
syntactic terms: a semantic head concept plus attribute concepts, every
one weighted by the impact of where it was found.
"""

from __future__ import annotations

import logging
import posixpath
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from html.parser import HTMLParser
from typing import Iterable, Mapping, Sequence

from .errors import ViscxError
from .taxonomy import SemanticLattice
from .vis import (COLOR_VOCAB, FACET_VOCABS, SPATIAL_VOCAB, TEXTURE_VOCAB,
                  FacetVectors, weight_vectors)

log = logging.getLogger(__name__)


class AreaKind(Enum):
    ALT_ATTRIBUTE = "alt"
    SRC_TOKENS = "src"
    SURROUNDING_TEXT = "surrounding"


#: base impact per extraction area, by decreasing reliability
DEFAULT_IMPACTS: Mapping[AreaKind, float] = {
    AreaKind.ALT_ATTRIBUTE: 0.9,
    AreaKind.SRC_TOKENS: 0.7,
    AreaKind.SURROUNDING_TEXT: 0.5,
}

#: character window around the image element for surrounding text
DEFAULT_WINDOW = 600


@dataclass(frozen=True)
class ExtractionArea:
    """A region of the page with the impact its concepts inherit."""

    kind: AreaKind
    tokens: tuple[str, ...]
    base_impact: float

    def __post_init__(self):
        if not (0.0 <= self.base_impact <= 1.0):
            raise ViscxError(f"base impact out of [0,1]: {self.base_impact!r}")


@dataclass(frozen=True)
class ContextualConcept:
    """A lattice concept found in the page, with its max impact over all
    occurrences and the kind of area where that maximum was reached."""

    cx: str
    imp: float
    area_kind: AreaKind

    def __post_init__(self):
        if not (0.0 <= self.imp <= 1.0):
            raise ViscxError(f"impact out of [0,1]: {self.imp!r}")


class Category(Enum):
    """Tag categories; values double as the pattern regex alphabet."""

    SEM = "S"
    COLOR = "C"
    TEXTURE = "T"
    SPATIAL = "P"
    OTHER = "O"


#: the attribute categories, in FACET_VOCABS (and SyntacticTerm field) order
_ATTR_CATEGORIES = (Category.COLOR, Category.TEXTURE, Category.SPATIAL)


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    category: Category
    concept: str | None = None


_WORD_RE = re.compile(r"[a-z]+")


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase alphabetic tokens, punctuation and digits dropped."""
    return tuple(_WORD_RE.findall(text.lower()))


def singularize(token: str) -> str:
    """Suffix-stripping plural folding (-ies, -es, -s)."""
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith(("ss", "us")):
        return token[:-1]
    return token


# -- extraction -----------------------------------------------------------


class _PageScanner(HTMLParser):
    """Collects image tags and text chunks with raw-source offsets."""

    _SKIP = {"script", "style", "noscript"}

    def __init__(self, line_starts: Sequence[int]):
        super().__init__(convert_charrefs=True)
        self._line_starts = line_starts
        self._skip_depth = 0
        self.images: list[tuple[int, dict[str, str]]] = []
        self.chunks: list[tuple[int, str]] = []

    def _offset(self) -> int:
        line, col = self.getpos()
        return self._line_starts[line - 1] + col

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
            return
        if tag == "img":
            self.images.append((self._offset(), {k: (v or "") for k, v in attrs}))

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth:
            self._skip_depth -= 1

    def handle_data(self, data):
        if self._skip_depth == 0 and data.strip():
            self.chunks.append((self._offset(), data))


def _src_tokens(src: str) -> tuple[str, ...]:
    stem = posixpath.splitext(posixpath.basename(src))[0]
    return tokenize(stem.replace("_", " ").replace("-", " "))


def _image_matches(attrs: Mapping[str, str], ref: str) -> bool:
    src = attrs.get("src", "")
    base = posixpath.basename(src)
    stem = posixpath.splitext(base)[0]
    return ref in (src, base, stem)


def extract_areas(page: str, image_ref: str | None = None, *,
                  impacts: Mapping[AreaKind, float] | None = None,
                  window: int = DEFAULT_WINDOW) -> list[ExtractionArea]:
    """Locate the image element and return its extraction areas.

    `image_ref` matches the img src attribute (full value, basename or
    stem); None selects the first image. An area is omitted when empty;
    an unlocatable image yields an empty list with a warning.
    """
    impacts = DEFAULT_IMPACTS if impacts is None else impacts
    # HTMLParser.getpos counts lines at "\n" only, unlike str.splitlines
    line_starts = [0]
    for line in page.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)
    scanner = _PageScanner(line_starts)
    scanner.feed(page)
    scanner.close()

    chosen = None
    for offset, attrs in scanner.images:
        if image_ref is None or _image_matches(attrs, image_ref):
            chosen = (offset, attrs)
            break
    if chosen is None:
        log.warning("image %r not found in page; no extraction areas", image_ref)
        return []
    img_offset, attrs = chosen

    nearby = [text for offset, text in scanner.chunks
              if abs(offset - img_offset) <= window]
    return [ExtractionArea(kind, tokens, impacts[kind]) for kind, tokens in (
        (AreaKind.ALT_ATTRIBUTE, tokenize(attrs.get("alt", ""))),
        (AreaKind.SRC_TOKENS, _src_tokens(attrs.get("src", ""))),
        (AreaKind.SURROUNDING_TEXT,
         tokenize(" ".join(chunk.strip() for chunk in nearby)))) if tokens]


# -- tagging --------------------------------------------------------------


#: the attribute vocabularies in the order tagging tries them
_TAG_VOCABS = ((SPATIAL_VOCAB, Category.SPATIAL), (COLOR_VOCAB, Category.COLOR),
               (TEXTURE_VOCAB, Category.TEXTURE))

#: the spatial phrases by first token, longest first
_PHRASES: dict[str, list[tuple[tuple[str, ...], TaggedToken]]] = {}
for _phrase, _name in sorted(SPATIAL_VOCAB.phrases.items(),
                             key=lambda item: -len(item[0])):
    _PHRASES.setdefault(_phrase[0], []).append(
        (_phrase, TaggedToken(" ".join(_phrase), Category.SPATIAL, _name)))


def _tag_one(token: str, lattice: SemanticLattice) -> TaggedToken:
    folded = singularize(token)
    for vocab, category in _TAG_VOCABS:
        name = vocab.resolve(token) or vocab.resolve(folded)
        if name is not None:
            return TaggedToken(token, category, name)
    cid = lattice.resolve(token) or lattice.resolve(folded)
    if cid is not None:
        return TaggedToken(token, Category.SEM, cid)
    return TaggedToken(token, Category.OTHER)


def tag_tokens(tokens: Sequence[str],
               lattice: SemanticLattice) -> tuple[TaggedToken, ...]:
    """Label each token SEM / COLOR / TEXTURE / SPATIAL / OTHER.

    Multi-token spatial phrases fold into one tagged token, the longest
    phrase winning. Attribute vocabularies win over the lattice on the
    rare collision; plural folding is tried when the raw token misses.
    A token's tag depends on nothing else, so it is computed once per
    lattice, kept on the immutable lattice, and looked up afterwards.
    """
    memo = lattice._tags
    tokens = tuple(tokens)
    tagged: list[TaggedToken] = []
    i = 0
    n = len(tokens)
    while i < n:
        token = tokens[i]
        for phrase, hit in _PHRASES.get(token, ()):
            if tokens[i:i + len(phrase)] == phrase:
                width = len(phrase)
                break
        else:
            hit = memo.get(token)
            if hit is None:
                hit = memo[token] = _tag_one(token, lattice)
            width = 1
        tagged.append(hit)
        i += width
    return tuple(tagged)


def assign_impacts(areas: Iterable[ExtractionArea],
                   tagged: Iterable[Sequence[TaggedToken]]
                   ) -> tuple[ContextualConcept, ...]:
    """One contextual concept per distinct lattice concept found in any
    area, read from its tagged tokens (`tagged`, one `tag_tokens` result
    per area, in order); its impact is the maximum base impact over all
    occurrences."""
    best: dict[str, tuple[float, AreaKind]] = {}
    for area, tokens in zip(areas, tagged):
        for tt in tokens:
            if tt.category is not Category.SEM or tt.concept is None:
                continue
            current = best.get(tt.concept)
            if current is None or area.base_impact > current[0]:
                best[tt.concept] = (area.base_impact, area.kind)
    return tuple(ContextualConcept(cx, imp, kind)
                 for cx, (imp, kind) in sorted(best.items()))


# -- patterns and terms ---------------------------------------------------


@dataclass(frozen=True)
class SyntacticPattern:
    """A category sequence with repetition bounds, matched over the tag
    string of a token stream. Any element may repeat or vanish (``COLOR{2}
    SEM``, ``SEM OTHER{0,3} COLOR SEM``), but one vocabulary element must
    match at least once: ``SEM{0}`` matches only empty windows."""

    elements: tuple[tuple[Category, int, int], ...]

    def __post_init__(self):
        if not any(cat is not Category.OTHER and hi >= 1
                   for cat, _lo, hi in self.elements):
            raise ViscxError("pattern needs at least one vocabulary category "
                             "that matches at least once")
        for cat, lo, hi in self.elements:
            if lo < 0 or hi < lo:
                raise ViscxError(f"bad repetition bounds {{{lo},{hi}}} for {cat.name}")

    def _parts(self, field: str) -> list[str]:
        """Per element, its category's `field` (``value`` or ``name``) and,
        unless they are ``{1,1}``, its repetition bounds."""
        return [getattr(cat, field) + ("" if (lo, hi) == (1, 1) else
                                       f"{{{lo},{hi}}}")
                for cat, lo, hi in self.elements]

    @cached_property
    def regex(self) -> re.Pattern[str]:
        """The compiled pattern, built once per instance."""
        return re.compile("".join(self._parts("value")))

    def text(self) -> str:
        return " ".join(self._parts("name"))


def parse_pattern(text: str) -> SyntacticPattern:
    """Parse e.g. ``SEM OTHER{0,3} COLOR SEM`` into a pattern."""
    elements: list[tuple[Category, int, int]] = []
    for part in text.split():
        m = re.fullmatch(r"([A-Z]+)(?:\{(\d+)(?:,(\d+))?\})?", part)
        if m is None:
            raise ViscxError(f"bad pattern element {part!r}")
        name, lo, hi = m.groups()
        try:
            cat = Category[name]
        except KeyError:
            raise ViscxError(f"unknown pattern category {name!r}") from None
        if lo is None:
            bounds = (1, 1)
        else:
            bounds = (int(lo), int(hi) if hi is not None else int(lo))
        elements.append((cat, bounds[0], bounds[1]))
    return SyntacticPattern(tuple(elements))


DEFAULT_PATTERNS: tuple[SyntacticPattern, ...] = tuple(parse_pattern(p) for p in (
    "COLOR SEM",
    "TEXTURE SEM",
    "SEM SPATIAL SEM",
    "SEM OTHER{0,3} COLOR SEM",
    "COLOR OTHER{0,1} COLOR SEM",
))


@dataclass(frozen=True)
class SyntacticTerm:
    """A VIS-shaped bundle mined from text: at most one semantic head and
    attribute concepts from the three facet vocabularies, each weighted by
    the impact of its extraction location."""

    head: tuple[str, float] | None = None
    colors: frozenset[tuple[str, float]] = frozenset()
    textures: frozenset[tuple[str, float]] = frozenset()
    spatials: frozenset[tuple[str, float]] = frozenset()

    def __post_init__(self):
        for vocab, pairs in zip(FACET_VOCABS, self.facets()):
            for name, imp in pairs:
                if name not in vocab.names:
                    raise ViscxError(f"unknown {vocab.kind} concept {name!r}")
                if not (0.0 <= imp <= 1.0):
                    raise ViscxError(f"impact out of [0,1]: {imp!r}")
        if self.head is not None and not (0.0 <= self.head[1] <= 1.0):
            raise ViscxError(f"impact out of [0,1]: {self.head[1]!r}")

    def facets(self) -> tuple[frozenset[tuple[str, float]], ...]:
        """(colors, textures, spatials), in FACET_VOCABS order."""
        return (self.colors, self.textures, self.spatials)


def terms_from_window(window: Sequence[TaggedToken], area_impact: float,
                      head_imps: Mapping[str, float] | None) -> list[SyntacticTerm]:
    """Split one pattern match into terms, one per semantic head.

    Attribute concepts attach to the nearest head by token distance; ties
    attach to every tied head. Heads take their document-wide impact when
    one is known, attributes take the impact of the area they sit in.
    """
    sem_pos = [i for i, tt in enumerate(window) if tt.category is Category.SEM]
    attr_pos = [i for i, tt in enumerate(window)
                if tt.category in _ATTR_CATEGORIES]
    if not sem_pos:
        if not attr_pos:
            return []
        buckets: dict[Category, set[tuple[str, float]]] = {}
        for i in attr_pos:
            tt = window[i]
            buckets.setdefault(tt.category, set()).add((tt.concept, area_impact))
        return [_term(None, buckets)]

    attached: dict[int, dict[Category, set[tuple[str, float]]]] = {i: {} for i in sem_pos}
    for i in attr_pos:
        tt = window[i]
        dists = [abs(i - s) for s in sem_pos]
        nearest = min(dists)
        for s, d in zip(sem_pos, dists):
            if d == nearest:
                attached[s].setdefault(tt.category, set()).add((tt.concept, area_impact))
    terms = []
    for s in sem_pos:
        cid = window[s].concept
        imp = head_imps.get(cid, area_impact) if head_imps else area_impact
        terms.append(_term((cid, imp), attached[s]))
    return terms


def _term(head: tuple[str, float] | None,
          buckets: Mapping[Category, set[tuple[str, float]]]) -> SyntacticTerm:
    return SyntacticTerm(head, *(frozenset(buckets.get(category, ()))
                                 for category in _ATTR_CATEGORIES))


def apply_patterns(tagged: Sequence[TaggedToken],
                   patterns: Sequence[SyntacticPattern] = DEFAULT_PATTERNS, *,
                   area_impact: float = 1.0,
                   head_imps: Mapping[str, float] | None = None
                   ) -> tuple[SyntacticTerm, ...]:
    """Match every pattern (leftmost, non-overlapping per pattern) against
    the tag sequence and emit the resulting set of syntactic terms."""
    tagstring = "".join(tt.category.value for tt in tagged)
    out: list[SyntacticTerm] = []
    seen: set[SyntacticTerm] = set()
    for pattern in patterns:
        for m in pattern.regex.finditer(tagstring):
            window = tagged[m.start():m.end()]
            for term in terms_from_window(window, area_impact, head_imps):
                if term not in seen:
                    seen.add(term)
                    out.append(term)
    return tuple(out)


def term_vectors(term: SyntacticTerm) -> FacetVectors:
    """Vector view of a term: each attribute's impact at its vocabulary
    index (max when a concept appears with several impacts)."""
    return weight_vectors(term.facets())
