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
from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from html import unescape
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


#: the tag letter of each attribute category -> its SyntacticTerm facet,
#: in FACET_VOCABS order
_ATTR_SLOTS = {cat.value: slot for slot, cat in enumerate(
    (Category.COLOR, Category.TEXTURE, Category.SPATIAL))}


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


#: an attribute (name, raw value or None) in the plain form most pages
#: use, and a start tag (name, its last attribute, "/" when self-closed)
#: or an end tag (name) in that form: HTMLParser's tolerant grammar reads
#: each as the same tag, with the same end and attributes. Neither
#: crosses a "<"; every other tag takes the tolerant path.
_PLAIN_ATTR = re.compile(r"""([^\s"'<=/>]+)(?:[\t\n\r\f ]*=[\t\n\r\f ]*
    ("[^"<]*"|'[^'<]*'|[^\s"'<>=][^\s"'<>]*))?""", re.VERBOSE)
_PLAIN_MARKUP = re.compile(rf"""<(?:
    ([a-zA-Z][-.:\w]*)(?:[\t\n\r\f ]+{_PLAIN_ATTR.pattern})*[\t\n\r\f ]*(/?)>
  | /\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>)""", re.VERBOSE)
#: HTMLParser's tolerant grammar, one piece at a time: the tag name up to
#: the spaces after it; an attribute name, the "=" run before a value,
#: a bare value and what follows an attribute
_TAG_HEAD = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_TAG_NAME_END = re.compile(r"[\t\n\r\f />\x00]")
_ATTR_NAME = re.compile(r"(?<=['\"\s/])[^\s/>][^\s/=>]*")
_EQUALS = re.compile(r"\s*(=+)")
_BARE_VALUE = re.compile(r"[^>\s]*")
_ATTR_TAIL = re.compile(r"(?:\s|/(?!>))*")
_SPACES = re.compile(r"\s*")
_SPACES_SLASHES = re.compile(r"[\s/]*")
_GT = re.compile(">")
_COMMENT_END = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
#: the end of a marked section (``<![CDATA[...]]>``, ``<![if ...]>``),
#: by its keyword
_SECTION_ENDS = dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"),
                              re.compile(r"]\s*]\s*>"))
_SECTION_ENDS.update(dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")))
#: elements whose text is not surrounding text; script and style hold
#: raw text up to their end tag
_SKIPPED = frozenset({"script", "style", "noscript"})
#: the start tags the scan acts on
_NOTED = _SKIPPED | {"img"}
_RAW_TEXT_END = {tag: re.compile(rf"</\s*{tag}\s*>", re.IGNORECASE)
                 for tag in ("script", "style")}
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


class _PageScan:
    """The img start tags (offset, attributes) and the text runs (offset,
    text) of a page, each at the offset where it starts in the page, read
    as html.parser.HTMLParser(convert_charrefs=True) reads the page when
    fed all of it and closed.

    A start tag follows HTMLParser's tolerant grammar: names are
    lowercased, a value is quoted, bare or absent (read as ""), values
    are unescaped, and a repeated attribute keeps its last value. Text is
    unescaped; a whitespace-only run, and text inside script, style or
    noscript, is dropped, but an img inside noscript counts. End tags,
    comments, ``<!...>``, ``<?...>`` and marked sections are skipped as
    HTMLParser skips them, and an unterminated one is read as text up to
    the next ">" or "<". HTMLParser raises on a marked section with an
    unknown keyword (``<![foo[...]]>``); here it is a ``<!...>``.

    HTMLParser searches to the end of the page again at each "<" of an
    unterminated construct. Here each search for the end of a construct
    is kept, and a start tag's end is kept for every attribute its scan
    passed, so a page is read in time linear in its length.
    """

    def __init__(self, page: str):
        self.page = page
        self.images: list[tuple[int, dict[str, str]]] = []
        self.chunks: list[tuple[int, str]] = []
        self._skip = 0  # open script, style and noscript elements
        self._found: dict[re.Pattern[str], tuple[int, int, re.Match | None]] = {}
        self._last_quote = {"'": len(page), '"': len(page)}
        self._name_ends: dict[int, int] = {}  # tag name end -> scan end
        self._attr_ends: dict[int, int] = {}  # attribute start -> scan end
        self._scan()

    def _scan(self) -> None:
        page = self.page
        n = len(page)
        i = 0
        while i < n:
            j = page.find("<", i)
            if j < 0:
                j = n
            if i < j:
                self._text(i, unescape(page[i:j]))
            if j == n:
                return
            plain = _PLAIN_MARKUP.match(page, j)
            if plain is None:
                i = self._markup(j)
            elif plain[5] is not None:
                if self._skip:
                    self._end(plain[5])
                i = plain.end()
            elif plain[1].lower() in _NOTED:
                i = self._start_tag(j, plain)
            else:
                i = plain.end()

    def _text(self, at: int, text: str) -> None:
        if not self._skip and text.strip():
            self.chunks.append((at, text))

    def _next(self, pattern: re.Pattern[str], pos: int) -> re.Match | None:
        """`pattern.search(page, pos)`. The last search from `lo` is kept
        with the start `hi` of its match (the page's end if none): no match
        starts in [lo, hi), so it answers every `pos` in [lo, hi]."""
        lo, hi, match = self._found.get(pattern, (1, 0, None))
        if not lo <= pos <= hi:
            match = pattern.search(self.page, pos)
            self._found[pattern] = (
                pos, len(self.page) if match is None else match.start(), match)
        return match

    def _start_tag(self, i: int, plain: re.Match | None) -> int:
        """The start tag at i, `plain` its `_PLAIN_MARKUP` match if any."""
        page = self.page
        if plain is not None:
            end, tag, closed = plain.end(), plain[1].lower(), plain[4] == "/"
            attrs = [match.groups() for match in _PLAIN_ATTR.finditer(
                page, plain.end(1), plain.start(4))] if tag == "img" else ()
        else:
            end = self._tolerant_end(i)
            if end < 0:
                return -1
            head = _TAG_HEAD.match(page, i + 1)
            tag, k = head[1].lower(), head.end()
            attrs = []
            while k < end and (attr := self._attr(k)) is not None:
                k = attr[0]
                attrs.append(attr[1:])
            rest = page[k:end].strip()
            if rest != ">" and rest != "/>":
                self._text(i, page[i:end])
                return end
            closed = rest == "/>"
        if tag == "img":
            values: dict[str, str] = {}
            for name, value in attrs:
                if value is None:
                    value = ""
                elif value[:1] in ("'", '"') and value[:1] == value[-1:]:
                    value = value[1:-1]
                values[name.lower()] = unescape(value)
            self.images.append((i, values))
        if tag in _SKIPPED and not closed:
            raw_end = _RAW_TEXT_END.get(tag)
            if raw_end is None:
                self._skip += 1
            else:  # its own end tag closes it at once
                match = raw_end.search(page, end)
                return len(page) if match is None else match.end()
        return end

    def _tolerant_end(self, i: int) -> int:
        """Where HTMLParser's start tag at i ends, -1 when unterminated."""
        page = self.page
        name_end = self._next(_TAG_NAME_END, i + 2)
        name_end = len(page) if name_end is None else name_end.start()
        j = self._name_ends.get(name_end)
        if j is None:
            p = _SPACES_SLASHES.match(page, name_end).end()
            passed = []
            while (j := self._attr_ends.get(p)) is None:
                passed.append(p)
                attr = self._attr(p)
                if attr is None:
                    j = _SPACES.match(page, p).end()
                    break
                p = attr[0]
            for start in passed:
                self._attr_ends[start] = j
            self._name_ends[name_end] = j
        after = page[j:j + 1]
        if after == ">":
            return j + 1
        if page.startswith("/>", j):
            return j + 2
        if not after or after in "=/" or after in _LETTERS:
            return -1
        return j

    def _attr(self, p: int) -> tuple[int, str, str | None] | None:
        """The attribute at p, as (end, name, raw value or None), or None
        when none starts there."""
        page = self.page
        name = _ATTR_NAME.match(page, p)
        if name is None:
            return None
        end = name.end()
        value = None
        equals = _EQUALS.match(page, end)
        if equals is not None:
            start = _SPACES.match(page, equals.end()).end()
            quote = page[start:start + 1]
            if quote == "'" or quote == '"':
                close = self._closing_quote(start)
                if close >= 0:
                    end = close + 1
                elif start > equals.end():  # "= 'x": an empty value
                    end = start
                elif equals.end(1) - equals.start(1) > 1:  # "=='x": "='x"
                    start = equals.end() - 1
                    end = _BARE_VALUE.match(page, start).end()
                else:  # "='x": no value
                    start = -1
            else:
                end = _BARE_VALUE.match(page, start).end()
            if start >= 0:
                value = page[start:end]
        return _ATTR_TAIL.match(page, end).end(), name[0], value

    def _closing_quote(self, start: int) -> int:
        """The quote closing the one at `start`, -1 when none does."""
        quote = self.page[start]
        if start >= self._last_quote[quote]:
            return -1
        close = self.page.find(quote, start + 1)
        if close < 0:
            self._last_quote[quote] = start
        return close

    def _end_tag(self, i: int) -> int:
        """An end tag at i that is not in the plain form."""
        page = self.page
        gt = self._next(_GT, i + 1)
        if gt is None:
            return -1
        head = _TAG_HEAD.match(page, i + 2)
        if head is not None:
            self._end(head[1])
        return gt.end()

    def _end(self, tag: str) -> None:
        if self._skip and tag.lower() in _SKIPPED:
            self._skip -= 1

    def _markup(self, i: int) -> int:
        """The end of the markup at i that is not a plain tag; an
        unterminated one is text up to the next ">" or "<"."""
        page = self.page
        c = page[i + 1:i + 2]
        if c in _LETTERS:
            k = self._start_tag(i, None)
        elif c == "/":
            k = self._end_tag(i)
        elif c == "!" or c == "?":
            k = self._declaration(i)
        else:
            self._text(i, "<")
            return i + 1
        if k < 0:
            gt = self._next(_GT, i + 1)
            if gt is not None:
                k = gt.end()
            else:
                k = page.find("<", i + 1)
                if k < 0:
                    k = i + 1
            self._text(i, unescape(page[i:k]))
        return k

    def _declaration(self, i: int) -> int:
        """A comment, ``<!...>``, ``<?...>`` or a marked section."""
        page = self.page
        close, start = _GT, i + 2
        if page.startswith("<!--", i):
            close, start = _COMMENT_END, i + 4
        elif page.startswith("<![", i):
            name = _DECL_NAME.match(page, i + 3)
            if name is not None:
                if name.end() == len(page):
                    return -1
                keyword = name[0].strip().lower()
                if keyword in _SECTION_ENDS:
                    close, start = _SECTION_ENDS[keyword], i + 3
        end = self._next(close, start)
        return -1 if end is None else end.end()


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

    The page is scanned once, in time linear in its length, as
    html.parser.HTMLParser reads it (see `_PageScan`): img start tags
    with their attributes, and unescaped text outside script, style and
    noscript; end tags, comments, ``<!...>``, ``<?...>`` and marked
    sections are skipped. Offsets, and so the `window`, count characters
    of `page`.
    """
    impacts = DEFAULT_IMPACTS if impacts is None else impacts
    scanner = _PageScan(page)

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
    match at least once: ``SEM{0}`` matches only empty windows. A tag
    string that lacks one of its `required` categories is not searched."""

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

    @cached_property
    def required(self) -> frozenset[str]:
        """The tag letters of the elements that match at least once: every
        match holds each of them."""
        return frozenset(cat.value for cat, lo, _hi in self.elements if lo >= 1)

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
    heads = [i for i, tt in enumerate(window) if tt.category is Category.SEM]
    # per head (one headless term when there is none): colors, textures, spatials
    facets = [([], [], []) for _ in heads or (None,)]
    last = len(facets) - 1
    for i, tt in enumerate(window):
        slot = _ATTR_SLOTS.get(tt.category._value_)
        if slot is None:
            continue
        # the heads before and after i, the nearer one alone unless tied
        after = bisect(heads, i)
        lo, hi = max(after - 1, 0), min(after, last)
        if lo < hi:
            nearer = (i - heads[lo]) - (heads[hi] - i)
            if nearer < 0:
                hi = lo
            elif nearer > 0:
                lo = hi
        for k in range(lo, hi + 1):
            facets[k][slot].append((tt.concept, area_impact))
    if not heads:
        return [SyntacticTerm(None, *map(_facet, facets[0]))] if any(
            facets[0]) else []
    terms = []
    for s, attached in zip(heads, facets):
        cid = window[s].concept
        imp = head_imps.get(cid, area_impact) if head_imps else area_impact
        terms.append(SyntacticTerm((cid, imp), *map(_facet, attached)))
    return terms


_NO_PAIRS: frozenset[tuple[str, float]] = frozenset()


def _facet(pairs: list[tuple[str, float]]) -> frozenset[tuple[str, float]]:
    """The pairs as a term's facet; every empty facet is one shared object,
    as most of a term's facets are."""
    return frozenset(pairs) if pairs else _NO_PAIRS


def apply_patterns(tagged: Sequence[TaggedToken],
                   patterns: Sequence[SyntacticPattern] = DEFAULT_PATTERNS, *,
                   area_impact: float = 1.0,
                   head_imps: Mapping[str, float] | None = None
                   ) -> tuple[SyntacticTerm, ...]:
    """Match every pattern (leftmost, non-overlapping per pattern) against
    the tag sequence and emit the resulting set of syntactic terms. A
    pattern one of whose `SyntacticPattern.required` categories is absent
    from the sequence cannot match, and is not run."""
    # the letter of each tag, read past Enum's `value` descriptor
    tagstring = "".join([tt.category._value_ for tt in tagged])
    present = set(tagstring)
    out: list[SyntacticTerm] = []
    seen: set[SyntacticTerm] = set()
    for pattern in patterns:
        if not pattern.required <= present:
            continue
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
