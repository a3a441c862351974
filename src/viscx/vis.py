"""Visual index structures: fixed facet vocabularies, the per-object
record type, its textual grammar, and facet-vector construction.

A VIS document is plain text holding one record per visual object::

    vis vo1 { sem: rose@0.8; color: red=0.55; texture: uniform=1.0; spa: near(vo2); }

The serializer is canonical (records sorted by object id, facet entries in
vocabulary order, shortest round-tripping floats) so that
``parse_vis(serialize_vis(records)) == records`` and identical inputs give
byte-identical output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import VisParseError

#: color concepts c_1..c_11
COLOR_NAMES = ("cyan", "white", "green", "grey", "yellow", "black",
               "orange", "skin", "red", "blue", "purple")

#: texture concepts t_1..t_11
TEXTURE_NAMES = ("bumpy", "cracked", "disordered", "interlaced", "lined",
                 "marbled", "netlike", "smeared", "spotted", "uniform", "whirly")

#: spatial relations s_1..s_11: topology, direction, metric distance
SPATIAL_NAMES = ("covers", "covered_by", "part_of", "touches", "disconnected",
                 "right", "left", "above", "below", "near", "far")

VOCAB_SIZE = 11


@dataclass(frozen=True)
class Vocabulary:
    """A closed, ordered facet vocabulary plus lookup aliases.

    `synonyms` maps single tokens, `phrases` maps multi-token sequences
    (like "in front of") onto canonical entry names.
    """

    kind: str
    names: tuple[str, ...]
    synonyms: Mapping[str, str] = field(default_factory=dict)
    phrases: Mapping[tuple[str, ...], str] = field(default_factory=dict)

    def index(self, name: str) -> int:
        """0-based position; entry j of a facet vector is names[j]."""
        return self.names.index(name)

    def resolve(self, token: str) -> str | None:
        if token in self.names:
            return token
        return self.synonyms.get(token)


COLOR_VOCAB = Vocabulary("color", COLOR_NAMES, synonyms={"gray": "grey"})
TEXTURE_VOCAB = Vocabulary("texture", TEXTURE_NAMES,
                           synonyms={"smooth": "uniform", "swirly": "whirly"})
SPATIAL_VOCAB = Vocabulary(
    "spatial", SPATIAL_NAMES,
    synonyms={
        "behind": "covered_by",
        "inside": "part_of",
        "within": "part_of",
        "touching": "touches",
        "touch": "touches",
        "cover": "covers",
        "covering": "covers",
        "outside": "disconnected",
        "over": "above",
        "under": "below",
        "beneath": "below",
        "nearby": "near",
        "beside": "near",
    },
    phrases={
        ("in", "front", "of"): "covers",
        ("covered", "by"): "covered_by",
        ("part", "of"): "part_of",
        ("next", "to"): "near",
        ("close", "to"): "near",
        ("far", "from"): "far",
    },
)

#: the facet vocabularies in FacetVectors order
FACET_VOCABS = (COLOR_VOCAB, TEXTURE_VOCAB, SPATIAL_VOCAB)

_TOKEN_OK = re.compile(r"[a-z][a-z0-9_]*")


def _check_weight(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"weight for {name!r} out of [0,1]: {value!r}")


@dataclass(frozen=True)
class VisRecord:
    """One visual object: its semantic concept with recognition
    probability, color/texture weights, and spatial relations to sibling
    objects in the same document."""

    vo_id: str
    vsc: str
    r_vsc: float
    colors: Mapping[str, float] = field(default_factory=dict)
    textures: Mapping[str, float] = field(default_factory=dict)
    spatial: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        if not _TOKEN_OK.fullmatch(self.vo_id):
            raise ValueError(f"invalid vo id {self.vo_id!r}")
        if not _TOKEN_OK.fullmatch(self.vsc):
            raise ValueError(f"invalid semantic concept {self.vsc!r}")
        if not (0.0 <= self.r_vsc <= 1.0):
            raise ValueError(f"recognition probability out of [0,1]: {self.r_vsc!r}")
        for vocab, weights in ((COLOR_VOCAB, self.colors),
                               (TEXTURE_VOCAB, self.textures)):
            for name, w in weights.items():
                if name not in vocab.names:
                    raise ValueError(f"unknown {vocab.kind} concept {name!r}")
                _check_weight(name, w)
            if vocab is COLOR_VOCAB and sum(weights.values()) > 1.0 + 1e-9:
                raise ValueError("color weights sum beyond 1")
        for rel, target in self.spatial:
            if rel not in SPATIAL_NAMES:
                raise ValueError(f"unknown spatial relation {rel!r}")
            if not _TOKEN_OK.fullmatch(target):
                raise ValueError(f"invalid spatial target {target!r}")


@dataclass(frozen=True)
class FacetVectors:
    """Fixed-width [0,1] vectors over the three facet vocabularies;
    entry j corresponds to vocabulary entry j (0-based)."""

    colors: tuple[float, ...]
    textures: tuple[float, ...]
    spatials: tuple[float, ...]


def facet_vectors(record: VisRecord) -> FacetVectors:
    """Vector view of a record: color/texture weights at their vocabulary
    index, 1.0 for each spatial relation kind that appears."""
    return weight_vectors((record.colors.items(), record.textures.items(),
                           [(rel, 1.0) for rel, _target in record.spatial]))


def weight_vectors(facets: Iterable[Iterable[tuple[str, float]]]) -> FacetVectors:
    """Vectors from (name, weight) pairs per facet, in FACET_VOCABS order:
    each weight at its name's index, the largest when a name repeats."""
    vectors = []
    for vocab, pairs in zip(FACET_VOCABS, facets):
        v = [0.0] * VOCAB_SIZE
        for name, w in pairs:
            j = vocab.names.index(name)
            if w > v[j]:
                v[j] = w
        vectors.append(tuple(v))
    return FacetVectors(*vectors)


# -- grammar ------------------------------------------------------------
#
# document ::= record*
# record   ::= "vis" ID "{" sem color texture spa "}"
# sem      ::= "sem" ":" ID "@" NUM ";"
# color    ::= "color" ":" [ID "=" NUM ("," ID "=" NUM)*] ";"
# texture  ::= "texture" ":" [ID "=" NUM ("," ID "=" NUM)*] ";"
# spa      ::= "spa" ":" [ID "(" ID ")" ("," ID "(" ID ")")*] ";"

_LEX_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[a-z][a-z0-9_]*)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<sym>[{}();:,@=])")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, chunk: str) -> None:
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.col = len(chunk) - chunk.rfind("\n")
        else:
            self.col += len(chunk)
        self.pos += len(chunk)

    def next(self) -> tuple[str, str, int, int]:
        while self.pos < len(self.text):
            m = _LEX_RE.match(self.text, self.pos)
            if m is None:
                raise VisParseError(
                    f"unexpected character {self.text[self.pos]!r}", self.line, self.col)
            kind = m.lastgroup or ""
            value = m.group()
            line, col = self.line, self.col
            self._advance(value)
            if kind == "ws":
                continue
            return kind, value, line, col
        return "eof", "", self.line, self.col


class _Parser:
    def __init__(self, text: str):
        self._lexer = _Lexer(text)
        self._tok = self._lexer.next()

    def _fail(self, message: str) -> "VisParseError":
        _kind, _value, line, col = self._tok
        return VisParseError(message, line, col)

    def _accept(self, kind: str, value: str | None = None):
        tkind, tvalue, _l, _c = self._tok
        if tkind != kind or (value is not None and tvalue != value):
            return None
        self._tok = self._lexer.next()
        return tvalue

    def _expect(self, kind: str, value: str | None = None) -> str:
        got = self._accept(kind, value)
        if got is None:
            want = value if value is not None else kind
            raise self._fail(f"expected {want!r}, found {self._tok[1]!r}")
        return got

    def _number(self, what: str) -> float:
        tkind, tvalue, line, col = self._tok
        if tkind != "num":
            raise self._fail(f"expected a number for {what}")
        value = float(tvalue)
        if not (0.0 <= value <= 1.0):
            raise VisParseError(f"{what} out of [0,1]: {tvalue}", line, col)
        self._tok = self._lexer.next()
        return value

    def _weight_pairs(self, vocab: Vocabulary,
                      bare_default: float | None = None) -> dict[str, float]:
        pairs: dict[str, float] = {}
        while self._tok[0] == "ident":
            _kind, name, line, col = self._tok
            if name not in vocab.names:
                raise VisParseError(f"unknown {vocab.kind} concept {name!r}", line, col)
            if name in pairs:
                raise VisParseError(f"duplicate {vocab.kind} entry {name!r}", line, col)
            self._tok = self._lexer.next()
            if self._accept("sym", "=") is not None:
                pairs[name] = self._number(f"{vocab.kind} weight")
            elif bare_default is not None:
                pairs[name] = bare_default
            else:
                raise self._fail(f"expected '=' after {vocab.kind} concept {name!r}")
            if self._accept("sym", ",") is None:
                break
        return pairs

    def _spatial_terms(self) -> set[tuple[str, str]]:
        rels: set[tuple[str, str]] = set()
        while self._tok[0] == "ident":
            _kind, name, line, col = self._tok
            if name not in SPATIAL_NAMES:
                raise VisParseError(f"unknown spatial relation {name!r}", line, col)
            self._tok = self._lexer.next()
            self._expect("sym", "(")
            target = self._expect("ident")
            self._expect("sym", ")")
            rels.add((name, target))
            if self._accept("sym", ",") is None:
                break
        return rels

    def _record(self) -> VisRecord:
        vo_line, vo_col = self._tok[2], self._tok[3]
        vo_id = self._expect("ident")
        self._expect("sym", "{")

        self._expect("ident", "sem")
        self._expect("sym", ":")
        vsc = self._expect("ident")
        self._expect("sym", "@")
        r_vsc = self._number("recognition probability")
        self._expect("sym", ";")

        self._expect("ident", "color")
        self._expect("sym", ":")
        colors = self._weight_pairs(COLOR_VOCAB)
        if sum(colors.values()) > 1.0 + 1e-9:
            raise VisParseError(
                f"color weights of {vo_id!r} sum beyond 1", vo_line, vo_col)
        self._expect("sym", ";")

        self._expect("ident", "texture")
        self._expect("sym", ":")
        # a bare texture concept means the detector emitted it unweighted
        textures = self._weight_pairs(TEXTURE_VOCAB, bare_default=1.0)
        self._expect("sym", ";")

        self._expect("ident", "spa")
        self._expect("sym", ":")
        spatial = self._spatial_terms()
        self._expect("sym", ";")

        self._expect("sym", "}")
        return VisRecord(vo_id, vsc, r_vsc, colors, textures, frozenset(spatial))

    def document(self) -> list[VisRecord]:
        records: list[VisRecord] = []
        seen: dict[str, None] = {}
        while self._tok[0] != "eof":
            line, col = self._tok[2], self._tok[3]
            self._expect("ident", "vis")
            record = self._record()
            if record.vo_id in seen:
                raise VisParseError(f"duplicate vo id {record.vo_id!r}", line, col)
            seen[record.vo_id] = None
            records.append(record)
        ids = set(seen)
        for record in records:
            for rel, target in record.spatial:
                if target not in ids:
                    raise VisParseError(
                        f"spatial relation {rel!r} of {record.vo_id!r} targets "
                        f"unknown vo {target!r}", 1, 1)
        return records


def parse_vis(text: str) -> list[VisRecord]:
    """Parse a VIS document; raises VisParseError with line/column on
    syntax errors, out-of-range values, unknown vocabulary names, duplicate
    object ids and dangling spatial targets."""
    return _Parser(text).document()


def _fmt(value: float) -> str:
    return repr(float(value))


def serialize_vis(records: Iterable[VisRecord]) -> str:
    """Canonical text for a set of records; inverse of parse_vis."""
    ordered = sorted(records, key=lambda r: r.vo_id)
    ids = {r.vo_id for r in ordered}
    if len(ids) != len(ordered):
        raise ValueError("duplicate vo ids in document")
    lines = []
    for r in ordered:
        for _rel, target in r.spatial:
            if target not in ids:
                raise ValueError(
                    f"spatial target {target!r} of {r.vo_id!r} not in document")
        colors, textures = (
            ", ".join(f"{n}={_fmt(weights[n])}" for n in vocab.names if n in weights)
            for vocab, weights in ((COLOR_VOCAB, r.colors), (TEXTURE_VOCAB, r.textures)))
        spatial = ", ".join(
            f"{rel}({target})"
            for rel, target in sorted(
                r.spatial, key=lambda rt: (SPATIAL_VOCAB.index(rt[0]), rt[1])))
        lines.append(
            f"vis {r.vo_id} {{ sem: {r.vsc}@{_fmt(r.r_vsc)};"
            f" color: {colors};"
            f" texture: {textures};"
            f" spa: {spatial}; }}")
    return "\n".join(lines) + ("\n" if lines else "")
