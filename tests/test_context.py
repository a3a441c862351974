import importlib
import os
import random
import re
import string
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from viscx import (Concept, bundled_taxonomy_path, cli, context,
                   insert_concept, load_taxonomy, retrieval)
from viscx.context import (DEFAULT_IMPACTS, DEFAULT_PATTERNS, AreaKind,
                           Category, ExtractionArea, SyntacticPattern,
                           SyntacticTerm, TaggedToken, _PageScan,
                           apply_patterns, assign_impacts, extract_areas,
                           parse_pattern, singularize, tag_tokens,
                           term_vectors, terms_from_window, tokenize)
from viscx.errors import ViscxError
from viscx.retrieval import parse_query
from viscx.vis import COLOR_NAMES, FACET_VOCABS, SPATIAL_VOCAB, TEXTURE_NAMES

ALT_SRC_PAGE = '<html><body><img src="red_rose.jpg" alt="a rose in the garden"></body></html>'

FIGURE_PAGE = """<html><body>
<figure>
<img src="tower.jpg" alt="">
<figcaption>A white and red tower above the old town.</figcaption>
</figure>
</body></html>"""


def cats(tagged):
    return [t.category for t in tagged]


def test_extract_alt_and_src_tokens():
    areas = extract_areas(ALT_SRC_PAGE, "red_rose")
    by_kind = {a.kind: a for a in areas}
    assert set(by_kind) == {AreaKind.ALT_ATTRIBUTE, AreaKind.SRC_TOKENS}
    assert by_kind[AreaKind.SRC_TOKENS].tokens == ("red", "rose")
    assert by_kind[AreaKind.ALT_ATTRIBUTE].tokens == ("a", "rose", "in", "the", "garden")
    assert by_kind[AreaKind.ALT_ATTRIBUTE].base_impact == DEFAULT_IMPACTS[AreaKind.ALT_ATTRIBUTE]


def test_extract_figure_caption_as_surrounding_text():
    areas = extract_areas(FIGURE_PAGE, "tower")
    by_kind = {a.kind: a for a in areas}
    assert AreaKind.SURROUNDING_TEXT in by_kind
    assert "tower" in by_kind[AreaKind.SURROUNDING_TEXT].tokens
    # empty alt attribute is omitted
    assert AreaKind.ALT_ATTRIBUTE not in by_kind


def test_extract_missing_image_warns_and_returns_empty(caplog):
    with caplog.at_level("WARNING"):
        areas = extract_areas(ALT_SRC_PAGE, "nonexistent")
    assert areas == []
    assert any("not found" in r.message for r in caplog.records)


def test_extract_selects_image_by_locator():
    page = ('<html><body><img src="banner.png" alt="site banner">'
            '<img src="photos/red_rose.jpg" alt="a red rose"></body></html>')
    by_kind = {a.kind: a for a in extract_areas(page, "red_rose")}
    assert by_kind[AreaKind.ALT_ATTRIBUTE].tokens == ("a", "red", "rose")
    # no locator: first image wins
    by_kind = {a.kind: a for a in extract_areas(page)}
    assert by_kind[AreaKind.ALT_ATTRIBUTE].tokens == ("site", "banner")


def test_extract_window_excludes_distant_text():
    page = ('<html><body><p>far away paragraph about cathedrals</p>'
            + "<p>" + "x" * 800 + "</p>"
            + '<img src="a.jpg" alt="sky"><p>near the image</p></body></html>')
    areas = extract_areas(page, "a", window=200)
    text = {a.kind: a for a in areas}[AreaKind.SURROUNDING_TEXT]
    assert "cathedrals" not in text.tokens
    assert "image" in text.tokens


HTML_PIECES = st.sampled_from([
    "<img", "<img src='a.jpg' alt='red rose'>", "<img src=\"b\">", " src=",
    " alt=", "'", '"', ">", "<", "</", "/>", "<p>", "</p>", "<script>",
    "</script>", "<style>", "<!--", "-->", "<![CDATA[", "]]>", "<!DOCTYPE",
    "<?", "&amp;", "&#", "&#x", "&", "\n", "\r", "\x0c", "\u2028"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=8), HTML_PIECES), max_size=25)
       .map("".join),
       st.one_of(st.none(), st.text(max_size=6),
                 st.sampled_from(["a", "a.jpg", "b", ""])))
def test_extract_areas_never_raises(page, image_ref):
    for area in extract_areas(page, image_ref):
        assert area.tokens == tokenize(" ".join(area.tokens))


#: every separator str.splitlines breaks at; an offset is an index into
#: the page whichever of them it holds
LINE_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                   "\x1e", "\x85", "\u2028", "\u2029"]
PARAGRAPH = st.lists(
    st.tuples(st.sampled_from(["near", "distant", "words", "z " * 40]),
              st.sampled_from([" "] + LINE_SEPARATORS)),
    min_size=1, max_size=5).map(lambda parts: "".join(w + s for w, s in parts))


@settings(max_examples=200, deadline=None)
@example(paragraphs=[("", "distant words"), ("\x0c", "z " * 400),
                     ("\n", "near")], image_at=3, window=100)
@given(st.lists(st.tuples(st.sampled_from([""] + LINE_SEPARATORS), PARAGRAPH),
                max_size=6),
       st.integers(0, 6), st.integers(0, 200))
def test_extract_surrounding_text_matches_offset_scan(paragraphs, image_at,
                                                      window):
    """Surrounding text is every paragraph whose raw-source offset lies
    within the window of the image tag, offsets taken while building the
    page."""
    page, chunks, img_offset = "<html><body>", [], None
    for i, (separator, text) in enumerate(paragraphs):
        if i == image_at:
            img_offset = len(page)
            page += "<img src='a.jpg'>"
        page += separator + "<p>"
        chunks.append((len(page), text))
        page += text + "</p>"
    if img_offset is None:
        img_offset = len(page)
        page += "<img src='a.jpg'>"
    page += "</body></html>"
    want = tokenize(" ".join(text for offset, text in chunks
                             if abs(offset - img_offset) <= window))
    areas = {a.kind: a.tokens for a in extract_areas(page, "a", window=window)}
    assert areas.get(AreaKind.SURROUNDING_TEXT, ()) == want


class _OracleScan:
    """`_PageScan`'s interface over HTMLParser."""

    def __init__(self, page):
        self.images, self.chunks = oracles.page_scan_oracle(page)


def scan(page):
    found = _PageScan(page)
    return found.images, found.chunks


#: one value of every form the oracle reads: entities, spaces, quotes
VALUES = st.sampled_from(["a.jpg", "photos/Red_Rose.PNG", "red &amp; white",
                          "&lt;b&gt;", "it&#39;s", "", "a b", "x=y", "&#x41;",
                          "caf&eacute;", "&amp", "tab\there"])
ATTR_NAMES = st.sampled_from(["src", "SRC", "alt", "Alt", "ALT", "data-x",
                              "x:y", "width"])


@st.composite
def attributes(draw):
    name, value = draw(ATTR_NAMES), draw(VALUES)
    space = draw(st.sampled_from([" ", "\n", "\t", "  \r\n", "\x0c"]))
    bare = value if value and not any(c in value for c in " \t'\"=<>") else "v"
    return draw(st.sampled_from([
        f'{space}{name}="{value}"', f"{space}{name}='{value}'",
        f"{space}{name}={bare}", f"{space}{name}=={bare}", f"{space}{name}",
        f'{space}{name} = "{value}"',
        f'/{name}="{value}"', f'"{name}"="{value}"']))


@st.composite
def start_tags(draw):
    tag = draw(st.sampled_from(["img", "IMG", "Img", "p", "P", "div", "a",
                                "noscript", "NoScript", "span"]))
    attrs = "".join(draw(st.lists(attributes(), max_size=4)))
    return f"<{tag}{attrs}{draw(st.sampled_from(['>', '/>', ' />', ' >']))}"


#: complete constructs of every kind a page holds, some hiding markup
CONSTRUCTS = st.one_of(start_tags(), st.sampled_from([
    "red roses", "a &amp; b", "&nbsp;", "x &lt; y", "&#x41;&#66;", "fish &chips",
    " ", "\n", "\r", "\r\n", "\x0c", "\u2028", "\xa0", "tower\u2028town",
    "</p>", "</P >", "</noscript>", "</NOSCRIPT>", "</div>", "</ img>", "</>",
    "<!-- c -->", "<!---->", "<!-- <img src='hidden.jpg'> -->", "<!-- a -- >",
    "<!DOCTYPE html>", "<!doctype html>", "<!x>", "<?xml version='1.0'?>",
    "<?pi>", "<![CDATA[ x < y ]]>", "<![CDATA[<img src='c.jpg'>]]>",
    "<![if !IE]>", "<![endif]>",
    "<script>if (a < b) { s = \"<img src='s.jpg'>\"; }</script>",
    "<SCRIPT type='text/javascript'>document.write('<p>')</SCRIPT >",
    "<style>p > a { color: red }</style>", "<style/>",
    "<noscript><img src='n.jpg' alt='no script'></noscript>"]))


@settings(max_examples=300, deadline=None)
@example(['<IMG SRC="a.jpg" src=b.jpg Alt=\'red &amp; rose\' hidden>'])
@example(["<img src==a.jpg alt=b=c>"])
@example(["<script>", "<img src='s.jpg'>", "</script>", "red roses"])
@given(st.lists(CONSTRUCTS, max_size=12))
def test_page_scan_matches_html_parser(constructs):
    """On a page of complete constructs the scan finds the images and
    the text runs HTMLParser finds, at the same offsets."""
    page = "".join(constructs)
    assert scan(page) == oracles.page_scan_oracle(page)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=8), HTML_PIECES), max_size=25)
       .map("".join),
       st.one_of(st.none(), st.text(max_size=6),
                 st.sampled_from(["a", "a.jpg", "b", ""])))
def test_extract_areas_matches_html_parser_on_soup(page, image_ref):
    """On tag soup, extraction over the whole page equals extraction
    over HTMLParser's scan, except where HTMLParser raises (see
    `test_a_marked_section_of_unknown_keyword_is_a_declaration`)."""
    try:
        want_scan = oracles.page_scan_oracle(page)
    except AssertionError:
        assert "<![" in page
        return
    assert scan(page) == want_scan
    with mock.patch.object(context, "_PageScan", _OracleScan):
        want = extract_areas(page, image_ref, window=len(page))
    assert extract_areas(page, image_ref, window=len(page)) == want


def test_a_marked_section_of_unknown_keyword_is_a_declaration():
    """HTMLParser raises on a marked section whose keyword it does not
    know; the scan reads it as ``<!...>``, up to its first ">"."""
    page = '<img src="a.jpg"><![foo[ <b>bold</b> ]]>rose'
    with pytest.raises(AssertionError, match="unknown status keyword"):
        oracles.page_scan_oracle(page)
    assert scan(page) == ([(0, {"src": "a.jpg"})],
                          [(28, "bold"), (36, " ]]>rose")])


TAG_SOUP = st.lists(st.sampled_from(
    ["<a", "<img", "<B", " ", "\n", "\x0b", "\x00", "/", "=", "==", "'",
     '"', ">", "/>", "x", "src", "<", "&amp;", "\u2028"]),
    max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@example("<a x=='y")
@example("<a x= 'y <b y=\"z")
@example("<a x='y")
@example("<a x=y/z")
@example("<a\x00b>")
@example("<a\x0b\x00b>")
@example("<a b'=c' <a x=\"y\">")
@given(TAG_SOUP)
def test_tolerant_start_tag_matches_html_parser(page):
    """Outside the plain form, each attribute, and where each start tag
    ends (or that it does not), are HTMLParser's: the attributes at
    every offset, the ends at every start tag, all in one scan."""
    found = _PageScan(page)
    for k in range(1, len(page)):
        assert found._attr(k) == oracles.attr_oracle(page, k), k
    for i in range(len(page) - 1):
        if page[i] == "<" and page[i + 1] in string.ascii_letters:
            assert (found._tolerant_end(i)
                    == oracles.start_tag_end_oracle(page, i)), i


@pytest.mark.parametrize("piece", ["<a ", "<!--", "</", "<!x", "<"])
def test_extract_areas_is_linear(piece):
    """An unterminated construct repeated over a 100 KB page costs one
    pass: on the `<a ` page HTMLParser took about 95 s."""
    page = '<img src="a.jpg">' + piece * (100_000 // len(piece))
    start = time.perf_counter()
    areas = extract_areas(page, "a")
    assert time.perf_counter() - start < 0.5
    assert areas[0] == ExtractionArea(AreaKind.SRC_TOKENS, ("a",),
                                      DEFAULT_IMPACTS[AreaKind.SRC_TOKENS])


def test_importing_the_cli_leaves_html_parser_unloaded():
    code = ("import sys, viscx.cli; "
            "print(sorted({'html.parser', '_markupbase'} & set(sys.modules)))")
    src = str(Path(context.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def tagged_areas(areas, lattice):
    """`assign_impacts`' arguments: the areas and each one's tagged tokens."""
    return areas, [tag_tokens(area.tokens, lattice) for area in areas]


def test_assign_impacts_max_rule(base_lattice):
    page = ('<html><body><img src="x.jpg" alt="a rose">'
            '<p>this rose and a cathedral</p></body></html>')
    areas = extract_areas(page, "x")
    concepts = {c.cx: c for c in assign_impacts(*tagged_areas(areas, base_lattice))}
    assert concepts["rose"].imp == 0.9
    assert concepts["rose"].area_kind is AreaKind.ALT_ATTRIBUTE
    assert concepts["cathedral"].imp == 0.5
    assert concepts["cathedral"].area_kind is AreaKind.SURROUNDING_TEXT


def test_assign_impacts_no_concepts(base_lattice):
    page = '<html><body><img src="x.jpg" alt="hello there"></body></html>'
    areas = extract_areas(page, "x")
    assert assign_impacts(*tagged_areas(areas, base_lattice)) == ()


def test_assign_impacts_is_fixpoint(base_lattice):
    areas = extract_areas(ALT_SRC_PAGE, "red_rose")
    first = assign_impacts(*tagged_areas(areas, base_lattice))
    assert assign_impacts(*tagged_areas(areas, base_lattice)) == first
    top = max(DEFAULT_IMPACTS.values())
    assert all(c.imp <= top for c in first)


def test_singularize():
    assert singularize("roses") == "rose"
    assert singularize("daisies") == "daisy"
    assert singularize("churches") == "church"
    assert singularize("boxes") == "box"
    assert singularize("glasses") == "glass"
    assert singularize("grass") == "grass"
    assert singularize("bus") == "bus"
    assert singularize("sky") == "sky"


def test_tag_tokens_examples(base_lattice):
    tagged = tag_tokens(tokenize("vegetation scene with red flowers"), base_lattice)
    assert cats(tagged) == [Category.SEM, Category.OTHER, Category.OTHER,
                            Category.COLOR, Category.SEM]
    tagged = tag_tokens(tokenize("whirly water"), base_lattice)
    assert cats(tagged) == [Category.TEXTURE, Category.SEM]
    tagged = tag_tokens(tokenize("hello world"), base_lattice)
    assert cats(tagged) == [Category.OTHER, Category.OTHER]


def test_tag_tokens_synonyms_and_phrases(base_lattice):
    tagged = tag_tokens(tokenize("smooth sky"), base_lattice)
    assert tagged[0].category is Category.TEXTURE
    assert tagged[0].concept == "uniform"
    tagged = tag_tokens(tokenize("people in front of buildings"), base_lattice)
    assert [t.concept for t in tagged] == ["person", "covers", "building"]
    assert cats(tagged) == [Category.SEM, Category.SPATIAL, Category.SEM]


def test_tagging_is_deterministic(base_lattice):
    tokens = tokenize("smooth red roses near old walls and whirly water")
    assert tag_tokens(tokens, base_lattice) == tag_tokens(tokens, base_lattice)


LATTICE = load_taxonomy(bundled_taxonomy_path())
NEW_CONCEPT = Concept("peony", frozenset({"paeony"}))

_VOCAB_WORDS = {word for vocab in FACET_VOCABS
                for word in (*vocab.names, *vocab.synonyms)}
_PHRASE_WORDS = {word for phrase in SPATIAL_VOCAB.phrases for word in phrase}
_LATTICE_WORDS = set(LATTICE.concept_ids()) | {
    syn for line in bundled_taxonomy_path().read_text().splitlines()
    if line.strip() and not line.startswith("#")
    for syn in (line.split("\t") + ["", ""])[2].split(",") if syn}
KNOWN_WORDS = sorted(_VOCAB_WORDS | _PHRASE_WORDS | _LATTICE_WORDS
                     | {NEW_CONCEPT.id, *NEW_CONCEPT.synonyms})


def _plural(word: str, suffix: str) -> str:
    if suffix == "ies" and word.endswith("y"):
        return word[:-1] + "ies"
    return word + suffix


PHRASES = sorted(SPATIAL_VOCAB.phrases)

TOKENS = st.one_of(
    st.sampled_from(KNOWN_WORDS),
    st.builds(_plural, st.sampled_from(KNOWN_WORDS),
              st.sampled_from(["s", "es", "ies"])),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=7),
    st.text(max_size=4))

#: single tokens, whole phrases and phrase prefixes, so that phrases and
#: near misses show up often
CHUNKS = st.one_of(
    TOKENS.map(lambda token: (token,)),
    st.sampled_from(PHRASES),
    st.builds(lambda phrase, k: phrase[:k], st.sampled_from(PHRASES),
              st.integers(1, 2)))


@settings(max_examples=200, deadline=None)
@given(st.lists(CHUNKS, max_size=10).map(lambda chunks: sum(chunks, ())))
def test_tag_tokens_matches_oracle(tokens):
    extended = insert_concept(LATTICE, NEW_CONCEPT, ["flower"])
    for lattice in (LATTICE, extended):
        for _ in range(2):  # the second pass reads the memo
            assert (tag_tokens(tokens, lattice)
                    == oracles.tag_tokens_oracle(tokens, lattice))


def test_tag_memo_is_per_lattice():
    lattice = load_taxonomy(bundled_taxonomy_path())
    tokens = ("paeonies", "on", "top", "of", "rose")
    assert cats(tag_tokens(tokens, lattice)) == [
        Category.OTHER, Category.OTHER, Category.OTHER, Category.OTHER,
        Category.SEM]
    extended = insert_concept(lattice, NEW_CONCEPT, ["flower"])
    assert tag_tokens(tokens, extended)[0] == TaggedToken(
        "paeonies", Category.SEM, "peony")
    assert tag_tokens(tokens, lattice)[0].category is Category.OTHER


def test_pattern_parsing_and_validation(tmp_path, capsys):
    pattern = parse_pattern("SEM OTHER{0,3} COLOR SEM")
    assert pattern.elements[1] == (Category.OTHER, 0, 3)
    compiled = pattern.regex
    re.purge()  # so a recompile could not hit re's own cache
    assert pattern.regex is compiled
    assert pattern.regex.pattern == "SO{0,3}CS"
    assert pattern == parse_pattern("SEM OTHER{0,3} COLOR SEM")
    assert hash(pattern) == hash(parse_pattern("SEM OTHER{0,3} COLOR SEM"))
    assert pattern.text() == "SEM OTHER{0,3} COLOR SEM"
    assert parse_pattern("COLOR{2} SEM").regex.pattern == "C{2,2}S"
    config = tmp_path / "pipeline.cfg"
    # no vocabulary category, and one that never matches
    for text in ("OTHER{0,2}", "SEM{0}"):
        with pytest.raises(ViscxError, match="at least one vocabulary"):
            parse_pattern(text)
        config.write_text(f"patterns = {text}\n", encoding="utf-8")
        assert cli.main(["ingest", "--corpus", str(tmp_path), "--out",
                         str(tmp_path / "index.jsonl"),
                         "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    with pytest.raises(ViscxError):
        parse_pattern("BOGUS SEM")


def test_apply_patterns_multi_head_split(base_lattice):
    tagged = tag_tokens(tokenize("vegetation scene with red flowers"), base_lattice)
    terms = apply_patterns(tagged, DEFAULT_PATTERNS, area_impact=0.9)
    flower = next(t for t in terms if t.head and t.head[0] == "flower")
    vegetation = next(t for t in terms if t.head and t.head[0] == "vegetation")
    assert flower.colors == frozenset({("red", 0.9)})
    assert vegetation.colors == frozenset()
    assert vegetation.textures == frozenset() and vegetation.spatials == frozenset()


def test_apply_patterns_spatial_tie_attaches_to_both(base_lattice):
    tagged = tag_tokens(tokenize("people near buildings"), base_lattice)
    terms = apply_patterns(tagged, DEFAULT_PATTERNS, area_impact=0.9)
    heads = {t.head[0]: t for t in terms}
    assert set(heads) == {"person", "building"}
    assert heads["person"].spatials == frozenset({("near", 0.9)})
    assert heads["building"].spatials == frozenset({("near", 0.9)})


def test_apply_patterns_no_match(base_lattice):
    tagged = tag_tokens(tokenize("hello cruel world"), base_lattice)
    assert apply_patterns(tagged, DEFAULT_PATTERNS) == ()


def test_apply_patterns_leftmost_nonoverlapping(base_lattice):
    tagged = tag_tokens(tokenize("red roses red tulips"), base_lattice)
    terms = apply_patterns(tagged, [parse_pattern("COLOR SEM")], area_impact=0.9)
    assert [t.head[0] for t in terms] == ["rose", "tulip"]


def test_apply_patterns_emitted_field_counts(base_lattice):
    # each pattern produces terms with a fixed attribute shape
    cases = [
        ("COLOR SEM", "red roses", [("rose", 1, 0, 0)]),
        ("TEXTURE SEM", "whirly water", [("water", 0, 1, 0)]),
        ("SEM SPATIAL SEM", "people near buildings",
         [("person", 0, 0, 1), ("building", 0, 0, 1)]),
        ("COLOR OTHER{0,1} COLOR SEM", "green and white walls",
         [("wall", 2, 0, 0)]),
    ]
    for pattern_text, text, expected in cases:
        tagged = tag_tokens(tokenize(text), base_lattice)
        terms = apply_patterns(tagged, [parse_pattern(pattern_text)],
                               area_impact=0.9)
        shape = [(t.head[0], len(t.colors), len(t.textures), len(t.spatials))
                 for t in terms]
        assert shape == expected, pattern_text


def test_terms_only_reference_stream_concepts(base_lattice):
    text = "smooth red roses near old walls under a whirly sky"
    tagged = tag_tokens(tokenize(text), base_lattice)
    in_stream = {t.concept for t in tagged if t.concept}
    for term in apply_patterns(tagged, DEFAULT_PATTERNS, area_impact=0.7):
        names = {name for facet in term.facets() for name, _imp in facet}
        if term.head is not None:
            names.add(term.head[0])
        assert names <= in_stream


def test_head_imps_override(base_lattice):
    tagged = tag_tokens(tokenize("red roses"), base_lattice)
    terms = apply_patterns(tagged, DEFAULT_PATTERNS, area_impact=0.5,
                           head_imps={"rose": 0.9})
    assert terms[0].head == ("rose", 0.9)
    assert terms[0].colors == frozenset({("red", 0.5)})


HEADS = ("rose", "sky", "tower")
#: tagged tokens of all five categories, spatial phrases included
TAGGED = st.one_of(
    st.sampled_from(HEADS).map(lambda c: TaggedToken(c, Category.SEM, c)),
    st.sampled_from(COLOR_NAMES[:3]).map(
        lambda c: TaggedToken(c, Category.COLOR, c)),
    st.sampled_from(TEXTURE_NAMES[:3]).map(
        lambda t: TaggedToken(t, Category.TEXTURE, t)),
    st.sampled_from([(("near",), "near"), (("above",), "above"),
                     *sorted(SPATIAL_VOCAB.phrases.items())]).map(
        lambda p: TaggedToken(" ".join(p[0]), Category.SPATIAL, p[1])),
    st.sampled_from(["the", "old"]).map(
        lambda w: TaggedToken(w, Category.OTHER)))
ELEMENTS = st.tuples(st.sampled_from(list(Category)), st.integers(0, 3),
                     st.integers(0, 3)).map(
    lambda e: (e[0], min(e[1:]), max(e[1:])))
PATTERNS = st.one_of(st.just(DEFAULT_PATTERNS), st.lists(
    st.lists(ELEMENTS, min_size=1, max_size=4).filter(
        lambda els: any(cat is not Category.OTHER and hi >= 1
                        for cat, _lo, hi in els)).map(
        lambda els: SyntacticPattern(tuple(els))), min_size=1, max_size=5))


@settings(max_examples=500, deadline=None)
@example(tagged=(TaggedToken("red", Category.COLOR, "red"),),
         patterns=DEFAULT_PATTERNS, area_impact=0.5, head_imps=None)
@given(st.lists(TAGGED, max_size=14).map(tuple), PATTERNS,
       st.floats(0.0, 1.0),
       st.one_of(st.none(), st.dictionaries(st.sampled_from(HEADS),
                                            st.floats(0.0, 1.0))))
def test_apply_patterns_matches_oracle(tagged, patterns, area_impact,
                                       head_imps):
    """Skipping a pattern whose required category is absent, and
    attaching without distance lists, give the terms of the plain loop
    over every pattern, in its order."""
    assert apply_patterns(tagged, patterns, area_impact=area_impact,
                          head_imps=head_imps) == oracles.apply_patterns_oracle(
        tagged, patterns, area_impact=area_impact, head_imps=head_imps)
    assert terms_from_window(tagged, area_impact, head_imps) == (
        oracles.terms_from_window_oracle(tagged, area_impact, head_imps))


def test_a_pattern_runs_only_where_its_required_categories_occur():
    pattern = parse_pattern("SEM OTHER{0,3} COLOR{1,2} TEXTURE{0,1}")
    assert pattern.required == frozenset("SC")
    color = TaggedToken("red", Category.COLOR, "red")
    assert apply_patterns((color, color), [pattern]) == ()


def test_parse_query_of_the_benchmark_mixes_matches_the_oracle(
        base_lattice, monkeypatch):
    """The seed-1 query mix of each benchmark workload parses to the same
    Query as with the plain pattern loop."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                     / "perfbench"))
    inputs = importlib.import_module("inputs")
    concepts = [c for c in base_lattice.concept_ids()
                if base_lattice.parents(c)]
    mixes = []
    for copies in sorted(set(inputs.COPIES.values())):
        rng = random.Random(1)
        for _ in range(copies):  # the corpus copies drawn before the queries
            rng.randrange(1 << 30)
        mixes.append([theme.query for theme in inputs.corpusgen.THEMES]
                     + inputs.scene_queries(rng, concepts))
    assert all(len(mix) == 30 for mix in mixes)
    texts = [text for mix in mixes for text in mix]
    parsed = [parse_query(text, base_lattice) for text in texts]
    monkeypatch.setattr(retrieval, "apply_patterns",
                        oracles.apply_patterns_oracle)
    monkeypatch.setattr(retrieval, "terms_from_window",
                        oracles.terms_from_window_oracle)
    assert parsed == [parse_query(text, base_lattice) for text in texts]


def test_term_vectors():
    term = SyntacticTerm(("rose", 0.9), colors=frozenset({("red", 0.9)}))
    v = term_vectors(term)
    assert v.colors[8] == 0.9
    assert sum(v.colors) == 0.9
    assert term_vectors(SyntacticTerm(("rose", 0.9))).colors == (0.0,) * 11
    spa = SyntacticTerm(("rose", 0.9), spatials=frozenset({("near", 0.5)}))
    assert term_vectors(spa).spatials[9] == 0.5


def test_term_invariants():
    with pytest.raises(ViscxError):
        SyntacticTerm(("rose", 1.2))
    with pytest.raises(ViscxError):
        SyntacticTerm(("rose", 0.5), colors=frozenset({("pink", 0.5)}))
