import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscx import FacetVectors, VisParseError, VisRecord, facet_vectors
from viscx.vis import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES,
                       parse_vis, serialize_vis)

EXAMPLE = ('vis vo1 { sem: rose@0.80; color: red=0.55, green=0.20; '
           'texture: uniform=1.0; spa: near(vo2); }\n'
           'vis vo2 { sem: ground@0.9; color: ; texture: ; spa: ; }\n')


def test_vocabularies_are_frozen_in_order():
    assert COLOR_NAMES == ("cyan", "white", "green", "grey", "yellow", "black",
                           "orange", "skin", "red", "blue", "purple")
    assert TEXTURE_NAMES == ("bumpy", "cracked", "disordered", "interlaced",
                             "lined", "marbled", "netlike", "smeared",
                             "spotted", "uniform", "whirly")
    assert SPATIAL_NAMES == ("covers", "covered_by", "part_of", "touches",
                             "disconnected", "right", "left", "above", "below",
                             "near", "far")


def test_parse_example():
    records = parse_vis(EXAMPLE)
    assert len(records) == 2
    r = records[0]
    assert r.vo_id == "vo1"
    assert r.vsc == "rose"
    assert r.r_vsc == 0.8
    assert r.colors == {"red": 0.55, "green": 0.2}
    assert r.textures == {"uniform": 1.0}
    assert r.spatial == frozenset({("near", "vo2")})


def test_empty_document():
    assert parse_vis("") == []
    assert parse_vis("   \n\n") == []


def test_probability_out_of_range():
    with pytest.raises(VisParseError, match=r"out of \[0,1\].*line 1"):
        parse_vis("vis vo1 { sem: rose@1.3; color: ; texture: ; spa: ; }")


def test_syntax_error_has_location():
    with pytest.raises(VisParseError) as err:
        parse_vis("vis vo1 { sem rose@0.5; color: ; texture: ; spa: ; }")
    assert err.value.line == 1
    assert err.value.column > 0


MULTI_LINE = ("vis vo1 { sem: rose@0.5; color: ; texture: ; spa: ; }\n"
              "\n"
              "vis vo2 {\n"
              "  sem: sky@0.5;\n"
              "\tcolor: blue=0.5;\n"
              "  texture: ;\n"
              "  spa: near(vo1);\n"
              "}\n")


@pytest.mark.parametrize("old, new, line, column, message", [
    ("sky@0.5", "sky@1.5", 4, 12, "recognition probability out of [0,1]: 1.5"),
    ("sky@0.5", "sky 0.5", 4, 12, "expected '@', found '0.5'"),
    ("blue=0.5", "pink=0.5", 5, 9, "unknown color concept 'pink'"),
    ("  texture: ;", "  texture: #;", 6, 12, "unexpected character '#'"),
    ("near(vo1)", "near(vo1", 7, 16, "expected ')', found ';'"),
    ("\n}\n", "\n", 8, 1, "expected '}', found ''"),
    # record-level errors point at the record's `vis` or its id
    ("vis vo2", "vis vo1", 3, 1, "duplicate vo id 'vo1'"),
    ("blue=0.5", "blue=0.7, red=0.6", 3, 5, "color weights of 'vo2' sum beyond 1"),
])
def test_error_location_in_multi_line_document(old, new, line, column, message):
    """Lines count newlines before the offending token and columns count
    characters (a tab is one) from the start of its line, both from 1."""
    assert MULTI_LINE.count(old) == 1
    with pytest.raises(VisParseError) as err:
        parse_vis(MULTI_LINE.replace(old, new))
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_unknown_vocabulary_name():
    with pytest.raises(VisParseError, match="unknown color concept 'pink'"):
        parse_vis("vis vo1 { sem: rose@0.5; color: pink=0.2; texture: ; spa: ; }")
    with pytest.raises(VisParseError, match="unknown texture"):
        parse_vis("vis vo1 { sem: rose@0.5; color: ; texture: silky=1.0; spa: ; }")
    with pytest.raises(VisParseError, match="unknown spatial"):
        parse_vis("vis vo1 { sem: rose@0.5; color: ; texture: ; spa: atop(vo1); }")


def test_dangling_spatial_target():
    with pytest.raises(VisParseError, match="targets unknown vo 'vo9'"):
        parse_vis("vis vo1 { sem: rose@0.5; color: ; texture: ; spa: near(vo9); }")


def test_dangling_spatial_target_is_reported_in_canonical_order_at_its_record():
    """Of two dangling targets, the one the serializer writes first (by
    relation index, then target) is named, at the record's `vis` keyword."""
    doc = ("vis vo1 { sem: rose@0.5; color: ; texture: ; spa: ; }\n"
           "\n"
           "  vis vo2 { sem: sky@0.5; color: ; texture: ;\n"
           "            spa: far(vo1), near(vq), left(vz), left(vb); }\n")
    with pytest.raises(VisParseError) as info:
        parse_vis(doc)
    assert str(info.value) == ("spatial relation 'left' of 'vo2' targets "
                               "unknown vo 'vb' (line 3, column 3)")
    assert (info.value.line, info.value.column) == (3, 3)


def test_duplicate_vo_id():
    doc = ("vis vo1 { sem: rose@0.5; color: ; texture: ; spa: ; }"
           "vis vo1 { sem: sky@0.5; color: ; texture: ; spa: ; }")
    with pytest.raises(VisParseError, match="duplicate vo id"):
        parse_vis(doc)


def test_color_sum_bound():
    with pytest.raises(VisParseError, match="sum beyond 1"):
        parse_vis("vis vo1 { sem: rose@0.5; color: red=0.7, blue=0.6; "
                  "texture: ; spa: ; }")


def test_bare_texture_defaults_to_full_weight():
    records = parse_vis("vis vo1 { sem: rose@0.5; color: ; "
                        "texture: whirly, lined=0.4; spa: ; }")
    assert records[0].textures == {"whirly": 1.0, "lined": 0.4}
    # colors always need explicit weights
    with pytest.raises(VisParseError, match="expected '='"):
        parse_vis("vis vo1 { sem: rose@0.5; color: red; texture: ; spa: ; }")


def test_serialize_is_canonical():
    records = parse_vis(EXAMPLE)
    out = serialize_vis(reversed(records))
    assert out.index("vis vo1") < out.index("vis vo2")
    assert "color: ;" in out  # empty facet rendering
    assert serialize_vis(records) == out
    assert parse_vis(out) == records


def test_record_invariants_enforced_on_construction():
    with pytest.raises(ValueError):
        VisRecord("vo1", "rose", 1.5)
    with pytest.raises(ValueError):
        VisRecord("vo1", "rose", 0.5, colors={"pink": 0.1})
    with pytest.raises(ValueError):
        VisRecord("vo1", "rose", 0.5, textures={"uniform": -0.1})


def random_record(rng: random.Random, vo_id: str, targets: list[str]) -> VisRecord:
    colors = {}
    for name in rng.sample(COLOR_NAMES, rng.randint(0, 3)):
        colors[name] = round(rng.uniform(0.0, 0.3), 4)
    textures = {name: round(rng.uniform(0.0, 1.0), 4)
                for name in rng.sample(TEXTURE_NAMES, rng.randint(0, 2))}
    spatial = set()
    if targets:
        for _ in range(rng.randint(0, 2)):
            spatial.add((rng.choice(SPATIAL_NAMES), rng.choice(targets)))
    return VisRecord(vo_id, rng.choice(["rose", "sky", "wall", "person"]),
                     round(rng.uniform(0.0, 1.0), 4), colors, textures,
                     frozenset(spatial))


def random_document(rng: random.Random) -> list[VisRecord]:
    n = rng.randint(1, 4)
    ids = [f"vo{i}" for i in range(1, n + 1)]
    return [random_record(rng, vid, ids) for vid in ids]


def test_roundtrip_on_generated_documents():
    rng = random.Random(2024)
    for _ in range(300):
        doc = random_document(rng)
        canonical = sorted(doc, key=lambda r: r.vo_id)
        assert parse_vis(serialize_vis(doc)) == canonical


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_roundtrip_preserves_arbitrary_floats(r, weight):
    record = VisRecord("vo1", "rose", r, {"red": weight}, {}, frozenset())
    assert parse_vis(serialize_vis([record])) == [record]


def test_facet_vectors_indices():
    record = VisRecord("vo1", "rose", 0.8, {"red": 0.55}, {},
                       frozenset({("near", "vo1"), ("far", "vo1")}))
    vectors = facet_vectors(record)
    assert isinstance(vectors, FacetVectors)
    # red is color 9 of 11, near and far are spatial 10 and 11 (0-based 8/9/10)
    assert vectors.colors[8] == 0.55
    assert sum(vectors.colors) == 0.55
    assert vectors.spatials[9] == 1.0 and vectors.spatials[10] == 1.0
    assert sum(vectors.spatials) == 2.0


def test_facet_vectors_empty_and_ranges():
    record = VisRecord("vo1", "rose", 0.8)
    vectors = facet_vectors(record)
    assert vectors.colors == (0.0,) * 11
    assert vectors.textures == (0.0,) * 11
    assert vectors.spatials == (0.0,) * 11
    rng = random.Random(5)
    for _ in range(200):
        doc = random_document(rng)
        for r in doc:
            v = facet_vectors(r)
            for vec in (v.colors, v.textures, v.spatials):
                assert len(vec) == 11
                assert all(0.0 <= x <= 1.0 for x in vec)


VIS_PIECES = st.sampled_from([
    "vis", " ", "vo1", "vo2", "{", "}", "sem:", "rose", "sky", "@", "0.5",
    "1.3", "-0.0", "1e999", "nan", "inf", ";", "color:", "red", "=", ",",
    "texture:", "whirly", "spa:", "near", "(", ")", "\n", "\t", "#",
    "vis vo1 { sem: rose@0.8; color: red=0.5; texture: ; spa: near(vo2); }"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=6), VIS_PIECES), max_size=30)
       .map("".join))
def test_parse_vis_raises_only_vis_parse_error(text):
    try:
        records = parse_vis(text)
    except VisParseError:
        return
    assert parse_vis(serialize_vis(records)) == sorted(records,
                                                       key=lambda r: r.vo_id)
