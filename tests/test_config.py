import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscx import (AreaKind, ConfigError, FacetKernel, PipelineConfig,
                   TConormKind, bundled_taxonomy_path, load_config,
                   parse_config, parse_pattern)

TAXONOMY = str(bundled_taxonomy_path())
DEFAULT_IMPACTS = {AreaKind.ALT_ATTRIBUTE: 0.9, AreaKind.SRC_TOKENS: 0.7,
                   AreaKind.SURROUNDING_TEXT: 0.5}


@pytest.mark.parametrize("text, attr, expected", [
    (f"taxonomy = {TAXONOMY}", "taxonomy", TAXONOMY),
    ("impact_alt = 0.8", "impacts", {**DEFAULT_IMPACTS, AreaKind.ALT_ATTRIBUTE: 0.8}),
    ("impact_src = 0", "impacts", {**DEFAULT_IMPACTS, AreaKind.SRC_TOKENS: 0.0}),
    ("impact_text = 1", "impacts",
     {**DEFAULT_IMPACTS, AreaKind.SURROUNDING_TEXT: 1.0}),
    ("window = 300", "window", 300),
    ("patterns = COLOR SEM | | SEM OTHER{0,3} COLOR SEM", "patterns",
     (parse_pattern("COLOR SEM"), parse_pattern("SEM OTHER{0,3} COLOR SEM"))),
    ("tconorm = bsum", "tconorm", TConormKind.BOUNDED_SUM),
    ("kernel = product", "kernel", FacetKernel.PRODUCT),
    ("t_mu = 0.25", "t_mu", 0.25),
    ("t_sim = 0", "t_sim", 0.0),
    ("fusion_literal = yes", "fusion_literal", True),
    ("fusion_literal = Off", "fusion_literal", False),
    ("ndcg_n = 3, 7", "ndcg_n", (3, 7)),
    ("# a comment\n\n  KERNEL =  min  \n", "kernel", FacetKernel.MIN),
    ("  # window = 1\nwindow = 5\n\t# window 2\n", "window", 5),
])
def test_each_key_is_read_from_the_file(text, attr, expected):
    assert getattr(parse_config(text), attr) == expected


@pytest.mark.parametrize("text, message", [
    ("colour = red", "unknown configuration key 'colour'"),
    ("window = 1\nwindow = 2", "line 2: duplicate key 'window'"),
    ("kernel max", "line 1: expected key = value"),
    ("fusion_literal = maybe", "maybe"),
    ("t_mu = high", "high"),
    ("window = 1.5", "1.5"),
    ("ndcg_n = 5,x", "x"),
    ("patterns = COLOR FOO", "FOO"),
    ("patterns = OTHER", "at least one vocabulary category"),
    ("tconorm = min", "unknown t-conorm 'min'"),
    ("kernel = sum", "unknown facet kernel 'sum'"),
    ("impact_src = 1.5", "1.5"),
    ("impact_text = nan", "nan"),
    ("window = -1", "window"),
    ("t_mu = 2", "t_mu"),
    ("t_sim = -0.1", "t_sim"),
    ("t_sim = nan", "t_sim"),
    ("ndcg_n = 5,0", "ndcg_n"),
    ("ndcg_n =", "ndcg_n needs one or more cutoffs"),
    ("taxonomy = /nonexistent/tax.tsv", "taxonomy file not found"),
    ("taxonomy =", "taxonomy file not found"),
])
def test_bad_config_is_refused(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_config_lines_end_at_newline_only(tmp_path):
    """A line separator other than ``\\n`` stays inside its value."""
    with pytest.raises(ConfigError, match=r"t_mu.*window = 5"):
        parse_config("t_mu = 0.2\x0bwindow = 5\n")
    path = tmp_path / "crlf.cfg"
    path.write_bytes(b"# a comment\r\nt_mu = 0.2\r\n\r\nwindow = 5\r\n")
    for cfg in (load_config(path),
                parse_config("t_mu = 0.2\r\nwindow = 5\r\n")):
        assert (cfg.t_mu, cfg.window) == (0.2, 5)


def test_relative_taxonomy_resolves_against_the_config_directory(tmp_path):
    conf = tmp_path / "conf"
    conf.mkdir()
    (conf / "tax.tsv").write_text("entity\t\t\n", encoding="utf-8")
    (conf / "pipeline.cfg").write_text("taxonomy = tax.tsv\n", encoding="utf-8")
    assert load_config(conf / "pipeline.cfg").taxonomy == str(conf / "tax.tsv")
    with pytest.raises(ConfigError, match="taxonomy file not found"):
        parse_config("taxonomy = tax.tsv", base_dir=tmp_path)


def test_unreadable_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.cfg")


def test_snapshot_missing_one_impact_keeps_the_other_defaults():
    snapshot = PipelineConfig().snapshot()
    del snapshot["impact_src"]
    snapshot["impact_alt"] = 0.6
    assert PipelineConfig.from_snapshot(snapshot).impacts == {
        **DEFAULT_IMPACTS, AreaKind.ALT_ATTRIBUTE: 0.6}


@pytest.mark.parametrize("value, expected", [
    ("false", False), ("true", True), (False, False), (True, True)])
def test_snapshot_fusion_literal_is_read_as_in_a_file(value, expected):
    cfg = PipelineConfig.from_snapshot({"fusion_literal": value})
    assert cfg.fusion_literal is expected


@pytest.mark.parametrize("snapshot", [
    {"colour": "red"},
    {"fusion_literal": 1},
    {"t_sim": float("nan")},
    {"window": "x"},
    {"patterns": [5]},
    {"ndcg_n": 5},
    {"taxonomy": 5},
    {"window": 600.9},
    {"window": True},
    {"impact_alt": True},
    {"t_sim": False},
    {"ndcg_n": [5.5]},
    {"ndcg_n": [5, True]},
])
def test_bad_snapshot_is_refused(snapshot):
    [key] = snapshot
    with pytest.raises(ConfigError, match=key):
        PipelineConfig.from_snapshot(snapshot)


def render(snapshot: dict) -> str:
    """The config file text that sets every key of `snapshot`."""
    lines = []
    for key, value in snapshot.items():
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif key == "patterns":
            value = " | ".join(value)
        elif key == "ndcg_n":
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


unit = st.floats(0.0, 1.0)
element = st.tuples(st.sampled_from(["SEM", "COLOR", "TEXTURE", "SPATIAL", "OTHER"]),
                    st.integers(0, 3), st.integers(0, 3)).map(
    lambda e: e[0] if e[1:] == (1, 1) else f"{e[0]}{{{e[1]},{e[1] + e[2]}}}")
# a valid pattern holds a vocabulary element that matches at least once
pattern = st.lists(element, min_size=1, max_size=4).map(" ".join).filter(
    lambda text: any(not part.startswith("OTHER") and not part.endswith(",0}")
                     for part in text.split()))

snapshots = st.fixed_dictionaries({
    "taxonomy": st.sampled_from([None, TAXONOMY]),
    "impact_alt": unit, "impact_src": unit, "impact_text": unit,
    "window": st.integers(0, 10 ** 6),
    "patterns": st.lists(pattern, max_size=4),
    "tconorm": st.sampled_from([k.value for k in TConormKind]),
    "kernel": st.sampled_from([k.value for k in FacetKernel]),
    "t_mu": unit,
    "t_sim": st.floats(0.0, allow_nan=False),
    "fusion_literal": st.booleans(),
    "ndcg_n": st.lists(st.integers(1, 1000), min_size=1, max_size=4),
})


@settings(max_examples=200, deadline=None)
@given(snapshots)
def test_snapshot_and_file_text_round_trip(snapshot):
    cfg = PipelineConfig.from_snapshot(snapshot)
    again = PipelineConfig.from_snapshot(json.loads(json.dumps(cfg.snapshot())))
    assert again == cfg
    assert parse_config(render(cfg.snapshot())) == cfg
