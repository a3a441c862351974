import functools
import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_store import damaged_text, damages
from viscx import ALL_STRATEGIES, PipelineConfig, bundled_taxonomy_path
from viscx.cli import main
from viscx.store import load_store

PAGES = {
    "d1": ('<html><body><img src="d1.jpg" alt="red roses in bloom">'
           '<p>These smooth roses grow near the fence.</p></body></html>',
           'vis vo1 { sem: flower@0.7; color: red=0.6; texture: uniform=0.8; spa: ; }\n'),
    "d2": ('<html><body><img src="d2.jpg" alt="a grey cathedral">'
           '<p>The old cathedral stands by the river.</p></body></html>',
           'vis vo1 { sem: building@0.75; color: grey=0.5; texture: bumpy=0.6; spa: ; }\n'),
    "d3": ('<html><body><img src="d3.jpg" alt="blue sky above the sea">'
           '<p>Holiday pictures.</p></body></html>',
           'vis vo1 { sem: sky@0.9; color: blue=0.8; texture: uniform=0.9; spa: ; }\n'),
}


def write_corpus(parent: Path) -> Path:
    corpus_dir = parent / "corpus"
    corpus_dir.mkdir()
    for stem, (html, vis) in PAGES.items():
        (corpus_dir / f"{stem}.html").write_text(html, encoding="utf-8")
        (corpus_dir / f"{stem}.vis").write_text(vis, encoding="utf-8")
    return corpus_dir


@pytest.fixture()
def corpus(tmp_path):
    return write_corpus(tmp_path)


def test_ingest_and_enrich(corpus, tmp_path, capsys):
    index = tmp_path / "index.jsonl"
    assert main(["ingest", "--corpus", str(corpus), "--out", str(index)]) == 0
    store = load_store(index)
    assert sorted(store.records) == ["d1", "d2", "d3"]
    assert store.records["d1"].enriched is None

    assert main(["enrich", "--index", str(index)]) == 0
    store = load_store(index)
    enriched = store.records["d1"].enriched
    assert enriched is not None
    assert enriched[0].vsc == "rose"  # specialized from flower by the alt text
    assert store.records["d2"].enriched[0].vsc == "cathedral"


def test_ingest_skips_unpaired(corpus, tmp_path, capsys, caplog):
    (corpus / "orphan.html").write_text("<html></html>", encoding="utf-8")
    index = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index)]) == 0
    assert any("orphan" in r.message for r in caplog.records)
    assert sorted(load_store(index).records) == ["d1", "d2", "d3"]


def test_ingest_skips_malformed_vis(corpus, tmp_path, caplog):
    (corpus / "bad.html").write_text('<img src="bad.jpg">', encoding="utf-8")
    (corpus / "bad.vis").write_text("vis oops {", encoding="utf-8")
    index = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index)]) == 0
    assert any("malformed VIS" in r.message for r in caplog.records)
    assert sorted(load_store(index).records) == ["d1", "d2", "d3"]


def test_ingest_skips_non_utf8_page(corpus, tmp_path, caplog):
    with open(corpus / "d2.html", "ab") as page:
        page.write(b"\xff")
    index = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index)]) == 0
    assert any("d2: unreadable" in r.message for r in caplog.records)
    assert sorted(load_store(index).records) == ["d1", "d3"]


def test_reingest_is_byte_identical(corpus, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["ingest", "--corpus", str(corpus), "--out", str(a)]) == 0
    assert main(["ingest", "--corpus", str(corpus), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_enrich_is_idempotent(corpus, tmp_path):
    index = tmp_path / "index.jsonl"
    main(["ingest", "--corpus", str(corpus), "--out", str(index)])
    main(["enrich", "--index", str(index)])
    first = index.read_bytes()
    main(["enrich", "--index", str(index)])
    assert index.read_bytes() == first


def enriched_index(corpus, tmp_path):
    index = tmp_path / "index.jsonl"
    main(["ingest", "--corpus", str(corpus), "--out", str(index)])
    main(["enrich", "--index", str(index)])
    return index


def test_record_lines_do_not_depend_on_the_corpus_path(corpus, tmp_path):
    longer = tmp_path / "a_much_longer_directory_name" / "corpus"
    shutil.copytree(corpus, longer)
    lines = []
    for i, directory in enumerate((corpus, longer)):
        index = tmp_path / f"index{i}.jsonl"
        assert main(["ingest", "--corpus", str(directory),
                     "--out", str(index)]) == 0
        assert load_store(index).meta.corpus == str(directory)
        lines.append(index.read_text(encoding="utf-8").splitlines())
    assert lines[0][0] != lines[1][0]  # the meta lines name the directory
    assert lines[0][1:] == lines[1][1:]


def one_error_line(captured, *names):
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert all(name in captured.err for name in names)


def test_search_and_eval_refuse_a_taxonomy_with_other_content(corpus, tmp_path,
                                                              capsys):
    index = enriched_index(corpus, tmp_path)
    text = bundled_taxonomy_path().read_text(encoding="utf-8")
    assert load_store(index).meta.taxonomy_sha256 == hashlib.sha256(
        text.encode("utf-8")).hexdigest()
    same = tmp_path / "copy" / "taxonomy.tsv"
    same.parent.mkdir()
    same.write_text(text, encoding="utf-8")
    other = tmp_path / "other.tsv"
    other.write_text(text + "peony\tflower\t\n", encoding="utf-8")
    search = ["search", "--index", str(index), "--query", "Red Roses"]
    capsys.readouterr()
    assert main(search + ["--strategy", "vis+cx", "--taxonomy", str(same)]) == 0
    assert capsys.readouterr().out.startswith("1\td1\t")
    for strategy in ("vis", "cx", "vis+cx"):
        assert main(search + ["--strategy", strategy,
                              "--taxonomy", str(other)]) == 2
        one_error_line(capsys.readouterr(), str(other))
    # tf-idf reads no taxonomy, so it checks none
    assert main(search + ["--strategy", "tfidf", "--taxonomy", str(other)]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tRed Roses\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1\td1\t2\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--index", str(index), "--queries", str(queries),
                 "--qrels", str(qrels), "--out", str(tmp_path / "r"),
                 "--taxonomy", str(other)]) == 2
    one_error_line(capsys.readouterr(), str(other))
    # enrich takes any taxonomy, and records the new one
    assert main(["enrich", "--index", str(index), "--taxonomy", str(other)]) == 0
    assert main(search + ["--strategy", "vis", "--taxonomy", str(other)]) == 0


def test_search_malformed_store_line_is_data_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    with open(index, "a", encoding="utf-8") as f:
        f.write("[1]\n")
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "Red Roses"]) == 2
    one_error_line(capsys.readouterr(), f"{index}:5")


def test_search_output_format(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "vis+cx",
                 "--query", "Red Roses", "-k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    rank_, doc_id, score = lines[0].split("\t")
    assert rank_ == "1" and doc_id == "d1"
    float(score)


def test_search_all_strategies(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    for strategy in ("vis", "cx", "vis+cx", "tfidf"):
        assert main(["search", "--index", str(index), "--strategy", strategy,
                     "--query", "grey cathedrals", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "d2" in out, strategy


@pytest.mark.parametrize("k", ["0", "-1"])
def test_search_k_below_one_is_usage_error(corpus, tmp_path, capsys, k):
    index = enriched_index(corpus, tmp_path)
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "Red Roses", "-k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-k" in captured.err


def test_search_k_above_store_size_returns_every_positive_doc(corpus, tmp_path,
                                                              capsys):
    index = enriched_index(corpus, tmp_path)
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "Red Roses", "-k", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(line.split("\t")[1] for line in lines) == ["d1", "d2", "d3"]
    assert all(float(line.split("\t")[2]) > 0.0 for line in lines)


def test_search_unknown_strategy_is_usage_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    assert main(["search", "--index", str(index), "--strategy", "bogus",
                 "--query", "x"]) == 1


def test_search_unindexable_query_is_data_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "zzz qqq"]) == 2
    assert "error" in capsys.readouterr().err


def test_search_empty_store(tmp_path, capsys):
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    index = tmp_path / "empty.jsonl"
    main(["ingest", "--corpus", str(empty_dir), "--out", str(index)])
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "tfidf",
                 "--query", "anything"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["search", "--strategy", "vis", "--query", "x"]) == 1


def test_eval_writes_reports(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tRed Roses\nq2\tBlue Sky\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1\td1\t2\nq1\td2\t0\nq2\td3\t2\nq2\tghost\t1\n",
                     encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["eval", "--index", str(index), "--queries", str(queries),
                 "--qrels", str(qrels), "--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.tsv").read_text()
    assert summary.startswith("strategy\tn\tmean_ndcg\n")
    # 4 strategies x 3 default cutoffs
    assert len(summary.strip().splitlines()) == 1 + 4 * 3
    per_query = (out_dir / "per_query.tsv").read_text()
    assert "q1" in per_query and "q2" in per_query
    stdout = capsys.readouterr().out
    assert "vis+cx" in stdout

    # second run is identical
    out2 = tmp_path / "report2"
    main(["eval", "--index", str(index), "--queries", str(queries),
          "--qrels", str(qrels), "--out", str(out2)])
    assert (out2 / "summary.tsv").read_text() == summary


def test_eval_missing_qrels_is_data_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tRed Roses\n", encoding="utf-8")
    assert main(["eval", "--index", str(index), "--queries", str(queries),
                 "--qrels", str(tmp_path / "missing.tsv"),
                 "--out", str(tmp_path / "r")]) == 2


def test_eval_malformed_qrels_is_data_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tRed Roses\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1\td1\tvery relevant\n", encoding="utf-8")
    assert main(["eval", "--index", str(index), "--queries", str(queries),
                 "--qrels", str(qrels), "--out", str(tmp_path / "r")]) == 2
    assert "grade must be an integer" in capsys.readouterr().err


def test_eval_repeated_query_id_is_data_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text("q00\tRed Roses\nq00\tBlue Sky\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q00\td1\t2\n", encoding="utf-8")
    out_dir = tmp_path / "r"
    capsys.readouterr()
    assert main(["eval", "--index", str(index), "--queries", str(queries),
                 "--qrels", str(qrels), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: duplicate query id 'q00'" in captured.err
    assert "first given on line 1" in captured.err
    assert not out_dir.exists()


def test_ingest_missing_corpus_is_data_error(tmp_path, capsys):
    assert main(["ingest", "--corpus", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "x.jsonl")]) == 2


def test_search_unenriched_store_needs_enrich_for_cx(corpus, tmp_path, capsys):
    index = tmp_path / "index.jsonl"
    main(["ingest", "--corpus", str(corpus), "--out", str(index)])
    capsys.readouterr()
    for strategy in ("cx", "vis+cx"):
        assert main(["search", "--index", str(index), "--strategy", strategy,
                     "--query", "Red Roses"]) == 2
    assert "run enrich" in capsys.readouterr().err
    # vis and tfidf work straight off an ingested store
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "Red Roses"]) == 0
    assert main(["search", "--index", str(index), "--strategy", "tfidf",
                 "--query", "Red Roses"]) == 0


def test_config_file_roundtrip(corpus, tmp_path):
    config = tmp_path / "pipeline.cfg"
    config.write_text(
        "impact_alt = 0.8\nwindow = 300\ntconorm = max\nkernel = min\n"
        "t_mu = 0.2\nt_sim = 0.01\nfusion_literal = true\nndcg_n = 3,5\n",
        encoding="utf-8")
    index = tmp_path / "index.jsonl"
    assert main(["ingest", "--corpus", str(corpus), "--out", str(index),
                 "--config", str(config)]) == 0
    store = load_store(index)
    assert store.meta.config["impact_alt"] == 0.8
    assert store.meta.config["kernel"] == "min"
    assert store.meta.config["fusion_literal"] is True
    # enrich without --config picks the snapshot back up
    assert main(["enrich", "--index", str(index)]) == 0
    assert load_store(index).meta.config["kernel"] == "min"


def rewrite_line(path, n, change):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[n] = json.dumps(change(json.loads(lines[n])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def set_config_key(meta, key, value):
    """The meta line with one config key set, or deleted when `value` is None."""
    meta["config"].pop(key)
    if value is not None:
        meta["config"][key] = value
    return meta


@pytest.mark.parametrize("key, value", [("impact_src", None),
                                        ("fusion_literal", "false")])
def test_enrich_reads_a_store_snapshot_like_a_config_file(corpus, tmp_path,
                                                          key, value):
    index = tmp_path / "index.jsonl"
    main(["ingest", "--corpus", str(corpus), "--out", str(index)])
    rewrite_line(index, 0, lambda meta: set_config_key(meta, key, value))
    assert main(["enrich", "--index", str(index)]) == 0
    config = load_store(index).meta.config
    assert {**config, "taxonomy": None} == PipelineConfig().snapshot()


def test_nan_similarity_floor_is_data_error(corpus, tmp_path, capsys):
    config = tmp_path / "pipeline.cfg"
    config.write_text("t_sim = nan\n", encoding="utf-8")
    assert main(["ingest", "--corpus", str(corpus), "--out",
                 str(tmp_path / "index.jsonl"), "--config", str(config)]) == 2
    one_error_line(capsys.readouterr(), "t_sim")


def test_enrich_wrong_typed_doc_id_is_data_error(corpus, tmp_path, capsys):
    index = tmp_path / "index.jsonl"
    main(["ingest", "--corpus", str(corpus), "--out", str(index)])
    rewrite_line(index, 1, lambda record: {**record, "doc_id": 5})
    capsys.readouterr()
    assert main(["enrich", "--index", str(index)]) == 2
    one_error_line(capsys.readouterr(), f"{index}:2")


def append_byte_ff(path):
    with open(path, "ab") as f:
        f.write(b"\xff")


def test_search_non_utf8_store_is_data_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    append_byte_ff(index)
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "Red Roses"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(index) in captured.err


@pytest.mark.parametrize("bad", ["queries", "qrels", "config", "taxonomy"])
def test_eval_non_utf8_input_is_data_error(corpus, tmp_path, capsys, bad):
    index = enriched_index(corpus, tmp_path)
    files = {name: tmp_path / f"{name}.txt"
             for name in ("queries", "qrels", "config", "taxonomy")}
    files["queries"].write_text("q1\tRed Roses\n", encoding="utf-8")
    files["qrels"].write_text("q1\td1\t2\n", encoding="utf-8")
    files["config"].write_text("kernel = min\n", encoding="utf-8")
    files["taxonomy"].write_bytes(bundled_taxonomy_path().read_bytes())
    append_byte_ff(files[bad])
    capsys.readouterr()
    assert main(["eval", "--index", str(index), "--out", str(tmp_path / "r")]
                + [arg for name, path in files.items()
                   for arg in (f"--{name}", str(path))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(files[bad]) in captured.err
    assert "UTF-8" in captured.err or "utf-8" in captured.err


@functools.cache
def enriched_lines() -> list[dict]:
    """The lines of the ingested and enriched store of PAGES, built once."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = write_corpus(Path(tmp))
        index = Path(tmp) / "index.jsonl"
        with redirect_stdout(io.StringIO()):
            assert main(["ingest", "--corpus", str(corpus_dir),
                         "--out", str(index)]) == 0
            assert main(["enrich", "--index", str(index)]) == 0
        return [json.loads(line)
                for line in index.read_text(encoding="utf-8").splitlines()]


@settings(max_examples=100, deadline=None)
@given(st.deferred(lambda: damages(enriched_lines())))
@example((1, "replace", ("terms", 0, "head"), []))
def test_damaged_store_exits_0_or_2_with_one_error_line(damage):
    """search under every strategy and enrich, on a store with one damaged
    line, exit 0 or 2 and raise nothing; exit 2 prints one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "index.jsonl"
        index.write_text(damaged_text(enriched_lines(), damage),
                         encoding="utf-8")
        search = ["search", "--index", str(index), "--query", "Red Roses"]
        runs = [[*search, "--strategy", strategy.value]
                for strategy in ALL_STRATEGIES]
        runs.append(["enrich", "--index", str(index),
                     "--out", str(Path(tmp) / "out.jsonl")])
        for argv in runs:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), argv
            if code == 2:
                errors = [line for line in err.getvalue().splitlines()
                          if line.startswith("error:")]
                assert len(errors) == 1, err.getvalue()
