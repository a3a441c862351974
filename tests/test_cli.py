import functools
import gc
import hashlib
import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpusgen
import decoding
from test_store import LINE, damaged_text, damages, line_text
from test_vis import LONG_TOKEN_DOCS, PIECES, token_parse
from viscx import (ALL_STRATEGIES, PipelineConfig, Strategy, VisParseError,
                   bundled_taxonomy_path, cli, load_taxonomy, pipeline, vis)
from viscx.cli import main
from viscx.retrieval import (BOUND_SLACK, STRATEGY_FIELDS, make_scorer,
                             parse_query, rank_with_scorer)
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


def test_ingest_warns_of_a_long_token_in_one_short_line(corpus, tmp_path,
                                                       caplog):
    (corpus / "bad.html").write_text('<img src="bad.jpg">', encoding="utf-8")
    (corpus / "bad.vis").write_text(LONG_TOKEN_DOCS["number"], encoding="utf-8")
    index = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index)]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert warnings[0].startswith("bad: malformed VIS, document skipped: ")
    assert "\n" not in warnings[0] and len(warnings[0]) < 160


def test_ingest_skips_non_utf8_page(corpus, tmp_path, caplog):
    with open(corpus / "d2.html", "ab") as page:
        page.write(b"\xff")
    index = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index)]) == 0
    assert any("d2: unreadable" in r.message for r in caplog.records)
    assert sorted(load_store(index).records) == ["d1", "d3"]


def test_ingest_over_corrupted_sidecars(tmp_path, caplog, monkeypatch):
    """Damaged sidecars are skipped, with one warning each, exactly where
    the token parser refuses them, and the store is byte for byte the one
    that the token parser alone gives."""
    corpus = tmp_path / "corpus"
    corpusgen.generate_corpus(corpus)
    rng = random.Random(7)
    damaged = set()
    for path in sorted(corpus.glob("*.vis"))[::2]:
        text = path.read_text(encoding="utf-8")
        at = rng.randrange(len(text) + 1)
        path.write_text(text[:at] + rng.choice(PIECES)
                        + text[at + rng.randint(0, 2):], encoding="utf-8")
        damaged.add(path.stem)
    accepted = set()
    for path in corpus.glob("*.vis"):
        try:
            token_parse(path.read_text(encoding="utf-8"))
        except VisParseError:
            continue
        accepted.add(path.stem)
    assert damaged & accepted and damaged - accepted

    index = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index)]) == 0
    skipped = sorted(r.message.split(":")[0] for r in caplog.records
                     if "malformed VIS" in r.message)
    assert skipped == sorted(damaged - accepted)
    assert sorted(load_store(index).records) == sorted(accepted)

    for module in (vis, pipeline):
        monkeypatch.setattr(module, "parse_vis", token_parse)
    by_tokens = tmp_path / "by_tokens.jsonl"
    assert main(["ingest", "--corpus", str(corpus), "--out", str(by_tokens)]) == 0
    assert index.read_bytes() == by_tokens.read_bytes()


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


def test_meta_line_holds_the_taxonomy_path_once(corpus, tmp_path):
    index = enriched_index(corpus, tmp_path)
    taxonomy = str(bundled_taxonomy_path())
    meta_line = index.read_text(encoding="utf-8").splitlines()[0]
    assert meta_line.count(json.dumps(taxonomy)) == 1
    meta = load_store(index).meta
    assert meta.taxonomy == meta.config["taxonomy"] == taxonomy


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
    one_error_line(capsys.readouterr(), f"{index}:8")


def test_search_reads_only_the_fields_of_its_strategy(corpus, tmp_path,
                                                     capsys):
    """A damaged field that vis search does not read leaves its output
    as it was; vis+cx search, which reads it, and enrich report it. A
    column whose crc32 no longer matches fails every search."""
    index = enriched_index(corpus, tmp_path)
    vis = ["search", "--index", str(index), "--strategy", "vis",
           "--query", "Red Roses", "-k", "1000"]
    capsys.readouterr()
    assert main(vis) == 0
    before = capsys.readouterr().out
    assert before.startswith("1\td1\t")
    rewrite_value(index, "enriched", 0, lambda value: "x")
    assert main(vis) == 0
    assert capsys.readouterr().out == before
    for argv in (["search", "--index", str(index), "--strategy", "vis+cx",
                  "--query", "Red Roses"],
                 ["enrich", "--index", str(index)]):
        assert main(argv) == 2
        one_error_line(capsys.readouterr(),
                       f"{index}:7: enriched of document 'd1': ")
    lines = index.read_text(encoding="utf-8").splitlines()
    lines[LINE["enriched"]] = lines[LINE["enriched"]].replace('"x"', '"y"')
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(vis) == 2
    one_error_line(capsys.readouterr(), f"{index}:7: checksum mismatch")


def test_eval_reads_only_the_fields_of_its_strategies(corpus, tmp_path,
                                                      capsys):
    index = enriched_index(corpus, tmp_path)
    rewrite_value(index, "areas", 0, lambda value: "x")
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tRed Roses\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1\td1\t2\n", encoding="utf-8")
    run = ["eval", "--index", str(index), "--queries", str(queries),
           "--qrels", str(qrels), "--out", str(tmp_path / "r")]
    capsys.readouterr()
    assert main(run + ["--strategies", "vis,cx,vis+cx"]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert {line.split("\t")[0] for line in summary[1:]} == {"vis", "cx",
                                                           "vis+cx"}
    for strategies in (["--strategies", "vis,tfidf"], []):
        assert main(run + strategies) == 2
        one_error_line(capsys.readouterr(), f"{index}:3: areas of document 'd1'")


def test_error_naming_a_path_with_a_newline_stays_on_one_line(corpus, tmp_path,
                                                              capsys):
    index = enriched_index(corpus, tmp_path)
    # the meta line holds the taxonomy path once; the config snapshot,
    # which search reads it from, takes it from there
    rewrite_line(index, 0, lambda meta: {**meta, "taxonomy": "a\nb"})
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "Red Roses"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read taxonomy a\\nb: ")
    assert captured.err.count("\n") == 1


def test_cx_search_with_an_unknown_term_head(corpus, tmp_path, capsys):
    """A cx term head the taxonomy lacks fails a search only when a headed
    query term meets it; a headless query ranks as on the intact store."""
    index = enriched_index(corpus, tmp_path)
    cx = ["search", "--index", str(index), "--strategy", "cx", "-k", "1000",
          "--query"]
    capsys.readouterr()
    assert main(cx + ["red"]) == 0
    before = capsys.readouterr().out
    assert before == "1\td2\t0.172727\n2\td3\t0.172727\n3\td1\t0.136364\n"

    def unknown_head(terms):
        terms[0]["head"][0] = "zzz"
        return terms
    rewrite_value(index, "terms", 0, unknown_head)
    assert main(cx + ["Red Roses"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown concept 'zzz'\n"
    assert main(cx + ["red"]) == 0
    assert capsys.readouterr().out == before


def test_an_unknown_contextual_concept_fails_a_search_that_would_prune_it(
        corpus, tmp_path, capsys):
    """Every document's evidence is checked when the scorer is made, also
    a document's that the ranking never reaches: on the intact store a cx
    search for "Red Roses" at k = 1 prunes d3's group, and a `contextual`
    item of d3 naming a concept the taxonomy lacks fails that search, and
    one at k = 1000, which prunes nothing."""
    index = enriched_index(corpus, tmp_path)
    store = load_store(index, STRATEGY_FIELDS[Strategy.CX])
    lattice = load_taxonomy(store.meta.taxonomy)
    scorer = make_scorer(store, lattice, PipelineConfig(), Strategy.CX)
    query = parse_query("Red Roses", lattice)
    (_top, score), = rank_with_scorer(scorer, query, 1).items
    assert ("d3",) in [members for bound, (members, *_) in zip(
        scorer.bounds(query, scorer.nodes), scorer.nodes)
        if bound < score - BOUND_SLACK]
    rewrite_value(index, "contextual", 2,
                  lambda cx: [{**cx[0], "cx": "zzz"}, *cx[1:]])
    for k in ("1", "1000"):
        capsys.readouterr()
        assert main(["search", "--index", str(index), "--strategy", "cx",
                     "-k", k, "--query", "Red Roses"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown concept 'zzz'\n"


def test_a_contextual_impact_out_of_range_is_refused_at_load(corpus, tmp_path,
                                                              capsys):
    """The error names the store, the line and the document, not only the
    impact, and comes before any scoring."""
    index = enriched_index(corpus, tmp_path)
    rewrite_value(index, "contextual", 0,
                  lambda cx: [{**cx[0], "imp": 1.5}, *cx[1:]])
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "cx",
                 "--query", "Red Roses"]) == 2
    one_error_line(capsys.readouterr(),
                   f"{index}:{LINE['contextual'] + 1}: contextual of "
                   "document 'd1': impact out of [0,1]: 1.5")


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


def test_search_k_not_an_integer_names_the_rule(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--strategy", "vis",
                 "--query", "Red Roses", "-k", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "viscx search: error: argument -k: must be an integer >= 1: 'abc'")


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


@pytest.fixture()
def gc_state():
    """The collector's state and thresholds, put back after the test."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(*thresholds)


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_a_command_leaves_the_collector_as_it_found_it(corpus, tmp_path, capsys,
                                                       gc_state, caller_enabled):
    index = tmp_path / "index.jsonl"
    runs = [(["ingest", "--corpus", str(corpus), "--out", str(index)], 0),
            (["search", "--index", str(index), "--strategy", "nope",
              "--query", "rose"], 1),
            (["search", "--index", str(tmp_path / "missing.jsonl"),
              "--strategy", "vis", "--query", "rose"], 2)]
    for argv, code in runs:
        (gc.enable if caller_enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is caller_enabled, argv


def test_a_command_runs_with_the_collector_paused(corpus, tmp_path,
                                                  monkeypatch, gc_state):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if args.out == "raise":
            raise RuntimeError("not a data error")
        return 0

    monkeypatch.setattr(cli, "_cmd_ingest", command)
    gc.enable()
    assert main(["ingest", "--corpus", str(corpus), "--out", "x"]) == 0
    assert seen == [False] and gc.isenabled()
    with pytest.raises(RuntimeError):
        main(["ingest", "--corpus", str(corpus), "--out", "raise"])
    assert seen == [False, False] and gc.isenabled()


def test_a_command_leaves_its_cyclic_garbage_young(corpus, tmp_path, capsys,
                                                   gc_state):
    """The parser's reference cycles are built while the collector is
    paused, so none is promoted, even where the collector would run every
    few allocations: the youngest generation's collection frees them all,
    and a full collection finds nothing more."""
    index = tmp_path / "index.jsonl"
    gc.enable()
    gc.set_threshold(5)
    for argv in (["ingest", "--corpus", str(corpus), "--out", str(index)],
                 ["search", "--index", str(index), "--strategy", "tfidf",
                  "--query", "rose"]):
        gc.collect()
        assert main(argv) == 0
        gc.collect(0)
        assert gc.collect() == 0, argv


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


def eval_argv(corpus, tmp_path, queries_text: str, out_dir) -> list[str]:
    index = tmp_path / "index.jsonl"
    if not index.exists():
        enriched_index(corpus, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text(queries_text, encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1\td1\t2\nq2\td3\t2\n", encoding="utf-8")
    return ["eval", "--index", str(index), "--queries", str(queries),
            "--qrels", str(qrels), "--out", str(out_dir)]


def test_eval_replaces_existing_reports_and_leaves_no_temporary_file(
        corpus, tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(eval_argv(corpus, tmp_path, "q1\tRed Roses\n", out_dir)) == 0
    first = (out_dir / "per_query.tsv").read_text(encoding="utf-8")
    assert "q2" not in first
    assert main(eval_argv(corpus, tmp_path, "q1\tRed Roses\nq2\tBlue Sky\n",
                          out_dir)) == 0
    assert "q2" in (out_dir / "per_query.tsv").read_text(encoding="utf-8")
    assert sorted(p.name for p in out_dir.iterdir()) == ["per_query.tsv",
                                                         "summary.tsv"]


def test_a_failed_report_write_keeps_the_old_reports(corpus, tmp_path,
                                                     capsys, monkeypatch):
    import viscx.store
    out_dir = tmp_path / "report"
    assert main(eval_argv(corpus, tmp_path, "q1\tRed Roses\n", out_dir)) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def broken(*_args):
        raise OSError("rename failed")
    monkeypatch.setattr(viscx.store.os, "replace", broken)
    assert main(eval_argv(corpus, tmp_path, "q1\tRed Roses\nq2\tBlue Sky\n",
                          out_dir)) == 2
    assert "rename failed" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("command", ["ingest", "enrich"])
def test_a_failed_write_names_the_output_not_its_temporary_file(
        corpus, tmp_path, capsys, command):
    index = tmp_path / "index.jsonl"
    out = tmp_path / "nodir" / "x.jsonl"
    if command == "ingest":
        argv = ["ingest", "--corpus", str(corpus), "--out", str(out)]
    else:
        assert main(["ingest", "--corpus", str(corpus),
                     "--out", str(index)]) == 0
        argv = ["enrich", "--index", str(index), "--out", str(out)]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    one_error_line(captured, f"No such file or directory: '{out}'")
    assert ".tmp" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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


def test_eval_grade_above_the_largest_is_data_error(corpus, tmp_path, capsys):
    index = enriched_index(corpus, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tRed Roses\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1\td1\t2000\n", encoding="utf-8")
    out_dir = tmp_path / "r"
    capsys.readouterr()
    assert main(["eval", "--index", str(index), "--queries", str(queries),
                 "--qrels", str(qrels), "--out", str(out_dir)]) == 2
    one_error_line(capsys.readouterr(), "grade 2000", "above 1000")
    assert not out_dir.exists()


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
    """cx and vis+cx refuse an ingest-only store in one error line naming
    its first document; vis and tfidf rank it as the enriched store."""
    index = tmp_path / "index.jsonl"
    main(["ingest", "--corpus", str(corpus), "--out", str(index)])
    capsys.readouterr()
    for strategy in ("cx", "vis+cx"):
        assert main(["search", "--index", str(index), "--strategy", strategy,
                     "--query", "Red Roses"]) == 2
        one_error_line(capsys.readouterr(), "document 'd1'",
                       f"run enrich before {strategy} search")
    enriched = tmp_path / "enriched.jsonl"
    assert main(["enrich", "--index", str(index), "--out", str(enriched)]) == 0
    capsys.readouterr()
    for strategy in ("vis", "tfidf"):
        outputs = []
        for path in (index, enriched):
            assert main(["search", "--index", str(path),
                         "--strategy", strategy, "--query", "Red Roses"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != "", strategy


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
    """Rewrite line `n` of a store, a column line with a fresh crc32."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[n] = line_text(change(json.loads(lines[n])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def rewrite_value(path, column, doc_index, change):
    """Rewrite the value of the document at `doc_index` in `column` (see
    decoding.with_value)."""
    rewrite_line(path, LINE[column],
                 lambda line: decoding.with_value(line, doc_index, change))


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
    rewrite_value(index, "doc_id", 0, lambda doc_id: 5)
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


@pytest.mark.parametrize("marked", ["queries", "qrels", "config", "taxonomy"])
def test_eval_ignores_a_leading_byte_order_mark(corpus, tmp_path, capsys,
                                                marked):
    """A UTF-8 file that starts with a byte order mark reads as the same
    file without it; the taxonomy keeps the fingerprint of its text."""
    index = enriched_index(corpus, tmp_path)
    texts = {"queries": "q1\tRed Roses\nq2\tGrey Cathedral\n",
             "qrels": "q1\td1\t2\nq2\td2\t1\n", "config": "kernel = min\n",
             "taxonomy": bundled_taxonomy_path().read_text(encoding="utf-8")}
    outputs = []
    for bom in ("", "\ufeff"):
        run = ["eval", "--index", str(index), "--out", str(tmp_path / f"r{bom}")]
        for name, text in texts.items():
            path = tmp_path / f"{name}{bom}.txt"
            path.write_text((bom if name == marked else "") + text,
                            encoding="utf-8")
            run += [f"--{name}", str(path)]
        capsys.readouterr()
        assert main(run) == 0
        captured = capsys.readouterr()
        outputs.append((captured.out, captured.err) + tuple(
            (tmp_path / f"r{bom}" / name).read_bytes()
            for name in ("summary.tsv", "per_query.tsv")))
    assert outputs[1] == outputs[0]
    assert outputs[0][1] == ""  # no query went without judgments


def test_eval_refuses_an_overlong_grade_in_one_short_line(corpus, tmp_path,
                                                          capsys):
    index = enriched_index(corpus, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tRed Roses\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1\td1\t" + "9" * 5000 + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--index", str(index), "--queries", str(queries),
                 "--qrels", str(qrels), "--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    one_error_line(captured, "qrels line 1: grade '99999", "above 1000")
    assert len(captured.err) < 100


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
@example((LINE["terms"], "replace", ("items", 0, "head"), []))
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
