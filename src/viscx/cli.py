"""Command-line surface.

Commands::

    viscx ingest --corpus DIR --out FILE [--config FILE]
    viscx enrich --index FILE [--taxonomy FILE] [--config FILE] [--out FILE]
    viscx search --index FILE --strategy vis|cx|vis+cx|tfidf --query STR [-k N]
    viscx eval   --index FILE --queries FILE --qrels FILE [--config FILE] --out DIR

Exit codes: 0 success, 1 usage error, 2 data error (including an input
file that is not UTF-8). The index store remembers the taxonomy path and
config snapshot from enrichment, so search and eval run without repeating
them, and the sha256 of the taxonomy text, so search and eval refuse a
taxonomy whose content differs from the one the store was enriched with.
search parses and decodes only the store columns its strategy reads
(`retrieval.STRATEGY_FIELDS`; vis+cx reads the visual records and the
fusion decisions of the enriched column, and makes the enriched records
of both), and eval those of its strategies; enrich decodes every column.
Every command checks each column's crc32, read or not.

A command runs with Python's cyclic garbage collector paused, from
argument parsing on, and the collector is put back as it was found when
the command ends, however it ends. viscx's data holds no reference
cycles, so reference counting frees it, and a command spared the
collections that its many small objects would trigger runs faster. The
argparse parser does hold cycles; built while paused and garbage before
the collector is back, it is still in the youngest generation, so the
first collection after the command frees it. Library calls, outside
`main`, run with the collector as their caller left it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig, load_config
from .errors import ViscxError, one_line
from .pipeline import enrich_store, ingest_corpus
from .retrieval import (ALL_STRATEGIES, STRATEGY_FIELDS, Qrels, Query,
                        Strategy, eval_report, load_queries, parse_query, rank)
from .store import StoreMeta, atomic_writer, load_store, save_store
from .taxonomy import SemanticLattice, bundled_taxonomy_path, load_taxonomy

log = logging.getLogger(__name__)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1: {text!r}")


def _config_from_args(args, store_meta=None) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    if store_meta is not None and store_meta.config:
        return PipelineConfig.from_snapshot(store_meta.config)
    return PipelineConfig()


def _lattice_for(args, cfg: PipelineConfig, store_meta: StoreMeta,
                 verify: bool = True) -> tuple[str, SemanticLattice]:
    """The taxonomy path (the argument, then the config, then the store,
    then the bundled file) and its lattice. With `verify`, a lattice whose
    text differs from the one the store was enriched with is refused."""
    path = str(args.taxonomy or cfg.taxonomy or store_meta.taxonomy
               or bundled_taxonomy_path())
    lattice = load_taxonomy(path)
    if verify and store_meta.taxonomy_sha256 not in (None, lattice.fingerprint):
        raise ViscxError(
            f"taxonomy {one_line(path)} is not the one {one_line(args.index)} "
            "was enriched with "
            "(its sha256 differs); re-run enrich with it, or pass the "
            "original with --taxonomy")
    return path, lattice


def _cmd_ingest(args) -> int:
    cfg = _config_from_args(args)
    store = ingest_corpus(args.corpus, cfg)
    save_store(store, args.out)
    print(f"ingested {len(store.records)} documents -> {args.out}")
    return 0


def _cmd_enrich(args) -> int:
    store = load_store(args.index)
    cfg = _config_from_args(args, store.meta)
    path, lattice = _lattice_for(args, cfg, store.meta, verify=False)
    enrich_store(store, lattice, replace(cfg, taxonomy=path))
    out = args.out or args.index
    save_store(store, out)
    print(f"enriched {len(store.records)} documents -> {out}")
    return 0


def _cmd_search(args) -> int:
    strategy = Strategy.from_name(args.strategy)
    store = load_store(args.index, STRATEGY_FIELDS[strategy])
    cfg = _config_from_args(args, store.meta)
    if strategy is Strategy.TFIDF:  # raw tokens, and no taxonomy
        lattice, query = None, Query(args.query, ())
    else:
        _path, lattice = _lattice_for(args, cfg, store.meta)
        query = parse_query(args.query, lattice, patterns=cfg.patterns)
    ranked = rank(store, lattice, cfg, query, strategy, args.k)
    for position, (doc_id, score) in enumerate(ranked.items, start=1):
        print(f"{position}\t{doc_id}\t{score:.6f}")
    return 0


def _cmd_eval(args) -> int:
    strategies = (tuple(Strategy.from_name(s.strip())
                        for s in args.strategies.split(","))
                  if args.strategies else ALL_STRATEGIES)
    store = load_store(args.index, [f for s in strategies
                                    for f in STRATEGY_FIELDS[s]])
    cfg = _config_from_args(args, store.meta)
    _path, lattice = _lattice_for(args, cfg, store.meta)
    queries = load_queries(args.queries)
    qrels = Qrels.from_path(args.qrels)
    report = eval_report(store, lattice, cfg, queries, qrels, strategies)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (("summary.tsv", report.summary_text()),
                       ("per_query.tsv", report.per_query_text())):
        with atomic_writer(out_dir / name) as out:
            out.write(text)
    sys.stdout.write(report.summary_text())
    return 0


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="viscx",
        description="Enrich visual index structures with webpage context "
                    "and evaluate retrieval strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="pair .html/.vis files into an index store")
    p.add_argument("--corpus", required=True, help="directory of .html/.vis pairs")
    p.add_argument("--out", required=True, help="index store file to write")
    p.add_argument("--config", help="pipeline config file")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("enrich", help="enrich an ingested store with context")
    p.add_argument("--index", required=True, help="index store file")
    p.add_argument("--taxonomy", help="taxonomy file (default: config, then store)")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--out", help="output store (default: rewrite --index)")
    p.set_defaults(func=_cmd_enrich)

    p = sub.add_parser("search", help="rank documents for one query")
    p.add_argument("--index", required=True, help="index store file")
    p.add_argument("--strategy", required=True,
                   choices=[s.value for s in ALL_STRATEGIES])
    p.add_argument("--query", required=True)
    p.add_argument("-k", type=_positive_int, default=10,
                   help="results to print (at least 1)")
    p.add_argument("--taxonomy", help="taxonomy file override")
    p.add_argument("--config", help="pipeline config file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="NDCG@n comparison of indexing strategies")
    p.add_argument("--index", required=True, help="index store file")
    p.add_argument("--queries", required=True, help="id<TAB>text per line")
    p.add_argument("--qrels", required=True,
                   help="query_id<TAB>doc_id<TAB>grade per line")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--out", required=True, help="directory for report files")
    p.add_argument("--strategies", help="comma-separated subset to evaluate")
    p.add_argument("--taxonomy", help="taxonomy file override")
    p.set_defaults(func=_cmd_eval)
    return parser


@contextlib.contextmanager
def _gc_paused():
    """The cyclic garbage collector off for the block, or for each call of
    the function it decorates, then as it was. As a decorator it turns the
    collector back on only once the call's frame, and so the parser it
    holds, is gone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ViscxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input file is not valid UTF-8: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
