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
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig, load_config
from .errors import ViscxError
from .pipeline import enrich_store, ingest_corpus
from .retrieval import (ALL_STRATEGIES, Qrels, Query, Strategy, eval_report,
                        load_queries, parse_query, rank)
from .store import StoreMeta, load_store, save_store
from .taxonomy import SemanticLattice, bundled_taxonomy_path, load_taxonomy

log = logging.getLogger(__name__)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


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
            f"taxonomy {path} is not the one {args.index} was enriched with "
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
    store = load_store(args.index)
    cfg = _config_from_args(args, store.meta)
    strategy = Strategy.from_name(args.strategy)
    if strategy is Strategy.TFIDF:
        # tf-idf ranks raw tokens and needs no taxonomy
        query = Query(args.query, ())
        ranked = rank(store, None, cfg, query, strategy, args.k)
    else:
        _path, lattice = _lattice_for(args, cfg, store.meta)
        query = parse_query(args.query, lattice, patterns=cfg.patterns)
        ranked = rank(store, lattice, cfg, query, strategy, args.k)
    for position, (doc_id, score) in enumerate(ranked.items, start=1):
        print(f"{position}\t{doc_id}\t{score:.6f}")
    return 0


def _cmd_eval(args) -> int:
    store = load_store(args.index)
    cfg = _config_from_args(args, store.meta)
    _path, lattice = _lattice_for(args, cfg, store.meta)
    queries = load_queries(args.queries)
    qrels = Qrels.from_path(args.qrels)
    strategies = (tuple(Strategy.from_name(s.strip())
                        for s in args.strategies.split(","))
                  if args.strategies else ALL_STRATEGIES)
    report = eval_report(store, lattice, cfg, queries, qrels, strategies)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.tsv").write_text(report.summary_text(), encoding="utf-8")
    (out_dir / "per_query.tsv").write_text(report.per_query_text(), encoding="utf-8")
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
