"""Generate every input of one benchmark run from its seed.

Run as its own process before the workload process starts, so that the
workload's set-up time and peak memory measure viscx and not this
generator::

    python3 perfbench/inputs.py --workload build --seed 1 --out DIR

Writes into DIR:

* ``corpus/``       id-prefixed copies of ``tests/corpusgen`` corpora
  (one copy per 50 documents, each with its own seed drawn from --seed),
  with the role-1 document of every theme that has a parent concept
  relabelled to that generic parent;
* ``store.jsonl``   (query and search only) the corpus ingested and
  enriched through ``viscx.cli.main`` with the default configuration;
* ``acceptance/``   the fixed 50-document acceptance corpus of the test
  suite (corpusgen's default seed) with a ``kernel = min`` config, used
  for the quality check and for the metrics a workload does not own;
* ``manifest.json`` the query mix, the generator's ground truth, the
  VIS records it wrote and the qrels of the acceptance corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import corpusgen
from viscx import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, VisRecord,
                   bundled_taxonomy_path, cli, load_taxonomy, parse_query)

#: corpusgen copies (of 50 documents each) per workload
COPIES = {"build": 20, "query": 10, "search": 6}

#: role whose visual label is replaced by the theme's generic parent;
#: role 1 pages name the specific concept in alt and surrounding text
GENERIC_ROLE = 1
GENERIC_R = 0.7

#: generated elaborate-scene queries added to corpusgen's 10 topic queries
N_SCENE_QUERIES = 20


def _record_json(record: VisRecord) -> dict:
    return {"vo": record.vo_id, "vsc": record.vsc, "r": record.r_vsc,
            "colors": dict(record.colors), "textures": dict(record.textures),
            "spatial": sorted(list(p) for p in record.spatial)}


def _generate_copy(tmp: Path, seed: int):
    """One corpusgen corpus plus the VisRecords it serialized, in doc order."""
    written: list[list[VisRecord]] = []
    serialize = corpusgen.serialize_vis

    def capture(records):
        written.append(list(records))
        return serialize(records)

    corpusgen.serialize_vis = capture
    try:
        info = corpusgen.generate_corpus(tmp, seed=seed)
    finally:
        corpusgen.serialize_vis = serialize
    return info, written


def write_scaled_corpus(out: Path, copies: int, rng: random.Random):
    """Copies of the generator's corpus under prefixed ids; returns the
    ground truth and the VIS records written for every document."""
    out.mkdir(parents=True)
    tmp = out.parent / "_copy"
    truth, expected = {}, {}
    for copy in range(copies):
        shutil.rmtree(tmp, ignore_errors=True)
        info, written = _generate_copy(tmp, rng.randrange(1 << 30))
        for doc, records in zip(info.docs, written):
            theme = corpusgen.THEMES[doc.theme]
            new_id = f"c{copy:03d}{doc.doc_id}"
            page = (tmp / f"{doc.doc_id}.html").read_text(encoding="utf-8")
            old_src = f'src="{doc.doc_id}.jpg"'
            if page.count(old_src) != 1:
                raise ValueError(f"{doc.doc_id}: image reference not found once")
            (out / f"{new_id}.html").write_text(
                page.replace(old_src, f'src="{new_id}.jpg"'), encoding="utf-8")
            generic = doc.role == GENERIC_ROLE and theme.parent is not None
            if generic:
                records = [replace(records[0], vsc=theme.parent,
                                   r_vsc=GENERIC_R)] + records[1:]
            (out / f"{new_id}.vis").write_text(
                corpusgen.serialize_vis(records), encoding="utf-8")
            truth[new_id] = {"concept": doc.concept, "corrupted": doc.corrupted,
                             "generic": generic}
            expected[new_id] = [_record_json(r) for r in records]
    shutil.rmtree(tmp)
    return truth, expected


def scene_queries(rng: random.Random, concepts: list[str]) -> list[str]:
    """Elaborate-scene queries: 1-3 objects, each a concept with a
    colour and/or texture word, joined by spatial words. The shape of
    query j is fixed by j; only the words depend on the seed."""
    spatial = [name.replace("_", " ") for name in SPATIAL_NAMES]
    queries = []
    for j in range(N_SCENE_QUERIES):
        objects = []
        for o in range(1 + j % 3):
            words = []
            if (j + o) % 2 == 0:
                words.append(rng.choice(COLOR_NAMES))
            if (j + o) % 3 != 1:
                words.append(rng.choice(TEXTURE_NAMES))
            words.append(rng.choice(concepts))
            objects.append(" ".join(words))
        text = objects[0]
        for obj in objects[1:]:
            text += f" {rng.choice(spatial)} {obj}"
        queries.append(text)
    return queries


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"viscx {' '.join(argv)} exited {code}")


def generate(workload: str, seed: int, out: Path) -> None:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = random.Random(seed)
    truth, expected = write_scaled_corpus(out / "corpus", COPIES[workload], rng)

    lattice = load_taxonomy(bundled_taxonomy_path())
    concepts = [c for c in lattice.concept_ids() if lattice.parents(c)]
    queries = ([theme.query for theme in corpusgen.THEMES]
               + scene_queries(rng, concepts))
    for text in queries:
        parse_query(text, lattice)  # raises if a query is unindexable

    store = None
    if workload != "build":
        store = out / "store.jsonl"
        _cli(["ingest", "--corpus", str(out / "corpus"), "--out", str(store)])
        _cli(["enrich", "--index", str(store)])

    acc = out / "acceptance"
    acc_info = corpusgen.generate_corpus(acc / "corpus")
    (acc / "kernel_min.cfg").write_text("kernel = min\n", encoding="utf-8")
    manifest = {
        "workload": workload,
        "seed": seed,
        "corpus": str(out / "corpus"),
        "docs": len(truth),
        "store": None if store is None else str(store),
        "queries": queries,
        "truth": truth,
        "expected_records": expected,
        "taxonomy": str(bundled_taxonomy_path()),
        "acceptance": {
            "corpus": str(acc / "corpus"),
            "config": str(acc / "kernel_min.cfg"),
            "queries": [list(q) for q in acc_info.queries],
            "qrels": [[q, d, g] for (q, d), g in sorted(acc_info.qrels.items())],
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COPIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
