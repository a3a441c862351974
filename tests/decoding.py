"""The check that a store loaded with only the record fields of one
strategy ranks exactly as the fully loaded store, for the tests of store
decoding, the query mix it ranks, a plain decode of a store's records, and
the change of one document's items in a column line.

`partial_load_differences` is the one place this comparison lives: a
change to how `load_store` decodes records, or to which fields a strategy
reads, should leave it returning nothing.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

from viscx import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, load_store,
                   parse_query, rank)
from viscx.retrieval import ALL_STRATEGIES, STRATEGY_FIELDS
from viscx.store import (_CODECS, _COLUMNS, RECORD_FIELDS, IndexRecord,
                         _enriched_records)

import corpusgen

#: elaborate-scene queries added to corpusgen's 10 topic queries
N_SCENE_QUERIES = 20


def query_mix(lattice, seed: int = 1) -> list[str]:
    """corpusgen's topic queries and N_SCENE_QUERIES scene queries: 1-3
    objects, each a concept with a color and/or texture word, joined by
    spatial words. The shape of scene query j is fixed by j; only the
    words depend on `seed`."""
    rng = random.Random(seed)
    concepts = [c for c in lattice.concept_ids() if lattice.parents(c)]
    spatial = [name.replace("_", " ") for name in SPATIAL_NAMES]
    queries = [theme.query for theme in corpusgen.THEMES]
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


def ranking_text(store, lattice, cfg, query, strategy, k: int) -> str:
    """The ranking as `doc_id score` lines, scores by repr."""
    ranked = rank(store, lattice, cfg, query, strategy, k)
    return "".join(f"{doc_id} {score!r}\n" for doc_id, score in ranked.items)


def partial_load_differences(path, lattice, cfg, queries,
                             strategies=ALL_STRATEGIES,
                             k: int = 1000) -> list[str]:
    """The (strategy, query) pairs whose top-k ranking over
    `load_store(path, STRATEGY_FIELDS[strategy])` differs from the one
    over `load_store(path)`, by document order or by any score's repr.
    An empty list means the partial loads rank as the full load."""
    full = load_store(path)
    parsed = [parse_query(text, lattice, patterns=cfg.patterns)
              for text in queries]
    differences = []
    for strategy in strategies:
        partial = load_store(path, STRATEGY_FIELDS[strategy])
        unread = set(RECORD_FIELDS) - set(STRATEGY_FIELDS[strategy])
        assert set(partial.fields) == set(RECORD_FIELDS) - unread
        assert all(getattr(record, name) is None
                   for record in partial.records.values() for name in unread)
        for query in parsed:
            if (ranking_text(partial, lattice, cfg, query, strategy, k)
                    != ranking_text(full, lattice, cfg, query, strategy, k)):
                differences.append(f"{strategy.value} {query.raw!r}")
    return differences


def plain_records(path) -> dict[str, IndexRecord]:
    """Every record of the store at `path`, each column line parsed whole
    with `json.loads` and each item decoded at each reference to it, with
    no sharing: the reference that a load must equal."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    columns = {column: json.loads(line)
               for column, line in zip(_COLUMNS, lines)}
    fields = {}
    for name, (_encode, decode) in _CODECS.items():
        items = columns[name]["items"]
        fields[name] = [None if refs is None
                        else tuple(decode(items[n]) for n in refs)
                        for refs in columns[name]["values"]]
    fields["enriched"] = [
        None if decisions is None else _enriched_records(vis, decisions)
        for vis, decisions in zip(fields["vis_records"], fields["enriched"])]
    return {doc_id: IndexRecord(doc_id, *values) for doc_id, *values
            in zip(columns["doc_id"]["values"], *fields.values())}


def item_text(item) -> str:
    """The JSON text of an item as a store writes it (compact, keys
    sorted)."""
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def item_texts(path, column: str) -> list[str]:
    """The JSON text of the item at every reference in `column` of the
    store at `path`, in document order."""
    line = Path(path).read_text(encoding="utf-8").splitlines()[
        _COLUMNS.index(column) + 1]
    return [item_text(item) for value in expanded(json.loads(line))
            if value is not None for item in value]


def expanded(line: dict) -> list:
    """Each document's value in the parsed record column line `line`,
    with a copy of its items in place of their numbers (as a version 4
    store held it), so that one document's items can be changed alone."""
    items = line["items"]
    return [copy.deepcopy([items[n] for n in refs])
            if isinstance(refs, list) else refs for refs in line["values"]]


def packed(line: dict, values: list) -> dict:
    """`line` holding the documents' `values`, given as `expanded` gives
    them: each distinct item once, numbered in order of first reference as
    a save numbers them; a value that is not a list is kept as it is."""
    numbers: dict[str, int] = {}
    refs = [[numbers.setdefault(item_text(item), len(numbers))
             for item in value] if isinstance(value, list) else value
            for value in values]
    return {**line, "items": list(map(json.loads, numbers)), "values": refs}


def with_value(line: dict, doc: int, change) -> dict:
    """The parsed column line `line` with the value of its document `doc`
    replaced by `change` of it. In a record column `change` is given a
    copy of the document's items (`expanded`), which the line then
    numbers afresh (`packed`)."""
    if "items" not in line:  # the doc_id line
        line["values"][doc] = change(line["values"][doc])
        return line
    values = expanded(line)
    values[doc] = change(values[doc])
    return packed(line, values)
