"""The check that a store loaded with only the record fields of one
strategy ranks exactly as the fully loaded store, for the tests of store
decoding, and the query mix it ranks.

`partial_load_differences` is the one place this comparison lives: a
change to how `load_store` decodes records, or to which fields a strategy
reads, should leave it returning nothing.
"""

from __future__ import annotations

import random

from viscx import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, load_store,
                   parse_query, rank)
from viscx.retrieval import ALL_STRATEGIES, STRATEGY_FIELDS
from viscx.store import RECORD_FIELDS

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
