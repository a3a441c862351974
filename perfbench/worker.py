"""One workload process: set up, run the timed loop, measure the metrics
the workload does not own on the acceptance corpus, then check outputs.

Started by run.py with a fixed PYTHONHASHSEED, after inputs.py has
written the inputs::

    python3 perfbench/worker.py --inputs DIR --seconds 30 --trace 0 [--probe]

It prints ``ready`` when set-up is done (``--probe`` exits there, so
run.py can time set-up in several fresh processes) and its result as the
last stdout line. With ``--trace 1`` it runs one untraced and one traced
cycle of fixed size instead of the timed loop, and reports per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

import viscx
from viscx import (PipelineConfig, Strategy, bundled_taxonomy_path, cli,
                   load_taxonomy, retrieval)

from speed import Speed

STRATEGIES = ("vis", "cx", "vis+cx", "tfidf")
K = 10
#: tail percentiles; a tail needs at least 10 samples beyond it
TAIL_LADDER = (95.0, 90.0, 75.0)
#: each tail's percentile, fixed so that a faster program, which takes
#: more samples in the same time, is compared at the same percentile
QUERY_TAIL = 95.0
SEARCH_TAIL = 90.0
#: fixed-size blocks on the acceptance corpus for the metrics a workload
#: does not own: build rounds, query rounds (one query x 4 strategies),
#: search rounds (likewise)
REF_BUILD_ROUNDS = 24
REF_QUERY_ROUNDS = 240
REF_SEARCH_ROUNDS = 40


class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, name: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{name}: {e}" for e in errors[:3])
        return not errors

    def check(self, name: str, fn, *args) -> bool:
        """Record one check, `fn(*args)` returning its errors; an exception
        fails it."""
        try:
            errors = fn(*args)
        except Exception as exc:
            errors = [describe(exc)]
        return self.record(name, errors)

    def guard(self, name: str, fn, *args) -> None:
        """Run `fn(*args)`, which records its own operations; an exception
        it lets through is recorded as one failed operation."""
        try:
            fn(*args)
        except Exception as exc:
            self.record(name, [describe(exc)])


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def p50(values) -> float | None:
    """Median, or None when no operation succeeded."""
    from statistics import median  # after `ready`, like every metric
    return median(values) if values else None


def tail(values, highest: float) -> tuple[float | None, float | None]:
    """(value, percentile): the nearest-rank value at `highest`, or lower
    down the ladder when fewer than ten samples lie beyond it, else the
    median."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if p <= highest and len(ordered) * (100.0 - p) / 100.0 >= 10:
            rank = -(-len(ordered) * p // 100)
            return ordered[int(rank) - 1], p
    return p50(ordered), None


def run_cli(speed: Speed, argv: list[str]) -> tuple[float, list[str], str]:
    """(seconds at reference speed, errors, stdout) of one viscx command;
    a non-zero exit or an exception is an error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code, elapsed = speed.timed(cli.main, argv)
    except (Exception, SystemExit) as exc:
        return 0.0, [describe(exc)], out.getvalue()
    return elapsed, [f"exit {code}"] if code else [], out.getvalue()


def lattice_for(store):
    return load_taxonomy(store.meta.taxonomy or bundled_taxonomy_path())


# -- the three kinds of operation --------------------------------------------


class Build:
    """`viscx ingest` then `viscx enrich` through cli.main, in rounds."""

    def __init__(self, speed: Speed, corpus: str, docs: int, work: Path,
                 config: str | None = None):
        work.mkdir(exist_ok=True)
        self.speed, self.corpus, self.docs = speed, corpus, docs
        self.ingested, self.enriched = work / "ingested.jsonl", work / "enriched.jsonl"
        self.extra = ["--config", config] if config else []
        self.ingest_s: list[float] = []
        self.enrich_s: list[float] = []
        self.first_bytes = None

    def round(self, _i: int, outcome: Outcome) -> None:
        t_ing, errors, _ = run_cli(self.speed, ["ingest", "--corpus", self.corpus,
                                                "--out", str(self.ingested)] + self.extra)
        if outcome.record("ingest", errors):
            self.ingest_s.append(t_ing)
        t_enr, errors, _ = run_cli(self.speed, ["enrich", "--index", str(self.ingested),
                                                "--out", str(self.enriched)])
        if outcome.record("enrich", errors):
            self.enrich_s.append(t_enr)
        outcome.check("rebuild is byte-identical", self._same_stores)

    def _same_stores(self) -> list[str]:
        stores = (self.ingested.read_bytes(), self.enriched.read_bytes())
        if self.first_bytes is None:
            self.first_bytes = stores
        return [] if stores == self.first_bytes else ["stores differ between rounds"]

    def metrics(self) -> tuple[dict[str, float | None], dict]:
        # throughput over all rounds: with few long rounds, the total is
        # steadier than the median round
        def rate(times):
            return self.docs * len(times) / sum(times) if times else None
        size = self.enriched.stat().st_size if self.enriched.is_file() else None
        return {
            "ingest_docs_per_s": rate(self.ingest_s),
            "enrich_docs_per_s": rate(self.enrich_s),
            "store_bytes_per_doc": size / self.docs if size else None,
        }, {"build_rounds": len(self.enrich_s), "ingest_round_s": self.ingest_s,
            "enrich_round_s": self.enrich_s}


class Query:
    """Warm scorers, one per strategy; each round ranks one query under
    every strategy with rank_with_scorer, the loop `viscx eval` runs."""

    def __init__(self, speed: Speed, store_path: str, texts: list[str]):
        self.speed = speed
        self.store = viscx.store.load_store(store_path)
        self.lattice = lattice_for(self.store)
        self.cfg = PipelineConfig.from_snapshot(self.store.meta.config)
        self.queries = [retrieval.parse_query(t, self.lattice, patterns=self.cfg.patterns)
                        for t in texts]
        self.scorers = {}
        for name in STRATEGIES:
            scorer = retrieval.make_scorer(self.store, self.lattice, self.cfg,
                                           Strategy.from_name(name))
            retrieval.rank_with_scorer(scorer, self.queries[0], K)
            self.scorers[name] = scorer
        self.latency_ms = {name: [] for name in STRATEGIES}
        self.rankings: dict[tuple[int, str], tuple] = {}

    def round(self, i: int, outcome: Outcome) -> None:
        qi = i % len(self.queries)
        for name in STRATEGIES:
            try:
                ranked, elapsed = self.speed.timed(retrieval.rank_with_scorer,
                                                   self.scorers[name], self.queries[qi], K)
            except Exception as exc:
                outcome.record(f"query {name}", [describe(exc)])
                continue
            first = self.rankings.setdefault((qi, name), ranked.items)
            if outcome.record(f"query {name}",
                              [] if ranked.items == first else ["ranking changed"]):
                self.latency_ms[name].append(elapsed * 1e3)

    def metrics(self) -> tuple[dict[str, float | None], dict]:
        out = {f"query_p50_ms.{name.replace('+', '_')}": p50(v)
               for name, v in self.latency_ms.items()}
        every = [x for v in self.latency_ms.values() for x in v]
        out["query_tail_ms"], p = tail(every, QUERY_TAIL)
        return out, {"query_tail_percentile": p, "query_samples": len(every)}


class Search:
    """One-shot `viscx search` through cli.main; each round runs one query
    under every strategy."""

    def __init__(self, speed: Speed, store_path: str, texts: list[str]):
        self.speed, self.store_path, self.texts = speed, store_path, texts
        self.latency_ms = {name: [] for name in STRATEGIES}
        self.outputs: dict[tuple[int, str], str] = {}

    def round(self, i: int, outcome: Outcome) -> None:
        qi = i % len(self.texts)
        for name in STRATEGIES:
            elapsed, errors, text = run_cli(self.speed, ["search", "--index", self.store_path,
                                             "--strategy", name, "--query",
                                             self.texts[qi], "-k", str(K)])
            first = self.outputs.setdefault((qi, name), text)
            if text != first:
                errors.append("output changed")
            if outcome.record(f"search {name}", errors):
                self.latency_ms[name].append(elapsed * 1e3)

    def metrics(self) -> tuple[dict[str, float | None], dict]:
        # Calls of different strategies form separate latency clusters, so
        # the median of all calls jumps between clusters; the mean of the
        # per-strategy medians does not.
        medians = [p50(v) for v in self.latency_ms.values()]
        mean = None if None in medians else sum(medians) / len(STRATEGIES)
        every = [x for v in self.latency_ms.values() for x in v]
        value, p = tail(every, SEARCH_TAIL)
        return ({"search_p50_ms": mean, "search_tail_ms": value},
                {"search_tail_percentile": p, "search_samples": len(every)})


# -- one run -----------------------------------------------------------------


def set_up(manifest: dict, work: Path, speed: Speed):
    """Everything before the first timed operation."""
    workload = manifest["workload"]
    if workload == "query":
        return Query(speed, manifest["store"], manifest["queries"])
    if workload == "search":
        return Search(speed, manifest["store"], manifest["queries"])
    return Build(speed, manifest["corpus"], manifest["docs"], work / "build")


def timed_loop(primary, reference, outcome: Outcome, seconds: float) -> None:
    """Whole primary rounds until `seconds` have passed (at least one),
    with each reference block's fixed number of rounds spread evenly over
    the same time, so that both see the same swings in machine speed."""
    due = deque(sorted(((j * seconds / n, b, j) for b, (_block, n) in enumerate(reference)
                        for j in range(n)), key=lambda d: d[0]))
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        while due and due[0][0] <= perf_counter() - start:
            _t, b, j = due.popleft()
            reference[b][0].round(j, outcome)
        primary.round(i, outcome)
        i += 1
    for _t, b, j in due:
        reference[b][0].round(j, outcome)


def run(manifest: dict, work: Path, seconds: float, trace: bool) -> dict:
    workload = manifest["workload"]
    texts = manifest["queries"]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    speed = Speed()
    primary = set_up(manifest, work, speed)
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)

    # Imported only now, so that set-up time is the program's own
    # (statistics likewise, in p50).
    import random
    import resource
    import checks

    outcome = Outcome()
    # The acceptance corpus store: read by the reference blocks and by the
    # quality check every run makes.
    acc = manifest["acceptance"]
    acc_store = Build(speed, acc["corpus"], 50, work / "acc", acc["config"])
    acc_store.round(0, outcome)

    info: dict = {}
    metrics: dict[str, float | None] = {}
    reference = []

    def add_reference(make, rounds: int) -> None:
        try:
            reference.append((make(), rounds))
        except Exception as exc:  # its metrics stay unmeasured
            outcome.record("reference block set-up", [describe(exc)])

    if trace:
        # one untraced and one traced cycle of the same fixed work: one
        # build round, or every query under every strategy
        cycle = 1 if workload == "build" else len(texts)
        start = perf_counter()
        for i in range(cycle):
            primary.round(i, outcome)
        untraced = perf_counter() - start
        tracer.install()
        start = perf_counter()
        for i in range(cycle):
            primary.round(i, outcome)
        traced = perf_counter() - start
        tracer.uninstall()
        metrics = tracer.metrics()
        info.update(untraced_cycle_s=untraced, traced_cycle_s=traced,
                    tracing_overhead=traced / untraced - 1.0, spans=tracer.spans)
    else:
        # Metrics this workload does not own come from fixed-size blocks
        # on the acceptance corpus, so their sample counts do not depend
        # on speed.
        if workload != "build":
            add_reference(lambda: Build(speed, acc["corpus"], 50, work / "acc-timed",
                                        acc["config"]), REF_BUILD_ROUNDS)
        if workload != "query":
            add_reference(lambda: Query(speed, str(acc_store.enriched), texts),
                          REF_QUERY_ROUNDS)
        if workload != "search":
            add_reference(lambda: Search(speed, str(acc_store.enriched), texts),
                          REF_SEARCH_ROUNDS)
        timed_loop(primary, reference, outcome, seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for block in [primary] + [b for b, _n in reference]:
            owned, extra = block.metrics()
            metrics.update(owned)
            info.update(extra)
        info["speed_scale_median"] = p50(speed.scales)

    # Checks, outside every timed section. Each group records its own
    # checks; an exception that escapes a group fails it as one check.
    parents = checks.taxonomy_parents(manifest["taxonomy"])
    rng = random.Random(manifest["seed"])
    if workload == "build":
        outcome.guard("build checks", checks.check_build, outcome, primary, manifest, parents)
    elif workload == "query":
        outcome.guard("query checks", checks.check_query, outcome, primary, parents, rng)
        outcome.check("query store round-trip",
                      checks.check_store_roundtrip, Path(manifest["store"]))
    else:
        outcome.guard("search checks", checks.check_search, outcome, primary, parents)
    for block, _rounds in reference:
        if isinstance(block, Query):
            outcome.guard("query checks", checks.check_query, outcome, block, parents, rng)
        elif isinstance(block, Search):
            outcome.guard("search checks", checks.check_search, outcome, block, parents)
    outcome.guard("acceptance checks", checks.check_acceptance,
                  outcome, acc_store.enriched, acc, parents)

    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "errors": outcome.errors, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    work = inputs / "work"
    work.mkdir(exist_ok=True)
    if args.probe:
        set_up(manifest, work, Speed())
        print("ready", flush=True)
        return 0
    result = run(manifest, work, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
