"""Output checks, run outside the timed sections.

Each check_* function returns a list of failure messages (empty when it
passes); check_build, check_query, check_search and check_acceptance
record one operation per check into the run's Outcome. The reference
computations here use ``tests/oracles.py`` and plain loops
over raw taxonomy parents; none of them calls viscx's lattice, membership,
similarity or tf-idf code, so agreement is meaningful.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import oracles
from viscx import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, PipelineConfig,
                   Strategy, VisRecord, bundled_taxonomy_path, load_store,
                   load_taxonomy, parse_query, retrieval, save_store)

K = 10
#: documents per (query, strategy) whose program score is also sampled
SAMPLED_DOCS = 5
SCORE_TOL = 1e-9
#: `viscx search` prints scores with six decimals
PRINTED_TOL = 5e-7 + SCORE_TOL
MU_TOL = 1e-12
RESTORED_SHARE = 0.8

_KERNELS = {"max": max, "min": min, "product": lambda a, b: a * b}


def taxonomy_parents(path: str) -> dict[str, tuple[str, ...]]:
    """Canonical id -> parent ids, read straight from the taxonomy file."""
    parents = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.strip().startswith("#"):
            continue
        fields = raw.split("\t") + ["", ""]
        parents[fields[0].strip().lower()] = tuple(
            p.strip().lower() for p in fields[1].split(",") if p.strip())
    return parents


def _vis_record(data: dict) -> VisRecord:
    return VisRecord(data["vo"], data["vsc"], data["r"], data["colors"],
                     data["textures"],
                     frozenset((rel, target) for rel, target in data["spatial"]))


def check_ingested(store, expected: dict) -> list[str]:
    """Every generated document is in the store with exactly the VIS
    records the generator wrote."""
    errors = []
    if set(store.records) != set(expected):
        missing = sorted(set(expected) - set(store.records))
        extra = sorted(set(store.records) - set(expected))
        errors.append(f"ingested ids differ: missing {missing[:5]}, extra {extra[:5]}")
    for doc_id, records in expected.items():
        record = store.records.get(doc_id)
        want = sorted((_vis_record(r) for r in records), key=lambda r: r.vo_id)
        if record is not None and list(record.vis_records) != want:
            errors.append(f"{doc_id}: VIS records differ from the generator's")
    return errors


def _tot(parents, concepts, vis_pairs, cx_pairs, kind) -> dict[str, float]:
    return oracles.mu_table_oracle(parents, sorted(set(concepts)), vis_pairs,
                                   cx_pairs, kind)[2]


def _expected_fusion(parents, vsc, head, mu_v, mu_c, t_mu):
    """(decision, branch, concept) by the non-literal rule of fusion.fuse."""
    if abs(mu_v - mu_c) <= t_mu:
        rel = oracles.relation_oracle(parents, vsc, head)
        if rel == "generic":
            return "replaced", "correspondence_specialized", head
        if rel == "unrelated":
            return "kept", "correspondence_unrelated", vsc
        return "kept", "correspondence_kept", vsc
    if mu_c > mu_v:
        return "corrected", "correction_context", head
    return "kept", "correction_visual", vsc


def check_fusion(store, parents, config: dict) -> list[str]:
    """Provenance membership values against the oracle table, and every
    fusion decision against the rule recomputed with relation_oracle."""
    kind, t_mu = config["tconorm"], config["t_mu"]
    errors = []
    for doc_id, record in store.records.items():
        if record.enriched is None:
            errors.append(f"{doc_id}: not enriched")
            continue
        vis_pairs = [(r.vsc, r.r_vsc) for r in record.vis_records if r.vsc in parents]
        cx_pairs = [(c.cx, c.imp) for c in record.contextual]
        for e in record.enriched:
            prov = e.provenance
            if prov.branch == "unknown_concept":
                if e.vsc in parents:
                    errors.append(f"{doc_id}/{e.vo_id}: known concept marked unknown")
                continue
            head = prov.matched_head
            tot = _tot(parents, [e.original_vsc] + ([head] if head else []),
                       vis_pairs, cx_pairs, kind)
            mu_v = tot[e.original_vsc]
            if abs(prov.mu_vsc - mu_v) > MU_TOL:
                errors.append(f"{doc_id}/{e.vo_id}: mu_vsc {prov.mu_vsc} != {mu_v}")
            if head is None:
                want = ("kept", prov.branch, e.original_vsc, mu_v)
                ok_branch = prov.branch in ("unmatched", "headless")
            else:
                mu_c = tot[head]
                if abs(prov.mu_cx - mu_c) > MU_TOL:
                    errors.append(f"{doc_id}/{e.vo_id}: mu_cx {prov.mu_cx} != {mu_c}")
                decision, branch, concept = _expected_fusion(
                    parents, e.original_vsc, head, mu_v, mu_c, t_mu)
                want = (decision, branch, concept, max(mu_v, mu_c))
                ok_branch = True
            got = (prov.decision, prov.branch, e.vsc, e.final_mu)
            if not ok_branch or got[:3] != want[:3] or abs(got[3] - want[3]) > MU_TOL:
                errors.append(f"{doc_id}/{e.vo_id}: fusion {got} != {want}")
    return errors


def check_restored(store, truth: dict) -> list[str]:
    """At least 80% of corrupted, and of generic, labels end as the
    generator's ground-truth concept."""
    errors = []
    for kind in ("corrupted", "generic"):
        docs = [d for d, t in truth.items() if t[kind]]
        fixed = sum(store.records[d].enriched[0].vsc == truth[d]["concept"]
                    for d in docs)
        if not docs or fixed < RESTORED_SHARE * len(docs):
            errors.append(f"{kind} labels restored: {fixed}/{len(docs)}")
    return errors


def check_store_roundtrip(path: Path) -> list[str]:
    """Loading a store and saving it again gives the same bytes."""
    scratch = path.with_name(path.name + ".roundtrip")
    save_store(load_store(path), scratch)
    same = scratch.read_bytes() == path.read_bytes()
    scratch.unlink()
    return [] if same else [f"{path}: load + save changed the bytes"]


def check_ranking(items, k: int) -> list[str]:
    """At most k entries, positive scores, descending with id tie-break."""
    errors = []
    if len(items) > k:
        errors.append(f"{len(items)} results for k={k}")
    if any(score <= 0.0 for _doc, score in items):
        errors.append("non-positive score in ranking")
    if list(items) != sorted(items, key=lambda item: (-item[1], item[0])):
        errors.append("ranking not in (score desc, id asc) order")
    return errors


_LINE_RE = re.compile(r"(\d+)\t(\S+)\t(\d+\.\d{6})")


def parse_cli_ranking(text: str, k: int):
    """(doc_id, printed score) pairs from `viscx search` output, plus errors."""
    items, errors = [], []
    for position, line in enumerate(text.splitlines(), start=1):
        m = _LINE_RE.fullmatch(line)
        if m is None or int(m.group(1)) != position:
            errors.append(f"bad search output line {line!r}")
            continue
        items.append((m.group(2), float(m.group(3))))
    if len(items) > k:
        errors.append(f"{len(items)} results for k={k}")
    if any(score <= 0.0 for _doc, score in items):
        errors.append("non-positive score printed")
    if any(a[1] < b[1] for a, b in zip(items, items[1:])):
        errors.append("printed scores not descending")
    return items, errors


# -- reference scorer -----------------------------------------------------


def _record_vectors(record):
    c = [record.colors.get(n, 0.0) for n in COLOR_NAMES]
    t = [record.textures.get(n, 0.0) for n in TEXTURE_NAMES]
    rels = {rel for rel, _target in record.spatial}
    s = [1.0 if n in rels else 0.0 for n in SPATIAL_NAMES]
    return c, t, s


def _term_vectors(term):
    out = []
    for pairs, names in ((term.colors, COLOR_NAMES), (term.textures, TEXTURE_NAMES),
                         (term.spatials, SPATIAL_NAMES)):
        best = dict.fromkeys(names, 0.0)
        for name, imp in pairs:
            best[name] = max(best[name], imp)
        out.append([best[n] for n in names])
    return out


def _unit_head_vectors(unit):
    if isinstance(unit, VisRecord):
        return unit.vsc, _record_vectors(unit)
    return (unit.head[0] if unit.head else None), _term_vectors(unit)


class ReferenceScorer:
    """Re-derives the vis, cx and vis+cx scores from epsilon_oracle,
    mu_table_oracle and facet sums, and tf-idf from its own index."""

    def __init__(self, store, parents, config: dict):
        self.store = store
        self.parents = parents
        self.kind = config["tconorm"]
        self.kernel = _KERNELS[config["kernel"]]
        self._tfidf = _TfIdf(store)

    def _units(self, strategy: str, record):
        if strategy == "vis":
            units = [r for r in record.vis_records if r.vsc in self.parents]
            return units, [(u.vsc, u.r_vsc) for u in units], []
        if strategy == "cx":
            return list(record.terms), [], [(c.cx, c.imp) for c in record.contextual]
        units = [e for e in record.enriched if e.vsc in self.parents]
        return units, [(u.vsc, u.final_mu) for u in units], []

    def score(self, strategy: str, query, doc_id: str) -> float:
        if strategy == "tfidf":
            return self._tfidf.score(query.raw, doc_id)
        units, vis_pairs, cx_pairs = self._units(strategy, self.store.records[doc_id])
        if not units:
            return 0.0
        views = [_unit_head_vectors(u) for u in units]
        qviews = [((t.head[0] if t.head else None), _term_vectors(t))
                  for t in query.terms]
        heads = {h for h, _v in views + qviews if h is not None}
        tot = _tot(self.parents, heads, vis_pairs, cx_pairs, self.kind)
        total = 0.0
        for q_head, q_vec in qviews:
            best = 0.0
            for u_head, u_vec in views:
                sim = sum(sum(self.kernel(x, y) for x, y in zip(a, b)) / len(a)
                          for a, b in zip(q_vec, u_vec))
                if q_head is not None and u_head is not None:
                    sim += (oracles.epsilon_oracle(self.parents, q_head, u_head)
                            * (tot[u_head] + tot[q_head]))
                best = max(best, sim)
            total += best
        return total


def _fold(token: str) -> str:
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith(("ss", "us")):
        return token[:-1]
    return token


class _TfIdf:
    """tf * ln(N/df) cosine over plural-folded context tokens."""

    def __init__(self, store):
        self.tf = {d: Counter(_fold(t) for a in r.areas for t in a.tokens)
                   for d, r in store.records.items()}
        df = Counter(t for tf in self.tf.values() for t in tf)
        self.idf = {t: math.log(len(self.tf) / n) for t, n in df.items()}

    def score(self, text: str, doc_id: str) -> float:
        q = Counter(_fold(t) for t in re.findall(r"[a-z]+", text.lower()))
        qw = {t: n * self.idf[t] for t, n in q.items() if t in self.idf}
        dw = {t: n * self.idf[t] for t, n in self.tf[doc_id].items()}
        qn = math.sqrt(sum(w * w for w in qw.values()))
        dn = math.sqrt(sum(w * w for w in dw.values()))
        if qn == 0.0 or dn == 0.0:
            return 0.0
        return sum(w * dw.get(t, 0.0) for t, w in qw.items()) / (qn * dn)


def check_scores(reference: ReferenceScorer, strategy: str, query, items,
                 sampled: dict[str, float], tol: float = SCORE_TOL) -> list[str]:
    """Ranked scores and sampled program scores equal the reference
    scorer; no sampled document outscores the last ranked one."""
    errors = []
    for doc_id, score in list(items) + list(sampled.items()):
        want = reference.score(strategy, query, doc_id)
        if abs(score - want) > tol:
            errors.append(f"{strategy} {query.raw!r} {doc_id}: {score} != {want}")
    ranked = {d for d, _s in items}
    floor = items[-1][1] if items else 0.0
    for doc_id, score in sampled.items():
        if doc_id not in ranked and score > floor + tol:
            errors.append(f"{strategy} {query.raw!r}: {doc_id} ({score}) missing")
    return errors


def _opened(path):
    store = load_store(path)
    lattice = load_taxonomy(store.meta.taxonomy or bundled_taxonomy_path())
    return store, lattice, PipelineConfig.from_snapshot(store.meta.config)


def check_build(outcome, build, manifest: dict, parents) -> None:
    """Outputs of the last build round."""
    outcome.check("every document ingested", lambda: check_ingested(
        load_store(build.ingested), manifest["expected_records"]))
    enriched = load_store(build.enriched)
    outcome.check("fusion provenance and decisions",
                  check_fusion, enriched, parents, enriched.meta.config)
    outcome.check("labels restored", check_restored, enriched, manifest["truth"])
    outcome.check("enriched store round-trip", check_store_roundtrip, build.enriched)


def check_query(outcome, block, parents, rng) -> None:
    """Every (query, strategy) ranking of a Query block, with the scores
    of its ranked documents and of SAMPLED_DOCS random documents."""
    reference = ReferenceScorer(block.store, parents, block.store.meta.config)
    ids = sorted(block.store.records)
    for (qi, name), items in sorted(block.rankings.items()):
        query, scorer = block.queries[qi], block.scorers[name]
        docs = rng.sample(ids, SAMPLED_DOCS)

        def check() -> list[str]:
            sampled = {d: scorer.score(query, d) for d in docs}
            return (check_ranking(items, K)
                    + check_scores(reference, name, query, items, sampled))
        outcome.check(f"ranking {name} {query.raw!r}", check)


def check_search(outcome, block, parents) -> None:
    """Every distinct `viscx search` output of a Search block."""
    store, lattice, cfg = _opened(block.store_path)
    reference = ReferenceScorer(store, parents, store.meta.config)
    for (qi, name), text in sorted(block.outputs.items()):
        def check() -> list[str]:
            items, errors = parse_cli_ranking(text, K)
            query = parse_query(block.texts[qi], lattice, patterns=cfg.patterns)
            return errors + check_scores(reference, name, query, items, {},
                                         tol=PRINTED_TOL)
        outcome.check(f"search output {name} {block.texts[qi]!r}", check)


def check_acceptance(outcome, enriched: Path, acceptance: dict, parents) -> None:
    """The acceptance corpus store: fusion, round-trip, NDCG ordering."""
    store, lattice, cfg = _opened(enriched)
    outcome.check("acceptance fusion", check_fusion, store, parents, store.meta.config)
    outcome.check("acceptance round-trip", check_store_roundtrip, enriched)
    rankings = {}
    for name in ("vis", "cx", "vis+cx", "tfidf"):
        scorer = retrieval.make_scorer(store, lattice, cfg, Strategy.from_name(name))
        rankings[name] = [
            (qid, retrieval.rank_with_scorer(
                scorer, parse_query(text, lattice, patterns=cfg.patterns), K).doc_ids())
            for qid, text in acceptance["queries"]]
    outcome.check("acceptance NDCG@10 ordering", ndcg_ordering, rankings, acceptance)


def ndcg_ordering(rankings: dict[str, list], acceptance: dict) -> list[str]:
    """Mean NDCG@10 (oracles.ndcg_oracle) over the acceptance queries
    satisfies vis+cx > cx > vis and vis+cx > tfidf."""
    grades: dict[str, dict[str, int]] = {}
    for qid, doc_id, grade in acceptance["qrels"]:
        grades.setdefault(qid, {})[doc_id] = grade
    means = {}
    for strategy, per_query in rankings.items():
        values = [oracles.ndcg_oracle([grades.get(qid, {}).get(d, 0) for d in docs],
                                      list(grades.get(qid, {}).values()), 10)
                  for qid, docs in per_query]
        means[strategy] = sum(values) / len(values)
    if not (means["vis+cx"] > means["cx"] > means["vis"]
            and means["vis+cx"] > means["tfidf"]):
        return [f"NDCG@10 ordering broken: {means}"]
    return []
