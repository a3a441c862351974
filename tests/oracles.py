"""Independent brute-force oracles used to cross-check the package.

Everything here works on raw parent dictionaries and plain loops, on
purpose: no oracle calls into the package's lattice, membership or
matching code, so agreement between the two is meaningful. The
exceptions are `tag_tokens_oracle`, which checks the tagging memo and
phrase index against the plain per-token loop and so reuses the same
single-token lookups (`resolve`, `singularize`), and `tfidf_oracle`,
which checks the postings against the plain per-document cosine and so
reuses the same tokens and plural folding (`tokenize`, `singularize`).
"""

from __future__ import annotations

import math
from collections import Counter, deque

from viscx.context import Category, TaggedToken, singularize, tokenize
from viscx.vis import COLOR_VOCAB, SPATIAL_VOCAB, TEXTURE_VOCAB


def ancestors_of(parents: dict[str, tuple[str, ...]], node: str) -> set[str]:
    seen: set[str] = set()
    queue = deque(parents[node])
    while queue:
        p = queue.popleft()
        if p not in seen:
            seen.add(p)
            queue.extend(parents[p])
    return seen


def is_ancestor(parents, a: str, b: str) -> bool:
    """a strictly above b."""
    return a in ancestors_of(parents, b)


def relation_oracle(parents, a: str, b: str) -> str:
    if a == b:
        return "equal"
    if is_ancestor(parents, a, b):
        return "generic"
    if is_ancestor(parents, b, a):
        return "specific"
    return "unrelated"


def chain_edges(parents, descendant: str, ancestor: str) -> int:
    """Shortest upward edge count from descendant to ancestor."""
    seen = {descendant}
    queue = deque([(descendant, 0)])
    while queue:
        node, d = queue.popleft()
        if node == ancestor:
            return d
        for p in parents[node]:
            if p not in seen:
                seen.add(p)
                queue.append((p, d + 1))
    raise AssertionError(f"no chain {descendant} -> {ancestor}")


def undirected_distance(parents, a: str, b: str) -> int | None:
    children: dict[str, list[str]] = {n: [] for n in parents}
    for n, ps in parents.items():
        for p in ps:
            children[p].append(n)
    seen = {a}
    queue = deque([(a, 0)])
    while queue:
        node, d = queue.popleft()
        if node == b:
            return d
        for nxt in list(parents[node]) + children[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, d + 1))
    return None


def longest_root_leaf(parents) -> int:
    """Longest chain length in the DAG, by exhaustive memoized descent."""
    memo: dict[str, int] = {}

    def depth(node: str) -> int:
        if node not in memo:
            ps = parents[node]
            memo[node] = 0 if not ps else 1 + max(depth(p) for p in ps)
        return memo[node]

    return max(depth(n) for n in parents)


def epsilon_oracle(parents, a: str, b: str) -> float:
    if a == b:
        return 1.0
    d = undirected_distance(parents, a, b)
    return 0.0 if d is None else 1.0 / (1.0 + d)


def membership_oracle(parents, longest: int, c: str, anchor: str,
                      value: float) -> float:
    """Direct transcription of the two-branch membership rule."""
    rel = relation_oracle(parents, c, anchor)
    if rel in ("equal", "generic"):
        return value
    if rel == "specific":
        path = min(chain_edges(parents, c, anchor) / max(longest, 1), 1.0)
        return min(value + path, 1.0)
    return 0.0


def fold_oracle(kind: str, values: list[float]) -> float:
    acc = 0.0
    for v in values:
        if kind == "max":
            acc = acc if acc >= v else v
        elif kind == "psum":
            acc = acc + v - acc * v
        elif kind == "bsum":
            acc = min(acc + v, 1.0)
        else:
            raise AssertionError(kind)
    return acc


def mu_table_oracle(parents, universe, vis_pairs, cx_pairs, kind: str):
    """(mu_tot_vis, mu_tot_cx, mu_tot) dicts computed from scratch."""
    longest = longest_root_leaf(parents)
    vis_col, cx_col, tot_col = {}, {}, {}
    for c in universe:
        vis_col[c] = fold_oracle(
            kind, [membership_oracle(parents, longest, c, vsc, r)
                   for vsc, r in vis_pairs])
        cx_col[c] = fold_oracle(
            kind, [membership_oracle(parents, longest, c, cx, imp)
                   for cx, imp in cx_pairs])
        tot_col[c] = fold_oracle(kind, [vis_col[c], cx_col[c]])
    return vis_col, cx_col, tot_col


_KERNEL_ORACLES = {"max": max, "min": min, "product": lambda x, y: x * y}


def _dense_oracle(names, weights) -> list[float]:
    """Entry j is the largest weight given to names[j] (0 when absent)."""
    dense = [0.0] * len(names)
    for name, w in weights:
        for j in range(len(names)):
            if names[j] == name and w > dense[j]:
                dense[j] = w
    return dense


def _facets_oracle(unit):
    """(head, color pairs, texture pairs, spatial pairs) read off a syntactic
    term or a VIS record; a record's spatial relations weigh 1.0."""
    if hasattr(unit, "vo_id"):
        return (unit.vsc, list(unit.colors.items()),
                list(unit.textures.items()),
                [(rel, 1.0) for rel, _target in unit.spatial])
    head = unit.head[0] if unit.head is not None else None
    return head, list(unit.colors), list(unit.textures), list(unit.spatials)


def dense_view_part(a, b, lattice, kernel: str):
    """`fusion.view_part` of a term against a term or a VIS record, from
    dense 11-entry vectors: per facet in (textures, spatials, colors)
    order, ``sum(map(k, x, y)) / 11`` added from 0.0; then the lattice
    path similarity of the two heads (None when either is headless)."""
    k = _KERNEL_ORACLES[kernel]
    head_a, *facets_a = _facets_oracle(a)
    head_b, *facets_b = _facets_oracle(b)
    facets = 0.0
    for f, vocab in ((1, TEXTURE_VOCAB), (2, SPATIAL_VOCAB), (0, COLOR_VOCAB)):
        x = _dense_oracle(vocab.names, facets_a[f])
        y = _dense_oracle(vocab.names, facets_b[f])
        facets += sum(map(k, x, y)) / len(vocab.names)
    if head_a is None or head_b is None:
        return facets, None
    return facets, lattice.path_sim_epsilon(head_a, head_b)


def dense_mass(unit) -> float:
    """The masses of a term's or VIS record's three dense facet vectors
    (each the `sum` of its entries) added from 0.0 in (textures, spatials,
    colors) order."""
    _head, *facets = _facets_oracle(unit)
    mass = 0.0
    for f, vocab in ((1, TEXTURE_VOCAB), (2, SPATIAL_VOCAB), (0, COLOR_VOCAB)):
        mass += sum(_dense_oracle(vocab.names, facets[f]))
    return mass


def dense_facet_bound(a, b, kernel: str) -> float:
    """The bound the scorer puts on `dense_view_part`'s facet sums: the two
    dense masses added under max, the smaller one under min and product,
    divided once by the vocabulary size 11."""
    ma, mb = dense_mass(a), dense_mass(b)
    return (ma + mb if kernel == "max" else min(ma, mb)) / len(COLOR_VOCAB.names)


def score_oracle(parents, record, query_terms, strategy: str, tconorm: str,
                 kernel: str, vocabs) -> float:
    """Score of one document for a query under vis, cx or vis+cx, from
    scratch: per query term the best unit's facet sums (dense loops over
    `vocabs`, the (color, texture, spatial) name tuples) plus
    epsilon * (mu(unit head) + mu(term head)), summed over the terms."""
    if strategy == "vis":
        units = [r for r in record.vis_records if r.vsc in parents]
        vis, cx = [(r.vsc, r.r_vsc) for r in units], []
    elif strategy == "cx":
        units = list(record.terms)
        vis, cx = [], [(c.cx, c.imp) for c in record.contextual]
    else:
        units = [e for e in record.enriched if e.vsc in parents]
        vis, cx = [(e.vsc, e.final_mu) for e in units], []
    if not units:
        return 0.0
    heads = {_facets_oracle(u)[0] for u in list(units) + list(query_terms)}
    _vis_col, _cx_col, mu = mu_table_oracle(
        parents, sorted(h for h in heads if h is not None), vis, cx, tconorm)
    k = _KERNEL_ORACLES[kernel]
    total = 0.0
    for term in query_terms:
        a = _facets_oracle(term)
        best = None
        for unit in units:
            b = _facets_oracle(unit)
            sim = 0.0
            for f, names in enumerate(vocabs, start=1):
                x, y = _dense_oracle(names, a[f]), _dense_oracle(names, b[f])
                sim += sum(k(x[j], y[j]) for j in range(len(names))) / len(names)
            if a[0] is not None and b[0] is not None:
                sim += epsilon_oracle(parents, a[0], b[0]) * (mu[b[0]] + mu[a[0]])
            best = sim if best is None or sim > best else best
        total += best
    return total


def tfidf_oracle(store, query_text: str) -> dict[str, float]:
    """Per document in store order, the plain tf-idf cosine with the query
    text: tf * ln(N/df) over the plural-folded tokens of the document's
    areas, df counted over every document; the dot product is the `sum`
    of ``w * tf * idf`` over the query terms in query order that the
    document holds, divided by the two norms; 0.0 when either norm is 0."""
    doc_tf = {doc_id: Counter(singularize(tok) for area in record.areas
                              for tok in area.tokens)
              for doc_id, record in store.records.items()}
    df = Counter(term for tf in doc_tf.values() for term in tf)
    idf = {term: math.log(len(doc_tf) / n) for term, n in df.items()}
    q_tf = Counter(singularize(tok) for tok in tokenize(query_text))
    q_weights = {term: count * idf[term]
                 for term, count in q_tf.items() if term in idf}
    q_norm = math.sqrt(sum(w * w for w in q_weights.values()))
    out = {}
    for doc_id, tf in doc_tf.items():
        weights = [count * idf[term] for term, count in tf.items()]
        norm = math.sqrt(sum(w * w for w in weights))
        if q_norm == 0.0 or norm == 0.0:
            out[doc_id] = 0.0
            continue
        dot = sum(w * tf[term] * idf[term]
                  for term, w in q_weights.items() if term in tf)
        out[doc_id] = dot / (q_norm * norm)
    return out


def argmax_pairs_oracle(values, head_imps, t_sim: float):
    """Expected (term, unit, sim) triples: per-column max with the
    near-tie rules (1e-9 band, higher head impact, lower index)."""
    pairs = []
    n_terms = len(values)
    n_units = len(values[0]) if values else 0
    for k in range(n_units):
        column = [values[i][k] for i in range(n_terms)]
        if not column:
            continue
        best = max(column)
        if best < t_sim:
            continue
        floor = max(best - 1e-9, t_sim)
        winner = None
        for i in range(n_terms):
            if column[i] < floor:
                continue
            if winner is None or head_imps[i] > head_imps[winner]:
                winner = i
        pairs.append((winner, k, column[winner]))
    return pairs


def ndcg_oracle(grades_in_rank_order, all_grades, n: int) -> float:
    import math
    dcg = sum((2 ** g - 1) / math.log2(i + 2)
              for i, g in enumerate(grades_in_rank_order[:n]))
    ideal = sorted(all_grades, reverse=True)[:n]
    idcg = sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def random_taxonomy(rng, n_concepts: int, prefix: str = "c"):
    """Random single-root DAG as (text, parents dict); node i, named
    `prefix` + i, may have one or two parents among earlier nodes."""
    names = [f"{prefix}{i}" for i in range(n_concepts)]
    parents: dict[str, tuple[str, ...]] = {names[0]: ()}
    for i in range(1, n_concepts):
        k = 1 if n_concepts < 3 or rng.random() < 0.7 else 2
        parents[names[i]] = tuple(sorted(rng.sample(names[:i], min(k, i))))
    lines = [f"{n}\t{','.join(parents[n])}\t" for n in names]
    return "\n".join(lines) + "\n", parents


def random_chain_taxonomy(rng, n_concepts: int, prefix: str = "k"):
    """Random chain as (text, parents dict): node i, named `prefix` + i,
    hangs below node i-1 and, now and then, also below a node a few
    levels further up. Each such shortcut closes a diamond with unequal
    arms, so a shortest upward chain is shorter than the longest one."""
    names = [f"{prefix}{i}" for i in range(n_concepts)]
    parents: dict[str, tuple[str, ...]] = {names[0]: ()}
    for i in range(1, n_concepts):
        above = {names[i - 1]}
        if i > 2 and rng.random() < 0.1:
            above.add(names[rng.randrange(max(0, i - 12), i - 2)])
        parents[names[i]] = tuple(sorted(above))
    lines = [f"{n}\t{','.join(parents[n])}\t" for n in names]
    return "\n".join(lines) + "\n", parents


def tag_tokens_oracle(tokens, lattice):
    """The plain tagging loop: no memo, every spatial phrase tried at
    every position, the longest match winning."""
    vocab_cats = ((SPATIAL_VOCAB, Category.SPATIAL),
                  (COLOR_VOCAB, Category.COLOR),
                  (TEXTURE_VOCAB, Category.TEXTURE))
    tokens = tuple(tokens)
    tagged = []
    i = 0
    n = len(tokens)
    while i < n:
        phrase_hit = None
        for phrase, name in SPATIAL_VOCAB.phrases.items():
            if tokens[i:i + len(phrase)] == phrase:
                if phrase_hit is None or len(phrase) > len(phrase_hit[0]):
                    phrase_hit = (phrase, name)
        if phrase_hit is not None:
            phrase, name = phrase_hit
            tagged.append(TaggedToken(" ".join(phrase), Category.SPATIAL, name))
            i += len(phrase)
            continue
        token = tokens[i]
        folded = singularize(token)
        hit = None
        for vocab, category in vocab_cats:
            name = vocab.resolve(token) or vocab.resolve(folded)
            if name is not None:
                hit = TaggedToken(token, category, name)
                break
        if hit is None:
            cid = lattice.resolve(token) or lattice.resolve(folded)
            if cid is not None:
                hit = TaggedToken(token, Category.SEM, cid)
        tagged.append(hit or TaggedToken(token, Category.OTHER))
        i += 1
    return tuple(tagged)
