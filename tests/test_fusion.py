import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from viscx import (COLOR_NAMES, SPATIAL_NAMES, TEXTURE_NAMES, PipelineConfig,
                   UnknownConceptError, VisRecord)
from viscx.context import SyntacticTerm
from viscx.fusion import (FacetKernel, FusionProvenance, best_correspondences,
                          enrich_records, fuse, scoring_view,
                          structure_similarity, view_mass, view_part,
                          view_similarity)
from viscx.membership import TConormKind, aggregate_mu_tot

import oracles


class table_of:
    """A stand-in membership table with the given totals, raising as the
    real one does at a concept it cannot read."""

    def __init__(self, values: dict[str, float]):
        self.values = values

    def total(self, concept: str) -> float:
        if concept not in self.values:
            raise UnknownConceptError(concept)
        return self.values[concept]


def term(head, imp=0.9, colors=(), textures=(), spatials=()):
    return SyntacticTerm((head, imp) if head else None,
                         frozenset(colors), frozenset(textures),
                         frozenset(spatials))


def test_similarity_identity_semantic_only(enriched_fragment):
    st = term("rose")
    vis = VisRecord("vo1", "rose", 0.8)
    table = table_of({"rose": 0.9})
    value = structure_similarity(st, vis, table, enriched_fragment)
    assert value == pytest.approx(1.8)  # eps=1 times (0.9 + 0.9), zero facets


def test_similarity_worked_example(enriched_fragment):
    lat = enriched_fragment
    st = term("flower", 0.9, colors={("red", 0.9)})
    vis = VisRecord("vo1", "rose", 0.8, colors={"red": 0.55})
    table = aggregate_mu_tot([("rose", 0.8)], [("flower", 0.9)], lat,
                             TConormKind.PROBABILISTIC_SUM)
    value = structure_similarity(st, vis, table, lat, FacetKernel.MAX)
    # color: max(0.9, 0.55)/11; semantic: eps(rose, flower)=0.5 times
    # (mu_tot(rose) + mu_tot(flower)) = 0.5 * (1.0 + 0.98)
    expected = 0.9 / 11 + 0.5 * (table.total("rose") + table.total("flower"))
    assert value == pytest.approx(expected)
    assert value == pytest.approx(0.9 / 11 + 0.99)


def test_similarity_headless_term_is_facets_only(enriched_fragment):
    st = term(None, colors={("red", 0.9)})
    vis = VisRecord("vo1", "rose", 0.8, colors={"red": 0.55})
    table = table_of({"rose": 0.9})
    value = structure_similarity(st, vis, table, enriched_fragment,
                                 FacetKernel.MIN)
    assert value == pytest.approx(0.55 / 11)


def test_similarity_missing_concept_errors(enriched_fragment):
    st = term("rose")
    vis = VisRecord("vo1", "rose", 0.8)
    with pytest.raises(UnknownConceptError):
        structure_similarity(st, vis, table_of({"flower": 0.5}),
                             enriched_fragment)


def test_similarity_unknown_record_head_raises_only_against_a_head(
        enriched_fragment):
    vis = VisRecord("vo1", "tulip", 0.8, colors={"red": 0.55})
    table = table_of({"rose": 0.9})
    headless = term(None, colors={("red", 0.9)})
    value = structure_similarity(headless, vis, table, enriched_fragment,
                                 FacetKernel.MIN)
    assert value == pytest.approx(0.55 / 11)
    with pytest.raises(UnknownConceptError, match="tulip"):
        structure_similarity(term("rose"), vis, table, enriched_fragment)


def test_similarity_term_to_term(enriched_fragment):
    a = term("rose", 0.9, textures={("whirly", 0.9)})
    b = term("rose", 0.5, textures={("whirly", 0.5)})
    table = table_of({"rose": 0.8})
    value = structure_similarity(a, b, table, enriched_fragment, FacetKernel.MIN)
    assert value == pytest.approx(0.5 / 11 + 1.0 * (0.8 + 0.8))


def test_similarity_nonnegative_and_monotone(enriched_fragment):
    lat = enriched_fragment
    table = table_of({"rose": 0.6, "flower": 0.5})
    vis = VisRecord("vo1", "rose", 0.8, colors={"red": 0.4},
                    textures={"lined": 0.3})
    rng = random.Random(1)
    for kernel in FacetKernel:
        prev = None
        for weight in (0.0, 0.2, 0.5, 0.8, 1.0):
            st = term("flower", 0.9, colors={("red", weight)})
            value = structure_similarity(st, vis, table, lat, kernel)
            assert value >= 0.0
            if prev is not None:
                assert value >= prev - 1e-12
            prev = value
        # symmetry of the facet part under max: swap the facet vectors
        a = term(None, colors={("red", rng.random())})
        b = term(None, colors={("red", rng.random())})
        if kernel is FacetKernel.MAX:
            assert (structure_similarity(a, b, table, lat, kernel)
                    == structure_similarity(b, a, table, lat, kernel))


HEADS = ("flower", "rose", "building", "cathedral", "entity")
weights = hst.floats(0.0, 1.0)
shares = hst.floats(0.0, 0.25)  # a record's (at most 4) colors sum to <= 1


def facet_pairs(names):
    return hst.frozensets(hst.tuples(hst.sampled_from(names), weights),
                          max_size=4)


terms = hst.builds(
    SyntacticTerm,
    hst.one_of(hst.none(), hst.tuples(hst.sampled_from(HEADS), weights)),
    facet_pairs(COLOR_NAMES), facet_pairs(TEXTURE_NAMES),
    facet_pairs(SPATIAL_NAMES))
records = hst.builds(
    VisRecord, hst.just("vo1"), hst.sampled_from(HEADS), weights,
    hst.dictionaries(hst.sampled_from(COLOR_NAMES), shares, max_size=4),
    hst.dictionaries(hst.sampled_from(TEXTURE_NAMES), weights, max_size=4),
    hst.frozensets(hst.tuples(hst.sampled_from(SPATIAL_NAMES),
                              hst.just("vo2")), max_size=3))


@settings(max_examples=200, deadline=None)
@given(term_=terms, unit=hst.one_of(terms, records),
       mus=hst.fixed_dictionaries({head: weights for head in HEADS}),
       kernel=hst.sampled_from(list(FacetKernel)))
def test_view_similarity_is_view_part_plus_membership(base_lattice, term_,
                                                      unit, mus, kernel):
    """Bit for bit: the facet sums and epsilon of `view_part`, plus
    epsilon times the two heads' membership, unit head first; no epsilon
    (and no membership read) when either view is headless."""
    lat = base_lattice
    a, b = scoring_view(term_, lat), scoring_view(unit, lat)
    facets, eps = view_part(a, b, lat, kernel)
    if a[0] is None or b[0] is None:
        assert eps is None
        # an empty table raises on any read
        assert view_similarity(a, b, table_of({}), lat, kernel) == facets
    else:
        assert eps == lat.path_sim_epsilon(a[0], b[0])
        assert (view_similarity(a, b, table_of(mus), lat, kernel)
                == facets + eps * (mus[b[0]] + mus[a[0]]))


# edge weights: both zeros pass the [0,1] checks, and the product of two
# subnormals underflows to 0.0
edge_weights = hst.one_of(weights, hst.sampled_from((0.0, -0.0, 1.0, 5e-324)),
                          hst.floats(0.0, sys.float_info.min))
edge_shares = hst.one_of(shares, hst.sampled_from((0.0, -0.0, 5e-324)),
                         hst.floats(0.0, sys.float_info.min))


def few(names):
    """Four names spread over the vocabulary, so that two units often
    share an entry and a term often repeats a name."""
    return hst.sampled_from(names[::3])


def edge_pairs(names):
    return hst.frozensets(hst.tuples(few(names), edge_weights), max_size=4)


edge_terms = hst.builds(
    SyntacticTerm,
    hst.one_of(hst.none(), hst.tuples(hst.sampled_from(HEADS), edge_weights)),
    edge_pairs(COLOR_NAMES), edge_pairs(TEXTURE_NAMES),
    edge_pairs(SPATIAL_NAMES))
edge_records = hst.builds(
    VisRecord, hst.just("vo1"), hst.sampled_from(HEADS), edge_weights,
    hst.dictionaries(few(COLOR_NAMES), edge_shares, max_size=4),
    hst.dictionaries(few(TEXTURE_NAMES), edge_weights, max_size=4),
    hst.frozensets(hst.tuples(few(SPATIAL_NAMES),
                              hst.sampled_from(("vo2", "vo3", "vo4"))),
                   max_size=5))


@settings(max_examples=400, deadline=None)
@given(a=edge_terms, b=hst.one_of(edge_terms, edge_records),
       kernel=hst.sampled_from(list(FacetKernel)))
@example(a=term(None, textures={("bumpy", 5e-324), ("bumpy", 0.5)}),
         b=VisRecord("vo1", "rose", 0.5, textures={"bumpy": 5e-324},
                     spatial=frozenset({("left", "vo2"), ("left", "vo3")})),
         kernel=FacetKernel.PRODUCT)
@example(a=term("rose", -0.0, colors={("red", -0.0)}),
         b=term("flower", 1.0, colors={("red", 0.0)}, spatials={("far", 1.0)}),
         kernel=FacetKernel.MAX)
def test_sparse_view_part_equals_the_dense_oracle(base_lattice, a, b, kernel):
    """Bit for bit: `view_part` on the sparse views of a term and a term or
    record equals the dense 11-entry sums and epsilon of the oracle."""
    lat = base_lattice
    got = view_part(scoring_view(a, lat), scoring_view(b, lat), lat, kernel)
    want = oracles.dense_view_part(a, b, lat, kernel.value)
    assert got == want and repr(got) == repr(want)


#: the largest float gap allowed between a bound and what it bounds: values
#: here are at most 66 / 11, whose ulp is below 1e-15
ROUNDING = 1e-12


@settings(max_examples=400, deadline=None)
@given(a=hst.one_of(terms, edge_terms),
       b=hst.one_of(terms, records, edge_terms, edge_records),
       kernel=hst.sampled_from(list(FacetKernel)))
@example(a=term(None, colors={("red", 1.0), ("red", -0.0)},
                textures={("bumpy", 5e-324)}),
         b=VisRecord("vo1", "rose", 0.5, colors={"red": 0.0},
                     spatial=frozenset({("left", "vo2"), ("far", "vo3")})),
         kernel=FacetKernel.MAX)
@example(a=term(None, textures={("bumpy", 0.5)}, spatials={("covers", 0.65234375)}),
         b=term(None), kernel=FacetKernel.MAX)  # the bound is one ulp low
def test_the_facet_bound_never_undercuts_the_facet_sums(base_lattice, a, b,
                                                       kernel):
    """`view_mass` is the dense mass bit for bit, and the mass bound the
    scorer ranks by is at least `view_part`'s facet sums, but for float
    rounding: the bound divides once where the sums divide per facet, so it
    may fall below them by a few ulps, far under the 1e-9 slack of
    `retrieval.BOUND_SLACK`."""
    lat = base_lattice
    va, vb = scoring_view(a, lat), scoring_view(b, lat)
    assert view_mass(va) == oracles.dense_mass(a)
    assert view_mass(vb) == oracles.dense_mass(b)
    facets, _eps = view_part(va, vb, lat, kernel)
    assert facets - oracles.dense_facet_bound(a, b, kernel.value) <= ROUNDING


def test_equal_units_give_equal_hashable_views(base_lattice):
    """A record and a term with the same head and non-zero weights give
    one view, whatever their ids, zero weights, recognition probability,
    impacts or spatial targets; the view can key a dict."""
    lat = base_lattice
    record = VisRecord("vo1", "rose", 0.8, colors={"red": 0.5, "blue": 0.0},
                       textures={"lined": 0.3},
                       spatial=frozenset({("left", "vo2"), ("left", "vo3")}))
    same = VisRecord("vo7", "rose", 0.2, colors={"red": 0.5},
                     textures={"lined": 0.3},
                     spatial=frozenset({("left", "vo9")}))
    as_term = term("rose", 0.4, colors={("red", 0.5), ("red", 0.1)},
                   textures={("lined", 0.3)}, spatials={("left", 1.0)})
    views = [scoring_view(unit, lat) for unit in (record, same, as_term)]
    assert views[0] == views[1] == views[2]
    assert len({view: None for view in views}) == 1
    other = term("rose", 0.4, colors={("red", 0.6)}, textures={("lined", 0.3)},
                 spatials={("left", 1.0)})
    assert scoring_view(other, lat) != views[0]


def best_pairs(values, head_imps, t_sim):
    """`best_correspondences` on the columns of a term-major matrix, read
    as the oracle's (term, record, sim) triples of the matched columns."""
    columns = list(zip(*values))
    winners = best_correspondences(columns, head_imps, t_sim)
    assert len(winners) == len(columns)
    return [(i, k, columns[k][i]) for k, i in enumerate(winners)
            if i is not None]


def test_best_correspondences_trivial_and_floor():
    assert best_correspondences([(0.7,)], (0.9,), 0.1) == [0]
    assert best_pairs(((0.7,),), (0.9,), 0.1) == [(0, 0, 0.7)]

    pairs = best_pairs(((0.9, 0.2), (0.1, 0.8)), (0.9, 0.9), 0.1)
    assert [(i, k) for i, k, _sim in pairs] == [(0, 0), (1, 1)]

    # column max below the floor: that record goes unmatched
    assert best_correspondences([(0.04,), (0.9,)], (0.9,), 0.05) == [None, 0]
    pairs = best_pairs(((0.04, 0.9),), (0.9,), 0.05)
    assert [(i, k) for i, k, _sim in pairs] == [(0, 1)]


def test_best_correspondences_tie_breaks_by_head_imp_then_index():
    values, t_sim = ((0.5,), (0.5,)), PipelineConfig().t_sim
    assert best_correspondences(zip(*values), (0.5, 0.9), t_sim) == [1]
    assert best_correspondences(zip(*values), (0.9, 0.9), t_sim) == [0]


def test_best_correspondences_empty():
    assert best_correspondences([], (), 0.05) == []
    # a record with no terms to match, or left out of matching, wins none
    assert best_correspondences([(), ()], (), 0.05) == [None, None]
    assert best_correspondences([(), ()], (), 0.0) == [None, None]


def test_best_correspondences_matches_bruteforce():
    rng = random.Random(42)
    config = PipelineConfig(t_sim=0.05)
    for _ in range(400):
        n_terms = rng.randint(1, 6)
        n_units = rng.randint(1, 6)
        values = tuple(
            tuple(round(rng.random(), 3) for _ in range(n_units))
            for _ in range(n_terms))
        head_imps = tuple(rng.choice([0.5, 0.7, 0.9]) for _ in range(n_terms))
        got = best_pairs(values, head_imps, config.t_sim)
        assert got == oracles.argmax_pairs_oracle(values, head_imps, config.t_sim)


def fuse_with(mu_vsc_val, mu_cx_val, vis_concept, cx_concept, lattice,
              config=None):
    vis = VisRecord("vo1", vis_concept, 0.8)
    st = term(cx_concept)
    table = table_of({vis_concept: mu_vsc_val, cx_concept: mu_cx_val})
    return fuse(vis, st, table, lattice, config or PipelineConfig())


def test_fuse_replaces_with_more_specific(enriched_fragment):
    enriched = fuse_with(0.70, 0.72, "flower", "rose", enriched_fragment)
    assert enriched.vsc == "rose"
    assert enriched.original_vsc == "flower"
    assert enriched.final_mu == pytest.approx(0.72)
    assert enriched.provenance.decision == "replaced"


def test_fuse_keeps_already_specific(enriched_fragment):
    enriched = fuse_with(0.9, 0.88, "rose", "flower", enriched_fragment)
    assert enriched.vsc == "rose"
    assert enriched.final_mu == pytest.approx(0.9)
    assert enriched.provenance.decision == "kept"


def test_fuse_correction_installs_higher_mu(enriched_fragment):
    enriched = fuse_with(0.2, 0.85, "building", "cathedral", enriched_fragment)
    assert enriched.vsc == "cathedral"
    assert enriched.final_mu == pytest.approx(0.85)
    assert enriched.provenance.decision == "corrected"
    # and the mirror case keeps the visual concept
    enriched = fuse_with(0.85, 0.2, "building", "cathedral", enriched_fragment)
    assert enriched.vsc == "building"
    assert enriched.provenance.decision == "kept"
    assert enriched.final_mu == pytest.approx(0.85)


def test_fuse_literal_mode_follows_printed_rule(enriched_fragment):
    config = PipelineConfig(fusion_literal=True)
    # negative difference keeps the visual concept even though the
    # context one scores higher
    enriched = fuse_with(0.2, 0.85, "building", "cathedral",
                         enriched_fragment, config)
    assert enriched.vsc == "building"
    # positive difference installs the context concept
    enriched = fuse_with(0.85, 0.2, "building", "cathedral",
                         enriched_fragment, config)
    assert enriched.vsc == "cathedral"


def test_fuse_unrelated_in_band_keeps(enriched_fragment):
    enriched = fuse_with(0.8, 0.85, "rose", "cathedral", enriched_fragment)
    assert enriched.vsc == "rose"
    assert enriched.provenance.branch == "correspondence_unrelated"


def test_fuse_never_generalizes_in_band(base_lattice):
    rng = random.Random(17)
    ids = list(base_lattice.concept_ids())
    config = PipelineConfig()
    for _ in range(300):
        vis_concept, cx_concept = rng.choice(ids), rng.choice(ids)
        mu_v = round(rng.random(), 3)
        mu_c = min(1.0, max(0.0, mu_v + rng.uniform(-0.1, 0.1)))
        enriched = fuse_with(mu_v, round(mu_c, 3), vis_concept, cx_concept,
                             base_lattice)
        assert enriched.final_mu == max(enriched.provenance.mu_vsc,
                                        enriched.provenance.mu_cx)
        if enriched.vsc != enriched.original_vsc:
            # replacement inside the band only toward specificity
            assert base_lattice.relation(enriched.vsc,
                                         enriched.original_vsc).value == "specific"


def test_fuse_headless_term_keeps(enriched_fragment):
    vis = VisRecord("vo1", "rose", 0.8)
    st = term(None, colors={("red", 0.9)})
    table = table_of({"rose": 0.77})
    enriched = fuse(vis, st, table, enriched_fragment, PipelineConfig())
    assert enriched.vsc == "rose"
    assert enriched.final_mu == pytest.approx(0.77)
    assert enriched.provenance.branch == "headless"


def test_keep_unmatched(enriched_fragment):
    vis = VisRecord("vo1", "rose", 0.8)
    table = table_of({"rose": 0.66})
    enriched = fuse(vis, None, table, enriched_fragment, PipelineConfig())
    assert enriched.vsc == "rose" and enriched.final_mu == pytest.approx(0.66)
    assert enriched.provenance.branch == "unmatched"


def test_fuse_keeps_an_unknown_concept_with_its_recognition_probability(
        enriched_fragment):
    """A concept the lattice does not know reads no table, with a term or
    without one."""
    vis = VisRecord("vo1", "tulip", 0.4, colors={"red": 0.5})
    for st in (None, term("rose"), term(None, colors={("red", 0.9)})):
        enriched = fuse(vis, st, table_of({}), enriched_fragment,
                        PipelineConfig())
        assert enriched.provenance == FusionProvenance(
            "unknown_concept", None, 0.4, None)
        assert enriched.vsc == "tulip" and enriched.final_mu == 0.4
        assert enriched.vis is vis


def test_enrich_records_is_deterministic(enriched_fragment):
    lat = enriched_fragment
    records = [VisRecord("vo1", "flower", 0.7, colors={"red": 0.5}),
               VisRecord("vo2", "building", 0.9)]
    terms = [term("rose", 0.9, colors={("red", 0.9)}), term("cathedral", 0.5)]
    table = aggregate_mu_tot([("flower", 0.7), ("building", 0.9)],
                             [("rose", 0.9), ("cathedral", 0.5)], lat,
                             TConormKind.PROBABILISTIC_SUM)
    first = enrich_records(records, terms, table, lat, PipelineConfig())
    second = enrich_records(records, terms, table, lat, PipelineConfig())
    assert first == second
    assert [e.vo_id for e in first] == ["vo1", "vo2"]


def dense_enrich(records, terms, table, lattice, config):
    """Each record's provenance, read from a term-by-known-record matrix of
    `structure_similarity` values through its brute-force argmax pairs and
    `fuse`; the provenance of a record left unmatched is written out
    here."""
    known = [k for k, record in enumerate(records) if record.vsc in lattice]
    values = [[structure_similarity(st, records[k], table, lattice,
                                    config.kernel) for k in known]
              for st in terms]
    head_imps = [st.head[1] if st.head is not None else 0.0 for st in terms]
    matched = {known[k]: terms[i] for i, k, _sim in
               oracles.argmax_pairs_oracle(values, head_imps, config.t_sim)}
    out = []
    for k, record in enumerate(records):
        if k in matched:
            out.append(fuse(record, matched[k], table, lattice,
                            config).provenance)
        elif k in known:
            out.append(FusionProvenance(
                "unmatched", None, table.total(lattice.require(record.vsc))))
        else:
            out.append(FusionProvenance("unknown_concept", None, record.r_vsc))
    return out


def random_document(rng, concepts):
    """Records, terms and contextual evidence over a few concepts and
    weights, so equal facets, and exact ties of similarity between sibling
    heads of equal membership, are common; some records' concepts are
    unknown to the lattice."""
    def weights(names):
        return {name: rng.choice([0.3, 0.5])
                for name in rng.sample(names, rng.randint(0, 2))}

    records = [VisRecord(f"vo{k}", rng.choice(concepts + ["zzz", "qqq"]),
                         rng.choice([0.2, 0.6, 0.9]), weights(COLOR_NAMES),
                         weights(TEXTURE_NAMES),
                         frozenset((rel, "vo0") for rel in
                                   rng.sample(SPATIAL_NAMES, rng.randint(0, 1))))
               for k in range(rng.randint(0, 5))]
    terms = []
    for _ in range(rng.randint(0, 5)):
        if terms and rng.random() < 0.4:  # the same facets, another head
            st = rng.choice(terms)
            head = rng.choice([st.head and st.head[0]] + concepts)
            terms.append(SyntacticTerm(head and (head, rng.choice([0.5, 0.9])),
                                       st.colors, st.textures, st.spatials))
            continue
        head = rng.choice(concepts + [None])
        terms.append(term(head, rng.choice([0.5, 0.9]),
                          weights(COLOR_NAMES).items(),
                          weights(TEXTURE_NAMES).items(),
                          weights(SPATIAL_NAMES).items()))
    contextual = [(c, rng.choice([0.5, 0.9]))
                  for c in rng.sample(concepts, rng.randint(0, 3))]
    return records, terms, contextual


def test_enrich_records_equals_a_dense_reference(base_lattice):
    """One column per known record, one winner per column, `fuse` for every
    record: the same provenance as the term-by-record matrix, over
    documents with no terms, no known record, unknown records between
    known ones and exact ties of similarity."""
    lat = base_lattice
    concepts = ["flower", "rose", "tulip", "daisy", "building", "cathedral",
                "church", "sky", "entity"]
    rng = random.Random(29)
    seen = dict.fromkeys(("no terms", "no known record", "unknown between",
                          "tie decided", "matched"), 0)
    for _ in range(1500):
        records, terms, contextual = random_document(rng, concepts)
        config = PipelineConfig(kernel=rng.choice(list(FacetKernel)),
                                t_sim=rng.choice([0.0, 0.05, 0.5]),
                                t_mu=rng.choice([0.05, 0.3]),
                                fusion_literal=rng.random() < 0.3)
        table = aggregate_mu_tot(
            [(r.vsc, r.r_vsc) for r in records if r.vsc in lat], contextual,
            lat, TConormKind.PROBABILISTIC_SUM)
        got = enrich_records(records, terms, table, lat, config)
        expected = dense_enrich(records, terms, table, lat, config)
        assert [e.provenance for e in got] == expected
        assert [e.vis for e in got] == records
        assert all(e.vis is record for e, record in zip(got, records))

        known = [r.vsc in lat for r in records]
        seen["no terms"] += not terms and any(known)
        seen["no known record"] += bool(records and terms) and not any(known)
        seen["unknown between"] += any(
            known[a] and not known[b] and known[c]
            for a in range(len(known)) for b in range(a + 1, len(known))
            for c in range(b + 1, len(known)))
        seen["matched"] += any(p.branch not in ("unmatched", "unknown_concept")
                               for p in expected)
        for record in (r for r in records if r.vsc in lat):
            sims = [structure_similarity(st, record, table, lat, config.kernel)
                    for st in terms]
            tied = [st.head for st, v in zip(terms, sims)
                    if v == max(sims) >= config.t_sim]
            seen["tie decided"] += (  # the winner's head depends on the rule
                len({head and head[0] for head in tied}) > 1
                and len({head and head[1] for head in tied}) > 1)
    assert all(count >= 10 for count in seen.values()), seen
