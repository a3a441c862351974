import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscx import SemRelation, UnknownConceptError, ViscxError, parse_taxonomy
from viscx.membership import (MembershipTable, TConormKind, _tconorm,
                              aggregate_mu_tot)

import oracles

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
KINDS = list(TConormKind)
#: evidence weights: the bounds, a signed zero, subnormals, anything in [0,1]
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310]), UNIT)


def test_tconorm_examples():
    assert _tconorm(TConormKind.PROBABILISTIC_SUM, 0.6, 0.5) == pytest.approx(0.8)
    assert _tconorm(TConormKind.BOUNDED_SUM, 0.7, 0.7) == 1.0
    for kind in KINDS:
        assert _tconorm(kind, 0.42, 0.0) == 0.42
        assert _tconorm(kind, 0.0, 0.42) == 0.42


@settings(max_examples=300, deadline=None)
@given(UNIT, UNIT, UNIT)
def test_tconorm_laws(a, b, c):
    for kind in KINDS:
        # commutativity, associativity, monotonicity, closure
        assert _tconorm(kind, a, b) == pytest.approx(_tconorm(kind, b, a), abs=1e-12)
        left = _tconorm(kind, _tconorm(kind, a, b), c)
        right = _tconorm(kind, a, _tconorm(kind, b, c))
        assert left == pytest.approx(right, abs=1e-12)
        assert 0.0 <= left <= 1.0
        if b <= c:
            assert _tconorm(kind, a, b) <= _tconorm(kind, a, c) + 1e-12


def mu_cx(c, cx, imp, lat):
    """The membership of `c` given one contextual concept `cx`."""
    return aggregate_mu_tot([], [(cx, imp)], lat).total(c)


def mu_vsc(c, vsc, r, lat):
    """The membership of `c` given one visual semantic concept `vsc`."""
    return aggregate_mu_tot([(vsc, r)], [], lat).total(c)


def test_mu_branches(enriched_fragment):
    lat = enriched_fragment
    # generic: impact propagates unchanged to ancestors
    assert mu_cx("flower", "rose", 0.9, lat) == 0.9
    assert mu_cx("entity", "rose", 0.9, lat) == 0.9
    # equal
    assert mu_cx("rose", "rose", 0.37, lat) == 0.37
    # specific: reinforced by the normalized chain length, clamped
    assert mu_cx("rose", "flower", 0.5, lat) == pytest.approx(0.5 + 1 / 3)
    assert mu_vsc("rose", "flower", 0.8, lat) == 1.0
    # unrelated
    assert mu_cx("cathedral", "rose", 0.9, lat) == 0.0
    assert mu_vsc("cathedral", "rose", 0.9, lat) == 0.0
    with pytest.raises(UnknownConceptError):
        mu_cx("nonesuch", "rose", 0.5, lat)
    with pytest.raises(ViscxError):
        mu_cx("rose", "rose", 1.5, lat)


def test_propagation_and_specificity_laws(base_lattice):
    lat = base_lattice
    rng = random.Random(11)
    ids = lat.concept_ids()
    for _ in range(300):
        c = rng.choice(ids)
        cx = rng.choice(ids)
        imp = round(rng.uniform(0.0, 1.0), 6)
        value = mu_cx(c, cx, imp, lat)
        assert 0.0 <= value <= 1.0
        rel = lat.relation(c, cx).value
        if rel in ("equal", "generic"):
            assert value == imp
        elif rel == "specific":
            path = lat.path_length_norm(cx, c)
            if imp + path < 1.0:
                assert value > imp  # strict reinforcement
            else:
                assert value == 1.0  # clamping exercised
        else:
            assert value == 0.0


def test_aggregate_empty_context_collapses_to_vis(enriched_fragment):
    lat = enriched_fragment
    table = aggregate_mu_tot([("rose", 0.8)], [], lat,
                             TConormKind.PROBABILISTIC_SUM)
    for cid in table.universe:
        assert table.cx_side(cid) == 0.0
        assert table.total(cid) == table.vis_side(cid)


def test_aggregate_singleton_max(enriched_fragment):
    lat = enriched_fragment
    table = aggregate_mu_tot([("rose", 0.8)], [("rose", 0.9)], lat,
                             TConormKind.MAX)
    assert table.total("rose") == 0.9


def test_aggregate_matches_spec_example(enriched_fragment):
    lat = enriched_fragment
    table = aggregate_mu_tot([("rose", 0.8)], [("flower", 0.9)], lat,
                             TConormKind.PROBABILISTIC_SUM)
    assert table.total("flower") == pytest.approx(0.98)
    # rose: specific of flower on the context side, clamped to 1
    assert table.total("rose") == pytest.approx(1.0)
    assert table.total("entity") == pytest.approx(0.98)


def test_aggregate_unknown_concept(enriched_fragment):
    for vis, cx in ([("nonesuch", 0.5)], []), ([], [("nonesuch", 0.5)]):
        with pytest.raises(UnknownConceptError):
            aggregate_mu_tot(vis, cx, enriched_fragment, TConormKind.MAX)
    table = aggregate_mu_tot([], [], enriched_fragment, TConormKind.MAX)
    for read in (table.total, table.vis_side, table.cx_side):
        # a table is read at canonical ids only
        for concept in ("nonesuch", "Rose"):
            with pytest.raises(UnknownConceptError):
                read(concept)


def test_aggregate_order_invariance(base_lattice):
    lat = base_lattice
    rng = random.Random(3)
    ids = list(lat.concept_ids())
    for kind in KINDS:
        vis = [(rng.choice(ids), round(rng.uniform(0, 1), 6)) for _ in range(4)]
        cx = [(rng.choice(ids), round(rng.uniform(0, 1), 6)) for _ in range(4)]
        table = aggregate_mu_tot(vis, cx, lat, kind)
        for _ in range(3):
            rng.shuffle(vis)
            rng.shuffle(cx)
            shuffled = aggregate_mu_tot(vis, cx, lat, kind)
            for cid in ids:
                assert shuffled.total(cid) == pytest.approx(table.total(cid),
                                                            abs=1e-12)


def _random_instance(rng):
    n = rng.randint(2, 20)
    text, parents = oracles.random_taxonomy(rng, n)
    lat = parse_taxonomy(text)
    ids = list(parents)
    vis = [(rng.choice(ids), rng.random()) for _ in range(rng.randint(0, 4))]
    cx = [(rng.choice(ids), rng.random()) for _ in range(rng.randint(0, 4))]
    kind = rng.choice(["max", "psum", "bsum"])
    return lat, parents, ids, vis, cx, kind


def test_aggregate_equals_bruteforce_oracle_sample():
    rng = random.Random(99)
    for _ in range(60):
        lat, parents, ids, vis, cx, kind = _random_instance(rng)
        table = aggregate_mu_tot(vis, cx, lat, TConormKind.from_name(kind))
        vis_col, cx_col, tot_col = oracles.mu_table_oracle(
            parents, ids, vis, cx, kind)
        for cid in ids:
            assert table.vis_side(cid) == vis_col[cid]
            assert table.cx_side(cid) == cx_col[cid]
            assert table.total(cid) == tot_col[cid]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 16),
       st.lists(st.tuples(st.integers(0, 15), WEIGHTS), max_size=5),
       st.lists(st.tuples(st.integers(0, 15), WEIGHTS), max_size=5))
def test_table_and_steps_equal_the_oracles(rng, n, vis_at, cx_at):
    """On random taxonomies, every t-conorm's table equals the brute-force
    oracle at every concept, and each step of the lattice's step table is
    what `relation` and `path_length_norm` give for that pair."""
    text, parents = oracles.random_taxonomy(rng, n)
    lat = parse_taxonomy(text)
    ids = list(parents)
    vis = [(ids[i % n], w) for i, w in vis_at]
    cx = [(ids[i % n], w) for i, w in cx_at]
    for kind in KINDS:
        table = aggregate_mu_tot(vis, cx, lat, kind)
        vis_col, cx_col, tot_col = oracles.mu_table_oracle(
            parents, ids, vis, cx, kind.value)
        for cid in ids:
            assert table.total(cid) == tot_col[cid]
            assert table.vis_side(cid) == vis_col[cid]
            assert table.cx_side(cid) == cx_col[cid]
    for c in ids:
        steps = lat.membership_steps(c)
        assert set(steps) <= set(ids)
        for anchor in ids:
            rel = lat.relation(c, anchor)
            if rel is SemRelation.UNRELATED:
                assert anchor not in steps
            elif rel is SemRelation.SPECIFIC:
                assert steps[anchor] == lat.path_length_norm(anchor, c)
            else:
                assert anchor in steps and steps[anchor] is None


def test_membership_table_invariant(base_lattice):
    lat = base_lattice
    table = aggregate_mu_tot([("rose", 0.7)], [("cathedral", 0.6)], lat,
                             TConormKind.PROBABILISTIC_SUM)
    assert isinstance(table, MembershipTable)
    for cid in table.universe:
        assert table.total(cid) == _tconorm(TConormKind.PROBABILISTIC_SUM,
                                            table.vis_side(cid),
                                            table.cx_side(cid))
        assert 0.0 <= table.total(cid) <= 1.0


def test_table_computes_on_first_read_and_memoises(base_lattice):
    lat = base_lattice
    vis, cx = [("rose", 0.7), ("sky", 0.4)], [("flower", 0.6)]
    table = aggregate_mu_tot(vis, cx, lat)
    first = table.total("flower")
    assert table.total("flower") is first
    assert first == _tconorm(TConormKind.PROBABILISTIC_SUM,
                             table.vis_side("flower"), table.cx_side("flower"))
    # evidence given as synonyms or in another case resolves to the same table
    tokens = aggregate_mu_tot([("Rose", 0.7), ("sky", 0.4)], [("FLOWER", 0.6)],
                              lat)
    assert tokens.universe == table.universe == lat.concept_ids()
    assert tokens.total("flower") == first


@pytest.mark.parametrize("vis, cx", [
    ([("rose", 1.5)], []),
    ([("rose", float("nan"))], []),
    ([], [("rose", -0.1)]),
])
def test_aggregate_rejects_out_of_range_evidence_eagerly(base_lattice, vis, cx):
    with pytest.raises(ViscxError):
        aggregate_mu_tot(vis, cx, base_lattice)
