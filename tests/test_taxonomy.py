import itertools
import random
import time

import pytest

from viscx import (Concept, SemRelation, TaxonomyError, UnknownConceptError,
                   UnrelatedConceptsError, bundled_taxonomy_path,
                   insert_concept, load_taxonomy, parse_taxonomy)

import oracles


def test_fragment_loads_with_expected_shape(fragment_lattice):
    assert len(fragment_lattice) == 5
    assert fragment_lattice.longest_path == 2
    assert {cid: fragment_lattice.parents(cid)
            for cid in fragment_lattice.concept_ids()} == {
        "entity": (), "vegetation": ("entity",), "flower": ("vegetation",),
        "construction": ("entity",), "building": ("construction",)}


def test_bundled_taxonomy_shape(base_lattice):
    assert base_lattice.longest_path == 3
    assert [cid for cid in base_lattice.concept_ids()
            if not base_lattice.parents(cid)] == ["entity"]
    for cid in ("entity", "vegetation", "flower", "rose", "construction",
                "building", "cathedral"):
        assert cid in base_lattice


def test_empty_taxonomy_rejected():
    with pytest.raises(TaxonomyError, match="no roots"):
        parse_taxonomy("")
    with pytest.raises(TaxonomyError, match="no roots"):
        parse_taxonomy("# only a comment\n")


def test_two_cycle_rejected_with_edges():
    text = "flower\trose\t\nrose\tflower\t\n"
    with pytest.raises(TaxonomyError) as err:
        parse_taxonomy(text)
    message = str(err.value)
    assert "cycle" in message
    assert "('flower', 'rose')" in message and "('rose', 'flower')" in message


def test_dangling_parent_named():
    with pytest.raises(TaxonomyError, match="unknown parent 'plant'"):
        parse_taxonomy("flower\tplant\t\n")


def test_duplicate_concept_rejected():
    with pytest.raises(TaxonomyError, match="duplicate concept id"):
        parse_taxonomy("entity\t\t\nentity\t\t\n")


def test_synonym_clash_rejected():
    with pytest.raises(TaxonomyError, match="synonym"):
        parse_taxonomy("entity\t\t\nflower\tentity\tentity\n")


def test_a_fourth_field_is_refused_with_its_line():
    with pytest.raises(TaxonomyError,
                       match=r"^<string>:2: expected at most 3 tab-separated "
                             r"fields, got 4$"):
        parse_taxonomy("flower\t\t\nrose\tflower\tbloom\textra\n")


@pytest.mark.parametrize("synonym", ["x-y", "fl ower", "9lives", "r\u00f6se"])
def test_a_synonym_off_the_id_pattern_is_refused(fragment_lattice, synonym):
    with pytest.raises(TaxonomyError,
                       match=rf"^<string>:2: invalid synonym {synonym!r} "
                             r"of 'rose'$"):
        parse_taxonomy(f"flower\t\t\nrose\tflower\tbloom,{synonym}\n")
    with pytest.raises(TaxonomyError, match="invalid synonym"):
        insert_concept(fragment_lattice,
                       Concept("rose", frozenset({synonym})), ["flower"])


def test_taxonomy_lines_end_at_newline_only(tmp_path):
    """A line separator other than ``\\n`` stays inside its field, where
    the id pattern refuses it, instead of starting a record; a CRLF file
    reads as its LF text, with the same fingerprint."""
    with pytest.raises(TaxonomyError,
                       match=r"^<string>:2: invalid synonym 'bloom\\x1cx'"):
        parse_taxonomy("flower\t\t\nrose\tflower\tbloom\x1cx\n")
    text = bundled_taxonomy_path().read_text(encoding="utf-8")
    path = tmp_path / "crlf.tsv"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    lf = parse_taxonomy(text)
    for crlf in (parse_taxonomy(text.replace("\n", "\r\n")), load_taxonomy(path)):
        assert (crlf._concepts, crlf._parents) == (lf._concepts, lf._parents)
    assert (load_taxonomy(path).fingerprint
            == load_taxonomy(bundled_taxonomy_path()).fingerprint)


def test_taxonomy_skips_an_indented_comment():
    lat = parse_taxonomy("entity\t\t\n  # note\tentity\n\t# a\tb\tc\td\n"
                         "flower\tentity\t\n")
    assert lat.concept_ids() == ("entity", "flower")


def test_a_lone_carriage_return_ends_a_file_line_but_not_a_text_line(tmp_path):
    path = tmp_path / "cr.tsv"
    path.write_bytes(b"entity\t\t\rflower\tentity\t\r")
    lf = parse_taxonomy("entity\t\t\nflower\tentity\t\n")
    assert load_taxonomy(path).concept_ids() == ("entity", "flower")
    assert load_taxonomy(path).fingerprint == lf.fingerprint
    with pytest.raises(TaxonomyError, match=r"^<string>:1: expected at most 3"):
        parse_taxonomy("entity\t\t\rflower\tentity\t\r")


def test_unreadable_taxonomy_file_names_the_path(tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_bytes(b"entity\t\t\n\xff")
    with pytest.raises(TaxonomyError, match=f"cannot read taxonomy .*{path.name}"):
        load_taxonomy(path)
    with pytest.raises(TaxonomyError, match="cannot read taxonomy .*missing"):
        load_taxonomy(tmp_path / "missing.tsv")


def test_insert_specializes(fragment_lattice):
    lat = insert_concept(fragment_lattice, Concept("rose"), ["flower"])
    assert lat.relation("rose", "flower") is SemRelation.SPECIFIC
    lat = insert_concept(lat, Concept("cathedral"), ["building"])
    assert lat.relation("cathedral", "building") is SemRelation.SPECIFIC
    assert lat.longest_path == 3


def test_insert_existing_is_noop(fragment_lattice):
    assert insert_concept(fragment_lattice, Concept("flower"),
                          ["vegetation"]) is fragment_lattice
    # synonym of an existing concept resolves and no-ops too
    lat = insert_concept(fragment_lattice, Concept("peony", frozenset({"paeony"})),
                         ["flower"])
    assert insert_concept(lat, Concept("paeony"), ["flower"]) is lat


def test_insert_unknown_parent(fragment_lattice):
    with pytest.raises(UnknownConceptError, match="unknown parent"):
        insert_concept(fragment_lattice, Concept("rose"), ["shrub"])


def test_relation_examples(enriched_fragment):
    lat = enriched_fragment
    assert lat.relation("flower", "rose") is SemRelation.GENERIC
    assert lat.relation("rose", "rose") is SemRelation.EQUAL
    assert lat.relation("rose", "cathedral") is SemRelation.UNRELATED
    with pytest.raises(UnknownConceptError):
        lat.relation("rose", "nonesuch")


def test_path_length_norm_examples(enriched_fragment):
    lat = enriched_fragment
    assert lat.longest_path == 3
    assert lat.path_length_norm("rose", "flower") == pytest.approx(1 / 3)
    assert lat.path_length_norm("rose", "rose") == 0.0
    assert lat.path_length_norm("rose", "entity") == pytest.approx(1.0)
    with pytest.raises(UnrelatedConceptsError):
        lat.path_length_norm("rose", "cathedral")


@pytest.mark.parametrize("bottom_parents", ["r2,left", "left,r2"])
def test_diamond_with_unequal_arms_takes_the_shortest_chain(bottom_parents):
    # bottom reaches top in 2 edges through left and in 3 through r2 and r1
    lat = parse_taxonomy("top\t\t\nleft\ttop\t\nr1\ttop\t\nr2\tr1\t\n"
                         f"bottom\t{bottom_parents}\t\n")
    assert lat.longest_path == 3
    assert lat.relation("bottom", "top") is SemRelation.SPECIFIC
    assert lat.relation("left", "r2") is SemRelation.UNRELATED
    assert lat.path_length_norm("bottom", "top") == 2 / 3
    assert lat.path_length_norm("top", "bottom") == 2 / 3
    assert lat.path_length_norm("bottom", "r1") == 2 / 3
    assert lat.membership_steps("bottom") == {
        "bottom": None, "top": 2 / 3, "left": 1 / 3, "r1": 2 / 3, "r2": 1 / 3}
    assert lat.membership_steps("top") == dict.fromkeys(lat.concept_ids())
    # a concept added below keeps the short arm
    deeper = insert_concept(lat, Concept("base"), ["bottom"])
    assert deeper.longest_path == 4
    assert deeper.path_length_norm("base", "top") == 3 / 4


def test_epsilon_examples(enriched_fragment):
    lat = enriched_fragment
    assert lat.path_sim_epsilon("rose", "rose") == 1.0
    assert lat.path_sim_epsilon("rose", "flower") == pytest.approx(0.5)
    # rose-flower-vegetation-entity-construction-building-cathedral
    assert lat.path_sim_epsilon("rose", "cathedral") == pytest.approx(1 / 7)


def test_synonyms_resolve(base_lattice):
    assert base_lattice.resolve("people") == "person"
    assert base_lattice.relation("people", "person") is SemRelation.EQUAL
    assert base_lattice.resolve("OCEAN") == "sea"
    assert base_lattice.resolve("nonesuch") is None


def test_resolve_matches_the_normalizing_lookup(base_lattice):
    """`resolve` returns a canonical id as given, before normalizing; every
    id, synonym and padded or upper-case variant resolves as the plain
    lookup of the stripped, lowercased token in the taxonomy file."""
    names: dict[str, str] = {}
    for line in bundled_taxonomy_path().read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            cid, _parents, synonyms = (line.split("\t") + ["", ""])[:3]
            names[cid] = cid
            names.update((syn, cid) for syn in synonyms.split(",") if syn)
    assert set(names.values()) == set(base_lattice.concept_ids())
    assert len(names) > len(base_lattice)  # synonyms are covered too
    for name in names:
        for token in (name, f"  {name}\t", name.upper(), f" {name.title()} "):
            assert base_lattice.resolve(token) == names.get(
                token.strip().lower()), token
    assert base_lattice.resolve(" nonesuch ") is None


def test_relation_antisymmetry_all_pairs(base_lattice):
    ids = base_lattice.concept_ids()
    parents = {cid: base_lattice.parents(cid) for cid in ids}
    for a, b in itertools.product(ids, repeat=2):
        rel = base_lattice.relation(a, b)
        back = base_lattice.relation(b, a)
        if rel is SemRelation.SPECIFIC:
            assert back is SemRelation.GENERIC
        elif rel is SemRelation.GENERIC:
            assert back is SemRelation.SPECIFIC
        else:
            assert back is rel
        assert rel.value == oracles.relation_oracle(parents, a, b)


def test_path_symmetry_and_zero_iff_equal(base_lattice):
    ids = base_lattice.concept_ids()
    for a, b in itertools.product(ids, repeat=2):
        if base_lattice.relation(a, b) is SemRelation.UNRELATED:
            continue
        d_ab = base_lattice.path_length_norm(a, b)
        assert d_ab == base_lattice.path_length_norm(b, a)
        assert (d_ab == 0.0) == (a == b)
        assert 0.0 <= d_ab <= 1.0


def test_epsilon_properties_all_pairs(base_lattice):
    ids = base_lattice.concept_ids()
    parents = {cid: base_lattice.parents(cid) for cid in ids}
    for a, b in itertools.product(ids, repeat=2):
        eps = base_lattice.path_sim_epsilon(a, b)
        assert eps == base_lattice.path_sim_epsilon(b, a)
        assert 0.0 <= eps <= 1.0
        assert (eps == 1.0) == (a == b)
        assert eps == pytest.approx(oracles.epsilon_oracle(parents, a, b))


def test_insertion_is_conservative(base_lattice):
    before = {}
    ids = base_lattice.concept_ids()
    for a, b in itertools.product(ids, repeat=2):
        before[(a, b)] = base_lattice.relation(a, b)
    extended = insert_concept(base_lattice, Concept("peony"), ["flower"])
    for (a, b), rel in before.items():
        assert extended.relation(a, b) is rel
    assert extended.relation("peony", "flower") is SemRelation.SPECIFIC


def test_longest_path_matches_recomputation_after_inserts(base_lattice):
    rng = random.Random(7)
    lat = base_lattice
    ids = list(lat.concept_ids())
    for i in range(12):
        parents = rng.sample(ids, rng.choice([1, 2]))
        lat = insert_concept(lat, Concept(f"extra{i}"), parents)
        ids.append(f"extra{i}")
        raw = {cid: lat.parents(cid) for cid in lat.concept_ids()}
        assert lat.longest_path == oracles.longest_root_leaf(raw)


def _check_paths_against_oracles(lat, parents, rng):
    longest = oracles.longest_root_leaf(parents)
    pairs = list(itertools.product(parents, repeat=2))
    rng.shuffle(pairs)  # epsilon rows are built in a random order
    for a, b in pairs:
        assert lat.path_sim_epsilon(a, b) == oracles.epsilon_oracle(parents, a, b)
        rel = oracles.relation_oracle(parents, a, b)
        assert lat.relation(a, b).value == rel
        steps = lat.membership_steps(a)  # what evidence of 0.5 on b carries to a
        if b not in steps:
            carried = 0.0
        else:
            carried = 0.5 if steps[b] is None else min(0.5 + steps[b], 1.0)
        assert carried == oracles.membership_oracle(parents, longest, a, b, 0.5)
        if rel == "unrelated":
            with pytest.raises(UnrelatedConceptsError):
                lat.path_length_norm(a, b)
            continue
        lower, upper = (b, a) if rel == "generic" else (a, b)
        edges = oracles.chain_edges(parents, lower, upper)
        assert lat.path_length_norm(a, b) == edges / longest


def test_memoised_paths_match_oracles_on_random_taxonomies():
    """Single-root taxonomies and, on every other trial, forests of two
    trees with disjoint names, where concepts of different trees have no
    path (epsilon 0) until an inserted concept joins them."""
    rng = random.Random(11)
    for trial in range(50):
        text, parents = oracles.random_taxonomy(rng, rng.randint(2, 14))
        if trial % 2:
            more_text, more = oracles.random_taxonomy(
                rng, rng.randint(1, 8), prefix="t")
            text, parents = text + more_text, {**parents, **more}
        lat = parse_taxonomy(text)
        for _repeat in range(2):  # the second pass reads memoised values
            _check_paths_against_oracles(lat, parents, rng)
        # an extension made after the parent was queried gets its own memo
        new_parents = tuple(rng.sample(list(parents), min(2, len(parents))))
        extended = insert_concept(lat, Concept("extra"), new_parents)
        _check_paths_against_oracles(extended, {**parents, "extra": new_parents},
                                     rng)
        _check_paths_against_oracles(lat, parents, rng)


def test_paths_match_oracles_on_long_chains_with_unequal_diamonds():
    """Chains of about 100 levels whose shortcuts close diamonds with
    unequal arms, so the shortest upward chain from the leaf to the root
    is shorter than the longest root-leaf path that normalizes it."""
    rng = random.Random(13)
    for _trial in range(2):
        text, parents = oracles.random_chain_taxonomy(rng, rng.randint(90, 110))
        leaf, root = list(parents)[-1], list(parents)[0]
        assert (oracles.chain_edges(parents, leaf, root)
                < oracles.longest_root_leaf(parents))
        _check_paths_against_oracles(parse_taxonomy(text), parents, rng)


def test_a_4000_level_chain_parses_and_reads_in_linear_time():
    n = 4000
    text = "c0\t\t\n" + "".join(f"c{i}\tc{i - 1}\t\n" for i in range(1, n))
    leaf = f"c{n - 1}"
    start = time.perf_counter()
    lat = parse_taxonomy(text)
    steps = lat.membership_steps(leaf)
    rel = lat.relation(leaf, "c0")
    elapsed = time.perf_counter() - start
    assert lat.longest_path == n - 1
    assert rel is SemRelation.SPECIFIC
    assert len(steps) == n and steps[leaf] is None
    assert steps["c0"] == 1.0 and steps["c1"] == (n - 2) / (n - 1)
    assert elapsed < 0.5, f"{elapsed:.3f} s"


def test_extension_does_not_reuse_parent_path_memo(fragment_lattice):
    lat = fragment_lattice
    assert lat.path_sim_epsilon("flower", "building") == pytest.approx(1 / 5)
    assert lat.path_length_norm("flower", "entity") == 1.0
    # a concept below both branches shortens their distance and deepens
    # the lattice, so both memoised values change in the extension
    extended = insert_concept(lat, Concept("hedge"), ["flower", "building"])
    assert extended.path_sim_epsilon("flower", "building") == pytest.approx(1 / 3)
    assert extended.path_length_norm("flower", "entity") == pytest.approx(2 / 3)
    assert lat.path_sim_epsilon("flower", "building") == pytest.approx(1 / 5)
    assert lat.path_length_norm("flower", "entity") == 1.0


def test_memoised_epsilon_still_resolves_and_rejects_tokens():
    lat = parse_taxonomy("flower\t\tblossom\nrose\tflower\t\n")
    assert lat.path_sim_epsilon("rose", "flower") == 0.5  # memo now warm
    assert lat.path_sim_epsilon(" Rose", "blossom") == 0.5
    with pytest.raises(UnknownConceptError):
        lat.path_sim_epsilon("rose", "tulip")
