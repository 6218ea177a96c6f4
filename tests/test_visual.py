import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr.errors import DataFormatError
from discrimattr.visual import VisualStore, _Builder, load_scene_graphs

from conftest import term


def test_hand_tallied_counts(visual_store):
    # hand tally of scene_regions.jsonl
    assert visual_store.count("cat", "whisker") == 3
    assert visual_store.count("apple", "red") == 1
    assert visual_store.count("tree", "tall") == 1
    assert visual_store.count("man", "tall") == 1
    assert visual_store.count("grass", "green") == 1
    assert visual_store.count("table", "round") == 1
    assert visual_store.count("lion", "whisker") == 0


def test_attribute_phrase_splits(visual_store):
    assert visual_store.count("table", "light") == 1
    assert visual_store.count("table", "brown") == 1


def test_membership_and_evidence(visual_store):
    res = visual_store.has_property(term("cat"), term("whiskers", "whisker"))
    assert res.member
    assert res.evidence[0].regions == (("2", "1"), ("2", "2"), ("3", "1"))


def test_unseen_object_false(visual_store):
    assert not visual_store.has_property(term("lion"), term("whiskers", "whisker")).member


def test_min_count_threshold(visual_store):
    assert visual_store.has_property(term("apple"), term("red"), min_count=1).member
    assert not visual_store.has_property(term("apple"), term("red"), min_count=2).member


def test_sor_inheritance(visual_store):
    # window is related to table in image 4; table is round there
    assert not visual_store.has_property(term("window"), term("round")).member
    res = visual_store.has_property(term("window"), term("round"), use_sor=True)
    assert res.member
    assert res.evidence[0].via is not None
    assert res.evidence[0].object == "table"
    # inheritance stays within the same image: table is "light brown" only in image 5
    assert not visual_store.has_property(term("window"), term("brown"), use_sor=True).member


def test_threshold_monotonicity(visual_store):
    pairs = [(o, a) for (o, a) in visual_store.oa_index] + [("lion", "whisker")]
    for o, a in pairs:
        prev = True
        for mc in range(1, 6):
            cur = visual_store.has_property(term(o), term(a), min_count=mc).member
            assert prev or not cur  # raising min_count never flips false -> true
            prev = cur


def test_sor_superset(visual_store):
    objects = set(visual_store.sor_index) | {o for o, _ in visual_store.oa_index}
    attrs = {a for _, a in visual_store.oa_index}
    for o in objects:
        for a in attrs:
            without = visual_store.has_property(term(o), term(a), use_sor=False).member
            with_sor = visual_store.has_property(term(o), term(a), use_sor=True).member
            assert with_sor or not without


def test_oracle_equivalence(visual_store, data_dir, lemma_table, stopwords):
    from discrimattr.text import lemma_of, normalize

    raw = [json.loads(l) for l in
           (data_dir / "scene_regions.jsonl").read_text().splitlines() if l]
    attrs = {a for _, a in visual_store.oa_index}
    objects = {o for o, _ in visual_store.oa_index}
    for o in objects:
        for a in attrs:
            brute = {
                (str(r["image"]), str(r["region"]))
                for r in raw
                if lemma_of(r["object"], lemma_table) == o and any(
                    a in [t.lemma for t in normalize(attr, lemma_table, stopwords)]
                    for attr in r["attributes"]
                )
            }
            assert visual_store.count(o, a) == len(brute)


def test_evidence_groundedness(visual_store, data_dir):
    raw = {(str(r["image"]), str(r["region"]))
           for r in map(json.loads, (data_dir / "scene_regions.jsonl").read_text().splitlines())}
    res = visual_store.has_property(term("cat"), term("whiskers", "whisker"))
    assert set(res.evidence[0].regions) <= raw


def test_visual_genome_format(data_dir, lemma_table, stopwords):
    store = load_scene_graphs(
        [data_dir / "vg_objects.json", data_dir / "vg_relationships.json"],
        lemma_table, stopwords,
    )
    assert store.count("cat", "whisker") == 1
    assert store.count("table", "round") == 1
    assert "apple" in store.sor_index and "table" in store.sor_index
    # SOR: apple is on the round table in image 102
    assert store.has_property(term("apple"), term("round"), use_sor=True).member


def test_malformed_records_skipped(tmp_path, lemma_table, stopwords):
    p = tmp_path / "scenes.jsonl"
    p.write_text(
        '{"image": 1, "region": 1, "object": "cat", "attributes": ["black"]}\n'
        "not json\n"
        '{"image": 1, "unexpected": true}\n',
        encoding="utf-8",
    )
    store = load_scene_graphs([p], lemma_table, stopwords)
    assert store.count("cat", "black") == 1
    assert store.skipped == 2


def test_unreadable_file_errors(tmp_path, lemma_table, stopwords):
    with pytest.raises(DataFormatError):
        load_scene_graphs([tmp_path / "missing.jsonl"], lemma_table, stopwords)


def test_duplicate_region_not_double_counted(tmp_path, lemma_table, stopwords):
    line = '{"image": 1, "region": 1, "object": "cat", "attributes": ["black"]}\n'
    p = tmp_path / "dup.jsonl"
    p.write_text(line + line, encoding="utf-8")
    store = load_scene_graphs([p], lemma_table, stopwords)
    assert store.count("cat", "black") == 1


def test_repeated_attribute_lemma_counts_region_once(tmp_path):
    path = tmp_path / "scenes.jsonl"
    rows = [
        {"image": "9", "region": "2", "object": "cat", "attributes": ["black", "black", "Black!"]},
        {"image": "9", "region": "1", "object": "cat", "attributes": ["black"]},
        {"image": "1", "region": "5", "object": "cat", "attributes": ["black cats"]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    store = load_scene_graphs([path], {"cats": "cat"}, set())
    assert store.oa_index[("cat", "black")] == [("1", "5"), ("9", "1"), ("9", "2")]
    for regions in store.oa_index.values():
        assert regions == sorted(set(regions))


objects = ["cat", "mat", "x"]
attributes = ["black", "round", "red"]
images = st.sampled_from(["1", "2"])
region_sets = st.lists(st.tuples(images, st.sampled_from(["1", "2", "3"]),
                                 st.sampled_from(objects),
                                 st.lists(st.sampled_from(attributes), max_size=3)),
                       max_size=10)
relationship_sets = st.lists(st.tuples(images, st.sampled_from(objects), st.just("on"),
                                       st.sampled_from(objects)), max_size=6)


@given(region_sets, relationship_sets)
def test_reloaded_store_answers_like_built(regions, relationships):
    builder = _Builder({}, set())
    for region in regions + regions[:2]:  # some regions repeated
        builder.add_region(*region)
    for rel in relationships + [("1", "x", "on", "x")]:  # one self-relationship
        builder.add_relationship(*rel)
    built = builder.finish()
    reloaded = VisualStore.from_dict(json.loads(json.dumps(built.to_dict())))
    for o in objects + ["dog"]:
        for a in attributes + ["blue"]:
            for min_count in (1, 2, 3):
                for use_sor in (False, True):
                    assert reloaded.has_property(term(o), term(a), min_count, use_sor) == \
                        built.has_property(term(o), term(a), min_count, use_sor)
