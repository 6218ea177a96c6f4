import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimattr.errors import DataFormatError
from discrimattr.types import MembershipResult
from discrimattr.visual import (RegionEvidence, VisualStore, _ArrayReader, _Builder,
                                _load_visual_genome, load_scene_graphs)

from conftest import pairs_of, regions_of, scene_regions, term


def test_hand_tallied_counts(visual_store):
    # hand tally of scene_regions.jsonl
    assert len(regions_of(visual_store, "cat", "whisker")) == 3
    assert len(regions_of(visual_store, "apple", "red")) == 1
    assert len(regions_of(visual_store, "tree", "tall")) == 1
    assert len(regions_of(visual_store, "man", "tall")) == 1
    assert len(regions_of(visual_store, "grass", "green")) == 1
    assert len(regions_of(visual_store, "table", "round")) == 1
    assert len(regions_of(visual_store, "lion", "whisker")) == 0


def test_attribute_phrase_splits(visual_store):
    assert len(regions_of(visual_store, "table", "light")) == 1
    assert len(regions_of(visual_store, "table", "brown")) == 1


def test_membership_and_evidence(visual_store):
    res = visual_store.has_property(term("cat"), term("whiskers", "whisker"))
    assert res.member
    assert res.evidence[0].regions == [["2", "1"], ["2", "2"], ["3", "1"]]


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


def test_threshold_monotonicity(visual_store, lemma_table, stopwords):
    pairs = [*pairs_of(scene_regions(), lemma_table, stopwords), ("lion", "whisker")]
    for o, a in pairs:
        prev = True
        for mc in range(1, 6):
            cur = visual_store.has_property(term(o), term(a), min_count=mc).member
            assert prev or not cur  # raising min_count never flips false -> true
            prev = cur


def test_sor_superset(visual_store, lemma_table, stopwords):
    pairs = pairs_of(scene_regions(), lemma_table, stopwords)
    objects = set(visual_store.sor_index) | {o for o, _ in pairs}
    attrs = {a for _, a in pairs}
    for o in objects:
        for a in attrs:
            without = visual_store.has_property(term(o), term(a), use_sor=False).member
            with_sor = visual_store.has_property(term(o), term(a), use_sor=True).member
            assert with_sor or not without


def test_sor_index_is_derived_at_the_first_sor_query(visual_store, data_dir, lemma_table,
                                                      stopwords):
    built = load_scene_graphs([data_dir / "scene_relationships.jsonl"], lemma_table, stopwords)
    assert "sor_index" not in vars(built)  # `build` never asks it
    store = VisualStore.from_dict(json.loads(json.dumps(visual_store.to_dict())))
    lion, whisker = term("lion"), term("whiskers", "whisker")
    assert "sor_index" not in vars(store)
    store.has_property(lion, whisker)
    assert "sor_index" not in vars(store)
    store.has_property(lion, whisker, use_sor=True)
    assert vars(store)["sor_index"] == visual_store.sor_index
    assert visual_store.sor_index  # the fixtures relate objects, so the index is not empty


def test_oracle_equivalence(visual_store, lemma_table, stopwords):
    pairs = pairs_of(scene_regions(), lemma_table, stopwords)
    for o in {o for o, _ in pairs} | {"lion"}:
        for a in {a for _, a in pairs}:
            regions = pairs.get((o, a))
            assert regions_of(visual_store, o, a) == (regions or [])
            assert visual_store.has_property(term(o), term(a)) == (
                MembershipResult(True, (RegionEvidence(o, a, regions),)) if regions
                else MembershipResult(False))


def test_evidence_groundedness(visual_store, data_dir):
    raw = {(str(r["image"]), str(r["region"]))
           for r in map(json.loads, (data_dir / "scene_regions.jsonl")
                        .read_text(encoding="utf-8").splitlines())}
    res = visual_store.has_property(term("cat"), term("whiskers", "whisker"))
    assert {tuple(r) for r in res.evidence[0].regions} <= raw


def test_visual_genome_format(data_dir, lemma_table, stopwords):
    store = load_scene_graphs(
        [data_dir / "vg_objects.json", data_dir / "vg_relationships.json"],
        lemma_table, stopwords,
    )
    assert len(regions_of(store, "cat", "whisker")) == 1
    assert len(regions_of(store, "table", "round")) == 1
    assert "apple" in store.sor_index and "table" in store.sor_index
    # SOR: apple is on the round table in image 102
    assert store.has_property(term("apple"), term("round"), use_sor=True).member


@pytest.mark.parametrize("prefix", ["", "\n", " \t\r\n"], ids=["none", "newline", "whitespace"])
def test_visual_genome_array_after_whitespace(tmp_path, data_dir, lemma_table, stopwords, prefix):
    # the format is told by the first character that is not JSON whitespace
    objects = tmp_path / "vg_objects.json"
    objects.write_text(prefix + (data_dir / "vg_objects.json").read_text(encoding="utf-8"),
                       encoding="utf-8", newline="")
    plain = load_scene_graphs([data_dir / "vg_objects.json"], lemma_table, stopwords)
    assert load_scene_graphs([objects], lemma_table, stopwords).to_dict() == plain.to_dict()


def test_malformed_records_skipped(tmp_path, lemma_table, stopwords):
    p = tmp_path / "scenes.jsonl"
    p.write_text(
        '{"image": 1, "region": 1, "object": "cat", "attributes": ["black"]}\n'
        "not json\n"
        '{"image": 1, "unexpected": true}\n',
        encoding="utf-8",
    )
    store = load_scene_graphs([p], lemma_table, stopwords)
    assert len(regions_of(store, "cat", "black")) == 1
    assert store.skipped == 2


@pytest.mark.parametrize("record", [
    "1", "null", "true", '"region object"', '["region", "object"]',
    # an object of the wrong shape: a missing or non-str/int id, a name that
    # is not a string, attributes that are not a list of strings
    '{"region": 2, "object": "cat", "attributes": ["black"]}',
    '{"image": 1, "region": 2, "object": 5}',
    '{"image": 1, "region": 2, "object": "cat", "attributes": "black"}',
    '{"image": 1, "region": 2, "object": "cat", "attributes": ["black", 5]}',
    '{"image": 1, "region": [2], "object": "cat", "attributes": ["black"]}',
    '{"image": 1.5, "region": 2, "object": "cat", "attributes": ["black"]}',
    '{"image": true, "region": 2, "object": "cat", "attributes": ["black"]}',
    '{"image": 1, "region": 2, "object": ["cat"], "attributes": ["black"]}',
    '{"image": 1, "subject": "cat", "predicate": "on"}',
    '{"image": 1, "subject": 5, "predicate": "on", "object": "mat"}',
    '{"image": null, "subject": "cat", "predicate": "on", "object": "mat"}',
    # a region id or image id that holds a separator of the store's pair strings
    '{"image": "1 2", "region": 2, "object": "cat", "attributes": ["white"]}',
    '{"image": 1, "region": "2\\t", "object": "cat", "attributes": ["white"]}',
    '{"image": 1, "region": " ", "object": "cat", "attributes": ["white"]}',
    # a relationship's image id with a separator: SOR would match it in another image's regions
    '{"image": "0\\t1 2", "subject": "boy", "predicate": "holds", "object": "apple"}',
])
def test_non_object_jsonl_record_skipped(tmp_path, lemma_table, stopwords, record):
    p = tmp_path / "scenes.jsonl"
    p.write_text('{"image": 1, "region": 1, "object": "cat", "attributes": ["black"]}\n'
                 + record + "\n", encoding="utf-8")
    store = load_scene_graphs([p], lemma_table, stopwords)
    assert len(regions_of(store, "cat", "black")) == 1
    assert store.skipped == 1
    assert {o: list(attrs) for o, attrs in store.oa_index.items()} == {"cat": ["black"]}
    assert store.relationships == []


@pytest.mark.parametrize("images,skipped", [
    ([{"image_id": 1, "objects": [3]}], 1),
    ([7, None, "image"], 3),
    ([{"image_id": 1, "relationships": [2, [], {"predicate": "on", "subject": 5,
                                                "object": {"name": "cat"}}]}], 3),
    ([{"image_id": 1, "objects": 5}], 1),
    ([{"image_id": 1, "objects": [], "relationships": {"predicate": "on"}}], 1),
    ([{"objects": [{"object_id": 1, "names": ["cat"], "attributes": ["white"]}]}], 1),
    ([{"image_id": 1, "objects": [{"names": ["cat"], "attributes": ["white"]},
                                  {"object_id": 1.5, "names": ["cat"], "attributes": ["white"]},
                                  {"object_id": 1, "names": "cat", "attributes": ["white"]},
                                  {"object_id": 1, "name": 5, "attributes": ["white"]},
                                  {"object_id": 1, "names": [["cat"]], "attributes": ["white"]},
                                  {"object_id": 1, "names": ["cat"], "attributes": "white"},
                                  {"object_id": 1, "names": ["cat"], "attributes": [None]}]}], 7),
    ([{"image_id": [1], "relationships": [{"predicate": "on", "subject": {"name": "cat"},
                                           "object": {"name": "mat"}}]},
      {"image_id": 1, "relationships": [{"predicate": 5, "subject": {"name": "cat"},
                                         "object": {"name": "mat"}},
                                        {"predicate": "on", "subject": {"names": "cat"},
                                         "object": {"name": "mat"}}]}], 3),
    ([{"image_id": "1\t", "objects": [{"object_id": 1, "names": ["cat"],
                                      "attributes": ["white"]}]},
      {"image_id": 1, "objects": [{"object_id": "1 2", "names": ["cat"], "attributes": ["white"]},
                                  {"id": "\t", "names": ["cat"], "attributes": ["white"]}]}], 3),
    ([{"image_id": "0\t1 2", "relationships": [{"predicate": "holds", "subject": {"name": "boy"},
                                                "object": {"name": "apple"}}]}], 1),
])
def test_non_object_visual_genome_record_skipped(tmp_path, lemma_table, stopwords,
                                                 images, skipped):
    cat = {"image_id": 2, "objects": [{"object_id": 1, "names": ["cat"], "attributes": ["black"]}]}
    p = tmp_path / "objects.json"
    p.write_text(json.dumps([cat] + images), encoding="utf-8")
    store = load_scene_graphs([p], lemma_table, stopwords)
    assert len(regions_of(store, "cat", "black")) == 1
    assert store.skipped == skipped
    assert {o: list(attrs) for o, attrs in store.oa_index.items()} == {"cat": ["black"]}
    assert store.relationships == []


# ids a pair string holds as they are: ints, strings with neither a tab nor a
# space (other whitespace is kept), and the empty string, which is nothing
# beside its tab
KEPT_IDS = [(1, 2), ("1", "x-2"), ("", ""), ("", "1"), (0, ""), ("a\nb", "\u00a0")]


@pytest.mark.parametrize("visual_genome", [False, True])
def test_int_and_separator_free_ids_kept(tmp_path, lemma_table, stopwords, visual_genome):
    regions = [(image, region, "cat", ["black"]) for image, region in KEPT_IDS]
    if visual_genome:
        records = [{"image_id": image, "objects": [{"object_id": region, "names": [obj],
                                                    "attributes": attrs}]}
                   for image, region, obj, attrs in regions]
        records.append({"image_id": "", "relationships": [
            {"predicate": "near", "subject": {"name": "dog"}, "object": {"name": "cat"}}]})
        text = json.dumps(records)
    else:
        records = [{"image": image, "region": region, "object": obj, "attributes": attrs}
                   for image, region, obj, attrs in regions]
        records.append({"image": "", "subject": "dog", "predicate": "near", "object": "cat"})
        text = "".join(json.dumps(r) + "\n" for r in records)
    path = tmp_path / "scenes.json"
    path.write_text(text, encoding="utf-8")
    store = load_scene_graphs([path], lemma_table, stopwords)
    assert store.skipped == 0
    black = pairs_of(regions, lemma_table, stopwords)[("cat", "black")]
    assert len(regions_of(store, "cat", "black")) == len(black) == len(KEPT_IDS)
    assert store.has_property(term("cat"), term("black")).evidence[0].regions == black
    # the dog inherits black in image "", where the cat has two regions
    res = store.has_property(term("dog"), term("black"), min_count=2, use_sor=True)
    assert res.evidence == (RegionEvidence("cat", "black", [["", ""], ["", "1"]],
                                           ["", "dog", "near", "cat"]),)
    assert not store.holds(term("dog"), term("black"), min_count=3, use_sor=True)


def test_unreadable_file_errors(tmp_path, lemma_table, stopwords):
    with pytest.raises(DataFormatError):
        load_scene_graphs([tmp_path / "missing.jsonl"], lemma_table, stopwords)


def test_duplicate_region_not_double_counted(tmp_path, lemma_table, stopwords):
    line = '{"image": 1, "region": 1, "object": "cat", "attributes": ["black"]}\n'
    p = tmp_path / "dup.jsonl"
    p.write_text(line + line, encoding="utf-8")
    store = load_scene_graphs([p], lemma_table, stopwords)
    assert len(regions_of(store, "cat", "black")) == 1


def test_repeated_attribute_lemma_counts_region_once(tmp_path):
    path = tmp_path / "scenes.jsonl"
    rows = [
        {"image": "9", "region": "2", "object": "cat", "attributes": ["black", "black", "Black!"]},
        {"image": "9", "region": "1", "object": "cat", "attributes": ["black"]},
        {"image": "1", "region": "5", "object": "cat", "attributes": ["black cats"]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    store = load_scene_graphs([path], {"cats": "cat"}, set())
    assert store.oa_index["cat"]["black"] == "1\t5 9\t1 9\t2"
    regions = [(r["image"], r["region"], r["object"], r["attributes"]) for r in rows]
    for (o, a), found in pairs_of(regions, {"cats": "cat"}, set()).items():
        assert store.has_property(term(o), term(a)).evidence[0].regions == found  # sorted, unique


objects = ["cat", "mat", "x"]
attributes = ["black", "round", "red"]
images = st.sampled_from(["1", "2"])  # each also a region id
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


@given(region_sets, relationship_sets)
def test_holds_is_the_membership_of_has_property(regions, relationships):
    builder = _Builder({}, set())
    for region in regions:
        builder.add_region(*region)
    for rel in relationships + [("1", "x", "on", "x"), ("2", "cat", "on", "cat")]:
        builder.add_relationship(*rel)  # two self-relationships
    store = builder.finish()
    for o in objects + ["dog"]:
        for a in attributes + ["blue"]:
            for min_count in (1, 2, 3):
                for use_sor in (False, True):
                    assert store.holds(term(o), term(a), min_count, use_sor) == \
                        store.has_property(term(o), term(a), min_count, use_sor).member


def test_only_the_answers_pair_string_is_split(visual_store, lemma_table, stopwords):
    splits = []

    class Recorded(str):
        def split(self, *args):
            splits.append(str(self))
            return super().split(*args)

    store = VisualStore({o: {a: Recorded(regions) for a, regions in attrs.items()}
                         for o, attrs in visual_store.oa_index.items()},
                        visual_store.relationships)
    pairs = pairs_of(scene_regions(), lemma_table, stopwords)
    objects = set(store.sor_index) | {o for o, _ in pairs}
    for o in objects:
        for a in {a for _, a in pairs}:
            for min_count in (1, 2):
                found = store.holds(term(o), term(a), min_count, use_sor=True)
                assert splits == []
                res = store.has_property(term(o), term(a), min_count, use_sor=True)
                assert res.member == found
                # a direct answer splits its own pair string; an inherited one, a slice of
                # the relative's string, so no string of the store
                direct = res.member and res.evidence[0].via is None
                assert splits == ([visual_store.oa_index[o][a]] if direct else [])
                splits.clear()


def _sor_scan(regions, relationships, o, a, min_count):
    """`has_property(o, a, min_count, use_sor=True)` by brute force from the
    region and relationship records, whose names are their own lemmas: the
    direct regions, else the first relationship naming `o`, in sorted order,
    whose other endpoint has at least `min_count` regions with `a` in that image."""
    pairs = pairs_of(regions, {}, set())
    direct = pairs.get((o, a), [])
    if len(direct) >= min_count:
        return MembershipResult(True, (RegionEvidence(o, a, direct),))
    for rel in sorted([str(image), *names] for image, *names in relationships):
        image, subject, _, object_ = rel
        for other in (subject, object_) if o in (subject, object_) else ():
            found = [r for r in pairs.get((other, a), []) if r[0] == image]
            if other != o and len(found) >= min_count:
                return MembershipResult(True, (RegionEvidence(other, a, found, via=rel),))
    return MembershipResult(False)


# image ids that sort differently as strings and as numbers, one that ends
# others ("0"), and region ids that equal an image id
sor_images = st.sampled_from(["9", "10", "100", "0"])


@given(st.lists(st.tuples(sor_images, st.sampled_from(["1", "9", "10"]), st.sampled_from(objects),
                          st.lists(st.sampled_from(attributes), max_size=2)), max_size=12),
       st.lists(st.tuples(sor_images, st.sampled_from(objects), st.sampled_from(["on", "by"]),
                          st.sampled_from(objects)), max_size=8))
def test_sor_answers_like_a_scan_of_the_relationships(regions, relationships):
    regions = regions + regions[:2]  # some regions repeated
    # related objects repeat, and one relationship relates an object to itself
    relationships = relationships + relationships[:2] + [("10", "cat", "by", "cat")]
    builder = _Builder({}, set())
    for region in regions:
        builder.add_region(*region)
    for rel in relationships:
        builder.add_relationship(*rel)
    store = builder.finish()
    for o in objects + ["dog"]:
        for a in attributes:
            for min_count in (1, 2, 3):
                assert store.has_property(term(o), term(a), min_count, use_sor=True) == \
                    _sor_scan(regions, relationships, o, a, min_count)


def _streamed(text, chunk_size):
    return list(_ArrayReader(io.StringIO(text), chunk_size))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\/\n'), max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
json_arrays = st.lists(json_values, max_size=5)
layouts = st.sampled_from([{"separators": (",", ":")}, {"indent": 2}, {"ensure_ascii": False}])


@given(json_arrays, layouts, st.integers(1, 64))
def test_streamed_items_equal_json_loads(items, layout, chunk_size):
    # `ensure_ascii` (the default) writes \uXXXX escapes, surrogate pairs for
    # astral characters; an integer or float last in an item ends at `,` or `]`
    text = json.dumps(items, **layout)
    assert _streamed(text, chunk_size) == json.loads(text)


def _rejected(text, chunk_size):
    with pytest.raises(ValueError):
        json.loads(text)
    with pytest.raises(ValueError):
        _streamed(text, chunk_size)


# Every proper prefix is parsed, so an example's time grows with the square of
# its text's length, and a long one can pass the default 200 ms deadline.
@settings(deadline=None)
@given(json_arrays, layouts, st.integers(1, 64))
def test_malformed_arrays_rejected_like_json_loads(items, layout, chunk_size):
    text = json.dumps(items, **layout)
    for end in range(len(text)):
        _rejected(text[:end], chunk_size)
    _rejected(text + " 0", chunk_size)
    _rejected(text + "]", chunk_size)
    parts = [json.dumps(item, **layout) for item in items]
    if parts:
        _rejected("[" + ", ".join(parts) + ",]", chunk_size)
    if len(parts) > 1:
        _rejected("[" + " ".join(parts) + "]", chunk_size)


@pytest.mark.parametrize("text", ["[1 2]", "[1,,2]", "[,1]", "[1e]", "[1.]", "[-]", "[tru]",
                                  '["a\\"]', "[1]]", '[{"a" 1}]', "", " "])
@pytest.mark.parametrize("chunk_size", [1, 3, 64])
def test_malformed_array_examples_rejected(text, chunk_size):
    _rejected(text, chunk_size)


def test_streamed_visual_genome_builds_the_same_store(data_dir, lemma_table, stopwords):
    stores = []
    for read in (json.load, lambda fh: _ArrayReader(fh, 7)):
        builder = _Builder(lemma_table, stopwords)
        for name in ("vg_objects.json", "vg_relationships.json"):
            with open(data_dir / name, encoding="utf-8") as fh:
                _load_visual_genome(read(fh), builder)
        stores.append(builder.finish().to_dict())
    assert stores[0] == stores[1]


def test_index_form_is_the_store_form(visual_store):
    data = visual_store.to_dict()
    assert data["oa_index"] is visual_store.oa_index
    assert data["relationships"] is visual_store.relationships
    reloaded = VisualStore.from_dict(data)
    assert reloaded.oa_index is visual_store.oa_index
    assert reloaded.relationships is visual_store.relationships
    assert visual_store.relationships == [["3", "man", "under", "tree"],
                                          ["4", "window", "above", "table"]]
    assert visual_store.oa_index["cat"]["whisker"] == "2\t1 2\t2 3\t1"


def test_region_list_shared_by_its_pairs():
    builder = _Builder({}, set())
    builder.add_region(1, 2, "table", ["light brown"])
    store = builder.finish()
    # each pair that names the region holds it in its own string
    assert store.oa_index == {"table": {"light": "1\t2", "brown": "1\t2"}}
