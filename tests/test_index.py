import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from discrimattr.errors import EmptyCorpusError
from discrimattr.index import (FORMAT_VERSION, ExplicitVectorSpace, atomic_open, dump_json,
                               load_json)


def space_of(*docs):
    return ExplicitVectorSpace.build(list(docs))


def test_singleton():
    space = space_of(("d1", "def", ["apple"]))
    assert space.document_count == 1
    assert len(space.documents_containing("apple")) == 1


def test_idf_hand_computed():
    space = space_of(
        ("d1", "f", ["red", "fruit"]),
        ("d2", "f", ["fruit"]),
        ("d3", "f", ["tree"]),
        ("d4", "f", ["grass"]),
    )
    assert space.idf("red") == pytest.approx(math.log(4), abs=1e-4)
    assert space.idf("red") == pytest.approx(1.3863, abs=1e-4)


def test_idf_lemma_in_all_documents_is_zero():
    space = space_of(("a", "f", ["x"]), ("b", "f", ["x"]))
    assert space.idf("x") == 0.0


def test_idf_unseen_sentinel():
    space = space_of(*((f"d{i}", "f", ["w"]) for i in range(4)))
    assert space.idf("unseen") == pytest.approx(math.log(5), abs=1e-4)


def test_idf_empty_space_errors():
    space = space_of()
    assert space.document_count == 0
    assert space.postings == {}
    with pytest.raises(EmptyCorpusError):
        space.idf("anything")


tokens = st.lists(st.sampled_from("abcdefgh"), max_size=10)
corpora = st.lists(
    st.tuples(st.integers(0, 49), st.just("f"), tokens), max_size=50
).map(lambda docs: list({d[0]: d for d in docs}.values()))


@given(corpora)
def test_oracle_equivalence_brute_force(docs):
    space = ExplicitVectorSpace.build(docs)
    doc_ids = {str(d) for d, _, _ in docs}
    n = len(doc_ids)
    vocab = {t for _, _, toks in docs for t in toks}
    for lemma in vocab:
        df = sum(
            1 for did in doc_ids
            if any(str(d) == did and lemma in toks for d, _, toks in docs)
        )
        assert len(space.documents_containing(lemma)) == df
        assert space.idf(lemma) == pytest.approx(math.log(n / df))
        indexed = set(space.documents_containing(lemma))
        brute = {str(d) for d, _, toks in docs if lemma in toks}
        assert indexed == brute


@given(corpora)
def test_build_order_independent(docs):
    space1 = ExplicitVectorSpace.build(docs)
    shuffled = docs[:]
    random.Random(7).shuffle(shuffled)
    space2 = ExplicitVectorSpace.build(shuffled)
    assert space1.to_dict() == space2.to_dict()


@given(corpora)
def test_idf_monotonicity(docs):
    space = ExplicitVectorSpace.build(docs)
    lemmas = sorted(space.postings)
    for a in lemmas:
        for b in lemmas:
            if len(space.documents_containing(a)) < len(space.documents_containing(b)):
                assert space.idf(a) > space.idf(b)


def test_round_trip_byte_identical(tmp_path):
    space = space_of(("d1", "f", ["red", "fruit"]), ("d2", "g", ["tree"]))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(space.to_dict(), p1)
    reloaded = ExplicitVectorSpace.from_dict(load_json(p1))
    dump_json(reloaded.to_dict(), p2)
    assert p1.read_bytes() == p2.read_bytes()


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False) | st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.dictionaries(st.text(), inner, max_size=4), max_size=3)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(json_values)
@example({"é": [{}, [], {"z": [[1, 2.5], []], "a": None}], "": {"ß": [True, "ü"]}})
@example({f"k{i}": [{"i": i}] if i % 300 == 7 else [i] for i in range(700)})  # several pieces
@example([{"i": i} for i in range(600)])
def test_dump_json_bytes_match_one_shot_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("dump") / "x.json"
    dump_json(obj, path)
    expected = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert path.read_bytes() == (expected + "\n").encode("utf-8")


def test_failed_dump_json_keeps_old_file(tmp_path):
    path = tmp_path / "index.json"
    dump_json({"a": [1]}, path)
    good = path.read_bytes()
    with pytest.raises(TypeError):
        dump_json({"a": [1], "b": object()}, path)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["index.json"]


def test_failed_atomic_open_keeps_old_file(tmp_path):
    path = tmp_path / "report.txt"
    with atomic_open(path) as fh:
        fh.write("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new, cut short")
            raise RuntimeError("write failed")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.parametrize("store,key", [
    ("definition_store", "records"), ("definition_store", "supertype_edges"),
    ("ckg_store", "edges"), ("ckg_store", "skipped"),
    ("visual_store", "oa_index"), ("visual_store", "relations"), ("visual_store", "subjects_of"),
])
def test_index_of_another_layout_fails_at_load(request, store, key):
    from discrimattr import CkgStore, VisualStore
    from discrimattr.definitions import store_from_dict

    decode = {"definition_store": store_from_dict, "ckg_store": CkgStore.from_dict,
              "visual_store": VisualStore.from_dict}[store]
    data = json.loads(json.dumps(request.getfixturevalue(store).to_dict()))
    decode(data)
    data[key] = "x"
    with pytest.raises(TypeError, match=repr(key)):
        decode(data)


def test_readme_names_the_index_format():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"The index format is (\d+)", readme) == [str(FORMAT_VERSION)]
    assert re.findall(r'"index_format"`, (\d+) today', readme) == [str(FORMAT_VERSION)]
