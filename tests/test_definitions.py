import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr.definitions import SEMANTIC_ROLES, _build_store, load_definitions, store_from_dict
from discrimattr.errors import DataFormatError
from discrimattr.text import normalize
from discrimattr.types import Term

from conftest import reload_definitions, term


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def evidence_paths(store, t, max_depth):
    """The supertype paths of `has_property`'s evidence for `t`, over every indexed
    attribute: one per lemma of the expansion that has an indexed segment, by
    (depth, lemma)."""
    return sorted({e.path for a in store.space.postings
                   for e in store.has_property(term(t), term(a), max_depth).evidence},
                  key=lambda path: (len(path), path[-1]))


def test_supertype_head_extraction(definition_store):
    # "celestial body" -> head is the last non-stopword token
    assert definition_store.supertype_edges["planet"] == ["body"]
    assert definition_store.supertype_edges["moon"] == ["satellite"]


def test_space_documents_are_segments(definition_store):
    assert definition_store.space.documents_containing("wine") == {"brandy": [1]}
    assert definition_store.records["brandy"][1] == [
        "brandy.n.01", "differentia_event", "distilled from wine or fermented fruit juice"]


def test_empty_file(tmp_path, lemma_table, stopwords):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    store = load_definitions(p, lemma_table, stopwords)
    assert store.records == {}
    assert not store.has_property(term("x"), term("y")).member


def test_duplicate_sense_rejected(tmp_path, lemma_table, stopwords):
    rec = {"term": "apple", "sense": "s1", "segments": [{"role": "supertype", "text": "fruit"}]}
    p = write_jsonl(tmp_path / "dup.jsonl", [rec, rec])
    with pytest.raises(DataFormatError) as exc:
        load_definitions(p, lemma_table, stopwords)
    assert "2" in str(exc.value)  # error names the line


def test_unknown_role_rejected(tmp_path, lemma_table, stopwords):
    rec = {"term": "apple", "sense": "s1", "segments": [{"role": "genus", "text": "fruit"}]}
    p = write_jsonl(tmp_path / "badrole.jsonl", [rec])
    with pytest.raises(DataFormatError):
        load_definitions(p, lemma_table, stopwords)


def test_malformed_json_names_line(tmp_path, lemma_table, stopwords):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"term": "a", "sense": "s", "segments": []}\n{oops\n', encoding="utf-8")
    with pytest.raises(DataFormatError) as exc:
        load_definitions(p, lemma_table, stopwords)
    assert exc.value.line == 2


def test_expand_no_supertypes(definition_store):
    assert evidence_paths(definition_store, "body", 3) == [("body",)]


def test_expand_planet_reaches_body(definition_store):
    assert evidence_paths(definition_store, "planet", 1) == [("planet",), ("planet", "body")]


def test_expand_depth_zero_is_own_records(definition_store):
    assert evidence_paths(definition_store, "planet", 0) == [("planet",)]


def test_expand_cycle_terminates(tmp_path, lemma_table):
    records = [
        {"term": "a", "sense": "s1", "segments": [{"role": "supertype", "text": "b"}]},
        {"term": "b", "sense": "s1", "segments": [{"role": "supertype", "text": "a"}]},
    ]
    # no stopwords: "a" is one of the test list's, and would leave b without a supertype
    store = load_definitions(write_jsonl(tmp_path / "cycle.jsonl", records), lemma_table, set())
    assert evidence_paths(store, "a", 5) == [("a",), ("a", "b")]
    assert [e.path for e in store.has_property(term("a"), term("a"), 5).evidence] == [("a", "b")]


def test_has_property_brandy_wine(definition_store):
    res = definition_store.has_property(term("brandy"), term("wine"))
    assert res.member
    assert res.evidence[0].role == "differentia_event"
    assert res.evidence[0].term == "brandy"


def test_has_property_inheritance_depth(definition_store):
    assert not definition_store.has_property(term("moon"), term("body"), max_depth=0).member
    res = definition_store.has_property(term("moon"), term("body"), max_depth=1)
    assert res.member
    assert res.evidence[0].path == ("moon", "satellite")


def test_self_mention_false(definition_store):
    assert not definition_store.has_property(term("apple"), term("apple"), max_depth=0).member


def test_unknown_term_empty(definition_store):
    assert evidence_paths(definition_store, "zzz", 3) == []
    assert not definition_store.has_property(term("zzz"), term("red")).member


def test_inheritance_monotonic(definition_store):
    terms = list(definition_store.records)
    attrs = ["body", "fruit", "wine", "liquor", "red", "plant"]
    for t in terms:
        for a in attrs:
            prev = set()
            for depth in range(4):
                res = definition_store.has_property(term(t), term(a), max_depth=depth)
                ev = {(e.term, e.sense_id, e.role) for e in res.evidence}
                assert prev <= ev
                prev = ev


def test_evidence_soundness(reloaded_definition_store, lemma_table, stopwords):
    store = reloaded_definition_store
    for t in store.records:
        for a in ["body", "fruit", "wine", "yellow"]:
            res = store.has_property(term(t), term(a))
            for e in res.evidence:
                assert a in normalize(e.text, lemma_table, stopwords)


def test_depth0_oracle_equivalence(reloaded_definition_store, lemma_table, stopwords):
    # brute force over the texts of the term's own segments
    store = reloaded_definition_store

    def lemmas(seg):
        sense, role, text = seg
        return normalize(text, lemma_table, stopwords)

    vocab = {x for segs in store.records.values() for s in segs for x in lemmas(s)}
    for t, segs in store.records.items():
        for a in vocab:
            brute = any(a in lemmas(s) for s in segs)
            res = store.has_property(term(t), Term(a, a), max_depth=0)
            assert res.member == brute


nouns = ["ant", "bee", "cow", "apples"]
words = st.sampled_from(nouns + ["red", "whiskers", "the", "of", "big"])
definition_sets = st.dictionaries(
    st.tuples(st.sampled_from(nouns), st.sampled_from(["s1", "s2"])),
    st.lists(st.tuples(st.sampled_from(SEMANTIC_ROLES[:3]),
                       st.lists(words, max_size=3).map(" ".join)), max_size=4),
    max_size=6,
)


@given(defs=definition_sets)
def test_reloaded_store_answers_like_built(defs, lemma_table, stopwords):
    raw = [(t, sense, segments, (None, None)) for (t, sense), segments in defs.items()]
    built = _build_store(raw, lemma_table, stopwords)
    reloaded = reload_definitions(built)
    lemmas = ["ant", "bee", "cow", "apple", "red", "whisker", "the", "big", "zebra"]
    for t in lemmas:
        for a in lemmas:
            for depth in range(4):
                assert reloaded.has_property(term(t), term(a), depth) == \
                    built.has_property(term(t), term(a), depth)


@given(defs=definition_sets, cycle=st.permutations(nouns[:3]))
def test_holds_is_the_membership_of_has_property(defs, cycle, lemma_table, stopwords):
    # the drawn supertypes may loop, and one cycle through three nouns always does
    raw = [(t, sense, segments, (None, None)) for (t, sense), segments in defs.items()]
    raw += [(child, "cycle", [("supertype", parent)], (None, None))
            for child, parent in zip(cycle, cycle[1:] + cycle[:1])]
    lemmas = ["ant", "bee", "cow", "apple", "red", "whisker", "the", "big", "zebra"]
    keys = [(t, a, depth) for t in lemmas for a in lemmas for depth in range(5)]
    # evidence, supertype paths and all, from a store whose own `has_property` walked
    oracle = _build_store(raw, lemma_table, stopwords)
    answers = {(t, a, depth): oracle.has_property(term(t), term(a), depth) for t, a, depth in keys}
    built = _build_store(raw, lemma_table, stopwords)
    for store in (built, reload_definitions(built)):
        # `holds` first, so `has_property` reads the supertype walks it kept
        held = {(t, a, depth): store.holds(term(t), term(a), depth) for t, a, depth in keys}
        assert held == {key: answer.member for key, answer in answers.items()}
        assert {(t, a, depth): store.has_property(term(t), term(a), depth)
                for t, a, depth in keys} == answers


def test_index_form_is_the_store_form(definition_store):
    data = definition_store.to_dict()
    assert data["records"] is definition_store.records
    assert data["supertype_edges"] is definition_store.supertype_edges
    assert data["space"]["postings"] is definition_store.space.postings
    reloaded = store_from_dict(data)
    assert reloaded.records is definition_store.records
    assert reloaded.supertype_edges is definition_store.supertype_edges
    assert reloaded.space.postings is definition_store.space.postings
    assert definition_store.records["brandy"] == [
        ["brandy.n.01", "supertype", "strong liquor"],
        ["brandy.n.01", "differentia_event", "distilled from wine or fermented fruit juice"]]
    postings = definition_store.space.postings
    assert all(type(i) is int for docs in postings.values() for ids in docs.values() for i in ids)


def test_evidence_follows_segment_order_past_nine(tmp_path, lemma_table, stopwords):
    # 12 segments over two senses; "red" at positions 2 and 10, so positions
    # sorted as strings ("10" < "2") would put the later segment first
    texts = [f"red tint {i}" if i in (2, 10) else f"plain {i}" for i in range(12)]
    records = [{"term": "ant", "sense": sense,
                "segments": [{"role": "differentia_quality", "text": t} for t in half]}
               for sense, half in (("s1", texts[:6]), ("s2", texts[6:]))]
    built = load_definitions(write_jsonl(tmp_path / "long.jsonl", records), lemma_table, stopwords)
    assert built.space.documents_containing("red") == {"ant": [2, 10]}
    for store in (built, reload_definitions(built)):
        res = store.has_property(term("ant"), term("red"))
        assert [(e.sense_id, e.text) for e in res.evidence] == [
            ("s1", "red tint 2"), ("s2", "red tint 10")]
