import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr.definitions import SEMANTIC_ROLES, _build_store, load_definitions, store_from_dict
from discrimattr.errors import DataFormatError
from discrimattr.index import dump_json, load_json
from discrimattr.text import normalize
from discrimattr.types import Term

from conftest import definition_rows, definition_scan, reload_definitions, segments_of, term


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
    assert definition_store.space.documents_containing("wine") == {"brandy": "1"}
    assert definition_store.records["brandy"].split("\n")[1] == \
        "brandy.n.01\tdifferentia_event\tdistilled from wine or fermented fruit juice"


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


@pytest.mark.parametrize("sense,text", [
    ("s\tx", "fruit"), ("s\nx", "fruit"), ("s", "red\tfruit"), ("s", "red\nfruit"),
], ids=["tab-in-sense", "newline-in-sense", "tab-in-text", "newline-in-text"])
def test_tab_or_newline_in_sense_or_text_rejected(tmp_path, lemma_table, stopwords, sense, text):
    # the records string of a lemma could not be split back into its segments
    recs = [{"term": "pear", "sense": "s0", "segments": [{"role": "supertype", "text": "fruit"}]},
            {"term": "apple", "sense": sense, "segments": [{"role": "supertype", "text": text}]}]
    p = write_jsonl(tmp_path / "sep.jsonl", recs)
    with pytest.raises(DataFormatError, match="holds a tab or a newline") as exc:
        load_definitions(p, lemma_table, stopwords)
    assert (exc.value.path, exc.value.line) == (str(p), 2)


def test_other_line_breaks_in_text_come_back_unchanged(tmp_path, lemma_table, stopwords):
    texts = ["red\rfruit", "red\x0bfruit", "red\u00a0fruit", "red\u2028fruit", "red\r\x85fruit"]
    recs = [{"term": "apple", "sense": f"s{i}\u2029", "segments": [
        {"role": "differentia_quality", "text": text}]} for i, text in enumerate(texts)]
    built = load_definitions(write_jsonl(tmp_path / "breaks.jsonl", recs), lemma_table, stopwords)
    dump_json(built.to_dict(), tmp_path / "definitions.index.json")
    reloaded = store_from_dict(load_json(tmp_path / "definitions.index.json"))
    for store in (built, reloaded):
        res = store.has_property(term("apple"), term("fruit"))
        assert [(e.sense_id, e.text) for e in res.evidence] == \
            [(f"s{i}\u2029", text) for i, text in enumerate(texts)]


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
    # each evidence segment is a raw record's segment of its term, and names the attribute
    store = reloaded_definition_store
    segments = segments_of(definition_rows(), lemma_table, stopwords)
    for t in segments:
        for a in ["body", "fruit", "wine", "yellow"]:
            res = store.has_property(term(t), term(a))
            for e in res.evidence:
                assert (e.sense_id, e.role, e.text) in [seg[:3] for seg in segments[e.term]]
                assert a in normalize(e.text, lemma_table, stopwords)


def test_depth0_oracle_equivalence(reloaded_definition_store, lemma_table, stopwords):
    # brute force over the texts of the term's own segments, as the raw records give them
    store = reloaded_definition_store
    segments = segments_of(definition_rows(), lemma_table, stopwords)
    vocab = {x for segs in segments.values() for *_, lemmas in segs for x in lemmas}
    for t, segs in segments.items():
        for a in vocab:
            brute = [(t, sense, role, text, (t,)) for sense, role, text, lemmas in segs
                     if a in lemmas]
            res = store.has_property(term(t), Term(a, a), max_depth=0)
            assert (res.member, list(res.evidence)) == (bool(brute), brute)


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


@given(defs=definition_sets, cycle=st.permutations(nouns[:3]),
       long=st.lists(st.lists(words, max_size=3).map(" ".join), min_size=11, max_size=14),
       cut=st.integers(1, 10))
def test_built_and_reloaded_evidence_is_a_scan_of_the_records(defs, cycle, long, cut,
                                                              lemma_table, stopwords):
    # always a supertype cycle through three nouns, a self-supertype, and a lemma
    # of more than ten segments over two senses, several of which name "red"
    long = [f"{text} red" if i % 4 == 2 else text for i, text in enumerate(long)]
    rows = [(t, sense, segments) for (t, sense), segments in defs.items()]
    rows += [(child, "cycle", [("supertype", parent)])
             for child, parent in zip(cycle, cycle[1:] + cycle[:1])]
    rows += [("bee", "self", [("supertype", "big bee")]),
             ("apples", "long1", [("differentia_quality", text) for text in long[:cut]]),
             ("apples", "long2", [("differentia_quality", text) for text in long[cut:]])]
    segments = segments_of(rows, lemma_table, stopwords)
    lemmas = ["ant", "bee", "cow", "apple", "red", "whisker", "big", "zebra"]
    scans = {(t, a, depth): definition_scan(segments, t, a, depth)
             for t in lemmas for a in lemmas for depth in range(4)}
    built = _build_store([(*row, (None, None)) for row in rows], lemma_table, stopwords)
    for store in (built, reload_definitions(built)):
        assert {(t, a, depth): list(store.has_property(term(t), term(a), depth).evidence)
                for t, a, depth in scans} == scans


def test_index_form_is_the_store_form(definition_store):
    data = definition_store.to_dict()
    assert data["records"] is definition_store.records
    assert data["supertype_edges"] is definition_store.supertype_edges
    assert data["space"]["postings"] is definition_store.space.postings
    reloaded = store_from_dict(data)
    assert reloaded.records is definition_store.records
    assert reloaded.supertype_edges is definition_store.supertype_edges
    assert reloaded.space.postings is definition_store.space.postings
    assert definition_store.records["brandy"] == (
        "brandy.n.01\tsupertype\tstrong liquor\n"
        "brandy.n.01\tdifferentia_event\tdistilled from wine or fermented fruit juice")
    # each document's fields: its segment positions, in numeric order, in one string
    postings = definition_store.space.postings
    for docs in postings.values():
        for fields in docs.values():
            positions = sorted(map(int, fields.split(" ")))
            assert fields == " ".join(map(str, positions))


def test_evidence_follows_segment_order_past_nine(tmp_path, lemma_table, stopwords):
    # 12 segments over two senses; "red" at positions 2 and 10, so positions
    # sorted as strings ("10" < "2") would put the later segment first
    texts = [f"red tint {i}" if i in (2, 10) else f"plain {i}" for i in range(12)]
    records = [{"term": "ant", "sense": sense,
                "segments": [{"role": "differentia_quality", "text": t} for t in half]}
               for sense, half in (("s1", texts[:6]), ("s2", texts[6:]))]
    built = load_definitions(write_jsonl(tmp_path / "long.jsonl", records), lemma_table, stopwords)
    assert built.space.documents_containing("red") == {"ant": "2 10"}
    for store in (built, reload_definitions(built)):
        res = store.has_property(term("ant"), term("red"))
        assert [(e.sense_id, e.text) for e in res.evidence] == [
            ("s1", "red tint 2"), ("s2", "red tint 10")]
