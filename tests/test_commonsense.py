import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr.commonsense import CkgStore, load_assertions
from discrimattr.errors import DataFormatError
from discrimattr.text import lemma_of

from conftest import assertion_rows, assertions_of, concepts_of, edge_scan, evidence_of, term


def test_negated_relations_excluded(ckg_store, lemma_table):
    # the concepts of every row, negated ones too
    concepts = [lemma_of(c, lemma_table) for c in concepts_of(assertion_rows())]
    for a in concepts:
        for b in concepts:
            evidence = ckg_store.has_property(term(a, a), term(b, b)).evidence
            assert not any(e.relation.startswith("Not") for e in evidence)
    # banana-red exists only as NotHasProperty in the raw dump
    assert not ckg_store.has_property(term("banana"), term("red")).member


def test_bidirectional_indexing(ckg_store):
    forward = ckg_store.has_property(term("cognac"), term("french")).evidence
    reverse = ckg_store.has_property(term("french"), term("cognac")).evidence
    assert [e.to_dict()["assertion"] for e in forward] == [e.to_dict()["assertion"] for e in reverse]
    assert {e.direction for e in forward} == {"forward"}
    assert {e.direction for e in reverse} == {"reverse"}


def test_membership_with_evidence(ckg_store):
    res = ckg_store.has_property(term("cognac"), term("french"))
    assert res.member
    assert res.evidence[0].relation == "HasProperty"
    assert res.evidence[0].direction == "forward"


def test_symmetric_lookup(ckg_store, lemma_table):
    concepts = concepts_of(assertions_of(assertion_rows(), lemma_table)) + ["nothere"]
    for a in concepts:
        for b in concepts:
            fwd = ckg_store.has_property(term(a, a), term(b, b)).member
            rev = ckg_store.has_property(term(b, b), term(a, a)).member
            assert fwd == rev


def test_unknown_concept_false(ckg_store):
    assert not ckg_store.has_property(term("zebra"), term("striped")).member


def test_lemma_normalization_applies(ckg_store):
    # raw dump says "dancing"; the store holds the lemma "dance"
    res = ckg_store.has_property(term("nightclub"), term("dancing", "dance"))
    assert res.member


def test_multiword_whole_concept_default(ckg_store):
    assert ckg_store.has_property(term("ice_cream", "ice_cream"), term("cold")).member
    assert not ckg_store.has_property(term("cream"), term("cold")).member


def test_oracle_equivalence_linear_scan(ckg_store, lemma_table):
    assertions = assertions_of(assertion_rows(), lemma_table)
    concepts = concepts_of(assertions) + ["nothere"]
    for a in concepts:
        for b in concepts:
            brute = edge_scan(assertions, a, b)
            res = ckg_store.has_property(term(a, a), term(b, b))
            assert (res.member, evidence_of(res)) == (bool(brute), brute)
            assert ckg_store.holds(term(a, a), term(b, b)) == bool(brute)


def test_conceptnet_dump_format(data_dir, lemma_table):
    store = load_assertions(data_dir / "assertions_conceptnet.tsv", lemma_table,
                            language_filter="en")
    assert store.has_property(term("cognac"), term("french")).member
    assert not store.has_property(term("banana"), term("red")).member
    # French-language concepts filtered out
    assert not store.has_property(term("pomme"), term("rouge")).member
    assert store.skipped == 1  # the malformed line
    # source weight is stored
    ev = store.has_property(term("cognac"), term("french")).evidence[0]
    assert ev.weight == 2.0


def _conceptnet_row(meta):
    return f"/a/x\t/r/HasProperty\t/c/en/cat\t/c/en/soft\t{meta}"


@pytest.mark.parametrize("line", [
    "HasProperty\tcat\tsoft\tnan", "HasProperty\tcat\tsoft\tinf", "HasProperty\tcat\tsoft\t-inf",
    _conceptnet_row('{"weight": NaN}'), _conceptnet_row('{"weight": Infinity}'),
    _conceptnet_row('{"weight": -Infinity}'), _conceptnet_row("[1]"),
    "HasProperty\tcat\tsoft\t" + "9" * 400, _conceptnet_row('{"weight": ' + "9" * 400 + "}"),
], ids=["nan", "inf", "-inf", "conceptnet-nan", "conceptnet-inf", "conceptnet--inf",
        "conceptnet-meta-not-an-object", "too-large", "conceptnet-too-large"])
def test_line_without_finite_weight_is_skipped(tmp_path, lemma_table, line):
    path = tmp_path / "assertions.tsv"
    path.write_text(f"{line}\n{line}\nHasProperty\tcat\tfur\t1.0\n", encoding="utf-8")
    store = load_assertions(path, lemma_table)
    assert store.skipped == 2
    assert store.edges == {"cat": {"fur": "HasProperty\t1.0"}}
    json.dumps(store.to_dict(), allow_nan=False)  # the index is standard JSON


def test_unreadable_file_errors(tmp_path, lemma_table):
    with pytest.raises(DataFormatError):
        load_assertions(tmp_path / "missing.tsv", lemma_table)


def test_self_loop_evidence_listed_once():
    store = CkgStore.build([("RelatedTo", "x", "x", 1.0), ("HasProperty", "x", "y", 1.0)])
    res = store.has_property(term("x"), term("x"))
    assert [(e.end, e.direction) for e in res.evidence] == [("x", "forward")]


@pytest.mark.parametrize("language,kept", [
    ("en", {("cat", "animal", 3.0)}),
    ("fr", {("chat", "animal_fr", 1.0)}),
    (None, {("cat", "animal", 3.0), ("chat", "animal_fr", 1.0), ("cat", "chat", 1.0)}),
], ids=["en", "fr", "no-language-filter"])
def test_conceptnet_uris_filter_by_language_and_skip_non_concepts(tmp_path, lemma_table,
                                                                 language, kept):
    rows = ["/r/IsA\t/c/en/cat/n\t/c/en/animal/n/wn/x\t{\"weight\": 3}",  # sense suffixes
            "/r/IsA\t/c/fr/chat\t/c/fr/animal_fr\t{}",
            "/r/RelatedTo\t/c/en/cat\t/c/fr/chat\t{}",  # one end in each language
            "/r/IsA\t/d/en/cat\t/c/en/animal\t{}", "/r/IsA\t/c/en\t/c/en/animal\t{}",
            "/r/\t/c/en/cat\t/c/en/animal\t{}"]  # not concepts, or no relation
    path = tmp_path / "conceptnet.tsv"
    path.write_text("".join(f"/a/x\t{row}\n" for row in rows), encoding="utf-8")
    store = load_assertions(path, lemma_table, language_filter=language)
    assert store.skipped == 3  # the last three rows, whatever the language
    found = {(e.start, e.end, e.weight) for start, end in [("cat", "animal"), ("chat", "animal_fr"),
                                                           ("cat", "chat")]
             for e in store.has_property(term(start), term(end)).evidence}
    assert found == kept


def test_a_pair_is_one_string_of_its_sorted_assertions():
    store = CkgStore.build([("UsedFor", "x", "y", 2), ("IsA", "x", "y", 1.0),
                            ("IsA", "x", "y", 0.1 + 0.2), ("NotIsA", "x", "y", 1.0),
                            ("IsA", "y", "x", -0.0), ("IsA", "x", "y", 1)])
    assert store.edges == {"x": {"y": "IsA\t0.30000000000000004\tIsA\t1.0\tUsedFor\t2.0"},
                           "y": {"x": "IsA\t-0.0"}}


@pytest.mark.parametrize("relation", ["Has\tProperty", "\t", "HasProperty\t"])
def test_a_relation_with_a_tab_is_rejected(relation):
    # neither input format can give one, since both split lines on tabs
    with pytest.raises(ValueError, match="holds a tab"):
        CkgStore.build([("IsA", "x", "y", 1.0), (relation, "x", "y", 1.0)])


concept_names = ["ant", "bee", "red", "ice_cream", "cream", "cold"]
weights = [1.0, 2.0, 0.1 + 0.2, 5e-324, -0.0, 0.0, 1.585, 3]
assertion_sets = st.lists(
    st.tuples(st.sampled_from(["HasProperty", "RelatedTo", "Has Property", "NotHasProperty"]),
              st.sampled_from(concept_names), st.sampled_from(concept_names),
              st.sampled_from(weights)),
    max_size=12,
)


@given(assertion_sets)
def test_reloaded_store_answers_like_built(assertions):
    built = CkgStore.build(assertions)
    reloaded = CkgStore.from_dict(json.loads(json.dumps(built.to_dict())))
    queried = concept_names + ["zebra"]
    for a in queried:
        for b in queried:
            assert reloaded.has_property(term(a), term(b)) == built.has_property(term(a), term(b))


@given(assertion_sets)
def test_evidence_in_assertion_order(assertions):
    store = CkgStore.build(assertions)
    kept = sorted({a for a in assertions if not a[0].startswith("Not")})
    for a in concept_names:
        for b in concept_names:
            brute = [(relation, start, end, weight, "forward" if start == a else "reverse")
                     for relation, start, end, weight in kept
                     if (start, end) in ((a, b), (b, a))]
            got = store.has_property(term(a), term(b)).evidence
            assert [(e.relation, e.start, e.end, e.weight, e.direction) for e in got] == brute


@given(assertion_sets)
def test_built_and_reloaded_evidence_is_a_scan_of_the_assertions(assertions):
    # each case at least once: every weight, a relation with a space, a self-loop,
    # both directions of a pair, a repeat and a `Not*` relation
    assertions = assertions + [("Has Property", "ant", "red", w) for w in weights] + [
        ("RelatedTo", "cold", "cold", 1.585), ("RelatedTo", "red", "ant", 5e-324),
        ("RelatedTo", "red", "ant", 5e-324), ("NotHasProperty", "ant", "red", 1.0)]
    built = CkgStore.build(assertions)
    reloaded = CkgStore.from_dict(json.loads(json.dumps(built.to_dict())))
    queried = concept_names + ["zebra"]
    for a in queried:
        for b in queried:
            brute = edge_scan(assertions, a, b)
            for store in (built, reloaded):
                assert evidence_of(store.has_property(term(a), term(b))) == brute


@given(assertion_sets)
def test_holds_is_the_membership_of_has_property(assertions):
    # the drawn assertions run both ways between two concepts and loop on one;
    # one self-loop is always there
    store = CkgStore.build(assertions + [("RelatedTo", "cold", "cold", 1.0)])
    queried = concept_names + ["zebra"]
    for a in queried:
        for b in queried:
            assert store.holds(term(a), term(b)) == store.has_property(term(a), term(b)).member


def test_index_form_is_the_store_form(ckg_store):
    data = ckg_store.to_dict()
    assert data["edges"] is ckg_store.edges
    assert CkgStore.from_dict(data).edges is ckg_store.edges
