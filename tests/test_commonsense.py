import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr.commonsense import CkgStore, load_assertions
from discrimattr.errors import DataFormatError

from conftest import assertions_of, concepts_of, term


def test_negated_relations_excluded(ckg_store):
    assert all(not relation.startswith("Not") for relation, *_ in assertions_of(ckg_store))
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


def test_symmetric_lookup(ckg_store):
    concepts = concepts_of(ckg_store) + ["nothere"]
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


def test_oracle_equivalence_linear_scan(ckg_store):
    concepts = concepts_of(ckg_store)
    for a in concepts:
        for b in concepts:
            brute = any(
                (start == a and end == b) or (start == b and end == a)
                for _, start, end, _ in assertions_of(ckg_store)
            )
            assert ckg_store.has_property(term(a, a), term(b, b)).member == brute


def test_conceptnet_dump_format(data_dir, lemma_table):
    store = load_assertions(data_dir / "assertions_conceptnet.tsv", lemma_table,
                            language_filter="en")
    assert store.has_property(term("cognac"), term("french")).member
    assert not store.has_property(term("banana"), term("red")).member
    # French-language concepts filtered out
    assert "pomme" not in concepts_of(store)
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
], ids=["nan", "inf", "-inf", "conceptnet-nan", "conceptnet-inf", "conceptnet--inf",
        "conceptnet-meta-not-an-object"])
def test_line_without_finite_weight_is_skipped(tmp_path, lemma_table, line):
    path = tmp_path / "assertions.tsv"
    path.write_text(f"{line}\n{line}\nHasProperty\tcat\tfur\t1.0\n", encoding="utf-8")
    store = load_assertions(path, lemma_table)
    assert store.skipped == 2
    assert store.edges == {"cat\tfur": [["HasProperty", 1.0]]}
    json.dumps(store.to_dict(), allow_nan=False)  # the index is standard JSON


def test_unreadable_file_errors(tmp_path, lemma_table):
    with pytest.raises(DataFormatError):
        load_assertions(tmp_path / "missing.tsv", lemma_table)


def test_self_loop_evidence_listed_once():
    store = CkgStore.build([("RelatedTo", "x", "x", 1.0), ("HasProperty", "x", "y", 1.0)])
    res = store.has_property(term("x"), term("x"))
    assert [(e.end, e.direction) for e in res.evidence] == [("x", "forward")]


concept_names = ["ant", "bee", "red", "ice_cream", "cream", "cold"]
assertion_sets = st.lists(
    st.tuples(st.sampled_from(["HasProperty", "RelatedTo", "NotHasProperty"]),
              st.sampled_from(concept_names), st.sampled_from(concept_names),
              st.sampled_from([1.0, 2.0])),
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
