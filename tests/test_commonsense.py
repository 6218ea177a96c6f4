import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr.commonsense import Assertion, CkgStore, load_assertions
from discrimattr.errors import DataFormatError

from conftest import concepts_of, term


def test_negated_relations_excluded(ckg_store):
    assert all(not a.relation.startswith("Not") for a in ckg_store.assertions)
    # banana-red exists only as NotHasProperty in the raw dump
    assert not ckg_store.has_property(term("banana"), term("red")).member


def test_bidirectional_indexing(ckg_store):
    assert ckg_store.by_pair[("cognac", "french")] == ckg_store.by_pair[("french", "cognac")]


def test_membership_with_evidence(ckg_store):
    res = ckg_store.has_property(term("cognac"), term("french"))
    assert res.member
    assert res.evidence[0].assertion.relation == "HasProperty"
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


def test_multiword_token_match_flag(ckg_store):
    assert ckg_store.has_property(term("cream"), term("cold"), token_match=True).member


def test_oracle_equivalence_linear_scan(ckg_store):
    concepts = concepts_of(ckg_store)
    for a in concepts:
        for b in concepts:
            brute = any(
                (x.start == a and x.end == b) or (x.start == b and x.end == a)
                for x in ckg_store.assertions
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
    assert ev.assertion.weight == 2.0


def test_relation_allowlist(data_dir, lemma_table):
    store = load_assertions(data_dir / "assertions.tsv", lemma_table,
                            relation_allowlist={"HasProperty"})
    assert store.has_property(term("cognac"), term("french")).member
    assert not store.has_property(term("cognac"), term("brandy")).member


def test_unreadable_file_errors(tmp_path, lemma_table):
    with pytest.raises(DataFormatError):
        load_assertions(tmp_path / "missing.tsv", lemma_table)


def test_self_loop_evidence_listed_once():
    store = CkgStore.build([Assertion("RelatedTo", "x", "x"), Assertion("HasProperty", "x", "y")])
    res = store.has_property(term("x"), term("x"))
    assert [(e.assertion.end, e.direction) for e in res.evidence] == [("x", "forward")]
    assert len(store.has_property(term("x"), term("x"), token_match=True).evidence) == 1


concept_names = ["ant", "bee", "red", "ice_cream", "cream", "cold"]
assertion_sets = st.lists(
    st.builds(Assertion, st.sampled_from(["HasProperty", "RelatedTo", "NotHasProperty"]),
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
            for token_match in (False, True):
                assert reloaded.has_property(term(a), term(b), token_match) == \
                    built.has_property(term(a), term(b), token_match)
