import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr import commonsense, definitions, visual
from discrimattr.cascade import (STAGES, CascadeConfig, StoreSet, classify,
                                 classify_batch, render_explanation)
from discrimattr.errors import EvidenceError
from discrimattr.types import COMPONENTS, Triple

from conftest import decide, decided, member, term


def triple(p, c, a, lemma_table=None):
    def t(s):
        if lemma_table:
            from discrimattr.text import lemma_of
            return term(s, lemma_of(s, lemma_table))
        return term(s)
    return Triple(t(p), t(c), t(a))


def test_apple_banana_red(stores, lemma_table):
    v = classify(triple("apple", "banana", "red", lemma_table), stores)
    assert v.discriminative
    assert v.explanation is not None


def test_planet_moon_body_depth_sensitivity(stores, lemma_table):
    t = triple("planet", "moon", "body", lemma_table)
    v0 = classify(t, stores, CascadeConfig(dbm_max_depth=0))
    assert v0.discriminative and v0.deciding_component == "DBM"
    for depth in (1, 2, 3):
        assert not classify(t, stores, CascadeConfig(dbm_max_depth=depth)).discriminative


def test_brandy_whiskey_wine_via_dbm(stores, lemma_table):
    v = classify(triple("brandy", "whiskey", "wine", lemma_table), stores)
    assert v.discriminative
    assert v.deciding_component == "DBM"
    assert v.explanation.kind == "intensional"


def test_cognac_whiskey_french_via_ckg(stores, lemma_table):
    v = classify(triple("cognac", "whiskey", "french", lemma_table), stores)
    assert v.discriminative
    assert v.deciding_component == "CKG"
    assert v.explanation.kind == "intensional"


def test_cat_lion_whiskers_via_vfm(stores, lemma_table):
    v = classify(triple("cat", "lion", "whiskers", lemma_table), stores)
    assert v.discriminative
    assert v.deciding_component == "VFM"
    assert v.explanation.kind == "extensional"


def test_negated_edge_never_fires(stores, lemma_table):
    # banana-red exists only as a Not-prefixed edge; no other space covers it
    assert not classify(triple("banana", "apple", "red", lemma_table), stores).discriminative


def test_identical_pivot_comparison_always_false(stores, lemma_table):
    for p, a in [("apple", "red"), ("brandy", "wine"), ("cat", "whiskers")]:
        for order in itertools.permutations(COMPONENTS):
            cfg = CascadeConfig(stage_order=order)
            assert not classify(triple(p, p, a, lemma_table), stores, cfg).discriminative


GOLDEN_DBM = (
    "'wine' is discriminative for 'brandy' versus 'whiskey': the definition of "
    "brandy (brandy.n.01, role: differentia_event) states \"distilled from wine "
    "or fermented fruit juice\", while no definition of 'whiskey' (or of its "
    "supertypes) mentions 'wine'."
)

GOLDEN_CKG = (
    "'french' is discriminative for 'cognac' versus 'whiskey': the knowledge "
    "graph contains the edge cognac -HasProperty-> french, while no edge links "
    "'whiskey' and 'french'."
)

GOLDEN_VFM = (
    "'whisker' is discriminative for 'cat' versus 'lion': 'whisker' co-occurs "
    "with 'cat' in 3 image region(s) (img 2/r1, img 2/r2, img 3/r1), and never "
    "with 'lion'."
)


def test_rendered_text_golden(stores, lemma_table):
    cases = [
        (("brandy", "whiskey", "wine"), GOLDEN_DBM),
        (("cognac", "whiskey", "french"), GOLDEN_CKG),
        (("cat", "lion", "whiskers"), GOLDEN_VFM),
    ]
    for (p, c, a), expected in cases:
        v = classify(triple(p, c, a, lemma_table), stores)
        assert v.explanation.rendered_text == expected


def test_render_requires_evidence(stores, lemma_table):
    with pytest.raises(EvidenceError):
        render_explanation(triple("a", "b", "c"), "DBM", ())


def test_batch_equals_map(stores, lemma_table):
    # DBM, CKG and VFM each decide some of these, and several stages fire for some
    triples = [triple(p, c, a, lemma_table)
               for p in ("apple", "brandy", "cat", "cognac", "planet")
               for c in ("banana", "whiskey", "lion", "moon")
               for a in ("red", "wine", "whiskers", "french", "body")]
    deciders = set()
    for order in itertools.permutations(COMPONENTS):
        for extra in ({}, {"dbm_max_depth": 0, "vfm_use_sor": True}):
            cfg = CascadeConfig(stage_order=order, **extra)
            results, _ = classify_batch(triples, stores, cfg)
            # whole verdicts: the component and the explanation too
            assert results == [(t, classify(t, stores, cfg)) for t in triples]
            # against the per-triple cascade, asked of each store directly
            assert [decided(v) for _, v in results] == [decide(t, stores, cfg) for t in triples]
            assert all(v.discriminative == (v.deciding_component is not None) for _, v in results)
            deciders |= {v.deciding_component for _, v in results}
    assert deciders == {None, *COMPONENTS}
    assert classify_batch([], stores) == ([], {c: [] for c in COMPONENTS})


def test_batch_asks_evidence_of_the_deciding_pivot_alone(stores, lemma_table, monkeypatch):
    asked = []
    for cls, name in ((definitions.DefinitionStore, "definitions"),
                      (commonsense.CkgStore, "commonsense"), (visual.VisualStore, "visual")):
        def counted(store, term, attribute, *args, _name=name, _query=cls.has_property, **kwargs):
            asked.append((_name, term, attribute))
            return _query(store, term, attribute, *args, **kwargs)
        monkeypatch.setattr(cls, "has_property", counted)
    triples = [triple(p, c, a, lemma_table)
               for p in ("apple", "brandy", "cat", "cognac", "planet")
               for c in ("banana", "whiskey", "lion", "moon")
               for a in ("red", "wine", "whiskers", "french", "body")]
    for order in itertools.permutations(COMPONENTS):
        for extra in ({}, {"dbm_max_depth": 0, "vfm_use_sor": True}):
            asked.clear()
            results, bitmaps = classify_batch(triples, stores, CascadeConfig(order, **extra))
            # stage by stage, once per positive verdict, for its deciding pivot
            assert asked == [(STAGES[c].store, t.pivot, t.attribute)
                             for c in order for t, v in results if v.deciding_component == c]
            assert len(asked) == sum(v.discriminative for _, v in results)
            # where a stage fires after another decided, it fires without evidence
            assert len(asked) < sum(map(sum, bitmaps.values()))
            # classify, one triple at a time, asks for the same evidence
            asked.clear()
            assert [(t, classify(t, stores, CascadeConfig(order, **extra))) for t in triples] \
                == results
            assert asked == [(STAGES[v.deciding_component].store, t.pivot, t.attribute)
                             for t, v in results if v.discriminative]
            cfg = CascadeConfig(order, **extra)
            assert [decided(v) for _, v in results] == [decide(t, stores, cfg) for t in triples]


def test_bitmaps_match_standalone(stores, lemma_table):
    triples = [triple(p, c, a, lemma_table)
               for p in ("apple", "brandy", "cat")
               for c in ("banana", "whiskey")
               for a in ("red", "wine", "whiskers")]
    _, bitmaps = classify_batch(triples, stores)
    cfg = CascadeConfig()
    for i, t in enumerate(triples):
        for comp in COMPONENTS:
            standalone = bool(member(comp, t.pivot, t.attribute, stores, cfg)) and not member(
                comp, t.comparison, t.attribute, stores, cfg
            )
            assert bitmaps[comp][i] == standalone


def random_stores(rng, lemma_table, stopwords):
    nouns = ["ant", "bee", "cow", "dog", "elk", "fox", "gnu", "hen"]
    attrs = ["big", "red", "wild", "soft", "loud", "tame"]
    raw_defs = []
    for noun in nouns:
        if rng.random() < 0.8:
            segments = [("supertype", rng.choice(nouns))]
            for _ in range(rng.randint(0, 2)):
                segments.append(("differentia_quality", rng.choice(attrs)))
            raw_defs.append((noun, f"{noun}.n.01", segments, (None, None)))
    dstore = definitions._build_store(raw_defs, lemma_table, stopwords)

    assertions = [
        ("HasProperty", rng.choice(nouns), rng.choice(attrs), 1.0)
        for _ in range(rng.randint(0, 12))
    ]
    cstore = commonsense.CkgStore.build(assertions)

    builder = visual._Builder(lemma_table, stopwords)
    for i in range(rng.randint(0, 20)):
        builder.add_region(str(rng.randint(1, 5)), i, rng.choice(nouns),
                           [rng.choice(attrs) for _ in range(rng.randint(0, 2))])
    for _ in range(rng.randint(0, 5)):
        builder.add_relationship(str(rng.randint(1, 5)), rng.choice(nouns), "near",
                                 rng.choice(nouns))
    vstore = builder.finish()
    return StoreSet(dstore, cstore, vstore), nouns, attrs


def test_cascade_union_equivalence_under_permutations(lemma_table, stopwords):
    rng = random.Random(20240817)
    total = 0
    while total < 500:
        stores, nouns, attrs = random_stores(rng, lemma_table, stopwords)
        triples = [
            triple(rng.choice(nouns), rng.choice(nouns), rng.choice(attrs))
            for _ in range(50)
        ]
        total += len(triples)
        base_cfg = CascadeConfig()
        for t in triples:
            union = any(
                bool(member(c, t.pivot, t.attribute, stores, base_cfg))
                and not member(c, t.comparison, t.attribute, stores, base_cfg)
                for c in COMPONENTS
            )
            for order in itertools.permutations(COMPONENTS):
                cfg = CascadeConfig(stage_order=order)
                v = classify(t, stores, cfg)
                assert v.discriminative == union
                assert decided(v) == decide(t, stores, cfg)


def test_explanation_soundness_reverifies(lemma_table, stopwords):
    rng = random.Random(99)
    stores, nouns, attrs = random_stores(rng, lemma_table, stopwords)
    cfg = CascadeConfig()
    for _ in range(300):
        t = triple(rng.choice(nouns), rng.choice(nouns), rng.choice(attrs))
        v = classify(t, stores, cfg)
        if v.discriminative:
            comp = v.deciding_component
            assert v.explanation.pivot_evidence
            assert member(comp, t.pivot, t.attribute, stores, cfg).member
            assert not member(comp, t.comparison, t.attribute, stores, cfg).member


def test_determinism(stores, lemma_table):
    t = triple("brandy", "whiskey", "wine", lemma_table)
    v1, v2 = classify(t, stores), classify(t, stores)
    assert v1.explanation.rendered_text == v2.explanation.rendered_text
    assert v1.to_dict(t) == v2.to_dict(t)


def test_comparison_evidence_flips_true_to_false(lemma_table, stopwords):
    # adding comparison-side coverage can only lose positives, never gain them
    a1 = [("HasProperty", "ant", "red", 1.0)]
    a2 = a1 + [("HasProperty", "bee", "red", 1.0)]
    d = definitions._build_store([], lemma_table, stopwords)
    v = visual._Builder(lemma_table, stopwords).finish()
    t = triple("ant", "bee", "red")
    before = classify(t, StoreSet(d, commonsense.CkgStore.build(a1), v))
    after = classify(t, StoreSet(d, commonsense.CkgStore.build(a2), v))
    assert before.discriminative and not after.discriminative


def test_stages_follow_components():
    assert tuple(STAGES) == COMPONENTS
    assert all(name == stage.name for name, stage in STAGES.items())


_text = st.text(max_size=8)
EVIDENCE = {
    "DBM": st.builds(definitions.DefinitionEvidence, _text, _text,
                     st.sampled_from(definitions.SEMANTIC_ROLES), _text,
                     st.lists(_text, max_size=4).map(tuple)),
    "CKG": st.builds(commonsense.EdgeEvidence, _text, _text, _text, st.floats(allow_nan=False),
                     st.sampled_from(["forward", "reverse"])),
    "VFM": st.builds(visual.RegionEvidence, _text, _text,
                     st.lists(st.lists(_text, min_size=2, max_size=2), max_size=4),
                     st.none() | st.lists(_text, min_size=4, max_size=4)),
}


@pytest.mark.parametrize("component", COMPONENTS)
@given(data=st.data())
def test_evidence_json_round_trip(component, data):
    stage = STAGES[component]
    e = data.draw(EVIDENCE[component])
    assert isinstance(e, stage.evidence_type)
    assert stage.evidence_type.from_dict(json.loads(json.dumps(e.to_dict()))) == e
