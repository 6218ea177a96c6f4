import json
import pathlib

import pytest

from discrimattr import load_assertions, load_definitions, load_scene_graphs
from discrimattr.cascade import STAGES, StoreSet
from discrimattr.definitions import store_from_dict
from discrimattr.text import lemma_of, load_lemma_table, load_stopwords, normalize

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def lemma_table():
    return load_lemma_table(DATA / "lemmas.tsv")


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords(DATA / "stopwords.txt")


@pytest.fixture(scope="session")
def definition_store(lemma_table, stopwords):
    return load_definitions(DATA / "definitions.jsonl", lemma_table, stopwords)


@pytest.fixture(scope="session")
def reloaded_definition_store(definition_store):
    return reload_definitions(definition_store)


@pytest.fixture(scope="session")
def ckg_store(lemma_table):
    return load_assertions(DATA / "assertions.tsv", lemma_table)


@pytest.fixture(scope="session")
def visual_store(lemma_table, stopwords):
    return load_scene_graphs(
        [DATA / "scene_regions.jsonl", DATA / "scene_relationships.jsonl"],
        lemma_table,
        stopwords,
    )


@pytest.fixture(scope="session")
def stores(definition_store, ckg_store, visual_store):
    return StoreSet(definitions=definition_store, commonsense=ckg_store, visual=visual_store)


def term(surface, lemma=None):
    from discrimattr.types import Term

    return Term(surface, lemma if lemma is not None else surface.lower())


def member(component, term, attribute, stores, config):
    """One component's membership answer for (attribute, term), with its evidence,
    asked of its store directly, outside any stage order or batch: the oracle that
    the cascade's verdicts are checked against."""
    stage = STAGES[component]
    return stage.ask(getattr(stores, stage.store).has_property, term, attribute, config)


def decide(triple, stores, config):
    """(deciding component, pivot evidence) of the triple by the cascade's rule, one
    triple at a time from `member` answers: the first component in stage order whose
    membership holds for the pivot and not for the comparison; (None, None) if none."""
    for component in config.stage_order:
        pivot = member(component, triple.pivot, triple.attribute, stores, config)
        if pivot and not member(component, triple.comparison, triple.attribute, stores, config):
            return component, pivot.evidence
    return None, None


def decided(verdict):
    """A verdict's (deciding component, pivot evidence), as `decide` gives them."""
    return verdict.deciding_component, verdict.explanation and verdict.explanation.pivot_evidence


def regions_of(store, obj, attribute):
    """The regions the visual store grounds the (obj, attribute) lemmas in, from
    `has_property`'s evidence without SOR; [] for a pair it has none of."""
    res = store.has_property(term(obj), term(attribute))
    return res.evidence[0].regions if res.member else []


def reload_definitions(store):
    """The store as `classify` sees it: encoded to its index JSON, then decoded."""
    return store_from_dict(json.loads(json.dumps(store.to_dict())))


def definition_rows(name="definitions.jsonl"):
    """The (term, sense, [(role, text), ...]) records of a definition file of
    tests/data, in file order, none of which ingest rejects."""
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    return [(d["term"], d["sense"], [(s["role"], s["text"]) for s in d["segments"]])
            for d in map(json.loads, filter(None, lines))]


def segments_of(rows, lemma_table, stopwords):
    """lemma -> [(sense, role, text, lemmas of the text), ...] of (term, sense,
    [(role, text), ...]) records, by brute force: each term lemmatized, each
    text normalized, the segments in file order."""
    segments = {}
    for t, sense, segs in rows:
        segments.setdefault(lemma_of(t, lemma_table), []).extend(
            (sense, role, text, normalize(text, lemma_table, stopwords)) for role, text in segs)
    return segments


def definition_scan(segments, t, a, max_depth):
    """The DBM evidence for the (t, a) lemmas, by a scan of `segments_of`'s
    segments, as (lemma, sense, role, text, path) tuples. The genus of a
    supertype segment is its text's last lemma. Each lemma within max_depth
    genus steps of t is scanned once, by (depth, lemma); its path runs through
    the least lemma one step nearer t that names it as a genus."""
    genera = {lemma: {lemmas[-1] for _, role, _, lemmas in segs if role == "supertype" and lemmas}
              for lemma, segs in segments.items()}
    depth = {t: 0}
    changed = True
    while changed:  # shortest genus-step distances, relaxed until they hold
        changed = False
        for lemma, d in list(depth.items()):
            for genus in genera.get(lemma, ()):
                if depth.get(genus, d + 2) > d + 1:
                    depth[genus] = d + 1
                    changed = True

    def path(lemma):
        if depth[lemma] == 0:
            return (lemma,)
        return path(min(x for x, d in depth.items()
                        if d == depth[lemma] - 1 and lemma in genera.get(x, ()))) + (lemma,)

    return [(lemma, sense, role, text, path(lemma))
            for lemma in sorted(depth, key=lambda x: (depth[x], x)) if depth[lemma] <= max_depth
            for sense, role, text, lemmas in segments.get(lemma, ()) if a in lemmas]


def assertion_rows(name="assertions.tsv"):
    """The (relation, start, end, weight) rows of a simplified assertion file of
    tests/data, none of which ingest skips."""
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    return [(r, s, e, float(w)) for r, s, e, w in (line.split("\t") for line in lines if line)]


def assertions_of(rows, lemma_table=None):
    """Every assertion the CKG store built from (relation, start, end, weight) rows
    holds, by brute force: sorted and unique, none with a `Not*` relation, and the
    concept names lemmatized with `lemma_table` when one is given."""
    def lemma(name):
        return name if lemma_table is None else lemma_of(name, lemma_table)
    return sorted({(relation, lemma(start), lemma(end), weight)
                   for relation, start, end, weight in rows if not relation.startswith("Not")})


def concepts_of(assertions):
    """Every concept that one of the (relation, start, end, weight) assertions names."""
    return sorted({c for _, start, end, _ in assertions for c in (start, end)})


def edge_scan(assertions, a, b):
    """The CKG evidence for the (a, b) lemmas, by a scan of (relation, start, end,
    weight) assertions: each assertion between them in either direction once, as
    first given, none with a `Not*` relation, as (relation, start, end, repr of its
    float weight, direction), in assertion order."""
    found = {}
    for relation, start, end, weight in assertions:
        if not relation.startswith("Not") and (start, end) in ((a, b), (b, a)):
            found.setdefault((relation, start, end, weight), float(weight))
    evidence = sorted((r, s, e, w, "forward" if s == a else "reverse")
                      for (r, s, e, _), w in found.items())
    return [(r, s, e, repr(w), direction) for r, s, e, w, direction in evidence]


def evidence_of(result):
    """A CKG membership answer's evidence in `edge_scan`'s form."""
    return [(e.relation, e.start, e.end, repr(e.weight), e.direction) for e in result.evidence]


def scene_regions():
    """The region records of scene_regions.jsonl, as (image, region, object, attributes)."""
    lines = (DATA / "scene_regions.jsonl").read_text(encoding="utf-8").splitlines()
    return [(r["image"], r["region"], r["object"], r["attributes"])
            for r in map(json.loads, filter(None, lines))]


def pairs_of(regions, lemma_table, stopwords):
    """(object, attribute) -> its sorted, unique [image, region]s, by brute force from
    (image, region, object, attributes) region records, none of which ingest skips."""
    pairs = {}
    for image, region, obj, attributes in regions:
        o = lemma_of(obj, lemma_table)
        for attribute in attributes:
            for a in normalize(attribute, lemma_table, stopwords):
                pairs.setdefault((o, a), set()).add((str(image), str(region)))
    return {pair: [list(r) for r in sorted(found)] for pair, found in sorted(pairs.items())}
