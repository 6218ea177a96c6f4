"""Cascaded discriminative-attribute classification with explanations.

Each stage answers set membership for (attribute, term). A triple is
discriminative when some stage holds the attribute for the pivot and not
for the comparison; the first such stage (in configured order) supplies
the explanation. Stage order never changes the boolean verdict, only
which component explains it.
"""
from __future__ import annotations

from importlib import import_module
from typing import Callable, NamedTuple

from .errors import EvidenceError
from .types import (COMPONENTS, DEFAULT_MAX_DEPTH, DefinitionEvidence, EdgeEvidence,
                    RegionEvidence, Triple)


class Explanation(NamedTuple):
    kind: str  # the deciding stage's kind: "intensional" or "extensional"
    template_id: str
    pivot_evidence: tuple
    comparison_check: str
    rendered_text: str

    def to_dict(self):
        return {
            "kind": self.kind,
            "template_id": self.template_id,
            "pivot_evidence": [e.to_dict() for e in self.pivot_evidence],
            "comparison_check": self.comparison_check,
            "rendered_text": self.rendered_text,
        }


class _Verdict(NamedTuple):
    discriminative: bool
    deciding_component: str | None = None
    explanation: Explanation | None = None

    def to_dict(self, triple: Triple):
        return {
            "pivot": triple.pivot.lemma,
            "comparison": triple.comparison.lemma,
            "attribute": triple.attribute.lemma,
            "label": 1 if self.discriminative else 0,
            "deciding_component": self.deciding_component,
            "explanation": self.explanation.to_dict() if self.explanation else None,
        }


# a NamedTuple's body may not define __new__, so the checked types subclass one, and
# point `_make`, which `_replace` calls, at the class so that it runs the check too
class Verdict(_Verdict):
    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.discriminative != (None not in (self.deciding_component, self.explanation)):
            raise ValueError("positive verdicts need a component and explanation; negatives neither")
        return self


class _CascadeConfig(NamedTuple):
    stage_order: tuple = COMPONENTS
    dbm_max_depth: int = DEFAULT_MAX_DEPTH
    vfm_min_count: int = 1
    vfm_use_sor: bool = False


_CONFIG_CHECKS = (  # `type(v) is int` also rejects bools
    ("stage_order", lambda v: type(v) in (tuple, list) and sorted(v, key=str) == sorted(COMPONENTS),
     f"a permutation of {list(COMPONENTS)}"),
    ("dbm_max_depth", lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    ("vfm_min_count", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    ("vfm_use_sor", lambda v: type(v) is bool, "true or false"),
)


class CascadeConfig(_CascadeConfig):
    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key, ok, expected in _CONFIG_CHECKS:
            if not ok(getattr(self, key)):
                raise ValueError(f"{key!r} must be {expected}, not {getattr(self, key)!r}")
        # a list order is kept as a tuple, so the config hashes and equals the tuple-built one
        return self._replace(stage_order=tuple(self.stage_order)) \
            if type(self.stage_order) is list else self


class StoreSet(NamedTuple):  # each annotation is a store module's class, not imported here
    definitions: DefinitionStore
    commonsense: CkgStore
    visual: VisualStore


class Stage(NamedTuple):
    """One knowledge component: how its store is ingested, loaded and asked,
    its evidence type and the template that explains a verdict it decides."""

    name: str
    kind: str  # "intensional" or "extensional"
    template_id: str
    template: str
    store: str  # the `StoreSet` field and module name, the index file's stem, the manifest's count key
    ask: Callable  # (store method, term, attribute, config) -> method(term, attribute, options)
    evidence_type: type  # decodes stored evidence with `from_dict`
    slots: Callable  # evidence tuple -> the template's evidence slots
    ingest: Callable  # (module, run config, lemma table, stopwords) -> store, empty when unconfigured
    load: Callable  # (module, decoded index) -> store
    count: Callable  # store -> (documents, skipped records)

    @property
    def index_file(self):
        return f"{self.store}.index.json"

    @property
    def module(self):
        """The store's module, which `ingest` and `load` take: imported when first asked for."""
        return import_module(f"{__package__}.{self.store}")


def _dbm_slots(evidence):
    ev = min(evidence, key=lambda e: (len(e.path), e.term, e.sense_id, e.role))
    via = " (inherited via " + " -> ".join(ev.path) + ")" if len(ev.path) > 1 else ""
    return {"evidence_term": ev.term, "sense": ev.sense_id, "role": ev.role,
            "text": ev.text, "via": via}


def _ckg_slots(evidence):
    e = min(evidence, key=lambda e: (e.relation, e.start, e.end))
    return {"start": e.start, "relation": e.relation, "end": e.end}


def _vfm_slots(evidence):
    ev = evidence[0]
    via = ""
    if ev.via is not None:
        _, subject, predicate, object_ = ev.via
        via = f" (inherited from '{ev.object}' via {subject} -{predicate}-> {object_})"
    return {"evidence_object": ev.object, "n": len(ev.regions), "via": via,
            "regions": ", ".join(f"img {img}/r{reg}" for img, reg in ev.regions)}


# Stages look store methods and module functions up per call, so a later wrapper sees them.
STAGES = {s.name: s for s in (
    Stage(
        "DBM", "intensional", "dbm.v1",
        "'{attribute}' is discriminative for '{pivot}' versus '{comparison}': "
        "the definition of {evidence_term} ({sense}, role: {role}){via} states "
        "\"{text}\", while no definition of '{comparison}' (or of its supertypes) "
        "mentions '{attribute}'.",
        "definitions",
        lambda method, term, attribute, config: method(term, attribute, config.dbm_max_depth),
        DefinitionEvidence, _dbm_slots,
        ingest=lambda definitions, cfg, lemma_table, stopwords: (
            definitions.load_definitions(cfg.definitions, lemma_table, stopwords) if cfg.definitions
            else definitions._build_store([], lemma_table, stopwords)),
        load=lambda definitions, data: definitions.store_from_dict(data),
        count=lambda store: (store.space.document_count, 0),
    ),
    Stage(
        "CKG", "intensional", "ckg.v1",
        "'{attribute}' is discriminative for '{pivot}' versus '{comparison}': "
        "the knowledge graph contains the edge {start} -{relation}-> {end}, "
        "while no edge links '{comparison}' and '{attribute}'.",
        "commonsense", lambda method, term, attribute, config: method(term, attribute),
        EdgeEvidence, _ckg_slots,
        ingest=lambda commonsense, cfg, lemma_table, _: (
            commonsense.load_assertions(cfg.assertions, lemma_table, cfg.language)
            if cfg.assertions else commonsense.CkgStore.build([])),
        load=lambda commonsense, data: commonsense.CkgStore.from_dict(data),
        count=lambda store: (sum(pairs.count("\t") + 1 for ends in store.edges.values()
                                 for pairs in ends.values()) // 2, store.skipped),  # 2 fields each
    ),
    Stage(
        "VFM", "extensional", "vfm.v1",
        "'{attribute}' is discriminative for '{pivot}' versus '{comparison}': "
        "'{attribute}' co-occurs with '{evidence_object}'{via} in {n} image "
        "region(s) ({regions}), and never with '{comparison}'.",
        "visual",
        lambda method, term, attribute, config: method(
            term, attribute, config.vfm_min_count, config.vfm_use_sor),
        RegionEvidence, _vfm_slots,
        ingest=lambda visual, cfg, lemma_table, stopwords: visual.load_scene_graphs(
            cfg.scene_graphs, lemma_table, stopwords),
        load=lambda visual, data: visual.VisualStore.from_dict(data),
        count=lambda store: (sum(map(len, store.oa_index.values())), store.skipped),
    ),
)}


def render_explanation(triple: Triple, component: str, evidence: tuple) -> str:
    """Deterministic template rendering of a positive verdict's evidence."""
    if not evidence:
        raise EvidenceError(f"no evidence to render for {triple.key()} ({component})")
    stage = STAGES[component]
    return stage.template.format(
        pivot=triple.pivot.lemma, comparison=triple.comparison.lemma,
        attribute=triple.attribute.lemma, **stage.slots(evidence),
    )


def classify(triple: Triple, stores: StoreSet,
             config: CascadeConfig = CascadeConfig(), decided=None) -> Verdict:
    """Run the cascade; first stage with (attr in pivot) and (attr not in
    comparison) decides. No stage firing means not discriminative.

    `decided` is the deciding component and the pivot's membership result
    there, or (None, None), as `classify_batch` asks them. Without it, the
    triple is classified as a batch of one, which asks every stage, so every
    store of `stores`, whether it fires."""
    if decided is None:
        return classify_batch([triple], stores, config)[0][0][1]
    component, pivot_result = decided
    if component is None:
        return Verdict(discriminative=False)
    stage = STAGES[component]
    return Verdict(
        discriminative=True,
        deciding_component=component,
        explanation=Explanation(
            kind=stage.kind,
            template_id=stage.template_id,
            pivot_evidence=pivot_result.evidence,
            comparison_check=(
                f"no {component} evidence links '{triple.attribute.lemma}' "
                f"to '{triple.comparison.lemma}'"
            ),
            rendered_text=render_explanation(triple, component, pivot_result.evidence),
        ),
    )


def classify_batch(triples, stores: StoreSet, config: CascadeConfig = CascadeConfig()):
    """Classify the sequence `triples`, order preserved.

    Returns (results, bitmaps): results is [(triple, verdict)]; bitmaps maps
    each component to its standalone per-triple decision, for overlap and
    per-category analysis. Stages go in `config.stage_order`, each asking
    every triple before the next takes its store, so `stores` may hold one
    store at a time. A stage fires for a triple when it holds the attribute
    for the pivot and not for the comparison, which is asked only when the
    pivot holds. A membership is asked at most once per triple, evidence only
    for the deciding pivot, the first time a stage fires for it.
    """
    decided = [(None, None)] * len(triples)
    bitmaps = {c: [] for c in COMPONENTS}
    for component in config.stage_order:
        stage, bitmap = STAGES[component], bitmaps[component]
        store = getattr(stores, stage.store)
        for i, (pivot, comparison, attribute, _) in enumerate(triples):
            fires = stage.ask(store.holds, pivot, attribute, config) \
                and not stage.ask(store.holds, comparison, attribute, config)
            bitmap.append(fires)
            if fires and decided[i][0] is None:
                decided[i] = component, stage.ask(store.has_property, pivot, attribute, config)
        store = None  # dropped as its stage ends, the last before the verdicts are built
    results = [(triple, classify(triple, stores, config, d)) for triple, d in zip(triples, decided)]
    return results, bitmaps
