"""Cascaded discriminative-attribute classification with explanations.

Each stage answers set membership for (attribute, term). A triple is
discriminative when some stage holds the attribute for the pivot and not
for the comparison; the first such stage (in configured order) supplies
the explanation. Stage order never changes the boolean verdict, only
which component explains it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .commonsense import CkgStore
from .definitions import DEFAULT_MAX_DEPTH, DefinitionStore
from .errors import EvidenceError
from .types import COMPONENTS, MembershipResult, Triple
from .visual import VisualStore

TEMPLATES = {
    "dbm.v1": (
        "'{attribute}' is discriminative for '{pivot}' versus '{comparison}': "
        "the definition of {evidence_term} ({sense}, role: {role}){via} states "
        "\"{text}\", while no definition of '{comparison}' (or of its supertypes) "
        "mentions '{attribute}'."
    ),
    "ckg.v1": (
        "'{attribute}' is discriminative for '{pivot}' versus '{comparison}': "
        "the knowledge graph contains the edge {start} -{relation}-> {end}, "
        "while no edge links '{comparison}' and '{attribute}'."
    ),
    "vfm.v1": (
        "'{attribute}' is discriminative for '{pivot}' versus '{comparison}': "
        "'{attribute}' co-occurs with '{evidence_object}'{via} in {n} image "
        "region(s) ({regions}), and never with '{comparison}'."
    ),
}

_DEFAULT_TEMPLATE = {"DBM": "dbm.v1", "CKG": "ckg.v1", "VFM": "vfm.v1"}


@dataclass(frozen=True)
class Explanation:
    kind: str  # "intensional" (DBM/CKG) or "extensional" (VFM)
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


@dataclass(frozen=True)
class Verdict:
    discriminative: bool
    deciding_component: str | None = None
    explanation: Explanation | None = None

    def __post_init__(self):
        if self.discriminative != (
            self.deciding_component is not None and self.explanation is not None
        ):
            raise ValueError("positive verdicts need a component and explanation; negatives neither")

    def to_dict(self, triple: Triple | None = None):
        d = {
            "label": 1 if self.discriminative else 0,
            "deciding_component": self.deciding_component,
            "explanation": self.explanation.to_dict() if self.explanation else None,
        }
        if triple is not None:
            d = {
                "pivot": triple.pivot.lemma,
                "comparison": triple.comparison.lemma,
                "attribute": triple.attribute.lemma,
                **d,
            }
        return d


@dataclass(frozen=True)
class CascadeConfig:
    stage_order: tuple = COMPONENTS
    dbm_max_depth: int = DEFAULT_MAX_DEPTH
    vfm_min_count: int = 1
    vfm_use_sor: bool = False

    def __post_init__(self):
        if sorted(self.stage_order) != sorted(COMPONENTS):
            raise ValueError(f"stage_order must be a permutation of {COMPONENTS}")

    def to_dict(self):
        return {
            "stage_order": list(self.stage_order),
            "dbm_max_depth": self.dbm_max_depth,
            "vfm_min_count": self.vfm_min_count,
            "vfm_use_sor": self.vfm_use_sor,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            stage_order=tuple(d.get("stage_order", COMPONENTS)),
            dbm_max_depth=d.get("dbm_max_depth", DEFAULT_MAX_DEPTH),
            vfm_min_count=d.get("vfm_min_count", 1),
            vfm_use_sor=d.get("vfm_use_sor", False),
        )


@dataclass(frozen=True)
class StoreSet:
    definitions: DefinitionStore
    commonsense: CkgStore
    visual: VisualStore


def member(component, term, attribute, stores: StoreSet, config: CascadeConfig) -> MembershipResult:
    """One component's membership answer for (attribute, term)."""
    if component == "DBM":
        return stores.definitions.has_property(term, attribute, max_depth=config.dbm_max_depth)
    if component == "CKG":
        return stores.commonsense.has_property(term, attribute)
    if component == "VFM":
        return stores.visual.has_property(
            term, attribute, min_count=config.vfm_min_count, use_sor=config.vfm_use_sor
        )
    raise ValueError(f"unknown component {component!r}")


def render_explanation(triple: Triple, component: str, evidence: tuple,
                       template_id: str | None = None) -> str:
    """Deterministic template rendering of a positive verdict's evidence."""
    if not evidence:
        raise EvidenceError(f"no evidence to render for {triple.key()} ({component})")
    template_id = template_id or _DEFAULT_TEMPLATE[component]
    template = TEMPLATES[template_id]
    slots = {
        "pivot": triple.pivot.lemma,
        "comparison": triple.comparison.lemma,
        "attribute": triple.attribute.lemma,
    }
    if component == "DBM":
        ev = min(evidence, key=lambda e: (len(e.path), e.term, e.sense_id, e.role))
        via = ""
        if len(ev.path) > 1:
            via = " (inherited via " + " -> ".join(ev.path) + ")"
        return template.format(
            evidence_term=ev.term, sense=ev.sense_id, role=ev.role, text=ev.text,
            via=via, **slots,
        )
    if component == "CKG":
        ev = min(evidence, key=lambda e: (e.assertion.relation, e.assertion.start, e.assertion.end))
        return template.format(
            start=ev.assertion.start, relation=ev.assertion.relation, end=ev.assertion.end,
            **slots,
        )
    if component == "VFM":
        ev = evidence[0]
        regions = ", ".join(f"img {img}/r{reg}" for img, reg in ev.regions)
        via = ""
        if ev.via is not None:
            via = (
                f" (inherited from '{ev.object}' via "
                f"{ev.via.subject} -{ev.via.predicate}-> {ev.via.object})"
            )
        return template.format(
            evidence_object=ev.object, n=len(ev.regions), regions=regions, via=via,
            **slots,
        )
    raise ValueError(f"unknown component {component!r}")


def _build_explanation(triple, component, pivot_result, template_id=None):
    kind = "extensional" if component == "VFM" else "intensional"
    template_id = template_id or _DEFAULT_TEMPLATE[component]
    text = render_explanation(triple, component, pivot_result.evidence, template_id)
    check = (
        f"no {component} evidence links '{triple.attribute.lemma}' "
        f"to '{triple.comparison.lemma}'"
    )
    return Explanation(
        kind=kind,
        template_id=template_id,
        pivot_evidence=pivot_result.evidence,
        comparison_check=check,
        rendered_text=text,
    )


def _fire(component, triple: Triple, stores: StoreSet, config: CascadeConfig):
    """The pivot's membership result when the stage fires for the triple
    (attr in pivot, attr not in comparison), else None. The comparison is
    asked only when the pivot holds."""
    pivot_result = member(component, triple.pivot, triple.attribute, stores, config)
    if pivot_result.member and not member(
        component, triple.comparison, triple.attribute, stores, config
    ).member:
        return pivot_result
    return None


def classify(triple: Triple, stores: StoreSet,
             config: CascadeConfig = CascadeConfig(), fired=None) -> Verdict:
    """Run the cascade; first stage with (attr in pivot) and (attr not in
    comparison) decides. No stage firing means not discriminative.

    `fired`, when given, maps every component to what `_fire` returned for
    this triple, so a caller that has asked every stage already does not
    ask again."""
    for component in config.stage_order:
        if fired is None:
            pivot_result = _fire(component, triple, stores, config)
        else:
            pivot_result = fired[component]
        if pivot_result is not None:
            return Verdict(
                discriminative=True,
                deciding_component=component,
                explanation=_build_explanation(triple, component, pivot_result),
            )
    return Verdict(discriminative=False)


def classify_batch(triples, stores: StoreSet, config: CascadeConfig = CascadeConfig()):
    """Classify a batch, order preserved.

    Returns (results, bitmaps): results is [(triple, verdict)]; bitmaps maps
    each component to its standalone per-triple decision, for overlap and
    per-category analysis. Each membership is asked at most once per
    triple; the verdict and the bitmaps both derive from those answers.
    """
    results = []
    bitmaps = {c: [] for c in COMPONENTS}
    for triple in triples:
        fired = {c: _fire(c, triple, stores, config) for c in COMPONENTS}
        results.append((triple, classify(triple, stores, config, fired)))
        for component in COMPONENTS:
            bitmaps[component].append(fired[component] is not None)
    return results, bitmaps
