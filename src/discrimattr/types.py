"""Shared domain types: terms, query triples, membership results, each stage's evidence."""
from __future__ import annotations

from typing import NamedTuple

# The six attribute categories, organized as three dual pairs.
CATEGORIES = frozenset(
    {"sensory", "logical", "relative", "absolute", "essential", "incidental"}
)

COMPONENTS = ("DBM", "CKG", "VFM")


class Term(NamedTuple):
    """A surface form paired with its normalized lemma."""

    surface: str
    lemma: str


class Triple(NamedTuple):
    """A query unit (pivot, comparison, attribute), optionally gold-labeled."""

    pivot: Term
    comparison: Term
    attribute: Term
    gold_label: bool | None = None

    def key(self):
        return (self.pivot.lemma, self.comparison.lemma, self.attribute.lemma)


class MembershipResult(NamedTuple):
    """One component's answer to "does (attribute, term) hold?" plus evidence."""

    member: bool
    evidence: tuple = ()

    def __bool__(self):
        return self.member


DEFAULT_MAX_DEPTH = 3  # the supertype levels a DBM lookup climbs by default


class DefinitionEvidence(NamedTuple):
    """A segment that contains the queried attribute, with the supertype
    path from the queried term down to the defining term."""

    term: str
    sense_id: str
    role: str
    text: str
    path: tuple[str, ...]

    def to_dict(self):
        return {
            "term": self.term,
            "sense": self.sense_id,
            "role": self.role,
            "text": self.text,
            "path": list(self.path),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(term=d["term"], sense_id=d["sense"], role=d["role"], text=d["text"],
                   path=tuple(d["path"]))


class EdgeEvidence(NamedTuple):
    """An assertion linking the queried lemmas; "forward" when the term is
    its start, "reverse" when the term is its end. Evidence sorts in
    assertion order."""

    relation: str
    start: str
    end: str
    weight: float
    direction: str

    def to_dict(self):
        return {"assertion": {"relation": self.relation, "start": self.start, "end": self.end,
                              "weight": self.weight},
                "direction": self.direction}

    @classmethod
    def from_dict(cls, d):
        a = d["assertion"]
        return cls(a["relation"], a["start"], a["end"], a["weight"], d["direction"])


_VIA_KEYS = ("image", "subject", "predicate", "object")


class RegionEvidence(NamedTuple):
    """Grounding for a positive OA answer: the co-occurrence regions, plus
    the mediating relationship when the attribute was inherited, as the
    store holds it."""

    object: str
    attribute: str
    regions: list  # of [image_id, region_id]
    via: list | None = None  # [image_id, subject, predicate, object]

    def to_dict(self):
        d = {"object": self.object, "attribute": self.attribute, "regions": self.regions}
        if self.via is not None:
            d["via"] = dict(zip(_VIA_KEYS, self.via))
        return d

    @classmethod
    def from_dict(cls, d):
        via = [d["via"][k] for k in _VIA_KEYS] if "via" in d else None
        return cls(d["object"], d["attribute"], d["regions"], via)
