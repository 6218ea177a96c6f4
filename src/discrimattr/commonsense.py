"""Commonsense knowledge component built from assertion dumps.

Accepted inputs: ConceptNet 5 tab-separated dumps
(`uri<TAB>/r/Rel<TAB>/c/lang/start<TAB>/c/lang/end<TAB>{json meta}`) or a
simplified fixture format (`relation<TAB>start<TAB>end<TAB>weight`).
Negated relations (label prefixed "Not") are dropped at load time.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import open_text
from .index import layout
from .text import Lemmas
from .types import MembershipResult, Term


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


class CkgStore:
    """Immutable after load; concurrent readers are safe. Built, persisted
    and queried in one form: `edges` maps "start<TAB>end" to the sorted
    [relation, weight] pairs of the assertions from start to end, each
    assertion once, none with a `Not*` relation."""

    def __init__(self, edges, skipped=0):
        self.edges = edges
        self.skipped = skipped

    @classmethod
    def build(cls, assertions, skipped=0):
        """From (relation, start, end, weight) tuples: `Not*` relations are
        dropped, repeats collapse."""
        edges = {}
        for relation, start, end, weight in sorted(set(assertions)):
            if not relation.startswith("Not"):
                edges.setdefault(f"{start}\t{end}", []).append([relation, weight])
        return cls(edges, skipped)

    def holds(self, term: Term, attribute: Term) -> bool:
        """`has_property(...).member`, without the evidence: the two edge keys' lookups."""
        t, a = term.lemma, attribute.lemma
        return bool(self.edges.get(f"{t}\t{a}") or a != t and self.edges.get(f"{a}\t{t}"))

    def has_property(self, term: Term, attribute: Term) -> MembershipResult:
        """True iff any assertion connects the two lemmas, either direction.
        A self-loop is listed once, as forward."""
        t, a = term.lemma, attribute.lemma
        evidence = [EdgeEvidence(rel, t, a, w, "forward") for rel, w in self.edges.get(f"{t}\t{a}", ())]
        if a != t:
            evidence += [EdgeEvidence(rel, a, t, w, "reverse")
                         for rel, w in self.edges.get(f"{a}\t{t}", ())]
            evidence.sort()
        return MembershipResult(member=bool(evidence), evidence=tuple(evidence))

    def to_dict(self):
        return {"edges": self.edges, "skipped": self.skipped}

    @classmethod
    def from_dict(cls, data):
        return cls(*layout(data, edges=dict, skipped=int))


def _concept_from_uri(uri, language_filter):
    # /c/en/ice_cream or /c/en/ice_cream/n -> "ice_cream" when language matches
    parts = uri.split("/")
    if len(parts) < 4 or parts[1] != "c":
        return None
    if language_filter and parts[2] != language_filter:
        return None
    return parts[3]


def load_assertions(path, lemma_table, language_filter="en") -> CkgStore:
    """Stream an assertion dump into a CkgStore.

    Not-prefixed relations and non-matching languages are excluded;
    malformed lines increment the skip counter instead of failing the load.
    """
    assertions = set()
    skipped = 0
    lemmas = Lemmas(lemma_table)  # "_" splits tokens as a space does
    with open_text(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            parsed = _parse_line(parts, language_filter)
            if parsed is None:
                skipped += 1
                continue
            if parsed == "filtered":
                continue
            relation, start, end, weight = parsed
            if relation.startswith("Not"):
                continue
            start, end = lemmas[start], lemmas[end]
            if start is None or end is None:
                skipped += 1
            else:
                assertions.add((relation, start, end, weight))
    return CkgStore.build(assertions, skipped=skipped)


def _parse_line(parts, language_filter):
    if len(parts) >= 4 and parts[1].startswith("/r/"):
        # ConceptNet dump row
        relation = parts[1][len("/r/"):]
        if not relation or _concept_from_uri(parts[2], None) is None \
                or _concept_from_uri(parts[3], None) is None:
            return None
        start = _concept_from_uri(parts[2], language_filter)
        end = _concept_from_uri(parts[3], language_filter)
        if start is None or end is None:
            return "filtered"
        try:
            weight = float(json.loads(parts[4]).get("weight", 1.0)) if len(parts) >= 5 else 1.0
        except (json.JSONDecodeError, TypeError, ValueError, AttributeError):
            return None
    elif len(parts) in (3, 4):
        # simplified fixture row: relation, start, end[, weight]
        relation, start, end = parts[0], parts[1], parts[2]
        if not relation or not start or not end:
            return None
        try:
            weight = float(parts[3]) if len(parts) == 4 else 1.0
        except ValueError:
            return None
    else:
        return None
    # NaN is unequal to itself, so its repeats would not collapse, and JSON
    # has no literal for NaN or the infinities
    return (relation, start, end, weight) if math.isfinite(weight) else None
