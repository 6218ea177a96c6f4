"""Commonsense knowledge component built from assertion dumps.

Accepted inputs: ConceptNet 5 tab-separated dumps
(`uri<TAB>/r/Rel<TAB>/c/lang/start<TAB>/c/lang/end<TAB>{json meta}`) or a
simplified fixture format (`relation<TAB>start<TAB>end<TAB>weight`).
Negated relations (label prefixed "Not") are dropped at load time.
"""
from __future__ import annotations

import json
import math

from .errors import open_text
from .index import layout
from .text import Lemmas
from .types import EdgeEvidence, MembershipResult, Term


class CkgStore:
    """Immutable after load; concurrent readers are safe. Built, persisted
    and queried in one form: `edges` maps start -> {end -> "Rel<TAB>weight<TAB>
    Rel<TAB>weight ..."}, the sorted (relation, weight) pairs of the assertions
    from start to end, each once, none with a `Not*` relation. A weight is its
    float's repr, which `float()` reads back exactly; no relation holds a tab."""

    def __init__(self, edges, skipped=0):
        self.edges = edges
        self.skipped = skipped

    @classmethod
    def build(cls, assertions):
        """From (relation, start, end, weight) tuples: `Not*` relations are
        dropped, repeats collapse. A kept relation that holds a tab is a
        ValueError: its pair string could not be split back."""
        edges = {}
        kept = {(start, end, relation, weight) for relation, start, end, weight in assertions
                if not relation.startswith("Not")}
        for start, end, relation, weight in sorted(kept):  # a pair's relations in a run, sorted
            if "\t" in relation:
                raise ValueError(f"relation {relation!r} holds a tab")
            ends = edges.setdefault(start, {})
            pair = f"{relation}\t{float(weight)!r}"
            ends[end] = f"{ends[end]}\t{pair}" if end in ends else pair
        return cls(edges)

    def _pairs(self, start, end):
        return self.edges.get(start, {}).get(end, "")

    def holds(self, term: Term, attribute: Term) -> bool:
        """`has_property(...).member`, without the evidence: the two pairs' lookups."""
        t, a = term.lemma, attribute.lemma
        return bool(self._pairs(t, a) or a != t and self._pairs(a, t))

    def has_property(self, term: Term, attribute: Term) -> MembershipResult:
        """True iff any assertion connects the two lemmas, either direction.
        A self-loop is listed once, as forward."""
        t, a = term.lemma, attribute.lemma
        evidence = _evidence(self._pairs(t, a), t, a, "forward")
        if a != t:
            evidence += _evidence(self._pairs(a, t), a, t, "reverse")
            evidence.sort()
        return MembershipResult(member=bool(evidence), evidence=tuple(evidence))

    def to_dict(self):
        return {"edges": self.edges, "skipped": self.skipped}

    @classmethod
    def from_dict(cls, data):
        return cls(*layout(data, edges=dict, skipped=int))


def _evidence(pairs, start, end, direction):
    """The assertions of a pair string, as evidence"""
    fields = iter(pairs.split("\t") if pairs else ())
    return [EdgeEvidence(relation, start, end, float(weight), direction)
            for relation, weight in zip(fields, fields)]


def _concept_from_uri(uri):
    # /c/en/ice_cream or /c/en/ice_cream/n -> ("en", "ice_cream"); None if not a concept
    parts = uri.split("/", 4)
    if len(parts) < 4 or parts[1] != "c":
        return None
    return parts[2], parts[3]


def load_assertions(path, lemma_table, language_filter="en") -> CkgStore:
    """Stream an assertion dump into a CkgStore.

    Not-prefixed relations and non-matching languages are excluded;
    malformed lines increment the skip counter instead of failing the load.
    """
    skipped = 0
    lemmas = Lemmas(lemma_table)  # "_" splits tokens as a space does

    def assertions(fh):  # each kept row as it is read, for the store's one set
        nonlocal skipped
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parsed = _parse_line(line.split("\t"), language_filter)
            if parsed is None:
                skipped += 1
                continue
            if parsed == "filtered":
                continue
            relation, start, end, weight = parsed
            if relation.startswith("Not"):  # before the lemmas, so it is never a skip
                continue
            start, end = lemmas[start], lemmas[end]
            if start is None or end is None:
                skipped += 1
            else:
                yield relation, start, end, weight

    with open_text(path) as fh:
        edges = CkgStore.build(assertions(fh)).edges
    return CkgStore(edges, skipped)


def _parse_line(parts, language_filter):
    if len(parts) >= 4 and parts[1].startswith("/r/"):
        # ConceptNet dump row
        relation = parts[1][len("/r/"):]
        start, end = _concept_from_uri(parts[2]), _concept_from_uri(parts[3])
        if not relation or start is None or end is None:
            return None
        if language_filter and not start[0] == end[0] == language_filter:
            return "filtered"
        start, end = start[1], end[1]
        try:
            weight = float(json.loads(parts[4]).get("weight", 1.0)) if len(parts) >= 5 else 1.0
        except (json.JSONDecodeError, TypeError, ValueError, AttributeError, OverflowError):
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
