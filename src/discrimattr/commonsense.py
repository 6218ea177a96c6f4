"""Commonsense knowledge component built from assertion dumps.

Accepted inputs: ConceptNet 5 tab-separated dumps
(`uri<TAB>/r/Rel<TAB>/c/lang/start<TAB>/c/lang/end<TAB>{json meta}`) or a
simplified fixture format (`relation<TAB>start<TAB>end<TAB>weight`).
Negated relations (label prefixed "Not") are dropped at load time.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DataFormatError
from .text import lemma_of
from .types import MembershipResult, Term


@dataclass(frozen=True)
class Assertion:
    relation: str
    start: str  # concept lemma
    end: str
    weight: float = 1.0

    def to_dict(self):
        return {"relation": self.relation, "start": self.start, "end": self.end,
                "weight": self.weight}

    @classmethod
    def from_dict(cls, d):
        return cls(d["relation"], d["start"], d["end"], d["weight"])


@dataclass(frozen=True)
class EdgeEvidence:
    assertion: Assertion
    direction: str  # "forward": term is start; "reverse": term is end

    def to_dict(self):
        return {"assertion": self.assertion.to_dict(), "direction": self.direction}

    @classmethod
    def from_dict(cls, d):
        return cls(assertion=Assertion.from_dict(d["assertion"]), direction=d["direction"])


def _concept_matches(query_lemma: str, concept: str, token_match: bool) -> bool:
    if query_lemma == concept:
        return True
    return token_match and query_lemma in concept.split("_")


class CkgStore:
    """Immutable after load; concurrent readers are safe."""

    def __init__(self, assertions, skipped=0):
        """`assertions` as `build` leaves them: no `Not*`, sorted, unique."""
        self.assertions = assertions
        # (lemma, lemma) -> sorted indices of the assertions linking the two,
        # keyed in both orders; a self-loop is listed once
        self.by_pair = {}
        for i, a in enumerate(assertions):
            self.by_pair.setdefault((a.start, a.end), []).append(i)
            if a.end != a.start:
                self.by_pair.setdefault((a.end, a.start), []).append(i)
        self.skipped = skipped

    @classmethod
    def build(cls, assertions, skipped=0):
        assertions = [a for a in assertions if not a.relation.startswith("Not")]
        assertions = sorted(set(assertions), key=lambda a: (a.relation, a.start, a.end, a.weight))
        return cls(assertions, skipped)

    def has_property(self, term: Term, attribute: Term, token_match: bool = False) -> MembershipResult:
        """True iff any assertion connects the two lemmas, either direction.
        Exact matching reads the pair map; token matching scans."""
        if token_match:
            candidates = range(len(self.assertions))
        else:
            candidates = self.by_pair.get((term.lemma, attribute.lemma), ())
        evidence = []
        for i in candidates:
            a = self.assertions[i]
            if _concept_matches(term.lemma, a.start, token_match) and _concept_matches(
                attribute.lemma, a.end, token_match
            ):
                evidence.append(EdgeEvidence(assertion=a, direction="forward"))
            elif _concept_matches(term.lemma, a.end, token_match) and _concept_matches(
                attribute.lemma, a.start, token_match
            ):
                evidence.append(EdgeEvidence(assertion=a, direction="reverse"))
        return MembershipResult(member=bool(evidence), evidence=tuple(evidence))

    def to_dict(self):
        return {
            "assertions": [a.to_dict() for a in self.assertions],
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, data):
        assertions = [Assertion.from_dict(a) for a in data["assertions"]]
        return cls(assertions, data.get("skipped", 0))


def _concept_from_uri(uri, language_filter):
    # /c/en/ice_cream or /c/en/ice_cream/n -> "ice_cream" when language matches
    parts = uri.split("/")
    if len(parts) < 4 or parts[1] != "c":
        return None
    if language_filter and parts[2] != language_filter:
        return None
    return parts[3]


def load_assertions(path, lemma_table, language_filter="en",
                    relation_allowlist=None) -> CkgStore:
    """Stream an assertion dump into a CkgStore.

    Not-prefixed relations and non-matching languages are excluded;
    malformed lines increment the skip counter instead of failing the load.
    """
    assertions = []
    skipped = 0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise DataFormatError(f"cannot read assertion dump: {e}", path=path)
    with fh:
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
            if relation_allowlist is not None and relation not in relation_allowlist:
                continue
            try:
                assertions.append(
                    Assertion(
                        relation=relation,
                        start=lemma_of(start.replace("_", " "), lemma_table).replace(" ", "_"),
                        end=lemma_of(end.replace("_", " "), lemma_table).replace(" ", "_"),
                        weight=weight,
                    )
                )
            except ValueError:
                skipped += 1
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
        weight = 1.0
        if len(parts) >= 5:
            try:
                weight = float(json.loads(parts[4]).get("weight", 1.0))
            except (json.JSONDecodeError, TypeError, ValueError):
                return None
        return relation, start, end, weight
    if len(parts) in (3, 4):
        # simplified fixture row: relation, start, end[, weight]
        relation, start, end = parts[0], parts[1], parts[2]
        if not relation or not start or not end:
            return None
        weight = 1.0
        if len(parts) == 4:
            try:
                weight = float(parts[3])
            except ValueError:
                return None
        return relation, start, end, weight
    return None
