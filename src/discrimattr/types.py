"""Shared domain types: terms, query triples, membership results."""
from __future__ import annotations

from dataclasses import dataclass, field

# The six attribute categories, organized as three dual pairs.
CATEGORIES = frozenset(
    {"sensory", "logical", "relative", "absolute", "essential", "incidental"}
)

COMPONENTS = ("DBM", "CKG", "VFM")


@dataclass(frozen=True, order=True)
class Term:
    """A surface form paired with its normalized lemma."""

    surface: str
    lemma: str


@dataclass(frozen=True)
class Triple:
    """A query unit (pivot, comparison, attribute), optionally gold-labeled."""

    pivot: Term
    comparison: Term
    attribute: Term
    gold_label: bool | None = None

    def key(self):
        return (self.pivot.lemma, self.comparison.lemma, self.attribute.lemma)


@dataclass(frozen=True)
class MembershipResult:
    """One component's answer to "does (attribute, term) hold?" plus evidence."""

    member: bool
    evidence: tuple = field(default_factory=tuple)

    def __bool__(self):
        return self.member
