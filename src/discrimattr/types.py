"""Shared domain types: terms, query triples, membership results."""
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
