"""Definition-based knowledge component.

Ingests role-labeled dictionary definitions (JSON-lines, one record per
line: {"term", "sense", "segments": [{"role", "text"}]}) into a definition
graph plus an inverted index, and answers membership queries with upward
supertype-chain inheritance. Text is normalized once, at ingest; a store
reloaded from its index keeps the build-time vocabulary.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DataFormatError
from .index import ExplicitVectorSpace
from .text import lemma_of, normalize
from .types import MembershipResult, Term

SEMANTIC_ROLES = (
    "supertype",
    "differentia_quality",
    "differentia_event",
    "event_location",
    "purpose",
    "accessory_determiner",
    "origin_location",
)

DEFAULT_MAX_DEPTH = 3


@dataclass(frozen=True)
class Segment:
    role: str
    text: str
    field: str  # the segment's field in the inverted index: sense/role[#n]


@dataclass(frozen=True)
class DefinitionRecord:
    term: Term
    sense_id: str
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class DefinitionEvidence:
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


class DefinitionStore:
    """Immutable after load; concurrent readers are safe."""

    def __init__(self, records, supertype_edges, space):
        self.records = records  # lemma -> [DefinitionRecord]
        self.supertype_edges = supertype_edges  # lemma -> sorted tuple of lemmas
        self.space = space

    def expand(self, term: Term, max_depth: int = DEFAULT_MAX_DEPTH):
        """Breadth-first supertype expansion.

        Yields (record, path) pairs: the term's own records first, then
        ancestors by (depth, lemma) order. Cycles are visited once. `path`
        runs from the queried lemma to the record's lemma.
        """
        out = []
        visited = {term.lemma}
        frontier = [(term.lemma, (term.lemma,))]
        depth = 0
        while frontier:
            for lemma, path in frontier:
                for rec in self.records.get(lemma, []):
                    out.append((rec, path))
            if depth == max_depth:
                break
            next_frontier = []
            for lemma, path in sorted(frontier):
                for parent in self.supertype_edges.get(lemma, ()):
                    if parent not in visited:
                        visited.add(parent)
                        next_frontier.append((parent, path + (parent,)))
            frontier = sorted(next_frontier)
            depth += 1
        return out

    def has_property(self, term: Term, attribute: Term, max_depth: int = DEFAULT_MAX_DEPTH) -> MembershipResult:
        """True iff the attribute lemma occurs in any segment of the term's
        definitions or of its supertype ancestors within max_depth.

        The attribute's postings are intersected with the supertype
        expansion; evidence follows expansion order, then segment order."""
        fields = self.space.documents_containing(attribute.lemma)
        evidence = []
        for rec, path in self.expand(term, max_depth) if fields else ():
            found = fields.get(rec.term.lemma, ())
            for seg in rec.segments:
                if seg.field in found:
                    evidence.append(
                        DefinitionEvidence(
                            term=rec.term.lemma,
                            sense_id=rec.sense_id,
                            role=seg.role,
                            text=seg.text,
                            path=path,
                        )
                    )
        return MembershipResult(member=bool(evidence), evidence=tuple(evidence))

    def to_dict(self):
        return {
            "records": {
                lemma: [
                    {
                        "term": rec.term.surface,
                        "sense": rec.sense_id,
                        "segments": [{"role": s.role, "text": s.text} for s in rec.segments],
                    }
                    for rec in recs
                ]
                for lemma, recs in sorted(self.records.items())
            },
            "supertype_edges": {k: list(v) for k, v in sorted(self.supertype_edges.items())},
            "space": self.space.to_dict(),
        }


def _field(sense_id, role, role_counts):
    """The segment's index field. Repeated roles within one sense get an
    ordinal suffix to keep (document_id, field) pairs unique."""
    n = role_counts.get(role, 0)
    role_counts[role] = n + 1
    return f"{sense_id}/{role}" if n == 0 else f"{sense_id}/{role}#{n}"


def _build_store(raw_records, lemma_table, stopwords):
    records = {}
    edges = {}
    documents = []
    seen_senses = set()
    for term_surface, sense_id, segments, where in raw_records:
        term = Term(surface=term_surface, lemma=lemma_of(term_surface, lemma_table))
        key = (term.lemma, sense_id)
        if key in seen_senses:
            raise DataFormatError(f"duplicate (term, sense) {key}", path=where[0], line=where[1])
        seen_senses.add(key)
        segs = []
        role_counts = {}
        for role, text in segments:
            if role not in SEMANTIC_ROLES:
                raise DataFormatError(f"unknown semantic role {role!r}", path=where[0], line=where[1])
            tokens = normalize(text, lemma_table, stopwords)
            fld = _field(sense_id, role, role_counts)
            segs.append(Segment(role=role, text=text, field=fld))
            documents.append((term.lemma, fld, [t.lemma for t in tokens]))
            if role == "supertype" and tokens:
                # NP-head heuristic: the last non-stopword token is the genus.
                edges.setdefault(term.lemma, set()).add(tokens[-1].lemma)
        rec = DefinitionRecord(term=term, sense_id=sense_id, segments=tuple(segs))
        records.setdefault(term.lemma, []).append(rec)
    edges = {k: tuple(sorted(v)) for k, v in edges.items()}
    space = ExplicitVectorSpace.build(documents)
    return DefinitionStore(records=records, supertype_edges=edges, space=space)


def load_definitions(path, lemma_table, stopwords) -> DefinitionStore:
    """Load a role-annotated JSON-lines definition file."""
    raw = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"invalid JSON: {e}", path=path, line=lineno)
            for field in ("term", "sense", "segments"):
                if field not in obj:
                    raise DataFormatError(f"missing field {field!r}", path=path, line=lineno)
            segments = []
            for seg in obj["segments"]:
                if "role" not in seg or "text" not in seg:
                    raise DataFormatError("segment needs 'role' and 'text'", path=path, line=lineno)
                segments.append((seg["role"], seg["text"]))
            raw.append((obj["term"], str(obj["sense"]), segments, (str(path), lineno)))
    return _build_store(raw, lemma_table, stopwords)


def store_from_dict(data) -> DefinitionStore:
    """Decode a persisted store: records, supertype edges and the inverted
    index are read back as built, with no re-normalization."""
    records = {}
    for lemma, recs in data["records"].items():
        out = records[lemma] = []
        for rec in recs:
            role_counts = {}
            segs = tuple(
                Segment(role=s["role"], text=s["text"],
                        field=_field(rec["sense"], s["role"], role_counts))
                for s in rec["segments"]
            )
            out.append(DefinitionRecord(term=Term(rec["term"], lemma),
                                        sense_id=rec["sense"], segments=segs))
    edges = {k: tuple(v) for k, v in data["supertype_edges"].items()}
    return DefinitionStore(records=records, supertype_edges=edges,
                           space=ExplicitVectorSpace.from_dict(data["space"]))
