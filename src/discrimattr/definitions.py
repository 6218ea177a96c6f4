"""Definition-based knowledge component.

Ingests role-labeled dictionary definitions (JSON-lines, one record per
line: {"term", "sense", "segments": [{"role", "text"}]}) into a definition
graph plus an inverted index, and answers membership queries with upward
supertype-chain inheritance. Text is normalized once, at ingest; a store
reloaded from its index keeps the build-time vocabulary.
"""
from __future__ import annotations

import json

from .errors import DataFormatError, open_text
from .index import ExplicitVectorSpace, layout
from .text import lemma_of, normalize
from .types import DEFAULT_MAX_DEPTH, DefinitionEvidence, MembershipResult, Term

SEMANTIC_ROLES = (
    "supertype",
    "differentia_quality",
    "differentia_event",
    "event_location",
    "purpose",
    "accessory_determiner",
    "origin_location",
)


class DefinitionStore:
    """Immutable after load; concurrent readers are safe. Built, persisted
    and queried in one form:

    - `records`: lemma -> "sense<TAB>role<TAB>text<LF>sense<TAB>role<TAB>text
      ...", its segments in file order, one string; no sense or text holds a
      tab or a newline, so the string splits back into its segments;
    - `supertype_edges`: lemma -> sorted [lemma, ...];
    - `space`: the inverted index over the segments, which names each one
      by its lemma and its position in the lemma's records string.

    The supertype expansion of a (lemma, max_depth), which depends on nothing
    else, is kept once made; two readers that make it at once keep equal values."""

    def __init__(self, records, supertype_edges, space):
        self.records = records
        self.supertype_edges = supertype_edges
        self.space = space
        self._lineages = {}  # (lemma, max_depth) -> _lineage's answer

    def _lineage(self, term, max_depth):
        """Breadth-first supertype expansion, kept for (term.lemma, max_depth).

        Returns the lemmas that have records and their paths, as two tuples:
        the term's own first, then ancestors by (depth, lemma) order. Cycles
        are visited once. A path runs from the queried lemma to its lemma.
        """
        if (term.lemma, max_depth) in self._lineages:
            return self._lineages[term.lemma, max_depth]
        out = []
        visited = {term.lemma}
        frontier = [(term.lemma, (term.lemma,))]
        depth = 0
        while frontier:
            out += [(lemma, path) for lemma, path in frontier if lemma in self.records]
            if depth == max_depth:
                break
            next_frontier = []
            for lemma, path in frontier:
                for parent in self.supertype_edges.get(lemma, ()):
                    if parent not in visited:
                        visited.add(parent)
                        next_frontier.append((parent, path + (parent,)))
            frontier = sorted(next_frontier)
            depth += 1
        self._lineages[term.lemma, max_depth] = out = tuple(zip(*out)) or ((), ())
        return out

    def holds(self, term: Term, attribute: Term, max_depth: int = DEFAULT_MAX_DEPTH) -> bool:
        """`has_property(...).member`, without the evidence."""
        positions = self.space.documents_containing(attribute.lemma)
        return bool(positions) and any(map(positions.get, self._lineage(term, max_depth)[0]))

    def has_property(self, term: Term, attribute: Term, max_depth: int = DEFAULT_MAX_DEPTH) -> MembershipResult:
        """True iff the attribute lemma occurs in any segment of the term's
        definitions or of its supertype ancestors within max_depth.

        The attribute's postings are intersected with the supertype
        expansion; evidence follows expansion order, then segment order."""
        positions = self.space.documents_containing(attribute.lemma)
        evidence = []
        for lemma, path in zip(*self._lineage(term, max_depth)) if positions else ():
            if lemma in positions:
                segments = self.records[lemma].split("\n")
                for i in positions[lemma].split(" "):
                    sense, role, text = segments[int(i)].split("\t")
                    evidence.append(DefinitionEvidence(lemma, sense, role, text, path))
        return MembershipResult(member=bool(evidence), evidence=tuple(evidence))

    def to_dict(self):
        return {"records": self.records, "supertype_edges": self.supertype_edges,
                "space": self.space.to_dict()}


def _build_store(raw_records, lemma_table, stopwords):
    """The store of (term, sense, [(role, text), ...], (path, line)) records,
    checked and indexed as they come, in one pass."""
    records = {}
    sizes = {}  # lemma -> its segment count so far
    edges = {}
    seen_senses = set()

    def documents():  # each segment as (lemma, position, lemmas), for the index
        for term, sense_id, segments, (path, line) in raw_records:
            try:
                lemma = lemma_of(term, lemma_table)
            except ValueError as e:
                raise DataFormatError(f"invalid term: {e}", path=path, line=line)
            key = (lemma, sense_id)
            if key in seen_senses:
                raise DataFormatError(f"duplicate (term, sense) {key}", path=path, line=line)
            seen_senses.add(key)
            if "\t" in sense_id or "\n" in sense_id:  # its segments would not split back
                raise DataFormatError(f"sense {sense_id!r} holds a tab or a newline",
                                      path=path, line=line)
            for role, text in segments:
                if role not in SEMANTIC_ROLES:
                    raise DataFormatError(f"unknown semantic role {role!r}", path=path, line=line)
                if "\t" in text or "\n" in text:
                    raise DataFormatError(f"segment text {text!r} holds a tab or a newline",
                                          path=path, line=line)
                lemmas = normalize(text, lemma_table, stopwords)
                position = sizes.get(lemma, 0)
                sizes[lemma] = position + 1
                segment = f"{sense_id}\t{role}\t{text}"
                records[lemma] = f"{records[lemma]}\n{segment}" if position else segment
                if role == "supertype" and lemmas:
                    # NP-head heuristic: the last non-stopword token is the genus.
                    edges.setdefault(lemma, set()).add(lemmas[-1])
                yield lemma, position, lemmas

    space = ExplicitVectorSpace.build(documents())
    return DefinitionStore(records, {k: sorted(v) for k, v in edges.items()}, space)


def _is_segment(seg):
    return type(seg) is dict and type(seg.get("role")) is str and type(seg.get("text")) is str


def _read_records(fh, path):
    """The records of a JSON-lines definition file, each checked as it is read."""
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"invalid JSON: {e}", path=path, line=lineno)
        if type(obj) is not dict:
            raise DataFormatError("a definition must be a JSON object", path=path, line=lineno)
        for field in ("term", "sense", "segments"):
            if field not in obj:
                raise DataFormatError(f"missing field {field!r}", path=path, line=lineno)
        for field in ("term", "sense"):
            if type(obj[field]) is not str:
                raise DataFormatError(f"{field!r} must be a string", path=path, line=lineno)
        segments = obj["segments"]
        if type(segments) is not list or not all(map(_is_segment, segments)):
            raise DataFormatError("each segment needs string 'role' and 'text'",
                                  path=path, line=lineno)
        yield (obj["term"], obj["sense"], [(seg["role"], seg["text"]) for seg in segments],
               (str(path), lineno))


def load_definitions(path, lemma_table, stopwords) -> DefinitionStore:
    """Load a role-annotated JSON-lines definition file, record by record: a
    file with several bad lines is reported at the first in file order."""
    with open_text(path) as fh:
        return _build_store(_read_records(fh, path), lemma_table, stopwords)


def store_from_dict(data) -> DefinitionStore:
    """The persisted store, as decoded: nothing is converted or re-normalized."""
    records, edges, space = layout(data, records=dict, supertype_edges=dict, space=dict)
    return DefinitionStore(records, edges, ExplicitVectorSpace.from_dict(space))
