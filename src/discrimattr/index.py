"""Sparse explicit vector space materialized as an inverted index.

Documents are (document_id, field, tokens) triples; a document_id may span
several fields (e.g. the semantic-role segments of one definition sense).
Posting weights are idf-derived: ln(N / df), with unseen lemmas mapped to
the sentinel ln(N + 1).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import DataFormatError, EmptyCorpusError

FORMAT_VERSION = 1


@dataclass(frozen=True, order=True)
class Posting:
    document_id: str
    field: str
    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("posting weight must be nonnegative")


class ExplicitVectorSpace:
    """Inverted index over lemmas with idf posting weights.

    Immutable after `build`; safe for concurrent readers.
    """

    def __init__(self, postings, document_count, document_frequency):
        self.postings = postings
        self.document_count = document_count
        self.document_frequency = document_frequency

    @classmethod
    def build(cls, documents) -> "ExplicitVectorSpace":
        """Build from (document_id, field, token-list) records.

        Duplicate (document_id, field) pairs with identical tokens are
        collapsed; with differing tokens they are rejected.
        """
        seen = {}
        for doc_id, fld, tokens in documents:
            key = (str(doc_id), str(fld))
            toks = tuple(t.lemma if hasattr(t, "lemma") else str(t) for t in tokens)
            if key in seen and seen[key] != toks:
                raise DataFormatError(
                    f"duplicate document ({key[0]!r}, field {key[1]!r}) with differing tokens"
                )
            seen[key] = toks

        doc_ids = sorted({doc_id for doc_id, _ in seen})
        n = len(doc_ids)

        docs_with = {}
        for (doc_id, _), toks in seen.items():
            for lemma in toks:
                docs_with.setdefault(lemma, set()).add(doc_id)
        df = {lemma: len(ids) for lemma, ids in docs_with.items()}

        postings = {}
        for (doc_id, fld), toks in sorted(seen.items()):
            for lemma in set(toks):
                w = math.log(n / df[lemma])
                postings.setdefault(lemma, []).append(Posting(doc_id, fld, w))
        for plist in postings.values():
            plist.sort()
        return cls(postings=postings, document_count=n, document_frequency=df)

    def idf(self, lemma: str) -> float:
        """ln(N/df); unseen lemmas get the sentinel ln(N+1)."""
        if self.document_count == 0:
            raise EmptyCorpusError("idf undefined on an empty space")
        df = self.document_frequency.get(lemma)
        if df is None:
            return math.log(self.document_count + 1)
        return math.log(self.document_count / df)

    def documents_containing(self, lemma: str) -> list[Posting]:
        return self.postings.get(lemma, [])

    def to_dict(self):
        return {
            "format_version": FORMAT_VERSION,
            "document_count": self.document_count,
            "document_frequency": dict(sorted(self.document_frequency.items())),
            "postings": {
                lemma: [[p.document_id, p.field, p.weight] for p in plist]
                for lemma, plist in sorted(self.postings.items())
            },
        }

    @classmethod
    def from_dict(cls, data):
        postings = {
            lemma: [Posting(d, f, w) for d, f, w in plist]
            for lemma, plist in data["postings"].items()
        }
        return cls(
            postings=postings,
            document_count=data["document_count"],
            document_frequency=dict(data["document_frequency"]),
        )


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_PIECE = 256  # most entries per encoder call: bounds the encoder's chunk list


def _nested(value):
    return isinstance(value, dict) or isinstance(value, list) and value and isinstance(value[0], dict)


def _write(obj, write):
    """`write(_ENCODER.encode(obj))` in pieces of at most `_PIECE` entries; a
    dict entry whose value is a dict or a list of dicts is written by recursion."""
    if isinstance(obj, list) and _nested(obj):
        for i in range(0, len(obj), _PIECE):
            write(("," if i else "[") + _ENCODER.encode(obj[i:i + _PIECE])[1:-1])
        write("]")
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        keys = sorted(obj)
        for i in range(0, len(keys), _PIECE):
            part = {k: obj[k] for k in keys[i:i + _PIECE]}
            if any(map(_nested, part.values())):
                for j, key in enumerate(part):
                    write(("," if i or j else "{") + _ENCODER.encode(key) + ":")
                    _write(part[key], write)
            else:
                write(("," if i else "{") + _ENCODER.encode(part)[1:-1])
        write("}")
    else:
        write(_ENCODER.encode(obj))


def dump_json(obj: dict, path) -> None:
    """Canonical, byte-stable JSON dump; a failed dump leaves `path` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            _write(obj, fh.write)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
