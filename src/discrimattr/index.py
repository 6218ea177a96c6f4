"""Sparse explicit vector space materialized as an inverted index.

Documents are (document_id, field, tokens) triples; a document_id may span
several fields (e.g. the definition segments of one lemma, each named by its
position).
Each lemma's postings map the documents containing it to their fields, so
its document frequency is their count and its idf is ln(N / df), with
unseen lemmas mapped to the sentinel ln(N + 1).
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

from .errors import EmptyCorpusError

FORMAT_VERSION = 9  # of the index files; `build` records it in the manifest


class ExplicitVectorSpace:
    """Inverted index: lemma -> {document_id: "field field ..."}, each
    document's fields in one space-joined string, in the order `build` was
    given them. Persisted and queried in this one form; immutable after
    `build`, so concurrent readers are safe.
    """

    def __init__(self, postings, document_count):
        self.postings = postings
        self.document_count = document_count

    @classmethod
    def build(cls, documents) -> "ExplicitVectorSpace":
        """Build in one pass from (document_id, field, lemma-list) records:
        each (document_id, field) at most once, and a document's fields in
        the order to list them. A field is written with `str`, so it must
        hold no space."""
        postings = {}
        ids = set()
        for doc_id, fld, tokens in documents:
            doc_id = str(doc_id)
            ids.add(doc_id)
            for lemma in set(tokens):
                docs = postings.setdefault(lemma, {})
                docs[doc_id] = f"{docs[doc_id]} {fld}" if doc_id in docs else str(fld)
        return cls(postings, document_count=len(ids))

    def idf(self, lemma: str) -> float:
        """ln(N/df); unseen lemmas get the sentinel ln(N+1)."""
        if self.document_count == 0:
            raise EmptyCorpusError("idf undefined on an empty space")
        df = len(self.documents_containing(lemma))
        return math.log(self.document_count / df if df else self.document_count + 1)

    def documents_containing(self, lemma: str) -> dict:
        """{document_id: "field field ..."} of the documents holding the lemma."""
        return self.postings.get(lemma, {})

    def to_dict(self):
        return {"document_count": self.document_count, "postings": self.postings}

    @classmethod
    def from_dict(cls, data):
        return cls(*layout(data, postings=dict, document_count=int))


def layout(data, **types):
    """The values of the decoded index `data` under the given keys, each of
    its given type. Only the containers are checked, none of their items: an
    index file of another layout fails at load rather than at a query."""
    values = [data[key] for key in types]
    for (key, kind), value in zip(types.items(), values):
        if type(value) is not kind:
            raise TypeError(f"{key!r} is a {type(value).__name__}, not a {kind.__name__}")
    return values


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_PIECE = 256  # most entries per encoder call: bounds the encoder's chunk list


def _write(obj, write):
    """`write(_ENCODER.encode(obj))` in pieces of at most `_PIECE` entries; a
    dict entry whose value is a dict is written by recursion."""
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        keys = sorted(obj)
        for i in range(0, len(keys), _PIECE):
            part = {k: obj[k] for k in keys[i:i + _PIECE]}
            if any(isinstance(v, dict) for v in part.values()):
                for j, key in enumerate(part):
                    write(("," if i or j else "{") + _ENCODER.encode(key) + ":")
                    _write(part[key], write)
            else:
                write(("," if i else "{") + _ENCODER.encode(part)[1:-1])
        write("}")
    else:
        write(_ENCODER.encode(obj))


@contextmanager
def atomic_open(path):
    """A UTF-8 text file with LF line ends, written beside `path` and renamed
    over it when the block ends; a block that fails leaves `path` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def dump_json(obj: dict, path) -> None:
    """Canonical, byte-stable JSON dump; a failed dump leaves `path` as it was."""
    with atomic_open(path) as fh:
        _write(obj, fh.write)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
