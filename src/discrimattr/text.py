"""Tokenization and table-driven lemmatization.

Normalization is deterministic: lowercase, split on non-alphanumeric
characters, look each token up in the lemma table (unknown tokens pass
through lowercased), then drop stopword lemmas.
"""
from __future__ import annotations

import re

from .errors import DataFormatError, open_text

_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Split on non-alphanumeric characters, lowercased."""
    return _TOKEN_RE.findall(text.lower())


def load_lemma_table(path) -> dict[str, str]:
    """Load a two-column tab-separated surface→lemma table.

    Chains (a→b, b→c) are resolved at load time so lemmatization is
    idempotent; cycles are broken at the first repeated entry. A surface
    that is not one token is rejected, since no token could match it, and so
    is a lemma with whitespace in it, so every lemma is one token of a store
    key.
    """
    table = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataFormatError("expected `surface<TAB>lemma`", path=path, line=lineno)
            if tokenize(parts[0]) != [parts[0].lower()]:
                raise DataFormatError(f"surface {parts[0]!r} is not one token", path=path, line=lineno)
            if any(c.isspace() for c in parts[1]):
                raise DataFormatError(f"lemma {parts[1]!r} contains whitespace", path=path, line=lineno)
            table[parts[0].lower()] = parts[1].lower()
    return _resolve_chains(table)


def _resolve_chains(table):
    resolved = {}
    for surface in table:
        seen = {surface}
        lemma = table[surface]
        while lemma in table and lemma not in seen:
            seen.add(lemma)
            lemma = table[lemma]
        resolved[surface] = lemma
    return resolved


def load_stopwords(path) -> set[str]:
    """Load a one-lemma-per-line stopword file."""
    with open_text(path) as fh:
        return {line.strip().lower() for line in fh if line.strip() and not line.startswith("#")}


def normalize(text: str, lemma_table: dict[str, str], stopwords: set[str]) -> list[str]:
    """The lemmas of the text's tokens, stopwords dropped; order preserved."""
    lemmas = (lemma_table.get(token, token) for token in tokenize(text))
    return [lemma for lemma in lemmas if lemma not in stopwords]


def lemma_of(surface: str, lemma_table: dict[str, str]) -> str:
    """Lemma for a single concept name; multiword names join with underscores.

    Unlike `normalize`, stopwords are kept: a concept named "the" is still
    addressable even if "the" is a stopword in running text.
    """
    tokens = tokenize(surface)
    if not tokens:
        raise ValueError(f"no alphanumeric content in {surface!r}")
    return "_".join(lemma_table.get(t, t) for t in tokens)


class Lemmas(dict):
    """A memo of `lemma_of(name, table)` by name, None for a name with no lemma."""

    def __init__(self, table):
        self.table = table

    def __missing__(self, name):
        try:
            self[name] = lemma_of(name, self.table)
        except ValueError:
            self[name] = None
        return self[name]
