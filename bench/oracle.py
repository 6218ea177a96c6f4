"""Brute-force oracle: each triple's label and deciding component, derived
straight from the generated records, with none of the package's code.

- DBM: the attribute lemma occurs in a segment of a definition of the term
  or of a supertype reached by BFS within `dbm_max_depth` steps. The genus
  of a supertype segment is its last non-stopword token.
- CKG: an English assertion whose relation does not start with "Not" links
  the two lemmas, in either direction.
- VFM: the (object, attribute) pair occurs in at least `vfm_min_count`
  distinct regions; with SOR, or a related object in the same image does.
"""
from __future__ import annotations

import re

COMPONENTS = ("DBM", "CKG", "VFM")
_TOKEN = re.compile(r"[0-9a-z]+")


class Oracle:
    def __init__(self, corpus):
        cfg = corpus.config
        self.stage_order = tuple(cfg.get("stage_order", COMPONENTS))
        self.max_depth = cfg.get("dbm_max_depth", 3)
        self.min_count = cfg.get("vfm_min_count", 1)
        self.use_sor = cfg.get("vfm_use_sor", False)
        self.lemma_table = corpus.lemma_table
        self.stopwords = corpus.stopwords

        self.def_tokens = {}   # lemma -> every token lemma of its definitions
        self.genus = {}        # lemma -> supertype lemmas
        for rec in corpus.definitions:
            term = self.lemma(rec["term"])
            tokens = self.def_tokens.setdefault(term, set())
            for seg in rec["segments"]:
                seg_tokens = self.normalize(seg["text"])
                tokens.update(seg_tokens)
                if seg["role"] == "supertype" and seg_tokens:
                    self.genus.setdefault(term, set()).add(seg_tokens[-1])

        self.edges = set()
        self.neighbours = {}
        for _, start, end in corpus.assertions:
            a, b = self.lemma(start), self.lemma(end)
            self.edges.update({(a, b), (b, a)})
            self.neighbours.setdefault(a, set()).add(b)
            self.neighbours.setdefault(b, set()).add(a)

        self.regions = {}      # (object, attribute) -> {(image, region)}
        self.in_image = {}     # (image, object, attribute) -> {region}
        for image, region, name, attrs in corpus.regions:
            obj = self.lemma(name)
            for phrase in attrs:
                for attr in self.normalize(phrase):
                    self.regions.setdefault((obj, attr), set()).add((str(image), str(region)))
                    self.in_image.setdefault((str(image), obj, attr), set()).add(region)
        self.object_attrs = {}  # object -> {attribute with enough regions}
        for (obj, attr), regs in self.regions.items():
            if len(regs) >= self.min_count:
                self.object_attrs.setdefault(obj, set()).add(attr)
        self.related = {}      # object -> [(image, other endpoint)]
        for image, subj, _, obj in corpus.relationships:
            s, o = self.lemma(subj), self.lemma(obj)
            for a, b in {(s, o), (o, s)}:
                if a != b:
                    self.related.setdefault(a, []).append((str(image), b))
        self._reach = {}
        self._verdicts = {}

    def lemma(self, surface):
        return "_".join(self.lemma_table.get(t, t) for t in _TOKEN.findall(surface.lower()))

    def normalize(self, text):
        lemmas = (self.lemma_table.get(t, t) for t in _TOKEN.findall(text.lower()))
        return [l for l in lemmas if l not in self.stopwords]

    def reach(self, term):
        """Lemmas within max_depth supertype steps of term, term included."""
        if term not in self._reach:
            seen = {term}
            frontier = {term}
            for _ in range(self.max_depth):
                frontier = {g for l in frontier for g in self.genus.get(l, ())} - seen
                seen |= frontier
            self._reach[term] = seen
        return self._reach[term]

    def dbm_attributes(self, term):
        return set().union(*(self.def_tokens.get(l, ()) for l in self.reach(term)))

    def ckg_neighbours(self, term):
        return self.neighbours.get(term, set())

    def vfm_attributes(self, term):
        return self.object_attrs.get(term, set())

    def member(self, component, term, attr):
        if component == "DBM":
            return any(attr in self.def_tokens.get(l, ()) for l in self.reach(term))
        if component == "CKG":
            return (term, attr) in self.edges
        if attr in self.object_attrs.get(term, ()):
            return True
        return self.use_sor and any(
            len(self.in_image.get((image, other, attr), ())) >= self.min_count
            for image, other in self.related.get(term, ())
        )

    def verdict(self, pivot, comparison, attr):
        """(label, deciding component or None) for lemmas."""
        key = (pivot, comparison, attr)
        if key not in self._verdicts:
            self._verdicts[key] = next(
                ((True, c) for c in self.stage_order
                 if self.member(c, pivot, attr) and not self.member(c, comparison, attr)),
                (False, None),
            )
        return self._verdicts[key]
