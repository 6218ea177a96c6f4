"""Visual knowledge component built from scene-graph annotations.

Two sub-spaces: an object-attribute (OA) index grounded in image regions,
and a scene-object-relationship (SOR) index that lets an object inherit an
attribute from a related object in the same image.

Accepted inputs: Visual Genome style `objects.json` / `relationships.json`
arrays, or a JSON-lines fixture format
({"image", "region", "object", "attributes": []} and
 {"image", "subject", "predicate", "object"}).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DataFormatError
from .text import lemma_of, normalize
from .types import MembershipResult, Term


@dataclass(frozen=True)
class RelationshipAnnotation:
    image_id: str
    subject: str
    predicate: str
    object: str

    def to_dict(self):
        return {
            "image": self.image_id,
            "subject": self.subject,
            "predicate": self.predicate,
            "object": self.object,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["image"], d["subject"], d["predicate"], d["object"])


@dataclass(frozen=True)
class RegionEvidence:
    """Grounding for a positive OA answer: the co-occurrence regions, plus
    the mediating relationship when the attribute was inherited."""

    object: str
    attribute: str
    regions: tuple  # of (image_id, region_id)
    via: RelationshipAnnotation | None = None

    def to_dict(self):
        d = {
            "object": self.object,
            "attribute": self.attribute,
            "regions": [list(r) for r in self.regions],
        }
        if self.via is not None:
            d["via"] = self.via.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        via = RelationshipAnnotation.from_dict(d["via"]) if "via" in d else None
        return cls(d["object"], d["attribute"], tuple(tuple(r) for r in d["regions"]), via)


class VisualStore:
    """Immutable after load; concurrent readers are safe. Regions and
    relationships are read as built (tuples) or as decoded (lists) alike."""

    def __init__(self, oa_index, relationships, skipped=0):
        self.oa_index = oa_index  # (object_lemma, attr_lemma) -> sorted [image, region]s
        self.relationships = relationships  # sorted, duplicates kept
        # endpoint lemma -> its relationships, in list order; a self-relationship
        # is listed once
        self.sor_index = {}
        for rel in relationships:
            self.sor_index.setdefault(rel[1], []).append(rel)
            if rel[3] != rel[1]:
                self.sor_index.setdefault(rel[3], []).append(rel)
        self.skipped = skipped

    def count(self, object_lemma: str, attribute_lemma: str) -> int:
        return len(self.oa_index.get((object_lemma, attribute_lemma), ()))

    def has_property(self, obj: Term, attribute: Term, min_count: int = 1,
                     use_sor: bool = False) -> MembershipResult:
        """True iff the pair co-occurs in >= min_count regions, or (with
        use_sor) a related object in the same image does."""
        direct = self.oa_index.get((obj.lemma, attribute.lemma), ())
        if len(direct) >= min_count:
            ev = RegionEvidence(obj.lemma, attribute.lemma, tuple(map(tuple, direct)))
            return MembershipResult(member=True, evidence=(ev,))
        if use_sor:
            for rel in self.sor_index.get(obj.lemma, ()):
                image, subject, _, object_ = rel
                for other in (subject, object_):
                    if other == obj.lemma:
                        continue
                    regions = [
                        r
                        for r in self.oa_index.get((other, attribute.lemma), ())
                        if r[0] == image
                    ]
                    if len(regions) >= min_count:
                        ev = RegionEvidence(other, attribute.lemma, tuple(map(tuple, regions)),
                                            via=RelationshipAnnotation(*rel))
                        return MembershipResult(member=True, evidence=(ev,))
        return MembershipResult(member=False)

    def to_dict(self):
        return {
            # `dump_json` sorts the keys and writes tuples as arrays
            "oa_index": {f"{o}\t{a}": regions for (o, a), regions in self.oa_index.items()},
            "relationships": self.relationships,
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, data):
        oa = {tuple(key.split("\t")): regions for key, regions in data["oa_index"].items()}
        return cls(oa, data["relationships"], data.get("skipped", 0))


class _Builder:
    def __init__(self, lemma_table, stopwords):
        self.lemma_table = lemma_table
        self.stopwords = stopwords
        self.oa = {}  # (object_lemma, attr_lemma) -> [(image, region)], deduped in finish()
        self.relationships = []  # (image, subject, predicate, object), sorted in finish()
        self.skipped = 0
        self._lemmas = {}  # lowercased attribute phrase -> its lemmas

    def add_region(self, image_id, region_id, object_name, attributes):
        try:
            obj = lemma_of(object_name, self.lemma_table)
        except ValueError:
            self.skipped += 1
            return
        key_pair = (str(image_id), str(region_id))
        for attr in attributes:
            # attribute phrases split into tokens, each indexed separately
            phrase = attr.lower()  # a copy: keeping `attr` pins the decoded file's memory
            if phrase not in self._lemmas:
                self._lemmas[phrase] = [t.lemma for t in normalize(phrase, self.lemma_table, self.stopwords)]
            for lemma in self._lemmas[phrase]:
                self.oa.setdefault((obj, lemma), []).append(key_pair)

    def add_relationship(self, image_id, subject, predicate, object_name):
        try:
            rel = (str(image_id), lemma_of(subject, self.lemma_table),
                   lemma_of(predicate, self.lemma_table), lemma_of(object_name, self.lemma_table))
        except ValueError:
            self.skipped += 1
            return
        self.relationships.append(rel)

    def finish(self):
        oa = {k: sorted(set(v)) for k, v in self.oa.items()}
        return VisualStore(oa, sorted(self.relationships), skipped=self.skipped)


def _vg_name(node):
    if "names" in node:
        return node["names"][0] if node["names"] else ""
    return node.get("name", "")


def _load_one(path, builder):
    with open(path, encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "[":
            _load_visual_genome(json.load(fh), builder)
        else:
            _load_jsonl(fh, path, builder)


def _load_visual_genome(images, builder):
    for image in images:
        image_id = image.get("image_id", image.get("id"))
        for obj in image.get("objects", []):
            name = _vg_name(obj)
            if not name:
                builder.skipped += 1
                continue
            builder.add_region(
                image_id, obj.get("object_id", obj.get("id")), name,
                obj.get("attributes", []),
            )
        for rel in image.get("relationships", []):
            subj = _vg_name(rel.get("subject", {}))
            obj = _vg_name(rel.get("object", {}))
            pred = rel.get("predicate", "")
            if not subj or not obj or not pred:
                builder.skipped += 1
                continue
            builder.add_relationship(image_id, subj, pred, obj)


def _load_jsonl(fh, path, builder):
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            builder.skipped += 1
            continue
        if "region" in obj and "object" in obj:
            builder.add_region(obj["image"], obj["region"], obj["object"],
                               obj.get("attributes", []))
        elif "subject" in obj and "predicate" in obj:
            builder.add_relationship(obj["image"], obj["subject"], obj["predicate"],
                                     obj["object"])
        else:
            builder.skipped += 1


def load_scene_graphs(paths, lemma_table, stopwords) -> VisualStore:
    """Build a VisualStore from one or more scene-graph files."""
    builder = _Builder(lemma_table, stopwords)
    for path in paths:
        try:
            _load_one(path, builder)
        except OSError as e:
            raise DataFormatError(f"cannot read scene graph file: {e}", path=path)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"invalid JSON: {e}", path=path)
    return builder.finish()
