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
import re
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
        self._lemmas = {}  # attribute phrase -> its lemmas
        self._names = {}  # object, subject or predicate name -> its lemma, None if it has none

    def _lemma(self, name):
        if name not in self._names:
            try:
                self._names[name] = lemma_of(name, self.lemma_table)
            except ValueError:
                self._names[name] = None
        return self._names[name]

    def add_region(self, image_id, region_id, object_name, attributes):
        obj = self._lemma(object_name)
        if obj is None:
            self.skipped += 1
            return
        key_pair = (str(image_id), str(region_id))
        for attr in attributes:
            # attribute phrases split into tokens, each indexed separately
            if attr not in self._lemmas:
                self._lemmas[attr] = [t.lemma for t in normalize(attr, self.lemma_table, self.stopwords)]
            for lemma in self._lemmas[attr]:
                self.oa.setdefault((obj, lemma), []).append(key_pair)

    def add_relationship(self, image_id, subject, predicate, object_name):
        rel = (str(image_id), self._lemma(subject), self._lemma(predicate), self._lemma(object_name))
        if None in rel:
            self.skipped += 1
            return
        self.relationships.append(rel)

    def finish(self):
        for key, regions in self.oa.items():
            self.oa[key] = sorted(set(regions))
        self.relationships.sort()
        return VisualStore(self.oa, self.relationships, skipped=self.skipped)


_WHITESPACE = re.compile(r"[ \t\n\r]*")


class _ArrayError(json.JSONDecodeError):
    """Malformed JSON, located by its character offset in the whole file:
    the reader holds only part of it."""

    def __init__(self, msg, pos):
        ValueError.__init__(self, f"{msg} (char {pos})")
        self.msg, self.pos = msg, pos


class _ArrayReader:
    """The items of the JSON array in text file `fh`, decoded one at a time
    from reads of `chunk_size` characters. Rejects what `json.load` rejects."""

    def __init__(self, fh, chunk_size=1 << 16):
        self.fh, self.chunk_size = fh, chunk_size
        self.buf, self.pos, self.start, self.eof = "", 0, 0, False
        self.decode = json.JSONDecoder().raw_decode

    def __iter__(self):
        if self._peek() != "[":
            raise _ArrayError("Expecting value", self.start + self.pos)
        self.pos += 1
        if self._peek() == "]":
            self.pos += 1
        else:
            while True:
                yield self._item()
                separator = self._peek()  # "," or "]": `_item` saw it
                self.pos += 1
                if separator == "]":
                    break
        if self._peek():
            raise _ArrayError("Extra data", self.start + self.pos)

    def _item(self):
        # taken only once the "," or "]" after it is in the buffer, so a number
        # or literal cut at the buffer's end is never decoded early; the read
        # size doubles while the item is incomplete, keeping re-decoding linear
        size = self.chunk_size
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            try:
                item, end = self.decode(self.buf, self.pos)
            except json.JSONDecodeError as e:
                if self.eof:
                    raise _ArrayError(e.msg, self.start + e.pos)
            else:
                after = _WHITESPACE.match(self.buf, end).end()
                if self.buf[after:after + 1] in (",", "]"):
                    self.pos = end
                    return item
                if self.eof:
                    raise _ArrayError("Expecting ',' delimiter", self.start + after)
            self._read(size)
            size *= 2

    def _peek(self):
        """The next non-whitespace character; "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self._read(self.chunk_size)

    def _read(self, size):
        data = self.fh.read(size)
        self.eof = not data
        self.buf, self.start, self.pos = self.buf[self.pos:] + data, self.start + self.pos, 0


def _vg_name(node):
    if type(node) is not dict:
        return ""
    if "names" in node:
        return node["names"][0] if node["names"] else ""
    return node.get("name", "")


def _load_one(path, builder):
    with open(path, encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "[":
            _load_visual_genome(_ArrayReader(fh), builder)
        else:
            _load_jsonl(fh, path, builder)


def _load_visual_genome(images, builder):
    for image in images:
        if type(image) is not dict:
            builder.skipped += 1
            continue
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
            rel = rel if type(rel) is dict else {}  # skipped below for want of names
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
            obj = None
        if type(obj) is not dict:
            builder.skipped += 1
        elif "region" in obj and "object" in obj:
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
