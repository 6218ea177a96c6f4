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
from functools import cached_property

from .errors import DataFormatError, open_text
from .index import layout
from .text import Lemmas, normalize
from .types import MembershipResult, RegionEvidence, Term


class VisualStore:
    """Immutable after load; concurrent readers are safe. Built, persisted
    and queried in one form:

    - `oa_index`: object -> {attribute -> "image<TAB>region image<TAB>region ..."},
      the pair's sorted, unique [image, region] pairs in one string: a tab
      joins a region's two ids, a space joins the regions. Ingest skips a
      region whose image or region id holds a tab or a space, so a pair's
      regions are counted by its tabs, and one image's regions are found by
      searching the string for that image;
    - `relationships`: sorted [image, subject, predicate, object]s,
      duplicates kept.

    Only `sor_index` is derived, at the first SOR query. `_grounding` finds
    the regions behind an answer, which `holds` tests; `has_property` splits
    only the string of the regions it returns."""

    def __init__(self, oa_index, relationships, skipped=0):
        self.oa_index = oa_index
        self.relationships = relationships
        self.skipped = skipped

    @cached_property
    def sor_index(self):
        """endpoint lemma -> its relationships, in list order; a self-relationship once"""
        index = {}
        for rel in self.relationships:
            index.setdefault(rel[1], []).append(rel)
            if rel[3] != rel[1]:
                index.setdefault(rel[3], []).append(rel)
        return index

    def _regions(self, object_lemma, attribute_lemma):
        return self.oa_index.get(object_lemma, {}).get(attribute_lemma, "")

    def _grounding(self, obj, attribute, min_count, use_sor):
        """(object, its regions, via) of obj's own regions, else, with use_sor, of
        the first relationship whose other end has min_count regions in its image;
        else None. The regions are a pair string of the store's form, or a slice of one."""
        direct = self._regions(obj, attribute)
        if direct.count("\t") >= min_count:
            return obj, direct, None
        if use_sor:
            for rel in self.sor_index.get(obj, ()):
                for other in (rel[1], rel[3]):
                    if other != obj and (regions := self._regions(other, attribute)):
                        run = _run(regions, rel[0])
                        if run.count("\t") >= min_count:
                            return other, run, rel
        return None

    def holds(self, obj: Term, attribute: Term, min_count: int = 1, use_sor: bool = False) -> bool:
        """`has_property(...).member`, without the evidence."""
        return self._grounding(obj.lemma, attribute.lemma, min_count, use_sor) is not None

    def has_property(self, obj: Term, attribute: Term, min_count: int = 1,
                     use_sor: bool = False) -> MembershipResult:
        """True iff the pair co-occurs in >= min_count regions, or (with
        use_sor) a related object in the same image does."""
        if found := self._grounding(obj.lemma, attribute.lemma, min_count, use_sor):
            other, regions, via = found
            return MembershipResult(member=True, evidence=(
                RegionEvidence(other, attribute.lemma, _pairs(regions), via),))
        return MembershipResult(member=False)

    def to_dict(self):
        return {"oa_index": self.oa_index, "relationships": self.relationships,
                "skipped": self.skipped}

    @classmethod
    def from_dict(cls, data):
        return cls(*layout(data, oa_index=dict, relationships=list, skipped=int))


def _run(regions, image):
    """The regions of `image` in the pair string `regions`, as a slice of it;
    "" if it has none. The pairs sort by image, so an image's are one run,
    and a pair begins at the string's start or after a space."""
    head = image + "\t"
    start = 0 if regions.startswith(head) else regions.find(" " + head) + 1
    if not regions.startswith(head, start):
        return ""
    end = regions.find(" ", regions.rfind(" " + head) + 1)  # after the run's last pair
    return regions[start:end] if end >= 0 else regions[start:]


def _pairs(regions):
    """A pair string as [[image, region], ...]"""
    return [pair.split("\t") for pair in regions.split(" ")]


def _is_region_id(value):
    """An id the store can hold: an int, or a str with no tab or space."""
    return type(value) is int or type(value) is str and "\t" not in value and " " not in value


class _Builder:
    """Validates and indexes scene-graph records. A record with a missing or
    non-str/int id, an image or region id that holds a tab or a space, a name
    that is not a string or has no lemma, or attributes that are not a list
    of strings is skipped and counted."""

    def __init__(self, lemma_table, stopwords):
        self.stopwords = stopwords
        self.oa = {}  # object -> {attribute -> [image, region, ...]}, a pair string after finish()
        self.relationships = []  # [image, subject, predicate, object], sorted in finish()
        self.skipped = 0
        self._lemmas = {}  # attribute phrase -> its lemmas
        self.names = Lemmas(lemma_table)  # object, subject or predicate name -> its lemma

    def _lemma(self, name):
        return self.names[name] if type(name) is str else None

    def add_region(self, image_id, region_id, object_name, attributes):
        obj = self._lemma(object_name)
        if obj is None or not _is_region_id(image_id) or not _is_region_id(region_id) \
                or type(attributes) is not list or not all(type(a) is str for a in attributes):
            self.skipped += 1
            return
        region = (str(image_id), str(region_id))  # its ids, shared by the region's pairs
        for attr in attributes:
            # attribute phrases split into tokens, each indexed separately
            if attr not in self._lemmas:
                self._lemmas[attr] = normalize(attr, self.names.table, self.stopwords)
            for lemma in self._lemmas[attr]:
                self.oa.setdefault(obj, {}).setdefault(lemma, []).extend(region)

    def add_relationship(self, image_id, subject, predicate, object_name):
        rel = [str(image_id), self._lemma(subject), self._lemma(predicate), self._lemma(object_name)]
        if None in rel or not _is_region_id(image_id):
            self.skipped += 1
            return
        self.relationships.append(rel)

    def finish(self):
        for attrs in self.oa.values():
            for attribute, regions in attrs.items():
                if len(regions) > 2:  # one region is sorted and unique as it is
                    # dedup in arrival order, mostly sorted already, so the sort is cheap
                    pairs = sorted(dict.fromkeys(zip(regions[::2], regions[1::2])))
                    attrs[attribute] = " ".join(map("\t".join, pairs))
                else:
                    attrs[attribute] = "\t".join(regions)
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
        return None
    if "names" in node:
        names = node["names"]
        return names[0] if type(names) is list and names else None
    return node.get("name")


def _load_one(path, builder):
    with open_text(path) as fh:
        array = _ArrayReader(fh)
        if array._peek() == "[":
            _load_visual_genome(array, builder)
        else:
            fh.seek(0)
            _load_jsonl(fh, path, builder)


def _list(image, key, builder):
    """The image's `key` list; a value that is not a list is skipped."""
    items = image.get(key, [])
    if type(items) is list:
        return items
    builder.skipped += 1
    return []


def _load_visual_genome(images, builder):
    for image in images:
        if type(image) is not dict:
            builder.skipped += 1
            continue
        image_id = image.get("image_id", image.get("id"))
        for obj in _list(image, "objects", builder):
            obj = obj if type(obj) is dict else {}  # skipped for want of a name
            builder.add_region(image_id, obj.get("object_id", obj.get("id")), _vg_name(obj),
                               obj.get("attributes", []))
        for rel in _list(image, "relationships", builder):
            rel = rel if type(rel) is dict else {}  # skipped for want of names
            builder.add_relationship(image_id, _vg_name(rel.get("subject")), rel.get("predicate"),
                                     _vg_name(rel.get("object")))


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
            builder.add_region(obj.get("image"), obj["region"], obj["object"],
                               obj.get("attributes", []))
        elif "subject" in obj and "predicate" in obj:
            builder.add_relationship(obj.get("image"), obj["subject"], obj["predicate"],
                                     obj.get("object"))
        else:
            builder.skipped += 1


def load_scene_graphs(paths, lemma_table, stopwords) -> VisualStore:
    """Build a VisualStore from one or more scene-graph files."""
    builder = _Builder(lemma_table, stopwords)
    for path in paths:
        try:
            _load_one(path, builder)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"invalid JSON: {e}", path=path)
    return builder.finish()
