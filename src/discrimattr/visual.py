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

from .errors import DataFormatError, open_text
from .index import layout
from .text import Lemmas, normalize
from .types import MembershipResult, RegionEvidence, Term


class VisualStore:
    """Immutable after load; concurrent readers are safe. Built, persisted
    and queried in one form, so a query derives nothing:

    - `oa_index`: object -> {attribute -> "image<TAB>region image<TAB>region ..."},
      the pair's sorted, unique [image, region] pairs, so its regions are
      counted by its tabs, and one image's are found by a search for it;
    - `relations`: subject -> {object -> "image<TAB>predicate image<TAB>predicate ..."},
      each relationship once, sorted by (image, predicate) as tuples, none
      of an object to itself (it never grounds);
    - `subjects_of`: object -> "subject subject ...", sorted.

    Ingest skips an image or region id that holds a tab or a space, and no
    lemma holds one, so every string splits back exactly. `_grounding` finds
    the regions behind an answer, which `holds` tests; `has_property` splits
    only the string of the regions it returns."""

    def __init__(self, oa_index, relations, subjects_of, skipped=0):
        self.oa_index = oa_index
        self.relations = relations
        self.subjects_of = subjects_of
        self.skipped = skipped

    def _regions(self, object_lemma, attribute_lemma):
        return self.oa_index.get(object_lemma, {}).get(attribute_lemma, "")

    def _grounding(self, obj, attribute, min_count, use_sor):
        """(object, its regions, via) of obj's own regions, else, with use_sor, of the
        smallest [image, subject, predicate, object] relationship of obj whose other end
        has min_count regions in its image; else None. The regions are a pair string
        of the store's form, or a slice of one."""
        direct = self._regions(obj, attribute)
        if direct.count("\t") >= min_count:
            return obj, direct, None
        best = None
        if use_sor:  # each group relates obj to one other object, in one direction
            groups = [(other, obj, other) for other in self.relations.get(obj, ())]
            groups += [(other, other, obj) for other in self.subjects_of.get(obj, "").split()]
            for other, subject, object_ in groups:
                if regions := self._regions(other, attribute):
                    for entry in self.relations[subject][object_].split(" "):
                        image, predicate = entry.split("\t")
                        via = [image, subject, predicate, object_]
                        if best and via >= best[2]:
                            break  # the group's later entries are larger still
                        run = _run(regions, image)
                        if run.count("\t") >= min_count:
                            best = other, run, via
                            break
        return best

    def holds(self, obj: Term, attribute: Term, min_count: int = 1, use_sor: bool = False) -> bool:
        """`has_property(...).member`, without the evidence."""
        return self._grounding(obj.lemma, attribute.lemma, min_count, use_sor) is not None

    def has_property(self, obj: Term, attribute: Term, min_count: int = 1,
                     use_sor: bool = False) -> MembershipResult:
        """True iff the pair co-occurs in >= min_count regions, or (with
        use_sor) a related object in the same image does."""
        if found := self._grounding(obj.lemma, attribute.lemma, min_count, use_sor):
            other, regions, via = found  # regions as [[image, region], ...]
            return MembershipResult(member=True, evidence=(RegionEvidence(
                other, attribute.lemma, [pair.split("\t") for pair in regions.split(" ")], via),))
        return MembershipResult(member=False)

    def to_dict(self):
        return {"oa_index": self.oa_index, "relations": self.relations,
                "subjects_of": self.subjects_of, "skipped": self.skipped}

    @classmethod
    def from_dict(cls, data):
        return cls(*layout(data, oa_index=dict, relations=dict, subjects_of=dict, skipped=int))


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


def _id(value):
    """An int, or a str with no tab or space, as the store holds it; None for any other id."""
    if type(value) is int or type(value) is str and "\t" not in value and " " not in value:
        return str(value)


class _Builder:
    """Validates and indexes scene-graph records. A record with a missing or
    non-str/int id, an image or region id that holds a tab or a space, a name
    that is not a string or has no lemma, or attributes that are not a list
    of strings is skipped and counted. A loader checks an image's id once, with `_id`."""

    def __init__(self, lemma_table, stopwords):
        self.stopwords = stopwords
        self.oa = {}  # object -> {attribute -> [image, region, ...]}, a pair string after finish()
        self.relations = {}  # subject -> {object -> [image, predicate, ...]}, likewise
        self.skipped = 0
        self._lemmas = {}  # attribute phrase -> its lemmas
        self.names = Lemmas(lemma_table)  # object, subject or predicate name -> its lemma

    def _lemma(self, name):
        return self.names[name] if type(name) is str else None

    def add_region(self, image, region_id, object_name, attributes):
        obj, region = self._lemma(object_name), (image, _id(region_id))  # shared by its pairs
        if obj is None or None in region \
                or type(attributes) is not list or not all(type(a) is str for a in attributes):
            self.skipped += 1
            return
        for attr in attributes:
            # attribute phrases split into tokens, each indexed separately
            if attr not in self._lemmas:
                self._lemmas[attr] = normalize(attr, self.names.table, self.stopwords)
            for lemma in self._lemmas[attr]:
                self.oa.setdefault(obj, {}).setdefault(lemma, []).extend(region)

    def add_relationship(self, image, subject, predicate, object_name):
        names = self._lemma(subject), self._lemma(predicate), self._lemma(object_name)
        if image is None or None in names:
            self.skipped += 1
        elif names[0] != names[2]:  # a self-relationship never grounds
            group = self.relations.setdefault(names[0], {}).setdefault(names[2], [])
            group.extend((image, names[1]))

    def finish(self):
        subjects_of = {}
        for subject, objects in sorted(self.relations.items()):
            for obj in objects:
                subjects_of.setdefault(obj, []).append(subject)
        for groups in (*self.oa.values(), *self.relations.values()):
            for key, flat in groups.items():  # [a, b, a, b, ...] as "a<TAB>b a<TAB>b ..."
                # its (a, b) pairs sorted as tuples and unique: one pair is so as it is;
                # more are deduplicated in arrival order, mostly sorted, so the sort is cheap
                groups[key] = "\t".join(flat) if len(flat) == 2 else \
                    " ".join(map("\t".join, sorted(dict.fromkeys(zip(flat[::2], flat[1::2])))))
        subjects_of = {obj: " ".join(subjects) for obj, subjects in subjects_of.items()}
        return VisualStore(self.oa, self.relations, subjects_of, self.skipped)


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
        image_id = _id(image.get("image_id", image.get("id")))
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
            builder.add_region(_id(obj.get("image")), obj["region"], obj["object"],
                               obj.get("attributes", []))
        elif "subject" in obj and "predicate" in obj:
            builder.add_relationship(_id(obj.get("image")), obj["subject"], obj["predicate"],
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
