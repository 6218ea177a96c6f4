"""Seeded synthetic corpus generator for the benchmark workloads.

`generate(workload, seed, scale, out_dir)` writes every input file the
`discrimattr` CLI reads (definitions, assertions, scene graphs, lemma table,
stopwords, gold, annotations) plus a run config into `out_dir`, and returns
a `Corpus` that holds the same records for the oracle. The same
(workload, seed, scale) always gives byte-identical files.

Concept, attribute and object names are made-up words built from
syllables, so no name collides with a stopword. Popularity is Zipf-skewed
and the ranking is shuffled per seed, so each seed has different hubs.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import Oracle

SYLLABLES = ("ba", "ko", "lu", "mi", "ne", "ra", "si", "to",
             "vu", "ze", "da", "fe", "gi", "ho", "ju", "pa")
STOPWORDS = ("a", "an", "the", "of", "and", "with", "or", "in", "very",
             "that", "is", "by", "for", "its", "usually", "often")
FILLER = ("usually", "often", "with", "very", "of", "that is")
ROLES = ("differentia_quality", "differentia_event", "event_location",
         "purpose", "accessory_determiner", "origin_location")
PROPERTY_RELATIONS = ("HasProperty", "HasA", "CapableOf", "UsedFor", "AtLocation", "MadeOf")
CONCEPT_RELATIONS = ("IsA", "RelatedTo", "PartOf")
PREDICATES = ("on", "near", "holding", "behind", "wearing", "under")
CATEGORIES = ("sensory", "logical", "relative", "absolute", "essential", "incidental")
GOLD_TRIPLES = 2340  # size of the SemEval-2018 Task 10 gold set

# Per workload and scale. `mix` is the share of gold draws whose attribute
# is planted from the pivot's DBM / CKG / VFM attributes (the rest are drawn
# at random); `decided` is the share of gold triples that DBM / CKG / VFM
# decide, the rest being negatives.
_COMMON = dict(concept_s=0.9, attr_s=1.0, gold_s=0.7, hub_share=0.05, gold=GOLD_TRIPLES,
               use_sor=False)
SCALES = {
    "lexicon": {
        "full": dict(_COMMON, concepts=1500, attributes=500, def_share=0.9,
                     assertions=12000, conceptnet=True, images=300,
                     objects_per_image=(3, 8), rels_per_image=2, vg_arrays=False,
                     mix=(0.4, 0.3, 0.05), decided=(0.3, 0.25, 0.03)),
        "tiny": dict(_COMMON, concepts=150, attributes=60, def_share=0.9,
                     assertions=600, conceptnet=True, images=20,
                     objects_per_image=(2, 5), rels_per_image=2, vg_arrays=False,
                     mix=(0.4, 0.3, 0.05), decided=(0.3, 0.25, 0.03), gold=60),
    },
    "scenes": {
        "full": dict(_COMMON, concepts=2000, attributes=600, def_share=0.1, hub_share=0.0,
                     concept_s=1.1, attr_s=1.1, assertions=1000, conceptnet=False, images=2500,
                     objects_per_image=(5, 14), rels_per_image=3, vg_arrays=True,
                     mix=(0.03, 0.03, 0.6), decided=(0.01, 0.04, 0.45), use_sor=True),
        "tiny": dict(_COMMON, concepts=120, attributes=50, def_share=0.1, hub_share=0.0,
                     concept_s=1.1, attr_s=1.1, assertions=60, conceptnet=False, images=60,
                     objects_per_image=(3, 8), rels_per_image=2, vg_arrays=True,
                     mix=(0.03, 0.03, 0.6), decided=(0.01, 0.04, 0.45), use_sor=True,
                     gold=60),
    },
}


def word(i, suffix):
    """The i-th made-up word: base-16 syllables, at least two, plus a suffix
    letter that keeps concept and attribute names apart."""
    out = []
    while True:
        i, r = divmod(i, len(SYLLABLES))
        out.append(SYLLABLES[r])
        if i == 0 and len(out) >= 2:
            return "".join(out) + suffix


class Zipf:
    """Draws indices in [0, n) with P(k) proportional to 1 / (k + 1) ** s."""

    def __init__(self, n, s, rng):
        self.cum = list(itertools.accumulate(1.0 / (k ** s) for k in range(1, n + 1)))
        self.rng = rng

    def __call__(self, below=None):
        """An index; with `below`, one in [0, below)."""
        top = self.cum[-1 if below is None else below - 1]
        return bisect.bisect(self.cum, self.rng.random() * top)


@dataclass
class Corpus:
    workload: str
    config_path: Path
    config: dict
    lemma_table: dict      # surface -> lemma, chains resolved
    stopwords: frozenset
    definitions: list      # records as written: {"term", "sense", "segments"}
    assertions: list       # (relation, start, end) of every well-formed English row
    regions: list          # (image, region, object, attributes)
    relationships: list    # (image, subject, predicate, object)
    gold: list             # (pivot, comparison, attribute, label) surfaces
    annotations: list      # (pivot, comparison, attribute, "cat;cat")
    skipped_records: int   # rows written on purpose that ingest must skip


def generate(workload, seed, scale, out_dir) -> tuple[Corpus, Oracle]:
    p = SCALES[workload][scale]
    rng = random.Random(f"{workload}:{seed}:{scale}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    order = list(range(p["concepts"]))
    rng.shuffle(order)
    concepts = [word(i, "n") for i in order]
    order = list(range(p["attributes"]))
    rng.shuffle(order)
    attributes = [word(i, "l") for i in order]
    concept_z = Zipf(len(concepts), p["concept_s"], rng)
    attr_z = Zipf(len(attributes), p["attr_s"], rng)

    # a third of the concepts and a tenth of the attributes have an inflected
    # surface form; a few of those go through a two-step chain
    lemma_rows = []
    for c in concepts[::3]:
        lemma_rows.append((c + "s", c))
    for a in attributes[::10]:
        lemma_rows.append((a + "er", a))
    for c in concepts[::36]:
        lemma_rows.append((c + "ses", c + "s"))
    lemma_table = {s: l for s, l in lemma_rows}
    for s, l in list(lemma_table.items()):
        while l in lemma_table:
            l = lemma_table[l]
        lemma_table[s] = l
    inflected = {}
    for s, l in lemma_rows:
        inflected.setdefault(lemma_table[s], []).append(s)

    def surface(lemma, share=0.3):
        forms = inflected.get(lemma)
        if forms and rng.random() < share:
            return rng.choice(forms)
        return lemma

    def phrase():
        r = rng.random()
        a = surface(attributes[attr_z()], 0.2)
        if r < 0.1:
            return "very " + a
        if r < 0.15:
            return a + " " + attributes[attr_z()]
        return a

    definitions = _definitions(p, rng, concepts, concept_z, attr_z, attributes, surface)
    assertions, assertion_lines, skipped_assertions = _assertions(
        p, rng, concepts, concept_z, attributes, attr_z, surface)
    regions, relationships = _scenes(p, rng, concepts, concept_z, surface, phrase)

    config = {
        "definitions": "definitions.jsonl",
        "assertions": "assertions.tsv",
        "lemma_table": "lemmas.tsv",
        "stopwords": "stopwords.txt",
        "gold": "gold.csv",
        "annotations": "annotations.csv",
        "output_dir": "out",
        "vfm_use_sor": p["use_sor"],
    }
    with open(out_dir / "lemmas.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{l}\n" for s, l in lemma_rows)
    with open(out_dir / "stopwords.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{w}\n" for w in STOPWORDS)
    with open(out_dir / "definitions.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(d) + "\n" for d in definitions)
    with open(out_dir / "assertions.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in assertion_lines)
    config["scene_graphs"], skipped_scenes = _write_scenes(p, rng, out_dir, regions, relationships)

    corpus = Corpus(
        workload=workload, config_path=out_dir / "config.json",
        config=config, lemma_table=lemma_table, stopwords=frozenset(STOPWORDS),
        definitions=definitions, assertions=assertions, regions=regions,
        relationships=relationships, gold=[], annotations=[],
        skipped_records=skipped_assertions + skipped_scenes,
    )
    oracle = Oracle(corpus)
    _gold(p, rng, corpus, oracle, concepts, Zipf(len(concepts), p["gold_s"], rng),
          attributes, attr_z, surface)
    with open(out_dir / "gold.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pivot", "comparison", "attribute", "label"])
        writer.writerows(corpus.gold)
    with open(out_dir / "annotations.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pivot", "comparison", "attribute", "category"])
        writer.writerows(corpus.annotations)
    with open(corpus.config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return corpus, oracle


def _definitions(p, rng, concepts, concept_z, attr_z, attributes, surface):
    """Senses with a supertype segment and 1-3 differentia segments. The
    genus is Zipf-drawn among more popular concepts, so chains run up to the
    hubs and get deep; one genus in twenty is drawn among all concepts, which
    closes cycles. The top `hub_share` of concepts are hubs, always defined,
    with two senses (three for the top tenth of hubs) of two differentia
    each: most expansions pass through them, and a fixed shape keeps
    seed-to-seed differences in query work small."""
    out = []
    hubs = int(len(concepts) * p["hub_share"])
    for rank, c in enumerate(concepts):
        hub = rank < hubs
        if not hub and rng.random() >= p["def_share"]:
            continue
        n_senses = (3 if rank < hubs // 10 else 2) if hub else 1 + (rng.random() < 0.5)
        for k in range(1, n_senses + 1):
            adj = surface(attributes[attr_z()], 0.2) + " " if rng.random() < 0.3 else ""
            genus = concept_z(rank if rank and rng.random() >= 0.05 else None)
            segments = [{"role": "supertype", "text": f"a {adj}{surface(concepts[genus])}"}]
            for _ in range(2 if hub else rng.randint(1, 3)):
                names = [surface(attributes[attr_z()], 0.2) for _ in range(rng.randint(1, 3))]
                segments.append({"role": rng.choice(ROLES),
                                 "text": f"{rng.choice(FILLER)} " + " and ".join(names)})
            term = surface(c)
            if rng.random() < 0.1:
                term = term.capitalize()
            out.append({"term": term, "sense": f"{c}.n.{k:02d}", "segments": segments})
    return out


def _assertions(p, rng, concepts, concept_z, attributes, attr_z, surface):
    """Rows in ConceptNet or simplified TSV. Hub concepts start many edges;
    a share are reversed, negated, non-English or malformed."""
    kept = []
    lines = []
    skipped = 0
    for _ in range(p["assertions"]):
        start = concepts[concept_z()]
        if rng.random() < 0.8:
            relation = rng.choice(PROPERTY_RELATIONS)
            end = attributes[attr_z()]
        else:
            relation = rng.choice(CONCEPT_RELATIONS)
            end = concepts[concept_z()]
        if rng.random() < 0.1:
            start, end = end, start
        start, end = surface(start), surface(end)
        negated = rng.random() < 0.05
        if negated:
            relation = "Not" + relation
        weight = rng.choice((1.0, 0.5, 2.0, 1.585))
        r = rng.random()
        if r < 0.003:
            lines.append("this line is malformed")
            skipped += 1
            continue
        lang = "fr" if p["conceptnet"] and r < 0.013 else "en"
        if p["conceptnet"]:
            pos = "/n" if rng.random() < 0.3 else ""
            lines.append(
                f"/a/[/r/{relation}/,/c/{lang}/{start}/,/c/{lang}/{end}/]\t/r/{relation}"
                f"\t/c/{lang}/{start}{pos}\t/c/{lang}/{end}\t{json.dumps({'weight': weight})}"
            )
        else:
            lines.append(f"{relation}\t{start}\t{end}\t{weight}")
        if lang == "en" and not negated:
            kept.append((relation, start, end))
    return kept, lines, skipped


def _scenes(p, rng, concepts, concept_z, surface, phrase):
    """Images of Zipf-drawn objects with 0-3 attribute phrases each, and a
    few relationships between objects of the same image."""
    regions = []
    relationships = []
    region_id = 0
    lo, hi = p["objects_per_image"]
    for img in range(p["images"]):
        image_id = 1000 + img
        names = []
        for _ in range(rng.randint(lo, hi)):
            region_id += 1
            name = surface(concepts[concept_z()])
            names.append(name)
            attrs = [phrase() for _ in range(rng.choice((0, 1, 1, 2, 3)))]
            regions.append((image_id, region_id, name, attrs))
        for _ in range(min(p["rels_per_image"], len(names) - 1)):
            subj, obj = rng.sample(names, 2)
            relationships.append((image_id, subj, rng.choice(PREDICATES), obj))
    return regions, relationships


def _write_scenes(p, rng, out_dir, regions, relationships):
    """Writes VG `objects.json`/`relationships.json` arrays or JSON-lines.
    Returns the config's scene_graphs list and the number of records ingest
    must skip."""
    skipped = 0
    if p["vg_arrays"]:
        images = {}
        for image_id, region_id, name, attrs in regions:
            obj = {"object_id": region_id, "attributes": attrs}
            if rng.random() < 0.1:
                obj["name"] = name
            else:
                obj["names"] = [name]
            images.setdefault(image_id, []).append(obj)
        for image_id in list(images)[::97]:
            images[image_id].append({"object_id": 0, "names": [], "attributes": ["x"]})
            skipped += 1
        rels = {}
        for n, (image_id, subj, pred, obj) in enumerate(relationships):
            rels.setdefault(image_id, []).append(
                {"relationship_id": n, "predicate": pred,
                 "subject": {"names": [subj]}, "object": {"names": [obj]}})
        with open(out_dir / "objects.json", "w", encoding="utf-8") as fh:
            json.dump([{"image_id": i, "objects": o} for i, o in images.items()], fh)
        with open(out_dir / "relationships.json", "w", encoding="utf-8") as fh:
            json.dump([{"image_id": i, "relationships": r} for i, r in rels.items()], fh)
        return ["objects.json", "relationships.json"], skipped
    with open(out_dir / "scene_regions.jsonl", "w", encoding="utf-8") as fh:
        for n, (image_id, region_id, name, attrs) in enumerate(regions):
            line = json.dumps({"image": image_id, "region": region_id, "object": name,
                               "attributes": attrs}) + "\n"
            # every 50th region is listed twice; ingest must not count it twice
            fh.write(line * (2 if n % 50 == 0 else 1))
    with open(out_dir / "scene_relationships.jsonl", "w", encoding="utf-8") as fh:
        for image_id, subj, pred, obj in relationships:
            fh.write(json.dumps({"image": image_id, "subject": subj, "predicate": pred,
                                 "object": obj}) + "\n")
        fh.write("{not json\n")
        skipped += 1
    return ["scene_regions.jsonl", "scene_relationships.jsonl"], skipped


def _gold(p, rng, corpus, oracle, concepts, pivot_z, attributes, attr_z, surface):
    """Unique (pivot, comparison, attribute) keys. A share have the
    attribute planted from one component's evidence for the pivot; the rest
    draw it at random. Draws whose deciding component (per the oracle) has
    already filled its quota (`decided`; the rest are negatives) are
    rejected, so each seed has the same mix of deciding components. Labels
    are the oracle's verdict with a quarter flipped, so the report's metrics
    are not trivial."""
    attribute_set = set(attributes)
    planted = {
        "DBM": lambda t: sorted(oracle.dbm_attributes(t) & attribute_set),
        "CKG": lambda t: sorted(oracle.ckg_neighbours(t) & attribute_set),
        "VFM": lambda t: sorted(oracle.vfm_attributes(t)),
    }
    quota = {c: round(share * p["gold"]) for c, share in zip(planted, p["decided"])}
    quota[None] = p["gold"] - sum(quota.values())
    shares = list(itertools.accumulate(p["mix"]))
    seen = set()
    draws = 0
    while len(corpus.gold) < p["gold"]:
        draws += 1
        pivot = concepts[pivot_z()]
        comparison = concepts[pivot_z()]
        if pivot == comparison:
            continue
        r = rng.random()
        source = next((c for c, s in zip(planted, shares) if r < s), None)
        candidates = planted[source](pivot) if source else []
        attribute = rng.choice(candidates) if candidates else attributes[attr_z()]
        if (pivot, comparison, attribute) in seen:
            continue
        label, component = oracle.verdict(pivot, comparison, attribute)
        # past 100 draws per triple a quota that cannot fill is given up
        if quota[component] <= 0 and draws < 100 * p["gold"]:
            continue
        quota[component] -= 1
        seen.add((pivot, comparison, attribute))
        if rng.random() < 0.25:
            label = not label
        row = (surface(pivot, 0.2), surface(comparison, 0.2), surface(attribute, 0.1))
        corpus.gold.append(row + (int(label),))
        cats = rng.sample(CATEGORIES, rng.choice((1, 1, 2)))
        corpus.annotations.append(row + (";".join(cats),))
