"""Spans and counters recorded from outside the package.

`instrument(tracer)` wraps the package's layer functions (module
attributes, class methods) for the lifetime of the context, so that a
span opens and closes around every call into a layer. Nothing under
`src/` changes. Spans live in memory as [name, start, end, parent, run]
and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter

STORES = ("definitions", "commonsense", "visual")
LAYERS = ("text", "index", "definitions", "commonsense", "visual", "cascade", "evaluation", "cli")


class Tracer:
    def __init__(self, run=0):
        self.spans = []          # [name, start, end, parent index or None, run id]
        self.counters = Counter()
        self.run = run
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, after=None):
        """`fn` inside a span; `name` is a string or a function of the call's
        arguments; `after(result)` updates counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return traced


def _file_span(prefix, other):
    """Span name for `dump_json(obj, path)` or `load_json(path)`, keyed by
    the store whose index file it touches."""
    def name(*args, **_):
        path = str(args[-1])
        for store in STORES:
            if path.endswith(f"{store}.index.json"):
                return f"{prefix}.{store}"
        return other
    return name


@contextlib.contextmanager
def instrument(tracer):
    """Patch every layer boundary of the imported package; restore on exit."""
    from discrimattr import cascade, cli, commonsense, definitions, evaluation, text, visual

    counters = tracer.counters

    def count_query(store):
        def after(result):
            counters[f"{store}.queries"] += 1
            if result.member:
                counters[f"{store}.hits"] += 1
                counters[f"{store}.evidence"] += len(result.evidence)
                if store == "visual":
                    counters["visual.regions"] += len(result.evidence[0].regions)
                    counters["visual.sor_hits"] += result.evidence[0].via is not None
        return after

    def count_verdict(verdict):
        counters["cascade.triples"] += 1
        if verdict.deciding_component:
            counters[f"cascade.fires.{verdict.deciding_component}"] += 1

    plain = [
        (definitions, "load_definitions", "definitions.ingest", None),
        (definitions, "store_from_dict", "definitions.load", None),
        (commonsense, "load_assertions", "commonsense.ingest", None),
        (visual, "load_scene_graphs", "visual.ingest", None),
        (text, "load_lemma_table", "text.load_vocab", None),
        (text, "load_stopwords", "text.load_vocab", None),
        (cli, "_manifest", "cli.manifest_build", None),
        (cli, "_check_manifest", "cli.manifest_load", None),
        (cli, "_load_stores", "cli.load_stores", None),
        (cli, "_write_verdicts", "cli.write_verdicts", None),
        (cli, "dump_json", _file_span("index.write", "cli.write_json"), None),
        (cli, "load_json", _file_span("index.decode", "cli.read_json"), None),
        (cli, "classify_batch", "cascade.batch", None),
        (cli, "render_explanation", "cascade.render", None),
        (cascade, "classify", "cascade.classify", count_verdict),
        (cascade, "render_explanation", "cascade.render", None),
        (evaluation, "load_gold", "evaluation.load_gold", None),
        (evaluation, "load_annotations", "evaluation.load_annotations", None),
        (evaluation, "build_report", "evaluation.build_report", None),
        (evaluation, "render_report", "evaluation.render_report", None),
        (definitions.DefinitionStore, "has_property", "definitions.query", count_query("definitions")),
        (commonsense.CkgStore, "has_property", "commonsense.query", count_query("commonsense")),
        (visual.VisualStore, "has_property", "visual.query", count_query("visual")),
        (definitions.DefinitionStore, "to_dict", "index.write.definitions", None),
        (commonsense.CkgStore, "to_dict", "index.write.commonsense", None),
        (visual.VisualStore, "to_dict", "index.write.visual", None),
    ]
    class_methods = [
        (commonsense.CkgStore, "from_dict", "commonsense.load"),
        (visual.VisualStore, "from_dict", "visual.load"),
    ]
    saved = []
    try:
        for owner, attr, name, after in plain:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, after))
        for owner, attr, name in class_methods:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, classmethod(tracer.wrap(original.__func__, name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def durations(dump, names):
    return [end - start for name, start, end, _, _ in dump["spans"] if name in names]


def self_times(spans):
    """Per span: its duration minus the time its direct children cover
    (children of one parent run one after another, so they never overlap)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(rounds):
    """Per-layer metrics from traced rounds. Each round maps a command to
    (plain sample, traced sample, {"spans", "counters"} of the traced child).
    Span times are medians over rounds or, for queries, percentiles over all
    calls; counters come from the evaluate child."""
    med = median_or_zero
    us = 1e6

    def total(command, *names):
        return med([sum(durations(r[command][2], names)) for r in rounds])

    def pooled(name):
        return [d for r in rounds for _, _, dump in r.values() for d in durations(dump, (name,))]

    def counter(name):
        return med([r["evaluate"][2]["counters"].get(name, 0) for r in rounds])

    def per(name, base):
        return counter(name) / counter(base) if counter(base) else 0.0

    m = {}
    for store in STORES:
        queries = pooled(f"{store}.query")
        m.update({
            f"{store}.ingest_s": (med(pooled(f"{store}.ingest")), "s"),
            f"{store}.load_s": (med(pooled(f"{store}.load")), "s"),
            f"{store}.query_p50_us": (percentile(queries, 50) * us, "us"),
            f"{store}.query_p99_us": (percentile(queries, 99) * us, "us"),
            f"{store}.queries": (counter(f"{store}.queries"), "count"),
            f"{store}.hits": (counter(f"{store}.hits"), "count"),
            f"{store}.evidence_per_hit": (per(f"{store}.evidence", f"{store}.hits"), "count"),
            f"index.write_s.{store}": (total("build", f"index.write.{store}"), "s"),
            f"index.decode_s.{store}": (med(pooled(f"index.decode.{store}")), "s"),
        })
    classify = pooled("cascade.classify")
    m.update({
        "visual.sor_hits": (counter("visual.sor_hits"), "count"),
        "visual.regions_per_hit": (per("visual.regions", "visual.hits"), "count"),
        "cascade.classify_p50_us": (percentile(classify, 50) * us, "us"),
        "cascade.classify_p99_us": (percentile(classify, 99) * us, "us"),
        "cascade.batch_s": (total("evaluate", "cascade.batch"), "s"),
        "cascade.membership_calls_per_triple": (
            sum(counter(f"{s}.queries") for s in STORES) / max(counter("cascade.triples"), 1),
            "count"),
        "cascade.render_p50_us": (percentile(pooled("cascade.render"), 50) * us, "us"),
    })
    for component in ("DBM", "CKG", "VFM"):
        m[f"cascade.fires.{component}"] = (counter(f"cascade.fires.{component}"), "count")
    for name in ("load_gold", "build_report", "render_report"):
        m[f"evaluation.{name}_s"] = (total("evaluate", f"evaluation.{name}"), "s")
    m.update({
        "cli.manifest_s": (med(pooled("cli.manifest_load")), "s"),
        "cli.manifest_build_s": (total("build", "cli.manifest_build"), "s"),
        "cli.write_verdicts_s": (total("evaluate", "cli.write_verdicts"), "s"),
        "cli.import_s": (med(pooled("cli.import")), "s"),
    })
    # each layer's self time, summed over one round's traced commands
    for layer in LAYERS:
        per_round = []
        for r in rounds:
            per_round.append(sum(
                own for _, _, dump in r.values()
                for (name, *_), own in zip(dump["spans"], self_times(dump["spans"]))
                if name.split(".")[0] == layer))
        m[f"{layer}.self_s"] = (med(per_round), "s")
    return m
