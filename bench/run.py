"""Benchmark for the `discrimattr` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload lexicon --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout. It generates the workload's corpus from
the seed into `.bench_work/<workload>-<scale>/` (not timed), then runs the
real CLI as child processes, one at a time (a closed loop with one client),
for about `--seconds` seconds, and checks every output against a
brute-force oracle.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
each command twice, plain and with every layer traced, and reports the
per-layer metrics. Human-readable lines come first; the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
failed / attempted is the error rate over CLI exits and output checks.
`--scale tiny` shrinks the corpus for the smoke test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import sys
import time
from pathlib import Path

import gen
import proc
import tracing

BENCH = Path(__file__).resolve().parent
TRACED_CLI = str(BENCH / "traced_cli.py")
STORE_FILES = {s: f"{s}.index.json" for s in tracing.STORES}
MIN_CYCLES = 3
med = tracing.median_or_zero


def ratio(a, b):
    return a / b if b else 0.0


class Run:
    """One workload run: its corpus, oracle, checks and phase samples."""

    def __init__(self, launcher, work, workload, seed, scale):
        self.launcher = launcher
        self.work = work
        t0 = time.perf_counter()
        self.corpus, self.oracle = gen.generate(workload, seed, scale, work / "corpus")
        self.generate_s = time.perf_counter() - t0
        self.out = work / "corpus" / self.corpus.config["output_dir"]
        self.gold_keys = [self.key(row[:3]) for row in self.corpus.gold]
        self.positives = [row[:3] for row, key in zip(self.corpus.gold, self.gold_keys)
                          if self.oracle.verdict(*key)[0]]
        random.Random(seed).shuffle(self.positives)
        self.verdict_bytes = 0
        self.samples = {}   # phase -> [proc.Sample]
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def key(self, triple):
        return tuple(self.oracle.lemma(s) for s in triple)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def cli(self, command, *args, spans=None):
        """Runs one CLI command, recording its sample under the command's
        name; with `spans`, under traced_cli.py, which writes its spans
        there. Returns the sample if the exit code is 0."""
        entry, phase = proc.CLI, command
        if spans is not None:
            phase = f"{command}.traced"
            entry = (TRACED_CLI, str(spans), str(len(self.samples.get(phase, ()))))
        sample = self.launcher.cli([command, "--config", str(self.corpus.config_path), *args],
                                   entry)
        self.samples.setdefault(phase, []).append(sample)
        if self.check(sample.exit_code == 0,
                      f"{phase}: exit {sample.exit_code}: {sample.stderr.strip()[-300:]}"):
            return sample
        return None

    # -- commands, each followed by its output checks ---------------------------

    def build(self, spans=None):
        sample = self.cli("build", spans=spans)
        if sample:
            found = re.search(r"skipped (\d+) malformed", sample.stderr)
            skipped = int(found.group(1)) if found else 0
            self.check(skipped == self.corpus.skipped_records,
                       f"build skipped {skipped} records, expected {self.corpus.skipped_records}")

    def evaluate(self, spans=None):
        """Returns the stored verdicts by key."""
        if not self.cli("evaluate", spans=spans):
            return {}
        self.verdict_bytes = (self.out / "verdicts.jsonl").stat().st_size
        self.check_report()
        return self.check_verdicts(self.gold_keys)

    def classify(self, triple, spans=None):
        """One triple; returns the stored verdicts by key."""
        sample = self.cli("classify", *triple, spans=spans)
        if not sample:
            return {}
        label = int(self.oracle.verdict(*self.key(triple))[0])
        first = sample.stdout.splitlines()[:1]
        self.check(first == [f"{','.join(triple)},{label}"],
                   f"classify {triple} printed {first}, oracle label {label}")
        return self.check_verdicts([self.key(triple)])

    def explain(self, triple, records, spans=None):
        """Re-renders a stored positive verdict; the text must round-trip."""
        stored = records.get(self.key(triple))
        if not self.check(stored is not None and stored["label"] == 1,
                          f"explain {triple}: no stored positive verdict"):
            return
        sample = self.cli("explain", *triple, spans=spans)
        if sample:
            self.check(sample.stdout.strip() == stored["explanation"]["rendered_text"],
                       f"explain {triple}: output differs from the stored explanation")

    def check_verdicts(self, keys):
        """Each stored verdict's label and deciding component against the
        oracle, and the stored keys against `keys`. Returns records by key."""
        records = {}
        with open(self.out / "verdicts.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["pivot"], rec["comparison"], rec["attribute"])
                records[key] = rec
                label, component = self.oracle.verdict(*key)
                self.check((rec["label"], rec["deciding_component"]) == (int(label), component),
                           f"verdict {key}: got {rec['label']}/{rec['deciding_component']}, "
                           f"oracle {int(label)}/{component}")
        self.check(sorted(records) == sorted(set(keys)),
                   f"verdicts.jsonl holds {len(records)} keys, expected {len(set(keys))}")
        return records

    def check_report(self):
        """report.txt's confusion line against the oracle's counts."""
        counts = {"TP": 0, "FP": 0, "FN": 0, "TN": 0}
        for row, key in zip(self.corpus.gold, self.gold_keys):
            pred, gold = self.oracle.verdict(*key)[0], row[3] == 1
            counts[("T" if pred == gold else "F") + ("P" if pred else "N")] += 1
        expected = "confusion: " + " ".join(f"{k}={v}" for k, v in counts.items())
        report = (self.out / "report.txt").read_text(encoding="utf-8")
        self.check(expected in report.splitlines(), f"report.txt lacks {expected!r}")

    def index_bytes(self):
        return {s: (self.out / f).stat().st_size for s, f in STORE_FILES.items()}

    def median(self, phase, field):
        return med([getattr(s, field) for s in self.samples.get(phase, ())])

    def print_samples(self):
        print(f"{'phase':<20}{'n':>4}{'wall_s p50':>12}{'min':>8}{'max':>8}{'cpu_s p50':>11}"
              f"{'rss_mb p50':>12}")
        for phase, samples in self.samples.items():
            walls = [s.wall_s for s in samples]
            print(f"{phase:<20}{len(samples):>4}{self.median(phase, 'wall_s'):>12.4f}"
                  f"{min(walls):>8.3f}{max(walls):>8.3f}{self.median(phase, 'cpu_s'):>11.4f}"
                  f"{self.median(phase, 'peak_rss_mb'):>12.1f}")


def end_to_end(run, seconds):
    """Cycles of build, evaluate, explain and classify until `seconds` have
    passed and at least MIN_CYCLES cycles are done. Interleaving the phases
    spreads each one's samples over the whole run, so a burst of load on
    the host skews a few samples of every phase rather than all samples of
    one."""
    t0 = time.perf_counter()
    # explain after evaluate looks up the positive stored last, so every
    # sample scans all of verdicts.jsonl
    last_positive = next(row[:3] for row, key in zip(reversed(run.corpus.gold),
                                                     reversed(run.gold_keys))
                         if run.oracle.verdict(*key)[0])
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() - t0 < seconds:
        run.build()
        run.explain(last_positive, run.evaluate())
        run.classify(run.positives[cycle % len(run.positives)])
        cycle += 1
    gold_n = len(set(run.gold_keys))
    print(f"cycles: {cycle}; gold triples: {gold_n}; "
          f"measured for {time.perf_counter() - t0:.2f} s")
    run.print_samples()
    return {
        "setup_s": (run.median("build", "wall_s"), "s"),
        "build_peak_rss_mb": (run.median("build", "peak_rss_mb"), "MB"),
        "index_bytes": (sum(run.index_bytes().values())
                        + (run.out / "manifest.json").stat().st_size, "bytes"),
        "classify_cold_s": (run.median("classify", "wall_s"), "s"),
        "explain_cold_s": (run.median("explain", "wall_s"), "s"),
        "evaluate_triples_per_s": (ratio(gold_n, run.median("evaluate", "wall_s")), "triples/s"),
        "evaluate_peak_rss_mb": (run.median("evaluate", "peak_rss_mb"), "MB"),
        "verdict_bytes_per_triple": (run.verdict_bytes / gold_n, "bytes"),
    }


def text_layer(run, reps=3):
    """The text module's public functions over the corpus's segment texts,
    attribute phrases and names, in this process; medians of `reps`."""
    from discrimattr import text
    corpus, tracer = run.corpus, tracing.Tracer()
    lemma_table = text.load_lemma_table(run.work / "corpus" / corpus.config["lemma_table"])
    stopwords = text.load_stopwords(run.work / "corpus" / corpus.config["stopwords"])
    texts = [seg["text"] for rec in corpus.definitions for seg in rec["segments"]]
    texts += [phrase for region in corpus.regions for phrase in region[3]]
    names = [rec["term"] for rec in corpus.definitions] + [r[2] for r in corpus.regions]
    names += [name for _, start, end in corpus.assertions for name in (start, end)]
    tokens = 0
    for _ in range(reps):
        with tracer.span("text.normalize"):
            for t in texts:
                text.normalize(t, lemma_table, stopwords)
        with tracer.span("text.tokenize"):
            tokens = sum(len(text.tokenize(t)) for t in texts)
        with tracer.span("text.lemma_of"):
            for name in names:
                text.lemma_of(name, lemma_table)
    dump = {"spans": tracer.spans, "counters": {}}
    span_s = lambda name: med(tracing.durations(dump, (name,)))
    return dump, {
        "text.normalize_s": (span_s("text.normalize"), "s"),
        "text.tokens_per_s": (ratio(tokens, span_s("text.tokenize")), "tokens/s"),
        "text.lemma_of_s": (span_s("text.lemma_of"), "s"),
    }


def traced(run, seconds):
    """Rounds of build, evaluate, explain and classify until `seconds` have
    passed (at least one). Each command runs plain, then under
    traced_cli.py; per-layer numbers come from the traced children's spans
    and counters, the tracing overhead from the difference in wall time."""
    t0 = time.perf_counter()
    rounds = []  # per round: {command: (plain sample, traced sample, spans dump)}
    while not rounds or time.perf_counter() - t0 < seconds:
        triple = run.positives[len(rounds) % len(run.positives)]
        state = {}
        steps = (
            ("build", lambda spans: run.build(spans)),
            ("evaluate", lambda spans: state.update(records=run.evaluate(spans))),
            ("explain", lambda spans: run.explain(triple, state["records"], spans)),
            ("classify", lambda spans: run.classify(triple, spans)),
        )
        done = {}
        for command, step in steps:
            spans = run.work / f"spans-{len(rounds)}-{command}.json"
            step(None)
            step(spans)
            dump = {"spans": [], "counters": {}}
            if spans.exists():
                dump = json.loads(spans.read_text(encoding="utf-8"))
            done[command] = (run.samples[command][-1], run.samples[f"{command}.traced"][-1], dump)
        rounds.append(done)
    print(f"rounds: {len(rounds)}; measured for {time.perf_counter() - t0:.2f} s")
    run.print_samples()

    text_dump, metrics = text_layer(run)
    metrics.update(tracing.layer_metrics(rounds))
    for store, size in run.index_bytes().items():
        metrics[f"index.bytes.{store}"] = (size, "bytes")

    # the shares the workloads were designed around, with their bases
    total = lambda command, *names: med(
        [sum(tracing.durations(r[command][2], names)) for r in rounds])
    build_s = total("build", "cli.build")
    batch_s = total("evaluate", "cascade.batch")
    classify_cold = med([r["classify"][0].wall_s for r in rounds])
    shares = {
        "share.visual_ingest_of_build": ratio(total("build", "visual.ingest"), build_s),
        "share.dbm_ckg_query_of_batch": ratio(
            total("evaluate", "definitions.query", "commonsense.query"), batch_s),
        "share.vfm_query_of_batch": ratio(total("evaluate", "visual.query"), batch_s),
        "share.load_hash_of_classify_cold": ratio(total("classify", "cli.load_stores"),
                                                  classify_cold),
    }
    metrics.update({name: (value, "ratio") for name, value in shares.items()})
    metrics.update({
        "trace.build_s": (build_s, "s"),
        "trace.classify_cold_s": (classify_cold, "s"),
        "trace.overhead_s": (med([sum(t.wall_s - p.wall_s for p, t, _ in r.values())
                                  for r in rounds]), "s"),
    })
    print(f"shares: visual ingest {shares['share.visual_ingest_of_build']:.3f} of the build "
          f"span ({build_s:.3f} s); DBM+CKG queries {shares['share.dbm_ckg_query_of_batch']:.3f}"
          f" and VFM queries {shares['share.vfm_query_of_batch']:.3f} of classify_batch "
          f"({batch_s:.3f} s); load+hash {shares['share.load_hash_of_classify_cold']:.3f} of a "
          f"plain cold classify ({classify_cold:.3f} s)")

    # every span and counter, written once the run is over
    with open(run.work / "trace.jsonl", "w", encoding="utf-8") as fh:
        for n, r in enumerate(rounds):
            for command, (_, _, dump) in r.items():
                fh.write(json.dumps({"round": n, "command": command, **dump}) + "\n")
        fh.write(json.dumps({"round": None, "command": "text", **text_dump}) + "\n")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(gen.SCALES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "discrimattr" / "cli.py").is_file():
        print(f"error: no src/discrimattr/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{args.scale}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # the launcher starts before the corpus and oracle fill this process
    with proc.Launcher(root / "src", work) as launcher:
        run = Run(launcher, work, args.workload, args.seed, args.scale)
        fires = {}
        for key in run.gold_keys:
            component = run.oracle.verdict(*key)[1] or "none"
            fires[component] = fires.get(component, 0) + 1
        print(f"workload {args.workload}, scale {args.scale}, seed {args.seed}, "
              f"trace {args.trace}; nproc {os.cpu_count()}; python {platform.python_version()}")
        print(f"corpus: {len(run.corpus.definitions)} senses, {len(run.corpus.assertions)} "
              f"assertions, {len(run.corpus.regions)} regions, "
              f"{len(run.corpus.relationships)} relationships; "
              f"generated in {run.generate_s:.2f} s (not timed)")
        print("hubs: largest (object, attribute) pair "
              f"{max(map(len, run.oracle.regions.values()), default=0)} regions; "
              f"largest CKG concept {max(map(len, run.oracle.neighbours.values()), default=0)} "
              "neighbours")
        print("oracle deciding component over the gold set: "
              + ", ".join(f"{k}={v}" for k, v in sorted(fires.items())))
        metrics = traced(run, args.seconds) if args.trace else end_to_end(run, args.seconds)

    print(f"error_rate: {run.failed}/{run.attempted}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                   "nproc": os.cpu_count(), "python": platform.python_version(), **result,
                   "samples": {phase: [[s.wall_s, s.cpu_s, s.peak_rss_mb] for s in samples]
                               for phase, samples in run.samples.items()}}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
