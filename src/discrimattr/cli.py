"""Command-line front-end: build indexes, classify triples, render
explanations, and evaluate against a gold standard.

Subcommands: build, classify, explain, evaluate, report.
Exit codes: 0 success, 1 usage/config error, 2 data error.
Relative data paths resolve against $DISCRIMATTR_DATA_DIR when set,
otherwise against the config file's directory.
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

# `evaluation` loads in the commands that use it, `hashlib` only when a digest is needed
from . import text
from .cascade import STAGES, CascadeConfig, classify_batch, render_explanation
from .errors import ConfigError, DataFormatError, DiscrimAttrError, EvidenceError, open_text
from .index import FORMAT_VERSION, atomic_open, dump_json, load_json
from .text import lemma_of
from .types import Term, Triple

DATA_DIR_ENV = "DISCRIMATTR_DATA_DIR"
_PATH_KEYS = ("definitions", "assertions", "lemma_table", "stopwords", "gold", "annotations")
_VERDICT_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False)  # one, for every verdict
_BUNDLED = Path(text.__file__).with_name("data")  # the lemma table and stopwords used when unset
# an input may sit on a filesystem that keeps coarser times than the output directory
# (whole seconds on some), so a change time within this of the build's start may belong
# to a change made after it: the coarsest change-time granularity trusted
_CTIME_SLACK_NS = 2_000_000_000


class RunConfig:
    def __init__(self):
        self.definitions = self.assertions = self.lemma_table = self.stopwords = None
        self.gold = self.annotations = None
        self.scene_graphs = []
        self.output_dir = "out"
        self.language = "en"
        vars(self).update(CascadeConfig._field_defaults)
        self.verbose = False

    def cascade_config(self) -> CascadeConfig:
        return CascadeConfig._make(getattr(self, key) for key in CascadeConfig._fields)

    def to_dict(self):
        # `verbose` is a per-run switch: not in config files or the manifest
        return {k: v for k, v in vars(self).items() if k != "verbose"}

    def input_paths(self):
        paths = {"definitions": self.definitions,
                 **{f"scene_graphs[{i}]": p for i, p in enumerate(self.scene_graphs)},
                 "assertions": self.assertions, "lemma_table": self.lemma_table,
                 "stopwords": self.stopwords}
        return {name: path for name, path in paths.items() if path}


def _resolve(path, base):
    p = Path(path)
    if p.is_absolute():
        return str(p)
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        return str(Path(data_dir) / p)
    return str(base / p)


def load_config(path=None, overrides=None) -> RunConfig:
    cfg = RunConfig()
    base = Path.cwd()
    if path:
        base = Path(path).resolve().parent
        try:
            raw = load_json(path)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except ValueError as e:  # also a file that is not UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {e}")
        if type(raw) is not dict:
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(cfg.to_dict())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    _check_values(cfg)
    for attr in _PATH_KEYS:
        value = getattr(cfg, attr)
        if value:
            setattr(cfg, attr, _resolve(value, base))
    cfg.lemma_table = cfg.lemma_table or str(_BUNDLED / "lemmas.tsv")  # an input like any other
    cfg.scene_graphs = [_resolve(p, base) for p in cfg.scene_graphs]
    cfg.output_dir = _resolve(cfg.output_dir, base)
    return cfg


def _check_values(cfg):
    def check(key, ok, expected):
        if not ok(getattr(cfg, key)):
            raise ConfigError(f"config key {key!r} must be {expected}, not {getattr(cfg, key)!r}")

    try:  # the cascade's own keys, checked as the library checks them
        cfg.cascade_config()
    except ValueError as e:
        raise ConfigError(f"config key {e}")
    check("scene_graphs", lambda v: type(v) is list and all(type(s) is str for s in v),
          "a list of strings")
    for key in ("output_dir", "language"):
        check(key, lambda v: type(v) is str, "a string")
    for key in _PATH_KEYS:
        check(key, lambda v: v is None or type(v) is str, "a string or null")


def _validate_inputs(cfg):
    for name, path in cfg.input_paths().items():
        if not Path(path).exists():
            raise ConfigError(f"input path for {name!r} does not exist: {path}")


def _sha256(path):
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _stat(path):
    """What any write to `path` changes, its change time at least, which user
    space cannot set back."""
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev]


def _record(path, start, before):
    """The sha256 of `path` and, if it last changed more than `_CTIME_SLACK_NS`
    before the build's `start`, `before`: its stat from before the build read
    it, which any later change moves. It must still have that stat after the
    digest is taken, or the digest could name other bytes than the indexes hold."""
    try:
        record = {"sha256": _sha256(path)}
        changed = _stat(path) != before
    except OSError as e:
        raise DataFormatError(f"cannot read: {e.strerror}", path=str(path))
    if changed:
        raise DataFormatError("changed while the build ran; run `discrimattr build` again",
                              path=str(path))
    if before[2] < start - _CTIME_SLACK_NS:
        record["stat"] = before
    return record


def _manifest(cfg, start, before):
    """`before`: each input's stat, taken after `start` and before any read."""
    inputs = {name: {"path": p, **_record(p, start, before[p])}
              for name, p in cfg.input_paths().items()}
    return {"index_format": FORMAT_VERSION, "inputs": inputs, "config": cfg.to_dict()}


def _unchanged(path, digest, stat):
    """Whether `path` still holds the bytes of `digest`: read only when its stat
    is not the recorded `stat`."""
    return stat is not None and _stat(path) == stat or _sha256(path) == digest


def _stage(stage, cfg, lemma_table, stopwords, staged):
    """Ingests `stage`'s store, writes its index into `staged`; only its counts outlive the call."""
    store = stage.ingest(stage.module, cfg, lemma_table, stopwords)
    dump_json(store.to_dict(), Path(staged, stage.index_file))
    return stage.count(store)


def _spawn(run, *args):
    """Starts `run(*args)` in a forked child, or runs it here where the OS cannot fork.
    Returns its join, which reaps the child and gives what it sent, the pickled
    `(True, result)` or `(False, exception, traceback)` or else b"", and its wait status."""
    import pickle  # here, so that a child finds it imported
    if not hasattr(os, "fork"):
        sent = pickle.dumps((True, run(*args)))
        return lambda: (sent, 0)
    sys.stdout.flush()  # else the child's copy of a buffered line could be written too
    sys.stderr.flush()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _send(w, run, *args)
    os.close(w)

    def join():
        with open(r, "rb") as fh:
            try:
                sent = fh.read()
            finally:
                _, status = os.waitpid(pid, 0)
        return sent, status
    return join


def _send(w, run, *args):
    """In a forked child: runs `run(*args)` and writes its pickled outcome to the pipe
    end `w`. Never returns: it leaves through `os._exit`, so none of the parent's
    cleanup, such as the staging directory's, runs here, and none of its stdio flushes."""
    status = 1
    try:
        import pickle
        try:
            sent = True, run(*args)
        except Exception as e:
            import traceback  # a pickled exception loses its frames: they go as text
            sent = False, e, "".join(traceback.format_exception(e)).rstrip()
        with open(w, "wb") as fh:
            fh.write(pickle.dumps(sent))
        status = 0
    finally:
        os._exit(status)


def _result(stage, sent, status):
    """What `stage`'s run returned, as `_spawn`'s join gave it; raises what the run
    raised, caused by its traceback in the child, or, if it sent nothing, that it
    ended without a result."""
    import pickle
    if not sent:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise DiscrimAttrError(f"the {stage.store} ingest ended without a result ({how}); "
                               "the previous build is kept")
    ok, value, *frames = pickle.loads(sent)
    if not ok:
        raise value from Exception(f"in the {stage.store} ingest's process:\n{frames[0]}")
    return value


def cmd_build(cfg) -> int:
    # the bundled stopwords are an input of the build, but not of a query that leaves them unset
    cfg.stopwords = cfg.stopwords or str(_BUNDLED / "stopwords.txt")
    _validate_inputs(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    import tempfile  # only `build` stages its indexes
    # each index waits here under its name, so a failed build keeps the previous ones;
    # made before any input is read, its change time is the build's start
    with tempfile.TemporaryDirectory(prefix=".build-", dir=out) as staged:
        start = os.stat(staged).st_ctime_ns
        try:
            before = {p: _stat(p) for p in cfg.input_paths().values()}
        except OSError as e:
            raise DataFormatError(f"cannot read: {e.strerror}", path=e.filename)
        lemma_table = text.load_lemma_table(cfg.lemma_table)
        stopwords = text.load_stopwords(cfg.stopwords)
        # one process per store, each sharing the tables above with the parent
        joins = []
        try:
            for stage in STAGES.values():
                joins.append(_spawn(_stage, stage, cfg, lemma_table, stopwords, staged))
        finally:  # every child reaped before anything is raised or the staging goes
            ended = [join() for join in joins]
        # the first failing stage's error, as when the stages ran one after another
        counts, skips = zip(*(_result(stage, *end) for stage, end in zip(STAGES.values(), ended)))
        manifest = _manifest(cfg, start, before)
        # no manifest until the new one: a build that fails between two renames leaves none
        (out / "manifest.json").unlink(missing_ok=True)
        for stage in STAGES.values():
            os.replace(Path(staged, stage.index_file), out / stage.index_file)
    manifest["document_counts"] = {stage.store: n for stage, n in zip(STAGES.values(), counts)}
    if skipped := sum(skips):
        manifest["skipped_records"] = skipped
        print(f"warning: skipped {skipped} malformed records", file=sys.stderr)
    dump_json(manifest, out / "manifest.json")
    print(f"built {len(STAGES)} stores in {cfg.output_dir}")
    for name, count in manifest["document_counts"].items():
        print(f"  {name}: {count} documents")
    return 0


def _check_manifest(cfg, out):
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise DataFormatError(f"no manifest in {out}; run `discrimattr build` first",
                              path=str(manifest_path))
    with _malformed(manifest_path):
        manifest = load_json(manifest_path)
        index_format = manifest.get("index_format", 1)  # formats before 2 did not record it
        inputs = {name: (str(e["path"]), e["sha256"], e.get("stat"))
                  for name, e in manifest["inputs"].items()}
    if index_format != FORMAT_VERSION:
        raise DataFormatError(f"indexes built in index format {index_format}, this version reads "
                              f"{FORMAT_VERSION}; rebuild the indexes", path=str(manifest_path))
    # every input the build read, at its path; every one the query names, the lemma table
    # included, must be one of those: that file, or one with its bytes
    checks = [(name, *entry, "changed since build") for name, entry in inputs.items()]
    configured = cfg.input_paths()
    for name, path in configured.items():
        if name not in inputs:
            raise DataFormatError(f"input {name!r} was not read by the build; "
                                  "rebuild the indexes", path=path)
        if path != inputs[name][0]:
            checks.append((name, path, inputs[name][1], None,
                           "is not the file the indexes were built from"))
    if cfg.scene_graphs:  # the indexes hold every scene graph the build read
        for name, (path, *_) in inputs.items():
            if name.startswith("scene_graphs[") and name not in configured:
                raise DataFormatError(f"input {name!r} was read by the build but the query "
                                      "does not name it; rebuild the indexes", path=path)
    for name, path, digest, stat, problem in checks:
        try:
            unchanged = _unchanged(path, digest, stat)
        except OSError:  # an input gone, or no longer a readable file, has changed
            unchanged = False
        if not unchanged:
            raise DataFormatError(f"input {name!r} {problem}; rebuild the indexes", path=path)
    return manifest


@contextmanager
def _malformed(path, command="build"):
    """A failure to read or decode `path` inside the block is a data error naming
    it, and the `command` that writes it anew."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise DataFormatError(f"cannot load ({type(e).__name__}: {e}); "
                              f"run `discrimattr {command}`", path=str(path))


class _OneStore:
    """The stores in `out`, each decoded anew whenever it is asked for and held
    only by the caller, so a caller that drops each store before asking for
    the next holds one at a time."""

    def __init__(self, out):
        self.out = out

    def __getattr__(self, name):  # called for the names never set, the store names among them
        stage = next((s for s in STAGES.values() if s.store == name), None)
        if stage is None:
            raise AttributeError(f"no store {name!r}")
        with _malformed(self.out / stage.index_file):
            return stage.load(stage.module, load_json(self.out / stage.index_file))


def _load_stores(cfg) -> _OneStore:
    """The built stores, once the manifest shows them current; none is decoded yet."""
    out = Path(cfg.output_dir)
    _check_manifest(cfg, out)
    return _OneStore(out)


def _term(surface, lemma_table):
    try:
        return Term(surface, lemma_of(surface, lemma_table))
    except ValueError as e:
        raise ConfigError(f"invalid term: {e}")


def _semeval_row(triple, verdict):
    """The `pivot,comparison,attribute,label` row of `semeval.csv` and of classify's stdout."""
    return [triple.pivot.surface, triple.comparison.surface, triple.attribute.surface,
            1 if verdict.discriminative else 0]


def _write_verdicts(results, out):
    with atomic_open(out / "verdicts.jsonl") as fh:
        for triple, verdict in results:
            fh.write(_VERDICT_JSON.encode(verdict.to_dict(triple)))
            fh.write("\n")
    with atomic_open(out / "semeval.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for triple, verdict in results:
            writer.writerow(_semeval_row(triple, verdict))


def cmd_classify(cfg, triple_args=None, triples_file=None) -> int:
    if triple_args and len(triple_args) != 3:
        raise ConfigError("a triple needs exactly 3 terms: pivot comparison attribute")
    if triple_args and triples_file:
        raise ConfigError("give a triple or --triples-file, not both")
    if not triple_args and not triples_file:
        raise ConfigError("provide a triple (pivot comparison attribute) or --triples-file")
    stores = _load_stores(cfg)
    lemma_table = text.load_lemma_table(cfg.lemma_table)
    if triple_args:
        triples = [Triple(*(_term(a, lemma_table) for a in triple_args))]
    else:
        from .evaluation import read_triples
        triples = [triple for _, _, triple in read_triples(triples_file, lemma_table)]
    results, _ = classify_batch(triples, stores, cfg.cascade_config())
    _write_verdicts(results, Path(cfg.output_dir))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for triple, verdict in results:
        writer.writerow(_semeval_row(triple, verdict))
        if verdict.discriminative and cfg.verbose:
            print(f"  [{verdict.deciding_component}] {verdict.explanation.rendered_text}")
        elif verdict.discriminative:
            print(f"  {verdict.explanation.rendered_text}")
        elif cfg.verbose:
            print("  no evidence found in any component")
    return 0


def cmd_explain(cfg, triple_args) -> int:
    lemma_table = text.load_lemma_table(cfg.lemma_table)
    triple = Triple(*(_term(a, lemma_table) for a in triple_args))
    path = Path(cfg.output_dir) / "verdicts.jsonl"
    if not path.exists():
        raise DataFormatError("no stored verdicts; run `discrimattr classify` first", path=str(path))
    print(_stored_explanation(path, triple))
    return 0


def _stored_explanation(path, triple):
    """The explanation re-rendered from the triple's verdict in `verdicts.jsonl`."""
    # a line that starts as the writer starts another triple's is skipped undecoded: the
    # writer's sorted keys begin with these two, encoded as it encodes them
    own = _VERDICT_JSON.encode({"attribute": triple.attribute.lemma,
                                "comparison": triple.comparison.lemma})[:-1] + ", "
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.startswith('{"attribute": ') and not line.startswith(own):
                continue
            try:
                rec = json.loads(line)
                if (rec["pivot"], rec["comparison"], rec["attribute"]) != triple.key():
                    continue
                if not rec["label"]:
                    return "not discriminative: no explanation"
                stage = STAGES[rec["deciding_component"]]
                explanation = rec["explanation"]
                if explanation["template_id"] != stage.template_id:
                    raise KeyError(explanation["template_id"])
                evidence = tuple(stage.evidence_type.from_dict(e)
                                 for e in explanation["pivot_evidence"])
                return render_explanation(triple, stage.name, evidence)
            except (ValueError, KeyError, TypeError, EvidenceError) as e:
                raise DataFormatError(f"malformed stored verdict: {type(e).__name__}: {e}",
                                      path=str(path), line=lineno)
    raise DataFormatError(f"no stored verdict for {triple.key()}", path=str(path))


def cmd_evaluate(cfg) -> int:
    from . import evaluation
    if not cfg.gold:
        raise ConfigError("evaluate requires a gold file (config key 'gold' or --gold)")
    stores = _load_stores(cfg)
    # one memo for the gold and annotation reads
    terms = evaluation.Terms(text.load_lemma_table(cfg.lemma_table))
    gold = evaluation.load_gold(cfg.gold, terms)
    annotated = cfg.annotations and Path(cfg.annotations).exists()
    if cfg.annotations and not annotated:
        print(f"notice: annotation file {cfg.annotations} not found; category tables skipped",
              file=sys.stderr)
    # the batch drops each store as its stage ends, so the annotations reuse their memory
    results, bitmaps = classify_batch(gold, stores, cfg.cascade_config())
    annotations = evaluation.load_annotations(cfg.annotations, terms) if annotated else None
    combined = [verdict.discriminative for _, verdict in results]
    report = evaluation.build_report(bitmaps, combined, gold, annotations)
    out = Path(cfg.output_dir)
    _write_verdicts(results, out)
    dump_json(report, out / "report.json")
    rendered = evaluation.render_report(report)
    with atomic_open(out / "report.txt") as fh:
        fh.write(rendered)
    print(rendered, end="")
    return 0


def cmd_report(cfg) -> int:
    from . import evaluation
    path = Path(cfg.output_dir) / "report.json"
    if not path.exists():
        raise DataFormatError("no report.json; run `discrimattr evaluate` first", path=str(path))
    with _malformed(path, "evaluate"):
        rendered = evaluation.render_report(load_json(path))
    print(rendered, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(parser):
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--lemma-table", dest="lemma_table")
    parser.add_argument("--stopwords", dest="stopwords")
    parser.add_argument("--stage-order", dest="stage_order",
                        type=lambda value: [s.strip() for s in value.split(",")],
                        help="comma-separated permutation of DBM,CKG,VFM")
    parser.add_argument("--dbm-max-depth", dest="dbm_max_depth", type=int)
    parser.add_argument("--vfm-min-count", dest="vfm_min_count", type=int)
    parser.add_argument("--vfm-use-sor", dest="vfm_use_sor", action="store_const", const=True)
    parser.add_argument("--verbose", action="store_const", const=True)


def build_parser():
    parser = _Parser(prog="discrimattr",
                     description="Discriminative attribute classification and explanation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="ingest corpora and persist the three indexes")
    _add_common(p)
    p.add_argument("--definitions")
    p.add_argument("--scene-graphs", dest="scene_graphs", nargs="*")
    p.add_argument("--assertions")
    p.add_argument("--language")

    p = sub.add_parser("classify", help="classify a triple or a file of triples")
    _add_common(p)
    p.add_argument("triple", nargs="*", metavar="TERM",
                   help="pivot comparison attribute")
    p.add_argument("--triples-file")

    p = sub.add_parser("explain", help="re-render the explanation for a stored verdict")
    _add_common(p)
    p.add_argument("triple", nargs=3, metavar="TERM")

    p = sub.add_parser("evaluate", help="run the full evaluation against a gold file")
    _add_common(p)
    p.add_argument("--gold")
    p.add_argument("--annotations")

    p = sub.add_parser("report", help="re-render the report from report.json")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # the stores hold no cycles: a collection would scan them and free nothing
    try:
        args = build_parser().parse_args(argv)
        # every flag whose destination is a setting overrides it
        settings = vars(RunConfig())
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if k in settings})
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "classify":
            return cmd_classify(cfg, args.triple, args.triples_file)
        if args.command == "explain":
            return cmd_explain(cfg, args.triple)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except DiscrimAttrError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # every read reports its own failure, so this is an output
        print(f"error: cannot write {e.filename2 or e.filename or 'an output'}: {e.strerror}",
              file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
