import csv
import errno
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import discrimattr
from discrimattr import cascade, cli, commonsense, definitions, evaluation, visual
from discrimattr.cli import _write_verdicts, load_config, main
from discrimattr.errors import ConfigError, DataFormatError
from discrimattr.evaluation import load_annotations, load_gold, read_triples
from discrimattr.text import load_lemma_table

DATA = Path(__file__).parent / "data"
BUNDLED_TABLE = Path(discrimattr.__file__).with_name("data") / "lemmas.tsv"


def write_config(tmp_path, name="config.json", **extra):
    cfg = {
        "definitions": str(DATA / "definitions.jsonl"),
        "scene_graphs": [str(DATA / "scene_regions.jsonl"),
                         str(DATA / "scene_relationships.jsonl")],
        "assertions": str(DATA / "assertions.tsv"),
        "lemma_table": str(DATA / "lemmas.tsv"),
        "stopwords": str(DATA / "stopwords.txt"),
        "gold": str(DATA / "gold.csv"),
        "annotations": str(DATA / "annotations.csv"),
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def settle(tmp_path, *paths):
    """Returns once a directory made in `tmp_path` now changes more than the build's
    change-time slack later than `paths` did: a build that starts after this records
    their stats."""
    newest = max(os.stat(p).st_ctime_ns for p in paths) + cli._CTIME_SLACK_NS
    probe = tmp_path / ".settle"
    while True:
        probe.mkdir()
        later = os.stat(probe).st_ctime_ns > newest
        probe.rmdir()
        if later:
            return
        time.sleep(0.01)


def counted_hashes(monkeypatch):
    """The paths `cli` hashes from now on, in order."""
    hashed, sha256 = [], cli._sha256

    def counting_sha256(path):
        hashed.append(str(path))
        return sha256(path)

    monkeypatch.setattr(cli, "_sha256", counting_sha256)
    return hashed


@pytest.fixture
def built(tmp_path):
    # in a fresh checkout, waits until the build records every input's stat
    settle(tmp_path, *DATA.iterdir())
    cfg = write_config(tmp_path)
    assert main(["build", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "out"


def test_build_counts_each_assertion_of_a_pair(tmp_path, capsys):
    assertions = tmp_path / "assertions.tsv"
    # six assertions, three of one pair, one back and one loop; a repeat and a negation are not
    assertions.write_text("IsA\tcat\tanimal\t1.0\nHasA\tcat\tfur\t2\nIsA\tcat\tfur\t0.5\n"
                          "IsA\tcat\tfur\t0.5\nIsA\tanimal\tcat\t1\nIsA\tcat\tcat\t1\n"
                          "NotIsA\tcat\tdog\t1\nHasA\tcat\tfur\t3\n", encoding="utf-8")
    cfg = write_config(tmp_path, assertions=str(assertions))
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 0
    assert "  commonsense: 6 documents\n" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["document_counts"]["commonsense"] == 6


@pytest.mark.parametrize("row", [
    '/a/x\t/r/HasProperty\t/c/en/cat\t/c/en/soft\t{"weight": ' + "9" * 400 + "}",
    "HasProperty\tcat\tsoft\t" + "9" * 400], ids=["conceptnet", "fixture"])
def test_build_skips_a_weight_too_large_for_a_float(tmp_path, capsys, row):
    # the dump's own malformed line is one skip, the row a second
    dump = tmp_path / "assertions_conceptnet.tsv"
    dump.write_text((DATA / "assertions_conceptnet.tsv").read_text(encoding="utf-8") + row + "\n",
                    encoding="utf-8")
    cfg = write_config(tmp_path, assertions=str(dump), scene_graphs=[])
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 0
    assert "warning: skipped 2 malformed records\n" in capsys.readouterr().err


def test_build_writes_stores_and_manifest(built, capsys):
    _, out = built
    for f in ("definitions.index.json", "commonsense.index.json",
              "visual.index.json", "manifest.json"):
        assert (out / f).exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["document_counts"]) == {"definitions", "commonsense", "visual"}
    assert manifest["document_counts"]["definitions"] == 13
    assert all("sha256" in entry for entry in manifest["inputs"].values())


ONE_INPUT = [("definitions", "definitions", "DBM", "0.6667"),
             ("assertions", "commonsense", "CKG", "0.4156"),
             ("scene_graphs", "visual", "VFM", "0.5500")]


@pytest.mark.parametrize("key,store,component,macro_f1", ONE_INPUT,
                         ids=[key for key, *_ in ONE_INPUT])
def test_build_from_one_input_leaves_the_other_stores_empty(tmp_path, capsys, key, store,
                                                            component, macro_f1):
    unset = {"definitions": None, "assertions": None, "scene_graphs": []}
    del unset[key]
    cfg = write_config(tmp_path, **unset)
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    counts = _manifest_of(cfg)["document_counts"]
    assert [name for name, count in counts.items() if count] == [store]
    assert all(f"  {name}: 0 documents\n" in printed for name in counts if name != store)
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert f"macro F1: {macro_f1}\n" in capsys.readouterr().out
    verdicts = (tmp_path / "out" / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(v)["deciding_component"] for v in verdicts} == {None, component}


@pytest.mark.parametrize("table", ["configured", "bundled"])
def test_build_hashes_each_input_once(tmp_path, monkeypatch, capsys, table):
    cfg = write_config(tmp_path, **({} if table == "configured" else {"lemma_table": None}))
    hashed = counted_hashes(monkeypatch)
    assert main(["build", "--config", str(cfg)]) == 0
    manifest = _manifest_of(cfg)
    assert sorted(hashed) == sorted(entry["path"] for entry in manifest["inputs"].values())
    # the table in effect, the bundled one too, is an input like any other
    expected = str(DATA / "lemmas.tsv" if table == "configured" else BUNDLED_TABLE)
    assert manifest["inputs"]["lemma_table"]["path"] == expected
    assert not [key for key in manifest if key.startswith("lemma_table")]


def test_build_on_the_bundled_stopwords_records_them(tmp_path, monkeypatch, capsys):
    # a query leaving them unset names no stopwords input, yet the build read them
    bundled = tmp_path / "data"
    shutil.copytree(cli._BUNDLED, bundled)
    monkeypatch.setattr(cli, "_BUNDLED", bundled)
    cfg = write_config(tmp_path, stopwords=None)
    assert main(["build", "--config", str(cfg)]) == 0
    assert _manifest_of(cfg)["inputs"]["stopwords"]["path"] == str(bundled / "stopwords.txt")
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 0
    with open(bundled / "stopwords.txt", "a", encoding="utf-8") as fh:
        fh.write("red\n")
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 2
    assert "input 'stopwords' changed since build" in capsys.readouterr().err


def test_build_missing_input_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, definitions=str(tmp_path / "nope.jsonl"))
    assert main(["build", "--config", str(cfg)]) == 1


def test_build_names_the_first_bad_definition_line(tmp_path, capsys):
    # definitions are checked as they are read: line 2's role, before line 3's JSON
    bad = tmp_path / "definitions.jsonl"
    bad.write_text('{"term": "a", "sense": "s", "segments": []}\n'
                   '{"term": "b", "sense": "s", "segments": [{"role": "genus", "text": "x"}]}\n'
                   '{oops\n', encoding="utf-8")
    cfg = write_config(tmp_path, definitions=str(bad))
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 2
    assert f"{bad}:2: unknown semantic role 'genus'" in capsys.readouterr().err


def test_build_determinism(tmp_path):
    cfg1 = write_config(tmp_path, name="c1.json", output_dir=str(tmp_path / "o1"))
    cfg2 = write_config(tmp_path, name="c2.json", output_dir=str(tmp_path / "o2"))
    assert main(["build", "--config", str(cfg1)]) == 0
    assert main(["build", "--config", str(cfg2)]) == 0
    for f in ("definitions.index.json", "commonsense.index.json", "visual.index.json"):
        assert (tmp_path / "o1" / f).read_bytes() == (tmp_path / "o2" / f).read_bytes()


def test_classify_single_triple(built, capsys):
    cfg, out = built
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 0
    stdout = capsys.readouterr().out
    assert "apple,banana,red,1" in stdout
    assert (out / "verdicts.jsonl").exists()
    assert (out / "semeval.csv").read_text(encoding="utf-8").strip() == "apple,banana,red,1"


def test_classify_negative_triple(built, capsys):
    cfg, _ = built
    assert main(["classify", "--config", str(cfg), "planet", "moon", "body"]) == 0
    assert "planet,moon,body,0" in capsys.readouterr().out


def test_classify_triples_file_order_preserved(built, tmp_path, capsys):
    cfg, out = built
    tf = tmp_path / "triples.csv"
    tf.write_text("planet,moon,body\napple,banana,red\ncat,lion,whiskers\n", encoding="utf-8")
    assert main(["classify", "--config", str(cfg), "--triples-file", str(tf)]) == 0
    lines = (out / "semeval.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines == ["planet,moon,body,0", "apple,banana,red,1", "cat,lion,whiskers,1"]


@pytest.mark.parametrize("flags", [[], ["--vfm-use-sor", "--stage-order", "VFM,CKG,DBM"]])
def test_classify_of_a_triples_file_writes_what_evaluate_writes(built, capsys, flags):
    cfg, out = built
    written = []
    for command in (["classify", "--triples-file", str(DATA / "gold.csv")],
                    ["evaluate", "--gold", str(DATA / "gold.csv")]):
        (out / "verdicts.jsonl").unlink(missing_ok=True)
        (out / "semeval.csv").unlink(missing_ok=True)
        assert main([*command, "--config", str(cfg), *flags]) == 0
        written.append([(out / f).read_bytes() for f in ("verdicts.jsonl", "semeval.csv")])
    assert written[0] == written[1]
    verdicts = [json.loads(line) for line in written[0][0].splitlines()]
    assert {v["deciding_component"] for v in verdicts} == {None, "DBM", "CKG", "VFM"}


def test_semeval_csv_quotes_surfaces_with_commas(built, tmp_path, capsys):
    cfg, out = built
    tf = tmp_path / "triples.csv"
    tf.write_text('"big, red",dog,whiskers\napple,banana,red\n', encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "--triples-file", str(tf)]) == 0
    # stdout rows are CSV too; explanation lines are indented
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("  ")]
    assert list(csv.reader(rows)) == [["big, red", "dog", "whiskers", "0"],
                                      ["apple", "banana", "red", "1"]]
    with open(out / "semeval.csv", encoding="utf-8", newline="") as fh:
        assert [len(row) for row in csv.reader(fh)] == [4, 4]
    table = load_lemma_table(DATA / "lemmas.tsv")
    triples = [t for _, _, t in read_triples(out / "semeval.csv", table)]
    assert [t.pivot.surface for t in triples] == ["big, red", "apple"]
    assert (out / "semeval.csv").read_text(encoding="utf-8").splitlines()[1] == "apple,banana,red,1"


def test_vocabulary_is_fixed_at_build(tmp_path, capsys, monkeypatch):
    defs = tmp_path / "defs.jsonl"
    defs.write_text(json.dumps({"term": "cat", "sense": "cat.n.01", "segments": [
        {"role": "differentia_quality", "text": "long whiskers"}]}) + "\n", encoding="utf-8")
    table = tmp_path / "lemmas.tsv"
    table.write_text("whiskers\thair\n", encoding="utf-8")
    settle(tmp_path, defs, table)
    out = tmp_path / "out"
    build_cfg = tmp_path / "build.json"
    build_cfg.write_text(json.dumps({"definitions": str(defs), "lemma_table": str(table),
                                     "output_dir": str(out)}), encoding="utf-8")
    assert main(["build", "--config", str(build_cfg)]) == 0
    # the package's default lemma table maps whiskers to whisker, while the
    # index holds the build-time lemma hair: classify and evaluate refuse it
    gold = tmp_path / "gold.csv"
    gold.write_text("cat,lion,hair,1\n", encoding="utf-8")
    cfg = tmp_path / "classify.json"
    cfg.write_text(json.dumps({"output_dir": str(out), "gold": str(gold)}), encoding="utf-8")
    capsys.readouterr()
    refused = f"{BUNDLED_TABLE}: input 'lemma_table' is not the file the indexes were built from"
    assert main(["classify", "--config", str(cfg), "cat", "lion", "hair"]) == 2
    assert refused in capsys.readouterr().err
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert refused in capsys.readouterr().err
    # under the build's table the query lemmatizes as the index does
    assert main(["classify", "--config", str(cfg), "--lemma-table", str(table),
                 "cat", "lion", "hair"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cat,lion,hair,1"
    verdict = json.loads((out / "verdicts.jsonl").read_text(encoding="utf-8"))
    assert verdict["deciding_component"] == "DBM"
    assert verdict["explanation"]["pivot_evidence"][0]["text"] == "long whiskers"
    # a table the build did not read counts by its contents, not by its path
    copy, other = tmp_path / "copy.tsv", tmp_path / "other.tsv"
    copy.write_bytes(table.read_bytes())
    other.write_text("whiskers\tfur\n", encoding="utf-8")
    assert main(["classify", "--config", str(cfg), "--lemma-table", str(copy),
                 "cat", "lion", "hair"]) == 0
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "--lemma-table", str(other),
                 "cat", "lion", "hair"]) == 2
    assert (f"{other}: input 'lemma_table' is not the file the indexes were built from"
            in capsys.readouterr().err)
    # the build's own table is one of its inputs: after an unchanged build nothing is
    # hashed, and after a touch only the touched input
    hashed = counted_hashes(monkeypatch)
    query = ["classify", "--config", str(cfg), "--lemma-table", str(table), "cat", "lion", "hair"]
    assert main(query) == 0
    assert hashed == []
    os.utime(defs)
    assert main(query) == 0
    assert hashed == [str(defs)]


def test_classify_without_build_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["classify", "--config", str(cfg), "a", "b", "c"]) == 2


def test_classify_wrong_arity_exits_1(built, capsys):
    cfg, _ = built
    assert main(["classify", "--config", str(cfg), "a", "b"]) == 1


def test_classify_of_no_triple_exits_1_before_it_looks_for_a_build(tmp_path, capsys):
    assert main(["classify", "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: provide a triple (pivot comparison attribute) or --triples-file\n")


def test_classify_with_a_triple_and_a_triples_file_exits_1_naming_both(built, tmp_path, capsys):
    cfg, out = built
    tf = tmp_path / "triples.csv"
    tf.write_text("cat,lion,whiskers\n", encoding="utf-8")
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red",
                 "--triples-file", str(tf)]) == 1
    err = capsys.readouterr().err
    assert "triple" in err and "--triples-file" in err
    assert not (out / "verdicts.jsonl").exists()


def test_manifest_mismatch_refuses(built, tmp_path, capsys):
    cfg, out = built
    # point the manifest at a modified copy of one input
    defs2 = tmp_path / "defs2.jsonl"
    defs2.write_text((DATA / "definitions.jsonl").read_text(encoding="utf-8") + "\n",
                     encoding="utf-8")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["inputs"]["definitions"]["path"] = str(defs2)
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["classify", "--config", str(cfg), "a", "b", "c"]) == 2


def _query_config(tmp_path, out, **inputs):
    cfg = tmp_path / "query.json"
    cfg.write_text(json.dumps({"output_dir": str(out), "lemma_table": str(DATA / "lemmas.tsv"),
                               **inputs}), encoding="utf-8")
    return cfg


def test_query_naming_other_inputs_than_the_build_read_exits_2(built, tmp_path, capsys):
    # the indexes still hold apple's definition, which this file lacks
    _, out = built
    defs = tmp_path / "defs2.jsonl"
    lines = (DATA / "definitions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    defs.write_text("".join(line for line in lines if '"apple"' not in line), encoding="utf-8")
    cfg = _query_config(tmp_path, out, definitions=str(defs), gold=str(DATA / "gold.csv"))
    for command in (["classify", "apple", "banana", "red"], ["evaluate"]):
        capsys.readouterr()
        assert main([*command, "--config", str(cfg)]) == 2
        assert (f"{defs}: input 'definitions' is not the file the indexes were built from"
                in capsys.readouterr().err)
    # an input the build did not read at all
    unread = tmp_path / "unread"
    assert main(["build", "--config", str(write_config(tmp_path, "unread.json", assertions=None,
                                                       output_dir=str(unread)))]) == 0
    cfg = _query_config(tmp_path, unread, assertions=str(DATA / "assertions.tsv"))
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 2
    assert (f"{DATA / 'assertions.tsv'}: input 'assertions' was not read by the build"
            in capsys.readouterr().err)


def test_query_naming_a_copy_of_an_input_hashes_the_copy_and_passes(built, tmp_path,
                                                                    monkeypatch, capsys):
    cfg, out = built
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 0
    expected = capsys.readouterr().out
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes((DATA / "definitions.jsonl").read_bytes())
    hashed = counted_hashes(monkeypatch)
    assert main(["classify", "--config", str(_query_config(tmp_path, out, definitions=str(copy))),
                 "apple", "banana", "red"]) == 0
    assert capsys.readouterr().out == expected
    assert hashed == [str(copy)]


def test_query_naming_the_builds_own_inputs_stats_each_once_and_hashes_none(built, monkeypatch,
                                                                            capsys):
    cfg, _ = built
    stat, stats = cli._stat, []
    monkeypatch.setattr(cli, "_stat", lambda path: stats.append(str(path)) or stat(path))
    hashed = counted_hashes(monkeypatch)
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 0
    assert hashed == []
    # the lemma table is one of the inputs, statted once like the others
    inputs = [entry["path"] for entry in _manifest_of(cfg)["inputs"].values()]
    assert str(DATA / "lemmas.tsv") in inputs
    assert sorted(stats) == sorted(inputs)


@pytest.mark.parametrize("command", ["classify", "evaluate"])
@pytest.mark.parametrize("key,source", [("definitions", "definitions.jsonl"),
                                        ("lemma_table", "lemmas.tsv")])
def test_input_replaced_by_a_directory_is_a_changed_input(tmp_path, capsys, command, key,
                                                          source):
    path = tmp_path / source
    path.write_bytes((DATA / source).read_bytes())
    cfg = write_config(tmp_path, **{key: str(path)})
    assert main(["build", "--config", str(cfg)]) == 0
    path.unlink()
    path.mkdir()
    triple = ["apple", "banana", "red"] if command == "classify" else []
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *triple]) == 2
    assert f"{path}: input {key!r} changed since build" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "evaluate"])
@pytest.mark.parametrize("form", ["directory", "missing"])
def test_query_lemma_table_that_cannot_be_read_exits_2(built, tmp_path, capsys, command, form):
    # a table that is not among the build's inputs is read at query time for its digest
    cfg, _ = built
    table = tmp_path / "query-lemmas.tsv"
    if form == "directory":
        table.mkdir()
    triple = ["apple", "banana", "red"] if command == "classify" else []
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--lemma-table", str(table), *triple]) == 2
    assert (f"{table}: input 'lemma_table' is not the file the indexes were built from"
            in capsys.readouterr().err)


def _rewrite_in_place(path):
    """`path` rewritten to other bytes of the same size, its mtime set back."""
    st = os.stat(path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"red", b"tan"))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    now = os.stat(path)
    assert (now.st_size, now.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    assert path.read_bytes() != data


def _built_with_own_definitions(tmp_path):
    defs = tmp_path / "definitions.jsonl"
    defs.write_bytes((DATA / "definitions.jsonl").read_bytes())
    settle(tmp_path, defs)
    cfg = write_config(tmp_path, definitions=str(defs))
    assert main(["build", "--config", str(cfg)]) == 0
    return cfg, defs


def _manifest_of(cfg):
    out = Path(json.loads(cfg.read_text(encoding="utf-8"))["output_dir"])
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_rewrite_with_its_size_and_mtime_kept_is_a_changed_input(tmp_path, capsys, command):
    # the change time, which no user-space call sets back, gives it away
    cfg, defs = _built_with_own_definitions(tmp_path)
    assert "stat" in _manifest_of(cfg)["inputs"]["definitions"]
    _rewrite_in_place(defs)
    triple = ["apple", "banana", "red"] if command == "classify" else []
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *triple]) == 2
    assert f"{defs}: input 'definitions' changed since build" in capsys.readouterr().err


def test_manifest_without_stats_hashes_every_input_and_passes(built, monkeypatch, capsys):
    # a manifest written before stats were recorded
    cfg, out = built
    manifest = _manifest_of(cfg)
    for entry in manifest["inputs"].values():
        del entry["stat"]
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    hashed = counted_hashes(monkeypatch)
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 0
    assert sorted(hashed) == sorted(e["path"] for e in manifest["inputs"].values())


def test_query_naming_fewer_scene_graphs_than_the_build_read_exits_2(built, tmp_path, capsys):
    # the indexes also hold the edges of the relationships file, which this query leaves out
    _, out = built
    cfg = _query_config(tmp_path, out, scene_graphs=[str(DATA / "scene_regions.jsonl")],
                        vfm_use_sor=True)
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "--triples-file", str(DATA / "gold.csv")]) == 2
    assert (f"{DATA / 'scene_relationships.jsonl'}: input 'scene_graphs[1]' was read by the "
            "build but the query does not name it; rebuild the indexes"
            in capsys.readouterr().err)


def _as_written_before_the_table_was_an_input(cfg):
    """The build's manifest as versions that recorded the lemma table in effect under
    `lemma_table_sha256`/`lemma_table_stat`, and under `inputs` only when configured,
    wrote it."""
    manifest = _manifest_of(cfg)
    table = manifest["inputs"]["lemma_table"]
    if table["path"] == str(BUNDLED_TABLE):
        del manifest["inputs"]["lemma_table"]
    manifest.update({f"lemma_table_{key}": value for key, value in table.items() if key != "path"})
    (Path(manifest["config"]["output_dir"]) / "manifest.json").write_text(json.dumps(manifest),
                                                                         encoding="utf-8")


def test_older_manifest_of_a_bundled_table_build_exits_2_naming_the_table(tmp_path, capsys):
    cfg = write_config(tmp_path, lemma_table=None)
    assert main(["build", "--config", str(cfg)]) == 0
    _as_written_before_the_table_was_an_input(cfg)
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 2
    assert ("input 'lemma_table' was not read by the build; rebuild the indexes"
            in capsys.readouterr().err)


def test_older_manifest_of_a_configured_table_build_hashes_nothing_and_passes(built,
                                                                             monkeypatch, capsys):
    cfg, _ = built
    _as_written_before_the_table_was_an_input(cfg)
    hashed = counted_hashes(monkeypatch)
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 0
    assert hashed == []


def test_input_changed_just_before_the_build_on_a_coarser_clock_has_no_stat(tmp_path,
                                                                          monkeypatch, capsys):
    # its change time, kept in whole seconds, reads older than the build's start, yet a
    # rewrite later in that second would keep it: within the slack no stat is recorded
    stat = cli._stat

    def whole_seconds(path):
        st = stat(path)
        st[2] -= st[2] % 1_000_000_000
        return st

    monkeypatch.setattr(cli, "_stat", whole_seconds)
    settle(tmp_path, *DATA.iterdir())
    defs = tmp_path / "definitions.jsonl"
    defs.write_bytes((DATA / "definitions.jsonl").read_bytes())
    cfg = write_config(tmp_path, definitions=str(defs))
    assert main(["build", "--config", str(cfg)]) == 0
    inputs = _manifest_of(cfg)["inputs"]
    assert "stat" not in inputs["definitions"]
    assert all("stat" in entry for name, entry in inputs.items() if name != "definitions")
    _rewrite_in_place(defs)
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 2
    assert f"{defs}: input 'definitions' changed since build" in capsys.readouterr().err


def test_input_changed_after_the_build_started_has_no_stat_and_is_hashed(tmp_path, monkeypatch,
                                                                          capsys):
    # changed after the staging directory was made, before any input was read: the
    # indexes hold its new bytes, but its stat cannot vouch for them
    defs = tmp_path / "definitions.jsonl"
    defs.write_bytes((DATA / "definitions.jsonl").read_bytes())
    settle(tmp_path, defs)
    cfg = write_config(tmp_path, definitions=str(defs))
    stat = cli._stat

    def rewriting_stat(path):
        if path == str(defs) and not rewritten:
            rewritten.append(path)
            _rewrite_in_place(defs)
        return stat(path)

    rewritten = []
    monkeypatch.setattr(cli, "_stat", rewriting_stat)
    assert main(["build", "--config", str(cfg)]) == 0
    assert rewritten
    inputs = _manifest_of(cfg)["inputs"]
    assert "stat" not in inputs["definitions"]
    assert all("stat" in entry for name, entry in inputs.items() if name != "definitions")
    hashed = counted_hashes(monkeypatch)
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "tan"]) == 0
    assert hashed == [str(defs)]
    assert capsys.readouterr().out.splitlines()[0] == "apple,banana,tan,1"


def test_input_rewritten_while_the_build_reads_fails_it(tmp_path, monkeypatch, capsys):
    # rewritten after its ingest: a digest of its new bytes would vouch for indexes of the
    # old. The previous build is kept, and it does not hold the new bytes either
    cfg, defs = _built_with_own_definitions(tmp_path)
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    load_assertions = commonsense.load_assertions

    def rewriting_load(*args):
        _rewrite_in_place(defs)
        return load_assertions(*args)

    monkeypatch.setattr(commonsense, "load_assertions", rewriting_load)
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 2
    assert f"{defs}: changed while the build ran" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 2
    assert f"{defs}: input 'definitions' changed since build" in capsys.readouterr().err


def _without_index_format(out):
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest.pop("index_format", None)
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return out / "manifest.json"


def _truncated_visual_index(out):
    path = out / "visual.index.json"
    path.write_bytes(path.read_bytes()[:40])
    return path


def _index_of_another_layout(out):
    path = out / "visual.index.json"
    index = json.loads(path.read_text(encoding="utf-8"))
    index["oa_index"] = list(index["oa_index"].items())
    path.write_text(json.dumps(index), encoding="utf-8")
    return path


def _index_format(number):
    def corrupt(out):
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["index_format"] = number
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return out / "manifest.json"
    return corrupt


@pytest.mark.parametrize("corrupt", [_without_index_format, _truncated_visual_index,
                                     _index_format(2), _index_format(3), _index_format(4),
                                     _index_format(5), _index_format(6), _index_format(7),
                                     _index_format(8), _index_of_another_layout],
                         ids=["manifest-without-index-format", "truncated-index",
                              "manifest-index-format-2", "manifest-index-format-3",
                              "manifest-index-format-4", "manifest-index-format-5",
                              "manifest-index-format-6", "manifest-index-format-7",
                              "manifest-index-format-8", "index-of-another-layout"])
def test_stale_or_corrupt_index_exits_2(built, capsys, corrupt):
    cfg, out = built
    path = corrupt(out)
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "rebuild the indexes" in err or "run `discrimattr build`" in err


@pytest.mark.parametrize("store", ["definitions", "commonsense", "visual"])
def test_evaluate_on_a_truncated_index_exits_2_and_keeps_its_outputs(built, capsys, store):
    cfg, out = built
    assert main(["evaluate", "--config", str(cfg)]) == 0
    path = out / f"{store}.index.json"
    path.write_bytes(path.read_bytes()[:40])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert str(path) in capsys.readouterr().err
    # verdicts.jsonl, semeval.csv, report.txt and report.json as they were, and no temporary file
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("rows", [
    ["apple,banana,red,sensory;taste"], ["apple,banana,red"], ["apple,banana,red,"],
    ["apple,banana,red,sensory", "---,banana,red,sensory"],
], ids=["unknown-category", "three-columns", "no-category", "invalid-term"])
def test_evaluate_on_a_malformed_annotation_file_exits_2_and_keeps_its_outputs(
        built, tmp_path, capsys, rows):
    cfg, out = built
    assert main(["evaluate", "--config", str(cfg)]) == 0
    path = tmp_path / "annotations.csv"
    path.write_text("pivot,comparison,attribute,category\n" + "".join(f"{r}\n" for r in rows),
                    encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--annotations", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"{path}:{len(rows) + 1}:" in captured.err
    assert captured.out == ""
    # verdicts.jsonl, semeval.csv, report.txt and report.json as they were, and no temporary file
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_STORE_TYPES = (definitions.DefinitionStore, commonsense.CkgStore, visual.VisualStore)


def _live_stores_at_each_call(monkeypatch, *functions):
    """Wraps each `(owner, name)` function. The list returned gets, at each call, the
    function's qualified name and how many stores returned by earlier calls are
    still alive."""
    stores, live = [], []

    def wrap(function):
        def counted(*args, **kwargs):
            live.append((function.__qualname__, sum(ref() is not None for ref in stores)))
            result = function(*args, **kwargs)
            if isinstance(result, _STORE_TYPES):
                stores.append(weakref.ref(result))
            return result
        return counted

    for owner, name in functions:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    return live


def test_evaluate_holds_one_decoded_store_at_a_time(built, monkeypatch, capsys):
    cfg, _ = built
    live = _live_stores_at_each_call(monkeypatch, (definitions, "store_from_dict"),
                                     (commonsense.CkgStore, "from_dict"),
                                     (visual.VisualStore, "from_dict"), (cascade, "classify"),
                                     (evaluation, "load_annotations"), (cli, "_write_verdicts"))
    decodes = [("store_from_dict", 0), ("CkgStore.from_dict", 0), ("VisualStore.from_dict", 0)]
    gold = [("classify", 0)] * len((DATA / "gold.csv").read_text(encoding="utf-8").splitlines())
    # three decodes, then every verdict built, the annotations read and the verdicts
    # written with no store left
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert live == [*decodes, *gold, ("load_annotations", 0), ("_write_verdicts", 0)]
    # classify, of a triple or of a file, decodes as evaluate does; explain decodes none
    del live[:]
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 0
    assert main(["classify", "--config", str(cfg), "--triples-file", str(DATA / "gold.csv")]) == 0
    assert main(["explain", "--config", str(cfg), "apple", "banana", "red"]) == 0
    assert live == [*decodes, ("classify", 0), ("_write_verdicts", 0),
                    *decodes, *gold, ("_write_verdicts", 0)]


def test_one_store_after_a_failed_decode_decodes_the_next_store_asked_for(built):
    _, out = built
    stores = cli._OneStore(out)
    assert isinstance(stores.definitions, definitions.DefinitionStore)
    (out / "visual.index.json").write_text("{", encoding="utf-8")
    with pytest.raises(DataFormatError):
        stores.visual
    assert isinstance(stores.definitions, definitions.DefinitionStore)


def test_one_store_has_no_attribute_that_is_not_a_store(tmp_path):
    assert not hasattr(cli._OneStore(tmp_path), "foo")


def test_build_holds_one_ingested_store_at_a_time(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    live = _live_stores_at_each_call(monkeypatch, (definitions, "load_definitions"),
                                     (commonsense, "load_assertions"),
                                     (visual, "load_scene_graphs"))
    assert main(["build", "--config", str(cfg)]) == 0
    assert live == [("load_definitions", 0), ("load_assertions", 0), ("load_scene_graphs", 0)]


def _broken_scene_graph(tmp_path):
    # the definitions and assertions, read first, build and differ from the fixture's
    defs, assertions = tmp_path / "defs.jsonl", tmp_path / "assertions.tsv"
    for path, source, lines in ((defs, "definitions.jsonl", 3), (assertions, "assertions.tsv", 2)):
        kept = (DATA / source).read_text(encoding="utf-8").splitlines(keepends=True)[:lines]
        path.write_text("".join(kept), encoding="utf-8")
    objects = tmp_path / "objects.json"
    objects.write_text((DATA / "vg_objects.json").read_text(encoding="utf-8")[:-40],
                       encoding="utf-8")
    return {"definitions": str(defs), "assertions": str(assertions),
            "scene_graphs": [str(objects)]}


def _broken_definition(tmp_path):
    defs = tmp_path / "defs.jsonl"
    defs.write_text((DATA / "definitions.jsonl").read_text(encoding="utf-8")
                    + '{"term": 5, "sense": "s", "segments": []}\n', encoding="utf-8")
    return {"definitions": str(defs)}


@pytest.mark.parametrize("broken", [_broken_scene_graph, _broken_definition],
                         ids=["scene-graph", "definition"])
def test_failed_build_leaves_the_previous_build_as_it_was(built, tmp_path, capsys, broken):
    cfg, out = built
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["build", "--config", str(write_config(tmp_path, "broken.json",
                                                       **broken(tmp_path)))]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # nothing staged is left


def test_build_that_fails_between_two_renames_leaves_no_manifest(built, tmp_path, capsys):
    cfg, out = built
    visual_index = out / "visual.index.json"
    old = visual_index.read_bytes()
    visual_index.unlink()
    visual_index.mkdir()  # the last rename fails
    defs = tmp_path / "defs.jsonl"
    lines = (DATA / "definitions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    defs.write_text("".join(line for line in lines if '"apple"' not in line), encoding="utf-8")
    changed = write_config(tmp_path, "changed.json", definitions=str(defs))
    assert main(["build", "--config", str(changed)]) == 1
    visual_index.rmdir()
    visual_index.write_bytes(old)
    # the DBM index is the failed build's, the VFM index the previous one's: neither is read
    for command in (["classify", "apple", "banana", "red"], ["evaluate"]):
        capsys.readouterr()
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
        assert f"no manifest in {out}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("vfm_min_count", 0), ("dbm_max_depth", -1), ("dbm_max_depth", "3"),
    ("vfm_use_sor", "no"), ("scene_graphs", "objects.json"),
])
def test_bad_config_value_exits_1(built, tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, name="bad.json", **{key: value})
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 1
    assert repr(key) in capsys.readouterr().err


def test_config_not_an_object_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("3", encoding="utf-8")
    assert main(["classify", "--config", str(path), "a", "b", "c"]) == 1
    assert "JSON object" in capsys.readouterr().err


@given(st.sampled_from([("dbm_max_depth", 0), ("vfm_min_count", 1)]), st.integers(-5, 5))
def test_numeric_config_values_valid_exactly_in_range(key_floor, value):
    key, floor = key_floor
    if value >= floor:
        assert getattr(load_config(overrides={key: value}), key) == value
    else:
        with pytest.raises(ConfigError):
            load_config(overrides={key: value})


def test_explain_round_trip(built, capsys):
    cfg, _ = built
    # one verdict per component, plus a VFM verdict inherited through SOR
    cases = [
        ([], ("brandy", "whiskey", "wine"), "definition of brandy"),
        ([], ("cognac", "whiskey", "french"), "edge cognac -HasProperty-> french"),
        ([], ("cat", "lion", "whiskers"), "co-occurs with 'cat' in 3"),
        (["--vfm-use-sor"], ("window", "lion", "round"), "via window -above-> table"),
    ]
    for flags, triple, marker in cases:
        main(["classify", "--config", str(cfg), *flags, *triple])
        first = [l for l in capsys.readouterr().out.splitlines() if marker in l]
        assert main(["explain", "--config", str(cfg), *triple]) == 0
        rendered = capsys.readouterr().out.strip()
        assert marker in rendered
        assert rendered == first[0].strip()


def _without_evidence_field(rec):
    del rec["explanation"]["pivot_evidence"][0]["sense"]
    return rec


@pytest.mark.parametrize("corrupt", [
    lambda rec: "{not json",
    lambda rec: {**rec, "deciding_component": "XYZ"},
    lambda rec: {**rec, "explanation": {**rec["explanation"], "template_id": "vfm.v9"}},
    _without_evidence_field,
    lambda rec: {**rec, "explanation": {**rec["explanation"], "pivot_evidence": []}},
], ids=["not-json", "unknown-component", "foreign-template", "evidence-lacks-field",
        "no-evidence"])
def test_explain_malformed_stored_verdict_exits_2(built, tmp_path, capsys, corrupt):
    cfg, out = built
    tf = tmp_path / "triples.csv"
    tf.write_text("apple,banana,red\nbrandy,whiskey,wine\n", encoding="utf-8")
    main(["classify", "--config", str(cfg), "--triples-file", str(tf)])
    lines = (out / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    bad = corrupt(json.loads(lines[1]))
    lines[1] = bad if isinstance(bad, str) else json.dumps(bad)
    (out / "verdicts.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["explain", "--config", str(cfg), "brandy", "whiskey", "wine"]) == 2
    assert "verdicts.jsonl:2:" in capsys.readouterr().err


def test_explain_finds_a_lemma_the_writer_escapes(tmp_path, capsys):
    # the scan matches a line by its attribute and comparison as the writer encodes them
    table = tmp_path / "lemmas.tsv"
    table.write_text((DATA / "lemmas.tsv").read_text(encoding="utf-8")
                     + 'whiskey\twhis"kéy\nwine\tw\\ïne\n', encoding="utf-8")
    cfg = write_config(tmp_path, lemma_table=str(table))
    triples = tmp_path / "triples.csv"
    triples.write_text("apple,banana,red\ncognac,whiskey,french\nbrandy,whiskey,wine\n",
                       encoding="utf-8")
    assert main(["build", "--config", str(cfg)]) == 0
    assert main(["classify", "--config", str(cfg), "--triples-file", str(triples)]) == 0
    stored = json.loads((tmp_path / "out" / "verdicts.jsonl").read_text(
        encoding="utf-8").splitlines()[2])
    assert (stored["comparison"], stored["attribute"], stored["label"]) == ('whis"kéy', "w\\ïne", 1)
    capsys.readouterr()
    assert main(["explain", "--config", str(cfg), "brandy", "whiskey", "wine"]) == 0
    assert capsys.readouterr().out == stored["explanation"]["rendered_text"] + "\n"


@pytest.mark.parametrize("broken,code", [(lambda line: "{not json", 2),
                                         (lambda line: line[:line.index('"deciding')] + "{", 0)],
                         ids=["before-the-prefix", "after-the-prefix"])
def test_explain_decodes_another_triples_line_only_without_the_writers_prefix(
        built, tmp_path, capsys, broken, code):
    # another triple's line in the writer's form is skipped unread, so a fault past its
    # attribute and comparison does not fail the scan
    cfg, out = built
    tf = tmp_path / "triples.csv"
    tf.write_text("apple,banana,red\nbrandy,whiskey,wine\n", encoding="utf-8")
    main(["classify", "--config", str(cfg), "--triples-file", str(tf)])
    lines = (out / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    lines[0] = broken(lines[0])
    (out / "verdicts.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["explain", "--config", str(cfg), "brandy", "whiskey", "wine"]) == code
    captured = capsys.readouterr()
    if code:
        assert "verdicts.jsonl:1:" in captured.err
    else:
        assert "definition of brandy" in captured.out


def test_explain_negative_verdict(built, capsys):
    cfg, _ = built
    main(["classify", "--config", str(cfg), "planet", "moon", "body"])
    capsys.readouterr()
    assert main(["explain", "--config", str(cfg), "planet", "moon", "body"]) == 0
    assert "no explanation" in capsys.readouterr().out


def test_evaluate_fixture_gold(built, capsys):
    cfg, out = built
    assert main(["evaluate", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    # hand-checked confusion matrix on the fixture gold set
    assert "TP=5 FP=1 FN=1 TN=2" in stdout
    assert "macro F1: 0.7500" in stdout
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["macro_f1"] == pytest.approx(0.75)
    assert (out / "report.txt").exists()


def test_evaluate_without_annotations_skips_categories(built, tmp_path, capsys):
    cfg_path = write_config(tmp_path, name="noann.json",
                            annotations=str(tmp_path / "missing.csv"))
    main(["build", "--config", str(cfg_path)])
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    out = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert out["category_recall"] is None


def test_evaluate_determinism(tmp_path):
    outputs = []
    for name in ("e1", "e2"):
        cfg = write_config(tmp_path, name=f"{name}.json", output_dir=str(tmp_path / name))
        assert main(["build", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
        outputs.append(tmp_path / name)
    for f in ("report.txt", "report.json", "verdicts.jsonl", "semeval.csv"):
        assert (outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()


def test_report_rerenders(built, capsys):
    cfg, out = built
    main(["evaluate", "--config", str(cfg)])
    rendered = capsys.readouterr().out
    assert main(["report", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == rendered


@pytest.mark.parametrize("corrupt", [lambda text: text[:len(text) // 2],
                                     lambda text: text + "[]", lambda text: "[]"],
                         ids=["truncated", "trailing-data", "not-an-object"])
def test_report_on_malformed_report_json_exits_2(built, capsys, corrupt):
    cfg, out = built
    main(["evaluate", "--config", str(cfg)])
    path = out / "report.json"
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "discrimattr evaluate" in err


@pytest.mark.parametrize("corrupt", [lambda text: text[:len(text) - 40],
                                     lambda text: text + "\n[]\n"],
                         ids=["truncated", "trailing-data"])
def test_malformed_visual_genome_array_exits_2(tmp_path, capsys, corrupt):
    path = tmp_path / "objects.json"
    path.write_text(corrupt((DATA / "vg_objects.json").read_text(encoding="utf-8")),
                    encoding="utf-8")
    cfg = write_config(tmp_path, scene_graphs=[str(path)])
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 2
    assert f"{path}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "1", "null", '"brandy"', '{"term": 5, "sense": "s", "segments": []}',
    '{"term": "---", "sense": "s", "segments": []}',
    '{"term": "cat", "sense": "s", "segments": 5}',
    '{"term": "cat", "sense": "s", "segments": [1]}',
    '{"term": "cat", "sense": "s", "segments": [{"role": "supertype"}]}',
    '{"term": "cat", "sense": "s", "segments": [{"role": "supertype", "text": 5}]}',
    '{"term": "cat", "sense": null, "segments": []}',
    '{"term": "cat", "sense": ["a"], "segments": []}',
    '{"term": "cat", "sense": "s\\tx", "segments": []}',
    '{"term": "cat", "sense": "s\\nx", "segments": []}',
    '{"term": "cat", "sense": "s", "segments": [{"role": "supertype", "text": "red\\tpet"}]}',
    '{"term": "cat", "sense": "s", "segments": [{"role": "supertype", "text": "red\\npet"}]}',
])
def test_malformed_definition_exits_2_naming_line(tmp_path, capsys, line):
    path = tmp_path / "definitions.jsonl"
    path.write_text((DATA / "definitions.jsonl").read_text(encoding="utf-8") + line + "\n",
                    encoding="utf-8")
    lineno = len(path.read_text(encoding="utf-8").splitlines())
    cfg = write_config(tmp_path, definitions=str(path))
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 2
    assert f"{path}:{lineno}: " in capsys.readouterr().err


def test_lemma_with_whitespace_exits_2_naming_line(tmp_path, capsys):
    path = tmp_path / "lemmas.tsv"
    path.write_text((DATA / "lemmas.tsv").read_text(encoding="utf-8") + "wines\tred wine\n",
                    encoding="utf-8")
    lineno = len(path.read_text(encoding="utf-8").splitlines())
    cfg = write_config(tmp_path, lemma_table=str(path))
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 2
    assert f"{path}:{lineno}: " in capsys.readouterr().err


class _Unencodable:
    def to_dict(self, triple):
        raise RuntimeError("cannot encode")


class _Unlabelled:  # encodes, so verdicts.jsonl is written before semeval.csv fails
    def to_dict(self, triple):
        return {}

    @property
    def discriminative(self):
        raise RuntimeError("no label")


@pytest.mark.parametrize("failing,verdict", [("verdicts.jsonl", _Unencodable()),
                                             ("semeval.csv", _Unlabelled())],
                         ids=["verdicts", "semeval"])
def test_failed_verdict_write_keeps_old_files(built, tmp_path, capsys, failing, verdict):
    cfg, out = built
    tf = tmp_path / "triples.csv"
    tf.write_text("apple,banana,red\nplanet,moon,body\n", encoding="utf-8")
    assert main(["classify", "--config", str(cfg), "--triples-file", str(tf)]) == 0
    good = (out / failing).read_bytes()
    names = sorted(p.name for p in out.iterdir())
    triple = [t for _, _, t in read_triples(tf, load_lemma_table(DATA / "lemmas.tsv"))][0]
    with pytest.raises(RuntimeError):
        _write_verdicts([(triple, verdict)], out)
    assert (out / failing).read_bytes() == good
    assert sorted(p.name for p in out.iterdir()) == names


def _output_dir_is_a_file(tmp_path, out):
    path = tmp_path / "afile"
    path.write_text("not a directory\n", encoding="utf-8")
    return ["build", "--output-dir", str(path)], path


def _output_dir_is_under_a_file(tmp_path, out):
    (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
    path = tmp_path / "afile" / "sub"
    return ["build", "--output-dir", str(path)], path


def _verdicts_path_is_a_directory(tmp_path, out):
    path = out / "verdicts.jsonl"
    path.mkdir()
    return ["classify", "apple", "banana", "red"], path


@pytest.mark.parametrize("blocked", [_output_dir_is_a_file, _output_dir_is_under_a_file,
                                     _verdicts_path_is_a_directory],
                         ids=["output-dir-a-file", "output-dir-under-a-file",
                              "verdicts-a-directory"])
def test_output_that_cannot_be_written_exits_1_naming_it(built, tmp_path, capsys, blocked):
    cfg, out = built
    (command, *args), path = blocked(tmp_path, out)
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *args]) == 1
    assert f"error: cannot write {path}: " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == files  # no temporary or staged file is left


def test_output_error_without_a_path_exits_1(built, monkeypatch, capsys):
    cfg, _ = built

    def disk_full(*_):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_write_verdicts", disk_full)
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "apple", "banana", "red"]) == 1
    assert f"error: cannot write an output: {os.strerror(errno.ENOSPC)}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gold", "annotations"])
def test_non_alphanumeric_gold_or_annotation_term_exits_2(built, tmp_path, capsys, key):
    cfg, _ = built
    path = tmp_path / f"{key}.csv"
    rows = (DATA / f"{key}.csv").read_text(encoding="utf-8").splitlines()
    rows[1] = "---,cat,red," + rows[1].split(",")[3]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, name="bad.json", **{key: str(path)})
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert f"{path}:2: invalid term" in capsys.readouterr().err


def test_non_alphanumeric_triples_file_term_exits_2(built, tmp_path, capsys):
    cfg, _ = built
    path = tmp_path / "triples.csv"
    path.write_text("apple,banana,red\ncat,!!,red\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "--triples-file", str(path)]) == 2
    assert f"{path}:2: invalid term" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "explain"])
def test_non_alphanumeric_cli_term_exits_1(built, capsys, command):
    cfg, _ = built
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--", "---", "cat", "red"]) == 1
    assert "error: invalid term: no alphanumeric content in '---'" in capsys.readouterr().err


def test_stage_order_flag_changes_decider_not_verdict(built, capsys):
    cfg, _ = built
    main(["classify", "--config", str(cfg), "--stage-order", "VFM,CKG,DBM",
          "apple", "banana", "red"])
    assert "apple,banana,red,1" in capsys.readouterr().out


def test_bad_stage_order_exits_1(built, capsys):
    cfg, _ = built
    assert main(["classify", "--config", str(cfg), "--stage-order", "DBM,DBM,VFM",
                 "a", "b", "c"]) == 1


def test_setting_flags_override_the_config(tmp_path, monkeypatch):
    seen = []

    def build(cfg):
        seen.append(cfg)
        return 0

    monkeypatch.setattr(cli, "cmd_build", build)
    cfg = write_config(tmp_path)
    assert main(["build", "--config", str(cfg), "--output-dir", str(tmp_path / "o2"),
                 "--stage-order", " VFM, CKG ,DBM", "--dbm-max-depth", "2",
                 "--vfm-min-count", "3", "--vfm-use-sor", "--verbose", "--language", "de",
                 "--scene-graphs", str(DATA / "vg_objects.json")]) == 0
    got = seen[0]
    assert got.output_dir == str(tmp_path / "o2")
    assert got.cascade_config() == cli.CascadeConfig(stage_order=("VFM", "CKG", "DBM"),
                                                     dbm_max_depth=2, vfm_min_count=3,
                                                     vfm_use_sor=True)
    assert (got.verbose, got.language) == (True, "de")
    assert got.scene_graphs == [str(DATA / "vg_objects.json")]
    assert got.definitions == str(DATA / "definitions.jsonl")  # not given as a flag


# (command, the setting or file that cannot be read, how it is unreadable)
BUILD_INPUTS = ("definitions", "assertions", "scene_graphs", "lemma_table", "stopwords")
UNREADABLE = [
    *(("build", key, form) for form in ("not-utf8", "directory") for key in BUILD_INPUTS),
    *(("evaluate", key, form) for key in ("gold", "annotations")
      for form in ("not-utf8", "directory")),
    ("evaluate", "gold", "missing"),
    *(("classify", "triples_file", form) for form in ("not-utf8", "directory", "missing")),
    *(("explain", "verdicts.jsonl", form) for form in ("not-utf8", "directory")),
    ("classify", "config", "not-utf8"),
]


@pytest.mark.parametrize("command,key,form", UNREADABLE, ids=map("-".join, UNREADABLE))
def test_unreadable_input_exits_naming_it(built, tmp_path, capsys, command, key, form):
    cfg, out = built
    path = out / key if key == "verdicts.jsonl" else tmp_path / f"unreadable-{key}"
    if form == "directory":
        path.mkdir()
    elif form == "not-utf8":
        path.write_bytes(b"apple,banana,red,1\n\xff\xfe,moon,body,0\n")
    args = [command, "--config", str(cfg)]
    if key == "config":
        args = [command, "--config", str(path), "a", "b", "c"]
    elif key == "triples_file":
        args += ["--triples-file", str(path)]
    elif key == "verdicts.jsonl":
        args += ["apple", "banana", "red"]
    else:
        value = [str(path)] if key == "scene_graphs" else str(path)
        args[2] = str(write_config(tmp_path, name="unreadable.json", **{key: value}))
    capsys.readouterr()
    assert main(args) == (1 if key == "config" else 2)
    assert str(path) in capsys.readouterr().err


BOM_INPUTS = [("definitions", "definitions.jsonl"), ("assertions", "assertions.tsv"),
              ("assertions", "assertions_conceptnet.tsv"), ("scene_graphs", "vg_objects.json"),
              ("scene_graphs", "scene_regions.jsonl"), ("lemma_table", "lemmas.tsv"),
              ("stopwords", "stopwords.txt"), ("gold", "gold.csv"),
              ("annotations", "annotations.csv")]


@pytest.mark.parametrize("key,source", BOM_INPUTS, ids=[source for _, source in BOM_INPUTS])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, key, source):
    # every output but the manifest, which hashes the raw bytes, is the one without it
    written = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / ("marked" if mark else "plain") / source
        path.parent.mkdir()
        path.write_bytes(mark + (DATA / source).read_bytes())
        cfg = write_config(tmp_path, **{key: [str(path)] if key == "scene_graphs" else str(path)})
        capsys.readouterr()
        codes = [main([command, "--config", str(cfg)]) for command in ("build", "evaluate")]
        out = tmp_path / "out"
        files = {name: (out / name).read_bytes() for name in (
            "definitions.index.json", "commonsense.index.json", "visual.index.json",
            "verdicts.jsonl", "semeval.csv", "report.txt", "report.json")}
        written.append((codes, capsys.readouterr(), files))
    assert written[0] == written[1]


@pytest.mark.parametrize("header", ["", "pivot,comparison,attribute\n",
                                    " Pivot,COMPARISON , attribute,label\n"],
                         ids=["no-header", "header", "header-with-label"])
def test_only_a_pivot_comparison_attribute_first_row_is_a_header(built, tmp_path, capsys,
                                                                  header):
    cfg, out = built
    table = load_lemma_table(DATA / "lemmas.tsv")
    rows = [("pivot", "whiskey", "wine", "0", "logical"),
            ("apple", "banana", "red", "1", "sensory")]
    triples, gold, annotations = (tmp_path / f"{name}.csv" for name in ("t", "g", "a"))
    triples.write_text(header + "".join(f"{p},{c},{a}\n" for p, c, a, _, _ in rows),
                       encoding="utf-8")
    gold.write_text(header + "".join(f"{p},{c},{a},{g}\n" for p, c, a, g, _ in rows),
                    encoding="utf-8")
    annotations.write_text(header + "".join(f"{p},{c},{a},{k}\n" for p, c, a, _, k in rows),
                           encoding="utf-8")
    assert main(["classify", "--config", str(cfg), "--triples-file", str(triples)]) == 0
    classified = (out / "semeval.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[:3] for line in classified] == [list(r[:3]) for r in rows]
    assert [(t.key(), t.gold_label) for t in load_gold(gold, table)] == [
        (("pivot", "whiskey", "wine"), False), (("apple", "banana", "red"), True)]
    assert load_annotations(annotations, table) == {
        ("pivot", "whiskey", "wine"): {"logical"}, ("apple", "banana", "red"): {"sensory"}}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_pauses_the_collector_and_gives_back_the_callers_state(tmp_path, capsys,
                                                                    monkeypatch, enabled):
    cfg = write_config(tmp_path)
    during = []
    build = cli.cmd_build
    monkeypatch.setattr(cli, "cmd_build", lambda c: during.append(gc.isenabled()) or build(c))
    runs = [(["build", "--config", str(cfg)], 0),
            (["build", "--config", str(cfg), "--vfm-min-count", "0"], 1),  # bad config value
            (["classify", "--config", str(cfg), "--output-dir", str(tmp_path / "unbuilt"),
              "apple", "banana", "red"], 2)]  # no manifest
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in runs:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):  # argparse's --help leaves by SystemExit
            main(["--help"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]


def test_env_var_data_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DISCRIMATTR_DATA_DIR", str(DATA))
    cfg = {
        "definitions": "definitions.jsonl",
        "scene_graphs": ["scene_regions.jsonl", "scene_relationships.jsonl"],
        "assertions": "assertions.tsv",
        "lemma_table": "lemmas.tsv",
        "stopwords": "stopwords.txt",
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["build", "--config", str(path)]) == 0


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def fresh_python(code, *args):
    """The stdout of `code` run with `args` by a new interpreter that imports this package."""
    src = str(Path(discrimattr.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          encoding="utf-8", check=True).stdout


STORE_MODULES = {"discrimattr.definitions", "discrimattr.commonsense", "discrimattr.visual"}


def test_cli_import_skips_what_only_some_commands_use(built):
    # no timing gate: only which modules `import discrimattr.cli` adds
    added = fresh_python("import sys; before = set(sys.modules); import discrimattr.cli; "
                         "print(*sorted(set(sys.modules) - before))").split()
    assert "discrimattr.cli" in added
    assert not {"dataclasses", "inspect", "hashlib", "discrimattr.evaluation",
                *STORE_MODULES} & set(added)
    # a store module loads at its stage's first ingest or load: classify asks every
    # stage, explain re-renders a stored verdict without any
    cfg, _ = built
    run = ("import sys; from discrimattr.cli import main; code = main(sys.argv[1:]); "
           "print(code, *sorted(m for m in sys.modules if m.startswith('discrimattr.')))")
    triple = ["brandy", "whiskey", "wine"]
    for command, stores in (("classify", STORE_MODULES), ("explain", set())):
        stdout = fresh_python(run, command, "--config", str(cfg), *triple)
        code, *loaded = stdout.splitlines()[-1].split()
        assert code == "0"
        assert STORE_MODULES & set(loaded) == stores


def test_evaluate_on_an_unchanged_build_does_not_import_hashlib(built):
    # the recorded stats vouch for every input, so nothing is hashed
    cfg, _ = built
    stdout = fresh_python("import sys; from discrimattr.cli import main; "
                          "code = main(['evaluate', '--config', sys.argv[1]]); "
                          "print(code, 'hashlib' in sys.modules)", str(cfg))
    assert stdout.splitlines()[-1] == "0 False"
