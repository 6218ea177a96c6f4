"""Golden bytes: the bundled fixture through `build`, `evaluate`, `classify
--verbose` and `explain`, against the outputs and stdout recorded in
`tests/data/golden/`. The index files are not pinned: their layout may
change, what a user reads may not.

To record the files anew after an intended output change:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.record()"
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from discrimattr.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# one positive per component, and one negative
TRIPLES = "brandy,whiskey,wine\ncognac,whiskey,french\ncat,lion,whiskers\nplanet,moon,body\n"
EXPLAINED = [line.split(",") for line in TRIPLES.splitlines()]


def _run(argv, tmp):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue().replace(str(tmp), "<tmp>").encode("utf-8")


def outputs(tmp):
    """{golden file name: bytes} from one run of the pipeline under `tmp`."""
    out = tmp / "out"
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps({
        "definitions": str(DATA / "definitions.jsonl"),
        "scene_graphs": [str(DATA / "scene_regions.jsonl"),
                         str(DATA / "scene_relationships.jsonl")],
        "assertions": str(DATA / "assertions.tsv"),
        "lemma_table": str(DATA / "lemmas.tsv"),
        "stopwords": str(DATA / "stopwords.txt"),
        "gold": str(DATA / "gold.csv"),
        "annotations": str(DATA / "annotations.csv"),
        "output_dir": str(out),
    }), encoding="utf-8")
    common = ["--config", str(cfg)]
    got = {"build.stdout": _run(["build", *common], tmp),
           "evaluate.stdout": _run(["evaluate", *common], tmp)}
    for name in ("verdicts.jsonl", "semeval.csv", "report.txt", "report.json"):
        got[f"evaluate.{name}"] = (out / name).read_bytes()

    triples = tmp / "triples.csv"
    triples.write_text(TRIPLES, encoding="utf-8")
    got["classify.stdout"] = _run(["classify", *common, "--verbose", "--triples-file",
                                   str(triples)], tmp)
    for name in ("verdicts.jsonl", "semeval.csv"):
        got[f"classify.{name}"] = (out / name).read_bytes()
    got["explain.stdout"] = b"".join(_run(["explain", *common, *t], tmp) for t in EXPLAINED)

    # a VFM verdict inherited through a same-image relationship
    got["classify-sor.stdout"] = _run(["classify", *common, "--verbose", "--vfm-use-sor",
                                       "window", "lion", "round"], tmp)
    got["classify-sor.verdicts.jsonl"] = (out / "verdicts.jsonl").read_bytes()
    got["explain-sor.stdout"] = _run(["explain", *common, "window", "lion", "round"], tmp)
    return got


def test_outputs_match_golden_bytes(tmp_path):
    got = outputs(tmp_path)
    assert sorted(got) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in got.items():
        assert data == (GOLDEN / name).read_bytes(), name


def record():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in outputs(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
