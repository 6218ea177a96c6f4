import pytest

from discrimattr import evaluation
from discrimattr.errors import DataFormatError
from discrimattr.evaluation import (Terms, build_report, confusion,
                                    error_breakdown, load_annotations,
                                    load_gold, overlap_analysis,
                                    per_category_recall, read_triples, render_report)
from discrimattr.text import lemma_of
from discrimattr.types import COMPONENTS, Term, Triple

from conftest import term


def make_gold(rows):
    return [Triple(term(p), term(c), term(a), gold_label=label) for p, c, a, label in rows]


def macro_f1(predictions, gold):
    """The report's macro F1 of the combined model's `predictions`."""
    return build_report({c: predictions for c in COMPONENTS}, predictions, gold)["macro_f1"]


def test_load_gold(data_dir, lemma_table):
    gold = load_gold(data_dir / "gold.csv", lemma_table)
    assert len(gold) == 9
    first = gold[0]
    assert first.key() == ("apple", "banana", "red")
    assert first.gold_label is True


def test_memoized_reads_give_per_cell_terms(tmp_path, lemma_table):
    rows = [["Apples", "banana", "red"], [" apples ", "Banana ", "  red"],
            ["apples", "banana", "RED"], ["pear", " Apples", "red"]]
    path = tmp_path / "triples.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    expected = [Triple(*(Term(s.strip(), lemma_of(s.strip(), lemma_table)) for s in row))
                for row in rows]
    lemmas = Terms(lemma_table)
    for table in (lemma_table, lemmas, lemmas):  # the memo is filled after the first read
        assert [t for _, _, t in read_triples(path, table)] == expected
    assert sorted(lemmas) == ["Apples", "Banana", "RED", "apples", "banana", "pear", "red"]


def test_reads_sharing_a_memo_make_one_term_per_distinct_cell(tmp_path, lemma_table):
    path = tmp_path / "triples.csv"
    path.write_text("apple,banana,red\n apple,red,banana\n", encoding="utf-8")
    terms = Terms(lemma_table)
    reads = [[t for _, _, t in read_triples(path, terms)] for _ in range(2)]
    cells = [t for read in reads for triple in read for t in triple[:3]]
    assert len(cells) == 12 and len({id(t) for t in cells}) == 3


def test_memoized_reads_report_an_invalid_term_at_its_own_line(tmp_path, lemma_table):
    lemmas = Terms(lemma_table)
    for lineno in (3, 2):  # the second read finds "!!" in the memo
        path = tmp_path / f"triples{lineno}.csv"
        rows = ["apple,banana,red"] * (lineno - 1) + ["apple, !! ,red"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            list(read_triples(path, lemmas))
        assert exc.value.line == lineno
        assert str(exc.value) == \
            f"{path}:{lineno}: invalid term: no alphanumeric content in '!!'"
    assert lemmas["!!"] is None


def test_load_gold_bad_label(tmp_path, lemma_table):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c,2\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as exc:
        load_gold(p, lemma_table)
    assert exc.value.line == 1


def test_load_gold_conflicting_duplicates(tmp_path, lemma_table):
    p = tmp_path / "dup.csv"
    p.write_text("a,b,c,1\na,b,c,0\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_gold(p, lemma_table)


def test_load_gold_identical_duplicates_collapse(tmp_path, lemma_table):
    p = tmp_path / "dup.csv"
    p.write_text("a,b,c,1\na,b,c,1\n", encoding="utf-8")
    assert len(load_gold(p, lemma_table)) == 1


def test_load_gold_empty_errors(tmp_path, lemma_table):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_gold(p, lemma_table)


def test_load_annotations(data_dir, lemma_table):
    ann = load_annotations(data_dir / "annotations.csv", lemma_table)
    assert ann[("brandy", "whiskey", "wine")] == {"logical", "essential"}
    assert ann[("apple", "banana", "red")] == {"sensory"}


def test_load_annotations_unknown_category(tmp_path, lemma_table):
    p = tmp_path / "ann.csv"
    p.write_text("a,b,c,magical\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_annotations(p, lemma_table)


def test_perfect_predictions():
    gold = make_gold([("a", "b", "c", True), ("d", "e", "f", False)])
    preds = [True, False]
    assert macro_f1(preds, gold) == 1.0


def test_all_positive_predictor_macro_f1_one_third():
    # 4 triples, 50/50 gold, everything predicted positive:
    # positive class F1 = 2/3, negative class F1 = 0, macro = 1/3
    gold = make_gold([
        ("a", "b", "x", True), ("c", "d", "y", True),
        ("e", "f", "z", False), ("g", "h", "w", False),
    ])
    preds = [True] * 4
    assert macro_f1(preds, gold) == pytest.approx(1 / 3)


def test_hand_computed_matrix():
    # TP=3 FP=1 FN=2 TN=4: pos P=0.75 R=0.6 F1=2/3; neg P=4/6 R=0.8 F1=8/11
    rows = (
        [("p", f"c{i}", "a", True) for i in range(5)]
        + [("p", f"n{i}", "a", False) for i in range(5)]
    )
    gold = make_gold(rows)
    preds = [True, True, True, False, False, True, False, False, False, False]
    c = confusion(preds, gold)
    assert (c["tp"], c["fp"], c["fn"], c["tn"]) == (3, 1, 2, 4)
    assert macro_f1(preds, gold) == pytest.approx((2 / 3 + 8 / 11) / 2)


def test_missing_predictions_error():
    # predictions are scored in gold order, so their count must be the gold set's
    gold = make_gold([("a", "b", "c", True), ("d", "e", "f", False)])
    for preds in ([], [True], [True, False, True]):
        with pytest.raises(ValueError):
            macro_f1(preds, gold)


def test_per_category_recall_and_gain():
    gold = make_gold([
        ("a", "b", "x", True), ("c", "d", "y", True), ("e", "f", "z", False),
    ])
    ann = {
        ("a", "b", "x"): {"sensory"},
        ("c", "d", "y"): {"sensory", "logical"},
        ("e", "f", "z"): {"relative"},
    }
    comp = {
        "DBM": [True, False, False],
        "CKG": [False, True, False],
        "VFM": [False, False, False],
    }
    combined = [True, True, False]
    table = per_category_recall(comp, combined, gold, ann)
    assert table["DBM"]["sensory"] == 0.5
    assert table["CKG"]["sensory"] == 0.5
    assert table["combined"]["sensory"] == 1.0
    assert table["gain"]["sensory"] == pytest.approx(1.0)
    assert table["DBM"]["logical"] == 0.0
    assert table["combined"]["logical"] == 1.0
    # no positive triples in a category -> undefined, never 0
    assert table["DBM"]["relative"] is None
    assert table["gain"]["relative"] is None
    assert table["DBM"]["essential"] is None


def test_single_component_category():
    gold = make_gold([("a", "b", "x", True)])
    ann = {("a", "b", "x"): {"absolute"}}
    comp = {
        "DBM": [True],
        "CKG": [False],
        "VFM": [False],
    }
    table = per_category_recall(comp, [True], gold, ann)
    assert table["DBM"]["absolute"] == 1.0
    assert table["CKG"]["absolute"] == 0.0
    assert table["combined"]["absolute"] == 1.0


def test_overlap_disjoint_components():
    gold = make_gold([("a", "b", "x", True), ("c", "d", "y", True)])
    comp = {
        "DBM": [True, False],
        "CKG": [False, True],
        "VFM": [False, False],
    }
    combined = [True, True]
    out = overlap_analysis(comp, combined, gold)
    assert out["true"]["DBM^CKG"] == 0.0
    assert out["true"]["DBM^CKG^VFM"] == 0.0
    assert out["true"]["average"] == 0.0


def test_overlap_identical_components():
    gold = make_gold([("a", "b", "x", True), ("c", "d", "y", False)])
    same = [True, True]
    comp = {"DBM": same, "CKG": same, "VFM": same}
    out = overlap_analysis(comp, same, gold)
    for key in ("DBM^CKG", "DBM^VFM", "CKG^VFM", "DBM^CKG^VFM"):
        assert out["true"][key] == 1.0
        assert out["false"][key] == 1.0


def test_overlap_hand_computed():
    # combined TPs: {t1, t2, t3, t4}; DBM hits t1,t2,t3; CKG hits t2,t3; VFM hits t3
    gold = make_gold([(f"p{i}", f"c{i}", "a", True) for i in range(4)])
    comp = {
        "DBM": [True, True, True, False],
        "CKG": [False, True, True, False],
        "VFM": [False, False, True, False],
    }
    combined = [True, True, True, True]
    out = overlap_analysis(comp, combined, gold)
    assert out["true"]["DBM^CKG"] == 0.5
    assert out["true"]["DBM^VFM"] == 0.25
    assert out["true"]["CKG^VFM"] == 0.25
    assert out["true"]["DBM^CKG^VFM"] == 0.25
    assert out["true"]["average"] == pytest.approx((0.5 + 0.25 + 0.25 + 0.25) / 4)
    # three-way intersection never exceeds any pairwise intersection
    for key in ("DBM^CKG", "DBM^VFM", "CKG^VFM"):
        assert out["true"]["DBM^CKG^VFM"] <= out["true"][key] <= 1


def test_overlap_average_sums_left_to_right():
    # fractions 1/3, 1/3, 1, 1/3: a compensated sum gives 0.5, a left fold one ulp
    # less; report.json must print the same digits on every Python version
    gold = make_gold([(f"p{i}", f"c{i}", "a", True) for i in range(3)])
    every = [True, True, True]
    comp = {"DBM": [False, False, True], "CKG": every, "VFM": every}
    out = overlap_analysis(comp, every, gold)
    assert out["true"]["average"] == (1 / 3 + 1 / 3 + 1.0 + 1 / 3) / 4


def test_overlap_zero_combined_tp_undefined():
    gold = make_gold([("a", "b", "x", True)])
    none = [False]
    out = overlap_analysis({"DBM": none, "CKG": none, "VFM": none}, none, gold)
    assert out["true"]["DBM^CKG"] is None
    assert out["true"]["average"] is None


def test_error_breakdown():
    gold = make_gold([("a", "b", "x", True), ("c", "d", "y", False)])
    preds = [False, True]  # 1 FN, 1 FP
    out = error_breakdown({"m": preds}, gold)
    assert out["m"]["fn"] == 1
    assert out["m"]["fp"] == 1
    assert out["m"]["fn_share"] == 0.5
    assert {s["type"] for s in out["m"]["samples"]} == {"FN", "FP"}


def test_error_breakdown_perfect_predictor_undefined():
    gold = make_gold([("a", "b", "x", True)])
    out = error_breakdown({"m": [True]}, gold)
    assert out["m"]["fn_share"] is None


def test_report_determinism(data_dir, lemma_table):
    gold = load_gold(data_dir / "gold.csv", lemma_table)
    ann = load_annotations(data_dir / "annotations.csv", lemma_table)
    bits = [t.gold_label for t in gold]
    comp = {name: bits for name in ("DBM", "CKG", "VFM")}
    r1 = build_report(comp, bits, gold, ann)
    r2 = build_report(comp, bits, gold, ann)
    assert render_report(r1) == render_report(r2)
    assert r1 == r2


def test_report_counts_each_confusion_matrix_once(data_dir, lemma_table, monkeypatch):
    gold = load_gold(data_dir / "gold.csv", lemma_table)
    bits = [t.gold_label for t in gold]
    comp = {name: bits for name in ("DBM", "CKG", "VFM")}
    counted = []
    count = evaluation.confusion
    monkeypatch.setattr(evaluation, "confusion",
                        lambda preds, gold: counted.append(preds) or count(preds, gold))
    report = build_report(comp, [False] * len(gold), gold)
    assert len(counted) == 4  # each component's, and the combined model's
    assert report["metrics"]["confusion"]["fn"] == sum(bits)
    assert report["errors"]["combined"]["fn"] == sum(bits)
    # nothing predicted positive: positive F1 is 0; negative recall 1, precision the negatives' share
    precision = (len(gold) - sum(bits)) / len(gold)
    assert report["macro_f1"] == pytest.approx(precision / (precision + 1))


def test_report_without_annotations_notes_skip():
    gold = make_gold([("a", "b", "x", True)])
    preds = [True]
    comp = {name: preds for name in ("DBM", "CKG", "VFM")}
    report = build_report(comp, preds, gold, annotations=None)
    assert report["category_recall"] is None
    assert any("category tables skipped" in n for n in report["notes"])
    text = render_report(report)
    assert "macro F1" in text


def test_combined_recall_dominates_components(data_dir, lemma_table):
    # union semantics: combined recall >= each component recall per category
    gold = load_gold(data_dir / "gold.csv", lemma_table)
    ann = load_annotations(data_dir / "annotations.csv", lemma_table)
    import random

    rng = random.Random(5)
    comp = {
        name: [rng.random() < 0.4 for _ in gold]
        for name in ("DBM", "CKG", "VFM")
    }
    combined = [d or c or v for d, c, v in zip(comp["DBM"], comp["CKG"], comp["VFM"])]
    table = per_category_recall(comp, combined, gold, ann)
    for cat, value in table["combined"].items():
        for name in ("DBM", "CKG", "VFM"):
            cell = table[name][cat]
            if cell is not None:
                assert value >= cell
