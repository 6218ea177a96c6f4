"""Evaluation harness: macro F1, per-category recall, component overlap,
and error breakdowns over a gold standard of labeled triples.

Every triple file is a CSV whose first three cells are the pivot,
comparison and attribute, after an optional `pivot,comparison,attribute`
header. Gold: `pivot,comparison,attribute,label` with label in {0,1}.
Category annotations: `pivot,comparison,attribute,category[;category...]`.
Predictions are lists of bools in gold order.
"""
from __future__ import annotations

import csv
import functools
import itertools
import operator

from .errors import DataFormatError, open_text
from .text import Lemmas, lemma_of
from .types import CATEGORIES, COMPONENTS, Term, Triple

# the components whose TP/FP intersections the overlap rows report: each
# pair, then all of them
OVERLAP_GROUPS = (*itertools.combinations(COMPONENTS, 2), COMPONENTS)
HEADER = ["pivot", "comparison", "attribute"]


class Terms(Lemmas):
    """A `Lemmas` memo that keeps each name's `Term`, not its lemma, so that
    reads sharing one make one `Term` per distinct cell."""

    def __missing__(self, name):
        lemma = super().__missing__(name)
        self[name] = term = lemma and Term(name, lemma)
        return term


def read_triples(path, lemma_table, columns=None):
    """(line number, row, unlabeled `Triple`) of each row of a triple CSV, whose
    rows have exactly `columns` cells, or at least 3 when `columns` is None.
    `lemma_table` may be a `Terms` memo of one, for reads to share."""
    terms = lemma_table if isinstance(lemma_table, Terms) else Terms(lemma_table)
    with open_text(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or lineno == 1 and [c.strip().lower() for c in row[:3]] == HEADER:
                continue
            if len(row) < 3 or columns and len(row) != columns:
                raise DataFormatError(f"expected {columns or 'at least 3'} columns",
                                      path=path, line=lineno)
            try:
                triple = Triple(*[terms[s] or lemma_of(s, terms.table)  # on None, it raises why
                                  for s in map(str.strip, row[:3])])
            except ValueError as e:
                raise DataFormatError(f"invalid term: {e}", path=path, line=lineno)
            yield lineno, row, triple


def load_gold(path, lemma_table) -> list[Triple]:
    """Load and validate the gold CSV; identical duplicate rows collapse,
    conflicting duplicates are an error, an empty gold set is an error."""
    gold = []
    seen = {}
    for lineno, row, triple in read_triples(path, lemma_table, 4):
        if row[3].strip() not in ("0", "1"):
            raise DataFormatError(f"label must be 0 or 1, got {row[3]!r}", path=path, line=lineno)
        label = row[3].strip() == "1"
        key = triple.key()
        if key in seen:
            if seen[key] != label:
                raise DataFormatError(
                    f"conflicting duplicate labels for {key}", path=path, line=lineno
                )
            continue
        seen[key] = label
        gold.append(Triple(triple.pivot, triple.comparison, triple.attribute, label))
    if not gold:
        raise DataFormatError("empty gold set", path=path)
    return gold


def load_annotations(path, lemma_table) -> dict:
    """Load the category annotation CSV into key -> frozenset of categories."""
    annotations = {}
    for lineno, row, triple in read_triples(path, lemma_table, 4):
        cats = frozenset(c.strip().lower() for c in row[3].split(";") if c.strip())
        if not cats:
            raise DataFormatError("empty category set", path=path, line=lineno)
        unknown = cats - CATEGORIES
        if unknown:
            raise DataFormatError(f"unknown categories {sorted(unknown)}", path=path, line=lineno)
        annotations[triple.key()] = cats
    return annotations


def confusion(predictions: list, gold: list) -> dict:
    """Confusion-matrix counts {tp, fp, fn, tn}."""
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for t, pred in zip(gold, predictions, strict=True):
        if pred and t.gold_label:
            counts["tp"] += 1
        elif pred and not t.gold_label:
            counts["fp"] += 1
        elif not pred and t.gold_label:
            counts["fn"] += 1
        else:
            counts["tn"] += 1
    return counts


def class_prf(tp, fp, fn) -> dict:
    """Precision/recall/F1 for one class. A class with no predicted and no
    actual members scores F1 = 1 by convention (flagged upstream)."""
    if tp == 0 and fp == 0 and fn == 0:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0, "vacuous": True}
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "vacuous": False}


def per_class_metrics(predictions, gold) -> dict:
    c = confusion(predictions, gold)
    return {
        "positive": class_prf(c["tp"], c["fp"], c["fn"]),
        # negative class: swap roles (predicted-negative over actually-negative)
        "negative": class_prf(c["tn"], c["fn"], c["fp"]),
        "confusion": c,
    }


def per_category_recall(component_preds: dict, combined_preds: list,
                        gold: list, annotations: dict) -> dict:
    """Recall over positive gold triples per category, per component and
    combined, plus the relative gain of combined over the best component.

    Cells with no positive triples in a category are None (undefined).
    """
    models = {**component_preds, "combined": combined_preds}
    categories = sorted(CATEGORIES)
    positive_cats = [annotations.get(t.key(), ()) if t.gold_label else () for t in gold]
    table = {name: {} for name in models}
    for name, preds in models.items():
        for cat in categories:
            hits = [pred for pred, cats in zip(preds, positive_cats, strict=True) if cat in cats]
            table[name][cat] = sum(hits) / len(hits) if hits else None
    gain = {}
    for cat in categories:
        best = max(
            (table[c][cat] for c in component_preds if table[c][cat] is not None),
            default=None,
        )
        combined = table["combined"][cat]
        if best is None or combined is None or best == 0:
            gain[cat] = None
        else:
            gain[cat] = (combined - best) / best
    table["gain"] = gain
    return table


def _tp_fp_sets(preds, gold):
    """The gold positions of the true and of the false positives."""
    tp, fp = set(), set()
    for i, (t, pred) in enumerate(zip(gold, preds, strict=True)):
        if pred:
            (tp if t.gold_label else fp).add(i)
    return tp, fp


def _overlap_row(sets_by_component, denominator):
    row = {}
    fractions = []
    for group in OVERLAP_GROUPS:
        inter = set.intersection(*(sets_by_component[c] for c in group))
        frac = len(inter & denominator) / len(denominator) if denominator else None
        row["^".join(group)] = frac
        fractions.append(frac)
    # a plain left fold: from Python 3.12 on, sum() of floats is compensated and
    # can change the last digit that report.json prints
    row["average"] = (
        functools.reduce(operator.add, fractions) / len(fractions)
        if all(f is not None for f in fractions) else None
    )
    return row


def overlap_analysis(component_preds: dict, combined_preds: list,
                     gold: list, annotations: dict | None = None) -> dict:
    """Pairwise and three-way TP/FP intersections as fractions of the
    combined model's TPs (resp. FPs); optionally stratified by category."""
    comp_tp = {}
    comp_fp = {}
    for name, preds in component_preds.items():
        comp_tp[name], comp_fp[name] = _tp_fp_sets(preds, gold)
    combined_tp, combined_fp = _tp_fp_sets(combined_preds, gold)
    out = {
        "true": _overlap_row(comp_tp, combined_tp),
        "false": _overlap_row(comp_fp, combined_fp),
    }
    if annotations is not None:
        tp_cats = {i: annotations.get(gold[i].key(), ()) for i in combined_tp}
        out["by_category"] = {
            cat: _overlap_row(comp_tp, {i for i, cats in tp_cats.items() if cat in cats})
            for cat in sorted(CATEGORIES)
        }
    return out


def error_breakdown(models_preds: dict, gold: list, sample_size: int = 10) -> dict:
    """Per model: FN/FP counts, FN share of total errors, error samples."""
    return {name: _errors(confusion(preds, gold), preds, gold, sample_size)
            for name, preds in models_preds.items()}


def _errors(c, preds, gold, sample_size=10):
    """One model's `error_breakdown` entry, from its confusion counts `c`."""
    wrong = ((t, pred) for t, pred in zip(gold, preds) if pred != t.gold_label)
    samples = [{"triple": list(t.key()), "gold": int(t.gold_label), "predicted": int(pred),
                "type": "FN" if t.gold_label else "FP"}
               for t, pred in itertools.islice(wrong, sample_size)]
    errors = c["fn"] + c["fp"]
    return {"fn": c["fn"], "fp": c["fp"], "fn_share": c["fn"] / errors if errors else None,
            "samples": samples}


def build_report(component_preds, combined_preds, gold, annotations=None) -> dict:
    """The report, as `report.json` holds it."""
    metrics = per_class_metrics(combined_preds, gold)
    notes = []
    if metrics["positive"]["vacuous"] or metrics["negative"]["vacuous"]:
        notes.append("a class with no predicted and no actual members scored F1=1 by convention")
    if annotations:
        category_recall = per_category_recall(component_preds, combined_preds, gold, annotations)
        overlap = overlap_analysis(component_preds, combined_preds, gold, annotations)
    else:
        category_recall = None
        overlap = overlap_analysis(component_preds, combined_preds, gold)
        notes.append("no category annotations supplied; category tables skipped")
    notes.append("per-category cells report recall, not F1 (the two are sometimes conflated)")
    errors = error_breakdown(component_preds, gold)
    errors["combined"] = _errors(metrics["confusion"], combined_preds, gold)
    return {
        # the unweighted mean of positive- and negative-class F1
        "macro_f1": (metrics["positive"]["f1"] + metrics["negative"]["f1"]) / 2,
        "metrics": metrics,
        "errors": errors,
        "category_recall": category_recall,
        "overlap": overlap,
        "notes": notes,
    }


def _fmt(value):
    if value is None:
        return "undef"
    return f"{value:.3f}"


def render_report(report: dict) -> str:
    """Human-readable text of a `build_report` dict; byte-stable for identical inputs."""
    lines = []
    c = report["metrics"]["confusion"]
    lines.append("== Discriminative attribute evaluation ==")
    lines.append(f"macro F1: {report['macro_f1']:.4f}")
    lines.append(f"confusion: TP={c['tp']} FP={c['fp']} FN={c['fn']} TN={c['tn']}")
    for cls in ("positive", "negative"):
        m = report["metrics"][cls]
        lines.append(
            f"{cls}: precision={m['precision']:.4f} recall={m['recall']:.4f} f1={m['f1']:.4f}"
        )
    if report["category_recall"]:
        lines.append("")
        lines.append("-- per-category recall --")
        cats = sorted(CATEGORIES)
        lines.append("model      " + " ".join(f"{c:>10}" for c in cats))
        for name in list(COMPONENTS) + ["combined", "gain"]:
            row = report["category_recall"][name]
            lines.append(f"{name:<10} " + " ".join(f"{_fmt(row[c]):>10}" for c in cats))
    if report["overlap"]:
        lines.append("")
        lines.append("-- component overlap (fraction of combined TPs / FPs) --")
        keys = ["^".join(group) for group in OVERLAP_GROUPS] + ["average"]
        for kind in ("true", "false"):
            row = report["overlap"][kind]
            cells = " ".join(f"{k}={_fmt(row[k])}" for k in keys)
            lines.append(f"{kind}: {cells}")
    lines.append("")
    lines.append("-- error breakdown --")
    ordered = [n for n in list(COMPONENTS) + ["combined"] if n in report["errors"]]
    ordered += sorted(set(report["errors"]) - set(ordered))
    for name in ordered:
        row = report["errors"][name]
        lines.append(f"{name}: FN={row['fn']} FP={row['fp']} FN-share={_fmt(row['fn_share'])}")
    if report["notes"]:
        lines.append("")
        for note in report["notes"]:
            lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
