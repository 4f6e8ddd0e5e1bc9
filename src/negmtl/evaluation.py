"""Scoring and reporting.

Prediction files are the source of truth: every number a report shows
(accuracy, mean/std over seeds, confusion cells) can be recomputed from
the serialized per-seed prediction records.  Reports are the plain dicts
and lists they are written as: a confusion is ``[[int, int], [int, int]]``
indexed [gold][predicted] in ``corpus.LABELS`` order, a run report the
dict ``report.json`` holds, and corpus statistics the dict
``corpus.corpus_stats`` returns.  Spread across seeds is the
population standard deviation (divide by n, not n-1), which matters at
n=5 and is therefore labeled in machine-readable output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .corpus import LABELS, BioTag, json_lines, shown


class EvaluationError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    id: str
    gold: str | None
    pred: str
    # each sentence's negation tags, when the prediction pass was asked
    # for them; prediction files never hold them
    tags: list[list[BioTag]] | None = None

    def __post_init__(self):
        if self.gold is not None and self.gold not in LABELS:
            raise EvaluationError(f"record {shown(self.id)}: bad gold label {shown(self.gold)}")
        if self.pred not in LABELS:
            raise EvaluationError(f"record {shown(self.id)}: bad predicted label {shown(self.pred)}")


def write_predictions(records: Sequence[PredictionRecord], path):
    with atomic_open(path) as fh:
        for r in records:
            fh.write(json.dumps({"id": r.id, "gold": r.gold, "pred": r.pred}) + "\n")


def read_predictions(path) -> list[PredictionRecord]:
    """Records in file order; each document id, a non-empty string, may
    occur once.  A bad record (a bad id or label among them), a line that
    is not JSON, or a byte that is not UTF-8, is an ``EvaluationError``
    naming the file and the line."""

    def bad(path, line_no: int, what: str) -> EvaluationError:
        return EvaluationError(f"{path}: line {line_no}: {what}")

    records = []
    first_line: dict[str, int] = {}
    for line_no, obj in json_lines(path, bad):
        try:
            record = PredictionRecord(obj["id"], obj["gold"], obj["pred"])
            if not isinstance(record.id, str) or not record.id:
                raise ValueError(f"id must be a non-empty string, got {shown(record.id)}")
            seen = first_line.setdefault(record.id, line_no)
        # ValueError: a bad id; EvaluationError: a bad label
        except (ValueError, KeyError, TypeError, EvaluationError) as e:
            raise bad(path, line_no, f"bad prediction record ({e})") from e
        if seen != line_no:
            raise bad(path, line_no, f"document {shown(record.id)} repeats line {seen}")
        records.append(record)
    return records


def require_same_documents(
    a: Sequence[PredictionRecord], b: Sequence[PredictionRecord], name_a: str, name_b: str
):
    """Two prediction lists are comparable when they hold the same
    document ids with the same gold labels, in any order."""
    gold_a = {r.id: r.gold for r in a}
    gold_b = {r.id: r.gold for r in b}
    for doc_id, gold in gold_a.items():
        if doc_id not in gold_b:
            raise EvaluationError(f"document {shown(doc_id)} is in {name_a} but not in {name_b}")
        if gold_b[doc_id] != gold:
            raise EvaluationError(
                f"document {shown(doc_id)} has gold {gold!r} in {name_a} but {gold_b[doc_id]!r} in {name_b}"
            )
    for doc_id in gold_b:
        if doc_id not in gold_a:
            raise EvaluationError(f"document {shown(doc_id)} is in {name_b} but not in {name_a}")


def accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    """Exact-match fraction."""
    if len(gold) != len(pred):
        raise EvaluationError(f"length mismatch: {len(gold)} gold vs {len(pred)} predictions")
    if not gold:
        raise EvaluationError("cannot score an empty prediction list")
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


def accuracy_of(records: Sequence[PredictionRecord]) -> float:
    """Accuracy of prediction records against their own gold labels."""
    return accuracy([r.gold for r in records], [r.pred for r in records])


def confusion(records: Sequence[PredictionRecord]) -> list[list[int]]:
    """2x2 counts indexed [gold][predicted] in ``corpus.LABELS`` order."""
    counts = [[0, 0], [0, 0]]
    for r in records:
        if r.gold is None:
            raise EvaluationError(f"record {shown(r.id)} has no gold label")
        counts[LABELS.index(r.gold)][LABELS.index(r.pred)] += 1
    return counts


def relative_confusion(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Cellwise a - b of two confusions over the same document set; cells sum to 0."""
    total_a, total_b = sum(map(sum, a)), sum(map(sum, b))
    if total_a != total_b:
        raise EvaluationError(f"confusion matrices cover different totals: {total_a} vs {total_b}")
    return [[x - y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a, b)]


def confusion_csv(matrix: Sequence[Sequence[int]]) -> str:
    """CSV rendering of a (relative) confusion matrix for external plotting."""
    lines = ["gold\\pred," + ",".join(LABELS)]
    for label, row in zip(LABELS, matrix):
        lines.append(label + "," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Negation tagging metrics


@dataclass(frozen=True)
class ClassScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class TokenF1Report:
    cue: ClassScore
    scope: ClassScore
    micro: ClassScore


_TAG_CLASS = {
    BioTag.B_CUE: "cue",
    BioTag.I_CUE: "cue",
    BioTag.B_SCOPE: "scope",
    BioTag.I_SCOPE: "scope",
    BioTag.O: None,
}


def negation_token_f1(
    gold: Sequence[Sequence[BioTag]], pred: Sequence[Sequence[BioTag]]
) -> TokenF1Report:
    """Token-level precision/recall/F1 where B-X and I-X both count as
    class X; micro average pools counts over both classes."""
    if len(gold) != len(pred):
        raise EvaluationError(f"sentence count mismatch: {len(gold)} vs {len(pred)}")
    tallies = {"cue": [0, 0, 0], "scope": [0, 0, 0]}  # tp, fp, fn
    for i, (g_tags, p_tags) in enumerate(zip(gold, pred)):
        if len(g_tags) != len(p_tags):
            raise EvaluationError(
                f"sentence {i}: tag length mismatch ({len(g_tags)} vs {len(p_tags)})"
            )
        for g, p in zip(g_tags, p_tags):
            g_cls, p_cls = _TAG_CLASS[g], _TAG_CLASS[p]
            if p_cls is not None:
                if g_cls == p_cls:
                    tallies[p_cls][0] += 1
                else:
                    tallies[p_cls][1] += 1
            if g_cls is not None and g_cls != p_cls:
                tallies[g_cls][2] += 1
    cue = ClassScore(*tallies["cue"])
    scope = ClassScore(*tallies["scope"])
    micro = ClassScore(cue.tp + scope.tp, cue.fp + scope.fp, cue.fn + scope.fn)
    return TokenF1Report(cue, scope, micro)


# ---------------------------------------------------------------------------
# Seed statistics and run reports


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation (divide by n)."""
    if not values:
        raise EvaluationError("mean_std of an empty sequence")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=0))


def format_mean_std(values: Sequence[float]) -> str:
    """Percentage presentation, e.g. accuracies with mean 0.725 and
    population std 0.0184 render as "72.5 (1.8)"."""
    mean, std = mean_std(values)
    return f"{mean * 100:.1f} ({std * 100:.1f})"


def build_run_report(
    per_seed: Sequence[Sequence[PredictionRecord]],
    ensemble: Sequence[PredictionRecord],
) -> dict:
    """The report of one split, as ``report.json`` stores it, built purely
    from prediction records, so anything it states can be re-derived from
    the serialized files: per-seed accuracies, their mean and population
    std, the ensemble's accuracy, and each run's confusion."""
    if not per_seed:
        raise EvaluationError("no per-seed predictions")
    accs = [accuracy_of(run) for run in per_seed]
    mean, std = mean_std(accs)
    return {
        "per_seed_accuracies": accs,
        "mean_accuracy": mean,
        "std_accuracy": std,
        "std_kind": "population",
        "formatted": format_mean_std(accs),
        "ensemble_accuracy": accuracy_of(ensemble),
        "per_seed_confusions": [confusion(run) for run in per_seed],
        "ensemble_confusion": confusion(ensemble),
    }


def format_run_report(report: dict) -> str:
    """The lines ``negmtl ensemble`` prints for a ``build_run_report``."""
    accs = report["per_seed_accuracies"]
    lines = [
        f"accuracy over {len(accs)} seeds: {report['formatted']}  [mean (population std), x100]",
        "per-seed: " + ", ".join(f"{a:.4f}" for a in accs),
        f"majority-vote ensemble: {report['ensemble_accuracy']:.4f}",
        f"ensemble confusion (gold x pred, order {'/'.join(LABELS)}): {report['ensemble_confusion']}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Corpus statistics rendering


def stats_report(stats: dict[str, dict]) -> str:
    """Fixed-width table of a ``corpus.corpus_stats``: document and
    negation-structure counts per split, with per-sentiment-class
    structure counts."""
    headers = ["split", "documents", "structures", "in positive docs", "in negative docs"]
    rows = [headers]
    for name, split in stats.items():
        by_class = split["structures_by_class"]
        rows.append(
            [
                name,
                str(split["documents"]),
                str(split["structures"]),
                str(by_class.get("positive", 0)),
                str(by_class.get("negative", 0)),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines) + "\n"
