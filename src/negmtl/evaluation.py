"""Scoring and reporting.

Prediction files are the source of truth: every number a report shows
(accuracy, mean/std over seeds, confusion cells) can be recomputed from
the serialized per-seed prediction records.  Spread across seeds is the
population standard deviation (divide by n, not n-1), which matters at
n=5 and is therefore labeled in machine-readable output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .corpus import LABELS, BioTag, CorpusStats, json_lines


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
            raise EvaluationError(f"record {self.id!r}: bad gold label {self.gold!r}")
        if self.pred not in LABELS:
            raise EvaluationError(f"record {self.id!r}: bad predicted label {self.pred!r}")


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
                raise ValueError(f"id must be a non-empty string, got {record.id!r}")
            seen = first_line.setdefault(record.id, line_no)
        # ValueError: a bad id; EvaluationError: a bad label
        except (ValueError, KeyError, TypeError, EvaluationError) as e:
            raise bad(path, line_no, f"bad prediction record ({e})") from e
        if seen != line_no:
            raise bad(path, line_no, f"document {record.id!r} repeats line {seen}")
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
            raise EvaluationError(f"document {doc_id!r} is in {name_a} but not in {name_b}")
        if gold_b[doc_id] != gold:
            raise EvaluationError(
                f"document {doc_id!r} has gold {gold!r} in {name_a} but {gold_b[doc_id]!r} in {name_b}"
            )
    for doc_id in gold_b:
        if doc_id not in gold_a:
            raise EvaluationError(f"document {doc_id!r} is in {name_b} but not in {name_a}")


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


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts indexed (gold, predicted) in ``corpus.LABELS`` order."""

    counts: tuple[tuple[int, int], tuple[int, int]]

    @classmethod
    def from_records(cls, records: Sequence[PredictionRecord]) -> "ConfusionMatrix":
        counts = [[0, 0], [0, 0]]
        for r in records:
            if r.gold is None:
                raise EvaluationError(f"record {r.id!r} has no gold label")
            counts[LABELS.index(r.gold)][LABELS.index(r.pred)] += 1
        return cls(tuple(tuple(row) for row in counts))

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)


def relative_confusion(cm_a: ConfusionMatrix, cm_b: ConfusionMatrix) -> np.ndarray:
    """Cellwise cm_a - cm_b over the same document set; cells sum to 0."""
    if cm_a.total != cm_b.total:
        raise EvaluationError(
            f"confusion matrices cover different totals: {cm_a.total} vs {cm_b.total}"
        )
    return cm_a.as_array() - cm_b.as_array()


def confusion_csv(matrix: np.ndarray) -> str:
    """CSV rendering of a (relative) confusion matrix for external plotting."""
    lines = ["gold\\pred," + ",".join(LABELS)]
    for label, row in zip(LABELS, np.asarray(matrix)):
        lines.append(label + "," + ",".join(str(int(v)) for v in row))
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


@dataclass(frozen=True)
class RunReport:
    per_seed_accuracies: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float  # population
    ensemble_accuracy: float
    per_seed_confusions: tuple[ConfusionMatrix, ...]
    ensemble_confusion: ConfusionMatrix

    def to_json_obj(self) -> dict:
        return {
            "per_seed_accuracies": list(self.per_seed_accuracies),
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "std_kind": "population",
            "formatted": format_mean_std(self.per_seed_accuracies),
            "ensemble_accuracy": self.ensemble_accuracy,
            "per_seed_confusions": [
                [list(row) for row in cm.counts] for cm in self.per_seed_confusions
            ],
            "ensemble_confusion": [list(row) for row in self.ensemble_confusion.counts],
        }

    def format_text(self) -> str:
        lines = [
            f"accuracy over {len(self.per_seed_accuracies)} seeds: "
            f"{format_mean_std(self.per_seed_accuracies)}  [mean (population std), x100]",
            "per-seed: " + ", ".join(f"{a:.4f}" for a in self.per_seed_accuracies),
            f"majority-vote ensemble: {self.ensemble_accuracy:.4f}",
            f"ensemble confusion (gold x pred, order {'/'.join(LABELS)}): "
            + str([list(row) for row in self.ensemble_confusion.counts]),
        ]
        return "\n".join(lines) + "\n"


def build_run_report(
    per_seed: Sequence[Sequence[PredictionRecord]],
    ensemble: Sequence[PredictionRecord],
) -> RunReport:
    """Assemble the report purely from prediction records, so anything it
    states can be re-derived from the serialized files."""
    if not per_seed:
        raise EvaluationError("no per-seed predictions")
    accs = tuple(accuracy_of(run) for run in per_seed)
    mean, std = mean_std(accs)
    return RunReport(
        per_seed_accuracies=accs,
        mean_accuracy=mean,
        std_accuracy=std,
        ensemble_accuracy=accuracy_of(ensemble),
        per_seed_confusions=tuple(ConfusionMatrix.from_records(run) for run in per_seed),
        ensemble_confusion=ConfusionMatrix.from_records(ensemble),
    )


# ---------------------------------------------------------------------------
# Corpus statistics rendering


def stats_report(stats: CorpusStats) -> str:
    """Fixed-width table of document and negation-structure counts per
    split, with per-sentiment-class structure counts."""
    headers = ["split", "documents", "structures", "in positive docs", "in negative docs"]
    rows = [headers]
    for name, split in stats.splits.items():
        rows.append(
            [
                name,
                str(split.documents),
                str(split.structures),
                str(split.structures_by_class.get("positive", 0)),
                str(split.structures_by_class.get("negative", 0)),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines) + "\n"
