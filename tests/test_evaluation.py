import numpy as np
import pytest
from hypothesis import given, strategies as st

from negmtl.corpus import BioTag, CorpusStats, SplitStats
from negmtl.evaluation import (
    ConfusionMatrix,
    EvaluationError,
    PredictionRecord,
    RunReport,
    accuracy,
    build_run_report,
    confusion_csv,
    format_mean_std,
    mean_std,
    negation_token_f1,
    read_predictions,
    relative_confusion,
    stats_report,
    write_predictions,
)


def records(*pairs, ids=None):
    return [
        PredictionRecord(ids[i] if ids else f"d{i}", g, p)
        for i, (g, p) in enumerate(pairs)
    ]


class TestPredictionRecords:
    def test_validation(self):
        with pytest.raises(EvaluationError, match="gold"):
            PredictionRecord("d1", "meh", "positive")
        with pytest.raises(EvaluationError, match="predicted"):
            PredictionRecord("d1", "positive", "meh")
        assert PredictionRecord("d1", None, "negative").gold is None

    def test_file_round_trip(self, tmp_path):
        recs = records(("positive", "positive"), (None, "negative"))
        path = tmp_path / "preds.jsonl"
        write_predictions(recs, path)
        assert read_predictions(path) == recs

    def test_read_names_the_line_of_a_non_utf8_byte(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        write_predictions(records(("positive", "positive")), path)
        path.write_bytes(path.read_bytes() + b'{"id": "\xff"}\n')
        with pytest.raises(EvaluationError) as info:
            read_predictions(path)
        assert str(info.value) == f"{path}: line 2: byte 0xff is not UTF-8 (invalid start byte)"

    def test_read_names_the_line_of_invalid_json(self, tmp_path):
        # as parse_corpus names an undecodable corpus line
        path = tmp_path / "preds.jsonl"
        write_predictions(records(("positive", "positive")), path)
        with open(path, "a") as fh:
            fh.write('\n{"id": "d2",\n')
        with pytest.raises(EvaluationError) as info:
            read_predictions(path)
        assert str(info.value) == f"{path}: line 3: invalid JSON (Expecting property name enclosed in double quotes)"

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "d1"}\n')
        with pytest.raises(EvaluationError, match="line 1"):
            read_predictions(path)

    @pytest.mark.parametrize("bad_id", ["5", "null", '""', "[1]"])
    def test_read_names_the_line_of_a_bad_id(self, tmp_path, bad_id):
        path = tmp_path / "preds.jsonl"
        write_predictions(records(("positive", "positive")), path)
        with open(path, "a") as fh:
            fh.write(f'{{"id": {bad_id}, "gold": "positive", "pred": "negative"}}\n')
        with pytest.raises(EvaluationError) as info:
            read_predictions(path)
        assert str(info.value).startswith(f"{path}: line 2: bad prediction record (id must be a non-empty string")

    def test_read_names_the_line_of_a_bad_label(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "d1", "gold": "meh", "pred": "positive"}\n')
        with pytest.raises(EvaluationError) as info:
            read_predictions(path)
        assert str(info.value) == f"{path}: line 1: bad prediction record (record 'd1': bad gold label 'meh')"


class TestAccuracy:
    def test_extremes(self):
        assert accuracy(["positive", "negative"], ["positive", "negative"]) == 1.0
        assert accuracy(["positive", "negative"], ["negative", "positive"]) == 0.0
        assert accuracy(["positive"] * 4, ["positive", "negative", "positive", "negative"]) == 0.5

    def test_errors(self):
        with pytest.raises(EvaluationError, match="mismatch"):
            accuracy(["positive"], [])
        with pytest.raises(EvaluationError, match="empty"):
            accuracy([], [])

    @given(st.lists(st.sampled_from(["positive", "negative"]), min_size=1, max_size=30), st.data())
    def test_flip_complement(self, gold, data):
        pred = data.draw(
            st.lists(
                st.sampled_from(["positive", "negative"]),
                min_size=len(gold),
                max_size=len(gold),
            )
        )
        flipped = ["positive" if p == "negative" else "negative" for p in pred]
        assert accuracy(gold, pred) + accuracy(gold, flipped) == pytest.approx(1.0)


class TestConfusion:
    def test_counts_and_marginals(self):
        recs = records(
            ("negative", "negative"),
            ("negative", "positive"),
            ("positive", "positive"),
            ("positive", "positive"),
            ("positive", "negative"),
        )
        cm = ConfusionMatrix.from_records(recs)
        assert cm.counts == ((1, 1), (1, 2))
        assert cm.total == 5
        gold_counts = cm.as_array().sum(axis=1)
        assert list(gold_counts) == [2, 3]

    def test_missing_gold_rejected(self):
        with pytest.raises(EvaluationError, match="gold"):
            ConfusionMatrix.from_records(records((None, "positive")))

    def test_relative_self_is_zero(self):
        cm = ConfusionMatrix(((3, 1), (2, 4)))
        np.testing.assert_array_equal(relative_confusion(cm, cm), np.zeros((2, 2)))

    def test_relative_difference_and_antisymmetry(self):
        # one model fixes two wrong negatives: +2 on the neg diagonal, -2 off it
        a = ConfusionMatrix(((5, 1), (2, 4)))
        b = ConfusionMatrix(((3, 3), (2, 4)))
        diff = relative_confusion(a, b)
        np.testing.assert_array_equal(diff, [[2, -2], [0, 0]])
        assert diff.sum() == 0
        np.testing.assert_array_equal(relative_confusion(b, a), -diff)

    def test_differing_totals_rejected(self):
        a = ConfusionMatrix(((1, 0), (0, 1)))
        b = ConfusionMatrix(((1, 0), (0, 2)))
        with pytest.raises(EvaluationError, match="totals"):
            relative_confusion(a, b)

    def test_csv_rendering(self):
        out = confusion_csv(np.array([[2, -2], [0, 0]]))
        assert out == "gold\\pred,negative,positive\nnegative,2,-2\npositive,0,0\n"


class TestTokenF1:
    def test_perfect_prediction(self):
        tags = [[BioTag.B_CUE, BioTag.B_SCOPE, BioTag.I_SCOPE, BioTag.O]]
        report = negation_token_f1(tags, tags)
        assert report.cue.f1 == 1.0
        assert report.scope.f1 == 1.0
        assert report.micro.f1 == 1.0

    def test_all_o_prediction_has_zero_recall(self):
        gold = [[BioTag.B_CUE, BioTag.B_SCOPE, BioTag.O]]
        pred = [[BioTag.O, BioTag.O, BioTag.O]]
        report = negation_token_f1(gold, pred)
        assert report.cue.recall == 0.0
        assert report.scope.recall == 0.0
        assert report.micro.f1 == 0.0

    def test_hand_counted_example(self):
        gold = [[BioTag.B_CUE, BioTag.I_CUE, BioTag.B_SCOPE, BioTag.O, BioTag.I_SCOPE, BioTag.O]]
        pred = [[BioTag.B_CUE, BioTag.O, BioTag.B_SCOPE, BioTag.B_SCOPE, BioTag.I_SCOPE, BioTag.O]]
        report = negation_token_f1(gold, pred)
        # cue: tp=1 fp=0 fn=1; scope: tp=2 fp=1 fn=0
        assert (report.cue.tp, report.cue.fp, report.cue.fn) == (1, 0, 1)
        assert (report.scope.tp, report.scope.fp, report.scope.fn) == (2, 1, 0)
        assert report.cue.precision == 1.0
        assert report.cue.recall == 0.5
        assert report.scope.precision == pytest.approx(2 / 3)
        assert report.scope.recall == 1.0
        assert (report.micro.tp, report.micro.fp, report.micro.fn) == (3, 1, 1)
        assert report.micro.f1 == pytest.approx(0.75)

    def test_b_and_i_count_as_same_class(self):
        gold = [[BioTag.B_SCOPE, BioTag.I_SCOPE]]
        pred = [[BioTag.I_SCOPE, BioTag.B_SCOPE]]
        report = negation_token_f1(gold, pred)
        assert report.scope.f1 == 1.0

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(EvaluationError, match="mismatch"):
            negation_token_f1([[BioTag.O]], [[BioTag.O, BioTag.O]])
        with pytest.raises(EvaluationError, match="mismatch"):
            negation_token_f1([[BioTag.O]], [])


class TestMeanStd:
    def test_population_std(self):
        mean, std = mean_std([0.70, 0.71, 0.725, 0.74, 0.75])
        assert mean == pytest.approx(0.725)
        assert std == pytest.approx(np.std([0.70, 0.71, 0.725, 0.74, 0.75], ddof=0))

    def test_formatting_matches_percentage_presentation(self):
        assert format_mean_std([0.70, 0.71, 0.725, 0.74, 0.75]) == "72.5 (1.8)"
        assert format_mean_std([0.5]) == "50.0 (0.0)"

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            mean_std([])


class TestRunReport:
    def seed_runs(self):
        run1 = records(("positive", "positive"), ("negative", "negative"), ("negative", "positive"))
        run2 = records(("positive", "positive"), ("negative", "positive"), ("negative", "positive"))
        run3 = records(("positive", "negative"), ("negative", "negative"), ("negative", "negative"))
        return [run1, run2, run3]

    def test_report_recomputes_from_records(self):
        runs = self.seed_runs()
        from negmtl.training import majority_vote

        voted = majority_vote(runs)
        report = build_run_report(runs, voted)
        assert isinstance(report, RunReport)
        assert report.per_seed_accuracies == pytest.approx((2 / 3, 1 / 3, 2 / 3))
        mean, std = mean_std(report.per_seed_accuracies)
        assert report.mean_accuracy == pytest.approx(mean)
        assert report.std_accuracy == pytest.approx(std)
        # vote: d0 P/P/N -> P (gold P, hit); d1 N/P/N -> N (hit); d2 P/P/N -> P (miss)
        assert report.ensemble_accuracy == pytest.approx(2 / 3)
        assert report.ensemble_confusion.total == 3

    def test_json_discloses_population_std(self):
        runs = self.seed_runs()
        from negmtl.training import majority_vote

        obj = build_run_report(runs, majority_vote(runs)).to_json_obj()
        assert obj["std_kind"] == "population"
        assert obj["formatted"].endswith(")")
        assert len(obj["per_seed_confusions"]) == 3

    def test_text_rendering_mentions_seed_count(self):
        runs = self.seed_runs()
        from negmtl.training import majority_vote

        text = build_run_report(runs, majority_vote(runs)).format_text()
        assert "3 seeds" in text
        assert "ensemble" in text


class TestStatsReport:
    def test_rendering(self):
        stats = CorpusStats(
            {
                "train": SplitStats(3, 5, {"positive": 2, "negative": 3}),
                "dev": SplitStats(0, 0, {}),
            }
        )
        text = stats_report(stats)
        lines = text.splitlines()
        assert lines[0].split() == ["split", "documents", "structures", "in", "positive", "docs", "in", "negative", "docs"]
        assert lines[2].split() == ["train", "3", "5", "2", "3"]
        assert lines[3].split() == ["dev", "0", "0", "0", "0"]
