import hashlib
import json
import platform

import numpy as np
import pytest

from negmtl import autodiff as ad
from negmtl import training
from negmtl.autodiff import Tensor
from negmtl.cli import main
from negmtl.evaluation import read_predictions


def write_jsonl(path, docs):
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")


def doc(i, label, sents):
    return {
        "id": i,
        "domain": "toy",
        "label": label,
        "sentences": [{"tokens": t.split(), "negations": n} for t, n in sents],
    }


@pytest.fixture
def corpus(tmp_path):
    train = [
        doc("t1", "positive", [("this film is good fun", [])]),
        doc("t2", "positive", [("not a bad movie", [{"cue": [0], "scope": [1, 2, 3]}])]),
        doc("t3", "negative", [("a bad boring film", [])]),
        doc("t4", "negative", [("never any good moments", [{"cue": [0], "scope": [1, 2, 3]}]), ("sad stuff", [])]),
        doc("t5", "positive", [("great acting and good plot", [])]),
        doc("t6", "negative", [("awful mess", [])]),
    ]
    dev = [
        doc("d1", "positive", [("good fun film", [])]),
        doc("d2", "negative", [("boring bad mess", [])]),
    ]
    train_path = tmp_path / "train.jsonl"
    dev_path = tmp_path / "dev.jsonl"
    write_jsonl(train_path, train)
    write_jsonl(dev_path, dev)
    return train_path, dev_path


SMALL = ["--set", "embedding_dim=4", "--set", "hidden_dim=3", "--set", "epochs=2"]


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestStats:
    def test_prints_table(self, corpus, capsys):
        train, dev = corpus
        assert main(["stats", "--train", str(train), "--dev", str(dev)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("split")
        assert "train  6          2" in out

    def test_empty_split_listed_as_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", "--train", str(empty)]) == 0
        assert "train  0          0" in capsys.readouterr().out

    def test_malformed_file_exits_nonzero_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "domain": "d", "sentences": []}\n')
        assert main(["stats", "--train", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_optional_artifact(self, corpus, tmp_path, capsys):
        train, dev = corpus
        out = tmp_path / "statsout"
        assert main(["stats", "--train", str(train), "--out", str(out)]) == 0
        assert (out / "stats.txt").read_text() == capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "stats"
        assert manifest["inputs"]["train"]["sha256"] == sha(train)


class TestTrain:
    def test_stl_artifacts_and_manifest(self, corpus, tmp_path):
        train, dev = corpus
        out = tmp_path / "run"
        rc = main(["train", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL])
        assert rc == 0
        for name in ("manifest.json", "metrics.jsonl", "checkpoint.bin", "report.json", "preds/seed-1.jsonl"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["embedding_dim"] == 4
        assert manifest["config"]["mode"] == "stl"
        assert manifest["seeds"] == [1]
        assert manifest["inputs"]["train"]["sha256"] == sha(train)
        assert set(manifest["outputs"]) >= {"checkpoint.bin", "metrics.jsonl", "report.json"}
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
        }
        metrics = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [m["epoch"] for m in metrics] == [1, 2]

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        train, dev = corpus
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL]) == 0
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def test_inputs_never_mutated(self, corpus, tmp_path):
        train, dev = corpus
        before = (sha(train), sha(dev))
        main(["train", "--train", str(train), "--dev", str(dev), "--out", str(tmp_path / "r"), *SMALL])
        assert (sha(train), sha(dev)) == before

    def test_mtl_without_annotations_fails_before_artifacts(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        bare = {
            "id": "b1", "domain": "toy", "label": "positive",
            "sentences": [{"tokens": ["fine", "stuff"]}],  # no negations key
        }
        write_jsonl(train, [bare, doc("b2", "negative", [("bad", [])])])
        dev = tmp_path / "dev.jsonl"
        write_jsonl(dev, [doc("d", "positive", [("ok", [])])])
        out = tmp_path / "run"
        rc = main(["train", "--mode", "mtl", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL])
        assert rc == 1
        assert "'b1'" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "manifest.json").exists()

    def test_non_finite_loss_fails_before_artifacts(self, corpus, tmp_path, monkeypatch, capsys):
        sentiment_loss = training.sentiment_loss

        def nan_loss(*args, **kwargs):
            return ad.mul(sentiment_loss(*args, **kwargs), Tensor(np.array(np.nan)))

        monkeypatch.setattr(training, "sentiment_loss", nan_loss)
        train, dev = corpus
        out = tmp_path / "run"
        rc = main(["train", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epoch 1, sentiment phase: loss is nan")
        for name in ("checkpoint.bin", "metrics.jsonl", "manifest.json"):
            assert not (out / name).exists(), name

    def test_bow_prints_chosen_c(self, corpus, tmp_path, capsys):
        train, dev = corpus
        rc = main(["train", "--mode", "bow", "--train", str(train), "--dev", str(dev), "--out", str(tmp_path / "bow")])
        assert rc == 0
        assert "chosen C" in capsys.readouterr().out
        report = json.loads((tmp_path / "bow" / "report.json").read_text())
        assert report["mode"] == "bow"
        assert "chosen_c" in report

    def test_bow_rerun_is_byte_identical(self, corpus, tmp_path):
        train, dev = corpus
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--mode", "bow", "--train", str(train), "--dev", str(dev), "--out", str(out)]) == 0
        for name in ("metrics.jsonl", "report.json", "preds/seed-1.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_unconverged_bow_fit_prints_one_error(self, corpus, tmp_path, monkeypatch, capsys):
        fit = training.fit_bow
        monkeypatch.setattr(training, "fit_bow", lambda xs, ys, c: fit(xs, ys, c, max_iters=0))
        train, dev = corpus
        out = tmp_path / "bow"
        rc = main(["train", "--mode", "bow", "--train", str(train), "--dev", str(dev), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bow fit at C=0.001 did not converge: gradient norm")
        for name in ("metrics.jsonl", "report.json", "manifest.json"):
            assert not (out / name).exists(), name

    def test_config_file_with_cli_override_precedence(self, corpus, tmp_path):
        train, dev = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "bow", "epochs": 9, "embedding_dim": 4, "hidden_dim": 3}))
        out = tmp_path / "run"
        rc = main([
            "train", "--config", str(cfg), "--mode", "stl", "--set", "epochs=2",
            "--train", str(train), "--dev", str(dev), "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "stl"  # flag beats file
        assert manifest["config"]["epochs"] == 2  # --set beats file
        assert manifest["config"]["embedding_dim"] == 4  # file value survives

    def test_bad_override_and_unknown_key(self, corpus, tmp_path, capsys):
        train, dev = corpus
        args = ["--train", str(train), "--dev", str(dev), "--out", str(tmp_path / "x")]
        assert main(["train", "--set", "epochs", *args]) == 1
        assert "key=value" in capsys.readouterr().err
        assert main(["train", "--set", "optimizer=sgd", *args]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, value, message",
        [
            ("set", 'epochs="x"', "epochs must be an integer, got 'x'"),
            ("set", "seeds=3", "seeds must be a list of integers, got 3"),
            ("set", "dropout_p=null", "dropout_p must be a finite number, got None"),
            ("file", {"hidden_dim": True}, "hidden_dim must be an integer, got True"),
        ],
        ids=["epochs-string", "seeds-int", "dropout-null", "file-bool-dim"],
    )
    def test_bad_config_value_prints_one_error(self, corpus, tmp_path, capsys, source, value, message):
        train, dev = corpus
        argv = ["train", "--train", str(train), "--dev", str(dev), "--out", str(tmp_path / "x")]
        if source == "set":
            argv += ["--set", value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(value))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "x").exists()


class TestEnsemble:
    def test_three_seeds_make_four_prediction_files(self, corpus, tmp_path):
        train, dev = corpus
        out = tmp_path / "ens"
        rc = main([
            "ensemble", "--train", str(train), "--dev", str(dev),
            "--out", str(out), "--seeds", "1,2,3", *SMALL,
        ])
        assert rc == 0
        preds = sorted(p.name for p in (out / "preds").iterdir())
        assert preds == ["ensemble.jsonl", "seed-1.jsonl", "seed-2.jsonl", "seed-3.jsonl"]
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == [
            "seed-1.bin", "seed-2.bin", "seed-3.bin",
        ]

    def test_report_recomputable_from_prediction_files(self, corpus, tmp_path):
        train, dev = corpus
        out = tmp_path / "ens"
        main([
            "ensemble", "--train", str(train), "--dev", str(dev),
            "--out", str(out), "--seeds", "1,2,3", *SMALL,
        ])
        report = json.loads((out / "report.json").read_text())
        accs = []
        for seed in (1, 2, 3):
            recs = read_predictions(out / f"preds/seed-{seed}.jsonl")
            accs.append(sum(r.gold == r.pred for r in recs) / len(recs))
        assert report["per_seed_accuracies"] == pytest.approx(accs)
        assert report["mean_accuracy"] == pytest.approx(sum(accs) / 3)
        voted = read_predictions(out / "preds/ensemble.jsonl")
        assert report["ensemble_accuracy"] == pytest.approx(
            sum(r.gold == r.pred for r in voted) / len(voted)
        )
        # the vote itself is re-derivable from the per-seed files
        for i, rec in enumerate(voted):
            votes = [read_predictions(out / f"preds/seed-{s}.jsonl")[i].pred for s in (1, 2, 3)]
            expected = "positive" if votes.count("positive") * 2 > 3 else "negative"
            assert rec.pred == expected

    def test_even_seed_count_rejected(self, corpus, tmp_path, capsys):
        train, dev = corpus
        rc = main([
            "ensemble", "--train", str(train), "--dev", str(dev),
            "--out", str(tmp_path / "e"), "--seeds", "1,2", *SMALL,
        ])
        assert rc == 1
        assert "odd" in capsys.readouterr().err


class TestPredict:
    def test_reproduces_training_dev_predictions(self, corpus, tmp_path):
        train, dev = corpus
        run = tmp_path / "run"
        main(["train", "--train", str(train), "--dev", str(dev), "--out", str(run), *SMALL])
        pred_out = tmp_path / "pred"
        rc = main([
            "predict", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(dev), "--out", str(pred_out),
        ])
        assert rc == 0
        assert read_predictions(pred_out / "predictions.jsonl") == read_predictions(
            run / "preds/seed-1.jsonl"
        )

    def test_unknown_tokens_still_predict(self, corpus, tmp_path):
        train, dev = corpus
        run = tmp_path / "run"
        main(["train", "--train", str(train), "--dev", str(dev), "--out", str(run), *SMALL])
        oov = tmp_path / "oov.jsonl"
        write_jsonl(oov, [doc("z1", None, [("zzz qqq xxyzzy", [])])])
        pred_out = tmp_path / "pred"
        rc = main([
            "predict", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(oov), "--out", str(pred_out),
        ])
        assert rc == 0
        recs = read_predictions(pred_out / "predictions.jsonl")
        assert recs[0].pred in ("positive", "negative")
        assert recs[0].gold is None

    def test_stl_checkpoint_rejects_tag_request(self, corpus, tmp_path, capsys):
        train, dev = corpus
        run = tmp_path / "run"
        main(["train", "--train", str(train), "--dev", str(dev), "--out", str(run), *SMALL])
        rc = main([
            "predict", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(dev), "--out", str(tmp_path / "p"), "--tags",
        ])
        assert rc == 1
        assert "no negation head" in capsys.readouterr().err

    def test_mtl_checkpoint_writes_tags(self, corpus, tmp_path):
        train, dev = corpus
        run = tmp_path / "run"
        main(["train", "--mode", "mtl", "--train", str(train), "--dev", str(dev), "--out", str(run), *SMALL])
        pred_out = tmp_path / "pred"
        rc = main([
            "predict", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(dev), "--out", str(pred_out), "--tags",
        ])
        assert rc == 0
        lines = [json.loads(l) for l in (pred_out / "tags.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["d1", "d2"]
        valid = {"O", "B-CUE", "I-CUE", "B-SCOPE", "I-SCOPE"}
        for line in lines:
            for sent in line["tags"]:
                assert set(sent) <= valid


class TestEval:
    def write_preds(self, path, rows):
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    def test_scores_single_file(self, tmp_path, capsys):
        p = tmp_path / "p.jsonl"
        self.write_preds(p, [
            {"id": "a", "gold": "positive", "pred": "positive"},
            {"id": "b", "gold": "negative", "pred": "positive"},
        ])
        assert main(["eval", "--pred", str(p)]) == 0
        assert "accuracy 0.5000" in capsys.readouterr().out

    def test_compare_writes_relative_csv(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.write_preds(a, [
            {"id": "x", "gold": "negative", "pred": "negative"},
            {"id": "y", "gold": "negative", "pred": "negative"},
        ])
        self.write_preds(b, [
            {"id": "x", "gold": "negative", "pred": "positive"},
            {"id": "y", "gold": "negative", "pred": "negative"},
        ])
        out = tmp_path / "report"
        assert main(["eval", "--pred", str(a), "--compare", str(b), "--out", str(out)]) == 0
        csv = (out / "relative.csv").read_text()
        assert csv.splitlines()[1] == "negative,1,-1"
        report = json.loads((out / "report.json").read_text())
        assert report["relative_confusion"] == [[1, -1], [0, 0]]

    def test_missing_gold_rejected(self, tmp_path, capsys):
        p = tmp_path / "p.jsonl"
        self.write_preds(p, [{"id": "a", "gold": None, "pred": "positive"}])
        assert main(["eval", "--pred", str(p)]) == 1
        assert "gold" in capsys.readouterr().err


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for component in ("layers", "crf", "sentiment", "negation"):
            assert component in out
        assert "max rel err" in out
        assert out.strip().endswith("PASS")

    def test_injected_bug_fails(self, capsys):
        assert main(["gradcheck", "--component", "crf", "--inject-bug"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_component_selector(self, capsys):
        assert main(["gradcheck", "--component", "layers"]) == 0
        out = capsys.readouterr().out
        assert "layers" in out and "sentiment" not in out

    def test_report_artifact(self, tmp_path):
        assert main(["gradcheck", "--component", "crf", "--out", str(tmp_path / "gc")]) == 0
        report = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
        assert report["passed"] is True
        assert report["components"][0]["component"] == "crf"
        assert report["components"][0]["max_rel_err"] < 1e-4
