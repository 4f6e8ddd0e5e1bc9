import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negmtl import autodiff as ad
from negmtl import atomic, cli, training
from negmtl.autodiff import Tensor
from negmtl.cli import main
from negmtl.corpus import ParseError, parse_corpus
from negmtl.evaluation import EvaluationError, read_predictions, write_predictions
from negmtl.models import ModelParams
from oracles import mul


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
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "blas_threads": {
                var: os.environ.get(var)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        }
        metrics = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [m["epoch"] for m in metrics] == [1, 2]

    def test_manifest_records_the_blas_thread_variables(self, corpus, tmp_path, monkeypatch):
        train, dev = corpus
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert main(["train", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None,
        }

    @pytest.mark.parametrize("mode", ["stl", "mtl"])
    def test_writes_the_dev_predictions_of_train_seed(self, corpus, tmp_path, mode):
        train, dev = corpus
        out = tmp_path / "run"
        argv = ["train", "--mode", mode, "--train", str(train), "--dev", str(dev), "--out", str(out)]
        assert main([*argv, *SMALL, "--set", "seed=2"]) == 0
        config = training.TrainConfig.from_dict(json.loads((out / "manifest.json").read_text())["config"])
        run = training.train_seed(config, parse_corpus(train), parse_corpus(dev))
        write_predictions(run.dev_predictions, tmp_path / "expected.jsonl")
        assert (out / "preds/seed-2.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()

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
        assert not out.exists()

    def test_non_finite_loss_fails_before_artifacts(self, corpus, tmp_path, monkeypatch, capsys):
        sentiment_loss = training.sentiment_loss

        def nan_loss(*args, **kwargs):
            return mul(sentiment_loss(*args, **kwargs), Tensor(np.array(np.nan)))

        monkeypatch.setattr(training, "sentiment_loss", nan_loss)
        train, dev = corpus
        out = tmp_path / "run"
        rc = main(["train", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epoch 1, sentiment phase: loss is nan")
        for name in ("checkpoint.bin", "metrics.jsonl", "manifest.json"):
            assert not (out / name).exists(), name
        assert not out.exists()

    def test_non_finite_parameter_fails_before_artifacts(self, corpus, tmp_path, monkeypatch, capsys):
        # an inf gradient behind a finite loss on the last step of epoch 1
        apply_updates, steps = training.apply_updates, []

        def poisoned(state, params, names):
            steps.append(names)
            if len(steps) == 6:  # one step per training document
                params["out.b"].grad[0] = np.inf
            return apply_updates(state, params, names)

        monkeypatch.setattr(training, "apply_updates", poisoned)
        train, dev = corpus
        out = tmp_path / "run"
        with np.errstate(invalid="ignore"):
            rc = main(["train", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: epoch 1: parameter 'out.b' holds a non-finite value after the updates"
        ]
        for name in ("checkpoint.bin", "metrics.jsonl", "manifest.json"):
            assert not (out / name).exists(), name
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 17.5 TiB for an array", ""], ids=["numpy", "bare"])
    def test_out_of_memory_prints_one_error(self, corpus, tmp_path, monkeypatch, capsys, message):
        # as a huge embedding_dim would fail; allocating it for real could
        # succeed under overcommit and then exhaust the machine
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(ModelParams, "init", refuse)
        train, dev = corpus
        out = tmp_path / "run"
        rc = main(["train", "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL])
        assert rc == 1
        want = f"error: out of memory ({message})" if message else "error: out of memory"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not out.exists()

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
        monkeypatch.setattr(training, "fit_bow", lambda xs, ys, c, gram=None: fit(xs, ys, c, max_iters=0, gram=gram))
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


    def test_repeated_c_values_print_one_error(self, corpus, tmp_path, capsys):
        train, dev = corpus
        out = tmp_path / "x"
        argv = ["train", "--mode", "bow", "--set", "bow_c_grid=[1,1.0]",
                "--train", str(train), "--dev", str(dev), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: bow_c_grid must be distinct, got [1, 1.0]"]
        assert not out.exists()

    def test_seeds_flag_is_rejected(self, corpus, tmp_path, capsys):
        # train runs the config's seed; a --seeds list would be ignored
        train, dev = corpus
        argv = ["train", "--seeds", "7", "--train", str(train), "--dev", str(dev),
                "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seeds 7" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestEnsemble:
    @pytest.mark.parametrize(
        "seeds, message",
        [
            ("1,1,1", "seeds must be distinct, got [1, 1, 1]"),
            ("1,x", "--seeds expects comma-separated integers, got '1,x'"),
            ("", "seeds must be non-empty and >= 0, got []"),
        ],
    )
    def test_bad_seed_list_prints_one_error(self, corpus, tmp_path, capsys, seeds, message):
        train, dev = corpus
        rc = main([
            "ensemble", "--train", str(train), "--dev", str(dev),
            "--out", str(tmp_path / "e"), "--seeds", seeds, *SMALL,
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "e").exists()

    def test_unlabeled_test_split_fails_before_training(self, corpus, tmp_path, capsys):
        train, dev = corpus
        test = tmp_path / "test.jsonl"
        write_jsonl(test, [doc("te-0", None, [("good fun", [])])])
        out = tmp_path / "e"
        rc = main([
            "ensemble", "--mode", "stl", "--seeds", "1,2,3", "--train", str(train), "--dev", str(dev),
            "--test", str(test), "--out", str(out), *SMALL,
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: test document 'te-0' has no sentiment label"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--set", "mode=bow", "--seeds", "1"], "ensemble supports stl and mtl modes, got 'bow'"),
            (["--mode", "stl", "--seeds", "1", "--test", "UNLABELED"], "test document 'te-0' has no sentiment label"),
            (["--mode", "stl", "--seeds", "1,2"], "ensemble needs an odd seed count, got 2"),
        ],
        ids=["bow", "unlabeled-test", "even-seeds"],
    )
    def test_rejected_ensemble_leaves_no_output_directory(self, corpus, tmp_path, capsys, flags, message):
        train, dev = corpus
        test = tmp_path / "test.jsonl"
        write_jsonl(test, [doc("te-0", None, [("good fun", [])])])
        flags = [str(test) if f == "UNLABELED" else f for f in flags]
        out = tmp_path / "e"
        rc = main(["ensemble", "--train", str(train), "--dev", str(dev), "--out", str(out), *flags, *SMALL])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_mode_flag_offers_only_neural_modes(self, corpus, tmp_path, capsys):
        train, dev = corpus
        with pytest.raises(SystemExit) as exit_info:
            main(["ensemble", "--mode", "bow", "--train", str(train), "--dev", str(dev),
                  "--out", str(tmp_path / "e")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bow'" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

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


@pytest.mark.parametrize("defect", ["json", "label", "utf8"])
@pytest.mark.parametrize("command", ["train", "stats", "predict"])
def test_corpus_errors_name_their_file(command, defect, corpus, tmp_path, capsys):
    """A bad corpus file, read next to a good one, fails with one
    ``error:`` line that names the bad file."""
    train, dev = corpus
    bad = tmp_path / "bad.jsonl"
    if defect == "json":
        bad.write_text('{"id": "a",\n')
        where = f"{bad}: line 1: invalid JSON"
    elif defect == "utf8":
        bad.write_bytes(dev.read_bytes() + b'{"id": "\xff"}\n')
        where = f"{bad}: line 3: byte 0xff is not UTF-8 (invalid start byte)"
    else:
        write_jsonl(bad, [doc("a", "neutral", [("so so", [])])])
        where = f"{bad}: document 'a': label must be one of"
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--train", str(train), "--dev", str(bad), "--out", str(out), *SMALL]
    elif command == "stats":
        argv = ["stats", "--train", str(train), "--dev", str(bad)]
    else:
        run = tmp_path / "run"
        assert main(["train", "--train", str(train), "--dev", str(dev), "--out", str(run), *SMALL]) == 0
        capsys.readouterr()
        argv = ["predict", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(bad),
                "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {where}"), err
    assert not out.exists()


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

    @pytest.mark.parametrize("name, value", [("out.b", np.nan), ("embedding.weights", np.inf)])
    def test_non_finite_checkpoint_prints_one_error(self, corpus, tmp_path, capsys, name, value):
        train, dev = corpus
        run = tmp_path / "run"
        main(["train", "--train", str(train), "--dev", str(dev), "--out", str(run), *SMALL])
        path = run / "checkpoint.bin"
        # save_checkpoint refuses a non-finite array: write the value into
        # the file, at entry 1 of the parameter's blob
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<Q", raw, 8)
        manifest = json.loads(raw[16 : 16 + header_len])["manifest"]
        offset = next(e["offset"] for e in manifest if e["name"] == name)
        struct.pack_into("<f", raw, 16 + header_len + offset + 4, value)
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        rc = main(["predict", "--checkpoint", str(path), "--data", str(dev), "--out", str(tmp_path / "p")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: parameter {name!r} holds a non-finite value"
        ]
        assert not (tmp_path / "p" / "predictions.jsonl").exists()

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

    @pytest.mark.parametrize(
        "other, message",
        [
            ([("x", "negative"), ("z", "negative")], "document 'y' is in {a} but not in {b}"),
            ([("x", "negative"), ("y", "negative"), ("z", "positive")], "document 'z' is in {b} but not in {a}"),
            ([("y", "negative"), ("x", "positive")], "document 'x' has gold 'negative' in {a} but 'positive' in {b}"),
        ],
        ids=["missing", "extra", "other-gold"],
    )
    def test_compare_needs_the_same_documents(self, tmp_path, capsys, other, message):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.write_preds(a, [{"id": i, "gold": "negative", "pred": "negative"} for i in ("x", "y")])
        self.write_preds(b, [{"id": i, "gold": g, "pred": "positive"} for i, g in other])
        assert main(["eval", "--pred", str(a), "--compare", str(b), "--out", str(tmp_path / "r")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: " + message.format(a=a, b=b)]
        assert captured.out == ""
        assert not (tmp_path / "r").exists()

    def test_compare_accepts_another_order(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.write_preds(a, [{"id": i, "gold": "negative", "pred": "negative"} for i in ("x", "y")])
        self.write_preds(b, [{"id": i, "gold": "negative", "pred": "positive"} for i in ("y", "x")])
        assert main(["eval", "--pred", str(a), "--compare", str(b)]) == 0

    @pytest.mark.parametrize("flag", ["--pred", "--compare"])
    def test_repeated_id_rejected(self, tmp_path, capsys, flag):
        good, repeated = tmp_path / "good.jsonl", tmp_path / "repeated.jsonl"
        self.write_preds(good, [{"id": "x", "gold": "negative", "pred": "negative"}])
        self.write_preds(repeated, [
            {"id": "x", "gold": "negative", "pred": "negative"},
            {"id": "y", "gold": "negative", "pred": "negative"},
            {"id": "x", "gold": "negative", "pred": "positive"},
        ])
        files = [repeated, good] if flag == "--pred" else [good, repeated]
        assert main(["eval", "--pred", str(files[0]), "--compare", str(files[1])]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {repeated}: line 3: document 'x' repeats line 1"]

    @pytest.mark.parametrize("flag", ["--pred", "--compare"])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, flag):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        self.write_preds(good, [{"id": "x", "gold": "negative", "pred": "negative"}])
        bad.write_bytes(good.read_bytes() + b'{"id": "\xff"}\n')
        files = [bad, good] if flag == "--pred" else [good, bad]
        assert main(["eval", "--pred", str(files[0]), "--compare", str(files[1])]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {bad}: line 2: byte 0xff is not UTF-8 (invalid start byte)"]
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--pred", "--compare"])
    def test_empty_file_is_named(self, tmp_path, capsys, flag):
        good, empty = tmp_path / "good.jsonl", tmp_path / "empty.jsonl"
        self.write_preds(good, [{"id": "x", "gold": "negative", "pred": "negative"}])
        empty.write_text("")
        args = ["--pred", str(empty)] if flag == "--pred" else ["--pred", str(good), "--compare", str(empty)]
        assert main(["eval", *args, "--out", str(tmp_path / "r")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {empty}: cannot score an empty prediction list"]
        assert captured.out == ""
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("bad_id", [5, None, ""], ids=["int", "null", "empty"])
    def test_bad_id_is_named(self, tmp_path, capsys, bad_id):
        p = tmp_path / "p.jsonl"
        self.write_preds(p, [
            {"id": "a", "gold": "positive", "pred": "positive"},
            {"id": bad_id, "gold": "negative", "pred": "positive"},
        ])
        assert main(["eval", "--pred", str(p), "--out", str(tmp_path / "r")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {p}: line 2: bad prediction record (id must be a non-empty string, got {bad_id!r})"
        ]
        assert captured.out == ""
        assert not (tmp_path / "r").exists()

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

    @pytest.mark.parametrize(
        "component, leaf",
        [("layers", "embedding.weights"), ("crf", "emissions"), ("sentiment", "out.w"),
         ("negation", "crf.transitions")],
        ids=["layers", "crf", "sentiment", "negation"],
    )
    def test_injected_bug_fails(self, tmp_path, capsys, component, leaf):
        # the bug cuts one checked leaf out of the tape, so its entries fail
        def run(*flags):
            out = tmp_path / "-".join(("gc",) + flags)
            status = main(["gradcheck", "--component", component, "--out", str(out), *flags])
            (row,) = json.loads((out / "gradcheck.json").read_text())["components"]
            return status, row

        status, row = run()
        assert status == 0 and row["passed"]
        status, row = run("--inject-bug")
        assert status == 1 and not row["passed"]
        assert row["worst"].startswith(leaf + "[")
        assert capsys.readouterr().out.splitlines()[-1] == "gradient check: FAIL"

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_component_selector(self, capsys):
        assert main(["gradcheck", "--component", "layers"]) == 0
        out = capsys.readouterr().out
        assert "layers" in out and "sentiment" not in out

    def test_each_component_checks_exactly_its_groups(self):
        groups = ModelParams.init(7, 4, 3, np.random.default_rng(0), with_negation_head=True).parameter_groups()
        subsets = {name: list(case()[1]) for name, case in cli._gradcheck_cases(1, inject_bug=False).items()}
        assert subsets == {
            "layers": groups["shared"] + ["emission.w", "emission.b"],
            "crf": ["emissions", "crf.transitions"],
            "sentiment": groups["shared"] + groups["sentiment"],
            "negation": groups["shared"] + groups["negation"],
        }

    def test_report_artifact(self, tmp_path):
        assert main(["gradcheck", "--component", "crf", "--out", str(tmp_path / "gc")]) == 0
        report = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
        assert report["passed"] is True
        assert report["components"][0]["component"] == "crf"
        assert report["components"][0]["max_rel_err"] < 1e-4


# ---------------------------------------------------------------------------
# Manifests: ``outputs`` names exactly the files a run writes, in write order


def _predict_argv(train, dev, tmp_path, out):
    run = tmp_path / "run"
    assert main(["train", "--mode", "mtl", "--train", str(train), "--dev", str(dev), "--out", str(run), *SMALL]) == 0
    return ["predict", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(dev), "--out", str(out), "--tags"]


def _eval_argv(train, dev, tmp_path, out):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path, pred in ((a, "positive"), (b, "negative")):
        write_jsonl(path, [{"id": i, "gold": "negative", "pred": pred} for i in ("x", "y")])
    return ["eval", "--pred", str(a), "--compare", str(b), "--out", str(out)]


def _train_argv(mode):
    return lambda train, dev, tmp_path, out: [
        "train", "--mode", mode, "--train", str(train), "--dev", str(dev), "--out", str(out), *SMALL
    ]


NEURAL_OUTPUTS = ["checkpoint.bin", "metrics.jsonl", "preds/seed-1.jsonl", "report.json"]
COMMAND_FORMS = {
    "stats": (
        lambda train, dev, tmp_path, out: ["stats", "--train", str(train), "--dev", str(dev), "--out", str(out)],
        ["stats.txt"],
    ),
    "train-stl": (_train_argv("stl"), NEURAL_OUTPUTS),
    "train-mtl": (_train_argv("mtl"), NEURAL_OUTPUTS),
    "train-bow": (_train_argv("bow"), ["metrics.jsonl", "preds/seed-1.jsonl", "report.json"]),
    "ensemble": (
        lambda train, dev, tmp_path, out: [
            "ensemble", "--mode", "mtl", "--seeds", "1,2,3", "--train", str(train), "--dev", str(dev),
            "--test", str(dev), "--out", str(out), *SMALL,
        ],
        [
            *(name for s in (1, 2, 3)
              for name in (f"preds/seed-{s}.jsonl", f"checkpoints/seed-{s}.bin", f"preds/test-seed-{s}.jsonl")),
            "preds/ensemble.jsonl", "preds/test-ensemble.jsonl", "metrics.jsonl", "report.json",
        ],
    ),
    "predict": (_predict_argv, ["predictions.jsonl", "tags.jsonl"]),
    "eval": (_eval_argv, ["report.json", "relative.csv"]),
    "gradcheck": (lambda train, dev, tmp_path, out: ["gradcheck", "--out", str(out)], ["gradcheck.json"]),
}


@pytest.mark.parametrize("form", list(COMMAND_FORMS))
def test_manifest_lists_exactly_the_files_written(form, corpus, tmp_path, monkeypatch):
    argv, expected = COMMAND_FORMS[form]
    out = tmp_path / "out"
    argv = argv(*corpus, tmp_path, out)
    opened = []

    def recording_open(file, *args, **kwargs):
        tmp = Path(file)  # ``.<name>.<hex>.tmp``, next to its target
        opened.append((tmp.parent / tmp.name[1:].rsplit(".", 2)[0]).relative_to(out).as_posix())
        return open(file, *args, **kwargs)

    monkeypatch.setattr(atomic, "open", recording_open, raising=False)
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert manifest["outputs"] == expected
    assert opened == [*expected, "manifest.json"]
    assert on_disk == sorted(opened)


# ---------------------------------------------------------------------------
# Fuzzed inputs: exit 0, or exit 1 with one error line; never a traceback


# what a JSON value may turn into: null, bool, float, string, nested, huge and negative ints
RETYPED = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from([[], {}, [[0]], [None], {"cue": [0]}, [True, 1]]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**30, -(10**30), 2**63, -1]),
)
VALID_CORPUS = [
    doc("a1", "positive", [("not a bad movie", [{"cue": [0], "scope": [1, 2, 3]}]), ("fun", [])]),
    doc("a2", "negative", [("never good", [{"cue": [0], "scope": [1]}])]),
]


def _paths(node, prefix=()):
    """Every key or index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_corpora(draw):
    records = copy.deepcopy(VALID_CORPUS)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(records))
        if not paths:
            break
        *where, key = draw(st.sampled_from(paths))
        parent = records
        for step in where:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(RETYPED))  # later steps may edit it
    return records


def _one_error_or_success(rc: int, err: str):
    if rc == 0:
        assert err == ""
    else:
        assert rc == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@settings(max_examples=300, deadline=None)
@given(mutated_corpora())
def test_mutated_corpus_lines_never_escape(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["stats", "--train", path])
    _one_error_or_success(rc, err.getvalue())


CONFIG_KEYS = [f.name for f in dataclasses.fields(training.TrainConfig)]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=4)),
    st.one_of(RETYPED.map(json.dumps), st.lists(RETYPED, max_size=3).map(json.dumps), st.text(max_size=6)),
)
def test_set_values_never_escape(key, raw):
    """A ``--set`` value, JSON or bare, builds a config or is one of the
    errors ``main`` prints as a single ``error:`` line."""
    args = argparse.Namespace(config=None, mode=None, seeds=None, overrides=[f"{key}={raw}"])
    try:
        config = cli._effective_config(args)
    except cli._USER_ERRORS as e:
        assert str(e) and "\n" not in str(e)  # main prints it as one error: line
    else:
        assert isinstance(config, training.TrainConfig)


# Beyond Python's 4300-digit limit on converting a string to an int:
# json.loads raises a plain ValueError for it, not a JSONDecodeError.
HUGE_INT = "7" * 5000


@pytest.mark.parametrize("site", ["corpus", "predictions", "checkpoint", "config", "config-syntax", "set"])
def test_undecodable_json_fails_with_the_sites_own_error(site, corpus, tmp_path, capsys):
    """Each JSON decode site raises its module's error, naming the file,
    line or key, and ``main`` prints it as one ``error:`` line.  A config
    file with a syntax error fails the same way."""
    train, dev = corpus
    bad = tmp_path / "bad"
    out = ["--out", str(tmp_path / "out")]
    train_args = ["--train", str(train), "--dev", str(dev), *out]
    if site == "corpus":
        bad.write_text(train.read_text() + f'{{"id": {HUGE_INT}}}\n')  # line 7
        call, error, where = (lambda: parse_corpus(bad)), ParseError, f"{bad}: line 7: invalid JSON"
        argv = ["stats", "--train", str(bad)]
    elif site == "predictions":
        bad.write_text('{"id": "a", "gold": null, "pred": "positive"}\n' + f'{{"id": {HUGE_INT}}}\n')
        call, error, where = (lambda: read_predictions(bad)), EvaluationError, f"{bad}: line 2: "
        argv = ["eval", "--pred", str(bad)]
    elif site == "checkpoint":
        header = f'{{"version": {HUGE_INT}}}'.encode()
        bad.write_bytes(training.CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header)
        call, error = (lambda: training.load_checkpoint(bad)), training.CheckpointError
        where = f"{bad}: unreadable header"
        argv = ["predict", "--checkpoint", str(bad), "--data", str(dev), *out]
    else:
        if site.startswith("config"):
            bad.write_text('{"epochs": 2,\n}' if site == "config-syntax" else f'{{"epochs": {HUGE_INT}}}')
            flags, where = ["--config", str(bad)], f"{bad}: not a JSON config file"
        else:
            flags, where = ["--set", f"epochs={HUGE_INT}"], "--set epochs: "
        args = cli.build_parser().parse_args(["train", *flags, *train_args])
        call, error = (lambda: cli._effective_config(args)), ValueError
        argv = ["train", *flags, *train_args]
    with pytest.raises(error, match="^" + re.escape(where)):
        call()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {where}"), err
    assert not (tmp_path / "out").exists()
