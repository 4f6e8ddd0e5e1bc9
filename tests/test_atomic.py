"""Artifact writers replace their target atomically: a write that fails
part-way leaves the old file byte-identical and no temporary file."""

import builtins
import errno

import numpy as np
import pytest

from negmtl import atomic, cli
from negmtl.atomic import atomic_open
from negmtl.corpus import build_vocab
from negmtl.evaluation import PredictionRecord, write_predictions
from negmtl.models import ModelParams
from negmtl.training import Checkpoint, TrainConfig, save_checkpoint
from test_training import sentiment_corpus


class _FailingFile:
    """Passes the first ``budget`` bytes through, then fails like a full disk."""

    def __init__(self, fh, budget: int):
        self.fh = fh
        self.budget = budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


def _failing_open(*args, **kwargs):
    return _FailingFile(builtins.open(*args, **kwargs), budget=20)


@pytest.fixture
def failing_writes(monkeypatch):
    monkeypatch.setattr(atomic, "open", _failing_open, raising=False)


def checkpoint():
    train, _ = sentiment_corpus()
    vocab = build_vocab(train, 1, False)
    params = ModelParams.init(len(vocab), 4, 3, np.random.default_rng(0), with_negation_head=False)
    return Checkpoint.from_model(params, vocab, TrainConfig(embedding_dim=4, hidden_dim=3))


WRITERS = {
    "save_checkpoint": lambda d: save_checkpoint(checkpoint(), d / "checkpoint.bin"),
    "write_predictions": lambda d: write_predictions(
        [PredictionRecord(f"doc{i}", "positive", "negative") for i in range(5)],
        d / "predictions.jsonl",
    ),
    # the CLI's writes, each through ``cli._Outputs``; the keys stay the
    # tests' ids
    "_write_jsonl": lambda d: cli._Outputs(d).jsonl(
        "metrics.jsonl", [{"epoch": i, "dev_accuracy": 0.5} for i in range(5)]
    ),
    "_write_manifest": lambda d: cli._Outputs(d).manifest("train", options={"x": 1}),
    # stats.txt of ``stats``; relative.csv of ``eval --compare``
    "_write_text": lambda d: cli._Outputs(d).text("stats.txt", "split  docs\n" * 8),
    # report.json of ``train`` and ``eval``, gradcheck.json of ``gradcheck``
    "_write_json": lambda d: cli._Outputs(d).json("report.json", {"accuracy": 0.5, "n": list(range(9))}),
}
TARGETS = {
    "save_checkpoint": "checkpoint.bin",
    "write_predictions": "predictions.jsonl",
    "_write_jsonl": "metrics.jsonl",
    "_write_manifest": "manifest.json",
    "_write_text": "stats.txt",
    "_write_json": "report.json",
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file(tmp_path, failing_writes, writer):
    target = tmp_path / TARGETS[writer]
    old = b"old artifact, written by an earlier run\n" * 3
    target.write_bytes(old)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](tmp_path)
    assert target.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_successful_write_replaces_old_file(tmp_path, writer):
    target = tmp_path / TARGETS[writer]
    target.write_bytes(b"old")
    WRITERS[writer](tmp_path)
    assert target.read_bytes() != b"old"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def _stats_argv(tmp_path):
    train = tmp_path / "train.jsonl"
    train.write_text('{"id": "a", "domain": "x", "label": "positive", "sentences": [{"tokens": ["ok"]}]}\n')
    return ["stats", "--train", str(train)]


def _eval_argv(tmp_path):
    pred, compare = tmp_path / "pred.jsonl", tmp_path / "compare.jsonl"
    for path, flip in ((pred, False), (compare, True)):
        write_predictions(
            [PredictionRecord(f"d{i}", "positive" if i % 2 else "negative", "positive" if flip else "negative")
             for i in range(4)],
            path,
        )
    return ["eval", "--pred", str(pred), "--compare", str(compare)]


@pytest.mark.parametrize("argv, target", [(_stats_argv, "stats.txt"), (_eval_argv, "report.json")])
def test_failed_command_keeps_old_artifact(tmp_path, capsys, argv, target):
    argv = argv(tmp_path)  # inputs are written before writes start failing
    out = tmp_path / "out"
    out.mkdir()
    old = b"old artifact, written by an earlier run\n" * 3
    (out / target).write_bytes(old)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atomic, "open", _failing_open, raising=False)
        assert cli.main([*argv, "--out", str(out)]) == 1
    assert "No space left" in capsys.readouterr().err
    assert (out / target).read_bytes() == old
    assert [p.name for p in out.iterdir()] == [target]


def test_exception_in_block_removes_temporary(tmp_path):
    target = tmp_path / "a.txt"
    with pytest.raises(KeyError):
        with atomic_open(target) as fh:
            fh.write("partial")
            raise KeyError("boom")
    assert list(tmp_path.iterdir()) == []


def test_text_is_utf8_and_binary_is_raw(tmp_path):
    with atomic_open(tmp_path / "t.txt") as fh:
        fh.write("niño\n")
    with atomic_open(tmp_path / "b.bin", binary=True) as fh:
        fh.write(b"\x00\xff")
    assert (tmp_path / "t.txt").read_bytes() == "niño\n".encode("utf-8")
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"

