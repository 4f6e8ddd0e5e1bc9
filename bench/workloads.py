"""The three benchmark workloads: input generators, timed operations and
the output checks that decide whether an operation failed.

Every workload writes its inputs as JSONL files (plus, for ``predict``, a
checkpoint) and the program only ever sees those files.  A workload
runs in *units*; one unit is the smallest repeatable piece of work a
user would wait for (one stl epoch plus one mtl epoch; one stl epoch
plus one bag-of-words fit; or one ``negmtl predict --tags`` call plus
one plain ``negmtl predict`` call).  The operations
report the workload's two timings, ``primary_s`` and ``secondary_s``.

Both training workloads keep their corpus fixed and let the run seed
choose the training seed (initialization, shuffling, dropout): their
cost then does not depend on the seed, while their outputs do.  The
bag-of-words fit in particular runs a data-dependent number of gradient
steps, so a corpus drawn per seed would make its time vary by an order
of magnitude between seeds.  ``predict`` draws its corpus and its model
from the run seed, with sentence lengths on a fixed schedule so that
every seed costs the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probe
from negmtl import cli, training
from negmtl.corpus import Document, NegationStructure, Sentence, build_vocab, parse_corpus
from negmtl.evaluation import read_predictions
from negmtl.models import ModelParams
from negmtl.training import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    predict_corpus,
    save_checkpoint,
    train_bow,
    train_mtl,
    train_stl,
)

# The criterion-5 corpus seed; vocab-train reuses it for its own corpus.
CORPUS_SEED = 1234
EPOCHS = 1  # per training call; patience is at least this, so every epoch runs


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def doc_to_json(doc: Document) -> dict:
    sentences = []
    for sent in doc.sentences:
        obj: dict = {"tokens": list(sent.tokens)}
        if doc.has_negation_annotations:
            obj["negations"] = [
                {"cue": list(n.cue), "scope": list(n.scope)} for n in sent.negations
            ]
        sentences.append(obj)
    return {"id": doc.id, "domain": doc.domain, "label": doc.label, "sentences": sentences}


def write_corpus(docs, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc_to_json(doc), ensure_ascii=False) + "\n")


@dataclass
class Tally:
    """Attempted and failed operations; a failure is an exception or a
    failed output check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def attempt(self, what: str, op, check, around=None, paced=False):
        """Time ``op()`` (inside the ``around`` context, if given), then run
        ``check(result)`` untimed.  Returns the result (None after an
        exception), the elapsed wall seconds and the elapsed seconds at
        nominal speed: the same as the wall seconds, unless ``paced``
        runs the operation under ``probe.Paced``."""
        self.attempted += 1
        result = None
        clock = probe.Paced() if paced else None
        t0 = time.perf_counter()
        try:
            with around or contextlib.nullcontext(), clock or contextlib.nullcontext():
                result = op()
            elapsed = time.perf_counter() - t0
            problems = check(result)
        except Exception as e:  # any exception is a failed operation, not a crash
            elapsed = time.perf_counter() - t0
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        if clock:
            return result, clock.wall, clock.scaled
        return result, elapsed, elapsed


class Workload:
    """Base class: inputs in ``files``, the parsed set-up in ``state``."""

    name = ""
    # the names users know the primary and secondary timings by
    named = ("", "")
    # the unit's operations that the traced run wraps; all of them by default
    traced_ops: tuple[str, ...] | None = None

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.fingerprints: dict = {"corpus_sha256": {}, "checkpoint_sha256": {}, "history": {}}
        self.files: dict[str, Path] = {}
        self.state = None

    def _write(self, name: str, docs):
        path = self.workdir / f"{name}.jsonl"
        write_corpus(docs, path)
        self.files[name] = path
        self.fingerprints["corpus_sha256"][name] = sha256_file(path)

    def run_unit(self, tally: Tally, only=None, around=None, paced=False):
        """Run every operation of one unit (or those named in ``only``).
        Returns {metric: seconds} and the summed wall time of the
        operations, which leaves out their checks.  With ``paced``, each
        operation runs under ``probe.Paced``: the metric is then its time
        at nominal speed and ``<metric>.wall`` its wall time."""
        out = {}
        total = 0.0
        for metric, what, op, check in self.operations():
            if only is None or what in only:
                result, elapsed, scaled = tally.attempt(what, op, check, around, paced)
                out[metric] = self.normalize(what, result, scaled)
                if paced:
                    out[f"{metric}.wall"] = self.normalize(what, result, elapsed)
                total += elapsed
        return out, total

    def probe_shape(self) -> tuple[int, float]:
        """(dims, dropout) of the probe model the per-layer metrics use."""
        cfg = next(iter(self.configs().values()))
        return cfg.embedding_dim, cfg.dropout_p

    def prepare_checks(self):
        """Compute, untimed, what the output checks compare against."""

    def normalize(self, what, result, elapsed) -> float:
        return elapsed

    def named_metrics(self, primary: float, secondary: float) -> dict[str, tuple[float, str]]:
        return {self.named[0]: (primary, "s"), self.named[1]: (secondary, "s")}

    def record(self, kind: str, key: str, value):
        self.fingerprints[kind].setdefault(key, value)


# ---------------------------------------------------------------------------
# training workloads


class _TrainingWorkload(Workload):
    """Subclasses define ``configs()`` and ``with_negation_head``."""

    def setup(self):
        """The timed set-up: parse the inputs, build the vocabulary and
        initialize a model at the workload's shape."""
        cfg = next(iter(self.configs().values()))
        train = parse_corpus(self.files["train"])
        dev = parse_corpus(self.files["dev"])
        vocab = build_vocab(train, cfg.min_count, cfg.lowercase)
        ModelParams.init(
            len(vocab), cfg.embedding_dim, cfg.hidden_dim,
            np.random.default_rng(self.seed), with_negation_head=self.with_negation_head,
        )
        self.state = (train, dev)

    def normalize(self, what, result, elapsed) -> float:
        if what in ("train_stl", "train_mtl"):
            return elapsed / (result.epochs_run if result is not None else EPOCHS)
        return elapsed

    def check_neural(self, what: str, result) -> list[str]:
        problems = []
        if result.epochs_run != EPOCHS:
            problems.append(f"ran {result.epochs_run} of {EPOCHS} epochs")
        for rec in result.history:
            for key, value in rec.items():
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append(f"epoch {rec['epoch']}: {key} is {value}")
        path = self.workdir / f"{what}.bin"
        save_checkpoint(result.checkpoint, path)
        self.record("checkpoint_sha256", what, sha256_file(path))
        self.record("history", what, result.history)
        _, dev = self.state
        reloaded, vocab = load_checkpoint(path).to_model()
        in_memory, _ = result.checkpoint.to_model()
        if predict_corpus(reloaded, vocab, dev) != predict_corpus(in_memory, vocab, dev):
            problems.append("checkpoint reloaded from disk predicts dev differently")
        return problems


class FlipTrain(_TrainingWorkload):
    name = "flip-train"
    named = ("mtl_epoch_s", "stl_epoch_s")
    with_negation_head = True

    def generate(self):
        from synth import scope_flip_corpus  # tests/synth.py, the criterion-5 generator

        rng = np.random.default_rng(CORPUS_SEED)
        n_train, n_dev = (12, 6) if self.tiny else (200, 50)
        self._write("train", scope_flip_corpus(n_train, rng, "tr"))
        self._write("dev", scope_flip_corpus(n_dev, rng, "dv", forms=["flipped", "decoy"]))

    def configs(self):
        dims = 8 if self.tiny else 64
        common = dict(
            seed=self.seed, epochs=EPOCHS, embedding_dim=dims, hidden_dim=dims,
            dropout_p=0.1, learning_rate=0.001, patience=max(20, EPOCHS),
        )
        return {"stl": TrainConfig(mode="stl", **common), "mtl": TrainConfig(mode="mtl", **common)}

    def operations(self):
        train, dev = self.state
        cfg = self.configs()
        return [
            ("secondary_s", "train_stl", lambda: train_stl(cfg["stl"], train, dev),
             lambda r: self.check_neural("train_stl", r)),
            ("primary_s", "train_mtl", lambda: train_mtl(cfg["mtl"], train, dev),
             lambda r: self.check_neural("train_mtl", r)),
        ]


FUNCTION_WORDS = (
    "the", "a", "and", "of", "to", "it", "was", "is", "in", "that",
    "this", "but", "with", "for", "on", "as", "at", "by", "an", "so",
)
POSITIVE_WORDS = ("good", "great", "excellent", "lovely", "superb")
NEGATIVE_WORDS = ("bad", "awful", "poor", "dull", "terrible")
NEGATION_CUES = ("not", "never", "no")


def _tokens(rng: np.random.Generator, length: int, pool: int, function_share: float) -> list[str]:
    """Function words mixed with content words drawn uniformly from a
    pool of ``pool`` distinct forms, so nearly every content token is
    new to the vocabulary."""
    is_function = rng.random(length) < function_share
    function = rng.integers(len(FUNCTION_WORDS), size=length)
    content = rng.integers(pool, size=length)
    return [
        FUNCTION_WORDS[f] if isf else f"w{c}"
        for isf, f, c in zip(is_function, function, content)
    ]


def vocab_corpus(n_docs: int, rng: np.random.Generator, prefix: str) -> list[Document]:
    """Short labelled documents: 2-3 sentences of 12-18 tokens on a fixed
    schedule (independent of the label), one polar keyword per document,
    and content words from a 100k-form pool, so the training vocabulary
    grows almost linearly with the corpus."""
    docs = []
    for i in range(n_docs):
        label = "positive" if i % 2 == 0 else "negative"
        pair = i // 2
        sentences = [
            _tokens(rng, 12 + (3 * pair + s) % 7, 100_000, 0.3) for s in range(2 + pair % 2)
        ]
        k = int(rng.integers(len(sentences)))
        words = POSITIVE_WORDS if label == "positive" else NEGATIVE_WORDS
        sentences[k][int(rng.integers(len(sentences[k])))] = str(rng.choice(words))
        docs.append(
            Document(f"{prefix}-{i}", "synthetic", label,
                     tuple(Sentence(tuple(t), ()) for t in sentences), False)
        )
    return docs


class VocabTrain(_TrainingWorkload):
    name = "vocab-train"
    named = ("stl_epoch_s", "bow_fit_s")
    with_negation_head = False
    traced_ops = ("train_stl",)  # train_bow calls none of the traced names

    def __init__(self, *args):
        super().__init__(*args)
        self.bow_fits: list[tuple[float, int, float]] = []
        self._max_iters = inspect.signature(training.fit_bow).parameters["max_iters"].default
        fit_bow = training.fit_bow

        def recording_fit_bow(xs, ys, c, *a, **k):
            w, b, loss, iters = fit_bow(xs, ys, c, *a, **k)
            self.bow_fits.append((c, iters, loss))
            return w, b, loss, iters

        # train_bow looks fit_bow up in its module, so this sees every fit
        training.fit_bow = recording_fit_bow

    def generate(self):
        rng = np.random.default_rng(CORPUS_SEED)
        n_train, n_dev = (12, 6) if self.tiny else (100, 40)
        self._write("train", vocab_corpus(n_train, rng, "tr"))
        self._write("dev", vocab_corpus(n_dev, rng, "dv"))

    def configs(self):
        dims = 8 if self.tiny else 100
        return {
            "stl": TrainConfig(mode="stl", seed=self.seed, epochs=EPOCHS, patience=max(10, EPOCHS),
                               embedding_dim=dims, hidden_dim=dims),
            "bow": TrainConfig(mode="bow", seed=self.seed),
        }

    def check_bow(self, result) -> list[str]:
        fits, self.bow_fits = self.bow_fits, []
        problems = [
            f"fit_bow at C={c} stopped at max_iters={self._max_iters}"
            for c, iters, _ in fits
            if iters >= self._max_iters
        ]
        problems += [f"fit_bow at C={c} has loss {loss}" for c, _, loss in fits if not math.isfinite(loss)]
        if len(fits) != len(self.configs()["bow"].bow_c_grid):
            problems.append(f"{len(fits)} fits for a grid of {len(self.configs()['bow'].bow_c_grid)}")
        self.record("history", "train_bow", {
            "iterations_by_c": {str(c): iters for c, iters, _ in fits},
            "chosen_c": result.chosen_c,
            "dev_accuracy": result.dev_accuracy,
        })
        return problems

    def operations(self):
        train, dev = self.state
        cfg = self.configs()
        return [
            ("primary_s", "train_stl", lambda: train_stl(cfg["stl"], train, dev),
             lambda r: self.check_neural("train_stl", r)),
            ("secondary_s", "train_bow", lambda: train_bow(cfg["bow"], train, dev), self.check_bow),
        ]


# ---------------------------------------------------------------------------
# predict

# Sentence lengths cycle through this schedule (5-40 tokens, mean 21.5),
# so every seed tags the same number of tokens.
SENTENCE_LENGTHS = (5, 31, 12, 40, 18, 9, 26, 15, 35, 22, 7, 28, 14, 38, 20, 11, 33, 24)


def review_corpus(n_docs: int, rng: np.random.Generator) -> list[Document]:
    """SFU-review-shaped documents: 10 sentences each; two documents in
    three carry negation annotations, where a cue opens a scope that runs
    to the end of a short clause."""
    docs = []
    n = 0
    for i in range(n_docs):
        annotated = i % 3 != 2
        sentences = []
        for _ in range(10):
            length = SENTENCE_LENGTHS[n % len(SENTENCE_LENGTHS)]
            n += 1
            tokens = _tokens(rng, length, 20_000, 0.4)
            negations = ()
            if length >= 3 and rng.random() < 0.3:
                cue = int(rng.integers(length - 1))
                tokens[cue] = str(rng.choice(NEGATION_CUES))
                end = min(length, cue + 2 + int(rng.integers(6)))
                negations = (NegationStructure.make([cue], range(cue + 1, end)),)
            sentences.append(Sentence(tuple(tokens), negations if annotated else ()))
        label = "positive" if i % 2 == 0 else "negative"
        docs.append(Document(f"review-{i}", "synthetic", label, tuple(sentences), annotated))
    return docs


class Predict(Workload):
    name = "predict"
    named = ("predict_tags_call_s", "predict_call_s")
    traced_ops = ("predict --tags",)

    def generate(self):
        """The corpus and a freshly initialized mtl model at the default
        dims (vocabulary: corpus tokens seen at least twice), saved with
        save_checkpoint.  Nothing here is timed."""
        rng = np.random.default_rng(self.seed)
        docs = review_corpus(3 if self.tiny else 20, rng)
        self._write("data", docs)
        dims = 8 if self.tiny else 100
        config = TrainConfig(mode="mtl", seed=self.seed, embedding_dim=dims, hidden_dim=dims)
        vocab = build_vocab(docs, min_count=2)
        params = ModelParams.init(len(vocab), dims, dims, rng, with_negation_head=True)
        path = self.workdir / "checkpoint.bin"
        save_checkpoint(Checkpoint.from_model(params, vocab, config), path)
        self.files["checkpoint"] = path
        self.fingerprints["checkpoint_sha256"]["input"] = sha256_file(path)

    def setup(self):
        """The timed set-up: load the checkpoint, rebuild the model and
        parse the corpus."""
        model, vocab = load_checkpoint(self.files["checkpoint"]).to_model()
        docs = parse_corpus(self.files["data"])
        self.state = (model, vocab, docs)

    def probe_shape(self):
        model, _, _ = self.state
        return model.embedding_dim, TrainConfig().dropout_p

    def named_metrics(self, primary, secondary):
        n_docs = len(self.state[2])
        return {
            **super().named_metrics(primary, secondary),
            "predict_docs_per_s": (n_docs / primary, "1/s"),
        }

    def prepare_checks(self):
        model, vocab, docs = self.state
        self.expected = predict_corpus(model, vocab, docs)

    def _call(self, tags: bool) -> int:
        out = self.workdir / ("out-tags" if tags else "out-plain")
        argv = ["predict", "--checkpoint", str(self.files["checkpoint"]),
                "--data", str(self.files["data"]), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + (["--tags"] if tags else []))

    def _check(self, rc: int, tags: bool) -> list[str]:
        if rc != 0:
            return [f"exit status {rc}"]
        out = self.workdir / ("out-tags" if tags else "out-plain")
        problems = []
        if read_predictions(out / "predictions.jsonl") != self.expected:
            problems.append("predictions.jsonl differs from predict_corpus on the reloaded model")
        if tags:
            _, _, docs = self.state
            lines = (out / "tags.jsonl").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            if [r["id"] for r in records] != [d.id for d in docs]:
                problems.append("tags.jsonl does not list the corpus documents in order")
            for rec, doc in zip(records, docs):
                lengths = [len(s.tokens) for s in doc.sentences]
                if [len(t) for t in rec["tags"]] != lengths:
                    problems.append(f"{doc.id}: tag sequences do not match sentence lengths")
            self.record("history", "tags_sha256", sha256_file(out / "tags.jsonl"))
        return problems

    def operations(self):
        return [
            ("primary_s", "predict --tags", lambda: self._call(True), lambda rc: self._check(rc, True)),
            ("secondary_s", "predict", lambda: self._call(False), lambda rc: self._check(rc, False)),
        ]


WORKLOADS = {w.name: w for w in (FlipTrain, VocabTrain, Predict)}
