"""Optimization and experiment protocol.

Covers Adam, the one neural training loop (``train_neural``: per epoch
an optional negation phase, then the sentiment phase; single-task
training is the multi-task loop without its negation phase), the
seeded 5-run ensemble with majority voting, the bag-of-words logistic
regression baseline, and binary checkpoint serialization.

Determinism contract: (config, seed, corpus) fully determine every
parameter and prediction.  Each run derives three independent RNG
streams (initialization, shuffling, dropout) from its seed, so changing
how one stream is consumed never shifts the others.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import struct
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .atomic import atomic_open
from .autodiff import Tape, Tensor, backward, zero_grads
from .corpus import Document, Vocabulary, build_vocab, to_bio
from .evaluation import PredictionRecord, accuracy
from .models import (
    LABEL_TO_CLASS,
    ModelError,
    ModelParams,
    negation_loss,
    predict_document,
    sentiment_loss,
)


class TrainingError(Exception):
    pass


class OptimizerError(TrainingError):
    pass


class CheckpointError(TrainingError):
    pass


MODES = ("stl", "mtl", "bow")
MTL_SCHEDULES = ("alternating", "warmup_once")


@dataclass(frozen=True)
class TrainConfig:
    """Run configuration; every field is config-file/CLI exposed.

    The neural defaults (dims 100, lr 0.001, 30 epochs, patience 10,
    dropout 0.3) suit the small-corpus scale this tool targets.
    """

    mode: str = "stl"
    seed: int = 1
    epochs: int = 30
    learning_rate: float = 0.001
    embedding_dim: int = 100
    hidden_dim: int = 100  # per direction, both levels
    dropout_p: float = 0.3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    patience: int = 10
    min_count: int = 1
    lowercase: bool = False
    mtl_schedule: str = "alternating"
    bow_c_grid: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        def require(ok: bool, key: str, what: str):
            if not ok:
                raise ValueError(f"{key} must be {what}, got {getattr(self, key)!r}")

        # types first, so the range checks below only ever compare numbers
        for key in ("seed", "epochs", "embedding_dim", "hidden_dim", "patience", "min_count"):
            require(_is_int(getattr(self, key)), key, "an integer")
        for key in ("learning_rate", "dropout_p", "beta1", "beta2", "epsilon"):
            require(_is_real(getattr(self, key)), key, "a finite number")
        require(isinstance(self.lowercase, bool), "lowercase", "true or false")
        require(
            isinstance(self.bow_c_grid, tuple) and all(map(_is_real, self.bow_c_grid)),
            "bow_c_grid", "a list of finite numbers",
        )
        require(isinstance(self.seeds, tuple) and all(map(_is_int, self.seeds)), "seeds", "a list of integers")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mtl_schedule not in MTL_SCHEDULES:
            raise ValueError(f"mtl_schedule must be one of {MTL_SCHEDULES}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.embedding_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embedding_dim and hidden_dim must be >= 1")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if not self.bow_c_grid or any(c <= 0 for c in self.bow_c_grid):
            raise ValueError("bow_c_grid must be non-empty and positive")
        # numpy's SeedSequence takes non-negative seeds only
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-empty and >= 0, got {list(self.seeds)}")

    def to_dict(self) -> dict:
        # JSON-shaped: sequences as lists, so a dict that went through a
        # JSON file compares equal to a freshly produced one
        obj = dataclasses.asdict(self)
        obj["bow_c_grid"] = list(self.bow_c_grid)
        obj["seeds"] = list(self.seeds)
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(obj)
        for key in ("bow_c_grid", "seeds"):
            if isinstance(coerced.get(key), list):
                coerced[key] = tuple(coerced[key])
        return cls(**coerced)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # the comparison is exact for ints of any size and false for nan
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def rng_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Three independent generators per run: (init, shuffle, dropout)."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter moment estimates, lazily allocated by name, plus the
    update's scratch space: two flat buffers sized to the largest
    parameter stepped so far, used through reshaped views, so a step
    allocates nothing once every parameter has been seen."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)
    scratch: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(0), np.empty(0)), repr=False, compare=False
    )

    @classmethod
    def for_config(cls, config: TrainConfig) -> "AdamState":
        return cls(config.learning_rate, config.beta1, config.beta2, config.epsilon)

    def scratch_like(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch views shaped like ``p``, growing the buffers if needed."""
        n = p.size
        if self.scratch[0].size < n:
            self.scratch = (np.empty(n), np.empty(n))
        a, b = self.scratch
        return a[:n].reshape(p.shape), b[:n].reshape(p.shape)


def adam_step(state: AdamState, params: dict[str, Tensor], names: Iterable[str]):
    """One bias-corrected Adam update on the named parameters:
    m̂ = m/(1-β1^t), v̂ = v/(1-β2^t), θ ← θ - lr·m̂/(√v̂ + ε).

    Every operation writes in place (the moments, the parameter, or the
    state's two scratch views ``a`` and ``b``), in this fixed order:
    m ← m·β1 + g·(1-β1); v ← v·β2 + (g·(1-β2))·g; a ← (m/(1-β1^t))·lr;
    b ← √(v/(1-β2^t)) + ε; a ← a/b; θ ← θ - a.  Each step is one
    correctly rounded elementwise operation, so the order alone fixes
    the bits: they equal those of the same formula with temporaries.
    """
    for name in names:
        p = params[name]
        g = p.grad
        if g is None:
            raise OptimizerError(f"parameter {name!r} has no gradient")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        m = state.m[name]
        v = state.v[name]
        a, b = state.scratch_like(p.data)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=a)
        m += a
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=a)
        a *= g
        v += a
        np.divide(m, 1.0 - state.beta1**t, out=a)
        a *= state.lr
        np.divide(v, 1.0 - state.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += state.epsilon
        a /= b
        p.data -= a


def apply_updates(state: AdamState, params: dict[str, Tensor], names: Sequence[str]):
    """Adam step plus the embedding invariant: the padding row never moves."""
    emb = params.get("embedding.weights")
    if emb is not None and emb.grad is not None and "embedding.weights" in names:
        emb.grad[0] = 0.0
    adam_step(state, params, names)


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_MAGIC = b"NEGMTL01"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """Frozen 32-bit snapshot of a model plus everything needed to use it."""

    config: dict
    vocabulary: dict
    arrays: dict[str, np.ndarray]  # float32, manifest order
    version: int = CHECKPOINT_VERSION
    source: str | None = field(default=None, compare=False)  # file it was loaded from

    @classmethod
    def from_model(cls, params: ModelParams, vocab: Vocabulary, config: TrainConfig) -> "Checkpoint":
        arrays = {name: arr.astype(np.float32) for name, arr in params.to_arrays().items()}
        return cls(config.to_dict(), vocab.to_json_obj(), arrays)

    def to_model(self) -> tuple[ModelParams, Vocabulary]:
        """Rebuild the model and its vocabulary; a parameter set or vocabulary
        that cannot form a model, or a NaN or inf, is a ``CheckpointError``."""
        where = self.source or "checkpoint"
        try:
            params = ModelParams.from_arrays(
                {name: arr.astype(np.float64) for name, arr in self.arrays.items()}
            )
            vocab = Vocabulary.from_json_obj(self.vocabulary)
        except (ModelError, ValueError) as e:
            raise CheckpointError(f"{where}: {e}") from e
        for name, arr in self.arrays.items():  # float32: half the bytes to scan
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{where}: parameter {name!r} holds a non-finite value")
        rows = params.embedding.weights.data.shape
        if rows[0] != len(vocab):  # from_arrays checked that it is a matrix
            raise CheckpointError(
                f"{where}: vocabulary of {len(vocab)} tokens (with <pad> and <unk>) "
                f"does not fit embedding.weights of shape {rows}"
            )
        return params, vocab


def save_checkpoint(ckpt: Checkpoint, path):
    """Binary layout: 8-byte magic, little-endian uint64 header length,
    UTF-8 JSON header {version, config, vocabulary, manifest}, then raw
    little-endian float32 blobs at the manifest byte offsets."""
    manifest = []
    offset = 0
    for name, arr in ckpt.arrays.items():
        if arr.dtype != np.float32:
            raise CheckpointError(f"array {name!r} must be float32, got {arr.dtype}")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    header = {
        "version": ckpt.version,
        "config": ckpt.config,
        "vocabulary": ckpt.vocabulary,
        "manifest": manifest,
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with atomic_open(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in ckpt.arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


_HEADER_KEYS = ("version", "config", "vocabulary", "manifest")


def _check_header(path, header) -> list[tuple[str, tuple[int, ...], int, int]]:
    """Validate a decoded checkpoint header before anything reads it.

    Returns (name, shape, offset, byte count) per manifest entry, in
    manifest order, with offsets starting at 0 and each blob starting
    where the previous one ends.
    """
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(map(repr, missing))}")
    version = header["version"]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} (expected {CHECKPOINT_VERSION})"
        )
    for key in ("config", "vocabulary"):
        if not isinstance(header[key], dict):
            raise CheckpointError(f"{path}: header {key!r} is not a JSON object")
    if not isinstance(header["manifest"], list):
        raise CheckpointError(f"{path}: header 'manifest' is not a JSON list")
    tokens = header["vocabulary"].get("tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"{path}: header vocabulary lacks 'tokens', a list of strings")
    if not isinstance(header["vocabulary"].get("lowercase"), bool):
        raise CheckpointError(f"{path}: header vocabulary lacks 'lowercase', a boolean")

    def is_count(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    blobs = []
    seen = set()
    end = 0
    for i, entry in enumerate(header["manifest"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CheckpointError(f"{path}: manifest entry {i} is not an object with a string name")
        name = entry["name"]
        if name in seen:
            raise CheckpointError(f"{path}: manifest names parameter {name!r} twice")
        seen.add(name)
        shape, offset = entry.get("shape"), entry.get("offset")
        if not isinstance(shape, list) or not all(is_count(n) for n in shape):
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {shape!r}, not a list of non-negative integers"
            )
        if not is_count(offset):
            raise CheckpointError(
                f"{path}: parameter {name!r} has offset {offset!r}, not a non-negative integer"
            )
        if offset != end:
            relation = "overlaps the previous blob" if offset < end else "leaves a gap"
            raise CheckpointError(
                f"{path}: parameter {name!r} at offset {offset} {relation} (expected offset {end})"
            )
        n_bytes = math.prod(shape) * 4  # Python ints: a huge shape cannot wrap
        blobs.append((name, tuple(shape), offset, n_bytes))
        end = offset + n_bytes
    return blobs


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    pos = len(CHECKPOINT_MAGIC)
    if len(raw) < pos + 8:
        raise CheckpointError(f"{path}: truncated before header length")
    (header_len,) = struct.unpack_from("<Q", raw, pos)
    pos += 8
    if len(raw) < pos + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header ({e})") from e
    pos += header_len
    blobs = _check_header(path, header)

    body = raw[pos:]
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for name, shape, lo, n_bytes in blobs:
        end = lo + n_bytes
        if end > len(body):
            raise CheckpointError(f"{path}: truncated blob for parameter {name!r}")
        arrays[name] = (
            np.frombuffer(body, dtype="<f4", count=n_bytes // 4, offset=lo)
            .reshape(shape)
            .astype(np.float32)
        )
    if end != len(body):
        raise CheckpointError(f"{path}: {len(body) - end} trailing bytes after parameter blobs")
    return Checkpoint(header["config"], header["vocabulary"], arrays, header["version"], str(path))


# ---------------------------------------------------------------------------
# Shared training plumbing


def _require_labeled(docs: Sequence[Document], split: str):
    if not docs:
        raise TrainingError(f"{split} corpus is empty")
    for doc in docs:
        if doc.label is None:
            raise TrainingError(f"{split} document {doc.id!r} has no sentiment label")


def _encode_docs(vocab: Vocabulary, docs: Sequence[Document]) -> list[list[list[int]]]:
    return [[vocab.encode(s.tokens) for s in doc.sentences] for doc in docs]


def predict_corpus(
    params: ModelParams, vocab: Vocabulary, docs: Sequence[Document]
) -> list[PredictionRecord]:
    """Eval-mode sentiment predictions for every document."""
    records = []
    for doc in docs:
        ids = [vocab.encode(s.tokens) for s in doc.sentences]
        pred = predict_document(params, ids)
        records.append(PredictionRecord(doc.id, doc.label, pred.label))
    return records


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[dict]  # one record per epoch: epoch, task losses, dev accuracy
    best_epoch: int
    best_dev_accuracy: float
    epochs_run: int


class _BestTracker:
    """Keeps the checkpoint of the best dev epoch; earliest epoch wins ties."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_accuracy = -1.0
        self.best_epoch = 0
        self.checkpoint: Checkpoint | None = None
        self._since_best = 0

    def update(self, epoch, dev_accuracy, params, vocab, config) -> bool:
        """Record this epoch; returns True when patience is exhausted."""
        if dev_accuracy > self.best_accuracy:
            self.best_accuracy = dev_accuracy
            self.best_epoch = epoch
            self.checkpoint = Checkpoint.from_model(params, vocab, config)
            self._since_best = 0
        else:
            self._since_best += 1
        return self._since_best >= self.patience


def train_neural(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> TrainResult:
    """Neural training for both modes.  Each epoch runs an optional
    negation phase, then the sentiment phase, then a dev evaluation.

    The negation phase (mtl only; every epoch with
    ``mtl_schedule="alternating"``, the first epoch only with
    ``"warmup_once"``) takes one Adam step per sentence on the CRF loss
    over the shared and negation parameters.  The sentiment phase takes
    one Adam step per document over the shared and sentiment
    parameters.  Selection keeps the best dev sentiment accuracy; early
    stop on patience.  A non-finite training loss is a ``TrainingError``
    raised before that example's update.
    """
    if config.mode not in ("stl", "mtl"):
        raise TrainingError(f"neural training supports stl and mtl modes, got {config.mode!r}")
    mtl = config.mode == "mtl"
    _require_labeled(train_docs, "train")
    _require_labeled(dev_docs, "dev")
    if mtl:
        for doc in train_docs:
            if not doc.has_negation_annotations:
                raise TrainingError(
                    f"mtl training needs negation annotations; document {doc.id!r} has none"
                )

    vocab = build_vocab(train_docs, config.min_count, config.lowercase)
    init_rng, shuffle_rng, dropout_rng = rng_streams(config.seed)
    params = ModelParams.init(
        len(vocab), config.embedding_dim, config.hidden_dim, init_rng, with_negation_head=mtl
    )
    named = params.named_parameters()
    groups = params.parameter_groups()
    adam = AdamState.for_config(config)

    train_ids = _encode_docs(vocab, train_docs)
    # (where, model input, gold) per example; ``where`` names it in errors
    documents = [
        (f"document {doc.id!r}", train_ids[d], LABEL_TO_CLASS[doc.label])
        for d, doc in enumerate(train_docs)
    ]
    # negation examples: every sentence, annotated or trivially all-O
    sentences = [
        (f"document {doc.id!r} sentence {s}", train_ids[d][s], [int(t) for t in to_bio(sent)])
        for d, doc in enumerate(train_docs)
        for s, sent in enumerate(doc.sentences)
    ] if mtl else []

    def run_phase(epoch: int, phase: str, examples, names: list[str]) -> float:
        """One shuffled pass, one Adam step per example; the mean loss."""
        loss_fn = negation_loss if phase == "negation" else sentiment_loss
        total = 0.0
        for i in shuffle_rng.permutation(len(examples)):
            where, ids, gold = examples[i]
            zero_grads(named.values())
            with Tape():
                loss = loss_fn(
                    params, ids, gold, train=True, dropout_p=config.dropout_p, rng=dropout_rng
                )
                backward(loss)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(f"epoch {epoch}, {phase} phase: loss is {value} on {where}")
            total += value
            apply_updates(adam, named, names)
        return total / len(examples)

    tracker = _BestTracker(config.patience)
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        record: dict = {"epoch": epoch}
        if mtl:
            record["negation_loss"] = (
                run_phase(epoch, "negation", sentences, groups["shared"] + groups["negation"])
                if config.mtl_schedule == "alternating" or epoch == 1
                else None
            )
        record["sentiment_loss"] = run_phase(
            epoch, "sentiment", documents, groups["shared"] + groups["sentiment"]
        )
        record["dev_accuracy"] = dev_acc = accuracy_of(predict_corpus(params, vocab, dev_docs))
        history.append(record)
        if tracker.update(epoch, dev_acc, params, vocab, config):
            break

    assert tracker.checkpoint is not None
    return TrainResult(tracker.checkpoint, history, tracker.best_epoch, tracker.best_accuracy, len(history))


def train_stl(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> TrainResult:
    """Single-task sentiment training: ``train_neural`` without the negation phase."""
    if config.mode != "stl":
        raise TrainingError(f"train_stl requires mode=stl, got {config.mode!r}")
    return train_neural(config, train_docs, dev_docs)


def train_mtl(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> TrainResult:
    """Multi-task training: ``train_neural`` with the negation phase."""
    if config.mode != "mtl":
        raise TrainingError(f"train_mtl requires mode=mtl, got {config.mode!r}")
    return train_neural(config, train_docs, dev_docs)


def accuracy_of(records: Sequence[PredictionRecord]) -> float:
    return accuracy([r.gold for r in records], [r.pred for r in records])


# ---------------------------------------------------------------------------
# Seeded ensemble


@dataclass
class SeedRun:
    seed: int
    result: TrainResult
    dev_predictions: list[PredictionRecord]
    test_predictions: list[PredictionRecord] | None


@dataclass
class EnsembleResult:
    runs: list[SeedRun]
    dev_vote: list[PredictionRecord]
    test_vote: list[PredictionRecord] | None

    @property
    def dev_accuracies(self) -> list[float]:
        return [accuracy_of(r.dev_predictions) for r in self.runs]


def majority_vote(per_run: Sequence[Sequence[PredictionRecord]]) -> list[PredictionRecord]:
    """Per-document majority over an odd number of prediction lists.

    Votes are counted per document id, so the result is invariant under
    permutation of the runs.
    """
    if len(per_run) % 2 == 0:
        raise TrainingError(f"majority vote needs an odd number of runs, got {len(per_run)}")
    ids = [r.id for r in per_run[0]]
    for run in per_run[1:]:
        if [r.id for r in run] != ids:
            raise TrainingError("prediction lists cover different documents")
    voted = []
    for i, first in enumerate(per_run[0]):
        positive = sum(1 for run in per_run if run[i].pred == "positive")
        label = "positive" if 2 * positive > len(per_run) else "negative"
        voted.append(PredictionRecord(first.id, first.gold, label))
    return voted


def run_ensemble(
    config: TrainConfig,
    train_docs: Sequence[Document],
    dev_docs: Sequence[Document],
    test_docs: Sequence[Document] | None = None,
) -> EnsembleResult:
    """Train one model per seed and majority-vote their predictions.

    Per-seed predictions come from the reloadable 32-bit checkpoint, so
    written prediction files always match what the checkpoint reproduces.
    """
    if len(config.seeds) % 2 == 0:
        raise TrainingError(f"ensemble needs an odd seed count, got {len(config.seeds)}")

    runs = []
    for seed in config.seeds:
        result = train_neural(dataclasses.replace(config, seed=seed), train_docs, dev_docs)
        model, vocab = result.checkpoint.to_model()
        runs.append(
            SeedRun(
                seed,
                result,
                predict_corpus(model, vocab, dev_docs),
                predict_corpus(model, vocab, test_docs) if test_docs is not None else None,
            )
        )

    dev_vote = majority_vote([r.dev_predictions for r in runs])
    test_vote = None
    if test_docs is not None:
        test_vote = majority_vote([r.test_predictions for r in runs])
    return EnsembleResult(runs, dev_vote, test_vote)


# ---------------------------------------------------------------------------
# Bag-of-words logistic regression baseline


@dataclass
class BowModel:
    vocab: Vocabulary
    weights: np.ndarray  # (V,)
    bias: float
    c: float

    def predict(self, doc: Document) -> str:
        return self.predict_features(bow_features(self.vocab, doc))

    def predict_features(self, x: np.ndarray) -> str:
        """Label of one document's ``bow_features`` vector."""
        # sigmoid(z) >= 0.5 iff z >= 0; ties resolve to positive
        return "positive" if float(self.weights @ x + self.bias) >= 0.0 else "negative"


@dataclass
class BowResult:
    model: BowModel
    chosen_c: float
    dev_accuracy: float
    dev_accuracy_by_c: dict[float, float]


def bow_features(vocab: Vocabulary, doc: Document) -> np.ndarray:
    """Token-count vector over the vocabulary; unknown tokens count into
    the unknown bucket."""
    x = np.zeros(len(vocab))
    for sent in doc.sentences:
        for token in sent.tokens:
            x[vocab.lookup(token)] += 1.0
    return x


# gradient 2-norm at which a bag-of-words fit counts as converged
BOW_GRAD_TOL = 1e-6


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def bow_loss_and_grad(
    w: np.ndarray, b: float, xs: np.ndarray, ys: np.ndarray, c: float
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy plus (1/C)·½‖w‖² (bias unregularized)."""
    z = xs @ w + b
    margins = np.where(ys == 1.0, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 / c * (w @ w))
    delta = _sigmoid(z) - ys
    grad_w = xs.T @ delta / len(ys) + w / c
    grad_b = float(delta.mean())
    return loss, grad_w, grad_b


def _bow_direction(
    w: np.ndarray, b: float, xs: np.ndarray, gram: np.ndarray, c: float,
    grad_w: np.ndarray, grad_b: float,
) -> tuple[np.ndarray, float, float]:
    """Newton direction (dw, db) and its slope gᵀd, or the negative
    gradient scaled to the minimum of the quadratic model along it when
    the Newton direction is undefined, non-finite or not a descent one."""
    n = len(xs)
    p = _sigmoid(xs @ w + b)
    s = p * (1.0 - p)
    root = np.sqrt(s / n)
    # A = XᵀSX/n + I/C = RᵀR + I/C with R = diag(root)·X; by Woodbury
    # A⁻¹v = C·(v − Rᵀ(I/C + RRᵀ)⁻¹Rv), one n×n solve for both right sides
    small = np.eye(n) / c + root[:, None] * gram * root[None, :]
    h = xs.T @ s / n
    rhs = np.stack([grad_w, h], axis=1)
    coef = np.linalg.solve(small, root[:, None] * (xs @ rhs))
    u, t = (c * (rhs - xs.T @ (root[:, None] * coef))).T
    sigma = float(s.sum()) / n
    # the bias curvature left after the weights; below 1e-12·Σs/n it is
    # cancellation noise, and it is 0 when every p rounded to 0 or 1
    schur = sigma - float(h @ t)
    if schur > 1e-12 * sigma:
        db = (float(h @ u) - grad_b) / schur
        dw = -u - t * db
        slope = float(grad_w @ dw) + grad_b * db
        if slope < 0.0 and math.isfinite(slope):  # finite only if dw, db are (0·inf is nan)
            return dw, db, slope
    # gᵀHg with H = [[A, h], [hᵀ, Σs/n]]
    xg = xs @ grad_w
    gw_sq = float(grad_w @ grad_w)
    curvature = (
        float(s @ (xg * xg)) / n + gw_sq / c + 2.0 * grad_b * float(h @ grad_w) + sigma * grad_b**2
    )
    g_sq = gw_sq + grad_b**2
    scale = g_sq / curvature if curvature > 0.0 else 1.0
    return -scale * grad_w, -scale * grad_b, -scale * g_sq


def fit_bow(
    xs: np.ndarray,
    ys: np.ndarray,
    c: float,
    init: tuple[np.ndarray, float] | None = None,
    max_iters: int = 100,
    grad_tol: float = BOW_GRAD_TOL,
) -> tuple[np.ndarray, float, float, int]:
    """Damped Newton on the convex objective of ``bow_loss_and_grad``.
    Stops when the gradient 2-norm falls below ``grad_tol``.  Returns
    (w, b, loss, iters), iters counting the steps taken.

    The Newton system is solved in document space: the weight block of
    the Hessian is A = XᵀSX/n + I/C (S the curvatures p(1−p)), inverted
    through Woodbury with one n×n solve per iteration (n documents, never
    V×V), and the bias step comes from the Schur complement
    Σs/n − hᵀA⁻¹h with h = Xᵀs/n.  The step length is picked by Armijo
    backtracking from 1.  An iteration whose Newton direction is
    undefined (every p rounded to 0 or 1 leaves a zero Schur complement),
    non-finite or not a descent direction steps along the negative
    gradient instead.  A step that no backtracking can make decrease the
    loss ends the fit early, unconverged."""
    w = np.zeros(xs.shape[1]) if init is None else init[0].astype(np.float64).copy()
    b = 0.0 if init is None else float(init[1])
    gram = xs @ xs.T
    loss, grad_w, grad_b = bow_loss_and_grad(w, b, xs, ys, c)
    iters = 0
    while iters < max_iters and math.sqrt(float(grad_w @ grad_w) + grad_b**2) >= grad_tol:
        dw, db, slope = _bow_direction(w, b, xs, gram, c, grad_w, grad_b)
        for halvings in range(60):
            step = 0.5**halvings
            w_new = w + step * dw
            b_new = b + step * db
            loss_new, gw_new, gb_new = bow_loss_and_grad(w_new, b_new, xs, ys, c)
            if loss_new <= loss + 1e-4 * step * slope:
                break
        else:
            break  # no step length decreases the loss: stop unconverged
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
        iters += 1
    return w, b, loss, iters


def train_bow(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> BowResult:
    """L2-regularized logistic regression on token counts; C picked by
    dev accuracy over the grid, ties to the smaller C."""
    if config.mode != "bow":
        raise TrainingError(f"train_bow requires mode=bow, got {config.mode!r}")
    _require_labeled(train_docs, "train")
    _require_labeled(dev_docs, "dev")
    vocab = build_vocab(train_docs, config.min_count, config.lowercase)
    if len(vocab) <= 2:
        raise TrainingError("bow training found an empty vocabulary")

    xs = np.stack([bow_features(vocab, doc) for doc in train_docs])
    ys = np.array([float(LABEL_TO_CLASS[doc.label]) for doc in train_docs])
    dev_xs = [bow_features(vocab, doc) for doc in dev_docs]  # built once, scored at every C

    best: BowResult | None = None
    by_c: dict[float, float] = {}
    for c in sorted(config.bow_c_grid):
        w, b, _, iters = fit_bow(xs, ys, c)
        _, grad_w, grad_b = bow_loss_and_grad(w, b, xs, ys, c)
        grad_norm = math.sqrt(float(grad_w @ grad_w) + grad_b**2)
        if not grad_norm < BOW_GRAD_TOL:
            raise TrainingError(
                f"bow fit at C={c} did not converge: gradient norm {grad_norm:.3e} "
                f"after {iters} iterations (tolerance {BOW_GRAD_TOL:g})"
            )
        model = BowModel(vocab, w, b, c)
        dev_acc = accuracy_of(
            [PredictionRecord(d.id, d.label, model.predict_features(x)) for d, x in zip(dev_docs, dev_xs)]
        )
        by_c[c] = dev_acc
        if best is None or dev_acc > best.dev_accuracy:  # strict: earlier (smaller) C wins ties
            best = BowResult(model, c, dev_acc, by_c)
    assert best is not None
    return dataclasses.replace(best, dev_accuracy_by_c=by_c)
