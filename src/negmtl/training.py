"""Optimization and experiment protocol.

Covers Adam, the one neural training loop (``train_neural``: per epoch
an optional negation phase, then the sentiment phase; single-task
training is the multi-task loop without its negation phase), the one
prediction loop (``predict_corpus``), the per-seed run (``train_seed``)
and the seeded ensemble with majority voting over it, the bag-of-words
logistic regression baseline, and binary checkpoint serialization.

The optimizer owns the training buffers.  ``train_neural`` lays out each
parameter group of the model (shared, sentiment, negation) once, before
the first step, in four flat buffers: parameter values, gradients and
Adam's two moments, each holding the group's parameters back to back.
The tensors' values and gradients are views into them, so ``backward``
accumulates straight into the group's gradient buffer.  Adam runs once
per group over cache-sized blocks, with two block-sized scratch buffers
allocated at the first layout and shared by every group, and clears
each gradient block as it finishes reading it, so a steady-state step
allocates no gradient, and its array work runs per block, not per
parameter.  ``apply_updates`` is the one Adam step; it knows no
parameter by name.  A row-major matrix larger than a block gets blocks
of its own, and a gradient that reached it as the rows of one gather
(the embedding's, after a backward pass) is read and cleared on those
rows only.

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
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .autodiff import Tape, Tensor, backward, zero_grads
from .corpus import Document, Vocabulary, build_vocab, to_bio
from .evaluation import PredictionRecord, accuracy_of
# predict_document is not called here; bench/tracing.py wraps training.predict_document
from .models import (
    LABEL_TO_CLASS,
    ModelError,
    ModelParams,
    negation_loss,
    predict_document,
    predict_documents,
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
        require(self.mode in MODES, "mode", f"one of {MODES}")
        require(self.mtl_schedule in MTL_SCHEDULES, "mtl_schedule", f"one of {MTL_SCHEDULES}")
        for key in ("epochs", "embedding_dim", "hidden_dim", "patience", "min_count"):
            require(getattr(self, key) >= 1, key, ">= 1")
        require(self.learning_rate > 0, "learning_rate", "positive")
        require(0.0 <= self.dropout_p < 1.0, "dropout_p", "in [0, 1)")
        # β = 1 would divide by zero in Adam's bias correction
        require(0.0 <= self.beta1 < 1.0, "beta1", "in [0, 1)")
        require(0.0 <= self.beta2 < 1.0, "beta2", "in [0, 1)")
        require(self.epsilon > 0, "epsilon", "positive")
        # Adam's first step adds ε̂ = ε·√(1-β2) to √v: at +0.0, a row with no gradient divides 0/0
        require(TRAIN_DTYPE(self.epsilon * math.sqrt(1.0 - self.beta2)) > 0, "epsilon",
                f"large enough that epsilon*sqrt(1 - beta2) is nonzero in {np.dtype(TRAIN_DTYPE)}")
        require(bool(self.bow_c_grid) and min(self.bow_c_grid) > 0, "bow_c_grid", "non-empty and positive")
        # a repeated C would be fit twice and scored under one key
        if len(set(self.bow_c_grid)) != len(self.bow_c_grid):
            raise ValueError(f"bow_c_grid must be distinct, got {list(self.bow_c_grid)}")
        # numpy's SeedSequence takes non-negative seeds only
        require(self.seed >= 0, "seed", ">= 0")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-empty and >= 0, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")

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


# Elements per block of the Adam update: a block's six arrays stay in
# cache through all of the update's passes.  One step over vocab-train's
# 662k float32 parameters in two groups, right after the backward pass of
# a short document (so the embedding steps by rows), caches polluted
# between steps, the block sizes taking turns in one process, median of
# 78 steps each, three runs (Xeon, 2 MB L2 per core): blocks of 16k
# elements 1.85, 1.78, 1.83 ms; 32k 1.69, 1.62, 1.65; 64k 1.65, 1.60,
# 1.59; 128k 1.62, 1.53, 1.56; 256k 2.08, 2.05, 2.10.  64k with every
# member stepping densely: 1.74, 1.68, 1.71.  128k's few percent did not
# carry over to whole vocab-train epochs (bench/run.py, two seeds), and
# its scratch buffers add 0.5 MB, so blocks stay at 64k.
ADAM_BLOCK = 1 << 16


class AdamGroup:
    """One parameter group laid out in four flat buffers of one dtype:
    ``data``, ``grad``, ``m`` and ``v``, plus the group's step count
    ``t``.  The members lie back to back in each buffer, in ``names``
    order.  Each member tensor's ``data`` is a view into ``data``,
    column-major for the names in ``column_major`` and row-major for the
    rest, and its gradient view sits at the same offset of ``grad``.
    Every member steps together, so one count serves the bias correction
    of all.

    A step runs over ``blocks``, cut once at layout: at most
    ``ADAM_BLOCK`` elements of the four buffers each.  A row-major
    matrix member larger than a block gets blocks of its own, cut
    between rows, and they step by rows when its gradient carries a row
    record (``Tensor.grad_rows``).  Every other member is packed back to
    back in flat blocks that step densely: a table that fits in one
    block steps faster densely than by rows."""

    def __init__(self, params: dict[str, Tensor], names: Sequence[str], dtype, column_major=()):
        self.names = tuple(names)
        self.t = 0
        spans, size = [], 0
        for name in self.names:
            n = params[name].data.size
            order = "F" if name in column_major else "C"
            spans.append((name, size, n, params[name].data.shape, order))
            size += n
        self._spans = spans
        # data first, rebinding each member as it is copied, so a float64
        # draw is freed before the other three buffers are allocated
        self.data = np.zeros(size, dtype)
        for name, view in self.views(self.data):
            view[...] = params[name].data  # rounds as astype does
            params[name].data = view
        self.grad, self.m, self.v = (np.zeros(size, dtype) for _ in range(3))
        # (name, tensor, gradient view); a fresh gradient view is a clean spare
        self.members = [(name, params[name], view) for name, view in self.views(self.grad)]
        for _, p, view in self.members:
            p.spare = view
        self.blocks = self._cut()

    def _cut(self) -> list:
        """Blocks of at most ``ADAM_BLOCK`` elements, each a tuple
        (data, grad, m, v, rows) of flat views of the block in the four
        buffers and ``rows``.  A row-major matrix member larger than a
        block gets blocks of its own, cut between rows, whose ``rows`` are
        (tensor, gradient, m and v views of the whole member, the block's
        [first row, end row]).  Every other member is packed back to back
        in blocks whose ``rows`` are None."""
        blocks, start = [], 0

        def close(end, rows=None):
            blocks.append((self.data[start:end], self.grad[start:end], self.m[start:end], self.v[start:end], rows))
            return end

        views = zip(self.members, self._spans, self.views(self.m), self.views(self.v))
        for (_, p, g), (_, lo, n, _, _), (_, mk), (_, vk) in views:
            if n > ADAM_BLOCK and g.ndim == 2 and g.flags.c_contiguous and g.shape[1] <= ADAM_BLOCK:
                if start < lo:
                    start = close(lo)
                step = ADAM_BLOCK // g.shape[1]
                for first in range(0, len(g), step):
                    bounds = np.array([first, min(first + step, len(g))])
                    start = close(lo + bounds[1] * g.shape[1], (p, g, mk, vk, bounds))
            while lo + n - start > ADAM_BLOCK:
                start = close(start + ADAM_BLOCK)
        if start < self.data.size:
            close(self.data.size)
        return blocks

    def views(self, buffer: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """(name, view shaped like the parameter) of each member in ``buffer``."""
        return [
            (name, buffer[lo : lo + n].reshape(shape, order=order))
            for name, lo, n, shape, order in self._spans
        ]

    def take_grads(self, params: dict[str, Tensor]):
        """Check that every member has a gradient and make its gradient
        view hold it: a ``grad`` array assigned from outside is copied in,
        the member's ``grad`` rebound to the view and its row record
        dropped."""
        for name, p, view in self.members:
            if params.get(name) is not p:
                raise OptimizerError(f"parameter {name!r} is not the tensor this optimizer laid out")
            g = p.grad
            if g is not view:
                if g is None:
                    raise OptimizerError(f"parameter {name!r} has no gradient")
                view[...] = g
                p.grad, p.spare, p.grad_rows = view, None, None


@dataclass
class AdamState:
    """Adam's hyperparameters and the buffers it owns.

    Parameters are laid out in groups (``AdamGroup``): each group's
    parameter values, gradients and moments live in four flat buffers,
    and the tensors' ``data`` and gradients are views into them.
    ``train_neural`` lays out the model's parameter groups before the
    first step; a step over names that are not laid out yet lays them
    out as one new group.  A step must cover whole groups.  One state
    steps one dtype.  Its two scratch buffers of ``ADAM_BLOCK`` elements
    each are allocated at the first layout and shared by every group.

    The hyperparameters are kept as Python floats: against a float32
    parameter a numpy float64 scalar would promote every update to
    float64."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    groups: list[AdamGroup] = field(default_factory=list, init=False, repr=False, compare=False)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lr, self.beta1, self.beta2, self.epsilon = map(
            float, (self.lr, self.beta1, self.beta2, self.epsilon)
        )

    def layout(
        self, params: dict[str, Tensor], names: Sequence[str], dtype=None, column_major=()
    ) -> AdamGroup:
        """Lay out ``names`` as one new group in ``dtype`` (by default the
        parameters' own, which must then agree), rounding their values on
        the copy; the names in ``column_major`` are laid out column-major."""
        if not names or len(set(names)) != len(names):
            raise OptimizerError(f"a group needs distinct parameter names, got {list(names)}")
        for name in names:
            if name not in params:
                raise OptimizerError(f"unknown parameter {name!r}")
            if any(name in group.names for group in self.groups):
                raise OptimizerError(f"parameter {name!r} is laid out already")
        if dtype is None:
            dtype = params[names[0]].data.dtype
            for name in names:
                if params[name].data.dtype != dtype:
                    raise OptimizerError(f"parameter {name!r} is {params[name].data.dtype}, not {dtype}")
        dtype = np.dtype(dtype)
        if self.groups and self.groups[0].data.dtype != dtype:
            raise OptimizerError(f"this optimizer steps {self.groups[0].data.dtype}, not {dtype}")
        group = AdamGroup(params, names, dtype, column_major)
        if self.scratch is None:
            # after the first group's buffers: allocated before them, the
            # scratch left the heap in a state where no vocab-train
            # benchmark set-up after a training unit reused freed pages
            self.scratch = (np.empty(ADAM_BLOCK, dtype), np.empty(ADAM_BLOCK, dtype))
        self.groups.append(group)
        return group

    def non_finite(self) -> str | None:
        """The first laid-out parameter holding a NaN or an infinity, or
        None; one scan per group."""
        for group in self.groups:
            if not np.isfinite(group.data).all():
                return next(name for name, view in group.views(group.data) if not np.isfinite(view).all())
        return None


def apply_updates(state: AdamState, params: dict[str, Tensor], names: Sequence[str]):
    """One bias-corrected Adam update on the named parameters, in the
    order of Kingma & Ba (arXiv:1412.6980, section 2): with t the step
    count of each parameter's group, α_t = lr·√(1-β2^t)/(1-β1^t) and
    ε̂ = ε·√(1-β2^t), θ ← θ - α_t·m/(√v + ε̂).  In real arithmetic this
    is θ - lr·m̂/(√v̂ + ε) with m̂ = m/(1-β1^t), v̂ = v/(1-β2^t), at one
    divide per element instead of three.

    The step updates every group holding one of ``names``, each of which
    must be named whole, and lays out the names no group holds as one
    new group after every check, so a refused step lays out nothing.

    The update runs once per group, over its ``AdamGroup.blocks``.
    Within a block every operation writes in place (the moments, the
    parameter, the gradient, or the state's two scratch views ``a`` and
    ``b``), in this fixed order:
    m ← m·β1; v ← v·β2; then the six gradient passes a ← g·(1-β1);
    m ← m + a; a ← g·(1-β2); a ← a·g; v ← v + a; g ← +0.0; then the
    five θ-passes b ← √v; b ← b + ε̂; a ← m/b; a ← a·α_t; θ ← θ - a.
    Each pass is one correctly rounded elementwise operation, so the
    order alone fixes the bits: they equal those of the same formula
    with temporaries, parameter by parameter.

    A block of a matrix's rows (``AdamGroup``), when the matrix's
    gradient carries a row record (``Tensor.grad_rows``), runs the six
    gradient passes only on the recorded rows among them; the decay of m
    and v and the θ-passes still cover every row.  The other rows hold
    g = +0.0, for which the skipped passes would add +0.0 to m and to v.
    That changes no bit as long as neither moment is -0.0.  m starts at
    +0.0; m·β1 is -0.0 only if m is, since for β1 > ½ it never rounds a
    nonzero value to zero; and m + a is -0.0 only if both terms are,
    since x + (-x) gives +0.0.  v starts at +0.0 and, for 0 ≤ β2 ≤ 1,
    never gets a negative term or factor.  So the row path gives the
    dense path's bits, and it runs only for β1 > ½ and 0 ≤ β2 ≤ 1.
    A row that never gets a gradient, as the embedding's padding row,
    keeps m = v = +0.0, so each update to it is +0.0.

    Adam consumes the gradient: it clears each gradient entry to +0.0
    right after the last pass that reads it.  Each member's ``grad``
    stays bound to its cleared view, which also becomes the tensor's
    ``spare``, so the next ``backward`` after ``zero_grads`` accumulates
    into it without allocating, and its row record is dropped.  Stepping
    again with no ``backward`` in between steps a zero gradient.
    """
    listed = set(names)
    groups = [group for group in state.groups if not listed.isdisjoint(group.names)]
    for group in groups:
        for name in group.names:
            if name not in listed:
                stepped = next(n for n in group.names if n in listed)
                raise OptimizerError(
                    f"parameter {name!r} shares a group with {stepped!r}, "
                    f"so a step over {stepped!r} must include it"
                )
    for group in groups:
        group.take_grads(params)
    laid_out = {name for group in groups for name in group.names}
    new = [name for name in dict.fromkeys(names) if name not in laid_out]
    if new:
        for name in new:
            if name in params and params[name].grad is None:
                raise OptimizerError(f"parameter {name!r} has no gradient")
        groups.append(state.layout(params, new))
        groups[-1].take_grads(params)
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.epsilon
    by_rows = b1 > 0.5 and 0.0 <= b2 <= 1.0
    scratch_a, scratch_b = state.scratch
    for group in groups:
        group.t += 1
        root = math.sqrt(1.0 - b2**group.t)
        alpha, eps_hat = lr * root / (1.0 - b1**group.t), eps * root
        for theta, g, m, v, rows in group.blocks:
            a, b = scratch_a[: g.size], scratch_b[: g.size]
            m *= b1
            v *= b2
            r = rows[0].grad_rows if by_rows and rows else None
            if r is None:
                np.multiply(g, 1.0 - b1, out=a)
                m += a
                np.multiply(g, 1.0 - b2, out=a)
                a *= g
                v += a
                g.fill(0.0)
            else:
                _, gk, mk, vk, bounds = rows
                r = r[slice(*r.searchsorted(bounds))]
                if r.size:
                    gr = gk.take(r, axis=0)
                    ar = gr * (1.0 - b1)
                    mk[r] += ar
                    np.multiply(gr, 1.0 - b2, out=ar)
                    ar *= gr
                    vk[r] += ar
                    gk[r] = 0.0
            np.sqrt(v, out=b)
            b += eps_hat
            np.divide(m, b, out=a)
            a *= alpha
            theta -= a
        for _, p, view in group.members:
            p.spare, p.grad_rows = view, None


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_MAGIC = b"NEGMTL01"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """Frozen 32-bit snapshot of a model plus everything needed to use it.

    Training and prediction run in float32, so a trained model is stored
    without rounding: ``from_model`` copies its float32 arrays and
    ``to_model`` rebuilds a float32 model from copies of them, bit for
    bit the model the run held in memory.  (A float64 model, such as a
    fresh ``ModelParams.init``, is rounded to float32 on the way in.)"""

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
            # copies: training the rebuilt model must not write into the checkpoint
            params = ModelParams.from_arrays(
                {name: arr.astype(np.float32) for name, arr in self.arrays.items()}
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
    little-endian float32 blobs at the manifest byte offsets.

    An array that is not float32 or holds a NaN or an infinity is a
    ``CheckpointError`` raised before any file is written: ``to_model``
    would refuse it on load."""
    manifest = []
    offset = 0
    for name, arr in ckpt.arrays.items():
        if arr.dtype != np.float32:
            raise CheckpointError(f"array {name!r} must be float32, got {arr.dtype}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"array {name!r} holds a non-finite value")
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
    # JSON's true and 1.0 compare equal to 1
    if not _is_int(version) or version != CHECKPOINT_VERSION:
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
    """Read and validate a ``save_checkpoint`` file.  Its arrays are
    read-only float32 views of the file's bytes; ``Checkpoint.to_model``
    makes the model's own copies."""
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
    except ValueError as e:  # bad UTF-8, bad JSON, or an integer too long to convert
        raise CheckpointError(f"{path}: unreadable header ({e})") from e
    pos += header_len
    blobs = _check_header(path, header)

    body_len = len(raw) - pos  # blob offsets count from here; read in place, not copied
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for name, shape, lo, n_bytes in blobs:
        end = lo + n_bytes
        if end > body_len:
            raise CheckpointError(f"{path}: truncated blob for parameter {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f4", count=n_bytes // 4, offset=pos + lo).reshape(shape)
    if end != body_len:
        raise CheckpointError(f"{path}: {body_len - end} trailing bytes after parameter blobs")
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
    params: ModelParams, vocab: Vocabulary, docs: Sequence[Document], tags: bool = False
) -> list[PredictionRecord]:
    """Eval-mode sentiment predictions for every document; with ``tags``,
    each record also carries its sentences' negation tags.  One
    ``predict_documents`` call predicts the whole corpus, so every
    sentence is tagged in one packed Viterbi pass."""
    preds = predict_documents(params, _encode_docs(vocab, docs), tags=tags)
    return [PredictionRecord(doc.id, doc.label, pred.label, pred.tags) for doc, pred in zip(docs, preds)]


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[dict]  # one record per epoch: epoch, task losses, dev accuracy
    best_epoch: int
    best_dev_accuracy: float
    epochs_run: int


# The precision neural training runs in: that of the arrays a checkpoint
# stores.  Every op computes in its parameters' dtype, so with float64
# here the same loop runs on ModelParams.init's own float64 draws.
TRAIN_DTYPE = np.float32


def train_neural(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> TrainResult:
    """Neural training for both modes.  Each epoch runs an optional
    negation phase, then the sentiment phase, then a dev evaluation.

    The negation phase (mtl only; every epoch with
    ``mtl_schedule="alternating"``, the first epoch only with
    ``"warmup_once"``) takes one Adam step per sentence on the CRF loss
    over the shared and negation parameters.  The sentiment phase takes
    one Adam step per document over the shared and sentiment
    parameters.  Selection keeps the checkpoint of the best dev
    sentiment accuracy, the earliest epoch on ties, and training stops
    after ``patience`` epochs without a strictly better one.  A
    non-finite training loss is a ``TrainingError`` raised before that
    example's update, and a non-finite parameter (a non-finite gradient
    behind a finite loss) one raised before the epoch's dev evaluation,
    so neither reaches a checkpoint.

    The parameters are rounded to ``TRAIN_DTYPE`` as the optimizer lays
    out their groups, before the first step.
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
    adam = AdamState(config.learning_rate, config.beta1, config.beta2, config.epsilon)
    column_major = params.column_major()
    for names in groups.values():
        if names:
            adam.layout(named, names, TRAIN_DTYPE, column_major)

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

    # the checkpoint of the best dev epoch; the earliest epoch wins ties
    best_epoch, best_accuracy, best = 0, -1.0, None
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
        bad = adam.non_finite()
        if bad is not None:
            raise TrainingError(f"epoch {epoch}: parameter {bad!r} holds a non-finite value after the updates")
        record["dev_accuracy"] = dev_acc = accuracy_of(predict_corpus(params, vocab, dev_docs))
        history.append(record)
        if dev_acc > best_accuracy:
            best_epoch, best_accuracy = epoch, dev_acc
            best = Checkpoint.from_model(params, vocab, config)
        elif epoch - best_epoch >= config.patience:
            break

    assert best is not None
    return TrainResult(best, history, best_epoch, best_accuracy, len(history))


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


# ---------------------------------------------------------------------------
# Seeded ensemble


@dataclass
class SeedRun:
    seed: int
    result: TrainResult
    dev_predictions: list[PredictionRecord]
    test_predictions: list[PredictionRecord] | None


def train_seed(
    config: TrainConfig,
    train_docs: Sequence[Document],
    dev_docs: Sequence[Document],
    test_docs: Sequence[Document] | None = None,
) -> SeedRun:
    """Train at ``config.seed``, then predict with the model rebuilt from
    the 32-bit checkpoint, so written prediction files always match what
    the checkpoint reproduces."""
    result = train_neural(config, train_docs, dev_docs)
    model, vocab = result.checkpoint.to_model()
    return SeedRun(
        config.seed,
        result,
        predict_corpus(model, vocab, dev_docs),
        predict_corpus(model, vocab, test_docs) if test_docs is not None else None,
    )


@dataclass
class EnsembleResult:
    runs: list[SeedRun]
    dev_vote: list[PredictionRecord]
    test_vote: list[PredictionRecord] | None


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
    """``train_seed`` at every seed, then a majority vote over their predictions."""
    if config.mode not in ("stl", "mtl"):
        raise TrainingError(f"ensemble supports stl and mtl modes, got {config.mode!r}")
    if len(config.seeds) % 2 == 0:
        raise TrainingError(f"ensemble needs an odd seed count, got {len(config.seeds)}")
    if test_docs is not None:  # train and dev are checked by train_neural
        _require_labeled(test_docs, "test")

    runs = [
        train_seed(dataclasses.replace(config, seed=seed), train_docs, dev_docs, test_docs)
        for seed in config.seeds
    ]

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

    def predict_features(self, x: np.ndarray) -> str:
        """Label of one document's count vector, a ``bow_matrix`` row."""
        # sigmoid(z) >= 0.5 iff z >= 0; ties resolve to positive
        return "positive" if float(self.weights @ x + self.bias) >= 0.0 else "negative"


@dataclass
class BowResult:
    model: BowModel
    chosen_c: float
    dev_accuracy: float
    dev_accuracy_by_c: dict[float, float]
    dev_predictions: list[PredictionRecord]  # at the chosen C


def bow_matrix(vocab: Vocabulary, docs: Sequence[Document]) -> np.ndarray:
    """(len(docs), V) token counts, one row per document; unknown tokens
    count into the unknown bucket.  One ``encode`` over the split's
    tokens, one scatter-add of 1.0: counts are small integers, exact in
    float64 in any order of addition."""
    sizes = [sum(len(sent.tokens) for sent in doc.sentences) for doc in docs]
    ids = vocab.encode(t for doc in docs for sent in doc.sentences for t in sent.tokens)
    rows = np.repeat(np.arange(len(docs)), sizes)
    x = np.zeros((len(docs), len(vocab)))
    np.add.at(x, (rows, np.asarray(ids, dtype=np.intp)), 1.0)
    return x


def bow_features(vocab: Vocabulary, doc: Document) -> np.ndarray:
    """Token-count vector of one document: its ``bow_matrix`` row."""
    return bow_matrix(vocab, [doc])[0]


# gradient 2-norm at which a bag-of-words fit counts as converged
BOW_GRAD_TOL = 1e-6


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def _bow_objective(
    w: np.ndarray, b: float, xs: np.ndarray, ys: np.ndarray, c: float
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """The bag-of-words objective at (w, b), mean cross-entropy plus
    (1/C)·½‖w‖² (bias unregularized): its value, its gradient in w and
    in b, and the probabilities p = σ(Xw + b) computed on the way, which
    the Newton direction at (w, b) reuses."""
    z = xs @ w + b
    margins = np.where(ys == 1.0, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 / c * (w @ w))
    p = _sigmoid(z)
    delta = p - ys
    grad_w = xs.T @ delta / len(ys) + w / c
    grad_b = float(delta.mean())
    return loss, grad_w, grad_b, p


def _bow_direction(
    p: np.ndarray, xs: np.ndarray, gram: np.ndarray, c: float, grad_w: np.ndarray, grad_b: float
) -> tuple[np.ndarray, float, float]:
    """Newton direction (dw, db) and its slope gᵀd at the iterate whose
    probabilities are ``p``, or the negative gradient scaled to the
    minimum of the quadratic model along it when the Newton direction is
    undefined, non-finite or not a descent one."""
    n = len(xs)
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
    gram: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float, int]:
    """Damped Newton on the convex objective of ``_bow_objective``.
    Stops when the gradient 2-norm falls below ``BOW_GRAD_TOL``.  Returns
    (w, b, loss, iters), iters counting the steps taken; a fit that ends
    above the tolerance is a ``TrainingError`` naming C and the gradient
    norm.

    The Newton system is solved in document space: the weight block of
    the Hessian is A = XᵀSX/n + I/C (S the curvatures p(1−p)), inverted
    through Woodbury with one n×n solve per iteration (n documents, never
    V×V), and the bias step comes from the Schur complement
    Σs/n − hᵀA⁻¹h with h = Xᵀs/n.  The step length is picked by Armijo
    backtracking from 1.  An iteration whose Newton direction is
    undefined (every p rounded to 0 or 1 leaves a zero Schur complement),
    non-finite or not a descent direction steps along the negative
    gradient instead.  A step that no backtracking can make decrease the
    loss ends the fit early, unconverged, and so do ``max_iters`` steps.

    ``gram`` is XXᵀ, the document-space matrix of every solve; a caller
    fitting several C on one ``xs`` passes it to build it once.  None
    computes it here."""
    w = np.zeros(xs.shape[1]) if init is None else init[0].astype(np.float64).copy()
    b = 0.0 if init is None else float(init[1])
    if gram is None:
        gram = xs @ xs.T
    loss, grad_w, grad_b, p = _bow_objective(w, b, xs, ys, c)
    iters = 0
    while (
        grad_norm := math.sqrt(float(grad_w @ grad_w) + grad_b**2)
    ) >= BOW_GRAD_TOL and iters < max_iters:
        dw, db, slope = _bow_direction(p, xs, gram, c, grad_w, grad_b)
        for halvings in range(60):
            step = 0.5**halvings
            w_new = w + step * dw
            b_new = b + step * db
            loss_new, gw_new, gb_new, p_new = _bow_objective(w_new, b_new, xs, ys, c)
            if loss_new <= loss + 1e-4 * step * slope:
                break
        else:
            break  # no step length decreases the loss: stop unconverged
        w, b, loss, grad_w, grad_b, p = w_new, b_new, loss_new, gw_new, gb_new, p_new
        iters += 1
    if not grad_norm < BOW_GRAD_TOL:  # NaN included
        raise TrainingError(
            f"bow fit at C={c} did not converge: gradient norm {grad_norm:.3e} "
            f"after {iters} iterations (tolerance {BOW_GRAD_TOL:g})"
        )
    return w, b, loss, iters


def train_bow(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> BowResult:
    """L2-regularized logistic regression on token counts; C picked by
    dev accuracy over the grid, ties to the smaller C.

    Each split's count matrix (``bow_matrix``) and the train Gram matrix
    XXᵀ are built once and shared by every C; each C is one call of
    this module's ``fit_bow``, which raises if that fit does not
    converge."""
    if config.mode != "bow":
        raise TrainingError(f"train_bow requires mode=bow, got {config.mode!r}")
    _require_labeled(train_docs, "train")
    _require_labeled(dev_docs, "dev")
    vocab = build_vocab(train_docs, config.min_count, config.lowercase)
    if len(vocab) <= 2:
        raise TrainingError("bow training found an empty vocabulary")

    xs = bow_matrix(vocab, train_docs)
    ys = np.array([float(LABEL_TO_CLASS[doc.label]) for doc in train_docs])
    dev_xs = bow_matrix(vocab, dev_docs)  # built once, scored at every C
    gram = xs @ xs.T

    best: BowResult | None = None
    by_c: dict[float, float] = {}
    for c in sorted(config.bow_c_grid):
        w, b, _, _ = fit_bow(xs, ys, c, gram=gram)
        model = BowModel(vocab, w, b, c)
        preds = [PredictionRecord(d.id, d.label, model.predict_features(x)) for d, x in zip(dev_docs, dev_xs)]
        by_c[c] = dev_acc = accuracy_of(preds)
        if best is None or dev_acc > best.dev_accuracy:  # strict: earlier (smaller) C wins ties
            best = BowResult(model, c, dev_acc, by_c, preds)
    assert best is not None
    return dataclasses.replace(best, dev_accuracy_by_c=by_c)
