"""Reverse-mode automatic differentiation over numpy float64 buffers.

While a ``Tape`` is the innermost active tape, each operation on a tensor
that requires a gradient records a ``Node``.  The tensors own the graph:
a recorded output holds its node (``Tensor.node``), a node holds its
inputs but not its output, and the tape only counts, so a finished graph
is freed by reference counting when its loss is dropped.  ``backward``
walks the loss's ancestors in exact reverse recording order, accumulating
vector-Jacobian products into the ``grad`` buffers of leaf tensors.
Elementwise ops need equal shapes: a mismatch fails loudly at the
offending operation rather than producing silently misaligned gradients.

The module holds only the primitives the model and its CLI record:
``add``, ``sub``, ``mul`` and ``tanh``; ``concat``, ``stack_rows`` and
the gather ``rows``; ``sum_all``, ``max_over_time`` and
``softmax_cross_entropy``.  The fused ops build on the same
``_make_output`` hook and run their work in numpy with a hand-written
backward pass, each recorded as a single node: ``layers.lstm_sequence``
(one LSTM direction), ``layers.affine`` (a linear map plus bias, on a
vector or on every row of a matrix) and the log-partition and
gold-path score in ``crf``.  The generic primitives that step-by-step
references in the tests compose (matrix products, transpose, sigmoid)
live with those references in ``tests/oracles.py``.

The gather ``rows`` is the one op whose gradient is row-sparse: its
backward pass returns a ``RowGrad`` (the unique indices plus one summed
row per index) instead of a dense (V, D) array, so an embedding lookup
costs O(T·D) in the backward walk rather than O(V·D).  ``backward``
scatters it into a leaf's ``grad`` with one fancy-index add and
densifies it only when the gathered matrix is itself a recorded
output.  A leaf's ``grad`` is still a dense array once any gradient
reaches it, and the bits equal those of a dense accumulation.

Not thread safe: the tape stack is module-global.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class AutodiffError(Exception):
    pass


class DeterminismError(AutodiffError):
    """Two evaluations of the same function returned different bits."""


_TAPE_STACK: list["Tape"] = []
_NO_GRAD_DEPTH = 0
_SEQUENCE = itertools.count()


def _active_tape() -> "Tape | None":
    if _NO_GRAD_DEPTH or not _TAPE_STACK:
        return None
    return _TAPE_STACK[-1]


@contextmanager
def no_grad():
    """Disable node recording, even inside an active tape."""
    global _NO_GRAD_DEPTH
    _NO_GRAD_DEPTH += 1
    try:
        yield
    finally:
        _NO_GRAD_DEPTH -= 1


class Tape:
    """The recording context for one backward pass; it only counts nodes."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise AutodiffError("tape stack corrupted: exited a tape that was not innermost")
        return False

    def __len__(self) -> int:
        return self.count


class Node:
    """One recorded operation: its inputs, backward and recording order."""

    __slots__ = ("inputs", "backward", "seq")

    def __init__(self, inputs: tuple["Tensor", ...], backward: Callable):
        self.inputs = inputs
        self.backward = backward
        self.seq = next(_SEQUENCE)


class Tensor:
    """A numpy float64 array plus gradient metadata.

    Leaf tensors are created directly (parameters, inputs); non-leaf
    tensors are produced by recorded operations and hold the ``Node``
    that knows how to differentiate them.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    @property
    def is_leaf(self) -> bool:
        return self.node is None

    def item(self) -> float:
        if self.data.size != 1:
            raise AutodiffError(f"item() needs a size-1 tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("grad")
        if not self.is_leaf:
            flags.append("taped")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"Tensor(shape={self.data.shape}{suffix})"


def _make_output(data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = Node(inputs, backward)
        tape.count += 1
    return out


def _ancestors(root: Node) -> list[Node]:
    """``root`` and every node it depends on, latest recorded first."""
    seen, todo = {root}, [root]
    while todo:
        for t in todo.pop().inputs:
            if t.node is not None and t.node not in seen:
                seen.add(t.node)
                todo.append(t.node)
    return sorted(seen, key=lambda n: n.seq, reverse=True)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into each reachable leaf's ``grad``.

    Repeated calls keep accumulating; reset with ``zero_grads`` between
    passes.  The walk is the exact reverse of recording order, so
    gradients are bitwise reproducible for identical forward passes.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss.node is None:
        raise AutodiffError("loss was not recorded on a tape (created outside Tape, or no_grad)")

    grads: dict[Node, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    for node in _ancestors(loss.node):
        g = grads.pop(node, None)
        if g is None:
            continue
        for t, gt in zip(node.inputs, node.backward(g)):
            if gt is None or not t.requires_grad:
                continue
            if t.is_leaf:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                if isinstance(gt, RowGrad):
                    # unique indices: one fancy-index add is exact, and the
                    # rows it skips would only have gained +0.0
                    t.grad[gt.index] += gt.values
                else:
                    t.grad += gt
            else:
                if isinstance(gt, RowGrad):
                    gt = gt.dense(t.data)
                acc = grads.get(t.node)
                grads[t.node] = gt if acc is None else acc + gt


def zero_grads(tensors: Iterable[Tensor]):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# Elementwise primitives


def _same_shapes(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise AutodiffError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "add")
    return _make_output(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "sub")
    return _make_output(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "mul")
    na, nb = a.requires_grad, b.requires_grad
    def bw(g):
        return (g * b.data if na else None), (g * a.data if nb else None)
    return _make_output(a.data * b.data, (a, b), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make_output(out, (a,), lambda g: (g * (1.0 - out * out),))


# ---------------------------------------------------------------------------
# Shape and indexing


def concat(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    if a.data.ndim != b.data.ndim:
        raise AutodiffError(f"concat: rank mismatch {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[axis]
    def bw(g):
        lead = (slice(None),) * (axis % g.ndim)
        return g[lead + (slice(None, split),)], g[lead + (slice(split, None),)]
    return _make_output(np.concatenate([a.data, b.data], axis=axis), (a, b), bw)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack T same-length vectors into a (T, d) matrix."""
    if not rows:
        raise AutodiffError("stack_rows: empty input")
    if any(r.data.ndim != 1 or r.data.shape != rows[0].data.shape for r in rows):
        raise AutodiffError("stack_rows: all inputs must be 1-d vectors of equal length")
    def bw(g):
        return tuple(g[i] for i in range(len(rows)))
    return _make_output(np.stack([r.data for r in rows]), tuple(rows), bw)


@dataclass(frozen=True)
class RowGrad:
    """Gradient of a matrix that is zero outside a few rows: ``values[k]``
    is the gradient of row ``index[k]``; the indices are unique."""

    index: np.ndarray  # (n,) intp, unique
    values: np.ndarray  # (n, D)

    def dense(self, like: np.ndarray) -> np.ndarray:
        out = np.zeros_like(like)
        out[self.index] = self.values
        return out


def rows(a: Tensor, indices) -> Tensor:
    """Gather matrix rows by index; duplicate indices accumulate gradient.

    The gradient is a ``RowGrad``: each looked-up row's incoming
    gradients are summed by ``np.add.at`` in index order starting from
    +0.0, the same additions in the same order as a dense accumulation,
    so a leaf's ``grad`` gets the same bits either way.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise AutodiffError(f"rows: expected matrix and index vector, got {a.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise AutodiffError(f"rows: index out of range for {a.data.shape[0]} rows")
    def bw(g):
        unique, inverse = np.unique(idx, return_inverse=True)
        summed = np.zeros((unique.size, a.data.shape[1]))
        np.add.at(summed, inverse, g)
        return (RowGrad(unique, summed),)
    return _make_output(a.data[idx], (a,), bw)


# ---------------------------------------------------------------------------
# Reductions and losses


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        return (np.full(a.data.shape, float(g)),)
    return _make_output(np.asarray(a.data.sum()), (a,), bw)


def max_over_time(h: Tensor) -> Tensor:
    """Column-wise max of a (T, d) matrix; ties route gradient to the
    earliest maximal row."""
    if h.data.ndim != 2 or h.data.shape[0] < 1:
        raise AutodiffError(f"max_over_time: expected a non-empty matrix, got {h.data.shape}")
    winners = h.data.argmax(axis=0)
    out = h.data[winners, np.arange(h.data.shape[1])]
    def bw(g):
        gh = np.zeros_like(h.data)
        gh[winners, np.arange(h.data.shape[1])] = g
        return (gh,)
    return _make_output(out, (h,), bw)


def softmax_cross_entropy(logits: Tensor, gold: int) -> Tensor:
    """Negative log-probability of class ``gold`` under softmax(logits)."""
    if logits.data.ndim != 1:
        raise AutodiffError(f"softmax_cross_entropy: expected a logit vector, got {logits.data.shape}")
    n = logits.data.shape[0]
    if not 0 <= gold < n:
        raise AutodiffError(f"softmax_cross_entropy: gold class {gold} out of range for {n} classes")
    m = logits.data.max()
    lse = m + np.log(np.exp(logits.data - m).sum())
    def bw(g):
        p = np.exp(logits.data - lse)
        p[gold] -= 1.0
        return (p * float(g),)
    return _make_output(np.asarray(lse - logits.data[gold]), (logits,), bw)


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    max_rel_err: float
    n_checked: int
    worst: str | None
    h: float
    tol: float

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        worst = f" worst at {self.worst}" if self.worst else ""
        return (
            f"{status}: max relative error {self.max_rel_err:.3e} over "
            f"{self.n_checked} entries (tol {self.tol:.1e}){worst}"
        )


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must be a deterministic closure over ``params`` returning a
    scalar; determinism is verified by evaluating twice and requiring
    bitwise-identical results.  Every entry of every parameter is
    perturbed by +-h and the relative error

        |g_ad - g_fd| / max(1, |g_ad|, |g_fd|)

    must stay below ``tol``.
    """
    for name, p in params.items():
        if not p.requires_grad:
            raise AutodiffError(f"grad_check: parameter {name!r} has requires_grad=False")

    with no_grad():
        first = f().data.copy()
        second = f().data
    if first.tobytes() != second.tobytes():
        raise DeterminismError(
            "two evaluations differed bitwise; finite differences need a deterministic function"
        )

    zero_grads(params.values())
    with Tape():
        loss = f()
    backward(loss)

    max_rel = 0.0
    worst = None
    n = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad = np.zeros_like(flat) if p.grad is None else p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                up = float(f().data)
            flat[i] = orig - h
            with no_grad():
                down = float(f().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            rel = float(abs(grad[i] - fd) / max(1.0, abs(grad[i]), abs(fd)))
            n += 1
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{i}]"
    return GradCheckReport(max_rel < tol, max_rel, n, worst, h, tol)
