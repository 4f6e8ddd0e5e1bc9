"""Reverse-mode automatic differentiation over numpy float32 or float64
buffers.

Every op computes in the dtype of its inputs and allocates its outputs
and its gradients in that dtype, so one code path serves both
precisions: a model trained or loaded for prediction holds float32
parameters and runs float32 throughout, while the gradient checks build
float64 models and get float64 results.  Numpy's promotion rules keep a
float32 array float32 when it meets a Python float, but not when it
meets a float64 array or an ``np.float64`` scalar, so nothing here mixes
them in.

While a ``Tape`` is the innermost active tape, each operation on a tensor
that requires a gradient records a ``Node``.  The tensors own the graph:
a recorded output holds its node (``Tensor.node``), a node holds its
inputs but not its output, and the tape only counts, so a finished graph
is freed by reference counting when its loss is dropped.  ``backward``
walks the loss's ancestors in exact reverse recording order, accumulating
vector-Jacobian products into the ``grad`` buffers of leaf tensors.

The module holds four primitives: the gather ``rows``, which can scale
what it gathers by a mask (the model's inverted dropout on its
embeddings, one node rather than a gather and a multiply);
``max_over_time`` (over a whole matrix, or over each of its row
segments in one node; untaped, one reduction without an argmax);
``softmax_cross_entropy``; and ``sum_all``,
which only the per-layer benchmark records.  The fused layer ops build
on the same ``_make_output`` hook and run their work in numpy with a
hand-written backward pass, each recorded as a single node:
``layers.bilstm`` (both LSTM directions over every sentence of a
document), ``layers.affine`` (a linear map plus bias, on a vector or on
every row of a matrix) and ``crf.crf_nll`` (the CRF negative
log-likelihood).  No module other than this one, ``layers`` and ``crf``
records a tape node.  ``records`` is the one test of whether an op is
recorded; ``_make_output`` applies it, and ``layers.bilstm`` asks it
first so an untaped call builds no backward state.  The generic
primitives that step-by-step references in the tests compose
(addition, subtraction, multiplication, tanh, sigmoid, concatenation,
row stacking, matrix products, transpose) live with those references
in ``tests/oracles.py``.

The gather ``rows`` is the one op whose gradient is row-sparse: its
backward pass returns a ``RowGrad`` (the unique indices plus one summed
row per index) instead of a dense (V, D) array, so an embedding lookup
costs O(T·D) in the backward walk rather than O(V·D).  It gathers only
from a leaf (the model gathers only from ``embedding.weights``), so
``backward`` always scatters a ``RowGrad`` into a leaf's ``grad``, with
one fancy-index add.  A leaf's ``grad`` is still a dense array once any
gradient reaches it, and the bits equal those of a dense accumulation.

Where a leaf's gradient lives is up to its optimizer.  A leaf that no
optimizer has laid out gets a fresh ``zeros_like`` the first time a
backward walk reaches it.  ``training.AdamState`` keeps each parameter's
gradient as a view into its group's flat gradient buffer; after a step
it leaves that view cleared to +0.0 as the tensor's ``spare``, and the
next walk that reaches the leaf accumulates into the spare instead of
allocating.

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


def as_floats(data) -> np.ndarray:
    """``data`` as an array: a float32 or float64 array as given, anything
    else converted to float64."""
    arr = np.asarray(data)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


class Tensor:
    """A numpy float32 or float64 array plus gradient metadata; other
    data (lists, integers, Python floats) becomes float64.

    Leaf tensors are created directly (parameters, inputs); non-leaf
    tensors are produced by recorded operations and hold the ``Node``
    that knows how to differentiate them.

    ``spare`` is a gradient array shaped like ``data`` that holds only
    +0.0, or None: the optimizer sets it after it has consumed and
    cleared the gradient, and ``backward`` takes it, instead of
    allocating, when it first reaches the leaf after ``zero_grads``.
    """

    __slots__ = ("data", "requires_grad", "grad", "spare", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = as_floats(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.spare: np.ndarray | None = None
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


def records(inputs: Iterable[Tensor]) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and some
    input requires a gradient.  An op that keeps state only for its
    backward pass asks this before building that state."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def _make_output(data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(data)
    if records(inputs):
        out.requires_grad = True
        out.node = Node(inputs, backward)
        _TAPE_STACK[-1].count += 1
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
    passes.  A leaf reached with ``grad`` None starts from +0.0: its
    ``spare`` if it has one (the optimizer's cleared gradient view),
    else a fresh ``zeros_like``.  Reaching a leaf uses up its spare, so
    a spare is only ever taken while it still holds +0.0.  The walk is
    the exact reverse of recording order, so gradients are bitwise
    reproducible for identical forward passes.

    A node's backward may return its input gradients as a tuple or
    yield them from a generator, in the order of ``node.inputs``; None
    marks an input without a gradient.  The walk reads them through
    ``zip``, so each yielded gradient is folded into its leaf (or its
    node's pending sum) before the next one is computed: a layer with
    many parameters, such as ``layers.bilstm``, never holds all of its
    weight gradients at once.
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
                    t.grad = np.zeros_like(t.data) if t.spare is None else t.spare
                t.spare = None
                if isinstance(gt, RowGrad):
                    # unique indices: one fancy-index add is exact, and the
                    # rows it skips would only have gained +0.0
                    t.grad[gt.index] += gt.values
                else:
                    t.grad += gt
            else:
                acc = grads.get(t.node)
                grads[t.node] = gt if acc is None else acc + gt


def zero_grads(tensors: Iterable[Tensor]):
    """Mark each tensor as not reached: ``grad`` becomes None, and the
    next ``backward`` that reaches it starts from +0.0.  No buffer is
    filled; the arrays a tensor's gradient lives in stay where they are."""
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# Shape and indexing


@dataclass(frozen=True)
class RowGrad:
    """Gradient of a matrix that is zero outside a few rows: ``values[k]``
    is the gradient of row ``index[k]``; the indices are unique."""

    index: np.ndarray  # (n,) intp, unique
    values: np.ndarray  # (n, D)


def rows(a: Tensor, indices, mask: np.ndarray | None = None) -> Tensor:
    """Gather rows of a leaf matrix by index, each entry scaled by
    ``mask`` (shape (len(indices), D), a plain array) when one is given;
    duplicate indices accumulate gradient.  A recorded output as the
    matrix is an ``AutodiffError``: its row-sparse gradient has only a
    leaf's ``grad`` to go to.

    The gradient is a ``RowGrad``: the incoming gradient, times the mask,
    is summed per looked-up row by ``np.add.at`` in index order starting
    from +0.0, the same additions in the same order as a dense
    accumulation, so a leaf's ``grad`` gets the same bits either way.  A
    gather followed by an elementwise multiply by the mask does the same
    operations in the same order, so it gives the same bits too.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise AutodiffError(f"rows: expected matrix and index vector, got {a.data.shape}")
    if not a.is_leaf:
        raise AutodiffError("rows: gathers only from a leaf tensor, got a recorded output")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise AutodiffError(f"rows: index out of range for {a.data.shape[0]} rows")
    out = a.data[idx]
    if mask is not None:
        if mask.shape != out.shape:
            raise AutodiffError(f"rows: mask {mask.shape} does not match the gathered {out.shape}")
        out *= mask
    def bw(g):
        if mask is not None:
            g = g * mask
        unique, inverse = np.unique(idx, return_inverse=True)
        summed = np.zeros((unique.size, a.data.shape[1]), dtype=a.data.dtype)
        np.add.at(summed, inverse, g)
        return (RowGrad(unique, summed),)
    return _make_output(out, (a,), bw)


# ---------------------------------------------------------------------------
# Reductions and losses


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        return (np.full(a.data.shape, g, dtype=a.data.dtype),)
    return _make_output(np.asarray(a.data.sum()), (a,), bw)


def max_over_time(h: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """Column-wise max of a (T, d) matrix, shape (d,); with ``lengths``,
    of each run of that many consecutive rows, shape (S, d), one node for
    all runs.  Ties route gradient to the earliest maximal row of a run.

    The output is the value at each column's first argmax.  Untaped,
    the maxima come from one ``max`` or ``np.maximum.reduceat`` with no
    argmax: equal floats have equal bits, except that ``np.maximum``
    keeps the last of tied signed zeros and a NaN maximum may be any
    NaN of its run, so when any maximum is ±0.0 or NaN the untaped call
    gathers at the first argmax like the taped one."""
    x = h.data
    if x.ndim != 2 or x.shape[0] < 1:
        raise AutodiffError(f"max_over_time: expected a non-empty matrix, got {x.shape}")
    if lengths is not None and (len(lengths) == 0 or min(lengths) < 1 or sum(lengths) != x.shape[0]):
        raise AutodiffError(f"max_over_time: lengths {list(lengths)} do not split {x.shape[0]} rows")
    if not records((h,)):
        if lengths is None:
            out = x.max(axis=0)
        else:
            out = np.maximum.reduceat(x, np.cumsum(lengths) - lengths, axis=0)
        if not (np.isnan(out).any() or (out == 0).any()):
            return Tensor(out)
    cols = np.arange(x.shape[1])
    if lengths is None:
        winners = x.argmax(axis=0)
    else:
        ends = np.cumsum(lengths).tolist()
        winners = np.stack([x[b - n : b].argmax(axis=0) + (b - n) for n, b in zip(lengths, ends)])
    def bw(g):
        gh = np.zeros_like(x)
        gh[winners, cols] = g
        return (gh,)
    return _make_output(x[winners, cols], (h,), bw)


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
