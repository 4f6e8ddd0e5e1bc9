"""Shared test-side oracles, kept independent of the library's own checkers."""

import dataclasses
import itertools
import math
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from negmtl import autodiff as ad
from negmtl import training
from negmtl.autodiff import Tape, Tensor, backward, no_grad, zero_grads
from negmtl.corpus import BioTag, Document, Vocabulary, build_vocab, to_bio
from negmtl.crf import _check_emissions, _check_tags
from negmtl.evaluation import PredictionRecord
from negmtl.layers import affine
from negmtl.models import (
    CLASS_TO_LABEL,
    LABEL_TO_CLASS,
    NEGATIVE_CLASS,
    POSITIVE_CLASS,
    ModelError,
    ModelParams,
    SentimentPrediction,
    negation_loss,
    sentiment_loss,
)
from negmtl.training import (
    BOW_GRAD_TOL,
    AdamState,
    BowModel,
    BowResult,
    Checkpoint,
    OptimizerError,
    TrainConfig,
    TrainingError,
    TrainResult,
    _bow_direction,
    _bow_objective,
    _encode_docs,
    _require_labeled,
    _sigmoid,
    accuracy_of,
    predict_corpus,
    rng_streams,
)


def numeric_grad(scalar_fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar_fn w.r.t. every entry of x.

    Deliberately independent of autodiff.grad_check.
    """
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = scalar_fn()
        flat_x[i] = orig - h
        down = scalar_fn()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * h)
    return grad


def assert_op_grads(build, arrays: dict, h: float = 1e-6, tol: float = 1e-6):
    """AD-vs-FD comparison for one op composition over named leaf arrays."""
    tensors = {
        k: Tensor(np.array(v, dtype=np.float64), requires_grad=True) for k, v in arrays.items()
    }

    with Tape():
        loss = build(tensors)
    backward(loss)

    for name, t in tensors.items():
        def value():
            with no_grad():
                return float(build(tensors).data)

        fd = numeric_grad(value, t.data, h)
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol, err_msg=f"grad mismatch for {name!r}")


def weighted_sum(t: Tensor, seed: int = 7) -> Tensor:
    """Collapse to a scalar with fixed, non-uniform weights so each output
    entry contributes a distinct gradient path."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=t.data.shape))
    return ad.sum_all(mul(t, w))


# ---------------------------------------------------------------------------
# Generic tape primitives that only the step-by-step references compose.
# The library records fused ops in their place (``layers.affine``,
# ``layers.bilstm``, ``crf.crf_nll``, the masked gather ``ad.rows``), so
# these live here, their code as it was in ``negmtl.autodiff``.


def _same_shapes(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ad.AutodiffError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "add")
    return ad._make_output(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "mul")
    na, nb = a.requires_grad, b.requires_grad
    def bw(g):
        return (g * b.data if na else None), (g * a.data if nb else None)
    return ad._make_output(a.data * b.data, (a, b), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return ad._make_output(out, (a,), lambda g: (g * (1.0 - out * out),))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "sub")
    return ad._make_output(a.data - b.data, (a, b), lambda g: (g, -g))


def concat(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    if a.data.ndim != b.data.ndim:
        raise ad.AutodiffError(f"concat: rank mismatch {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[axis]
    def bw(g):
        lead = (slice(None),) * (axis % g.ndim)
        return g[lead + (slice(None, split),)], g[lead + (slice(split, None),)]
    return ad._make_output(np.concatenate([a.data, b.data], axis=axis), (a, b), bw)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack T same-length vectors into a (T, d) matrix."""
    if not rows:
        raise ad.AutodiffError("stack_rows: empty input")
    if any(r.data.ndim != 1 or r.data.shape != rows[0].data.shape for r in rows):
        raise ad.AutodiffError("stack_rows: all inputs must be 1-d vectors of equal length")
    def bw(g):
        return tuple(g[i] for i in range(len(rows)))
    return ad._make_output(np.stack([r.data for r in rows]), tuple(rows), bw)


def neg(a: Tensor) -> Tensor:
    return ad._make_output(-a.data, (a,), lambda g: (-g,))


def sigmoid(a: Tensor) -> Tensor:
    # tanh form avoids exp overflow for large negative inputs
    out = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    return ad._make_output(out, (a,), lambda g: (g * out * (1.0 - out),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ad.AutodiffError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    na, nb = a.requires_grad, b.requires_grad
    def bw(g):
        ga = g @ b.data.T if na else None
        gb = a.data.T @ g if nb else None
        return ga, gb
    return ad._make_output(a.data @ b.data, (a, b), bw)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
        raise ad.AutodiffError(f"matvec: incompatible shapes {w.data.shape} @ {x.data.shape}")
    nw, nx = w.requires_grad, x.requires_grad
    def bw(g):
        gw = np.outer(g, x.data) if nw else None
        gx = w.data.T @ g if nx else None
        return gw, gx
    return ad._make_output(w.data @ x.data, (w, x), bw)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-c vector to every row of a (T, c) matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ad.AutodiffError(f"add_rowvec: incompatible shapes {m.data.shape} + {v.data.shape}")
    return ad._make_output(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ad.AutodiffError(f"transpose: expected a matrix, got shape {a.data.shape}")
    return ad._make_output(a.data.T.copy(), (a,), lambda g: (g.T,))


def linear_vec(p, x: Tensor) -> Tensor:
    """The sentiment output layer as two nodes, ``w @ x`` then ``+ b``."""
    return add(matvec(p.w, x), p.b)


def linear_rows(p, x: Tensor) -> Tensor:
    """The emission layer as three nodes: ``x @ transpose(w)``, then the
    bias added to every row."""
    return add_rowvec(matmul(x, transpose(p.w)), p.b)


# ---------------------------------------------------------------------------
# Composed references for the fused sequence ops.  Each is built step by
# step from generic tape primitives, so its values and its gradients are
# independent of the hand-written backward passes in layers and crf.


def lstm_reference(p, inputs: Tensor, reverse: bool = False) -> Tensor:
    """Per-step LSTM over a (T, input_dim) matrix from zero initial state:
    z = W x_t + U h + b, gates i, f, g, o, then the cell and hidden
    updates.  Returns the (T, d) hidden states in input order."""
    d = p.hidden_dim
    t_len = inputs.data.shape[0]
    w_t, u_t = transpose(p.w), transpose(p.u)
    gate = [Tensor(np.eye(4 * d)[:, k * d : (k + 1) * d]) for k in range(4)]  # column pickers
    h = c = Tensor(np.zeros((1, d)))
    out: list = [None] * t_len
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        z = add_rowvec(add(matmul(rows_reference(inputs, [t]), w_t), matmul(h, u_t)), p.b)
        i, f, g, o = (
            act(matmul(z, sel))
            for act, sel in zip((sigmoid, sigmoid, tanh, sigmoid), gate)
        )
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
        out[t] = h
    stacked = out[0]
    for h in out[1:]:
        stacked = concat(stacked, h)
    return stacked


def bilstm_reference(fwd, bwd, inputs: Tensor) -> Tensor:
    """Both per-step directions side by side, (T, 2d)."""
    return concat(lstm_reference(fwd, inputs), lstm_reference(bwd, inputs, reverse=True), axis=1)


# ---------------------------------------------------------------------------
# The one-sequence fused BiLSTM that the packed ``layers.bilstm``
# replaced: each direction runs ``lstm_sequence`` over one sentence,
# writing its half of one (T, 2d) output.  Kept, with the packed op's
# gate products and weight layouts, so tests can require the packed
# op's bits on one sentence, and its values within rounding on several.


def two_rows_at(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``rows @ b`` for a (T, k) ``rows``, as gemm of at least two
    contiguous rows by a contiguous ``b``: a single row is stacked on a
    zero row and the pad dropped."""
    padded = np.vstack([rows, np.zeros_like(rows)]) if len(rows) == 1 else np.ascontiguousarray(rows)
    return (padded @ np.ascontiguousarray(b))[: len(rows)]


def lstm_sequence(p, x: np.ndarray, out: np.ndarray, reverse: bool = False):
    """Run one direction over a (T, input_dim) array from zero initial
    state, writing the (T, d) hidden states into ``out`` in input order
    regardless of direction.  Untaped: ``bilstm_sequence`` records the
    node.  Returns the backward pass, a generator function of the
    gradient of ``out`` that yields the gradients of x, w, u and b."""
    d = p.hidden_dim
    t_len, dtype = x.shape[0], x.dtype
    xs = x[::-1] if reverse else x  # processing order
    scale = np.full(4 * d, 0.5, dtype=dtype)
    scale[2 * d : 3 * d] = 1.0
    offset = 1.0 - scale
    # Each product is one of two or more rows by a row-major matrix: one
    # row is padded with a zero row, as the packed op does.
    projected = (two_rows_at(xs, p.w.data.T) + p.b.data) * scale
    u_scaled_t = np.ascontiguousarray(p.u.data.T * scale)

    gates = np.empty((t_len, 4 * d), dtype=dtype)  # i, f, g, o after their nonlinearity
    cells = np.empty((t_len, d), dtype=dtype)
    tanh_cells = np.empty((t_len, d), dtype=dtype)
    hidden = out[::-1] if reverse else out  # processing order
    h = c = np.zeros(d, dtype=dtype)
    for s in range(t_len):
        act = gates[s]
        np.tanh(projected[s] + two_rows_at(h[None], u_scaled_t)[0], out=act)
        act *= scale
        act += offset
        c = np.multiply(act[d : 2 * d], c, out=cells[s])
        c += act[:d] * act[2 * d : 3 * d]
        tc = np.tanh(c, out=tanh_cells[s])
        h = np.multiply(act[3 * d :], tc, out=hidden[s])

    def bptt(g_out):
        i, f, g, o = (gates[:, k * d : (k + 1) * d] for k in range(4))
        c_prev = np.vstack([np.zeros((1, d), dtype=dtype), cells[:-1]])
        sig_i, sig_f, sig_o = i * (1.0 - i), f * (1.0 - f), o * (1.0 - o)
        dc_from_h = o * (1.0 - tanh_cells * tanh_cells)
        dz_from_c = np.stack([g * sig_i, c_prev * sig_f, i * (1.0 - g * g)], axis=1)  # (T, 3, d)
        dz_from_h = tanh_cells * sig_o
        g_seq = g_out[::-1] if reverse else g_out
        dz = np.empty((t_len, 4 * d), dtype=dtype)
        dz_cell = dz[:, : 3 * d].reshape(t_len, 3, d)
        dh_next = dc_next = np.zeros(d, dtype=dtype)
        u = np.asfortranarray(p.u.data)
        for s in range(t_len - 1, -1, -1):
            dh = g_seq[s] + dh_next
            dc = dh * dc_from_h[s] + dc_next
            np.multiply(dc, dz_from_c[s], out=dz_cell[s])
            np.multiply(dh, dz_from_h[s], out=dz[s, 3 * d :])
            dh_next = dz[s] @ u
            dc_next = dc * f[s]
        g_inputs = dz @ np.asfortranarray(p.w.data)
        yield g_inputs[::-1] if reverse else g_inputs
        yield dz.T @ xs if p.w.requires_grad else None
        h_prev = np.vstack([np.zeros((1, d), dtype=dtype), hidden[:-1]])
        yield dz.T @ h_prev if p.u.requires_grad else None
        yield dz.sum(axis=0) if p.b.requires_grad else None

    return bptt


def bilstm_sequence(fwd, bwd, inputs: Tensor) -> Tensor:
    """One sequence through both directions' ``lstm_sequence``, one tape
    node: the input gradient, then the six weight gradients."""
    x = inputs.data
    for p in (fwd, bwd):
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != p.w.data.shape[1]:
            raise ad.AutodiffError(f"bilstm: inputs {x.shape} do not match w {p.w.data.shape}")
    d_fwd = fwd.hidden_dim
    out = np.empty((x.shape[0], d_fwd + bwd.hidden_dim), dtype=x.dtype)
    bptt_fwd = lstm_sequence(fwd, x, out[:, :d_fwd])
    bptt_bwd = lstm_sequence(bwd, x, out[:, d_fwd:], reverse=True)

    def bw(g):
        grads_bwd, grads_fwd = bptt_bwd(g[:, d_fwd:]), bptt_fwd(g[:, :d_fwd])
        yield next(grads_bwd) + next(grads_fwd)
        yield from grads_fwd
        yield from grads_bwd

    return ad._make_output(out, (inputs, fwd.w, fwd.u, fwd.b, bwd.w, bwd.u, bwd.b), bw)


def bilstm_per_sentence(fwd, bwd, inputs: Tensor, lengths: Sequence[int]) -> Tensor:
    """``bilstm_sequence`` on each run of ``lengths`` consecutive rows,
    the outputs stacked back in input order."""
    starts = np.cumsum([0, *lengths])
    outs = [
        bilstm_sequence(fwd, bwd, rows_reference(inputs, range(a, b)))
        for a, b in zip(starts[:-1], starts[1:])
    ]
    stacked = outs[0]
    for out in outs[1:]:
        stacked = concat(stacked, out)
    return stacked


def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    """Numerically stable log(sum(exp(a))) over all elements or over one
    axis of a matrix (that axis is dropped), as a tape op.

    Only the composed CRF reference needs it: the library's CRF is a
    fused op with its own recursion."""
    if axis is not None and (a.data.ndim != 2 or axis not in (0, 1)):
        raise ValueError(f"logsumexp: axis {axis} needs a matrix, got shape {a.data.shape}")
    m = a.data.max(axis=axis, keepdims=True)
    kept = m + np.log(np.exp(a.data - m).sum(axis=axis, keepdims=True))

    def bw(g):
        return (np.exp(a.data - kept) * (g if axis is None else np.expand_dims(g, axis)),)

    out = kept.reshape(()) if axis is None else kept.squeeze(axis)
    return ad._make_output(out, (a,), bw)


def _pick(m: Tensor, i: int) -> Tensor:
    """Column i of a matrix as a vector."""
    return matvec(m, Tensor(np.eye(m.data.shape[1])[i]))


def crf_log_partition_reference(transitions: Tensor, emissions: Tensor) -> Tensor:
    """The CRF forward recursion in log space, one step per position."""
    t_len, k = emissions.data.shape
    real = Tensor(np.eye(k + 2)[:k])  # (k, k+2): keeps the real tags
    trans_t = transpose(transitions)  # [to, from]
    em_t = transpose(emissions)
    start = matvec(real, _pick(trans_t, k))
    stop = matvec(real, _pick(transitions, k + 1))
    inner_t = matmul(matmul(real, trans_t), transpose(real))  # [to, from]
    alpha = add(start, _pick(em_t, 0))
    for t in range(1, t_len):
        alpha = add(logsumexp(add_rowvec(inner_t, alpha), axis=1), _pick(em_t, t))
    return logsumexp(add(alpha, stop))


def crf_score_reference(transitions: Tensor, emissions: Tensor, tags) -> Tensor:
    """Gold-path score as weighted sums with 0/1 (or count) masks."""
    t_len, k = emissions.data.shape
    em_mask = np.zeros((t_len, k))
    em_mask[np.arange(t_len), tags] = 1.0
    trans_counts = np.zeros((k + 2, k + 2))
    for a, b in zip([k, *tags], [*tags, k + 1]):
        trans_counts[a, b] += 1.0
    return add(
        ad.sum_all(mul(emissions, Tensor(em_mask))),
        ad.sum_all(mul(transitions, Tensor(trans_counts))),
    )


def crf_nll_reference(transitions: Tensor, emissions: Tensor, tags) -> Tensor:
    return sub(
        crf_log_partition_reference(transitions, emissions),
        crf_score_reference(transitions, emissions, tags),
    )


def viterbi_reference(transitions: np.ndarray, emissions: np.ndarray) -> list[int]:
    """Per-sentence Viterbi, one (K, K) score matrix per token: the loop
    ``crf.viterbi_decode`` ran before it became the one-sentence case of
    ``crf.viterbi_paths``.  Ties go to the lowest tag id at each argmax."""
    k = transitions.shape[0] - 2
    inner = transitions[:k, :k]
    delta = transitions[k, :k] + emissions[0]
    backptr = np.zeros((emissions.shape[0], k), dtype=np.intp)
    for t in range(1, emissions.shape[0]):
        scores = delta[:, None] + inner  # [from, to]
        backptr[t] = scores.argmax(axis=0)
        delta = scores[backptr[t], np.arange(k)] + emissions[t]
    best = int((delta + transitions[:k, k + 1]).argmax())
    path = [best]
    for t in range(emissions.shape[0] - 1, 0, -1):
        best = int(backptr[t, best])
        path.append(best)
    return path[::-1]


def path_score(transitions: np.ndarray, emissions: np.ndarray, tags: Sequence[int]) -> float:
    """Plain left-to-right score of one tag path (numpy, no gradients).

    The single scoring convention shared by enumeration and by checks
    that re-score a decoded path, so equal paths give bitwise-equal
    scores."""
    transitions = np.asarray(transitions, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    _check_tags(k, emissions.shape[0], tags)
    s = transitions[k, tags[0]] + emissions[0, tags[0]]
    for t in range(1, len(tags)):
        s += transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    s += transitions[tags[-1], k + 1]
    return float(s)


class BruteForceResult(NamedTuple):
    log_partition: float
    best_tags: tuple[int, ...]
    best_score: float


def brute_force(transitions: np.ndarray, emissions: np.ndarray, limit: int = 1_000_000) -> BruteForceResult:
    """Exhaustive enumeration of every tag sequence.

    Independent of both the forward recursion and Viterbi: scores are
    summed per path and combined with a single log-sum-exp at the end.
    Ties on the best path resolve to the lexicographically smallest
    sequence.  Refuses to enumerate more than ``limit`` paths.
    """
    transitions = np.asarray(transitions, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    t_len = emissions.shape[0]
    if k**t_len > limit:
        raise ValueError(f"{k}^{t_len} paths exceed the enumeration limit of {limit}")
    start, stop = k, k + 1

    scores = np.empty(k**t_len)
    best_tags: tuple[int, ...] | None = None
    best_score = -np.inf
    for n, tags in enumerate(itertools.product(range(k), repeat=t_len)):
        s = path_score(transitions, emissions, tags)
        scores[n] = s
        if s > best_score:  # strict: first maximum wins, product order is lexicographic
            best_score = s
            best_tags = tags

    m = scores.max()
    log_z = float(m + np.log(np.exp(scores - m).sum()))
    assert best_tags is not None
    return BruteForceResult(log_z, best_tags, float(best_score))


# ---------------------------------------------------------------------------
# Allocating references for the embedding and optimizer path.  The library
# versions accumulate the embedding gradient row-sparsely and run Adam in
# place; these are the dense, temporary-per-operation forms they replaced,
# kept verbatim so tests can require equal bits.


def rows_reference(a: Tensor, indices, mask: np.ndarray | None = None) -> Tensor:
    """Gather matrix rows by index, scaled by ``mask`` when one is given;
    duplicate indices accumulate gradient into a dense (V, D) array.
    Unlike ``ad.rows`` it gathers from a recorded output too, so the
    step-by-step references slice their inputs with it."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise ad.AutodiffError(f"rows: expected matrix and index vector, got {a.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ad.AutodiffError(f"rows: index out of range for {a.data.shape[0]} rows")
    out = a.data[idx] if mask is None else a.data[idx] * mask
    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g if mask is None else g * mask)
        return (ga,)
    return ad._make_output(out, (a,), bw)


@dataclasses.dataclass
class AdamReference:
    """Per-parameter Adam state: moments allocated by name on a
    parameter's first step, and a step count per name."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: dict = dataclasses.field(default_factory=dict)
    v: dict = dataclasses.field(default_factory=dict)
    t: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.lr, self.beta1, self.beta2, self.epsilon = map(
            float, (self.lr, self.beta1, self.beta2, self.epsilon)
        )

    @classmethod
    def for_config(cls, config: TrainConfig) -> "AdamReference":
        return cls(config.learning_rate, config.beta1, config.beta2, config.epsilon)


class AdamByName(NamedTuple):
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: dict[str, int]


def adam_by_name(state: AdamState) -> AdamByName:
    """An ``AdamState`` read per parameter name, as ``AdamReference``
    holds it: views of each name's slice of its group's moment buffers,
    and the step count of its group."""
    return AdamByName(
        {name: view for g in state.groups for name, view in g.views(g.m)},
        {name: view for g in state.groups for name, view in g.views(g.v)},
        {name: g.t for g in state.groups for name in g.names},
    )


def adam_step_reference(state: AdamReference, params: dict, names):
    """One bias-corrected Adam update on the named parameters, one
    parameter at a time with temporaries, in Kingma & Ba's order:
    α_t = lr·√(1-β2^t)/(1-β1^t), ε̂ = ε·√(1-β2^t), θ ← θ - α_t·m/(√v + ε̂),
    which is θ - lr·m̂/(√v̂ + ε) in real arithmetic.  The gradients are
    left as they are."""
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        root = math.sqrt(1.0 - state.beta2**t)
        alpha = state.lr * root / (1.0 - state.beta1**t)
        p.data -= m / (np.sqrt(v) + state.epsilon * root) * alpha


# ---------------------------------------------------------------------------
# Separate per-mode training loops and the per-task forward passes they
# replaced: the library now runs one loop whose negation pass is an
# optional phase, and one eval pass that feeds both heads from the same
# sentence encodings.  Kept so tests can require equal bytes.  The loops
# step with the per-parameter ``adam_step_reference`` on plain
# per-tensor gradients: no optimizer lays their tensors out, so each
# backward after ``zero_grads`` accumulates into a fresh ``zeros_like``.


class BestTracker:
    """Keeps the checkpoint of the best dev epoch; earliest epoch wins
    ties.  The rule ``training.train_neural`` runs inline, kept as the
    separate counter it once was."""

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


def train_stl_reference(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> TrainResult:
    """Single-task sentiment training: one Adam step per document per
    epoch, best-dev-accuracy checkpoint kept, early stop on patience."""
    if config.mode != "stl":
        raise TrainingError(f"train_stl requires mode=stl, got {config.mode!r}")
    _require_labeled(train_docs, "train")
    _require_labeled(dev_docs, "dev")

    vocab = build_vocab(train_docs, config.min_count, config.lowercase)
    init_rng, shuffle_rng, dropout_rng = rng_streams(config.seed)
    params = ModelParams.init(
        len(vocab), config.embedding_dim, config.hidden_dim, init_rng, with_negation_head=False
    )
    named = params.named_parameters()
    for p in named.values():  # the precision train_neural rounds to
        p.data = p.data.astype(training.TRAIN_DTYPE)
    groups = params.parameter_groups()
    step_names = groups["shared"] + groups["sentiment"]
    adam = AdamReference.for_config(config)

    train_ids = _encode_docs(vocab, train_docs)
    gold = [LABEL_TO_CLASS[doc.label] for doc in train_docs]

    tracker = BestTracker(config.patience)
    history: list[dict] = []
    epochs_run = 0
    for epoch in range(1, config.epochs + 1):
        epochs_run = epoch
        order = shuffle_rng.permutation(len(train_docs))
        total = 0.0
        for i in order:
            zero_grads(named.values())
            with Tape():
                loss = sentiment_loss(
                    params, train_ids[i], gold[i],
                    train=True, dropout_p=config.dropout_p, rng=dropout_rng,
                )
                backward(loss)
            total += loss.item()
            adam_step_reference(adam, named, step_names)
        dev_acc = accuracy_of(predict_corpus(params, vocab, dev_docs))
        history.append(
            {"epoch": epoch, "sentiment_loss": total / len(train_docs), "dev_accuracy": dev_acc}
        )
        if tracker.update(epoch, dev_acc, params, vocab, config):
            break

    assert tracker.checkpoint is not None
    return TrainResult(tracker.checkpoint, history, tracker.best_epoch, tracker.best_accuracy, epochs_run)


def train_mtl_reference(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> TrainResult:
    """Multi-task training: per outer epoch, one full pass over all
    sentences on the CRF negation loss, then one full pass over all
    documents on the sentiment loss.  Both passes update the shared
    parameters; selection is best dev sentiment accuracy.

    With ``mtl_schedule="warmup_once"`` the negation pass runs in the
    first epoch only.
    """
    if config.mode != "mtl":
        raise TrainingError(f"train_mtl requires mode=mtl, got {config.mode!r}")
    _require_labeled(train_docs, "train")
    _require_labeled(dev_docs, "dev")
    for doc in train_docs:
        if not doc.has_negation_annotations:
            raise TrainingError(
                f"mtl training needs negation annotations; document {doc.id!r} has none"
            )

    vocab = build_vocab(train_docs, config.min_count, config.lowercase)
    init_rng, shuffle_rng, dropout_rng = rng_streams(config.seed)
    params = ModelParams.init(
        len(vocab), config.embedding_dim, config.hidden_dim, init_rng, with_negation_head=True
    )
    named = params.named_parameters()
    for p in named.values():  # the precision train_neural rounds to
        p.data = p.data.astype(training.TRAIN_DTYPE)
    groups = params.parameter_groups()
    neg_names = groups["shared"] + groups["negation"]
    sent_names = groups["shared"] + groups["sentiment"]
    adam = AdamReference.for_config(config)

    train_ids = _encode_docs(vocab, train_docs)
    gold = [LABEL_TO_CLASS[doc.label] for doc in train_docs]
    # negation examples: every sentence, annotated or trivially all-O
    sentences = [
        (train_ids[d][s], [int(t) for t in to_bio(sent)])
        for d, doc in enumerate(train_docs)
        for s, sent in enumerate(doc.sentences)
    ]

    tracker = BestTracker(config.patience)
    history: list[dict] = []
    epochs_run = 0
    for epoch in range(1, config.epochs + 1):
        epochs_run = epoch
        neg_mean = None
        if config.mtl_schedule == "alternating" or epoch == 1:
            neg_total = 0.0
            for i in shuffle_rng.permutation(len(sentences)):
                ids, tags = sentences[i]
                zero_grads(named.values())
                with Tape():
                    loss = negation_loss(
                        params, ids, tags,
                        train=True, dropout_p=config.dropout_p, rng=dropout_rng,
                    )
                    backward(loss)
                neg_total += loss.item()
                adam_step_reference(adam, named, neg_names)
            neg_mean = neg_total / len(sentences)

        sent_total = 0.0
        for i in shuffle_rng.permutation(len(train_docs)):
            zero_grads(named.values())
            with Tape():
                loss = sentiment_loss(
                    params, train_ids[i], gold[i],
                    train=True, dropout_p=config.dropout_p, rng=dropout_rng,
                )
                backward(loss)
            sent_total += loss.item()
            adam_step_reference(adam, named, sent_names)

        dev_acc = accuracy_of(predict_corpus(params, vocab, dev_docs))
        history.append(
            {
                "epoch": epoch,
                "negation_loss": neg_mean,
                "sentiment_loss": sent_total / len(train_docs),
                "dev_accuracy": dev_acc,
            }
        )
        if tracker.update(epoch, dev_acc, params, vocab, config):
            break

    assert tracker.checkpoint is not None
    return TrainResult(tracker.checkpoint, history, tracker.best_epoch, tracker.best_accuracy, epochs_run)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout as its own node after the gather: zero entries
    with probability p and scale the survivors by 1/(1-p), so evaluation
    needs no rescaling.  Identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    mask = np.divide(rng.random(x.data.shape) >= p, 1.0 - p, dtype=x.data.dtype)
    return mul(x, Tensor(mask))


def encode_sentence_reference(
    params: ModelParams,
    token_ids: Sequence[int],
    train: bool,
    dropout_p: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """Shared lower path for one sentence: embed, dropout as a second
    node after the gather, the one-sequence ``bilstm_sequence`` -> (T, 2d)."""
    if len(token_ids) == 0:
        raise ModelError("cannot encode an empty sentence")
    if train and dropout_p > 0.0 and rng is None:
        raise ModelError("training-mode dropout needs an rng")
    emb = params.embedding.lookup(token_ids)
    emb = dropout(emb, dropout_p, rng, train)
    return bilstm_sequence(params.sent_fwd, params.sent_bwd, emb)


def negation_forward_reference(
    params: ModelParams,
    token_ids: Sequence[int],
    train: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-token CRF emission scores of one sentence, shape (T, 5)."""
    return affine(params.emission, encode_sentence_reference(params, token_ids, train, dropout_p, rng))


def negation_tag_reference(params: ModelParams, token_ids: Sequence[int]) -> list[BioTag]:
    """Eval-mode Viterbi tagging of one sentence."""
    with no_grad():
        emissions = negation_forward_reference(params, token_ids)
    path = viterbi_reference(params.crf.transitions.data, emissions.data)
    return [BioTag(t) for t in path]


def _document_logits_reference(params: ModelParams, sentence_vectors: list[Tensor]) -> Tensor:
    if len(sentence_vectors) == 0:
        raise ModelError("cannot classify an empty document")
    doc_states = bilstm_sequence(params.doc_fwd, params.doc_bwd, stack_rows(sentence_vectors))
    return linear_vec(params.out, ad.max_over_time(doc_states))


def sentiment_forward_reference(
    params: ModelParams,
    doc_ids: Sequence[Sequence[int]],
    train: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Two-level document encoding to class logits, shape (2,).

    Each sentence is encoded on its own and becomes the max over time of
    its encoding, one pooling node per sentence, stacked by
    ``stack_rows``; the document BiLSTM runs over the sentence vectors
    and is max-pooled the same way before the output projection.
    """
    return _document_logits_reference(params, [
        ad.max_over_time(encode_sentence_reference(params, ids, train, dropout_p, rng))
        for ids in doc_ids
    ])


def predict_document_reference(
    params: ModelParams, doc_ids: Sequence[Sequence[int]], tags: bool = False
) -> SentimentPrediction:
    """Eval-mode classification from per-sentence encodings; with
    ``tags``, each sentence's Viterbi tags from its own emissions,
    decoded by ``viterbi_reference``."""
    with no_grad():
        encodings = [encode_sentence_reference(params, ids, False, 0.0, None) for ids in doc_ids]
        logits = _document_logits_reference(params, [ad.max_over_time(e) for e in encodings])
        sentence_tags = [
            [BioTag(t) for t in viterbi_reference(params.crf.transitions.data, affine(params.emission, e).data)]
            for e in encodings
        ] if tags else None
    cls = POSITIVE_CLASS if logits.data[POSITIVE_CLASS] >= logits.data[NEGATIVE_CLASS] else NEGATIVE_CLASS
    return SentimentPrediction(CLASS_TO_LABEL[cls], logits.data.copy(), sentence_tags)


def bow_loss_and_grad(
    w: np.ndarray, b: float, xs: np.ndarray, ys: np.ndarray, c: float
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy plus (1/C)·½‖w‖² (bias unregularized), and its
    gradient in w and in b: ``training._bow_objective`` without the
    probabilities, which only the library's Newton direction reuses."""
    return _bow_objective(w, b, xs, ys, c)[:3]


def fit_bow_reference(
    xs: np.ndarray,
    ys: np.ndarray,
    c: float,
    init: tuple[np.ndarray, float] | None = None,
    max_iters: int = 10_000,
    grad_tol: float = 1e-6,
) -> tuple[np.ndarray, float, float, int]:
    """Full-batch gradient descent with backtracking (Armijo) step
    selection on the convex regularized objective.  Stops when the
    gradient 2-norm falls below ``grad_tol``.  Returns (w, b, loss, iters)."""
    w = np.zeros(xs.shape[1]) if init is None else init[0].astype(np.float64).copy()
    b = 0.0 if init is None else float(init[1])
    loss, grad_w, grad_b = bow_loss_and_grad(w, b, xs, ys, c)
    iters = 0
    step = 1.0
    for iters in range(1, max_iters + 1):
        g_sq = float(grad_w @ grad_w) + grad_b**2
        if np.sqrt(g_sq) < grad_tol:
            iters -= 1
            break
        step = min(step * 2.0, 1e4)  # try growing first; backtrack as needed
        while True:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new, gw_new, gb_new = bow_loss_and_grad(w_new, b_new, xs, ys, c)
            if loss_new <= loss - 1e-4 * step * g_sq or step < 1e-20:
                break
            step *= 0.5
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
    return w, b, loss, iters


def vocab_order_reference(train_docs: Sequence[Document], min_count: int, lowercase: bool) -> list[str]:
    """The kept tokens of ``build_vocab`` under the (-count, token) key
    sort it ran before its two stable sorts, counted one sentence at a
    time."""
    counts: Counter[str] = Counter()
    for doc in train_docs:
        for sent in doc.sentences:
            counts.update((t.lower() for t in sent.tokens) if lowercase else sent.tokens)
    for reserved in (Vocabulary.PAD_TOKEN, Vocabulary.UNK_TOKEN):
        counts.pop(reserved, None)
    return sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))


def lookup_reference(vocab: Vocabulary, token: str) -> int:
    """The id of one token, looked up on its own: the per-token method
    ``Vocabulary.encode`` replaced."""
    if vocab.lowercase:
        token = token.lower()
    return vocab.token_to_id.get(token, vocab.UNK_ID)


def bow_features_reference(vocab: Vocabulary, doc: Document) -> np.ndarray:
    """Token-count vector of one document, one ``lookup_reference`` and
    one addition per token: the loop ``training.bow_matrix`` replaced."""
    x = np.zeros(len(vocab))
    for sent in doc.sentences:
        for token in sent.tokens:
            x[lookup_reference(vocab, token)] += 1.0
    return x


def fit_bow_newton_reference(
    xs: np.ndarray,
    ys: np.ndarray,
    c: float,
    init: tuple[np.ndarray, float] | None = None,
    max_iters: int = 100,
) -> tuple[np.ndarray, float, float, int]:
    """``training.fit_bow`` before it shared work: XXᵀ built in every
    fit, and each Newton direction recomputing σ(Xw + b) from (w, b)."""
    w = np.zeros(xs.shape[1]) if init is None else init[0].astype(np.float64).copy()
    b = 0.0 if init is None else float(init[1])
    gram = xs @ xs.T
    loss, grad_w, grad_b = bow_loss_and_grad(w, b, xs, ys, c)
    iters = 0
    while iters < max_iters and math.sqrt(float(grad_w @ grad_w) + grad_b**2) >= BOW_GRAD_TOL:
        p = _sigmoid(xs @ w + b)
        dw, db, slope = _bow_direction(p, xs, gram, c, grad_w, grad_b)
        for halvings in range(60):
            step = 0.5**halvings
            w_new = w + step * dw
            b_new = b + step * db
            loss_new, gw_new, gb_new = bow_loss_and_grad(w_new, b_new, xs, ys, c)
            if loss_new <= loss + 1e-4 * step * slope:
                break
        else:
            break
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
        iters += 1
    return w, b, loss, iters


def train_bow_reference(config: TrainConfig, train_docs: Sequence[Document], dev_docs: Sequence[Document]) -> BowResult:
    """``training.train_bow`` before it shared work: per-document count
    vectors (``bow_features_reference``) and ``fit_bow_newton_reference``
    at each C."""
    _require_labeled(train_docs, "train")
    _require_labeled(dev_docs, "dev")
    vocab = build_vocab(train_docs, config.min_count, config.lowercase)
    xs = np.stack([bow_features_reference(vocab, doc) for doc in train_docs])
    ys = np.array([float(LABEL_TO_CLASS[doc.label]) for doc in train_docs])
    dev_xs = [bow_features_reference(vocab, doc) for doc in dev_docs]
    best: BowResult | None = None
    by_c: dict[float, float] = {}
    for c in sorted(config.bow_c_grid):
        w, b, _, iters = fit_bow_newton_reference(xs, ys, c)
        _, grad_w, grad_b = bow_loss_and_grad(w, b, xs, ys, c)
        grad_norm = math.sqrt(float(grad_w @ grad_w) + grad_b**2)
        if not grad_norm < BOW_GRAD_TOL:
            raise TrainingError(f"bow fit at C={c} did not converge")
        model = BowModel(vocab, w, b, c)
        preds = [PredictionRecord(d.id, d.label, model.predict_features(x)) for d, x in zip(dev_docs, dev_xs)]
        by_c[c] = dev_acc = accuracy_of(preds)
        if best is None or dev_acc > best.dev_accuracy:
            best = BowResult(model, c, dev_acc, by_c, preds)
    assert best is not None
    return dataclasses.replace(best, dev_accuracy_by_c=by_c)
