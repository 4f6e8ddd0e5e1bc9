"""Neural network building blocks: embeddings, LSTMs, affine maps, dropout.

Every layer records exactly one tape node.  A bidirectional LSTM is
``bilstm``: each direction runs the untaped kernel ``lstm_sequence``,
which writes its hidden states into its half of one (T, 2d) output and
returns its hand-written backpropagation through time.  The input
projection for every timestep is a single matmul ahead of the
recurrence, so only ``U @ h`` and the gates run step by step in numpy.
A per-step reference built from generic primitives lives in the tests.

Both heads end in ``affine``, one tape node computing ``x @ w.T + b``
for an (in,) vector (the sentiment output layer) or a (T, in) matrix
(the per-token CRF emissions).

All parameters live in small dataclasses of leaf tensors so that model
code can enumerate, initialize and update them by name.  Initialization
draws from a caller-provided ``numpy.random.Generator``; the draw order
is fixed by the field order documented on each ``init``, which is what
makes same-seed runs bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def xavier_uniform(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)) for a matrix
    mapping fan_in inputs to fan_out outputs (shape is (fan_out, fan_in))."""
    fan_out, fan_in = shape
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


@dataclass
class EmbeddingTable:
    """Token embedding matrix, one row per vocabulary id.

    Row 0 belongs to the padding token and is kept at zero: sequences are
    processed one at a time so id 0 is never looked up, but the row is
    part of the parameter manifest and must stay stable across save/load.
    """

    weights: Tensor  # (vocab, dim)

    @staticmethod
    def shapes(vocab_size: int, dim: int) -> dict[str, tuple[int, ...]]:
        """The shape ``init`` gives each field."""
        return {"weights": (vocab_size, dim)}

    @classmethod
    def init(cls, vocab_size: int, dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        w = rng.uniform(-0.1, 0.1, size=(vocab_size, dim))
        w[0] = 0.0
        return cls(Tensor(w, requires_grad=True))

    def lookup(self, ids) -> Tensor:
        """Gather embeddings for a token id sequence, shape (T, dim)."""
        return ad.rows(self.weights, ids)


@dataclass
class LstmParams:
    """One direction of an LSTM.

    Gate blocks are stacked along the first axis in the order input,
    forget, cell, output; the forget-gate bias section starts at 1.0 so
    early training does not erase the cell state.
    """

    w: Tensor  # (4d, input_dim)
    u: Tensor  # (4d, d)
    b: Tensor  # (4d,)

    @staticmethod
    def shapes(input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
        """The shape ``init`` gives each field."""
        gates = 4 * hidden_dim
        return {"w": (gates, input_dim), "u": (gates, hidden_dim), "b": (gates,)}

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> "LstmParams":
        """Draw order: w, then u. Biases start at zero except forget = 1."""
        w = xavier_uniform((4 * hidden_dim, input_dim), rng)
        u = xavier_uniform((4 * hidden_dim, hidden_dim), rng)
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim : 2 * hidden_dim] = 1.0
        return cls(
            Tensor(w, requires_grad=True),
            Tensor(u, requires_grad=True),
            Tensor(b, requires_grad=True),
        )

    @property
    def hidden_dim(self) -> int:
        return self.u.data.shape[1]


def lstm_sequence(p: LstmParams, x: np.ndarray, out: np.ndarray, reverse: bool = False):
    """Run one direction over a (T, input_dim) array from zero initial
    state, writing the (T, d) hidden states into ``out`` in input order
    regardless of direction.  Untaped: ``bilstm`` records the node.

    The input projection ``X @ W.T + b`` is one (T, 4d) matmul ahead of
    the recurrence, so only ``U @ h`` and the gate nonlinearities run
    step by step.  Returns the backward pass, a generator function of
    the gradient of ``out``: it runs backpropagation through time over
    the cached gates and cell states, then yields the gradients of x,
    w, u and b (None for a weight that needs none).
    """
    d = p.hidden_dim
    t_len = x.shape[0]
    xs = x[::-1] if reverse else x  # processing order
    # sigmoid(z) = 0.5 * tanh(0.5 z) + 0.5, the overflow-free form the
    # per-step reference's sigmoid in tests/oracles.py also uses, and
    # tanh(z) = 1.0 * tanh(1.0 z) + 0.0, so one tanh over the (4d,)
    # pre-activation yields all four gates.  Scaling by 0.5 is exact, so
    # folding it into the projection and U changes no bits.
    scale = np.full(4 * d, 0.5)
    scale[2 * d : 3 * d] = 1.0
    offset = 1.0 - scale
    projected = (xs @ p.w.data.T + p.b.data) * scale
    u_scaled = p.u.data * scale[:, None]

    gates = np.empty((t_len, 4 * d))  # i, f, g, o after their nonlinearity
    cells = np.empty((t_len, d))
    tanh_cells = np.empty((t_len, d))
    hidden = out[::-1] if reverse else out  # processing order
    h = c = np.zeros(d)
    for s in range(t_len):
        act = gates[s]
        np.tanh(projected[s] + u_scaled @ h, out=act)
        act *= scale
        act += offset
        c = np.multiply(act[d : 2 * d], c, out=cells[s])
        c += act[:d] * act[2 * d : 3 * d]
        tc = np.tanh(c, out=tanh_cells[s])
        h = np.multiply(act[3 * d :], tc, out=hidden[s])

    def bptt(g_out):
        i, f, g, o = (gates[:, k * d : (k + 1) * d] for k in range(4))
        c_prev = np.vstack([np.zeros((1, d)), cells[:-1]])
        # per-step factors that do not depend on the recursion
        sig_i, sig_f, sig_o = i * (1.0 - i), f * (1.0 - f), o * (1.0 - o)
        dc_from_h = o * (1.0 - tanh_cells * tanh_cells)
        dz_from_c = np.stack([g * sig_i, c_prev * sig_f, i * (1.0 - g * g)], axis=1)  # (T, 3, d)
        dz_from_h = tanh_cells * sig_o
        g_seq = g_out[::-1] if reverse else g_out
        dz = np.empty((t_len, 4 * d))
        dz_cell = dz[:, : 3 * d].reshape(t_len, 3, d)
        dh_next = dc_next = np.zeros(d)
        u = p.u.data
        for s in range(t_len - 1, -1, -1):
            dh = g_seq[s] + dh_next
            dc = dh * dc_from_h[s] + dc_next
            np.multiply(dc, dz_from_c[s], out=dz_cell[s])
            np.multiply(dh, dz_from_h[s], out=dz[s, 3 * d :])
            dh_next = dz[s] @ u
            dc_next = dc * f[s]
        g_inputs = dz @ p.w.data
        yield g_inputs[::-1] if reverse else g_inputs
        yield dz.T @ xs if p.w.requires_grad else None
        h_prev = np.vstack([np.zeros((1, d)), hidden[:-1]])
        yield dz.T @ h_prev if p.u.requires_grad else None
        yield dz.sum(axis=0) if p.b.requires_grad else None

    return bptt


def bilstm(fwd: LstmParams, bwd: LstmParams, inputs: Tensor) -> Tensor:
    """Bidirectional encoding of a (T, input_dim) matrix into (T, 2d):
    forward and backward hidden states side by side per position,
    recorded as a single tape node.

    Each direction's ``lstm_sequence`` writes its half of the output.
    The backward pass yields the input gradient (the backward
    direction's part plus the forward direction's), then the six weight
    gradients one at a time, so ``autodiff.backward`` folds each into
    its leaf before the next one is computed.
    """
    x = inputs.data
    for p in (fwd, bwd):
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != p.w.data.shape[1]:
            raise ad.AutodiffError(f"bilstm: inputs {x.shape} do not match w {p.w.data.shape}")
    d_fwd = fwd.hidden_dim
    out = np.empty((x.shape[0], d_fwd + bwd.hidden_dim))
    bptt_fwd = lstm_sequence(fwd, x, out[:, :d_fwd])
    bptt_bwd = lstm_sequence(bwd, x, out[:, d_fwd:], reverse=True)

    def bw(g):
        grads_bwd, grads_fwd = bptt_bwd(g[:, d_fwd:]), bptt_fwd(g[:, :d_fwd])
        yield next(grads_bwd) + next(grads_fwd)
        yield from grads_fwd
        yield from grads_bwd

    return ad._make_output(out, (inputs, fwd.w, fwd.u, fwd.b, bwd.w, bwd.u, bwd.b), bw)


@dataclass
class Linear:
    w: Tensor  # (out, in)
    b: Tensor  # (out,)

    @staticmethod
    def shapes(input_dim: int, output_dim: int) -> dict[str, tuple[int, ...]]:
        """The shape ``init`` gives each field."""
        return {"w": (output_dim, input_dim), "b": (output_dim,)}

    @classmethod
    def init(cls, input_dim: int, output_dim: int, rng: np.random.Generator) -> "Linear":
        """Draw order: w only; bias starts at zero."""
        w = xavier_uniform((output_dim, input_dim), rng)
        return cls(Tensor(w, requires_grad=True), Tensor(np.zeros(output_dim), requires_grad=True))


def affine(p: Linear, x: Tensor) -> Tensor:
    """``x @ w.T + b`` for an (in,) vector or a (T, in) matrix (the same
    map on every row), recorded as a single tape node.  The backward pass
    returns ``g @ w`` for x and, over the inputs and gradients viewed as
    matrices, ``g.T @ x`` for w and the column sums of g for b."""
    w = p.w.data
    if x.data.ndim not in (1, 2) or x.data.shape[-1] != w.shape[1]:
        raise ad.AutodiffError(f"affine: inputs {x.data.shape} do not match w {w.shape}")

    def bw(g):
        g2, x2 = np.atleast_2d(g), np.atleast_2d(x.data)
        return (
            g @ w if x.requires_grad else None,
            g2.T @ x2 if p.w.requires_grad else None,
            g2.sum(axis=0) if p.b.requires_grad else None,
        )

    return ad._make_output(x.data @ w.T + p.b.data, (x, p.w, p.b), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: zero entries with probability p and scale the
    survivors by 1/(1-p), so evaluation needs no rescaling.  Identity when
    not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return ad.mul(x, Tensor(mask))
