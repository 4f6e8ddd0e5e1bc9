"""Neural network building blocks: embeddings, LSTMs and affine maps.

Every layer records exactly one tape node.  A bidirectional LSTM is
``bilstm``: one node that encodes every sequence whose rows it is
given, in both directions.  Like PyTorch's ``pack_padded_sequence`` it
orders the sequences by length and at step s runs only those longer
than s, so nothing is padded or masked; per step each direction does
one (live rows, d) @ (d, 4d) product and the gate nonlinearities run
once over both directions' rows.  The input projection for every
timestep is one matmul per direction ahead of the recurrence, and the
hand-written backpropagation through time is batched the same way.
Every forward gate product is ``_gemm``: at least two contiguous rows
by a row-major matrix, whose rows keep their bits whatever else shares
the call, so each sequence's output has the bits it has when encoded
alone.  Outputs and gradients are the same with ``w`` and ``u`` held in
either memory order; training holds them column-major
(``LstmParams.COLUMN_MAJOR``), so ``w.T`` and ``u.T`` are free views.
The backward products over several sequences round differently from
one sequence's.  The per-sequence BiLSTM it replaced and a per-step
reference built from generic primitives live in the tests.  It keeps
the cell states its backward pass reads only when the call is
recorded (``autodiff.records``): inference allocates the gates, the
hidden states and its output, and nothing per token beyond them.

Both heads end in ``affine``, one tape node computing ``x @ w.T + b``
for an (in,) vector (the sentiment output layer) or a (T, in) matrix
(the per-token CRF emissions).

Dropout is not a layer of its own: ``EmbeddingTable.lookup`` takes the
inverted-dropout mask and scales the rows it gathers, in its one node.

All parameters live in small dataclasses of leaf tensors so that model
code can enumerate, initialize and update them by name.  Initialization
draws from a caller-provided ``numpy.random.Generator``; the draw order
is fixed by the field order documented on each ``init``, which is what
makes same-seed runs bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

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

    Row 0 belongs to the padding token and is never looked up: sequences
    are packed by length rather than padded, and ``lookup`` refuses id 0.
    So the row never gets a gradient and keeps its initial zero through
    training, and it stays in the parameter manifest.
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

    def lookup(self, ids, mask: np.ndarray | None = None) -> Tensor:
        """Gather embeddings for a token id sequence, shape (T, dim), each
        entry scaled by ``mask`` when one is given: training applies its
        inverted-dropout mask here, in the gather's one tape node.  Id 0,
        the padding row, is out of range like an id past the table."""
        if 0 in ids:
            raise ad.AutodiffError(f"rows: index out of range for {len(self.weights.data)} rows")
        return ad.rows(self.weights, ids, mask)


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

    # The fields the optimizer lays out column-major, so that w.T and
    # u.T, the right operands of bilstm's forward gate products, are free
    # row-major views.  bilstm gives the same bits in either order.
    COLUMN_MAJOR: ClassVar[tuple[str, ...]] = ("w", "u")

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
        b = np.zeros(4 * hidden_dim, dtype=w.dtype)
        b[hidden_dim : 2 * hidden_dim] = 1.0
        return cls(
            Tensor(w, requires_grad=True),
            Tensor(u, requires_grad=True),
            Tensor(b, requires_grad=True),
        )

    @property
    def hidden_dim(self) -> int:
        return self.u.data.shape[1]


def _packing(lengths: Sequence[int] | None, n_rows: int):
    """The step plan for sequences of ``lengths`` rows laid end to end
    (one sequence of ``n_rows`` when None): the sequences are ordered by
    length with a stable sort, and step s runs the first n_s of them,
    those longer than s.  State rows are step-major: step s owns rows
    [2a, 2a + 2n_s), the forward direction's n_s rows first, where a
    counts one direction's rows in earlier steps.  Returns

    - ``read``: per direction, the input row of each packed row (token
      s of its sequence forward, token L - 1 - s backward);
    - ``slots``: per direction, the state row of each packed row;
    - ``steps``: (2a, n_s) per step;
    - ``prev``: the state rows after the first step, and the rows of the
      same sequence and direction one step earlier.

    One sequence needs no sort and no gather: every index is a slice.
    """
    if lengths is None or len(lengths) == 1:
        return (
            (slice(None), slice(None, None, -1)),
            (slice(0, None, 2), slice(1, None, 2)),
            [(2 * s, 1) for s in range(n_rows)],
            (slice(2, None), slice(None, -2)),
        )
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    first_token = (np.cumsum(lengths) - lengths)[order]
    step, seq = np.nonzero(sorted_len > np.arange(sorted_len[0])[:, None])
    live = np.bincount(step)
    before = np.cumsum(live) - live  # packed rows of one direction before each step
    fwd = before[step] + np.arange(n_rows)
    bwd = fwd + live[step]
    later = step > 0
    back = 2 * before[step[later] - 1] + seq[later]
    prev = (
        np.concatenate([fwd[later], bwd[later]]),
        np.concatenate([back, back + live[step[later] - 1]]),
    )
    read = (first_token[seq] + step, first_token[seq] + sorted_len[seq] - 1 - step)
    return read, (fwd, bwd), list(zip((2 * before).tolist(), live.tolist())), prev


def _gemm(rows: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``rows @ b`` (into ``out`` when given) through BLAS gemm, for a
    row-major ``b``: each row of the result then has the same bits
    whatever other rows share the call, their order or their number.
    Numpy sends a one-row product to gemv, whose bits differ, so a
    single row is padded to two and the pad dropped.  (OpenBLAS 0.3.31,
    Haswell kernels: measured at 2 to 300 rows, float32 and float64, 1
    and 2 threads; ``x @ w.T`` through a transposed view kept its row
    bits only from 4 to 5 rows up.)"""
    if rows.shape[-2] > 1:
        return np.matmul(rows, b, out=out)
    padded = np.zeros((*rows.shape[:-2], 2, rows.shape[-1]), dtype=rows.dtype)
    padded[..., :1, :] = rows
    product = np.matmul(padded, b)[..., :1, :]
    if out is None:
        return product
    out[...] = product
    return out


def _recurrence(gates: np.ndarray, u_scaled: np.ndarray, steps, scale: np.ndarray, taped: bool):
    """The forward recursion of ``bilstm`` over the step plan of
    ``_packing``, in place on the projected ``gates``: each row ends as
    its i, f, g, o after the nonlinearity.  Returns the (2N, d) hidden
    states and, when ``taped``, the cell states and their tanh, which the
    backward pass reads; untaped, the cell state and its tanh are
    updated in place in two (2, width, d) buffers and None is returned
    for both."""
    d, width, dtype = u_scaled.shape[1], steps[0][1], gates.dtype
    offset = 1.0 - scale
    hidden = np.empty((gates.shape[0], d), dtype=dtype)
    h = c = np.zeros((2, width, d), dtype=dtype)
    if taped:
        cells, tanh_cells = np.empty_like(hidden), np.empty_like(hidden)
    else:
        cells = tanh_cells = None
        c, tanh_c = np.zeros((2, width, d), dtype=dtype), np.empty((2, width, d), dtype=dtype)
    for a, n in steps:
        rows = slice(a, a + 2 * n)
        if taped:
            c_to, tc_to = cells[rows].reshape(2, n, d), tanh_cells[rows].reshape(2, n, d)
        else:  # each row is read before it is written
            c_to, tc_to = c[:, :n], tanh_c[:, :n]
        z = gates[rows].reshape(2, n, 4 * d)
        z += _gemm(h[:, :n], u_scaled)
        np.tanh(z, out=z)
        z *= scale
        z += offset
        c = np.multiply(z[..., d : 2 * d], c[:, :n], out=c_to)
        c += z[..., :d] * z[..., 2 * d : 3 * d]
        tc = np.tanh(c, out=tc_to)
        h = np.multiply(z[..., 3 * d :], tc, out=hidden[rows].reshape(2, n, d))
    return hidden, cells, tanh_cells


def bilstm(
    fwd: LstmParams, bwd: LstmParams, inputs: Tensor, lengths: Sequence[int] | None = None
) -> Tensor:
    """Bidirectional encoding of the sequences laid end to end in the
    rows of ``inputs``, ``lengths`` rows each (one sequence when None),
    into (N, 2d): forward and backward hidden states side by side per
    row, each sequence from zero initial state, as one tape node.

    All sequences and both directions advance in one step loop over the
    layout of ``_packing``.  sigmoid(z) = 0.5 * tanh(0.5 z) + 0.5, the
    overflow-free form the per-step reference's sigmoid in
    tests/oracles.py also uses, and tanh(z) = 1.0 * tanh(1.0 z) + 0.0,
    so one tanh yields all four gates; scaling by 0.5 is exact, so
    folding it into the projection and U changes no bits.  The backward
    pass yields the input gradient (both directions' parts summed), then
    the six weight gradients one at a time, so ``autodiff.backward``
    folds each into its leaf before the next one is computed.

    When ``autodiff.records`` says the call is not recorded (no tape, or
    ``no_grad``), it keeps nothing for a backward pass: no cell or
    tanh-cell rows, the gate buffer freed before the output is built,
    and a plain tensor returned.  The output has the same bits either way.
    """
    x = inputs.data
    for p in (fwd, bwd):
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != p.w.data.shape[1]:
            raise ad.AutodiffError(f"bilstm: inputs {x.shape} do not match w {p.w.data.shape}")
    if fwd.u.data.shape != bwd.u.data.shape:
        raise ad.AutodiffError(f"bilstm: directions differ, u {fwd.u.data.shape} and {bwd.u.data.shape}")
    n_rows, d, dtype = x.shape[0], fwd.hidden_dim, x.dtype
    if lengths is not None and (
        len(lengths) == 0 or min(lengths) < 1 or sum(lengths) != n_rows
    ):
        raise ad.AutodiffError(f"bilstm: lengths {list(lengths)} do not split {n_rows} rows")
    read, slots, steps, prev = _packing(lengths, n_rows)
    directions = tuple(zip((fwd, bwd), read, slots))
    params = (inputs, fwd.w, fwd.u, fwd.b, bwd.w, bwd.u, bwd.b)
    taped = ad.records(params)

    # Every forward gate product is ``_gemm`` of contiguous rows by a
    # row-major matrix, so each sequence's output has the bits it has
    # when encoded alone, whatever else shares the call.
    scale = np.full(4 * d, 0.5, dtype=dtype)
    scale[2 * d : 3 * d] = 1.0
    gates = np.empty((2 * n_rows, 4 * d), dtype=dtype)  # i, f, g, o after their nonlinearity
    projected = np.empty((n_rows, 4 * d), dtype=dtype)
    for p, rows, slot in directions:
        # w.T is a free view when w is held column-major (COLUMN_MAJOR)
        _gemm(np.ascontiguousarray(x[rows]), np.ascontiguousarray(p.w.data.T), out=projected)
        projected += p.b.data
        projected *= scale
        gates[slot] = projected
    del projected
    # U.T per direction with the gate scales folded in, (2, d, 4d), row-major
    u_scaled = np.empty((2, d, 4 * d), dtype=dtype)
    for k, p in enumerate((fwd, bwd)):
        np.multiply(p.u.data.T, scale, out=u_scaled[k])
    hidden, cells, tanh_cells = _recurrence(gates, u_scaled, steps, scale, taped)
    if not taped:
        del gates  # an untaped call keeps only its output
    out = np.empty((n_rows, 2 * d), dtype=dtype)
    for k, (_, rows, slot) in enumerate(directions):
        out[rows, k * d : (k + 1) * d] = hidden[slot]
    if not taped:
        return Tensor(out)

    def earlier(states):
        """Each state row's value one step earlier; zero at the first step."""
        shifted = np.zeros_like(states)
        shifted[prev[0]] = states[prev[1]]
        return shifted

    def bw(g_out):
        i, f, g, o = (gates[:, k * d : (k + 1) * d] for k in range(4))
        # per-step factors that do not depend on the recursion
        sig_i, sig_f, sig_o = i * (1.0 - i), f * (1.0 - f), o * (1.0 - o)
        dc_from_h = o * (1.0 - tanh_cells * tanh_cells)
        dz_from_c = np.stack([g * sig_i, earlier(cells) * sig_f, i * (1.0 - g * g)], axis=1)
        dz_from_h = tanh_cells * sig_o
        g_states = np.empty((2 * n_rows, d), dtype=dtype)
        for k, (_, rows, slot) in enumerate(directions):
            g_states[slot] = g_out[rows, k * d : (k + 1) * d]
        dz = np.empty((2 * n_rows, 4 * d), dtype=dtype)
        dz_cell = dz[:, : 3 * d].reshape(2 * n_rows, 3, d)
        dh_next, dc_next = (np.zeros((2, steps[0][1], d), dtype=dtype) for _ in range(2))
        # U per direction, column-major whatever order it is held in: a
        # plain copy, not a transposing one, of the U training holds
        u = np.empty((2, d, 4 * d), dtype=dtype)
        u[0], u[1] = fwd.u.data.T, bwd.u.data.T
        u = u.transpose(0, 2, 1)
        for a, n in reversed(steps):
            rows = slice(a, a + 2 * n)
            dh = g_states[rows].reshape(2, n, d) + dh_next[:, :n]
            dc = dh * dc_from_h[rows].reshape(2, n, d) + dc_next[:, :n]
            np.multiply(dc[:, :, None], dz_from_c[rows].reshape(2, n, 3, d),
                        out=dz_cell[rows].reshape(2, n, 3, d))
            np.multiply(dh, dz_from_h[rows].reshape(2, n, d), out=dz[rows, 3 * d :].reshape(2, n, d))
            np.matmul(dz[rows].reshape(2, n, 4 * d), u, out=dh_next[:, :n])
            np.multiply(dc, f[rows].reshape(2, n, d), out=dc_next[:, :n])
        # by a column-major w, as it is held in training, whatever its order
        g_inputs = np.empty_like(x)
        g_inputs[read[1]] = dz[slots[1]] @ np.asfortranarray(bwd.w.data)
        g_inputs[read[0]] += dz[slots[0]] @ np.asfortranarray(fwd.w.data)
        yield g_inputs
        h_prev = earlier(hidden)
        for p, rows, slot in directions:
            dz_p = dz[slot]
            # as (rows.T @ dz).T, column-major like the weights training
            # holds, so adding them into the weight's gradient is no transpose
            yield (x[rows].T @ dz_p).T if p.w.requires_grad else None
            yield (h_prev[slot].T @ dz_p).T if p.u.requires_grad else None
            yield dz_p.sum(axis=0) if p.b.requires_grad else None

    return ad._make_output(out, params, bw)


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
        b = np.zeros(output_dim, dtype=w.dtype)
        return cls(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


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
