"""Shared test-side oracles, kept independent of the library's own checkers."""

import numpy as np

from negmtl import autodiff as ad
from negmtl.autodiff import Tape, Tensor, backward, no_grad
from negmtl.training import OptimizerError


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
    return ad.sum_all(ad.mul(t, w))


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
    w_t, u_t = ad.transpose(p.w), ad.transpose(p.u)
    gate = [Tensor(np.eye(4 * d)[:, k * d : (k + 1) * d]) for k in range(4)]  # column pickers
    h = c = Tensor(np.zeros((1, d)))
    out: list = [None] * t_len
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        z = ad.add_rowvec(ad.add(ad.matmul(ad.rows(inputs, [t]), w_t), ad.matmul(h, u_t)), p.b)
        i, f, g, o = (
            act(ad.matmul(z, sel))
            for act, sel in zip((ad.sigmoid, ad.sigmoid, ad.tanh, ad.sigmoid), gate)
        )
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        out[t] = h
    stacked = out[0]
    for h in out[1:]:
        stacked = ad.concat(stacked, h)
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
    return ad.matvec(m, Tensor(np.eye(m.data.shape[1])[i]))


def crf_log_partition_reference(transitions: Tensor, emissions: Tensor) -> Tensor:
    """The CRF forward recursion in log space, one step per position."""
    t_len, k = emissions.data.shape
    real = Tensor(np.eye(k + 2)[:k])  # (k, k+2): keeps the real tags
    trans_t = ad.transpose(transitions)  # [to, from]
    em_t = ad.transpose(emissions)
    start = ad.matvec(real, _pick(trans_t, k))
    stop = ad.matvec(real, _pick(transitions, k + 1))
    inner_t = ad.matmul(ad.matmul(real, trans_t), ad.transpose(real))  # [to, from]
    alpha = ad.add(start, _pick(em_t, 0))
    for t in range(1, t_len):
        alpha = ad.add(logsumexp(ad.add_rowvec(inner_t, alpha), axis=1), _pick(em_t, t))
    return logsumexp(ad.add(alpha, stop))


def crf_score_reference(transitions: Tensor, emissions: Tensor, tags) -> Tensor:
    """Gold-path score as weighted sums with 0/1 (or count) masks."""
    t_len, k = emissions.data.shape
    em_mask = np.zeros((t_len, k))
    em_mask[np.arange(t_len), tags] = 1.0
    trans_counts = np.zeros((k + 2, k + 2))
    for a, b in zip([k, *tags], [*tags, k + 1]):
        trans_counts[a, b] += 1.0
    return ad.add(
        ad.sum_all(ad.mul(emissions, Tensor(em_mask))),
        ad.sum_all(ad.mul(transitions, Tensor(trans_counts))),
    )


def crf_nll_reference(transitions: Tensor, emissions: Tensor, tags) -> Tensor:
    return ad.sub(
        crf_log_partition_reference(transitions, emissions),
        crf_score_reference(transitions, emissions, tags),
    )


# ---------------------------------------------------------------------------
# Allocating references for the embedding and optimizer path.  The library
# versions accumulate the embedding gradient row-sparsely and run Adam in
# place; these are the dense, temporary-per-operation forms they replaced,
# kept verbatim so tests can require equal bits.


def rows_reference(a: Tensor, indices) -> Tensor:
    """Gather matrix rows by index; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise ad.AutodiffError(f"rows: expected matrix and index vector, got {a.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ad.AutodiffError(f"rows: index out of range for {a.data.shape[0]} rows")
    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)
    return ad._make_output(a.data[idx], (a,), bw)


def adam_step_reference(state, params: dict, names):
    """One bias-corrected Adam update on the named parameters:
    m̂ = m/(1-β1^t), v̂ = v/(1-β2^t), θ ← θ - lr·m̂/(√v̂ + ε)."""
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
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
