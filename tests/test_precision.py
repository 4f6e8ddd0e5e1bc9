"""Training and prediction compute in the dtype of the model's parameters.

A float32 model (what ``train_neural`` trains and ``Checkpoint.to_model``
rebuilds) must run every op in float32, and a float64 model (what
``ModelParams.init`` draws and the gradient checks use) in float64.  A
leaf's ``grad`` cannot show an upcast on its own, because ``+=`` casts
the gradient back to the leaf's dtype, so the checks here wrap every
recorded node: its output, the gradient it receives and each gradient
its backward pass yields must all have the model's dtype.
"""

import numpy as np
import pytest

from negmtl import autodiff as ad
from negmtl.autodiff import Tape, backward, zero_grads
from negmtl.models import ModelParams, negation_loss, predict_document, sentiment_loss
from negmtl.training import AdamState, apply_updates
from oracles import adam_by_name

DOC = [[1, 2, 1, 3], [4, 5], [6, 2, 7, 8, 9]]


def model(dtype) -> ModelParams:
    params = ModelParams.init(10, 6, 5, np.random.default_rng(3), with_negation_head=True)
    for p in params.named_parameters().values():
        p.data = p.data.astype(dtype)
    return params


@pytest.fixture
def node_dtypes(monkeypatch):
    """(node, what, dtype) for every array a recorded node makes or passes
    back: its inputs, its output, its incoming gradient, and each
    gradient it yields (a ``RowGrad``'s values)."""
    seen = []
    make_output = ad._make_output

    def checked(data, inputs, bw):
        name = bw.__qualname__.split(".")[0]
        seen.append((name, "output", data.dtype))
        seen.extend((name, f"input {k}", t.data.dtype) for k, t in enumerate(inputs))

        def checked_bw(g):
            seen.append((name, "incoming gradient", g.dtype))
            for k, gt in enumerate(bw(g)):
                if gt is not None:
                    values = gt.values if isinstance(gt, ad.RowGrad) else gt
                    seen.append((name, f"gradient of input {k}", values.dtype))
                yield gt

        return make_output(data, inputs, checked_bw)

    monkeypatch.setattr(ad, "_make_output", checked)
    return seen


def train_step(params, loss_fn, group) -> AdamState:
    named = params.named_parameters()
    groups = params.parameter_groups()
    adam = AdamState()
    zero_grads(named.values())
    with Tape():
        loss = loss_fn(params)
        backward(loss)
    apply_updates(adam, named, groups["shared"] + groups[group])
    return adam


LOSSES = {
    "sentiment": lambda params: sentiment_loss(
        params, DOC, 1, train=True, dropout_p=0.3, rng=np.random.default_rng(4)
    ),
    "negation": lambda params: negation_loss(
        params, DOC[2], [0, 1, 2, 2, 0], train=True, dropout_p=0.3, rng=np.random.default_rng(4)
    ),
}
NODES = {
    "sentiment": {"rows", "bilstm", "max_over_time", "affine", "softmax_cross_entropy"},
    "negation": {"rows", "bilstm", "affine", "crf_nll"},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("group", ["sentiment", "negation"])
def test_one_training_step_stays_in_the_model_dtype(node_dtypes, group, dtype):
    params = model(dtype)
    adam = train_step(params, LOSSES[group], group)
    assert {name for name, _, _ in node_dtypes} == NODES[group]
    assert [(name, what) for name, what, dt in node_dtypes if dt != dtype] == []
    backward_passes = {name for name, what, _ in node_dtypes if what == "incoming gradient"}
    assert backward_passes == NODES[group]
    for name, p in params.named_parameters().items():
        assert p.data.dtype == dtype, name
        assert p.grad is None or p.grad.dtype == dtype, name
    moments = adam_by_name(adam)
    assert set(moments.m) == set(moments.v) != set()
    for name in moments.m:
        assert moments.m[name].dtype == moments.v[name].dtype == dtype, name
    # the step laid out one group in the model's dtype, values included
    (laid_out,) = adam.groups
    assert [buf.dtype for buf in (laid_out.data, laid_out.grad, laid_out.m, laid_out.v)] == [dtype] * 4
    for name in laid_out.names:
        assert np.shares_memory(params.named_parameters()[name].data, laid_out.data), name
    assert [buf.dtype for buf in adam.scratch] == [dtype, dtype]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prediction_stays_in_the_model_dtype(node_dtypes, dtype):
    pred = predict_document(model(dtype), DOC, tags=True)
    assert pred.logits.dtype == dtype
    assert len(pred.tags) == len(DOC)
    assert [(name, what) for name, what, dt in node_dtypes if dt != dtype] == []


def test_adam_hyperparameters_do_not_promote_float32():
    # a numpy float64 scalar times a float32 array is float64 (NEP 50)
    # Adam consumes the gradient it steps, so each side gets its own copy
    grad = np.full(3, 0.5, dtype=np.float32)
    p = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    p.grad = grad.copy()
    adam = AdamState(lr=np.float64(0.01), beta1=np.float64(0.9), beta2=np.float64(0.999),
                     epsilon=np.float64(1e-8))
    apply_updates(adam, {"p": p}, ["p"])
    assert all(type(v) is float for v in (adam.lr, adam.beta1, adam.beta2, adam.epsilon))
    want = AdamState(lr=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8)
    q = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    q.grad = grad.copy()
    apply_updates(want, {"q": q}, ["q"])
    assert p.data.dtype == np.float32 and p.data.tobytes() == q.data.tobytes()


@pytest.mark.parametrize("data, dtype", [
    (np.ones(2, dtype=np.float32), np.float32),
    (np.ones(2), np.float64),
    ([1, 2], np.float64),
    (np.ones(2, dtype=np.int32), np.float64),
    (np.ones(2, dtype=np.float16), np.float64),
    (0.5, np.float64),
])
def test_tensor_keeps_float32_and_float64_and_converts_the_rest(data, dtype):
    assert ad.Tensor(data).data.dtype == dtype
