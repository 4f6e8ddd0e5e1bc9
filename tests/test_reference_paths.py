"""Bit-identity of the embedding and optimizer path against the dense,
allocating references in ``tests/oracles.py``.

The row-sparse ``rows`` gradient and the in-place ``adam_step`` are
refactors: every test here requires equal bytes, not closeness.
"""

import numpy as np
import pytest

from negmtl import autodiff as ad
from negmtl import training
from negmtl.autodiff import Tape, Tensor, backward, zero_grads
from negmtl.models import ModelParams, negation_loss, sentiment_loss
from negmtl.training import (
    AdamState,
    TrainConfig,
    apply_updates,
    save_checkpoint,
    train_mtl,
    train_stl,
)
from oracles import adam_step_reference, rows_reference
from test_training import doc


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: unlike array_equal, tells -0.0 from +0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def reference_path(monkeypatch):
    """Route the model and the training loops through the references."""
    def use():
        monkeypatch.setattr(ad, "rows", rows_reference)
        monkeypatch.setattr(training, "adam_step", adam_step_reference)
    return use


class TestRowsGradient:
    def leaf_grad(self, rows_op, weights):
        m = Tensor(np.arange(24.0).reshape(6, 4), requires_grad=True)
        with Tape():
            first = ad.mul(rows_op(m, [4, 1, 4, 4, 2]), Tensor(weights[:5]))
            second = ad.mul(rows_op(m, [2, 5, 1]), Tensor(weights[5:]))
            backward(ad.add(ad.sum_all(first), ad.sum_all(second)))
        return m.grad

    def test_leaf_grad_matches_dense_reference(self):
        # signed zeros, tiny and huge magnitudes, repeated rows within one
        # gather and across two gathers of the same leaf
        w = np.random.default_rng(3).normal(size=(8, 4)) * 10.0 ** np.arange(-6, 10, 4)
        w[0, 0], w[2, 0], w[3, 1] = -0.0, 0.0, -0.0
        w[5, 2] = 1e-300
        got = self.leaf_grad(ad.rows, w)
        want = self.leaf_grad(rows_reference, w)
        assert same_bits(got, want)
        assert not np.signbit(got[[0, 3]]).any()  # untouched rows stay +0.0

    def test_backward_returns_unique_summed_rows(self):
        m = Tensor(np.zeros((5, 2)), requires_grad=True)
        with Tape() as tape:
            ad.rows(m, [3, 1, 3])
        (grad,) = tape.nodes[0].backward(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(grad.index, [1, 3])
        np.testing.assert_array_equal(grad.values, [[3.0, 4.0], [6.0, 8.0]])


def repeated_ids():
    # token 1 repeats inside the first sentence, 2 and 4 across sentences
    return [[1, 2, 1, 3], [2, 2, 4], [4, 1], [5]]


class TestModelGradients:
    def grads(self, loss_fn):
        params = ModelParams.init(7, 5, 4, np.random.default_rng(11), with_negation_head=True)
        named = params.named_parameters()
        zero_grads(named.values())
        with Tape():
            backward(loss_fn(params))
        return {n: p.grad for n, p in named.items() if p.grad is not None}

    def assert_same_as_reference(self, loss_fn, reference_path):
        got = self.grads(loss_fn)
        reference_path()
        want = self.grads(loss_fn)
        assert list(got) == list(want)
        for name in want:
            assert same_bits(got[name], want[name]), name

    def test_sentiment_loss_embedding_grad(self, reference_path):
        def loss(params):
            rng = np.random.default_rng(5)
            return sentiment_loss(params, repeated_ids(), 1, train=True, dropout_p=0.3, rng=rng)

        self.assert_same_as_reference(loss, reference_path)

    def test_negation_loss_embedding_grad(self, reference_path):
        def loss(params):
            rng = np.random.default_rng(5)
            return negation_loss(params, [1, 2, 1, 1, 3], [0, 1, 2, 2, 0], train=True,
                                 dropout_p=0.3, rng=rng)

        self.assert_same_as_reference(loss, reference_path)


class TestAdamMatchesReference:
    def run(self, step_fn, monkeypatch):
        """50 apply_updates steps over an embedding with a pinned padding
        row and two never-looked-up rows, a scalar, a vector and a matrix.
        The scalar comes first, so the scratch buffers grow mid-stream."""
        monkeypatch.setattr(training, "adam_step", step_fn)
        rng = np.random.default_rng(7)
        params = {
            "s": Tensor(np.array(0.25), requires_grad=True),
            "embedding.weights": Tensor(rng.normal(size=(6, 3)), requires_grad=True),
            "b": Tensor(rng.normal(size=4), requires_grad=True),
            "w": Tensor(rng.normal(size=(4, 5)), requires_grad=True),
        }
        params["embedding.weights"].data[0] = 0.0
        state = AdamState(lr=0.01, beta1=0.85, beta2=0.995, epsilon=1e-7)
        grad_rng = np.random.default_rng(8)
        for step in range(50):
            for name, p in params.items():
                scale = 10.0 ** grad_rng.integers(-9, 4, size=p.data.shape)
                p.grad = grad_rng.normal(size=p.data.shape) * scale
            emb_grad = params["embedding.weights"].grad
            emb_grad[[2, 5]] = 0.0
            if step % 7 == 0:
                emb_grad[1] = -0.0
            names = list(params) if step % 5 else ["embedding.weights", "w"]
            apply_updates(state, params, names)
        return params, state

    def test_fifty_steps_bitwise(self, monkeypatch):
        got, got_state = self.run(training.adam_step, monkeypatch)
        want, want_state = self.run(adam_step_reference, monkeypatch)
        assert got_state.t == want_state.t
        for name in want:
            assert same_bits(got[name].data, want[name].data), name
            assert same_bits(got_state.m[name], want_state.m[name]), name
            assert same_bits(got_state.v[name], want_state.v[name]), name
        np.testing.assert_array_equal(got["embedding.weights"].data[0], 0.0)

    def test_scratch_is_sized_to_the_largest_parameter(self, monkeypatch):
        _, state = self.run(training.adam_step, monkeypatch)
        assert [buf.size for buf in state.scratch] == [20, 20]


def corpus():
    train = [
        doc("t1", "positive", ("it is not a bad film , not bad", [((2,), (3, 4, 5))]), "good good fun"),
        doc("t2", "positive", "good fun story", "a good film"),
        doc("t3", "negative", ("never a good moment", [((0,), (1, 2, 3))]), "sad end , sad"),
        doc("t4", "negative", "bad boring mess", "a bad bad film"),
    ]
    dev = [
        doc("d1", "positive", "good story"),
        doc("d2", "negative", "boring mess"),
    ]
    return train, dev


@pytest.mark.parametrize("mode, train_fn", [("stl", train_stl), ("mtl", train_mtl)])
def test_training_checkpoint_bytes_match_reference(tmp_path, reference_path, mode, train_fn):
    config = TrainConfig(mode=mode, seed=3, epochs=3, embedding_dim=6, hidden_dim=4,
                         dropout_p=0.2, patience=10)
    train, dev = corpus()
    new = train_fn(config, train, dev)
    reference_path()
    old = train_fn(config, train, dev)
    assert new.history == old.history
    save_checkpoint(new.checkpoint, tmp_path / "new.bin")
    save_checkpoint(old.checkpoint, tmp_path / "old.bin")
    assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()
