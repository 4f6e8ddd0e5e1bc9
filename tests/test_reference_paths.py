"""Bit-identity of refactored paths against the references in
``tests/oracles.py``: the dense, allocating embedding gradient and
Adam; the separate stl and mtl training loops; the two-pass
``predict --tags``; the one-node affine map; and the per-sentence
encoding that the packed sentence BiLSTM replaced.

Each library path is a refactor of its reference: every test here
requires equal bytes, not closeness, with two exceptions.  The affine
map on a matrix multiplies by a view of ``w`` where the composed
reference multiplied by a transposed copy, and a document of several
sentences runs them through one packed recurrence, whose matrix
products over several rows round differently from one row's; both
agree with their references to rounding.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from negmtl import autodiff as ad
from negmtl import cli, models, training
from negmtl.autodiff import Tape, Tensor, backward, zero_grads
from negmtl.corpus import build_vocab
from negmtl.layers import Linear, affine
from negmtl.evaluation import write_predictions
from negmtl.crf import crf_nll
from negmtl.models import ModelParams, negation_loss, negation_tag, predict_document, sentiment_loss
from negmtl.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    apply_updates,
    predict_corpus,
    save_checkpoint,
    train_mtl,
    train_stl,
)
from oracles import (
    adam_step_reference,
    add,
    linear_rows,
    linear_vec,
    mul,
    negation_forward_reference,
    negation_tag_reference,
    predict_document_reference,
    rows_reference,
    sentiment_forward_reference,
    train_mtl_reference,
    train_stl_reference,
)
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
            first = mul(rows_op(m, [4, 1, 4, 4, 2]), Tensor(weights[:5]))
            second = mul(rows_op(m, [2, 5, 1]), Tensor(weights[5:]))
            backward(add(ad.sum_all(first), ad.sum_all(second)))
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
        with Tape():
            out = ad.rows(m, [3, 1, 3])
        (grad,) = out.node.backward(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
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


LOOP_CASES = [
    dict(mode="stl"),
    dict(mode="mtl", mtl_schedule="alternating"),
    dict(mode="mtl", mtl_schedule="warmup_once"),
    dict(mode="stl", epochs=6, patience=1),
    dict(mode="mtl", epochs=6, patience=1),
]
LOOP_IDS = ["stl", "mtl-alternating", "mtl-warmup_once", "stl-early-stop", "mtl-early-stop"]


def assert_same_runs(tmp_path, overrides, before_reference=lambda: None):
    """Train with the library's one loop, then (after
    ``before_reference``) with the separate reference loop of the mode,
    and require equal history, selection and checkpoint bytes."""
    base = dict(seed=4, epochs=3, embedding_dim=6, hidden_dim=4, dropout_p=0.2, patience=10)
    config = TrainConfig(**{**base, **overrides})
    train, dev = corpus()
    new = (train_stl if config.mode == "stl" else train_mtl)(config, train, dev)
    before_reference()
    old = (train_stl_reference if config.mode == "stl" else train_mtl_reference)(config, train, dev)
    if config.patience == 1:
        assert old.epochs_run < config.epochs  # the case stops early
    assert [list(rec) for rec in new.history] == [list(rec) for rec in old.history]
    assert new.history == old.history
    assert (new.best_epoch, new.best_dev_accuracy, new.epochs_run) == (
        old.best_epoch, old.best_dev_accuracy, old.epochs_run
    )
    save_checkpoint(new.checkpoint, tmp_path / "new.bin")
    save_checkpoint(old.checkpoint, tmp_path / "old.bin")
    assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()


@pytest.mark.parametrize("overrides", LOOP_CASES, ids=LOOP_IDS)
def test_one_loop_matches_separate_loops(tmp_path, overrides):
    # float32, both loops on the library's packed forward pass: on these
    # two-sentence documents the per-sentence reference forward gives
    # other gradient bits (products over several rows round differently
    # from one row's), which float32 training carries into the
    # checkpoint.  The next test runs the reference forward in float64.
    assert_same_runs(tmp_path, overrides)


@pytest.mark.parametrize("overrides", LOOP_CASES, ids=LOOP_IDS)
def test_float64_loop_matches_separate_loops_on_the_per_sentence_forward(tmp_path, monkeypatch, overrides):
    # The same loops on float64 parameters, the reference loop through the
    # per-sentence sentiment forward pass whose tape interleaves each
    # sentence's encoding with its pooling: whole training runs of the
    # packed forward against that oracle, whose rounding differences
    # float64 keeps below the float32 rounding of the checkpoint.
    monkeypatch.setattr(training, "TRAIN_DTYPE", np.float64)
    assert_same_runs(tmp_path, overrides, lambda: monkeypatch.setattr(
        models, "sentiment_forward", sentiment_forward_reference))


class TestPerSentenceEncoding:
    """The packed sentence BiLSTM against the per-sentence encoding it
    replaced: the parent's bytes on one sentence, rounding on several, in
    float64 and in float32."""

    def model(self):
        return ModelParams.init(9, 12, 10, np.random.default_rng(21), with_negation_head=True)

    def loss_and_grads(self, params, loss_fn):
        named = params.named_parameters()
        zero_grads(named.values())
        with Tape():
            loss = loss_fn()
            backward(loss)
        return {"loss": loss.data, **{n: p.grad for n, p in named.items() if p.grad is not None}}

    def test_negation_loss_and_tags_keep_the_reference_bits(self):
        params = self.model()
        ids, tags = [1, 5, 2, 5, 8, 3, 1], [0, 1, 2, 2, 0, 3, 4]

        def run(forward):
            rng = np.random.default_rng(4)
            return lambda: crf_nll(params.crf, forward(params, ids, True, 0.3, rng), tags)

        got = self.loss_and_grads(params, run(models.negation_forward))
        want = self.loss_and_grads(params, run(negation_forward_reference))
        assert list(got) == list(want)
        for name in want:
            assert same_bits(got[name], want[name]), name
        assert negation_tag(params, ids) == negation_tag_reference(params, ids)

    def test_one_sentence_document_keeps_the_reference_bits(self):
        params = self.model()
        got, want = (
            self.loss_and_grads(params, lambda: ad.softmax_cross_entropy(
                forward(params, [[3, 1, 4, 1, 5]], True, 0.3, np.random.default_rng(4)), 0))
            for forward in (models.sentiment_forward, sentiment_forward_reference)
        )
        assert list(got) == list(want)
        for name in want:
            assert same_bits(got[name], want[name]), name
        new, old = predict_document(params, [[3, 1, 4]], True), predict_document_reference(params, [[3, 1, 4]], True)
        assert same_bits(new.logits, old.logits) and new.tags == old.tags

    def several_sentences(self, params):
        """Loss and gradients of one training step on a five-sentence
        document, and its tagged prediction, from the packed forward pass
        and from the per-sentence reference."""
        doc_ids = [[1, 2, 1, 3], [2, 2, 4, 8, 7, 6], [4, 1], [5], [6, 3, 2, 1, 1, 7]]
        got, want = (
            self.loss_and_grads(params, lambda: ad.softmax_cross_entropy(
                forward(params, doc_ids, True, 0.3, np.random.default_rng(4)), 1))
            for forward in (models.sentiment_forward, sentiment_forward_reference)
        )
        assert list(got) == list(want)
        new, old = predict_document(params, doc_ids, True), predict_document_reference(params, doc_ids, True)
        assert new.tags == old.tags
        return got, want, new.logits, old.logits

    def test_several_sentences_match_the_reference_to_rounding(self):
        got, want, new_logits, old_logits = self.several_sentences(self.model())
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-13, err_msg=name)
        np.testing.assert_allclose(new_logits, old_logits, rtol=1e-12, atol=1e-13)

    def test_several_sentences_match_the_reference_to_rounding_in_float32(self):
        # the precision training and predict run in; the tolerance is
        # about 80 float32 ulps of each array's largest element
        params = self.model()
        for p in params.named_parameters().values():
            p.data = p.data.astype(np.float32)
        got, want, new_logits, old_logits = self.several_sentences(params)
        got["logits"], want["logits"] = new_logits, old_logits
        for name in want:
            assert got[name].dtype == want[name].dtype == np.float32, name
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5,
                                       atol=1e-5 * np.abs(want[name]).max(), err_msg=name)

    @pytest.mark.parametrize("mode", ["stl", "mtl"])
    def test_one_sentence_corpus_checkpoints_keep_the_reference_bytes(self, tmp_path, monkeypatch, mode):
        train = [
            doc("s1", "positive", ("it is not a bad film", [((2,), (3, 4, 5))])),
            doc("s2", "positive", "good fun story , good"),
            doc("s3", "negative", ("never a good moment", [((0,), (1, 2, 3))])),
            doc("s4", "negative", "bad boring mess"),
            doc("s5", "positive", ("not bad at all", [((0,), (1,))])),
        ]
        dev = [doc("e1", "positive", "good story"), doc("e2", "negative", "not good")]
        config = TrainConfig(mode=mode, seed=5, epochs=3, embedding_dim=12, hidden_dim=10,
                             dropout_p=0.2, patience=10)
        new = (train_stl if mode == "stl" else train_mtl)(config, train, dev)
        monkeypatch.setattr(models, "sentiment_forward", sentiment_forward_reference)
        monkeypatch.setattr(models, "negation_forward", negation_forward_reference)
        monkeypatch.setattr(training, "predict_document", predict_document_reference)
        old = (train_stl if mode == "stl" else train_mtl)(config, train, dev)
        assert new.history == old.history
        save_checkpoint(new.checkpoint, tmp_path / "new.bin")
        save_checkpoint(old.checkpoint, tmp_path / "old.bin")
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()


@pytest.fixture
def predict_inputs(tmp_path):
    """An mtl checkpoint (embedding dim 4, hidden dim 3) and a corpus
    with unknown tokens, one-token and multi-sentence documents."""
    train, dev = corpus()
    vocab = build_vocab(train, 1, False)
    params = ModelParams.init(len(vocab), 4, 3, np.random.default_rng(6), with_negation_head=True)
    config = TrainConfig(mode="mtl", embedding_dim=4, hidden_dim=3)
    checkpoint = tmp_path / "checkpoint.bin"
    save_checkpoint(Checkpoint.from_model(params, vocab, config), checkpoint)
    docs = train + dev + [doc("u1", None, "zzz unseen tokens", "bad"), doc("u2", "positive", "good")]
    data = tmp_path / "data.jsonl"
    data.write_text("".join(
        json.dumps({
            "id": d.id, "domain": d.domain, "label": d.label,
            "sentences": [{"tokens": list(s.tokens), "negations": []} for s in d.sentences],
        }) + "\n"
        for d in docs
    ))
    return checkpoint, data, docs


def run_predict(checkpoint, data, out, tags: bool):
    argv = ["predict", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + (["--tags"] if tags else [])) == 0


@pytest.mark.parametrize("tags", [False, True])
def test_one_pass_predict_matches_two_pass_reference(tmp_path, predict_inputs, tags):
    checkpoint, data, docs = predict_inputs
    run_predict(checkpoint, data, tmp_path / "new", tags)

    model, vocab = training.load_checkpoint(checkpoint).to_model()
    old = tmp_path / "old"
    old.mkdir()
    write_predictions(predict_corpus(model, vocab, docs), old / "predictions.jsonl")
    new_preds = (tmp_path / "new" / "predictions.jsonl").read_bytes()
    assert new_preds == (old / "predictions.jsonl").read_bytes()
    if tags:
        lines = [
            json.dumps({
                "id": d.id,
                "tags": [[str(t) for t in negation_tag_reference(model, vocab.encode(s.tokens))]
                         for s in d.sentences],
            }, sort_keys=True) + "\n"
            for d in docs
        ]
        assert (tmp_path / "new" / "tags.jsonl").read_text() == "".join(lines)
    else:
        assert not (tmp_path / "new" / "tags.jsonl").exists()


def test_predict_tags_runs_one_prediction_per_document(tmp_path, monkeypatch, predict_inputs):
    """``negmtl predict`` goes through ``training.predict_corpus``: it has
    no document loop of its own."""
    checkpoint, data, docs = predict_inputs
    calls = []
    predict_document = training.predict_document

    def counting(params, doc_ids, tags=False):
        calls.append(tags)
        return predict_document(params, doc_ids, tags)

    monkeypatch.setattr(training, "predict_document", counting)
    run_predict(checkpoint, data, tmp_path / "out", tags=True)
    assert calls == [True] * len(docs)


def test_predict_tags_encodes_each_sentence_once(tmp_path, monkeypatch, predict_inputs):
    """One packed sentence BiLSTM call per document, whose lengths are
    that document's sentences, and one document BiLSTM call."""
    checkpoint, data, docs = predict_inputs
    calls = []
    bilstm = models.bilstm

    def counting(fwd, bwd, inputs, lengths=None):
        calls.append((inputs.data.shape, lengths))
        return bilstm(fwd, bwd, inputs, lengths)

    monkeypatch.setattr(models, "bilstm", counting)
    run_predict(checkpoint, data, tmp_path / "out", tags=True)
    # embedding dim 4 feeds the sentence BiLSTM, 2 x hidden dim 3 the document one
    want = []
    for d in docs:
        lengths = [len(s.tokens) for s in d.sentences]
        want += [((sum(lengths), 4), lengths), ((len(lengths), 6), None)]
    assert calls == want


@pytest.mark.parametrize("in_dim, out_dim", [(5, 2), (12, 5), (40, 2), (200, 5)])
@pytest.mark.parametrize("rows", [None, 1, 7])
def test_affine_matches_composed_reference(in_dim, out_dim, rows):
    """Vector inputs (the sentiment head) give the bits of ``matvec`` +
    ``add``; matrix inputs (the emissions) match ``matmul`` of a
    transposed copy + ``add_rowvec`` within 1e-12, at widths on both
    sides of 32."""
    rng = np.random.default_rng(in_dim * 31 + out_dim + (rows or 0))
    shape = (in_dim,) if rows is None else (rows, in_dim)
    leaves = {
        "x": rng.normal(size=shape),
        "w": rng.normal(size=(out_dim, in_dim)),
        "b": rng.normal(size=out_dim),
    }
    upstream = rng.normal(size=shape[:-1] + (out_dim,))
    results = []
    for op in (affine, linear_vec if rows is None else linear_rows):
        t = {k: Tensor(v.copy(), requires_grad=True) for k, v in leaves.items()}
        with Tape():
            out = op(Linear(t["w"], t["b"]), t["x"])
            backward(ad.sum_all(mul(out, Tensor(upstream))))
        results.append((out.data, {k: v.grad for k, v in t.items()}))
    (got, got_grads), (want, want_grads) = results
    if rows is None:
        assert same_bits(got, want)
        for name in leaves:
            assert same_bits(got_grads[name], want_grads[name]), name
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for name in leaves:
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=1e-12, atol=1e-12,
                                       err_msg=name)
