"""Bit-identity of refactored paths against the references in
``tests/oracles.py``: the dense, allocating embedding gradient; the
per-parameter Adam with temporaries, against the grouped and blocked
update; the separate stl and mtl training loops, which step with that
per-parameter Adam on per-tensor gradients; the two-pass
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
    ADAM_BLOCK,
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
    AdamReference,
    adam_by_name,
    add,
    linear_rows,
    linear_vec,
    mul,
    negation_forward_reference,
    negation_tag_reference,
    apply_updates_reference,
    predict_document_reference,
    rows_reference,
    sentiment_forward_reference,
    train_mtl_reference,
    train_stl_reference,
)
from test_training import doc, same_bits


@pytest.fixture
def reference_path(monkeypatch):
    """Route the embedding gather through its dense reference."""
    def use():
        monkeypatch.setattr(ad, "rows", rows_reference)
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


ADAM = dict(lr=0.01, beta1=0.85, beta2=0.995, epsilon=1e-7)


def small_params(dtype):
    rng = np.random.default_rng(7)
    params = {
        "s": Tensor(np.array(0.25, dtype=dtype), requires_grad=True),
        "embedding.weights": Tensor(rng.normal(size=(6, 3)).astype(dtype), requires_grad=True),
        "b": Tensor(rng.normal(size=4).astype(dtype), requires_grad=True),
        "w": Tensor(rng.normal(size=(4, 5)).astype(dtype), requires_grad=True),
    }
    params["embedding.weights"].data[0] = 0.0
    return params


def small_schedule(step):
    return ["s", "embedding.weights", "b", "w"] if step % 5 else ["s", "b"]


def large_params(dtype):
    """A scalar, a matrix, an embedding larger than one block and a
    vector, with two heads' worth of small parameters behind them."""
    rng = np.random.default_rng(9)
    shapes = {"s": (), "w": (4, 5), "embedding.weights": (ADAM_BLOCK // 50, 70), "b": (4,),
              "neg.w": (5, 8), "neg.b": (5,), "sent.w": (2, 8), "sent.b": (2,)}
    params = {name: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
              for name, shape in shapes.items()}
    params["embedding.weights"].data[0] = 0.0
    return params


class TestAdamMatchesReference:
    """The grouped, blocked update against the per-parameter reference:
    parameters, moments and step counts bit for bit over 50+ steps.
    Gradients span magnitudes 1e-9 to 1e3 and hold -0.0 entries; the
    embedding's padding row is pinned, two of its rows never get a
    gradient, and every 7th step one row is all -0.0."""

    def gradients(self, rng, params, names, step):
        grads = {}
        for name in names:
            shape = params[name].data.shape
            g = np.asarray(rng.normal(size=shape) * 10.0 ** rng.integers(-9, 4, size=shape))
            g[np.asarray(rng.random(size=shape) < 0.05)] = -0.0
            if name == "embedding.weights":
                g[[2, 5]] = 0.0
                if step % 7 == 0:
                    g[1] = -0.0
            grads[name] = g.astype(params[name].data.dtype)
        return grads

    def run(self, make_params, schedule, dtype=np.float64, layout=(), steps=50):
        """``steps`` steps of ``apply_updates`` and of the reference on two
        copies of the same parameters, each step over ``schedule(step)``;
        ``layout`` lists the groups to lay out before the first step
        (the others are laid out by the steps that first name them)."""
        got, want = make_params(dtype), make_params(dtype)
        state, reference = AdamState(**ADAM), AdamReference(**ADAM)
        for names in layout:
            state.layout(got, names)
        rng = np.random.default_rng(8)
        for step in range(steps):
            names = schedule(step)
            grads = self.gradients(rng, got, names, step)
            for name in names:
                got[name].grad, want[name].grad = grads[name].copy(), grads[name].copy()
            apply_updates(state, got, names)
            apply_updates_reference(reference, want, names)
        by_name = adam_by_name(state)
        assert by_name.t == reference.t
        for name in want:
            assert same_bits(got[name].data, want[name].data), name
            assert same_bits(by_name.m[name], reference.m[name]), name
            assert same_bits(by_name.v[name], reference.v[name]), name
        np.testing.assert_array_equal(got["embedding.weights"].data[0], 0.0)
        return state

    def test_fifty_steps_bitwise(self):
        # the first step lays out the scalar and the vector, the second the
        # embedding and the matrix
        state = self.run(small_params, small_schedule)
        assert [g.names for g in state.groups] == [("s", "b"), ("embedding.weights", "w")]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_boundaries_inside_a_parameter(self, dtype):
        names = list(large_params(dtype))
        state = self.run(large_params, lambda step: names, dtype, layout=[names])
        (group,) = state.groups
        assert group.data.size == sum(view.size for _, view in group.views(group.data))  # back to back
        emb = dict(group.views(group.data))["embedding.weights"]
        lo = (emb.__array_interface__["data"][0] - group.data.__array_interface__["data"][0]) // group.data.itemsize
        assert lo < ADAM_BLOCK < lo + emb.size  # a boundary inside the embedding
        assert len(group.blocks) == 2 and group.blocks[0][0].size == ADAM_BLOCK

    def test_mtl_groups_bitwise(self):
        # shared + negation, then shared + sentiment, in phases of 3 and 5 steps
        shared, negation, sentiment = ["s", "w", "embedding.weights", "b"], ["neg.w", "neg.b"], ["sent.w", "sent.b"]
        state = self.run(large_params, lambda step: shared + (negation if step % 8 < 3 else sentiment),
                         np.float32, layout=[shared, sentiment, negation], steps=56)
        t = adam_by_name(state).t
        assert t["embedding.weights"] == 56 and t["neg.w"] == 21 and t["sent.b"] == 35

    def test_scratch_is_one_block(self):
        params, state = small_params(np.float32), AdamState(**ADAM)
        state.layout(params, ["s", "b"])  # 5 elements
        a, b = state.scratch
        assert [a.size, b.size] == [ADAM_BLOCK, ADAM_BLOCK]
        state.layout(params, ["embedding.weights", "w"])
        assert state.scratch[0] is a and state.scratch[1] is b
        names = list(large_params(np.float32))
        large = self.run(large_params, lambda step: names, np.float32, layout=[names], steps=1)
        assert [buf.size for buf in large.scratch] == [ADAM_BLOCK, ADAM_BLOCK]


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


@pytest.mark.parametrize("mode, train_fn", [("stl", train_stl), ("mtl", train_mtl)])
def test_training_checkpoint_bytes_match_reference(tmp_path, reference_path, mode, train_fn):
    # the library's sparse embedding gradient and grouped, blocked Adam
    # against the dense gradient and the per-parameter Adam of the
    # reference loops
    assert_same_runs(tmp_path, dict(mode=mode, seed=3), reference_path)


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
        reference_docs = []

        def predict_documents_reference(params, docs_ids, tags=False):
            reference_docs.extend(docs_ids)
            return [predict_document_reference(params, doc_ids, tags) for doc_ids in docs_ids]

        monkeypatch.setattr(training, "predict_documents", predict_documents_reference)
        old = (train_stl if mode == "stl" else train_mtl)(config, train, dev)
        assert len(reference_docs) == config.epochs * len(dev)  # the old run's dev pass took the reference
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


def test_predict_tags_predicts_every_document_in_one_call(tmp_path, monkeypatch, predict_inputs):
    """``negmtl predict`` goes through ``training.predict_corpus``, which
    has no document loop of its own: one ``predict_documents`` call gets
    every document of the file, in file order."""
    checkpoint, data, docs = predict_inputs
    model, vocab = training.load_checkpoint(checkpoint).to_model()
    calls = []
    predict_documents = training.predict_documents

    def counting(params, docs_ids, tags=False):
        calls.append((docs_ids, tags))
        return predict_documents(params, docs_ids, tags)

    monkeypatch.setattr(training, "predict_documents", counting)
    run_predict(checkpoint, data, tmp_path / "out", tags=True)
    assert calls == [([[vocab.encode(s.tokens) for s in d.sentences] for d in docs], True)]


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
