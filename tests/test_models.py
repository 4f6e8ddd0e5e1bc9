import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from negmtl import autodiff as ad
from negmtl import models
from negmtl.autodiff import Tape, Tensor, backward, grad_check, zero_grads
from negmtl.corpus import BioTag, Vocabulary
from negmtl.models import (
    GROUPS,
    LABEL_TO_CLASS,
    LAYERS,
    ModelError,
    ModelParams,
    NEGATIVE_CLASS,
    POSITIVE_CLASS,
    SentimentPrediction,
    negation_forward,
    negation_loss,
    negation_tag,
    predict_document,
    predict_documents,
    sentiment_forward,
    sentiment_loss,
)
from oracles import predict_document_reference


def tiny_model(seed=0, head=True, vocab=8, e=4, d=3):
    return ModelParams.init(vocab, e, d, np.random.default_rng(seed), with_negation_head=head)


def layer_arrays(vocab: int, e: int, d: int) -> dict[str, np.ndarray]:
    """Zero float32 arrays of every ``LAYERS`` shape at (vocab, e, d),
    negation head included: the dims ``init`` refuses among them too."""
    return {
        name: np.zeros(spec.kind.shapes(*spec.init_args(vocab, e, d))[attr], np.float32)
        for spec in LAYERS
        for name, attr in spec.leaf_names()
    }


class TestModelParams:
    def test_class_convention(self):
        assert NEGATIVE_CLASS == 0
        assert POSITIVE_CLASS == 1
        assert LABEL_TO_CLASS == {"negative": 0, "positive": 1}

    def test_parameter_names_and_shapes(self):
        m = tiny_model()
        named = m.named_parameters()
        assert list(named)[:4] == ["embedding.weights", "sent_fwd.w", "sent_fwd.u", "sent_fwd.b"]
        assert list(named)[-3:] == ["emission.w", "emission.b", "crf.transitions"]
        assert named["embedding.weights"].data.shape == (8, 4)
        assert named["sent_fwd.w"].data.shape == (12, 4)
        assert named["doc_fwd.w"].data.shape == (12, 6)
        assert named["out.w"].data.shape == (2, 6)
        assert named["emission.w"].data.shape == (5, 6)
        assert named["crf.transitions"].data.shape == (7, 7)
        assert all(t.requires_grad for t in named.values())

    def test_headless_model_omits_negation_names(self):
        m = tiny_model(head=False)
        assert not m.has_negation_head
        named = m.named_parameters()
        assert "emission.w" not in named
        assert "crf.transitions" not in named
        assert m.parameter_groups()["negation"] == []

    def test_groups_partition_all_names(self):
        m = tiny_model()
        groups = m.parameter_groups()
        flat = groups["shared"] + groups["sentiment"] + groups["negation"]
        assert sorted(flat) == sorted(m.named_parameters())
        assert "embedding.weights" in groups["shared"]
        assert "out.w" in groups["sentiment"]
        assert "crf.transitions" in groups["negation"]

    def test_same_seed_shares_lower_init_across_modes(self):
        with_head = tiny_model(seed=5, head=True)
        without = tiny_model(seed=5, head=False)
        names = without.named_parameters()
        for name, t in with_head.named_parameters().items():
            if name in names:
                assert t.data.tobytes() == names[name].data.tobytes(), name

    def test_arrays_round_trip(self):
        m = tiny_model(seed=3)
        clone = ModelParams.from_arrays({k: v.copy() for k, v in m.to_arrays().items()})
        assert clone.has_negation_head
        for name, t in m.named_parameters().items():
            np.testing.assert_array_equal(clone.named_parameters()[name].data, t.data)

    def test_from_arrays_rejects_missing_and_unknown(self):
        arrays = tiny_model().to_arrays()
        del arrays["out.b"]
        with pytest.raises(ModelError, match="out.b"):
            ModelParams.from_arrays(arrays)
        arrays = tiny_model().to_arrays()
        arrays["mystery"] = np.zeros(1)
        with pytest.raises(ModelError, match="mystery"):
            ModelParams.from_arrays(arrays)

    @pytest.mark.parametrize(
        "name, shape, expected",
        [
            ("embedding.weights", (8,), "a matrix"),
            ("sent_fwd.u", (12, 3, 1), "a matrix"),
            ("sent_bwd.w", (12, 5), r"\(12, 4\)"),  # input dim is the embedding dim
            ("sent_bwd.u", (12, 4), r"\(12, 3\)"),
            ("doc_fwd.w", (12, 4), r"\(12, 6\)"),  # input dim is 2 x hidden dim
            ("doc_bwd.b", (13,), r"\(12,\)"),
            ("out.w", (6, 2), r"\(2, 6\)"),
            ("out.b", (3,), r"\(2,\)"),
            ("emission.w", (5, 4), r"\(5, 6\)"),
            ("emission.b", (), r"\(5,\)"),
            ("crf.transitions", (5, 5), r"\(7, 7\)"),
            # every array at (embedding, hidden) = shape: shapes that fit
            # together, at widths that ``init`` refuses
            (None, (0, 3), "embedding 0, hidden 3"),
            (None, (4, 0), "embedding 4, hidden 0"),
            (None, (0, 0), "embedding 0, hidden 0"),
        ],
    )
    def test_from_arrays_rejects_shapes_that_do_not_fit(self, name, shape, expected):
        if name is None:
            arrays, message = layer_arrays(8, *shape), f"^bad model dimensions: vocab 8, {expected}$"
        else:
            arrays, message = tiny_model().to_arrays(), rf"parameter '{name}' has shape .*, expected {expected}"
            arrays[name] = np.zeros(shape)
        with pytest.raises(ModelError, match=message):
            ModelParams.from_arrays(arrays)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ModelError):
            ModelParams.init(1, 4, 3, np.random.default_rng(0), with_negation_head=False)

    def test_fields_follow_the_layer_table(self):
        assert [f.name for f in dataclasses.fields(ModelParams)] == [spec.field for spec in LAYERS]
        assert GROUPS == ("shared", "sentiment", "negation")

    @settings(max_examples=30, deadline=None)
    @given(
        vocab=st.integers(2, 12), e=st.integers(1, 5), d=st.integers(1, 4),
        head=st.booleans(), seed=st.integers(0, 2**16),
    )
    def test_layer_table_round_trips_and_fixes_every_shape(self, vocab, e, d, head, seed):
        m = ModelParams.init(vocab, e, d, np.random.default_rng(seed), with_negation_head=head)
        arrays = m.to_arrays()
        clone = ModelParams.from_arrays(dict(arrays))
        assert clone.has_negation_head == head
        assert list(clone.to_arrays()) == list(arrays)
        for name, arr in clone.to_arrays().items():
            assert arr.tobytes() == arrays[name].tobytes(), name
        groups = m.parameter_groups()
        assert list(groups) == list(GROUPS)
        assert sorted(n for names in groups.values() for n in names) == sorted(arrays)
        assert bool(groups["negation"]) == head
        for name, arr in arrays.items():
            without = {k: v for k, v in arrays.items() if k != name}
            with pytest.raises(ModelError, match=f"parameter set is missing '{name}'"):
                ModelParams.from_arrays(without)
            for axis in range(arr.ndim):
                for delta in (-1, 1):
                    shape = list(arr.shape)
                    shape[axis] += delta
                    changed = {**arrays, name: np.zeros(shape)}
                    if (name, axis) == ("embedding.weights", 0):  # any vocabulary size fits
                        assert ModelParams.from_arrays(changed).has_negation_head == head
                        continue
                    with pytest.raises(ModelError, match=r"has shape \(.*\), expected \("):
                        ModelParams.from_arrays(changed)


class TestNegationPath:
    def test_emission_shape(self):
        m = tiny_model()
        out = negation_forward(m, [2, 3, 4])
        assert out.data.shape == (3, 5)

    def test_eval_mode_is_deterministic(self):
        m = tiny_model()
        a = negation_forward(m, [2, 3, 4]).data
        b = negation_forward(m, [2, 3, 4]).data
        assert a.tobytes() == b.tobytes()

    def test_headless_model_rejected(self):
        with pytest.raises(ModelError, match="negation head"):
            negation_forward(tiny_model(head=False), [2, 3])

    def test_empty_sentence_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            negation_forward(tiny_model(), [])

    def test_dropout_needs_rng_in_training(self):
        with pytest.raises(ModelError, match="rng"):
            negation_forward(tiny_model(), [2], train=True, dropout_p=0.3)

    def test_tagging_returns_bio_tags(self):
        tags = negation_tag(tiny_model(), [2, 3, 4, 5])
        assert len(tags) == 4
        assert all(isinstance(t, BioTag) for t in tags)

    def test_gradient_check_through_crf(self):
        m = tiny_model(vocab=6, e=3, d=2)
        params = m.named_parameters()
        report = grad_check(
            lambda: negation_loss(m, [2, 4, 5], [0, 1, 3], train=False),
            params,
        )
        assert report.passed, str(report)


    def test_loss_records_one_node_per_layer(self):
        # lookup with its dropout mask, BiLSTM, emissions, CRF NLL
        with Tape() as tape:
            negation_loss(tiny_model(), [2, 3, 4, 5], [0, 1, 3, 4], dropout_p=0.5,
                          rng=np.random.default_rng(1))
        assert len(tape) == 4

    def test_no_dropout_draws_nothing(self):
        m = tiny_model()
        with Tape():
            want = negation_loss(m, [2, 3, 4, 5], [0, 1, 3, 4], train=False).data
        for train, p in [(False, 0.5), (True, 0.0)]:
            rng = np.random.default_rng(1)
            state = rng.bit_generator.state
            with Tape() as tape:
                loss = negation_loss(m, [2, 3, 4, 5], [0, 1, 3, 4], train=train, dropout_p=p, rng=rng)
            assert rng.bit_generator.state == state
            assert len(tape) == 4
            assert loss.data.tobytes() == want.tobytes()


class TestSentimentPath:
    @pytest.mark.parametrize("n_sentences", [1, 3])
    def test_loss_records_one_node_per_layer(self, n_sentences):
        # for the whole document: lookup with its dropout mask, packed
        # BiLSTM, segment max-pool, document BiLSTM, max-pool, output
        # layer, cross-entropy
        doc = [[2, 3, 4], [5], [6, 2]][:n_sentences]
        with Tape() as tape:
            sentiment_loss(tiny_model(), doc, POSITIVE_CLASS, dropout_p=0.5,
                           rng=np.random.default_rng(1))
        assert len(tape) == 7

    def test_logit_shape_and_single_sentence_doc(self):
        m = tiny_model()
        assert sentiment_forward(m, [[2, 3]]).data.shape == (2,)
        assert sentiment_forward(m, [[2], [3, 4], [5]]).data.shape == (2,)

    def test_empty_document_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            sentiment_forward(tiny_model(), [])

    def test_empty_sentence_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            sentiment_forward(tiny_model(), [[2], []])

    def test_prediction_tie_resolves_positive(self):
        m = tiny_model()
        m.out.w.data[:] = 0.0
        m.out.b.data[:] = 0.0
        pred = predict_document(m, [[2, 3]])
        assert isinstance(pred, SentimentPrediction)
        np.testing.assert_array_equal(pred.logits, [0.0, 0.0])
        assert pred.label == "positive"

    def test_prediction_follows_argmax(self):
        m = tiny_model()
        m.out.w.data[:] = 0.0
        m.out.b.data[:] = [1.0, -1.0]  # negative logit wins
        assert predict_document(m, [[2, 3]]).label == "negative"

    def test_prediction_tags_match_per_sentence_tagging(self):
        m = tiny_model()
        doc = [[2, 3, 4], [5], [6, 2]]
        pred = predict_document(m, doc, tags=True)
        assert pred.tags == [negation_tag(m, ids) for ids in doc]
        assert pred.label == predict_document(m, doc).label
        assert predict_document(m, doc).tags is None
        with pytest.raises(ModelError, match="negation head"):
            predict_document(tiny_model(head=False), doc, tags=True)

    def test_gradient_check_through_both_levels(self):
        m = tiny_model(head=False, vocab=6, e=3, d=2)
        params = m.named_parameters()
        report = grad_check(
            lambda: sentiment_loss(m, [[2, 3], [4]], POSITIVE_CLASS, train=False),
            params,
        )
        assert report.passed, str(report)

    def test_headless_and_headed_models_agree_on_sentiment(self):
        # the sentiment path must not depend on the presence of the head
        a = tiny_model(seed=9, head=True)
        b = tiny_model(seed=9, head=False)
        doc = [[2, 5, 3], [4]]
        np.testing.assert_array_equal(
            sentiment_forward(a, doc).data, sentiment_forward(b, doc).data
        )


VOCAB = 12


def float32_model(head=True):
    """An mtl (or headless) model in float32, the precision predict runs in."""
    m = tiny_model(seed=7, head=head, vocab=VOCAB, e=5, d=4)
    for p in m.named_parameters().values():
        p.data = p.data.astype(np.float32)
    return m


@st.composite
def corpora(draw):
    """1-12 sentences of 1-40 token ids (the unknown id among them),
    split into documents at drawn cut points."""
    sentences = draw(st.lists(
        st.lists(st.integers(Vocabulary.UNK_ID, VOCAB - 1), min_size=1, max_size=40), min_size=1, max_size=12
    ))
    cuts = draw(st.lists(st.booleans(), min_size=len(sentences) - 1, max_size=len(sentences) - 1))
    docs = [[sentences[0]]]
    for sentence, cut in zip(sentences[1:], cuts):
        if cut:
            docs.append([])
        docs[-1].append(sentence)
    return docs


class TestPredictDocuments:
    """One prediction call for a whole corpus: each document keeps the
    bits it gets when predicted alone."""

    @settings(max_examples=60, deadline=None)
    @given(corpora())
    @example([[[Vocabulary.UNK_ID]]])
    @example([[[3]], [[1, 2, 3], [4]], [[5], [6], [1]], [list(range(1, VOCAB)) * 3]])
    def test_corpus_equals_each_document_alone(self, docs):
        m = float32_model()
        preds = predict_documents(m, docs, tags=True)
        assert len(preds) == len(docs)
        for pred, doc in zip(preds, docs):
            alone = predict_documents(m, [doc], tags=True)[0]
            assert pred.logits.dtype == np.float32
            assert pred.logits.tobytes() == alone.logits.tobytes()
            assert pred.label == alone.label
            assert pred.tags == alone.tags
            assert [len(t) for t in pred.tags] == [len(ids) for ids in doc]
            assert pred.tags == predict_document_reference(m, doc, tags=True).tags
        untagged = predict_documents(m, docs)
        assert [p.logits.tobytes() for p in untagged] == [p.logits.tobytes() for p in preds]
        assert [p.label for p in untagged] == [p.label for p in preds]
        assert all(p.tags is None for p in untagged)

    def test_empty_corpus_gives_no_predictions(self):
        assert predict_documents(float32_model(), []) == []
        assert predict_documents(float32_model(), [], tags=True) == []

    @pytest.mark.parametrize("docs", [[], [[[2, 3]]], [[[2]], [[3, 4], [5]]]])
    def test_tags_from_a_headless_model_raise(self, docs):
        with pytest.raises(ModelError, match="negation head"):
            predict_documents(float32_model(head=False), docs, tags=True)

    @settings(max_examples=40, deadline=None)
    @given(corpora(), st.integers(1, 60))
    @example([[[1, 2]], [[3, 4, 5], [6, 7, 8, 9], [1, 2, 3, 4, 5]], [[2]], [[3], [4]]], 4)
    def test_packs_give_each_document_its_bytes_alone(self, docs, budget):
        m = float32_model()
        alone = [predict_documents(m, [doc], tags=True)[0] for doc in docs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "PACK_TOKENS", budget)
            packed = predict_documents(m, docs, tags=True)
        assert [p.logits.tobytes() for p in packed] == [a.logits.tobytes() for a in alone]
        assert [(p.label, p.tags) for p in packed] == [(a.label, a.tags) for a in alone]

    def test_a_document_over_the_budget_is_a_pack_of_its_own(self, monkeypatch):
        # 2, 12, 1 and 2 tokens against a budget of 4: the 12-token
        # document runs whole and alone, the last two share a pack
        docs = [[[1, 2]], [[3, 4, 5], [6, 7, 8, 9], [1, 2, 3, 4, 5]], [[2]], [[3], [4]]]
        monkeypatch.setattr(models, "PACK_TOKENS", 4)
        calls = []
        bilstm = models.bilstm

        def counting(fwd, bwd, inputs, lengths=None):
            calls.append(lengths)
            return bilstm(fwd, bwd, inputs, lengths)

        monkeypatch.setattr(models, "bilstm", counting)
        predict_documents(float32_model(), docs, tags=True)
        assert calls == [[2], [1], [3, 4, 5], [3], [1, 1, 1], [1, 2]]

    @pytest.mark.parametrize("where", [0, 2, 5])
    @pytest.mark.parametrize("empty, message", [([], "empty document"), ([[1], []], "empty sentence")])
    def test_an_empty_document_or_sentence_anywhere_raises(self, monkeypatch, where, empty, message):
        monkeypatch.setattr(models, "PACK_TOKENS", 3)
        docs = [[[1, 2]], [[3]], [[4, 5], [6]], [[7]], [[8, 9, 10]], [[2]]]
        docs[where] = empty
        for tags in (False, True):
            with pytest.raises(ModelError, match=message):
                predict_documents(float32_model(), docs, tags=tags)

    def test_memory_does_not_grow_with_the_corpus(self):
        # a pack's buffers are freed before the next pack runs, so 40
        # reviews peak where their first pack does, plus what every
        # document keeps for the end: its logits, emissions and tags
        r = np.random.default_rng(5)
        m = ModelParams.init(300, 64, 64, r, with_negation_head=True)
        for p in m.named_parameters().values():
            p.data = p.data.astype(np.float32)
        lengths = iter(np.resize([5, 31, 12, 40, 18, 9, 26, 15, 35, 22, 7, 28, 14, 38, 20, 11, 33, 24], 400))
        docs = [[r.integers(1, 300, size=next(lengths)).tolist() for _ in range(10)] for _ in range(40)]
        first = docs[: len(models._packs([sum(map(len, d)) for d in docs])[0])]
        assert len(first) < len(docs)

        def peak(corpus) -> int:
            tracemalloc.start()
            try:
                predict_documents(m, corpus, tags=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(docs) <= peak(first) + (2 << 20)  # the results took 0.5 MB here


# Packed against per-document prediction at two BLAS threads, where
# OpenBLAS splits the sentence BiLSTM's larger products between threads.
TWO_THREADS = """
import numpy as np
from negmtl import models
r = np.random.default_rng(11)
m = models.ModelParams.init(500, 100, 100, r, with_negation_head=True)
for p in m.named_parameters().values():
    p.data = p.data.astype(np.float32)
docs = [[r.integers(1, 500, size=n).tolist() for n in r.integers(5, 41, size=10)] for _ in range(20)]
alone = [models.predict_documents(m, [d], tags=True)[0] for d in docs]
for budget in (models.PACK_TOKENS, 10**9):
    models.PACK_TOKENS = budget
    packed = models.predict_documents(m, docs, tags=True)
    assert [p.logits.tobytes() for p in packed] == [a.logits.tobytes() for a in alone], budget
    assert [p.tags for p in packed] == [a.tags for a in alone], budget
print("same bytes")
"""


def test_packs_keep_the_bytes_at_two_blas_threads():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TWO_THREADS], env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    assert (proc.returncode, proc.stdout.strip()) == (0, "same bytes"), proc.stderr


class TestGradientIsolation:
    def test_sentiment_loss_never_touches_negation_head(self):
        m = tiny_model(seed=2)
        named = m.named_parameters()
        zero_grads(named.values())
        with Tape():
            backward(sentiment_loss(m, [[2, 3], [4, 5]], NEGATIVE_CLASS, train=False))
        groups = m.parameter_groups()
        for name in groups["negation"]:
            assert named[name].grad is None, name
        # every shared/sentiment tensor is on the graph (zero-valued
        # gradients can legitimately occur, e.g. recurrent weights whose
        # only pooled step started from the zero state)
        for name in groups["shared"] + groups["sentiment"]:
            assert named[name].grad is not None, name
        # softmax gradient is never exactly zero on the output bias
        assert np.any(named["out.b"].grad != 0.0)
        assert np.any(named["embedding.weights"].grad != 0.0)

    def test_negation_loss_never_touches_sentiment_head(self):
        m = tiny_model(seed=2)
        named = m.named_parameters()
        zero_grads(named.values())
        with Tape():
            backward(negation_loss(m, [2, 3, 4], [0, 1, 2], train=False))
        groups = m.parameter_groups()
        for name in groups["sentiment"]:
            assert named[name].grad is None, name
        for name in groups["negation"]:
            assert named[name].grad is not None, name
        # shared parameters receive negation gradient: the sharing channel
        assert named["embedding.weights"].grad is not None
        assert np.any(named["sent_fwd.w"].grad != 0.0)

    def test_shared_value_change_moves_sentiment_output(self):
        m = tiny_model(seed=4)
        doc = [[2, 3]]
        base = sentiment_forward(m, doc).data.copy()
        m.sent_fwd.w.data += 0.05
        assert not np.allclose(sentiment_forward(m, doc).data, base)
