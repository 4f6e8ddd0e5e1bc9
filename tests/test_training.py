import dataclasses
import functools
import inspect
import json
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negmtl import autodiff as ad
from negmtl import training
from negmtl.autodiff import Tensor
from negmtl.corpus import Document, NegationStructure, Sentence, build_vocab
from negmtl.evaluation import PredictionRecord, accuracy_of
from negmtl.models import ModelParams
from negmtl.training import (
    AdamState,
    Checkpoint,
    CheckpointError,
    OptimizerError,
    TrainConfig,
    TrainingError,
    adam_step,
    apply_updates,
    bow_features,
    bow_matrix,
    fit_bow,
    load_checkpoint,
    majority_vote,
    predict_corpus,
    rng_streams,
    run_ensemble,
    save_checkpoint,
    train_bow,
    train_mtl,
    train_seed,
    train_stl,
)
from oracles import (
    bow_features_reference,
    bow_loss_and_grad,
    fit_bow_newton_reference,
    fit_bow_reference,
    mul,
    train_bow_reference,
)
from synth import separable_corpus, vocab_corpus


def doc(doc_id, label, *sents, annotated=True):
    sentences = []
    for s in sents:
        if isinstance(s, tuple):
            tokens, negs = s
        else:
            tokens, negs = s, []
        sentences.append(
            Sentence(tuple(tokens.split()), tuple(NegationStructure.make(c, sc) for c, sc in negs))
        )
    return Document(doc_id, "toy", label, tuple(sentences), annotated)


def bow_label(model, d):
    return model.predict_features(bow_features(model.vocab, d))


def sentiment_corpus():
    train = [
        doc("t1", "positive", "good fun story"),
        doc("t2", "positive", "great acting , good plot"),
        doc("t3", "negative", "bad boring mess"),
        doc("t4", "negative", "awful plot , bad acting"),
    ]
    dev = [
        doc("d1", "positive", "good story"),
        doc("d2", "negative", "boring mess"),
    ]
    return train, dev


def tiny_config(**kw):
    base = dict(
        mode="stl",
        seed=1,
        epochs=2,
        embedding_dim=4,
        hidden_dim=3,
        dropout_p=0.2,
        patience=10,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_round_trip(self):
        cfg = TrainConfig()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="gru")
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="dropout_p"):
            TrainConfig(dropout_p=1.0)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)
        with pytest.raises(ValueError, match="mtl_schedule"):
            TrainConfig(mtl_schedule="interleaved")
        with pytest.raises(ValueError, match="bow_c_grid"):
            TrainConfig(bow_c_grid=(1.0, -1.0))
        with pytest.raises(ValueError, match="seeds"):
            TrainConfig(seeds=())
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match=r"^seeds must be non-empty and >= 0, got \[1, -2\]$"):
            TrainConfig(seeds=(1, -2))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "1"), ("epochs", 2.0), ("epochs", True), ("hidden_dim", None),
            ("learning_rate", "0.1"), ("learning_rate", float("nan")), ("beta2", float("inf")),
            ("epsilon", 10**400),
            ("epsilon", None), ("lowercase", 1), ("seeds", "12"), ("seeds", [1, 2.5]),
            ("seeds", {"a": 1}), ("bow_c_grid", 0.1), ("bow_c_grid", [1.0, None]),
        ],
    )
    def test_wrong_types_name_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            TrainConfig.from_dict({key: value})

    def test_repeated_seeds_rejected(self):
        # an ensemble would train one seed several times and count it as many
        with pytest.raises(ValueError, match=r"^seeds must be distinct, got \[1, 1, 1\]$"):
            TrainConfig(seeds=(1, 1, 1))
        with pytest.raises(ValueError, match="distinct"):
            TrainConfig.from_dict({"seeds": [3, 5, 3]})

    def test_repeated_c_values_rejected(self):
        # 1 and 1.0 are one C: train_bow would fit it twice under one key
        with pytest.raises(ValueError, match=r"^bow_c_grid must be distinct, got \[1\.0, 1, 10\.0\]$"):
            TrainConfig(mode="bow", bow_c_grid=(1.0, 1, 10.0))
        with pytest.raises(ValueError, match="distinct"):
            TrainConfig.from_dict({"bow_c_grid": [0.5, 2.0, 0.5]})
        assert TrainConfig(bow_c_grid=(1.0, 10.0)).bow_c_grid == (1.0, 10.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys.*momentum"):
            TrainConfig.from_dict({"momentum": 0.9})

    def test_from_dict_coerces_lists(self):
        cfg = TrainConfig.from_dict({"seeds": [3, 5, 7], "bow_c_grid": [0.5]})
        assert cfg.seeds == (3, 5, 7)
        assert cfg.bow_c_grid == (0.5,)


class TestRngStreams:
    def test_reproducible_and_distinct(self):
        a = rng_streams(7)
        b = rng_streams(7)
        draws_a = [r.random(4) for r in a]
        draws_b = [r.random(4) for r in b]
        for da, db in zip(draws_a, draws_b):
            np.testing.assert_array_equal(da, db)
        # the three streams of one seed never coincide
        assert not np.allclose(draws_a[0], draws_a[1])
        assert not np.allclose(draws_a[1], draws_a[2])

    def test_streams_are_consumption_independent(self):
        init1, _, drop1 = rng_streams(3)
        init2, shuffle2, drop2 = rng_streams(3)
        init1.random(100)  # heavy use of one stream
        init2.random(3)
        np.testing.assert_array_equal(drop1.random(5), drop2.random(5))


class TestAdam:
    def test_first_step_hand_computed(self):
        # g=1, lr=1e-3: m_hat = v_hat = 1 exactly, update = lr / (1 + eps)
        p = Tensor(np.array(0.5), requires_grad=True)
        p.grad = np.array(1.0)
        state = AdamState(lr=0.001)
        adam_step(state, {"p": p}, ["p"])
        assert p.data == 0.5 - 0.001 * 1.0 / (np.sqrt(1.0) + 1e-8)
        assert state.t["p"] == 1

    def test_epsilon_added_outside_sqrt(self):
        # with g = eps = 1e-8 the first update is lr/2; an in-sqrt epsilon
        # would give roughly lr * 1e-4 instead
        p = Tensor(np.array(0.0), requires_grad=True)
        p.grad = np.array(1e-8)
        state = AdamState(lr=0.001)
        adam_step(state, {"p": p}, ["p"])
        assert p.data == pytest.approx(-0.001 / 2.0, rel=1e-9)

    def test_constant_gradient_moves_monotonically(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        state = AdamState(lr=0.01)
        values = [float(p.data)]
        for _ in range(10):
            p.grad = np.array(2.0)
            adam_step(state, {"p": p}, ["p"])
            values.append(float(p.data))
        diffs = np.diff(values)
        assert np.all(diffs < 0)

    def test_missing_gradient_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(OptimizerError, match="'w_hh'"):
            adam_step(AdamState(), {"w_hh": p}, ["w_hh"])

    def test_step_counts_are_per_parameter(self):
        a = Tensor(np.array(0.0), requires_grad=True)
        b = Tensor(np.array(0.0), requires_grad=True)
        state = AdamState()
        a.grad = np.array(1.0)
        adam_step(state, {"a": a, "b": b}, ["a"])
        a.grad = np.array(1.0)
        b.grad = np.array(1.0)
        adam_step(state, {"a": a, "b": b}, ["a", "b"])
        assert state.t == {"a": 2, "b": 1}

    def test_apply_updates_pins_padding_row(self):
        emb = Tensor(np.zeros((3, 2)), requires_grad=True)
        emb.grad = np.ones((3, 2))
        apply_updates(AdamState(lr=0.1), {"embedding.weights": emb}, ["embedding.weights"])
        np.testing.assert_array_equal(emb.data[0], [0.0, 0.0])
        assert np.all(emb.data[1:] != 0.0)

    def test_apply_updates_only_touches_named(self):
        emb = Tensor(np.ones((2, 2)), requires_grad=True)
        other = Tensor(np.ones(2), requires_grad=True)
        other.grad = np.ones(2)
        apply_updates(AdamState(), {"embedding.weights": emb, "o": other}, ["o"])
        np.testing.assert_array_equal(emb.data, np.ones((2, 2)))
        assert np.all(other.data != 1.0)


def _set_entry(header: dict, index: int, **fields) -> dict:
    manifest = [dict(e) for e in header["manifest"]]
    manifest[index].update(fields)
    return {**header, "manifest": manifest}


def _set_vocab(header: dict, **fields) -> dict:
    return {**header, "vocabulary": {**header["vocabulary"], **fields}}


@functools.cache
def _reference_checkpoint_bytes() -> bytes:
    train, _ = sentiment_corpus()
    vocab = build_vocab(train, 1, False)
    params = ModelParams.init(len(vocab), 4, 3, np.random.default_rng(0), with_negation_head=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.bin")
        save_checkpoint(Checkpoint.from_model(params, vocab, tiny_config(mode="mtl")), path)
        with open(path, "rb") as fh:
            return fh.read()


def load_checkpoint_bytes(raw: bytes, directory: str) -> Checkpoint:
    path = os.path.join(directory, "original.bin")
    with open(path, "wb") as fh:
        fh.write(raw)
    return load_checkpoint(path)


class TestCheckpoint:
    def model_and_vocab(self, with_head=True):
        train, _ = sentiment_corpus()
        vocab = build_vocab(train, 1, False)
        rng = np.random.default_rng(0)
        params = ModelParams.init(len(vocab), 4, 3, rng, with_negation_head=with_head)
        return params, vocab

    def test_round_trip_is_bit_exact(self, tmp_path):
        params, vocab = self.model_and_vocab()
        ckpt = Checkpoint.from_model(params, vocab, tiny_config(mode="mtl"))
        path = tmp_path / "model.bin"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.version == 1
        assert loaded.config == ckpt.config
        assert loaded.vocabulary == ckpt.vocabulary
        assert list(loaded.arrays) == list(ckpt.arrays)
        for name in ckpt.arrays:
            assert loaded.arrays[name].dtype == np.float32
            np.testing.assert_array_equal(loaded.arrays[name], ckpt.arrays[name])

    def test_second_save_is_byte_identical(self, tmp_path):
        params, vocab = self.model_and_vocab()
        ckpt = Checkpoint.from_model(params, vocab, tiny_config())
        save_checkpoint(ckpt, tmp_path / "a.bin")
        save_checkpoint(load_checkpoint(tmp_path / "a.bin"), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_reloaded_model_predicts_identically(self, tmp_path):
        params, vocab = self.model_and_vocab()
        train, dev = sentiment_corpus()
        ckpt = Checkpoint.from_model(params, vocab, tiny_config())
        save_checkpoint(ckpt, tmp_path / "m.bin")
        m1, v1 = ckpt.to_model()
        m2, v2 = load_checkpoint(tmp_path / "m.bin").to_model()
        r1 = predict_corpus(m1, v1, train + dev)
        r2 = predict_corpus(m2, v2, train + dev)
        assert r1 == r2

    def test_float32_model_round_trips_without_rounding_or_aliasing(self):
        params, vocab = self.model_and_vocab()
        for p in params.named_parameters().values():
            p.data = p.data.astype(np.float32)
        ckpt = Checkpoint.from_model(params, vocab, tiny_config(mode="mtl"))
        model, _ = ckpt.to_model()
        before = {name: arr.copy() for name, arr in ckpt.arrays.items()}
        for name, arr in model.to_arrays().items():
            assert arr.dtype == np.float32 and arr.tobytes() == params.to_arrays()[name].tobytes(), name
        # neither the model saved nor the model rebuilt shares an array with the checkpoint
        for p in (*params.named_parameters().values(), *model.named_parameters().values()):
            p.data += 1.0
        for name, arr in ckpt.arrays.items():
            assert arr.tobytes() == before[name].tobytes(), name

    def test_train_seed_predicts_with_the_in_memory_best_model(self, monkeypatch):
        # the arrays each new best epoch hands to the checkpoint; the last is the best
        snapshots = []
        from_model = Checkpoint.from_model.__func__

        def recording(cls, params, vocab, config):
            snapshots.append({name: arr.copy() for name, arr in params.to_arrays().items()})
            return from_model(cls, params, vocab, config)

        monkeypatch.setattr(Checkpoint, "from_model", classmethod(recording))
        train, dev = sentiment_corpus()
        run = train_seed(tiny_config(epochs=3), train, dev, test_docs=train)
        in_memory = snapshots[-1]
        assert all(arr.dtype == np.float32 for arr in in_memory.values())
        for name, arr in run.result.checkpoint.arrays.items():
            assert arr.tobytes() == in_memory[name].tobytes(), name
        model = ModelParams.from_arrays(in_memory)
        vocab = run.result.checkpoint.to_model()[1]
        assert run.dev_predictions == predict_corpus(model, vocab, dev)
        assert run.test_predictions == predict_corpus(model, vocab, train)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"GZIPFILE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncations(self, tmp_path):
        params, vocab = self.model_and_vocab()
        path = tmp_path / "m.bin"
        save_checkpoint(Checkpoint.from_model(params, vocab, tiny_config()), path)
        raw = path.read_bytes()
        for cut, message in [
            (12, "header length"),  # inside the 8-byte length field
            (40, "header"),  # inside the JSON header
            (len(raw) - 5, "truncated blob"),  # inside the last blob
        ]:
            clipped = tmp_path / "clipped.bin"
            clipped.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(clipped)

    def test_trailing_garbage_rejected(self, tmp_path):
        params, vocab = self.model_and_vocab()
        path = tmp_path / "m.bin"
        save_checkpoint(Checkpoint.from_model(params, vocab, tiny_config()), path)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        params, vocab = self.model_and_vocab()
        ckpt = Checkpoint.from_model(params, vocab, tiny_config())
        ckpt.version = 9
        path = tmp_path / "m.bin"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda h: [h], "header is a JSON list, not an object"),
            (lambda h: {k: v for k, v in h.items() if k != "manifest"}, "lacks 'manifest'"),
            (lambda h: {**h, "config": [1]}, "'config' is not a JSON object"),
            (lambda h: {**h, "manifest": {}}, "'manifest' is not a JSON list"),
            (lambda h: {**h, "manifest": [7] + h["manifest"]}, "entry 0 is not an object"),
            (lambda h: {**h, "manifest": h["manifest"][:1] * 2}, "names parameter .* twice"),
            (lambda h: _set_entry(h, 0, shape=[-1, 3]), "not a list of non-negative integers"),
            (lambda h: _set_entry(h, 0, shape=[2.5]), "not a list of non-negative integers"),
            (lambda h: _set_entry(h, 0, offset=-4), "not a non-negative integer"),
            (lambda h: _set_entry(h, 1, offset=0), "overlaps the previous blob"),
            (lambda h: _set_entry(h, 0, offset=4), "leaves a gap"),
            (lambda h: _set_entry(h, -1, shape=[2**40, 2**40]), "truncated blob"),
            (lambda h: {**h, "vocabulary": {}}, "vocabulary lacks 'tokens'"),
            (lambda h: _set_vocab(h, tokens="good bad"), "vocabulary lacks 'tokens'"),
            (lambda h: _set_vocab(h, tokens=["good", 7]), "vocabulary lacks 'tokens'"),
            (lambda h: _set_vocab(h, lowercase=0), "vocabulary lacks 'lowercase'"),
            (lambda h: {**h, "vocabulary": {"tokens": []}}, "vocabulary lacks 'lowercase'"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, mutate, message):
        params, vocab = self.model_and_vocab()
        path = tmp_path / "m.bin"
        save_checkpoint(Checkpoint.from_model(params, vocab, tiny_config()), path)
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<Q", raw, 8)
        header = mutate(json.loads(raw[16 : 16 + n]))
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :])
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def rewrite_header(self, path, mutate):
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<Q", raw, 8)
        blob = json.dumps(mutate(json.loads(raw[16 : 16 + n]))).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :])

    def test_vocabulary_size_must_match_embedding_rows(self, tmp_path):
        params, vocab = self.model_and_vocab()
        path = tmp_path / "m.bin"
        save_checkpoint(Checkpoint.from_model(params, vocab, tiny_config()), path)
        self.rewrite_header(path, lambda h: _set_vocab(h, tokens=h["vocabulary"]["tokens"] + ["extra"]))
        ckpt = load_checkpoint(path)
        rows = len(vocab)
        with pytest.raises(
            CheckpointError,
            match=rf"m\.bin: vocabulary of {rows + 1} tokens .* embedding\.weights of shape \({rows}, 4\)",
        ):
            ckpt.to_model()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda h: _set_entry(h, 0, name="embedding"), "missing 'embedding.weights'"),
            (lambda h: _set_vocab(h, tokens=["<unk>"] + h["vocabulary"]["tokens"][1:]),
             "duplicate tokens"),
            # same byte count as the saved [12, 4]: only the shape check catches it
            (lambda h: _set_entry(h, 1, shape=[4, 12]),
             r"parameter 'sent_fwd\.w' has shape \(4, 12\), expected \(12, 4\)"),
        ],
    )
    def test_unusable_parameters_rejected_by_to_model(self, tmp_path, mutate, message):
        params, vocab = self.model_and_vocab()
        path = tmp_path / "m.bin"
        save_checkpoint(Checkpoint.from_model(params, vocab, tiny_config()), path)
        self.rewrite_header(path, mutate)
        with pytest.raises(CheckpointError, match=rf"m\.bin: .*{message}"):
            load_checkpoint(path).to_model()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_or_truncated_bytes_never_escape(self, data):
        """Any truncation is rejected.  A changed byte is rejected or
        loads; in a blob it changes exactly that one float32; and
        ``to_model`` then builds a model or raises ``CheckpointError``."""
        raw = _reference_checkpoint_bytes()
        header_end = 16 + struct.unpack_from("<Q", raw, 8)[0]
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
            changed = raw[:cut]
        else:
            pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]), label="byte")
            changed = raw[:pos] + bytes([byte]) + raw[pos + 1 :]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.bin")
            with open(path, "wb") as fh:
                fh.write(changed)
            try:
                ckpt = load_checkpoint(path)
            except CheckpointError:
                return
            assert len(changed) == len(raw), "a truncated checkpoint loaded"
            if pos >= header_end:
                original = load_checkpoint_bytes(raw, tmp)
                assert (ckpt.config, ckpt.vocabulary) == (original.config, original.vocabulary)
                assert [a.shape for a in ckpt.arrays.values()] == [
                    a.shape for a in original.arrays.values()
                ]
                new = np.concatenate([a.reshape(-1) for a in ckpt.arrays.values()])
                old = np.concatenate([a.reshape(-1) for a in original.arrays.values()])
                assert np.flatnonzero(new.view(np.uint32) != old.view(np.uint32)).tolist() == [
                    (pos - header_end) // 4
                ]
            try:
                ckpt.to_model()
            except CheckpointError:
                pass

    def test_non_f32_arrays_rejected_on_save(self, tmp_path):
        params, vocab = self.model_and_vocab()
        ckpt = Checkpoint.from_model(params, vocab, tiny_config())
        name = next(iter(ckpt.arrays))
        ckpt.arrays[name] = ckpt.arrays[name].astype(np.float64)
        with pytest.raises(CheckpointError, match="float32"):
            save_checkpoint(ckpt, tmp_path / "m.bin")


class TestTrainStl:
    def test_mode_guard(self):
        train, dev = sentiment_corpus()
        with pytest.raises(TrainingError, match="mode"):
            train_stl(tiny_config(mode="mtl"), train, dev)

    def test_empty_and_unlabeled_corpora_rejected(self):
        train, dev = sentiment_corpus()
        with pytest.raises(TrainingError, match="train corpus is empty"):
            train_stl(tiny_config(), [], dev)
        unlabeled = [doc("u1", None, "whatever text")]
        with pytest.raises(TrainingError, match="'u1'"):
            train_stl(tiny_config(), train + unlabeled, dev)

    def test_history_shape_and_best_tracking(self):
        train, dev = sentiment_corpus()
        result = train_stl(tiny_config(epochs=3), train, dev)
        assert result.epochs_run == len(result.history) == 3
        for i, rec in enumerate(result.history):
            assert rec["epoch"] == i + 1
            assert np.isfinite(rec["sentiment_loss"])
            assert 0.0 <= rec["dev_accuracy"] <= 1.0
        assert result.best_dev_accuracy == max(r["dev_accuracy"] for r in result.history)
        assert result.history[result.best_epoch - 1]["dev_accuracy"] == result.best_dev_accuracy

    def test_checkpoint_has_no_negation_head(self):
        train, dev = sentiment_corpus()
        result = train_stl(tiny_config(), train, dev)
        assert "crf.transitions" not in result.checkpoint.arrays
        model, _ = result.checkpoint.to_model()
        assert not model.has_negation_head

    def test_same_seed_is_bitwise_deterministic(self):
        train, dev = sentiment_corpus()
        r1 = train_stl(tiny_config(), train, dev)
        r2 = train_stl(tiny_config(), train, dev)
        assert r1.history == r2.history
        for name in r1.checkpoint.arrays:
            np.testing.assert_array_equal(r1.checkpoint.arrays[name], r2.checkpoint.arrays[name])

    def test_seed_changes_the_run(self):
        train, dev = sentiment_corpus()
        r1 = train_stl(tiny_config(), train, dev)
        r2 = train_stl(tiny_config(seed=2), train, dev)
        diffs = [
            not np.array_equal(r1.checkpoint.arrays[n], r2.checkpoint.arrays[n])
            for n in r1.checkpoint.arrays
        ]
        assert any(diffs)

    def test_learns_two_separable_documents(self):
        docs = [
            doc("p", "positive", "alpha alpha alpha"),
            doc("n", "negative", "omega omega omega"),
        ]
        cfg = tiny_config(
            epochs=40, patience=40, learning_rate=0.01, dropout_p=0.0,
            embedding_dim=8, hidden_dim=8,
        )
        result = train_stl(cfg, docs, docs)
        assert result.best_dev_accuracy == 1.0
        assert result.history[-1]["sentiment_loss"] < result.history[0]["sentiment_loss"]

    def test_early_stopping_respects_patience(self):
        train, dev = sentiment_corpus()
        result = train_stl(tiny_config(epochs=30, patience=2), train, dev)
        # at most best_epoch + patience epochs actually run
        assert result.epochs_run <= result.best_epoch + 2 or result.epochs_run == 30


def negation_corpus():
    train = [
        doc("t1", "positive", ("it is not a bad film", [((2,), (3, 4, 5))])),
        doc("t2", "positive", "good fun story"),
        doc("t3", "negative", ("never a good moment", [((0,), (1, 2, 3))]), "sad end"),
        doc("t4", "negative", "bad boring mess"),
    ]
    dev = [
        doc("d1", "positive", "good story"),
        doc("d2", "negative", "boring mess"),
    ]
    return train, dev


class TestTrainMtl:
    def test_mode_guard(self):
        train, dev = negation_corpus()
        with pytest.raises(TrainingError, match="mode"):
            train_mtl(tiny_config(mode="stl"), train, dev)

    def test_requires_negation_annotations(self):
        train, dev = negation_corpus()
        bare = doc("bare", "positive", "nice one", annotated=False)
        with pytest.raises(TrainingError, match="'bare'"):
            train_mtl(tiny_config(mode="mtl"), train + [bare], dev)

    def test_alternating_history_has_both_losses(self):
        train, dev = negation_corpus()
        result = train_mtl(tiny_config(mode="mtl", epochs=2), train, dev)
        for rec in result.history:
            assert rec["negation_loss"] is not None and np.isfinite(rec["negation_loss"])
            assert np.isfinite(rec["sentiment_loss"])

    def test_warmup_once_runs_negation_only_in_first_epoch(self):
        train, dev = negation_corpus()
        result = train_mtl(
            tiny_config(mode="mtl", epochs=3, mtl_schedule="warmup_once"), train, dev
        )
        assert result.history[0]["negation_loss"] is not None
        assert all(rec["negation_loss"] is None for rec in result.history[1:])

    def test_checkpoint_has_negation_head(self):
        train, dev = negation_corpus()
        result = train_mtl(tiny_config(mode="mtl"), train, dev)
        assert "crf.transitions" in result.checkpoint.arrays
        model, _ = result.checkpoint.to_model()
        assert model.has_negation_head

    def test_unannotated_corpus_still_trains_on_all_o(self):
        train, dev = sentiment_corpus()  # no structures anywhere, but annotated=True
        result = train_mtl(tiny_config(mode="mtl"), train, dev)
        assert np.isfinite(result.history[0]["negation_loss"])

    def test_same_seed_is_bitwise_deterministic(self):
        train, dev = negation_corpus()
        r1 = train_mtl(tiny_config(mode="mtl"), train, dev)
        r2 = train_mtl(tiny_config(mode="mtl"), train, dev)
        assert r1.history == r2.history
        for name in r1.checkpoint.arrays:
            np.testing.assert_array_equal(r1.checkpoint.arrays[name], r2.checkpoint.arrays[name])

    def test_shared_init_matches_stl_for_same_seed(self):
        # head parameters draw last, so both modes see identical shared init
        train, _ = negation_corpus()
        vocab = build_vocab(train, 1, False)
        init_a = rng_streams(5)[0]
        init_b = rng_streams(5)[0]
        stl = ModelParams.init(len(vocab), 4, 3, init_a, with_negation_head=False)
        mtl = ModelParams.init(len(vocab), 4, 3, init_b, with_negation_head=True)
        for name, arr in stl.to_arrays().items():
            np.testing.assert_array_equal(arr, mtl.to_arrays()[name])


def poison(monkeypatch, loss_name: str, bad_ids, on_call: int):
    """Make ``training.<loss_name>`` return NaN on the ``on_call``-th
    call for the example whose ids are ``bad_ids``; returns the log of
    events ("loss", "poisoned" or "step") in call order."""
    events = []
    real_loss, real_updates = getattr(training, loss_name), training.apply_updates
    seen = 0

    def loss_fn(params, ids, *args, **kwargs):
        nonlocal seen
        loss = real_loss(params, ids, *args, **kwargs)
        if ids == bad_ids:
            seen += 1
            if seen == on_call:
                events.append("poisoned")
                return mul(loss, Tensor(np.array(np.nan)))
        events.append("loss")
        return loss

    def apply_updates_fn(*args):
        events.append("step")
        return real_updates(*args)

    monkeypatch.setattr(training, loss_name, loss_fn)
    monkeypatch.setattr(training, "apply_updates", apply_updates_fn)
    return events


class TestNonFiniteLoss:
    def test_sentiment_phase_names_epoch_and_document(self, monkeypatch):
        train, dev = sentiment_corpus()
        vocab = build_vocab(train, 1, False)
        t3 = [vocab.encode(s.tokens) for s in train[2].sentences]
        events = poison(monkeypatch, "sentiment_loss", t3, on_call=2)
        with pytest.raises(
            TrainingError, match=r"^epoch 2, sentiment phase: loss is nan on document 't3'$"
        ):
            train_stl(tiny_config(epochs=3), train, dev)
        # every finite loss got its Adam step; the bad one got none
        assert events[-1] == "poisoned"
        assert events.count("step") == events.count("loss") > len(train)

    def test_negation_phase_names_epoch_document_and_sentence(self, monkeypatch):
        train, dev = negation_corpus()
        vocab = build_vocab(train, 1, False)
        sad_end = vocab.encode(["sad", "end"])  # t3, sentence 1
        events = poison(monkeypatch, "negation_loss", sad_end, on_call=1)
        with pytest.raises(
            TrainingError,
            match=r"^epoch 1, negation phase: loss is nan on document 't3' sentence 1$",
        ):
            train_mtl(tiny_config(mode="mtl"), train, dev)
        assert events[-1] == "poisoned"
        assert events.count("step") == events.count("loss")


class TestMajorityVote:
    def recs(self, preds, golds=None, ids=None):
        ids = ids or [f"d{i}" for i in range(len(preds))]
        golds = golds or ["positive"] * len(preds)
        return [PredictionRecord(i, g, p) for i, g, p in zip(ids, golds, preds)]

    def test_vote_counts(self):
        runs = [
            self.recs(["positive", "negative"]),
            self.recs(["positive", "positive"]),
            self.recs(["negative", "negative"]),
        ]
        voted = majority_vote(runs)
        assert [r.pred for r in voted] == ["positive", "negative"]
        assert all(r.gold == "positive" for r in voted)

    def test_permutation_invariant(self):
        runs = [
            self.recs(["positive"]),
            self.recs(["negative"]),
            self.recs(["negative"]),
            self.recs(["positive"]),
            self.recs(["negative"]),
        ]
        assert majority_vote(runs) == majority_vote(list(reversed(runs)))

    def test_even_count_rejected(self):
        runs = [self.recs(["positive"]), self.recs(["positive"])]
        with pytest.raises(TrainingError, match="odd"):
            majority_vote(runs)

    def test_mismatched_documents_rejected(self):
        runs = [
            self.recs(["positive"], ids=["a"]),
            self.recs(["positive"], ids=["b"]),
            self.recs(["positive"], ids=["a"]),
        ]
        with pytest.raises(TrainingError, match="different documents"):
            majority_vote(runs)


class TestRunEnsemble:
    def test_three_seed_ensemble(self):
        train, dev = sentiment_corpus()
        cfg = tiny_config(seeds=(1, 2, 3))
        result = run_ensemble(cfg, train, dev, test_docs=train)
        assert [r.seed for r in result.runs] == [1, 2, 3]
        assert [len(r.dev_predictions) for r in result.runs] == [len(dev)] * 3
        assert [r.id for r in result.dev_vote] == [d.id for d in dev]
        assert result.test_vote is not None
        assert [r.id for r in result.test_vote] == [d.id for d in train]

    def test_no_test_corpus_means_no_test_vote(self):
        train, dev = sentiment_corpus()
        result = run_ensemble(tiny_config(seeds=(1, 2, 3)), train, dev)
        assert result.test_vote is None
        assert all(r.test_predictions is None for r in result.runs)

    def test_even_seed_count_rejected(self):
        train, dev = sentiment_corpus()
        with pytest.raises(TrainingError, match="odd"):
            run_ensemble(tiny_config(seeds=(1, 2)), train, dev)

    def test_bow_mode_rejected(self):
        train, dev = sentiment_corpus()
        with pytest.raises(TrainingError, match="bow"):
            run_ensemble(tiny_config(mode="bow", seeds=(1, 2, 3)), train, dev)

    def test_predictions_come_from_reloadable_checkpoint(self):
        train, dev = sentiment_corpus()
        result = run_ensemble(tiny_config(seeds=(1, 2, 3)), train, dev)
        for run in result.runs:
            model, vocab = run.result.checkpoint.to_model()
            assert run.dev_predictions == predict_corpus(model, vocab, dev)

    def test_each_run_is_train_seed_at_its_seed(self):
        train, dev = sentiment_corpus()
        result = run_ensemble(tiny_config(seeds=(1, 2, 3)), train, dev, test_docs=train)
        for run in result.runs:
            alone = train_seed(tiny_config(seed=run.seed), train, dev, test_docs=train)
            assert (alone.seed, alone.dev_predictions, alone.test_predictions) == (
                run.seed, run.dev_predictions, run.test_predictions
            )


@pytest.mark.parametrize("mode", ["stl", "bow"])
def test_reserved_names_in_the_training_corpus_are_unknown_tokens(mode):
    train, dev = sentiment_corpus()
    train += [doc("r1", "positive", "<pad> good <unk>"), doc("r2", "negative", "<unk> bad <pad>")]
    if mode == "bow":
        vocab = train_bow(tiny_config(mode="bow"), train, dev).model.vocab
    else:
        vocab = train_stl(tiny_config(), train, dev).checkpoint.to_model()[1]
    assert {"<pad>", "<unk>"}.isdisjoint(vocab.id_to_token[2:])
    assert vocab.encode(["<pad>", "<unk>"]) == [1, 1]


class TestBow:
    def test_features_count_tokens(self):
        train, _ = sentiment_corpus()
        vocab = build_vocab(train, 1, False)
        d = doc("x", "positive", "good good unknowntoken")
        x = bow_features(vocab, d)
        assert x[vocab.lookup("good")] == 2.0
        assert x[1] == 1.0  # unk bucket
        assert x.sum() == 3.0

    def test_loss_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(6, 5))
        ys = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        w = rng.normal(size=5)
        b = 0.3
        _, grad_w, grad_b = bow_loss_and_grad(w, b, xs, ys, c=2.0)
        h = 1e-6
        for j in range(5):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (bow_loss_and_grad(wp, b, xs, ys, 2.0)[0] - bow_loss_and_grad(wm, b, xs, ys, 2.0)[0]) / (2 * h)
            assert grad_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        fd_b = (bow_loss_and_grad(w, b + h, xs, ys, 2.0)[0] - bow_loss_and_grad(w, b - h, xs, ys, 2.0)[0]) / (2 * h)
        assert grad_b == pytest.approx(fd_b, rel=1e-5, abs=1e-8)

    def test_fit_reaches_stationary_point(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(8, 4))
        ys = (rng.random(8) > 0.5).astype(float)
        w, b, _, iters = fit_bow(xs, ys, c=1.0)
        _, gw, gb = bow_loss_and_grad(w, b, xs, ys, 1.0)
        assert np.sqrt(gw @ gw + gb**2) < 1e-6
        assert iters < 10_000

    def test_convex_objective_ignores_initialization(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(6, 5))
        ys = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        _, _, loss_zero, _ = fit_bow(xs, ys, c=1.0)
        _, _, loss_rand, _ = fit_bow(xs, ys, c=1.0, init=(rng.normal(size=5), 1.5))
        assert abs(loss_zero - loss_rand) <= 1e-6

    def test_separable_corpus_is_fit_perfectly(self):
        train, dev = sentiment_corpus()
        result = train_bow(tiny_config(mode="bow"), train, dev)
        assert result.dev_accuracy == 1.0
        assert all(bow_label(result.model, d) == d.label for d in train)

    def test_tiny_c_regularizes_to_prior_class(self):
        train = [
            doc("n1", "negative", "aa bb"),
            doc("n2", "negative", "cc dd"),
            doc("n3", "negative", "ee ff"),
            doc("p1", "positive", "gg hh"),
        ]
        dev = [doc("d1", "negative", "aa"), doc("d2", "positive", "gg")]
        result = train_bow(tiny_config(mode="bow", bow_c_grid=(1e-6,)), train, dev)
        assert np.max(np.abs(result.model.weights)) < 1e-3
        assert result.model.bias < 0  # log-odds of the 1/4-positive prior
        assert all(bow_label(result.model, d) == "negative" for d in train + dev)

    def test_c_ties_resolve_to_smallest(self):
        train, dev = sentiment_corpus()  # separable: every C scores 100
        result = train_bow(tiny_config(mode="bow"), train, dev)
        assert set(result.dev_accuracy_by_c.values()) == {1.0}
        assert result.chosen_c == min(TrainConfig().bow_c_grid)

    def test_features_built_once_per_document(self, monkeypatch):
        train, dev = sentiment_corpus()
        built = []
        matrix = training.bow_matrix
        monkeypatch.setattr(training, "bow_matrix", lambda v, ds: built.extend(d.id for d in ds) or matrix(v, ds))
        result = train_bow(tiny_config(mode="bow"), train, dev)
        assert len(result.dev_accuracy_by_c) == 6
        assert sorted(built) == sorted(d.id for d in train + dev)
        for d, rec in zip(dev, result.dev_predictions):  # the cached vectors score as a fresh build would
            assert result.model.predict_features(bow_features(result.model.vocab, d)) == rec.pred

    def test_dev_predictions_are_the_chosen_models(self):
        rng = np.random.default_rng(3)
        train, dev = vocab_corpus(30, rng), vocab_corpus(20, rng)
        result = train_bow(tiny_config(mode="bow"), train, dev)
        assert len(set(result.dev_accuracy_by_c.values())) > 1  # the choice of C matters here
        assert result.dev_predictions == [
            PredictionRecord(d.id, d.label, bow_label(result.model, d)) for d in dev
        ]
        assert accuracy_of(result.dev_predictions) == result.dev_accuracy

    def test_deterministic(self):
        train, dev = sentiment_corpus()
        r1 = train_bow(tiny_config(mode="bow"), train, dev)
        r2 = train_bow(tiny_config(mode="bow"), train, dev)
        np.testing.assert_array_equal(r1.model.weights, r2.model.weights)
        assert r1.model.bias == r2.model.bias

    def test_mode_guard_and_empty_vocab(self):
        train, dev = sentiment_corpus()
        with pytest.raises(TrainingError, match="mode"):
            train_bow(tiny_config(mode="stl"), train, dev)
        with pytest.raises(TrainingError, match="vocabulary"):
            train_bow(tiny_config(mode="bow", min_count=100), train, dev)

    def test_imbalanced_labels_converge_at_small_c(self):
        # gradient descent stopped at its 10k-step cap here: the bias has
        # curvature <= 0.25 against the weights' 1/C = 1000
        train = vocab_corpus(60, np.random.default_rng(5), positives_per_negative=2)
        xs, ys = bow_arrays(train, train)
        assert ys.mean() == pytest.approx(2 / 3)
        w, b, _, iters = fit_bow(xs, ys, c=0.001)
        assert grad_norm(w, b, xs, ys, 0.001) < 1e-6
        assert iters <= inspect.signature(fit_bow).parameters["max_iters"].default // 10
        assert b > 0  # toward the log-odds of the 2:1 prior

    def test_saturated_decisions_finish_finite_without_warnings(self):
        # counts of 1e4 saturate every decision once |w| is past 1e-2; the
        # start saturates all of them (half wrong), so p(1-p) is 0 for
        # every document and the Newton bias step is undefined there
        xs = 1e4 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        ys = np.array([1.0, 0.0, 1.0, 0.0])
        starts = [None, (np.array([50.0, -50.0, 0.0]), 0.0), (np.array([50.0, 50.0, 50.0]), 300.0)]
        for c in TrainConfig().bow_c_grid:
            for init in starts:
                if init is not None:
                    p = training._sigmoid(xs @ init[0] + init[1])
                    assert np.all(p * (1.0 - p) == 0.0)
                with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
                    warnings.simplefilter("error")
                    w, b, loss, iters = fit_bow(xs, ys, c, init=init)
                assert math.isfinite(loss) and np.isfinite(w).all() and math.isfinite(b)
                assert grad_norm(w, b, xs, ys, c) < 1e-6
                assert iters < inspect.signature(fit_bow).parameters["max_iters"].default

    @pytest.mark.parametrize("broken", ["nan", "ascent"])
    def test_unusable_newton_direction_falls_back_to_gradient(self, broken, monkeypatch):
        # stand-ins for a solve gone wrong: all NaN, or scaled so that the
        # implied Hessian is indefinite and the direction climbs (C >= 1)
        train, _ = sentiment_corpus()
        xs, ys = bow_arrays(train, train)
        solve = np.linalg.solve
        broken_solve = {
            "nan": lambda a, b: np.full_like(b, np.nan),
            "ascent": lambda a, b: 10.0 * solve(a, b),
        }[broken]
        monkeypatch.setattr(np.linalg, "solve", broken_solve)
        for c in TrainConfig().bow_c_grid:
            with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
                warnings.simplefilter("error")
                w, b, loss, _ = fit_bow(xs, ys, c, max_iters=10_000)
            assert math.isfinite(loss)
            assert grad_norm(w, b, xs, ys, c) < 1e-6

    def test_unconverged_fit_raises_naming_c_and_gradient(self, monkeypatch):
        train, dev = sentiment_corpus()
        fit = training.fit_bow
        monkeypatch.setattr(training, "fit_bow", lambda xs, ys, c, gram=None: fit(xs, ys, c, max_iters=0, gram=gram))
        with pytest.raises(TrainingError, match=r"C=0\.001 .*gradient norm \d\.\d+e-\d+"):
            train_bow(tiny_config(mode="bow"), train, dev)


def bow_arrays(train, docs):
    vocab = build_vocab(train, 1, False)
    xs = np.stack([bow_features(vocab, d) for d in docs])
    ys = np.array([1.0 if d.label == "positive" else 0.0 for d in docs])
    return xs, ys


def grad_norm(w, b, xs, ys, c):
    _, gw, gb = bow_loss_and_grad(w, b, xs, ys, c)
    return math.sqrt(gw @ gw + gb**2)


def bow_corpora():
    rng = np.random.default_rng(5)
    return {
        "sentiment": sentiment_corpus(),
        "separable": (separable_corpus(20, rng), separable_corpus(10, rng)),
        "vocab": (vocab_corpus(60, rng), vocab_corpus(20, rng)),
    }


def ties(ref_z: np.ndarray) -> np.ndarray:
    """Decisions too close to 0 for the reference to fix their sign.

    Both solvers stop at gradient norm 1e-6.  There the reference's bias
    can still be some 3e-6 off (its curvature is at most 0.25) and its
    decisions, at C = 100, up to 1e-4 of the largest of them off."""
    return np.abs(ref_z) <= 1e-5 + 1e-4 * np.abs(ref_z).max()


class TestBowMatchesGradientDescent:
    """Newton against the former gradient-descent solver,
    ``oracles.fit_bow_reference``, on every C of the default grid."""

    @pytest.mark.parametrize("name", ["sentiment", "separable", "vocab"])
    def test_same_optimum_on_every_c(self, name):
        train, dev = bow_corpora()[name]
        xs, ys = bow_arrays(train, train)
        dev_xs, _ = bow_arrays(train, dev)
        for c in TrainConfig().bow_c_grid:
            w, b, loss, _ = fit_bow(xs, ys, c)
            ref_w, ref_b, ref_loss, ref_iters = fit_bow_reference(xs, ys, c)
            assert ref_iters < 10_000  # the reference converged too
            assert abs(loss - ref_loss) <= 1e-8
            for x in (xs, dev_xs):
                z, ref_z = x @ w + b, x @ ref_w + ref_b
                resolved = ~ties(ref_z)
                np.testing.assert_array_equal(np.sign(z[resolved]), np.sign(ref_z[resolved]))

    @pytest.mark.parametrize("name", ["sentiment", "separable", "vocab"])
    def test_same_selection(self, name, monkeypatch):
        train, dev = bow_corpora()[name]
        dev_xs, _ = bow_arrays(train, dev)
        result = train_bow(tiny_config(mode="bow"), train, dev)
        ref_fits = {}

        def recording_reference(xs, ys, c, gram=None):  # gradient descent needs no Gram matrix
            w, b, loss, iters = fit_bow_reference(xs, ys, c)
            ref_fits[c] = (w, b)
            return w, b, loss, iters

        monkeypatch.setattr(training, "fit_bow", recording_reference)
        ref = train_bow(tiny_config(mode="bow"), train, dev)
        assert result.chosen_c == ref.chosen_c
        for c, (ref_w, ref_b) in ref_fits.items():
            tied = int(ties(dev_xs @ ref_w + ref_b).sum())
            gap = abs(result.dev_accuracy_by_c[c] - ref.dev_accuracy_by_c[c])
            assert gap <= tied / len(dev) + 1e-12, (c, tied)
            if tied == 0:
                assert result.dev_accuracy_by_c[c] == ref.dev_accuracy_by_c[c]


# train tokens; a split adds case variants, reserved names and unseen forms
BOW_TRAIN_TOKENS = ["good", "Good", "bad", "plot", "fun", "<PAD>"]
BOW_TOKENS = BOW_TRAIN_TOKENS + ["GOOD", "BAD", "<pad>", "<unk>", "never-seen", "Ñandú", "ñandú"]


def token_documents(tokens, max_docs):
    sentence = st.lists(st.sampled_from(tokens), min_size=1, max_size=12).map(lambda ts: Sentence(tuple(ts)))
    return st.lists(st.lists(sentence, min_size=1, max_size=25), max_size=max_docs).map(
        lambda docs: [Document(f"d{i}", "toy", "positive", tuple(sents)) for i, sents in enumerate(docs)]
    )


class TestBowSharedWork:
    """``train_bow`` builds each split's counts, the Gram matrix and
    each iterate's probabilities once, and keeps the bits of the
    per-document, per-fit path (``oracles.train_bow_reference``)."""

    @settings(max_examples=200, deadline=None)
    @given(
        train=token_documents(BOW_TRAIN_TOKENS, 4).filter(bool),
        docs=token_documents(BOW_TOKENS, 6),
        lowercase=st.booleans(),
        min_count=st.integers(1, 3),
    )
    def test_matrix_rows_are_the_per_document_loop(self, train, docs, lowercase, min_count):
        vocab = build_vocab(train, min_count, lowercase)
        xs = bow_matrix(vocab, docs)
        assert xs.shape == (len(docs), len(vocab)) and xs.dtype == np.float64
        for x, d in zip(xs, docs):
            assert x.tobytes() == bow_features_reference(vocab, d).tobytes()
            assert bow_features(vocab, d).tobytes() == x.tobytes()

    @pytest.mark.parametrize("name", ["sentiment", "separable", "vocab"])
    def test_shared_gram_keeps_the_fit_bytes(self, name):
        train, _ = bow_corpora()[name]
        xs, ys = bow_arrays(train, train)
        gram = xs @ xs.T
        for c in TrainConfig().bow_c_grid:
            w, b, loss, iters = fit_bow(xs, ys, c, gram=gram)
            for ref_w, ref_b, ref_loss, ref_iters in (fit_bow(xs, ys, c), fit_bow_newton_reference(xs, ys, c)):
                assert w.tobytes() == ref_w.tobytes()
                assert (b, loss, iters) == (ref_b, ref_loss, ref_iters)

    @pytest.mark.parametrize("lowercase", [False, True])
    @pytest.mark.parametrize("name", ["sentiment", "separable", "vocab"])
    def test_train_bow_is_the_per_document_path(self, name, lowercase):
        train, dev = bow_corpora()[name]
        config = tiny_config(mode="bow", lowercase=lowercase)
        got, want = train_bow(config, train, dev), train_bow_reference(config, train, dev)
        assert got.model.vocab.id_to_token == want.model.vocab.id_to_token
        assert got.model.weights.tobytes() == want.model.weights.tobytes()
        assert got.model.bias == want.model.bias
        assert got.dev_accuracy_by_c == want.dev_accuracy_by_c
        assert (got.chosen_c, got.model.c, got.dev_accuracy) == (want.chosen_c, want.model.c, want.dev_accuracy)
        assert got.dev_predictions == want.dev_predictions

    def test_fits_as_the_benchmark_records_them(self, monkeypatch):
        # bench/workloads.py VocabTrain replaces training.fit_bow with a
        # wrapper taking (xs, ys, c, *a, **k) and reads max_iters' default
        assert isinstance(inspect.signature(fit_bow).parameters["max_iters"].default, int)
        train, dev = bow_corpora()["vocab"]
        config = tiny_config(mode="bow")
        fits = []

        def recording_fit_bow(xs, ys, c, *args, **kwargs):
            out = fit_bow(xs, ys, c, *args, **kwargs)
            assert isinstance(out, tuple) and len(out) == 4
            fits.append((c, args, out))
            return out

        monkeypatch.setattr(training, "fit_bow", recording_fit_bow)
        recorded = train_bow(config, train, dev)
        assert [c for c, _, _ in fits] == sorted(config.bow_c_grid)
        assert all(args == () for _, args, _ in fits)  # keyword arguments only after c
        monkeypatch.undo()
        plain = train_bow(config, train, dev)
        assert recorded.model.weights.tobytes() == plain.model.weights.tobytes()
        assert recorded.dev_accuracy_by_c == plain.dev_accuracy_by_c
        chosen = next(out for c, _, out in fits if c == plain.chosen_c)
        assert chosen[0].tobytes() == plain.model.weights.tobytes() and chosen[1] == plain.model.bias
