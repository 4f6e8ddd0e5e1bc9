"""Model assembly: negation tagger, sentiment classifier, and the
hard-sharing multi-task combination.

Both task paths run through one embedding table and one sentence-level
BiLSTM.  The negation head projects the shared token encodings to 5 CRF
emission scores; the sentiment head max-pools each sentence encoding,
runs a document-level BiLSTM over the sentence vectors, max-pools again
and maps to 2 class logits.  Class index 0 is negative, 1 is positive,
fixed and serialized; exact logit ties resolve to positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import NEGATIVE, POSITIVE, NUM_TAGS, BioTag
from .crf import CrfParams, crf_nll, viterbi_decode
from .layers import (
    EmbeddingTable,
    Linear,
    LstmParams,
    affine,
    bilstm,
    dropout,
)

NEGATIVE_CLASS = 0
POSITIVE_CLASS = 1
NUM_CLASSES = 2

CLASS_TO_LABEL = {NEGATIVE_CLASS: NEGATIVE, POSITIVE_CLASS: POSITIVE}
LABEL_TO_CLASS = {NEGATIVE: NEGATIVE_CLASS, POSITIVE: POSITIVE_CLASS}


class ModelError(Exception):
    pass


@dataclass
class ModelParams:
    """Named parameter registry for one model instance.

    The shared group (embedding + sentence BiLSTM) is physically one set
    of tensors used by both task paths.  The negation head is optional:
    single-task sentiment models do not carry it.  Initialization draws
    the head last, so a sentiment-only model and a multi-task model built
    from the same seed hold bitwise-identical shared and sentiment
    parameters.
    """

    embedding: EmbeddingTable
    sent_fwd: LstmParams
    sent_bwd: LstmParams
    doc_fwd: LstmParams
    doc_bwd: LstmParams
    out: Linear
    emission: Linear | None = None
    crf: CrfParams | None = None

    @classmethod
    def init(
        cls,
        vocab_size: int,
        embedding_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        with_negation_head: bool,
    ) -> "ModelParams":
        """Draw order: embedding, sent_fwd, sent_bwd, doc_fwd, doc_bwd,
        out, then (if present) emission and CRF transitions."""
        if vocab_size < 2 or embedding_dim < 1 or hidden_dim < 1:
            raise ModelError(
                f"bad model dimensions: vocab {vocab_size}, "
                f"embedding {embedding_dim}, hidden {hidden_dim}"
            )
        embedding = EmbeddingTable.init(vocab_size, embedding_dim, rng)
        sent_fwd = LstmParams.init(embedding_dim, hidden_dim, rng)
        sent_bwd = LstmParams.init(embedding_dim, hidden_dim, rng)
        doc_fwd = LstmParams.init(2 * hidden_dim, hidden_dim, rng)
        doc_bwd = LstmParams.init(2 * hidden_dim, hidden_dim, rng)
        out = Linear.init(2 * hidden_dim, NUM_CLASSES, rng)
        emission = crf = None
        if with_negation_head:
            emission = Linear.init(2 * hidden_dim, NUM_TAGS, rng)
            crf = CrfParams.init(NUM_TAGS, rng)
        return cls(embedding, sent_fwd, sent_bwd, doc_fwd, doc_bwd, out, emission, crf)

    @property
    def has_negation_head(self) -> bool:
        return self.emission is not None

    @property
    def vocab_size(self) -> int:
        return self.embedding.weights.data.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.embedding.weights.data.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.sent_fwd.hidden_dim

    def named_parameters(self) -> dict[str, Tensor]:
        """All parameters in manifest order (insertion order is the
        serialization order)."""
        named: dict[str, Tensor] = {"embedding.weights": self.embedding.weights}
        for prefix, lstm in (
            ("sent_fwd", self.sent_fwd),
            ("sent_bwd", self.sent_bwd),
            ("doc_fwd", self.doc_fwd),
            ("doc_bwd", self.doc_bwd),
        ):
            named[f"{prefix}.w"] = lstm.w
            named[f"{prefix}.u"] = lstm.u
            named[f"{prefix}.b"] = lstm.b
        named["out.w"] = self.out.w
        named["out.b"] = self.out.b
        if self.emission is not None and self.crf is not None:
            named["emission.w"] = self.emission.w
            named["emission.b"] = self.emission.b
            named["crf.transitions"] = self.crf.transitions
        return named

    def parameter_groups(self) -> dict[str, list[str]]:
        """Partition of parameter names into shared / sentiment / negation."""
        shared = ["embedding.weights"]
        for prefix in ("sent_fwd", "sent_bwd"):
            shared += [f"{prefix}.w", f"{prefix}.u", f"{prefix}.b"]
        sentiment = []
        for prefix in ("doc_fwd", "doc_bwd"):
            sentiment += [f"{prefix}.w", f"{prefix}.u", f"{prefix}.b"]
        sentiment += ["out.w", "out.b"]
        negation = []
        if self.has_negation_head:
            negation = ["emission.w", "emission.b", "crf.transitions"]
        return {"shared": shared, "sentiment": sentiment, "negation": negation}

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.named_parameters().items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """Rebuild a model from named arrays (dimensions are implied by
        the shapes; the negation head is present iff its arrays are).

        The shapes must fit together: the vocabulary size and embedding
        dim come from ``embedding.weights`` and the hidden dim from
        ``sent_fwd.u``; every other shape follows from those three."""
        def t(name):
            return Tensor(arrays[name], requires_grad=True)

        def lstm(prefix):
            return LstmParams(t(f"{prefix}.w"), t(f"{prefix}.u"), t(f"{prefix}.b"))

        try:
            params = cls(
                EmbeddingTable(t("embedding.weights")),
                lstm("sent_fwd"),
                lstm("sent_bwd"),
                lstm("doc_fwd"),
                lstm("doc_bwd"),
                Linear(t("out.w"), t("out.b")),
            )
            if "emission.w" in arrays:
                params.emission = Linear(t("emission.w"), t("emission.b"))
                params.crf = CrfParams(t("crf.transitions"))
        except KeyError as e:
            raise ModelError(f"parameter set is missing {e.args[0]!r}") from e
        named = params.named_parameters()
        extra = set(arrays) - set(named)
        if extra:
            raise ModelError(f"unknown parameter names: {sorted(extra)}")
        for name in ("embedding.weights", "sent_fwd.u"):
            if named[name].data.ndim != 2:
                raise ModelError(
                    f"parameter {name!r} has shape {named[name].data.shape}, expected a matrix"
                )
        vocab_size, e = named["embedding.weights"].data.shape
        d = named["sent_fwd.u"].data.shape[1]
        expected = {
            "embedding.weights": (vocab_size, e),
            "out.w": (NUM_CLASSES, 2 * d),
            "out.b": (NUM_CLASSES,),
            "emission.w": (NUM_TAGS, 2 * d),
            "emission.b": (NUM_TAGS,),
            "crf.transitions": (NUM_TAGS + 2, NUM_TAGS + 2),
        }
        for prefix, input_dim in (("sent_fwd", e), ("sent_bwd", e), ("doc_fwd", 2 * d), ("doc_bwd", 2 * d)):
            expected[f"{prefix}.w"] = (4 * d, input_dim)
            expected[f"{prefix}.u"] = (4 * d, d)
            expected[f"{prefix}.b"] = (4 * d,)
        for name, tensor in named.items():
            if tensor.data.shape != expected[name]:
                raise ModelError(
                    f"parameter {name!r} has shape {tensor.data.shape}, expected {expected[name]}"
                )
        return params


@dataclass(frozen=True)
class SentimentPrediction:
    label: str  # "positive" or "negative"
    logits: np.ndarray  # (2,), index 0 negative, 1 positive
    tags: list[list[BioTag]] | None = None  # per sentence, when requested


def _encode_sentence(
    params: ModelParams,
    token_ids: Sequence[int],
    train: bool,
    dropout_p: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """Shared lower path: embed, dropout, sentence BiLSTM -> (T, 2d)."""
    if len(token_ids) == 0:
        raise ModelError("cannot encode an empty sentence")
    if train and dropout_p > 0.0 and rng is None:
        raise ModelError("training-mode dropout needs an rng")
    emb = params.embedding.lookup(token_ids)
    emb = dropout(emb, dropout_p, rng, train)
    return bilstm(params.sent_fwd, params.sent_bwd, emb)


def _viterbi_tags(params: ModelParams, encoded: Tensor) -> list[BioTag]:
    """Eval-mode negation head: the best tag path of one encoded sentence."""
    emissions = affine(params.emission, encoded)
    return [BioTag(t) for t in viterbi_decode(params.crf.transitions.data, emissions.data)]


def negation_forward(
    params: ModelParams,
    token_ids: Sequence[int],
    train: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-token CRF emission scores, shape (T, 5)."""
    if not params.has_negation_head:
        raise ModelError("model has no negation head")
    encoded = _encode_sentence(params, token_ids, train, dropout_p, rng)
    return affine(params.emission, encoded)


def negation_loss(
    params: ModelParams,
    token_ids: Sequence[int],
    tags: Sequence[int],
    train: bool = True,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """CRF negative log-likelihood of the gold tag sequence."""
    emissions = negation_forward(params, token_ids, train, dropout_p, rng)
    return crf_nll(params.crf, emissions, [int(t) for t in tags])


def negation_tag(params: ModelParams, token_ids: Sequence[int]) -> list[BioTag]:
    """Eval-mode Viterbi tagging of one sentence (the one-sentence case
    of ``predict_document(..., tags=True)``)."""
    if not params.has_negation_head:
        raise ModelError("model has no negation head")
    with ad.no_grad():
        return _viterbi_tags(params, _encode_sentence(params, token_ids, False, 0.0, None))


def _document_logits(params: ModelParams, encodings: Sequence[Tensor]) -> Tensor:
    """Sentiment head over sentence encodings: each sentence becomes the
    max over time of its encoding; the document BiLSTM runs over the
    sentence vectors and is max-pooled the same way before the output
    projection to class logits, shape (2,)."""
    if len(encodings) == 0:
        raise ModelError("cannot classify an empty document")
    stacked = ad.stack_rows([ad.max_over_time(encoded) for encoded in encodings])
    doc_states = bilstm(params.doc_fwd, params.doc_bwd, stacked)
    return affine(params.out, ad.max_over_time(doc_states))


def sentiment_forward(
    params: ModelParams,
    doc_ids: Sequence[Sequence[int]],
    train: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Two-level document encoding to class logits, shape (2,)."""
    encodings = [_encode_sentence(params, ids, train, dropout_p, rng) for ids in doc_ids]
    return _document_logits(params, encodings)


def sentiment_loss(
    params: ModelParams,
    doc_ids: Sequence[Sequence[int]],
    gold_class: int,
    train: bool = True,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    logits = sentiment_forward(params, doc_ids, train, dropout_p, rng)
    return ad.softmax_cross_entropy(logits, gold_class)


def predict_document(
    params: ModelParams, doc_ids: Sequence[Sequence[int]], tags: bool = False
) -> SentimentPrediction:
    """Eval-mode classification; an exact logit tie resolves to positive.

    With ``tags``, the prediction also carries each sentence's Viterbi
    negation tags, decoded from the same sentence encodings that feed
    the sentiment head, so every sentence is encoded once."""
    if tags and not params.has_negation_head:
        raise ModelError("model has no negation head")
    with ad.no_grad():
        encodings = [_encode_sentence(params, ids, False, 0.0, None) for ids in doc_ids]
        logits = _document_logits(params, encodings)
        sentence_tags = [_viterbi_tags(params, e) for e in encodings] if tags else None
    cls = POSITIVE_CLASS if logits.data[POSITIVE_CLASS] >= logits.data[NEGATIVE_CLASS] else NEGATIVE_CLASS
    return SentimentPrediction(CLASS_TO_LABEL[cls], logits.data.copy(), sentence_tags)
