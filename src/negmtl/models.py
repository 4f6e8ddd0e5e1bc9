"""Model assembly: negation tagger, sentiment classifier, and the
hard-sharing multi-task combination.

Both task paths run through one embedding table and one sentence-level
BiLSTM, which encodes a whole document at once: one lookup over its
tokens laid end to end, one dropout mask, one packed ``bilstm`` over
all of its sentences (a negation example is a one-sentence document).
The negation head projects the shared token encodings to 5 CRF
emission scores; the sentiment head max-pools each sentence's rows
(one segment max-pool node), runs a document-level BiLSTM over the
sentence vectors, max-pools again and maps to 2 class logits, so a
sentiment loss records 8 tape nodes for any number of sentences.
``predict_document`` runs untaped, so neither BiLSTM keeps backward
caches, and with ``tags`` it decodes every sentence in one packed
Viterbi loop (``crf.viterbi_paths``).
Class index 0 is negative, 1 is positive, fixed and serialized; exact
logit ties resolve to positive.

``LAYERS`` declares the network once: each layer's field, task group
(shared, sentiment or negation), type and ``init`` arguments.  The
initialization draw order, the parameter names and their manifest
order, the task groups, checkpoint loading with its shape checks and
the gradient-check subsets all follow from that table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import NEGATIVE, POSITIVE, NUM_TAGS, BioTag
from .crf import CrfParams, crf_nll, viterbi_decode, viterbi_paths
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


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network: the ``ModelParams`` field that holds it,
    its task group, its type, and the arguments its ``init`` takes (after
    the rng) as a function of (vocab size, embedding dim, hidden dim)."""

    field: str
    group: str
    kind: type
    init_args: Callable[[int, int, int], tuple[int, ...]]

    def leaf_names(self) -> list[tuple[str, str]]:
        """(parameter name, attribute of the layer) for each leaf tensor."""
        return [(f"{self.field}.{f.name}", f.name) for f in fields(self.kind)]


# The network layout, in draw order and manifest order: shared layers
# first, then the sentiment head, then the optional negation head, so
# a sentiment-only and a multi-task model from one seed share every
# draw they have in common.
LAYERS = (
    LayerSpec("embedding", "shared", EmbeddingTable, lambda v, e, d: (v, e)),
    LayerSpec("sent_fwd", "shared", LstmParams, lambda v, e, d: (e, d)),
    LayerSpec("sent_bwd", "shared", LstmParams, lambda v, e, d: (e, d)),
    LayerSpec("doc_fwd", "sentiment", LstmParams, lambda v, e, d: (2 * d, d)),
    LayerSpec("doc_bwd", "sentiment", LstmParams, lambda v, e, d: (2 * d, d)),
    LayerSpec("out", "sentiment", Linear, lambda v, e, d: (2 * d, NUM_CLASSES)),
    LayerSpec("emission", "negation", Linear, lambda v, e, d: (2 * d, NUM_TAGS)),
    LayerSpec("crf", "negation", CrfParams, lambda v, e, d: (NUM_TAGS,)),
)
GROUPS = tuple(dict.fromkeys(spec.group for spec in LAYERS))
HEAD_GROUP = "negation"  # present in multi-task models only


@dataclass
class ModelParams:
    """Named parameter registry for one model instance, laid out by
    ``LAYERS``.

    The shared group (embedding + sentence BiLSTM) is physically one set
    of tensors used by both task paths.  The negation head is optional:
    single-task sentiment models do not carry it.
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
        """Draws each layer of ``LAYERS`` in table order."""
        if vocab_size < 2 or embedding_dim < 1 or hidden_dim < 1:
            raise ModelError(
                f"bad model dimensions: vocab {vocab_size}, "
                f"embedding {embedding_dim}, hidden {hidden_dim}"
            )
        return cls(**{
            spec.field: spec.kind.init(*spec.init_args(vocab_size, embedding_dim, hidden_dim), rng)
            for spec in LAYERS
            if with_negation_head or spec.group != HEAD_GROUP
        })

    def _layers(self) -> list[tuple[LayerSpec, object]]:
        """(spec, layer) for every layer this model holds, in table order."""
        return [(spec, layer) for spec in LAYERS if (layer := getattr(self, spec.field)) is not None]

    @property
    def has_negation_head(self) -> bool:
        return any(spec.group == HEAD_GROUP for spec, _ in self._layers())

    @property
    def embedding_dim(self) -> int:
        return self.embedding.weights.data.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.sent_fwd.hidden_dim

    def named_parameters(self) -> dict[str, Tensor]:
        """All parameters in manifest order (insertion order is the
        serialization order)."""
        return {
            name: getattr(layer, attr)
            for spec, layer in self._layers()
            for name, attr in spec.leaf_names()
        }

    def parameter_groups(self) -> dict[str, list[str]]:
        """Partition of parameter names into shared / sentiment / negation."""
        groups: dict[str, list[str]] = {group: [] for group in GROUPS}
        for spec, _ in self._layers():
            groups[spec.group] += [name for name, _ in spec.leaf_names()]
        return groups

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.named_parameters().items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """Rebuild a model from named arrays (dimensions are implied by
        the shapes; the negation head is present iff any of its arrays is).

        The shapes must fit together: the vocabulary size and embedding
        dim come from ``embedding.weights`` and the hidden dim from
        ``sent_fwd.u``; every other shape follows from those three."""
        head = any(
            name in arrays for spec in LAYERS if spec.group == HEAD_GROUP for name, _ in spec.leaf_names()
        )
        specs = [spec for spec in LAYERS if head or spec.group != HEAD_GROUP]
        layers = {}
        for spec in specs:
            try:
                leaves = {attr: Tensor(arrays[name], requires_grad=True) for name, attr in spec.leaf_names()}
            except KeyError as e:
                raise ModelError(f"parameter set is missing {e.args[0]!r}") from e
            layers[spec.field] = spec.kind(**leaves)
        params = cls(**layers)
        named = params.named_parameters()
        extra = set(arrays) - set(named)
        if extra:
            raise ModelError(f"unknown parameter names: {sorted(extra)}")
        for name in ("embedding.weights", "sent_fwd.u"):
            if named[name].data.ndim != 2:
                raise ModelError(
                    f"parameter {name!r} has shape {named[name].data.shape}, expected a matrix"
                )
        dims = (*named["embedding.weights"].data.shape, params.hidden_dim)
        for spec, layer in params._layers():
            shapes = spec.kind.shapes(*spec.init_args(*dims))
            for name, attr in spec.leaf_names():
                shape, expected = getattr(layer, attr).data.shape, shapes[attr]
                if shape != expected:
                    raise ModelError(f"parameter {name!r} has shape {shape}, expected {expected}")
        return params


@dataclass(frozen=True)
class SentimentPrediction:
    label: str  # "positive" or "negative"
    logits: np.ndarray  # (2,), index 0 negative, 1 positive
    tags: list[list[BioTag]] | None = None  # per sentence, when requested


def _encode_document(
    params: ModelParams,
    doc_ids: Sequence[Sequence[int]],
    train: bool,
    dropout_p: float,
    rng: np.random.Generator | None,
) -> tuple[Tensor, list[int]]:
    """Shared lower path for every sentence of a document at once: one
    embedding gather over the concatenated tokens, one dropout mask (the
    same draws as one mask per sentence in order), one packed sentence
    BiLSTM.  Returns the (N, 2d) encodings, sentence after sentence, and
    the sentence lengths."""
    if len(doc_ids) == 0:
        raise ModelError("cannot encode an empty document")
    lengths = [len(ids) for ids in doc_ids]
    if min(lengths) == 0:
        raise ModelError("cannot encode an empty sentence")
    if train and dropout_p > 0.0 and rng is None:
        raise ModelError("training-mode dropout needs an rng")
    emb = params.embedding.lookup([t for ids in doc_ids for t in ids])
    emb = dropout(emb, dropout_p, rng, train)
    return bilstm(params.sent_fwd, params.sent_bwd, emb, lengths), lengths


_BIO_TAGS = tuple(BioTag)  # indexed by tag id, cheaper than calling BioTag(id)


def _as_tags(path: list[int]) -> list[BioTag]:
    return [_BIO_TAGS[t] for t in path]


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
    encoded, _ = _encode_document(params, [token_ids], train, dropout_p, rng)
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
    with ad.no_grad():
        emissions = negation_forward(params, token_ids).data
    return _as_tags(viterbi_decode(params.crf.transitions.data, emissions))


def _document_logits(params: ModelParams, encoded: Tensor, lengths: list[int]) -> Tensor:
    """Sentiment head over a document's sentence encodings: each
    sentence becomes the max over time of its rows (one segment max-pool
    node for all of them); the document BiLSTM runs over the (S, 2d)
    sentence vectors and is max-pooled the same way before the output
    projection to class logits, shape (2,)."""
    doc_states = bilstm(params.doc_fwd, params.doc_bwd, ad.max_over_time(encoded, lengths))
    return affine(params.out, ad.max_over_time(doc_states))


def sentiment_forward(
    params: ModelParams,
    doc_ids: Sequence[Sequence[int]],
    train: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Two-level document encoding to class logits, shape (2,)."""
    return _document_logits(params, *_encode_document(params, doc_ids, train, dropout_p, rng))


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
    negation tags, decoded from the same encodings that feed the
    sentiment head: one ``affine`` gives the whole document's emission
    scores, and one ``viterbi_paths`` call decodes every sentence over
    the step plan of the packed sentence BiLSTM.  Nothing here is taped,
    so the BiLSTMs keep no backward caches."""
    if tags and not params.has_negation_head:
        raise ModelError("model has no negation head")
    with ad.no_grad():
        encoded, lengths = _encode_document(params, doc_ids, False, 0.0, None)
        logits = _document_logits(params, encoded, lengths)
        sentence_tags = None
        if tags:
            emissions = affine(params.emission, encoded).data
            paths = viterbi_paths(params.crf.transitions.data, emissions, lengths)
            sentence_tags = [_as_tags(path) for path in paths]
    cls = POSITIVE_CLASS if logits.data[POSITIVE_CLASS] >= logits.data[NEGATIVE_CLASS] else NEGATIVE_CLASS
    return SentimentPrediction(CLASS_TO_LABEL[cls], logits.data.copy(), sentence_tags)
