"""Model assembly: negation tagger, sentiment classifier, and the
hard-sharing multi-task combination.

Both task paths run through one embedding table and one sentence-level
BiLSTM, which encodes a whole document at once: one lookup over its
tokens laid end to end, one packed ``bilstm`` over all of its sentences
(a negation example is a one-sentence document).  Training applies
inverted dropout (Srivastava et al., 2014) to the embeddings only:
``dropout_mask`` draws one mask for the document, the one place a mask
is drawn, and the lookup scales what it gathers by it in its own tape
node.  The negation head projects the shared token encodings to 5 CRF
emission scores, so a negation loss records 4 tape nodes; the
sentiment head max-pools each sentence's rows (one segment max-pool
node), runs a document-level BiLSTM over the sentence vectors,
max-pools again and maps to 2 class logits, so a sentiment loss
records 7 tape nodes for any number of sentences.
``predict_documents`` is the one prediction path (``predict_document``
is its one-document case).  It runs untaped, so neither BiLSTM keeps
backward caches.  It encodes consecutive documents in packs of up to
``PACK_TOKENS`` tokens, one call of each BiLSTM per pack, whose gate
products keep every row's bits whatever shares them; the output and
emission layers run per document, so a document's logits do not
depend on the others, bit for bit.  With ``tags`` it decodes every
sentence of every document in one packed Viterbi loop
(``crf.viterbi_paths``).
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
from .layers import EmbeddingTable, Linear, LstmParams, affine, bilstm

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


def _check_dims(vocab_size: int, embedding_dim: int, hidden_dim: int, min_vocab: int):
    """A model needs one embedding and one hidden unit at least."""
    if vocab_size < min_vocab or embedding_dim < 1 or hidden_dim < 1:
        raise ModelError(f"bad model dimensions: vocab {vocab_size}, embedding {embedding_dim}, hidden {hidden_dim}")


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
        _check_dims(vocab_size, embedding_dim, hidden_dim, min_vocab=2)
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

    def column_major(self) -> set[str]:
        """The parameters training holds column-major: the fields each
        layer type lists in its ``COLUMN_MAJOR``."""
        return {
            name
            for spec, _ in self._layers()
            for name, attr in spec.leaf_names()
            if attr in getattr(spec.kind, "COLUMN_MAJOR", ())
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
        ``sent_fwd.u``; every other shape follows from those three.  The
        two widths must be at least 1, as ``init`` requires."""
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
        _check_dims(*dims, min_vocab=0)  # to_model matches the rows to the vocabulary
        return params


@dataclass(frozen=True)
class SentimentPrediction:
    label: str  # "positive" or "negative"
    logits: np.ndarray  # (2,), index 0 negative, 1 positive
    tags: list[list[BioTag]] | None = None  # per sentence, when requested


def dropout_mask(
    shape: tuple[int, int], dtype: np.dtype, p: float, rng: np.random.Generator | None, train: bool
) -> np.ndarray | None:
    """The inverted-dropout scale of a (T, D) embedding matrix: each
    entry is dropped with probability ``p`` (one ``rng.random`` draw per
    entry, row-major) and the survivors scaled by 1/(1-p), so evaluation
    needs no rescaling.  None, with nothing drawn, when not training or
    p == 0."""
    if not 0.0 <= p < 1.0:
        raise ModelError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return None
    if rng is None:
        raise ModelError("training-mode dropout needs an rng")
    return np.divide(rng.random(shape) >= p, 1.0 - p, dtype=dtype)


def _encode_document(
    params: ModelParams,
    doc_ids: Sequence[Sequence[int]],
    train: bool,
    dropout_p: float,
    rng: np.random.Generator | None,
) -> tuple[Tensor, list[int]]:
    """Shared lower path for every sentence of a document at once: one
    embedding gather over the concatenated tokens, scaled by one dropout
    mask (the same draws as one mask per sentence in order), one packed
    sentence BiLSTM.  Returns the (N, 2d) encodings, sentence after
    sentence, and the sentence lengths."""
    if len(doc_ids) == 0:
        raise ModelError("cannot encode an empty document")
    lengths = [len(ids) for ids in doc_ids]
    if min(lengths) == 0:
        raise ModelError("cannot encode an empty sentence")
    weights = params.embedding.weights.data
    mask = dropout_mask((sum(lengths), weights.shape[1]), weights.dtype, dropout_p, rng, train)
    emb = params.embedding.lookup([t for ids in doc_ids for t in ids], mask)
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


# Tokens per prediction pack: ``predict_documents`` runs consecutive
# documents through each BiLSTM together while their tokens fit, and a
# longer document whole and alone.  A pack's transient buffers grow with
# its tokens, by about 5 kB a token at dims 100 in float32, so the budget
# trades speed against peak memory.  The predict benchmark (20 reviews
# of 190-240 tokens, dims 100, `negmtl predict --tags` in-process; one
# BLAS thread, 2-core x86-64 VM, seeds 1-2):
#   budget             docs a pack   s a call       peak RSS
#   1                  1             0.100          51.9-52.1 MB
#   512                2             0.081-0.083    53.6 MB
#   768                3             0.080          55.1 MB
#   whole corpus       20            0.065          73.7 MB
PACK_TOKENS = 512


def _packs(doc_tokens: Sequence[int]) -> list[range]:
    """Consecutive documents, ``doc_tokens`` tokens each, grouped while
    their tokens stay within ``PACK_TOKENS``; a document over the budget
    is a pack of its own, never split."""
    packs, start, tokens = [], 0, 0
    for i, n in enumerate(doc_tokens):
        if i > start and tokens + n > PACK_TOKENS:
            packs.append(range(start, i))
            start, tokens = i, 0
        tokens += n
    packs.append(range(start, len(doc_tokens)))
    return packs


def predict_documents(
    params: ModelParams, docs_ids: Sequence[Sequence[Sequence[int]]], tags: bool = False
) -> list[SentimentPrediction]:
    """Eval-mode classification of each document; an exact logit tie
    resolves to positive.

    Documents run in packs (``_packs``): per pack one embedding gather,
    one sentence-BiLSTM call over all of its sentences, one segment
    max-pool, one document-BiLSTM call over all of its documents and one
    pool.  Every BiLSTM gate product keeps each row's bits whatever
    shares it (``layers._gemm``), and the output and emission ``affine``
    run per document, so each document gets the logits, bit for bit,
    it gets when predicted alone.  With ``tags``, each prediction also
    carries its sentences' Viterbi negation tags, decoded from the same
    encodings that feed the sentiment head: one ``viterbi_paths`` call
    decodes every sentence of every document, each as it would decode
    alone.  Nothing here is taped, so the BiLSTMs keep no backward
    caches.  An empty corpus gives []."""
    if tags and not params.has_negation_head:
        raise ModelError("model has no negation head")
    if len(docs_ids) == 0:
        return []
    if any(len(doc_ids) == 0 for doc_ids in docs_ids):
        raise ModelError("cannot encode an empty document")
    doc_tokens = [sum(map(len, doc_ids)) for doc_ids in docs_ids]
    logits, emissions, lengths = [], [], []
    with ad.no_grad():
        for pack in _packs(doc_tokens):
            sentences = [ids for i in pack for ids in docs_ids[i]]
            encoded, sentence_lengths = _encode_document(params, sentences, False, 0.0, None)
            doc_sizes = [len(docs_ids[i]) for i in pack]
            doc_states = bilstm(
                params.doc_fwd, params.doc_bwd, ad.max_over_time(encoded, sentence_lengths), doc_sizes
            )
            pooled = ad.max_over_time(doc_states, doc_sizes).data
            logits += [affine(params.out, Tensor(row)).data for row in pooled]
            if tags:
                bounds = np.cumsum([0] + [doc_tokens[i] for i in pack])
                emissions += [
                    affine(params.emission, Tensor(encoded.data[a:b])).data
                    for a, b in zip(bounds[:-1], bounds[1:])
                ]
                lengths += sentence_lengths
    if tags:
        paths = iter(viterbi_paths(params.crf.transitions.data, np.concatenate(emissions), lengths))
    predictions = []
    for doc_ids, doc_logits in zip(docs_ids, logits):
        cls = POSITIVE_CLASS if doc_logits[POSITIVE_CLASS] >= doc_logits[NEGATIVE_CLASS] else NEGATIVE_CLASS
        sentence_tags = [_as_tags(next(paths)) for _ in doc_ids] if tags else None
        predictions.append(SentimentPrediction(CLASS_TO_LABEL[cls], doc_logits, sentence_tags))
    return predictions


def predict_document(
    params: ModelParams, doc_ids: Sequence[Sequence[int]], tags: bool = False
) -> SentimentPrediction:
    """``predict_documents`` on one document."""
    return predict_documents(params, [doc_ids], tags)[0]
