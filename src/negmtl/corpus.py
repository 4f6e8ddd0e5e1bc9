"""Annotated review corpus: documents, negation structures, BIO tags.

The canonical on-disk format is JSON lines (UTF-8, LF), one document per
line:

    {"id": "hotel-17", "domain": "hotels", "label": "negative",
     "sentences": [{"tokens": ["no", "esta", "lejos"],
                    "negations": [{"cue": [0], "scope": [1, 2]}]}]}

Token indices are 0-based positions inside their sentence.  ``label`` may
be null for unlabeled (prediction-only) data; training requires labels.
A sentence may omit the ``"negations"`` key entirely, which marks the
document as lacking the negation annotation layer -- distinct from an
empty list, which asserts "no negation in this sentence".
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, NamedTuple, Sequence

NEGATIVE = "negative"
POSITIVE = "positive"
LABELS = (NEGATIVE, POSITIVE)


class CorpusError(Exception):
    """Base class for corpus loading and validation failures."""


class ParseError(CorpusError):
    """A line of the corpus file is not a well-formed document record."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(CorpusError):
    """A structurally valid record violates a document invariant."""

    def __init__(self, doc_id: str, message: str):
        super().__init__(f"document {doc_id!r}: {message}")
        self.doc_id = doc_id


class BioTag(IntEnum):
    """Five-tag BIO encoding over cue and scope spans.

    Integer ids are stable (0..4, in this order); they index the CRF
    emission and transition dimensions.
    """

    O = 0
    B_CUE = 1
    I_CUE = 2
    B_SCOPE = 3
    I_SCOPE = 4

    def __str__(self) -> str:
        return _TAG_STRINGS[self]

    @classmethod
    def from_string(cls, s: str) -> "BioTag":
        try:
            return _TAGS_BY_STRING[s]
        except KeyError:
            raise ValueError(f"unknown BIO tag {s!r}; expected one of {sorted(_TAGS_BY_STRING)}")


_TAG_STRINGS = {
    BioTag.O: "O",
    BioTag.B_CUE: "B-CUE",
    BioTag.I_CUE: "I-CUE",
    BioTag.B_SCOPE: "B-SCOPE",
    BioTag.I_SCOPE: "I-SCOPE",
}
_TAGS_BY_STRING = {s: t for t, s in _TAG_STRINGS.items()}

NUM_TAGS = len(BioTag)


@dataclass(frozen=True)
class NegationStructure:
    """One negation instance: cue token positions and scope token positions.

    Indices are sorted, duplicate-free and sentence-local.  The scope may
    be empty, discontinuous, or begin before the cue.  A token cannot be
    both cue and scope within one structure.
    """

    cue: tuple[int, ...]
    scope: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.cue:
            raise ValueError("negation structure needs at least one cue token")
        for name, idx in (("cue", self.cue), ("scope", self.scope)):
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"{name} indices must be sorted and unique: {idx}")
            if idx and idx[0] < 0:
                raise ValueError(f"{name} indices must be non-negative: {idx}")
        if set(self.cue) & set(self.scope):
            raise ValueError(f"cue and scope overlap: {self.cue} vs {self.scope}")

    @classmethod
    def make(cls, cue: Iterable[int], scope: Iterable[int] = ()) -> "NegationStructure":
        """Build a structure from unordered index iterables."""
        return cls(tuple(sorted(set(cue))), tuple(sorted(set(scope))))

    @property
    def max_index(self) -> int:
        return max(self.cue + self.scope)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    negations: tuple[NegationStructure, ...] = ()

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence has no tokens")
        for neg in self.negations:
            if neg.max_index >= len(self.tokens):
                raise ValueError(
                    f"negation index {neg.max_index} out of range for "
                    f"{len(self.tokens)}-token sentence"
                )


@dataclass(frozen=True)
class Document:
    id: str
    domain: str
    label: str | None
    sentences: tuple[Sentence, ...]
    # False when the source record omitted the "negations" key on some
    # sentence, i.e. the negation layer is absent rather than empty.
    has_negation_annotations: bool = True

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"document {self.id!r} has no sentences")
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"document {self.id!r}: label must be one of {LABELS} or null")


class FlatSpans(NamedTuple):
    """Sentence-level union of cue and scope token positions."""

    cue: frozenset[int]
    scope: frozenset[int]


def flatten_spans(sentence: Sentence) -> FlatSpans:
    """Union all structures of a sentence into one cue set and one scope set.

    When a token is a cue in one structure and scope in another, cue wins:
    cues are the rarer, higher-signal class.
    """
    cue: set[int] = set()
    scope: set[int] = set()
    for neg in sentence.negations:
        cue.update(neg.cue)
        scope.update(neg.scope)
    return FlatSpans(frozenset(cue), frozenset(scope - cue))


def to_bio(sentence: Sentence) -> list[BioTag]:
    """Flatten a sentence's negation structures into one BIO tag per token.

    Each maximal contiguous run of cue positions becomes B-CUE, I-CUE...;
    scope runs become B-SCOPE, I-SCOPE...; everything else is O.
    Discontinuous spans restart at B.
    """
    cue, scope = flatten_spans(sentence)
    tags = [BioTag.O] * len(sentence.tokens)
    _tag_runs(tags, cue, BioTag.B_CUE, BioTag.I_CUE)
    _tag_runs(tags, scope, BioTag.B_SCOPE, BioTag.I_SCOPE)
    return tags


def _tag_runs(tags: list[BioTag], positions: frozenset[int], begin: BioTag, inside: BioTag):
    for i in sorted(positions):
        tags[i] = inside if (i - 1) in positions else begin


def from_bio(tags: Sequence[BioTag]) -> FlatSpans:
    """Recover cue and scope position sets from a BIO tag sequence.

    Tolerates invalid BIO (a stray I with no preceding B is treated as a
    span start); only set membership is recovered, so the repair amounts
    to counting every cue-tagged or scope-tagged position.
    """
    cue = frozenset(i for i, t in enumerate(tags) if t in (BioTag.B_CUE, BioTag.I_CUE))
    scope = frozenset(i for i, t in enumerate(tags) if t in (BioTag.B_SCOPE, BioTag.I_SCOPE))
    return FlatSpans(cue, scope)


# ---------------------------------------------------------------------------
# Parsing


def parse_corpus(path) -> list[Document]:
    """Load and validate a JSON-lines corpus: one Document per non-blank line."""
    docs: list[Document] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(line_no, f"invalid JSON ({e.msg})") from e
            docs.append(_document_from_record(record, line_no, seen_ids))
    return docs


def _document_from_record(record, line_no: int, seen_ids: set[str]) -> Document:
    if not isinstance(record, dict):
        raise ParseError(line_no, "document record must be a JSON object")
    doc_id = record.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ParseError(line_no, "missing or non-string 'id'")
    if doc_id in seen_ids:
        raise ValidationError(doc_id, "duplicate document id in corpus")
    seen_ids.add(doc_id)

    def bad(msg: str) -> ValidationError:
        return ValidationError(doc_id, f"{msg} (line {line_no})")

    domain = record.get("domain")
    if not isinstance(domain, str):
        raise bad("missing or non-string 'domain'")
    label = record.get("label")
    if label is not None and label not in LABELS:
        raise bad(f"label must be one of {LABELS} or null, got {label!r}")
    raw_sentences = record.get("sentences")
    if not isinstance(raw_sentences, list) or not raw_sentences:
        raise bad("'sentences' must be a non-empty list")

    sentences = []
    annotated = True
    for s_idx, raw in enumerate(raw_sentences):
        if not isinstance(raw, dict):
            raise bad(f"sentence {s_idx} is not an object")
        tokens = raw.get("tokens")
        if (
            not isinstance(tokens, list)
            or not tokens
            or not all(isinstance(t, str) for t in tokens)
        ):
            raise bad(f"sentence {s_idx}: 'tokens' must be a non-empty list of strings")
        if "negations" not in raw:
            annotated = False
            negations: tuple[NegationStructure, ...] = ()
        else:
            raw_negs = raw["negations"]
            if not isinstance(raw_negs, list):
                raise bad(f"sentence {s_idx}: 'negations' must be a list")
            negations = tuple(
                _negation_from_record(n, doc_id, s_idx, n_idx, line_no)
                for n_idx, n in enumerate(raw_negs)
            )
        try:
            sentences.append(Sentence(tuple(tokens), negations))
        except ValueError as e:
            raise bad(f"sentence {s_idx}: {e}") from e

    try:
        return Document(doc_id, domain, label, tuple(sentences), annotated)
    except ValueError as e:
        raise bad(str(e)) from e


def _negation_from_record(raw, doc_id, s_idx, n_idx, line_no) -> NegationStructure:
    def bad(msg: str) -> ValidationError:
        return ValidationError(doc_id, f"sentence {s_idx}, negation {n_idx}: {msg} (line {line_no})")

    if not isinstance(raw, dict):
        raise bad("must be an object")
    for key in ("cue", "scope"):
        val = raw.get(key, [] if key == "scope" else None)
        if not isinstance(val, list) or not all(type(i) is int for i in val):  # no bools
            raise bad(f"'{key}' must be a list of integers")
    try:
        return NegationStructure.make(raw["cue"], raw.get("scope", []))
    except ValueError as e:
        raise bad(str(e)) from e


# ---------------------------------------------------------------------------
# Vocabulary


class Vocabulary:
    """Token-to-id mapping with reserved ids 0 (padding) and 1 (unknown).

    Built from the training split only; ids above the reserved range are
    assigned by descending frequency, ties broken lexicographically, so an
    identical corpus always produces an identical vocabulary.
    """

    PAD_ID = 0
    UNK_ID = 1
    PAD_TOKEN = "<pad>"
    UNK_TOKEN = "<unk>"

    def __init__(self, id_to_token: Sequence[str], lowercase: bool = False):
        if list(id_to_token[:2]) != [self.PAD_TOKEN, self.UNK_TOKEN]:
            raise ValueError("ids 0 and 1 are reserved for padding and unknown")
        self.id_to_token = list(id_to_token)
        self.lowercase = lowercase
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        if self.lowercase:
            token = token.lower()
        return self.token_to_id.get(token, self.UNK_ID)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.lookup(t) for t in tokens]

    def to_json_obj(self) -> dict:
        return {"tokens": self.id_to_token[2:], "lowercase": self.lowercase}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Vocabulary":
        return cls([cls.PAD_TOKEN, cls.UNK_TOKEN] + list(obj["tokens"]), bool(obj["lowercase"]))


def build_vocab(
    train_docs: Sequence[Document], min_count: int = 1, lowercase: bool = False
) -> Vocabulary:
    """Count tokens over the training documents and keep those with
    frequency >= min_count."""
    if not train_docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for doc in train_docs:
        for sent in doc.sentences:
            counts.update((t.lower() for t in sent.tokens) if lowercase else sent.tokens)
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary([Vocabulary.PAD_TOKEN, Vocabulary.UNK_TOKEN] + kept, lowercase)


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class SplitStats:
    documents: int
    structures: int
    structures_by_class: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusStats:
    splits: dict[str, SplitStats]


def corpus_stats(splits: dict[str, Sequence[Document]]) -> CorpusStats:
    """Count documents and negation structures per split and per sentiment class."""
    out: dict[str, SplitStats] = {}
    for name, docs in splits.items():
        by_class: dict[str, int] = {POSITIVE: 0, NEGATIVE: 0}
        total = 0
        for doc in docs:
            n = sum(len(s.negations) for s in doc.sentences)
            total += n
            key = doc.label if doc.label is not None else "unlabeled"
            by_class[key] = by_class.get(key, 0) + n
        out[name] = SplitStats(len(docs), total, by_class)
    return CorpusStats(out)
