"""Synthetic corpora for the end-to-end suites.

Four generators:

* random annotated sentences with overlapping, discontinuous, and
  pre-cue scopes, for round-trip checks over the BIO codec;
* a lexically separable sentiment corpus, for plain trainability;
* a scope-flip corpus where the document label depends on whether the
  sentiment keyword sits inside an annotated negation scope.  The cue
  also appears in decoy sentences whose scope excludes the keyword, so
  cue presence alone carries no label signal; the tagging task supplies
  exactly the structure the sentiment task needs;
* a wide-vocabulary corpus of short documents, whose vocabulary grows
  almost linearly with its size, for the bag-of-words baseline.
"""

from __future__ import annotations

import numpy as np

from negmtl.corpus import Document, NegationStructure, Sentence

FILLERS = [
    "the", "a", "film", "plot", "story", "acting", "scene",
    "it", "was", "quite", "rather", "very", "and", "here",
]
POS_WORDS = ["good", "great", "lovely"]
NEG_WORDS = ["bad", "awful", "dull"]
CUES = ["not", "never"]
BOUNDARY = "though"  # marks the end of every generated scope


def random_annotated_sentence(rng: np.random.Generator) -> Sentence:
    """Tokens plus 1..3 negation structures; scopes may be discontinuous,
    start before their cue, and overlap other structures."""
    t_len = int(rng.integers(3, 13))
    tokens = tuple(str(rng.choice(FILLERS)) for _ in range(t_len))
    structures = []
    for _ in range(int(rng.integers(1, 4))):
        n_cue = min(int(rng.integers(1, 3)), t_len)
        cue = rng.choice(t_len, size=n_cue, replace=False)
        rest = [i for i in range(t_len) if i not in set(int(c) for c in cue)]
        if rest:
            n_scope = int(rng.integers(0, len(rest) + 1))
            scope = rng.choice(rest, size=n_scope, replace=False)
        else:
            scope = np.array([], dtype=int)
        structures.append(NegationStructure.make([int(c) for c in cue], [int(s) for s in scope]))
    return Sentence(tokens, tuple(structures))


def _filler_sentence(rng, lo=2, hi=6) -> Sentence:
    n = int(rng.integers(lo, hi))
    return Sentence(tuple(str(rng.choice(FILLERS)) for _ in range(n)), ())


def _distractor_sentence(rng) -> Sentence:
    """Keyword-free sentence; may carry a cue+boundary negation over
    fillers, so cue frequency says nothing about the label."""
    if rng.random() < 0.4:
        lead = [str(rng.choice(FILLERS)) for _ in range(int(rng.integers(1, 3)))]
        inside = [str(rng.choice(FILLERS)) for _ in range(int(rng.integers(1, 4)))]
        tail = [str(rng.choice(FILLERS)) for _ in range(int(rng.integers(1, 3)))]
        tokens = lead + [str(rng.choice(CUES))] + inside + [BOUNDARY] + tail
        cue_i = len(lead)
        scope = list(range(cue_i + 1, cue_i + 1 + len(inside)))
        return Sentence(tuple(tokens), (NegationStructure.make([cue_i], scope),))
    return _filler_sentence(rng)


def separable_corpus(n_docs: int, rng: np.random.Generator) -> list[Document]:
    """Half positive, half negative; each document contains one
    unambiguous class keyword and no negation."""
    docs = []
    for i in range(n_docs):
        positive = i % 2 == 0
        kw = str(rng.choice(POS_WORDS if positive else NEG_WORDS))
        before = int(rng.integers(0, 3))
        after = int(rng.integers(0, 3))
        tokens = (
            tuple(str(rng.choice(FILLERS)) for _ in range(before))
            + (kw,)
            + tuple(str(rng.choice(FILLERS)) for _ in range(after))
        )
        sentences = [Sentence(tokens, ())]
        if rng.random() < 0.5:
            sentences.append(_filler_sentence(rng))
        docs.append(
            Document(
                f"sep-{i}", "synthetic",
                "positive" if positive else "negative",
                tuple(sentences),
            )
        )
    return docs


def vocab_corpus(
    n_docs: int, rng: np.random.Generator, positives_per_negative: int = 1
) -> list[Document]:
    """Two or three sentences of 6-12 tokens per document, three in ten
    of them fillers and the rest content words drawn from 100k forms,
    with one class keyword at a random position.  Every
    (positives_per_negative + 1)-th document is negative, the others
    positive."""
    docs = []
    for i in range(n_docs):
        positive = i % (positives_per_negative + 1) != positives_per_negative
        sentences = [
            [str(rng.choice(FILLERS)) if rng.random() < 0.3 else f"w{rng.integers(100_000)}"
             for _ in range(int(rng.integers(6, 13)))]
            for _ in range(int(rng.integers(2, 4)))
        ]
        words = POS_WORDS if positive else NEG_WORDS
        k = int(rng.integers(len(sentences)))
        sentences[k][int(rng.integers(len(sentences[k])))] = str(rng.choice(words))
        docs.append(
            Document(
                f"voc-{i}", "synthetic",
                "positive" if positive else "negative",
                tuple(Sentence(tuple(t), ()) for t in sentences),
            )
        )
    return docs


def _polar_sentence(rng, label: str, form: str) -> Sentence:
    """One sentence whose effective polarity is ``label``.

    plain:   ... KW ...                      keyword polarity stands
    flipped: ... not g* KW f* though ...     KW inside scope, flips
    decoy:   ... not f* though g* KW ...     scope closes early, no flip

    Scope always runs from the cue to the boundary token, so it is a
    deterministic function of the surface string; flipped and decoy use
    the same bag of words and differ only in token order.
    """
    same = POS_WORDS if label == "positive" else NEG_WORDS
    opposite = NEG_WORDS if label == "positive" else POS_WORDS
    cue = str(rng.choice(CUES))
    lead = [str(rng.choice(FILLERS)) for _ in range(int(rng.integers(1, 4)))]
    tail = [str(rng.choice(FILLERS)) for _ in range(int(rng.integers(1, 4)))]

    def fillers(lo, hi):
        return [str(rng.choice(FILLERS)) for _ in range(int(rng.integers(lo, hi + 1)))]

    if form == "plain":
        tokens = lead + [str(rng.choice(same))] + tail
        return Sentence(tuple(tokens), ())

    if form == "flipped":
        kw = str(rng.choice(opposite))  # "not bad though" reads positive
        gap, run_on = fillers(0, 3), fillers(0, 2)
        tokens = lead + [cue] + gap + [kw] + run_on + [BOUNDARY] + tail
        cue_i = len(lead)
        bound_i = cue_i + 1 + len(gap) + 1 + len(run_on)
        scope = list(range(cue_i + 1, bound_i))
        return Sentence(tuple(tokens), (NegationStructure.make([cue_i], scope),))

    if form == "decoy":
        kw = str(rng.choice(same))
        inside, gap = fillers(1, 4), fillers(0, 2)
        tokens = lead + [cue] + inside + [BOUNDARY] + gap + [kw] + tail
        cue_i = len(lead)
        scope = list(range(cue_i + 1, cue_i + 1 + len(inside)))
        return Sentence(tuple(tokens), (NegationStructure.make([cue_i], scope),))

    raise ValueError(form)


def scope_flip_corpus(
    n_docs: int, rng: np.random.Generator, prefix: str, forms: list[str] | None = None
) -> list[Document]:
    """Balanced labels; within each label the polar sentence cycles
    through the given forms (default plain/flipped/decoy), so the cue
    token occurs equally often in both classes.  Each document holds
    one polar sentence and sometimes one keyword-free distractor, in
    random order."""
    forms = forms or ["plain", "flipped", "decoy"]
    docs = []
    for i in range(n_docs):
        label = "positive" if i % 2 == 0 else "negative"
        form = forms[(i // 2) % len(forms)]
        sentences = [_polar_sentence(rng, label, form)]
        if rng.random() < 0.5:
            sentences.append(_distractor_sentence(rng))
        rng.shuffle(sentences)
        docs.append(Document(f"{prefix}-{i}", "synthetic", label, tuple(sentences)))
    return docs


def single_negation_sentence() -> Sentence:
    """One fixed annotated sentence for the overfitting check."""
    return Sentence(
        ("this", "was", "not", "a", "good", "idea", "at", "all"),
        (NegationStructure.make([2], [3, 4, 5]),),
    )
