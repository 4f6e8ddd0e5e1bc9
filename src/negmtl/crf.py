"""Linear-chain conditional random field over token tag sequences.

The transition matrix has two virtual states appended after the K real
tags: row START scores how sequences begin, column STOP scores how they
end.  Training goes through the differentiable negative log-likelihood,
``crf_nll``, one tape node whatever the sentence length: the
log-partition (``log_partition``, the forward algorithm in log space)
minus the gold path's score.  Its hand-written gradient is the node and
pair marginals of a backward recursion minus the gold path's indicator
counts.

Decoding is plain numpy Viterbi.  ``viterbi_paths`` decodes any number
of sentences (at prediction, every sentence of a corpus) in one step
loop, packed like the sentence BiLSTM (``layers._packing``): sentences
ordered by length, step s extends the ones longer than s, each with the
additions and the tie rule of decoding it alone, and the traceback takes
one gather per step for all of them; ``viterbi_decode`` is its
one-sentence case.
A brute-force enumerator over all K^T paths in the tests checks both
the forward algorithm and Viterbi.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import _packing


@dataclass
class CrfParams:
    """Transition scores, shape (K+2, K+2) for K tags.

    ``transitions[i, j]`` scores tag i followed by tag j; row ``K``
    (START) scores the first tag, column ``K+1`` (STOP) scores the last.
    The remaining virtual entries (for example START followed by STOP)
    are never read.
    """

    transitions: Tensor

    @staticmethod
    def shapes(num_tags: int) -> dict[str, tuple[int, ...]]:
        """The shape ``init`` gives each field."""
        return {"transitions": (num_tags + 2, num_tags + 2)}

    @classmethod
    def init(cls, num_tags: int, rng: np.random.Generator) -> "CrfParams":
        """Draw order: one uniform(-0.1, 0.1) matrix."""
        t = rng.uniform(-0.1, 0.1, size=(num_tags + 2, num_tags + 2))
        return cls(Tensor(t, requires_grad=True))

    @property
    def num_tags(self) -> int:
        return self.transitions.data.shape[0] - 2

    @property
    def start(self) -> int:
        return self.num_tags

    @property
    def stop(self) -> int:
        return self.num_tags + 1


def _check_emissions(num_tags: int, emissions_shape: tuple[int, ...]):
    if len(emissions_shape) != 2 or emissions_shape[0] < 1 or emissions_shape[1] != num_tags:
        raise ValueError(
            f"emissions must be (T >= 1, {num_tags}), got {emissions_shape}"
        )


def _check_tags(num_tags: int, t_len: int, tags: Sequence[int]):
    if len(tags) != t_len:
        raise ValueError(f"expected {t_len} tags, got {len(tags)}")
    for tag in tags:
        if not 0 <= tag < num_tags:
            raise ValueError(f"tag id {tag} out of range [0, {num_tags})")


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def log_partition(transitions: np.ndarray, emissions: np.ndarray) -> tuple[float, np.ndarray]:
    """log of the summed exp-scores of all K^T tag sequences, by the
    forward recursion in log space (numpy, no gradients).

    Also returns the (T, K) forward table: ``alpha[t, j]`` is the log of
    the summed exp-scores of every tag prefix that ends in tag j at
    position t, START transition included."""
    transitions, emissions = ad.as_floats(transitions), ad.as_floats(emissions)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    inner = transitions[:k, :k]  # [from, to]
    alpha = np.empty(emissions.shape, dtype=np.result_type(transitions, emissions))
    alpha[0] = transitions[k, :k] + emissions[0]
    for t in range(1, emissions.shape[0]):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + inner, axis=0) + emissions[t]
    return float(_logsumexp(alpha[-1] + transitions[:k, k + 1], axis=0)), alpha


def crf_nll(crf: CrfParams, emissions: Tensor, tags: Sequence[int]) -> Tensor:
    """Negative log-likelihood of ``tags``: the log-partition minus the
    gold path's score (emissions along ``tags`` plus transitions
    including the START and STOP bookends), as one tape node.

    The gradient is the node and pair marginals of a backward recursion
    times g, plus the gold path's indicator counts times -g."""
    k = crf.num_tags
    trans = crf.transitions.data
    em = emissions.data
    log_z, alpha = log_partition(trans, em)
    t_len = em.shape[0]
    _check_tags(k, t_len, tags)

    steps = np.arange(t_len)
    tag_ids = np.asarray(tags, dtype=np.intp)
    src = np.concatenate(([crf.start], tag_ids))
    dst = np.concatenate((tag_ids, [crf.stop]))
    gold = trans[src, dst].sum() + em[steps, tag_ids].sum()

    def bw(g):
        inner = trans[:k, :k]
        stop = trans[:k, crf.stop]
        # beta[t, i]: log-sum of the scores of every continuation after
        # tag i at position t, up to and including STOP
        beta = np.empty((t_len, k), dtype=alpha.dtype)
        beta[-1] = stop
        for t in range(t_len - 2, -1, -1):
            beta[t] = _logsumexp(inner + (em[t + 1] + beta[t + 1]), axis=1)
        node = np.exp(alpha + beta - log_z) * g
        pair = np.exp(alpha[:-1, :, None] + inner + (em[1:] + beta[1:])[:, None, :] - log_z)
        g_trans = np.zeros_like(trans)
        np.add.at(g_trans, (src, dst), -g)
        g_trans[:k, :k] += pair.sum(axis=0) * g
        g_trans[crf.start, :k] += node[0]
        g_trans[:k, crf.stop] += node[-1]
        node[steps, tag_ids] -= g
        return g_trans, node

    return ad._make_output(np.asarray(log_z - gold), (crf.transitions, emissions), bw)


def viterbi_decode(transitions: np.ndarray, emissions: np.ndarray) -> list[int]:
    """Highest-scoring tag sequence of one sentence; score ties resolve
    to the lowest tag id at each argmax (the one-sentence case of
    ``viterbi_paths``).

    Pure numpy, no gradient involvement.  On exact ties between distinct
    optimal paths the per-step rule may differ from the lexicographically
    smallest optimum, but the returned path always attains the optimal
    score.
    """
    return viterbi_paths(transitions, emissions)[0]


def viterbi_paths(
    transitions: np.ndarray, emissions: np.ndarray, lengths: Sequence[int] | None = None
) -> list[list[int]]:
    """The ``viterbi_decode`` path of each sentence whose emission rows
    are laid end to end in ``emissions``, ``lengths`` rows each (one
    sentence when None), decoded in one step loop.  The sentences may
    come from many documents: every row is decoded with the numbers of
    its own sentence only, so a sentence gets the same path whatever
    else shares the call.

    The sentences follow the step plan of ``layers._packing``, the one
    ``layers.bilstm`` runs: ordered by length, step s extends the n_s
    sentences longer than s, so each step scores ``delta[:n_s, None, :]
    + inner.T`` and takes its first-index argmax and its max over the
    previous tag, the additions and the tie rule of one sentence on its
    own.  A sentence's best last tag is chosen when it drops out of the
    live set.  The traceback walks the steps backwards once: at step s
    one fancy-index reads the back pointers of all n_s live sentences.
    Its transient memory is O(rows × K), the back-pointer table.
    """
    transitions, emissions = ad.as_floats(transitions), ad.as_floats(emissions)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    n_rows = emissions.shape[0]
    if lengths is None:
        lengths = [n_rows]
    elif len(lengths) == 0 or min(lengths) < 1 or sum(lengths) != n_rows:
        raise ValueError(f"lengths {list(lengths)} do not split {n_rows} emission rows")
    read, _, steps, _ = _packing(lengths, n_rows)
    packed = emissions[read[0]]  # step-major: step s owns rows starts[s]..+live[s]
    starts = [a // 2 for a, _ in steps]  # packed row of each step's first sentence
    live = [n for _, n in steps]
    start, stop = k, k + 1

    # [to, from]: each step reduces over contiguous rows
    inner_to_from = np.ascontiguousarray(transitions[:k, :k].T)
    end_scores = transitions[:k, stop]
    delta = transitions[start, :k] + packed[: live[0]]
    best = np.empty(live[0], dtype=np.intp)  # each sentence's last tag
    backptr = np.empty((n_rows, k), dtype=np.intp)
    for s in range(1, len(live)):
        a, n = starts[s], live[s]
        if n < live[s - 1]:
            best[n : live[s - 1]] = (delta[n:] + end_scores).argmax(axis=1)
        scores = delta[:n, None, :] + inner_to_from  # [sentence, to, from]
        backptr[a : a + n] = scores.argmax(axis=2)  # first (lowest) index on ties
        # the value at that first argmax: the same number, NaN included
        delta = scores.max(axis=2) + packed[a : a + n]
    best[: live[-1]] = (delta + end_scores).argmax(axis=1)

    # trace back in packed order, one gather per step for every live
    # sentence: row starts[s] + j holds sentence j's tag at step s
    tags = np.empty(n_rows, dtype=np.intp)
    rows = np.arange(live[0])
    for s in range(len(live) - 1, 0, -1):
        a, n = starts[s], live[s]
        tags[a : a + n] = best[:n]
        best[:n] = backptr[rows[:n] + a, best[:n]]
    tags[: live[0]] = best
    in_order = np.empty(n_rows, dtype=np.intp)
    in_order[read[0]] = tags
    flat = in_order.tolist()
    return [flat[b - n : b] for n, b in zip(lengths, itertools.accumulate(lengths))]
