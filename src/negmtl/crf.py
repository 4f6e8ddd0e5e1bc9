"""Linear-chain conditional random field over token tag sequences.

The transition matrix has two virtual states appended after the K real
tags: row START scores how sequences begin, column STOP scores how they
end.  Training goes through the differentiable negative log-likelihood,
``crf_nll``, one tape node whatever the sentence length: the
log-partition (``log_partition``, the forward algorithm in log space)
minus the gold path's score.  Its hand-written gradient is the node and
pair marginals of a backward recursion minus the gold path's indicator
counts.  Decoding is plain numpy Viterbi.  A brute-force enumerator
over all K^T paths provides an independent check of both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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
    transitions = np.asarray(transitions, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    inner = transitions[:k, :k]  # [from, to]
    alpha = np.empty(emissions.shape)
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
        beta = np.empty((t_len, k))
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
    """Highest-scoring tag sequence; score ties resolve to the lowest tag
    id at each argmax.

    Pure numpy, no gradient involvement.  On exact ties between distinct
    optimal paths the per-step rule may differ from the lexicographically
    smallest optimum, but the returned path always attains the optimal
    score.
    """
    transitions = np.asarray(transitions, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    t_len = emissions.shape[0]
    start, stop = k, k + 1

    inner = transitions[:k, :k]
    delta = transitions[start, :k] + emissions[0]
    backptr = np.zeros((t_len, k), dtype=np.intp)
    for t in range(1, t_len):
        scores = delta[:, None] + inner  # [from, to]
        backptr[t] = scores.argmax(axis=0)  # argmax takes the first (lowest) index on ties
        delta = scores[backptr[t], np.arange(k)] + emissions[t]
    delta = delta + transitions[:k, stop]

    best = int(delta.argmax())
    path = [best]
    for t in range(t_len - 1, 0, -1):
        best = int(backptr[t, best])
        path.append(best)
    path.reverse()
    return path


def path_score(transitions: np.ndarray, emissions: np.ndarray, tags: Sequence[int]) -> float:
    """Plain left-to-right score of one tag path (numpy, no gradients).

    The single scoring convention shared by enumeration and by checks
    that re-score a decoded path, so equal paths give bitwise-equal
    scores."""
    transitions = np.asarray(transitions, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    _check_tags(k, emissions.shape[0], tags)
    s = transitions[k, tags[0]] + emissions[0, tags[0]]
    for t in range(1, len(tags)):
        s += transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    s += transitions[tags[-1], k + 1]
    return float(s)


class BruteForceResult(NamedTuple):
    log_partition: float
    best_tags: tuple[int, ...]
    best_score: float


def brute_force(transitions: np.ndarray, emissions: np.ndarray, limit: int = 1_000_000) -> BruteForceResult:
    """Exhaustive enumeration of every tag sequence.

    Independent of both the forward recursion and Viterbi: scores are
    summed per path and combined with a single log-sum-exp at the end.
    Ties on the best path resolve to the lexicographically smallest
    sequence.  Refuses to enumerate more than ``limit`` paths.
    """
    transitions = np.asarray(transitions, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    k = transitions.shape[0] - 2
    _check_emissions(k, emissions.shape)
    t_len = emissions.shape[0]
    if k**t_len > limit:
        raise ValueError(f"{k}^{t_len} paths exceed the enumeration limit of {limit}")
    start, stop = k, k + 1

    scores = np.empty(k**t_len)
    best_tags: tuple[int, ...] | None = None
    best_score = -np.inf
    for n, tags in enumerate(itertools.product(range(k), repeat=t_len)):
        s = path_score(transitions, emissions, tags)
        scores[n] = s
        if s > best_score:  # strict: first maximum wins, product order is lexicographic
            best_score = s
            best_tags = tags

    m = scores.max()
    log_z = float(m + np.log(np.exp(scores - m).sum()))
    assert best_tags is not None
    return BruteForceResult(log_z, best_tags, float(best_score))
