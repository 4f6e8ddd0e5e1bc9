"""Per-layer timings and counts, measured by calling each module's public
functions at the workload's shapes (vocabulary size, dims, sentence and
document lengths).

Every workload reports every metric: each uses a probe mtl model built
at the workload's shape, so even the stl-only and inference workloads
give a CRF and Adam-per-group figure for their own sizes.
"""

from __future__ import annotations

import statistics
from time import perf_counter as clock

import numpy as np

from negmtl import autodiff as ad
from negmtl.autodiff import Tape, Tensor, backward, zero_grads
from negmtl.corpus import build_vocab, parse_corpus, to_bio
from negmtl.crf import crf_nll, viterbi_decode
from negmtl.evaluation import negation_token_f1
from negmtl.layers import bilstm
from negmtl.models import (
    LABEL_TO_CLASS,
    ModelParams,
    negation_forward,
    negation_tag,
    predict_document,
    sentiment_forward,
)
from negmtl.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    apply_updates,
    bow_features,
    load_checkpoint,
    predict_corpus,
    save_checkpoint,
)

PERCENTILE_SAMPLES = 100  # p90 then has exactly 10 samples beyond it
SAMPLE_TOKENS = 400


def timed(fn, budget_s: float, max_reps: int = 25) -> float:
    """Median seconds of ``fn()`` over repeats until ``budget_s`` is spent
    (at least three, at most ``max_reps``)."""
    times = []
    start = clock()
    while len(times) < max_reps and (len(times) < 3 or clock() - start < budget_s):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def per_layer(workload, dims: int, dropout_p: float, budget_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one workload, {name: (value, unit)}.

    ``budget_s`` is spent per timing loop, so the whole pass costs a
    small multiple of it plus the fixed-count samples."""
    train_path = workload.files.get("train", workload.files.get("data"))
    dev_path = workload.files.get("dev", train_path)
    train_docs = parse_corpus(train_path)
    dev_docs = parse_corpus(dev_path)
    if "checkpoint" in workload.files:
        params, vocab = load_checkpoint(workload.files["checkpoint"]).to_model()
    else:
        vocab = build_vocab(train_docs)
        params = ModelParams.init(len(vocab), dims, dims, np.random.default_rng(workload.seed),
                                  with_negation_head=True)
    named = params.named_parameters()
    rng = np.random.default_rng(workload.seed)
    m: dict[str, tuple[float, str]] = {}

    # samples: leading documents up to SAMPLE_TOKENS, and their sentences
    doc_sample, n_tokens = [], 0
    for d in train_docs:
        if len(doc_sample) >= 3 and n_tokens >= SAMPLE_TOKENS:
            break
        doc_sample.append(([vocab.encode(s.tokens) for s in d.sentences], d))
        n_tokens += sum(len(s.tokens) for s in d.sentences)
    sentences = [(vocab.encode(s.tokens), [int(t) for t in to_bio(s)])
                 for _, d in doc_sample for s in d.sentences]

    # -- autodiff and models: one loss, its tape size, forward and backward time
    nodes_doc, fwd_doc, bwd_doc = [], [], []
    for ids, doc in doc_sample:
        gold = LABEL_TO_CLASS[doc.label or "positive"]
        zero_grads(named.values())
        with Tape() as tape:
            t0 = clock()
            logits = sentiment_forward(params, ids, train=True, dropout_p=dropout_p, rng=rng)
            t1 = clock()
            loss = ad.softmax_cross_entropy(logits, gold)
            nodes_doc.append(len(tape))
            t2 = clock()
            backward(loss)
            t3 = clock()
        fwd_doc.append(t1 - t0)
        bwd_doc.append(t3 - t2)
    nodes_sent, fwd_sent, bwd_sent = [], [], []
    for ids, tags in sentences:
        zero_grads(named.values())
        with Tape() as tape:
            t0 = clock()
            emissions = negation_forward(params, ids, train=True, dropout_p=dropout_p, rng=rng)
            t1 = clock()
            loss = crf_nll(params.crf, emissions, tags)
            nodes_sent.append(len(tape))
            t2 = clock()
            backward(loss)
            t3 = clock()
        fwd_sent.append(t1 - t0)
        bwd_sent.append(t3 - t2)
    m["autodiff.nodes_per_doc"] = (float(np.mean(nodes_doc)), "count")
    m["autodiff.nodes_per_sentence"] = (float(np.mean(nodes_sent)), "count")
    m["autodiff.backward_ms_per_doc"] = (1e3 * statistics.median(bwd_doc), "ms")
    m["autodiff.backward_ms_per_sentence"] = (1e3 * statistics.median(bwd_sent), "ms")
    m["models.sentiment_forward_ms_per_doc"] = (1e3 * statistics.median(fwd_doc), "ms")
    m["models.negation_forward_ms_per_sentence"] = (1e3 * statistics.median(fwd_sent), "ms")

    # -- layers: sentence BiLSTM per token, on a tape and without one
    weights = params.embedding.weights.data
    tokens = sum(len(ids) for ids, _ in sentences)

    def bilstm_pass():
        fwd = bwd = 0.0
        for ids, _ in sentences:
            x = Tensor(weights[ids], requires_grad=True)
            with Tape():
                t0 = clock()
                enc = bilstm(params.sent_fwd, params.sent_bwd, x)
                t1 = clock()
                total = ad.sum_all(enc)
                t2 = clock()
                backward(total)
                t3 = clock()
            fwd += t1 - t0
            bwd += t3 - t2
        return fwd, bwd

    passes = [bilstm_pass() for _ in range(3)]
    m["layers.bilstm_fwd_us_per_token"] = (1e6 * statistics.median(p[0] for p in passes) / tokens, "us")
    m["layers.bilstm_bwd_us_per_token"] = (1e6 * statistics.median(p[1] for p in passes) / tokens, "us")

    def bilstm_nograd():
        with ad.no_grad():
            for ids, _ in sentences:
                bilstm(params.sent_fwd, params.sent_bwd, Tensor(weights[ids]))

    m["layers.bilstm_nograd_us_per_token"] = (1e6 * timed(bilstm_nograd, budget_s, 5) / tokens, "us")

    emb_times = []
    for ids, _ in sentences:
        zero_grads(named.values())
        t0 = clock()
        with Tape():
            backward(ad.sum_all(params.embedding.lookup(ids)))
        emb_times.append(clock() - t0)
    m["layers.embedding_fwd_bwd_ms"] = (1e3 * statistics.median(emb_times), "ms")

    # -- crf: NLL forward+backward and Viterbi on the probe's emissions
    emission_sample = [(negation_forward(params, ids).data, tags) for ids, tags in sentences]
    transitions = params.crf.transitions.data

    def crf_nll_pass():
        for em, tags in emission_sample:
            e = Tensor(em, requires_grad=True)
            with Tape():
                backward(crf_nll(params.crf, e, tags))

    def viterbi_pass():
        for em, _ in emission_sample:
            viterbi_decode(transitions, em)

    n_sent = len(emission_sample)
    m["crf.nll_us_per_sentence"] = (1e6 * timed(crf_nll_pass, budget_s, 10) / n_sent, "us")
    m["crf.viterbi_us_per_sentence"] = (1e6 * timed(viterbi_pass, budget_s, 10) / n_sent, "us")

    # -- models: eval-mode latency, median and p90 over a fixed sample count
    doc_times, tag_times = [], []
    for i in range(PERCENTILE_SAMPLES):
        ids = doc_sample[i % len(doc_sample)][0]
        t0 = clock()
        predict_document(params, ids)
        doc_times.append(clock() - t0)
        sent_ids = sentences[i % len(sentences)][0]
        t0 = clock()
        negation_tag(params, sent_ids)
        tag_times.append(clock() - t0)
    for name, values in (("predict_document", doc_times), ("negation_tag", tag_times)):
        p50, p90 = np.percentile(values, [50, 90])
        m[f"models.{name}_ms.p50"] = (1e3 * float(p50), "ms")
        m[f"models.{name}_ms.p90"] = (1e3 * float(p90), "ms")

    # -- training: Adam per parameter group, with every group's gradient present
    zero_grads(named.values())
    ids, doc = doc_sample[0]
    with Tape():
        backward(ad.softmax_cross_entropy(sentiment_forward(params, ids), 1))
    with Tape():
        backward(crf_nll(params.crf, negation_forward(params, sentences[0][0]), sentences[0][1]))
    adam = AdamState()
    groups = params.parameter_groups()
    for group in ("shared", "sentiment", "negation"):
        names = groups[group]
        m[f"training.adam_ms.{group}"] = (
            1e3 * timed(lambda: apply_updates(adam, named, names), budget_s), "ms"
        )

    config = TrainConfig(mode="mtl", embedding_dim=params.embedding_dim, hidden_dim=params.hidden_dim)
    m["training.dev_eval_s"] = (timed(lambda: predict_corpus(params, vocab, dev_docs), budget_s, 3), "s")
    ckpt = Checkpoint.from_model(params, vocab, config)
    m["training.snapshot_ms"] = (1e3 * timed(lambda: Checkpoint.from_model(params, vocab, config), budget_s), "ms")
    path = workload.workdir / "probe.bin"
    m["training.checkpoint_save_ms"] = (1e3 * timed(lambda: save_checkpoint(ckpt, path), budget_s), "ms")
    m["training.checkpoint_load_ms"] = (1e3 * timed(lambda: load_checkpoint(path), budget_s), "ms")
    m["training.bow_features_s"] = (
        timed(lambda: np.stack([bow_features(vocab, d) for d in train_docs]), budget_s, 5), "s"
    )

    # -- corpus
    parse_s = timed(lambda: parse_corpus(train_path), budget_s)
    m["corpus.parse_ms_per_1k_docs"] = (1e6 * parse_s / len(train_docs), "ms")
    m["corpus.build_vocab_ms"] = (1e3 * timed(lambda: build_vocab(train_docs), budget_s), "ms")

    # -- evaluation: predicted tags against gold over the sampled documents
    gold = [to_bio(s) for _, d in doc_sample for s in d.sentences]
    pred = [negation_tag(params, ids) for ids, _ in sentences]
    m["evaluation.negation_token_f1_ms"] = (
        1e3 * timed(lambda: negation_token_f1(gold, pred), budget_s), "ms"
    )
    return m

