"""Acceptance checks for the package as a whole.

Each test prints one verdict line through ``capsys.disabled()`` so the
outcome is visible in a normal captured pytest run, and asserts the
wall-clock budget it has to stay inside.  The corpus-statistics check
needs the converted SFU review splits; point NEGMTL_SFU_DIR at a
directory holding train.jsonl / dev.jsonl / test.jsonl to enable it,
and additionally set NEGMTL_RUN_ADVISORY=1 to run the (slow, advisory)
accuracy comparison on that corpus.
"""

import itertools
import os
import re
import time

import numpy as np
import pytest

from negmtl import cli
from negmtl.autodiff import Tape, backward, zero_grads
from negmtl.corpus import (
    BioTag,
    Document,
    NegationStructure,
    Sentence,
    build_vocab,
    corpus_stats,
    flatten_spans,
    from_bio,
    parse_corpus,
    to_bio,
)
from negmtl.crf import log_partition, viterbi_decode
from negmtl.evaluation import accuracy, build_run_report, mean_std, read_predictions, write_predictions
from negmtl.models import ModelParams, negation_loss, negation_tag
from negmtl.training import (
    AdamState,
    TrainConfig,
    apply_updates,
    bow_features,
    fit_bow,
    load_checkpoint,
    majority_vote,
    predict_corpus,
    run_ensemble,
    save_checkpoint,
    train_bow,
    train_mtl,
    train_stl,
)
from oracles import brute_force, path_score
from synth import scope_flip_corpus, separable_corpus, single_negation_sentence

# The scope-flip comparison (criterion 5).  Dims are modest so five
# seeds of both modes fit the time budget; the dev split holds only the
# two sentence forms whose label actually depends on scope, so surface
# keyword counting scores at chance there.
FLIP_CORPUS_SEED = 1234
FLIP_TRAIN_DOCS = 200
FLIP_DEV_DOCS = 50
FLIP_SEEDS = (1, 2, 3, 4, 5)
FLIP_CONFIG = dict(
    epochs=20,  # the slowest seed so far saturates at 15
    embedding_dim=64,
    hidden_dim=64,
    dropout_p=0.1,
    learning_rate=0.001,
    patience=20,
)

SFU_ENV_VAR = "NEGMTL_SFU_DIR"
SFU_EXPECTED = {"train": (264, 2733), "dev": (56, 645), "test": (80, 949)}
SFU_DEV_BY_CLASS = {"positive": 303, "negative": 342}


def verdict(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def skip_line(capsys, num: int, detail: str):
    with capsys.disabled():
        print(f"criterion {num}: SKIP  {detail}", flush=True)
    pytest.skip(detail)


# ---------------------------------------------------------------------------
# 1. gradients match central finite differences


def test_gradients_match_finite_differences(capsys):
    t0 = time.monotonic()
    rc = cli.main(["gradcheck"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    errs = [float(x) for x in re.findall(r"max rel err ([0-9.e+-]+)", out)]
    worst = max(errs) if errs else float("nan")
    ok = rc == 0 and len(errs) == 4 and elapsed < 60.0
    verdict(
        capsys, 1, ok,
        f"layer/CRF/negation/sentiment gradients vs central differences, "
        f"worst rel err {worst:.3e} (tol 1e-04), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. CRF dynamic programming agrees with exhaustive enumeration


def test_crf_matches_brute_force_enumeration(capsys):
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    worst_logz = 0.0
    for _ in range(100):
        t_len = int(rng.integers(1, 6))
        trans = rng.normal(size=(7, 7))
        emis = rng.normal(size=(t_len, 5))
        ref = brute_force(trans, emis)

        logz = log_partition(trans, emis)[0]
        worst_logz = max(worst_logz, abs(logz - ref.log_partition))
        assert abs(logz - ref.log_partition) <= 1e-8

        path = viterbi_decode(trans, emis)
        assert path == list(ref.best_tags)
        assert path_score(trans, emis, path) == ref.best_score
    elapsed = time.monotonic() - t0
    verdict(
        capsys, 2, elapsed < 60.0,
        f"100 random instances (T<=5, K=5): log-partition within 1e-08 "
        f"(worst {worst_logz:.2e}), Viterbi path and score exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. BIO flattening round-trips and ignores structure order


def _random_sentence(rng: np.random.Generator) -> Sentence:
    t_len = int(rng.integers(2, 15))
    tokens = tuple(f"w{i}" for i in range(t_len))
    structures = []
    for _ in range(int(rng.integers(0, 4))):
        cue_n = min(int(rng.integers(1, 3)), t_len)
        cue = rng.choice(t_len, size=cue_n, replace=False)
        rest = [i for i in range(t_len) if i not in set(cue.tolist())]
        scope_n = int(rng.integers(0, len(rest) + 1))
        scope = rng.choice(rest, size=scope_n, replace=False) if rest and scope_n else []
        # overlap across structures, discontinuity and pre-cue scope all
        # arise freely from the independent random draws
        structures.append(NegationStructure.make(cue.tolist(), list(scope)))
    return Sentence(tokens, tuple(structures))


def test_bio_round_trip_and_permutation_invariance(capsys):
    rng = np.random.default_rng(99)
    t0 = time.monotonic()
    saw_overlap = saw_discontinuous = saw_pre_cue = 0
    for _ in range(1000):
        sent = _random_sentence(rng)
        tags = to_bio(sent)
        assert from_bio(tags) == flatten_spans(sent)

        perm = list(sent.negations)
        rng.shuffle(perm)
        assert to_bio(Sentence(sent.tokens, tuple(perm))) == tags

        seen: set[int] = set()
        for s in sent.negations:
            both = set(s.cue) | set(s.scope)
            if both & seen:
                saw_overlap += 1
            seen |= both
            if s.scope and s.scope[0] < s.cue[0]:
                saw_pre_cue += 1
            span = set(s.scope)
            if span and len(span) != max(span) - min(span) + 1:
                saw_discontinuous += 1
    elapsed = time.monotonic() - t0
    covered = saw_overlap > 0 and saw_discontinuous > 0 and saw_pre_cue > 0
    verdict(
        capsys, 3, covered and elapsed < 10.0,
        f"1000 sentences round-trip, order-invariant "
        f"({saw_overlap} overlapping, {saw_discontinuous} discontinuous, "
        f"{saw_pre_cue} pre-cue scopes), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. trainability at default hyperparameters


def test_sentiment_learns_separable_corpus_and_tagger_overfits(capsys):
    t0 = time.monotonic()
    docs = separable_corpus(20, np.random.default_rng(5))
    config = TrainConfig(mode="stl", seed=1, epochs=50)
    result = train_stl(config, docs, docs)
    train_acc = result.best_dev_accuracy

    sent = single_negation_sentence()
    doc = Document("overfit", "synthetic", None, (sent,))
    vocab = build_vocab([doc])
    ids = vocab.encode(sent.tokens)
    gold = to_bio(sent)
    rng = np.random.default_rng(1)
    params = ModelParams.init(len(vocab), 100, 100, rng, with_negation_head=True)
    named = params.named_parameters()
    groups = params.parameter_groups()
    names = groups["shared"] + groups["negation"]
    adam = AdamState()
    matched_at = None
    for step in range(1, 501):
        zero_grads(named.values())
        with Tape():
            loss = negation_loss(params, ids, [int(t) for t in gold])
            backward(loss)
        apply_updates(adam, named, names)
        if step % 10 == 0 and negation_tag(params, ids) == gold:
            matched_at = step
            break
    elapsed = time.monotonic() - t0
    ok = train_acc >= 0.95 and matched_at is not None and elapsed < 300.0
    verdict(
        capsys, 4, ok,
        f"train accuracy {train_acc:.2f} on 20 separable docs (best epoch "
        f"{result.best_epoch}), tagger exact after {matched_at} steps, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. joint training matches or beats sentiment-only training


def test_multi_task_beats_single_task_on_scope_flip_corpus(capsys):
    rng = np.random.default_rng(FLIP_CORPUS_SEED)
    train = scope_flip_corpus(FLIP_TRAIN_DOCS, rng, "tr")
    dev = scope_flip_corpus(FLIP_DEV_DOCS, rng, "dv", forms=["flipped", "decoy"])

    t0 = time.monotonic()
    stl_accs, mtl_accs = [], []
    stl_epochs, mtl_epochs = [], []
    for seed in FLIP_SEEDS:
        stl = train_stl(TrainConfig(mode="stl", seed=seed, **FLIP_CONFIG), train, dev)
        mtl = train_mtl(TrainConfig(mode="mtl", seed=seed, **FLIP_CONFIG), train, dev)
        stl_accs.append(stl.best_dev_accuracy)
        mtl_accs.append(mtl.best_dev_accuracy)
        stl_epochs.append(stl.best_epoch)
        mtl_epochs.append(mtl.best_epoch)
    elapsed = time.monotonic() - t0
    stl_mean = float(np.mean(stl_accs))
    mtl_mean = float(np.mean(mtl_accs))
    ok = mtl_mean >= stl_mean and elapsed < 900.0
    verdict(
        capsys, 5, ok,
        f"mean dev accuracy over {len(FLIP_SEEDS)} seeds: multi-task "
        f"{mtl_mean:.3f} vs single-task {stl_mean:.3f} "
        f"(per-seed {mtl_accs} vs {stl_accs}; best epochs {mtl_epochs} vs {stl_epochs}), "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. ensemble protocol: votes, reported numbers and checkpoints all re-derive


def test_ensemble_protocol_is_reproducible(capsys, tmp_path):
    t0 = time.monotonic()
    train = separable_corpus(8, np.random.default_rng(11))
    dev = separable_corpus(6, np.random.default_rng(12))
    config = TrainConfig(
        mode="stl", seeds=(1, 2, 3), epochs=2, embedding_dim=4, hidden_dim=3
    )
    ens = run_ensemble(config, train, dev)
    per_run = [r.dev_predictions for r in ens.runs]

    # the vote ignores run order and is stable across calls
    for perm in itertools.permutations(per_run):
        assert majority_vote(list(perm)) == ens.dev_vote
    assert majority_vote(per_run) == majority_vote(per_run)

    # mean/std re-derive from the serialized prediction files alone
    files = []
    for run in ens.runs:
        path = tmp_path / f"seed-{run.seed}.jsonl"
        write_predictions(run.dev_predictions, path)
        files.append(path)
    vote_path = tmp_path / "ensemble.jsonl"
    write_predictions(ens.dev_vote, vote_path)

    reread = [read_predictions(p) for p in files]
    report = build_run_report(reread, read_predictions(vote_path))
    accs = [accuracy([r.gold for r in run], [r.pred for r in run]) for run in reread]
    mean, std = mean_std(accs)
    assert report["per_seed_accuracies"] == accs
    assert report["mean_accuracy"] == mean
    assert report["std_accuracy"] == std

    # a checkpoint file reproduces its run's predictions label for label
    for run in ens.runs:
        path = tmp_path / f"seed-{run.seed}.bin"
        save_checkpoint(run.result.checkpoint, path)
        params, vocab = load_checkpoint(path).to_model()
        assert predict_corpus(params, vocab, dev) == run.dev_predictions

    elapsed = time.monotonic() - t0
    verdict(
        capsys, 6, elapsed < 300.0,
        f"3-seed ensemble: votes order-independent, mean/std recomputed from "
        f"files, checkpoints replay label-for-label, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. exact statistics on the real corpus, when provided


def test_review_corpus_statistics(capsys):
    sfu_dir = os.environ.get(SFU_ENV_VAR)
    if not sfu_dir:
        skip_line(capsys, 7, f"set {SFU_ENV_VAR} to the converted corpus directory")
    splits = {
        name: parse_corpus(os.path.join(sfu_dir, f"{name}.jsonl"))
        for name in ("train", "dev", "test")
    }
    stats = corpus_stats(splits)
    for name, (docs, structures) in SFU_EXPECTED.items():
        got = stats[name]
        assert (got["documents"], got["structures"]) == (docs, structures), name
    dev_by_class = stats["dev"]["structures_by_class"]
    for label, count in SFU_DEV_BY_CLASS.items():
        assert dev_by_class.get(label) == count, label

    # the stats subcommand must print the same numbers
    rc = cli.main([
        "stats",
        "--train", os.path.join(sfu_dir, "train.jsonl"),
        "--dev", os.path.join(sfu_dir, "dev.jsonl"),
        "--test", os.path.join(sfu_dir, "test.jsonl"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    for pair in SFU_EXPECTED.values():
        for number in pair:
            assert str(number) in out

    detail = "document/structure counts and dev per-class counts exact"
    if os.environ.get("NEGMTL_RUN_ADVISORY"):
        stl_like = TrainConfig(mode="mtl")
        accs = [
            train_mtl(
                TrainConfig(mode="mtl", seed=s), splits["train"], splits["dev"]
            ).best_dev_accuracy
            for s in stl_like.seeds
        ]
        detail += f"; advisory mean dev accuracy {100 * float(np.mean(accs)):.1f}"
    verdict(capsys, 7, True, detail)


# ---------------------------------------------------------------------------
# 8. bag-of-words baseline: convex, separable, documented selection rule


def test_bow_convergence_and_separable_accuracy(capsys):
    t0 = time.monotonic()
    # the claim is about separability, so score on the separable set itself
    train = separable_corpus(20, np.random.default_rng(21))

    result = train_bow(TrainConfig(mode="bow"), train, train)
    vocab = result.model.vocab
    xs = np.stack([bow_features(vocab, d) for d in train])
    train_acc = accuracy([d.label for d in train], [result.model.predict_features(x) for x in xs])

    # two optimizations of the same convex objective land on one loss
    ys = np.array([1.0 if d.label == "positive" else 0.0 for d in train])
    rng = np.random.default_rng(3)
    _, _, loss_zero, _ = fit_bow(xs, ys, c=1.0)
    _, _, loss_rand, _ = fit_bow(
        xs, ys, c=1.0, init=(rng.normal(scale=0.5, size=xs.shape[1]), float(rng.normal()))
    )
    gap = abs(loss_zero - loss_rand)

    # selection follows the grid: best dev accuracy, ties to the smaller C
    grid = TrainConfig(mode="bow").bow_c_grid
    assert list(grid) == sorted(grid)
    by_c = result.dev_accuracy_by_c
    best = max(by_c.values())
    assert result.chosen_c == min(c for c, a in by_c.items() if a == best)

    elapsed = time.monotonic() - t0
    ok = train_acc == 1.0 and gap <= 1e-6 and elapsed < 300.0
    verdict(
        capsys, 8, ok,
        f"separable corpus accuracy {train_acc:.2f}, two-init loss gap {gap:.2e}, "
        f"C={result.chosen_c} picked by documented tie-break, {elapsed:.0f}s",
    )
