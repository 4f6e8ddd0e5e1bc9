"""Command-line entry points.

Subcommands: stats, train, ensemble, predict, eval, gradcheck.  Every
artifact-producing run writes through one ``_Outputs`` object: ``--out``
is created at the command's first write, so a run refused before it
leaves no directory, and the closing manifest.json lists every artifact
in write order.  The manifest also records the subcommand, the effective
configuration, the seeds, a sha256 digest of each input file, and the
environment (Python and numpy versions, the BLAS build and its thread
variables), so any output directory can be reproduced from its manifest
and the original data.  Inputs are only ever read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .atomic import atomic_open
from .autodiff import DeterminismError, Tensor, grad_check
from .corpus import BioTag, CorpusError, corpus_stats, parse_corpus
from .crf import CrfParams, crf_nll
from .evaluation import (
    ConfusionMatrix,
    EvaluationError,
    PredictionRecord,
    accuracy_of,
    build_run_report,
    confusion_csv,
    read_predictions,
    relative_confusion,
    require_same_documents,
    stats_report,
    write_predictions,
)
from .layers import EmbeddingTable, Linear, affine, bilstm
# negation_tag is not called here; bench/tracing.py wraps cli.negation_tag
from .models import ModelError, ModelParams, negation_loss, negation_tag, sentiment_loss
from .training import (
    TrainConfig,
    TrainingError,
    load_checkpoint,
    predict_corpus,
    run_ensemble,
    save_checkpoint,
    train_bow,
    train_seed,
)

_USER_ERRORS = (
    CorpusError,
    TrainingError,
    EvaluationError,
    ModelError,
    ad.AutodiffError,
    ValueError,
    OSError,
)


# ---------------------------------------------------------------------------
# Shared plumbing


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ValueError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings need no quoting
    except ValueError as e:  # valid JSON that does not decode: an integer too long to convert
        raise ValueError(f"--set {key}: {e}") from e
    return key, value


def _effective_config(args) -> TrainConfig:
    """Config file values, then CLI flags, then --set overrides."""
    obj: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as e:
                raise ValueError(f"{args.config}: not a JSON config file ({e})") from e
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        obj.update(loaded)
    if getattr(args, "mode", None):
        obj["mode"] = args.mode
    if getattr(args, "seeds", None) is not None:
        try:
            obj["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError as e:
            raise ValueError(f"--seeds expects comma-separated integers, got {args.seeds!r}") from e
    for item in getattr(args, "overrides", None) or []:
        key, value = _parse_override(item)
        obj[key] = value
    return TrainConfig.from_dict(obj)


def _read_split(path, name: str):
    docs = parse_corpus(path)
    if not docs:
        raise CorpusError(f"{name} corpus {path} is empty")
    return docs


def _environment() -> dict:
    """Python, numpy, the BLAS build numpy links and the BLAS thread
    variables (None where unset): outputs are byte-identical for one
    BLAS build and one thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class _Outputs:
    """A command's ``--out`` directory.  Each write creates the directory
    it needs, writes atomically, and records the artifact's name, so
    ``manifest`` lists exactly what the run wrote, in write order."""

    def __init__(self, path):
        self.path = Path(path)
        self.names: list[str] = []

    def _target(self, name: str) -> Path:
        target = self.path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        self.names.append(name)
        return target

    def text(self, name: str, text: str):
        with atomic_open(self._target(name)) as fh:
            fh.write(text)

    def json(self, name: str, obj):
        self.text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def jsonl(self, name: str, objs):
        with atomic_open(self._target(name)) as fh:
            for obj in objs:
                fh.write(json.dumps(obj, sort_keys=True) + "\n")

    def predictions(self, name: str, records: list[PredictionRecord]):
        write_predictions(records, self._target(name))

    def preds(self, stem: str, records: list[PredictionRecord]):
        self.predictions(f"preds/{stem}.jsonl", records)

    def checkpoint(self, name: str, ckpt):
        save_checkpoint(ckpt, self._target(name))

    def manifest(self, subcommand: str, *, config=None, seeds=None, inputs=None, options=None):
        self.json("manifest.json", {
            "tool": "negmtl",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "seeds": list(seeds) if seeds is not None else None,
            "inputs": {name: {"path": str(p), "sha256": _sha256(Path(p))} for name, p in (inputs or {}).items()},
            "options": options or {},
            "outputs": list(self.names),
            "environment": _environment(),
        })


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    splits = {}
    for name in ("train", "dev", "test"):
        path = getattr(args, name)
        if path:
            splits[name] = parse_corpus(path)
    if not splits:
        raise ValueError("stats needs at least one of --train/--dev/--test")
    table = stats_report(corpus_stats(splits))
    sys.stdout.write(table)
    if args.out:
        out = _Outputs(args.out)
        out.text("stats.txt", table)
        out.manifest("stats", inputs={n: getattr(args, n) for n in splits})
    return 0


# ---------------------------------------------------------------------------
# train


def _train_neural(config, train_docs, dev_docs, out: _Outputs):
    run = train_seed(config, train_docs, dev_docs)
    result = run.result
    out.checkpoint("checkpoint.bin", result.checkpoint)
    out.jsonl("metrics.jsonl", result.history)
    out.preds(f"seed-{config.seed}", run.dev_predictions)
    report = {
        "mode": config.mode,
        "seed": config.seed,
        "best_epoch": result.best_epoch,
        "best_dev_accuracy": result.best_dev_accuracy,
        "epochs_run": result.epochs_run,
        "dev_accuracy": accuracy_of(run.dev_predictions),
    }
    out.json("report.json", report)
    print(
        f"{config.mode} seed {config.seed}: best dev accuracy "
        f"{result.best_dev_accuracy:.4f} at epoch {result.best_epoch} "
        f"({result.epochs_run} epochs run)"
    )


def _train_bow(config, train_docs, dev_docs, out: _Outputs):
    result = train_bow(config, train_docs, dev_docs)
    metrics = {
        "chosen_c": result.chosen_c,
        "dev_accuracy": result.dev_accuracy,
        "dev_accuracy_by_c": {str(c): a for c, a in result.dev_accuracy_by_c.items()},
    }
    out.jsonl("metrics.jsonl", [metrics])
    out.preds(f"seed-{config.seed}", result.dev_predictions)
    out.json("report.json", {"mode": "bow", **metrics})
    print(f"bow: chosen C = {result.chosen_c}, dev accuracy {result.dev_accuracy:.4f}")


def cmd_train(args) -> int:
    config = _effective_config(args)
    train_docs = _read_split(args.train, "train")
    dev_docs = _read_split(args.dev, "dev")
    out = _Outputs(args.out)
    train = _train_bow if config.mode == "bow" else _train_neural
    train(config, train_docs, dev_docs, out)
    out.manifest("train", config=config.to_dict(), seeds=[config.seed],
                 inputs={"train": args.train, "dev": args.dev})
    return 0


# ---------------------------------------------------------------------------
# ensemble


def cmd_ensemble(args) -> int:
    config = _effective_config(args)
    train_docs = _read_split(args.train, "train")
    dev_docs = _read_split(args.dev, "dev")
    test_docs = _read_split(args.test, "test") if args.test else None
    result = run_ensemble(config, train_docs, dev_docs, test_docs)

    out = _Outputs(args.out)
    metrics = []
    for run in result.runs:
        out.preds(f"seed-{run.seed}", run.dev_predictions)
        out.checkpoint(f"checkpoints/seed-{run.seed}.bin", run.result.checkpoint)
        for rec in run.result.history:
            metrics.append({"seed": run.seed, **rec})
        if run.test_predictions is not None:
            out.preds(f"test-seed-{run.seed}", run.test_predictions)
    out.preds("ensemble", result.dev_vote)
    if result.test_vote is not None:
        out.preds("test-ensemble", result.test_vote)
    out.jsonl("metrics.jsonl", metrics)

    report = build_run_report([r.dev_predictions for r in result.runs], result.dev_vote)
    report_obj = {"split": "dev", "seeds": list(config.seeds), **report.to_json_obj()}
    if result.test_vote is not None:
        test_report = build_run_report([r.test_predictions for r in result.runs], result.test_vote)
        report_obj["test"] = test_report.to_json_obj()
    out.json("report.json", report_obj)

    out.manifest(
        "ensemble",
        config=config.to_dict(),
        seeds=config.seeds,
        inputs={name: getattr(args, name) for name in ("train", "dev", "test") if getattr(args, name)},
    )
    sys.stdout.write(report.format_text())
    return 0


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model, vocab = ckpt.to_model()
    if args.tags and not model.has_negation_head:
        raise TrainingError(
            f"{args.checkpoint}: checkpoint has no negation head, cannot produce tags"
        )
    docs = _read_split(args.data, "data")

    records = predict_corpus(model, vocab, docs, tags=args.tags)
    out = _Outputs(args.out)
    out.predictions("predictions.jsonl", records)
    if args.tags:
        tag_lines = ({"id": r.id, "tags": [[str(t) for t in sent] for sent in r.tags]} for r in records)
        out.jsonl("tags.jsonl", tag_lines)

    out.manifest(
        "predict",
        config=ckpt.config,
        seeds=[ckpt.config.get("seed")],
        inputs={"checkpoint": args.checkpoint, "data": args.data},
        options={"tags": bool(args.tags)},
    )
    print(f"wrote {len(records)} predictions to {out.path / 'predictions.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _score(records: list[PredictionRecord], path) -> tuple[dict, ConfusionMatrix]:
    """The report's record of one prediction file, and its confusion matrix."""
    if any(r.gold is None for r in records):
        raise EvaluationError(f"{path}: cannot score predictions without gold labels")
    cm = ConfusionMatrix.from_records(records)
    record = {"path": str(path), "accuracy": accuracy_of(records), "confusion": [list(row) for row in cm.counts]}
    return record, cm


def _read_scorable(path) -> list[PredictionRecord]:
    records = read_predictions(path)
    if not records:
        raise EvaluationError(f"{path}: cannot score an empty prediction list")
    return records


def cmd_eval(args) -> int:
    records = _read_scorable(args.pred)
    if args.compare:  # checked before anything is printed
        other = _read_scorable(args.compare)
        require_same_documents(records, other, args.pred, args.compare)
    report = {}
    report["pred"], cm = _score(records, args.pred)
    print(f"{args.pred}: accuracy {report['pred']['accuracy']:.4f} over {len(records)} documents")
    print(f"confusion (gold x pred, negative/positive): {report['pred']['confusion']}")
    csv_text = None
    if args.compare:
        report["compare"], other_cm = _score(other, args.compare)
        diff = relative_confusion(cm, other_cm)
        csv_text = confusion_csv(diff)
        print(f"{args.compare}: accuracy {report['compare']['accuracy']:.4f}")
        print("relative confusion (pred minus compare):")
        sys.stdout.write(csv_text)
        report["relative_confusion"] = [[int(v) for v in row] for row in diff]
    if args.out:
        out = _Outputs(args.out)
        out.json("report.json", report)
        if csv_text is not None:
            out.text("relative.csv", csv_text)
        inputs = {name: getattr(args, name) for name in ("pred", "compare") if getattr(args, name)}
        out.manifest("eval", inputs=inputs)
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_cases(seed: int, inject_bug: bool):
    """Toy-sized gradient checks per component, each a loss built from
    the ops the model records.

    The injected bug cuts one checked leaf out of the tape: the loss
    reads it through a plain tensor over the same buffer, so finite
    differences see the leaf and reverse mode does not, and the harness
    must flag it.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams.init(7, 4, 3, rng, with_negation_head=True)
    named = params.named_parameters()
    groups = params.parameter_groups()

    def of_groups(*names: str) -> dict[str, Tensor]:
        return {n: named[n] for group in names for n in groups[group]}

    def cut(leaf: Tensor) -> Tensor:
        return Tensor(leaf.data) if inject_bug else leaf

    doc_ids = [[1, 2, 3], [4, 5], [6, 2, 4]]
    tags = [int(BioTag.B_CUE), int(BioTag.B_SCOPE), int(BioTag.I_SCOPE)]

    def layers_case():
        # the shared group and the emission layer, scalarized by the CRF
        # NLL; the CRF has its own case
        subset = {**of_groups("shared"), "emission.w": params.emission.w, "emission.b": params.emission.b}
        ids = [1, 2, 1, 4]  # a repeated id: duplicate rows accumulate into one gradient row
        token_tags = [int(BioTag.B_CUE), int(BioTag.O), int(BioTag.B_SCOPE), int(BioTag.I_SCOPE)]
        embedding = EmbeddingTable(cut(params.embedding.weights))

        def f():
            enc = bilstm(params.sent_fwd, params.sent_bwd, embedding.lookup(ids))
            return crf_nll(params.crf, affine(params.emission, enc), token_tags)

        return f, subset

    def crf_case():
        em = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        crf = CrfParams.init(5, rng)
        subset = {"emissions": em, "crf.transitions": crf.transitions}

        def f():
            return crf_nll(crf, cut(em), tags)

        return f, subset

    def sentiment_case():
        subset = of_groups("shared", "sentiment")
        model = replace(params, out=Linear(cut(params.out.w), params.out.b))

        def f():
            return sentiment_loss(model, doc_ids, 1, train=False)

        return f, subset

    def negation_case():
        subset = of_groups("shared", "negation")
        model = replace(params, crf=CrfParams(cut(params.crf.transitions)))

        def f():
            return negation_loss(model, doc_ids[0], tags, train=False)

        return f, subset

    return {
        "layers": layers_case,
        "crf": crf_case,
        "sentiment": sentiment_case,
        "negation": negation_case,
    }


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    cases = _gradcheck_cases(args.seed, args.inject_bug)
    selected = list(cases) if args.component == "all" else [args.component]
    rows = []
    for name in selected:
        f, subset = cases[name]()
        try:
            report = grad_check(f, subset)
        except DeterminismError as e:
            rows.append({"component": name, "passed": False, "error": str(e)})
            print(f"{name:<10} FAIL  {e}")
            continue
        rows.append(
            {
                "component": name,
                "passed": report.passed,
                "max_rel_err": report.max_rel_err,
                "entries_checked": report.n_checked,
                "worst": report.worst,
                "tolerance": report.tol,
            }
        )
        print(
            f"{name:<10} {'PASS' if report.passed else 'FAIL'}  max rel err {report.max_rel_err:.3e} "
            f"over {report.n_checked} entries (tol {report.tol:.0e})"
        )
    all_passed = all(row["passed"] for row in rows)
    print("gradient check:", "PASS" if all_passed else "FAIL")
    if args.out:
        out = _Outputs(args.out)
        out.json("gradcheck.json", {"passed": all_passed, "components": rows})
        out.manifest(
            "gradcheck",
            seeds=[args.seed],
            options={"component": args.component, "inject_bug": bool(args.inject_bug)},
        )
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negmtl",
        description="Joint negation-scope and document-sentiment models "
        "(BiLSTM-CRF multi-task learner, single-task and bag-of-words baselines).",
    )
    parser.add_argument("--version", action="version", version=f"negmtl {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_stats = sub.add_parser("stats", help="corpus statistics table")
    p_stats.add_argument("--train")
    p_stats.add_argument("--dev")
    p_stats.add_argument("--test")
    p_stats.add_argument("--out", help="optional directory for stats.txt + manifest")
    p_stats.set_defaults(fn=cmd_stats)

    def add_config_flags(p, modes):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--mode", choices=modes)
        p.add_argument(
            "--set", dest="overrides", action="append", metavar="KEY=VALUE",
            help="override one config field (repeatable)",
        )

    p_train = sub.add_parser("train", help="train one model")
    add_config_flags(p_train, ("stl", "mtl", "bow"))
    p_train.add_argument("--train", required=True)
    p_train.add_argument("--dev", required=True)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(fn=cmd_train)

    p_ens = sub.add_parser("ensemble", help="train per-seed models and majority-vote")
    add_config_flags(p_ens, ("stl", "mtl"))
    p_ens.add_argument("--seeds", help="comma-separated seed list")
    p_ens.add_argument("--train", required=True)
    p_ens.add_argument("--dev", required=True)
    p_ens.add_argument("--test")
    p_ens.add_argument("--out", required=True)
    p_ens.set_defaults(fn=cmd_ensemble)

    p_pred = sub.add_parser("predict", help="predict from a checkpoint")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.add_argument(
        "--tags", action="store_true",
        help="also write per-token negation tags (needs a negation head)",
    )
    p_pred.set_defaults(fn=cmd_predict)

    p_eval = sub.add_parser("eval", help="score prediction files")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--compare", help="second prediction file for a relative confusion matrix")
    p_eval.add_argument("--out", help="optional directory for report.json")
    p_eval.set_defaults(fn=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--seed", type=int, default=1)
    p_gc.add_argument(
        "--component", default="all",
        choices=("all", "layers", "crf", "sentiment", "negation"),
    )
    p_gc.add_argument("--out", help="optional directory for gradcheck.json")
    p_gc.add_argument("--inject-bug", action="store_true", help=argparse.SUPPRESS)
    p_gc.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy's names the allocation it refused, a bare one nothing
        print(f"error: out of memory ({e})" if str(e) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
