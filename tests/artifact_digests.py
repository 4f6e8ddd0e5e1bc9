"""The sha256 digest of every artifact of a tiny fixed CLI run, per host
fingerprint.

The run covers the byte-identity contract: (config, seed, corpus) fix
every artifact byte for byte.  On the ``tests/synth.py`` scope-flip
corpus (rng 1234; 40 train, 16 dev and 16 test documents) it runs

* ``train`` stl and mtl at dims 4/3, the mtl one with patience 1 (an
  early stop), one mtl ``train`` at dims 64 and one at dims 32;
* a 3-seed mtl ``ensemble --test``;
* ``predict --tags`` from the mtl checkpoint and ``predict`` from the
  stl one;
* ``predict --tags`` from the dims-32 checkpoint, the one model here
  trained far enough to predict both labels and every tag: the 4/3-dim
  models label every test document negative and tag every token O, so
  only this run would catch a decoder that returned one tag everywhere;
* ``gradcheck --out``.

Every file it writes is hashed except ``manifest.json``, which records
input paths and the environment.

The bits depend on the host: numpy and OpenBLAS pick their kernels per
CPU.  So the digests are keyed by a fingerprint of the numpy version,
the OpenBLAS configuration (which names the kernel core it chose at
run time) and numpy's CPU features, and the run happens in a child
process with one BLAS thread.  ``compute`` starts that child; the tier-1
test and ``--record`` both go through it.

    PYTHONPATH=src python tests/artifact_digests.py --record

rewrites the current fingerprint's entry in ``artifact_digests.json``
and prints the artifacts whose digests changed against that entry, or
says the fingerprint is new.  Only a change that declares new numerics
should record, and it lists those artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RECORDED = HERE / "artifact_digests.json"
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _blas_configuration(np) -> str:
    """OpenBLAS's run-time configuration string, which names the kernel
    core it picked for this CPU; the build's string where the library
    does not export it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def fingerprint() -> dict:
    import numpy as np
    from numpy._core import _multiarray_umath

    features = _multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "blas": _blas_configuration(np),
        "cpu_features": sorted(name for name, on in features.items() if on),
    }


def fingerprint_key(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def run_artifacts(work: Path) -> dict[str, str]:
    """Run the fixed CLI sequence under ``work``; the digest of every
    artifact but ``manifest.json``, by path relative to ``work``."""
    import numpy as np

    from negmtl.cli import main
    from synth import scope_flip_corpus

    rng = np.random.default_rng(1234)
    data = work / "data"
    data.mkdir()
    for split, n in (("train", 40), ("dev", 16), ("test", 16)):
        with open(data / f"{split}.jsonl", "w", encoding="utf-8") as fh:
            for doc in scope_flip_corpus(n, rng, split):
                fh.write(json.dumps({
                    "id": doc.id, "domain": doc.domain, "label": doc.label,
                    "sentences": [
                        {"tokens": list(s.tokens),
                         "negations": [{"cue": list(n.cue), "scope": list(n.scope)} for n in s.negations]}
                        for s in doc.sentences
                    ],
                }) + "\n")
    splits = ["--train", str(data / "train.jsonl"), "--dev", str(data / "dev.jsonl")]
    small = ["--set", "embedding_dim=4", "--set", "hidden_dim=3"]
    out = work / "out"
    runs = [
        ["train", *splits, "--out", str(out / "stl"), "--mode", "stl", *small, "--set", "epochs=3"],
        ["train", *splits, "--out", str(out / "mtl"), "--mode", "mtl", *small,
         "--set", "epochs=8", "--set", "patience=1"],
        ["train", *splits, "--out", str(out / "mtl64"), "--mode", "mtl",
         "--set", "embedding_dim=64", "--set", "hidden_dim=64", "--set", "epochs=2", "--set", "seed=2"],
        ["train", *splits, "--out", str(out / "mtl32"), "--mode", "mtl", "--set", "embedding_dim=32",
         "--set", "hidden_dim=32", "--set", "epochs=4", "--set", "learning_rate=0.01", "--set", "seed=2"],
        ["ensemble", *splits, "--test", str(data / "test.jsonl"), "--out", str(out / "ensemble"),
         "--mode", "mtl", "--seeds", "1,2,3", *small, "--set", "epochs=2"],
        ["predict", "--checkpoint", str(out / "mtl" / "checkpoint.bin"), "--data", str(data / "test.jsonl"),
         "--out", str(out / "predict-tags"), "--tags"],
        ["predict", "--checkpoint", str(out / "stl" / "checkpoint.bin"), "--data", str(data / "test.jsonl"),
         "--out", str(out / "predict")],
        ["predict", "--checkpoint", str(out / "mtl32" / "checkpoint.bin"), "--data", str(data / "test.jsonl"),
         "--out", str(out / "predict-tags-mtl32"), "--tags"],
        ["gradcheck", "--out", str(out / "gradcheck")],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"negmtl {argv[0]} exited with {rc}")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def compute() -> dict:
    """Fingerprint and digests from a child process pinned to one BLAS
    thread: ``{"key", "fingerprint", "digests"}``."""
    env = {**os.environ, **THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"artifact run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def recorded() -> dict:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def changed(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """The artifact names whose digest differs between two digest maps,
    sorted; a name in only one of them counts as changed."""
    return sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))


def record_summary(key: str, previous: dict | None, digests: dict[str, str]) -> str:
    """What recording ``digests`` for fingerprint ``key`` changed against
    its ``previous`` entry (None for a new fingerprint)."""
    if previous is None:
        return f"fingerprint {key} is new: {len(digests)} digests recorded"
    names = changed(previous["digests"], digests)
    return "\n".join([f"fingerprint {key}: {len(names)} of {len(digests)} digests changed", *names])


def _child():
    fp = fingerprint()
    with tempfile.TemporaryDirectory(prefix="negmtl-digests-") as work:
        digests = run_artifacts(Path(work))
    json.dump({"key": fingerprint_key(fp), "fingerprint": fp, "digests": digests}, sys.stdout)


def _record():
    got = compute()
    table = recorded() if RECORDED.exists() else {}
    previous = table.get(got["key"])
    table[got["key"]] = {"fingerprint": got["fingerprint"], "digests": got["digests"]}
    RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(record_summary(got["key"], previous, got["digests"]))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite this host's entry")
    mode.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    if parser.parse_args().child:
        _child()
    else:
        _record()
