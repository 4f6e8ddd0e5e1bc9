"""negmtl benchmark.

One workload per process:

    python3 bench/run.py --workload flip-train --seed 1 --seconds 30 --trace 0

prints human-readable lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, each in a fresh process, with every metric printed by
name and unit and the result written to a JSON file:

    python3 bench/run.py --all --out bench/BENCH_1.json

The program is imported from ``src/`` and ``tests/`` next to this
directory; the benchmark exits with status 2 if they are missing.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
WORKLOAD_NAMES = ("flip-train", "vocab-train", "predict")
SETUP_PER_UNIT = 5


def import_program():
    """Put the checkout's ``src`` and ``tests`` first on the path and make
    sure that is where ``negmtl`` comes from; exit 2 otherwise."""
    src, tests = ROOT / "src", ROOT / "tests"
    problem = None
    if not (src / "negmtl" / "__init__.py").is_file() or not (tests / "synth.py").is_file():
        problem = f"no negmtl sources under {ROOT} (need src/negmtl and tests/synth.py)"
    else:
        sys.path[:0] = [str(src), str(tests)]
        import negmtl

        if Path(negmtl.__file__).resolve().parent != src / "negmtl":
            problem = f"imported negmtl from {negmtl.__file__}, not from {src}"
    if problem:
        print(f"benchmark: {problem}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import ctypes
    import platform

    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    threads = fn()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_units(workload, tally, seconds: float) -> tuple[dict[str, list[float]], dict[str, list[float]], float]:
    """Closed loop, one caller: one untimed warm-up unit, then units back
    to back until the next one is expected (from the last) to end more
    than half a unit after ``seconds`` from the start, so a run lasts
    ``seconds`` give or take half a unit; always at least one.  Set-up
    samples are taken before every unit and after the last, so they
    spread over the run like the units do.  Every timed operation and
    set-up runs under ``probe.Paced``, so each sample comes both at
    nominal speed and as wall time (``<metric>.wall``).

    Also returns the peak RSS at the end of the first timed unit: later
    units add garbage cycles (taped graphs) whose collection timing, not
    the program, would set the high-water mark."""
    start = time.perf_counter()
    workload.run_unit(tally)  # warm-up: a process's first calls run slow
    samples: dict[str, list[float]] = {}
    setup: dict[str, list[float]] = {"setup_s": [], "setup_s.wall": []}
    rss_mb = None
    while True:
        time_setup(workload, SETUP_PER_UNIT, setup)
        u0 = time.perf_counter()
        values, _ = workload.run_unit(tally, paced=True)
        for metric, value in values.items():
            samples.setdefault(metric, []).append(value)
        rss_mb = rss_mb or peak_rss_mb()
        last = time.perf_counter() - u0
        if time.perf_counter() - start + last / 2 > seconds:
            time_setup(workload, SETUP_PER_UNIT, setup)
            return samples, setup, rss_mb


def time_setup(workload, repeats: int, into: dict[str, list[float]]):
    """Time ``repeats`` set-ups, each under ``probe.Paced``; append them
    at nominal speed to ``into["setup_s"]`` and as wall times to
    ``into["setup_s.wall"]``."""
    for _ in range(repeats):
        with probe.Paced() as clock:
            workload.setup()
        into["setup_s"].append(clock.scaled)
        into["setup_s.wall"].append(clock.wall)


def run_end_to_end(workload, tally, seconds) -> tuple[dict, dict]:
    workload.setup()
    workload.prepare_checks()
    samples, setup, rss_mb = timed_units(workload, tally, seconds)
    primary = statistics.median(samples["primary_s"])
    secondary = statistics.median(samples["secondary_s"])
    metrics = {
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "primary_s": (primary, "s"),
        "secondary_s": (secondary, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # the same figures under the names users know them by
    named = {
        **workload.named_metrics(primary, secondary),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
    }
    # the medians as the wall clock read them, before the speed probes' scaling
    for name in ("setup_s", "primary_s", "secondary_s"):
        wall = setup if name == "setup_s" else samples
        named[f"{name}.wall"] = (statistics.median(wall[f"{name}.wall"]), "s")
    return metrics, {"samples": samples, "setup_samples": setup, "named": named}


def run_traced(workload, tally, seconds) -> tuple[dict, dict]:
    """Per-layer metrics, then units of the workload's traced operations
    in the order untraced, traced, traced, untraced (so a steady drift in
    machine speed cancels out of the overhead); self time per span name
    per traced unit."""
    import microbench
    import tracing

    workload.setup()
    workload.prepare_checks()
    dims, dropout_p = workload.probe_shape()
    budget = 0.05 if workload.tiny else max(0.2, seconds / 60)
    metrics = microbench.per_layer(workload, dims, dropout_p, budget)

    tracer = tracing.Tracer()
    wall = {None: 0.0, tracer: 0.0}
    for around in (None, tracer, tracer, None):
        wall[around] += workload.run_unit(tally, workload.traced_ops, around=around)[1]
    traced, untraced = wall[tracer] / 2, wall[None] / 2
    for name, value in tracing.self_times(tracer.spans).items():
        metrics[f"trace.{name}_s"] = (value / 2, "s")
    # time inside the traced operations that no span covers
    metrics["trace.other_s"] = (max(0.0, traced - tracing.top_level_time(tracer.spans) / 2), "s")
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]
    return metrics, {"traced_s": traced, "untraced_s": untraced, "spans": spans}


def run_one(args) -> int:
    import_program()
    import workloads

    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        workload.generate()
        tally = workloads.Tally()
        run = run_traced if args.trace else run_end_to_end
        metrics, details = run(workload, tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "environment": env, "fingerprints": workload.fingerprints,
        "problems": tally.problems, "result": result, **details,
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: environment {json.dumps(env)}")
    print(f"# fingerprints: {json.dumps(workload.fingerprints['corpus_sha256'])} "
          f"{json.dumps(workload.fingerprints['checkpoint_sha256'])}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in {**metrics, **details.get("named", {})}.items():
        print(f"{args.workload}.{name} = {value:.6g} {unit}")
    print(f"# details in {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, end-to-end then traced."""
    seconds = args.seconds
    report: dict = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            record = json.loads(
                (OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json").read_text(encoding="utf-8")
            )
            entry["end_to_end" if trace == 0 else "per_layer"] = record["result"]
            if trace == 0:
                entry["named"] = {k: {"value": v, "unit": u} for k, (v, u) in record["named"].items()}
                entry["fingerprints"] = record["fingerprints"]
                report["environment"] = record["environment"]
            for line in proc.stdout.splitlines()[:-1]:
                if not line.startswith("# details"):
                    print(line)
    out = Path(args.out) if args.out else OUT_DIR / "all.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"# wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--out", help="with --all: where to write the combined JSON")
    parser.add_argument("--tiny", action="store_true", help="minute inputs and dims, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = ROOT / "BENCHMARK.json"
        args.seconds = json.loads(spec.read_text())["run_seconds"] if spec.is_file() else 40
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
