"""avloc benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; avloc is imported from its `src/`.
The seed makes the synthetic inputs (and the training seed); the program
sees only those inputs. Workloads are described in `workloads.py`.

With `--trace 0` the run measures end-to-end metrics with no wrappers
installed. With `--trace 1` it alternates untraced and traced rounds of the
same work and reports per-layer metrics from the traced ones; the span
trace is written under `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it describe
the environment and the run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

# numpy asks for transparent huge pages on large arrays, and whether the
# kernel grants them depends on the host's free memory: peak RSS and timings
# then vary from run to run. Ask for none unless the caller chose otherwise.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import numpy as np  # noqa: E402

from spans import COMPUTED, Tracer, per_layer_metrics  # noqa: E402
from workloads import (WORKLOADS, Checks, SetupTimer, checkpoint_quality,  # noqa: E402
                       same_prediction, serve_pass, set_up, train_once)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SERVE_SHARE = 0.15  # of a train-* run, kept for the final serving passes
SETUP_SHARE = 0.2   # of a run, spent on repeated set-ups spread over it
COVERAGE = 0.98     # share of the traced wall time that avloc's spans must cover

END_TO_END = (
    ("setup_s", "s"),
    ("videos_per_s", "1/s"),
    ("final_loss", "loss"),
    ("predict_ms_p50", "ms"),
    ("predict_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_avloc():
    """Import avloc from this checkout's src/, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "avloc", "__init__.py")):
        log(f"error: no avloc sources under {src}; run from a source checkout")
        sys.exit(2)
    sys.path.insert(0, src)
    import avloc
    if os.path.dirname(os.path.dirname(os.path.abspath(avloc.__file__))) != src:
        log(f"error: imported avloc from {avloc.__file__}, not from {src}")
        sys.exit(2)
    return avloc


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                get = getattr(lib, fn)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "avloc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "commit": _commit(),
            "src_sha256": _src_digest()}


# ---------------------------------------------------------------------------
# runs


def percentile(values: list[float], p: int) -> float:
    """p-th percentile, inclusive method, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_end_to_end(avloc, wl, seed: int, seconds: float, work_dir: str, checks) -> dict:
    start = perf_counter()
    deadline = start + seconds
    setups = SetupTimer(avloc, wl, seed, work_dir, checks)
    setup = setups.setup
    latencies, pass_rates = [], []
    references = {}  # first predictions per dataset; later passes must repeat them

    def serve(ds, params) -> float:
        begin = perf_counter()
        lat, preds = serve_pass(avloc, ds, params, setup.model_cfg, checks,
                                references.get(ds.seed))
        if not lat:
            raise SystemExit("error: every prediction of a serving pass failed; no result")
        references.setdefault(ds.seed, preds)
        latencies.extend(lat)
        wall = perf_counter() - begin
        pass_rates.append(len(lat) / wall)
        return wall

    def set_up_again() -> float:
        """Set up again while set-up has had less than its share of the run
        so far, so that its samples see the same machine as the rest."""
        begin = perf_counter()
        while sum(setups.times) < SETUP_SHARE * (perf_counter() - start):
            setups.again()
        return perf_counter() - begin

    params, served = setup.params, setup.datasets[0]
    rates, firsts, calls, last = [], {}, 0, 0.0
    if wl.epochs:
        # one call per dataset, then repeats while another should end in time;
        # a repeat must give the same losses as the first call on its dataset.
        # A serving pass follows each call, so predict samples span the run.
        train_deadline = start + seconds * (1.0 - SERVE_SHARE)
        while calls < wl.datasets or perf_counter() + last <= train_deadline:
            k = calls % wl.datasets
            calls += 1
            result = train_once(avloc, wl, setup, setup.datasets[k], checks, firsts.get(k))
            if result is not None:
                firsts.setdefault(k, result)
                served, params = setup.datasets[k], result.params
                rates.append(wl.epochs * wl.videos / result.wall_s)
                last = result.wall_s + serve(served, params)
            last += set_up_again()
        if not rates:
            raise SystemExit("error: every train() call failed; no result")
    # serve again: at least one repeated pass, enough samples for p90, and
    # then while another pass should end in time
    repeats = 0
    while (repeats < 2 - bool(wl.epochs) or len(latencies) < wl.serve_samples
           or perf_counter() + last <= deadline):
        last = serve(served, params) + set_up_again()
        repeats += 1
    while len(setups.times) < wl.setups:
        setups.again()
    if wl.epochs:
        final_loss = statistics.fmean(r.losses[-1] for r in firsts.values())
        accuracy = statistics.fmean(r.accuracy for r in firsts.values())
    else:
        final_loss, accuracy = checkpoint_quality(avloc, served, params, setup.model_cfg,
                                                  checks)
        rates = pass_rates
    print(f"# {len(setups.times)} set-ups; {len(rates)} timed "
          f"{'train() calls' if wl.epochs else 'serving passes'}; "
          f"{len(latencies)} predict samples, {len(latencies) // 10} beyond p90; "
          f"segment_accuracy {accuracy:.6g} (mean over {len(firsts) or 1} dataset(s))")
    return {
        "setup_s": statistics.median(setups.times),
        "videos_per_s": statistics.median(rates),
        "final_loss": final_loss,
        "predict_ms_p50": 1e3 * statistics.median(latencies),
        "predict_ms_p90": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - checks.failed / max(checks.attempted, 1),
        "samples": {"videos_per_s": rates, "predict_s": latencies, "setup_s": setups.times,
                    "segment_accuracy": accuracy},
    }


def run_traced(avloc, wl, seed: int, seconds: float, work_dir: str, checks,
               trace_path: str) -> dict:
    """Alternate untraced and traced rounds of the same work; a round trains
    once on the first dataset (train-*) and then serves it once."""
    tracer = Tracer(avloc)
    with tracer.span("bench.setup"):
        tracer.install()
        try:
            setup = set_up(avloc, wl, seed, work_dir, checks)
        finally:
            tracer.uninstall()
    ds = setup.datasets[0]

    def one_round():
        params, losses = setup.params, None
        if wl.epochs:
            result = train_once(avloc, wl, setup, ds, checks)
            if result is None:
                return None, {}
            params, losses = result.params, result.losses
        return losses, serve_pass(avloc, ds, params, setup.model_cfg, checks)[1]

    tracer.reset_counters()
    start = perf_counter()
    traced = untraced = pair = 0.0
    rounds = 0
    while rounds == 0 or perf_counter() + pair <= start + seconds:
        t0 = perf_counter()
        plain = one_round()
        t1 = perf_counter()
        with tracer.span("bench.round"):
            tracer.install()
            try:
                seen = one_round()
            finally:
                tracer.uninstall()
        traced += perf_counter() - t1
        untraced += t1 - t0
        pair = perf_counter() - t0
        rounds += 1
        same = plain[0] == seen[0] and plain[1].keys() == seen[1].keys() and all(
            same_prediction(plain[1][v], seen[1][v]) for v in plain[1])
        checks.record("traced round repeats the untraced one",
                      [] if same else ["tracing changed losses or predictions"])
    leftover = tracer.leftover_wrappers()
    checks.record("wrappers removed", [f"still wrapped: {leftover}"] if leftover else [])
    metrics = tracer.metrics("bench.round", rounds, traced, untraced)
    covered = metrics["trace.self_sum.ms"] / metrics["trace.wall.ms"]
    checks.record("avloc's spans cover the traced wall time",
                  [] if covered >= COVERAGE else
                  [f"self times of avloc's spans cover {covered:.2%} of the traced wall "
                   f"time, under {COVERAGE:.0%}"])
    tracer.write(trace_path)
    print(f"# {rounds} traced rounds; {len(tracer.spans)} spans written to "
          f"{os.path.relpath(trace_path, ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    avloc = import_avloc()

    env = environment()
    print("# env " + json.dumps(env), flush=True)
    checks = Checks(log)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.trace:
            values = run_traced(avloc, wl, args.seed, args.seconds, work_dir, checks,
                                os.path.join(OUT_DIR, f"spans-{stem}.json"))
            units = per_layer_metrics()
        else:
            values = run_end_to_end(avloc, wl, args.seed, args.seconds, work_dir, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    error_rate = checks.failed / checks.attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "error_rate": error_rate, **result,
                   "samples": values.get("samples")}, f, indent=1)
    print(f"# {wl.name} seed {args.seed}: error_rate {checks.failed}/{checks.attempted}"
          f" = {error_rate:.4g}")
    for name, m in metrics.items():
        print(f"# {name:<40} {m['value']:.6g} {m['unit']}"
              + (" (computed)" if name in COMPUTED else ""))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
