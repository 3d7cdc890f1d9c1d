"""The three workloads: set-up, the measured calls, and the output checks.

Every workload is single-process and closed-loop: each training call and
each prediction starts only after the previous one has returned. All calls
go through attributes of the `avloc` package at call time, so the tracer's
wrappers see them.

- train-desk / train-real: `train()` as a user runs it (initial load,
  epochs, final `evaluate`), once on each of the run's datasets, then
  serving passes with the last trained parameters;
- eval-real: serving passes over a checkpoint that set-up wrote with
  `save_checkpoint` and read back with `load_checkpoint`.

A serving pass reads every video of a dataset from disk with `load_bundle`
and runs it through `predict`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

DESK_DIMS = dict(T=10, d_a=32, d_v=64, h=3, w=3, classes=4, hidden=64, relation=64)
REAL_DIMS = dict(T=10, d_a=128, d_v=512, h=7, w=7, classes=28, hidden=512, relation=256)


@dataclass(frozen=True)
class Workload:
    name: str
    dims: dict
    videos: int          # per dataset
    datasets: int        # datasets per run, each trained on once
    epochs: int          # 0: nothing is trained, a checkpoint is served
    batch: int
    setups: int          # fewest set-ups per run; setup_s is their median
    serve_samples: int   # fewest predictions per run (p90 needs >= 10 beyond it)
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("train-desk", DESK_DIMS, videos=64, datasets=4, epochs=20, batch=32,
             setups=5, serve_samples=128,
             why="learnability-gate shape at desk dims: tiny arrays, so per-op Python "
                 "cost in autodiff dominates and BLAS does almost nothing"),
    Workload("train-real", REAL_DIMS, videos=8, datasets=8, epochs=2, batch=2,
             setups=3, serve_samples=160,
             why="the same training path at real-scale dims: ~100x larger arrays, so "
                 "conv2d/matmul kernels and Adam dominate, not per-op overhead"),
    Workload("eval-real", REAL_DIMS, videos=16, datasets=1, epochs=0, batch=1,
             setups=5, serve_samples=112,
             why="forward only at real-scale dims (file read + predict from a saved "
                 "checkpoint), so work moved from backward into forward shows"),
)}


class Checks:
    """Counts operations attempted and failed; an operation fails when it
    raises or when any output check on it fails."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.log(f"FAILED {what}: {'; '.join(problems)}")

    def record_raised(self, what: str) -> None:
        """Record an operation that raised; call it from the except block."""
        self.record(what, [traceback.format_exc()])


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Dataset:
    seed: int           # of the synthetic data and of training on it
    data_dir: str
    manifest: object


@dataclass
class Setup:
    datasets: list[Dataset]
    cfg: object         # TrainConfig for train-* (seeded per dataset), ModelConfig for eval-real
    params: object      # the served checkpoint for eval-real, else None

    @property
    def model_cfg(self):
        return getattr(self.cfg, "model", self.cfg)


def set_up(avloc, wl: Workload, seed: int, work_dir: str, checks: Checks) -> Setup:
    """Synthesize the run's datasets and load their manifests; for eval-real
    also draw the parameters, write them with `save_checkpoint` and read
    them back with `load_checkpoint`."""
    d = wl.dims
    datasets = []
    for k in range(wl.datasets):
        data_dir = os.path.join(work_dir, f"set{k}")
        ds_seed = seed * 16 + k
        avloc.synth_dataset(data_dir, ds_seed, wl.videos, T=d["T"], d_a=d["d_a"],
                            d_v=d["d_v"], h=d["h"], w=d["w"], classes=d["classes"])
        datasets.append(Dataset(ds_seed, data_dir, avloc.load_manifest(
            os.path.join(data_dir, "manifest.json"))))
    model = avloc.ModelConfig(dims=avloc.Dims(**d))
    if wl.epochs:
        cfg = avloc.TrainConfig(model=model, epochs=wl.epochs, batch_size=wl.batch)
        checks.record("set-up", [])
        return Setup(datasets, cfg, None)
    drawn = avloc.init_params(model, seed)
    ckpt = os.path.join(work_dir, "checkpoint")
    avloc.save_checkpoint(ckpt, drawn, model)
    params, cfg = avloc.load_checkpoint(ckpt)
    checks.record("set-up", [f"checkpoint round trip changed {name}"
                             for (name, a), (_, b) in zip(drawn.items(), params.items())
                             if not np.array_equal(a, b)])
    return Setup(datasets, cfg, params)


class SetupTimer:
    """Sets the workload up from scratch, again and again, timing each
    set-up. The first set-up is the one the run uses; later ones are timed
    and deleted, so that set-up samples can be spread over the whole run."""

    def __init__(self, avloc, wl: Workload, seed: int, work_dir: str, checks: Checks):
        self.args = (avloc, wl, seed)
        self.work_dir = work_dir
        self.checks = checks
        self.times: list[float] = []
        self.setup = self.again()

    def again(self) -> Setup:
        target = os.path.join(self.work_dir, f"setup{len(self.times)}")
        start = perf_counter()
        setup = set_up(*self.args, target, self.checks)
        self.times.append(perf_counter() - start)
        if len(self.times) > 1:
            shutil.rmtree(target)
        return setup


# ---------------------------------------------------------------------------
# measured calls


@dataclass
class TrainResult:
    wall_s: float
    losses: list
    accuracy: float
    params: object


def train_once(avloc, wl: Workload, setup: Setup, ds: Dataset, checks: Checks,
               earlier: TrainResult | None = None) -> TrainResult | None:
    """One `train()` call; `earlier` is a previous call on the same dataset,
    whose results this one must repeat bit for bit. None if it raised."""
    cfg = dataclasses.replace(setup.cfg, seed=ds.seed)
    start = perf_counter()
    try:
        params, report = avloc.train(cfg, ds.manifest, ds.data_dir)
    except Exception:  # counted as a failed operation; the run goes on
        checks.record_raised("train()")
        return None
    wall = perf_counter() - start
    losses = report.losses
    problems = []
    if len(losses) != wl.epochs:
        problems.append(f"{len(losses)} epoch losses for {wl.epochs} epochs")
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite epoch loss in {losses}")
    elif not losses[-1] < losses[0]:
        problems.append(f"last epoch loss {losses[-1]} is not below the first {losses[0]}")
    if not 0.0 <= report.accuracy <= 1.0:
        problems.append(f"accuracy {report.accuracy} outside [0, 1]")
    if earlier is not None and (losses != earlier.losses
                                or report.accuracy != earlier.accuracy):
        problems.append("a repeated train() call gave different losses or accuracy")
    checks.record("train()", problems)
    return TrainResult(wall, list(losses), report.accuracy, params)


def serve_pass(avloc, ds: Dataset, params, model_cfg, checks: Checks,
               reference: dict | None = None) -> tuple[list[float], dict]:
    """Read and predict every video in order; returns per-video latencies
    and the predictions by video id. With `reference` (an earlier pass),
    every prediction must repeat it bit for bit. A video whose read or
    prediction raised is counted as failed and left out."""
    manifest = ds.manifest
    latencies = []
    preds = {}
    for entry in manifest.entries:
        start = perf_counter()
        try:
            bundle = avloc.load_bundle(os.path.join(ds.data_dir, entry.path), manifest,
                                       entry.video_id)
            pred = avloc.predict(params, model_cfg, bundle)
        except Exception:  # counted as a failed operation; the run goes on
            checks.record_raised(f"load_bundle + predict of {entry.video_id}")
            continue
        latencies.append(perf_counter() - start)
        preds[entry.video_id] = pred
        checks.record("load_bundle + predict", check_prediction(
            pred, entry.video_id, manifest.T, manifest.classes,
            (reference or {}).get(entry.video_id)))
    return latencies, preds


def same_prediction(a, b) -> bool:
    return (np.array_equal(a.class_probs, b.class_probs)
            and np.array_equal(a.event_scores, b.event_scores)
            and np.array_equal(a.decoded, b.decoded))


def check_prediction(pred, video_id: str, T: int, C: int, ref) -> list[str]:
    S_c, S_e, decoded = pred.class_probs, pred.event_scores, pred.decoded
    if S_c.shape != (C,) or S_e.shape != (T,) or decoded.shape != (T,):
        return [f"shapes S_c {S_c.shape}, S_e {S_e.shape}, decoded {decoded.shape}"]
    problems = []
    if pred.video_id != video_id:
        problems.append(f"prediction for {pred.video_id!r}, asked for {video_id!r}")
    if not (np.isfinite(S_c).all() and abs(float(S_c.sum(dtype=np.float64)) - 1.0) < 1e-5):
        problems.append(f"S_c sums to {S_c.sum()}")
    if not (np.isfinite(S_e).all() and S_e.min() >= 0.0 and S_e.max() <= 1.0):
        problems.append("S_e outside [0, 1]")
    if decoded.min() < 0 or decoded.max() > C:
        problems.append(f"decoded outside [0, {C}]")
    if ref is not None and not same_prediction(pred, ref):
        problems.append("a second pass over the video gave a different prediction")
    return problems


def checkpoint_quality(avloc, ds: Dataset, params, model_cfg, checks: Checks
                       ) -> tuple[float, float]:
    """Mean supervised loss of the served parameters over the dataset, as
    avloc computes it for training (`run_forward` on a fresh tape, then
    `heads.supervised_loss`), and the segment accuracy `evaluate` reports."""
    losses = []
    try:
        for entry in ds.manifest.entries:
            bundle = avloc.load_bundle(os.path.join(ds.data_dir, entry.path), ds.manifest,
                                       entry.video_id)
            fwd = avloc.run_forward(avloc.Tape(), params, bundle.audio, bundle.visual,
                                    model_cfg)
            losses.append(avloc.heads.supervised_loss(
                fwd.class_probs, fwd.event_scores, entry.label.video_class,
                entry.label.segment_relevance).item())
        accuracy = avloc.evaluate(params, model_cfg, ds.manifest, ds.data_dir)[0]
    except Exception:  # counted as a failed operation
        checks.record_raised("loss and evaluate() of the checkpoint")
        return math.nan, math.nan
    checks.record("loss and evaluate() of the checkpoint",
                  [] if all(math.isfinite(v) for v in losses) and 0.0 <= accuracy <= 1.0
                  else [f"loss {losses} or accuracy {accuracy} out of range"])
    return statistics.fmean(losses), accuracy
