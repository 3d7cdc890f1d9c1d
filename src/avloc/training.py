"""Training loop, evaluation metric, checkpointing, and the ablation runner.

Training is bitwise reproducible for a fixed (seed, config, dataset):
shuffling is keyed by (seed, epoch), and every mini-batch is one forward and
one backward on its own tape of B videos, their rows concatenated in
shuffled order, so every reduction over the batch runs in a fixed order.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable

import numpy as np

from . import autodiff as ad
from . import heads, motion
from .data import (DatasetManifest, FeatureBundle, LabelRecord, _is_int, load_entry,
                   read_blocks, read_json, synced_open, write_blocks)
from .errors import (ConfigError, ConsistencyError, ContractError, DataError, FormatError,
                     TrainingDiverged)
from .model import (ForwardPass, ModelConfig, ModelParams, _freeze, init_params,
                    param_table, predict, run_forward)

CHECKPOINT_VERSION = "avloc-checkpoint-1"
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 5e-4
    seed: int = 0

    def validate(self) -> None:
        self.model.validate()
        for name, floor in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= floor):
                raise ConfigError(f"{name} must be an int >= {floor}, got {value!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricsReport:
    losses: list[float]
    accuracy: float
    per_class: dict[str, float | None]
    config: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


class Adam:
    """Per-parameter adaptive moments with the module's ADAM_* constants."""

    def __init__(self, params: ModelParams, lr: float):
        self.lr = lr
        self.step_count = 0
        self.m = {n: np.zeros_like(a) for n, a in params.items()}
        self.v = {n: np.zeros_like(a) for n, a in params.items()}

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        """The textbook f32 update, each of its operations in its order, with
        the moments updated in place; each parameter gets a new array."""
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1 ** t
        bias2 = 1.0 - ADAM_BETA2 ** t
        for name, current in params.items():
            g = np.asarray(grads[name], dtype=np.float32)
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            scratch = (1 - ADAM_BETA2) * g
            scratch *= g
            v += scratch
            denominator = np.divide(v, bias2, out=scratch)
            np.sqrt(denominator, out=denominator)
            denominator += np.float32(ADAM_EPSILON)
            update = m / bias1
            update *= self.lr
            update /= denominator
            params.set_array(name, current - update)


# ---------------------------------------------------------------------------
# loss per mini-batch


def _batch_loss(params: ModelParams, cfg: ModelConfig, bundles: list[FeatureBundle],
                labels: list[LabelRecord]
                ) -> tuple[float, dict[str, np.ndarray], ForwardPass]:
    """Mean loss of the videos and its gradient, from one forward and one
    backward on a tape of the batch's videos. Their concatenated features
    are frozen, so the tape takes them without a second copy."""
    tape = ad.Tape(videos=len(bundles))
    fwd = run_forward(tape, params, _freeze(np.concatenate([b.audio for b in bundles])),
                      _freeze(np.concatenate([b.visual for b in bundles])), cfg)
    classes = [label.video_class for label in labels]
    if cfg.mode == "weak":
        loss = heads.weak_aggregate_loss(fwd.class_probs, classes)
    else:
        loss = heads.supervised_loss(
            fwd.class_probs, fwd.event_scores, classes,
            np.concatenate([label.segment_relevance for label in labels]))
    names = list(fwd.leaves.keys())
    grads = tape.backward(loss, fwd.leaf_list())
    return loss.item(), dict(zip(names, grads)), fwd


def _first_nonfinite_stage(fwd: ForwardPass) -> str:
    for name, tensor in fwd.stages.items():
        if not np.isfinite(tensor.data).all():
            return name
    return "loss"


# ---------------------------------------------------------------------------
# training


def train(cfg: TrainConfig, manifest: DatasetManifest, base_dir: str,
          out_dir: str | None = None) -> tuple[ModelParams, MetricsReport]:
    """Mini-batch Adam over the manifest; deterministic given cfg.seed."""
    cfg.validate()
    if not manifest.entries:
        raise ContractError("training needs at least one video; the manifest has none")
    _check_dims(cfg.model, manifest)
    if out_dir:  # an out_dir that cannot be made fails before any feature is read
        os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    bundles = [load_entry(manifest, e, base_dir) for e in manifest.entries]
    labels = [e.label for e in manifest.entries]

    params = init_params(cfg.model, cfg.seed)
    opt = Adam(params, cfg.learning_rate)

    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(bundles))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            loss_value, step, fwd = _batch_loss(params, cfg.model,
                                                [bundles[i] for i in batch],
                                                [labels[i] for i in batch])
            if not np.isfinite(loss_value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}; first non-finite "
                    f"values appear in module '{_first_nonfinite_stage(fwd)}'")
            epoch_loss += loss_value * len(batch)
            del fwd  # frees the batch's tape before the update
            for n, g in step.items():
                if not np.isfinite(g).all():
                    raise TrainingDiverged(f"non-finite gradient for parameter '{n}' "
                                           f"at epoch {epoch}")
            opt.step(params, step)
        losses.append(epoch_loss / len(bundles))

    accuracy, per_class, _ = _score(params, cfg.model, manifest, bundles)
    report = MetricsReport(losses=losses, accuracy=accuracy, per_class=per_class,
                           config=cfg.to_dict(),
                           wall_time_s=time.perf_counter() - started)
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "checkpoint"), params, cfg.model)
        with synced_open(os.path.join(out_dir, "report.json")) as f:
            json.dump(report.to_dict(), f, indent=1)
    return params, report


def _check_dims(cfg: ModelConfig, manifest: DatasetManifest) -> None:
    got, want = manifest.feature_dims(), cfg.dims.feature_dims()
    differ = [f"{k}={got[k]} (config {want[k]})" for k in want if got[k] != want[k]]
    if differ:
        raise ConsistencyError(f"dataset dims do not match the config: {', '.join(differ)}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(params: ModelParams, cfg: ModelConfig, manifest: DatasetManifest,
             base_dir: str) -> tuple[float, dict[str, float | None], list[heads.Prediction]]:
    """Segment accuracy: decoded label (background included) vs ground truth,
    pooled over every segment of every video. Also returns accuracy per
    ground-truth label and the raw predictions. Feature files are read one at
    a time."""
    _check_dims(cfg, manifest)
    if not manifest.entries:
        raise ContractError("evaluation needs at least one video; the manifest has none")
    return _score(params, cfg, manifest,
                  (load_entry(manifest, e, base_dir) for e in manifest.entries))


def _score(params: ModelParams, cfg: ModelConfig, manifest: DatasetManifest,
           bundles: Iterable[FeatureBundle]
           ) -> tuple[float, dict[str, float | None], list[heads.Prediction]]:
    """`evaluate` over bundles given in manifest order."""
    background = manifest.classes
    predictions = [predict(params, cfg, bundle) for bundle in bundles]
    truth = np.concatenate([e.label.segment_class for e in manifest.entries])
    match = np.concatenate([p.decoded for p in predictions]) == truth
    class_hits = np.bincount(truth[match], minlength=background + 1)
    class_total = np.bincount(truth, minlength=background + 1)
    per_class: dict[str, float | None] = {}
    for cls in range(background + 1):
        key = "background" if cls == background else str(cls)
        per_class[key] = (float(class_hits[cls] / class_total[cls])
                          if class_total[cls] else None)
    return float(match.sum() / len(truth)), per_class, predictions


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(ckpt_dir: str, params: ModelParams, cfg: ModelConfig) -> None:
    """One binary container of consecutive tensor blocks plus a JSON index."""
    os.makedirs(ckpt_dir, exist_ok=True)
    items = params.items()
    write_blocks(os.path.join(ckpt_dir, "params.bin"), (arr for _, arr in items))
    index = {
        "format": CHECKPOINT_VERSION,
        "seed": params.seed,
        "config": cfg.to_dict(),
        "params": [{"name": n, "shape": list(a.shape)} for n, a in items],
    }
    with synced_open(os.path.join(ckpt_dir, "index.json")) as f:
        json.dump(index, f, indent=1)


def load_checkpoint(ckpt_dir: str) -> tuple[ModelParams, ModelConfig]:
    index_path = os.path.join(ckpt_dir, "index.json")
    index = read_json(index_path)
    if not isinstance(index, dict) or index.get("format") != CHECKPOINT_VERSION:
        raise FormatError(f"{index_path}: not an {CHECKPOINT_VERSION} index")
    seed = index.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise FormatError(f"{index_path}: seed must be an integer, got {seed!r}")
    cfg = ModelConfig.from_dict(index.get("config"))
    table = [(name, shape) for name, _, shape in param_table(cfg)]
    try:
        stored = [(p["name"], tuple(p["shape"])) for p in index["params"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{index_path}: malformed parameter list ({exc!r})") from exc
    if stored != table:
        raise ConsistencyError(f"{index_path}: parameter list does not match "
                               "this configuration")
    arrays = read_blocks(os.path.join(ckpt_dir, "params.bin"), (shape for _, shape in table))
    for (name, _), arr in zip(table, arrays):
        if not np.isfinite(arr).all():
            raise DataError(f"{ckpt_dir}: parameter {name!r} in params.bin is not finite")
    return ModelParams({name: arr for (name, _), arr in zip(table, arrays)}, seed), cfg


# ---------------------------------------------------------------------------
# ablation


# (variant name, motion mode, temporal attention), from motion.VARIANTS bottom-up
ABLATION_VARIANTS: list[tuple[str, str, bool]] = [
    (name, mode, temporal) for mode, (_, rows) in reversed(motion.VARIANTS.items())
    for name, temporal in rows]
HOLDOUT_EVERY = 4


@dataclass
class AblationRow:
    variant: str
    seed: int
    accuracy: float


@dataclass
class AblationTable:
    rows: list[AblationRow]

    def summary(self) -> dict[str, dict[str, float]]:
        """Mean and sd of accuracy per variant, in ABLATION_VARIANTS order;
        a variant without rows is left out."""
        out: dict[str, dict[str, float]] = {}
        for variant, _, _ in ABLATION_VARIANTS:
            acc = np.array([r.accuracy for r in self.rows if r.variant == variant])
            if not len(acc):
                continue
            out[variant] = {"mean": float(acc.mean()),
                            "sd": float(acc.std(ddof=1)) if len(acc) > 1 else 0.0}
        return out

    def to_json(self) -> str:
        return json.dumps({
            "rows": [asdict(r) for r in self.rows],
            "summary": self.summary(),
        }, indent=1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["variant", "seed", "accuracy"])
        for r in self.rows:
            writer.writerow([r.variant, r.seed, repr(r.accuracy)])
        return buf.getvalue()


def split_manifest(manifest: DatasetManifest) -> tuple[DatasetManifest, DatasetManifest]:
    """Deterministic split: every HOLDOUT_EVERY-th entry is held out."""
    train, held = replace(manifest, entries=[]), replace(manifest, entries=[])
    for i, entry in enumerate(manifest.entries):
        (held if i % HOLDOUT_EVERY == HOLDOUT_EVERY - 1 else train).entries.append(entry)
    return train, held


def check_ablation(base: TrainConfig, manifest: DatasetManifest, seeds: list[int]) -> None:
    """Every check `ablate` makes before its first run trains."""
    if len(seeds) < 2:
        raise ContractError("ablation needs at least 2 seeds")
    for seed in seeds:
        replace(base, seed=seed).validate()
    if len(manifest.entries) < HOLDOUT_EVERY:  # else the held-out split is empty
        raise ContractError(f"ablation holds out every {HOLDOUT_EVERY}th video, so it needs "
                            f"at least {HOLDOUT_EVERY}; the manifest has {len(manifest.entries)}")


def ablate(base: TrainConfig, manifest: DatasetManifest, base_dir: str,
           seeds: list[int]) -> AblationTable:
    """Run every motion/temporal-attention variant across seeds and report
    held-out segment accuracy per run."""
    check_ablation(base, manifest, seeds)
    train_manifest, held_manifest = split_manifest(manifest)
    rows = []
    for variant, motion_mode, temporal in ABLATION_VARIANTS:
        for seed in seeds:
            cfg = replace(base, seed=seed, model=replace(
                base.model, motion=motion_mode, temporal_attention=temporal))
            params, _ = train(cfg, train_manifest, base_dir)
            accuracy, _, _ = evaluate(params, cfg.model, held_manifest, base_dir)
            rows.append(AblationRow(variant=variant, seed=seed, accuracy=accuracy))
    return AblationTable(rows=rows)
