"""End-to-end model assembly: configuration, seeded initialization, forward.

The pipeline per video is: motion extraction from the visual stream, motion
gating of the audio stream, audio-guided channel and spatial gating of the
visual stream, bidirectional cross-modal relation attention, interaction
fusion, then the classification heads. Config toggles swap whole stages for
constants (zero motion, zero past motion, no temporal gate) without touching
anything downstream, which is what the ablation runner exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from . import autodiff as ad
from . import attention, fusion, heads, motion
from .data import FeatureBundle, FeatureDims, dim
from .errors import ConfigError, ShapeError
from .heads import Prediction

MODES = ("supervised", "weak")


@dataclass
class Dims(FeatureDims):
    """A dataset's FeatureDims plus the model's widths. A production-scale
    config would be d_a=128, d_v=512, h=w=7, hidden=512, relation=256."""

    hidden: int = dim(64)     # shared hidden width of the visual gates
    relation: int = dim(64)   # channel width of the relation branches


# keys that earlier configs stored, with the one value this model computes
RETIRED_KEYS = {"past_variant": "printed", "scale_mode": "sqrt"}


def _check_keys(cls, doc, legacy: Iterable[str] = ()) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} config must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)} - set(legacy))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} config key {unknown[0]!r}")


@dataclass
class ModelConfig:
    dims: Dims = field(default_factory=Dims)
    mode: str = "supervised"
    motion: str = "pfme"                 # a row of motion.VARIANTS
    temporal_attention: bool = True

    def validate(self) -> None:
        self.dims.validate()
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        motion.check_mode(self.motion)
        if not isinstance(self.temporal_attention, bool):
            raise ConfigError(f"temporal_attention must be a bool, "
                              f"got {self.temporal_attention!r}")

    @property
    def n_class_outputs(self) -> int:
        # weak mode scores background as an explicit extra class
        return self.dims.classes + (1 if self.mode == "weak" else 0)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        _check_keys(cls, doc, legacy=RETIRED_KEYS)
        doc = dict(doc)
        for key, value in RETIRED_KEYS.items():
            if doc.pop(key, value) != value:
                raise ConfigError(f"{key}: only {value!r} can be loaded")
        dims = doc.pop("dims", {})
        _check_keys(Dims, dims)
        cfg = cls(dims=Dims(**dims), **doc)
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# parameters


def _uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # bound sqrt(3/fan_in) keeps activation variance ~constant layer to layer
    fan_in = int(np.prod(shape[:-1]))
    bound = float(np.sqrt(3.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _identity(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Temporal-difference conv init: exact identity at the center tap,
    sigma=0.01 noise elsewhere, so early training approximates plain frame
    differencing."""
    kernel = rng.normal(0.0, 0.01, size=shape).astype(np.float32)
    kernel[shape[0] // 2, shape[1] // 2] = np.eye(shape[2], dtype=np.float32)
    return kernel


def _zeros(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def param_table(cfg: ModelConfig) -> list[tuple[str, Callable, tuple[int, ...]]]:
    """Every learned weight as (name, initializer, shape).

    A name's prefix is its group. Each group has its own RNG stream, spawned
    in the order the groups first appear, and draws from it in row order.
    The order is shared by initialization, the optimizer, checkpoints and
    leaf registration.
    """
    d = cfg.dims
    d_m, d_h, n_out = d.relation, d.hidden, cfg.n_class_outputs
    return [
        ("motion.align_kernel", _uniform, (1, 1, d.d_v, d.d_a)),
        ("motion.past_kernel", _identity, (3, 3, d.d_a, d.d_a)),
        ("motion.future_kernel", _identity, (3, 3, d.d_a, d.d_a)),
        ("motion.out_map", _uniform, (d.d_a, d.d_a)),
        # zero-init so the temporal gate starts uniform (a neutral 1 + 1/T boost)
        # instead of a near-one-hot softmax that starves most segments early
        ("audio_gate.temporal_weight", _zeros, (d.d_a, 1)),
        ("visual_gate.channel_audio", _uniform, (d.d_a, d_h)),
        ("visual_gate.channel_visual", _uniform, (d.d_v, d_h)),
        ("visual_gate.channel_align", _uniform, (d_h, d.d_v)),
        ("visual_gate.channel_value", _uniform, (d.d_v, d.d_v)),
        ("visual_gate.spatial_audio", _uniform, (d.d_a, d_h)),
        ("visual_gate.spatial_visual", _uniform, (d.d_v, d_h)),
        ("visual_gate.spatial_score", _uniform, (d_h, 1)),
        ("streams.audio", _uniform, (d.d_a, d_m)),
        ("streams.visual", _uniform, (d.d_v, d_m)),
        ("streams.fused", _uniform, (2 * d_m, d_m)),
        ("audio_branch.query_proj", _uniform, (d_m, d_m)),
        ("audio_branch.key_proj", _uniform, (d_m, d_m)),
        ("audio_branch.value_proj", _uniform, (d_m, d_m)),
        ("visual_branch.query_proj", _uniform, (d_m, d_m)),
        ("visual_branch.key_proj", _uniform, (d_m, d_m)),
        ("visual_branch.value_proj", _uniform, (d_m, d_m)),
        ("interaction.query_proj", _uniform, (d_m, d_m)),
        ("interaction.key_proj", _uniform, (d_m, d_m)),
        ("interaction.value_proj", _uniform, (d_m, 2 * d_m)),
        # the heads are the only layers that carry biases
        ("head.class_weight", _uniform, (2 * d_m, n_out)),
        ("head.class_bias", _zeros, (1, n_out)),
        ("head.event_weight", _uniform, (2 * d_m, 1)),
        ("head.event_bias", _zeros, (1, 1)),
    ]


def _freeze(value: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(value)
    arr.setflags(write=False)
    return arr


@dataclass
class ModelParams:
    """Every learned weight by table name, reconstructible bit-exactly from
    (seed, config).

    ModelParams owns its arrays and makes them read-only: an update replaces
    an array (`set_array`) and never writes into one, so a forward can put
    them on its tape without a copy.
    """

    arrays: dict[str, np.ndarray]
    seed: int

    def __post_init__(self):
        self.arrays = {name: _freeze(arr) for name, arr in self.arrays.items()}

    def items(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in table order."""
        return list(self.arrays.items())

    def set_array(self, name: str, value: np.ndarray) -> None:
        current = self.arrays[name]
        if current.shape != value.shape:
            raise ShapeError(f"{name}: new shape {value.shape} != {current.shape}")
        self.arrays[name] = _freeze(np.asarray(value, dtype=np.float32))


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Draw all weights from one splittable stream per parameter group."""
    cfg.validate()
    table = param_table(cfg)
    groups = list(dict.fromkeys(name.split(".")[0] for name, _, _ in table))
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(groups))]
    return ModelParams({name: init(rngs[groups.index(name.split(".")[0])], shape)
                        for name, init, shape in table}, seed)


def _group(named: Mapping[str, Any], prefix: str) -> dict[str, Any]:
    """The entries named `prefix.<local>` (leaves or shapes), keyed by local name."""
    return {k[len(prefix) + 1:]: v for k, v in named.items() if k.startswith(prefix + ".")}


# ---------------------------------------------------------------------------
# forward pass


@dataclass
class ForwardPass:
    """Tape outputs of the forward, plus the leaf tensors for backward; a
    tape of B videos gives B*T rows (B rows for class_probs). `stages` holds
    each stage's parts (`<stage>.<part>`), then its output, in pipeline order."""

    leaves: dict[str, ad.Tensor]
    class_probs: ad.Tensor   # (1, n_out), the mode's stages["classifier"]
    event_scores: ad.Tensor  # (T, 1)
    stages: dict[str, ad.Tensor]


def run_forward(tape: ad.Tape, params: ModelParams, audio: np.ndarray,
                visual: np.ndarray, cfg: ModelConfig) -> ForwardPass:
    """Forward the tape's B videos, given as (B*T, d_a) audio and
    (B*T, h, w, d_v) visual with each video's T rows in turn; one video is
    (T, d_a) and (T, h, w, d_v). Read-only f32 features go on the tape
    without a copy, like the params."""
    cfg.validate()
    d = cfg.dims
    rows = tape.videos * d.T
    want = tuple((rows,) + shape[1:] for shape in d.shapes())
    if (audio.shape, visual.shape) != want:
        raise ShapeError(f"features {audio.shape}/{visual.shape} do not match "
                         f"{tape.videos} video(s) of the config's {d.shapes()}")
    leaves = {name: tape.param(arr) for name, arr in params.items()}
    audio_in, visual_in = tape.param(audio), tape.param(visual)
    stages: dict[str, ad.Tensor] = {}

    def record(name: str, out: ad.Tensor, parts: Mapping[str, ad.Tensor]) -> ad.Tensor:
        stages.update((f"{name}.{part}", tensor) for part, tensor in parts.items())
        stages[name] = out
        return out

    motion_feat = motion.motion_feature(visual_in, _group(leaves, "motion"), cfg.motion)
    stages["motion.feature"] = motion_feat

    audio_gated = record("audio_attention", *attention.motion_guided_audio(
        audio_in, motion_feat, leaves["audio_gate.temporal_weight"],
        use_temporal=cfg.temporal_attention))

    gate_leaves = _group(leaves, "visual_gate")
    visual_gated = attention.audio_guided_channel(audio_gated, visual_in, gate_leaves)
    stages["visual_channel"] = visual_gated
    visual_static = record("visual_spatial", *attention.audio_guided_spatial(
        audio_gated, visual_gated, gate_leaves))

    audio_branch, visual_branch = fusion.relation_aware(
        audio_gated, visual_static,
        leaves["streams.audio"], leaves["streams.visual"],
        _group(leaves, "audio_branch"), _group(leaves, "visual_branch"))
    audio_rel = record("relation.audio", *audio_branch)
    visual_rel = record("relation.visual", *visual_branch)

    fused = record("interaction", *fusion.interact(
        audio_rel, visual_rel, leaves["streams.fused"], _group(leaves, "interaction")))

    head_leaves = _group(leaves, "head")
    if cfg.mode == "weak":
        segment_logits = stages["segment_logits"] = heads.per_segment_logits(fused, head_leaves)
        class_probs = heads.weak_class_distribution(segment_logits)
    else:
        class_probs = heads.class_distribution(fused, head_leaves)
    stages["classifier"] = class_probs
    event_scores = stages["event_relevance"] = heads.event_relevance(fused, head_leaves)
    return ForwardPass(leaves, class_probs, event_scores, stages)


def predict(params: ModelParams, cfg: ModelConfig, bundle: FeatureBundle) -> Prediction:
    """Forward one video on a fresh tape and decode.

    Both modes report the forward's video-level distribution. Supervised
    decoding thresholds the relevance score at 0.5 and assigns the video's
    argmax class to every event segment. Weak decoding takes the per-segment
    argmax over C+1 scores (relevance is untrained in weak mode).
    """
    fwd = run_forward(ad.Tape(), params, bundle.audio, bundle.visual, cfg)
    event_scores = fwd.event_scores.data[:, 0].copy()
    probs = fwd.class_probs.data[0].copy()
    decoded = (heads.decode_weak(fwd.stages["segment_logits"].data) if cfg.mode == "weak"
               else heads.decode_supervised(probs, event_scores))
    return Prediction(bundle.video_id, event_scores, probs, decoded)
