"""Feature/label storage and the synthetic planted-event generator.

On-disk layout
--------------
A feature file holds two consecutive blocks, audio first. Each block is:

    magic  b"AVF1"
    rank   little-endian u32
    extent little-endian u32, `rank` of them
    data   product(extents) little-endian f32 values

Audio is (T, d_a) and visual is (T, h, w, d_v). A checkpoint's params.bin
is the same container, one block per parameter. A dataset is a directory of
feature files plus a UTF-8 JSON manifest (paths relative to the manifest)
declaring the shared dimensions and per-video labels.

Structural damage (bad magic, file ending mid-field) raises FormatError;
a block whose header disagrees with the manifest raises ConsistencyError;
non-finite payloads raise DataError.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .errors import (ConfigError, ConsistencyError, ContractError, DataError,
                     FormatError, LabelError)

MAGIC = b"AVF1"
MAX_RANK = 4
MANIFEST_VERSION = "avf-synth-1"
DRIFT_STEP = np.pi / 2  # synth_dataset's rotation of the event pattern per segment
AMPLITUDE = 4.0         # synth_dataset's factor on signal and noise
CLUTTER = 1.0           # synth_dataset's static background frame, relative to the noise
DISTRACTOR_PROB = 0.5   # synth_dataset's chance that a background segment is a distractor


@contextmanager
def synced_open(path: str, mode: str = "w"):
    """`open(path, mode)`, text as UTF-8, whose file is flushed and fsynced
    to disk before it closes; every file avloc writes goes through it."""
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
        yield f
        f.flush()
        os.fsync(f.fileno())


# ---------------------------------------------------------------------------
# domain records


@dataclass
class FeatureBundle:
    """One video's precomputed audio and visual features."""

    audio: np.ndarray   # (T, d_a) f32
    visual: np.ndarray  # (T, h, w, d_v) f32
    video_id: str

    def __post_init__(self):
        self.audio = np.ascontiguousarray(self.audio, dtype=np.float32)
        self.visual = np.ascontiguousarray(self.visual, dtype=np.float32)
        if self.audio.ndim != 2 or self.visual.ndim != 4:
            raise ContractError(
                f"bundle needs audio (T,d_a) and visual (T,h,w,d_v), "
                f"got {self.audio.shape} and {self.visual.shape}")
        if self.audio.shape[0] != self.visual.shape[0]:
            raise ContractError(
                f"audio covers {self.audio.shape[0]} segments but visual "
                f"covers {self.visual.shape[0]}")
        if self.audio.shape[0] < 2:
            raise ContractError("a bundle needs at least 2 segments "
                                "(motion extraction requires a neighbor)")
        if not (np.isfinite(self.audio).all() and np.isfinite(self.visual).all()):
            raise DataError(f"bundle {self.video_id!r} contains non-finite values")


@dataclass
class LabelRecord:
    """Video-level class plus per-segment relevance and class labels.

    `segment_class[t]` equals `video_class` exactly when `segment_relevance[t]`
    is 1 and equals the background index (== class count) otherwise. A video
    with no relevant segment is only legal when its video_class is the
    background index (synthetic negative mode).
    """

    video_class: int
    segment_relevance: np.ndarray  # (T,) in {0,1}
    segment_class: np.ndarray      # (T,) in [0, C]

    def __post_init__(self):
        self.segment_relevance = np.asarray(self.segment_relevance, dtype=np.int64)
        self.segment_class = np.asarray(self.segment_class, dtype=np.int64)

    def validate(self, n_classes: int) -> None:
        rel, seg = self.segment_relevance, self.segment_class
        if rel.shape != seg.shape or rel.ndim != 1:
            raise LabelError(f"label arrays disagree: {rel.shape} vs {seg.shape}")
        if not np.isin(rel, (0, 1)).all():
            raise LabelError("segment_relevance must be 0/1")
        if seg.min() < 0 or seg.max() > n_classes:
            raise LabelError(f"segment_class outside [0, {n_classes}]")
        if not 0 <= self.video_class <= n_classes:
            raise LabelError(f"video_class {self.video_class} outside [0, {n_classes}]")
        if rel.sum() == 0:
            if self.video_class != n_classes:
                raise LabelError("a video with no relevant segment must carry "
                                 "the background class")
        elif self.video_class >= n_classes:
            raise LabelError("an event video cannot carry the background class")
        expected = np.where(rel == 1, self.video_class, n_classes)
        if not (seg == expected).all():
            raise LabelError("segment_class must equal video_class on relevant "
                             "segments and background elsewhere")


@dataclass
class ManifestEntry:
    video_id: str
    path: str
    label: LabelRecord


def dim(default: int, floor: int = 1):
    """An int field that `FeatureDims.validate` holds to at least `floor`."""
    return field(default=default, metadata={"floor": floor})


@dataclass
class FeatureDims:
    """The sizes every video of a dataset shares (desk-scale defaults), in
    the manifest's header order."""

    classes: int = dim(4, floor=2)
    T: int = dim(10, floor=2)  # motion extraction needs a neighbor segment
    d_a: int = dim(32)
    d_v: int = dim(64)
    h: int = dim(3)
    w: int = dim(3)

    def validate(self) -> None:
        """Every `dim` field, subclasses' included, is an int >= its floor."""
        for f in fields(self):
            value, floor = getattr(self, f.name), f.metadata.get("floor")
            if floor is not None and not (_is_int(value) and value >= floor):
                raise ConfigError(f"{type(self).__name__} field {f.name!r} must be "
                                  f"an int >= {floor}, got {value!r}")

    def feature_dims(self) -> dict[str, int]:
        """The FeatureDims fields alone, in header order."""
        return {f.name: getattr(self, f.name) for f in fields(FeatureDims)}

    def shapes(self) -> tuple[tuple[int, int], tuple[int, int, int, int]]:
        """The audio (T, d_a) and visual (T, h, w, d_v) array shapes."""
        return (self.T, self.d_a), (self.T, self.h, self.w, self.d_v)


@dataclass(kw_only=True)
class DatasetManifest(FeatureDims):
    version: str
    entries: list[ManifestEntry] = field(default_factory=list)

    def validate(self) -> None:
        super().validate()
        seen = set()
        for entry in self.entries:
            if entry.video_id in seen:
                raise ConsistencyError(f"duplicate video_id {entry.video_id!r}")
            seen.add(entry.video_id)
            if len(entry.label.segment_relevance) != self.T:
                raise ConsistencyError(
                    f"{entry.video_id}: labels cover "
                    f"{len(entry.label.segment_relevance)} segments, header says {self.T}")
            entry.label.validate(self.classes)

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            **self.feature_dims(),
            "entries": [
                {
                    "video_id": e.video_id,
                    "path": e.path,
                    "video_class": int(e.label.video_class),
                    "segment_relevance": [int(v) for v in e.label.segment_relevance],
                    "segment_class": [int(v) for v in e.label.segment_class],
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=1)


def save_manifest(manifest: DatasetManifest, path: str) -> None:
    manifest.validate()
    with synced_open(path) as f:
        f.write(manifest.to_json())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_path(value) -> bool:
    return isinstance(value, str) and value != "" and "\0" not in value


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _field(path: str, obj: dict, key: str, check, kind: str):
    """obj[key] if `check` accepts it; a FormatError naming the field otherwise."""
    value = obj[key]
    if not check(value):
        raise FormatError(f"{path}: manifest field {key!r} must be {kind}, got {value!r}")
    return value


def read_json(path: str):
    """The file's JSON document; bad UTF-8, bad JSON or too deep a nesting is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (ValueError, RecursionError) as exc:  # decode and parse errors are ValueErrors
        raise FormatError(f"{path}: not valid JSON ({type(exc).__name__}: {exc})") from exc


def load_manifest(path: str) -> DatasetManifest:
    doc = read_json(path)
    try:
        manifest = DatasetManifest(
            version=_field(path, doc, "version", _is_str, "a string"),
            **{f.name: _field(path, doc, f.name, _is_int, "an integer")
               for f in fields(FeatureDims)},
            entries=[
                ManifestEntry(
                    video_id=_field(path, e, "video_id", _is_str, "a string"),
                    path=_field(path, e, "path", _is_path, "a non-empty string without NUL"),
                    label=LabelRecord(
                        video_class=_field(path, e, "video_class", _is_int, "an integer"),
                        segment_relevance=np.array(_field(
                            path, e, "segment_relevance", _is_int_list, "a list of integers")),
                        segment_class=np.array(_field(
                            path, e, "segment_class", _is_int_list, "a list of integers")),
                    ))
                for e in doc["entries"]
            ])
    except KeyError as exc:
        raise FormatError(f"{path}: manifest is missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed manifest ({exc})") from exc
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# binary blocks


def _write_block(f, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    f.write(MAGIC)
    f.write(np.uint32(arr.ndim).astype("<u4").tobytes())
    f.write(np.asarray(arr.shape, dtype="<u4").tobytes())
    f.write(arr.tobytes())


def _read_exact(f, n: int, path: str, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: file ends inside {what}")
    return buf


def _read_block(f, path: str, shape: tuple[int, ...]) -> np.ndarray:
    magic = _read_exact(f, 4, path, "magic bytes")
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    rank = int(np.frombuffer(_read_exact(f, 4, path, "rank"), dtype="<u4")[0])
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"{path}: block rank {rank} outside 1..{MAX_RANK}")
    extents = tuple(
        int(n) for n in np.frombuffer(_read_exact(f, 4 * rank, path, "extents"), dtype="<u4"))
    if any(n < 1 for n in extents):
        raise FormatError(f"{path}: block declares zero extent {extents}")
    if extents != tuple(shape):
        raise ConsistencyError(
            f"{path}: block header declares {extents}, expected {tuple(shape)}")
    count = int(np.prod(extents, dtype=np.int64))
    payload = _read_exact(f, 4 * count, path, f"payload of {count} values")
    return np.frombuffer(payload, dtype="<f4").reshape(extents)  # read-only, no copy


def write_blocks(path: str, arrays: Iterable[np.ndarray]) -> None:
    """Write the arrays as consecutive blocks; synced to disk before returning."""
    with synced_open(path, "wb") as f:
        for arr in arrays:
            _write_block(f, arr)


def read_blocks(path: str, shapes: Iterable[tuple[int, ...]]) -> list[np.ndarray]:
    """The file's blocks, one per shape and each checked against it, with
    nothing after the last."""
    with open(path, "rb") as f:
        arrays = [_read_block(f, path, shape) for shape in shapes]
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after the last block")
    return arrays


def save_bundle(bundle: FeatureBundle, path: str) -> None:
    """Write audio then visual blocks; synced to disk before returning."""
    write_blocks(path, (bundle.audio, bundle.visual))


def load_bundle(path: str, manifest: DatasetManifest, video_id: str = "") -> FeatureBundle:
    """Read one feature file, checking every block against the manifest dims."""
    audio, visual = read_blocks(path, manifest.shapes())
    return FeatureBundle(audio=audio, visual=visual, video_id=video_id)


def load_entry(manifest: DatasetManifest, entry: ManifestEntry, base_dir: str) -> FeatureBundle:
    return load_bundle(os.path.join(base_dir, entry.path), manifest, entry.video_id)


# ---------------------------------------------------------------------------
# synthetic planted-event data


@dataclass
class SynthInfo:
    """Generator-side truth that is not part of the on-disk dataset."""

    audio_prototypes: np.ndarray   # (C, d_a), orthonormal rows
    spans: list[tuple[int, int]]
    distractor_masks: list[np.ndarray]  # (T,) bool per video


def _orthonormal_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    if count > dim:
        raise ContractError(f"cannot draw {count} orthonormal vectors in {dim} dims")
    basis, r = np.linalg.qr(rng.normal(size=(dim, count)))
    basis = basis * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
    return basis.T


def _unit_noise(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """Gaussian noise whose expected vector norm over the trailing feature
    axes is ~`scale` (so snr compares prototype norm to noise norm)."""
    dim = int(np.prod(shape[1:])) if len(shape) > 1 else int(shape[0])
    return rng.normal(0.0, scale / np.sqrt(dim), size=shape)


def synth_dataset(out_dir: str, seed: int, n_videos: int, *, snr: float = 3.0,
                  background_fraction: float = 0.0,
                  **dims: int) -> tuple[DatasetManifest, SynthInfo]:
    """Generate a planted-event dataset and write it under `out_dir`.

    Each video gets a class and an event span. Inside the span the audio is
    the class prototype plus noise and the visual stream is a class-specific
    pattern that drifts (rotates within a 2-plane) from segment to segment, so
    motion extraction has signal. Outside the span both streams are noise
    around a static per-video background frame, except that each background
    segment independently becomes, with DISTRACTOR_PROB, a distractor: the
    audio leaks the class prototype while the visuals stay frozen. Everything
    is deterministic in `seed`.

    `dims` are FeatureDims fields by keyword (its defaults otherwise). Bad
    arguments raise before anything is written.

    `snr` is the ratio of prototype norm to expected noise norm; AMPLITUDE
    scales signal and noise together (it changes activation magnitudes, not
    separability). CLUTTER scales the static background frame relative to
    the noise: clutter makes per-video static visual content dominate pattern
    detection while leaving temporal differences untouched, which is what
    gives motion-based discrimination its edge.
    """
    manifest = DatasetManifest(version=MANIFEST_VERSION,
                               **FeatureDims(**dims).feature_dims())
    manifest.validate()
    if not snr > 0:
        raise ContractError(f"snr must be positive, got {snr}")
    for name, value in (("seed", seed), ("n_videos", n_videos)):
        if not (_is_int(value) and value >= 0):
            raise ContractError(f"{name} must be an int >= 0, got {value!r}")
    if not 0 <= background_fraction <= 1:  # NaN fails both comparisons
        raise ContractError(f"background_fraction must be in [0, 1], got {background_fraction!r}")
    noise_scale = 0.0 if np.isinf(snr) else 1.0 / float(snr)
    classes, T = manifest.classes, manifest.T
    audio_shape, visual_shape = manifest.shapes()
    frame = visual_shape[1:]

    children = np.random.SeedSequence(seed).spawn(n_videos + 1)
    proto_rng = np.random.default_rng(children[0])
    audio_protos = _orthonormal_rows(proto_rng, classes, manifest.d_a)
    visual_patterns = _orthonormal_rows(proto_rng, 2 * classes, int(np.prod(frame))) \
        .reshape(classes, 2, *frame)

    os.makedirs(out_dir, exist_ok=True)
    spans: list[tuple[int, int]] = []
    masks: list[np.ndarray] = []
    for i in range(n_videos):
        rng = np.random.default_rng(children[i + 1])
        is_negative = rng.random() < background_fraction
        cls = int(rng.integers(classes))
        length = int(rng.integers(1, T + 1))
        start = int(rng.integers(0, T - length + 1))
        if is_negative:
            start, length = 0, 0
        end = start + length

        background = _unit_noise(rng, frame, CLUTTER * noise_scale)  # static scene
        audio = _unit_noise(rng, audio_shape, noise_scale)
        visual = background[None] + _unit_noise(rng, visual_shape, noise_scale)
        distractor = np.zeros(T, dtype=bool)
        for t in range(T):
            if start <= t < end:
                angle = DRIFT_STEP * (t - start)
                pattern = (np.cos(angle) * visual_patterns[cls, 0]
                           + np.sin(angle) * visual_patterns[cls, 1])
                audio[t] += audio_protos[cls]
                visual[t] += pattern
            elif rng.random() < DISTRACTOR_PROB:
                distractor[t] = True
                audio[t] += audio_protos[cls]   # leaked event audio
                visual[t] = background          # frozen frame, no fresh jitter

        relevance = np.zeros(T, dtype=np.int64)
        relevance[start:end] = 1
        video_class = classes if is_negative else cls
        label = LabelRecord(
            video_class=video_class,
            segment_relevance=relevance,
            segment_class=np.where(relevance == 1, video_class, classes))
        label.validate(classes)

        video_id = f"vid_{i:04d}"
        path = f"{video_id}.avf"
        bundle = FeatureBundle(audio=(AMPLITUDE * audio).astype(np.float32),
                               visual=(AMPLITUDE * visual).astype(np.float32),
                               video_id=video_id)
        save_bundle(bundle, os.path.join(out_dir, path))
        manifest.entries.append(ManifestEntry(video_id=video_id, path=path, label=label))
        spans.append((start, end))
        masks.append(distractor)

    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest, SynthInfo(audio_prototypes=audio_protos, spans=spans,
                               distractor_masks=masks)


def nearest_prototype_accuracy(manifest: DatasetManifest, base_dir: str,
                               prototypes: np.ndarray) -> float:
    """Classify every relevant segment's audio by maximum prototype dot
    product; the fraction correct bounds what a learned model should reach."""
    hits = total = 0
    for entry in manifest.entries:
        bundle = load_entry(manifest, entry, base_dir)
        for t in range(manifest.T):
            if entry.label.segment_relevance[t] == 1:
                pred = int(np.argmax(prototypes @ bundle.audio[t]))
                hits += pred == entry.label.video_class
                total += 1
    if not total:
        raise ContractError("the manifest has no relevant segment to classify")
    return hits / total
