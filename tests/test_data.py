"""Feature file format, manifest handling, and the synthetic generator."""

import hashlib
import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc.cli import main
from avloc.data import (MAGIC, DatasetManifest, FeatureBundle, LabelRecord,
                        ManifestEntry, load_bundle, load_entry, load_manifest,
                        nearest_prototype_accuracy, save_bundle, save_manifest,
                        synth_dataset)
from avloc.errors import (AvlocError, ConfigError, ConsistencyError,
                          ContractError, DataError, FormatError, LabelError)


def small_manifest(T=4, d_a=3, d_v=2, h=2, w=2, classes=2):
    return DatasetManifest(version="test", classes=classes, T=T, d_a=d_a,
                           d_v=d_v, h=h, w=w)


def random_bundle(rng, manifest, video_id="vid"):
    return FeatureBundle(
        audio=rng.normal(size=(manifest.T, manifest.d_a)).astype(np.float32),
        visual=rng.normal(size=(manifest.T, manifest.h, manifest.w,
                                manifest.d_v)).astype(np.float32),
        video_id=video_id)


# ---------------------------------------------------------------------------
# bundle round trips


def test_save_load_round_trip_is_bit_identical(tmp_path):
    manifest = small_manifest()
    bundle = random_bundle(np.random.default_rng(0), manifest)
    path = str(tmp_path / "v.avf")
    save_bundle(bundle, path)
    loaded = load_bundle(path, manifest, "vid")
    assert loaded.audio.tobytes() == bundle.audio.tobytes()
    assert loaded.visual.tobytes() == bundle.visual.tobytes()


def test_two_saves_produce_identical_bytes(tmp_path):
    manifest = small_manifest()
    bundle = random_bundle(np.random.default_rng(1), manifest)
    p1, p2 = str(tmp_path / "a.avf"), str(tmp_path / "b.avf")
    save_bundle(bundle, p1)
    save_bundle(bundle, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_loaded_bundle_is_read_only_and_goes_on_a_tape_without_a_copy(tmp_path):
    manifest = small_manifest()
    path = str(tmp_path / "v.avf")
    save_bundle(random_bundle(np.random.default_rng(2), manifest), path)
    bundle = load_bundle(path, manifest, "vid")
    assert not bundle.audio.flags.writeable and not bundle.visual.flags.writeable
    assert np.shares_memory(ad.Tape().param(bundle.visual).data, bundle.visual)


def test_golden_bytes_for_seed0_bundle(tmp_path):
    """Byte layout frozen: magic, LE u32 rank+extents, LE f32 payload."""
    audio = np.arange(8, dtype=np.float32).reshape(2, 4)
    visual = np.arange(4, dtype=np.float32).reshape(2, 1, 1, 2) / 2
    save_bundle(FeatureBundle(audio, visual, "g"), str(tmp_path / "g.avf"))
    raw = open(tmp_path / "g.avf", "rb").read()
    expected = (b"AVF1" + np.array([2, 2, 4], dtype="<u4").tobytes()
                + audio.astype("<f4").tobytes()
                + b"AVF1" + np.array([4, 2, 1, 1, 2], dtype="<u4").tobytes()
                + visual.astype("<f4").tobytes())
    assert raw == expected


def test_bundle_with_single_segment_is_rejected():
    with pytest.raises(ContractError):
        FeatureBundle(audio=np.zeros((1, 3)), visual=np.zeros((1, 2, 2, 2)),
                      video_id="x")


def test_bundle_with_nonfinite_values_is_rejected():
    audio = np.zeros((3, 2))
    audio[0, 0] = np.nan
    with pytest.raises(DataError):
        FeatureBundle(audio=audio, visual=np.zeros((3, 2, 2, 2)), video_id="x")


# ---------------------------------------------------------------------------
# corrupt files


def test_bad_magic_is_format_error(tmp_path):
    manifest = small_manifest()
    path = str(tmp_path / "bad.avf")
    save_bundle(random_bundle(np.random.default_rng(2), manifest), path)
    raw = bytearray(open(path, "rb").read())
    raw[0:4] = b"NOPE"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError):
        load_bundle(path, manifest)


def test_truncation_anywhere_is_a_typed_error_never_a_crash(tmp_path):
    manifest = small_manifest()
    path = str(tmp_path / "t.avf")
    save_bundle(random_bundle(np.random.default_rng(3), manifest), path)
    raw = open(path, "rb").read()
    for cut in (0, 2, 5, 9, 14, len(raw) // 2, len(raw) - 1):
        open(path, "wb").write(raw[:cut])
        with pytest.raises(AvlocError):
            load_bundle(path, manifest)


def test_truncated_header_is_format_error(tmp_path):
    manifest = small_manifest()
    path = str(tmp_path / "t.avf")
    save_bundle(random_bundle(np.random.default_rng(4), manifest), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:6])  # mid-rank
    with pytest.raises(FormatError):
        load_bundle(path, manifest)


def test_header_dims_disagreeing_with_manifest_is_consistency_error(tmp_path):
    # header doctored to declare 10x128 while the manifest (and payload) say 10x64
    manifest = DatasetManifest(version="test", classes=2, T=10, d_a=64,
                               d_v=2, h=2, w=2)
    path = str(tmp_path / "d.avf")
    save_bundle(random_bundle(np.random.default_rng(5), manifest), path)
    raw = bytearray(open(path, "rb").read())
    # audio block layout: magic(4) rank(4) T(4) d_a(4); d_a lives at bytes 12..16
    assert np.frombuffer(bytes(raw[12:16]), dtype="<u4")[0] == 64
    raw[12:16] = np.array([128], dtype="<u4").tobytes()
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ConsistencyError):
        load_bundle(path, manifest)


def test_trailing_bytes_are_format_error(tmp_path):
    manifest = small_manifest()
    path = str(tmp_path / "t.avf")
    save_bundle(random_bundle(np.random.default_rng(6), manifest), path)
    with open(path, "ab") as f:
        f.write(b"junk")
    with pytest.raises(FormatError):
        load_bundle(path, manifest)


def test_nonfinite_payload_is_data_error(tmp_path):
    manifest = small_manifest()
    path = str(tmp_path / "n.avf")
    bundle = random_bundle(np.random.default_rng(7), manifest)
    save_bundle(bundle, path)
    raw = bytearray(open(path, "rb").read())
    # overwrite the first audio value with a NaN
    raw[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    open(path, "wb").write(bytes(raw))
    with pytest.raises(DataError):
        load_bundle(path, manifest)


@pytest.mark.parametrize("header, match", [
    ((0,), "rank 0 outside"),
    ((5, 1, 1, 1, 1, 1), "rank 5 outside"),
    ((2, 4, 0), "zero extent"),
], ids=["rank_0", "rank_5", "zero_extent"])
def test_block_header_out_of_range_is_format_error(tmp_path, header, match):
    """A block whose rank is outside 1..4 or that declares a zero extent,
    followed by a valid payload for the manifest's audio shape."""
    manifest = small_manifest()
    path = str(tmp_path / "h.avf")
    save_bundle(random_bundle(np.random.default_rng(8), manifest), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(MAGIC + np.array(header, dtype="<u4").tobytes() + raw[16:])
    with pytest.raises(FormatError, match=match):
        load_bundle(path, manifest)


# ---------------------------------------------------------------------------
# labels and manifests


def test_label_record_invariants():
    LabelRecord(1, np.array([0, 1, 0]), np.array([2, 1, 2])).validate(2)
    with pytest.raises(LabelError):  # relevant segment carries wrong class
        LabelRecord(1, np.array([0, 1, 0]), np.array([2, 0, 2])).validate(2)
    with pytest.raises(LabelError):  # background segment carries a class
        LabelRecord(1, np.array([0, 1, 0]), np.array([1, 1, 2])).validate(2)
    with pytest.raises(LabelError):  # no relevant segment on an event video
        LabelRecord(1, np.array([0, 0, 0]), np.array([2, 2, 2])).validate(2)
    # background-only is legal only with the background video class
    LabelRecord(2, np.array([0, 0, 0]), np.array([2, 2, 2])).validate(2)
    with pytest.raises(LabelError):
        LabelRecord(3, np.array([0, 1, 0]), np.array([2, 3, 2])).validate(2)


def test_manifest_rejects_duplicate_ids(tmp_path):
    manifest = small_manifest()
    label = LabelRecord(0, np.array([1, 1, 1, 1]), np.array([0, 0, 0, 0]))
    manifest.entries = [ManifestEntry("a", "a.avf", label),
                        ManifestEntry("a", "b.avf", label)]
    with pytest.raises(ConsistencyError):
        manifest.validate()


def test_manifest_json_round_trip(tmp_path):
    manifest = small_manifest()
    manifest.entries = [ManifestEntry(
        "a", "a.avf", LabelRecord(0, np.array([1, 1, 0, 0]),
                                  np.array([0, 0, 2, 2])))]
    path = str(tmp_path / "manifest.json")
    save_manifest(manifest, path)
    loaded = load_manifest(path)
    assert loaded.version == manifest.version and loaded.classes == 2
    assert loaded.entries[0].video_id == "a"
    npt.assert_array_equal(loaded.entries[0].label.segment_class, [0, 0, 2, 2])


def _manifest_text(entry=(), **header) -> str:
    """A valid one-video manifest with some header or entry fields replaced."""
    doc = {"version": "x", "classes": 2, "T": 2, "d_a": 1, "d_v": 1, "h": 1, "w": 1,
           **header}
    doc["entries"] = [{"video_id": "a", "path": "a.avf", "video_class": 0,
                       "segment_relevance": [1, 0], "segment_class": [0, 2],
                       **dict(entry)}]
    return json.dumps(doc)


GARBAGE_MANIFESTS = {  # case -> (manifest text, what the error must name)
    "not_json": ("{not json", "JSON"),
    "missing_fields": (json.dumps({"version": "x"}), "classes"),
    "string_T": (_manifest_text(T="4"), "'T'"),
    "float_classes": (_manifest_text(classes=2.0), "'classes'"),
    "bool_h": (_manifest_text(h=True), "'h'"),
    "string_video_class": (_manifest_text({"video_class": "1"}), "'video_class'"),
    "string_relevance": (_manifest_text({"segment_relevance": ["a", "b"]}),
                         "'segment_relevance'"),
    "float_segment_class": (_manifest_text({"segment_class": [0.0, 2.0]}),
                            "'segment_class'"),
    "int_path": (_manifest_text({"path": 3}), "'path'"),
    "int_video_id": (_manifest_text({"video_id": 7}), "'video_id'"),
    "entries_not_a_list": (json.dumps({**json.loads(_manifest_text()), "entries": 3}),
                           "malformed"),
    "label_beyond_int64": (_manifest_text({"segment_class": [10**30, 2]}), "malformed"),
    "int_version": (_manifest_text(version=3), "'version'"),
    "null_version": (_manifest_text(version=None), "'version'"),
    "nul_in_path": (_manifest_text({"path": "vid\u0000.avf"}), "'path'"),
    "empty_path": (_manifest_text({"path": ""}), "'path'"),
    "invalid_utf8": (b'{"version": "\xff"}', "JSON"),
    "nested_too_deep": ("[" * 100_000, "JSON"),
    "int_beyond_the_digit_limit": ('{"classes": ' + "9" * 5000 + "}", "JSON"),
}


@pytest.mark.parametrize("case", list(GARBAGE_MANIFESTS))
def test_manifest_garbage_is_format_error(tmp_path, case):
    text, names = GARBAGE_MANIFESTS[case]
    path = str(tmp_path / "manifest.json")
    open(path, "wb").write(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(FormatError, match=names):
        load_manifest(path)
    assert main(["train", "--manifest", path, "--out", str(tmp_path / "run")]) == 2


BAD_LABELS = {  # case -> (entry fields, error, what the error must name)
    "labels_shorter_than_T": ({"segment_relevance": [1], "segment_class": [0]},
                              ConsistencyError, "cover 1 segments"),
    "label_arrays_of_unequal_length": ({"segment_class": [0, 2, 2]},
                                       LabelError, "disagree"),
    "relevance_outside_0_1": ({"segment_relevance": [2, 0]}, LabelError, "0/1"),
    "class_outside_0_C": ({"segment_class": [0, 3]}, LabelError,
                          r"segment_class outside \[0, 2\]"),
    "event_video_of_the_background_class": (
        {"video_class": 2, "segment_class": [2, 2]}, LabelError, "event video cannot carry"),
}


@pytest.mark.parametrize("case", list(BAD_LABELS))
def test_manifest_with_bad_labels_is_a_typed_error(tmp_path, case):
    entry, error, match = BAD_LABELS[case]
    path = str(tmp_path / "manifest.json")
    open(path, "w").write(_manifest_text(entry))
    with pytest.raises(error, match=match):
        load_manifest(path)
    assert main(["train", "--manifest", path, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("field,value", [("classes", 1), ("T", 1), ("d_a", 0)])
def test_manifest_dims_below_their_floor_are_config_errors(tmp_path, field, value):
    path = str(tmp_path / "manifest.json")
    open(path, "w").write(_manifest_text(**{field: value}))
    with pytest.raises(ConfigError, match=f"'{field}'"):
        load_manifest(path)
    assert main(["train", "--manifest", path, "--out", str(tmp_path / "run")]) == 2


# ---------------------------------------------------------------------------
# synthetic generator


def test_same_seed_gives_byte_identical_dataset(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    synth_dataset(d1, seed=3, n_videos=4, T=5)
    synth_dataset(d2, seed=3, n_videos=4, T=5)
    for name in sorted(os.listdir(d1)):
        assert open(os.path.join(d1, name), "rb").read() == \
            open(os.path.join(d2, name), "rb").read(), name


def test_default_dataset_bytes_are_pinned(tmp_path):
    """sha256 over every file's name and bytes, in name order. At desk dims
    the digest is the same under 1 and 2 OpenBLAS threads."""
    synth_dataset(str(tmp_path), seed=0, n_videos=6)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(tmp_path)):
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert len(os.listdir(tmp_path)) == 7  # the manifest and six feature files
    assert digest.hexdigest() == \
        "3932e0576322e2a1ef239432cbad8c6913710f649c6ace9d0c71711fe53bc2d7"


def test_generated_dataset_is_self_consistent(tmp_path):
    manifest, _ = synth_dataset(str(tmp_path), seed=0, n_videos=6)
    for entry in manifest.entries:
        load_entry(manifest, entry, str(tmp_path))
    reloaded = load_manifest(str(tmp_path / "manifest.json"))
    assert len(reloaded.entries) == 6


def test_nearest_prototype_is_perfect_without_noise(tmp_path):
    manifest, info = synth_dataset(str(tmp_path), seed=1, n_videos=12,
                                   snr=float("inf"))
    assert nearest_prototype_accuracy(manifest, str(tmp_path),
                                      info.audio_prototypes) == 1.0


@pytest.mark.parametrize("n_videos, background_fraction", [(6, 1.0), (0, 0.0)],
                         ids=["all_background", "no_videos"])
def test_nearest_prototype_rejects_a_manifest_with_no_relevant_segment(
        tmp_path, n_videos, background_fraction):
    """With nothing to classify there is no accuracy, not an accuracy of 0."""
    manifest, info = synth_dataset(str(tmp_path), seed=1, n_videos=n_videos,
                                   background_fraction=background_fraction)
    with pytest.raises(ContractError, match="no relevant segment"):
        nearest_prototype_accuracy(manifest, str(tmp_path), info.audio_prototypes)


def test_full_span_video_marks_every_segment_relevant(tmp_path):
    manifest, info = synth_dataset(str(tmp_path), seed=2, n_videos=40, T=4)
    full = [i for i, (s, e) in enumerate(info.spans) if (s, e) == (0, 4)]
    assert full, "seeded run should produce at least one full-span video"
    for i in full:
        label = manifest.entries[i].label
        assert label.segment_relevance.sum() == 4
        npt.assert_array_equal(label.segment_class,
                               np.full(4, label.video_class))


def test_distractor_segments_leak_audio_but_stay_irrelevant(tmp_path):
    manifest, info = synth_dataset(str(tmp_path), seed=4, n_videos=16)
    base = str(tmp_path)
    found = 0
    for entry, mask in zip(manifest.entries, info.distractor_masks):
        bundle = load_entry(manifest, entry, base)
        proto = info.audio_prototypes[entry.label.video_class]
        for t in np.flatnonzero(mask):
            found += 1
            assert entry.label.segment_relevance[t] == 0
            # leaked audio aligns with the class prototype like a real event
            assert bundle.audio[t] @ proto > 2.0
    assert found > 10


def test_distractor_visuals_are_static(tmp_path):
    manifest, info = synth_dataset(str(tmp_path), seed=5, n_videos=16)
    for entry, mask, (s, e) in zip(manifest.entries, info.distractor_masks,
                                   info.spans):
        if mask.sum() < 2:
            continue
        bundle = load_entry(manifest, entry, str(tmp_path))
        t1, t2 = np.flatnonzero(mask)[:2]
        # two distractor segments share the frozen background frame exactly
        npt.assert_array_equal(bundle.visual[t1], bundle.visual[t2])
        return
    pytest.fail("no video with two distractor segments in this seeded run")


def test_event_visuals_drift_inside_the_span(tmp_path):
    manifest, info = synth_dataset(str(tmp_path), seed=6, n_videos=20,
                                   snr=float("inf"))
    for entry, (s, e) in zip(manifest.entries, info.spans):
        if e - s >= 2:
            bundle = load_entry(manifest, entry, str(tmp_path))
            step = np.linalg.norm(bundle.visual[s + 1] - bundle.visual[s])
            assert step > 0.5
            return
    pytest.fail("no multi-segment span in this seeded run")


def test_background_fraction_produces_valid_negative_videos(tmp_path):
    manifest, _ = synth_dataset(str(tmp_path), seed=7, n_videos=30,
                                background_fraction=0.5)
    negatives = [e for e in manifest.entries
                 if e.label.segment_relevance.sum() == 0]
    assert negatives
    for entry in negatives:
        assert entry.label.video_class == manifest.classes
    for entry in manifest.entries:
        load_entry(manifest, entry, str(tmp_path))


@pytest.mark.parametrize("bad", [
    dict(seed=1.5), dict(seed=True), dict(seed=-1), dict(n_videos=2.5), dict(n_videos=-1),
    dict(background_fraction=2.0), dict(background_fraction=float("nan")),
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_generator_rejects_bad_arguments_before_writing(tmp_path, bad):
    out = str(tmp_path / "out")
    with pytest.raises(ContractError, match=next(iter(bad))):
        synth_dataset(out, **{"seed": 0, "n_videos": 2, **bad})
    assert not os.path.exists(out)


def test_generator_rejects_bad_dims(tmp_path):
    out = str(tmp_path / "out")
    with pytest.raises(ConfigError):
        synth_dataset(out, seed=0, n_videos=2, classes=1)
    with pytest.raises(ConfigError):
        synth_dataset(out, seed=0, n_videos=2, T=1)
    assert not os.path.exists(out)
