"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import os
import time

import numpy as np
import pytest

from avloc import autodiff as ad
from avloc import attention, gradcheck, heads, motion
from avloc.cli import main
from avloc.data import FeatureBundle, load_bundle, save_bundle, synth_dataset
from avloc.data import nearest_prototype_accuracy
from avloc.errors import AvlocError
from avloc.model import ModelConfig, init_params, run_forward
from avloc.training import (TrainConfig, ablate, evaluate, load_checkpoint,
                            train)

GRADIENT_TIME_BUDGET_S = 120.0
LEARNABILITY_TIME_BUDGET_S = 300.0
LEARNABILITY_TARGET = 0.95
ABLATION_MARGIN = 0.005  # pfme may trail no-motion by at most half a point
GRADCHECK_NAMES = os.path.join(os.path.dirname(__file__), "golden", "gradcheck_names.txt")


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}", flush=True)


def test_acceptance_gradient_suite():
    started = time.perf_counter()
    results = gradcheck.run()
    elapsed = time.perf_counter() - started
    failed = [r for r in results if not r.passed]
    with open(GRADCHECK_NAMES, encoding="utf-8") as f:
        same_checks = [r.name for r in results] == f.read().splitlines()
    ok = not failed and same_checks and elapsed < GRADIENT_TIME_BUDGET_S
    report("gradient-suite", ok,
           f"{len(results)} checks, {len(failed)} failed, {elapsed:.1f}s, "
           f"names match the golden list: {same_checks}")
    for r in failed:
        print("  ", r.line())
    assert ok


def test_acceptance_closed_form_invariants():
    cfg = ModelConfig()
    d = cfg.dims
    failures = []
    for draw in range(20):
        params = init_params(cfg, seed=1000 + draw)
        rng = np.random.default_rng(2000 + draw)
        audio = rng.normal(size=(d.T, d.d_a)).astype(np.float32)
        visual = rng.normal(size=(d.T, d.h, d.w, d.d_v)).astype(np.float32)

        tape = ad.Tape()
        aligned = motion.align_channels(tape.leaf(visual),
                                        tape.leaf(params.arrays["motion.align_kernel"]))
        future_kernel = tape.leaf(params.arrays["motion.future_kernel"])
        fused = motion.past_future_motion(
            aligned, tape.leaf(params.arrays["motion.past_kernel"]), future_kernel)
        future = motion.future_motion(aligned, future_kernel)
        # the past's first row is zero if adding it leaves the future's bits
        if not (fused.data[0].tobytes() == future.data[0].tobytes()
                and np.all(future.data[-1] == 0.0)):
            failures.append(f"draw {draw}: boundary rows not exactly zero")

        # static scene + identity temporal kernels -> null motion
        eye = np.zeros((3, 3, d.d_a, d.d_a), dtype=np.float32)
        eye[1, 1] = np.eye(d.d_a, dtype=np.float32)
        static = np.broadcast_to(visual[:1], visual.shape).copy()
        t2 = ad.Tape()
        aligned2 = motion.align_channels(t2.leaf(static),
                                         t2.leaf(params.arrays["motion.align_kernel"]))
        fused2 = motion.past_future_motion(aligned2, t2.leaf(eye), t2.leaf(eye))
        feat = motion.fuse_and_pool(fused2, t2.leaf(params.arrays["motion.out_map"]))
        if np.abs(feat.data).max() >= 1e-6:
            failures.append(f"draw {draw}: static-scene motion {np.abs(feat.data).max():.2e}")

        # zero-motion closed form of the audio gate
        t3 = ad.Tape()
        gated, _ = attention.motion_guided_audio(
            t3.leaf(audio), t3.zeros((d.T, d.d_a)),
            t3.leaf(params.arrays["audio_gate.temporal_weight"]))
        expected = 1.5 * (1.0 + 1.0 / d.T) * audio
        if np.abs(gated.data - expected).max() >= 1e-6:
            failures.append(f"draw {draw}: zero-motion closed form")

        # full forward: attention rows normalized, shapes, threshold decoding
        t4 = ad.Tape()
        fwd = run_forward(t4, params, audio, visual, cfg)
        if fwd.stages["visual_spatial"].shape != (d.T, d.d_v):
            failures.append(f"draw {draw}: spatial output shape")
        if fwd.stages["interaction"].shape != (d.T, 2 * d.relation):
            failures.append(f"draw {draw}: fused shape")
        probs = fwd.class_probs.data
        if probs.min() < 0 or abs(probs.sum() - 1.0) >= 1e-6:
            failures.append(f"draw {draw}: class distribution not normalized")

        weights = ad.softmax(ad.matmul(t4.leaf(rng.normal(size=(d.T, d.relation))),
                                       t4.leaf(rng.normal(size=(d.relation, 2 * d.T)))),
                             axis=1)
        row_sums = weights.data.sum(axis=1)
        if (weights.data < 0).any() or np.abs(row_sums - 1.0).max() >= 1e-6:
            failures.append(f"draw {draw}: softmax rows not normalized")

        scores = rng.uniform(size=d.T)
        scores[0] = 0.5  # boundary decodes to background
        decoded = heads.decode_supervised(probs[0], scores)
        want = np.where(scores > 0.5, int(np.argmax(probs[0])), d.classes)
        if not np.array_equal(decoded, want) or decoded[0] != d.classes:
            failures.append(f"draw {draw}: threshold decoding")

    ok = not failures
    report("closed-form-invariants", ok, f"20 draws, {len(failures)} failures")
    for f in failures[:10]:
        print("  ", f)
    assert ok


@pytest.mark.slow
def test_acceptance_learnability(tmp_path):
    base = str(tmp_path / "default")
    manifest, info = synth_dataset(base, seed=0, n_videos=64, T=10, d_a=32,
                                   d_v=64, h=3, w=3, classes=4, snr=3.0)
    oracle = nearest_prototype_accuracy(manifest, base, info.audio_prototypes)
    cfg = TrainConfig(epochs=200, batch_size=32, learning_rate=5e-4, seed=0)
    params, result = train(cfg, manifest, base)
    ok = (oracle >= LEARNABILITY_TARGET
          and result.accuracy >= LEARNABILITY_TARGET
          and result.wall_time_s < LEARNABILITY_TIME_BUDGET_S)
    report("learnability", ok,
           f"oracle {oracle:.3f}, train accuracy {result.accuracy:.3f}, "
           f"{result.wall_time_s:.0f}s")
    assert oracle >= LEARNABILITY_TARGET, "nearest-prototype oracle below target"
    assert result.accuracy >= LEARNABILITY_TARGET
    assert result.wall_time_s < LEARNABILITY_TIME_BUDGET_S


@pytest.mark.slow
def test_acceptance_directional_ablation(tmp_path):
    # Trend check, not a reproduction of reported deltas: the best-configured
    # past+future-motion variant must not trail the no-motion baseline by
    # more than half a point of mean held-out segment accuracy (whether the
    # temporal-attention stage helps or hurts is setting-dependent even in
    # the source results, so the claim is about the motion family).
    base = str(tmp_path / "distractor")
    manifest, _ = synth_dataset(base, seed=7, n_videos=96, snr=2.0)
    table = ablate(TrainConfig(epochs=80), manifest, base, seeds=[1, 2, 3, 4, 5])
    summary = table.summary()
    rows = {r.variant for r in table.rows}
    full_table = len(rows) == 4 and len(table.rows) == 20
    pfme = max(summary["pfme_w_temporal_attention"]["mean"],
               summary["pfme_wo_temporal_attention"]["mean"])
    baseline = summary["no_motion"]["mean"]
    trend = pfme >= baseline - ABLATION_MARGIN
    ok = full_table and trend
    detail = ", ".join(f"{v} {s['mean']:.3f}+/-{s['sd']:.3f}"
                       for v, s in summary.items())
    report("directional-ablation", ok, detail)
    print(table.to_csv())
    assert full_table
    assert trend, (pfme, baseline)


def test_acceptance_determinism(tmp_path):
    base = str(tmp_path / "det")
    synth_dataset(base, seed=3, n_videos=16)
    manifest_path = os.path.join(base, "manifest.json")
    flags = ["train", "--manifest", manifest_path, "--mode", "supervised",
             "--epochs", "8", "--batch", "8", "--lr", "5e-4", "--seed", "42",
             "--motion", "pfme", "--temporal-attention", "on"]
    reports = []
    for run_dir in (str(tmp_path / "run1"), str(tmp_path / "run2")):
        assert main(flags + ["--out", run_dir]) == 0
        reports.append(json.load(open(os.path.join(run_dir, "report.json"))))
    same_losses = reports[0]["losses"] == reports[1]["losses"]
    same_accuracy = reports[0]["accuracy"] == reports[1]["accuracy"]

    params, model_cfg = load_checkpoint(str(tmp_path / "run1" / "checkpoint"))
    from avloc.data import load_manifest
    manifest = load_manifest(manifest_path)
    acc_depot, _, preds_a = evaluate(params, model_cfg, manifest, base)
    params2, cfg2 = load_checkpoint(str(tmp_path / "run1" / "checkpoint"))
    acc_roundtrip, _, preds_b = evaluate(params2, cfg2, manifest, base)
    same_eval = (acc_depot == acc_roundtrip == reports[0]["accuracy"]
                 and all(a.to_record() == b.to_record()
                         for a, b in zip(preds_a, preds_b)))
    ok = same_losses and same_accuracy and same_eval
    report("determinism", ok,
           f"losses identical: {same_losses}, accuracy identical: {same_accuracy}, "
           f"checkpoint replay identical: {same_eval}")
    assert ok


def test_acceptance_format_conformance(tmp_path):
    failures = []
    rng = np.random.default_rng(0)
    from avloc.data import DatasetManifest
    manifest = DatasetManifest(version="acc", classes=2, T=6, d_a=8, d_v=4,
                               h=2, w=2)
    bundle = FeatureBundle(
        audio=rng.normal(size=(6, 8)).astype(np.float32),
        visual=rng.normal(size=(6, 2, 2, 4)).astype(np.float32), video_id="acc")
    path = str(tmp_path / "acc.avf")
    save_bundle(bundle, path)
    loaded = load_bundle(path, manifest, "acc")
    if (loaded.audio.tobytes() != bundle.audio.tobytes()
            or loaded.visual.tobytes() != bundle.visual.tobytes()):
        failures.append("feature round trip not bit-exact")

    raw = open(path, "rb").read()
    for cut in (1, 3, 7, 11, 20, len(raw) - 3):
        open(path, "wb").write(raw[:cut])
        try:
            load_bundle(path, manifest, "acc")
            failures.append(f"truncation at {cut} not rejected")
        except AvlocError:
            pass
        except Exception as exc:  # noqa: BLE001 - the criterion is "typed, never crashes"
            failures.append(f"truncation at {cut} crashed with {type(exc).__name__}")
    corrupted = bytearray(raw)
    corrupted[0:4] = b"EVIL"
    open(path, "wb").write(bytes(corrupted))
    try:
        load_bundle(path, manifest, "acc")
        failures.append("bad magic not rejected")
    except AvlocError:
        pass

    # checkpoint round trip
    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    from avloc.training import save_checkpoint
    c1, c2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    save_checkpoint(c1, params, cfg)
    save_checkpoint(c2, params, cfg)
    if open(os.path.join(c1, "params.bin"), "rb").read() != \
            open(os.path.join(c2, "params.bin"), "rb").read():
        failures.append("checkpoint bytes not deterministic")
    reloaded, _ = load_checkpoint(c1)
    for (name, a), (_, b) in zip(params.items(), reloaded.items()):
        if a.tobytes() != b.tobytes():
            failures.append(f"checkpoint round trip changed {name}")
            break
    bin_path = os.path.join(c1, "params.bin")
    blob = open(bin_path, "rb").read()
    open(bin_path, "wb").write(blob[: len(blob) // 3])
    try:
        load_checkpoint(c1)
        failures.append("truncated checkpoint not rejected")
    except AvlocError:
        pass

    ok = not failures
    report("format-conformance", ok, f"{len(failures)} failures")
    for f in failures:
        print("  ", f)
    assert ok
