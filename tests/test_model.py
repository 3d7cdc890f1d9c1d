"""Model assembly: shape trace, forced closed forms, toggle isolation,
deterministic init, frozen forward replay."""

import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc import heads
from avloc.data import FeatureBundle
from avloc.errors import ConfigError, ShapeError
from avloc.model import (Dims, ModelConfig, init_params, predict, run_forward)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def default_bundle(seed=0, cfg=None):
    cfg = cfg or ModelConfig()
    d = cfg.dims
    rng = np.random.default_rng(seed)
    return FeatureBundle(audio=rng.normal(size=(d.T, d.d_a)).astype(np.float32),
                         visual=rng.normal(size=(d.T, d.h, d.w, d.d_v)).astype(np.float32),
                         video_id=f"seed{seed}")


def test_shape_trace_through_the_whole_pipeline():
    cfg = ModelConfig()  # T=10, d_a=32, d_v=64, h=w=3, relation=64
    params = init_params(cfg, seed=0)
    bundle = default_bundle(0, cfg)
    tape = ad.Tape()
    fwd = run_forward(tape, params, bundle.audio, bundle.visual, cfg)
    assert fwd.fused.shape == (10, 128)
    assert fwd.event_scores.shape == (10, 1)
    assert fwd.class_probs.shape == (1, 4)
    pred = predict(params, cfg, bundle)
    assert pred.event_scores.shape == (10,)
    assert pred.class_probs.shape == (4,)
    npt.assert_allclose(pred.class_probs.sum(), 1.0, atol=1e-6)


def test_motion_off_and_temporal_off_scales_audio_by_exactly_1_5():
    cfg = ModelConfig(motion="off", temporal_attention=False)
    params = init_params(cfg, seed=1)
    bundle = default_bundle(1, cfg)
    tape = ad.Tape()
    fwd = run_forward(tape, params, bundle.audio, bundle.visual, cfg)
    expected = np.float32(1.5) * bundle.audio
    npt.assert_array_equal(fwd.stages["audio_attention"].data, expected)


def test_motion_off_with_temporal_on_gives_the_uniform_closed_form():
    cfg = ModelConfig(motion="off", temporal_attention=True)
    params = init_params(cfg, seed=2)
    bundle = default_bundle(2, cfg)
    tape = ad.Tape()
    fwd = run_forward(tape, params, bundle.audio, bundle.visual, cfg)
    T = cfg.dims.T
    npt.assert_allclose(fwd.stages["audio_attention"].data,
                        1.5 * (1.0 + 1.0 / T) * bundle.audio, atol=1e-5)


def test_motion_off_sends_exactly_zero_gradient_to_motion_params():
    cfg = ModelConfig(motion="off")
    params = init_params(cfg, seed=3)
    bundle = default_bundle(3, cfg)
    tape = ad.Tape()
    fwd = run_forward(tape, params, bundle.audio, bundle.visual, cfg)
    loss = heads.supervised_loss(fwd.class_probs, fwd.event_scores, 0,
                                 np.ones(cfg.dims.T, dtype=int))
    names = list(fwd.leaves.keys())
    grads = dict(zip(names, tape.backward(loss, fwd.leaf_list())))
    for name, g in grads.items():
        if name.startswith("motion."):
            assert np.all(g == 0.0), name
        elif name.startswith(("streams.", "head.")):
            assert np.any(g != 0.0), name


def test_future_only_mode_ignores_the_past_kernel():
    cfg = ModelConfig(motion="future_only")
    params = init_params(cfg, seed=4)
    bundle = default_bundle(4, cfg)
    tape = ad.Tape()
    fwd = run_forward(tape, params, bundle.audio, bundle.visual, cfg)
    loss = heads.supervised_loss(fwd.class_probs, fwd.event_scores, 1,
                                 np.ones(cfg.dims.T, dtype=int))
    names = list(fwd.leaves.keys())
    grads = dict(zip(names, tape.backward(loss, fwd.leaf_list())))
    assert np.all(grads["motion.past_kernel"] == 0.0)
    assert np.any(grads["motion.future_kernel"] != 0.0)

    # and the prediction differs from full motion with the same weights
    full = predict(params, ModelConfig(motion="pfme"), bundle)
    future_only = predict(params, cfg, bundle)
    assert not np.array_equal(full.event_scores, future_only.event_scores)


def test_temporal_attention_toggle_changes_only_through_the_audio_gate():
    cfg_on = ModelConfig(temporal_attention=True)
    cfg_off = ModelConfig(temporal_attention=False)
    params = init_params(cfg_on, seed=5)
    bundle = default_bundle(5, cfg_on)
    tape_on, tape_off = ad.Tape(), ad.Tape()
    fwd_on = run_forward(tape_on, params, bundle.audio, bundle.visual, cfg_on)
    fwd_off = run_forward(tape_off, params, bundle.audio, bundle.visual, cfg_off)
    npt.assert_array_equal(fwd_on.stages["motion.feature"].data,
                           fwd_off.stages["motion.feature"].data)
    assert not np.array_equal(fwd_on.stages["audio_attention"].data,
                              fwd_off.stages["audio_attention"].data)


def test_weak_mode_adds_a_background_column():
    cfg = ModelConfig(mode="weak")
    params = init_params(cfg, seed=6)
    assert params.arrays["head.class_weight"].shape == (128, 5)
    bundle = default_bundle(6, cfg)
    pred = predict(params, cfg, bundle)
    assert pred.class_probs.shape == (5,)
    npt.assert_allclose(pred.class_probs.sum(), 1.0, atol=1e-6)
    assert set(np.unique(pred.decoded)) <= set(range(5))


def test_supervised_decode_matches_threshold_rule():
    cfg = ModelConfig()
    params = init_params(cfg, seed=7)
    bundle = default_bundle(7, cfg)
    pred = predict(params, cfg, bundle)
    label = int(np.argmax(pred.class_probs))
    for t in range(cfg.dims.T):
        expected = label if pred.event_scores[t] > 0.5 else cfg.dims.classes
        assert pred.decoded[t] == expected


def test_init_is_bitwise_reproducible_and_seed_sensitive():
    cfg = ModelConfig()
    a = init_params(cfg, seed=11)
    b = init_params(cfg, seed=11)
    c = init_params(cfg, seed=12)
    for (name_a, arr_a), (_, arr_b), (_, arr_c) in zip(a.items(), b.items(), c.items()):
        assert arr_a.tobytes() == arr_b.tobytes(), name_a
    assert any(x.tobytes() != y.tobytes()
               for (_, x), (_, y) in zip(a.items(), c.items()))


def test_bad_configs_are_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(mode="semi").validate()
    with pytest.raises(ConfigError):
        ModelConfig(motion="sometimes").validate()
    with pytest.raises(ConfigError):
        ModelConfig(dims=Dims(T=1)).validate()


def test_feature_dims_must_match_config():
    cfg = ModelConfig()
    params = init_params(cfg, seed=8)
    with pytest.raises(ShapeError):
        run_forward(ad.Tape(), params, np.zeros((10, 16), dtype=np.float32),
                    np.zeros((10, 3, 3, 64), dtype=np.float32), cfg)


def test_forward_replays_the_frozen_golden_prediction():
    """Self-golden determinism oracle: seed-0 params on the seed-0 bundle must
    reproduce the frozen prediction bit-for-bit (f32 values round-trip exactly
    through the JSON snapshot)."""
    path = os.path.join(GOLDEN, "forward_seed0.json")
    golden = json.load(open(path))
    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    pred = predict(params, cfg, default_bundle(0, cfg))
    assert pred.to_record() == golden
