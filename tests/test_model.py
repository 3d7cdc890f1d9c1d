"""Model assembly: shape trace, forced closed forms, toggle isolation,
deterministic init, frozen forward replay."""

import json
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    assert fwd.stages["interaction"].shape == (10, 128)
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
    grads = dict(zip(fwd.leaves, tape.backward(loss, list(fwd.leaves.values()))))
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
    grads = dict(zip(fwd.leaves, tape.backward(loss, list(fwd.leaves.values()))))
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
    one_video = default_bundle(8, cfg)
    with pytest.raises(ShapeError, match="2 video"):
        run_forward(ad.Tape(videos=2), params, one_video.audio, one_video.visual, cfg)


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


def test_weak_forward_replays_the_frozen_golden_prediction():
    """The weak-mode oracle: seed-0 weak params on the seed-0 bundle must
    reproduce the frozen time-aggregated distribution and per-segment
    decoding bit-for-bit."""
    golden = json.load(open(os.path.join(GOLDEN, "forward_seed0_weak.json")))
    cfg = ModelConfig(mode="weak")
    pred = predict(init_params(cfg, seed=0), cfg, default_bundle(0, cfg))
    assert pred.to_record() == golden


def _per_row_block_conv(X, K):
    """conv2d's forward as one product per (tap, t, i) over the w columns of
    the zero-padded input, with the taps summed in (di, dj) order."""
    T, h, w, c_in = X.shape
    k = K.shape[0]
    pad = k // 2
    Xp = np.zeros((T, h + 2 * pad, w + 2 * pad, c_in), dtype=X.dtype)
    Xp[:, pad:pad + h, pad:pad + w] = X
    out = np.zeros((T, h, w, K.shape[3]), dtype=X.dtype)
    for di in range(k):
        for dj in range(k):
            out += Xp[:, di:di + h, dj:dj + w] @ K[di, dj]
    return out


def test_golden_forward_convs_match_the_per_row_block_computation(monkeypatch):
    """Each conv of the golden forward gives the bits of a product per window
    row. The one-output-channel spatial score map is the conv whose bits a
    single product over all T*h*w rows changes (numpy's GEMV sums depend on
    the row count), and with them forward_seed0.json. The convs are recorded
    at the forward helper that conv2d and the fused motion op share."""
    seen = []
    conv_forward = ad._conv_forward

    def recording(X, K):
        out = conv_forward(X, K)
        seen.append((X, K, out))
        return out

    monkeypatch.setattr(ad, "_conv_forward", recording)
    cfg = ModelConfig()
    predict(init_params(cfg, seed=0), cfg, default_bundle(0, cfg))
    assert sorted(K.shape for _, K, _ in seen) == sorted(
        [(1, 1, 64, 32), (3, 3, 32, 32), (3, 3, 32, 32), (1, 1, 64, 64),
         (1, 1, 64, 64), (1, 1, 64, 64), (1, 1, 64, 1)])
    for X, K, out in seen:
        assert out.tobytes() == _per_row_block_conv(X, K).tobytes(), K.shape


def _padded_grid_input_grad(g, K, h, w):
    """conv2d's input gradient as every tap's product added into a grid
    with a k // 2 zero border at offset (di, dj); the interior is the result."""
    T, c_out = g.shape[0], K.shape[3]
    k = K.shape[0]
    pad = k // 2
    g_rows = g.reshape(-1, c_out)
    if k == 1:
        return (g_rows @ K[0, 0].T).reshape(T, h, w, -1)
    grid = np.zeros((T, h + 2 * pad, w + 2 * pad, K.shape[2]), dtype=g.dtype)
    for di in range(k):
        for dj in range(k):
            grid[:, di:di + h, dj:dj + w] += (g_rows @ K[di, dj].T).reshape(T, h, w, -1)
    return grid[:, pad:pad + h, pad:pad + w]


def _window_kernel_grad(X, g, k):
    """conv2d's kernel gradient as one product per tap over a contiguous
    copy of the window of the zero-padded input under it. Where a reshape
    can view the window in place (w = c_in = 1), numpy multiplies the
    strided view by another path than a contiguous product, with other
    bits."""
    T, h, w, c_in = X.shape
    pad = k // 2
    Xp = np.zeros((T, h + 2 * pad, w + 2 * pad, c_in), dtype=X.dtype)
    Xp[:, pad:pad + h, pad:pad + w] = X
    g_rows = g.reshape(-1, g.shape[3])
    gk = np.empty((k, k, c_in, g.shape[3]), dtype=X.dtype)
    for di in range(k):
        for dj in range(k):
            window = np.ascontiguousarray(Xp[:, di:di + h, dj:dj + w].reshape(-1, c_in))
            gk[di, dj] = window.T @ g_rows
    return gk


def _signed_zero_normal(rng, shape):
    """f32 normal draws with about a quarter of them +0.0 or -0.0, the
    zeros a ReLU's gradient and the GEMMs' sign rules work on."""
    a = rng.normal(size=shape).astype(np.float32)
    zero = rng.random(shape) < 0.25
    a[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return a


@given(T=st.integers(1, 5), h=st.integers(1, 5), w=st.integers(1, 5),
       k=st.sampled_from([1, 3, 5]), c_in=st.sampled_from([1, 2, 5]),
       c_out=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2**32 - 1))
@example(T=320, h=3, w=3, k=3, c_in=1, c_out=32, seed=1)
@example(T=20, h=7, w=7, k=1, c_in=512, c_out=1, seed=3)
@example(T=320, h=3, w=3, k=1, c_in=64, c_out=32, seed=4)
@example(T=320, h=3, w=3, k=1, c_in=64, c_out=64, seed=5)
@example(T=320, h=3, w=3, k=1, c_in=64, c_out=1, seed=6)
@example(T=1, h=1, w=5, k=3, c_in=5, c_out=1, seed=1)
def test_conv2d_is_bitwise_its_reference_computations(T, h, w, k, c_in, c_out, seed):
    """Forward, input gradient and kernel gradient against the per-window-row
    forward, the padded-grid input gradient and the padded-input windows on
    every shape class: a frame smaller than the kernel gives taps that lie
    wholly outside it and row shifts longer than all T*h*w rows.

    Each is bit for bit except where a k > 1 product has one channel (a
    GEMV, whose sums depend on the row count and layout): the forward with
    one output channel and the kernel gradient with one channel on either
    side agree to f32 rounding only. The first two examples are one-channel
    products over 2,880 and 980 rows, more than the drawn shapes reach; the
    next three are the desk model's 1x1 convs in a mini-batch of 32 videos
    (2,880 rows); the last is a one-output-channel 3x3 conv whose forward
    differs from the per-window-row bits."""
    X, K, g, out, gx, gk = _conv_and_gradients(T, h, w, k, c_in, c_out, seed)
    _assert_bits_or_close(out, _per_row_block_conv(X, K), bitwise=k == 1 or c_out > 1)
    assert gx.tobytes() == _padded_grid_input_grad(g, K, h, w).tobytes()
    _assert_bits_or_close(gk, _window_kernel_grad(X, g, k),
                          bitwise=k == 1 or min(c_in, c_out) > 1)


def _assert_bits_or_close(got, want, bitwise):
    if bitwise:
        assert got.tobytes() == want.tobytes()
    else:
        npt.assert_allclose(got, want, rtol=1e-5, atol=1e-3)


def test_one_output_channel_conv_gradients_at_2880_rows():
    """A 3x3 conv of 32 channels to one, over 2,880 rows: the input gradient
    bit for bit against the padded-grid reference, and the kernel gradient
    to f32 rounding against the per-tap windows. With k > 1 and a
    one-channel side the kernel gradient's one product is a GEMV, whose sums
    depend on the row count and layout, so `conv2d` does not promise the
    per-tap bits there. No conv of the model has k > 1 and one output
    channel."""
    X, K, g, _, gx, gk = _conv_and_gradients(320, 3, 3, 3, 32, 1, seed=2)
    assert gx.tobytes() == _padded_grid_input_grad(g, K, 3, 3).tobytes()
    _assert_bits_or_close(gk, _window_kernel_grad(X, g, 3), bitwise=False)


def _conv_and_gradients(T, h, w, k, c_in, c_out, seed):
    """Signed-zero draws of the input X, kernel K and output gradient g, and
    conv2d's output and input and kernel gradients for them."""
    rng = np.random.default_rng(seed)
    X = _signed_zero_normal(rng, (T, h, w, c_in))
    K = _signed_zero_normal(rng, (k, k, c_in, c_out))
    g = _signed_zero_normal(rng, (T, h, w, c_out))
    tape = ad.Tape()
    x, kernel = tape.leaf(X), tape.leaf(K)
    out = ad.conv2d(x, kernel)
    loss = ad.sum_all(ad.mul(out, tape.leaf(g)))  # the gradient reaching out is g
    gx, gk = tape.backward(loss, [x, kernel])
    return X, K, g, out.data, gx, gk


# ---------------------------------------------------------------------------
# mini-batches: B videos on one tape, B*T rows


def _batch(cfg, videos, seed=30):
    bundles = [default_bundle(seed + i, cfg) for i in range(videos)]
    rng = np.random.default_rng(seed)
    classes = [int(c) for c in rng.integers(cfg.n_class_outputs, size=videos)]
    relevance = rng.integers(0, 2, size=(videos, cfg.dims.T))
    return bundles, classes, relevance


def _f64_loss(params, cfg, audio, visual, classes, relevance):
    """Forward, loss and parameter gradients on an f64 tape of the videos
    whose rows `audio` holds."""
    tape = ad.Tape("f64", videos=audio.shape[0] // cfg.dims.T)
    fwd = run_forward(tape, params, audio, visual, cfg)
    if cfg.mode == "weak":
        loss = heads.weak_aggregate_loss(fwd.class_probs, classes)
    else:
        loss = heads.supervised_loss(fwd.class_probs, fwd.event_scores, classes, relevance)
    return fwd, loss.item(), tape.backward(loss, list(fwd.leaves.values()))


@pytest.mark.parametrize("videos", [1, 3])
@pytest.mark.parametrize("temporal", [True, False])
@pytest.mark.parametrize("motion_mode", ["pfme", "future_only", "off"])
@pytest.mark.parametrize("mode", ["supervised", "weak"])
def test_batched_forward_and_mean_gradient_match_per_video_in_f64(
        mode, motion_mode, temporal, videos):
    cfg = ModelConfig(mode=mode, motion=motion_mode, temporal_attention=temporal)
    params = init_params(cfg, seed=9)
    bundles, classes, relevance = _batch(cfg, videos)
    fwd, loss, grads = _f64_loss(params, cfg, np.concatenate([b.audio for b in bundles]),
                                 np.concatenate([b.visual for b in bundles]), classes,
                                 relevance.reshape(-1))
    T = cfg.dims.T
    assert fwd.class_probs.shape == (videos, cfg.n_class_outputs)
    assert fwd.event_scores.shape == (videos * T, 1)
    singles = [_f64_loss(params, cfg, b.audio, b.visual, c, r)
               for b, c, r in zip(bundles, classes, relevance)]
    for i, (one, _, _) in enumerate(singles):
        rows = slice(i * T, (i + 1) * T)
        npt.assert_allclose(fwd.class_probs.data[i:i + 1], one.class_probs.data,
                            rtol=0, atol=1e-10)
        npt.assert_allclose(fwd.event_scores.data[rows], one.event_scores.data,
                            rtol=0, atol=1e-10)
        npt.assert_allclose(fwd.stages["interaction"].data[rows],
                            one.stages["interaction"].data, rtol=0, atol=1e-10)
        if mode == "weak":
            npt.assert_allclose(fwd.stages["segment_logits"].data[rows],
                                one.stages["segment_logits"].data, rtol=0, atol=1e-10)
    npt.assert_allclose(loss, np.mean([s[1] for s in singles]), rtol=0, atol=1e-10)
    for k, g in enumerate(grads):
        mean = np.mean([s[2][k] for s in singles], axis=0)
        npt.assert_allclose(g, mean, rtol=0, atol=1e-10)


# (mode, motion, temporal attention) -> tape nodes of a forward of 1 or of 7 videos
FORWARD_NODES = {("supervised", "pfme", True): 104,
                 ("supervised", "off", True): 101,
                 ("supervised", "pfme", False): 100,
                 ("weak", "pfme", True): 104}


@pytest.mark.parametrize("mode, motion_mode, temporal", list(FORWARD_NODES))
def test_forward_records_each_stage_after_its_parts_and_adds_no_tape_node(
        mode, motion_mode, temporal):
    cfg = ModelConfig(mode=mode, motion=motion_mode, temporal_attention=temporal)
    params = init_params(cfg, seed=14)
    d = cfg.dims
    forwards = []
    for videos in (1, 7):
        bundles, _, _ = _batch(cfg, videos)
        tape = ad.Tape(videos=videos)
        fwd = run_forward(tape, params, np.concatenate([b.audio for b in bundles]),
                          np.concatenate([b.visual for b in bundles]), cfg)
        rows = videos * d.T
        expected = {"motion.feature": (rows, d.d_a),
                    "audio_attention.temporal_weights": (rows, 1),
                    "audio_attention.channel_gate": (rows, d.d_a),
                    "audio_attention": (rows, d.d_a),
                    "visual_channel": (rows, d.h, d.w, d.d_v),
                    "visual_spatial.scores": (rows, d.h, d.w, 1),
                    "visual_spatial": (rows, d.d_v),
                    "relation.audio.weights": (rows, 2 * d.T),
                    "relation.audio": (rows, d.relation),
                    "relation.visual.weights": (rows, 2 * d.T),
                    "relation.visual": (rows, d.relation),
                    "interaction.weights": (rows, 2 * d.T),
                    "interaction": (rows, 2 * d.relation),
                    "segment_logits": (rows, cfg.n_class_outputs),
                    "classifier": (videos, cfg.n_class_outputs),
                    "event_relevance": (rows, 1)}
        if not temporal:
            del expected["audio_attention.temporal_weights"]
        if mode != "weak":
            del expected["segment_logits"]
        assert [(name, t.shape) for name, t in fwd.stages.items()] == list(expected.items())
        assert len(tape) == FORWARD_NODES[mode, motion_mode, temporal]
        forwards.append(fwd)
    # bundle seed 30 is video 0 of both tapes: at every stage its rows do
    # not depend on the other videos of the tape, bit for bit
    one, seven = forwards
    for name, stage in one.stages.items():
        assert seven.stages[name].data[:len(stage.data)].tobytes() == stage.data.tobytes(), \
            f"stage {name} of video 0 differs between a 7-video and a 1-video tape"


def test_perturbing_one_video_leaves_the_others_in_the_batch_unchanged():
    cfg = ModelConfig()
    params = init_params(cfg, seed=10)
    bundles, _, _ = _batch(cfg, 3)
    audio = np.concatenate([b.audio for b in bundles])
    visual = np.concatenate([b.visual for b in bundles])
    before = run_forward(ad.Tape(videos=3), params, audio, visual, cfg)
    T = cfg.dims.T
    audio[T:2 * T] += 1.0
    visual[T:2 * T] *= -2.0
    after = run_forward(ad.Tape(videos=3), params, audio, visual, cfg)
    fused_after = after.stages["interaction"].data
    fused_before = before.stages["interaction"].data
    for i in (0, 2):
        rows = slice(i * T, (i + 1) * T)
        npt.assert_array_equal(after.class_probs.data[i], before.class_probs.data[i])
        npt.assert_array_equal(after.event_scores.data[rows], before.event_scores.data[rows])
        npt.assert_array_equal(fused_after[rows], fused_before[rows])
    assert not np.array_equal(fused_after[T:2 * T], fused_before[T:2 * T])


def test_every_video_of_a_batch_has_exact_zero_boundary_motion():
    from avloc import motion
    from test_motion import reference_motion
    videos, T, h, w, c = 4, 5, 2, 3, 6
    rng = np.random.default_rng(11)
    tape = ad.Tape(videos=videos)
    aligned = tape.leaf(rng.normal(size=(videos * T, h, w, c)))
    past_kernel, future_kernel = (tape.leaf(rng.normal(size=(3, 3, c, c))) for _ in range(2))
    past, future, fused = reference_motion(aligned, past_kernel, future_kernel)
    assert motion.past_future_motion(aligned, past_kernel, future_kernel).data.tobytes() \
        == fused.data.tobytes()
    past = past.data.reshape(videos, T, h, w, c)
    future = future.data.reshape(videos, T, h, w, c)
    assert np.all(past[:, 0] == 0.0) and np.all(future[:, T - 1] == 0.0)
    assert np.all(past[:, 1:] != 0.0) and np.all(future[:, :T - 1] != 0.0)


def test_model_params_are_read_only_and_forwarded_without_a_copy():
    cfg = ModelConfig()
    params = init_params(cfg, seed=12)
    with pytest.raises(ValueError, match="read-only"):
        params.arrays["motion.out_map"][0, 0] = 1.0
    params.set_array("head.class_bias", np.ones((1, 4), dtype=np.float32))
    assert all(not a.flags.writeable for _, a in params.items())
    bundle = default_bundle(12, cfg)
    fwd = run_forward(ad.Tape(), params, bundle.audio, bundle.visual, cfg)
    for name, arr in params.items():
        assert fwd.leaves[name].data is arr, name


def test_predictions_from_aliased_and_copied_parameters_are_identical(monkeypatch):
    cfg = ModelConfig()
    params = init_params(cfg, seed=13)
    bundle = default_bundle(13, cfg)
    aliased = predict(params, cfg, bundle)
    monkeypatch.setattr(ad.Tape, "param", ad.Tape.leaf)
    copied = predict(params, cfg, bundle)
    assert aliased.to_record() == copied.to_record()
