"""Audio gating by motion and visual gating by audio: closed forms, nulls,
shape contracts, gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc import attention
from avloc.errors import ShapeError
from avloc.gradcheck import check_gradients

T, DA, DV, H, W, DH = 5, 4, 6, 2, 2, 3
GATE_SHAPES = {
    "channel_audio": (DA, DH), "channel_visual": (DV, DH),
    "channel_align": (DH, DV), "channel_value": (DV, DV),
    "spatial_audio": (DA, DH), "spatial_visual": (DV, DH),
    "spatial_score": (DH, 1),
}


def random_gates(tape, rng):
    return {name: tape.leaf(rng.normal(size=shape)) for name, shape in GATE_SHAPES.items()}


# ---------------------------------------------------------------------------
# motion-guided audio


def test_zero_motion_closed_form():
    # zero motion: uniform temporal weights add 1/T, sigmoid gate adds 0.5,
    # so the output is 1.5 * (1 + 1/T) * audio
    rng = np.random.default_rng(0)
    audio = rng.normal(size=(10, DA))
    t = ad.Tape()
    out, parts = attention.motion_guided_audio(
        t.leaf(audio), t.zeros((10, DA)), t.leaf(rng.normal(size=(DA, 1))))
    npt.assert_allclose(parts["temporal_weights"].data, np.full((10, 1), 0.1), atol=1e-7)
    npt.assert_allclose(out.data, 1.5 * 1.1 * audio, atol=1e-6)


def test_zero_audio_stays_zero_for_any_motion():
    rng = np.random.default_rng(1)
    t = ad.Tape()
    out, _ = attention.motion_guided_audio(
        t.zeros((T, DA)), t.leaf(rng.normal(size=(T, DA)) * 5),
        t.leaf(rng.normal(size=(DA, 1))))
    npt.assert_array_equal(out.data, np.zeros((T, DA)))


def test_hand_case_two_segments():
    # audio [1,1], motion [0, ln 3], unit temporal weight:
    # weights [0.25, 0.75]; boosted [1.25, 1.75]; gate [0.5, 0.75];
    # out [1.875, 3.0625]
    t = ad.Tape("f64")
    out, parts = attention.motion_guided_audio(
        t.leaf([[1.0], [1.0]]), t.leaf([[0.0], [np.log(3.0)]]), t.leaf([[1.0]]))
    weights = parts["temporal_weights"].data
    npt.assert_allclose(weights, [[0.25], [0.75]], atol=1e-9)
    gate = parts["channel_gate"].data
    npt.assert_allclose(gate, [[0.5], [0.75]], atol=1e-9)
    npt.assert_allclose(out.data / (1.0 + gate), [[1.25], [1.75]], atol=1e-9)  # boosted
    npt.assert_allclose(out.data, [[1.875], [3.0625]], atol=1e-9)


def test_temporal_attention_off_keeps_only_channel_gate():
    rng = np.random.default_rng(2)
    audio = rng.normal(size=(T, DA))
    m = rng.normal(size=(T, DA))
    t = ad.Tape("f64")
    out, parts = attention.motion_guided_audio(
        t.leaf(audio), t.leaf(m), t.leaf(rng.normal(size=(DA, 1))),
        use_temporal=False)
    assert list(parts) == ["channel_gate"]
    gate = 1.0 / (1.0 + np.exp(-m))
    npt.assert_allclose(out.data, audio + gate * audio, atol=1e-9)


def test_temporal_weights_normalize_over_time():
    rng = np.random.default_rng(3)
    t = ad.Tape()
    _, parts = attention.motion_guided_audio(
        t.leaf(rng.normal(size=(T, DA))), t.leaf(rng.normal(size=(T, DA)) * 3),
        t.leaf(rng.normal(size=(DA, 1))))
    weights = parts["temporal_weights"]
    assert (weights.data >= 0).all()
    npt.assert_allclose(weights.data.sum(), 1.0, atol=1e-6)


def test_temporal_weights_are_shift_invariant():
    # adding a constant to every pre-softmax score leaves the weights (and
    # therefore the temporally boosted audio) unchanged
    rng = np.random.default_rng(4)
    audio = rng.normal(size=(T, DA))
    m = rng.normal(size=(T, DA))
    w = rng.normal(size=(DA, 1))
    shift = 7.3 * w[:, 0] / (w[:, 0] @ w[:, 0])  # adds 7.3 to every score

    t = ad.Tape("f64")
    (out1, p1), (out2, p2) = (
        attention.motion_guided_audio(t.leaf(audio), t.leaf(motion), t.leaf(w))
        for motion in (m, m + shift))
    npt.assert_allclose(p1["temporal_weights"].data, p2["temporal_weights"].data, atol=1e-6)
    # the boosted audio is the output with the channel gate divided out
    npt.assert_allclose(out1.data / (1.0 + p1["channel_gate"].data),
                        out2.data / (1.0 + p2["channel_gate"].data), atol=1e-6)


def test_audio_motion_length_mismatch_is_shape_error():
    t = ad.Tape()
    with pytest.raises(ShapeError):
        attention.motion_guided_audio(t.leaf(np.ones((4, DA))),
                                      t.leaf(np.ones((5, DA))),
                                      t.leaf(np.ones((DA, 1))))


# ---------------------------------------------------------------------------
# audio-guided visual attention


def test_zero_propagation_nulls_hold_for_random_params():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = ad.Tape()
        gates = random_gates(t, rng)
        visual = t.leaf(rng.normal(size=(T, H, W, DV)))
        audio = t.leaf(rng.normal(size=(T, DA)))
        # zero audio silences both stages (no biases anywhere)
        channel_out = attention.audio_guided_channel(t.zeros((T, DA)), visual, gates)
        npt.assert_allclose(channel_out.data, 0.0, atol=1e-6)
        spatial_out, _ = attention.audio_guided_spatial(t.zeros((T, DA)), visual, gates)
        npt.assert_allclose(spatial_out.data, 0.0, atol=1e-6)
        # zero visual likewise
        npt.assert_allclose(attention.audio_guided_channel(
            audio, t.zeros((T, H, W, DV)), gates).data, 0.0, atol=1e-6)
        npt.assert_allclose(attention.audio_guided_spatial(
            audio, t.zeros((T, H, W, DV)), gates)[0].data, 0.0, atol=1e-6)


def test_channel_stage_matches_straight_line_oracle():
    rng = np.random.default_rng(6)
    audio = rng.normal(size=(T, DA))
    visual = rng.normal(size=(T, H, W, DV))
    params = {name: rng.normal(size=shape) for name, shape in GATE_SHAPES.items()}

    t = ad.Tape("f64")
    gates = {k: t.leaf(v) for k, v in params.items()}
    out = attention.audio_guided_channel(t.leaf(audio), t.leaf(visual), gates)

    # step-by-step re-evaluation in plain numpy
    audio_hidden = np.maximum(audio @ params["channel_audio"], 0)
    expected = np.zeros((T, H, W, DV))
    for ti in range(T):
        joint = np.zeros(DH)
        for i in range(H):
            for j in range(W):
                visual_hidden = np.maximum(visual[ti, i, j] @ params["channel_visual"], 0)
                joint += audio_hidden[ti] * visual_hidden
        gate = (joint / (H * W)) @ params["channel_align"]
        for i in range(H):
            for j in range(W):
                expected[ti, i, j] = gate * (visual[ti, i, j] @ params["channel_value"])
    npt.assert_allclose(out.data, expected, atol=1e-6)


def test_spatial_stage_single_location_degenerates_to_scalar_gate():
    rng = np.random.default_rng(7)
    audio = rng.normal(size=(T, DA))
    visual = rng.normal(size=(T, 1, 1, DV))
    params = {name: rng.normal(size=shape) for name, shape in GATE_SHAPES.items()}

    t = ad.Tape("f64")
    gates = {k: t.leaf(v) for k, v in params.items()}
    out, parts = attention.audio_guided_spatial(t.leaf(audio), t.leaf(visual), gates)

    audio_hidden = np.maximum(audio @ params["spatial_audio"], 0)
    visual_hidden = np.maximum(visual[:, 0, 0] @ params["spatial_visual"], 0)
    score = np.tanh((audio_hidden * visual_hidden) @ params["spatial_score"])
    expected = score * visual[:, 0, 0]
    npt.assert_allclose(out.data, expected, atol=1e-6)
    npt.assert_allclose(parts["scores"].data[:, 0, 0], score, atol=1e-6)


def test_spatial_output_shape_is_segments_by_visual_channels():
    rng = np.random.default_rng(8)
    t = ad.Tape()
    gates = random_gates(t, rng)
    out, parts = attention.audio_guided_spatial(
        t.leaf(rng.normal(size=(T, DA))), t.leaf(rng.normal(size=(T, H, W, DV))),
        gates)
    assert out.shape == (T, DV)
    assert parts["scores"].shape == (T, H, W, 1)


# ---------------------------------------------------------------------------
# gradients


def test_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    audio = rng.normal(size=(3, DA))
    m = rng.normal(size=(3, DA))
    w = rng.normal(size=(DA, 1))
    mix = rng.normal(size=(3, DA))

    def build(arrs):
        tape = ad.Tape("f64")
        leaves = [tape.leaf(a) for a in arrs]
        out, _ = attention.motion_guided_audio(*leaves)
        return ad.sum_all(ad.mul(out, tape.leaf(mix))), leaves

    result = check_gradients("attention.mgaa", build, [audio, m, w])
    assert result.passed, result.line()

    visual = rng.normal(size=(3, H, W, DV))
    gate_arrays = [rng.normal(size=s) for s in GATE_SHAPES.values()]
    mix4 = rng.normal(size=(3, DV))

    def build_spatial(arrs):
        tape = ad.Tape("f64")
        a, v = tape.leaf(arrs[0]), tape.leaf(arrs[1])
        gates = dict(zip(GATE_SHAPES, [tape.leaf(x) for x in arrs[2:]]))
        chan = attention.audio_guided_channel(a, v, gates)
        out, _ = attention.audio_guided_spatial(a, chan, gates)
        return ad.sum_all(ad.mul(out, tape.leaf(mix4))), [a, v] + list(gates.values())

    result = check_gradients("attention.agva", build_spatial,
                             [audio[:3], visual] + gate_arrays)
    assert result.passed, result.line()
