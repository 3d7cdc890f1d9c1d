"""Motion extraction: the fused op against the composed chain it replaces,
boundary zeros, hand-evaluated cases, nulls, gradients."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from avloc import autodiff as ad
from avloc import motion
from avloc.errors import ConfigError, ContractError, ShapeError
from avloc.gradcheck import check_gradients

from test_autodiff import conv2d_oracle
from test_model import _signed_zero_normal


def identity_kernel(channels, k=1):
    kernel = np.zeros((k, k, channels, channels))
    kernel[k // 2, k // 2] = np.eye(channels)
    return kernel


def test_channel_align_identity_kernel_keeps_input():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 2, 2, 4)).astype(np.float32)
    t = ad.Tape()
    out = motion.align_channels(t.leaf(x), t.leaf(identity_kernel(4)))
    npt.assert_array_equal(out.data, x)


def test_channel_align_zero_kernel_gives_zeros():
    t = ad.Tape()
    x = t.leaf(np.random.default_rng(1).normal(size=(3, 2, 2, 4)))
    out = motion.align_channels(x, t.leaf(np.zeros((1, 1, 4, 3))))
    npt.assert_array_equal(out.data, np.zeros((3, 2, 2, 3)))


def test_channel_align_matches_conv_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 2, 3))
    kernel = rng.normal(size=(1, 1, 3, 2))
    t = ad.Tape("f64")
    out = motion.align_channels(t.leaf(x), t.leaf(kernel))
    npt.assert_allclose(out.data, conv2d_oracle(x, kernel)[0], atol=1e-6)


def reference_direction(aligned, kernel, zero_first):
    """One motion direction as the composed chain the fused op replaces:
    conv(aligned)[1:] - aligned[:-1] per video, with an exact zero row at
    the start (past) or at the end (future)."""
    tape = aligned.tape
    T = aligned.shape[0] // tape.videos
    convolved = ad.conv2d(aligned, kernel)
    body = ad.sub(ad.slice_axis(convolved, 0, 1, T), ad.slice_axis(aligned, 0, 0, T - 1))
    zero_rows = tape.zeros((tape.videos,) + aligned.shape[1:])
    return ad.concat(zero_rows, body, 0) if zero_first else ad.concat(body, zero_rows, 0)


def reference_motion(aligned, past_kernel, future_kernel):
    """(past, future, future + past) of the composed chain; a past kernel of
    None is a past of zeros (future_only). Past is built first: the reverse
    sweep adds the gradients reaching `aligned` in the reverse of that order."""
    if past_kernel is None:
        past = aligned.tape.zeros(aligned.shape)
    else:
        past = reference_direction(aligned, past_kernel, zero_first=True)
    future = reference_direction(aligned, future_kernel, zero_first=False)
    return past, future, ad.add(future, past)


def fused_motion(aligned, past_kernel, future_kernel):
    if past_kernel is None:
        return motion.future_motion(aligned, future_kernel)
    return motion.past_future_motion(aligned, past_kernel, future_kernel)


@given(videos=st.integers(1, 3), T=st.integers(2, 5), h=st.integers(1, 4),
       w=st.integers(1, 4), c=st.sampled_from([1, 2, 5]),
       mode=st.sampled_from(["pfme", "future_only"]), seed=st.integers(0, 2**32 - 1))
@example(videos=7, T=10, h=3, w=3, c=32, mode="pfme", seed=7)
@example(videos=7, T=10, h=3, w=3, c=32, mode="future_only", seed=7)
@example(videos=32, T=10, h=3, w=3, c=32, mode="pfme", seed=32)
def test_fused_motion_is_bitwise_the_composed_chain(videos, T, h, w, c, mode, seed):
    """Output and the gradients of `aligned` and both kernels, bit for bit;
    the examples are the desk model's motion grid in a short last
    mini-batch and in a full one."""
    rng = np.random.default_rng(seed)
    X = _signed_zero_normal(rng, (videos * T, h, w, c))
    K_past, K_future = (_signed_zero_normal(rng, (3, 3, c, c)) for _ in range(2))
    G = _signed_zero_normal(rng, (videos * T, h, w, c))

    def run(build):
        tape = ad.Tape(videos=videos)
        leaves = [tape.leaf(a) for a in (X, K_past, K_future)]
        out = build(leaves[0], leaves[1] if mode == "pfme" else None, leaves[2])
        loss = ad.sum_all(ad.mul(out, tape.leaf(G)))  # the gradient reaching out is G
        return [out.data] + tape.backward(loss, leaves)

    fused = run(fused_motion)
    composed = run(lambda *args: reference_motion(*args)[2])
    for name, a, b in zip(("out", "aligned", "past_kernel", "future_kernel"), fused, composed):
        assert a.tobytes() == b.tobytes(), name


def test_fused_motion_gives_each_requested_gradient_alone():
    rng = np.random.default_rng(12)
    arrays = [rng.normal(size=(6, 2, 3, 4)).astype(np.float32)] + [
        rng.normal(size=(3, 3, 4, 4)).astype(np.float32) for _ in range(2)]

    def grads(wanted):
        tape = ad.Tape(videos=2)
        leaves = [tape.leaf(a) for a in arrays]
        loss = ad.sum_all(ad.mul(motion.past_future_motion(*leaves), leaves[0]))
        return tape.backward(loss, [leaves[i] for i in wanted])

    every = grads([0, 1, 2])
    for i in range(3):
        assert grads([i])[0].tobytes() == every[i].tobytes()


def test_fused_motion_records_one_node():
    t = ad.Tape()
    aligned = t.leaf(np.ones((3, 2, 2, 2)))
    kernels = [t.leaf(identity_kernel(2, k=3)) for _ in range(2)]
    before = len(t)
    motion.past_future_motion(aligned, *kernels)
    motion.future_motion(aligned, kernels[1])
    assert len(t) == before + 2


def test_boundary_rows_are_exactly_zero_for_any_input():
    rng = np.random.default_rng(3)
    for trial in range(5):
        t = ad.Tape()
        aligned = t.leaf(rng.normal(size=(4, 2, 2, 3)) * 10)
        past_k = t.leaf(rng.normal(size=(3, 3, 3, 3)))
        future_k = t.leaf(rng.normal(size=(3, 3, 3, 3)))
        past, future, _ = reference_motion(aligned, past_k, future_k)
        assert np.all(past.data[0] == 0.0)
        assert np.all(future.data[-1] == 0.0)


def test_static_scene_with_identity_kernels_has_no_motion():
    frame = np.random.default_rng(4).normal(size=(2, 2, 3))
    t = ad.Tape()
    aligned = t.leaf(np.broadcast_to(frame, (5, 2, 2, 3)).copy())
    eye3 = t.leaf(identity_kernel(3, k=3))
    past, future, fused = reference_motion(aligned, eye3, eye3)
    npt.assert_allclose(past.data, np.zeros((5, 2, 2, 3)), atol=1e-6)
    npt.assert_allclose(future.data, np.zeros((5, 2, 2, 3)), atol=1e-6)
    feature = motion.fuse_and_pool(motion.past_future_motion(aligned, eye3, eye3),
                                   t.leaf(np.eye(3)))
    npt.assert_allclose(feature.data, np.zeros((5, 3)), atol=1e-6)


def test_hand_case_T2_single_pixel():
    # aligned = [2, 5] with identity kernels: past = [0, 3], future = [3, 0]
    t = ad.Tape()
    aligned = t.leaf(np.array([2.0, 5.0]).reshape(2, 1, 1, 1))
    eye = t.leaf(identity_kernel(1, k=3))
    past, future, _ = reference_motion(aligned, eye, eye)
    npt.assert_allclose(past.data.reshape(2), [0.0, 3.0])
    npt.assert_allclose(future.data.reshape(2), [3.0, 0.0])
    # fused [3, 3], pooled, identity channel map: [[3], [3]]
    fused = motion.past_future_motion(aligned, eye, eye)
    npt.assert_allclose(fused.data.reshape(2), [3.0, 3.0])
    feature = motion.fuse_and_pool(fused, t.leaf(np.eye(1)))
    npt.assert_allclose(feature.data, [[3.0], [3.0]])


def test_fused_motion_is_the_sum_of_its_directions():
    rng = np.random.default_rng(5)
    t = ad.Tape(videos=2)
    aligned = t.leaf(rng.normal(size=(6, 2, 2, 4)))
    past_k, future_k = (t.leaf(rng.normal(size=(3, 3, 4, 4))) for _ in range(2))
    past, future, _ = reference_motion(aligned, past_k, future_k)
    npt.assert_array_equal(motion.future_motion(aligned, future_k).data, future.data)
    npt.assert_array_equal(motion.past_future_motion(aligned, past_k, future_k).data,
                           future.data + past.data)


def test_motion_is_linear_in_the_aligned_input():
    rng = np.random.default_rng(6)
    aligned = rng.normal(size=(4, 2, 2, 3))
    past_k = rng.normal(size=(3, 3, 3, 3))
    future_k = rng.normal(size=(3, 3, 3, 3))
    out_map = rng.normal(size=(3, 3))

    def run(x):
        t = ad.Tape()
        fused = motion.past_future_motion(t.leaf(x), t.leaf(past_k), t.leaf(future_k))
        return motion.fuse_and_pool(fused, t.leaf(out_map)).data

    npt.assert_allclose(run(2.0 * aligned), 2.0 * run(aligned), atol=1e-5)


def test_single_segment_is_contract_error():
    t = ad.Tape()
    # bypass Tensor's own T checks by slicing a 2-segment input down to 1
    aligned = ad.slice_axis(t.leaf(np.ones((2, 2, 2, 3))), 0, 0, 1)
    eye3 = t.leaf(identity_kernel(3, k=3))
    with pytest.raises(ContractError):
        motion.past_future_motion(aligned, eye3, eye3)
    with pytest.raises(ContractError):
        motion.future_motion(aligned, eye3)


def test_motion_kernels_must_map_the_channels_to_themselves():
    t = ad.Tape()
    aligned = t.leaf(np.ones((2, 2, 2, 3)))
    eye3 = t.leaf(identity_kernel(3, k=3))
    with pytest.raises(ShapeError):
        motion.future_motion(aligned, t.leaf(np.ones((3, 3, 3, 2))))
    with pytest.raises(ShapeError):
        motion.past_future_motion(aligned, t.leaf(identity_kernel(3, k=5)), eye3)


def test_past_motion_convolves_the_current_frame():
    t = ad.Tape()
    aligned = t.leaf(np.array([2.0, 5.0]).reshape(2, 1, 1, 1))
    doubling = t.leaf(2.0 * identity_kernel(1, k=3))
    printed = reference_direction(aligned, doubling, zero_first=True)
    npt.assert_allclose(printed.data.reshape(2), [0.0, 2 * 5 - 2])
    # with an identity future kernel the future is [5 - 2, 0]
    fused = motion.past_future_motion(aligned, doubling, t.leaf(identity_kernel(1, k=3)))
    npt.assert_allclose(fused.data.reshape(2), [3.0, 2 * 5 - 2])


def test_full_pipeline_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=(3, 2, 2, 4)),      # visual
              rng.normal(size=(1, 1, 4, 3)),      # align
              rng.normal(size=(3, 3, 3, 3)),      # past conv
              rng.normal(size=(3, 3, 3, 3)),      # future conv
              rng.normal(size=(3, 3))]            # out map
    mix = rng.normal(size=(3, 3))

    def build(arrs):
        tape = ad.Tape("f64")
        leaves = [tape.leaf(a) for a in arrs]
        weights = dict(zip(("align_kernel", "past_kernel", "future_kernel", "out_map"),
                           leaves[1:]))
        out = motion.motion_feature(leaves[0], weights)
        return ad.sum_all(ad.mul(out, tape.leaf(mix))), leaves

    result = check_gradients("motion.full", build, arrays)
    assert result.passed, result.line()


def test_motion_feature_modes_zero_what_they_leave_out():
    rng = np.random.default_rng(9)
    t = ad.Tape("f64")
    visual = t.leaf(rng.normal(size=(4, 2, 2, 3)))
    p = {"align_kernel": t.leaf(rng.normal(size=(1, 1, 3, 2))),
         "past_kernel": t.leaf(rng.normal(size=(3, 3, 2, 2))),
         "future_kernel": t.leaf(rng.normal(size=(3, 3, 2, 2))),
         "out_map": t.leaf(rng.normal(size=(2, 2)))}
    aligned = motion.align_channels(visual, p["align_kernel"])
    _, _, fused = reference_motion(aligned, p["past_kernel"], p["future_kernel"])
    _, _, future_only = reference_motion(aligned, None, p["future_kernel"])
    npt.assert_array_equal(motion.motion_feature(visual, p, "pfme").data,
                           motion.fuse_and_pool(fused, p["out_map"]).data)
    npt.assert_array_equal(motion.motion_feature(visual, p, "future_only").data,
                           motion.fuse_and_pool(future_only, p["out_map"]).data)
    npt.assert_array_equal(motion.motion_feature(visual, p, "off").data, np.zeros((4, 2)))
    for bad in ("past_only", [], {}, None):
        with pytest.raises(ConfigError, match="motion"):
            motion.motion_feature(visual, p, bad)
