"""Motion extraction: boundary zeros, hand-evaluated cases, nulls, gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc import motion
from avloc.errors import ConfigError, ContractError
from avloc.gradcheck import check_gradients

from test_autodiff import conv2d_oracle


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


def test_boundary_rows_are_exactly_zero_for_any_input():
    rng = np.random.default_rng(3)
    for trial in range(5):
        t = ad.Tape()
        aligned = t.leaf(rng.normal(size=(4, 2, 2, 3)) * 10)
        past_k = t.leaf(rng.normal(size=(3, 3, 3, 3)))
        future_k = t.leaf(rng.normal(size=(3, 3, 3, 3)))
        past, future = motion.past_future_motion(aligned, past_k, future_k)
        assert np.all(past.data[0] == 0.0)
        assert np.all(future.data[-1] == 0.0)


def test_static_scene_with_identity_kernels_has_no_motion():
    frame = np.random.default_rng(4).normal(size=(2, 2, 3))
    t = ad.Tape()
    aligned = t.leaf(np.broadcast_to(frame, (5, 2, 2, 3)).copy())
    eye3 = t.leaf(identity_kernel(3, k=3))
    past, future = motion.past_future_motion(aligned, eye3, eye3)
    feature = motion.fuse_and_pool(past, future, t.leaf(np.eye(3)))
    npt.assert_allclose(feature.data, np.zeros((5, 3)), atol=1e-6)


def test_hand_case_T2_single_pixel():
    # aligned = [2, 5] with identity kernels: past = [0, 3], future = [3, 0]
    t = ad.Tape()
    aligned = t.leaf(np.array([2.0, 5.0]).reshape(2, 1, 1, 1))
    eye = t.leaf(identity_kernel(1, k=3))
    past, future = motion.past_future_motion(aligned, eye, eye)
    npt.assert_allclose(past.data.reshape(2), [0.0, 3.0])
    npt.assert_allclose(future.data.reshape(2), [3.0, 0.0])
    # fused, pooled, identity channel map: [[3], [3]]
    feature = motion.fuse_and_pool(past, future, t.leaf(np.eye(1)))
    npt.assert_allclose(feature.data, [[3.0], [3.0]])


def test_fuse_is_symmetric_in_past_and_future():
    rng = np.random.default_rng(5)
    t = ad.Tape()
    a = t.leaf(rng.normal(size=(3, 2, 2, 4)))
    b = t.leaf(rng.normal(size=(3, 2, 2, 4)))
    out_map = t.leaf(rng.normal(size=(4, 4)))
    npt.assert_array_equal(motion.fuse_and_pool(a, b, out_map).data,
                           motion.fuse_and_pool(b, a, out_map).data)


def test_motion_is_linear_in_the_aligned_input():
    rng = np.random.default_rng(6)
    aligned = rng.normal(size=(4, 2, 2, 3))
    past_k = rng.normal(size=(3, 3, 3, 3))
    future_k = rng.normal(size=(3, 3, 3, 3))
    out_map = rng.normal(size=(3, 3))

    def run(x):
        t = ad.Tape()
        p, f = motion.past_future_motion(t.leaf(x), t.leaf(past_k), t.leaf(future_k))
        return motion.fuse_and_pool(p, f, t.leaf(out_map)).data

    npt.assert_allclose(run(2.0 * aligned), 2.0 * run(aligned), atol=1e-5)


def test_single_segment_is_contract_error():
    t = ad.Tape()
    # bypass Tensor's own T checks by slicing a 2-segment input down to 1
    aligned = ad.slice_axis(t.leaf(np.ones((2, 2, 2, 3))), 0, 0, 1)
    with pytest.raises(ContractError):
        motion.past_motion(aligned, t.leaf(identity_kernel(3, k=3)))
    with pytest.raises(ContractError):
        motion.future_motion(aligned, t.leaf(identity_kernel(3, k=3)))


def test_past_motion_convolves_the_current_frame():
    t = ad.Tape()
    aligned = t.leaf(np.array([2.0, 5.0]).reshape(2, 1, 1, 1))
    doubling = t.leaf(2.0 * identity_kernel(1, k=3))
    printed = motion.past_motion(aligned, doubling)
    npt.assert_allclose(printed.data.reshape(2), [0.0, 2 * 5 - 2])


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
    past, future = motion.past_future_motion(aligned, p["past_kernel"], p["future_kernel"])
    npt.assert_array_equal(motion.motion_feature(visual, p, "pfme").data,
                           motion.fuse_and_pool(past, future, p["out_map"]).data)
    npt.assert_array_equal(
        motion.motion_feature(visual, p, "future_only").data,
        motion.fuse_and_pool(t.zeros(past.shape), future, p["out_map"]).data)
    npt.assert_array_equal(motion.motion_feature(visual, p, "off").data, np.zeros((4, 2)))
    with pytest.raises(ConfigError, match="motion"):
        motion.motion_feature(visual, p, "past_only")
