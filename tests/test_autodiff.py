"""Tensor engine: forward semantics against brute-force oracles, backward
rules against hand analysis and finite differences, error contracts."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from avloc import autodiff as ad
from avloc.errors import ConfigError, ContractError, ShapeError
from avloc.gradcheck import check_gradients


# ---------------------------------------------------------------------------
# independent oracles


def matmul_oracle(A, B):
    """Triple-loop sum of products."""
    m, k = A.shape
    k2, n = B.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += A[i, l] * B[l, j]
    return out


def conv2d_oracle(x, kernel, g=None):
    """Explicit sliding-window sum with zero padding, per time step, in f64.
    Returns the output and the gradients of sum(output * g) for x and kernel
    (zero gradients when g is not given)."""
    T, h, w, _ = x.shape
    k = kernel.shape[0]
    pad = k // 2
    if g is None:
        g = np.zeros((T, h, w, kernel.shape[3]))
    x, kernel, g = (np.asarray(a, dtype=np.float64) for a in (x, kernel, g))
    out, gx, gk = np.zeros(g.shape), np.zeros(x.shape), np.zeros(kernel.shape)
    for t, i, j, di, dj in itertools.product(range(T), range(h), range(w),
                                             range(k), range(k)):
        src_i, src_j = i + di - pad, j + dj - pad
        if 0 <= src_i < h and 0 <= src_j < w:
            out[t, i, j] += x[t, src_i, src_j] @ kernel[di, dj]
            gx[t, src_i, src_j] += kernel[di, dj] @ g[t, i, j]
            gk[di, dj] += np.outer(x[t, src_i, src_j], g[t, i, j])
    return out, gx, gk


def sum_time_oracle(x):
    """Sequential accumulation, one row at a time."""
    acc = np.zeros((1, x.shape[1]))
    for t in range(x.shape[0]):
        for d in range(x.shape[1]):
            acc[0, d] += x[t, d]
    return acc


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    t = ad.Tape()
    out = ad.matmul(t.leaf(np.eye(2)), t.leaf([[3.0, 4.0], [5.0, 6.0]]))
    npt.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_zero():
    t = ad.Tape()
    out = ad.matmul(t.leaf([[1.0, 2.0]]), t.leaf([[0.0], [0.0]]))
    npt.assert_array_equal(out.data, [[0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    A, B = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    t = ad.Tape("f64")
    out = ad.matmul(t.leaf(A), t.leaf(B))
    npt.assert_allclose(out.data, matmul_oracle(A, B), atol=1e-6)


def test_matmul_shape_mismatch_names_both_shapes():
    t = ad.Tape()
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_1x1_identity_kernel_is_bitexact_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
    kernel = np.eye(4, dtype=np.float32).reshape(1, 1, 4, 4)
    t = ad.Tape()
    out = ad.conv2d(t.leaf(x), t.leaf(kernel))
    assert out.data.tobytes() == x.tobytes()


def test_conv2d_zero_kernel():
    t = ad.Tape()
    x = t.leaf(np.random.default_rng(2).normal(size=(2, 3, 3, 2)))
    out = ad.conv2d(x, t.leaf(np.zeros((3, 3, 2, 2))))
    npt.assert_array_equal(out.data, np.zeros((2, 3, 3, 2)))


CONV_SHAPES = {  # name: (x shape, kernel shape)
    "3x3_single_channel": ((1, 3, 3, 1), (3, 3, 1, 1)),
    "multichannel": ((2, 4, 3, 3), (3, 3, 3, 2)),
    "c_out_1_3x3": ((2, 3, 4, 3), (3, 3, 3, 1)),
    "c_out_1_1x1": ((2, 3, 4, 5), (1, 1, 5, 1)),
    "c_in_1": ((2, 4, 3, 1), (3, 3, 1, 3)),
    "h_ne_w_5x5": ((2, 5, 4, 2), (5, 5, 2, 3)),
    "T_1": ((1, 3, 3, 2), (3, 3, 2, 2)),
    "real_1x1_512": ((2, 7, 7, 512), (1, 1, 512, 512)),
}


@pytest.mark.parametrize("x_shape,k_shape", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
def test_conv2d_matches_sliding_window_oracle(x_shape, k_shape):
    """Output, input gradient and kernel gradient of an f64 tape agree with
    the f64 sliding-window oracle to 1e-10 (both sum the same products, so
    only the summation order differs)."""
    rng = np.random.default_rng(3)
    x, kernel = rng.normal(size=x_shape), rng.normal(size=k_shape)
    g = rng.normal(size=x_shape[:3] + k_shape[3:])
    t = ad.Tape("f64")
    tx, tk = t.leaf(x), t.leaf(kernel)
    out = ad.conv2d(tx, tk)
    got = (out.data, *t.backward(ad.sum_all(ad.mul(out, t.leaf(g))), [tx, tk]))
    for name, a, b in zip(("output", "input grad", "kernel grad"), got,
                          conv2d_oracle(x, kernel, g)):
        npt.assert_allclose(a, b, rtol=1e-10, atol=1e-10, err_msg=name)


KERNEL_GRAD_CASES = {  # name: (videos, h = w, channels, bitwise)
    "desk_batch_32": (32, 3, 32, True),
    "real_batch_2": (2, 7, 128, True),
    "desk_batch_7": (7, 3, 32, False),
}


@pytest.mark.parametrize("videos,hw,c,bitwise", KERNEL_GRAD_CASES.values(),
                         ids=KERNEL_GRAD_CASES.keys())
def test_conv2d_kernel_grad_against_per_tap_window_products(videos, hw, c, bitwise):
    """The f32 kernel gradient of a 3x3 conv of T=10 segments against one
    product per tap of that tap's zero-padded input window with the output
    gradient. The conv's one im2col product has those bits at the desk
    batch of 32 videos and at real dims; over a 7-video desk batch (630
    rows) most values differ in the last bits, so there it only agrees to
    f32 rounding."""
    rng = np.random.default_rng(videos)
    x = rng.normal(size=(10 * videos, hw, hw, c)).astype(np.float32)
    kernel = rng.normal(size=(3, 3, c, c)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    t = ad.Tape()
    tk = t.leaf(kernel)
    out = ad.conv2d(t.leaf(x), tk)
    gk, = t.backward(ad.sum_all(ad.mul(out, t.leaf(g))), [tk])
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    g_rows = g.reshape(-1, c)
    for di, dj in itertools.product(range(3), range(3)):
        window = np.ascontiguousarray(padded[:, di:di + hw, dj:dj + hw]).reshape(-1, c)
        per_tap = window.T @ g_rows
        if bitwise:
            assert gk[di, dj].tobytes() == per_tap.tobytes(), (di, dj)
        else:
            npt.assert_allclose(gk[di, dj], per_tap, rtol=1e-5, atol=1e-3)


def test_conv2d_even_kernel_is_config_error():
    t = ad.Tape()
    with pytest.raises(ConfigError):
        ad.conv2d(t.leaf(np.ones((2, 3, 3, 2))), t.leaf(np.ones((2, 2, 2, 2))))


def test_conv2d_channel_mismatch_is_shape_error():
    t = ad.Tape()
    with pytest.raises(ShapeError):
        ad.conv2d(t.leaf(np.ones((2, 3, 3, 2))), t.leaf(np.ones((3, 3, 4, 2))))


# ---------------------------------------------------------------------------
# activations


def test_softmax_of_zeros_is_uniform():
    t = ad.Tape()
    out = ad.softmax(t.leaf([[0.0, 0.0, 0.0]]), axis=1)
    npt.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)


def test_pointwise_activation_values():
    t = ad.Tape()
    assert ad.sigmoid(t.leaf([[0.0]])).item() == 0.5
    assert ad.tanh(t.leaf([[0.0]])).item() == 0.0
    assert ad.relu(t.leaf([[-1.0]])).item() == 0.0


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 5))
    t = ad.Tape("f64")
    base = ad.softmax(t.leaf(x), axis=1)
    shifted = ad.softmax(t.leaf(x + 7.3), axis=1)
    npt.assert_allclose(base.data, shifted.data, atol=1e-6)


def test_softmax_rows_are_normalized_and_nonnegative():
    rng = np.random.default_rng(6)
    for axis in (0, 1):
        t = ad.Tape()
        s = ad.softmax(t.leaf(rng.normal(scale=10, size=(6, 4))), axis=axis)
        assert (s.data >= 0).all()
        npt.assert_allclose(s.data.sum(axis=axis), 1.0, atol=1e-6)


def test_softmax_invalid_axis():
    t = ad.Tape()
    with pytest.raises(ShapeError):
        ad.softmax(t.leaf(np.ones((2, 2))), axis=2)


# ---------------------------------------------------------------------------
# reductions


def test_avg_spatial_constant_field():
    t = ad.Tape()
    out = ad.avg_spatial(t.leaf(np.full((2, 3, 3, 4), 2.0)))
    npt.assert_array_equal(out.data, np.full((2, 4), 2.0))


def test_max_time_values():
    t = ad.Tape()
    out = ad.max_time(t.leaf([[1.0, 5.0], [3.0, 2.0]]))
    npt.assert_array_equal(out.data, [[3.0, 5.0]])


def test_sum_time_matches_sequential_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10, 4))
    t = ad.Tape("f64")
    npt.assert_allclose(ad.sum_time(t.leaf(x)).data, sum_time_oracle(x), atol=1e-6)


def test_reduce_missing_axis_is_shape_error():
    t = ad.Tape()
    with pytest.raises(ShapeError):
        ad.avg_spatial(t.leaf(np.ones((3, 4))))
    with pytest.raises(ShapeError):
        ad.max_time(t.leaf(np.ones((2, 2, 2, 2))))


# ---------------------------------------------------------------------------
# combination


def test_add_zeros_is_identity():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    t = ad.Tape()
    out = ad.add(t.leaf(x), t.leaf(np.zeros((3, 4))))
    npt.assert_array_equal(out.data, x)


def test_mul_broadcast_column():
    t = ad.Tape()
    out = ad.mul(t.leaf(np.full((5, 1), 0.5)), t.leaf(np.ones((5, 3))))
    npt.assert_array_equal(out.data, np.full((5, 3), 0.5))


def test_concat_channel_slot_by_slot():
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    t = ad.Tape("f64")
    out = ad.concat(t.leaf(x), t.leaf(y), axis=1)
    assert out.shape == (4, 6)
    for i in range(4):
        for j in range(3):
            assert out.data[i, j] == x[i, j]
            assert out.data[i, 3 + j] == y[i, j]


def test_combine_incompatible_shapes():
    t = ad.Tape()
    with pytest.raises(ShapeError):
        ad.add(t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        ad.concat(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 4))), axis=0)


@pytest.mark.parametrize("op, shapes", [
    (ad.add, [(2, 2), (2, 2)]),
    (ad.sub, [(2, 2), (2, 2)]),
    (ad.mul, [(2, 2), (2, 2)]),
    (ad.matmul, [(2, 3), (3, 4)]),
    (lambda a, b: ad.matmul(a, b, transpose_b=True), [(2, 3), (4, 3)]),
    (ad.conv2d, [(2, 3, 3, 2), (3, 3, 2, 4)]),
    (lambda a, b: ad.concat(a, b, axis=0), [(2, 3), (4, 3)]),
    (lambda a, b: ad.concat(a, b, axis=1), [(2, 3), (2, 4)]),
    (ad.neighbor_motion, [(2, 3, 3, 2), (3, 3, 2, 2), (3, 3, 2, 2)]),
], ids=["add", "sub", "mul", "matmul", "matmul_transpose_b", "conv2d", "concat_axis0",
        "concat_axis1", "neighbor_motion"])
def test_operands_must_share_a_tape(op, shapes):
    """The shapes fit, so an operand on another tape is the only fault: a
    contract error, not a shape error."""
    t1, t2 = ad.Tape(), ad.Tape()
    operands = [t1.leaf(np.ones(s)) for s in shapes[:-1]] + [t2.leaf(np.ones(shapes[-1]))]
    with pytest.raises(ContractError):
        op(*operands)


# ---------------------------------------------------------------------------
# tensor invariants


def test_tensor_is_immutable_and_shape_consistent():
    t = ad.Tape()
    x = t.leaf(np.ones((2, 3)))
    assert x.shape == (2, 3) and x.data.size == 6
    with pytest.raises(ValueError):
        x.data[0, 0] = 5.0


def test_tensor_rejects_bad_ranks_and_extents():
    t = ad.Tape()
    with pytest.raises(ShapeError):
        t.leaf(np.float64(3.0))  # rank 0
    with pytest.raises(ShapeError):
        t.leaf(np.ones((2, 2, 2, 2, 2)))  # rank 5
    with pytest.raises(ShapeError):
        t.leaf(np.ones((2, 0)))


def test_leaf_does_not_alias_caller_memory():
    src = np.ones((2, 2), dtype=np.float32)
    t = ad.Tape()
    x = t.leaf(src)
    src[0, 0] = 99.0
    assert x.data[0, 0] == 1.0


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_is_ones():
    t = ad.Tape()
    x = t.leaf(np.random.default_rng(10).normal(size=(3, 4)))
    (g,) = t.backward(ad.sum_all(x), [x])
    npt.assert_array_equal(g, np.ones((3, 4)))


def test_backward_of_sum_of_squares():
    t = ad.Tape()
    x = t.leaf([[1.0, 2.0]])
    (g,) = t.backward(ad.sum_all(ad.mul(x, x)), [x])
    npt.assert_allclose(g, [[2.0, 4.0]])


def test_backward_accumulates_over_reuse():
    t = ad.Tape()
    x = t.leaf([[3.0]])
    loss = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2 -> d/dx = 4x
    (g,) = t.backward(ad.sum_all(loss), [x])
    npt.assert_allclose(g, [[12.0]])


def test_backward_unreachable_leaf_gets_zeros():
    t = ad.Tape()
    x = t.leaf(np.ones((2, 2)))
    unused = t.leaf(np.ones((3, 3)))
    grads = t.backward(ad.sum_all(x), [x, unused])
    npt.assert_array_equal(grads[1], np.zeros((3, 3)))
    assert grads[1].shape == unused.shape


def _spy(tape, tensor, calls):
    """Record every call of `tensor`'s backward rule as (args after g, result)."""
    rule = tape._backwards[tensor.node_id]

    def recorded(g, *needed):
        result = rule(g, *needed)
        calls.append((needed, result))
        return result

    tape._backwards[tensor.node_id] = recorded


def test_backward_skips_inputs_that_reach_no_requested_leaf():
    """A data input that no requested leaf depends on runs no rule, and the
    products for its gradient are never formed; the requested gradients are
    the same bits either way."""
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 3, 3, 4)).astype(np.float32)
    kernel = rng.normal(size=(3, 3, 4, 2)).astype(np.float32)
    weight = rng.normal(size=(4, 2)).astype(np.float32)

    def run(request_data):
        t = ad.Tape()
        tx, tk, tw = t.leaf(x), t.leaf(kernel), t.leaf(weight)
        data = ad.relu(tx)
        conv = ad.conv2d(data, tk)
        product = ad.matmul(ad.avg_spatial(data), tw)
        loss = ad.sum_all(ad.add(ad.avg_spatial(conv), product))
        calls = {"relu": [], "conv2d": [], "matmul": []}
        for name, node in (("relu", data), ("conv2d", conv), ("matmul", product)):
            _spy(t, node, calls[name])
        leaves = [tk, tw] + ([tx] if request_data else [])
        return t.backward(loss, leaves), calls

    (gk, gw, gx), asked = run(request_data=True)
    (gk_skip, gw_skip), skipped = run(request_data=False)
    assert gk.tobytes() == gk_skip.tobytes() and gw.tobytes() == gw_skip.tobytes()
    assert np.abs(gx).sum() > 0
    assert len(asked["relu"]) == 1 and not skipped["relu"]
    (needed, _), = asked["relu"]
    assert needed == ((True,),)  # every rule is called as backward(g, needed)
    for op in ("conv2d", "matmul"):
        (needed, result), = skipped[op]
        assert needed == ((False, True),) and result[0] is None and result[1] is not None
        (needed, result), = asked[op]
        assert needed == ((True, True),) and result[0] is not None


@pytest.mark.parametrize("k", [1, 3])
def test_backward_returns_c_ordered_gradients(k):
    """A conv's kernel gradient is a transposed product. Adam's elementwise
    updates against its C-ordered moments are slower over that layout (a
    real-dims step took about 1.5x as long), so the tape hands every
    gradient back in C order."""
    t = ad.Tape()
    x, kernel = t.leaf(np.ones((2, 3, 3, 4))), t.leaf(np.ones((k, k, 4, 5)))
    gk, = t.backward(ad.sum_all(ad.conv2d(x, kernel)), [kernel])
    assert gk.shape == (k, k, 4, 5) and gk.flags.c_contiguous


def test_backward_of_add_is_passthrough():
    rng = np.random.default_rng(11)
    t = ad.Tape()
    x, y = t.leaf(rng.normal(size=(2, 3))), t.leaf(rng.normal(size=(2, 3)))
    mix = rng.normal(size=(2, 3))
    gx, gy = t.backward(ad.sum_all(ad.mul(ad.add(x, y), t.leaf(mix))), [x, y])
    npt.assert_allclose(gx, mix, atol=1e-6)
    npt.assert_allclose(gy, mix, atol=1e-6)


def test_backward_of_concat_splits_at_boundary():
    rng = np.random.default_rng(12)
    t = ad.Tape()
    x, y = t.leaf(rng.normal(size=(2, 3))), t.leaf(rng.normal(size=(4, 3)))
    mix = rng.normal(size=(6, 3))
    gx, gy = t.backward(ad.sum_all(ad.mul(ad.concat(x, y, 0), t.leaf(mix))), [x, y])
    # index oracle: each input element receives exactly its own slot's weight
    npt.assert_allclose(gx, mix[:2], atol=1e-6)
    npt.assert_allclose(gy, mix[2:], atol=1e-6)


def test_max_time_tie_routes_gradient_to_lowest_index():
    t = ad.Tape()
    x = t.leaf([[2.0, 1.0], [2.0, 3.0], [2.0, 3.0]])
    (g,) = t.backward(ad.sum_all(ad.max_time(x)), [x])
    npt.assert_array_equal(g, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_non_scalar_loss_is_contract_error():
    t = ad.Tape()
    x = t.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        t.backward(ad.mul(x, x), [x])


def test_double_backward_is_contract_error():
    t = ad.Tape()
    x = t.leaf([[2.0]])
    loss = ad.sum_all(ad.mul(x, x))
    t.backward(loss, [x])
    with pytest.raises(ContractError):
        t.backward(loss, [x])


def test_backward_rejects_foreign_tensors():
    t1, t2 = ad.Tape(), ad.Tape()
    x1 = t1.leaf([[1.0]])
    x2 = t2.leaf([[1.0]])
    loss = ad.sum_all(x1)
    with pytest.raises(ContractError):
        t1.backward(loss, [x2])
    with pytest.raises(ContractError):
        t2.backward(loss, [x2])


def test_f64_tape_stores_f64():
    t = ad.Tape("f64")
    assert ad.mul(t.leaf([[1.0]]), t.leaf([[2.0]])).data.dtype == np.float64
    t32 = ad.Tape()
    assert t32.leaf([[1.0]]).data.dtype == np.float32


def test_unknown_precision_is_config_error():
    with pytest.raises(ConfigError):
        ad.Tape("f16")


@pytest.mark.parametrize("videos", [0, 1.5, True])
def test_video_count_must_be_an_int_of_at_least_one(videos):
    with pytest.raises(ConfigError, match="videos"):
        ad.Tape(videos=videos)


# ---------------------------------------------------------------------------
# finite differences on every op (the gradcheck suite is also run by
# test_acceptance; here a spot check keeps this module self-contained)


def _over_videos(videos, op):
    """Tag a spot-check op with the video count of the tape it runs on."""
    op.videos = videos
    return op


@pytest.mark.parametrize("shape_x,shape_y,op", [
    ((3, 4), (4, 2), ad.matmul),
    ((3, 4), (3, 4), ad.add),
    ((3, 4), (3, 4), ad.sub),
    ((3, 1), (3, 4), ad.mul),
    ((2, 3), (4, 3), lambda a, b: ad.concat(a, b, 0)),
    ((2, 3, 3, 2), (3, 3, 2, 2), ad.conv2d),
    ((3 * 2, 4), (3 * 5, 4), _over_videos(3, lambda a, b: ad.matmul(a, b, transpose_b=True))),
    ((2 * 3, 5), (2 * 5, 4), _over_videos(2, lambda a, b: ad.matmul(a, b))),
    ((2 * 3, 5), (5, 4), _over_videos(2, lambda a, b: ad.matmul(a, b))),  # shared weight
    ((2 * 3, 4), (2 * 1, 4), _over_videos(2, lambda a, b: ad.concat(a, b, 0))),
])
def test_binary_op_gradients_match_finite_differences(shape_x, shape_y, op):
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=shape_x), rng.normal(size=shape_y)

    def build(arrs):
        tape = ad.Tape("f64", videos=getattr(op, "videos", 1))
        tx, ty = tape.leaf(arrs[0]), tape.leaf(arrs[1])
        out = op(tx, ty)
        mix = tape.leaf(np.arange(out.data.size).reshape(out.shape) * 0.1 + 0.3)
        return ad.sum_all(ad.mul(out, mix)), [tx, ty]

    result = check_gradients("spot", build, [x, y])
    assert result.passed, result.line()


@pytest.mark.parametrize("op", [
    ad.sigmoid, ad.tanh,
    lambda x: ad.softmax(x, 0), lambda x: ad.softmax(x, 1),
    ad.sum_all, ad.sum_time, ad.max_time,
    lambda x: ad.scale(x, -1.7),
    ad.transpose,
    lambda x: ad.reshape(x, (2, 6)),
    lambda x: ad.slice_axis(x, 0, 1, 3),
])
def test_unary_op_gradients_match_finite_differences(op):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 4))

    def build(arrs):
        tape = ad.Tape("f64")
        tx = tape.leaf(arrs[0])
        out = op(tx)
        mix = tape.leaf(np.arange(out.data.size).reshape(out.shape) * 0.1 + 0.3)
        return ad.sum_all(ad.mul(out, mix)), [tx]

    result = check_gradients("spot", build, [x])
    assert result.passed, result.line()


def test_sigmoid_saturates_without_floating_point_warnings():
    import warnings
    x = np.array([-100.0, 0.0, 5.0], dtype=np.float32)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        t = ad.Tape()
        leaf = t.leaf(x)
        out = ad.sigmoid(leaf)
        (g,) = t.backward(ad.sum_all(out), [leaf])
    npt.assert_array_equal(out.data, np.float32([0.0, 0.5, 1.0 / (1.0 + np.exp(-5.0))]))
    assert g[0] == 0.0 and g[1] == np.float32(0.25)


def test_param_registers_read_only_arrays_without_a_copy():
    t = ad.Tape()
    frozen = np.arange(6, dtype=np.float32).reshape(2, 3)
    frozen.setflags(write=False)
    writable = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert t.param(frozen).data is frozen
    copied = t.param(writable)
    assert not np.shares_memory(copied.data, writable)
    # another precision is a cast, hence a copy
    assert ad.Tape("f64").param(frozen).data.dtype == np.float64


# ---------------------------------------------------------------------------
# time-axis ops over B videos folded into the leading axis


def _per_video(fn, x, videos):
    """fn applied to each video's rows of a folded array, rows stacked back."""
    return np.concatenate([fn(part) for part in np.split(x, videos)])


@pytest.mark.parametrize("videos", [1, 2, 3])
def test_time_ops_over_videos_match_a_loop_over_videos(videos):
    rng = np.random.default_rng(21)
    T, d = 4, 3
    x = rng.normal(size=(videos * T, d))
    y = rng.normal(size=(videos * 2, d))
    t = ad.Tape("f64", videos=videos)
    tx, ty = t.leaf(x), t.leaf(y)

    def single(op, *arrays):
        tape = ad.Tape("f64")
        return op(*(tape.leaf(a) for a in arrays)).data

    cases = [
        (ad.softmax(tx, 0), _per_video(lambda p: single(lambda a: ad.softmax(a, 0), p),
                                       x, videos)),
        (ad.max_time(tx), _per_video(lambda p: single(ad.max_time, p), x, videos)),
        (ad.sum_time(tx), _per_video(lambda p: single(ad.sum_time, p), x, videos)),
        (ad.slice_axis(tx, 0, 1, T),
         _per_video(lambda p: single(lambda a: ad.slice_axis(a, 0, 1, T), p), x, videos)),
        (ad.concat(tx, ty, 0),
         np.concatenate([single(lambda a, b: ad.concat(a, b, 0), p, q)
                         for p, q in zip(np.split(x, videos), np.split(y, videos))])),
    ]
    for got, want in cases:
        npt.assert_array_equal(got.data, want)


def test_matmul_multiplies_each_video_by_its_own_block():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(3 * 2, 4))
    b = rng.normal(size=(3 * 5, 4))
    t = ad.Tape("f64", videos=3)
    out = ad.matmul(t.leaf(a), t.leaf(b), transpose_b=True)
    want = np.concatenate([p @ q.T for p, q in zip(np.split(a, 3), np.split(b, 3))])
    assert out.shape == (6, 5)
    npt.assert_allclose(out.data, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("videos, a_shape, b_shape, transpose_b", [
    (3, (3 * 2, 4), (3 * 5, 4), False),  # 15 rows: neither k = 4 nor 3 * 4
    (3, (3 * 2, 4), (14, 4), True),      # 14 rows do not split into 3 videos
    (3, (3 * 2, 4), (3 * 5, 3), True),   # each video's (5, 3) block has 3 columns, not k = 4
    (4, (3 * 2, 4), (4, 5), False),      # a's 6 rows do not split into 4 videos
])
def test_matmul_operands_must_fit_one_reading(videos, a_shape, b_shape, transpose_b):
    """b is one (k, n) weight or each video's own block: anything else is a
    shape error."""
    t = ad.Tape(videos=videos)
    with pytest.raises(ShapeError):
        ad.matmul(t.leaf(np.ones(a_shape)), t.leaf(np.ones(b_shape)), transpose_b=transpose_b)


# one video's operands at the model's product shapes, and whether b is that
# video's own block: the heads' shared weights (relevance, weak logits, the
# max-pooled class head's one row per video) and the attention's scores and mixing
PRODUCT_SHAPES = [((10, 128), (128, 1), False, False), ((10, 128), (128, 5), False, False),
                  ((1, 128), (128, 4), False, False), ((10, 512), (512, 1), False, False),
                  ((10, 64), (20, 64), True, True), ((10, 20), (20, 64), True, False)]


@pytest.mark.parametrize("a_shape, b_shape, own, transpose_b", [
    ((3, 4), (5, 4), True, True), ((3, 5), (5, 4), False, False)] + PRODUCT_SHAPES)
def test_matmul_of_one_video_is_the_plain_product(a_shape, b_shape, own, transpose_b):
    rng = np.random.default_rng(23)
    a, b = rng.normal(size=a_shape).astype(np.float32), rng.normal(size=b_shape).astype(np.float32)
    t = ad.Tape()
    out = ad.matmul(t.leaf(a), t.leaf(b), transpose_b=transpose_b)
    want = a @ (np.ascontiguousarray(b.T) if transpose_b else b)
    assert out.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("videos", [7, 32])
@pytest.mark.parametrize("a_shape, b_shape, own, transpose_b", PRODUCT_SHAPES)
def test_matmul_gives_each_video_its_one_video_bits(videos, a_shape, b_shape, own, transpose_b):
    rng = np.random.default_rng(25)
    a = rng.normal(size=(videos * a_shape[0], a_shape[1])).astype(np.float32)
    b = rng.normal(size=(videos * b_shape[0], b_shape[1]) if own else b_shape)
    b = b.astype(np.float32)
    t = ad.Tape(videos=videos)
    out = ad.matmul(t.leaf(a), t.leaf(b), transpose_b=transpose_b).data
    for i, rows in enumerate(np.split(a, videos)):
        one = ad.Tape()
        block = np.split(b, videos)[i] if own else b
        want = ad.matmul(one.leaf(rows), one.leaf(block), transpose_b=transpose_b)
        assert out[i * a_shape[0]:(i + 1) * a_shape[0]].tobytes() == want.data.tobytes(), i


@pytest.mark.parametrize("videos", [7, 32])
@pytest.mark.parametrize("a_shape, b_shape", [((10, 128), (128, 5)), ((1, 128), (128, 4))])
def test_shared_weight_gradients_are_the_flat_products(videos, a_shape, b_shape):
    """Only the forward runs per video: a shared weight's backward keeps one
    product over all the tape's rows for each operand."""
    rng = np.random.default_rng(26)
    a = rng.normal(size=(videos * a_shape[0], a_shape[1])).astype(np.float32)
    w = rng.normal(size=b_shape).astype(np.float32)
    g = rng.normal(size=(len(a), b_shape[1])).astype(np.float32)
    t = ad.Tape(videos=videos)
    ta, tw = t.leaf(a), t.leaf(w)
    ga, gw = t.backward(ad.sum_all(ad.mul(ad.matmul(ta, tw), t.leaf(g))), [ta, tw])
    assert ga.tobytes() == (g @ w.T).tobytes()
    assert gw.tobytes() == (a.T @ g).tobytes()


@pytest.mark.parametrize("videos,op", [
    (3, lambda x: ad.softmax(x, 0)), (3, lambda x: ad.softmax(x, 1)),
    (3, ad.max_time), (2, ad.sum_time),
    (3, lambda x: ad.slice_axis(x, 0, 0, 1)),
], ids=["softmax_time", "softmax_rows", "max_time", "sum_time", "slice_axis"])
def test_time_op_gradients_over_videos_match_finite_differences(videos, op):
    rng = np.random.default_rng(24)
    x = rng.normal(size=(6, 4))

    def build(arrs):
        tape = ad.Tape("f64", videos=videos)
        tx = tape.leaf(arrs[0])
        out = op(tx)
        mix = tape.leaf(np.arange(out.data.size).reshape(out.shape) * 0.1 + 0.3)
        return ad.sum_all(ad.mul(out, mix)), [tx]

    result = check_gradients("spot", build, [x])
    assert result.passed, result.line()
