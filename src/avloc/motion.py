"""Past/future motion excitation.

Turns per-segment visual features into a (T, d_a) motion descriptor: align
visual channels to the audio width, difference each segment against its
temporal neighbors through small spatial convolutions (which absorb pixel
offset between segments), fuse both directions, spatially pool, and remap
channels. The first segment has no past and the last no future, so those
rows are exactly zero by construction. Both directions and their sum are
one tape op. The motion variants are the rows of `VARIANTS`: `future_only`
replaces the past motion and `off` the whole feature with zeros.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, ShapeError


def align_channels(visual: ad.Tensor, align_kernel: ad.Tensor) -> ad.Tensor:
    """(T, h, w, d_v) -> (T, h, w, d_a) through a 1x1 convolution."""
    return ad.conv2d(visual, align_kernel)


def _motion(aligned: ad.Tensor, future_kernel: ad.Tensor,
            past_kernel: ad.Tensor | None) -> ad.Tensor:
    """future + past as one tape node, where per video future[t] =
    conv(aligned)[t + 1] - aligned[t] and past[t] = conv'(aligned)[t] -
    aligned[t - 1], each exactly zero in the row it lacks, and a missing past
    kernel is a past of zeros.

    Forward and backward do, value for value, the arithmetic of composing
    each direction from conv2d, slice_axis, sub, zeros and concat and adding
    them, in the order the tape's reverse sweep runs it, and the two kernel
    gradients share one im2col of `aligned`.
    """
    # in the node's input order: (aligned, past, future) or (aligned, future)
    kernels = (future_kernel,) if past_kernel is None else (past_kernel, future_kernel)
    tape = ad._tape_of(aligned, *kernels)
    for kernel in kernels:
        ad._check_conv(aligned.shape, kernel.shape)
        if kernel.shape != future_kernel.shape or kernel.shape[3] != aligned.shape[3]:
            raise ShapeError(f"motion kernels must both map the {aligned.shape[3]} channels "
                             f"of {aligned.shape} to themselves, got "
                             f"{[k.shape for k in kernels]}")
    view = ad._by_video(aligned.shape, tape.videos)
    T = view[1]
    if T < 2:
        raise ContractError(f"motion extraction needs T >= 2, got T={T}")
    X = aligned.data
    x = X.reshape(view)
    K_future = future_kernel.data
    K_past = None if past_kernel is None else past_kernel.data

    def difference(K, zero_row: int) -> np.ndarray:
        # conv(x)[1:] - x[:-1] per video, beside an exact zero row
        d = np.empty(view, dtype=X.dtype)
        d[:, zero_row] = 0.0
        body = slice(1, T) if zero_row == 0 else slice(0, T - 1)
        np.subtract(ad._conv_forward(X, K).reshape(view)[:, 1:], x[:, :-1], out=d[:, body])
        return d

    out = difference(K_future, T - 1)
    # a missing past adds +0.0, as adding a zeros grid did: a -0.0 becomes +0.0
    out += 0.0 if K_past is None else difference(K_past, 0)

    def backward(g, needed):
        g = g.reshape(view)
        g_future = np.empty(view, dtype=g.dtype)  # at the future conv: g one row later
        g_future[:, 0] = 0.0
        g_future[:, 1:] = g[:, :-1]
        if K_past is not None:  # at the past conv: g less its first row
            g_past = g.copy()
            g_past[:, 0] = 0.0
        gx = None
        if needed[0]:
            # summed as the composed chain's reverse sweep adds them: the
            # future slice, the future conv, the past slice, the past conv
            gx = np.empty(view, dtype=g.dtype)
            gx[:, T - 1] = 0.0
            np.negative(g[:, :-1], out=gx[:, :-1])
            gx += ad._conv_input_grad(g_future.reshape(X.shape), K_future).reshape(view)
            if K_past is not None:
                gx[:, :-1] -= g[:, 1:]  # its +0.0 in row T - 1 changes no bit there
                gx += ad._conv_input_grad(g_past.reshape(X.shape), K_past).reshape(view)
            gx = gx.reshape(X.shape)
        g_convs = [g_future] if K_past is None else [g_past, g_future]  # input order
        gks = iter(ad._conv_kernel_grads(
            X, [g.reshape(X.shape) for g, flag in zip(g_convs, needed[1:]) if flag],
            K_future.shape[0]))
        return (gx,) + tuple(next(gks) if flag else None for flag in needed[1:])

    return tape._record(out.reshape(X.shape), (aligned.node_id,) + tuple(
        kernel.node_id for kernel in kernels), backward, selective=True)


def past_future_motion(aligned: ad.Tensor, past_kernel: ad.Tensor,
                       future_kernel: ad.Tensor) -> ad.Tensor:
    """Both directions fused, future + past: the motion leaving each segment
    toward its successor, conv(next) - current, whose last row is exactly
    zero, plus the motion that arrived from its predecessor, conv(current) -
    previous, whose first row is."""
    return _motion(aligned, future_kernel, past_kernel)


def future_motion(aligned: ad.Tensor, future_kernel: ad.Tensor) -> ad.Tensor:
    """The future direction alone, plus a past of zeros."""
    return _motion(aligned, future_kernel, None)


def fuse_and_pool(motion: ad.Tensor, out_map: ad.Tensor) -> ad.Tensor:
    """Average the fused motion over space, remap channels -> (T, d_a)."""
    return ad.matmul(ad.avg_spatial(motion), out_map)


# mode -> (its readout of the aligned grid, None for zeros that read no weight;
# its ablation rows as (row name, temporal attention)); the grid runs bottom-up
VARIANTS = {
    "pfme": (lambda x, p: past_future_motion(x, p["past_kernel"], p["future_kernel"]),
             (("pfme_wo_temporal_attention", False), ("pfme_w_temporal_attention", True))),
    "future_only": (lambda x, p: future_motion(x, p["future_kernel"]), (("future_only", False),)),
    "off": (None, (("no_motion", False),)),
}


def check_mode(mode: str) -> None:
    if not (isinstance(mode, str) and mode in VARIANTS):
        raise ConfigError(f"motion must be one of {tuple(VARIANTS)}, got {mode!r}")


def motion_feature(visual: ad.Tensor, p: Mapping[str, ad.Tensor],
                   mode: str = "pfme") -> ad.Tensor:
    """(T, h, w, d_v) visual -> (T, d_a) motion feature of the `VARIANTS`
    row `mode`, from the `motion` group of the model's parameter table."""
    check_mode(mode)
    readout = VARIANTS[mode][0]
    if readout is None:
        return visual.tape.zeros((visual.shape[0], p["out_map"].shape[1]))
    return fuse_and_pool(readout(align_channels(visual, p["align_kernel"]), p), p["out_map"])
