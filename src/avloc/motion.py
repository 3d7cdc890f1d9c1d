"""Past/future motion excitation.

Turns per-segment visual features into a (T, d_a) motion descriptor: align
visual channels to the audio width, difference each segment against its
temporal neighbors through small spatial convolutions (which absorb pixel
offset between segments), fuse both directions, spatially pool, and remap
channels. The first segment has no past and the last no future, so those
rows are exactly zero by construction. The ablation modes replace the past
motion (`future_only`) or the whole feature (`off`) with zeros.
"""

from __future__ import annotations

from typing import Mapping

from . import autodiff as ad
from .errors import ConfigError, ContractError

MOTION_MODES = ("pfme", "future_only", "off")


def align_channels(visual: ad.Tensor, align_kernel: ad.Tensor) -> ad.Tensor:
    """(T, h, w, d_v) -> (T, h, w, d_a) through a 1x1 convolution."""
    return ad.conv2d(visual, align_kernel)


def _neighbor_difference(aligned: ad.Tensor, kernel: ad.Tensor,
                         zero_first: bool) -> ad.Tensor:
    """conv(aligned)[1:] - aligned[:-1], padded back to T rows with an exact
    zero row at the start (past motion) or at the end (future motion). T and
    the zero rows are per video of the tape."""
    tape = aligned.tape
    T = aligned.shape[0] // tape.videos
    if T < 2:
        raise ContractError(f"motion extraction needs T >= 2, got T={T}")
    convolved = ad.conv2d(aligned, kernel)
    body = ad.sub(ad.slice_axis(convolved, 0, 1, T), ad.slice_axis(aligned, 0, 0, T - 1))
    zero_rows = tape.zeros((tape.videos,) + aligned.shape[1:])
    return ad.concat(zero_rows, body, 0) if zero_first else ad.concat(body, zero_rows, 0)


def past_motion(aligned: ad.Tensor, kernel: ad.Tensor) -> ad.Tensor:
    """Motion that arrived into each segment from its predecessor:
    conv(current) - previous. Row 0 is exactly zero."""
    return _neighbor_difference(aligned, kernel, zero_first=True)


def future_motion(aligned: ad.Tensor, kernel: ad.Tensor) -> ad.Tensor:
    """Motion leaving each segment toward its successor: conv(next) - current.
    The last row is exactly zero."""
    return _neighbor_difference(aligned, kernel, zero_first=False)


def past_future_motion(aligned: ad.Tensor, past_kernel: ad.Tensor,
                       future_kernel: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    return past_motion(aligned, past_kernel), future_motion(aligned, future_kernel)


def fuse_and_pool(past: ad.Tensor, future: ad.Tensor, out_map: ad.Tensor) -> ad.Tensor:
    """Add both directions, average over space, remap channels -> (T, d_a)."""
    if past.shape != future.shape:
        raise ContractError(f"past/future motion shapes differ: {past.shape} vs {future.shape}")
    fused = ad.add(future, past)
    pooled = ad.avg_spatial(fused)
    return ad.matmul(pooled, out_map)


def motion_feature(visual: ad.Tensor, p: Mapping[str, ad.Tensor],
                   mode: str = "pfme") -> ad.Tensor:
    """(T, h, w, d_v) visual -> (T, d_a) motion feature, from the `motion`
    group of the model's parameter table. `future_only` sets the past motion
    to zero; `off` is all zeros and reads no weight."""
    if mode not in MOTION_MODES:
        raise ConfigError(f"motion must be one of {MOTION_MODES}, got {mode!r}")
    if mode == "off":
        return visual.tape.zeros((visual.shape[0], p["out_map"].shape[1]))
    aligned = align_channels(visual, p["align_kernel"])
    if mode == "future_only":
        past = aligned.tape.zeros(aligned.shape)
        future = future_motion(aligned, p["future_kernel"])
    else:
        past, future = past_future_motion(aligned, p["past_kernel"], p["future_kernel"])
    return fuse_and_pool(past, future, p["out_map"])
