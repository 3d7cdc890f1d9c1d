"""Past/future motion excitation.

Turns per-segment visual features into a (T, d_a) motion descriptor: align
visual channels to the audio width, difference each segment against its
temporal neighbors through small spatial convolutions (which absorb pixel
offset between segments), fuse both directions, spatially pool, and remap
channels. The first segment has no past and the last no future, so those
rows are exactly zero by construction.

A mini-batch of B videos arrives as (B*T, h, w, d) with `videos=B`; every
neighbour and every zero row stays inside its own video.
"""

from __future__ import annotations

from . import autodiff as ad
from .errors import ContractError


def align_channels(visual: ad.Tensor, align_kernel: ad.Tensor) -> ad.Tensor:
    """(T, h, w, d_v) -> (T, h, w, d_a) through a 1x1 convolution."""
    return ad.conv2d(visual, align_kernel)


def _neighbor_difference(aligned: ad.Tensor, kernel: ad.Tensor, videos: int,
                         zero_first: bool) -> ad.Tensor:
    """conv(aligned)[1:] - aligned[:-1] per video, padded back to T rows with
    an exact zero row at the start (past motion) or at the end (future
    motion)."""
    T = aligned.shape[0] // videos
    if T < 2:
        raise ContractError(f"motion extraction needs T >= 2, got T={T}")
    convolved = ad.conv2d(aligned, kernel)
    body = ad.sub(ad.slice_axis(convolved, 0, 1, T, videos),
                  ad.slice_axis(aligned, 0, 0, T - 1, videos))
    zero_rows = aligned.tape.zeros((videos,) + aligned.shape[1:])
    return ad.concat(zero_rows, body, 0, videos) if zero_first \
        else ad.concat(body, zero_rows, 0, videos)


def past_motion(aligned: ad.Tensor, kernel: ad.Tensor, videos: int = 1) -> ad.Tensor:
    """Motion that arrived into each segment from its predecessor:
    conv(current) - previous. Row 0 is exactly zero."""
    return _neighbor_difference(aligned, kernel, videos, zero_first=True)


def future_motion(aligned: ad.Tensor, kernel: ad.Tensor, videos: int = 1) -> ad.Tensor:
    """Motion leaving each segment toward its successor: conv(next) - current.
    The last row is exactly zero."""
    return _neighbor_difference(aligned, kernel, videos, zero_first=False)


def past_future_motion(aligned: ad.Tensor, past_kernel: ad.Tensor,
                       future_kernel: ad.Tensor, videos: int = 1
                       ) -> tuple[ad.Tensor, ad.Tensor]:
    return (past_motion(aligned, past_kernel, videos),
            future_motion(aligned, future_kernel, videos))


def fuse_and_pool(past: ad.Tensor, future: ad.Tensor, out_map: ad.Tensor) -> ad.Tensor:
    """Add both directions, average over space, remap channels -> (T, d_a)."""
    if past.shape != future.shape:
        raise ContractError(f"past/future motion shapes differ: {past.shape} vs {future.shape}")
    fused = ad.add(future, past)
    pooled = ad.avg_spatial(fused)
    return ad.matmul(pooled, out_map)


def motion_feature(visual: ad.Tensor, align_kernel: ad.Tensor,
                   past_kernel: ad.Tensor, future_kernel: ad.Tensor,
                   out_map: ad.Tensor) -> ad.Tensor:
    """Full extractor: (T, h, w, d_v) visual -> (T, d_a) motion feature."""
    aligned = align_channels(visual, align_kernel)
    past, future = past_future_motion(aligned, past_kernel, future_kernel)
    return fuse_and_pool(past, future, out_map)
