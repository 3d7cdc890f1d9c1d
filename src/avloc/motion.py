"""Past/future motion excitation.

Turns per-segment visual features into a (T, d_a) motion descriptor: align
visual channels to the audio width, difference each segment against its
temporal neighbors through small spatial convolutions (which absorb pixel
offset between segments), fuse both directions, spatially pool, and remap
channels. The first segment has no past and the last no future, so those
rows are exactly zero by construction. Both directions and their sum are
one tape op, `autodiff.neighbor_motion`. `VARIANTS` lists the motion modes:
`future_only` zeroes the past motion and `off` the whole feature.
"""

from __future__ import annotations

from typing import Mapping

from . import autodiff as ad
from .errors import ConfigError


def align_channels(visual: ad.Tensor, align_kernel: ad.Tensor) -> ad.Tensor:
    """(T, h, w, d_v) -> (T, h, w, d_a) through a 1x1 convolution."""
    return ad.conv2d(visual, align_kernel)


def past_future_motion(aligned: ad.Tensor, past_kernel: ad.Tensor,
                       future_kernel: ad.Tensor) -> ad.Tensor:
    """Both directions fused, future + past: the motion leaving each segment
    toward its successor, conv(next) - current, whose last row is exactly
    zero, plus the motion that arrived from its predecessor, conv(current) -
    previous, whose first row is."""
    return ad.neighbor_motion(aligned, future_kernel, past_kernel)


def future_motion(aligned: ad.Tensor, future_kernel: ad.Tensor) -> ad.Tensor:
    """The future direction alone, plus a past of zeros."""
    return ad.neighbor_motion(aligned, future_kernel, None)


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
