"""Motion-guided audio attention and audio-guided visual attention.

The audio branch is gated twice by the visual motion feature: a temporal
softmax weighting (which segments carry motion) and a per-channel sigmoid
gate, each applied as a multiplicative residual. The purified audio then
guides the visual branch: a channel gate built from a joint audio/visual
hidden space, followed by a spatial attention that collapses the grid to one
vector per segment.
"""

from __future__ import annotations

from typing import Mapping

from . import autodiff as ad
from .errors import ShapeError


def motion_guided_audio(audio: ad.Tensor, motion: ad.Tensor, temporal_weight: ad.Tensor,
                        use_temporal: bool = True) -> tuple[ad.Tensor, dict[str, ad.Tensor]]:
    """Gate (T, d_a) audio by the (T, d_a) motion feature; returns it and its
    parts, the (T, 1) `temporal_weights` (if `use_temporal`) and `channel_gate`.

    With zero motion this collapses to a fixed scaling: uniform temporal
    weights contribute (1 + 1/T) and the sigmoid channel gate contributes 1.5.
    """
    if audio.shape != motion.shape:
        raise ShapeError(f"audio {audio.shape} and motion {motion.shape} must match")
    parts = {}
    boosted = audio
    if use_temporal:
        parts["temporal_weights"] = ad.softmax(ad.matmul(motion, temporal_weight), axis=0)
        boosted = ad.add(audio, ad.mul(parts["temporal_weights"], audio))
    parts["channel_gate"] = ad.sigmoid(motion)
    return ad.add(boosted, ad.mul(parts["channel_gate"], boosted)), parts


def _per_location_map(x: ad.Tensor, weight: ad.Tensor) -> ad.Tensor:
    """Apply a (c_in, c_out) map at every grid location of a (T,h,w,c_in) tensor."""
    kernel = ad.reshape(weight, (1, 1) + weight.shape)
    return ad.conv2d(x, kernel)


def _per_segment_broadcast(x: ad.Tensor) -> ad.Tensor:
    """(T, d) -> (T, 1, 1, d) so it broadcasts over grid locations."""
    return ad.reshape(x, (x.shape[0], 1, 1, x.shape[1]))


def audio_guided_channel(audio_gated: ad.Tensor, visual: ad.Tensor,
                         p: Mapping[str, ad.Tensor]) -> ad.Tensor:
    """Channel attention: (T, h, w, d_v) visual gated by (T, d_a) audio.

    `p` is the visual_gate group of the model's parameter table.

    Audio and visual project into a shared hidden space, joint activity is
    averaged over the grid, mapped back to d_v, and multiplies a linear view
    of the visual features. No biases anywhere, so either stream being zero
    zeroes the output.
    """
    audio_hidden = ad.relu(ad.matmul(audio_gated, p["channel_audio"]))       # (T, d_h)
    visual_hidden = ad.relu(_per_location_map(visual, p["channel_visual"]))  # (T, h, w, d_h)
    joint = ad.mul(_per_segment_broadcast(audio_hidden), visual_hidden)
    gate = ad.matmul(ad.avg_spatial(joint), p["channel_align"])              # (T, d_v)
    value = _per_location_map(visual, p["channel_value"])
    return ad.mul(_per_segment_broadcast(gate), value)


def audio_guided_spatial(audio_gated: ad.Tensor, visual_gated: ad.Tensor,
                         p: Mapping[str, ad.Tensor]) -> tuple[ad.Tensor, dict[str, ad.Tensor]]:
    """Spatial attention: collapse (T, h, w, d_v) to (T, d_v); returns it and
    its part, the (T, h, w, 1) location `scores`.

    `p` is the visual_gate group of the model's parameter table.

    Each location gets a scalar tanh score from the joint hidden activity;
    the output is the score-weighted sum of the gated visual features over
    the grid.
    """
    _, h, w, _ = visual_gated.shape
    audio_hidden = ad.relu(ad.matmul(audio_gated, p["spatial_audio"]))
    visual_hidden = ad.relu(_per_location_map(visual_gated, p["spatial_visual"]))
    joint = ad.mul(_per_segment_broadcast(audio_hidden), visual_hidden)  # (T, h, w, d_h)
    scores = ad.tanh(_per_location_map(joint, p["spatial_score"]))       # (T, h, w, 1)
    weighted = ad.mul(scores, visual_gated)
    return ad.scale(ad.avg_spatial(weighted), h * w), {"scores": scores}  # spatial sum
