"""Cross-modal relation attention and the audio-visual interaction stage.

The primitive lets a (T, d) query sequence attend over the concatenation of
itself and a partner sequence along time (2T keys/values), so every segment
can mix evidence from both modalities at every time step. Two relation
branches run it in both directions; the interaction stage runs it once more
on the elementwise product of the branches against their channel
concatenation, with a residual, yielding the (T, 2*d_m) classification
feature.
"""

from __future__ import annotations

import math
from typing import Mapping

from . import autodiff as ad
from .errors import ShapeError


def cross_modal_attend(query_seq: ad.Tensor, context_seq: ad.Tensor,
                       query_proj: ad.Tensor, key_proj: ad.Tensor,
                       value_proj: ad.Tensor) -> tuple[ad.Tensor, dict[str, ad.Tensor]]:
    """Single-head scaled dot-product attention, 1/sqrt(d_m), of `query_seq`
    over [query_seq; context_seq]; returns the output and its (T, 2T) `weights`.

    Both sequences must share channel width; keys and values come from their
    time-axis concatenation, so each of the T output rows is a convex mixture
    of 2T value rows.
    """
    if query_seq.ndim != 2 or context_seq.ndim != 2 \
            or query_seq.shape[1] != context_seq.shape[1]:
        raise ShapeError(f"query {query_seq.shape} and context {context_seq.shape} "
                         "must be (T, d) with equal d")
    merged = ad.concat(query_seq, context_seq, 0)               # (2T, d)
    q = ad.matmul(query_seq, query_proj)                        # (T, d_m)
    k = ad.matmul(merged, key_proj)                             # (2T, d_m)
    v = ad.matmul(merged, value_proj)                           # (2T, d_out)
    scores = ad.scale(ad.matmul(q, k, transpose_b=True),
                      1.0 / math.sqrt(q.shape[1]))             # (T, 2T)
    weights = ad.softmax(scores, axis=1)
    return ad.matmul(weights, v), {"weights": weights}


def relation_aware(audio_seq: ad.Tensor, visual_seq: ad.Tensor,
                   audio_proj: ad.Tensor, visual_proj: ad.Tensor,
                   audio_branch: Mapping[str, ad.Tensor],
                   visual_branch: Mapping[str, ad.Tensor]):
    """Project both streams to d_m, then let each attend over both; returns
    the audio and the visual branch, each as `cross_modal_attend` returns it.

    The branches are the audio_branch and visual_branch groups of the
    model's parameter table, keyed by `cross_modal_attend`'s projection names.
    """
    a = ad.matmul(audio_seq, audio_proj)
    v = ad.matmul(visual_seq, visual_proj)
    visual_rel = cross_modal_attend(v, a, **visual_branch)
    audio_rel = cross_modal_attend(a, v, **audio_branch)
    return audio_rel, visual_rel


def interact(audio_rel: ad.Tensor, visual_rel: ad.Tensor, fused_proj: ad.Tensor,
             branch: Mapping[str, ad.Tensor]) -> tuple[ad.Tensor, dict[str, ad.Tensor]]:
    """Fuse the relation branches into the (T, 2*d_m) classification feature;
    returns it and the mixing attention's parts.

    The concatenated pair is the residual; the attention mixes the
    elementwise product (resonance) against a width-reconciled view of the
    pair.
    """
    if audio_rel.shape != visual_rel.shape:
        raise ShapeError(f"relation branches disagree: {audio_rel.shape} vs {visual_rel.shape}")
    resonance = ad.mul(audio_rel, visual_rel)                    # (T, d_m)
    paired = ad.concat(audio_rel, visual_rel, axis=1)            # (T, 2*d_m)
    context = ad.matmul(paired, fused_proj)                      # (T, d_m)
    mixed, parts = cross_modal_attend(resonance, context, **branch)
    return ad.add(mixed, paired), parts
