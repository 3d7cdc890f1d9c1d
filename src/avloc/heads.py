"""Classification heads, decoding, and losses.

The forward builds one video-level class distribution per mode: supervised,
a max-pool over time of the fused feature; weak, the sum over time of the
per-segment class logits, background included. The per-segment relevance
score is a sigmoid per time step, and a segment is an event only when its
score is strictly greater than 0.5 (the boundary decodes to background).
Both modes train the distribution's video-level cross entropy; supervised
training adds a per-segment binary cross entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import LabelError, ShapeError


@dataclass
class Prediction:
    """Per-video outputs: relevance scores, class distribution, decoded labels.

    `decoded[t]` is the background index (== number of event classes) exactly
    when the segment was not scored as an event.
    """

    video_id: str
    event_scores: np.ndarray  # (T,) in (0, 1)
    class_probs: np.ndarray   # (n_out,), sums to 1
    decoded: np.ndarray       # (T,) ints in [0, C]

    def to_record(self) -> dict:
        return {
            "video_id": self.video_id,
            "S_e": [float(v) for v in self.event_scores],
            "S_c": [float(v) for v in self.class_probs],
            "decoded": [int(v) for v in self.decoded],
        }


# ---------------------------------------------------------------------------
# forward heads


def class_distribution(fused: ad.Tensor, p: Mapping[str, ad.Tensor]) -> ad.Tensor:
    """Max-pool (T, 2*d_m) over time, project, softmax -> (1, n_out).

    `p` (here and below) is the head group of the model's parameter table.
    """
    return ad.softmax(per_segment_logits(ad.max_time(fused), p), axis=1)


def event_relevance(fused: ad.Tensor, p: Mapping[str, ad.Tensor]) -> ad.Tensor:
    """Per-segment relevance score -> (T, 1)."""
    logits = ad.add(ad.matmul(fused, p["event_weight"]), p["event_bias"])
    return ad.sigmoid(logits)


def per_segment_logits(fused: ad.Tensor, p: Mapping[str, ad.Tensor]) -> ad.Tensor:
    """Class logits per row, a time step or a pooled video -> (T, n_out)."""
    return ad.add(ad.matmul(fused, p["class_weight"]), p["class_bias"])


def weak_class_distribution(segment_logits: ad.Tensor) -> ad.Tensor:
    """Sum each video's (T, C+1) segment logits over time, softmax -> (1, C+1)."""
    return ad.softmax(ad.sum_time(segment_logits), axis=1)


# ---------------------------------------------------------------------------
# decoding


def decode_supervised(class_probs: np.ndarray, event_scores: np.ndarray) -> np.ndarray:
    """Every segment scoring > 0.5 gets the video's argmax class, the rest
    decode to background (index == len(class_probs))."""
    background = len(class_probs)
    label = int(np.argmax(class_probs))
    return np.where(np.asarray(event_scores) > 0.5, label, background).astype(np.int64)


def decode_weak(segment_logits: np.ndarray) -> np.ndarray:
    """Per-segment argmax over C+1 scores; the last column is background."""
    return np.argmax(np.asarray(segment_logits), axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# losses


def _video_cross_entropy(class_probs: ad.Tensor, video_class: int | Sequence[int],
                         classes: int) -> ad.Tensor:
    """Mean over the tape's videos of -log p(video class), one (1, width)
    distribution row and one class in [0, classes] per video. The background
    class `classes` has a column only when the width includes it, and adds
    nothing otherwise. Logs are clamped at `ad.LOG_FLOOR`."""
    tape = class_probs.tape
    videos, width = class_probs.shape
    indices = [int(c) for c in np.atleast_1d(video_class)]
    if len(indices) != tape.videos:
        raise ShapeError(f"{len(indices)} video classes for a tape of {tape.videos} video(s)")
    for index in indices:
        if not 0 <= index <= classes:
            raise LabelError(f"class index {index} outside [0, {classes}]")
    onehot = np.zeros((len(indices), classes + 1))
    onehot[np.arange(len(indices)), indices] = 1.0
    return ad.scale(ad.sum_all(ad.mul(tape.leaf(onehot[:, :width]),
                                      ad.log_clamped(class_probs))), -1.0 / videos)


def supervised_loss_terms(class_probs: ad.Tensor, event_scores: ad.Tensor,
                          video_class: int | Sequence[int], segment_relevance: np.ndarray
                          ) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """Returns (total, class_term, event_term); total == class + event exactly.

    Class term: cross entropy of the (1, C) distribution against the one-hot
    video class. Event term: binary cross entropy of the (T, 1) relevance
    scores against 0/1 segment relevance, averaged over T so the two terms
    stay comparable whatever T is. Logs are clamped at `ad.LOG_FLOOR`.
    `video_class` holds one class per video of the tape, and each term is
    the mean over the videos. A background-only video (class C) adds nothing
    to the class term's sum, which is still divided by the count of all the
    videos.
    """
    tape = class_probs.tape
    rows = event_scores.shape[0]
    class_term = _video_cross_entropy(class_probs, video_class, class_probs.shape[1])

    y = np.asarray(segment_relevance, dtype=float).reshape(rows, 1)
    y_t = tape.leaf(y)
    not_y = tape.leaf(1.0 - y)
    ones = tape.leaf(np.ones((rows, 1)))
    complement = ad.sub(ones, event_scores)
    per_segment = ad.add(ad.mul(y_t, ad.log_clamped(event_scores)),
                         ad.mul(not_y, ad.log_clamped(complement)))
    event_term = ad.scale(ad.sum_all(per_segment), -1.0 / rows)
    return ad.add(class_term, event_term), class_term, event_term


def supervised_loss(class_probs: ad.Tensor, event_scores: ad.Tensor,
                    video_class: int | Sequence[int],
                    segment_relevance: np.ndarray) -> ad.Tensor:
    total, _, _ = supervised_loss_terms(class_probs, event_scores,
                                        video_class, segment_relevance)
    return total


def weak_aggregate_loss(class_probs: ad.Tensor,
                        video_class: int | Sequence[int]) -> ad.Tensor:
    """The video-level cross entropy of the (1, C+1) weak distribution; only
    the video class supervises weak mode, per-segment relevance never does."""
    return _video_cross_entropy(class_probs, video_class, class_probs.shape[1] - 1)
