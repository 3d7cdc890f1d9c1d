"""Central finite-difference verification of every backward rule.

Each check rebuilds its computation as a scalar function of plain float64
arrays on a fresh f64 tape and compares the tape's gradients against central
differences (eps = 1e-5). An element passes when

    |analytic - numeric| <= 1e-8 + 1e-4 * max(|analytic|, |numeric|)

i.e. relative error below 1e-4 wherever the gradient is meaningfully sized,
decaying to an absolute tolerance of 1e-8 for near-zero entries (central
differences of an O(1) function in f64 carry ~1e-11 of cancellation noise,
so a pure relative test at tiny denominators would reject correct
gradients). Random draws are seeded so a run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import attention, fusion, heads, motion
from .errors import ConfigError
from .model import Dims, ModelConfig, ModelParams, _group, init_params, param_table, run_forward

REL_TOL = 1e-4
ABS_TOL = 1e-8
DENOM_FLOOR = 1e-8
EPS = 1e-5
POINTS = 10
SEED = 0  # seeds every suite's draws


@dataclass
class CheckResult:
    name: str
    max_rel_err: float  # blended: err / (denom + ABS_TOL/REL_TOL), passes < REL_TOL
    max_abs_err: float  # raw error where the gradient is below the denominator floor
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {self.name}: rel={self.max_rel_err:.3e} "
                f"abs={self.max_abs_err:.3e} {status}")


Builder = Callable[[Sequence[np.ndarray]], tuple[ad.Tensor, list[ad.Tensor]]]


def check_gradients(name: str, build: Builder, arrays: Sequence[np.ndarray]) -> CheckResult:
    """Compare tape gradients of a scalar builder against central differences."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    loss, leaves = build(arrays)
    analytic = loss.tape.backward(loss, leaves)

    def value(arrs) -> float:
        out, _ = build(arrs)
        return out.item()

    worst_rel = 0.0
    worst_abs = 0.0
    for i, base in enumerate(arrays):
        numeric = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[i][idx] += EPS
            minus[i][idx] -= EPS
            numeric[idx] = (value(plus) - value(minus)) / (2.0 * EPS)
        err = np.abs(analytic[i] - numeric)
        denom = np.maximum(np.abs(analytic[i]), np.abs(numeric))
        worst_rel = max(worst_rel, float((err / (denom + ABS_TOL / REL_TOL)).max()))
        small = denom <= DENOM_FLOOR
        if small.any():
            worst_abs = max(worst_abs, float(err[small].max()))
    return CheckResult(name=name, max_rel_err=worst_rel, max_abs_err=worst_abs,
                       passed=worst_rel < REL_TOL)


def _family(rng: np.random.Generator, name: str, draw, loss: bool = False
            ) -> list[CheckResult]:
    """POINTS checks of one computation, named `name[p]`.

    `draw()` returns `(fn, arrays)`, where fn maps one f64 leaf per array to a
    tensor. Unless fn already returns a scalar loss, sum(out * mix) with a
    fixed random mix, drawn after the arrays, exercises the whole Jacobian.
    """
    results = []
    for p in range(POINTS):
        fn, arrays = draw()
        mix = None if loss else rng.normal(size=fn(*_leaves(arrays)).shape)

        def build(arrs, fn=fn, mix=mix):
            leaves = _leaves(arrs)
            out = fn(*leaves)
            if mix is not None:
                out = ad.sum_all(ad.mul(out, out.tape.leaf(mix)))
            return out, leaves

        results.append(check_gradients(f"{name}[{p}]", build, arrays))
    return results


def _leaves(arrays) -> list[ad.Tensor]:
    """One leaf per array on a fresh f64 tape."""
    tape = ad.Tape("f64")
    return [tape.leaf(a) for a in arrays]


def _fixed(rng: np.random.Generator, fn, *shapes):
    """A draw of standard-normal arrays of the given shapes for `fn`."""
    return lambda: (fn, [rng.normal(size=s) for s in shapes])


# ---------------------------------------------------------------------------
# tensor-op suite


def _op_checks(rng: np.random.Generator) -> list[CheckResult]:
    def off_kink():
        z = rng.normal(size=(3, 4))
        return ad.relu, [z + 0.05 * np.sign(z)]  # keep relu inputs off the kink

    table = [
        ("relu", off_kink),
        ("sigmoid", _fixed(rng, ad.sigmoid, (3, 4))),
        ("tanh", _fixed(rng, ad.tanh, (3, 4))),
        ("softmax.time", _fixed(rng, lambda t: ad.softmax(t, 0), (3, 4))),
        ("softmax.channel", _fixed(rng, lambda t: ad.softmax(t, 1), (3, 4))),
        ("log_clamped",
         lambda: (ad.log_clamped, [np.abs(rng.normal(size=(3, 4))) + 0.1])),
        ("avg_spatial", _fixed(rng, ad.avg_spatial, (3, 2, 2, 4))),
        ("max_time", _fixed(rng, ad.max_time, (5, 3))),
        ("sum_time", _fixed(rng, ad.sum_time, (5, 3))),
        ("sum_all", _fixed(rng, ad.sum_all, (3, 4))),
        ("scale", _fixed(rng, lambda t: ad.scale(t, 1.7), (3, 4))),
        ("transpose", _fixed(rng, ad.transpose, (3, 4))),
        ("reshape", _fixed(rng, lambda t: ad.reshape(t, (2, 6)), (3, 4))),
        ("slice_axis", _fixed(rng, lambda t: ad.slice_axis(t, 0, 1, 4), (5, 3))),
        ("matmul", _fixed(rng, ad.matmul, (3, 4), (4, 2))),
        ("add", _fixed(rng, ad.add, (3, 4), (3, 4))),
        ("add.broadcast", _fixed(rng, ad.add, (3, 1), (3, 4))),
        ("sub", _fixed(rng, ad.sub, (3, 4), (3, 4))),
        ("mul", _fixed(rng, ad.mul, (3, 4), (3, 4))),
        ("mul.broadcast", _fixed(rng, ad.mul, (3, 1), (3, 4))),
        ("concat.time", _fixed(rng, lambda a, b: ad.concat(a, b, 0), (2, 3), (4, 3))),
        ("concat.channel", _fixed(rng, lambda a, b: ad.concat(a, b, 1), (3, 2), (3, 4))),
        ("conv2d.k3", _fixed(rng, ad.conv2d, (3, 4, 4, 2), (3, 3, 2, 3))),
        ("conv2d.k1", _fixed(rng, ad.conv2d, (2, 2, 2, 3), (1, 1, 3, 2))),
    ]
    return [r for name, draw in table for r in _family(rng, f"tensor.{name}", draw)]


# ---------------------------------------------------------------------------
# module composites (desk-scale-in-miniature dims)

_T, _DA, _DV, _H, _W, _DH, _DM, _C = 3, 3, 4, 2, 2, 3, 3, 3
_MINI = ModelConfig(dims=Dims(T=_T, d_a=_DA, d_v=_DV, h=_H, w=_W, classes=_C,
                              hidden=_DH, relation=_DM))


def _group_shapes(prefix: str) -> dict[str, tuple[int, ...]]:
    """Local name -> shape of one parameter-table group at the miniature dims."""
    return _group({name: shape for name, _, shape in param_table(_MINI)}, prefix)


def _motion_checks(rng) -> list[CheckResult]:
    group = _group_shapes("motion")
    return _family(rng, "motion.feature", _fixed(
        rng, lambda visual, *w: motion.motion_feature(visual, dict(zip(group, w))),
        (_T, _H, _W, _DV), *group.values()))


def _attention_checks(rng) -> list[CheckResult]:
    gates = _group_shapes("visual_gate")

    def gated(stage):
        return _fixed(rng, lambda a, v, *g: stage(a, v, dict(zip(gates, g))),
                      (_T, _DA), (_T, _H, _W, _DV), *gates.values())

    return (_family(rng, "attention.motion_guided_audio", _fixed(
                rng, lambda *a: attention.motion_guided_audio(*a)[0],
                (_T, _DA), (_T, _DA), (_DA, 1)))
            + _family(rng, "attention.audio_guided_channel",
                      gated(attention.audio_guided_channel))
            + _family(rng, "attention.audio_guided_spatial",
                      gated(lambda *a: attention.audio_guided_spatial(*a)[0])))


def _fusion_checks(rng) -> list[CheckResult]:
    branch = _group_shapes("interaction")
    return (_family(rng, "fusion.cross_modal_attend.sqrt", _fixed(
                rng, lambda *a: fusion.cross_modal_attend(*a)[0],
                (_T, _DM), (_T, _DM), (_DM, _DM), (_DM, _DM), (_DM, _DM + 1)))
            + _family(rng, "fusion.interact", _fixed(
                rng, lambda a, v, proj, *w: fusion.interact(a, v, proj, dict(zip(branch, w)))[0],
                (_T, _DM), (_T, _DM), (2 * _DM, _DM), *branch.values())))


def _head_checks(rng) -> list[CheckResult]:
    width = 2 * _DM
    head = _group_shapes("head")

    def supervised():
        relevance = rng.integers(0, 2, size=_T)
        video_class = int(rng.integers(_C))

        def fn(fused, *weights):
            hl = dict(zip(head, weights))
            return heads.supervised_loss(heads.class_distribution(fused, hl),
                                         heads.event_relevance(fused, hl),
                                         video_class, relevance)

        return _fixed(rng, fn, (_T, width), *head.values())()

    def weak():
        video_class = int(rng.integers(_C + 1))
        return _fixed(rng, lambda fused, cw, cb: heads.weak_aggregate_loss(
            heads.weak_class_distribution(heads.per_segment_logits(
                fused, {"class_weight": cw, "class_bias": cb})), video_class),
            (_T, width), (width, _C + 1), (1, _C + 1))()

    return (_family(rng, "heads.supervised_loss", supervised, loss=True)
            + _family(rng, "heads.weak_aggregate_loss", weak, loss=True))


def _model_checks(rng) -> list[CheckResult]:
    """End-to-end wiring check: full supervised loss on a miniature model."""
    results = []
    for p in range(2):
        params = init_params(_MINI, seed=100 + p)
        names = list(params.arrays)
        arrays = [a.astype(np.float64) + rng.normal(0, 0.02, size=a.shape)
                  for _, a in params.items()]
        audio = rng.normal(size=(_T, _DA))
        visual = rng.normal(size=(_T, _H, _W, _DV))
        relevance = rng.integers(0, 2, size=_T)
        video_class = int(rng.integers(_C))

        def build(arrs):
            tape = ad.Tape("f64")
            fwd = run_forward(tape, ModelParams(dict(zip(names, arrs)), params.seed),
                              audio, visual, _MINI)
            loss = heads.supervised_loss(fwd.class_probs, fwd.event_scores,
                                         video_class, relevance)
            return loss, list(fwd.leaves.values())

        results.append(check_gradients(f"model.supervised_loss[{p}]", build, arrays))
    return results


SUITES = {
    "tensor": _op_checks,
    "motion": _motion_checks,
    "attention": _attention_checks,
    "fusion": _fusion_checks,
    "heads": _head_checks,
    "model": _model_checks,
}


def run(module: str | None = None) -> list[CheckResult]:
    if module is not None and module not in SUITES:
        raise ConfigError(f"unknown gradcheck module {module!r}; "
                          f"choose from {sorted(SUITES)}")
    names = [module] if module else list(SUITES)
    results = []
    suite_index = {name: i for i, name in enumerate(SUITES)}
    for name in names:
        results.extend(SUITES[name](np.random.default_rng([SEED, suite_index[name]])))
    return results
