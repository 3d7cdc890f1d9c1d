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
from .model import Dims, ModelConfig, ModelParams, init_params, param_table, run_forward

REL_TOL = 1e-4
ABS_TOL = 1e-8
DENOM_FLOOR = 1e-8
EPS = 1e-5
POINTS = 10


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


def check_gradients(name: str, build: Builder, arrays: Sequence[np.ndarray],
                    eps: float = EPS) -> CheckResult:
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
            plus[i][idx] += eps
            minus[i][idx] -= eps
            numeric[idx] = (value(plus) - value(minus)) / (2.0 * eps)
        err = np.abs(analytic[i] - numeric)
        denom = np.maximum(np.abs(analytic[i]), np.abs(numeric))
        worst_rel = max(worst_rel, float((err / (denom + ABS_TOL / REL_TOL)).max()))
        small = denom <= DENOM_FLOOR
        if small.any():
            worst_abs = max(worst_abs, float(err[small].max()))
    return CheckResult(name=name, max_rel_err=worst_rel, max_abs_err=worst_abs,
                       passed=worst_rel < REL_TOL)


def _scalarize(out: ad.Tensor, mix: np.ndarray) -> ad.Tensor:
    """sum(out * fixed_random_mix) exercises the whole Jacobian."""
    return ad.sum_all(ad.mul(out, out.tape.leaf(mix)))


def _leaves(tape: ad.Tape, arrays) -> list[ad.Tensor]:
    return [tape.leaf(a) for a in arrays]


# ---------------------------------------------------------------------------
# tensor-op suite


def _op_checks(rng: np.random.Generator) -> list[CheckResult]:
    results = []

    def run(name, build, arrays):
        results.append(check_gradients(name, build, arrays))

    def unary(op_name, op, make_input):
        for p in range(POINTS):
            x = make_input()
            mix = rng.normal(size=op_shape_probe(op, x))

            def build(arrs, op=op, mix=mix):
                tape = ad.Tape("f64")
                (t,) = _leaves(tape, arrs)
                return _scalarize(op(t), mix), [t]

            run(f"tensor.{op_name}[{p}]", build, [x])

    def op_shape_probe(op, x):
        tape = ad.Tape("f64")
        return op(tape.leaf(x)).shape

    def away_from_kink():
        z = rng.normal(size=(3, 4))
        return z + 0.05 * np.sign(z)  # keep relu inputs off the kink

    unary("relu", ad.relu, away_from_kink)
    unary("sigmoid", ad.sigmoid, lambda: rng.normal(size=(3, 4)))
    unary("tanh", ad.tanh, lambda: rng.normal(size=(3, 4)))
    unary("softmax.time", lambda t: ad.softmax(t, 0), lambda: rng.normal(size=(3, 4)))
    unary("softmax.channel", lambda t: ad.softmax(t, 1), lambda: rng.normal(size=(3, 4)))
    unary("log_clamped", ad.log_clamped, lambda: np.abs(rng.normal(size=(3, 4))) + 0.1)
    unary("avg_spatial", ad.avg_spatial, lambda: rng.normal(size=(3, 2, 2, 4)))
    unary("max_time", ad.max_time, lambda: rng.normal(size=(5, 3)))
    unary("sum_time", ad.sum_time, lambda: rng.normal(size=(5, 3)))
    unary("sum_all", ad.sum_all, lambda: rng.normal(size=(3, 4)))
    unary("scale", lambda t: ad.scale(t, 1.7), lambda: rng.normal(size=(3, 4)))
    unary("transpose", ad.transpose, lambda: rng.normal(size=(3, 4)))
    unary("reshape", lambda t: ad.reshape(t, (2, 6)), lambda: rng.normal(size=(3, 4)))
    unary("slice_axis", lambda t: ad.slice_axis(t, 0, 1, 4), lambda: rng.normal(size=(5, 3)))

    def binary(op_name, op, shape_x, shape_y):
        for p in range(POINTS):
            x = rng.normal(size=shape_x)
            y = rng.normal(size=shape_y)
            mix_probe = ad.Tape("f64")
            probe = op(mix_probe.leaf(x), mix_probe.leaf(y))
            mix = rng.normal(size=probe.shape)

            def build(arrs, op=op, mix=mix):
                tape = ad.Tape("f64")
                tx, ty = _leaves(tape, arrs)
                return _scalarize(op(tx, ty), mix), [tx, ty]

            run(f"tensor.{op_name}[{p}]", build, [x, y])

    binary("matmul", ad.matmul, (3, 4), (4, 2))
    binary("add", ad.add, (3, 4), (3, 4))
    binary("add.broadcast", ad.add, (3, 1), (3, 4))
    binary("sub", ad.sub, (3, 4), (3, 4))
    binary("mul", ad.mul, (3, 4), (3, 4))
    binary("mul.broadcast", ad.mul, (3, 1), (3, 4))
    binary("concat.time", lambda a, b: ad.concat(a, b, 0), (2, 3), (4, 3))
    binary("concat.channel", lambda a, b: ad.concat(a, b, 1), (3, 2), (3, 4))
    binary("conv2d.k3", ad.conv2d, (3, 4, 4, 2), (3, 3, 2, 3))
    binary("conv2d.k1", ad.conv2d, (2, 2, 2, 3), (1, 1, 3, 2))
    return results


# ---------------------------------------------------------------------------
# module composites (desk-scale-in-miniature dims)

_T, _DA, _DV, _H, _W, _DH, _DM, _C = 3, 3, 4, 2, 2, 3, 3, 3
_MINI = ModelConfig(dims=Dims(T=_T, d_a=_DA, d_v=_DV, h=_H, w=_W, classes=_C,
                              hidden=_DH, relation=_DM))


def _group_shapes(prefix: str) -> dict[str, tuple[int, ...]]:
    """Local name -> shape of one parameter-table group at the miniature dims."""
    return {name.split(".", 1)[1]: shape for name, _, _, shape in param_table(_MINI)
            if name.startswith(prefix + ".")}


def _motion_checks(rng) -> list[CheckResult]:
    results = []
    for p in range(POINTS):
        arrays = [rng.normal(size=(_T, _H, _W, _DV)),
                  rng.normal(size=(1, 1, _DV, _DA)),
                  rng.normal(size=(3, 3, _DA, _DA)),
                  rng.normal(size=(3, 3, _DA, _DA)),
                  rng.normal(size=(_DA, _DA))]
        mix = rng.normal(size=(_T, _DA))

        def build(arrs, mix=mix):
            tape = ad.Tape("f64")
            leaves = _leaves(tape, arrs)
            out = motion.motion_feature(*leaves)
            return _scalarize(out, mix), leaves

        results.append(check_gradients(f"motion.feature[{p}]", build, arrays))
    return results


def _attention_checks(rng) -> list[CheckResult]:
    results = []
    for p in range(POINTS):
        arrays = [rng.normal(size=(_T, _DA)), rng.normal(size=(_T, _DA)),
                  rng.normal(size=(_DA, 1))]
        mix = rng.normal(size=(_T, _DA))

        def build(arrs, mix=mix):
            tape = ad.Tape("f64")
            leaves = _leaves(tape, arrs)
            out = attention.motion_guided_audio(*leaves)
            return _scalarize(out, mix), leaves

        results.append(check_gradients(f"attention.motion_guided_audio[{p}]",
                                       build, arrays))

    gate_shapes = _group_shapes("visual_gate")

    def make_gate_leaves(tape, arrs):
        return dict(zip(gate_shapes, _leaves(tape, arrs)))

    for p in range(POINTS):
        arrays = [rng.normal(size=(_T, _DA)), rng.normal(size=(_T, _H, _W, _DV))] \
            + [rng.normal(size=s) for s in gate_shapes.values()]
        mix = rng.normal(size=(_T, _H, _W, _DV))

        def build(arrs, mix=mix):
            tape = ad.Tape("f64")
            a, v = _leaves(tape, arrs[:2])
            gates = make_gate_leaves(tape, arrs[2:])
            out = attention.audio_guided_channel(a, v, gates)
            return _scalarize(out, mix), [a, v] + list(gates.values())

        results.append(check_gradients(f"attention.audio_guided_channel[{p}]",
                                       build, arrays))

    for p in range(POINTS):
        arrays = [rng.normal(size=(_T, _DA)), rng.normal(size=(_T, _H, _W, _DV))] \
            + [rng.normal(size=s) for s in gate_shapes.values()]
        mix = rng.normal(size=(_T, _DV))

        def build(arrs, mix=mix):
            tape = ad.Tape("f64")
            a, v = _leaves(tape, arrs[:2])
            gates = make_gate_leaves(tape, arrs[2:])
            out = attention.audio_guided_spatial(a, v, gates)
            return _scalarize(out, mix), [a, v] + list(gates.values())

        results.append(check_gradients(f"attention.audio_guided_spatial[{p}]",
                                       build, arrays))
    return results


def _fusion_checks(rng) -> list[CheckResult]:
    results = []
    for scale_mode in fusion.SCALE_MODES:
        for p in range(POINTS):
            arrays = [rng.normal(size=(_T, _DM)), rng.normal(size=(_T, _DM)),
                      rng.normal(size=(_DM, _DM)), rng.normal(size=(_DM, _DM)),
                      rng.normal(size=(_DM, _DM + 1))]
            mix = rng.normal(size=(_T, _DM + 1))

            def build(arrs, mix=mix, scale_mode=scale_mode):
                tape = ad.Tape("f64")
                leaves = _leaves(tape, arrs)
                out = fusion.cross_modal_attend(*leaves, scale_mode=scale_mode)
                return _scalarize(out, mix), leaves

            results.append(check_gradients(
                f"fusion.cross_modal_attend.{scale_mode}[{p}]", build, arrays))

    for p in range(POINTS):
        arrays = [rng.normal(size=(_T, _DM)), rng.normal(size=(_T, _DM)),
                  rng.normal(size=(2 * _DM, _DM)),
                  rng.normal(size=(_DM, _DM)), rng.normal(size=(_DM, _DM)),
                  rng.normal(size=(_DM, 2 * _DM))]
        mix = rng.normal(size=(_T, 2 * _DM))

        def build(arrs, mix=mix):
            tape = ad.Tape("f64")
            leaves = _leaves(tape, arrs)
            branch = dict(zip(_group_shapes("interaction"), leaves[3:]))
            out = fusion.interact(leaves[0], leaves[1], leaves[2], branch)
            return _scalarize(out, mix), leaves

        results.append(check_gradients(f"fusion.interact[{p}]", build, arrays))
    return results


def _head_checks(rng) -> list[CheckResult]:
    results = []
    width = 2 * _DM
    for p in range(POINTS):
        relevance = rng.integers(0, 2, size=_T)
        video_class = int(rng.integers(_C))
        arrays = [rng.normal(size=(_T, width)), rng.normal(size=(width, _C)),
                  rng.normal(size=(1, _C)), rng.normal(size=(width, 1)),
                  rng.normal(size=(1, 1))]

        def build(arrs, relevance=relevance, video_class=video_class):
            tape = ad.Tape("f64")
            fused, cw, cb, ew, eb = _leaves(tape, arrs)
            hl = dict(zip(_group_shapes("head"), (cw, cb, ew, eb)))
            loss = heads.supervised_loss(heads.class_distribution(fused, hl),
                                         heads.event_relevance(fused, hl),
                                         video_class, relevance)
            return loss, [fused, cw, cb, ew, eb]

        results.append(check_gradients(f"heads.supervised_loss[{p}]", build, arrays))

    for p in range(POINTS):
        video_class = int(rng.integers(_C + 1))
        arrays = [rng.normal(size=(_T, width)), rng.normal(size=(width, _C + 1)),
                  rng.normal(size=(1, _C + 1))]

        def build(arrs, video_class=video_class):
            tape = ad.Tape("f64")
            fused, cw, cb = _leaves(tape, arrs)
            logits = ad.add(ad.matmul(fused, cw), cb)
            return heads.weak_aggregate_loss(logits, video_class), [fused, cw, cb]

        results.append(check_gradients(f"heads.weak_aggregate_loss[{p}]",
                                       build, arrays))
    return results


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
            return loss, fwd.leaf_list()

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


def run(module: str | None = None, seed: int = 0) -> list[CheckResult]:
    if module is not None and module not in SUITES:
        raise ConfigError(f"unknown gradcheck module {module!r}; "
                          f"choose from {sorted(SUITES)}")
    names = [module] if module else list(SUITES)
    results = []
    suite_index = {name: i for i, name in enumerate(SUITES)}
    for name in names:
        results.extend(SUITES[name](np.random.default_rng([seed, suite_index[name]])))
    return results
