"""Span tracing around avloc's public functions, installed from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, video) and a few exact
work counters. The wrapper goes into every `avloc` module that binds the
function, so calls made inside avloc through an imported name are caught as
well. `uninstall()` puts every original back. Nothing in avloc is edited.

Spans are kept in memory and written out by `write`. A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import weakref
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("data", "autodiff", "motion", "attention", "fusion", "heads",
          "model", "training")

# the 19 public tensor operations of avloc.autodiff
OPS = ("matmul", "transpose", "conv2d", "relu", "sigmoid", "tanh", "softmax",
       "log_clamped", "avg_spatial", "max_time", "sum_time", "sum_all", "add",
       "sub", "mul", "scale", "concat", "reshape", "slice_axis")

STAGES = (
    "motion.align_channels", "motion.past_future_motion", "motion.future_motion",
    "motion.fuse_and_pool",
    "attention.motion_guided_audio", "attention.audio_guided_channel",
    "attention.audio_guided_spatial",
    "fusion.relation_aware", "fusion.interact",
    "heads.class_distribution", "heads.event_relevance", "heads.supervised_loss",
)

OTHER = (
    "autodiff.Tape.backward", "autodiff.Tape.leaf",
    "model.run_forward", "model.predict", "model.init_params",
    "training.train", "training.evaluate", "training.Adam.step",
    "data.synth_dataset", "data.load_bundle",
)

TRACED = tuple(f"autodiff.{op}" for op in OPS) + STAGES + OTHER

WRAPPED_MARK = "__perfbench_wrapped__"

# counts derived from operand shapes rather than observed
COMPUTED = ("autodiff.leaf_bytes_per_video", "autodiff.op.conv2d.gflop",
            "autodiff.op.matmul.gflop")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric `Tracer.metrics` reports, in order.

    "/video" means per video forward pass (`run_forward` call) in the traced
    rounds. The names in COMPUTED are computed from operand shapes: GFLOP
    counts 2 flops per multiply-add, forward, plus twice that for the
    backward of a tape that is differentiated.
    """
    out = [("autodiff.nodes_per_video", "1/video"),
           ("autodiff.leaf_bytes_per_video", "B/video"),
           ("autodiff.leaf.calls", "1/video"),
           ("autodiff.leaf.ms", "ms/video"),
           ("autodiff.backward.ms", "ms/video"),
           ("autodiff.op.conv2d.gflop", "GFLOP/video"),
           ("autodiff.op.matmul.gflop", "GFLOP/video")]
    for op in OPS:
        out += [(f"autodiff.op.{op}.calls", "1/video"), (f"autodiff.op.{op}.ms", "ms/video")]
    for stage in STAGES:
        out += [(f"{stage}.self.ms", "ms/video"), (f"{stage}.total.ms", "ms/video")]
    out += [("model.run_forward.ms", "ms/video"),
            ("model.predict.ms", "ms/video"),
            ("model.init_params.ms", "ms/call"),
            ("training.Adam.step.calls", "1/video"),
            ("training.Adam.step.ms", "ms/video"),
            ("training.evaluate.ms", "ms/video"),
            ("training.train.self.ms", "ms/video"),
            ("data.synth_dataset.ms", "ms/call"),
            ("data.load_bundle.calls", "1/video"),
            ("data.load_bundle.ms", "ms/video"),
            ("data.bytes_read", "B/video"),
            ("data.reads_per_video", "ratio")]
    out += [(f"share.{layer}", "%") for layer in LAYERS + ("bench",)]
    out += [("trace.wall.ms", "ms/video"),
            ("trace.untraced_wall.ms", "ms/video"),
            ("trace.overhead.ms", "ms/video"),
            ("trace.self_sum.ms", "ms/video")]
    return out


def _flops(op: str, args) -> int:
    """Computed forward flop count (2 per multiply-add) of matmul or conv2d."""
    if op == "matmul":
        (m, k), (_, n) = args[0].shape, args[1].shape
        return 2 * m * k * n
    T, h, w, c_in = args[0].shape
    k, _, _, c_out = args[1].shape
    return 2 * T * h * w * c_in * c_out * k * k


class _TapeInfo:
    __slots__ = ("video", "nodes", "flops")

    def __init__(self, video):
        self.video = video
        self.nodes = 0
        self.flops = {"matmul": 0, "conv2d": 0}


class Tracer:
    def __init__(self, avloc_module):
        self.avloc = avloc_module
        self.spans: list[list] = []  # [name, start, end, parent index, video]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tapes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._array_video: dict[int, tuple[weakref.ref, str]] = {}
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the work counters (spans are kept)."""
        self.forwards = self.nodes = self.leaf_bytes = self.bytes_read = 0
        self.flops = {"matmul": 0, "conv2d": 0}
        self.videos_read: set[str] = set()

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = self._open(name, None)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter())

    def _open(self, name: str, video) -> int:
        parent = self._stack[-1] if self._stack else -1
        if video is None and parent >= 0:
            video = self.spans[parent][4]
        self.spans.append([name, 0.0, 0.0, parent, video])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    # -- per-call hooks -----------------------------------------------------

    def _video_of(self, name: str, args, kwargs):
        """The video a call serves, where its arguments name one."""
        if name == "data.load_bundle":
            return args[2] if len(args) > 2 else kwargs.get("video_id", "")
        if name == "model.predict":
            return args[2].video_id
        if name == "model.run_forward":
            ref = self._array_video.get(id(args[2]))
            video = ref[1] if ref is not None and ref[0]() is args[2] else None
            self._tapes[args[0]] = _TapeInfo(video)
            return video
        tape = args[0] if name == "autodiff.Tape.backward" else args[0].tape
        info = self._tapes.get(tape)
        return info.video if info is not None else None

    def _count(self, name: str, args, result) -> None:
        if name in ("autodiff.matmul", "autodiff.conv2d"):
            op = name[len("autodiff."):]
            flops = _flops(op, args)
            self.flops[op] += flops
            info = self._tapes.get(args[0].tape)
            if info is not None:
                info.flops[op] += flops
        elif name == "autodiff.Tape.leaf":
            self.leaf_bytes += result.data.nbytes
        elif name == "model.run_forward":
            self.forwards += 1
            self.nodes += len(args[0])
            self._tapes[args[0]].nodes = len(args[0])
        elif name == "autodiff.Tape.backward":
            info = self._tapes.get(args[0])
            if info is not None:
                self.nodes += len(args[0]) - info.nodes  # loss nodes
                # computed: the backward of a product makes one product of the
                # same size for each operand's gradient
                for op, flops in info.flops.items():
                    self.flops[op] += 2 * flops
        elif name == "data.load_bundle":
            self.bytes_read += os.path.getsize(args[0])
            self.videos_read.add(result.video_id)
            self._array_video[id(result.audio)] = (weakref.ref(result.audio),
                                                   result.video_id)

    def _wrap(self, name: str, fn):
        tracer = self
        keyed = name in ("data.load_bundle", "model.predict", "model.run_forward",
                         "autodiff.Tape.backward", "heads.supervised_loss")
        counted = name in ("autodiff.matmul", "autodiff.conv2d", "autodiff.Tape.leaf",
                           "model.run_forward", "autodiff.Tape.backward",
                           "data.load_bundle")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, tracer._video_of(name, args, kwargs) if keyed else None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, perf_counter())
            if counted:
                tracer._count(name, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "avloc" or n.startswith("avloc."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for name in TRACED:
            layer, *owner, fname = name.split(".")
            module = getattr(self.avloc, layer)
            if owner:  # a method: patch the class once
                cls = getattr(module, owner[0])
                self._patch(cls, fname, self._wrap(name, cls.__dict__[fname]))
                continue
            original = getattr(module, fname)
            wrapper = self._wrap(name, original)
            for m in modules:  # every module that bound the function by name
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(wrapper, WRAPPED_MARK)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Every wrapper still reachable from an avloc module or class."""
        found = []
        for m in self._modules():
            for attr, value in vars(m).items():
                if hasattr(value, WRAPPED_MARK):
                    found.append(f"{m.__name__}.{attr}")
                if isinstance(value, type):
                    found += [f"{m.__name__}.{attr}.{c}" for c, v in vars(value).items()
                              if hasattr(v, WRAPPED_MARK)]
        return found

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self, round_name: str, rounds: int, traced_wall: float,
                untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics over the spans under the `round_name` roots.

        `traced_wall` and `untraced_wall` are the summed wall times of the
        traced rounds and of the same rounds run without wrappers. The work
        counters must cover exactly the traced rounds.
        """
        selfs = self.self_times()
        root = [0] * len(self.spans)
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        setup_total: dict[str, float] = {}
        setup_calls: dict[str, int] = {}
        in_train = [False] * len(self.spans)
        train_reads = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            in_train[i] = name == "training.train" or (parent >= 0 and in_train[parent])
            if self.spans[root[i]][0] != round_name:
                setup_total[name] = setup_total.get(name, 0.0) + end - start
                setup_calls[name] = setup_calls.get(name, 0) + 1
                continue
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + selfs[i]
            calls[name] = calls.get(name, 0) + 1
            train_reads += in_train[i] and name == "data.load_bundle"
        videos = max(self.forwards, 1)
        # feature-file reads per video in one train() call or, where nothing
        # is trained, in one serving pass
        if calls.get("training.train"):
            reads, passes = train_reads, calls["training.train"]
        else:
            reads, passes = calls.get("data.load_bundle", 0), rounds

        def ms(d, key):
            return 1e3 * d.get(key, 0.0) / videos

        def per_call(key):
            n = calls.get(key, 0) + setup_calls.get(key, 0)
            return 1e3 * (total.get(key, 0.0) + setup_total.get(key, 0.0)) / n if n else 0.0

        out = {"autodiff.nodes_per_video": self.nodes / videos,
               "autodiff.leaf_bytes_per_video": self.leaf_bytes / videos,
               "autodiff.leaf.calls": calls.get("autodiff.Tape.leaf", 0) / videos,
               "autodiff.leaf.ms": ms(total, "autodiff.Tape.leaf"),
               "autodiff.backward.ms": ms(total, "autodiff.Tape.backward"),
               "autodiff.op.conv2d.gflop": self.flops["conv2d"] / videos / 1e9,
               "autodiff.op.matmul.gflop": self.flops["matmul"] / videos / 1e9}
        for op in OPS:
            out[f"autodiff.op.{op}.calls"] = calls.get(f"autodiff.{op}", 0) / videos
            out[f"autodiff.op.{op}.ms"] = ms(total, f"autodiff.{op}")
        for stage in STAGES:
            out[f"{stage}.self.ms"] = ms(own, stage)
            out[f"{stage}.total.ms"] = ms(total, stage)
        out.update({
            "model.run_forward.ms": ms(total, "model.run_forward"),
            "model.predict.ms": ms(total, "model.predict"),
            "model.init_params.ms": per_call("model.init_params"),
            "training.Adam.step.calls": calls.get("training.Adam.step", 0) / videos,
            "training.Adam.step.ms": ms(total, "training.Adam.step"),
            "training.evaluate.ms": ms(total, "training.evaluate"),
            "training.train.self.ms": ms(own, "training.train"),
            "data.synth_dataset.ms": per_call("data.synth_dataset"),
            "data.load_bundle.calls": calls.get("data.load_bundle", 0) / videos,
            "data.load_bundle.ms": ms(total, "data.load_bundle"),
            "data.bytes_read": self.bytes_read / videos,
            "data.reads_per_video": reads / max(passes * len(self.videos_read), 1),
        })
        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, value in own.items():
            layer = name.split(".", 1)[0]
            layer_self[layer if layer in layer_self else "bench"] += value
        span_wall = sum(e - s for n, s, e, p, _ in self.spans if p < 0 and n == round_name)
        for layer, value in layer_self.items():
            out[f"share.{layer}"] = 100.0 * value / span_wall if span_wall else 0.0
        out.update({
            "trace.wall.ms": 1e3 * traced_wall / videos,
            "trace.untraced_wall.ms": 1e3 * untraced_wall / videos,
            "trace.overhead.ms": 1e3 * (traced_wall - untraced_wall) / videos,
            "trace.self_sum.ms": 1e3 * sum(v for k, v in layer_self.items()
                                           if k != "bench") / videos,
        })
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((a - t0) * 1e6, 3), round((b - t0) * 1e6, 3), p, v]
                for n, a, b, p, v in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "video"],
                       "names": names, "spans": rows}, f, separators=(",", ":"))
