"""Dense-tensor engine with reverse-mode automatic differentiation.

The localization network only ever needs a fixed, small set of operations on
rank-1..4 arrays, so instead of a general framework there is one Tape per
forward pass: every operation appends a node holding its backward rule, and
because an operation's inputs must already exist, creation order is a valid
topological order. `Tape.backward` is then a single reverse sweep that
accumulates gradients per node and returns one array per requested leaf.

Tensors are immutable; parameter updates happen outside the tape on plain
numpy arrays. Storage precision is f32; an f64 tape exists for
finite-difference gradient verification only.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

MAX_RANK = 4
_DTYPES = {"f32": np.float32, "f64": np.float64}


class Tensor:
    """Shape-tagged immutable array bound to a node on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: np.ndarray, tape: "Tape", node_id: int):
        if data.ndim < 1 or data.ndim > MAX_RANK:
            raise ShapeError(f"tensors carry 1..{MAX_RANK} axes, got shape {data.shape}")
        if 0 in data.shape:
            raise ShapeError(f"all extents must be >= 1, got shape {data.shape}")
        data.setflags(write=False)
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, node={self.node_id})"


class Tape:
    """Single-writer record of one forward pass."""

    def __init__(self, precision: str = "f32"):
        if precision not in _DTYPES:
            raise ConfigError(f"precision must be one of {sorted(_DTYPES)}, got {precision!r}")
        self.precision = precision
        self.dtype = _DTYPES[precision]
        self._inputs: list[tuple[int, ...]] = []
        self._backwards: list[Callable | None] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._inputs)

    def _record(self, data, input_ids: tuple[int, ...], backward) -> Tensor:
        data = np.asarray(data, dtype=self.dtype)
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        node_id = len(self._inputs)
        self._inputs.append(input_ids)
        self._backwards.append(backward)
        return Tensor(data, self, node_id)

    def leaf(self, data) -> Tensor:
        """Register an input array (copied and cast to the tape precision)."""
        return self._record(np.array(data, copy=True), (), None)

    def zeros(self, shape) -> Tensor:
        return self.leaf(np.zeros(shape, dtype=self.dtype))

    def backward(self, loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
        """Reverse sweep from a scalar loss; returns one gradient per leaf.

        Gradients of multiply-used nodes accumulate by summation, and leaves
        the loss never touched come back as zeros of the leaf shape. A tape
        supports exactly one backward pass: the returned gradients are plain
        arrays, so there is nothing differentiable left for a second-order
        pass and asking for one is a contract violation.
        """
        if loss.tape is not self:
            raise ContractError("loss tensor lives on a different tape")
        for t in leaves:
            if t.tape is not self:
                raise ContractError("leaf tensor lives on a different tape")
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        if self._consumed:
            raise ContractError("tape already differentiated; double-backward is not supported")
        self._consumed = True

        grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
        for node_id in range(loss.node_id, -1, -1):
            g = grads.get(node_id)
            backward = self._backwards[node_id]
            if g is None or backward is None:
                continue
            for input_id, gin in zip(self._inputs[node_id], backward(g)):
                seen = grads.get(input_id)
                grads[input_id] = gin if seen is None else seen + gin
        return [np.array(grads[t.node_id]) if t.node_id in grads else np.zeros_like(t.data)
                for t in leaves]


def _tape_of(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (m,k) x (k,n), got {a.shape} and {b.shape}")
    tape = _tape_of(a, b)
    A, B = a.data, b.data

    def backward(g):
        return g @ B.T, A.T @ g

    return tape._record(A @ B, (a.node_id, b.node_id), backward)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose is defined for rank-2 tensors, got {x.shape}")
    return x.tape._record(x.data.T, (x.node_id,), lambda g: (g.T,))


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-time-step 2-D cross-correlation with same zero padding, stride 1.

    x is (T, h, w, c_in), kernel is (k, k, c_in, c_out) with odd k; output is
    (T, h, w, c_out). A 1x1 kernel degenerates to a channel map.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be (T,h,w,c), got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"conv2d kernel must be (k,k,c_in,c_out), got {kernel.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"conv2d kernel extent must be odd for same padding, got {k}")
    if kernel.shape[2] != x.shape[3]:
        raise ShapeError(f"channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    tape = _tape_of(x, kernel)
    T, h, w, c_in = x.shape
    pad = k // 2
    X, K = x.data, kernel.data
    Xp = np.zeros((T, h + 2 * pad, w + 2 * pad, c_in), dtype=X.dtype)
    Xp[:, pad:pad + h, pad:pad + w, :] = X
    # windows[di, dj] is the input under kernel tap (di, dj), so one batched
    # matmul makes the same per-row BLAS calls as a matmul per tap
    s0, s1, s2, s3 = Xp.strides
    windows = np.ndarray((k, k, T, h, w, c_in), X.dtype, Xp, 0, (s1, s2, s0, s1, s2, s3))
    taps = windows @ K[:, :, None, None]
    out = np.zeros_like(taps[0, 0])
    for di in range(k):
        for dj in range(k):
            out += taps[di, dj]

    def backward(g):
        gxp = np.zeros_like(Xp)
        back = g @ K.transpose(0, 1, 3, 2)[:, :, None, None]
        for di in range(k):
            for dj in range(k):
                gxp[:, di:di + h, dj:dj + w, :] += back[di, dj]
        # each tap's kernel gradient contracts (T, h, w); one matmul covers all taps
        cols = windows.transpose(0, 1, 5, 2, 3, 4).reshape(k, k, c_in, -1)
        return gxp[:, pad:pad + h, pad:pad + w, :], cols @ g.reshape(T * h * w, -1)

    return tape._record(out, (x.node_id, kernel.node_id), backward)


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    X = x.data
    return x.tape._record(np.maximum(X, 0), (x.node_id,), lambda g: (g * (X > 0),))


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return x.tape._record(s, (x.node_id,), lambda g: (g * s * (1.0 - s),))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return x.tape._record(t, (x.node_id,), lambda g: (g * (1.0 - t * t),))


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} is invalid for a rank-{ndim} tensor")
    return axis % ndim


def softmax(x: Tensor, axis: int) -> Tensor:
    axis = _normalize_axis(axis, x.ndim)
    z = x.data - x.data.max(axis=axis, keepdims=True)  # shift-invariant, avoids overflow
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return x.tape._record(s, (x.node_id,), backward)


def log_clamped(x: Tensor, floor: float = 1e-12) -> Tensor:
    """log with the argument clamped at `floor`; gradient is zero below it."""
    X = x.data
    clamped = np.maximum(X, floor)

    def backward(g):
        return (np.where(X > floor, g / clamped, 0.0),)

    return x.tape._record(np.log(clamped), (x.node_id,), backward)


# ---------------------------------------------------------------------------
# reductions


def avg_spatial(x: Tensor) -> Tensor:
    """(T, h, w, c) -> (T, c) mean over the two spatial axes."""
    if x.ndim != 4:
        raise ShapeError(f"avg_spatial needs (T,h,w,c), got {x.shape}")
    _, h, w, _ = x.shape
    n = h * w

    def backward(g):
        return (np.broadcast_to(g[:, None, None, :], x.shape) / n,)

    return x.tape._record(x.data.mean(axis=(1, 2)), (x.node_id,), backward)


def max_time(x: Tensor) -> Tensor:
    """(T, d) -> (1, d) max over time; ties route the gradient to the lowest index."""
    if x.ndim != 2:
        raise ShapeError(f"max_time needs (T,d), got {x.shape}")
    X = x.data
    idx = X.argmax(axis=0)  # first occurrence == lowest flat index
    cols = np.arange(X.shape[1])

    def backward(g):
        gx = np.zeros_like(X)
        gx[idx, cols] = g[0]
        return (gx,)

    return x.tape._record(X[idx, cols][None, :], (x.node_id,), backward)


def sum_time(x: Tensor) -> Tensor:
    """(T, d) -> (1, d) sum over time."""
    if x.ndim != 2:
        raise ShapeError(f"sum_time needs (T,d), got {x.shape}")

    def backward(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return x.tape._record(x.data.sum(axis=0, keepdims=True), (x.node_id,), backward)


def sum_all(x: Tensor) -> Tensor:
    """Any shape -> (1, 1) total."""

    def backward(g):
        return (np.full(x.shape, g.reshape(-1)[0], dtype=g.dtype),)

    return x.tape._record(x.data.sum().reshape(1, 1), (x.node_id,), backward)


# ---------------------------------------------------------------------------
# combination


def _check_broadcast(sa, sb):
    if len(sa) != len(sb) or any(m != n and 1 not in (m, n) for m, n in zip(sa, sb)):
        raise ShapeError(f"shapes {sa} and {sb} do not broadcast (extents equal or 1)")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(x: Tensor, y: Tensor) -> Tensor:
    _check_broadcast(x.shape, y.shape)
    tape = _tape_of(x, y)

    def backward(g):
        return _unbroadcast(g, x.shape), _unbroadcast(g, y.shape)

    return tape._record(x.data + y.data, (x.node_id, y.node_id), backward)


def sub(x: Tensor, y: Tensor) -> Tensor:
    _check_broadcast(x.shape, y.shape)
    tape = _tape_of(x, y)

    def backward(g):
        return _unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)

    return tape._record(x.data - y.data, (x.node_id, y.node_id), backward)


def mul(x: Tensor, y: Tensor) -> Tensor:
    _check_broadcast(x.shape, y.shape)
    tape = _tape_of(x, y)
    X, Y = x.data, y.data

    def backward(g):
        return _unbroadcast(g * Y, x.shape), _unbroadcast(g * X, y.shape)

    return tape._record(X * Y, (x.node_id, y.node_id), backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a compile-time constant (not a differentiable operand)."""
    c = x.tape.dtype(c)
    return x.tape._record(x.data * c, (x.node_id,), lambda g: (g * c,))


def concat(x: Tensor, y: Tensor, axis: int) -> Tensor:
    axis = _normalize_axis(axis, x.ndim)
    if x.ndim != y.ndim or any(
            m != n for ax, (m, n) in enumerate(zip(x.shape, y.shape)) if ax != axis):
        raise ShapeError(f"concat on axis {axis} needs matching other extents, "
                         f"got {x.shape} and {y.shape}")
    tape = _tape_of(x, y)
    split = x.shape[axis]

    def backward(g):
        head = [slice(None)] * g.ndim
        tail = [slice(None)] * g.ndim
        head[axis] = slice(0, split)
        tail[axis] = slice(split, None)
        return g[tuple(head)], g[tuple(tail)]

    return tape._record(np.concatenate([x.data, y.data], axis=axis),
                        (x.node_id, y.node_id), backward)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(n) for n in shape)
    if np.prod(shape, dtype=int) != x.data.size or not 1 <= len(shape) <= MAX_RANK:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def backward(g):
        return (g.reshape(x.shape),)

    return x.tape._record(x.data.reshape(shape), (x.node_id,), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = _normalize_axis(axis, x.ndim)
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError(f"slice [{start}:{stop}] is invalid for axis {axis} of {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        return (gx,)

    return x.tape._record(x.data[sl].copy(), (x.node_id,), backward)
