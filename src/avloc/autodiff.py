"""Dense-tensor engine with reverse-mode automatic differentiation.

The localization network only ever needs a fixed, small set of operations on
rank-1..4 arrays, so instead of a general framework there is one Tape per
forward pass: every operation appends a node holding its backward rule, and
because an operation's inputs must already exist, creation order is a valid
topological order. `Tape.backward` is then a single reverse sweep that
accumulates gradients per node and returns one array per requested leaf.

Tensors are immutable; parameter updates happen outside the tape on plain
numpy arrays. Backward rules capture arrays and shapes, never Tensors: a
Tensor refers to its tape, so capturing one would make a reference cycle that
keeps a finished tape alive until the cyclic garbage collector runs.
Storage precision is f32; an f64 tape exists for finite-difference gradient
verification only.
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
        self._selective: set[int] = set()  # nodes whose rule takes `needed`
        self._consumed = False

    def __len__(self) -> int:
        return len(self._inputs)

    def _record(self, data, input_ids: tuple[int, ...], backward,
                selective: bool = False) -> Tensor:
        """Append a node. A rule is called as backward(g) and returns one
        gradient per input; a `selective` rule is called as backward(g, needed)
        and may return None for an input whose `needed` flag is False."""
        data = np.asarray(data, dtype=self.dtype)
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        node_id = len(self._inputs)
        self._inputs.append(input_ids)
        self._backwards.append(backward)
        if selective:
            self._selective.add(node_id)
        return Tensor(data, self, node_id)

    def leaf(self, data) -> Tensor:
        """Register an input array (copied and cast to the tape precision)."""
        return self._record(np.array(data, copy=True), (), None)

    def zeros(self, shape) -> Tensor:
        return self.leaf(np.zeros(shape, dtype=self.dtype))

    def backward(self, loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
        """Reverse sweep from a scalar loss; returns one gradient per leaf.

        Gradients of multiply-used nodes accumulate by summation, and leaves
        the loss never touched come back as zeros of the leaf shape. Only
        nodes from which a requested leaf can be reached take part: no other
        node's rule runs or receives a gradient. A tape supports exactly one
        backward pass: the returned gradients are plain arrays, so there is
        nothing differentiable left for a second-order pass and asking for
        one is a contract violation.
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

        # reach[n]: a requested leaf can be reached from node n
        requested = {t.node_id for t in leaves}
        reach = [node_id in requested for node_id in range(loss.node_id + 1)]
        for node_id, input_ids in enumerate(self._inputs[:loss.node_id + 1]):
            for i in input_ids:
                if reach[i]:
                    reach[node_id] = True
                    break

        grads: dict[int, np.ndarray] = {}
        if reach[loss.node_id]:
            grads[loss.node_id] = np.ones_like(loss.data)
        for node_id in range(loss.node_id, -1, -1):
            backward = self._backwards[node_id]
            if backward is None or node_id not in grads:
                continue
            # a finished node's gradient is dropped unless it was asked for
            g = grads[node_id] if node_id in requested else grads.pop(node_id)
            input_ids = self._inputs[node_id]
            if node_id in self._selective:
                gins = backward(g, tuple(reach[i] for i in input_ids))
            else:
                gins = backward(g)
            for input_id, gin in zip(input_ids, gins):
                if reach[input_id]:
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

    def backward(g, needed):
        return g @ B.T if needed[0] else None, A.T @ g if needed[1] else None

    return tape._record(A @ B, (a.node_id, b.node_id), backward, selective=True)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose is defined for rank-2 tensors, got {x.shape}")
    return x.tape._record(x.data.T, (x.node_id,), lambda g: (g.T,))


def _tap_sum(product, k: int, shape: tuple[int, ...], dtype, flip: bool) -> np.ndarray:
    """Sum product(di, dj) over the k x k taps in (di, dj) order.

    Each product is (T, h, w, c) up to its row blocking. It is added into a
    grid with a k // 2 zero border at offset (di, dj), or at (2p - di, 2p - dj)
    when `flip`; the interior is the result. What lands in the border lies
    outside the (h, w) grid, where the zero padding is, and is dropped.
    """
    if k == 1:
        return product(0, 0).reshape(shape)
    T, h, w, c = shape
    pad = k // 2
    grid = np.zeros((T, h + 2 * pad, w + 2 * pad, c), dtype=dtype)
    for di in range(k):
        for dj in range(k):
            oi, oj = (2 * pad - di, 2 * pad - dj) if flip else (di, dj)
            grid[:, oi:oi + h, oj:oj + w] += product(di, dj).reshape(shape)
    return grid[:, pad:pad + h, pad:pad + w]


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-time-step 2-D cross-correlation with same zero padding, stride 1.

    x is (T, h, w, c_in), kernel is (k, k, c_in, c_out) with odd k; output is
    (T, h, w, c_out). A 1x1 kernel degenerates to a channel map.

    Every kernel tap is one product over all T*h*w rows, added into the
    output shifted by the tap's offset. Each output value sums the same dot
    products in the same tap order as a product per window row; where BLAS
    gives each row the same sum at any row count (every conv of the
    desk-scale model), the bits are those of that computation too.
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
    c_out = kernel.shape[3]
    X, K = x.data, kernel.data
    # with one output channel numpy takes GEMV, whose sums depend on the row
    # count, so those products keep w-row blocks (the rows of one window)
    rows = X.reshape((T * h, w, c_in) if c_out == 1 else (T * h * w, c_in))
    out = _tap_sum(lambda di, dj: rows @ K[di, dj], k, (T, h, w, c_out), X.dtype, flip=True)

    def backward(g, needed):
        g_rows = g.reshape(-1, c_out)
        gx = gk = None
        if needed[0]:
            gx = _tap_sum(lambda di, dj: g_rows @ K[di, dj].T, k, X.shape, X.dtype,
                          flip=False)
        if needed[1]:
            pad = k // 2
            Xp = X
            if pad:
                Xp = np.zeros((T, h + 2 * pad, w + 2 * pad, c_in), dtype=X.dtype)
                Xp[:, pad:pad + h, pad:pad + w] = X
            gk = np.empty_like(K)
            for di in range(k):
                for dj in range(k):
                    # the input under tap (di, dj), one row per output position
                    window = Xp[:, di:di + h, dj:dj + w].reshape(-1, c_in)
                    gk[di, dj] = window.T @ g_rows
        return gx, gk

    return tape._record(out, (x.node_id, kernel.node_id), backward, selective=True)


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

    def backward(g, shape=x.shape):
        return (np.broadcast_to(g[:, None, None, :], shape) / n,)

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

    def backward(g, shape=x.shape):
        return (np.broadcast_to(g, shape).copy(),)

    return x.tape._record(x.data.sum(axis=0, keepdims=True), (x.node_id,), backward)


def sum_all(x: Tensor) -> Tensor:
    """Any shape -> (1, 1) total."""

    def backward(g, shape=x.shape):
        return (np.full(shape, g.reshape(-1)[0], dtype=g.dtype),)

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

    def backward(g, sx=x.shape, sy=y.shape):
        return _unbroadcast(g, sx), _unbroadcast(g, sy)

    return tape._record(x.data + y.data, (x.node_id, y.node_id), backward)


def sub(x: Tensor, y: Tensor) -> Tensor:
    _check_broadcast(x.shape, y.shape)
    tape = _tape_of(x, y)

    def backward(g, sx=x.shape, sy=y.shape):
        return _unbroadcast(g, sx), _unbroadcast(-g, sy)

    return tape._record(x.data - y.data, (x.node_id, y.node_id), backward)


def mul(x: Tensor, y: Tensor) -> Tensor:
    _check_broadcast(x.shape, y.shape)
    tape = _tape_of(x, y)
    X, Y = x.data, y.data

    def backward(g, sx=x.shape, sy=y.shape):
        return _unbroadcast(g * Y, sx), _unbroadcast(g * X, sy)

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

    def backward(g, in_shape=x.shape):
        return (g.reshape(in_shape),)

    return x.tape._record(x.data.reshape(shape), (x.node_id,), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = _normalize_axis(axis, x.ndim)
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError(f"slice [{start}:{stop}] is invalid for axis {axis} of {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def backward(g, X=x.data):
        gx = np.zeros_like(X)
        gx[sl] = g
        return (gx,)

    return x.tape._record(x.data[sl].copy(), (x.node_id,), backward)
