"""Dense-tensor engine with reverse-mode automatic differentiation.

The localization network only ever needs a fixed, small set of operations on
rank-1..4 arrays, so instead of a general framework there is one Tape per
forward pass: every operation appends a node holding its backward rule, and
because an operation's inputs must already exist, creation order is a valid
topological order. `Tape.backward` is then a single reverse sweep that calls
every rule as backward(g, needed) and returns one array per requested leaf.
Every op and its rule live here, the model's fused motion op included.

Tensors are immutable; parameter updates happen outside the tape on plain
numpy arrays. Backward rules capture arrays and shapes, never Tensors: a
Tensor refers to its tape, so capturing one would make a reference cycle that
keeps a finished tape alive until the cyclic garbage collector runs.
Storage precision is f32; an f64 tape exists for finite-difference gradient
verification only.

A tape is made for B equal-length videos (`Tape(videos=B)`, default 1),
whose B*T rows share the leading axis. The ops that work along time read
the count from the tape, so that softmax over time, the time pools, the time
slices and concatenations never mix two videos, and matmul runs one product
per video, so a video's rows keep the bits they have on a one-video tape;
every other op works row by row. Code above the engine is written for one
(T, ...) video and takes no video count.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import MAX_RANK, _is_int
from .errors import ConfigError, ContractError, ShapeError

LOG_FLOOR = 1e-12  # log_clamped's floor
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
    """Single-writer record of one forward pass over `videos` videos."""

    def __init__(self, precision: str = "f32", videos: int = 1):
        if precision not in _DTYPES:
            raise ConfigError(f"precision must be one of {sorted(_DTYPES)}, got {precision!r}")
        if not (_is_int(videos) and videos >= 1):
            raise ConfigError(f"videos must be an int >= 1, got {videos!r}")
        self.videos = videos
        self.dtype = _DTYPES[precision]
        self._inputs: list[tuple[int, ...]] = []
        self._backwards: list[Callable | None] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._inputs)

    def _record(self, data, input_ids: tuple[int, ...], backward) -> Tensor:
        """Append a node. Its rule is called as backward(g, needed), where
        needed[i] says if a requested leaf can be reached from input i, and
        returns one gradient per input, or None where needed[i] is False."""
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

    def param(self, data: np.ndarray) -> Tensor:
        """Register a read-only array of the tape precision without a copy;
        an array that is writable or of another dtype is copied as by leaf."""
        if data.flags.writeable or data.dtype != self.dtype:
            return self.leaf(data)
        return self._record(data, (), None)

    def zeros(self, shape) -> Tensor:
        return self.leaf(np.zeros(shape, dtype=self.dtype))

    def backward(self, loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
        """Reverse sweep from a scalar loss; returns one C-ordered gradient per leaf.

        Gradients of multiply-used nodes accumulate by summation, and leaves
        the loss never touched come back as zeros of the leaf shape. Only
        nodes from which a requested leaf can be reached take part: no other
        node's rule runs or receives a gradient. A tape supports exactly one
        backward pass: the returned gradients are plain arrays, so there is
        nothing differentiable left for a second-order pass and asking for
        one is a contract violation. Each rule is dropped once it has run,
        and with it the forward arrays it held, so memory falls as the sweep
        moves back through the tape. Only a gradient that is not C-ordered is
        copied, so two leaves' gradients may be one array (the two operands
        of an add): a caller must not write into a gradient.
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
            self._backwards[node_id] = None
            # a finished node's gradient is dropped unless it was asked for
            g = grads[node_id] if node_id in requested else grads.pop(node_id)
            input_ids = self._inputs[node_id]
            gins = backward(g, tuple(reach[i] for i in input_ids))
            for input_id, gin in zip(input_ids, gins):
                if reach[input_id]:
                    seen = grads.get(input_id)
                    grads[input_id] = gin if seen is None else seen + gin
        return [np.ascontiguousarray(grads[t.node_id]) if t.node_id in grads
                else np.zeros_like(t.data) for t in leaves]


def _tape_of(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """One product per video of the tape, (B*m, k) by b to (B*m, n), so each
    video's rows have the bits of its product on a one-video tape. b is one
    (k, n) matrix that every video shares, or each video's own block stacked
    like a's rows: (B*k, n), or (B*n, k) used transposed when `transpose_b`.
    On one video the two readings coincide."""
    tape = _tape_of(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    sa, sb = a.shape, b.shape
    A = a.data.reshape(_by_video(sa, tape.videos))
    shared = not transpose_b and sb[0] == sa[1]
    B = b.data if shared else b.data.reshape(_by_video(sb, tape.videos))
    if transpose_b:  # a contiguous copy: over the transposed view the bits could differ
        B = np.ascontiguousarray(B.transpose(0, 2, 1))
    if B.shape[-2] != sa[1]:
        raise ShapeError(f"matmul over {tape.videos} videos cannot multiply {sa} by "
                         f"{sb}{' transposed' if transpose_b else ''}")
    out = A @ B

    def backward(g, needed, view=out.shape):
        # a shared b keeps flat products, faster than one per video (README)
        G, X = (g, A.reshape(sa)) if shared else (g.reshape(view), A)
        ga = (G @ B.swapaxes(-1, -2)).reshape(sa) if needed[0] else None
        if not needed[1]:
            return ga, None
        gb = G.swapaxes(-1, -2) @ X if transpose_b else X.swapaxes(-1, -2) @ G
        return ga, gb.reshape(sb)

    return tape._record(out.reshape(-1, out.shape[2]), (a.node_id, b.node_id), backward)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose is defined for rank-2 tensors, got {x.shape}")
    return x.tape._record(x.data.T, (x.node_id,), lambda g, needed: (g.T,))


def _by_video(shape: tuple[int, ...], videos: int) -> tuple[int, ...]:
    """The (B, T, ...) view of a (B*T, ...) shape that folds B videos."""
    if shape[0] % videos:
        raise ShapeError(f"{shape[0]} rows do not split into {videos} equal videos")
    return (videos, shape[0] // videos) + tuple(shape[1:])


def _zero_edges(a: np.ndarray, oi: int, oj: int) -> None:
    """Zero in place the (t, i, j) rows of the (T, h, w, c) array `a` whose
    neighbour (i + oi, j + oj) lies outside the h x w frame."""
    _, h, w, _ = a.shape
    if oi:
        a[:, slice(max(h - oi, 0), h) if oi > 0 else slice(0, -oi)] = 0
    if oj:
        a[:, :, slice(max(w - oj, 0), w) if oj > 0 else slice(0, -oj)] = 0


def _row_shift(n: int, s: int) -> tuple[slice, slice]:
    """(to, frm) slices of n rows such that to[r] pairs with frm[r + s]; a
    shift of all the rows or more pairs none."""
    s = max(-n, min(s, n))
    return (slice(0, n - s), slice(s, n)) if s >= 0 else (slice(-s, n), slice(0, n + s))


def _tap_sum(product, k: int, shape: tuple[int, ...], dtype, sign: int) -> np.ndarray:
    """Sum product(di, dj) over the k x k taps in (di, dj) order, where
    output (t, i, j) takes the product's row (t, i + sign*(di - k//2),
    j + sign*(dj - k//2)) if it lies in the frame, and nothing otherwise.

    Each product is a fresh (T, h, w, c) array up to its row blocking. On
    the flattened T*h*w rows a tap is one contiguous add of its product
    shifted by whole rows, after the product's rows whose target would cross
    a frame edge are zeroed in place. The output starts at +0.0 and so never
    holds -0.0, where adding +0.0 would change bits, so each output sums the
    same values in the same order as adding every product into a
    zero-bordered grid.
    """
    if k == 1:
        return product(0, 0).reshape(shape)
    T, h, w, c = shape
    pad = k // 2
    out = np.zeros((T * h * w, c), dtype=dtype)
    for di in range(k):
        for dj in range(k):
            oi, oj = sign * (di - pad), sign * (dj - pad)
            p = product(di, dj).reshape(shape)
            _zero_edges(p, -oi, -oj)
            to, frm = _row_shift(len(out), oi * w + oj)
            out[to] += p.reshape(-1, c)[frm]
    return out.reshape(shape)


def _check_conv(x_shape: tuple[int, ...], kernel_shape: tuple[int, ...]) -> None:
    if len(x_shape) != 4:
        raise ShapeError(f"conv2d input must be (T,h,w,c), got {x_shape}")
    if len(kernel_shape) != 4 or kernel_shape[0] != kernel_shape[1]:
        raise ShapeError(f"conv2d kernel must be (k,k,c_in,c_out), got {kernel_shape}")
    if kernel_shape[0] % 2 == 0:
        raise ConfigError(f"conv2d kernel extent must be odd for same padding, "
                          f"got {kernel_shape[0]}")
    if kernel_shape[2] != x_shape[3]:
        raise ShapeError(f"channel mismatch: input {x_shape} vs kernel {kernel_shape}")


def _conv_forward(X: np.ndarray, K: np.ndarray) -> np.ndarray:
    """conv2d's output: every kernel tap is one product over all T*h*w rows,
    added into the output shifted by the tap's offset."""
    T, h, w, c_in = X.shape
    k, c_out = K.shape[0], K.shape[3]
    # with one output channel numpy takes GEMV, whose sums depend on the row
    # count, so those products keep w-row blocks (the rows of one window)
    rows = X.reshape((T * h, w, c_in) if c_out == 1 else (T * h * w, c_in))
    return _tap_sum(lambda di, dj: rows @ K[di, dj], k, (T, h, w, c_out), X.dtype, sign=1)


def _conv_input_grad(g: np.ndarray, K: np.ndarray) -> np.ndarray:
    """conv2d's input gradient for the output gradient g: one product per
    tap, summed back onto the input rows the tap read."""
    k, c_in, c_out = K.shape[0], K.shape[2], K.shape[3]
    g_rows = g.reshape(-1, c_out)

    def one_channel(di, dj):
        # a K=1 GEMM is one multiply per value: a broadcast gives the same
        # values, and adding +0.0 turns its -0.0s into the GEMM's +0.0s
        p = g_rows * K[di, dj, :, 0]
        p += 0.0
        return p

    return _tap_sum(one_channel if c_out == 1 else lambda di, dj: g_rows @ K[di, dj].T,
                    k, g.shape[:3] + (c_in,), g.dtype, sign=-1)


def _im2col(X: np.ndarray, k: int) -> np.ndarray:
    """(T*h*w, k*k*c_in) rows: row (t, i, j) holds, tap by tap in (di, dj)
    order, the zero-padded input under tap (di, dj) of the window at (i, j)."""
    T, h, w, c_in = X.shape
    pad = k // 2
    padded = np.zeros((T, h + 2 * pad, w + 2 * pad, c_in), dtype=X.dtype)
    padded[:, pad:pad + h, pad:pad + w] = X
    windows = sliding_window_view(padded, (k, k), axis=(1, 2))  # (T, h, w, c_in, k, k)
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(T * h * w, k * k * c_in)


def _conv_kernel_grads(X: np.ndarray, gs: Sequence[np.ndarray], k: int) -> list[np.ndarray]:
    """conv2d's kernel gradient for each output gradient in gs, all of them
    of k x k convs of the same input X, from one im2col of X (X's own rows
    for a 1x1 kernel) that all of gs share.

    Each gradient is one product `cols.T @ g_rows`, with the k*k taps along
    its rows, so it comes out in the kernel's own (k, k, c_in, c_out) layout.
    A value sums the same products over the same rows as a per-tap product,
    but BLAS may run the two through other kernels, and their bits agree
    only at some sizes (see the README's motion section).
    """
    c_in = X.shape[3]
    cols = _im2col(X, k) if k > 1 else X.reshape(-1, c_in)
    return [(cols.T @ g.reshape(-1, g.shape[-1])).reshape(k, k, c_in, g.shape[-1])
            for g in gs]


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-time-step 2-D cross-correlation with same zero padding, stride 1.

    x is (T, h, w, c_in), kernel is (k, k, c_in, c_out) with odd k; output is
    (T, h, w, c_out). A 1x1 kernel degenerates to a channel map.

    Every kernel tap is one product over all T*h*w rows, added into the
    output shifted by the tap's offset. Each output value sums the same dot
    products in the same tap order as a product per window row; where BLAS
    gives each row the same sum at any row count (every conv of the
    desk-scale model), the bits are those of that computation too. A k > 1
    conv with one output channel does not get those bits: its GEMV sum of a
    window row depends on where the row sits in its block of w rows.
    """
    _check_conv(x.shape, kernel.shape)
    tape = _tape_of(x, kernel)
    X, K = x.data, kernel.data

    def backward(g, needed):
        gx = _conv_input_grad(g, K) if needed[0] else None
        gk = _conv_kernel_grads(X, [g], K.shape[0])[0] if needed[1] else None
        return gx, gk

    return tape._record(_conv_forward(X, K), (x.node_id, kernel.node_id), backward)


def neighbor_motion(aligned: Tensor, future_kernel: Tensor,
                    past_kernel: Tensor | None) -> Tensor:
    """future + past as one tape node, where per video future[t] =
    conv(aligned)[t + 1] - aligned[t] and past[t] = conv'(aligned)[t] -
    aligned[t - 1], each exactly zero in the row it lacks, and a missing past
    kernel is a past of zeros.

    Forward and backward do, value for value, the arithmetic of composing
    each direction from conv2d, slice_axis, sub, zeros and concat and adding
    them, in the order the tape's reverse sweep runs it, and the two kernel
    gradients share one im2col of `aligned`.
    """
    # in the node's input order: (aligned, past, future) or (aligned, future)
    kernels = (future_kernel,) if past_kernel is None else (past_kernel, future_kernel)
    tape = _tape_of(aligned, *kernels)
    for kernel in kernels:
        _check_conv(aligned.shape, kernel.shape)
        if kernel.shape != future_kernel.shape or kernel.shape[3] != aligned.shape[3]:
            raise ShapeError(f"motion kernels must both map the {aligned.shape[3]} channels "
                             f"of {aligned.shape} to themselves, got "
                             f"{[k.shape for k in kernels]}")
    view = _by_video(aligned.shape, tape.videos)
    T = view[1]
    if T < 2:
        raise ContractError(f"motion extraction needs T >= 2, got T={T}")
    X = aligned.data
    x = X.reshape(view)
    K_future = future_kernel.data
    K_past = None if past_kernel is None else past_kernel.data

    def difference(K, zero_row: int) -> np.ndarray:
        # conv(x)[1:] - x[:-1] per video, beside an exact zero row
        d = np.empty(view, dtype=X.dtype)
        d[:, zero_row] = 0.0
        body = slice(1, T) if zero_row == 0 else slice(0, T - 1)
        np.subtract(_conv_forward(X, K).reshape(view)[:, 1:], x[:, :-1], out=d[:, body])
        return d

    out = difference(K_future, T - 1)
    # a missing past adds +0.0, as adding a zeros grid did: a -0.0 becomes +0.0
    out += 0.0 if K_past is None else difference(K_past, 0)

    def backward(g, needed):
        g = g.reshape(view)
        g_future = np.empty(view, dtype=g.dtype)  # at the future conv: g one row later
        g_future[:, 0] = 0.0
        g_future[:, 1:] = g[:, :-1]
        if K_past is not None:  # at the past conv: g less its first row
            g_past = g.copy()
            g_past[:, 0] = 0.0
        gx = None
        if needed[0]:
            # summed as the composed chain's reverse sweep adds them: the
            # future slice, the future conv, the past slice, the past conv
            gx = np.empty(view, dtype=g.dtype)
            gx[:, T - 1] = 0.0
            np.negative(g[:, :-1], out=gx[:, :-1])
            gx += _conv_input_grad(g_future.reshape(X.shape), K_future).reshape(view)
            if K_past is not None:
                gx[:, :-1] -= g[:, 1:]  # its +0.0 in row T - 1 changes no bit there
                gx += _conv_input_grad(g_past.reshape(X.shape), K_past).reshape(view)
            gx = gx.reshape(X.shape)
        g_convs = [g_future] if K_past is None else [g_past, g_future]  # input order
        gks = iter(_conv_kernel_grads(
            X, [g.reshape(X.shape) for g, flag in zip(g_convs, needed[1:]) if flag],
            K_future.shape[0]))
        return (gx,) + tuple(next(gks) if flag else None for flag in needed[1:])

    return tape._record(out.reshape(X.shape), (aligned.node_id,) + tuple(
        kernel.node_id for kernel in kernels), backward)


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    # the rule keeps the output, which its consumer usually keeps too, not the input
    Y = np.maximum(x.data, 0)
    return x.tape._record(Y, (x.node_id,), lambda g, needed: (g * (Y > 0),))


def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf below about -88 in f32, where 1 / (1 + inf)
    # is the right 0, and underflows harmlessly for large x
    with np.errstate(over="ignore", under="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    return x.tape._record(s, (x.node_id,), lambda g, needed: (g * s * (1.0 - s),))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return x.tape._record(t, (x.node_id,), lambda g, needed: (g * (1.0 - t * t),))


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} is invalid for a rank-{ndim} tensor")
    return axis % ndim


def softmax(x: Tensor, axis: int) -> Tensor:
    """Softmax along `axis`; along axis 0, within each video of the tape."""
    axis = _normalize_axis(axis, x.ndim)
    X = x.data
    if axis == 0:
        X, axis = X.reshape(_by_video(x.shape, x.tape.videos)), 1
    z = X - X.max(axis=axis, keepdims=True)  # shift-invariant, avoids overflow
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g, needed, shape=x.shape):
        g = g.reshape(s.shape)
        return ((s * (g - (g * s).sum(axis=axis, keepdims=True))).reshape(shape),)

    return x.tape._record(s.reshape(x.shape), (x.node_id,), backward)


def log_clamped(x: Tensor) -> Tensor:
    """log with the argument clamped at LOG_FLOOR; gradient is zero below it."""
    X = x.data
    clamped = np.maximum(X, LOG_FLOOR)

    def backward(g, needed):
        return (np.where(X > LOG_FLOOR, g / clamped, 0.0),)

    return x.tape._record(np.log(clamped), (x.node_id,), backward)


# ---------------------------------------------------------------------------
# reductions


def avg_spatial(x: Tensor) -> Tensor:
    """(T, h, w, c) -> (T, c) mean over the two spatial axes."""
    if x.ndim != 4:
        raise ShapeError(f"avg_spatial needs (T,h,w,c), got {x.shape}")
    _, h, w, _ = x.shape
    n = h * w

    def backward(g, needed, shape=x.shape):
        return (np.broadcast_to(g[:, None, None, :], shape) / n,)

    return x.tape._record(x.data.mean(axis=(1, 2)), (x.node_id,), backward)


def max_time(x: Tensor) -> Tensor:
    """(B*T, d) -> (B, d) max over each video's T rows; ties route the
    gradient to the lowest index."""
    if x.ndim != 2:
        raise ShapeError(f"max_time needs (T,d), got {x.shape}")
    X = x.data.reshape(_by_video(x.shape, x.tape.videos))
    idx = X.argmax(axis=1)[:, None, :]  # first occurrence == lowest index

    def backward(g, needed, shape=x.shape):
        gx = np.zeros_like(X)
        np.put_along_axis(gx, idx, g[:, None, :], axis=1)
        return (gx.reshape(shape),)

    return x.tape._record(np.take_along_axis(X, idx, axis=1)[:, 0], (x.node_id,), backward)


def sum_time(x: Tensor) -> Tensor:
    """(B*T, d) -> (B, d) sum over each video's T rows."""
    if x.ndim != 2:
        raise ShapeError(f"sum_time needs (T,d), got {x.shape}")
    X = x.data.reshape(_by_video(x.shape, x.tape.videos))

    def backward(g, needed, rows=X.shape[1]):
        return (np.repeat(g, rows, axis=0),)

    return x.tape._record(X.sum(axis=1), (x.node_id,), backward)


def sum_all(x: Tensor) -> Tensor:
    """Any shape -> (1, 1) total."""

    def backward(g, needed, shape=x.shape):
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

    def backward(g, needed, sx=x.shape, sy=y.shape):
        return _unbroadcast(g, sx), _unbroadcast(g, sy)

    return tape._record(x.data + y.data, (x.node_id, y.node_id), backward)


def sub(x: Tensor, y: Tensor) -> Tensor:
    _check_broadcast(x.shape, y.shape)
    tape = _tape_of(x, y)

    def backward(g, needed, sx=x.shape, sy=y.shape):
        return _unbroadcast(g, sx), _unbroadcast(-g, sy)

    return tape._record(x.data - y.data, (x.node_id, y.node_id), backward)


def mul(x: Tensor, y: Tensor) -> Tensor:
    _check_broadcast(x.shape, y.shape)
    tape = _tape_of(x, y)
    X, Y = x.data, y.data

    def backward(g, needed, sx=x.shape, sy=y.shape):
        return _unbroadcast(g * Y, sx), _unbroadcast(g * X, sy)

    return tape._record(X * Y, (x.node_id, y.node_id), backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a compile-time constant (not a differentiable operand)."""
    c = x.tape.dtype(c)
    return x.tape._record(x.data * c, (x.node_id,), lambda g, needed: (g * c,))


def concat(x: Tensor, y: Tensor, axis: int) -> Tensor:
    """Concatenate along `axis`; along axis 0, video by video, so that each
    video of the result is x's rows of it, then y's."""
    axis = _normalize_axis(axis, x.ndim)
    if x.ndim != y.ndim:
        raise ShapeError(f"concat needs equal ranks, got {x.shape} and {y.shape}")
    tape = _tape_of(x, y)
    vx, vy = _by_video(x.shape, tape.videos), _by_video(y.shape, tape.videos)
    if any(m != n for ax, (m, n) in enumerate(zip(vx, vy)) if ax != axis + 1):
        raise ShapeError(f"concat on axis {axis} needs matching other extents, "
                         f"got {x.shape} and {y.shape}")
    split = vx[axis + 1]
    out = np.concatenate([x.data.reshape(vx), y.data.reshape(vy)], axis=axis + 1)

    def backward(g, needed, view=out.shape, sx=x.shape, sy=y.shape):
        head, tail = np.split(g.reshape(view), [split], axis=axis + 1)
        return head.reshape(sx), tail.reshape(sy)

    return tape._record(out.reshape((-1,) + out.shape[2:]), (x.node_id, y.node_id), backward)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(n) for n in shape)
    if np.prod(shape, dtype=int) != x.data.size or not 1 <= len(shape) <= MAX_RANK:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def backward(g, needed, in_shape=x.shape):
        return (g.reshape(in_shape),)

    return x.tape._record(x.data.reshape(shape), (x.node_id,), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Rows [start:stop) along `axis`; along axis 0, of each video of the tape."""
    axis = _normalize_axis(axis, x.ndim)
    view = _by_video(x.shape, x.tape.videos)
    if not 0 <= start < stop <= view[axis + 1]:
        raise ShapeError(f"slice [{start}:{stop}] is invalid for axis {axis} of {x.shape}"
                         f" over {x.tape.videos} video(s)")
    sl = (slice(None),) * (axis + 1) + (slice(start, stop),)
    out = x.data.reshape(view)[sl]

    def backward(g, needed, shape=x.shape, piece=out.shape, dtype=x.data.dtype):
        gx = np.zeros(view, dtype=dtype)
        gx[sl] = g.reshape(piece)
        return (gx.reshape(shape),)

    return x.tape._record(out.reshape((-1,) + out.shape[2:]), (x.node_id,), backward)
