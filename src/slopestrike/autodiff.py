"""Reverse-mode automatic differentiation over dense float64 tensors.

Tensors wrap numpy arrays; every operation that touches a gradient-carrying
input records a node so that the backward pass can sweep the graph in reverse
topological order.  The sweep computes only the vector-Jacobian products that
reach a requested tensor: ``backward`` requests every requires-grad leaf, while
``gradient``/``gradients`` request just the tensors they are given, so a caller
that needs a subset (an attack's price gradient, a generator's parameters)
skips every other product.  A restricted subset of operations additionally
supports building the backward pass itself as a differentiable graph
(``create_graph=True``), which is what the Wasserstein gradient penalty needs.

Subgradient conventions (fixed for deterministic replay):
  * ``sign``           -> derivative 0 everywhere
  * ``clamp``          -> pass-through inside [lo, hi], bounds count as inside
  * ``maxpool1d``      -> gradient routed to the first (lowest-index) maximum
  * ``sqrt`` at 0      -> derivative 0 (stabilising convention)
  * ``abs`` at 0       -> derivative 0
  * ``leaky_relu``     -> second derivative treated as 0 almost everywhere
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class AutodiffError(Exception):
    """Base error for the autodiff engine."""


class ShapeError(AutodiffError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(AutodiffError):
    """Operation evaluated outside its mathematical domain."""


class GraphError(AutodiffError):
    """Graph contract violation (non-scalar root, reuse after backward, ...)."""


class SecondOrderError(AutodiffError):
    """An operation outside the second-order-capable subset was differentiated twice."""


_STATE = threading.local()


def _recording() -> bool:
    return getattr(_STATE, "recording", True)


@contextmanager
def no_record():
    """Disable graph recording in the enclosed block (attack update steps etc.)."""
    prev = _recording()
    _STATE.recording = False
    try:
        yield
    finally:
        _STATE.recording = prev


@contextmanager
def _record(enabled: bool):
    prev = _recording()
    _STATE.recording = enabled
    try:
        yield
    finally:
        _STATE.recording = prev


class Node:
    """One recorded operation: kind, parent tensors and the vector-Jacobian product."""

    __slots__ = ("kind", "parents", "vjp", "second_order", "freed")

    def __init__(self, kind, parents, vjp, second_order):
        self.kind = kind
        self.parents = parents
        self.vjp = vjp
        self.second_order = second_order
        self.freed = False


class Tensor:
    """Dense float64 tensor with an optional gradient buffer and graph node."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return tslice(self, key)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# node construction
# ---------------------------------------------------------------------------

# Operations whose vector-Jacobian products may themselves be recorded and
# differentiated once more (the gradient-penalty subset), plus the structural
# ops their vjps are built from.
_SECOND_ORDER_KINDS = frozenset(
    {
        "add", "sub", "mul", "matmul", "affine", "tanh", "sigmoid",
        "leaky_relu", "sum", "mean", "sqrt", "pow",
        "expand", "reshape", "transpose",
    }
)


def records(parents) -> bool:
    """Whether an op over ``parents`` is recorded: recording is on and one requires grad."""
    return _recording() and any(p.requires_grad for p in parents)


def _make(kind, out_data, parents, vjp):
    out = Tensor(out_data)
    if records(parents):
        out.requires_grad = True
        out.node = Node(kind, tuple(parents), vjp, kind in _SECOND_ORDER_KINDS)
    return out


def custom_op(kind: str, out_data, parents, vjp) -> Tensor:
    """Record a first-order op whose forward and vjp are written elsewhere.

    ``out_data`` is the computed forward value.  ``vjp`` follows the contract
    of the ops below: ``vjp(g, need)`` for several parents, ``vjp(g)`` for one,
    returning a gradient Tensor (or None where ``need`` is False) per parent.
    A forward that keeps arrays for its vjp asks ``records(parents)`` first.
    """
    return _make(kind, out_data, parents, vjp)


def _check_elementwise(kind, a: Tensor, b: Tensor) -> None:
    # Broadcasting is restricted to scalar-tensor and trailing-dimension
    # expansion; anything richer must reshape explicitly.
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    small, big = (a, b) if a.ndim < b.ndim else (b, a)
    if small.ndim < big.ndim and big.shape[big.ndim - small.ndim:] == small.shape:
        return
    raise ShapeError(f"{kind}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Sum a gradient back down to the shape of a broadcast operand."""
    while g.ndim > len(shape):
        g = tsum(g, axis=0)
    if g.shape != shape:  # scalar operand
        g = tsum(g, None)
        if len(shape):
            g = reshape(g, shape)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------
#
# A vjp of a node with several parents takes ``need``, one flag per parent,
# and returns None for a parent whose gradient cannot reach a requested
# tensor.  A single-parent node is only swept when its parent is needed.

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("add", a, b)

    def vjp(g, need):
        return (_reduce_to(g, a.shape) if need[0] else None,
                _reduce_to(g, b.shape) if need[1] else None)

    return _make("add", a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("sub", a, b)

    def vjp(g, need):
        return (_reduce_to(g, a.shape) if need[0] else None,
                _reduce_to(mul(g, -1.0), b.shape) if need[1] else None)

    return _make("sub", a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("mul", a, b)

    def vjp(g, need):
        return (_reduce_to(mul(g, b), a.shape) if need[0] else None,
                _reduce_to(mul(g, a), b.shape) if need[1] else None)

    return _make("mul", a.data * b.data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("div: division by zero")

    def vjp(g, need):
        ga = _reduce_to(div(g, b), a.shape) if need[0] else None
        gb = _reduce_to(mul(mul(g, -1.0), div(a, mul(b, b))), b.shape) if need[1] else None
        return (ga, gb)

    return _make("div", a.data / b.data, (a, b), vjp)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0.0):
        raise DomainError(f"pow: negative base with non-integer exponent {p}")

    def vjp(g):
        return (mul(g, mul(p, power(a, p - 1.0))),)

    return _make("pow", a.data ** p, (a,), vjp)


def texp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def vjp(g, _y=out_data):
        return (mul(g, Tensor(_y)),)

    return _make("exp", out_data, (a,), vjp)


def tlog(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: argument must be strictly positive")

    def vjp(g):
        return (div(g, a),)

    return _make("log", np.log(a.data), (a,), vjp)


def tsqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: negative argument")
    out_data = np.sqrt(a.data)
    out = Tensor(out_data)
    if _recording() and a.requires_grad:
        # derivative 0 at exactly 0: shift those entries so pow stays finite,
        # then mask them out with a constant factor
        zero = out_data == 0.0
        shift = Tensor(np.where(zero, 1.0, 0.0))
        mask = Tensor(np.where(zero, 0.0, 0.5))

        def vjp(g):
            safe = add(out, shift)
            return (mul(mul(g, mask), power(safe, -1.0)),)

        out.requires_grad = True
        out.node = Node("sqrt", (a,), vjp, True)
    return out


def tabs(a) -> Tensor:
    a = as_tensor(a)
    s = np.sign(a.data)

    def vjp(g):
        return (mul(g, Tensor(s)),)

    return _make("abs", np.abs(a.data), (a,), vjp)


def sign(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (Tensor(np.zeros(a.shape)),)

    return _make("sign", np.sign(a.data), (a,), vjp)


def clamp(a, lo=None, hi=None) -> Tensor:
    a = as_tensor(a)
    lo_arr = None if lo is None else np.asarray(lo, dtype=np.float64)
    hi_arr = None if hi is None else np.asarray(hi, dtype=np.float64)
    out_data = np.clip(a.data, lo_arr, hi_arr)
    inside = np.ones(a.shape)
    if lo_arr is not None:
        inside = inside * (a.data >= lo_arr)
    if hi_arr is not None:
        inside = inside * (a.data <= hi_arr)

    def vjp(g):
        return (mul(g, Tensor(inside)),)

    return _make("clamp", out_data, (a,), vjp)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = (a.data > 0.0).astype(np.float64)

    def vjp(g):
        return (mul(g, Tensor(mask)),)

    return _make("relu", a.data * mask, (a,), vjp)


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (mul(g, Tensor(np.where(a.data >= 0.0, 1.0, slope))),)

    return _make("leaky_relu", np.where(a.data >= 0.0, a.data, a.data * slope), (a,), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    out = Tensor(out_data)
    if _recording() and a.requires_grad:
        def vjp(g):
            return (mul(g, sub(1.0, mul(out, out))),)

        out.requires_grad = True
        out.node = Node("tanh", (a,), vjp, True)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(out_data)
    if _recording() and a.requires_grad:
        def vjp(g):
            return (mul(g, mul(out, sub(1.0, out))),)

        out.requires_grad = True
        out.node = Node("sigmoid", (a,), vjp, True)
    return out


# ---------------------------------------------------------------------------
# reductions and shape plumbing
# ---------------------------------------------------------------------------

def tsum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def vjp(g):
        return (expand(g, shape, axis),)

    return _make("sum", np.sum(a.data, axis=axis), (a,), vjp)


def tmean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    n = a.size if axis is None else shape[axis]
    if n == 0:
        raise ShapeError("mean: empty tensor")

    def vjp(g):
        return (mul(expand(g, shape, axis), 1.0 / n),)

    return _make("mean", np.mean(a.data, axis=axis), (a,), vjp)


def expand(a, shape: tuple[int, ...], axis: int | None = None) -> Tensor:
    """Adjoint of ``sum``: replicate a reduced tensor back to ``shape``."""
    a = as_tensor(a)
    if axis is None:
        out_data = np.broadcast_to(a.data, shape).copy()
    else:
        out_data = np.broadcast_to(np.expand_dims(a.data, axis), shape).copy()

    def vjp(g):
        return (tsum(g, axis),)

    return _make("expand", out_data, (a,), vjp)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    old = a.shape

    def vjp(g):
        return (reshape(g, old),)

    try:
        out_data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from exc
    return _make("reshape", out_data, (a,), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.shape}")

    def vjp(g):
        return (transpose(g),)

    return _make("transpose", a.data.T.copy(), (a,), vjp)


def tslice(a, key) -> Tensor:
    """Basic indexing (ints and slices); every element is picked at most once."""
    a = as_tensor(a)
    shape = a.shape
    if not all(isinstance(k, (int, np.integer, slice)) or k is None or k is Ellipsis
               for k in (key if isinstance(key, tuple) else (key,))):
        raise ShapeError(f"slice: only int and slice indices are supported, got {key!r}")
    out_data = a.data[key]

    def vjp(g):
        buf = np.zeros(shape)
        buf[key] = g.data
        return (Tensor(buf),)

    return _make("slice", np.array(out_data, dtype=np.float64), (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: no inputs")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g, need=(True,)):
        grads = []
        for i in range(len(tensors)):
            if not need[i]:
                grads.append(None)
                continue
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            grads.append(tslice(g, tuple(idx)))
        return tuple(grads)

    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    return _make("concat", out_data, tuple(tensors), vjp)


def sort_last(a) -> Tensor:
    """Sort along the last axis; gradients route back through the permutation."""
    a = as_tensor(a)
    order = np.argsort(a.data, axis=-1, kind="stable")
    out_data = np.take_along_axis(a.data, order, axis=-1)

    def vjp(g):
        buf = np.empty(a.shape)
        np.put_along_axis(buf, order, g.data, axis=-1)
        return (Tensor(buf),)

    return _make("sort", out_data, (a,), vjp)


# ---------------------------------------------------------------------------
# sliding windows
# ---------------------------------------------------------------------------

def _window_view(a: np.ndarray, size: int, dilation: int = 1, axis: int = 0) -> np.ndarray:
    """Read-only view of every window of ``size`` taps along ``axis``: (..., n, size, ...)."""
    span = (size - 1) * dilation + 1
    view = np.lib.stride_tricks.sliding_window_view(a, span, axis=axis)[..., ::dilation]
    return np.moveaxis(view, -1, axis + 1)


def _overlap_add(w: np.ndarray, length: int, dilation: int = 1, axis: int = 0) -> np.ndarray:
    """Adjoint of ``_window_view``: add tap k of window i back at i + k*dilation along ``axis``."""
    n = w.shape[axis]
    out = np.zeros(w.shape[:axis] + (length,) + w.shape[axis + 2:])
    # views with the window and tap axes first, so the adds land in out
    out_t, w_t = np.moveaxis(out, axis, 0), np.moveaxis(w, (axis, axis + 1), (0, 1))
    # highest tap first, so every row sums its windows in window order
    for k in reversed(range(w.shape[axis + 1])):
        out_t[k * dilation:k * dilation + n] += w_t[:, k]
    return out


def unfold(x, size: int, axis: int = 0) -> Tensor:
    """Every window of ``size`` consecutive steps along ``axis``.

    (T, ...) -> (T-size+1, size, ...) for axis 0; a leading batch axis, as in
    (B, T, ...) with axis 1, is carried through: (B, T-size+1, size, ...).
    """
    x = as_tensor(x)
    T = x.shape[axis] if 0 <= axis < x.ndim else 0
    if not 1 <= size <= T:
        raise ShapeError(f"unfold: window {size} does not fit axis {axis} of {x.shape}")

    def vjp(g):
        return (fold(g, T, axis),)

    return _make("unfold", _window_view(x.data, size, axis=axis).copy(), (x,), vjp)


def fold(w, length: int, axis: int = 0) -> Tensor:
    """Adjoint of ``unfold``: overlap-add windows (length-size+1, size) at ``axis`` to length."""
    w = as_tensor(w)
    if (axis < 0 or w.ndim < axis + 2
            or w.shape[axis] != length - w.shape[axis + 1] + 1):
        raise ShapeError(f"fold: windows {w.shape} do not tile length {length} at axis {axis}")
    size = w.shape[axis + 1]

    def vjp(g):
        return (unfold(g, size, axis),)

    return _make("fold", _overlap_add(w.data, length, axis=axis), (w,), vjp)


def _decay_scan(x: np.ndarray, gain: float, decay: float) -> np.ndarray:
    """r_0 = x_0, r_t = gain * x_t + decay * r_{t-1} along the last axis."""
    if x.ndim == 1:  # Python floats step far faster than numpy scalars
        r = x.tolist()
    else:  # time-major rows: each step updates a whole batch of series
        r = list(np.moveaxis(x, -1, 0))
    for t in range(1, len(r)):
        r[t] = gain * r[t] + decay * r[t - 1]
    if x.ndim == 1:
        return np.array(r)
    # contiguous, so the ops that follow (exp, say) round as they do on one series
    return np.ascontiguousarray(np.moveaxis(np.array(r), 0, -1))


def ema(x, beta: float) -> Tensor:
    """Exponential moving average along the last axis: e_0 = x_0, e_t = beta x_t + (1-beta) e_{t-1}."""
    x = as_tensor(x)
    if x.ndim < 1:
        raise ShapeError("ema: expected at least 1-D, got a scalar")

    def vjp(g):
        # the same recurrence run backwards: a_t = g_t + (1-beta) a_{t+1};
        # x_t receives beta * a_t, except x_0, which seeds e_0 and receives a_0
        a = _decay_scan(g.data[..., ::-1], 1.0, 1.0 - beta)[..., ::-1]
        a[..., 1:] *= beta
        return (Tensor(a),)

    return _make("ema", _decay_scan(x.data, beta, 1.0 - beta), (x,), vjp)


def cumsum(x) -> Tensor:
    """Running sum along the last axis: c_t = x_0 + ... + x_t."""
    x = as_tensor(x)
    if x.ndim < 1:
        raise ShapeError("cumsum: expected at least 1-D, got a scalar")

    def vjp(g):
        # x_t feeds every c_s with s >= t: the running sum taken from the end
        return (Tensor(np.cumsum(g.data[..., ::-1], axis=-1)[..., ::-1]),)

    return _make("cumsum", np.cumsum(x.data, axis=-1), (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and convolution
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """a @ b for a 2-D b; the leading axes of a (..., K) are all rows of the product."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 1:
        return reshape(matmul(reshape(a, (1, a.shape[0])), b), (-1,))
    if b.ndim == 1:
        return reshape(matmul(a, reshape(b, (b.shape[0], 1))), (-1,))
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")

    def vjp(g, need):
        gb = None
        if need[1]:
            rows, grows = (a, g) if a.ndim == 2 else (reshape(a, (-1, b.shape[0])),
                                                      reshape(g, (-1, b.shape[1])))
            gb = matmul(transpose(rows), grows)
        return (matmul(g, transpose(b)) if need[0] else None, gb)

    return _make("matmul", a.data @ b.data, (a, b), vjp)


def affine(x, w, b) -> Tensor:
    """Linear layer x @ w + b (recorded as matmul + add)."""
    return add(matmul(x, w), b)


def channel_bias(x, b) -> Tensor:
    """Add a per-channel bias (C,) to a channels-first (C, T) or (B, C, T) tensor."""
    x, b = as_tensor(x), as_tensor(b)
    if x.ndim == 2:
        return add(x, expand(b, x.shape, 1))
    if x.ndim == 3:
        # (C, T) suffices: add broadcasts it over the batch, _reduce_to sums it back
        return add(x, expand(b, x.shape[1:], 1))
    raise ShapeError(f"channel_bias: expected 2-D or 3-D input, got {x.shape}")


def conv1d(x, w, dilation: int = 1) -> Tensor:
    """Causal 1-D convolution (cross-correlation), channels-first.

    x: (C_in, T) or (B, C_in, T); w: (C_out, C_in, K).  The input is left-padded
    with (K-1)*dilation zeros, so the output keeps length T.  First-order only.
    """
    x, w = as_tensor(x), as_tensor(w)
    squeeze = x.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3 or w.ndim != 3 or xd.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d: incompatible shapes {x.shape} and {w.shape}")
    B, Cin, T = xd.shape
    Cout, _, K = w.shape
    pad = (K - 1) * dilation
    # time-major, so the windows are taken along axis 0 like unfold's
    xp = np.pad(np.moveaxis(xd, 2, 0), ((pad, 0), (0, 0), (0, 0)))  # (T+pad, B, Cin)
    taps = _window_view(xp, K, dilation)  # (T, K, B, Cin)
    # contract via BLAS: (B*T, Cin*K) @ (Cin*K, Cout)
    pmat = taps.transpose(2, 0, 3, 1).reshape(B * T, Cin * K)
    wmat = w.data.reshape(Cout, Cin * K).T
    out_data = (pmat @ wmat).reshape(B, T, Cout).transpose(0, 2, 1)

    def vjp(g, need):
        gd = g.data[None] if squeeze else g.data
        gmat = gd.transpose(0, 2, 1).reshape(B * T, Cout)
        gx = gw = None
        if need[0]:
            gtaps = (gmat @ wmat.T).reshape(B, T, Cin, K).transpose(1, 3, 0, 2)
            gx = np.moveaxis(_overlap_add(gtaps, T + pad, dilation)[pad:], 0, 2)
            gx = Tensor(gx[0] if squeeze else gx)
        if need[1]:
            gw = Tensor((gmat.T @ pmat).reshape(Cout, Cin, K))
        return (gx, gw)

    return _make("conv1d", out_data[0] if squeeze else out_data, (x, w), vjp)


def maxpool1d(x, kernel: int) -> Tensor:
    """Max pooling over non-overlapping windows along the last axis.

    A trailing remainder shorter than the kernel is dropped.  Gradient goes to
    the first maximum inside each window.
    """
    x = as_tensor(x)
    if kernel < 1:
        raise ShapeError(f"maxpool1d: kernel {kernel} < 1")
    T = x.shape[-1]
    if T < kernel:
        raise ShapeError(f"maxpool1d: length {T} shorter than kernel {kernel}")
    kept = T // kernel * kernel
    windows = x.data[..., :kept].reshape(x.shape[:-1] + (T // kernel, kernel))
    arg = np.argmax(windows, axis=-1)[..., None]  # first max
    out_data = np.take_along_axis(windows, arg, axis=-1)[..., 0]

    def vjp(g):
        routed = np.zeros(windows.shape)
        np.put_along_axis(routed, arg, g.data[..., None], axis=-1)
        buf = np.zeros(x.shape)
        buf[..., :kept] = routed.reshape(x.shape[:-1] + (kept,))
        return (Tensor(buf),)

    return _make("maxpool1d", out_data, (x,), vjp)


# ---------------------------------------------------------------------------
# backward engine
# ---------------------------------------------------------------------------

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
    return order


def _matters_map(order: list[Tensor], targets: set[int]) -> set[int]:
    """Tensors through which gradient must flow to reach a target."""
    matters: set[int] = set()
    for t in order:  # order is parents-before-children
        if id(t) in targets:
            matters.add(id(t))
        elif t.node is not None and any(id(p) in matters for p in t.node.parents):
            matters.add(id(t))
    return matters


def _run_backward(root: Tensor, create_graph: bool, sinks: list[Tensor] | None,
                  accumulate: bool) -> dict[int, Tensor]:
    if root.data.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.shape}")
    if root.node is None:
        if not root.requires_grad and not sinks:
            raise GraphError("backward on a constant with no recorded graph")
    elif root.node.freed:
        raise GraphError("backward called twice without re-running forward")

    order = _toposort(root)
    if sinks is not None:
        targets = {id(t) for t in sinks}
    else:
        targets = {id(t) for t in order if t.node is None and t.requires_grad}
    matters = _matters_map(order, targets)

    grads: dict[int, Tensor] = {id(root): Tensor(np.ones(root.shape))}
    out: dict[int, Tensor] = {}

    for t in reversed(order):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if sinks is not None and id(t) in targets:
            out[id(t)] = g
        if accumulate and t.node is None and t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros(t.shape)
            t.grad = t.grad + g.data
        node = t.node
        if node is None:
            continue
        if node.freed:
            raise GraphError("backward through an already-consumed graph; re-run forward")
        if create_graph and not node.second_order:
            raise SecondOrderError(
                f"operation '{node.kind}' does not support second-order differentiation")
        need = tuple(id(p) in matters for p in node.parents)
        if any(need):
            with _record(create_graph):
                pgrads = node.vjp(g, need) if len(need) > 1 else node.vjp(g)
                for p, pg in zip(node.parents, pgrads):
                    if pg is None:
                        continue
                    prev = grads.get(id(p))
                    grads[id(p)] = pg if prev is None else add(prev, pg)
        if not create_graph:
            # tanh/sigmoid/sqrt vjps hold their own output; dropping the vjp breaks
            # that cycle, so a consumed graph is freed without waiting for the gc
            node.freed = True
            node.vjp = None
    return out


def backward(root: Tensor, create_graph: bool = False) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` of every requires-grad leaf.

    Unless ``create_graph`` is set the swept nodes are consumed; a second
    backward over them raises ``GraphError``.  Use ``gradient``/``gradients``
    when only some tensors' gradients are wanted: nothing else is computed.
    """
    _run_backward(root, create_graph, sinks=None, accumulate=True)


def gradients(root: Tensor, wrt: list[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Return d(root)/d(t) for each tensor in ``wrt`` without touching ``grad`` buffers.

    ``wrt`` may hold interior tensors as well as leaves.  Only the products
    that reach a tensor in ``wrt`` are computed.  Without ``create_graph`` the
    swept nodes are consumed, as in ``backward``; with it the returned tensors
    are graph-connected and can be differentiated again (second-order subset
    only).
    """
    found = _run_backward(root, create_graph, sinks=list(wrt), accumulate=False)
    res = []
    for t in wrt:
        g = found.get(id(t))
        res.append(g if g is not None else Tensor(np.zeros(t.shape)))
    return res


def gradient(root: Tensor, wrt: Tensor, create_graph: bool = False) -> Tensor:
    return gradients(root, [wrt], create_graph)[0]


def sgd_step(params: dict[str, Tensor], loss: Tensor, lr: float,
             weight_decay: float = 0.0) -> None:
    """One gradient-descent step on the tensors of ``params``.

    Only the parameters' gradients are computed.  Decoupled weight decay
    shrinks every matrix or filter (``ndim > 1``) before the step; biases are
    not decayed.
    """
    plist = list(params.values())
    for p, g in zip(plist, gradients(loss, plist)):
        d = p.data
        if weight_decay and p.ndim > 1:
            d = d * (1.0 - lr * weight_decay)
        p.data = d - lr * g.data
