"""Reverse-mode automatic differentiation over dense float64 tensors.

Tensors wrap numpy arrays; operations are the functions below (``add``,
``matmul``, ...), not operator methods.  Every operation that touches a
gradient-carrying input records a node so that the backward pass can sweep the
graph in reverse topological order.  ``gradient``/``gradients`` return the
gradients of the tensors they are given, and the sweep computes only the
vector-Jacobian products that reach one of them, so a caller that needs a
subset (an attack's price gradient, a generator's parameters) skips every other
product.  Tensors carry no gradient slot: a gradient is only ever a return
value.  A restricted subset of operations additionally supports building the
backward pass itself as a differentiable graph (``create_graph=True``), which
is what the Wasserstein gradient penalty needs.  Ops that only the test oracles
build (``div``, ``unfold``, ``fold``, ``ema``, ``sort_last``, ``conv1d``,
``channel_bias``, ``maxpool1d``) live in ``tests/graph_ops.py``.  The fused ops
of other modules are written from the numpy kernels here: sliding windows, a
causal convolution and first-max pooling, each with its adjoint.

Subgradient conventions (fixed for deterministic replay):
  * ``clamp``          -> pass-through inside [lo, hi], bounds count as inside
  * ``pool_taps_vjp``  -> gradient routed to the first (lowest-index) maximum
  * ``sqrt`` at 0      -> derivative 0 (stabilising convention)
  * ``abs`` at 0       -> derivative 0
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
def _record(enabled: bool):
    prev = _recording()
    _STATE.recording = enabled
    try:
        yield
    finally:
        _STATE.recording = prev


def no_record():
    """Disable graph recording in the enclosed block (attack update steps etc.)."""
    return _record(False)


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
    """Dense float64 tensor with an optional graph node and no gradient slot."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
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

    def __getitem__(self, key):
        return tslice(self, key)


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
        "add", "sub", "mul", "matmul", "tanh", "sigmoid",
        "sum", "mean", "sqrt", "pow",
        "expand", "reshape", "transpose",
    }
)


def records(parents) -> bool:
    """Whether an op over ``parents`` is recorded: recording is on and one requires grad."""
    return _recording() and any(p.requires_grad for p in parents)


def custom_op(kind: str, out_data, parents, vjp) -> Tensor:
    """Wrap a computed forward value; if ``records(parents)``, give it a node.

    Every op, here or in another module, builds its output this way.  ``vjp``
    takes ``(g, need)`` for several parents, ``(g)`` for one, and returns a
    gradient Tensor (or None where ``need`` is False) per parent.  A forward
    that keeps arrays for its vjp asks ``records(parents)`` first.
    """
    out = Tensor(out_data)
    if records(parents):
        out.requires_grad = True
        out.node = Node(kind, tuple(parents), vjp, kind in _SECOND_ORDER_KINDS)
    return out


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
    """Sum a gradient down to a broadcast operand's shape: g's trailing axes, or ()."""
    while g.ndim > len(shape):
        g = tsum(g, axis=0)
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

    return custom_op("add", a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("sub", a, b)

    def vjp(g, need):
        return (_reduce_to(g, a.shape) if need[0] else None,
                _reduce_to(mul(g, -1.0), b.shape) if need[1] else None)

    return custom_op("sub", a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("mul", a, b)

    def vjp(g, need):
        return (_reduce_to(mul(g, b), a.shape) if need[0] else None,
                _reduce_to(mul(g, a), b.shape) if need[1] else None)

    return custom_op("mul", a.data * b.data, (a, b), vjp)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0.0):
        raise DomainError(f"pow: negative base with non-integer exponent {p}")

    def vjp(g):
        return (mul(g, mul(p, power(a, p - 1.0))),)

    return custom_op("pow", a.data ** p, (a,), vjp)


def texp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def vjp(g, _y=out_data):
        return (mul(g, Tensor(_y)),)

    return custom_op("exp", out_data, (a,), vjp)


def tlog(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: argument must be strictly positive")

    def vjp(g):  # first-order only, so no graph for the vjp
        return (Tensor(g.data / a.data),)

    return custom_op("log", np.log(a.data), (a,), vjp)


def tsqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: negative argument")

    def vjp(g):
        # derivative 0 at exactly 0: shift those entries so pow stays finite,
        # then mask them out with a constant factor
        zero = out.data == 0.0
        safe = add(out, Tensor(np.where(zero, 1.0, 0.0)))
        return (mul(mul(g, Tensor(np.where(zero, 0.0, 0.5))), power(safe, -1.0)),)

    out = custom_op("sqrt", np.sqrt(a.data), (a,), vjp)  # the vjp reads out, bound here
    return out


def tabs(a) -> Tensor:
    a = as_tensor(a)
    s = np.sign(a.data)

    def vjp(g):
        return (mul(g, Tensor(s)),)

    return custom_op("abs", np.abs(a.data), (a,), vjp)


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

    return custom_op("clamp", out_data, (a,), vjp)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = (a.data > 0.0).astype(np.float64)

    def vjp(g):
        return (mul(g, Tensor(mask)),)

    return custom_op("relu", a.data * mask, (a,), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (mul(g, sub(1.0, mul(out, out))),)

    out = custom_op("tanh", np.tanh(a.data), (a,), vjp)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (mul(g, mul(out, sub(1.0, out))),)

    out = custom_op("sigmoid", 1.0 / (1.0 + np.exp(-a.data)), (a,), vjp)
    return out


# ---------------------------------------------------------------------------
# reductions and shape plumbing
# ---------------------------------------------------------------------------

def tsum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def vjp(g):
        return (expand(g, shape, axis),)

    return custom_op("sum", np.sum(a.data, axis=axis), (a,), vjp)


def tmean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    n = a.size if axis is None else shape[axis]
    if n == 0:
        raise ShapeError("mean: empty tensor")

    def vjp(g):
        return (mul(expand(g, shape, axis), 1.0 / n),)

    return custom_op("mean", np.mean(a.data, axis=axis), (a,), vjp)


def expand(a, shape: tuple[int, ...], axis: int | None = None) -> Tensor:
    """Adjoint of ``sum``: replicate a reduced tensor back to ``shape``."""
    a = as_tensor(a)
    if axis is None:
        out_data = np.broadcast_to(a.data, shape).copy()
    else:
        out_data = np.broadcast_to(np.expand_dims(a.data, axis), shape).copy()

    def vjp(g):
        return (tsum(g, axis),)

    return custom_op("expand", out_data, (a,), vjp)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    old = a.shape

    def vjp(g):
        return (reshape(g, old),)

    try:
        out_data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from exc
    return custom_op("reshape", out_data, (a,), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.shape}")

    def vjp(g):
        return (transpose(g),)

    return custom_op("transpose", a.data.T.copy(), (a,), vjp)


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

    return custom_op("slice", np.array(out_data, dtype=np.float64), (a,), vjp)


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
    return custom_op("concat", out_data, tuple(tensors), vjp)


# ---------------------------------------------------------------------------
# sliding windows
# ---------------------------------------------------------------------------

def window_view(a: np.ndarray, size: int, axis: int = 0) -> np.ndarray:
    """Read-only view of every window of ``size`` taps along ``axis``: (..., n, size, ...)."""
    view = np.lib.stride_tricks.sliding_window_view(a, size, axis=axis)
    return np.moveaxis(view, -1, axis + 1)


def overlap_add(w: np.ndarray, length: int, axis: int = 0) -> np.ndarray:
    """Adjoint of ``window_view``: add tap k of window i back at i + k along ``axis``."""
    n = w.shape[axis]
    out = np.zeros(w.shape[:axis] + (length,) + w.shape[axis + 2:])
    # views with the window and tap axes first, so the adds land in out
    out_t, w_t = np.moveaxis(out, axis, 0), np.moveaxis(w, (axis, axis + 1), (0, 1))
    # highest tap first, so every row sums its windows in window order
    for k in reversed(range(w.shape[axis + 1])):
        out_t[k:k + n] += w_t[:, k]
    return out


def cumsum(x) -> Tensor:
    """Running sum along the last axis: c_t = x_0 + ... + x_t."""
    x = as_tensor(x)
    if x.ndim < 1:
        raise ShapeError("cumsum: expected at least 1-D, got a scalar")

    def vjp(g):
        # x_t feeds every c_s with s >= t: the running sum taken from the end
        return (Tensor(np.cumsum(g.data[..., ::-1], axis=-1)[..., ::-1]),)

    return custom_op("cumsum", np.cumsum(x.data, axis=-1), (x,), vjp)


# ---------------------------------------------------------------------------
# causal convolution and first-max pooling kernels
# ---------------------------------------------------------------------------

def tap_shifts(K: int, dilation: int, B: int, L: int) -> list[tuple[int, int]]:
    """(k, s) for each tap k of a causal kernel over L time-major rows of B series:
    row t*B + b holds step t of series b, so tap k, (K-1-k)*dilation steps back, is
    the row block shifted by s rows.  A tap L or more steps back reads only the
    zero history and is left out."""
    return [(k, (K - 1 - k) * dilation * B) for k in range(K) if (K - 1 - k) * dilation < L]


# Rows per block of the causal conv kernels.  A tap's product over one block
# (512 rows of 128 channels are 0.5 MiB) is added into the output while it is
# still in L2; one product over all n rows writes an (n, C_out) temporary and
# adds it back, two more passes over megabytes per tap.  The cuts fall at
# multiples of CONV_ROWS of each tap's own product, as numpy and OpenBLAS
# round a row by its place in a product (see row_blocks), so the outputs stay
# bit-identical to one product per tap; near-equal blocks that follow n do not.
CONV_ROWS = 512


def row_blocks(m: int, size: int) -> list[tuple[int, int]]:
    """[start, stop) blocks of m rows that start at multiples of ``size``.  A last
    block of one row joins the one before it: a lone row rounds unlike the same
    row inside a bigger product, as numpy takes a one-row product through a dot
    and OpenBLAS's matrix-vector kernel sums the last rows of a call apart."""
    stops = list(range(size, m - 1, size)) + [m]
    return list(zip([0] + stops[:-1], stops))


def _add_tap_products(out: np.ndarray, x: np.ndarray, mats: np.ndarray, taps, shift_out: bool):
    """For each tap (k, s) and row p < n - s, add x[p] @ mats[k] into out[p + s]
    (``shift_out``) or x[p + s] @ mats[k] into out[p]: block by block, with the
    taps in order inside each block, so each row still sums its taps in order."""
    n = x.shape[0]
    blocks = [row_blocks(n - s, CONV_ROWS) for _, s in taps]
    for j in range(max(map(len, blocks))):
        for (k, s), tap_blocks in zip(taps, blocks):
            if j < len(tap_blocks):
                p0, p1 = tap_blocks[j]
                if shift_out:
                    out[p0 + s:p1 + s] += x[p0:p1] @ mats[k]
                else:
                    out[p0:p1] += x[p0 + s:p1 + s] @ mats[k]


def causal_conv(h: np.ndarray, w: np.ndarray, b: np.ndarray, taps) -> np.ndarray:
    """Causal cross-correlation of time-major rows h (n, C_in) with w (C_out, C_in, K)
    at the ``tap_shifts`` taps, plus the bias b: (n, C_out).  One GEMM per tap and
    block of ``CONV_ROWS`` rows, added into the output in place, then b."""
    wt = np.ascontiguousarray(w.transpose(2, 1, 0))  # (K, C_in, C_out)
    z = np.zeros((h.shape[0], w.shape[0]))
    _add_tap_products(z, h, wt, taps, True)
    z += b
    return z


def causal_conv_vjp(gz: np.ndarray, h: np.ndarray, w: np.ndarray, taps, need):
    """The gradients of w, b and h of ``causal_conv(h, w, b, taps)`` for the output
    gradient gz (n, C_out), where ``need`` (three flags) asks for them; else None.
    The gradient of h runs in the forward's row blocks.  That of w sums over the
    rows, so it stays one GEMM per tap: blocks would change the order of its sum."""
    n = h.shape[0]
    gw = gh = None
    if need[0]:
        gw = np.zeros(w.shape)
        for k, s in taps:
            gw[:, :, k] = gz[s:].T @ h[:n - s]
    gb = gz.sum(axis=0) if need[1] else None
    if need[2]:
        wk = np.ascontiguousarray(w.transpose(2, 0, 1))  # (K, C_out, C_in)
        gh = np.zeros(h.shape)
        _add_tap_products(gh, gz, wk, taps, False)
    return gw, gb, gh


def pool_taps(win: np.ndarray, index: bool):
    """Max over the short last axis of ``win`` and, with ``index``, where its first
    maximum is; a loop over the taps beats ``np.max``/``np.argmax`` there."""
    best = win[..., 0]
    arg = np.zeros(best.shape, dtype=np.intp) if index else None
    for j in range(1, win.shape[-1]):
        tap = win[..., j]
        if index:
            arg += (tap > best) * (j - arg)  # strictly greater: a tie keeps the earlier tap
        best = np.maximum(best, tap)
    return best, arg


def pool_taps_vjp(g: np.ndarray, arg: np.ndarray, k: int) -> np.ndarray:
    """Adjoint of ``pool_taps`` over k taps: each window's gradient g goes to its
    first maximum, the subgradient convention of max pooling.  (..., k) out."""
    routed = np.zeros((arg.size, k))
    routed[np.arange(arg.size), arg.ravel()] = g.ravel()
    return routed.reshape(arg.shape + (k,))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """a @ b for a 2-D b; the leading axes of a (..., K) are all rows of the product."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")

    def vjp(g, need):
        gb = None
        if need[1]:
            rows, grows = (a, g) if a.ndim == 2 else (reshape(a, (-1, b.shape[0])),
                                                      reshape(g, (-1, b.shape[1])))
            gb = matmul(transpose(rows), grows)
        return (matmul(g, transpose(b)) if need[0] else None, gb)

    return custom_op("matmul", a.data @ b.data, (a, b), vjp)


def affine(x, w, b) -> Tensor:
    """Linear layer x @ w + b (recorded as matmul + add)."""
    return add(matmul(x, w), b)


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


def _run_backward(root: Tensor, create_graph: bool, sinks: list[Tensor]) -> dict[int, Tensor]:
    """d(root)/d(t) for each tensor t of ``sinks`` that root depends on, by id."""
    if root.data.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.shape}")
    if root.node is not None and root.node.freed:
        raise GraphError("backward called twice without re-running forward")

    order = _toposort(root)
    targets = {id(t) for t in sinks}
    matters = _matters_map(order, targets)

    grads: dict[int, Tensor] = {id(root): Tensor(np.ones(root.shape))}
    out: dict[int, Tensor] = {}

    for t in reversed(order):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if id(t) in targets:
            out[id(t)] = g
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


def gradients(root: Tensor, wrt: list[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Return d(root)/d(t) for each tensor in ``wrt``.

    ``wrt`` may hold interior tensors as well as leaves.  Only the products
    that reach a tensor in ``wrt`` are computed.  Without ``create_graph`` the
    swept nodes are consumed: a second sweep over them raises ``GraphError``.
    With it the returned tensors are graph-connected and can be differentiated
    again (second-order subset only).
    """
    found = _run_backward(root, create_graph, list(wrt))
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
    not decayed.  Each parameter's array is updated in place, so it must be
    one the model owns, as every constructor and checkpoint load makes it.
    """
    plist = list(params.values())
    for p, g in zip(plist, gradients(loss, plist)):
        if weight_decay and p.ndim > 1:
            p.data *= 1.0 - lr * weight_decay
        p.data -= lr * g.data
