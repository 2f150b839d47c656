"""Graph ops that only the test oracles build: ``div``, ``unfold``, ``fold``, ``ema``,
``sort_last``.

The package's commands never record these, so they live beside the oracles
that use them (the random-graph corpus and the primitive references in
``helpers.py``).  Each records through ``autodiff.custom_op`` under its own
name as kind; none is in the second-order subset, so ``create_graph`` through
one raises ``SecondOrderError``.
"""

import numpy as np

from slopestrike import autodiff as ad
from slopestrike.features import _decay_scan, _ema_adjoint


def div(a, b):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    ad._check_elementwise("div", a, b)
    if np.any(b.data == 0.0):
        raise ad.DomainError("div: division by zero")

    def vjp(g, need):
        ga = ad._reduce_to(div(g, b), a.shape) if need[0] else None
        gb = (ad._reduce_to(ad.mul(ad.mul(g, -1.0), div(a, ad.mul(b, b))), b.shape)
              if need[1] else None)
        return (ga, gb)

    return ad.custom_op("div", a.data / b.data, (a, b), vjp)


def unfold(x, size: int, axis: int = 0):
    """Every window of ``size`` consecutive steps along ``axis``.

    (T, ...) -> (T-size+1, size, ...) for axis 0; a leading batch axis, as in
    (B, T, ...) with axis 1, is carried through: (B, T-size+1, size, ...).
    The data is a read-only strided view of ``x``'s, not a copy.
    """
    x = ad.as_tensor(x)
    T = x.shape[axis] if 0 <= axis < x.ndim else 0
    if not 1 <= size <= T:
        raise ad.ShapeError(f"unfold: window {size} does not fit axis {axis} of {x.shape}")

    def vjp(g):
        return (fold(g, T, axis),)

    return ad.custom_op("unfold", ad.window_view(x.data, size, axis=axis), (x,), vjp)


def fold(w, length: int, axis: int = 0):
    """Adjoint of ``unfold``: overlap-add windows (length-size+1, size) at ``axis`` to length."""
    w = ad.as_tensor(w)
    if (axis < 0 or w.ndim < axis + 2
            or w.shape[axis] != length - w.shape[axis + 1] + 1):
        raise ad.ShapeError(f"fold: windows {w.shape} do not tile length {length} at axis {axis}")
    size = w.shape[axis + 1]

    def vjp(g):
        return (unfold(g, size, axis),)

    return ad.custom_op("fold", ad.overlap_add(w.data, length, axis=axis), (w,), vjp)


def ema(x, beta: float):
    """Exponential moving average along the last axis: e_0 = x_0, e_t = beta x_t + (1-beta) e_{t-1}."""
    x = ad.as_tensor(x)
    if x.ndim < 1:
        raise ad.ShapeError("ema: expected at least 1-D, got a scalar")

    def vjp(g):
        return (ad.Tensor(_ema_adjoint(g.data, beta)),)

    return ad.custom_op("ema", _decay_scan(x.data, beta, 1.0 - beta), (x,), vjp)


def sort_last(a):
    """Sort along the last axis; gradients route back through the permutation."""
    a = ad.as_tensor(a)
    order = np.argsort(a.data, axis=-1, kind="stable")

    def vjp(g):
        buf = np.empty(a.shape)
        np.put_along_axis(buf, order, g.data, axis=-1)
        return (ad.Tensor(buf),)

    return ad.custom_op("sort", np.take_along_axis(a.data, order, axis=-1), (a,), vjp)
