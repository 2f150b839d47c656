"""Graph ops that only the test oracles build: ``div``, ``unfold``, ``fold``, ``ema``,
``sort_last``, ``conv1d``, ``channel_bias``, ``maxpool1d`` and ``price_features``.

The package's commands never record these, so they live beside the oracles
that use them (the random-graph corpus and the primitive references in
``helpers.py``).  Each records through ``autodiff.custom_op`` under its own
name as kind (``channel_bias`` is ``add`` over an ``expand``); none of the
others is in the second-order subset, so ``create_graph`` through one raises
``SecondOrderError``.  ``maxpool1d`` routes the gradient to the first
(lowest-index) maximum of each window, as ``autodiff.pool_taps_vjp`` does.
``price_features`` records the features kernels as their own node, as the
package did before the forecast op took the prices.
"""

import numpy as np

from slopestrike import autodiff as ad
from slopestrike import features
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


def channel_bias(x, b):
    """Add a per-channel bias (C,) to a channels-first (B, C, T) tensor."""
    x, b = ad.as_tensor(x), ad.as_tensor(b)
    if x.ndim != 3:
        raise ad.ShapeError(f"channel_bias: expected 3-D input, got {x.shape}")
    # (C, T) suffices: add broadcasts it over the batch, _reduce_to sums it back
    return ad.add(x, ad.expand(b, x.shape[1:], 1))


def conv1d(x, w, dilation: int = 1):
    """Causal 1-D convolution (cross-correlation), channels-first.

    x: (B, C_in, T); w: (C_out, C_in, K).  The input is left-padded with
    (K-1)*dilation zeros, so the output keeps length T.  First-order only.
    """
    x, w = ad.as_tensor(x), ad.as_tensor(w)
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ad.ShapeError(f"conv1d: incompatible shapes {x.shape} and {w.shape}")
    B, Cin, T = x.shape
    Cout, _, K = w.shape
    pad = (K - 1) * dilation
    # time-major, so window_view takes the windows along axis 0; a dilated tap
    # is every dilation-th tap of an undilated window of span pad + 1
    xp = np.pad(np.moveaxis(x.data, 2, 0), ((pad, 0), (0, 0), (0, 0)))  # (T+pad, B, Cin)
    taps = ad.window_view(xp, pad + 1)[:, ::dilation]  # (T, K, B, Cin)
    # contract via BLAS: (B*T, Cin*K) @ (Cin*K, Cout)
    pmat = taps.transpose(2, 0, 3, 1).reshape(B * T, Cin * K)
    wmat = w.data.reshape(Cout, Cin * K).T
    out_data = (pmat @ wmat).reshape(B, T, Cout).transpose(0, 2, 1)

    def vjp(g, need):
        gmat = g.data.transpose(0, 2, 1).reshape(B * T, Cout)
        gx = gw = None
        if need[0]:
            gtaps = np.zeros((T, pad + 1, B, Cin))  # the taps between the dilated ones get 0
            gtaps[:, ::dilation] = (gmat @ wmat.T).reshape(B, T, Cin, K).transpose(1, 3, 0, 2)
            gx = ad.Tensor(np.moveaxis(ad.overlap_add(gtaps, T + pad)[pad:], 0, 2))
        if need[1]:
            gw = ad.Tensor((gmat.T @ pmat).reshape(Cout, Cin, K))
        return (gx, gw)

    return ad.custom_op("conv1d", out_data, (x, w), vjp)


def maxpool1d(x, kernel: int):
    """Max pooling over non-overlapping windows along the last axis.

    A trailing remainder shorter than the kernel is dropped.  Gradient goes to
    the first maximum inside each window.
    """
    x = ad.as_tensor(x)
    if kernel < 1:
        raise ad.ShapeError(f"maxpool1d: kernel {kernel} < 1")
    T = x.shape[-1]
    if T < kernel:
        raise ad.ShapeError(f"maxpool1d: length {T} shorter than kernel {kernel}")
    kept = T // kernel * kernel
    windows = x.data[..., :kept].reshape(x.shape[:-1] + (T // kernel, kernel))
    arg = np.argmax(windows, axis=-1)[..., None]  # first max
    out_data = np.take_along_axis(windows, arg, axis=-1)[..., 0]

    def vjp(g):
        routed = np.zeros(windows.shape)
        np.put_along_axis(routed, arg, g.data[..., None], axis=-1)
        buf = np.zeros(x.shape)
        buf[..., :kept] = routed.reshape(x.shape[:-1] + (kept,))
        return (ad.Tensor(buf),)

    return ad.custom_op("maxpool1d", out_data, (x,), vjp)


def price_features(adjprc):
    """The 12 continuous feature channels (..., T, 12) of prices (T,) or (B, T),
    one node of kind ``price_features`` whose only parent is the prices."""
    adjprc = ad.as_tensor(adjprc)
    out, saved = features.price_features(adjprc.data, ad.records((adjprc,)))

    def vjp(g):
        return (ad.Tensor(features.price_features_vjp(g.data, saved)),)

    return ad.custom_op("price_features", out, (adjprc,), vjp)
