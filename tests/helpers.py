"""Shared test oracles: finite differences and a corpus of random small graphs.

The oracles here deliberately avoid the library's backward pass so gradient
tests stay two-sided.
"""

import numpy as np

from slopestrike import autodiff as ad


def finite_diff(fn, arrays, h=1e-5):
    """Central finite differences of a scalar fn(list_of_arrays) per input."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(arrays)
            flat[i] = orig - h
            fm = fn(arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def _builders():
    """Graph builders: each returns (input_shapes, forward(list_of_tensors))."""

    def mlp(rng):
        w1 = rng.uniform(-1, 1, (4, 5))
        b1 = rng.uniform(-1, 1, (5,))
        w2 = rng.uniform(-1, 1, (5, 3))

        def f(ts):
            h = ad.tanh(ad.affine(ts[0], ad.constant(w1), ad.constant(b1)))
            return ad.tmean(ad.matmul(h, ad.constant(w2)))

        return [(2, 4)], f

    def elementwise_chain(rng):
        def f(ts):
            y = ad.mul(ts[0], ts[1])
            y = ad.add(y, ad.texp(ad.mul(ts[0], 0.3)))
            y = ad.div(y, ad.add(ad.tabs(ts[1]), 2.0))
            return ad.tsum(y)

        return [(6,), (6,)], f

    def log_sqrt(rng):
        def f(ts):
            pos = ad.add(ad.tabs(ts[0]), 0.5)
            return ad.tsum(ad.add(ad.tlog(pos), ad.tsqrt(pos)))

        return [(5,)], f

    def pooled(rng):
        def f(ts):
            p = ad.maxpool1d(ts[0], 2)
            return ad.tsum(ad.sigmoid(p))

        return [(8,)], f

    def convnet(rng):
        w = rng.uniform(-1, 1, (2, 1, 3))

        def f(ts):
            x = ad.reshape(ts[0], (1, 10))
            y = ad.conv1d(x, ad.constant(w), dilation=2)
            return ad.tmean(ad.leaky_relu(y, 0.2))

        return [(10,)], f

    def sliced(rng):
        def f(ts):
            a = ts[0][2:7]
            b = ts[0][0:5]
            return ad.tsum(ad.mul(a, b)) + ad.tsum(ad.power(ts[0], 2.0))

        return [(9,)], f

    def pooled_matmul(rng):
        w = rng.uniform(-1, 1, (3, 4))

        def f(ts):
            y = ad.matmul(ts[0], ad.constant(w))
            y = ad.concat([y, ad.mul(y, 0.5)], axis=1)
            return ad.tmean(ad.tanh(y))

        return [(2, 3)], f

    def clamped(rng):
        def f(ts):
            y = ad.clamp(ts[0], -0.8, 0.8)
            return ad.tsum(ad.mul(y, y))

        return [(7,)], f

    def unfolded(rng):
        w = rng.uniform(-1, 1, (3, 2))

        def f(ts):
            windows = ad.unfold(ts[0], 3)  # (5, 3, 2)
            return ad.tmean(ad.tanh(ad.mul(windows, ad.constant(w))))

        return [(7, 2)], f

    def folded(rng):
        w = rng.uniform(-1, 1, (4, 3))

        def f(ts):
            days = ad.fold(ad.mul(ts[0], ad.constant(w)), 6)
            return ad.tsum(ad.sigmoid(days))

        return [(4, 3)], f

    def smoothed(rng):
        def f(ts):
            e = ad.ema(ts[0], 0.4)
            return ad.tsum(ad.mul(e, e))

        return [(8,)], f

    def accumulated(rng):
        def f(ts):
            c = ad.cumsum(ts[0])
            return ad.tsum(ad.texp(ad.mul(c, 0.2)))

        return [(7,)], f

    return [mlp, elementwise_chain, log_sqrt, pooled, convnet, sliced,
            pooled_matmul, clamped, unfolded, folded, smoothed, accumulated]


def random_graph_cases(n, seed=20240501):
    """Yield (forward_fn, input_arrays) pairs, kink-safe for finite differences."""
    rng = np.random.default_rng(seed)
    builders = _builders()
    cases = []
    for i in range(n):
        shapes, f = builders[i % len(builders)](rng)
        arrays = []
        for shp in shapes:
            a = rng.uniform(-1.5, 1.5, shp)
            # keep every coordinate away from activation/clamp kinks so the
            # finite-difference stencil stays one-sided
            a = np.where(np.abs(a) < 5e-3, a + 0.05, a)
            a = np.where(np.abs(np.abs(a) - 0.8) < 5e-3, a + 0.02, a)
            arrays.append(a)
        cases.append((f, arrays))
    return cases


def eval_scalar(f, arrays):
    return f([ad.constant(a) for a in arrays]).item()


def graph_gradients(f, arrays):
    ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    root = f(ts)
    ad.backward(root)
    return [t.grad for t in ts]
