"""Shared test oracles: finite differences, a corpus of random small graphs and
the median-path gradient of an attack iteration; and a checkpoint re-saved with
the config settings an older version wrote.

The oracles here deliberately avoid the library's backward pass so gradient
tests stay two-sided.
"""

import datetime as dt

import numpy as np

from slopestrike import autodiff as ad
from slopestrike.attacks import _loss_builder, _predict_path, eps_abs
from graph_ops import (channel_bias, conv1d, div, ema, fold, maxpool1d, price_features, sort_last,
                       unfold)
from slopestrike.dataio import business_days, load_checkpoint, save_checkpoint
from slopestrike.forecaster import NORM_EPS, NhitsConfig, NhitsModel, _interp_matrix


def resaved_with(path, dst, **fields):
    """The checkpoint at ``path`` saved again at ``dst`` with extra config fields."""
    arrays, arch = load_checkpoint(path)
    save_checkpoint(arrays, dst, {**arch, "config": {**arch["config"], **fields}})
    return dst


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
            y = div(y, ad.add(ad.tabs(ts[1]), 2.0))
            return ad.tsum(y)

        return [(6,), (6,)], f

    def log_sqrt(rng):
        def f(ts):
            pos = ad.add(ad.tabs(ts[0]), 0.5)
            return ad.tsum(ad.add(ad.tlog(pos), ad.tsqrt(pos)))

        return [(5,)], f

    def pooled(rng):
        def f(ts):
            p = maxpool1d(ts[0], 2)
            return ad.tsum(ad.sigmoid(p))

        return [(8,)], f

    def convnet(rng):
        w = rng.uniform(-1, 1, (2, 1, 3))

        def f(ts):
            x = ad.reshape(ts[0], (1, 1, 10))
            y = conv1d(x, ad.constant(w), dilation=2)
            return ad.tmean(leaky(y, 0.2))

        return [(10,)], f

    def sliced(rng):
        def f(ts):
            a = ts[0][2:7]
            b = ts[0][0:5]
            return ad.add(ad.tsum(ad.mul(a, b)), ad.tsum(ad.power(ts[0], 2.0)))

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
            windows = unfold(ts[0], 3)  # (5, 3, 2)
            return ad.tmean(ad.tanh(ad.mul(windows, ad.constant(w))))

        return [(7, 2)], f

    def folded(rng):
        w = rng.uniform(-1, 1, (4, 3))

        def f(ts):
            days = fold(ad.mul(ts[0], ad.constant(w)), 6)
            return ad.tsum(ad.sigmoid(days))

        return [(4, 3)], f

    def smoothed(rng):
        def f(ts):
            e = ema(ts[0], 0.4)
            return ad.tsum(ad.mul(e, e))

        return [(8,)], f

    def accumulated(rng):
        def f(ts):
            c = ad.cumsum(ts[0])
            return ad.tsum(ad.texp(ad.mul(c, 0.2)))

        return [(7,)], f

    def unfolded_rows(rng):
        w = rng.uniform(-1, 1, (5,))

        def f(ts):
            windows = unfold(ts[0], 5, 1)  # (2, 3, 5)
            return ad.tmean(ad.tanh(ad.mul(windows, ad.constant(w))))

        return [(2, 7)], f

    def folded_rows(rng):
        w = rng.uniform(-1, 1, (2, 4, 3))

        def f(ts):
            days = fold(ad.mul(ts[0], ad.constant(w)), 6, 1)  # (2, 6)
            return ad.tsum(ad.sigmoid(days))

        return [(2, 4, 3)], f

    def smoothed_rows(rng):
        def f(ts):
            e = ema(ts[0], 0.4)  # along the last axis of each row
            return ad.tsum(ad.mul(e, e))

        return [(2, 7)], f

    def accumulated_rows(rng):
        w = rng.uniform(-1, 1, (2, 7))

        def f(ts):
            c = ad.cumsum(ts[0])
            return ad.tsum(ad.texp(ad.mul(c, ad.constant(w))))

        return [(2, 7)], f

    def batched_matmul(rng):
        def f(ts):
            y = ad.matmul(ts[0], ts[1])  # (2, 3, 4) @ (4, 2): leading axes are rows
            return ad.tmean(ad.tanh(y))

        return [(2, 3, 4), (4, 2)], f

    def nhits_stacks(rng):
        # a tiny forecaster: its windows, first stack inputs (the pooled columns
        # included, which the op overwrites) and all 18 parameters are inputs
        model = NhitsModel(NhitsConfig(encoder_length=8, horizon=4, hidden_size=4,
                                       quantiles=(0.1, 0.5, 0.9)))
        names = list(model.params)
        w = rng.uniform(-1, 1, (2, 12))

        def f(ts):
            model.params = dict(zip(names, ts[2:]))
            return ad.tmean(ad.tanh(ad.mul(model.stacks(ts[0], ts[1]), ad.constant(w))))

        cfg = model.config
        return ([(2, 8), (2, cfg.pooled_dim + cfg.exo_dim)]
                + [model.params[n].shape for n in names], f)

    def nhits_forecast(rng):
        # the same forecaster's forecast op: two 22-day series (three windows
        # each) and all 18 parameters are inputs; exp keeps the prices positive
        model = NhitsModel(NhitsConfig(encoder_length=8, horizon=4, hidden_size=4,
                                       quantiles=(0.1, 0.5, 0.9)))
        names = list(model.params)
        dates = business_days(dt.date(2021, 3, 1), 22)
        w = rng.uniform(-1, 1, (2, 6))  # each series' median path covers 6 days

        def f(ts):
            model.params = dict(zip(names, ts[1:]))
            path = model.core(ad.texp(ad.mul(ts[0], 0.3)), dates, 3)
            return ad.tmean(ad.tanh(ad.mul(path, ad.constant(w))))

        return [(2, 22)] + [model.params[n].shape for n in names], f

    def nhits_forecast_ends(rng):
        # the op's ends mode, each path's first and last day alone, with the
        # prices as the only inputs: the weights are random constants, so the
        # stacks, the window normalisation and the fold all carry a gradient
        model = NhitsModel(NhitsConfig(encoder_length=8, horizon=4, hidden_size=4,
                                       quantiles=(0.1, 0.5, 0.9)))
        for p in model.params.values():
            p.data = rng.uniform(-1, 1, p.shape)
        dates = business_days(dt.date(2021, 3, 1), 22)
        w = rng.uniform(-1, 1, (2, 2))

        def f(ts):
            ends = model.core(ad.texp(ad.mul(ts[0], 0.3)), dates, 3, ends=True)
            return ad.tmean(ad.tanh(ad.mul(ends, ad.constant(w))))

        return [(2, 22)], f

    def price_features_case(rng):
        # the features op on two 22-day series; exp keeps the prices positive
        w = rng.uniform(-1, 1, (2, 22, 12))

        def f(ts):
            cont = price_features(ad.texp(ad.mul(ts[0], 0.3)))
            return ad.tmean(ad.tanh(ad.mul(cont, ad.constant(w))))

        return [(2, 22)], f

    return [mlp, elementwise_chain, log_sqrt, pooled, convnet, sliced,
            pooled_matmul, clamped, unfolded, folded, smoothed, accumulated,
            unfolded_rows, folded_rows, smoothed_rows, accumulated_rows, batched_matmul,
            nhits_stacks, nhits_forecast, price_features_case, nhits_forecast_ends]


def random_graph_cases(n, seed=20240501):
    """Yield (forward_fn, input_arrays) pairs, kink-safe for finite differences.

    Case i draws from its own generator, seeded (seed, i), so a builder that
    draws more or fewer numbers moves no other case's inputs.
    """
    builders = _builders()
    cases = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
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
    return [g.data for g in ad.gradients(f(ts), ts)]


def leaky(h, slope):
    """Leaky ReLU from primitive ops: relu(h) - slope * relu(-h)."""
    return ad.sub(ad.relu(h), ad.mul(ad.relu(ad.mul(h, -1.0)), slope))


def tcn_generator_reference(gen, z, cond):
    """``TcnGenerator.forward`` built from primitive ops: conv1d, channel_bias, leaky.

    The (B, L) noise and condition become the two channels of a (B, 2, L) input.
    """
    cfg = gen.config
    h = ad.constant(np.stack([z, cond], axis=1))
    for i, dil in enumerate(cfg.gen_dilations):
        h = conv1d(h, gen.params[f"tcn{i}.w"], dilation=dil)
        h = leaky(channel_bias(h, gen.params[f"tcn{i}.b"]), cfg.leaky_slope)
    h = channel_bias(conv1d(h, gen.params["head.w"]), gen.params["head.b"])
    return ad.reshape(h, (h.shape[0], cfg.interval_length))


def discriminator_reference(clf, batch, dropout_rng):
    """``Discriminator.logits`` with dropout, built from primitive ops as the
    discriminator recorded it before its op: per block conv1d, channel_bias,
    relu, maxpool1d and a dropout mul, then a reshape and the affine head."""
    B, T = batch.shape
    keep = 1.0 - clf.config.dropout
    h = ad.reshape(ad.constant(batch), (B, 1, T))
    for i in range(3):
        h = conv1d(h, clf.params[f"conv{i}.w"])
        h = maxpool1d(ad.relu(channel_bias(h, clf.params[f"conv{i}.b"])), 2)
        h = ad.mul(h, ad.constant((dropout_rng.random(h.shape) < keep) / keep))
    h = ad.reshape(h, (B, h.shape[1] * h.shape[2]))
    return ad.affine(h, clf.params["head.w"], clf.params["head.b"])


def nhits_stacks_reference(model, x, first):
    """``NhitsModel.stacks`` built from primitive ops: the per-block graph loop.
    The pooled prices are concatenated in front of ``first``'s exogenous
    columns, so its first ``pooled_dim`` columns get a zero gradient.

    Returns the summed forecast (N, H*Q), each block's (backcast, forecast) and
    the final residual, all as graph-connected tensors.
    """
    cfg = model.config
    E = cfg.encoder_length
    residual, fore = x, None
    blocks = []
    for i, (k, r) in enumerate(zip(cfg.pool_kernels, cfg.downsample_ratios)):
        eb_knots, hf_knots = E // r, cfg.horizon // r
        ib = ad.constant(_interp_matrix(eb_knots, E).T)
        iff = ad.constant(np.kron(_interp_matrix(hf_knots, cfg.horizon),
                                  np.eye(cfg.n_quantiles)).T)
        p = {name: model.params[f"b{i}.{name}"] for name in ("w1", "b1", "w2", "b2", "w3", "b3")}
        pooled = maxpool1d(residual, k) if k > 1 else residual
        if i == 0:
            pooled = ad.concat([pooled, first[:, cfg.pooled_dim:]], axis=1)
        h = ad.relu(ad.affine(pooled, p["w1"], p["b1"]))
        h = ad.relu(ad.affine(h, p["w2"], p["b2"]))
        theta = ad.affine(h, p["w3"], p["b3"])
        backcast = ad.matmul(theta[:, :eb_knots], ib)
        forecast = ad.matmul(theta[:, eb_knots:], iff)
        residual = ad.sub(residual, backcast)
        fore = forecast if fore is None else ad.add(fore, forecast)
        blocks.append((backcast, forecast))
    return fore, blocks, residual


def nhits_forecast_reference(model, cont, dates, n_windows):
    """The forecasts of ``NhitsModel.core`` built from primitive ops on the
    continuous features ``cont`` (..., T, 12) of prices on ``dates``, as the
    forecaster recorded them before the forecast op: the exo standardisation,
    the window views, the window normalisation, the stacks op and the
    denormalisation, (rows, horizon*n_quantiles).  ``rolling_median_reference``
    takes them on to the median path."""
    cfg = model.config
    E = cfg.encoder_length
    span = n_windows + E - 1
    days = cont.ndim - 2
    one_hot = np.eye(5)[[d.weekday() for d in dates]]

    def standardise(a, axis):
        mean = ad.tmean(a, axis=axis)
        diff = ad.sub(a, ad.expand(mean, a.shape, axis))
        denom = ad.add(ad.tsqrt(ad.tmean(ad.mul(diff, diff), axis=axis)), NORM_EPS)
        return div(diff, ad.expand(denom, a.shape, axis)), mean, denom

    adj_w = ad.reshape(unfold(cont[..., :span, 0], E, days), (-1, E))
    z = standardise(cont, -2)[0]
    exo_days = ad.concat([z, ad.constant(np.broadcast_to(one_hot, cont.shape[:-1] + (5,)))],
                         axis=-1)[..., :span, :]
    exo = ad.reshape(unfold(exo_days, E, days), (-1, cfg.exo_dim))
    x, wmean, denom = standardise(adj_w, 1)
    fore = model.stacks(x, ad.concat([ad.constant(np.zeros((exo.shape[0], cfg.pooled_dim))),
                                      exo], axis=1))
    shape = fore.shape
    return ad.add(ad.mul(fore, ad.expand(denom, shape, 1)), ad.expand(wmean, shape, 1))


def price_features_reference(adjprc):
    """The ``price_features`` op built from primitive ops, as the package
    recorded the features before that op: zero padding, ``unfold @ last_w``
    window sums, raw-moment stds on recentred prices, the log return, ``roc_5``
    and the EMAs."""
    T = adjprc.shape[-1]
    lead, days = adjprc.shape[:-1], adjprc.ndim - 1
    last_w = ad.constant(np.array([[k >= 20 - w for w in (5, 10, 20)] for k in range(20)],
                                  dtype=float))
    counts = ad.constant(np.minimum(np.arange(1.0, T + 1.0)[:, None], (5, 10, 20)))

    def zeros(n):
        return ad.constant(np.zeros(lead + (n,)))

    def channel(c):
        return ad.reshape(c, lead + (T, 1))

    def rolling_means(padded):
        return div(ad.matmul(unfold(padded, 20, days), last_w), counts)

    padded = ad.concat([zeros(19), adjprc], axis=days)
    cols = [channel(adjprc), rolling_means(padded)]
    real_days = np.concatenate([np.zeros(19), np.ones(T)])
    y = ad.sub(padded, ad.constant(np.mean(adjprc.data, axis=-1, keepdims=True) * real_days))
    m1 = rolling_means(y)
    m2 = rolling_means(ad.mul(y, y))
    cols.append(ad.tsqrt(ad.clamp(ad.sub(m2, ad.mul(m1, m1)), lo=0.0)))
    logp = ad.tlog(adjprc)
    cols.append(channel(ad.concat([zeros(1), ad.sub(logp[..., 1:], logp[..., :-1])], axis=days)))
    roc = div(ad.sub(adjprc[..., 5:], adjprc[..., :-5]), adjprc[..., :-5])
    cols.append(channel(ad.concat([zeros(5), roc], axis=days)))
    for w in (5, 10, 20):
        cols.append(channel(ema(adjprc, 2.0 / (w + 1.0))))
    return ad.concat(cols, axis=days + 1)


def rolling_median_reference(out, cfg, lead=()):
    """The end of ``NhitsModel.core`` built from primitive ops: sort, median pick
    and overlap average of the forecasts ``out`` of each series of the batch
    shape ``lead``."""
    q = sort_last(ad.reshape(out, lead + (-1, cfg.horizon, cfg.n_quantiles)))
    med = q[..., cfg.median_index]
    days = len(lead)
    n_days = med.shape[days] + cfg.horizon - 1
    return div(fold(med, n_days, days), fold(ad.constant(np.ones(med.shape)), n_days, days))


def attack_path_gradient(model, cfg, window, prices):
    """d(loss)/d(median path) of one ``cfg`` attack iteration at ``prices``.

    Builds the graph an iteration of the attack loop builds on ``window``: a
    prices leaf, the rolling median path and the method's objective.
    """
    x = ad.Tensor(prices, requires_grad=True)
    path = _predict_path(model, x, window.dates)
    loss_fn = _loss_builder(cfg, window, eps_abs(window, cfg.eps_pct),
                            model.config.encoder_length)
    loss, _ = loss_fn(path)
    return ad.gradients(loss, [path])[0].data
