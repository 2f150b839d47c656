import contextlib
import datetime as dt
import tracemalloc

import numpy as np
import pytest

from slopestrike import autodiff as ad
from slopestrike import dataio, features, forecaster
from slopestrike.attacks import AttackConfig, run_attack
from slopestrike.forecaster import (
    ROW_BLOCK, EarlyStopper, NhitsConfig, NhitsModel, _assemble_batch, _batch_loss, _exo_days,
    _first_inputs, _interp_matrix, _mean_loss, _pinball, _series_days, rolling_forecast,
    standardise, train,
)
from graph_ops import price_features, sort_last
from helpers import (finite_diff, max_rel_err, nhits_forecast_reference, nhits_stacks_reference,
                     resaved_with, rolling_median_reference)


def _prices(prices, start=dt.date(2021, 3, 1), grad=False):
    """A prices tensor and its business days."""
    x = ad.Tensor(np.asarray(prices, dtype=float), requires_grad=grad)
    return x, dataio.business_days(start, len(prices))


def _val_loss(model, series):
    """Mean normalised pinball loss over every window of the given series."""
    prices, exo, (starts,) = _series_days(model, [series])
    return _mean_loss(model, starts, prices, exo)


def _window_forecasts(model, x, dates, n):
    """The unsorted (n, horizon, n_quantiles) forecasts of the first n windows,
    from the per-op graph that ``core``'s forecasts are bit-identical to."""
    with ad.no_record():
        out = nhits_forecast_reference(model, price_features(x), dates, n)
    return out.data.reshape(n, model.config.horizon, model.config.n_quantiles)


def test_zero_final_layers_forecast_equals_window_mean():
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=0)
    rng = np.random.default_rng(1)
    prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 100)))
    x, dates = _prices(prices)
    quantiles, median = _window_forecasts(model, x, dates, 1)[0], model.core(x, dates, 1)
    assert quantiles.shape == (20, 7) and median.shape == (20,)
    assert np.allclose(quantiles, prices.mean(), atol=1e-9)
    assert np.allclose(median.data, prices.mean(), atol=1e-9)


def test_degenerate_rates_interpolation_is_identity():
    assert np.array_equal(_interp_matrix(20, 20), np.eye(20))
    assert np.array_equal(_interp_matrix(1, 20), np.ones((20, 1)))
    cfg = NhitsConfig(n_stacks=1, pool_kernels=(1,), downsample_ratios=(1,))
    model = NhitsModel(cfg, seed=3)
    _randomise_heads(model, seed=3)
    rng = np.random.default_rng(2)
    prices = 40.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 100)))
    x, dates = _prices(prices)
    assert model.core(x, dates, 1).shape == (20,)
    assert _window_forecasts(model, x, dates, 1).shape == (1, 20, 7)


def _randomise_heads(model, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    for k, p in model.params.items():
        if k.endswith("w3") or k.endswith("b3"):
            p.data = rng.normal(0, scale, p.data.shape)


def test_quantile_axis_is_sorted_and_median_is_column_three():
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=5)
    _randomise_heads(model, seed=5, scale=0.3)
    rng = np.random.default_rng(6)
    prices = 90.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 100)))
    x, dates = _prices(prices)
    # the forecast quantiles are trained unsorted and cross here; core
    # reports the median of each day's sorted quantiles
    unsorted = _window_forecasts(model, x, dates, 1)[0]
    assert np.any(np.diff(unsorted, axis=1) < 0.0)
    qp = np.sort(unsorted, axis=1)
    assert cfg.median_index == 3
    assert not np.array_equal(unsorted[:, 3], qp[:, 3])
    assert np.array_equal(model.core(x, dates, 1).data, qp[:, 3])


def test_quantile_loss_perfect_prediction_zero():
    truth = np.repeat(np.linspace(10, 12, 20)[:, None], 7, axis=1)
    assert _pinball(ad.constant(truth), truth, np.asarray(NhitsConfig().quantiles)).item() == 0.0


def test_quantile_loss_median_is_half_l1():
    rng = np.random.default_rng(3)
    truth = rng.normal(100, 5, 20)
    pred = truth + rng.normal(0, 2, 20)
    expected = 0.5 * np.mean(np.abs(truth - pred))
    loss = _pinball(ad.constant(pred[:, None]), truth[:, None], np.array([0.5]))
    assert abs(loss.item() - expected) < 1e-15


def test_quantile_loss_one_sided_weights():
    q = np.array([0.99])
    # y - f = 1
    assert abs(_pinball(ad.constant([[0.0]]), np.ones((1, 1)), q).item() - 0.99) < 1e-15
    # f - y = 1
    assert abs(_pinball(ad.constant([[1.0]]), np.zeros((1, 1)), q).item() - 0.01) < 1e-15


def test_early_stopper_counter_contract():
    s = EarlyStopper(patience=15)
    assert not s.update(1.0)
    for i in range(14):
        assert not s.update(2.0 + i)  # worsening streak below patience
    assert s.update(99.0)  # 15th consecutive non-improving epoch halts
    s2 = EarlyStopper(patience=3)
    seq = [5.0, 4.0, 4.5, 4.6, 3.9, 4.2, 4.3, 4.4]
    stops = [s2.update(v) for v in seq]
    assert stops == [False] * 7 + [True]
    assert s2.best == 3.9


def test_backcast_residual_telescoping_single_block():
    cfg = NhitsConfig(n_stacks=1, pool_kernels=(2,), downsample_ratios=(2,))
    model = NhitsModel(cfg, seed=9)
    _randomise_heads(model, seed=9, scale=0.2)
    rng = np.random.default_rng(10)
    adj = 70.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (1, 100)), axis=1))
    exo = ad.constant(rng.normal(size=(1, cfg.pooled_dim + cfg.exo_dim)))
    x = standardise(adj, 1)[0]
    # the op returns no residual: read it from the reference graph, whose forecast the op's equals
    fore, blocks, residual = nhits_stacks_reference(model, ad.constant(x), exo)
    assert max_rel_err(model.stacks(ad.constant(x), exo).data, fore.data) < 1e-12
    # recompute x1 independently
    mean = adj.mean(axis=1, keepdims=True)
    std = np.sqrt(((adj - mean) ** 2).mean(axis=1, keepdims=True))
    x1 = (adj - mean) / (std + 1e-8)
    assert np.array_equal(residual.data, x1 - blocks[0][0].data)


def _random_stack_inputs(seed=21, n=6, ties=False):
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = rng.normal(0, 0.3, p.data.shape)
    x = rng.normal(size=(n, cfg.encoder_length))
    if ties:  # whole numbers: most pooling windows hold a tied maximum
        x = np.round(2.0 * x)
    exo = rng.normal(size=(n, cfg.exo_dim))
    weights = rng.normal(size=(n, cfg.horizon * cfg.n_quantiles))
    # the first stack's input: the op writes the pooled prices over the
    # leading columns, so what they hold must not matter
    first = np.concatenate([rng.normal(size=(n, cfg.pooled_dim)), exo], axis=1)
    return model, x, first, weights


def _stack_loss(fore, weights):
    return ad.tsum(ad.tanh(ad.mul(fore, ad.constant(weights))))


def _record_vjp_results(out):
    """Wrap the vjp of out's node; the returned list collects each result tuple."""
    results, vjp = [], out.node.vjp
    out.node.vjp = lambda g, need: results.append(vjp(g, need)) or results[-1]
    return results


# fixed ids: these cases keep the names (features, ties) earlier runs report
@pytest.mark.parametrize("ties", [False, True], ids=["True-False", "True-True"])
def test_stacks_op_matches_primitive_reference(ties):
    model, xa, ea, weights = _random_stack_inputs(ties=ties)
    runs = []
    for build in (model.stacks, lambda x, e: nhits_stacks_reference(model, x, e)[0]):
        x = ad.Tensor(xa.copy(), requires_grad=True)
        exo = ad.Tensor(ea.copy(), requires_grad=True)
        fore = build(x, exo)
        grads = ad.gradients(_stack_loss(fore, weights), [x, exo, *model.params.values()])
        runs.append([fore.data] + [g.data for g in grads])
    assert len(model.params) == 18 and len(runs[0]) == 21
    assert all(np.count_nonzero(g) for g in runs[0][1:3])
    for got, want in zip(*runs):
        assert max_rel_err(got, want) < 1e-12


def test_stacks_gradient_wrt_x_skips_weight_products():
    model, xa, ea, weights = _random_stack_inputs()
    x = ad.Tensor(xa.copy(), requires_grad=True)
    exo = ad.Tensor(ea.copy(), requires_grad=True)
    fore = model.stacks(x, exo)
    returned = _record_vjp_results(fore)
    gx = ad.gradient(_stack_loss(fore, weights), x)
    # exo is not asked for either, so only x's gradient comes back
    assert returned[0][0] is not None
    assert all(g is None for g in returned[0][1:])
    x2 = ad.Tensor(xa.copy(), requires_grad=True)
    exo2 = ad.Tensor(ea.copy(), requires_grad=True)
    root = _stack_loss(model.stacks(x2, exo2), weights)
    every = ad.gradients(root, [x2, exo2, *model.params.values()])
    assert np.array_equal(gx.data, every[0].data)


def test_stacks_training_pass_skips_input_products():
    # batches of 1 and 7 rows too: the weight products read the input's
    # transpose in place, and BLAS takes other kernels at those sizes
    for n in (6, 1, 7):
        model, xa, ea, weights = _random_stack_inputs(n=n)
        x = standardise(50.0 + xa, 1)[0]
        fore = model.stacks(ad.constant(x), ad.constant(ea.copy()))
        returned = _record_vjp_results(fore)
        got = ad.gradients(_stack_loss(fore, weights), list(model.params.values()))
        assert returned[0][0] is None and returned[0][1] is None
        assert all(g is not None for g in returned[0][2:])
        ref = nhits_stacks_reference(model, ad.constant(x), ad.constant(ea))[0]
        want = ad.gradients(_stack_loss(ref, weights), list(model.params.values()))
        for g, w in zip(got, want):
            assert max_rel_err(g.data, w.data) < 1e-12


def test_training_step_copies_no_block_input(monkeypatch):
    # the weight products read each block's input in place
    cfg = NhitsConfig(batch_size=16)
    model = NhitsModel(cfg, seed=2)
    series = dataio.synth_gbm(1, 160, 60.0, 3e-4, 0.01, seed=2)
    prices, exo, (starts,) = _series_days(model, [series])
    tc, copied = forecaster._tc, []
    monkeypatch.setattr(forecaster, "_tc", lambda a: copied.append(a.shape) or tc(a))
    ad.sgd_step(model.params, _batch_loss(model, starts[:16], prices, exo), cfg.lr,
                cfg.weight_decay)
    inputs = {(16, model.params[f"b{i}.w1"].shape[0]) for i in range(cfg.n_stacks)}
    assert copied and inputs == {(16, 1725), (16, 50), (16, 100)}
    assert not inputs & set(copied)


def _forecast_case(batch, seed=31):
    """A forecaster with random heads plus price leaves: one 300-day series or
    three 130-day ones."""
    model = NhitsModel(NhitsConfig(), seed=seed)
    _randomise_heads(model, seed=seed, scale=0.2)
    rng = np.random.default_rng(seed)
    shape = (3, 130) if batch else (300,)
    prices = 60.0 * np.exp(np.cumsum(rng.normal(0, 0.01, shape), axis=-1))
    return model, prices, dataio.business_days(dt.date(2021, 3, 1), shape[-1])


# fixed ids: these cases keep the names (batch, features) earlier runs report
@pytest.mark.parametrize("batch", [False, True], ids=["False-True", "True-True"])
def test_forecast_op_matches_primitive_reference(batch):
    # the per-op graph the forecast op replaced: equal values and gradients, bit for bit
    model, prices, dates = _forecast_case(batch)
    cfg = model.config
    n = prices.shape[-1] - cfg.min_series_length + 1
    weights = list(model.params.values())
    runs = []
    for reference in (False, True):
        x = ad.Tensor(prices.copy(), requires_grad=True)
        if reference:  # the features op, per-op forecast, sort, median pick and overlap average
            out = rolling_median_reference(nhits_forecast_reference(model, price_features(x),
                                                                    dates, n),
                                           cfg, prices.shape[:-1])
        else:  # the rolling path of one series, or of three through the op at once
            out = model.core(x, dates, n)
        w = np.random.default_rng(5).normal(size=out.shape)
        grads = ad.gradients(ad.tsum(ad.tanh(ad.mul(out, ad.constant(w * 0.01)))),
                             [x] + weights)
        runs.append([out.data] + [g.data for g in grads])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)
    assert np.count_nonzero(runs[0][1]) > prices.size // 2  # not trivially equal


def _check_op_gradients(f, arrays, tol=1e-5):
    ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    analytic = ad.gradients(f(ts), ts)
    fd = finite_diff(lambda arrs: f([ad.constant(a) for a in arrs]).item(),
                     [a.copy() for a in arrays])
    for a, b in zip(analytic, fd):
        assert max_rel_err(a.data, b, floor=1e-4) < tol


def test_forecast_op_finite_differences_every_parent():
    # the prices of two series and all 18 parameters at once, on a small
    # forecaster; exp keeps the prices positive
    cfg = NhitsConfig(encoder_length=8, horizon=4, hidden_size=5, quantiles=(0.1, 0.5, 0.9))
    model = NhitsModel(cfg, seed=2)
    rng = np.random.default_rng(3)
    names = list(model.params)
    arrays = [rng.normal(size=(2, 21))] + [rng.normal(0, 0.5, model.params[k].shape)
                                           for k in names]
    dates = dataio.business_days(dt.date(2021, 3, 1), 21)
    w = rng.normal(size=(2, 7))  # 4 windows of a 4-day horizon cover 7 days

    def f(ts):
        model.params = dict(zip(names, ts[1:]))
        path = model.core(ad.texp(ad.mul(ts[0], 0.3)), dates, 4)
        return ad.tsum(ad.tanh(ad.mul(path, ad.constant(w))))

    _check_op_gradients(f, arrays)
    # the batch axis comes first: each series' path is the one it gets alone
    model.params = {k: ad.Tensor(a, requires_grad=True) for k, a in zip(names, arrays[1:])}
    prices = np.exp(0.3 * arrays[0])
    paths = model.core(ad.constant(prices), dates, 4).data
    for i in range(2):
        assert np.array_equal(paths[i], model.core(ad.constant(prices[i]), dates, 4).data)


@pytest.mark.parametrize("days", [50, 30, 24], ids=["disjoint", "overlapping", "one-window"])
def test_end_days_forecast_finite_differences_every_parent(days):
    # the ends mode forecasts windows 0 and n - 1 alone: of a 50-day series'
    # 27 windows of 20 days those are disjoint, of a 30-day series' 7 they
    # overlap, and 24 days hold one window, which covers both end days
    cfg = NhitsConfig(encoder_length=20, horizon=4, hidden_size=3, quantiles=(0.1, 0.5, 0.9))
    model = NhitsModel(cfg, seed=2)
    rng = np.random.default_rng(days)
    names = list(model.params)
    arrays = [rng.normal(size=(2, days))] + [rng.normal(0, 0.5, model.params[k].shape)
                                             for k in names]
    dates = dataio.business_days(dt.date(2021, 3, 1), days)
    n = days - cfg.min_series_length + 1
    w = rng.normal(size=(2, 2))

    def f(ts):
        model.params = dict(zip(names, ts[1:]))
        ends = model.core(ad.texp(ad.mul(ts[0], 0.3)), dates, n, ends=True)
        return ad.tsum(ad.tanh(ad.mul(ends, ad.constant(w))))

    _check_op_gradients(f, arrays)
    # the two values are the whole path's first and last day
    model.params = {k: ad.Tensor(a, requires_grad=True) for k, a in zip(names, arrays[1:])}
    prices = ad.constant(np.exp(0.3 * arrays[0]))
    ends = model.core(prices, dates, n, ends=True).data
    assert ends.shape == (2, 2)
    full = model.core(prices, dates, n).data
    assert max_rel_err(ends, full[:, [0, -1]], floor=1e-300) < 1e-12


def test_rolling_median_op_finite_differences():
    # the median head of core over six overlapping windows: wide random heads
    # make the quantile sort permute, and the gradient flows to the prices
    # and to the head weights through the picked median and the overlap average
    cfg = NhitsConfig(encoder_length=8, horizon=4, hidden_size=5, quantiles=(0.1, 0.5, 0.9))
    model = NhitsModel(cfg, seed=4)
    _randomise_heads(model, seed=4, scale=1.0)
    rng = np.random.default_rng(4)
    heads = [k for k in model.params if k.endswith("w3") or k.endswith("b3")]
    head_arrays = [model.params[k].data.copy() for k in heads]
    dates = dataio.business_days(dt.date(2021, 3, 1), 21)
    w = rng.normal(size=9)  # 6 windows of a 4-day horizon cover 9 days

    def f(ts):
        model.params.update(zip(heads, ts[1:]))
        path = model.core(ad.texp(ad.mul(ts[0], 0.3)), dates, 6)
        return ad.tsum(ad.mul(path, ad.constant(w)))

    _check_op_gradients(f, [rng.normal(size=21)] + head_arrays)

    # a batch of two series: lead (2,) puts the windows on axis 1
    w2 = rng.normal(size=(2, 9))

    def f2(ts):
        model.params.update(zip(heads, ts[1:]))
        path = model.core(ad.texp(ad.mul(ts[0], 0.3)), dates, 6)
        return ad.tsum(ad.mul(path, ad.constant(w2)))

    batch = rng.normal(size=(2, 21))
    _check_op_gradients(f2, [batch] + head_arrays)
    model.params.update((k, ad.Tensor(a, requires_grad=True)) for k, a in zip(heads, head_arrays))
    prices = np.exp(0.3 * batch)
    paths = model.core(ad.constant(prices), dates, 6).data
    assert paths.shape == (2, 9)
    for i in range(2):
        assert np.array_equal(paths[i], model.core(ad.constant(prices[i]), dates, 6).data)


@pytest.mark.parametrize("shape", [(6, 100), (100,)], ids=["6-series", "1-series"])
def test_forward_equals_the_sorted_quantile_graph(shape):
    # one window per series, as the GAN forecasts, against the graph it
    # replaced: the features op, the per-op forecast, reshape, sort, median slice
    model = NhitsModel(NhitsConfig(), seed=41)
    _randomise_heads(model, seed=41, scale=0.3)
    cfg = model.config
    rng = np.random.default_rng(41)
    prices = 60.0 * np.exp(np.cumsum(rng.normal(0, 0.01, shape), axis=-1))
    dates = dataio.business_days(dt.date(2021, 3, 1), 100)
    w = rng.normal(0, 0.01, shape[:-1] + (cfg.horizon,))
    weights = list(model.params.values())
    runs = []
    for old in (False, True):
        x = ad.Tensor(prices.copy(), requires_grad=True)
        if old:
            out = nhits_forecast_reference(model, price_features(x), dates, 1)
            q = sort_last(ad.reshape(out, shape[:-1] + (cfg.horizon, cfg.n_quantiles)))
            med = q[..., cfg.median_index]
        else:
            med = model.core(x, dates, 1)
        assert med.shape == shape[:-1] + (cfg.horizon,)
        grads = ad.gradients(ad.tsum(ad.tanh(ad.mul(med, ad.constant(w)))), [x] + weights)
        runs.append([med.data] + [g.data for g in grads])
    assert len(runs[0]) == 20
    for got, want in zip(*runs):
        assert np.array_equal(got, want)
    assert np.count_nonzero(runs[0][1]) > prices.size // 2  # not trivially equal


def test_forecast_op_keeps_nothing_without_recording(monkeypatch):
    # a rolling path records one node, from the prices; without recording the
    # op keeps nothing for a vjp, of the features or of the forecast, and gives
    # the same path
    model = NhitsModel(NhitsConfig(), seed=6)
    _randomise_heads(model, seed=6, scale=0.3)
    x, dates = _prices(60.0 * np.exp(np.cumsum(np.random.default_rng(6).normal(0, 0.01, 140))),
                       grad=True)
    kept = []  # whether the features kernel, then the forecast block, saved anything
    price_kernel, block = features.price_features, model._forecast_block

    def kernel(p, keep):
        out, saved = price_kernel(p, keep)
        kept.append(saved is not None)
        return out, saved

    def forecast_block(*args):
        saved = block(*args)
        kept.append(saved is not None)
        return saved

    monkeypatch.setattr(features, "price_features", kernel)
    monkeypatch.setattr(model, "_forecast_block", forecast_block)
    recorded = model.core(x, dates, 21)
    assert kept == [True, True]
    with ad.no_record():
        plain = model.core(x, dates, 21)
    assert kept == [True, True, False, False]
    assert recorded.shape == (40,)
    assert recorded.node.kind == "nhits_forecast" and plain.node is None
    assert recorded.node.parents == (x,) + tuple(model._weights())
    assert np.array_equal(plain.data, recorded.data)


def test_training_on_constant_prices_converges_fast():
    series = []
    dates = dataio.business_days(dt.date(2020, 1, 6), 140)
    for i in range(3):
        series.append(dataio.PriceSeries(f"C{i}", dates, np.full(140, 50.0 + i)))
    cfg = NhitsConfig(epochs=20, batch_size=32, early_stop_patience=20)
    model, log = train(series[:2], series[2:], cfg, seed=0)
    assert log[-1][0] <= 20
    assert min(row[2] for row in log) < 1e-3


def test_resume_from_checkpoint_matches_recorded_loss(tmp_path, train_series, val_series):
    cfg = NhitsConfig(epochs=3, batch_size=128, early_stop_patience=10)
    model, log = train(train_series[:3], val_series[:1], cfg, seed=2)
    path = tmp_path / "resume.ckpt"
    model.save(path)
    loaded = NhitsModel.load(path)
    # the persisted model is the best-validation snapshot; its loss must
    # reproduce bit-for-bit at the epoch boundary
    best_val = min(row[2] for row in log)
    assert _val_loss(loaded, val_series[:1]) == best_val


def test_training_batch_rows_equal_inference_windows():
    # the second series of a pool, so the gather has to offset into the concatenated days
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=0)
    _randomise_heads(model, seed=8, scale=0.2)
    pool = dataio.synth_gbm(2, 150, 60.0, 3e-4, 0.01, seed=8)
    s = pool[1]
    E, n = cfg.encoder_length, len(s) - cfg.min_series_length + 1
    first = len(pool[0]) - cfg.min_series_length + 1  # the windows of pool[0] come first
    prices, exo, (starts,) = _series_days(model, [pool])
    x = ad.constant(s.adjprc)
    one_hot = features.weekday_one_hot(s.adjprc, s.dates)
    exo_days = _exo_days(price_features(x).data, one_hot, 0)[0].reshape(-1, 17)
    inference = _window_forecasts(model, x, s.dates, n).reshape(n, -1)
    for w in (0, 7, n - 1):
        adj, truth, exo_b = _assemble_batch(starts[[first + w]], prices, exo, cfg)
        assert np.array_equal(adj[0], s.adjprc[w:w + E])
        assert np.array_equal(exo_b[0, cfg.pooled_dim:], exo_days[w:w + E].ravel())
        assert np.array_equal(truth[0], s.adjprc[w + E:w + cfg.min_series_length])
        # the training path's forecast, denormalised, is the inference op's
        x, wmean, denom, _ = standardise(adj, 1)
        fore = model.stacks(ad.constant(x), ad.constant(exo_b)).data
        assert max_rel_err(fore * denom[:, None] + wmean[:, None], inference[w:w + 1]) < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="train keys series by ticker, so a val series replaces the "
                   "train series that has its ticker")
def test_colliding_tickers_train_like_distinct_ones():
    kw = dict(n_series=2, n_days=140, s0=80.0, mu=4e-4, sigma=0.01)
    tr = dataio.synth_gbm(seed=1, **kw)
    va = dataio.synth_gbm(seed=2, **kw)[:1]  # SYN000, as is tr[0]
    renamed = [dataio.PriceSeries("VAL" + s.ticker, s.dates, s.adjprc) for s in va]
    cfg = NhitsConfig(epochs=2, batch_size=32, early_stop_patience=5)
    m1, log1 = train(tr, va, cfg, seed=0)
    m2, log2 = train(tr, renamed, cfg, seed=0)
    assert log1 == log2 and m1.param_bytes() == m2.param_bytes()


def test_checkpoint_roundtrip_reproduces_forecasts(tmp_path, toy_model, eval_series):
    path = tmp_path / "toy.ckpt"
    toy_model.save(path)
    loaded = NhitsModel.load(path)
    s = eval_series[0].head(160)
    a = rolling_forecast(s, toy_model)
    b = rolling_forecast(s, loaded)
    assert np.array_equal(a, b)


def test_checkpoint_naming_the_fixed_input_layout_loads(tmp_path, toy_model, eval_series):
    # older checkpoints also saved use_features and blocks_per_stack
    path = tmp_path / "toy.ckpt"
    toy_model.save(path)
    old = resaved_with(path, tmp_path / "old.ckpt", use_features=True, blocks_per_stack=1)
    s = eval_series[0].head(160)
    assert np.array_equal(rolling_forecast(s, NhitsModel.load(old)), rolling_forecast(s, toy_model))
    for layout in ({"use_features": False, "blocks_per_stack": 1},
                   {"use_features": True, "blocks_per_stack": 2},
                   {"use_features": 1, "blocks_per_stack": 1}):  # compared as JSON
        other = resaved_with(path, tmp_path / "other.ckpt", **layout)
        with pytest.raises(dataio.CheckpointError, match="are not supported"):
            NhitsModel.load(other)
    # only a ClassVar is a fixed setting: a property such as n_quantiles is not one
    other = resaved_with(path, tmp_path / "other.ckpt", n_quantiles=7)
    with pytest.raises(dataio.CheckpointError, match="n_quantiles"):
        NhitsModel.load(other)


def test_rolling_forecast_single_window_length():
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=0)
    series = dataio.synth_gbm(1, 120, 60.0, 0.0, 0.01, seed=4)[0]
    path = rolling_forecast(series, model)
    assert path.shape == (20,)


def test_rolling_forecast_overlap_averaging_counts():
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=1)
    _randomise_heads(model, seed=11, scale=0.2)
    series = dataio.synth_gbm(1, 121, 60.0, 0.0, 0.01, seed=5)[0]
    # manual: run the two windows separately through the public single-window
    # forward is not comparable (feature standardisation span differs), so
    # replicate the rolling computation by hand from the same feature matrix
    med = np.sort(_window_forecasts(model, *_prices(series.adjprc), 2), axis=2)[:, :, 3]
    expected = np.zeros(21)
    counts = np.zeros(21)
    for w in range(2):
        expected[w:w + 20] += med[w]
        counts[w:w + 20] += 1
    expected /= counts
    assert np.array_equal(counts, [1.0] + [2.0] * 19 + [1.0])
    got = rolling_forecast(series, model)
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("days,bound_mib", [(2400, 16), (9600, 20)])
def test_rolling_forecast_memory_linear_in_length(days, bound_mib):
    # memory must stay linear in the series length: at 2,400 days one dense
    # T x T operator is 44 MiB and an (N*H) x (N+H-1) one 800 MiB, and
    # nothing may stay allocated once the call returns.  Only one row block of
    # the (N, 100*17) exogenous windows is copied, and each row block goes on to
    # its median paths, so at 9,600 days no (N, 140) forecasts are held
    model = NhitsModel(NhitsConfig(), seed=0)
    series = dataio.synth_gbm(1, days, 60.0, 0.0, 0.01, seed=6)[0]
    tracemalloc.start()
    try:
        path = rolling_forecast(series, model)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.shape == (days - 100,)
    assert peak < bound_mib * 2**20
    assert held - path.nbytes < 2**20


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK - 1,
                               2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 1,
                               5 * ROW_BLOCK - 3])
def test_row_blocks_give_the_outputs_of_one_block(toy_model, n):
    # with no vjp to run, core takes the windows in near-equal row blocks of
    # ROW_BLOCK to 2 * ROW_BLOCK - 1 rows; recording runs them all as one
    # block.  The stacks never block, with or without a vjp.  The path compare
    # alone is weak: adding the window means rounds most GEMM bit differences away
    cfg = toy_model.config
    prices, dates = _prices(60.0 * np.exp(np.cumsum(np.random.default_rng(n).normal(0, 0.01,
                                                                                  n + 119))))
    rng = np.random.default_rng(n + 1)
    x = rng.normal(size=(n, cfg.encoder_length))
    # first stack inputs gathered as core gathers them
    exo = rng.normal(size=cfg.pooled_dim + (n + cfg.encoder_length - 1) * 17)
    runs = []
    for record in (False, True):
        with contextlib.nullcontext() if record else ad.no_record():
            core = toy_model.core(prices, dates, n)
            first = ad.constant(_first_inputs(exo, np.arange(n), cfg))
            stacks = toy_model.stacks(ad.constant(x), first)
        assert (core.node is not None) == (stacks.node is not None) == record
        runs.append((core.data, stacks.data))
    for blocked, whole in zip(*runs):
        assert np.array_equal(blocked, whole)
    # below the denormalisation: the stacks over each of core's blocks give the
    # rows of one pass over all of them
    n_blocks = max(1, n // ROW_BLOCK)
    for j in range(n_blocks):
        rows = slice(n * j // n_blocks, n * (j + 1) // n_blocks)
        with ad.no_record():
            first = _first_inputs(exo, np.arange(n)[rows], cfg)
            block = toy_model.stacks(ad.constant(x[rows]), ad.constant(first))
        assert np.array_equal(block.data, runs[0][1][rows])


def test_window_views_give_the_outputs_of_window_copies(toy_model, monkeypatch):
    # oracle: a window_view that hands back a contiguous copy of the windows
    series = dataio.synth_gbm(1, 300, 90.0, 7e-4, 0.009, seed=12)[0]

    def outputs():
        res = run_attack(series, toy_model, AttackConfig("GSA", eps_pct=2.0, iters=3))
        return rolling_forecast(series, toy_model), res.x_adv.adjprc, np.array(res.trace)

    views = outputs()
    window_view, calls = ad.window_view, []

    def copying_window_view(*args, **kwargs):
        calls.append(args[1])
        return window_view(*args, **kwargs).copy()

    monkeypatch.setattr(ad, "window_view", copying_window_view)
    copies = outputs()
    assert calls  # the features, the windows and the vjp's head all took copies
    for got, want in zip(views, copies):
        assert np.array_equal(got, want)


def test_rolling_average_beats_mean_single_window_mae(toy_model):
    # paired comparison on a held-out GBM series: overlap averaging vs the
    # mean of the individual 20-day windows' errors; both values recorded
    series = dataio.synth_gbm(1, 300, 90.0, 7e-4, 0.009, seed=77)[0]
    n = 300 - 119
    out = _window_forecasts(toy_model, ad.constant(series.adjprc), series.dates, n)
    med = np.sort(out, axis=2)[:, :, toy_model.config.median_index]
    single = float(np.mean([np.mean(np.abs(med[w] - series.adjprc[w + 100:w + 120]))
                            for w in range(n)]))
    avg_path = rolling_forecast(series, toy_model)
    rolled = float(np.mean(np.abs(avg_path - series.adjprc[100:])))
    print(f"\n[recorded] rolling MAE {rolled:.4f} vs mean single-window MAE {single:.4f}")
    assert rolled < single


def test_end_to_end_gradient_matches_finite_differences():
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=13)
    _randomise_heads(model, seed=13, scale=0.1)
    rng = np.random.default_rng(14)
    base = 80.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 100)))
    truth = base[-1] * np.ones(20)
    dates = dataio.business_days(dt.date(2021, 3, 1), 100)

    def loss(prices):
        # prices -> features, core and head in one op, scored at the median quantile
        return _pinball(model.core(prices, dates, 1), truth, np.full(20, 0.5))

    def loss_value(prices):
        with ad.no_record():
            return loss(ad.constant(prices)).item()

    x = ad.Tensor(base.copy(), requires_grad=True)
    gx = ad.gradient(loss(x), x).data
    h = 1e-5
    for i in rng.choice(100, size=5, replace=False):
        p, m = base.copy(), base.copy()
        p[i] += h
        m[i] -= h
        fd = (loss_value(p) - loss_value(m)) / (2 * h)
        assert max_rel_err([gx[i]], [fd], floor=1e-7) < 1e-4


def test_trained_toy_model_beats_mean_baseline(toy_model, val_series):
    # sanity on the session fixture: the trained model's pinball loss is
    # finite and the forecast tracks scale (details asserted in acceptance)
    val = _val_loss(toy_model, val_series[:1])
    assert np.isfinite(val) and val > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        NhitsConfig(downsample_ratios=(3, 2, 1))  # 20 % 3 != 0
    with pytest.raises(ValueError):
        NhitsConfig(quantiles=(0.5, 0.5))
    with pytest.raises(ValueError):
        NhitsConfig(pool_kernels=(4, 2))


def test_forward_rejects_wrong_window_length():
    model = NhitsModel(NhitsConfig(), seed=0)
    x, dates = _prices(np.full(90, 10.0))
    with pytest.raises(ValueError, match="window"):
        model.core(x, dates, 1)


def test_load_rejects_foreign_checkpoint(tmp_path):
    from slopestrike.dataio import CheckpointError, save_checkpoint
    path = tmp_path / "other.ckpt"
    save_checkpoint({"w": np.ones(3)}, path, arch={"model": "discriminator"})
    with pytest.raises(CheckpointError, match="not a forecaster"):
        NhitsModel.load(path)
