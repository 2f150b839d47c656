import datetime as dt
import tracemalloc

import numpy as np
import pytest

from slopestrike import autodiff as ad
from slopestrike import dataio
from slopestrike.features import compute_features
from slopestrike.forecaster import (
    EarlyStopper, ForecastOutput, NhitsConfig, NhitsModel,
    _assemble_batch, _interp_matrix, _series_days, evaluate, quantile_loss, rolling_forecast, train,
)
from helpers import max_rel_err, nhits_stacks_reference


def _fm(prices, start=dt.date(2021, 3, 1), grad=False):
    dates = dataio.business_days(start, len(prices))
    x = ad.Tensor(np.asarray(prices, dtype=float), requires_grad=grad)
    return compute_features(x, dates), x


def test_zero_final_layers_forecast_equals_window_mean():
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=0)
    rng = np.random.default_rng(1)
    prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 100)))
    fm, _ = _fm(prices)
    out = model.forward(fm)
    assert out.quantile_paths.shape == (20, 7)
    assert np.allclose(out.quantile_paths.data, prices.mean(), atol=1e-9)
    assert np.allclose(out.median_path.data, prices.mean(), atol=1e-9)


def test_degenerate_rates_interpolation_is_identity():
    assert np.array_equal(_interp_matrix(20, 20), np.eye(20))
    cfg = NhitsConfig(n_stacks=1, pool_kernels=(1,), downsample_ratios=(1,),
                      use_features=False)
    model = NhitsModel(cfg, seed=3)
    _randomise_heads(model, seed=3)
    rng = np.random.default_rng(2)
    prices = 40.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 100)))
    fm, _ = _fm(prices)
    out = model.forward(fm)
    assert out.median_path.shape == (20,)
    assert out.quantile_paths.shape == (20, 7)


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
    fm, _ = _fm(prices)
    out = model.forward(fm)
    qp = out.quantile_paths.data
    assert np.all(np.diff(qp, axis=1) >= 0.0)
    assert cfg.median_index == 3
    assert np.array_equal(out.median_path.data, qp[:, 3])


def test_quantile_loss_perfect_prediction_zero():
    truth = np.linspace(10, 12, 20)
    qp = ad.constant(np.repeat(truth[:, None], 7, axis=1))
    out = ForecastOutput(qp, qp[:, 3], NhitsConfig().quantiles)
    assert quantile_loss(out, truth).item() == 0.0


def test_quantile_loss_median_is_half_l1():
    rng = np.random.default_rng(3)
    truth = rng.normal(100, 5, 20)
    pred = truth + rng.normal(0, 2, 20)
    out = ForecastOutput(ad.constant(pred[:, None]), ad.constant(pred), (0.5,))
    expected = 0.5 * np.mean(np.abs(truth - pred))
    assert abs(quantile_loss(out, truth).item() - expected) < 1e-15


def test_quantile_loss_one_sided_weights():
    truth = np.zeros(1) + 1.0  # y - f = 1
    out = ForecastOutput(ad.constant([[0.0]]), ad.constant([0.0]), (0.99,))
    assert abs(quantile_loss(out, truth).item() - 0.99) < 1e-15
    truth2 = np.zeros(1)  # f - y = 1
    out2 = ForecastOutput(ad.constant([[1.0]]), ad.constant([1.0]), (0.99,))
    assert abs(quantile_loss(out2, truth2).item() - 0.01) < 1e-15


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
    cfg = NhitsConfig(n_stacks=1, pool_kernels=(2,), downsample_ratios=(2,),
                      use_features=False)
    model = NhitsModel(cfg, seed=9)
    _randomise_heads(model, seed=9, scale=0.2)
    rng = np.random.default_rng(10)
    adj = 70.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (1, 100)), axis=1))
    x, _, _ = model._normalise_windows(ad.constant(adj))
    _, blocks, residual = model.stacks(x, None, internals=True)
    # recompute x1 independently
    mean = adj.mean(axis=1, keepdims=True)
    std = np.sqrt(((adj - mean) ** 2).mean(axis=1, keepdims=True))
    x1 = (adj - mean) / (std + 1e-8)
    assert np.array_equal(residual, x1 - blocks[0][0])


def _random_stack_inputs(use_features, seed=21, n=6, ties=False):
    cfg = NhitsConfig(use_features=use_features)
    model = NhitsModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = rng.normal(0, 0.3, p.data.shape)
    x = rng.normal(size=(n, cfg.encoder_length))
    if ties:  # whole numbers: most pooling windows hold a tied maximum
        x = np.round(2.0 * x)
    exo = rng.normal(size=(n, cfg.exo_dim)) if use_features else None
    weights = rng.normal(size=(n, cfg.horizon * cfg.n_quantiles))
    return model, x, exo, weights


def _stack_loss(fore, weights):
    return ad.tsum(ad.tanh(ad.mul(fore, ad.constant(weights))))


def _record_vjp_results(out):
    """Wrap the vjp of out's node; the returned list collects each result tuple."""
    results, vjp = [], out.node.vjp
    out.node.vjp = lambda g, need: results.append(vjp(g, need)) or results[-1]
    return results


@pytest.mark.parametrize("use_features,ties", [(True, False), (False, False), (True, True)])
def test_stacks_op_matches_primitive_reference(use_features, ties):
    model, xa, ea, weights = _random_stack_inputs(use_features, ties=ties)
    runs = []
    for build in (lambda x, e: model.stacks(x, e, internals=True),
                  lambda x, e: nhits_stacks_reference(model, x, e)):
        x = ad.Tensor(xa.copy(), requires_grad=True)
        exo = None if ea is None else ad.Tensor(ea.copy(), requires_grad=True)
        fore, blocks, residual = build(x, exo)
        for p in model.params.values():
            p.grad = None
        ad.backward(_stack_loss(fore, weights))
        # the op returns blocks and residual as arrays, the reference as tensors
        values = [getattr(a, "data", a) for a in [fore, residual, *sum(blocks, ())]]
        grads = [x.grad] + ([] if exo is None else [exo.grad])
        grads += [p.grad for p in model.params.values()]
        runs.append((values, grads))
    (values, grads), (ref_values, ref_grads) = runs
    assert len(model.params) == 18 and len(blocks) == 3
    for got, want in zip(values, ref_values):
        assert max_rel_err(got, want) < 1e-12
    assert all(g is not None for g in grads)
    for got, want in zip(grads, ref_grads):
        assert max_rel_err(got, want) < 1e-12


def test_stacks_gradient_wrt_x_skips_weight_products():
    model, xa, ea, weights = _random_stack_inputs(True)
    x = ad.Tensor(xa.copy(), requires_grad=True)
    exo = ad.Tensor(ea.copy(), requires_grad=True)
    fore = model.stacks(x, exo)
    returned = _record_vjp_results(fore)
    gx = ad.gradient(_stack_loss(fore, weights), x)
    assert all(p.grad is None for p in model.params.values())
    # exo is not asked for either, so only x's gradient comes back
    assert returned[0][0] is not None
    assert all(g is None for g in returned[0][1:])
    x2 = ad.Tensor(xa.copy(), requires_grad=True)
    ad.backward(_stack_loss(model.stacks(x2, ad.Tensor(ea.copy(), requires_grad=True)), weights))
    assert np.array_equal(gx.data, x2.grad)


def test_stacks_training_pass_skips_input_products():
    model, xa, ea, weights = _random_stack_inputs(True)
    x, _, _ = model._normalise_windows(ad.constant(50.0 + xa))
    fore = model.stacks(x, ad.constant(ea))
    returned = _record_vjp_results(fore)
    ad.backward(_stack_loss(fore, weights))
    assert returned[0][0] is None and returned[0][1] is None
    assert all(g is not None for g in returned[0][2:])
    assert all(p.grad is not None for p in model.params.values())


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
    assert evaluate(loaded, val_series[:1]) == best_val


def test_training_batch_rows_equal_inference_windows():
    # the second series of a pool, so the gather has to offset into the concatenated days
    cfg = NhitsConfig()
    model = NhitsModel(cfg, seed=0)
    pool = dataio.synth_gbm(2, 150, 60.0, 3e-4, 0.01, seed=8)
    s = pool[1]
    n = len(s) - cfg.min_series_length + 1
    first = len(pool[0]) - cfg.min_series_length + 1  # the windows of pool[0] come first
    prices, exo, (starts,) = _series_days(model, [pool])
    with ad.no_record():
        fm = compute_features(ad.constant(s.adjprc), s.dates)
        adj_w, exo_w = model._window_tensors(fm, n)
    for w in (0, 7, n - 1):
        adj, truth, exo_b = _assemble_batch(starts[[first + w]], prices, exo, cfg)
        assert np.array_equal(adj[0], adj_w.data[w])
        assert np.array_equal(exo_b[0], exo_w.data[w])
        assert np.array_equal(truth[0], s.adjprc[w + cfg.encoder_length:w + cfg.min_series_length])


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
    with ad.no_record():
        fm, _ = _fm(series.adjprc)
        adj_w, exo = model._window_tensors(fm, 2)
        out = model.core(adj_w, exo).data.reshape(2, 20, 7)
    med = np.sort(out, axis=2)[:, :, 3]
    expected = np.zeros(21)
    counts = np.zeros(21)
    for w in range(2):
        expected[w:w + 20] += med[w]
        counts[w:w + 20] += 1
    expected /= counts
    assert np.array_equal(counts, [1.0] + [2.0] * 19 + [1.0])
    got = rolling_forecast(series, model)
    assert np.allclose(got, expected, atol=1e-12)


def test_rolling_forecast_memory_linear_in_length():
    # memory must stay linear in the series length: at 2,400 days one dense
    # T x T operator is 44 MiB and an (N*H) x (N+H-1) one 800 MiB, and
    # nothing may stay allocated once the call returns
    model = NhitsModel(NhitsConfig(), seed=0)
    series = dataio.synth_gbm(1, 2400, 60.0, 0.0, 0.01, seed=6)[0]
    tracemalloc.start()
    try:
        path = rolling_forecast(series, model)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.shape == (2300,)
    assert peak < 128 * 2**20
    assert held - path.nbytes < 2**20


def test_rolling_average_beats_mean_single_window_mae(toy_model):
    # paired comparison on a held-out GBM series: overlap averaging vs the
    # mean of the individual 20-day windows' errors; both values recorded
    series = dataio.synth_gbm(1, 300, 90.0, 7e-4, 0.009, seed=77)[0]
    n = 300 - 119
    with ad.no_record():
        fm, _ = _fm(series.adjprc, start=series.dates[0])
        adj_w, exo = toy_model._window_tensors(fm, n)
        out = toy_model.core(adj_w, exo).data.reshape(n, 20, 7)
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

    def loss_value(prices):
        with ad.no_record():
            fm = compute_features(ad.constant(prices), dates)
            return quantile_loss(model.forward(fm), truth).item()

    x = ad.Tensor(base.copy(), requires_grad=True)
    fm = compute_features(x, dates)
    ad.backward(quantile_loss(model.forward(fm), truth))
    h = 1e-5
    for i in rng.choice(100, size=5, replace=False):
        p, m = base.copy(), base.copy()
        p[i] += h
        m[i] -= h
        fd = (loss_value(p) - loss_value(m)) / (2 * h)
        assert max_rel_err([x.grad[i]], [fd], floor=1e-7) < 1e-4


def test_trained_toy_model_beats_mean_baseline(toy_model, val_series):
    # sanity on the session fixture: the trained model's pinball loss is
    # finite and the forecast tracks scale (details asserted in acceptance)
    val = evaluate(toy_model, val_series[:1])
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
    prices = np.full(90, 10.0)
    fm, _ = _fm(prices)
    with pytest.raises(ValueError, match="window"):
        model.forward(fm)


def test_load_rejects_foreign_checkpoint(tmp_path):
    from slopestrike.dataio import CheckpointError, save_checkpoint
    path = tmp_path / "other.ckpt"
    save_checkpoint({"w": np.ones(3)}, path, arch={"model": "discriminator"})
    with pytest.raises(CheckpointError, match="not a forecaster"):
        NhitsModel.load(path)
