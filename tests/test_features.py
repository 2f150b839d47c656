import datetime as dt
import math

import numpy as np
import pytest

from slopestrike import autodiff as ad
from slopestrike import dataio
from slopestrike.features import CHANNELS, price_features as price_kernel, weekday_one_hot
from graph_ops import price_features
from helpers import finite_diff, max_rel_err, price_features_reference


def _dates(n):
    return dataio.business_days(dt.date(2021, 3, 1), n)


def brute_features(prices):
    """Independent scalar re-implementation of every continuous channel."""
    T = len(prices)
    chans = {"adjprc": np.array(prices, dtype=float)}
    for w in (5, 10, 20):
        mean = np.zeros(T)
        std = np.zeros(T)
        for t in range(T):
            window = prices[max(0, t - w + 1):t + 1]
            m = sum(window) / len(window)
            mean[t] = m
            std[t] = math.sqrt(sum((v - m) ** 2 for v in window) / len(window))
        chans[f"rolling_mean_{w}"] = mean
        chans[f"rolling_std_{w}"] = std
    lr = np.zeros(T)
    for t in range(1, T):
        lr[t] = math.log(prices[t] / prices[t - 1])
    chans["log_return"] = lr
    roc = np.zeros(T)
    for t in range(5, T):
        roc[t] = (prices[t] - prices[t - 5]) / prices[t - 5]
    chans["roc_5"] = roc
    for w in (5, 10, 20):
        beta = 2.0 / (w + 1)
        e = np.zeros(T)
        e[0] = prices[0]
        for t in range(1, T):
            e[t] = beta * prices[t] + (1 - beta) * e[t - 1]
        chans[f"ema_{w}"] = e
    return chans


def test_constant_series_channels():
    cont = price_features(ad.constant(np.full(30, 7.5)))
    vals = cont.data
    by_name = {name: vals[:, i] for i, name in enumerate(CHANNELS)}
    for w in (5, 10, 20):
        assert np.allclose(by_name[f"rolling_mean_{w}"], 7.5, atol=1e-9)
        assert np.allclose(by_name[f"rolling_std_{w}"], 0.0, atol=1e-9)
        assert np.allclose(by_name[f"ema_{w}"], 7.5, atol=1e-9)
    assert np.allclose(by_name["log_return"], 0.0, atol=1e-12)
    assert np.allclose(by_name["roc_5"], 0.0, atol=1e-12)


def test_log_return_closed_form():
    prices = np.concatenate([[1.0, 2.0], np.full(20, 2.0)])
    cont = price_features(ad.constant(prices))
    lr = cont.data[:, CHANNELS.index("log_return")]
    assert abs(lr[1] - math.log(2.0)) < 1e-15
    assert abs(lr[1] - 0.6931472) < 1e-7
    assert lr[0] == 0.0


def test_all_channels_match_brute_force_oracle():
    rng = np.random.default_rng(42)
    prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 40)))
    cont = price_features(ad.constant(prices))
    oracle = brute_features(list(prices))
    for i, name in enumerate(CHANNELS):
        got = cont.data[:, i]
        assert np.max(np.abs(got - oracle[name])) < 1e-12, name


def test_ema_beta_is_one_third_for_w5():
    # e_1 = (1/3) p_1 + (2/3) p_0 exactly
    prices = np.concatenate([[3.0, 9.0], np.full(20, 9.0)])
    cont = price_features(ad.constant(prices))
    ema5 = cont.data[:, CHANNELS.index("ema_5")]
    assert abs(ema5[1] - (9.0 / 3.0 + 2.0 * 3.0 / 3.0)) < 1e-12


def test_day_of_week_monday_zero():
    dates = _dates(25)
    onehot = weekday_one_hot(np.full(25, 4.0), dates)
    assert onehot.shape == (25, 5)
    assert onehot[0, 0] == 1.0  # 2021-03-01 is a Monday
    assert np.array_equal(onehot.argmax(axis=1), [d.weekday() for d in dates])
    assert np.array_equal(onehot.sum(axis=1), np.ones(25))


def test_weekend_date_rejected():
    dates = _dates(24) + [dt.date(2021, 4, 3)]  # a Saturday
    dates.sort()
    with pytest.raises(ValueError, match="weekend"):
        weekday_one_hot(np.full(25, 4.0), dates)


def test_rolling_mean_gradient_is_window_count_over_lengths():
    T = 30
    x = ad.Tensor(np.linspace(10, 12, T), requires_grad=True)
    rm5 = price_features(x)[:, CHANNELS.index("rolling_mean_5")]
    gx = ad.gradient(ad.tsum(rm5), x).data
    expected = np.zeros(T)
    for t in range(T):
        start = max(0, t - 4)
        n = t - start + 1
        for i in range(start, t + 1):
            expected[i] += 1.0 / n
    assert np.max(np.abs(gx - expected)) < 1e-12


def test_feature_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    base = 20.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 25)))

    def scalar_of(prices):
        return float(np.sum(price_features(ad.constant(prices)).data))

    x = ad.Tensor(base.copy(), requires_grad=True)
    gx = ad.gradient(ad.tsum(price_features(x)), x).data
    h = 1e-6
    for i in (0, 7, 13, 24):
        p = base.copy(); p[i] += h
        m = base.copy(); m[i] -= h
        fd = (scalar_of(p) - scalar_of(m)) / (2 * h)
        assert max_rel_err([gx[i]], [fd]) < 1e-6


def test_short_series_rejected():
    with pytest.raises(ValueError, match="21"):
        weekday_one_hot(np.full(20, 3.0), _dates(20))


def test_non_positive_price_rejected():
    prices = np.full(25, 3.0)
    prices[10] = 0.0
    with pytest.raises(ad.DomainError):
        weekday_one_hot(prices, _dates(25))


def test_batch_matches_single_series_values_and_gradients():
    rng = np.random.default_rng(8)
    T = 60
    prices = 30.0 * np.exp(np.cumsum(rng.normal(0, 0.015, (3, T)), axis=1))
    weights = rng.normal(0, 1, (3, T, len(CHANNELS)))
    dates = _dates(T)

    batch = ad.Tensor(prices.copy(), requires_grad=True)
    cont = price_features(batch)
    assert cont.shape == (3, T, len(CHANNELS))
    assert weekday_one_hot(prices, dates).shape == (T, 5)  # shared by every series
    grad = ad.gradient(ad.tsum(ad.mul(cont, ad.constant(weights))), batch).data
    for i in range(3):
        row = ad.Tensor(prices[i].copy(), requires_grad=True)
        single = price_features(row)
        assert max_rel_err(cont.data[i], single.data, floor=1e-300) < 1e-12
        row_grad = ad.gradient(ad.tsum(ad.mul(single, ad.constant(weights[i]))), row)
        assert max_rel_err(grad[i], row_grad.data, floor=1e-300) < 1e-12


def test_batch_rejects_what_a_single_series_rejects():
    prices = np.full((2, 25), 3.0)
    with pytest.raises(ValueError, match="24 dates for 25 prices"):
        weekday_one_hot(prices, _dates(24))
    prices[1, 10] = -1.0
    with pytest.raises(ad.DomainError):
        weekday_one_hot(prices, _dates(25))
    with pytest.raises(ValueError, match="shape"):
        weekday_one_hot(np.full((2, 2, 25), 3.0), _dates(25))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_price_rejected(bad):
    prices = np.full(150, 3.0)
    prices[70] = bad
    with pytest.raises(ad.DomainError, match="finite"):
        weekday_one_hot(prices, _dates(150))
    batch = np.full((3, 150), 3.0)
    batch[2, 149] = bad
    with pytest.raises(ad.DomainError, match="finite"):
        weekday_one_hot(batch, _dates(150))


@pytest.mark.parametrize("shape", [(300,), (2400,), (3, 60)])
def test_features_op_matches_primitive_reference(shape):
    # the per-op graph the features op replaced: equal values and price gradients, bit for bit
    rng = np.random.default_rng(11)
    prices = 40.0 * np.exp(np.cumsum(rng.normal(0, 0.012, shape), axis=-1))
    # two flat stretches: windows whose raw-moment variance rounds to 0 and
    # below 0, so both the clamp's bound and the sqrt's 0 are exercised
    prices[..., 10:30] = 2.0 * prices[..., 10:11]
    prices[..., 35:58] = 1.6 * prices[..., 35:36]
    var = price_kernel(prices, keep=True)[1][4]
    assert np.any(var < 0.0) and np.any(var[..., 1:, :] == 0.0)  # day 0 is always 0
    w = rng.normal(size=shape + (len(CHANNELS),))
    runs = []
    for build in (price_features, price_features_reference):
        x = ad.Tensor(prices.copy(), requires_grad=True)
        cont = build(x)
        grad = ad.gradient(ad.tsum(ad.tanh(ad.mul(cont, ad.constant(w)))), x)
        runs.append((cont.data, grad.data))
    (values, grad), (ref_values, ref_grad) = runs
    assert np.array_equal(values, ref_values)
    assert np.array_equal(grad, ref_grad)
    assert np.count_nonzero(grad) == grad.size  # not trivially equal


def test_features_op_finite_differences():
    rng = np.random.default_rng(12)
    base = 25.0 * np.exp(np.cumsum(rng.normal(0, 0.02, (2, 24)), axis=-1))
    w = rng.normal(size=(2, 24, len(CHANNELS)))

    def f(ts):
        return ad.tsum(ad.tanh(ad.mul(price_features(ts[0]), ad.constant(w * 0.05))))

    x = ad.Tensor(base.copy(), requires_grad=True)
    node = price_features(x).node
    assert node.kind == "price_features" and node.parents == (x,)
    analytic = ad.gradient(f([x]), x).data
    fd = finite_diff(lambda arrs: f([ad.constant(a) for a in arrs]).item(), [base.copy()])[0]
    assert max_rel_err(analytic, fd, floor=1e-4) < 1e-6


def test_features_op_keeps_nothing_without_recording():
    prices = 30.0 * np.exp(np.cumsum(np.random.default_rng(13).normal(0, 0.01, (2, 50)), axis=-1))
    x = ad.Tensor(prices, requires_grad=True)
    recorded = price_features(x)
    with ad.no_record():
        plain = price_features(x)
    assert recorded.node.kind == "price_features" and plain.node is None
    assert np.array_equal(plain.data, recorded.data)
    values, saved = price_kernel(prices, keep=False)
    assert saved is None and np.array_equal(values, recorded.data)
