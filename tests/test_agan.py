import numpy as np
import pytest

from slopestrike import autodiff as ad
from slopestrike import dataio
from slopestrike.agan import (
    GanBundle, GanConfig, MlpCritic, TcnGenerator, evaluate_gan, forecast_slopes, generate,
    gradient_penalty, sample_intervals, scale, scale_bounds, series_log_returns, to_prices,
    train_agan, unscale, _PRICE_DATES, _forecaster_slope_loss,
)
from slopestrike.attacks import general_slope_value, ls_slope, ls_slope_value, slope_loss
from helpers import finite_diff, max_rel_err, resaved_with, tcn_generator_reference


@pytest.fixture(scope="module")
def cond_stock():
    return dataio.synth_gbm(1, 600, 100.0, 5e-4, 0.012, seed=2024)[0]


def test_sample_intervals_forced_window():
    s = dataio.synth_gbm(1, 120, 50.0, 3e-4, 0.01, seed=1)[0].head(100)
    ivs = sample_intervals(s, 5, seed=0)
    assert len(ivs) == 5
    for iv in ivs[1:]:
        assert np.array_equal(iv.log_returns, ivs[0].log_returns)
        assert iv.p0 == float(s.adjprc[0])


def test_scale_bounds_map_to_unit_interval(cond_stock):
    bounds = scale_bounds(cond_stock)
    scaled = scale(series_log_returns(cond_stock), bounds)
    assert scaled.min() == 0.0 and scaled.max() == 1.0


def test_scale_roundtrip(cond_stock):
    rng = np.random.default_rng(3)
    bounds = scale_bounds(cond_stock)
    r = rng.normal(0, 0.02, 99)
    assert np.max(np.abs(unscale(scale(r, bounds), bounds) - r)) < 1e-12


def test_interval_too_short_rejected():
    s = dataio.synth_gbm(1, 120, 50.0, 0.0, 0.01, seed=2)[0].head(60)
    with pytest.raises(ValueError, match="window"):
        sample_intervals(s, 3, seed=0)


def test_to_prices_identities():
    assert np.allclose(to_prices(np.zeros(99), 42.0), 42.0, atol=1e-12)
    two = to_prices(np.array([np.log(2.0)]), 10.0)
    assert abs(two[1] - 20.0) < 1e-12
    rng = np.random.default_rng(4)
    r = rng.normal(0, 0.02, 99)
    p = to_prices(r, 73.0)
    assert p.shape == (100,)
    recovered = np.log(p[1:] / p[:-1])
    assert np.max(np.abs(recovered - r)) < 1e-12


def test_to_prices_domain_errors():
    with pytest.raises(ad.DomainError):
        to_prices(np.zeros(5), -1.0)
    with pytest.raises(ad.DomainError, match="overflow"):
        to_prices(np.full(99, 10.0), 1.0)


def test_gradient_penalty_linear_critic_closed_form():
    rng = np.random.default_rng(5)
    w = rng.normal(0, 0.5, (6, 1))
    w_t = ad.Tensor(w, requires_grad=True)

    def d_fn(x):
        return ad.matmul(x, w_t)

    x_hat = rng.normal(size=(4, 6))
    gp = gradient_penalty(d_fn, x_hat)
    expected = (np.linalg.norm(w) - 1.0) ** 2
    assert abs(gp.item() - expected) < 1e-10
    assert gp.item() >= 0.0


def test_gradient_penalty_zero_at_unit_norm_critic():
    w = np.zeros((4, 1))
    w[0, 0] = 1.0
    w_t = ad.Tensor(w, requires_grad=True)

    def d_fn(x):
        return ad.matmul(x, w_t)

    gp = gradient_penalty(d_fn, np.random.default_rng(0).normal(size=(3, 4)))
    assert gp.item() < 1e-12
    assert np.max(np.abs(ad.gradient(gp, w_t).data)) < 1e-5


def test_gradient_penalty_trains_critic_toward_unit_norm():
    rng = np.random.default_rng(6)
    w_t = ad.Tensor(rng.normal(0, 2.0, (5, 1)), requires_grad=True)

    def d_fn(x):
        return ad.matmul(x, w_t)

    for _ in range(100):
        gp = gradient_penalty(d_fn, rng.normal(size=(8, 5)))
        w_t.data = w_t.data - 0.05 * ad.gradient(gp, w_t).data
    assert abs(np.linalg.norm(w_t.data) - 1.0) < 1e-3


def test_wasserstein_toy_generator_mean_drifts_to_real_mean():
    # 1-D linear generator and critic; the critic is kept 1-Lipschitz by
    # weight clipping so the minimax game settles instead of oscillating
    rng = np.random.default_rng(7)
    g_w = ad.Tensor([[0.1]], requires_grad=True)
    g_b = ad.Tensor([0.0], requires_grad=True)
    c_w = ad.Tensor([[0.05]], requires_grad=True)
    c_b = ad.Tensor([0.0], requires_grad=True)
    real_mean = 3.0
    c_trace = []
    for step in range(200):
        real = rng.normal(real_mean, 0.5, (64, 1))
        z = rng.normal(size=(64, 1))
        fake = ad.affine(ad.constant(z), g_w, g_b)
        # critic step
        loss_c = ad.sub(ad.tmean(ad.affine(ad.constant(fake.data), c_w, c_b)),
                        ad.tmean(ad.affine(ad.constant(real), c_w, c_b)))
        c_trace.append(loss_c.item())
        for p, g in zip((c_w, c_b), ad.gradients(loss_c, [c_w, c_b])):
            p.data = np.clip(p.data - 0.05 * g.data, -1.0, 1.0)
        # generator step
        fake = ad.affine(ad.constant(z), g_w, g_b)
        loss_g = ad.mul(ad.tmean(ad.affine(fake, c_w, c_b)), -1.0)
        for p, g in zip((g_w, g_b), ad.gradients(loss_g, [g_w, g_b])):
            p.data = p.data - 0.02 * g.data
    # started 3.0 away; the generator closes most of the gap (the fixed-step
    # minimax game keeps a small oscillation around the target)
    assert abs(float(g_b.data[0]) - real_mean) < 1.0
    # critic loss decreases in trailing-20-step average early in training
    assert np.mean(c_trace[20:40]) < np.mean(c_trace[:20])


@pytest.fixture(scope="module")
def tiny_bundle(toy_model, cond_stock):
    cfg = GanConfig(samples_per_epoch=32, batch_size=16, critic_iters=2,
                    epochs_per_block=(1, 1), adv_scale_schedule=(0.25, 0.3))
    before = toy_model.param_bytes()
    bundle, log = train_agan(cond_stock, toy_model, cfg, seed=11)
    return bundle, log, before


def test_tiny_training_run_completes(tiny_bundle, toy_model):
    bundle, log, before = tiny_bundle
    assert len(log) == 2
    assert all(np.isfinite(row[2]) for row in log)
    assert toy_model.param_bytes() == before  # frozen second critic


def test_forecaster_grad_flags_restored(tiny_bundle, toy_model):
    assert all(p.requires_grad for p in toy_model.params.values())


def test_generate_deterministic_and_shaped(tiny_bundle, cond_stock):
    bundle, _, _ = tiny_bundle
    conds = sample_intervals(cond_stock, 8, seed=21)
    a = generate(bundle, conds, seed=5)
    b = generate(bundle, conds, seed=5)
    c = generate(bundle, conds, seed=6)
    assert a.shape == (8, 99)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_condition_length_mismatch(tiny_bundle, cond_stock):
    bundle, _, _ = tiny_bundle
    conds = sample_intervals(cond_stock, 2, seed=1)
    for iv in conds:
        iv.log_returns = iv.log_returns[:50]
    with pytest.raises(ValueError, match="condition length"):
        generate(bundle, conds, seed=0)


def test_evaluate_gan_finite_report(tiny_bundle, cond_stock, toy_model):
    bundle, _, _ = tiny_bundle
    rep = evaluate_gan(bundle, cond_stock, toy_model, 40, seed=17)
    assert rep["mmd"] >= 0.0 and np.isfinite(rep["mmd"])
    for key in ("real_moments", "fake_moments"):
        m = rep[key]
        assert all(np.isfinite(v) for v in (m.mu, m.sigma, m.iqr, m.skew, m.kurtosis))
    assert np.isfinite(rep["fake_ls_slope"])


def test_interval_that_is_not_one_encoder_window_fails_before_training(cond_stock, toy_model,
                                                                       monkeypatch):
    # the second critic forecasts one encoder window of L + 1 prices; 151
    # prices would quietly forecast from the first 100 alone
    steps = []
    monkeypatch.setattr(ad, "sgd_step", lambda *args, **kw: steps.append(args))
    cfg = GanConfig(interval_length=150, samples_per_epoch=32, batch_size=16,
                    epochs_per_block=(1,), adv_scale_schedule=(0.25,))
    with pytest.raises(ValueError, match="interval_length 150 .* encoder_length 100"):
        train_agan(cond_stock, toy_model, cfg, seed=0)
    assert steps == []
    bundle = GanBundle(TcnGenerator(cfg), MlpCritic(cfg), cfg, scale_bounds(cond_stock))
    with pytest.raises(ValueError, match="interval_length 150 .* encoder_length 100"):
        evaluate_gan(bundle, cond_stock, toy_model, 4, seed=0)
    assert np.isfinite(evaluate_gan(bundle, cond_stock, None, 4, seed=0)["mmd"])


def test_bundle_checkpoint_roundtrip(tmp_path, tiny_bundle, cond_stock):
    bundle, _, _ = tiny_bundle
    path = tmp_path / "gan.ckpt"
    bundle.save(path)
    loaded = GanBundle.load(path)
    conds = sample_intervals(cond_stock, 4, seed=3)
    assert np.array_equal(generate(bundle, conds, seed=1), generate(loaded, conds, seed=1))
    assert loaded.scale_bounds == bundle.scale_bounds


def test_bundle_checkpoint_naming_the_fixed_settings_loads(tmp_path, tiny_bundle, cond_stock):
    # an older version saved these settings in every GAN checkpoint, at the
    # values the GAN now fixes
    legacy = dict(lambda_gp=1.0, gp_apply_prob=0.6, c=5.0, d=2.0, leaky_slope=0.2,
                  critic_hidden=[128, 64])
    bundle, _, _ = tiny_bundle
    path = tmp_path / "gan.ckpt"
    bundle.save(path)
    old = resaved_with(path, tmp_path / "old.ckpt", **legacy)
    conds = sample_intervals(cond_stock, 4, seed=3)
    assert np.array_equal(generate(GanBundle.load(old), conds, seed=1),
                          generate(bundle, conds, seed=1))
    other = resaved_with(path, tmp_path / "other.ckpt", **{**legacy, "leaky_slope": 0.1})
    with pytest.raises(dataio.CheckpointError, match="leaky_slope=0.1 are not supported"):
        GanBundle.load(other)


def test_gan_config_validation():
    with pytest.raises(ValueError):
        GanConfig(adv_scale_schedule=(0.25,), epochs_per_block=(50, 50))
    with pytest.raises(ValueError):
        GanConfig(adv_scale_schedule=(0.0, 0.1), epochs_per_block=(1, 1))
    for field, value in [("epochs_per_block", (50, 0, 50, 50, 50)),
                         ("epochs_per_block", (50, -1, 50, 50, 50)),
                         ("gen_kernels", (3, 0, 5, 3)), ("gen_kernels", (3, 2.0, 5, 3)),
                         ("gen_dilations", (1, 0, 4, 8)), ("gen_dilations", (1, -2, 4, 8)),
                         ("gen_hidden", (64, 0, 64, 32)), ("gen_hidden", (64, True, 64, 32)),
                         ("interval_length", 1), ("interval_length", 9.0)]:
        with pytest.raises(ValueError, match=field):
            GanConfig(**{field: value})
    GanConfig(interval_length=2, gen_kernels=(1, 1, 1, 1))


def _generator_inputs(cfg, B, seed):
    """A generator with every parameter random (head and biases included), a
    (B, L) noise, a (B, L) condition and (B, L) loss weights."""
    gen = TcnGenerator(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for p in gen.params.values():
        p.data = rng.uniform(-0.6, 0.6, p.shape)
    z_cond = rng.standard_normal((B, 2, cfg.interval_length))
    return gen, (z_cond[:, 0], z_cond[:, 1]), rng.normal(size=(B, cfg.interval_length))


def _generator_run(forward, gen, zc, weights):
    """Outputs and the gradients of sum(out * weights) for the parameters."""
    out = forward(*zc)
    grads = ad.gradients(ad.tsum(ad.mul(out, ad.constant(weights))), list(gen.params.values()))
    return out.data, [g.data for g in grads]


def test_generator_op_matches_primitive_reference():
    gen, zc, weights = _generator_inputs(GanConfig(), 32, seed=41)
    out, grads = _generator_run(gen.forward, gen, zc, weights)
    ref_out, ref_grads = _generator_run(lambda z, cond: tcn_generator_reference(gen, z, cond),
                                        gen, zc, weights)
    assert out.shape == (32, 99) and len(grads) == 10
    # relative to the largest entry: single entries may nearly cancel
    assert np.max(np.abs(out - ref_out)) < 1e-12 * np.max(np.abs(ref_out))
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_generator_op_matches_finite_differences():
    cfg = GanConfig(gen_hidden=(3, 2), gen_kernels=(2, 3), gen_dilations=(1, 2),
                    interval_length=7)
    gen, zc, weights = _generator_inputs(cfg, 2, seed=42)
    names = list(gen.params)

    def loss(arrays):
        for name, a in zip(names, arrays):
            gen.params[name] = ad.Tensor(a, requires_grad=True)
        with ad.no_record():
            return float(np.sum(gen.forward(*zc).data * weights))

    arrays = [gen.params[n].data.copy() for n in names]
    fd = finite_diff(loss, [a.copy() for a in arrays])
    for name, a in zip(names, arrays):
        gen.params[name] = ad.Tensor(a.copy(), requires_grad=True)
    _, grads = _generator_run(gen.forward, gen, zc, weights)
    assert len(grads) == len(fd) == len(names)
    for got, want in zip(grads, fd):
        assert max_rel_err(got, want) < 1e-6


def test_generator_records_nothing_under_no_record():
    gen, zc, _ = _generator_inputs(GanConfig(), 4, seed=43)
    with ad.no_record():
        out = gen.forward(*zc)
    assert out.node is None and not out.requires_grad
    assert gen.forward(*zc).node.kind == "tcn_generator"


def test_generator_parameter_gradients_skip_input_gradient():
    # the op has no input gradient, and asking for the head alone stops the
    # sweep at the head: no layer below it forms a gradient
    gen, zc, weights = _generator_inputs(GanConfig(), 8, seed=44)
    _, full = _generator_run(gen.forward, gen, zc, weights)
    out = gen.forward(*zc)
    assert len(out.node.parents) == len(gen.params)
    results, vjp = [], out.node.vjp
    out.node.vjp = lambda g, need: results.append(vjp(g, need)) or results[-1]
    head = [gen.params["head.w"], gen.params["head.b"]]
    grads = ad.gradients(ad.tsum(ad.mul(out, ad.constant(weights))), head)
    assert all(g is None for g in results[0][:-2])
    for got, want in zip(grads, full[-2:]):
        assert np.array_equal(got.data, want)


def test_generator_rejects_wrong_input_shape():
    gen = TcnGenerator(GanConfig())
    for z_shape, cond_shape in [((4, 98), (4, 98)), ((99,), (99,)), ((4, 99, 1), (4, 99, 1)),
                                ((4, 99), (3, 99)), ((4, 99), (4, 98))]:
        with pytest.raises(ad.ShapeError, match="tcn_generator"):
            gen.forward(np.zeros(z_shape), np.zeros(cond_shape))


def test_generate_matches_reference_graph(tiny_bundle, cond_stock):
    bundle, _, _ = tiny_bundle
    conds = sample_intervals(cond_stock, 6, seed=8)
    cond = np.stack([iv.log_returns for iv in conds])
    z = np.random.default_rng(9).standard_normal(cond.shape)
    with ad.no_record():
        ref = tcn_generator_reference(bundle.generator, z, cond)
    got = generate(bundle, conds, seed=9)
    assert np.max(np.abs(got - ref.data)) < 1e-12 * np.max(np.abs(ref.data))


def _fake_batch(series, n, seed):
    ivs = sample_intervals(series, n, seed=seed)
    rng = np.random.default_rng(seed)
    # perturbed real intervals: a generator-like batch that is not the data itself
    fake = np.stack([iv.log_returns for iv in ivs]) + rng.normal(0, 0.05, (n, 99))
    return fake, np.array([iv.p0 for iv in ivs]), ivs[0].scale_bounds


def test_second_critic_batch_matches_per_sample_reference(cond_stock, toy_model):
    cfg = GanConfig()
    fake, p0s, (lo, hi) = _fake_batch(cond_stock, 6, seed=31)
    dates = _PRICE_DATES[:100]

    leaf = ad.Tensor(fake.copy(), requires_grad=True)
    loss = _forecaster_slope_loss(toy_model, leaf, p0s, (lo, hi), cfg)
    grad = ad.gradient(loss, leaf).data

    ref_leaf = ad.Tensor(fake.copy(), requires_grad=True)
    per_sample = []
    for i in range(len(fake)):
        r = ad.add(ad.mul(ref_leaf[i, :], hi - lo), lo)
        prices = ad.concat([ad.constant([p0s[i]]), ad.mul(ad.texp(ad.cumsum(r)), p0s[i])])
        med = toy_model.core(prices, dates, 1)
        per_sample.append(ad.reshape(slope_loss(ls_slope(med), 1, cfg.c, cfg.d), (1,)))
    ref = ad.tmean(ad.concat(per_sample))
    ref_grad = ad.gradient(ref, ref_leaf).data

    assert max_rel_err([loss.item()], [ref.item()], floor=1e-300) < 1e-12
    # relative to the largest entry: single entries may nearly cancel
    assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))


def test_forecast_slopes_match_per_sample_reference(cond_stock, toy_model):
    fake, p0s, bounds = _fake_batch(cond_stock, 7, seed=32)
    gen, ls = forecast_slopes(toy_model, fake, p0s, bounds)
    assert gen.shape == ls.shape == (7,)
    for i in range(7):
        prices = to_prices(unscale(fake[i], bounds), p0s[i])
        with ad.no_record():
            med = toy_model.core(ad.constant(prices), _PRICE_DATES[:len(prices)], 1).data
        assert max_rel_err([gen[i]], [general_slope_value(med)], floor=1e-300) < 1e-12
        assert max_rel_err([ls[i]], [ls_slope_value(med)], floor=1e-300) < 1e-12


def test_forecast_slopes_reject_intervals_longer_than_one_encoder_window(cond_stock, toy_model):
    # 151 prices would quietly give the slopes of the first 100 alone
    intervals = sample_intervals(cond_stock, 3, seed=0, length=150)
    scaled = np.stack([iv.log_returns for iv in intervals])
    p0s = np.array([iv.p0 for iv in intervals])
    with pytest.raises(ValueError, match="interval_length 150 .* encoder_length 100"):
        forecast_slopes(toy_model, scaled, p0s, scale_bounds(cond_stock))


def test_to_prices_batch_matches_rows_and_rejects_any_bad_row():
    rng = np.random.default_rng(5)
    r = rng.normal(0, 0.01, (3, 99))
    p0s = np.array([10.0, 20.0, 30.0])
    batch = to_prices(r, p0s)
    assert batch.shape == (3, 100)
    for i in range(3):
        assert np.array_equal(batch[i], to_prices(r[i], p0s[i]))
    with pytest.raises(ad.DomainError, match="p0"):
        to_prices(r, np.array([10.0, -1.0, 30.0]))
    r[2, :] = 10.0
    with pytest.raises(ad.DomainError, match="overflow"):
        to_prices(r, p0s)
