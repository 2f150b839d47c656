import numpy as np
import pytest

from slopestrike import autodiff as ad
from slopestrike import attacks, dataio
from slopestrike.attacks import (
    AttackConfig, attack_step, eps_abs, general_slope, general_slope_value,
    ls_slope, ls_slope_value, run_attack, slope_loss, _run_iterative, _sim_guard,
    _loss_builder, _cosine, _predict_path,
)
from slopestrike.dataio import PriceSeries
from slopestrike.forecaster import NhitsConfig, NhitsModel
from helpers import attack_path_gradient, max_rel_err


def _short(series, n=140):
    return series.head(n)


# ---------------------------------------------------------------------------
# budget and slope primitives
# ---------------------------------------------------------------------------

def test_eps_abs_arithmetic():
    s = dataio.synth_gbm(1, 120, 50.0, 0.0, 0.0, seed=0)[0]
    s.adjprc[:] = 100.0
    assert eps_abs(s, 2.0) == 2.0
    assert eps_abs(s, 0.0) == 0.0


def test_attack_step_arithmetic():
    assert attack_step(2.0, 30) == 0.1


def test_even_length_median_convention():
    dates = dataio.business_days(__import__("datetime").date(2020, 1, 6), 4)
    s = PriceSeries("X", dates, np.array([1.0, 2.0, 3.0, 10.0]))
    assert eps_abs(s, 100.0) == 2.5  # mean of the two middle prices


def test_general_slope_examples():
    assert general_slope(ad.constant([1.0, 2.0, 3.0, 4.0, 5.0])).item() == 1.0
    assert general_slope(ad.constant([3.0, 7.0, 3.0])).item() == 0.0
    # a five-day path given as its first and last day
    assert general_slope(ad.constant([1.0, 5.0]), 5).item() == 1.0


def test_general_slope_matches_endpoint_formula():
    rng = np.random.default_rng(0)
    y = rng.normal(size=20)
    assert abs(general_slope_value(y) - (y[-1] - y[0]) / 19.0) < 1e-15


def test_ls_slope_examples():
    assert abs(ls_slope(ad.constant([1.0, 2.0, 3.0])).item() - 1.0) < 1e-12
    assert abs(ls_slope(ad.constant([0.0, 2.0, 1.0])).item() - 0.5) < 1e-12
    assert ls_slope(ad.constant(np.full(9, 4.2))).item() == 0.0


def test_ls_slope_matches_regression_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.normal(10, 3, 25)
        oracle = np.polyfit(np.arange(25.0), y, 1)[0]
        assert abs(ls_slope_value(y) - oracle) < 1e-10


def test_slope_contract_errors():
    with pytest.raises(ValueError):
        general_slope(ad.constant([1.0]))
    with pytest.raises(ValueError, match="a path of 2 days has no 3 entries"):
        general_slope(ad.constant([1.0, 2.0, 3.0]), 2)
    with pytest.raises(ValueError):
        ls_slope(ad.constant([1.0]))


def test_slope_loss_examples():
    assert slope_loss(ad.constant(0.0), 1, 5.0, 2.0).item() == 5.0
    assert slope_loss(ad.constant(2.0), 0, 5.0, 2.0).item() == 20.0
    val = slope_loss(ad.constant(1.0), -1, 5.0, 2.0).item()
    assert abs(val - 5.0 * np.exp(2.0)) < 1e-12
    assert abs(val - 36.945) < 1e-2


def test_slope_loss_shape_properties():
    ms = np.linspace(-3, 3, 41)
    up = [slope_loss(ad.constant(m), 1, 5.0, 2.0).item() for m in ms]
    assert all(b < a for a, b in zip(up, up[1:]))  # strictly decreasing in m
    zero = [slope_loss(ad.constant(m), 0, 5.0, 2.0).item() for m in ms]
    assert min(zero) == zero[20] == 0.0  # unique minimum at m = 0
    assert sum(1 for v in zero if v == 0.0) == 1


# ---------------------------------------------------------------------------
# iterative attack mechanics (toy model, short series)
# ---------------------------------------------------------------------------

def test_zero_budget_is_identity(toy_model, eval_series):
    s = _short(eval_series[0])
    r = run_attack(s, toy_model, AttackConfig("GSA", eps_pct=0.0, iters=3, target_dir=1))
    assert np.array_equal(r.x_adv.adjprc, s.adjprc)
    assert r.before == r.after


def test_fgsm_steps_exactly_epsilon(toy_model, eval_series):
    s = _short(eval_series[1])
    r = run_attack(s, toy_model, AttackConfig("FGSM", eps_pct=2.0))
    delta = np.abs(r.x_adv.adjprc - s.adjprc)
    on_ball = np.isclose(delta, r.eps_abs, atol=1e-12)
    at_zero = delta == 0.0
    assert np.all(on_ball | at_zero)
    assert on_ball.mean() > 0.9  # nearly every coordinate carries gradient


def test_bim_single_iteration_reproduces_fgsm(toy_model, eval_series):
    s = _short(eval_series[2])
    a = run_attack(s, toy_model, AttackConfig("FGSM", eps_pct=2.0))
    b = run_attack(s, toy_model, AttackConfig("BIM", eps_pct=2.0, iters=1))
    assert np.array_equal(a.x_adv.adjprc, b.x_adv.adjprc)


def test_mifgsm_zero_momentum_equals_bim(toy_model, eval_series):
    s = _short(eval_series[3])
    a = run_attack(s, toy_model, AttackConfig("BIM", eps_pct=2.0, iters=6))
    b = run_attack(s, toy_model, AttackConfig("MIFGSM", eps_pct=2.0, iters=6, mu=0.0))
    assert np.array_equal(a.x_adv.adjprc, b.x_adv.adjprc)


def test_mifgsm_loss_scale_invariance(toy_model, eval_series):
    s = _short(eval_series[4])
    cfg = AttackConfig("MIFGSM", eps_pct=2.0, iters=5)
    eps = eps_abs(s, cfg.eps_pct)
    base_loss = _loss_builder(cfg, s, eps, toy_model.config.encoder_length)

    def scaled_loss(path):
        loss, slope = base_loss(path)
        return ad.mul(loss, 10.0), slope

    x1, *_ = _run_iterative(s, toy_model, cfg, base_loss, eps, 5)
    x2, *_ = _run_iterative(s, toy_model, cfg, scaled_loss, eps, 5)
    assert np.array_equal(x1, x2)


def test_sim_guard_self_similarity():
    adj = np.linspace(40, 60, 50)
    x = adj.copy()
    assert np.array_equal(_sim_guard(x, adj, 1.0), adj)


def test_cosine_scale_invariant():
    rng = np.random.default_rng(2)
    v = rng.normal(50, 3, 30)
    assert _cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    assert _cosine(v, 7.5 * v) == pytest.approx(1.0, abs=1e-12)


def test_tim_zero_margin_loss_trend(toy_model, eval_series):
    s = _short(eval_series[5])
    r = run_attack(s, toy_model, AttackConfig("TIM", eps_pct=2.0, iters=8, gamma=0.0))
    assert r.trace[-1][1] <= r.trace[0][1]


def test_epsilon_ball_containment_all_iterative_methods(toy_model, eval_series):
    s = _short(eval_series[6])
    for method in ("FGSM", "BIM", "MIFGSM", "SIM", "TIM", "GSA", "LSSA"):
        r = run_attack(s, toy_model, AttackConfig(method, eps_pct=2.0, iters=12, target_dir=1))
        assert np.max(np.abs(r.x_adv.adjprc - s.adjprc)) <= r.eps_abs + 1e-9, method


def test_attack_deterministic(toy_model, eval_series):
    s = _short(eval_series[7])
    cfg = AttackConfig("LSSA", eps_pct=1.0, iters=4, target_dir=1)
    a = run_attack(s, toy_model, cfg)
    b = run_attack(s, toy_model, cfg)
    assert np.array_equal(a.x_adv.adjprc, b.x_adv.adjprc)
    assert a.trace == b.trace


def test_gsa_gradient_zero_at_interior_predictions(toy_model, eval_series):
    s = _short(eval_series[8])
    cfg = AttackConfig("GSA", eps_pct=2.0, iters=1, target_dir=1)
    g = attack_path_gradient(toy_model, cfg, s, s.adjprc)
    assert g.shape[0] == len(s) - toy_model.config.encoder_length
    assert np.all(g[1:-1] == 0.0)
    assert g[0] != 0.0 and g[-1] != 0.0


def test_attack_leaves_forecaster_grads_unset(toy_model, eval_series):
    s = _short(eval_series[8])
    before = toy_model.param_bytes()
    for method in ("GSA", "CW_GSA"):
        run_attack(s, toy_model, AttackConfig(method, eps_pct=2.0, iters=2, target_dir=1))
        assert toy_model.param_bytes() == before, method


def test_lssa_gradient_touches_interior(toy_model, eval_series):
    s = _short(eval_series[8])
    cfg = AttackConfig("LSSA", eps_pct=2.0, iters=1, target_dir=1)
    g = attack_path_gradient(toy_model, cfg, s, s.adjprc)
    assert np.count_nonzero(g[1:-1]) > 0


@pytest.mark.parametrize("method", ["BIM", "CW_GSA"])
def test_path_before_is_the_unrecorded_clean_forecast(toy_model, eval_series, method):
    s = _short(eval_series[9])
    r = run_attack(s, toy_model, AttackConfig(method, eps_pct=2.0, iters=2, target_dir=1))
    with ad.no_record():
        clean = toy_model.core(ad.constant(s.adjprc), s.dates,
                               len(s) - toy_model.config.min_series_length + 1)
    assert np.array_equal(r.path_before, clean.data)


@pytest.mark.parametrize("days", [300, 150, 120], ids=["disjoint", "overlapping", "one-window"])
@pytest.mark.parametrize("target_dir", [1, -1])
@pytest.mark.parametrize("method", ["GSA", "CW_GSA"])
def test_end_days_forecast_matches_the_full_path(toy_model, eval_series, method, target_dir,
                                                 days):
    # the end windows of 300 days are disjoint, of 150 days (31 windows of
    # 100) they overlap, and 120 days hold one window: the slope objective
    # on the two end days gives the full path's loss, slope and price gradient
    s = eval_series[10].head(days)
    cfg = AttackConfig(method, eps_pct=2.0, target_dir=target_dir)
    loss_fn = _loss_builder(cfg, s, eps_abs(s, cfg.eps_pct), toy_model.config.encoder_length)
    runs = []
    for ends in (False, True):
        x = ad.Tensor(s.adjprc.copy(), requires_grad=True)
        path = _predict_path(toy_model, x, s.dates, ends)
        loss, slope = loss_fn(path)
        runs.append((path.data[[0, -1]], loss.item(), slope, ad.gradient(loss, x).data))
    (full, loss_f, slope_f, g_f), (two, loss_e, slope_e, g_e) = runs
    assert two.shape == (2,)
    assert max_rel_err(two, full, floor=1e-300) < 1e-12
    assert max_rel_err([loss_e, slope_e], [loss_f, slope_f], floor=1e-300) < 1e-12
    # relative to the largest entry: most prices reach the loss only through
    # the exogenous standardisation, which gives them small gradients
    assert np.max(np.abs(g_e - g_f)) <= 1e-12 * np.max(np.abs(g_f))
    assert np.count_nonzero(g_f) == days


@pytest.mark.parametrize("method", ["GSA", "CW_GSA"])
def test_end_days_attack_follows_the_full_path_attack(toy_model, eval_series, method,
                                                      monkeypatch):
    s = eval_series[11].head(150)
    cfg = AttackConfig(method, eps_pct=2.0, iters=4, target_dir=-1)
    ends = run_attack(s, toy_model, cfg)
    monkeypatch.setattr(attacks, "_reads_ends", lambda cfg: False)
    full = run_attack(s, toy_model, cfg)
    assert np.array_equal(ends.path_before, full.path_before)
    assert max_rel_err(ends.x_adv.adjprc, full.x_adv.adjprc, floor=1e-300) < 1e-12
    assert max_rel_err(ends.trace, full.trace, floor=1e-300) < 1e-12


@pytest.mark.parametrize("days", [300, 120])
def test_gsa_iterations_forecast_only_the_end_windows(toy_model, eval_series, monkeypatch, days):
    # the stacks' rows in order: GSA and CW_GSA forecast every window unrecorded
    # for the clean path, the end windows in each iteration, and every window
    # for the attacked path; LSSA and BIM every window throughout
    rows = []
    forward = NhitsModel._stacks_forward

    def counting(self, ws, x, first, keep):
        rows.append(x.shape[0])
        return forward(self, ws, x, first, keep)

    monkeypatch.setattr(NhitsModel, "_stacks_forward", counting)
    s = eval_series[12].head(days)
    n = days - toy_model.config.min_series_length + 1
    two = min(n, 2)
    expected = {"GSA": [n, two, two, n], "CW_GSA": [n, two, two, n],
                "LSSA": [n, n, n], "BIM": [n, n, n]}
    for method, want in expected.items():
        rows.clear()
        run_attack(s, toy_model, AttackConfig(method, eps_pct=2.0, iters=2))
        assert rows == want, method


# ---------------------------------------------------------------------------
# C&W family
# ---------------------------------------------------------------------------

def test_cw_zero_tradeoff_keeps_noise_zero(toy_model, eval_series):
    s = _short(eval_series[9])
    r = run_attack(s, toy_model, AttackConfig("CW_GSA", target_dir=1, lambda_cw=0.0, iters=5))
    assert np.array_equal(r.x_adv.adjprc, s.adjprc)
    assert r.l2_norm == 0.0


@pytest.mark.parametrize("method", ["CW", "CW_GSA"])
def test_cw_calls_on_iteration_every_iteration(toy_model, eval_series, method):
    s = _short(eval_series[9])
    r = run_attack(s, toy_model, AttackConfig(method, target_dir=1, iters=3))
    assert [i for i, _, _ in r.trace] == [0, 1, 2]


def test_cw_gsa_raises_slope_with_small_noise(toy_model, eval_series):
    s = _short(eval_series[0], 160)
    r = run_attack(s, toy_model, AttackConfig("CW_GSA", target_dir=1, lambda_cw=20.0, iters=150))
    assert r.after["gen_slope"] > r.before["gen_slope"]
    assert r.l2_norm / np.linalg.norm(s.adjprc) < 0.05


def test_cw_lambda_doubling_soft_check(toy_model, eval_series):
    # monotone-pressure check is recorded, not hard-asserted
    s = _short(eval_series[1], 160)
    lo = run_attack(s, toy_model, AttackConfig("CW_GSA", target_dir=1, lambda_cw=10.0, iters=60))
    hi = run_attack(s, toy_model, AttackConfig("CW_GSA", target_dir=1, lambda_cw=20.0, iters=60))
    d_lo = abs(lo.after["gen_slope"] - lo.before["gen_slope"])
    d_hi = abs(hi.after["gen_slope"] - hi.before["gen_slope"])
    print(f"\n[soft] CW_GSA slope shift lambda=10: {d_lo:.5f}, lambda=20: {d_hi:.5f}, "
          f"monotone={'yes' if d_hi >= d_lo else 'NO'}")


# ---------------------------------------------------------------------------
# seeded trend experiments (module-level analogues of the attack table)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trend_results(toy_model, eval_series):
    out = {m: [] for m in ("FGSM", "BIM", "MIFGSM", "SIM", "TIM")}
    for s in eval_series[:20]:
        head = s.head(160)
        for method in out:
            kw = dict(eps_pct=2.0, iters=10)
            if method == "TIM":
                kw["gamma"] = float(np.median(head.adjprc)) * 0.01
                kw["target_dir"] = 1
            out[method].append(run_attack(head, toy_model, AttackConfig(method, **kw)))
    return out


def test_fgsm_never_reduces_error(trend_results):
    rs = trend_results["FGSM"]
    assert all(r.after["mae"] >= r.before["mae"] for r in rs)


def test_bim_at_least_as_strong_as_fgsm_usually(trend_results):
    wins = sum(1 for f, b in zip(trend_results["FGSM"], trend_results["BIM"])
               if b.after["mae"] >= f.after["mae"])
    assert wins >= 14  # >= 70% of 20 series


def test_mifgsm_close_to_bim(trend_results):
    bim = np.mean([r.trace[-1][1] for r in trend_results["BIM"]])
    mif = np.mean([r.trace[-1][1] for r in trend_results["MIFGSM"]])
    assert abs(bim - mif) / bim < 0.05


def test_sim_stealthier_than_bim(trend_results, eval_series):
    wins = 0
    for s, sim_res, bim_res in zip(eval_series[:20], trend_results["SIM"], trend_results["BIM"]):
        orig = s.head(160).adjprc
        if _cosine(orig, sim_res.x_adv.adjprc) >= _cosine(orig, bim_res.x_adv.adjprc):
            wins += 1
    assert wins >= 16  # >= 80% of 20 series


def test_tim_up_raises_mean_prediction(trend_results):
    wins = sum(1 for r in trend_results["TIM"]
               if r.path_after.mean() > r.path_before.mean())
    assert wins >= 16  # >= 80% of 20 series


def test_attack_iteration_records_few_nodes(monkeypatch):
    # one iteration records the forecast op, prices to median path (71 graph
    # nodes before the features and the forecaster became ops, then two ops),
    # and the method's objective on the path
    kinds = []

    class CountingNode(ad.Node):
        __slots__ = ()

        def __init__(self, kind, *rest):
            kinds.append(kind)
            super().__init__(kind, *rest)

    model = NhitsModel(NhitsConfig(), seed=0)
    series = dataio.synth_gbm(1, 300, 90.0, 7e-4, 0.009, seed=12)[0]
    monkeypatch.setattr(ad, "Node", CountingNode)
    objectives = {
        "GSA": ["slice", "slice", "sub", "mul", "mul", "exp", "mul", "mean"],
        "LSSA": ["mean", "expand", "sub", "mul", "sum", "mul", "mul", "exp", "mul", "mean"],
        "BIM": ["sub", "abs", "mean"],
    }
    for method, objective in objectives.items():
        kinds.clear()
        run_attack(series, model, AttackConfig(method, eps_pct=2.0, iters=1))
        assert kinds == ["nhits_forecast"] + objective, method
    assert [len(o) + 1 for o in objectives.values()] == [9, 11, 4]
