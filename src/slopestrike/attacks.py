"""White-box attacks on the forecaster.

All iterative attacks share one loop: recompute the features from the current
adversarial prices (so gradients reach the raw series), run the rolling
forecast, take a loss on the averaged median path, backpropagate, then move
each price by ``step * sign(gradient)`` and clamp back into the epsilon ball
around the original series.  The slope attacks replace the error loss with an
objective on the forecast's slope; the C&W variants instead optimise an
additive noise vector under an L2-norm penalty with no epsilon clamp.

Methods: FGSM, BIM, MIFGSM, SIM, TIM, GSA, LSSA, CW, CW_GSA, CW_LSSA.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import PriceSeries
from .features import compute_features
from .forecaster import NhitsModel, NumericalError
from .metrics import error_metrics

logger = logging.getLogger(__name__)

METHODS = ("FGSM", "BIM", "MIFGSM", "SIM", "TIM", "CW", "GSA", "LSSA", "CW_GSA", "CW_LSSA")

ATTACK_WINDOW = 300          # attacks run on the first 300 days of a recording
DEFAULT_ITERS = 30
FGSM_ITERS = 1
CW_ITERS = 200
CW_STEP_FACTOR = 0.01        # C&W gradient-descent step = factor * median price


@dataclass
class AttackConfig:
    method: str
    eps_pct: float = 2.0
    iters: int | None = None     # None -> per-method default
    target_dir: int = 1          # t in {-1, 0, +1}
    c: float = 5.0
    d: float = 2.0
    mu: float = 0.35             # MI-FGSM decay
    gamma: float | None = None   # TIM margin; None -> epsilon
    lambda_cw: float = 20.0      # C&W trade-off, desk-tuned

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'; valid: {', '.join(METHODS)}")
        if self.eps_pct < 0:
            raise ValueError(f"eps_pct must be >= 0, got {self.eps_pct}")
        if self.target_dir not in (-1, 0, 1):
            raise ValueError(f"target_dir must be in {{-1,0,1}}, got {self.target_dir}")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError(f"mu must be in [0,1), got {self.mu}")
        if self.iters is not None and self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")

    def resolved_iters(self) -> int:
        if self.method == "FGSM":
            return FGSM_ITERS
        if self.iters is not None:
            return self.iters
        return CW_ITERS if self.method.startswith("CW") else DEFAULT_ITERS


@dataclass
class AttackResult:
    x_adv: PriceSeries
    eps_abs: float
    trace: list[tuple[int, float, float]]        # (iteration, loss, slope)
    before: dict[str, float]
    after: dict[str, float]
    path_before: np.ndarray
    path_after: np.ndarray
    l2_norm: float | None = None                 # C&W noise norm


# ---------------------------------------------------------------------------
# slope measures and the slope objective
# ---------------------------------------------------------------------------

def general_slope(pred: Tensor) -> Tensor:
    """Endpoint slope (y_last - y_first) / (N - 1) with the day index as x."""
    n = pred.shape[0]
    if pred.ndim != 1 or n < 2:
        raise ValueError(f"general_slope needs a 1-D series of length >= 2, got {pred.shape}")
    return ad.mul(ad.sub(pred[n - 1:n], pred[0:1]), 1.0 / (n - 1))


def ls_slope(pred: Tensor) -> Tensor:
    """Least-squares regression slope of the series against x = 0..N-1."""
    n = pred.shape[0]
    if pred.ndim != 1 or n < 2:
        raise ValueError(f"ls_slope needs a 1-D series of length >= 2, got {pred.shape}")
    x = np.arange(n, dtype=np.float64)
    xc = x - x.mean()
    ybar = ad.tmean(pred)
    centred = ad.sub(pred, ybar)
    num = ad.tsum(ad.mul(ad.constant(xc), centred))
    return ad.mul(num, 1.0 / float(np.sum(xc * xc)))


def general_slope_value(pred) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    return float((pred[-1] - pred[0]) / (len(pred) - 1))


def ls_slope_value(pred) -> float:
    with ad.no_record():
        return ls_slope(ad.constant(pred)).item()


def slope_loss(m: Tensor, t: int, c: float, d: float) -> Tensor:
    """c * exp(-t*d*m) for directional targets, c * m^2 for the zero target."""
    if t not in (-1, 0, 1):
        raise ValueError(f"target direction must be in {{-1,0,1}}, got {t}")
    if t == 0:
        return ad.mul(ad.mul(m, m), c)
    return ad.mul(ad.texp(ad.mul(m, -t * d)), c)


def eps_abs(series: PriceSeries, eps_pct: float) -> float:
    """Perturbation budget: median price times the relative percentage.

    Even-length series take the mean of the two middle prices as the median.
    """
    if eps_pct < 0:
        raise ValueError(f"eps_pct must be >= 0, got {eps_pct}")
    return float(np.median(series.adjprc)) * eps_pct / 100.0


def attack_step(eps: float, iters: int) -> float:
    """Iterative step size 1.5 * eps / iters."""
    return 1.5 * eps / iters


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _sim_guard(x: np.ndarray, adj: np.ndarray, eps: float) -> np.ndarray:
    """Two sequential similarity guards; each replaces x wholesale on failure."""
    if _cosine(adj, x) < _cosine(adj, adj + eps):
        x = adj + eps
    if _cosine(adj, x) < _cosine(adj, adj - eps):
        x = adj - eps
    return x


def _path_metrics(path: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    mae, rmse, mape = error_metrics(path, truth)
    return {"mae": mae, "rmse": rmse, "mape": mape,
            "gen_slope": general_slope_value(path),
            "ls_slope": ls_slope_value(path)}


def _attack_window(series: PriceSeries, model: NhitsModel) -> PriceSeries:
    need = model.config.min_series_length
    if len(series) < need:
        raise ValueError(f"{series.ticker}: {len(series)} days < required {need}")
    return series.head(min(ATTACK_WINDOW, len(series)))


def _predict_path(model: NhitsModel, prices: Tensor, dates) -> Tensor:
    fm = compute_features(prices, dates)
    return model.rolling_median_path(fm)


def _clean_path(model: NhitsModel, window: PriceSeries) -> np.ndarray:
    with ad.no_record():
        return _predict_path(model, ad.constant(window.adjprc), window.dates).data.copy()


def _loss_builder(cfg: AttackConfig, window: PriceSeries, eps: float, encoder: int):
    """Returns (loss_fn, descent) where loss_fn(path) -> (loss, slope_value)."""
    horizon_truth = window.adjprc[encoder:]

    def l1_untargeted(path: Tensor):
        loss = ad.tmean(ad.tabs(ad.sub(path, ad.constant(horizon_truth))))
        return loss, general_slope_value(path.data)

    if cfg.method in ("FGSM", "BIM", "MIFGSM", "SIM"):
        return l1_untargeted, False  # ascent maximises the error

    if cfg.method == "TIM":
        gamma = eps if cfg.gamma is None else cfg.gamma
        target = horizon_truth + cfg.target_dir * gamma

        def tim_loss(path: Tensor):
            loss = ad.tmean(ad.tabs(ad.sub(path, ad.constant(target))))
            return loss, general_slope_value(path.data)

        return tim_loss, True  # descent minimises distance to the target

    if cfg.method in ("GSA", "LSSA"):
        measure = general_slope if cfg.method == "GSA" else ls_slope

        def sl(path: Tensor):
            m = measure(path)
            loss = slope_loss(m, cfg.target_dir, cfg.c, cfg.d)
            return ad.tmean(loss), float(m.data.reshape(-1)[0])

        return sl, True  # descent minimises the slope objective

    raise ValueError(f"no iterative loss for method {cfg.method}")


def _run_iterative(window: PriceSeries, model: NhitsModel, cfg: AttackConfig,
                   loss_fn, descent: bool, eps: float, iters: int,
                   on_iteration=None) -> tuple[np.ndarray, list]:
    adj = window.adjprc
    alpha = eps if cfg.method == "FGSM" else attack_step(eps, iters)
    lo, hi = adj - eps, adj + eps
    x = adj.copy()
    g_accum = np.zeros_like(adj)
    trace = []
    for i in range(iters):
        x_t = ad.Tensor(x, requires_grad=True)
        path = _predict_path(model, x_t, window.dates)
        loss, slope = loss_fn(path)
        lval = loss.item()
        if not np.isfinite(lval):
            raise NumericalError(f"{cfg.method}: loss became non-finite at iteration {i}")
        trace.append((i, lval, slope))
        if on_iteration is None:
            grad = ad.gradient(loss, x_t).data
        else:
            gx, gpath = ad.gradients(loss, [x_t, path])
            grad = x_t.grad = gx.data
            path.grad = gpath.data
            on_iteration(i, path, x_t)
        with ad.no_record():
            if cfg.method == "MIFGSM":
                norm1 = np.abs(grad).sum()
                if norm1 > 0.0:
                    g_accum = cfg.mu * g_accum + grad / norm1
                else:
                    g_accum = cfg.mu * g_accum
                step_dir = np.sign(g_accum)
            else:
                step_dir = np.sign(grad)
            x = x - alpha * step_dir if descent else x + alpha * step_dir
            x = np.clip(x, lo, hi)
            if cfg.method == "SIM":
                x = _sim_guard(x, adj, eps)
    return x, trace


def _run_cw(window: PriceSeries, model: NhitsModel, cfg: AttackConfig,
            iters: int) -> tuple[np.ndarray, list, float]:
    adj = window.adjprc
    horizon_truth = adj[model.config.encoder_length:]
    med = float(np.median(adj))
    step = CW_STEP_FACTOR * med
    gamma = eps_abs(window, cfg.eps_pct) if cfg.gamma is None else cfg.gamma
    target = horizon_truth - gamma  # targeted below the original series

    def objective(path: Tensor):
        if cfg.method == "CW":
            f = ad.tmean(ad.tabs(ad.sub(path, ad.constant(target))))
            return f, general_slope_value(path.data)
        measure = general_slope if cfg.method == "CW_GSA" else ls_slope
        m = measure(path)
        return ad.tmean(slope_loss(m, cfg.target_dir, cfg.c, cfg.d)), float(m.data.reshape(-1)[0])

    eta = np.zeros_like(adj)
    trace = []
    for i in range(iters):
        eta_t = ad.Tensor(eta, requires_grad=True)
        x = ad.add(ad.constant(adj), eta_t)
        if np.any(x.data <= 0.0):
            raise NumericalError(f"{cfg.method}: noise drove prices non-positive at iteration {i}")
        path = _predict_path(model, x, window.dates)
        f, slope = objective(path)
        norm = ad.tsqrt(ad.tsum(ad.mul(eta_t, eta_t)))
        obj = ad.add(norm, ad.mul(f, cfg.lambda_cw))
        oval = obj.item()
        if not np.isfinite(oval):
            raise NumericalError(f"{cfg.method}: objective became non-finite at iteration {i}")
        trace.append((i, oval, slope))
        eta = eta - step * ad.gradient(obj, eta_t).data
    return adj + eta, trace, float(np.linalg.norm(eta))


def run_attack(series: PriceSeries, model: NhitsModel, config: AttackConfig,
               on_iteration=None) -> AttackResult:
    """Attack the first 300 days (or the whole series if shorter).

    Every iterative method's output satisfies max|x_adv - adjprc| <= eps; the
    C&W variants are unconstrained and report the L2 norm of their noise.
    Each iteration differentiates only with respect to the prices, so the
    forecaster's ``grad`` buffers are never written.  ``on_iteration(i, path,
    x_t)``, if given, is called after each iteration's gradient, with the loss
    gradient in ``path.grad`` (median path) and ``x_t.grad`` (prices).
    """
    window = _attack_window(series, model)
    eps = eps_abs(window, config.eps_pct)
    iters = config.resolved_iters()
    truth = window.adjprc[model.config.encoder_length:]
    path_before = _clean_path(model, window)
    l2 = None
    if config.method.startswith("CW"):
        x_adv, trace, l2 = _run_cw(window, model, config, iters)
    else:
        loss_fn, descent = _loss_builder(config, window, eps, model.config.encoder_length)
        x_adv, trace = _run_iterative(window, model, config, loss_fn, descent,
                                      eps, iters, on_iteration)
    with ad.no_record():
        path_after = _predict_path(model, ad.constant(x_adv), window.dates).data.copy()
    adv_series = PriceSeries(window.ticker, window.dates, x_adv)
    return AttackResult(
        x_adv=adv_series,
        eps_abs=eps,
        trace=trace,
        before=_path_metrics(path_before, truth),
        after=_path_metrics(path_after, truth),
        path_before=path_before,
        path_after=path_after,
        l2_norm=l2,
    )
