"""White-box attacks on the forecaster.

All ten methods share one loop: forecast the windows of the current prices
that the objective reads with the forecast op, which derives the features
itself (so gradients reach the raw series), take a loss on the averaged median
path and its gradient with respect to the loop's leaf alone: the prices, or
the C&W noise.  The sign methods step the prices by ``step * sign(gradient)``
and clamp them into the epsilon ball around the original series; the C&W
variants take plain gradient steps on an additive noise vector under an
L2-norm penalty, with no clamp.
The L1 methods measure the distance to a target path and the slope methods
(GSA, LSSA, CW_GSA, CW_LSSA) take an objective on the forecast's slope.  GSA's
endpoint slope reads only the path's first and last day, which windows 0 and
N - 1 alone cover, so GSA and CW_GSA forecast only those two windows in each
iteration and take the unattacked path from one unrecorded full forecast.  For
every other method the first iteration runs on the clean prices, and its
forecast is the unattacked path.

Methods: FGSM, BIM, MIFGSM, SIM, TIM, GSA, LSSA, CW, CW_GSA, CW_LSSA.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import PriceSeries
from .forecaster import NhitsModel, NumericalError
from .metrics import error_metrics

logger = logging.getLogger(__name__)

METHODS = ("FGSM", "BIM", "MIFGSM", "SIM", "TIM", "CW", "GSA", "LSSA", "CW_GSA", "CW_LSSA")
UNTARGETED = ("FGSM", "BIM", "MIFGSM", "SIM")   # ascend the error; the others descend

ATTACK_WINDOW = 300          # attacks run on the first 300 days of a recording
DEFAULT_ITERS = 30
FGSM_ITERS = 1
CW_ITERS = 200
CW_STEP_FACTOR = 0.01        # C&W gradient-descent step = factor * median price


@dataclass
class AttackConfig:
    c: ClassVar[float] = 5.0     # slope loss c * exp(-t*d*m)
    d: ClassVar[float] = 2.0
    method: str
    eps_pct: float = 2.0
    iters: int | None = None     # None -> per-method default
    target_dir: int = 1          # t in {-1, 0, +1}
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

def _check_series(kind: str, pred) -> int:
    if pred.ndim not in (1, 2) or pred.shape[-1] < 2:
        raise ValueError(f"{kind} needs series (N,) or (B, N) with N >= 2, got {pred.shape}")
    return pred.shape[-1]


def general_slope(pred: Tensor, days: int | None = None) -> Tensor:
    """Endpoint slope (y_last - y_first) / (days - 1) with the day index as x;
    (B, N) -> (B,).  ``days`` defaults to N; a path of more days may come as
    its first and last day alone, which is all the slope reads."""
    n = _check_series("general_slope", pred)
    days = n if days is None else days
    if days < n:
        raise ValueError(f"general_slope: a path of {days} days has no {n} entries")
    return ad.mul(ad.sub(pred[..., -1], pred[..., 0]), 1.0 / (days - 1))


def ls_slope(pred: Tensor) -> Tensor:
    """Least-squares regression slope against x = 0..N-1; (B, N) -> (B,)."""
    n = _check_series("ls_slope", pred)
    x = np.arange(n, dtype=np.float64)
    xc = x - x.mean()
    ybar = ad.expand(ad.tmean(pred, axis=-1), pred.shape, -1)
    num = ad.tsum(ad.mul(ad.constant(xc), ad.sub(pred, ybar)), axis=-1)
    return ad.mul(num, 1.0 / float(np.sum(xc * xc)))


def general_slope_value(pred):
    """``general_slope`` without a graph: a float, or (B,) values for a batch."""
    pred = np.asarray(pred, dtype=np.float64)
    slope = (pred[..., -1] - pred[..., 0]) / (_check_series("general_slope", pred) - 1)
    return slope if slope.ndim else float(slope)


def ls_slope_value(pred):
    """``ls_slope`` without a graph: a float, or (B,) values for a batch."""
    with ad.no_record():
        slope = ls_slope(ad.constant(pred)).data
    return slope if slope.ndim else float(slope)


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


def _predict_path(model: NhitsModel, prices: Tensor, dates, ends: bool = False) -> Tensor:
    """The median path over every window of the prices, or its two end days."""
    return model.core(prices, dates, len(dates) - model.config.min_series_length + 1, ends)


def _clean_path(model: NhitsModel, prices: np.ndarray, dates) -> np.ndarray:
    """The full median path of fixed prices, with no graph."""
    with ad.no_record():
        return _predict_path(model, ad.constant(prices), dates).data.copy()


def _reads_ends(cfg: AttackConfig) -> bool:
    """Whether the method's objective reads only the path's first and last day:
    GSA's endpoint slope, so its iterations forecast only the two end windows."""
    return cfg.method.removeprefix("CW_") == "GSA"


def _loss_builder(cfg: AttackConfig, window: PriceSeries, eps: float, encoder: int):
    """loss_fn(path) -> (loss, slope_value) for every method.

    GSA, LSSA and their C&W variants take the slope objective.  GSA's reads
    the path's first and last entry and its day count, len(window) - encoder,
    so it gives one value on the full path and on its two end days.  The others
    take the mean L1 distance to a target path: the truth, shifted by
    ``target_dir * gamma`` for TIM and by ``-gamma`` for CW (gamma defaults
    to eps).
    """
    objective = cfg.method.removeprefix("CW_")
    if objective in ("GSA", "LSSA"):
        n_days = len(window) - encoder

        def slope_objective(path: Tensor):
            m = general_slope(path, n_days) if objective == "GSA" else ls_slope(path)
            loss = slope_loss(m, cfg.target_dir, cfg.c, cfg.d)
            return ad.tmean(loss), float(m.data.reshape(-1)[0])

        return slope_objective

    target = window.adjprc[encoder:]
    shift = {"TIM": cfg.target_dir, "CW": -1}.get(cfg.method)
    if shift is not None:
        gamma = eps if cfg.gamma is None else cfg.gamma
        target = target + shift * gamma

    def l1_distance(path: Tensor):
        loss = ad.tmean(ad.tabs(ad.sub(path, ad.constant(target))))
        return loss, general_slope_value(path.data)

    return l1_distance


def _run_iterative(window: PriceSeries, model: NhitsModel, cfg: AttackConfig,
                   loss_fn, eps: float, iters: int):
    """Returns (x_adv, trace, path_before, l2_norm); the C&W leaf is the noise
    eta (prices = adj + eta) and its loss ||eta||_2 + lambda * loss_fn.

    A method whose objective reads only the path's end days (``_reads_ends``)
    forecasts only those in its iterations and takes its clean path from one
    unrecorded forecast; the others take it from the first iteration's."""
    adj = window.adjprc
    ends = _reads_ends(cfg)
    path_before = _clean_path(model, adj, window.dates) if ends else None
    cw = cfg.method.startswith("CW")
    ascend = cfg.method in UNTARGETED
    alpha = eps if cfg.method == "FGSM" else attack_step(eps, iters)
    cw_step = CW_STEP_FACTOR * float(np.median(adj))
    lo, hi = adj - eps, adj + eps
    x = adj.copy()
    eta = np.zeros_like(adj)
    g_accum = np.zeros_like(adj)
    trace = []
    for i in range(iters):
        if cw:
            leaf = ad.Tensor(eta, requires_grad=True)
            x_t = ad.add(ad.constant(adj), leaf)
        else:
            leaf = x_t = ad.Tensor(x, requires_grad=True)
        if np.any(x_t.data <= 0.0):
            raise NumericalError(f"{cfg.method}: prices became non-positive at iteration {i}")
        path = _predict_path(model, x_t, window.dates, ends)
        if path_before is None:
            path_before = path.data.copy()
        loss, slope = loss_fn(path)
        if cw:
            norm = ad.tsqrt(ad.tsum(ad.mul(leaf, leaf)))
            loss = ad.add(norm, ad.mul(loss, cfg.lambda_cw))
        lval = loss.item()
        if not np.isfinite(lval):
            raise NumericalError(f"{cfg.method}: loss became non-finite at iteration {i}")
        trace.append((i, lval, slope))
        grad = ad.gradient(loss, leaf).data
        if cw:
            eta = eta - cw_step * grad
            continue
        if cfg.method == "MIFGSM":
            norm1 = np.abs(grad).sum()
            g_accum = cfg.mu * g_accum + grad / norm1 if norm1 > 0.0 else cfg.mu * g_accum
            step_dir = np.sign(g_accum)
        else:
            step_dir = np.sign(grad)
        x = x + alpha * step_dir if ascend else x - alpha * step_dir
        x = np.clip(x, lo, hi)
        if cfg.method == "SIM":
            x = _sim_guard(x, adj, eps)
    if cw:
        return adj + eta, trace, path_before, float(np.linalg.norm(eta))
    return x, trace, path_before, None


def run_attack(series: PriceSeries, model: NhitsModel, config: AttackConfig) -> AttackResult:
    """Attack the first 300 days (or the whole series if shorter).

    Every iterative method's output satisfies max|x_adv - adjprc| <= eps; the
    C&W variants are unconstrained and report the L2 norm of their noise.
    Each iteration differentiates only with respect to its leaf (the prices,
    or the C&W noise), so no product reaches the forecaster's weights.
    """
    window = _attack_window(series, model)
    eps = eps_abs(window, config.eps_pct)
    encoder = model.config.encoder_length
    loss_fn = _loss_builder(config, window, eps, encoder)
    x_adv, trace, path_before, l2 = _run_iterative(window, model, config, loss_fn, eps,
                                                   config.resolved_iters())
    path_after = _clean_path(model, x_adv, window.dates)
    truth = window.adjprc[encoder:]
    return AttackResult(
        x_adv=PriceSeries(window.ticker, window.dates, x_adv),
        eps_abs=eps,
        trace=trace,
        before=_path_metrics(path_before, truth),
        after=_path_metrics(path_after, truth),
        path_before=path_before,
        path_after=path_after,
        l2_norm=l2,
    )
