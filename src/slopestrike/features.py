"""Per-day features derived from the adjusted price, as numpy kernels.

The prices are one series (T,) or a batch of series (B, T) that share their
dates; both shapes run the same code, along the last axis.  ``price_features``
computes the continuous channels and ``price_features_vjp`` takes a gradient on
them back to the prices.  The forecast op (``NhitsModel.core``) runs both
inside its own node, so a loss on the forecast differentiates all the way back
to the raw prices; ``weekday_one_hot`` checks the prices and dates for it and
encodes the weekdays.  Rolling means and standard deviations zero-pad each
series with 19 days in front, take every 20-day window as a view, sum each
window's last w days with one product and divide by the number of real days
among them.  So the first w-1 days average over however many days exist, and
the feature matrix stays aligned with the price series.  The stds take the
raw-moment form E[y^2] - E[y]^2 on prices recentred per series, clamped at 0.
The EMAs scan e_t = beta p_t + (1-beta) e_{t-1} from e_0 = p_0
(beta = 2 / (w + 1)) in Python.  The kernels repeat the arithmetic of the
per-op graph they replaced, including the order in which the engine added its
gradients, so values and gradients are bit-identical to it; without ``keep``
nothing is saved for the vjp.  Time and memory are linear in the series length.

Channels, in order:
    adjprc,
    rolling_mean_5, rolling_mean_10, rolling_mean_20,
    rolling_std_5, rolling_std_10, rolling_std_20,
    log_return, roc_5,
    ema_5, ema_10, ema_20
plus a categorical day-of-week (Monday=0), one-hot over the five weekdays.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from . import autodiff as ad

CHANNELS = (
    "adjprc",
    "rolling_mean_5", "rolling_mean_10", "rolling_mean_20",
    "rolling_std_5", "rolling_std_10", "rolling_std_20",
    "log_return", "roc_5",
    "ema_5", "ema_10", "ema_20",
)

MIN_LENGTH = 21  # largest rolling window (20) + the roc delta warm-up

_WINDOWS = (5, 10, 20)
_SPAN = max(_WINDOWS)
# column j of a window's tap weights sums its last _WINDOWS[j] days
_LAST_W = np.array([[k >= _SPAN - w for w in _WINDOWS] for k in range(_SPAN)], dtype=float)
_LAST_W_T = np.ascontiguousarray(_LAST_W.T)
_BETAS = tuple(2.0 / (w + 1.0) for w in _WINDOWS)


def _decay_scan(x: np.ndarray, gain: float, decay: float) -> np.ndarray:
    """r_0 = x_0, r_t = gain * x_t + decay * r_{t-1} along the last axis."""
    if x.ndim == 1:  # Python floats step far faster than numpy scalars
        r = x.tolist()
    else:  # time-major rows: each step updates a whole batch of series
        r = list(np.moveaxis(x, -1, 0))
    for t in range(1, len(r)):
        r[t] = gain * r[t] + decay * r[t - 1]
    if x.ndim == 1:
        return np.array(r)
    # contiguous, so the ops that follow (exp, say) round as they do on one series
    return np.ascontiguousarray(np.moveaxis(np.array(r), 0, -1))


def _ema_adjoint(g: np.ndarray, beta: float) -> np.ndarray:
    """The EMA's vjp: the same recurrence run backwards, a_t = g_t + (1-beta) a_{t+1};
    x_t receives beta * a_t, except x_0, which seeds e_0 and receives a_0."""
    a = _decay_scan(g[..., ::-1], 1.0, 1.0 - beta)[..., ::-1]
    a[..., 1:] *= beta
    return a


def price_features(p: np.ndarray, keep: bool):
    """The continuous channels (..., T, 12) of prices p (..., T) and, with
    ``keep``, what ``price_features_vjp`` needs (else None)."""
    lead, T = p.shape[:-1], p.shape[-1]
    counts = np.minimum(np.arange(1.0, T + 1.0)[:, None], _WINDOWS)
    # leading zeros give every day a full 20-day window
    padded = np.concatenate([np.zeros(lead + (_SPAN - 1,)), p], axis=-1)
    # population variance via E[y^2] - E[y]^2 on recentred prices; recentring
    # each series kills the catastrophic cancellation of the raw-moment form
    # (a constant shift changes neither the variance nor its gradient); the
    # shift leaves the padding out, so it stays zero
    real_days = np.concatenate([np.zeros(_SPAN - 1), np.ones(T)])
    y = padded - np.mean(p, axis=-1, keepdims=True) * real_days
    # the window means of padded, y and y*y: every 20-day window's last 5, 10
    # and 20 days summed by one product, over the real days among them
    windows = ad.window_view(np.stack([padded, y, y * y]), _SPAN, axis=p.ndim)
    means, m1, m2 = windows @ _LAST_W / counts
    var = m2 - m1 * m1
    std = np.sqrt(np.clip(var, 0.0, None))
    logp = np.log(p)

    out = np.empty(lead + (T, len(CHANNELS)))
    out[..., 0] = p
    out[..., 1:4] = means
    out[..., 4:7] = std
    # log_return_t = ln(p_t / p_{t-1}), first day 0
    out[..., 0, 7] = 0.0
    out[..., 1:, 7] = logp[..., 1:] - logp[..., :-1]
    # roc_5_t = (p_t - p_{t-5}) / p_{t-5}, first five days 0
    out[..., :5, 8] = 0.0
    out[..., 5:, 8] = (p[..., 5:] - p[..., :-5]) / p[..., :-5]
    for j, beta in enumerate(_BETAS):
        out[..., 9 + j] = _decay_scan(p, beta, 1.0 - beta)
    return out, ((p, counts, y, m1, var, std) if keep else None)


def price_features_vjp(g: np.ndarray, saved) -> np.ndarray:
    """Gradient of the prices for g on the channels.

    Each step repeats the arithmetic of the vjps of the graph ops that computed
    the channels before (the clamp passes its bound through, ``sqrt`` has
    derivative 0 at 0), and the contributions add up in the order the engine's
    sweep added them, so the result is bit-identical to that graph's.
    """
    p, counts, y, m1, var, std = saved
    T = p.shape[-1]
    zero = std == 0.0
    g_clamp = (g[..., 4:7] * np.where(zero, 0.0, 0.5)) * ((std + np.where(zero, 1.0, 0.0)) ** -1.0)
    g_var = g_clamp * (np.ones(var.shape) * (var >= 0.0))
    g_sq = g_var * -1.0
    # the window-sum products of the means of padded, y and y*y, stacked so
    # that one overlap-add folds all three back onto the days
    taps = np.empty((3,) + g_var.shape[:-1] + (_SPAN,))
    np.matmul(g[..., 1:4] / counts, _LAST_W_T, out=taps[0])
    np.matmul(((g_sq * m1) + (g_sq * m1)) / counts, _LAST_W_T, out=taps[1])
    np.matmul(g_var / counts, _LAST_W_T, out=taps[2])
    g_padded, g_y, g_yy = ad.overlap_add(taps, T + _SPAN - 1, axis=p.ndim)
    # y reaches y*y twice, then its own windows; y = padded - constant
    g_padded = g_padded + (((g_yy * y) + (g_yy * y)) + g_y)
    # the prices' parts in the graph's sweep order: the price channel, the
    # padded days, the log return, the roc numerator's two slices, the roc
    # denominator, the EMAs.  A slice's part is a zero buffer with the slice set.
    g_p = g[..., 0] + g_padded[..., _SPAN - 1:]

    def spread(part, key):
        buf = np.zeros(p.shape)
        buf[key] = part
        return buf

    g_lr = g[..., 1:, 7]
    g_p = g_p + (spread(g_lr, (Ellipsis, slice(1, None)))
                 + spread(g_lr * -1.0, (Ellipsis, slice(None, -1)))) / p
    g_roc, base = g[..., 5:, 8], p[..., :-5]
    g_diff = g_roc / base
    g_p = g_p + spread(g_diff, (Ellipsis, slice(5, None)))
    g_p = g_p + spread(g_diff * -1.0, (Ellipsis, slice(None, -5)))
    g_base = (g_roc * -1.0) * ((p[..., 5:] - base) / (base * base))
    g_p = g_p + spread(g_base, (Ellipsis, slice(None, -5)))
    for j, beta in enumerate(_BETAS):
        g_p = g_p + _ema_adjoint(g[..., 9 + j], beta)
    return g_p


def weekday_one_hot(adjprc: np.ndarray, dates: list[dt.date]) -> np.ndarray:
    """The weekday one-hot (T, 5), Monday first, of prices (T,) or (B, T) that
    share ``dates``.  Raises on series shorter than 21 days, prices that are
    not finite and strictly positive, or dates that fall on a weekend."""
    if adjprc.ndim not in (1, 2):
        raise ValueError(f"adjprc must be (T,) or (B, T), got shape {adjprc.shape}")
    T = adjprc.shape[-1]
    if T < MIN_LENGTH:
        raise ValueError(f"need at least {MIN_LENGTH} days of prices, got {T}")
    if len(dates) != T:
        raise ValueError(f"{len(dates)} dates for {T} prices")
    if not np.all(np.isfinite(adjprc) & (adjprc > 0.0)):
        raise ad.DomainError("adjprc must be finite and strictly positive")

    day_of_week = np.array([d.weekday() for d in dates], dtype=int)
    if np.any(day_of_week > 4):
        bad = dates[int(np.argmax(day_of_week > 4))]
        raise ValueError(f"weekend date {bad} in price series")
    return np.eye(5)[day_of_week]
