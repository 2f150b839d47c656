"""Differentiable per-day features derived from the adjusted price.

Every continuous channel is built from autodiff operations so that a loss on
the forecast differentiates all the way back to the raw prices.  The prices
are one series (T,) or a batch of series (B, T) that share their dates; both
shapes run the same code, along the last axis.  Rolling means and standard
deviations zero-pad each series with 19 days in front, take every 20-day
window with ``unfold``, sum each window's last w days and divide by the number
of real days among them.  So the first w-1 days average over however many
days exist, and the feature matrix stays aligned with the price series.  The
EMAs run the ``ema`` recurrence (beta = 2 / (w + 1), seeded with the first
price).  Time and memory are linear in the series length.

Channels, in order:
    adjprc,
    rolling_mean_5, rolling_mean_10, rolling_mean_20,
    rolling_std_5, rolling_std_10, rolling_std_20,
    log_return, roc_5,
    ema_5, ema_10, ema_20
plus a categorical day-of-week (Monday=0) carried separately.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHANNELS = (
    "adjprc",
    "rolling_mean_5", "rolling_mean_10", "rolling_mean_20",
    "rolling_std_5", "rolling_std_10", "rolling_std_20",
    "log_return", "roc_5",
    "ema_5", "ema_10", "ema_20",
)

MIN_LENGTH = 21  # largest rolling window (20) + the roc delta warm-up


@dataclass
class FeatureMatrix:
    """Continuous channels (T, 12), or (B, T, 12) for a batch, plus the day-of-week column."""

    continuous: Tensor
    day_of_week: np.ndarray

    def __post_init__(self):
        if self.continuous.shape[-1] != len(CHANNELS):
            raise ValueError(f"expected {len(CHANNELS)} channels, got {self.continuous.shape[-1]}")
        if self.continuous.shape[-2] != len(self.day_of_week):
            raise ValueError("continuous rows and day_of_week length differ")

    def __len__(self) -> int:
        """Number of days."""
        return self.continuous.shape[-2]

    def day_one_hot(self) -> Tensor:
        """Constant one-hot encoding of the weekday, (T, 5) or (B, T, 5) like continuous."""
        onehot = np.zeros((len(self.day_of_week), 5))
        onehot[np.arange(len(self.day_of_week)), self.day_of_week] = 1.0
        return ad.constant(np.broadcast_to(onehot, self.continuous.shape[:-1] + (5,)))


_WINDOWS = (5, 10, 20)
_SPAN = max(_WINDOWS)


def _rolling_means(padded: Tensor) -> Tensor:
    """(..., T, 3) means over the last 5, 10 and 20 days of series (..., _SPAN-1+T)
    led by _SPAN-1 zeros; each divides by the real days in its window, min(t+1, w)."""
    T = padded.shape[-1] - _SPAN + 1
    last_w = np.array([[k >= _SPAN - w for w in _WINDOWS] for k in range(_SPAN)], dtype=float)
    sums = ad.matmul(ad.unfold(padded, _SPAN, padded.ndim - 1), ad.constant(last_w))
    counts = np.minimum(np.arange(1.0, T + 1.0)[:, None], _WINDOWS)
    return ad.div(sums, ad.constant(counts))


def compute_features(adjprc: Tensor, dates: list[dt.date]) -> FeatureMatrix:
    """Derive the per-day feature matrix from prices (T,) or a batch (B, T).

    Every row shares ``dates``; the continuous channels come back as (T, 12)
    or (B, T, 12).  Raises on series shorter than 21 days, non-positive
    prices, or dates that fall on a weekend (the categorical channel is 5-way).
    """
    if adjprc.ndim not in (1, 2):
        raise ValueError(f"adjprc must be (T,) or (B, T), got shape {adjprc.shape}")
    T = adjprc.shape[-1]
    if T < MIN_LENGTH:
        raise ValueError(f"need at least {MIN_LENGTH} days of prices, got {T}")
    if len(dates) != T:
        raise ValueError(f"{len(dates)} dates for {T} prices")
    if np.any(adjprc.data <= 0.0):
        raise ad.DomainError("adjprc must be strictly positive")

    day_of_week = np.array([d.weekday() for d in dates], dtype=int)
    if np.any(day_of_week > 4):
        bad = dates[int(np.argmax(day_of_week > 4))]
        raise ValueError(f"weekend date {bad} in price series")

    lead, days = adjprc.shape[:-1], adjprc.ndim - 1  # batch shape, axis of the days

    def zeros(n: int) -> Tensor:
        return ad.constant(np.zeros(lead + (n,)))

    def channel(c: Tensor) -> Tensor:
        return ad.reshape(c, lead + (T, 1))

    # leading zeros give every day a full 20-day window
    padded = ad.concat([zeros(_SPAN - 1), adjprc], axis=days)
    cols: list[Tensor] = [channel(adjprc), _rolling_means(padded)]
    # population variance via E[y^2] - E[y]^2 on recentred prices; recentring
    # each series kills the catastrophic cancellation of the raw-moment form
    # (a constant shift changes neither the variance nor its gradient); the
    # shift leaves the padding out, so it stays zero
    real_days = np.concatenate([np.zeros(_SPAN - 1), np.ones(T)])
    y = ad.sub(padded, ad.constant(np.mean(adjprc.data, axis=-1, keepdims=True) * real_days))
    m1 = _rolling_means(y)
    m2 = _rolling_means(ad.mul(y, y))
    cols.append(ad.tsqrt(ad.clamp(ad.sub(m2, ad.mul(m1, m1)), lo=0.0)))

    # log_return_t = ln(p_t / p_{t-1}), first day 0
    logp = ad.tlog(adjprc)
    lr = ad.sub(logp[..., 1:], logp[..., :-1])
    cols.append(channel(ad.concat([zeros(1), lr], axis=days)))

    # roc_5_t = (p_t - p_{t-5}) / p_{t-5}, first five days 0
    roc = ad.div(ad.sub(adjprc[..., 5:], adjprc[..., :-5]), adjprc[..., :-5])
    cols.append(channel(ad.concat([zeros(5), roc], axis=days)))

    for w in _WINDOWS:
        cols.append(channel(ad.ema(adjprc, 2.0 / (w + 1.0))))

    return FeatureMatrix(ad.concat(cols, axis=days + 1), day_of_week)
