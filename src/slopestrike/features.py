"""Differentiable per-day features derived from the adjusted price.

Every continuous channel is built from autodiff operations so that a loss on
the forecast differentiates all the way back to the raw prices.  Rolling means
and standard deviations zero-pad the series with 19 days in front, take every
20-day window with ``unfold``, sum each window's last w days and divide by
the number of real days among them.  So the first w-1 days average over
however many days exist, and the feature matrix stays aligned with the price
series.  The EMAs run the ``ema`` recurrence (beta = 2 / (w + 1), seeded with
the first price).  Time and memory are linear in the series length.

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
    """Continuous channels (T, 12) plus the categorical day-of-week column."""

    continuous: Tensor
    day_of_week: np.ndarray

    def __post_init__(self):
        if self.continuous.shape[1] != len(CHANNELS):
            raise ValueError(f"expected {len(CHANNELS)} channels, got {self.continuous.shape[1]}")
        if self.continuous.shape[0] != len(self.day_of_week):
            raise ValueError("continuous rows and day_of_week length differ")

    def __len__(self) -> int:
        return self.continuous.shape[0]

    def day_one_hot(self) -> Tensor:
        """(T, 5) constant one-hot encoding of the weekday."""
        onehot = np.zeros((len(self.day_of_week), 5))
        onehot[np.arange(len(self.day_of_week)), self.day_of_week] = 1.0
        return ad.constant(onehot)


_WINDOWS = (5, 10, 20)
_SPAN = max(_WINDOWS)


def _rolling_means(padded: Tensor) -> Tensor:
    """(T, 3) means over the last 5, 10 and 20 days of a series led by _SPAN-1
    zeros; each divides by the real days in its window, min(t+1, w)."""
    T = padded.shape[0] - _SPAN + 1
    last_w = np.array([[k >= _SPAN - w for w in _WINDOWS] for k in range(_SPAN)], dtype=float)
    sums = ad.matmul(ad.unfold(padded, _SPAN), ad.constant(last_w))
    counts = np.minimum(np.arange(1.0, T + 1.0)[:, None], _WINDOWS)
    return ad.div(sums, ad.constant(counts))


def compute_features(adjprc: Tensor, dates: list[dt.date]) -> FeatureMatrix:
    """Derive the full per-day feature matrix from a price tensor.

    Raises on series shorter than 21 days, non-positive prices, or dates that
    fall on a weekend (the categorical channel is 5-way).
    """
    T = adjprc.shape[0]
    if adjprc.ndim != 1:
        raise ValueError(f"adjprc must be 1-D, got shape {adjprc.shape}")
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

    # leading zeros give every day a full 20-day window
    pad = np.zeros(_SPAN - 1)
    padded = ad.concat([ad.constant(pad), adjprc])
    cols: list[Tensor] = [adjprc, _rolling_means(padded)]
    # population variance via E[y^2] - E[y]^2 on globally recentred prices;
    # recentring kills the catastrophic cancellation of the raw-moment form
    # (a constant shift changes neither the variance nor its gradient), and
    # the mask puts the padding back to zero after the shift
    real_days = ad.constant(np.concatenate([pad, np.ones(T)]))
    y = ad.mul(ad.sub(padded, float(np.mean(adjprc.data))), real_days)
    m1 = _rolling_means(y)
    m2 = _rolling_means(ad.mul(y, y))
    cols.append(ad.tsqrt(ad.clamp(ad.sub(m2, ad.mul(m1, m1)), lo=0.0)))

    # log_return_t = ln(p_t / p_{t-1}), first day 0
    logp = ad.tlog(adjprc)
    lr = ad.sub(logp[1:], logp[:-1])
    cols.append(ad.concat([ad.constant(np.zeros(1)), lr]))

    # roc_5_t = (p_t - p_{t-5}) / p_{t-5}, first five days 0
    roc = ad.div(ad.sub(adjprc[5:], adjprc[:-5]), adjprc[:-5])
    cols.append(ad.concat([ad.constant(np.zeros(5)), roc]))

    for w in _WINDOWS:
        cols.append(ad.ema(adjprc, 2.0 / (w + 1.0)))

    stacked = ad.concat([c if c.ndim == 2 else ad.reshape(c, (T, 1)) for c in cols], axis=1)
    return FeatureMatrix(stacked, day_of_week)
