"""Evaluation quantities: forecast errors, distribution moments, MMD, confusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(Exception):
    """Metric evaluated outside its contract (degenerate sample, zero truth, ...)."""


@dataclass
class MomentReport:
    mu: float
    sigma: float
    iqr: float
    skew: float
    kurtosis: float


@dataclass
class ConfusionReport:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float     # percent
    specificity: float  # percent
    kappa: float        # percent


def error_metrics(pred, truth) -> tuple[float, float, float]:
    """(MAE, RMSE, MAPE) with MAPE as a fraction."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise MetricsError(f"shape mismatch {pred.shape} vs {truth.shape}")
    zero = np.nonzero(truth == 0.0)[0]
    if zero.size:
        raise MetricsError(f"MAPE undefined: truth is zero at index {int(zero[0])}")
    err = pred - truth
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    mape = float(np.mean(np.abs(err / truth)))
    return mae, rmse, mape


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xx = np.sum(x * x, axis=1)[:, None]
    yy = np.sum(y * y, axis=1)[None, :]
    d = xx + yy - 2.0 * (x @ y.T)
    return np.maximum(d, 0.0)


def median_heuristic_gamma(pooled: np.ndarray) -> float:
    """gamma = 1 / (2 * median^2) over pairwise Euclidean distances (i < j)."""
    d2 = _pairwise_sq_dists(pooled, pooled)
    iu = np.triu_indices(len(pooled), k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med == 0.0:
        raise MetricsError("median pairwise distance is zero; bandwidth undefined")
    return 1.0 / (2.0 * med * med)


def mmd(sample_a, sample_b) -> float:
    """Biased squared MMD with an RBF kernel and median-heuristic bandwidth.

    k(x, y) = exp(-gamma ||x-y||^2) with gamma = 1/(2 median^2) over the
    pooled pairwise distances.  Returns max(value, 0).
    """
    a = np.atleast_2d(np.asarray(sample_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(sample_b, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise MetricsError(f"samples must share vector dimension: {a.shape} vs {b.shape}")
    if len(a) < 2 or len(b) < 2:
        raise MetricsError("each sample needs at least 2 vectors")
    # canonical operand order makes mmd(A, B) and mmd(B, A) bit-identical
    if (a.shape, a.tobytes()) > (b.shape, b.tobytes()):
        a, b = b, a
    gamma = median_heuristic_gamma(np.concatenate([a, b], axis=0))
    kaa = np.exp(-gamma * _pairwise_sq_dists(a, a))
    kbb = np.exp(-gamma * _pairwise_sq_dists(b, b))
    kab = np.exp(-gamma * _pairwise_sq_dists(a, b))
    val = float(kaa.mean() + kbb.mean() - 2.0 * kab.mean())
    return max(val, 0.0)


def moments(sample) -> MomentReport:
    """Mean, population std, interpolated IQR, skew and raw kurtosis.

    Raw kurtosis is m4/m2^2 (not excess).  A constant sample has no defined
    skew/kurtosis and raises.
    """
    x = np.asarray(sample, dtype=np.float64).reshape(-1)
    if x.size < 4:
        raise MetricsError(f"need at least 4 observations, got {x.size}")
    mu = float(np.mean(x))
    c = x - mu
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        raise MetricsError("constant sample: skew and kurtosis undefined")
    m3 = float(np.mean(c ** 3))
    m4 = float(np.mean(c ** 4))
    q75, q25 = np.quantile(x, 0.75), np.quantile(x, 0.25)
    return MomentReport(
        mu=mu,
        sigma=float(np.sqrt(m2)),
        iqr=float(q75 - q25),
        skew=m3 / m2 ** 1.5,
        kurtosis=m4 / (m2 * m2),
    )


def confusion(labels, predictions) -> ConfusionReport:
    """Binary confusion counts plus accuracy/specificity/Cohen's kappa in percent.

    Positive class is 1 (adversarial); specificity is the true-negative rate.
    """
    y = np.asarray(labels).astype(int).reshape(-1)
    p = np.asarray(predictions).astype(int).reshape(-1)
    if y.size == 0:
        raise MetricsError("empty input")
    if y.shape != p.shape:
        raise MetricsError(f"shape mismatch {y.shape} vs {p.shape}")
    if np.any((y != 0) & (y != 1)) or np.any((p != 0) & (p != 1)):
        raise MetricsError("labels and predictions must be binary 0/1")
    tp = int(np.sum((y == 1) & (p == 1)))
    tn = int(np.sum((y == 0) & (p == 0)))
    fp = int(np.sum((y == 0) & (p == 1)))
    fn = int(np.sum((y == 1) & (p == 0)))
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    spec = tn / (tn + fp) if (tn + fp) else 0.0
    p_yes = ((tp + fp) / total) * ((tp + fn) / total)
    p_no = ((tn + fn) / total) * ((tn + fp) / total)
    pe = p_yes + p_no
    kappa = (acc - pe) / (1.0 - pe) if pe < 1.0 else 0.0
    return ConfusionReport(tp, tn, fp, fn,
                           accuracy=100.0 * acc,
                           specificity=100.0 * spec,
                           kappa=100.0 * kappa)
