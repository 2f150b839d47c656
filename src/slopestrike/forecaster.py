"""Simplified multi-rate forecaster with backcast/forecast decomposition.

Each stack max-pools the (per-window normalised) price window at its own rate,
runs a small MLP that emits coefficients at a downsampled resolution, and
linearly interpolates those coefficients back up: the backcast part is
subtracted from the running residual, the forecast parts are summed.  The
exogenous feature window enters the first stack as a flattened side input.

Quantile outputs are trained unsorted; at output time the quantile axis is
sorted so reported quantile paths never cross.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import PriceSeries, save_checkpoint, load_checkpoint, CheckpointError
from .features import FeatureMatrix, compute_features

logger = logging.getLogger(__name__)

NORM_EPS = 1e-8


class NumericalError(Exception):
    """Training or attack produced a non-finite value."""


@dataclass
class NhitsConfig:
    encoder_length: int = 100
    horizon: int = 20
    n_stacks: int = 3
    blocks_per_stack: int = 1
    pool_kernels: tuple[int, ...] = (4, 2, 1)
    downsample_ratios: tuple[int, ...] = (4, 2, 1)
    hidden_size: int = 64
    quantiles: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 0.95, 0.99, 0.999)
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    early_stop_patience: int = 15
    use_features: bool = True

    def __post_init__(self):
        self.pool_kernels = tuple(int(k) for k in self.pool_kernels)
        self.downsample_ratios = tuple(int(r) for r in self.downsample_ratios)
        self.quantiles = tuple(float(q) for q in self.quantiles)
        if len(self.pool_kernels) != self.n_stacks or len(self.downsample_ratios) != self.n_stacks:
            raise ValueError("pool_kernels and downsample_ratios must have one entry per stack")
        for k in self.pool_kernels:
            if k < 1:
                raise ValueError(f"pool kernel {k} < 1")
            if self.encoder_length % k:
                raise ValueError(f"encoder length {self.encoder_length} not divisible by kernel {k}")
        for r in self.downsample_ratios:
            if self.horizon % r or self.encoder_length % r:
                raise ValueError(f"horizon/encoder not divisible by downsample ratio {r}")
        qs = self.quantiles
        if any(not (0.0 < q < 1.0) for q in qs) or any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValueError(f"quantiles must be strictly increasing in (0,1): {qs}")

    @property
    def n_quantiles(self) -> int:
        return len(self.quantiles)

    @property
    def median_index(self) -> int:
        return self.quantiles.index(0.5) if 0.5 in self.quantiles else len(self.quantiles) // 2

    @property
    def exo_dim(self) -> int:
        return self.encoder_length * 17 if self.use_features else 0

    @property
    def min_series_length(self) -> int:
        return self.encoder_length + self.horizon


@dataclass
class ForecastOutput:
    """Per-day quantile forecasts (sorted along the quantile axis) and the median path."""

    quantile_paths: Tensor  # (horizon, n_quantiles)
    median_path: Tensor     # (horizon,)
    quantiles: tuple[float, ...]


def _interp_matrix(knots: int, length: int) -> np.ndarray:
    """Linear interpolation from `knots` points to `length` points, endpoints aligned."""
    M = np.zeros((length, knots))
    if knots == 1:
        M[:, 0] = 1.0
        return M
    for t in range(length):
        pos = t * (knots - 1) / (length - 1)
        lo = int(np.floor(pos))
        if lo >= knots - 1:
            M[t, knots - 1] = 1.0
        else:
            w = pos - lo
            M[t, lo] = 1.0 - w
            M[t, lo + 1] = w
    return M


class NhitsModel:
    """Parameter container plus the batched forward pass."""

    def __init__(self, config: NhitsConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._interp_b: list[np.ndarray] = []
        self._interp_f: list[np.ndarray] = []
        rng = np.random.default_rng(seed)
        E, H, Q = config.encoder_length, config.horizon, config.n_quantiles
        idx = 0
        for si in range(config.n_stacks):
            k = config.pool_kernels[si]
            r = config.downsample_ratios[si]
            eb_knots, hf_knots = E // r, H // r
            self._interp_b.append(_interp_matrix(eb_knots, E).T)           # (knots, E)
            self._interp_f.append(np.kron(_interp_matrix(hf_knots, H), np.eye(Q)).T)
            for bi in range(config.blocks_per_stack):
                in_dim = E // k
                if idx == 0:
                    in_dim += config.exo_dim
                theta_dim = eb_knots + hf_knots * Q
                self._add_block(idx, in_dim, theta_dim, rng)
                idx += 1

    def _add_block(self, idx: int, in_dim: int, theta_dim: int, rng) -> None:
        h = self.config.hidden_size

        def uni(fan_in, shape):
            s = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-s, s, shape)

        # final layer starts at zero: the untrained forecast is the window mean
        self.params[f"b{idx}.w1"] = ad.Tensor(uni(in_dim, (in_dim, h)), requires_grad=True)
        self.params[f"b{idx}.b1"] = ad.Tensor(np.zeros(h), requires_grad=True)
        self.params[f"b{idx}.w2"] = ad.Tensor(uni(h, (h, h)), requires_grad=True)
        self.params[f"b{idx}.b2"] = ad.Tensor(np.zeros(h), requires_grad=True)
        self.params[f"b{idx}.w3"] = ad.Tensor(np.zeros((h, theta_dim)), requires_grad=True)
        self.params[f"b{idx}.b3"] = ad.Tensor(np.zeros(theta_dim), requires_grad=True)

    # -- persistence --------------------------------------------------------

    def arch(self) -> dict:
        return {"model": "nhits", "config": asdict(self.config)}

    def save(self, path) -> None:
        save_checkpoint({k: v.data for k, v in self.params.items()}, path, self.arch())

    @classmethod
    def load(cls, path) -> "NhitsModel":
        arrays, arch = load_checkpoint(path)
        if arch.get("model") != "nhits":
            raise CheckpointError(f"{path}: not a forecaster checkpoint")
        cfg_dict = dict(arch["config"])
        for key in ("pool_kernels", "downsample_ratios", "quantiles"):
            cfg_dict[key] = tuple(cfg_dict[key])
        model = cls(NhitsConfig(**cfg_dict))
        if set(arrays) != set(model.params):
            raise CheckpointError(f"{path}: parameter names do not match architecture")
        for k, v in arrays.items():
            if v.shape != model.params[k].data.shape:
                raise CheckpointError(f"{path}: shape mismatch for {k}")
            model.params[k] = ad.Tensor(v, requires_grad=True)
        return model

    def param_bytes(self) -> bytes:
        return b"".join(self.params[k].data.tobytes() for k in sorted(self.params))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- forward ------------------------------------------------------------

    def _normalise_windows(self, adj_w: Tensor):
        N, E = adj_w.shape
        ones_e = ad.constant(np.ones((1, E)))
        wmean = ad.tmean(adj_w, axis=1)
        mean_x = ad.matmul(ad.reshape(wmean, (N, 1)), ones_e)
        diff = ad.sub(adj_w, mean_x)
        wstd = ad.tsqrt(ad.tmean(ad.mul(diff, diff), axis=1))
        denom = ad.add(wstd, NORM_EPS)
        x = ad.div(diff, ad.matmul(ad.reshape(denom, (N, 1)), ones_e))
        return x, wmean, denom

    def core(self, adj_w: Tensor, exo: Tensor | None, internals: bool = False):
        """Normalised windows in, denormalised (N, horizon*n_quantiles) out."""
        cfg = self.config
        N, E = adj_w.shape
        if E != cfg.encoder_length:
            raise ValueError(f"window length {E} != encoder length {cfg.encoder_length}")
        x, wmean, denom = self._normalise_windows(adj_w)
        residual = x
        fore: Tensor | None = None
        blocks: list[tuple[Tensor, Tensor]] = []
        idx = 0
        for si in range(cfg.n_stacks):
            k = cfg.pool_kernels[si]
            eb_knots = E // cfg.downsample_ratios[si]
            ib = ad.constant(self._interp_b[si])
            iff = ad.constant(self._interp_f[si])
            for bi in range(cfg.blocks_per_stack):
                pooled = ad.maxpool1d(residual, k) if k > 1 else residual
                if idx == 0 and exo is not None:
                    pooled = ad.concat([pooled, exo], axis=1)
                h = ad.relu(ad.affine(pooled, self.params[f"b{idx}.w1"], self.params[f"b{idx}.b1"]))
                h = ad.relu(ad.affine(h, self.params[f"b{idx}.w2"], self.params[f"b{idx}.b2"]))
                theta = ad.affine(h, self.params[f"b{idx}.w3"], self.params[f"b{idx}.b3"])
                backcast = ad.matmul(theta[:, :eb_knots], ib)
                forecast = ad.matmul(theta[:, eb_knots:], iff)
                residual = ad.sub(residual, backcast)
                fore = forecast if fore is None else ad.add(fore, forecast)
                if internals:
                    blocks.append((backcast, forecast))
                idx += 1
        HQ = cfg.horizon * cfg.n_quantiles
        ones_hq = ad.constant(np.ones((1, HQ)))
        out = ad.add(ad.mul(fore, ad.matmul(ad.reshape(denom, (N, 1)), ones_hq)),
                     ad.matmul(ad.reshape(wmean, (N, 1)), ones_hq))
        if internals:
            return out, fore, blocks, residual
        return out

    def _exo_from_features(self, fm: FeatureMatrix) -> Tensor:
        """Per-series standardised continuous channels plus the weekday one-hot."""
        cont = fm.continuous
        mu = ad.tmean(cont, axis=0)
        d = ad.sub(cont, mu)
        sd = ad.tsqrt(ad.tmean(ad.mul(d, d), axis=0))
        z = ad.div(d, ad.add(sd, NORM_EPS))
        return ad.concat([z, fm.day_one_hot()], axis=1)  # (T, 17)

    def _window_tensors(self, fm: FeatureMatrix, n_windows: int):
        cfg = self.config
        E = cfg.encoder_length
        span = n_windows + E - 1
        adj_w = ad.unfold(fm.continuous[:span, 0], E)  # (N, E)
        if not cfg.use_features:
            return adj_w, None
        exo_days = self._exo_from_features(fm)[:span]
        return adj_w, ad.reshape(ad.unfold(exo_days, E), (n_windows, cfg.exo_dim))

    def forward(self, window: FeatureMatrix) -> ForecastOutput:
        """Forecast from exactly one encoder window of features."""
        cfg = self.config
        if len(window) != cfg.encoder_length:
            raise ValueError(f"window has {len(window)} days, need {cfg.encoder_length}")
        adj_w, exo = self._window_tensors(window, 1)
        out = self.core(adj_w, exo)
        qp = ad.sort_last(ad.reshape(out, (cfg.horizon, cfg.n_quantiles)))
        return ForecastOutput(qp, qp[:, cfg.median_index], cfg.quantiles)

    def rolling_median_path(self, fm: FeatureMatrix) -> Tensor:
        """Overlap-averaged median-quantile path for every day after the encoder.

        Windows slide by one day; day d's prediction is the mean of every
        20-day forecast covering it: ``fold`` overlap-adds the (N, horizon)
        median paths onto the days and divides by ``fold`` of ones, the number
        of forecasts per day.  Output length is len(fm) - encoder.
        """
        cfg = self.config
        T = len(fm)
        if T < cfg.min_series_length:
            raise ValueError(f"need at least {cfg.min_series_length} days, got {T}")
        n_windows = T - cfg.min_series_length + 1
        adj_w, exo = self._window_tensors(fm, n_windows)
        out = self.core(adj_w, exo)  # (N, H*Q)
        med = ad.sort_last(ad.reshape(out, (n_windows, cfg.horizon, cfg.n_quantiles)))
        med = med[:, :, cfg.median_index]  # (N, H)
        n_days = T - cfg.encoder_length
        counts = ad.fold(ad.constant(np.ones(med.shape)), n_days)
        return ad.div(ad.fold(med, n_days), counts)


def quantile_loss(pred: ForecastOutput, truth) -> Tensor:
    """Mean pinball loss over days and quantiles: q (y-f)+ + (1-q) (f-y)+."""
    truth = np.asarray(truth, dtype=np.float64)
    H, Q = pred.quantile_paths.shape
    if truth.shape != (H,):
        raise ValueError(f"truth shape {truth.shape} != ({H},)")
    y = ad.constant(np.repeat(truth[:, None], Q, axis=1))
    q = ad.constant(np.asarray(pred.quantiles))
    diff = ad.sub(y, pred.quantile_paths)
    return ad.tmean(ad.add(ad.mul(q, ad.relu(diff)),
                           ad.mul(ad.sub(1.0, q), ad.relu(ad.mul(diff, -1.0)))))


def _pinball_raw(raw: Tensor, truth_norm: np.ndarray, quantiles: tuple[float, ...]) -> Tensor:
    """Training loss on the unsorted normalised outputs, day-major layout."""
    B, HQ = raw.shape
    Q = len(quantiles)
    y = ad.constant(np.repeat(truth_norm, Q, axis=1))
    q = ad.constant(np.tile(np.asarray(quantiles), HQ // Q))
    diff = ad.sub(y, raw)
    return ad.tmean(ad.add(ad.mul(q, ad.relu(diff)),
                           ad.mul(ad.sub(1.0, q), ad.relu(ad.mul(diff, -1.0)))))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class EarlyStopper:
    """Stop after `patience` consecutive epochs without improving the best loss."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.bad_epochs = 0
        self.improved = False

    def update(self, val: float) -> bool:
        self.improved = val < self.best
        if self.improved:
            self.best = val
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def _series_arrays(series: PriceSeries, cfg: NhitsConfig):
    """Constant per-series inputs: price vector and per-day exogenous matrix."""
    with ad.no_record():
        fm = compute_features(ad.constant(series.adjprc), series.dates)
        if not cfg.use_features:
            return series.adjprc, None
        cont = fm.continuous.data
        mu = cont.mean(axis=0)
        sd = np.sqrt(((cont - mu) ** 2).mean(axis=0))
        z = (cont - mu) / (sd + NORM_EPS)
        exo = np.concatenate([z, fm.day_one_hot().data], axis=1)
    return series.adjprc, exo


def _assemble_batch(entries, prices, exos, cfg: NhitsConfig):
    E, H = cfg.encoder_length, cfg.horizon
    adj = np.stack([prices[s][w:w + E] for s, w in entries])
    truth = np.stack([prices[s][w + E:w + E + H] for s, w in entries])
    exo = None
    if cfg.use_features:
        exo = np.stack([exos[s][w:w + E].reshape(-1) for s, w in entries])
    mean = adj.mean(axis=1, keepdims=True)
    std = np.sqrt(((adj - mean) ** 2).mean(axis=1, keepdims=True))
    truth_norm = (truth - mean) / (std + NORM_EPS)
    return adj, exo, truth_norm


def _epoch_loss(model, entries, prices, exos, cfg) -> float:
    total, count = 0.0, 0
    for i in range(0, len(entries), cfg.batch_size):
        batch = entries[i:i + cfg.batch_size]
        adj, exo, truth_norm = _assemble_batch(batch, prices, exos, cfg)
        with ad.no_record():
            _, fore, _, _ = model.core(ad.constant(adj),
                                       None if exo is None else ad.constant(exo), internals=True)
            loss = _pinball_raw(fore, truth_norm, cfg.quantiles)
        total += loss.item() * len(batch)
        count += len(batch)
    return total / max(count, 1)


def train(train_series: list[PriceSeries], val_series: list[PriceSeries],
          config: NhitsConfig, seed: int = 0,
          init_model: NhitsModel | None = None):
    """Minibatch gradient descent with decoupled weight decay and early stopping.

    Returns (model, log) where log rows are (epoch, train_loss, val_loss).
    The model carried back is the best-validation snapshot.
    """
    cfg = config
    for s in train_series + val_series:
        if len(s) < cfg.min_series_length:
            raise ValueError(f"{s.ticker}: {len(s)} days < {cfg.min_series_length}")
    model = init_model if init_model is not None else NhitsModel(cfg, seed=seed)
    prices = {}
    exos = {}
    train_entries = []
    val_entries = []
    for pool, entries in ((train_series, train_entries), (val_series, val_entries)):
        for s in pool:
            prices[s.ticker], exos[s.ticker] = _series_arrays(s, cfg)
            entries.extend((s.ticker, w) for w in range(len(s) - cfg.min_series_length + 1))

    rng = np.random.default_rng(seed)
    stopper = EarlyStopper(cfg.early_stop_patience)
    best_params = {k: v.data.copy() for k, v in model.params.items()}
    log: list[tuple[int, float, float]] = []
    decay_keys = [k for k in model.params if ".w" in k]

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_entries))
        running, seen = 0.0, 0
        for i in range(0, len(order), cfg.batch_size):
            batch = [train_entries[j] for j in order[i:i + cfg.batch_size]]
            adj, exo, truth_norm = _assemble_batch(batch, prices, exos, cfg)
            _, fore, _, _ = model.core(ad.constant(adj),
                                       None if exo is None else ad.constant(exo), internals=True)
            loss = _pinball_raw(fore, truth_norm, cfg.quantiles)
            lval = loss.item()
            if not np.isfinite(lval):
                raise NumericalError(f"training loss became non-finite at epoch {epoch}")
            ad.backward(loss)
            for k, p in model.params.items():
                if p.grad is None:
                    continue
                if k in decay_keys and cfg.weight_decay:
                    p.data = p.data * (1.0 - cfg.lr * cfg.weight_decay)
                p.data = p.data - cfg.lr * p.grad
            model.zero_grad()
            running += lval * len(batch)
            seen += len(batch)
        train_loss = running / max(seen, 1)
        val_loss = _epoch_loss(model, val_entries, prices, exos, cfg)
        if not np.isfinite(val_loss):
            raise NumericalError(f"validation loss became non-finite at epoch {epoch}")
        log.append((epoch, train_loss, val_loss))
        stop = stopper.update(val_loss)
        if stopper.improved:
            best_params = {k: v.data.copy() for k, v in model.params.items()}
        if stop:
            logger.info("early stop at epoch %d (best val %.6g)", epoch, stopper.best)
            break
    for k, v in best_params.items():
        model.params[k] = ad.Tensor(v, requires_grad=True)
    return model, log


def evaluate(model: NhitsModel, series_list: list[PriceSeries]) -> float:
    """Mean normalised pinball loss over every window of the given series."""
    cfg = model.config
    prices, exos, entries = {}, {}, []
    for s in series_list:
        prices[s.ticker], exos[s.ticker] = _series_arrays(s, cfg)
        entries.extend((s.ticker, w) for w in range(len(s) - cfg.min_series_length + 1))
    return _epoch_loss(model, entries, prices, exos, cfg)


def rolling_forecast(series: PriceSeries, model: NhitsModel) -> np.ndarray:
    """Overlap-averaged median forecast for days encoder..len-1 (numpy, no graph)."""
    cfg = model.config
    if len(series) < cfg.min_series_length:
        raise ValueError(f"{series.ticker}: need at least {cfg.min_series_length} days")
    with ad.no_record():
        fm = compute_features(ad.constant(series.adjprc), series.dates)
        return model.rolling_median_path(fm).data.copy()
