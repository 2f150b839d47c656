"""Simplified multi-rate forecaster with backcast/forecast decomposition.

Each stack max-pools the (per-window normalised) price window at its own rate,
runs a small MLP that emits coefficients at a downsampled resolution, and
linearly interpolates those coefficients back up: the backcast part is
subtracted from the running residual, the forecast parts are summed.  The
exogenous feature window enters the first stack as a flattened side input.

``NhitsModel.stacks`` records all the blocks as one graph node, kind
``nhits_stacks``, with a hand-written numpy vjp.  The forward takes the same
products in the same order as the per-op graph did, so its values are
bit-identical, and so are the vjp's.  The vjp follows the engine's conventions
(first-max pooling routes to the lowest-index maximum, the ReLU derivative is 0
at 0) and computes only what ``need`` asks for: an attack or the GAN's second
critic, which want price gradients, gets no weight products; training, whose
windows are constants, gets none of the window or exogenous products, of which
the (N, hidden) x (hidden, E*17) one is the largest.

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
_BLOCK_PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")


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
    """Per-day quantile forecasts (sorted along the quantile axis) and the median path.

    A batch of series adds a leading axis to both tensors."""

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


def _tc(a: np.ndarray) -> np.ndarray:
    """a.T in its own contiguous buffer, as ``autodiff.transpose`` makes it, so
    BLAS sums the products in the same order as the graph ops did."""
    return np.ascontiguousarray(a.T)


def _pool_taps(win: np.ndarray, index: bool):
    """Max over the short last axis of ``win`` and, with ``index``, where its first
    maximum is: ``maxpool1d``'s routing for finite values.  A loop over the few
    taps runs far faster than ``np.max``/``np.argmax`` over so short an axis."""
    best = win[..., 0]
    arg = np.zeros(best.shape, dtype=np.intp) if index else None
    for j in range(1, win.shape[-1]):
        tap = win[..., j]
        if index:
            arg += (tap > best) * (j - arg)  # strictly greater: a tie keeps the earlier tap
        best = np.maximum(best, tap)
    return best, arg


def _relu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU as ``autodiff.relu`` computes it, and its mask: the derivative is 0 at 0."""
    mask = z > 0.0
    return z * mask, mask


class NhitsModel:
    """Parameter container plus the batched forward pass."""

    def __init__(self, config: NhitsConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        # per block: pool kernel, backcast knots, backcast and forecast interpolation
        self._blocks: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        rng = np.random.default_rng(seed)
        E, H, Q = config.encoder_length, config.horizon, config.n_quantiles
        for si in range(config.n_stacks):
            k = config.pool_kernels[si]
            r = config.downsample_ratios[si]
            eb_knots, hf_knots = E // r, H // r
            interp_b = _interp_matrix(eb_knots, E).T                    # (knots, E)
            interp_f = np.kron(_interp_matrix(hf_knots, H), np.eye(Q)).T
            for _ in range(config.blocks_per_stack):
                idx = len(self._blocks)
                in_dim = E // k
                if idx == 0:
                    in_dim += config.exo_dim
                theta_dim = eb_knots + hf_knots * Q
                self._add_block(idx, in_dim, theta_dim, rng)
                self._blocks.append((k, eb_knots, interp_b, interp_f))

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

    # -- forward ------------------------------------------------------------

    def _normalise_windows(self, adj_w: Tensor):
        wmean = ad.tmean(adj_w, axis=1)
        diff = ad.sub(adj_w, ad.expand(wmean, adj_w.shape, 1))
        wstd = ad.tsqrt(ad.tmean(ad.mul(diff, diff), axis=1))
        denom = ad.add(wstd, NORM_EPS)
        x = ad.div(diff, ad.expand(denom, adj_w.shape, 1))
        return x, wmean, denom

    def core(self, adj_w: Tensor, exo: Tensor | None) -> Tensor:
        """Raw price windows in, denormalised (N, horizon*n_quantiles) out."""
        cfg = self.config
        N, E = adj_w.shape
        if E != cfg.encoder_length:
            raise ValueError(f"window length {E} != encoder length {cfg.encoder_length}")
        x, wmean, denom = self._normalise_windows(adj_w)
        fore = self.stacks(x, exo)
        shape = (N, cfg.horizon * cfg.n_quantiles)
        return ad.add(ad.mul(fore, ad.expand(denom, shape, 1)), ad.expand(wmean, shape, 1))

    def stacks(self, x: Tensor, exo: Tensor | None, internals: bool = False):
        """Every block's pooled MLP, recorded as one op (``nhits_stacks``).

        Normalised windows x (N, E), plus exo (N, exo_dim) for the first block,
        in; the sum of the blocks' forecasts (N, horizon*n_quantiles) out.  With
        ``internals`` also returns each block's (backcast, forecast) and the
        final residual, as arrays.
        """
        names = [f"b{i}.{p}" for i in range(len(self._blocks)) for p in _BLOCK_PARAMS]
        weights = [self.params[n] for n in names]
        parents = (x,) + (() if exo is None else (exo,)) + tuple(weights)
        keep = ad.records(parents)  # without a node nothing is kept for the vjp
        ws = [w.data for w in weights]
        N, E = x.shape
        residual, fore = x.data, None
        saved, blocks = [], []
        for i, (k, eb, ib, iff) in enumerate(self._blocks):
            w1, b1, w2, b2, w3, b3 = ws[6 * i:6 * i + 6]
            pooled, arg = residual, None
            if k > 1:
                pooled, arg = _pool_taps(residual.reshape(N, E // k, k), keep)
            inp = pooled if i or exo is None else np.concatenate([pooled, exo.data], axis=1)
            h1, m1 = _relu(inp @ w1 + b1)
            h2, m2 = _relu(h1 @ w2 + b2)
            theta = h2 @ w3 + b3
            backcast = theta[:, :eb] @ ib
            forecast = theta[:, eb:] @ iff
            residual = residual - backcast
            fore = forecast if fore is None else fore + forecast
            if keep:
                saved.append((arg, inp, m1, h1, m2, h2))
            if internals:
                blocks.append((backcast, forecast))

        def vjp(g, need):
            grads = [None] * len(parents)
            off = len(parents) - len(ws)  # parents before the weights: x and exo
            need_x, need_exo, need_w = need[0], off > 1 and need[1], need[off:]
            g = g.data
            g_res = None  # gradient reaching the residual that leaves block i
            for i in reversed(range(len(self._blocks))):
                k, eb, ib, iff = self._blocks[i]
                arg, inp, m1, h1, m2, h2 = saved[i]
                w1, _, w2, _, w3, _ = ws[6 * i:6 * i + 6]
                nw = need_w[6 * i:6 * i + 6]
                below = need_x or need_exo or any(need_w[:6 * i])  # input gradient wanted
                if not (below or any(nw)):
                    break
                gtheta = np.zeros((N, w3.shape[1]))
                if g_res is not None:
                    gtheta[:, :eb] = -g_res @ _tc(ib)
                gtheta[:, eb:] = g @ _tc(iff)
                gz1 = gz2 = None
                if below or any(nw[:4]):
                    gz2 = (gtheta @ _tc(w3)) * m2
                if below or any(nw[:2]):
                    gz1 = (gz2 @ _tc(w2)) * m1
                for j, (a, gz) in enumerate(((inp, gz1), (h1, gz2), (h2, gtheta))):
                    if nw[2 * j]:
                        grads[off + 6 * i + 2 * j] = Tensor(_tc(a) @ gz)
                    if nw[2 * j + 1]:
                        grads[off + 6 * i + 2 * j + 1] = Tensor(gz.sum(axis=0))
                if not below:
                    continue
                gin = gz1 @ _tc(w1)  # in block 0 the exo columns follow the pooled ones
                P = E // k
                if i == 0 and need_exo:
                    grads[1] = Tensor(gin[:, P:])
                gp = gin[:, :P]
                if arg is not None:  # route to each window's first maximum
                    routed = np.zeros((arg.size, k))
                    routed[np.arange(arg.size), arg.ravel()] = gp.ravel()
                    gp = routed.reshape(N, E)
                g_res = gp if g_res is None else g_res + gp
            if need_x:
                grads[0] = Tensor(g_res)
            return tuple(grads)

        out = ad.custom_op("nhits_stacks", fore, parents, vjp)
        return (out, blocks, residual) if internals else out

    def _exo_from_features(self, fm: FeatureMatrix) -> Tensor:
        """Per-series standardised continuous channels plus the weekday one-hot: (..., T, 17)."""
        cont = fm.continuous
        mu = ad.expand(ad.tmean(cont, axis=-2), cont.shape, -2)
        d = ad.sub(cont, mu)
        sd = ad.tsqrt(ad.tmean(ad.mul(d, d), axis=-2))
        z = ad.div(d, ad.expand(ad.add(sd, NORM_EPS), cont.shape, -2))
        return ad.concat([z, fm.day_one_hot()], axis=-1)

    def _window_tensors(self, fm: FeatureMatrix, n_windows: int):
        """The first n_windows encoder windows of each series, series-major:
        prices (rows, E) and exogenous features (rows, E*17)."""
        cfg = self.config
        E = cfg.encoder_length
        span = n_windows + E - 1
        days = fm.continuous.ndim - 2  # axis of the days
        adj_w = ad.unfold(fm.continuous[..., :span, 0], E, days)
        if days:  # a batch: one row per window of every series
            adj_w = ad.reshape(adj_w, (-1, E))
        if not cfg.use_features:
            return adj_w, None
        exo_days = self._exo_from_features(fm)[..., :span, :]
        return adj_w, ad.reshape(ad.unfold(exo_days, E, days), (-1, cfg.exo_dim))

    def forward(self, window: FeatureMatrix) -> ForecastOutput:
        """Forecast from exactly one encoder window of features, or one per series of a batch."""
        cfg = self.config
        if len(window) != cfg.encoder_length:
            raise ValueError(f"window has {len(window)} days, need {cfg.encoder_length}")
        adj_w, exo = self._window_tensors(window, 1)
        out = self.core(adj_w, exo)
        batch = window.continuous.shape[:-2]
        qp = ad.sort_last(ad.reshape(out, batch + (cfg.horizon, cfg.n_quantiles)))
        return ForecastOutput(qp, qp[..., cfg.median_index], cfg.quantiles)

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


def _pinball(pred: Tensor, y: np.ndarray, q: np.ndarray) -> Tensor:
    """Mean pinball loss over every element: q (y-f)+ + (1-q) (f-y)+."""
    q = ad.constant(q)
    diff = ad.sub(ad.constant(y), pred)
    return ad.tmean(ad.add(ad.mul(q, ad.relu(diff)),
                           ad.mul(ad.sub(1.0, q), ad.relu(ad.mul(diff, -1.0)))))


def quantile_loss(pred: ForecastOutput, truth) -> Tensor:
    """Mean pinball loss over days and quantiles."""
    truth = np.asarray(truth, dtype=np.float64)
    H, Q = pred.quantile_paths.shape
    if truth.shape != (H,):
        raise ValueError(f"truth shape {truth.shape} != ({H},)")
    return _pinball(pred.quantile_paths, np.repeat(truth[:, None], Q, axis=1),
                    np.asarray(pred.quantiles))


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


def _series_days(model: NhitsModel, pools: list[list[PriceSeries]]):
    """Every series' days, concatenated, and each pool's windows as start days.

    Returns the prices (D,), the standardised exogenous rows (D, 17) as
    ``_exo_from_features`` makes them (None without features), and per pool
    an array with the first day of each of its windows.
    """
    cfg = model.config
    # keyed by ticker, so a later series replaces an earlier one of the same
    # ticker (synth_gbm names every pool's series SYN000...): the recorded
    # benchmark fingerprints and acceptance fixtures were trained this way.
    # A window still never runs past the end of the series it is read from.
    lookup = {s.ticker: s for pool in pools for s in pool}
    offsets = dict(zip(lookup, np.cumsum([0] + [len(s) for s in lookup.values()])))
    prices = np.concatenate([s.adjprc for s in lookup.values()])
    exo = None
    if cfg.use_features:
        with ad.no_record():
            exo = np.concatenate([
                model._exo_from_features(compute_features(ad.constant(s.adjprc), s.dates)).data
                for s in lookup.values()])
    starts = [np.array([offsets[s.ticker] + w for s in pool
                        for w in range(min(len(s), len(lookup[s.ticker]))
                                       - cfg.min_series_length + 1)], dtype=np.intp)
              for pool in pools]
    return prices, exo, starts


def _assemble_batch(starts: np.ndarray, prices: np.ndarray, exo: np.ndarray | None,
                    cfg: NhitsConfig):
    """The encoder windows (B, E), horizon truths (B, H) and exogenous windows
    (B, E*17) that begin at the given days, gathered with one index each."""
    E = cfg.encoder_length
    days = starts[:, None] + np.arange(cfg.min_series_length)
    path = prices[days]
    exo_w = None if exo is None else exo[days[:, :E]].reshape(len(starts), -1)
    return path[:, :E], path[:, E:], exo_w


def _batch_loss(model: NhitsModel, starts, prices, exo) -> Tensor:
    """Pinball loss of the unsorted normalised outputs against the normalised truths."""
    cfg = model.config
    adj, truth, exo_w = _assemble_batch(starts, prices, exo, cfg)
    x, wmean, denom = model._normalise_windows(ad.constant(adj))
    fore = model.stacks(x, None if exo_w is None else ad.constant(exo_w))
    truth_norm = (truth - wmean.data[:, None]) / denom.data[:, None]
    Q = cfg.n_quantiles  # outputs are day-major: (day 0, q 0), (day 0, q 1), ...
    return _pinball(fore, np.repeat(truth_norm, Q, axis=1), np.tile(cfg.quantiles, cfg.horizon))


def _mean_loss(model: NhitsModel, starts, prices, exo) -> float:
    total = 0.0
    with ad.no_record():
        for i in range(0, len(starts), model.config.batch_size):
            batch = starts[i:i + model.config.batch_size]
            total += _batch_loss(model, batch, prices, exo).item() * len(batch)
    return total / max(len(starts), 1)


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
    prices, exo, (train_starts, val_starts) = _series_days(model, [train_series, val_series])

    rng = np.random.default_rng(seed)
    stopper = EarlyStopper(cfg.early_stop_patience)
    best_params = {k: v.data.copy() for k, v in model.params.items()}
    log: list[tuple[int, float, float]] = []

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_starts))
        running = 0.0
        for i in range(0, len(order), cfg.batch_size):
            batch = train_starts[order[i:i + cfg.batch_size]]
            loss = _batch_loss(model, batch, prices, exo)
            lval = loss.item()
            if not np.isfinite(lval):
                raise NumericalError(f"training loss became non-finite at epoch {epoch}")
            ad.sgd_step(model.params, loss, cfg.lr, cfg.weight_decay)
            running += lval * len(batch)
        train_loss = running / max(len(order), 1)
        val_loss = _mean_loss(model, val_starts, prices, exo)
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
    prices, exo, (starts,) = _series_days(model, [series_list])
    return _mean_loss(model, starts, prices, exo)


def rolling_forecast(series: PriceSeries, model: NhitsModel) -> np.ndarray:
    """Overlap-averaged median forecast for days encoder..len-1 (numpy, no graph)."""
    cfg = model.config
    if len(series) < cfg.min_series_length:
        raise ValueError(f"{series.ticker}: need at least {cfg.min_series_length} days")
    with ad.no_record():
        fm = compute_features(ad.constant(series.adjprc), series.dates)
        return model.rolling_median_path(fm).data.copy()
