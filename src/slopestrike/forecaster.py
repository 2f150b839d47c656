"""Simplified multi-rate forecaster with backcast/forecast decomposition.

Each stack max-pools the (per-window normalised) price window at its own rate,
runs a small MLP that emits coefficients at a downsampled resolution, and
linearly interpolates those coefficients back up: the backcast part is
subtracted from the running residual, the forecast parts are summed.  A stack
with downsample ratio 1 emits one coefficient per step, so, as in N-HiTS, it
skips the interpolation, which would multiply by the identity.  Each stack is
one block.  The input is always the price window plus the 17-channel exogenous
feature window, which enters the first stack as a flattened side input.

Prices reach a forecast through one recorded op with a hand-written numpy
vjp.  ``NhitsModel.core`` (kind ``nhits_forecast``, parents: the prices and
the 18 block weights) derives the features with the ``features`` kernels,
reads the price windows as views of the days, standardises each series'
exogenous days, normalises each price window, runs the stacks, denormalises,
sorts each day's quantiles to pick the median path and overlap-averages the
windows' median paths onto the days.  In its ends mode, which the GSA attack
takes, it forecasts only the first and last window, forward and back, and
returns the path's first and last day.  The op repeats the arithmetic of the
per-op graph it replaced, including the order in which the engine added its
gradients, so values and gradients are bit-identical to it.  The vjp follows
the engine's conventions (first-max pooling routes to the lowest-index
maximum, the ReLU and sqrt derivatives are 0 at 0) and computes only what
``need`` asks for: an attack or the GAN's second critic gets no weight
products.  Training runs the same window normalisation and the stacks alone
(``NhitsModel.stacks``, kind ``nhits_stacks``, parents: the price windows,
the first stack's input and the weights) on its gathered windows, which are
constants, so it gets only the weight products.  Training and ``core`` build
the first stack's input one way: one gather copies each window's exogenous
days, behind room for the pooled prices, which the stacks write there.  Each
window is forecast on its own, so ``core`` runs one block loop: one block of
every window when a vjp will run, and near-equal row blocks when none will,
from window normalisation to the median pick.  A long series' forecast then
never builds the first stack's input, or its (windows, horizon*quantiles)
forecasts, for every window at once.

Quantile outputs are trained unsorted; ``core`` sorts each day's quantiles
only to pick their median, which is all a forecast reports.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import features
from .autodiff import Tensor
from .dataio import PriceSeries, save_checkpoint, load_model_checkpoint

logger = logging.getLogger(__name__)

NORM_EPS = 1e-8
# the least rows of a row block when core runs with no vjp: N windows go
# through in max(1, N // ROW_BLOCK) near-equal blocks of ROW_BLOCK to
# 2 * ROW_BLOCK - 1 rows, or one of N < ROW_BLOCK.  OpenBLAS (AVX-512) runs a
# GEMM with M*N*K <= 1e6 on a small kernel that rounds some columns differently,
# and 512 rows keep every product of the default model (the smallest is
# 25 x 100) above that, as one product over more windows is, so the outputs
# stay those of the unblocked pass
ROW_BLOCK = 512
_BLOCK_PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")


class NumericalError(Exception):
    """Training or attack produced a non-finite value."""


@dataclass
class NhitsConfig:
    # the fixed input layout, which older checkpoints name
    use_features: ClassVar[bool] = True
    blocks_per_stack: ClassVar[int] = 1
    encoder_length: int = 100
    horizon: int = 20
    n_stacks: int = 3
    pool_kernels: tuple[int, ...] = (4, 2, 1)
    downsample_ratios: tuple[int, ...] = (4, 2, 1)
    hidden_size: int = 64
    quantiles: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 0.95, 0.99, 0.999)
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    early_stop_patience: int = 15

    def __post_init__(self):
        self.pool_kernels = tuple(int(k) for k in self.pool_kernels)
        self.downsample_ratios = tuple(int(r) for r in self.downsample_ratios)
        self.quantiles = tuple(float(q) for q in self.quantiles)
        for name in ("epochs", "batch_size", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
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
        return self.encoder_length * 17

    @property
    def pooled_dim(self) -> int:
        """The first stack's pooled price columns, which lead its input."""
        return self.encoder_length // self.pool_kernels[0]

    @property
    def min_series_length(self) -> int:
        return self.encoder_length + self.horizon


def _interp_matrix(knots: int, length: int) -> np.ndarray:
    """Linear interpolation from `knots` points to `length` points, endpoints aligned."""
    M = np.zeros((length, knots))
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


def _interp(a: np.ndarray, m: np.ndarray | None) -> np.ndarray:
    """a @ m, or a itself where m is None: a ratio-1 block's interpolation is the identity."""
    return a if m is None else a @ m


def _tc(a: np.ndarray) -> np.ndarray:
    """a.T in its own contiguous buffer, as ``autodiff.transpose`` makes it, so
    BLAS sums the products in the same order as the graph ops did."""
    return np.ascontiguousarray(a.T)


def _relu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU as ``autodiff.relu`` computes it, and its mask: the derivative is 0 at 0."""
    mask = z > 0.0
    return z * mask, mask


class NhitsModel:
    """Parameter container plus the batched forward pass."""

    def __init__(self, config: NhitsConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        # per block (one per stack): pool kernel, backcast knots, backcast/forecast
        # interpolation (None at ratio 1)
        self._blocks: list[tuple[int, int, np.ndarray | None, np.ndarray | None]] = []
        rng = np.random.default_rng(seed)
        E, H, Q = config.encoder_length, config.horizon, config.n_quantiles
        for i, (k, r) in enumerate(zip(config.pool_kernels, config.downsample_ratios)):
            eb_knots, hf_knots = E // r, H // r
            interp_b = _interp_matrix(eb_knots, E).T if r > 1 else None  # (knots, E)
            interp_f = np.kron(_interp_matrix(hf_knots, H), np.eye(Q)).T if r > 1 else None
            in_dim = E // k + (config.exo_dim if i == 0 else 0)
            self._add_block(i, in_dim, eb_knots + hf_knots * Q, rng)
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

    def save(self, path) -> None:
        save_checkpoint({k: v.data for k, v in self.params.items()}, path,
                        {"model": "nhits", "config": asdict(self.config)})

    @classmethod
    def load(cls, path) -> "NhitsModel":
        def build(config):
            model = cls(config)
            return model, {"": model.params}

        return load_model_checkpoint(path, "nhits", "forecaster", NhitsConfig, build)[0]

    def param_bytes(self) -> bytes:
        return b"".join(self.params[k].data.tobytes() for k in sorted(self.params))

    # -- forward ------------------------------------------------------------

    def _weights(self) -> list[Tensor]:
        return [self.params[f"b{i}.{p}"] for i in range(len(self._blocks)) for p in _BLOCK_PARAMS]

    def _stacks_forward(self, ws, x, first, keep):
        """Every block's pooled MLP in numpy, on normalised windows x (N, E) and
        the first block's input ``first``, filled as ``stacks`` says.  Returns the
        summed forecast (N, horizon*n_quantiles) and, with ``keep``, what
        ``_stacks_vjp`` needs."""
        N, E = x.shape
        residual, fore, saved = x, None, []
        for i, (k, eb, ib, iff) in enumerate(self._blocks):
            w1, b1, w2, b2, w3, b3 = ws[6 * i:6 * i + 6]
            pooled, arg = residual, None
            if k > 1:
                pooled, arg = ad.pool_taps(residual.reshape(N, E // k, k), keep)
            inp = pooled
            if i == 0:  # drop this name, so a buffer no caller holds is freed after block 0
                inp, first = first, None
                inp[:, :E // k] = pooled
            h1, m1 = _relu(inp @ w1 + b1)
            h2, m2 = _relu(h1 @ w2 + b2)
            theta = h2 @ w3 + b3
            backcast = _interp(theta[:, :eb], ib)
            forecast = _interp(theta[:, eb:], iff)
            residual = residual - backcast
            fore = forecast if fore is None else fore + forecast
            if keep:
                saved.append((arg, inp, m1, h1, m2, h2))
        return fore, saved

    def _stacks_vjp(self, ws, saved, g, need_x, need_exo, need_w):
        """The stacks' vjp in numpy: the gradients of x and exo, and a list with
        one per weight; each is None where it is not needed."""
        N, E = g.shape[0], self.config.encoder_length
        gw = [None] * len(ws)
        g_exo = g_res = None  # g_res: gradient reaching the residual that leaves block i
        for i in reversed(range(len(self._blocks))):
            k, eb, ib, iff = self._blocks[i]
            arg, inp, m1, h1, m2, h2 = saved[i]
            w1, _, w2, _, w3, _ = ws[6 * i:6 * i + 6]
            nw = need_w[6 * i:6 * i + 6]
            below = need_x or need_exo or any(need_w[:6 * i])  # input gradient wanted
            if not (below or any(nw)):
                break
            gtheta = np.zeros((N, w3.shape[1]))
            tb, tf = (None if m is None else _tc(m) for m in (ib, iff))
            if g_res is not None:
                gtheta[:, :eb] = _interp(-g_res, tb)
            gtheta[:, eb:] = _interp(g, tf)
            gz1 = gz2 = None
            if below or any(nw[:4]):
                gz2 = (gtheta @ _tc(w3)) * m2
            if below or any(nw[:2]):
                gz1 = (gz2 @ _tc(w2)) * m1
            # the input's product reads its transpose in place: BLAS sums it as
            # it sums a contiguous copy at every input and batch size tried, which
            # the (64, 60) hidden product does not, so the hidden ones keep copies
            for j, (a, gz) in enumerate(((inp, gz1), (h1, gz2), (h2, gtheta))):
                if nw[2 * j]:
                    gw[6 * i + 2 * j] = (a.T if j == 0 else _tc(a)) @ gz
                if nw[2 * j + 1]:
                    gw[6 * i + 2 * j + 1] = gz.sum(axis=0)
            if not below:
                continue
            P = E // k
            # in block 0 the exo columns follow the pooled ones.  That input is
            # the caller's buffer, dead once the weight products are taken, so it
            # takes the input gradient: no second array of that size is
            # allocated and freed in every backward
            gin = np.matmul(gz1, _tc(w1), out=inp if i == 0 else None)
            if i == 0 and need_exo:
                g_exo = gin[:, P:]
            gp = gin[:, :P]
            if arg is not None:  # route to each window's first maximum
                gp = ad.pool_taps_vjp(gp, arg, k).reshape(N, E)
            g_res = gp if g_res is None else g_res + gp
        return (g_res if need_x else None), g_exo, gw

    def stacks(self, x: Tensor, first: Tensor) -> Tensor:
        """Every block's pooled MLP, recorded as one op (``nhits_stacks``).

        Normalised windows x (N, E) and the first block's input ``first``
        (N, P + exo_dim), P = ``config.pooled_dim``, in; the sum of the blocks'
        forecasts (N, horizon*n_quantiles) out.  The parents are x, first and
        the weights.  The op takes ``first`` over: it writes the pooled prices
        into its first P columns, whose gradient is therefore 0, and a vjp that
        wants an input gradient writes it over the buffer.
        """
        weights = self._weights()
        parents = (x, first) + tuple(weights)
        ws = [w.data for w in weights]
        fore, saved = self._stacks_forward(ws, x.data, first.data, ad.records(parents))

        def vjp(g, need):
            gx, gexo, gw = self._stacks_vjp(ws, saved, g.data, need[0], need[1], need[2:])
            if gexo is not None:
                gexo = np.concatenate([np.zeros((len(gexo), self.config.pooled_dim)), gexo], 1)
            return tuple(_tensor(a) for a in (gx, gexo, *gw))

        return ad.custom_op("nhits_stacks", fore, parents, vjp)

    def core(self, prices: Tensor, dates, n_windows: int, ends: bool = False) -> Tensor:
        """Prices in, overlap-averaged median path out, recorded as one op
        (``nhits_forecast``, parents: the prices and the weights).

        ``prices`` holds one series (T,) or a batch (B, T) that shares
        ``dates``.  The first n_windows encoder windows of every series are
        forecast, each day's quantiles are sorted stably to pick the median, and
        each series' median paths are averaged onto its days:
        (..., n_windows + horizon - 1).  The attacks and ``rolling_forecast``
        take every window, the GAN one window per series.  With ``ends`` the op
        returns only the path's first and last day, (..., 2): window 0 alone
        covers the first and window n_windows - 1 alone the last, so only those
        windows (one when n_windows == 1) go through the stacks, forward and
        back.  The features and the exogenous standardisation still read every
        day.  Those rows share smaller GEMMs than in a full pass, so their values
        can differ from the full path's ends in the last bit.  The price
        windows' gradient meets the exogenous one on the price channel of the
        features, in the order the per-op graph added them, before the
        features vjp.
        """
        cfg = self.config
        E, H, Q = cfg.encoder_length, cfg.horizon, cfg.n_quantiles
        span = n_windows + E - 1
        p = prices.data
        one_hot = features.weekday_one_hot(p, dates)
        lead, T, days = p.shape[:-1], p.shape[-1], p.ndim - 1  # batch shape, days, their axis
        if not 1 <= n_windows <= T - E + 1:
            raise ValueError(f"{T} days do not hold {n_windows} windows of {E}")
        weights = self._weights()
        parents = (prices,) + tuple(weights)
        ws = [w.data for w in weights]
        record = ad.records(parents)
        c, feats = features.price_features(p, record)
        wins = np.unique([0, n_windows - 1]) if ends else np.arange(n_windows)  # window starts
        # contiguous windows, so the window means sum as the graph's did
        adj = ad.window_view(np.ascontiguousarray(p[..., :span]), E, axis=days)
        adj = (adj[..., wins, :] if ends else adj).reshape(-1, E)
        exo, ex = _exo_days(c, one_hot, cfg.pooled_dim)
        starts = (T * np.arange(p[..., 0].size)[:, None] + wins).ravel()
        # with no vjp to run, the windows go through in near-equal row blocks:
        # only one block of the first stack's input is ever built, and only the
        # median paths outlive a block
        N = adj.shape[0]
        n_blocks = 1 if record else max(1, N // ROW_BLOCK)
        med = np.empty((N, H))
        for j in range(n_blocks):
            rows = slice(N * j // n_blocks, N * (j + 1) // n_blocks)
            kept = self._forecast_block(ws, adj[rows], exo, starts[rows], med[rows], record)
        med = med.reshape(lead + (len(wins), H))
        if ends:  # each end day is covered by one window, so its average is that forecast
            path = np.stack([med[..., 0, 0], med[..., -1, -1]], axis=-1)
        else:
            n_days = n_windows + H - 1
            counts = ad.overlap_add(np.ones((n_windows, H)), n_days)  # forecasts per day
            path = ad.overlap_add(med, n_days, axis=days) / counts
        if not record:
            return Tensor(path)
        saved, win, denom, fore, src = kept

        def vjp(g, need):
            # each day's gradient, divided by the forecasts covering it, goes to
            # the quantile that sorted into the median
            if ends:
                g_med = np.zeros(lead + (len(wins), H))
                g_med[..., 0, 0] = g.data[..., 0]
                g_med[..., -1, -1] += g.data[..., 1]
            else:
                g_med = ad.window_view(g.data / counts, H, axis=days)
            gq = np.zeros((N, H, Q))
            np.put_along_axis(gq, src, g_med.reshape(src.shape), axis=-1)
            g = gq.reshape(N, H * Q)
            need_in = need[0]
            gx, gexo, gw = self._stacks_vjp(ws, saved, g * denom[:, None], need_in, need_in,
                                            need[1:])
            grads = [None] + [_tensor(a) for a in gw]
            if not need_in:
                return tuple(grads)
            # the denormalisation sends g to the window means and g * fore to the denominators
            g_adj = _standardise_vjp(gx, win, 1, np.sum(g, axis=1), np.sum(g * fore, axis=1))
            # one fold takes the price windows and the 12 continuous exo channels
            # back onto the days.  The one-hot channels are constants, so the
            # price gradient takes the place of the first one in the stacks' exo
            # gradient, a buffer of this vjp's own, and nothing is copied.
            windows = lead + (len(wins), E)
            taps = gexo.reshape(windows + (17,))[..., :13]
            taps[..., 12] = g_adj.reshape(windows)
            if ends:  # the end windows' taps, added at their starts in window order
                folded = np.zeros(lead + (span, 13))
                for j, s in enumerate(wins):
                    folded[..., s:s + E, :] += taps[..., j, :, :]
            else:
                folded = ad.overlap_add(taps, span, axis=days)
            g_z, g_price = np.zeros(c.shape), np.zeros(c.shape)
            g_z[..., :span, :] = folded[..., :12]
            g_price[..., :span, 0] = folded[..., 12]
            g_cont = _standardise_vjp(g_z, ex, -2) + g_price
            grads[0] = Tensor(features.price_features_vjp(g_cont, feats))
            return tuple(grads)

        return ad.custom_op("nhits_forecast", path, parents, vjp)

    def _forecast_block(self, ws, adj, exo, starts, med, keep):
        """One row block of windows through window normalisation, the stacks and
        denormalisation; each window's median path goes into ``med``.  Returns
        what the vjp needs with ``keep``, else None, so no other array of the
        block outlives it: one that did split the heap under the next block's
        larger buffers, which then stayed resident."""
        cfg = self.config
        m = cfg.median_index
        x, wmean, denom, win = standardise(adj, 1)
        fore, saved = self._stacks_forward(ws, x, _first_inputs(exo, starts, cfg), keep)
        q = (fore * denom[:, None] + wmean[:, None]).reshape(-1, cfg.horizon, cfg.n_quantiles)
        if not keep:
            med[:] = np.sort(q, axis=-1, kind="stable")[..., m]
            return None
        src = np.argsort(q, axis=-1, kind="stable")[..., m:m + 1]  # where each median is
        med[:] = np.take_along_axis(q, src, axis=-1)[..., 0]
        return saved, win, denom, fore, src


def _tensor(a: np.ndarray | None) -> Tensor | None:
    return None if a is None else Tensor(a)


def standardise(a: np.ndarray, axis: int):
    """(a - mean) / (std + NORM_EPS) along ``axis``, the population std.

    Returns that, the means, the denominators and what ``_standardise_vjp``
    needs.  The forecaster normalises each price window this way (axis 1) and
    standardises each series' continuous channels over its days (axis -2); the
    discriminator standardises each of its input windows (axis 1).
    """
    mean = np.mean(a, axis=axis)
    diff = a - np.expand_dims(mean, axis)
    std = np.sqrt(np.mean(diff * diff, axis=axis))
    den = std + NORM_EPS
    return diff / np.expand_dims(den, axis), mean, den, (diff, std, den)


def _standardise_vjp(g, saved, axis, g_mean=None, g_den=None):
    """Gradient of ``a`` for g on the standardised values, plus g_mean and g_den
    where the means and denominators are used again (the denormalisation).

    Each step repeats the arithmetic of the graph ops that computed this before
    (mean, sub, mul, sqrt, add, div and their expands), and the three gradients
    that meet at ``diff`` add up in the order the engine's sweep added them, so
    the result is bit-identical to that graph's.
    """
    diff, std, den = saved
    inv_n = 1.0 / diff.shape[axis]
    dx = np.expand_dims(den, axis)
    g_std = np.sum((g * -1.0) * (diff / (dx * dx)), axis=axis)
    if g_den is not None:
        g_std = g_std + g_den
    zero = std == 0.0  # the sqrt's derivative is taken as 0 there
    g_var = (g_std * np.where(zero, 0.0, 0.5)) * ((std + np.where(zero, 1.0, 0.0)) ** -1.0)
    g_sq = (np.expand_dims(g_var, axis) * inv_n) * diff  # reaches diff twice, via diff * diff
    g_diff = (g / dx + g_sq) + g_sq
    g_mu = np.sum(g_diff * -1.0, axis=axis)
    if g_mean is not None:
        g_mu = g_mu + g_mean
    return g_diff + np.expand_dims(g_mu, axis) * inv_n


def _exo_days(cont: np.ndarray, one_hot: np.ndarray, lead: int):
    """Each series' standardised continuous channels plus the weekday one-hot,
    17 values a day, raveled series after series and day after day behind
    ``lead`` zeros, and what ``_standardise_vjp`` needs."""
    z, _, _, saved = standardise(cont, -2)
    flat = np.zeros(lead + z[..., 0].size * 17)
    days = flat[lead:].reshape(z.shape[:-1] + (17,))
    days[..., :12] = z
    days[..., 12:] = one_hot
    return flat, saved


def _first_inputs(exo: np.ndarray, starts: np.ndarray, cfg: NhitsConfig) -> np.ndarray:
    """The first stack's input (B, pooled_dim + exo_dim) of the windows that begin
    at the given days of ``exo`` (``_exo_days`` behind pooled_dim zeros), in one
    gather: each row is a run of ``exo`` whose head the stacks overwrite."""
    return ad.window_view(exo, cfg.pooled_dim + cfg.exo_dim)[17 * starts]


def _pinball(pred: Tensor, y: np.ndarray, q: np.ndarray) -> Tensor:
    """Mean pinball loss over every element: q (y-f)+ + (1-q) (f-y)+."""
    q = ad.constant(q)
    diff = ad.sub(ad.constant(y), pred)
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


def _series_days(model: NhitsModel, pools: list[list[PriceSeries]]):
    """Every series' days, concatenated, and each pool's windows as start days.

    Returns the prices (D,), the standardised exogenous days as
    ``NhitsModel.core`` lays them out (17 values a day behind
    ``cfg.pooled_dim`` zeros), and per pool an array with the first day of
    each of its windows.
    """
    cfg = model.config
    # keyed by ticker, so a later series replaces an earlier one of the same
    # ticker (synth_gbm names every pool's series SYN000...): the recorded
    # benchmark fingerprints and acceptance fixtures were trained this way.
    # A window still never runs past the end of the series it is read from.
    lookup = {s.ticker: s for pool in pools for s in pool}
    offsets = dict(zip(lookup, np.cumsum([0] + [len(s) for s in lookup.values()])))
    prices = np.concatenate([s.adjprc for s in lookup.values()])
    exo = np.concatenate([np.zeros(cfg.pooled_dim)]
                         + [_exo_days(features.price_features(s.adjprc, False)[0],
                                      features.weekday_one_hot(s.adjprc, s.dates), 0)[0]
                            for s in lookup.values()])
    starts = [np.array([offsets[s.ticker] + w for s in pool
                        for w in range(min(len(s), len(lookup[s.ticker]))
                                       - cfg.min_series_length + 1)], dtype=np.intp)
              for pool in pools]
    return prices, exo, starts


def _assemble_batch(starts: np.ndarray, prices: np.ndarray, exo: np.ndarray, cfg: NhitsConfig):
    """The encoder windows (B, E), horizon truths (B, H) and first stack inputs
    (B, pooled_dim + E*17) that begin at the given days, gathered with one
    index each."""
    E = cfg.encoder_length
    path = prices[starts[:, None] + np.arange(cfg.min_series_length)]
    return path[:, :E], path[:, E:], _first_inputs(exo, starts, cfg)


def _batch_loss(model: NhitsModel, starts, prices, exo) -> Tensor:
    """Pinball loss of the unsorted normalised outputs against the normalised truths."""
    cfg = model.config
    adj, truth, first = _assemble_batch(starts, prices, exo, cfg)
    x, wmean, denom, _ = standardise(adj, 1)
    fore = model.stacks(ad.constant(x), ad.constant(first))
    truth_norm = (truth - wmean[:, None]) / denom[:, None]
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
          config: NhitsConfig, seed: int = 0):
    """Minibatch gradient descent with decoupled weight decay and early stopping.

    Returns (model, log) where log rows are (epoch, train_loss, val_loss).
    The model carried back is the best-validation snapshot.
    """
    cfg = config
    for s in train_series + val_series:
        if len(s) < cfg.min_series_length:
            raise ValueError(f"{s.ticker}: {len(s)} days < {cfg.min_series_length}")
    model = NhitsModel(cfg, seed=seed)
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


def rolling_forecast(series: PriceSeries, model: NhitsModel) -> np.ndarray:
    """Overlap-averaged median forecast for days encoder..len-1 (numpy, no graph):
    the attacks' unattacked and attacked paths."""
    cfg = model.config
    if len(series) < cfg.min_series_length:
        raise ValueError(f"{series.ticker}: need at least {cfg.min_series_length} days")
    n_windows = len(series) - cfg.min_series_length + 1
    with ad.no_record():
        return model.core(ad.constant(series.adjprc), series.dates, n_windows).data.copy()
