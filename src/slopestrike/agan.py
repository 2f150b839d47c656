"""Adversarial conditional WGAN-GP over 99-day log-return intervals.

The generator is a causal TCN fed noise concatenated with a real (min-max
scaled) log-return interval as the condition; the critic is a tanh MLP over
the flattened (interval, condition) pair so that the gradient penalty's
second-order pass stays inside the supported operation subset.  A frozen
forecaster acts as a second critic: the whole batch of generated returns is
converted back to prices and forecast in one graph, and each forecast's
least-squares slope is pushed positive.  Training
runs in transfer-learning blocks with a rising adversarial scale.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import PriceSeries, business_days, save_checkpoint, load_checkpoint, CheckpointError
from .features import compute_features
from .forecaster import NhitsModel, NumericalError
from .attacks import general_slope_value, ls_slope, ls_slope_value, slope_loss

logger = logging.getLogger(__name__)

_PRICE_DATES = business_days(dt.date(2020, 1, 6), 200)


@dataclass
class GanConfig:
    interval_length: int = 99
    batch_size: int = 32
    samples_per_epoch: int = 512
    critic_iters: int = 5
    lambda_gp: float = 1.0
    gp_apply_prob: float = 0.6
    lr_g: float = 1e-4
    lr_c: float = 1e-4
    adv_scale_schedule: tuple[float, ...] = (0.25, 0.25, 0.3, 0.35, 0.35)
    epochs_per_block: tuple[int, ...] = (50, 50, 50, 50, 50)
    c: float = 5.0
    d: float = 2.0
    gen_hidden: tuple[int, ...] = (64, 128, 64, 32)
    gen_kernels: tuple[int, ...] = (3, 5, 5, 3)
    gen_dilations: tuple[int, ...] = (1, 2, 4, 8)
    leaky_slope: float = 0.2
    critic_hidden: tuple[int, ...] = (128, 64)

    def __post_init__(self):
        for name in ("adv_scale_schedule", "epochs_per_block", "gen_hidden",
                     "gen_kernels", "gen_dilations", "critic_hidden"):
            setattr(self, name, tuple(getattr(self, name)))
        if len(self.adv_scale_schedule) != len(self.epochs_per_block):
            raise ValueError("adv_scale_schedule and epochs_per_block lengths differ")
        if not (0.0 <= self.gp_apply_prob <= 1.0):
            raise ValueError(f"gp_apply_prob must be in [0,1], got {self.gp_apply_prob}")
        if any(a <= 0 for a in self.adv_scale_schedule):
            raise ValueError("adversarial scales must be positive")
        if not (len(self.gen_hidden) == len(self.gen_kernels) == len(self.gen_dilations)):
            raise ValueError("generator layer specs must have equal lengths")


@dataclass
class ScaledInterval:
    log_returns: np.ndarray          # scaled to [0,1] with the training bounds
    scale_bounds: tuple[float, float]
    condition: np.ndarray            # the real scaled interval used as condition
    p0: float                        # first price of the condition window

    def __post_init__(self):
        self.log_returns = np.asarray(self.log_returns, dtype=np.float64)
        self.condition = np.asarray(self.condition, dtype=np.float64)
        if self.log_returns.shape != self.condition.shape:
            raise ValueError("interval and condition lengths differ")


def series_log_returns(series: PriceSeries) -> np.ndarray:
    return np.diff(np.log(series.adjprc))


def scale_bounds(series: PriceSeries) -> tuple[float, float]:
    r = series_log_returns(series)
    lo, hi = float(r.min()), float(r.max())
    if hi == lo:
        raise ValueError("degenerate series: all log returns identical")
    return lo, hi


def scale(returns: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = bounds
    return (np.asarray(returns, dtype=np.float64) - lo) / (hi - lo)


def unscale(scaled: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = bounds
    return np.asarray(scaled, dtype=np.float64) * (hi - lo) + lo


def sample_intervals(series: PriceSeries, n: int, seed: int,
                     length: int = 99) -> list[ScaledInterval]:
    """Seeded uniform 99-return windows, min-max scaled with full-series bounds."""
    returns = series_log_returns(series)
    if len(returns) < length:
        raise ValueError(f"{series.ticker}: {len(series)} prices cannot host a "
                         f"{length}-return window")
    bounds = scale_bounds(series)
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(returns) - length + 1, size=n)
    out = []
    for s in starts:
        scaled = scale(returns[s:s + length], bounds)
        out.append(ScaledInterval(scaled, bounds, scaled.copy(), float(series.adjprc[s])))
    return out


def to_prices(log_returns: np.ndarray, p0) -> np.ndarray:
    """Prices from raw (unscaled) log returns: p_t = p0 * exp(cumsum(r)).

    Returns (L,) -> (L+1,) with a float p0, or (n, L) -> (n, L+1) with one p0
    per row.  Raises if any row has a non-positive p0 or overflows exp.
    """
    p0 = np.asarray(p0, dtype=np.float64)[..., None]
    if np.any(p0 <= 0.0):
        raise ad.DomainError(f"p0 must be positive, got {float(np.min(p0))}")
    csum = np.cumsum(np.asarray(log_returns, dtype=np.float64), axis=-1)
    if csum.size and np.max(np.abs(csum)) > 700.0:
        raise ad.DomainError("cumulative log return overflows exp")
    return np.concatenate([p0, p0 * np.exp(csum)], axis=-1)


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

class TcnGenerator:
    """Causal TCN over (noise, condition) channels, linear 1x1 head."""

    def __init__(self, config: GanConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        chans = (2,) + config.gen_hidden
        self.params: dict[str, Tensor] = {}
        for i, (k, _dil) in enumerate(zip(config.gen_kernels, config.gen_dilations)):
            fan_in = chans[i] * k
            s = 1.0 / np.sqrt(fan_in)
            self.params[f"tcn{i}.w"] = ad.Tensor(rng.uniform(-s, s, (chans[i + 1], chans[i], k)),
                                                 requires_grad=True)
            self.params[f"tcn{i}.b"] = ad.Tensor(np.zeros(chans[i + 1]), requires_grad=True)
        # zero head with mid-scale bias: the untrained generator emits flat
        # mid-range returns instead of price explosions
        self.params["head.w"] = ad.Tensor(np.zeros((1, chans[-1], 1)), requires_grad=True)
        self.params["head.b"] = ad.Tensor(np.full(1, 0.5), requires_grad=True)

    def forward(self, z_cond: Tensor) -> Tensor:
        """(B, 2, L) noise+condition -> (B, L) scaled log returns."""
        cfg = self.config
        h = z_cond
        for i, dil in enumerate(cfg.gen_dilations):
            h = ad.conv1d(h, self.params[f"tcn{i}.w"], dilation=dil)
            h = ad.channel_bias(h, self.params[f"tcn{i}.b"])
            h = ad.leaky_relu(h, cfg.leaky_slope)
        h = ad.conv1d(h, self.params["head.w"])
        h = ad.channel_bias(h, self.params["head.b"])
        B = h.shape[0]
        return ad.reshape(h, (B, cfg.interval_length))


class MlpCritic:
    """tanh MLP over the flattened (interval, condition) pair; GP-differentiable."""

    def __init__(self, config: GanConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        dims = (2 * config.interval_length,) + config.critic_hidden + (1,)
        self.params: dict[str, Tensor] = {}
        for i in range(len(dims) - 1):
            s = 1.0 / np.sqrt(dims[i])
            self.params[f"fc{i}.w"] = ad.Tensor(rng.uniform(-s, s, (dims[i], dims[i + 1])),
                                                requires_grad=True)
            self.params[f"fc{i}.b"] = ad.Tensor(np.zeros(dims[i + 1]), requires_grad=True)

    def forward(self, flat: Tensor) -> Tensor:
        """(B, 2L) -> (B, 1) critic scores."""
        n_layers = len(self.config.critic_hidden) + 1
        h = flat
        for i in range(n_layers):
            h = ad.affine(h, self.params[f"fc{i}.w"], self.params[f"fc{i}.b"])
            if i < n_layers - 1:
                h = ad.tanh(h)
        return h


@dataclass
class GanBundle:
    generator: TcnGenerator
    critic: MlpCritic
    config: GanConfig
    scale_bounds: tuple[float, float]

    def save(self, path) -> None:
        arrays = {f"g.{k}": v.data for k, v in self.generator.params.items()}
        arrays.update({f"c.{k}": v.data for k, v in self.critic.params.items()})
        arch = {"model": "agan", "config": asdict(self.config),
                "scale_bounds": list(self.scale_bounds)}
        save_checkpoint(arrays, path, arch)

    @classmethod
    def load(cls, path) -> "GanBundle":
        arrays, arch = load_checkpoint(path)
        if arch.get("model") != "agan":
            raise CheckpointError(f"{path}: not a GAN checkpoint")
        config = GanConfig(**arch["config"])
        gen = TcnGenerator(config)
        crit = MlpCritic(config)
        expected = {f"g.{k}" for k in gen.params} | {f"c.{k}" for k in crit.params}
        if set(arrays) != expected:
            raise CheckpointError(f"{path}: parameter names do not match architecture")
        for k in gen.params:
            gen.params[k] = ad.Tensor(arrays[f"g.{k}"], requires_grad=True)
        for k in crit.params:
            crit.params[k] = ad.Tensor(arrays[f"c.{k}"], requires_grad=True)
        return cls(gen, crit, config, tuple(arch["scale_bounds"]))


# ---------------------------------------------------------------------------
# WGAN-GP pieces
# ---------------------------------------------------------------------------

def interpolate(real_flat: np.ndarray, fake_flat: np.ndarray, rng) -> np.ndarray:
    """Per-sample uniform interpolates between real and fake critic inputs."""
    u = rng.random((len(real_flat), 1))
    return u * real_flat + (1.0 - u) * fake_flat


def gradient_penalty(d_fn, x_hat: np.ndarray) -> Tensor:
    """mean((||grad_x D(x)||_2 - 1)^2) at the interpolates, differentiable in D."""
    leaf = ad.Tensor(x_hat, requires_grad=True)
    score = ad.tsum(d_fn(leaf))
    g = ad.gradient(score, leaf, create_graph=True)
    sq = ad.add(ad.tsum(ad.mul(g, g), axis=1), 1e-12)
    return ad.tmean(ad.power(ad.add(ad.tsqrt(sq), -1.0), 2.0))


def _forecaster_slope_loss(model: NhitsModel, fake: Tensor, p0s: np.ndarray,
                           bounds: tuple[float, float], cfg: GanConfig) -> Tensor:
    """Mean slope objective of the forecaster's median path on generated prices.

    The whole batch is one graph: (B, L) returns -> (B, L+1) prices -> one
    feature batch -> one forecast -> (B,) least-squares slopes.
    """
    lo, hi = bounds
    B, L = fake.shape
    p0 = np.asarray(p0s, dtype=np.float64)[:, None]
    r = ad.add(ad.mul(fake, hi - lo), lo)   # unscale
    prices = ad.mul(ad.texp(ad.cumsum(r)), ad.constant(np.broadcast_to(p0, (B, L))))
    prices = ad.concat([ad.constant(p0), prices], axis=1)
    med = model.forward(compute_features(prices, _PRICE_DATES[:L + 1])).median_path
    return ad.tmean(slope_loss(ls_slope(med), 1, cfg.c, cfg.d))


def train_agan(series: PriceSeries, model: NhitsModel, config: GanConfig, seed: int = 0):
    """Blocked WGAN-GP training with the frozen forecaster as second critic.

    Returns (bundle, log); log rows are (block, epoch, critic_loss, gen_loss,
    adv_loss).  The forecaster's parameters are bit-identical afterwards.
    """
    cfg = config
    if len(series) < cfg.interval_length + 1:
        raise ValueError(f"{series.ticker}: too short for {cfg.interval_length}-return windows")
    bounds = scale_bounds(series)
    snapshot = model.param_bytes()
    grad_flags = {k: p.requires_grad for k, p in model.params.items()}
    for p in model.params.values():
        p.requires_grad = False

    gen = TcnGenerator(cfg, seed=seed)
    crit = MlpCritic(cfg, seed=seed + 1)
    rng = np.random.default_rng(seed)
    log: list[tuple[int, int, float, float, float]] = []
    L = cfg.interval_length
    steps_per_epoch = max(1, cfg.samples_per_epoch // cfg.batch_size)
    global_step = 0

    try:
        for block, (alpha, n_epochs) in enumerate(zip(cfg.adv_scale_schedule,
                                                      cfg.epochs_per_block)):
            for epoch in range(n_epochs):
                intervals = sample_intervals(series, cfg.samples_per_epoch,
                                             seed=int(rng.integers(2 ** 31)), length=L)
                c_losses, g_losses, a_losses = [], [], []
                for step in range(steps_per_epoch):
                    batch = intervals[step * cfg.batch_size:(step + 1) * cfg.batch_size]
                    if not batch:
                        break
                    real = np.stack([iv.log_returns for iv in batch])
                    cond = np.stack([iv.condition for iv in batch])
                    p0s = np.array([iv.p0 for iv in batch])
                    z = rng.standard_normal(real.shape)

                    # critic step on detached generator output
                    with ad.no_record():
                        zc = np.stack([z, cond], axis=1)
                        fake_np = gen.forward(ad.constant(zc)).data.copy()
                    real_flat = np.concatenate([real, cond], axis=1)
                    fake_flat = np.concatenate([fake_np, cond], axis=1)
                    loss_c = ad.sub(ad.tmean(crit.forward(ad.constant(fake_flat))),
                                    ad.tmean(crit.forward(ad.constant(real_flat))))
                    if rng.random() < cfg.gp_apply_prob:
                        x_hat = interpolate(real_flat, fake_flat, rng)
                        loss_c = ad.add(loss_c, ad.mul(gradient_penalty(crit.forward, x_hat),
                                                       cfg.lambda_gp))
                    cval = loss_c.item()
                    if not np.isfinite(cval):
                        raise NumericalError(f"critic loss non-finite (block {block}, epoch {epoch})")
                    ad.sgd_step(crit.params, loss_c, cfg.lr_c)
                    c_losses.append(cval)
                    global_step += 1

                    # one generator update per critic_iters critic updates,
                    # counted across epoch boundaries
                    if global_step % cfg.critic_iters == 0:
                        z2 = rng.standard_normal(real.shape)
                        zc2 = np.stack([z2, cond], axis=1)
                        fake = gen.forward(ad.constant(zc2))
                        flat = ad.concat([fake, ad.constant(cond)], axis=1)
                        crit_score = ad.tmean(crit.forward(flat))
                        adv = _forecaster_slope_loss(model, fake, p0s, bounds, cfg)
                        loss_g = ad.add(ad.mul(crit_score, -1.0), ad.mul(adv, alpha))
                        gval, aval = loss_g.item(), adv.item()
                        if not np.isfinite(gval):
                            raise NumericalError(
                                f"generator loss non-finite (block {block}, epoch {epoch})")
                        ad.sgd_step(gen.params, loss_g, cfg.lr_g)
                        g_losses.append(gval)
                        a_losses.append(aval)
                log.append((block, epoch,
                            float(np.mean(c_losses)) if c_losses else np.nan,
                            float(np.mean(g_losses)) if g_losses else np.nan,
                            float(np.mean(a_losses)) if a_losses else np.nan))
    finally:
        for k, p in model.params.items():
            p.requires_grad = grad_flags[k]
    if model.param_bytes() != snapshot:
        raise NumericalError("forecaster parameters changed during GAN training")
    return GanBundle(gen, crit, cfg, bounds), log


def forecast_slopes(model: NhitsModel, scaled: np.ndarray, p0s: np.ndarray,
                    bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Forecaster general and LS slopes on prices rebuilt from scaled intervals.

    All n intervals go through one feature batch and one forecast; returns two
    (n,) arrays.
    """
    prices = to_prices(unscale(scaled, bounds), p0s)
    with ad.no_record():
        fm = compute_features(ad.constant(prices), _PRICE_DATES[:prices.shape[1]])
        med = model.forward(fm).median_path.data
    return general_slope_value(med), ls_slope_value(med)


def evaluate_gan(bundle: GanBundle, series: PriceSeries, model: NhitsModel | None,
                 n: int, seed: int) -> dict:
    """Sample n real intervals, generate n synthetic ones, compare distributions.

    Moments are computed on raw (unscaled) log returns; the MMD compares the
    scaled interval vectors; forecast slopes (when a model is given) are taken
    on prices rebuilt from each interval.  The report also hands back both
    scaled samples, (n, L) each, as ``real_scaled`` and ``fake_scaled``.
    """
    from .metrics import MetricsError, MomentReport, mmd, moments

    def _robust_moments(sample: np.ndarray) -> MomentReport:
        # a fully collapsed generator can emit a constant sample; report it
        # instead of failing the whole evaluation
        try:
            return moments(sample)
        except MetricsError:
            logger.warning("degenerate sample in GAN evaluation (constant output)")
            return MomentReport(mu=float(np.mean(sample)), sigma=0.0, iqr=0.0,
                                skew=float("nan"), kurtosis=float("nan"))

    conditions = sample_intervals(series, n, seed, length=bundle.config.interval_length)
    real_scaled = np.stack([iv.log_returns for iv in conditions])
    fake_scaled = generate(bundle, conditions, seed + 1)
    bounds = bundle.scale_bounds
    report = {
        "real_moments": _robust_moments(unscale(real_scaled, bounds).reshape(-1)),
        "fake_moments": _robust_moments(unscale(fake_scaled, bounds).reshape(-1)),
        "mmd": mmd(real_scaled, fake_scaled),
        "real_scaled": real_scaled,
        "fake_scaled": fake_scaled,
    }
    if model is not None:
        p0s = np.array([iv.p0 for iv in conditions])
        rg, rl = forecast_slopes(model, real_scaled, p0s, bounds)
        fg, fl = forecast_slopes(model, fake_scaled, p0s, bounds)
        report.update({
            "real_gen_slope": float(rg.mean()), "real_ls_slope": float(rl.mean()),
            "fake_gen_slope": float(fg.mean()), "fake_ls_slope": float(fl.mean()),
        })
    return report


def generate(bundle: GanBundle, conditions: list[ScaledInterval], seed: int) -> np.ndarray:
    """Seeded synthesis: one scaled 99-return interval per condition, (n, L)."""
    cfg = bundle.config
    if not conditions:
        return np.zeros((0, cfg.interval_length))
    cond = np.stack([iv.condition for iv in conditions])
    if cond.shape[1] != cfg.interval_length:
        raise ValueError(f"condition length {cond.shape[1]} != {cfg.interval_length}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(cond.shape)
    with ad.no_record():
        out = bundle.generator.forward(ad.constant(np.stack([z, cond], axis=1)))
    return out.data.copy()
