"""Adversarial conditional WGAN-GP over 99-day log-return intervals.

The generator is a dilated causal TCN (Bai et al., arXiv:1803.01271) fed noise
concatenated with a real (min-max scaled) log-return interval as the
condition.  ``TcnGenerator.forward`` records the whole network as one graph
node, kind ``tcn_generator``: a numpy forward over time-major rows, each layer
an ``autodiff.causal_conv`` (one GEMM per tap over blocks of rows) with bias
and leaky ReLU fused in, and a hand-written vjp that computes only what
``need`` asks for.  A recorded pass keeps each layer's input and a boolean
mask of its leaky ReLU's sign.  Noise and condition come in as numpy arrays,
not tensors, so the op has no input gradient; a critic step, run under
``no_record``, keeps nothing for the vjp, and ``generate`` runs the generator
``batch_size`` conditions at a time.  The
critic is a tanh MLP over the flattened (interval, condition) pair so that the
gradient penalty's second-order pass stays inside the supported operation
subset.  A frozen forecaster acts as a second critic: the whole batch of
generated returns is converted back to prices and the forecast op takes one
encoder window of each, so an interval's L + 1 prices must fill the
forecaster's encoder; each forecast's least-squares slope is pushed positive,
through the attacks' slope loss and its constants.  Training runs in
transfer-learning blocks with a rising adversarial scale.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass, asdict
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import (PriceSeries, business_days, save_checkpoint, load_model_checkpoint,
                     CheckpointError)
from .forecaster import NhitsModel, NumericalError
from .attacks import AttackConfig, general_slope_value, ls_slope, ls_slope_value, slope_loss

logger = logging.getLogger(__name__)

_PRICE_DATES = business_days(dt.date(2020, 1, 6), 200)


@dataclass
class GanConfig:
    lambda_gp: ClassVar[float] = 1.0
    gp_apply_prob: ClassVar[float] = 0.6
    c: ClassVar[float] = AttackConfig.c
    d: ClassVar[float] = AttackConfig.d
    leaky_slope: ClassVar[float] = 0.2
    critic_hidden: ClassVar[tuple[int, ...]] = (128, 64)
    interval_length: int = 99
    batch_size: int = 32
    samples_per_epoch: int = 512
    critic_iters: int = 5
    lr_g: float = 1e-4
    lr_c: float = 1e-4
    adv_scale_schedule: tuple[float, ...] = (0.25, 0.25, 0.3, 0.35, 0.35)
    epochs_per_block: tuple[int, ...] = (50, 50, 50, 50, 50)
    gen_hidden: tuple[int, ...] = (64, 128, 64, 32)
    gen_kernels: tuple[int, ...] = (3, 5, 5, 3)
    gen_dilations: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        for name in ("adv_scale_schedule", "epochs_per_block", "gen_hidden",
                     "gen_kernels", "gen_dilations"):
            setattr(self, name, tuple(getattr(self, name)))
        if len(self.adv_scale_schedule) != len(self.epochs_per_block):
            raise ValueError("adv_scale_schedule and epochs_per_block lengths differ")
        if any(a <= 0 for a in self.adv_scale_schedule):
            raise ValueError(f"adv_scale_schedule must be positive, got {self.adv_scale_schedule}")
        for name in ("lr_g", "lr_c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("samples_per_epoch", "batch_size"):
            if not _positive_int(getattr(self, name)):
                raise ValueError(f"{name} must be a positive int, got {getattr(self, name)}")
        if not (len(self.gen_hidden) == len(self.gen_kernels) == len(self.gen_dilations)):
            raise ValueError("generator layer specs must have equal lengths")
        for name in ("epochs_per_block", "gen_hidden", "gen_kernels", "gen_dilations"):
            if not all(_positive_int(v) for v in getattr(self, name)):
                raise ValueError(f"{name} must hold positive ints, got {getattr(self, name)}")
        if not (_positive_int(self.interval_length) and self.interval_length >= 2):
            raise ValueError(f"interval_length must be an int >= 2, got {self.interval_length}")


def _positive_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0


@dataclass
class ScaledInterval:
    log_returns: np.ndarray          # scaled to [0,1] with the training bounds; also the condition
    scale_bounds: tuple[float, float]
    p0: float                        # first price of the interval's window


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
        out.append(ScaledInterval(scaled, bounds, float(series.adjprc[s])))
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

    def forward(self, z: np.ndarray, cond: np.ndarray) -> Tensor:
        """(B, L) noise and (B, L) condition arrays -> (B, L) scaled log returns, as one op.

        Recorded as ``tcn_generator`` with the parameters as parents.  Rows are
        time-major, row t*B + b with the noise and condition as its two
        channels, and each layer is ``autodiff.causal_conv`` over them: one
        GEMM per tap added into the output in place, over blocks of rows.  A
        recorded pass keeps each layer's input and its leaky ReLU's ``z >= 0``
        mask; the vjp turns the mask back into the slope factors.
        """
        cfg = self.config
        L = cfg.interval_length
        if z.ndim != 2 or z.shape[1] != L or cond.shape != z.shape:
            raise ad.ShapeError(f"tcn_generator: expected (B, {L}) noise and condition, "
                                f"got {z.shape} and {cond.shape}")
        B = z.shape[0]
        n = L * B
        weights = tuple(self.params.values())  # tcn0.w, tcn0.b, ..., head.w, head.b
        keep = ad.records(weights)  # without a node nothing is kept for the vjp
        layers = [ad.tap_shifts(k, d, B, L) for k, d in zip(cfg.gen_kernels, cfg.gen_dilations)]
        layers.append(ad.tap_shifts(1, 1, B, L))  # the 1x1 head
        slope = cfg.leaky_slope
        h = np.stack([z.T, cond.T], axis=-1).reshape(n, 2)
        inputs, masks = [], []
        for i, taps in enumerate(layers):
            z = ad.causal_conv(h, weights[2 * i].data, weights[2 * i + 1].data, taps)
            if keep:
                inputs.append(h)
            if i < len(layers) - 1:
                if keep:
                    masks.append(z >= 0.0)
                np.maximum(z, slope * z, out=z)  # leaky ReLU, as 0 <= slope <= 1
            h = z

        def vjp(g, need):
            grads = [None] * len(weights)
            gz = np.ascontiguousarray(g.data.T).reshape(n, 1)
            for i in reversed(range(len(layers))):
                below = any(need[:2 * i])  # a layer below this one is asked for
                *gwb, gx = ad.causal_conv_vjp(gz, inputs[i], weights[2 * i].data, layers[i],
                                              (*need[2 * i:2 * i + 2], below))
                grads[2 * i:2 * i + 2] = [None if a is None else Tensor(a) for a in gwb]
                if not below:
                    break
                gz = gx * np.where(masks[i - 1], 1.0, slope)
            return tuple(grads)

        out = np.ascontiguousarray(h.reshape(L, B).T)
        return ad.custom_op("tcn_generator", out, weights, vjp)


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
        def build(config):
            gen, crit = TcnGenerator(config), MlpCritic(config)
            return (gen, crit, config), {"g.": gen.params, "c.": crit.params}

        (gen, crit, config), arch = load_model_checkpoint(path, "agan", "GAN", GanConfig, build)
        bounds = arch.get("scale_bounds")
        try:
            lo, hi = (float(b) for b in bounds)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad GAN scale bounds {bounds!r}") from exc
        return cls(gen, crit, config, (lo, hi))


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
    forecast of one window each -> (B,) least-squares slopes.
    """
    lo, hi = bounds
    B, L = fake.shape
    p0 = np.asarray(p0s, dtype=np.float64)[:, None]
    r = ad.add(ad.mul(fake, hi - lo), lo)   # unscale
    prices = ad.mul(ad.texp(ad.cumsum(r)), ad.constant(np.broadcast_to(p0, (B, L))))
    prices = ad.concat([ad.constant(p0), prices], axis=1)
    med = model.core(prices, _PRICE_DATES[:L + 1], 1)
    return ad.tmean(slope_loss(ls_slope(med), 1, cfg.c, cfg.d))


def _check_forecast_window(length: int, model: NhitsModel) -> None:
    """An interval's L + 1 prices must be exactly one encoder window of the forecaster."""
    E = model.config.encoder_length
    if length + 1 != E:
        raise ValueError(f"interval_length {length} + 1 must equal the "
                         f"forecaster's encoder_length {E}")


def train_agan(series: PriceSeries, model: NhitsModel, config: GanConfig, seed: int = 0):
    """Blocked WGAN-GP training with the frozen forecaster as second critic.

    Returns (bundle, log); log rows are (block, epoch, critic_loss, gen_loss,
    adv_loss).  The forecaster's parameters are bit-identical afterwards.
    """
    cfg = config
    _check_forecast_window(cfg.interval_length, model)
    if len(series) < cfg.interval_length + 1:
        raise ValueError(f"{series.ticker}: too short for {cfg.interval_length}-return windows")
    bounds = scale_bounds(series)
    snapshot = model.param_bytes()

    gen = TcnGenerator(cfg, seed=seed)
    crit = MlpCritic(cfg, seed=seed + 1)
    rng = np.random.default_rng(seed)
    log: list[tuple[int, int, float, float, float]] = []
    L = cfg.interval_length
    steps_per_epoch = max(1, cfg.samples_per_epoch // cfg.batch_size)
    global_step = 0

    for block, (alpha, n_epochs) in enumerate(zip(cfg.adv_scale_schedule, cfg.epochs_per_block)):
        for epoch in range(n_epochs):
            intervals = sample_intervals(series, cfg.samples_per_epoch,
                                         seed=int(rng.integers(2 ** 31)), length=L)
            c_losses, g_losses, a_losses = [], [], []
            for step in range(steps_per_epoch):
                batch = intervals[step * cfg.batch_size:(step + 1) * cfg.batch_size]
                real = np.stack([iv.log_returns for iv in batch])
                cond = real  # each real interval is its own condition
                p0s = np.array([iv.p0 for iv in batch])
                z = rng.standard_normal(real.shape)

                # critic step on detached generator output
                with ad.no_record():
                    fake_np = gen.forward(z, cond).data
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
                    fake = gen.forward(z2, cond)
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
                        float(np.mean(c_losses)),
                        float(np.mean(g_losses)) if g_losses else np.nan,
                        float(np.mean(a_losses)) if a_losses else np.nan))
    if model.param_bytes() != snapshot:
        raise NumericalError("forecaster parameters changed during GAN training")
    return GanBundle(gen, crit, cfg, bounds), log


def forecast_slopes(model: NhitsModel, scaled: np.ndarray, p0s: np.ndarray,
                    bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Forecaster general and LS slopes on prices rebuilt from scaled intervals.

    All n intervals go through one forecast of one window each, so each must
    hold encoder_length - 1 returns; returns two (n,) arrays.
    """
    _check_forecast_window(scaled.shape[1], model)
    prices = to_prices(unscale(scaled, bounds), p0s)
    with ad.no_record():
        med = model.core(ad.constant(prices), _PRICE_DATES[:prices.shape[1]], 1).data
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

    if model is not None:
        _check_forecast_window(bundle.config.interval_length, model)
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
    """Seeded synthesis: one scaled 99-return interval per condition, (n, L).

    The noise is drawn once for all n.  The generator runs on ``batch_size``
    conditions at a time (``autodiff.row_blocks``), so memory does not grow
    with n.  With a batch size that is a multiple of 4, as the default 32 is,
    the output equals one forward over all n: every chunk but the last then
    has a multiple of 4 rows, the rows that OpenBLAS's matrix-vector kernel
    (the 1x1 head) sums together."""
    cfg = bundle.config
    cond = np.stack([iv.log_returns for iv in conditions])
    if cond.shape[1] != cfg.interval_length:
        raise ValueError(f"condition length {cond.shape[1]} != {cfg.interval_length}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(cond.shape)
    out = np.empty(cond.shape)
    with ad.no_record():
        for i, j in ad.row_blocks(len(cond), cfg.batch_size):
            out[i:j] = bundle.generator.forward(z[i:j], cond[i:j]).data
    return out
