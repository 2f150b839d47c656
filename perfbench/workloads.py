"""The benchmark's four workloads.

Each workload builds its inputs from the seed with ``dataio.synth_gbm`` (the
program sees only generated prices), trains or builds what it needs during
set-up, and then offers one repeatable operation, ``op(i)``, that the runner
calls in a closed loop.  Every operation checks its own outputs and raises
``CheckFailed`` on a violation; it returns the work it did and a fingerprint
of its outputs that the runner compares against recorded references.

Operations within a workload are homogeneous on purpose (every attack has the
same shape, every training call the same epochs, every GAN round the same
schedule, every forecast pass the same panel), so per-operation medians are
steady however many operations fit into a run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from slopestrike import agan, attacks, dataio, forecaster


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's correctness checks."""


def _check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


def _stream(seed: int, k: int) -> int:
    """Independent synth_gbm seed for input stream k (< 16) of a workload seed."""
    return seed * 16 + k


@dataclass
class OpResult:
    units: float                  # work done, in the workload's unit
    fingerprint: list[float]      # compared against the reference for `key`
    key: int = 0                  # which distinct operation this was
    parts: dict[str, float] = field(default_factory=dict)   # sub-timings in seconds
    slope_hit: bool | None = None  # slope attacks: did the slope move toward the target


def fixture_forecaster(seed: int) -> forecaster.NhitsModel:
    """A small forecaster trained on seeded GBM paths, shared by three workloads."""
    train = dataio.synth_gbm(n_series=4, n_days=300, s0=80.0, mu=4e-4, sigma=0.01,
                             seed=_stream(seed, 0))
    val = dataio.synth_gbm(n_series=1, n_days=300, s0=80.0, mu=4e-4, sigma=0.01,
                           seed=_stream(seed, 1))
    cfg = forecaster.NhitsConfig(epochs=8, early_stop_patience=9, batch_size=128, lr=0.1)
    model, log = forecaster.train(train, val, cfg, seed=seed)
    _check(_all_finite([row[1:] for row in log]), "fixture training loss is not finite")
    return model


class AttackGrid:
    """run_attack over series x eps x {GSA, LSSA, BIM}, 30 iterations, 300 days."""

    name = "attack-grid"
    unit = "iterations"
    trace_ops = 3
    reference_keys = 4
    ITERS = 30
    METHODS = ("GSA", "LSSA", "BIM")
    EPS_PCT = (1.0, 2.0, 4.0)

    def __init__(self, seed: int):
        self.model = fixture_forecaster(seed)
        self.series = dataio.synth_gbm(n_series=3, n_days=attacks.ATTACK_WINDOW, s0=90.0,
                                       mu=7e-4, sigma=0.009, seed=_stream(seed, 2))
        # eps before method, so the first operations already cover all three methods
        self.cells = [(s, eps, m) for s in range(len(self.series))
                      for eps in self.EPS_PCT for m in self.METHODS]

    def warm_up(self) -> None:
        cfg = attacks.AttackConfig("GSA", eps_pct=1.0, iters=1)
        attacks.run_attack(self.series[0], self.model, cfg)

    def op(self, i: int) -> OpResult:
        key = i % len(self.cells)
        s, eps_pct, method = self.cells[key]
        series = self.series[s]
        cfg = attacks.AttackConfig(method, eps_pct=eps_pct, iters=self.ITERS)
        res = attacks.run_attack(series, self.model, cfg)
        x, adj = res.x_adv.adjprc, series.adjprc
        losses = [row[1] for row in res.trace]
        _check(_all_finite(x, res.path_after, losses), f"{method}: non-finite output")
        _check(len(res.trace) == self.ITERS, f"{method}: {len(res.trace)} iterations")
        _check(np.max(np.abs(x - adj)) <= res.eps_abs * (1.0 + 1e-9),
               f"{method} eps={eps_pct}%: left the epsilon ball")
        hit = None
        if method in ("GSA", "LSSA"):
            slope = "gen_slope" if method == "GSA" else "ls_slope"
            hit = res.after[slope] > res.before[slope]
        return OpResult(self.ITERS,
                        [losses[-1], res.trace[-1][2], float(res.path_after.mean()),
                         float(np.sum(x - adj) / res.eps_abs)],
                        key=key, slope_hit=hit)

    @staticmethod
    def named(loop) -> list[tuple[str, float, str]]:
        tail, label = loop.call_tail()
        return [("attack_iters_per_s", loop.work_per_s, "iterations/s"),
                ("attack_s_p50", loop.call_p50, "s"),
                ("attack_s_tail", tail, f"s ({label})")]


class TrainForecast:
    """forecaster.train for 3 epochs at batch 128; early stopping cannot fire."""

    name = "train-forecast"
    unit = "windows"
    trace_ops = 5
    reference_keys = 1
    EPOCHS = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.train = dataio.synth_gbm(n_series=10, n_days=400, s0=80.0, mu=4e-4, sigma=0.01,
                                      seed=_stream(seed, 3))
        self.val = dataio.synth_gbm(n_series=3, n_days=400, s0=80.0, mu=4e-4, sigma=0.01,
                                    seed=_stream(seed, 4))
        self.config = forecaster.NhitsConfig(epochs=self.EPOCHS,
                                             early_stop_patience=self.EPOCHS + 1,
                                             batch_size=128, lr=0.1)
        self.windows = sum(len(s) - self.config.min_series_length + 1 for s in self.train)

    def warm_up(self) -> None:
        forecaster.train(self.train, self.val, self.config, seed=self.seed)

    def op(self, i: int) -> OpResult:
        model, log = forecaster.train(self.train, self.val, self.config, seed=self.seed)
        _check(len(log) == self.EPOCHS, f"training stopped after {len(log)} epochs")
        _check(_all_finite([row[1:] for row in log]), "training or validation loss not finite")
        params = [p.data for p in model.params.values()]
        _check(_all_finite(*params), "trained parameters are not finite")
        return OpResult(self.EPOCHS * self.windows,
                        [log[-1][1], log[-1][2], float(sum(p.sum() for p in params))])

    def named(self, loop) -> list[tuple[str, float, str]]:
        return [("train_windows_per_s", loop.work_per_s, "windows/s"),
                ("epoch_s_p50", loop.call_p50 / self.EPOCHS, "s")]


class GanTrain:
    """A short train_agan schedule (10 critic steps, 2 generator steps) plus evaluate_gan."""

    name = "gan-train"
    unit = "critic steps"
    trace_ops = 3
    reference_keys = 1
    EVAL_N = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.model = fixture_forecaster(seed)
        self.series = dataio.synth_gbm(n_series=1, n_days=400, s0=90.0, mu=7e-4, sigma=0.009,
                                       seed=_stream(seed, 5))[0]
        self.config = agan.GanConfig(samples_per_epoch=64, batch_size=32,
                                     adv_scale_schedule=(0.25, 0.35), epochs_per_block=(3, 2))
        cfg = self.config
        self.critic_steps = sum(cfg.epochs_per_block) * (cfg.samples_per_epoch // cfg.batch_size)
        self.model_digest = hashlib.sha256(self.model.param_bytes()).hexdigest()

    def warm_up(self) -> None:
        iv = agan.sample_intervals(self.series, 1, self.seed)[0]
        agan.forecast_slopes(self.model, iv.log_returns[None, :], np.array([iv.p0]),
                             iv.scale_bounds)

    def op(self, i: int) -> OpResult:
        t0 = time.perf_counter()
        bundle, log = agan.train_agan(self.series, self.model, self.config, seed=self.seed)
        t1 = time.perf_counter()
        report = agan.evaluate_gan(bundle, self.series, self.model, n=self.EVAL_N,
                                   seed=self.seed + 1)
        t2 = time.perf_counter()
        _check(hashlib.sha256(self.model.param_bytes()).hexdigest() == self.model_digest,
               "train_agan changed the forecaster's parameters")
        critic = [row[2] for row in log]
        gen = [row[3] for row in log if np.isfinite(row[3])]
        _check(_all_finite(critic) and len(gen) > 0, "GAN losses not finite")
        slopes = [report[k] for k in ("real_ls_slope", "fake_ls_slope",
                                      "real_gen_slope", "fake_gen_slope")]
        _check(_all_finite(report["mmd"], slopes), "GAN evaluation not finite")
        return OpResult(self.critic_steps,
                        [critic[-1], float(np.mean(gen)), report["mmd"], *slopes],
                        parts={"work_s": t1 - t0, "eval_s": t2 - t1})

    def named(self, loop) -> list[tuple[str, float, str]]:
        eval_s = sum(r.parts["eval_s"] * f for r, f in zip(loop.results, loop.result_speed))
        intervals = self.EVAL_N * len(loop.results)
        return [("gan_critic_steps_per_s", loop.work_per_s, "critic steps/s"),
                ("gan_eval_intervals_per_s", intervals / eval_s if eval_s else 0.0,
                 "intervals/s")]


class LongForecast:
    """rolling_forecast over a panel of four series lengths up to 2,400 days."""

    name = "long-forecast"
    unit = "days"
    trace_ops = 10
    reference_keys = 1
    LENGTHS = (300, 600, 1200, 2400)

    def __init__(self, seed: int):
        self.model = fixture_forecaster(seed)
        self.panel = [dataio.synth_gbm(n_series=1, n_days=n, s0=90.0, mu=7e-4, sigma=0.009,
                                       seed=_stream(seed, 6 + k))[0]
                      for k, n in enumerate(self.LENGTHS)]
        enc = self.model.config.encoder_length
        self.days = sum(n - enc for n in self.LENGTHS)

    def warm_up(self) -> None:
        for s in self.panel:
            forecaster.rolling_forecast(s, self.model)

    def op(self, i: int) -> OpResult:
        enc = self.model.config.encoder_length
        fingerprint = []
        for s in self.panel:
            out = forecaster.rolling_forecast(s, self.model)
            _check(out.shape == (len(s) - enc,), f"{len(s)} days: forecast shape {out.shape}")
            _check(_all_finite(out), f"{len(s)} days: non-finite forecast")
            fingerprint += [float(out.mean()), float(out[-1])]
        return OpResult(self.days, fingerprint)

    @staticmethod
    def named(loop) -> list[tuple[str, float, str]]:
        return [("forecast_days_per_s", loop.work_per_s, "days/s")]


WORKLOADS = {w.name: w for w in (AttackGrid, TrainForecast, GanTrain, LongForecast)}
