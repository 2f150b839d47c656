"""Command-line workflow: synth, train, attack, defend, gan, eval.

Every command resolves its settings from (flag > config file > environment
seed > default), writes a JSON manifest of the resolved settings next to its
outputs, and is deterministic given (settings, seed).

Exit codes: 0 success, 2 usage, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import agan, dataio, defense, svgplot
from .attacks import METHODS, AttackConfig, run_attack
from .autodiff import AutodiffError
from .dataio import DataError, CheckpointError
from .forecaster import NhitsConfig, NhitsModel, NumericalError, train
from .metrics import MetricsError, confusion

SEED_ENV = "SLOPESTRIKE_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

LOG_LEVELS = ("debug", "info", "warning", "error")


class UsageError(Exception):
    pass


@contextmanager
def _stderr_logging(level: str):
    """Show the package's log records at ``level`` and above on stderr while a command runs."""
    log = logging.getLogger("slopestrike")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    prev = log.level
    log.addHandler(handler)
    log.setLevel(level.upper())
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(prev)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_manifest(outdir: Path, command: str, settings: dict) -> None:
    payload = {"command": command,
               "settings": {k: settings[k] for k in sorted(settings)}}
    with open(outdir / "run_manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_section(args, section: str):
    """The command's section of the --config file (a SectionProxy), or {} without one."""
    if not getattr(args, "config", None):
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(args.config)
    if not read:
        raise DataError(f"config file not found: {args.config}")
    return parser[section] if parser.has_section(section) else {}


def _setting(args, cfg, name: str, cast, default):
    flag = getattr(args, name.replace("-", "_"), None)
    if flag is not None:
        return flag
    if name not in cfg:
        return default
    try:
        raw = cfg[name]
        return cast(raw) if cast is not bool else raw.strip().lower() in ("1", "true", "yes")
    except (ValueError, configparser.InterpolationError) as exc:
        raise UsageError(f"{args.config} [{cfg.name}] {name}: {exc}") from None


def _resolve_seed(args, cfg) -> int:
    seed = _setting(args, cfg, "seed", int, None)
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV} must be an integer, got '{env}'") from exc
    return 0


def _load_series(path, tickers: str | None = None):
    if not Path(path).is_file():
        raise UsageError(f"data file not found: {path}")
    series = dataio.load_csv(path)
    if tickers:
        wanted = {t.strip() for t in tickers.split(",") if t.strip()}
        series = [s for s in series if s.ticker in wanted]
        missing = wanted - {s.ticker for s in series}
        if missing:
            raise DataError(f"tickers not in {path}: {', '.join(sorted(missing))}")
    if not series:
        raise DataError(f"no usable series in {path}")
    return series


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = _config_section(args, "synth")
    seed = _resolve_seed(args, cfg)
    settings = {
        "n_series": _setting(args, cfg, "n-series", int, 10),
        "n_days": _setting(args, cfg, "n-days", int, 400),
        "s0": _setting(args, cfg, "s0", float, 80.0),
        "mu": _setting(args, cfg, "mu", float, 4e-4),
        "sigma": _setting(args, cfg, "sigma", float, 0.01),
        "seed": seed,
    }
    series = dataio.synth_gbm(settings["n_series"], settings["n_days"], settings["s0"],
                              settings["mu"], settings["sigma"], seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_series_csv(series, out)
    print(f"wrote {len(series)} series x {settings['n_days']} days to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_section(args, "train")
    seed = _resolve_seed(args, cfg)
    outdir = _outdir(args)
    settings = {
        "data": str(args.data),
        "epochs": _setting(args, cfg, "epochs", int, 100),
        "batch_size": _setting(args, cfg, "batch-size", int, 64),
        "lr": _setting(args, cfg, "lr", float, 1e-3),
        "weight_decay": _setting(args, cfg, "weight-decay", float, 1e-4),
        "patience": _setting(args, cfg, "patience", int, 15),
        "min_length": _setting(args, cfg, "min-length", int, 600),
        "val_fraction": _setting(args, cfg, "val-fraction", float, 0.15),
        "seed": seed,
    }
    series = _load_series(args.data)
    usable = [s for s in series if len(s) >= settings["min_length"]]
    if len(usable) < 2:
        raise DataError(f"need at least 2 series of length >= {settings['min_length']}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(usable))
    n_val = max(1, int(round(len(usable) * settings["val_fraction"])))
    val = [usable[i] for i in order[:n_val]]
    tr = [usable[i] for i in order[n_val:]]
    model_cfg = NhitsConfig(epochs=settings["epochs"], batch_size=settings["batch_size"],
                            lr=settings["lr"], weight_decay=settings["weight_decay"],
                            early_stop_patience=settings["patience"])
    model, log = train(tr, val, model_cfg, seed=seed)
    model.save(outdir / "model.ckpt")
    _write_csv(outdir / "training_log.csv", ("epoch", "train_loss", "val_loss"), log)
    _write_run_manifest(outdir, "train", settings)
    print(f"trained on {len(tr)} series (val {len(val)}); best val loss "
          f"{min(r[2] for r in log):.6g}; checkpoint at {outdir / 'model.ckpt'}")
    return EXIT_OK


def _parse_methods(raw: str) -> list[str]:
    methods = [m.strip().upper() for m in raw.split(",") if m.strip()]
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise UsageError(f"unknown method(s) {', '.join(bad)}; valid: {', '.join(METHODS)}")
    if not methods:
        raise UsageError("no attack methods given")
    return methods


def _attack_config(method: str, eps_pct: float, iters, target_dir: int) -> AttackConfig:
    try:
        return AttackConfig(method, eps_pct=eps_pct, iters=iters, target_dir=target_dir)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_attack(args) -> int:
    cfg = _config_section(args, "attack")
    seed = _resolve_seed(args, cfg)
    methods = _parse_methods(_setting(args, cfg, "methods", str, "GSA,LSSA"))
    raw_eps = str(_setting(args, cfg, "eps-pct", str, "2.0"))
    try:
        eps_list = [float(e) for e in raw_eps.split(",")]
    except ValueError as exc:
        raise UsageError(f"eps-pct must be comma-separated numbers, got '{raw_eps}'") from exc
    settings = {
        "data": str(args.data), "checkpoint": str(args.checkpoint),
        "methods": ",".join(methods), "eps_pct": ",".join(_fmt(e) for e in eps_list),
        "iters": _setting(args, cfg, "iters", int, None),
        "direction": _setting(args, cfg, "direction", int, 1),
        "plots": _setting(args, cfg, "plots", bool, True),
        "seed": seed,
    }
    acfgs = [_attack_config(m, e, settings["iters"], settings["direction"])
             for m in methods for e in eps_list]
    outdir = _outdir(args)
    model = NhitsModel.load(args.checkpoint)
    series = _load_series(args.data, getattr(args, "tickers", None))
    traces_dir = outdir / "traces"
    traces_dir.mkdir(exist_ok=True)
    rows = []
    normal_done = set()
    for s in series:
        for acfg in acfgs:
            method, eps = acfg.method, acfg.eps_pct
            result = run_attack(s, model, acfg)
            if s.ticker not in normal_done:
                b = result.before
                rows.append((s.ticker, "normal", 0.0, b["mae"], b["rmse"], b["mape"],
                             b["gen_slope"], b["ls_slope"]))
                normal_done.add(s.ticker)
            a = result.after
            rows.append((s.ticker, method, eps, a["mae"], a["rmse"], a["mape"],
                         a["gen_slope"], a["ls_slope"]))
            _write_csv(traces_dir / f"trace_{s.ticker}_{method}_{_fmt(eps)}.csv",
                       ("iter", "loss", "slope"), result.trace)
            if settings["plots"]:
                enc = model.config.encoder_length
                days = np.arange(enc, enc + len(result.path_before))
                svgplot.line_chart(
                    outdir / f"overlay_{s.ticker}_{method}_{_fmt(eps)}.svg",
                    [("truth", days, s.adjprc[enc:enc + len(days)]),
                     ("normal forecast", days, result.path_before),
                     ("attacked forecast", days, result.path_after)],
                    title=f"{s.ticker} {method} eps%={_fmt(eps)}",
                    x_label="day", y_label="adjprc")
    _write_csv(outdir / "attack_report.csv",
               ("ticker", "method", "eps_pct", "mae", "rmse", "mape", "gen_slope", "ls_slope"),
               rows)
    # aggregate in the attack-table layout: mean per (method, eps)
    agg: dict[tuple[str, float], list[np.ndarray]] = {}
    for row in rows:
        agg.setdefault((row[1], float(row[2])), []).append(np.array(row[3:], dtype=float))
    agg_rows = [(m, e, *np.mean(vals, axis=0)) for (m, e), vals in sorted(agg.items())]
    _write_csv(outdir / "attack_aggregate.csv",
               ("method", "eps_pct", "mae", "rmse", "mape", "gen_slope", "ls_slope"),
               agg_rows)
    _write_run_manifest(outdir, "attack", settings)
    print(f"attacked {len(series)} series x {len(methods)} methods x {len(eps_list)} budgets; "
          f"report at {outdir / 'attack_report.csv'}")
    return EXIT_OK


def cmd_defend_train(args) -> int:
    cfg = _config_section(args, "defend")
    seed = _resolve_seed(args, cfg)
    settings = {
        "data": str(args.data), "checkpoint": str(args.checkpoint),
        "method": _setting(args, cfg, "method", str, "GSA").upper(),
        "eps_pct": _setting(args, cfg, "eps-pct", float, 2.0),
        "epochs": _setting(args, cfg, "epochs", int, 200),
        "lr": _setting(args, cfg, "lr", float, 1e-4),
        "attack_iters": _setting(args, cfg, "attack-iters", int, 30),
        "holdout": _setting(args, cfg, "holdout", float, 0.3),
        "seed": seed,
    }
    acfg = _attack_config(settings["method"], settings["eps_pct"], settings["attack_iters"], 1)
    outdir = _outdir(args)
    model = NhitsModel.load(args.checkpoint)
    series = _load_series(args.data, getattr(args, "tickers", None))
    n_in = defense.DiscriminatorConfig().input_length
    real, attacked = [], []
    for s in series:
        if len(s) < n_in:
            raise DataError(f"{s.ticker}: need {n_in} days for the discriminator input")
        result = run_attack(s.head(n_in), model, acfg)
        real.append(s.adjprc[:n_in])
        attacked.append(result.x_adv.adjprc)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(real))
    n_hold = max(1, int(round(len(real) * settings["holdout"])))
    hold_idx = set(order[:n_hold].tolist())
    d_cfg = defense.DiscriminatorConfig(epochs=settings["epochs"], lr=settings["lr"])
    clf, curve = defense.train_discriminator(
        [real[i] for i in range(len(real)) if i not in hold_idx],
        [attacked[i] for i in range(len(real)) if i not in hold_idx], d_cfg, seed=seed)
    clf.save(outdir / "discriminator.ckpt")
    _write_csv(outdir / "defense_curve.csv", ("epoch", "loss"), curve)
    hold_real = [real[i] for i in sorted(hold_idx)]
    hold_adv = [attacked[i] for i in sorted(hold_idx)]
    labels = np.concatenate([np.zeros(len(hold_real), dtype=int),
                             np.ones(len(hold_adv), dtype=int)])
    preds = np.array([int(defense.classify(clf, x) >= 0.5) for x in hold_real + hold_adv])
    rep = confusion(labels, preds)
    _write_csv(outdir / "defense_report.csv",
               ("set", "tp", "tn", "fp", "fn", "accuracy", "specificity", "kappa"),
               [("holdout", rep.tp, rep.tn, rep.fp, rep.fn,
                 rep.accuracy, rep.specificity, rep.kappa)])
    _write_run_manifest(outdir, "defend-train", settings)
    print(f"discriminator holdout: accuracy {rep.accuracy:.2f}%, "
          f"specificity {rep.specificity:.2f}%, kappa {rep.kappa:.2f}")
    return EXIT_OK


def cmd_defend_classify(args) -> int:
    clf = defense.Discriminator.load(args.model)
    series = _load_series(args.data, getattr(args, "tickers", None))
    n_in = clf.config.input_length
    rows = []
    for s in series:
        if len(s) < n_in:
            raise DataError(f"{s.ticker}: need {n_in} days, have {len(s)}")
        rows.append((s.ticker, defense.classify(clf, s.adjprc[:n_in])))
    out = Path(args.out)
    _write_csv(out, ("ticker", "prob_adversarial"), rows)
    print(f"classified {len(rows)} series; probabilities at {out}")
    return EXIT_OK


def cmd_defend_build_manifest(args) -> int:
    manifest = defense.build_manifest(args.directory)
    defense.write_manifest(manifest, args.out)
    print(f"hashed {len(manifest.entries)} files; root {manifest.root_digest}")
    return EXIT_OK


def cmd_defend_verify(args) -> int:
    manifest = defense.read_manifest(args.manifest)
    verdict = defense.verify_manifest(args.directory, manifest)
    if verdict.ok:
        print("PASS: directory matches manifest")
        return EXIT_OK
    for kind, paths in (("added", verdict.added), ("removed", verdict.removed),
                        ("modified", verdict.modified)):
        for p in paths:
            print(f"FAIL {kind}: {p}")
    return EXIT_DATA


def cmd_gan_train(args) -> int:
    cfg = _config_section(args, "gan")
    seed = _resolve_seed(args, cfg)
    outdir = _outdir(args)
    settings = {
        "data": str(args.data), "checkpoint": str(args.checkpoint),
        "ticker": _setting(args, cfg, "ticker", str, None),
        "samples_per_epoch": _setting(args, cfg, "samples-per-epoch", int, 512),
        "epochs_per_block": _setting(args, cfg, "epochs-per-block", str, "50,50,50,50,50"),
        "alpha": _setting(args, cfg, "alpha", str, "0.25,0.25,0.3,0.35,0.35"),
        "lr_g": _setting(args, cfg, "lr-g", float, 1e-4),
        "lr_c": _setting(args, cfg, "lr-c", float, 1e-4),
        "seed": seed,
    }
    model = NhitsModel.load(args.checkpoint)
    series = _load_series(args.data, settings["ticker"])
    stock = series[0]
    g_cfg = agan.GanConfig(
        samples_per_epoch=settings["samples_per_epoch"],
        epochs_per_block=tuple(int(e) for e in settings["epochs_per_block"].split(",")),
        adv_scale_schedule=tuple(float(a) for a in settings["alpha"].split(",")),
        lr_g=settings["lr_g"], lr_c=settings["lr_c"])
    bundle, log = agan.train_agan(stock, model, g_cfg, seed=seed)
    bundle.save(outdir / "gan.ckpt")
    _write_csv(outdir / "gan_log.csv",
               ("block", "epoch", "critic_loss", "gen_loss", "adv_loss"), log)
    _write_run_manifest(outdir, "gan-train", settings)
    print(f"trained GAN on {stock.ticker}; bundle at {outdir / 'gan.ckpt'}")
    return EXIT_OK


def cmd_gan_generate(args) -> int:
    cfg = _config_section(args, "gan")
    seed = _resolve_seed(args, cfg)
    bundle = agan.GanBundle.load(args.bundle)
    series = _load_series(args.data, getattr(args, "ticker", None))
    stock = series[0]
    n = args.n
    conditions = agan.sample_intervals(stock, n, seed,
                                       length=bundle.config.interval_length)
    out_rows = []
    generated = agan.generate(bundle, conditions, seed + 1)
    for i, row in enumerate(generated):
        for day, v in enumerate(row):
            out_rows.append((i, day, v))
    _write_csv(args.out, ("interval_id", "day", "scaled_log_return"), out_rows)
    print(f"generated {len(generated)} intervals conditioned on {stock.ticker}; "
          f"rows at {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _config_section(args, "eval")
    seed = _resolve_seed(args, cfg)
    outdir = _outdir(args)
    settings = {
        "data": str(args.data), "bundle": str(args.bundle),
        "checkpoint": str(args.checkpoint) if args.checkpoint else "",
        "ticker": _setting(args, cfg, "ticker", str, None),
        "n": _setting(args, cfg, "n", int, 2000),
        "seed": seed,
    }
    bundle = agan.GanBundle.load(args.bundle)
    model = NhitsModel.load(args.checkpoint) if args.checkpoint else None
    series = _load_series(args.data, settings["ticker"])
    report = agan.evaluate_gan(bundle, series[0], model, settings["n"], seed)
    rm, fm = report["real_moments"], report["fake_moments"]
    _write_csv(outdir / "moments.csv",
               ("data", "mu", "sigma", "iqr", "skew", "kurtosis", "mmd"),
               [("Real", rm.mu, rm.sigma, rm.iqr, rm.skew, rm.kurtosis, 0.0),
                ("A-GAN", fm.mu, fm.sigma, fm.iqr, fm.skew, fm.kurtosis, report["mmd"])])
    if model is not None:
        _write_csv(outdir / "slopes.csv", ("data", "gen_slope", "ls_slope"),
                   [("Real", report["real_gen_slope"], report["real_ls_slope"]),
                    ("A-GAN", report["fake_gen_slope"], report["fake_ls_slope"])])
    svgplot.histogram_chart(outdir / "returns_hist.svg",
                            [agan.unscale(report[k], bundle.scale_bounds).reshape(-1)
                             for k in ("real_scaled", "fake_scaled")],
                            ["real", "generated"],
                            title="log-return distribution: real vs generated")
    _write_run_manifest(outdir, "eval", settings)
    print(f"eval on {settings['n']} intervals: MMD={report['mmd']:.6g}; "
          f"reports in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="slopestrike",
                                description="forecaster attack/defense workbench")
    p.add_argument("--config", help="INI config file with per-command sections")
    p.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                   help="least severe log records shown on stderr (default: warning)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic GBM price CSV")
    sp.add_argument("--out", required=True)
    for name, typ in (("n-series", int), ("n-days", int), ("s0", float),
                      ("mu", float), ("sigma", float), ("seed", int)):
        sp.add_argument(f"--{name}", type=typ, dest=name.replace("-", "_"))
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="train the forecaster")
    tp.add_argument("--data", required=True)
    tp.add_argument("--outdir", required=True)
    for name, typ in (("epochs", int), ("batch-size", int), ("lr", float),
                      ("weight-decay", float), ("patience", int),
                      ("min-length", int), ("val-fraction", float), ("seed", int)):
        tp.add_argument(f"--{name}", type=typ, dest=name.replace("-", "_"))
    tp.set_defaults(func=cmd_train)

    ap = sub.add_parser("attack", help="run white-box attacks")
    ap.add_argument("--data", required=True)
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--tickers")
    ap.add_argument("--methods")
    ap.add_argument("--eps-pct", dest="eps_pct")
    ap.add_argument("--iters", type=int)
    ap.add_argument("--direction", type=int)
    ap.add_argument("--no-plots", dest="plots", action="store_false", default=None)
    ap.add_argument("--seed", type=int)
    ap.set_defaults(func=cmd_attack)

    dp = sub.add_parser("defend", help="discriminator and integrity tooling")
    dsub = dp.add_subparsers(dest="subcommand", required=True)

    dt = dsub.add_parser("train", help="train the adversarial-input discriminator")
    dt.add_argument("--data", required=True)
    dt.add_argument("--checkpoint", required=True)
    dt.add_argument("--outdir", required=True)
    dt.add_argument("--tickers")
    for name, typ in (("method", str), ("eps-pct", float), ("epochs", int),
                      ("lr", float), ("attack-iters", int), ("holdout", float),
                      ("seed", int)):
        dt.add_argument(f"--{name}", type=typ, dest=name.replace("-", "_"))
    dt.set_defaults(func=cmd_defend_train)

    dc = dsub.add_parser("classify", help="score series with a trained discriminator")
    dc.add_argument("--model", required=True)
    dc.add_argument("--data", required=True)
    dc.add_argument("--out", required=True)
    dc.add_argument("--tickers")
    dc.add_argument("--seed", type=int)
    dc.set_defaults(func=cmd_defend_classify)

    db = dsub.add_parser("build-manifest", help="hash a deployment directory")
    db.add_argument("directory")
    db.add_argument("--out", required=True)
    db.set_defaults(func=cmd_defend_build_manifest)

    dv = dsub.add_parser("verify", help="verify a directory against a manifest")
    dv.add_argument("directory")
    dv.add_argument("manifest")
    dv.set_defaults(func=cmd_defend_verify)

    gp = sub.add_parser("gan", help="adversarial GAN training and generation")
    gsub = gp.add_subparsers(dest="subcommand", required=True)

    gt = gsub.add_parser("train", help="train the adversarial GAN")
    gt.add_argument("--data", required=True)
    gt.add_argument("--checkpoint", required=True)
    gt.add_argument("--outdir", required=True)
    for name, typ in (("ticker", str), ("samples-per-epoch", int),
                      ("epochs-per-block", str), ("alpha", str),
                      ("lr-g", float), ("lr-c", float), ("seed", int)):
        gt.add_argument(f"--{name}", type=typ, dest=name.replace("-", "_"))
    gt.set_defaults(func=cmd_gan_train)

    gg = gsub.add_parser("generate", help="sample synthetic intervals")
    gg.add_argument("--bundle", required=True)
    gg.add_argument("--data", required=True)
    gg.add_argument("--ticker")
    gg.add_argument("--n", type=int, default=2000)
    gg.add_argument("--out", required=True)
    gg.add_argument("--seed", type=int)
    gg.set_defaults(func=cmd_gan_generate)

    ep = sub.add_parser("eval", help="compare generated and real distributions")
    ep.add_argument("--data", required=True)
    ep.add_argument("--bundle", required=True)
    ep.add_argument("--checkpoint")
    ep.add_argument("--outdir", required=True)
    ep.add_argument("--ticker")
    ep.add_argument("--n", type=int)
    ep.add_argument("--seed", type=int)
    ep.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _stderr_logging(args.log_level):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, MetricsError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, AutodiffError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
