"""Command-line workflow: synth, train, attack, defend, gan, eval.

``COMMANDS`` declares each command once: its handler, its config section, its
input/output arguments and its settings rows. Every setting resolves from
(flag > config file > environment seed > default) before the handler runs.
Every command with ``--outdir`` writes a JSON manifest of its resolved
settings and inputs, with the SHA-256 of each input file, next to its
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
import platform
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple
from urllib.parse import quote

import numpy as np

from . import __version__, agan, dataio, defense, svgplot
from .attacks import AttackConfig, run_attack
from .autodiff import AutodiffError
from .dataio import DataError, CheckpointError
from .forecaster import NhitsConfig, NhitsModel, NumericalError, train
from .metrics import MetricsError, confusion

SEED_ENV = "SLOPESTRIKE_SEED"
_NEGATIVE = re.compile(r"-\.?\d")  # a value, as no option starts with a digit

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


def _outdir(settings: dict) -> Path:
    out = Path(settings["outdir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _out(settings: dict) -> Path:
    """The ``--out`` file's path, its parent directories made."""
    out = Path(settings["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _environment() -> dict:
    """What a run's numbers depend on besides its settings: the code's versions,
    the BLAS library and its thread settings (sums can round differently with
    the thread count)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"slopestrike": __version__, "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            **{var: os.environ.get(var, "unset")
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _input_digests(cmd: Command, settings: dict) -> dict:
    """SHA-256 of every input file the command read, by its settings key."""
    keys = [_key(spec) for spec in cmd.inputs if isinstance(spec, str)
            and (not spec.startswith("--") or _key(spec) in ("data", "checkpoint", "bundle"))]
    return {k: defense.digest_file(Path(settings[k])) for k in keys
            if settings[k] and Path(settings[k]).is_file()}


def _write_run_manifest(outdir: Path, command: str, settings: dict, digests: dict) -> None:
    payload = {"command": command,
               "environment": _environment(),
               "inputs_sha256": digests,
               "settings": settings}
    with open(outdir / "run_manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_series(path, tickers: str | None = None):
    """The file's series, or those ``tickers`` selects: a ticker of the file
    whole, so a ticker may hold a comma, else a comma-separated list."""
    if not Path(path).is_file():
        raise UsageError(f"data file not found: {path}")
    series = dataio.load_csv(path)
    if tickers:
        wanted = ({tickers} if tickers in {s.ticker for s in series}
                  else {t.strip() for t in tickers.split(",") if t.strip()})
        series = [s for s in series if s.ticker in wanted]
        missing = wanted - {s.ticker for s in series}
        if missing:
            raise DataError(f"tickers not in {path}: {', '.join(sorted(missing))}")
    if not series:
        raise DataError(f"no usable series in {path}")
    return series


def _load_one(path, ticker: str):
    """The series ``--ticker`` names, or the file's first without one."""
    series = _load_series(path, ticker)
    if ticker and len(series) > 1:
        raise UsageError(f"ticker must name one series; '{ticker}' selects {len(series)}")
    return series[0]


def _split(settings: dict, key: str, cast) -> tuple:
    """Setting ``key`` split at commas and each item cast; a failed cast is a usage error."""
    try:
        return tuple(cast(v) for v in settings[key].split(","))
    except ValueError:
        raise UsageError(f"{key.replace('_', '-')} must be comma-separated numbers, "
                         f"got '{settings[key]}'") from None


def _checked(make, **kwargs):
    """``make(**kwargs)``, its ValueError a usage error: config objects check settings early."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# commands: each takes the resolved settings and inputs (see _resolve)
# ---------------------------------------------------------------------------

def cmd_synth(settings) -> int:
    """generate synthetic GBM price CSV"""
    series = dataio.synth_gbm(settings["n_series"], settings["n_days"], settings["s0"],
                              settings["mu"], settings["sigma"], settings["seed"])
    out = _out(settings)
    dataio.write_series_csv(series, out)
    print(f"wrote {len(series)} series x {settings['n_days']} days to {out}")
    return EXIT_OK


def cmd_train(settings) -> int:
    """train the forecaster"""
    model_cfg = _checked(NhitsConfig, epochs=settings["epochs"], batch_size=settings["batch_size"],
                         lr=settings["lr"], weight_decay=settings["weight_decay"],
                         early_stop_patience=settings["patience"])
    outdir = _outdir(settings)
    series = _load_series(settings["data"])
    usable = [s for s in series if len(s) >= settings["min_length"]]
    if len(usable) < 2:
        raise DataError(f"need at least 2 series of length >= {settings['min_length']}")
    rng = np.random.default_rng(settings["seed"])
    order = rng.permutation(len(usable))
    n_val = max(1, int(round(len(usable) * settings["val_fraction"])))
    val = [usable[i] for i in order[:n_val]]
    tr = [usable[i] for i in order[n_val:]]
    if not tr:
        raise DataError(f"val-fraction {settings['val_fraction']} leaves no training series "
                        f"of the {len(usable)} usable")
    model, log = train(tr, val, model_cfg, seed=settings["seed"])
    model.save(outdir / "model.ckpt")
    _write_csv(outdir / "training_log.csv", ("epoch", "train_loss", "val_loss"), log)
    print(f"trained on {len(tr)} series (val {len(val)}); best val loss "
          f"{min(r[2] for r in log):.6g}; checkpoint at {outdir / 'model.ckpt'}")
    return EXIT_OK


def cmd_attack(settings) -> int:
    """run white-box attacks"""
    methods = [m.strip().upper() for m in settings["methods"].split(",") if m.strip()]
    if not methods:
        raise UsageError("no attack methods given")
    eps_list = _split(settings, "eps_pct", float)
    settings["methods"] = ",".join(methods)
    settings["eps_pct"] = ",".join(_fmt(e) for e in eps_list)
    acfgs = [_checked(AttackConfig, method=m, eps_pct=e, iters=settings["iters"],
                      target_dir=settings["direction"]) for m in methods for e in eps_list]
    outdir = _outdir(settings)
    model = NhitsModel.load(settings["checkpoint"])
    series = _load_series(settings["data"], settings["tickers"])
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
            # percent-encoded: a '/' makes no directory, no two tickers share a stem
            stem = f"{quote(s.ticker, safe='')}_{method}_{_fmt(eps)}"
            _write_csv(traces_dir / f"trace_{stem}.csv", ("iter", "loss", "slope"), result.trace)
            if settings["plots"]:
                enc = model.config.encoder_length
                days = np.arange(enc, enc + len(result.path_before))
                svgplot.line_chart(
                    outdir / f"overlay_{stem}.svg",
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
    print(f"attacked {len(series)} series x {len(methods)} methods x {len(eps_list)} budgets; "
          f"report at {outdir / 'attack_report.csv'}")
    return EXIT_OK


def cmd_defend_train(settings) -> int:
    """train the adversarial-input discriminator"""
    settings["method"] = settings["method"].upper()
    acfg = _checked(AttackConfig, method=settings["method"], eps_pct=settings["eps_pct"],
                    iters=settings["attack_iters"], target_dir=1)
    d_cfg = _checked(defense.DiscriminatorConfig, epochs=settings["epochs"], lr=settings["lr"])
    outdir = _outdir(settings)
    model = NhitsModel.load(settings["checkpoint"])
    series = _load_series(settings["data"], settings["tickers"])
    rng = np.random.default_rng(settings["seed"])
    order = rng.permutation(len(series))
    n_hold = max(1, int(round(len(series) * settings["holdout"])))
    if n_hold >= len(series):
        raise DataError(f"holdout {settings['holdout']} leaves no training series "
                        f"of the {len(series)}")
    n_in = d_cfg.input_length
    for s in series:  # before the first attack, so a short series fails fast
        if len(s) < n_in:
            raise DataError(f"{s.ticker}: need {n_in} days for the discriminator input")
    real, attacked = [], []
    for s in series:
        result = run_attack(s, model, acfg)
        real.append(s.adjprc[:n_in])
        attacked.append(result.x_adv.adjprc)
    hold = sorted(order[:n_hold].tolist())
    fit = [i for i in range(len(series)) if i not in hold]
    clf, curve = defense.train_discriminator([real[i] for i in fit], [attacked[i] for i in fit],
                                             d_cfg, seed=settings["seed"])
    clf.save(outdir / "discriminator.ckpt")
    _write_csv(outdir / "defense_curve.csv", ("epoch", "loss"), curve)
    rep = confusion(*defense.predict_labelled(clf, [real[i] for i in hold],
                                              [attacked[i] for i in hold]))
    _write_csv(outdir / "defense_report.csv",
               ("set", "tp", "tn", "fp", "fn", "accuracy", "specificity", "kappa"),
               [("holdout", rep.tp, rep.tn, rep.fp, rep.fn,
                 rep.accuracy, rep.specificity, rep.kappa)])
    print(f"discriminator holdout: accuracy {rep.accuracy:.2f}%, "
          f"specificity {rep.specificity:.2f}%, kappa {rep.kappa:.2f}")
    return EXIT_OK


def cmd_defend_classify(settings) -> int:
    """score series with a trained discriminator"""
    clf = defense.Discriminator.load(settings["model"])
    series = _load_series(settings["data"], settings["tickers"])
    n_in = clf.config.input_length
    for s in series:
        if len(s) < n_in:
            raise DataError(f"{s.ticker}: need {n_in} days, have {len(s)}")
    probs = defense.classify(clf, [s.adjprc[:n_in] for s in series])
    rows = [(s.ticker, p) for s, p in zip(series, probs)]
    out = _out(settings)
    _write_csv(out, ("ticker", "prob_adversarial"), rows)
    print(f"classified {len(rows)} series; probabilities at {out}")
    return EXIT_OK


def cmd_defend_build_manifest(settings) -> int:
    """hash a deployment directory"""
    out = Path(settings["out"]).resolve()
    if out.is_relative_to(Path(settings["directory"]).resolve()):
        raise UsageError(f"--out {settings['out']} lies inside the directory it hashes")
    manifest = defense.build_manifest(settings["directory"])
    defense.write_manifest(manifest, _out(settings))
    print(f"hashed {len(manifest.entries)} files; root {manifest.root_digest}")
    return EXIT_OK


def cmd_defend_verify(settings) -> int:
    """verify a directory against a manifest"""
    manifest = defense.read_manifest(settings["manifest"])
    verdict = defense.verify_manifest(settings["directory"], manifest)
    if verdict.ok:
        print("PASS: directory matches manifest")
        return EXIT_OK
    for kind, paths in (("added", verdict.added), ("removed", verdict.removed),
                        ("modified", verdict.modified)):
        for p in paths:
            print(f"FAIL {kind}: {p}")
    return EXIT_DATA


def cmd_gan_train(settings) -> int:
    """train the adversarial GAN"""
    try:
        g_cfg = agan.GanConfig(
            samples_per_epoch=settings["samples_per_epoch"],
            epochs_per_block=_split(settings, "epochs_per_block", int),
            adv_scale_schedule=_split(settings, "alpha", float),
            lr_g=settings["lr_g"], lr_c=settings["lr_c"])
    except ValueError as exc:  # GanConfig names its fields; name the flags instead
        msg = str(exc).replace("adv_scale_schedule", "alpha").replace("_", "-")
        raise UsageError(msg) from None
    outdir = _outdir(settings)
    model = NhitsModel.load(settings["checkpoint"])
    stock = _load_one(settings["data"], settings["ticker"])
    bundle, log = agan.train_agan(stock, model, g_cfg, seed=settings["seed"])
    bundle.save(outdir / "gan.ckpt")
    _write_csv(outdir / "gan_log.csv",
               ("block", "epoch", "critic_loss", "gen_loss", "adv_loss"), log)
    print(f"trained GAN on {stock.ticker}; bundle at {outdir / 'gan.ckpt'}")
    return EXIT_OK


def cmd_gan_generate(settings) -> int:
    """sample synthetic intervals"""
    bundle = agan.GanBundle.load(settings["bundle"])
    stock = _load_one(settings["data"], settings["ticker"])
    conditions = agan.sample_intervals(stock, settings["n"], settings["seed"],
                                       length=bundle.config.interval_length)
    out_rows = []
    generated = agan.generate(bundle, conditions, settings["seed"] + 1)
    for i, row in enumerate(generated):
        for day, v in enumerate(row):
            out_rows.append((i, day, v))
    _write_csv(_out(settings), ("interval_id", "day", "scaled_log_return"), out_rows)
    print(f"generated {len(generated)} intervals conditioned on {stock.ticker}; "
          f"rows at {settings['out']}")
    return EXIT_OK


def cmd_eval(settings) -> int:
    """compare generated and real distributions"""
    outdir = _outdir(settings)
    bundle = agan.GanBundle.load(settings["bundle"])
    model = NhitsModel.load(settings["checkpoint"]) if settings["checkpoint"] else None
    stock = _load_one(settings["data"], settings["ticker"])
    report = agan.evaluate_gan(bundle, stock, model, settings["n"], settings["seed"])
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
    print(f"eval on {settings['n']} intervals: MMD={report['mmd']:.6g}; "
          f"reports in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the settings table, the parser built from it, and the resolver
# ---------------------------------------------------------------------------

class Bounds(NamedTuple):
    """A numeric setting's valid values: v >= lo, or lo < v < hi when hi is given."""
    lo: float
    hi: float | None = None

    def __contains__(self, v) -> bool:
        return v >= self.lo if self.hi is None else self.lo < v < self.hi

    def __str__(self) -> str:
        return f">= {_fmt(self.lo)}" if self.hi is None else f"in ({_fmt(self.lo)}, {_fmt(self.hi)})"


class Command(NamedTuple):
    handler: Callable[[dict], int]
    # the --config section its rows (and --seed) read; None: no section, no seed
    section: str | None
    # paths and --tickers: "--x" required, "--x?" optional, "x" positional,
    # (flag, cast, default[, bounds]) an option no config file sets
    inputs: tuple
    # settings as (flag, cast, default[, bounds]); a bool row's flag is --no-<flag>
    rows: tuple = ()


COMMANDS = {
    ("synth",): Command(cmd_synth, "synth", ("--out",), (
        ("n-series", int, 10, Bounds(1)), ("n-days", int, 400, Bounds(dataio.MIN_SYNTH_DAYS)),
        ("s0", float, 80.0), ("mu", float, 4e-4), ("sigma", float, 0.01))),
    ("train",): Command(cmd_train, "train", ("--data", "--outdir"), (
        ("epochs", int, 100), ("batch-size", int, 64), ("lr", float, 1e-3),
        ("weight-decay", float, 1e-4), ("patience", int, 15), ("min-length", int, 600),
        ("val-fraction", float, 0.15, Bounds(0.0, 1.0)))),
    ("attack",): Command(
        cmd_attack, "attack", ("--data", "--checkpoint", "--outdir", "--tickers?"), (
            ("methods", str, "GSA,LSSA"), ("eps-pct", str, "2.0"), ("iters", int, None),
            ("direction", int, 1), ("plots", bool, True))),
    ("defend", "train"): Command(
        cmd_defend_train, "defend", ("--data", "--checkpoint", "--outdir", "--tickers?"), (
            ("method", str, "GSA"), ("eps-pct", float, 2.0), ("epochs", int, 200, Bounds(1)),
            ("lr", float, 1e-4), ("attack-iters", int, 30),
            ("holdout", float, 0.3, Bounds(0.0, 1.0)))),
    ("defend", "classify"): Command(cmd_defend_classify, None,
                                    ("--model", "--data", "--out", "--tickers?")),
    ("defend", "build-manifest"): Command(cmd_defend_build_manifest, None, ("directory", "--out")),
    ("defend", "verify"): Command(cmd_defend_verify, None, ("directory", "manifest")),
    ("gan", "train"): Command(cmd_gan_train, "gan", ("--data", "--checkpoint", "--outdir"), (
        ("ticker", str, None), ("samples-per-epoch", int, 512),
        ("epochs-per-block", str, "50,50,50,50,50"), ("alpha", str, "0.25,0.25,0.3,0.35,0.35"),
        ("lr-g", float, 1e-4), ("lr-c", float, 1e-4))),
    ("gan", "generate"): Command(cmd_gan_generate, "gan",
                                 ("--bundle", "--data", "--ticker?", ("n", int, 2000, Bounds(1)),
                                  "--out")),
    ("eval",): Command(cmd_eval, "eval", ("--data", "--bundle", "--checkpoint?", "--outdir"), (
        ("ticker", str, None), ("n", int, 2000, Bounds(2)))),
}
GROUP_HELP = {"defend": "discriminator and integrity tooling",
              "gan": "adversarial GAN training and generation"}


def _key(spec) -> str:
    """The settings key (and argparse dest) of an input spec or a row's flag."""
    name = spec if isinstance(spec, str) else spec[0]
    return name.lstrip("-").rstrip("?").replace("-", "_")


def _rows(cmd: Command) -> tuple:
    return cmd.rows + (("seed", int, 0),) if cmd.section else cmd.rows


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="slopestrike",
                                description="forecaster attack/defense workbench")
    p.add_argument("--config", help="INI config file with per-command sections")
    p.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                   help="least severe log records shown on stderr (default: warning)")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for path, cmd in COMMANDS.items():
        parent = sub
        if len(path) == 2:
            if path[0] not in groups:
                groups[path[0]] = sub.add_parser(path[0], help=GROUP_HELP[path[0]]) \
                    .add_subparsers(dest="subcommand", required=True)
            parent = groups[path[0]]
        sp = parent.add_parser(path[-1], help=cmd.handler.__doc__)
        sp.set_defaults(path=path)
        for spec in cmd.inputs:
            if not isinstance(spec, str):
                sp.add_argument(f"--{spec[0]}", type=spec[1], default=spec[2])
            elif spec.startswith("--"):
                sp.add_argument(spec.rstrip("?"), required=not spec.endswith("?"))
            else:
                sp.add_argument(spec)
        for flag, cast, *_ in _rows(cmd):
            if cast is bool:
                sp.add_argument(f"--no-{flag}", dest=_key(flag), action="store_false", default=None)
            else:
                sp.add_argument(f"--{flag}", type=cast)
    return p


def _resolve(args, cmd: Command) -> dict:
    """The command's inputs ('' when an optional one is absent) and each row resolved
    as flag > its --config section > SLOPESTRIKE_SEED (seed only) > default; a value
    outside its row's bounds is a usage error."""
    section = {}
    if args.config and cmd.section:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(args.config):
                raise DataError(f"config file not found: {args.config}")
        except configparser.Error as exc:  # its message names the file over several lines
            raise UsageError(" ".join(str(exc).split())) from None
        section = parser[cmd.section] if parser.has_section(cmd.section) else {}
    s = {_key(spec): "" if getattr(args, _key(spec)) is None else getattr(args, _key(spec))
         for spec in cmd.inputs}
    for flag, cast, default, *_ in _rows(cmd):
        value = getattr(args, _key(flag))
        if value is None and flag in section:
            try:
                raw = section[flag]
                value = raw.strip().lower() in ("1", "true", "yes") if cast is bool else cast(raw)
            except (ValueError, configparser.InterpolationError) as exc:
                raise UsageError(f"{args.config} [{cmd.section}] {flag}: {exc}") from None
        env = os.environ.get(SEED_ENV) if flag == "seed" else None
        if value is None and env is not None:
            try:
                value = int(env)
            except ValueError:
                raise UsageError(f"{SEED_ENV} must be an integer, got '{env}'") from None
        s[_key(flag)] = default if value is None else value
    for spec in (*cmd.inputs, *_rows(cmd)):
        if not isinstance(spec, str) and len(spec) > 3 and s[_key(spec)] not in spec[3]:
            raise UsageError(f"{spec[0]} must be {spec[3]}, got {_fmt(s[_key(spec)])}")
    return s


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Each '--flag -1,0' as '--flag=-1,0'.  argparse reads a token that starts
    with '-' as an option unless it is one plain negative number, so a comma list
    whose first item is negative would never reach the settings checks."""
    out = []
    for a in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and len(flag) > 2 and "=" not in flag and _NEGATIVE.match(a):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        cmd = COMMANDS[args.path]
        with _stderr_logging(args.log_level):
            s = _resolve(args, cmd)
            code = cmd.handler(s)
        if "outdir" in s:
            _write_run_manifest(Path(s.pop("outdir")), "-".join(args.path), s,
                                _input_digests(cmd, s))
        return code
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
