import csv
import hashlib
import json
import logging
import shutil
import urllib.parse
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np
import pytest

from slopestrike import cli
from slopestrike.cli import main
from helpers import resaved_with


def run(*argv) -> int:
    return main([str(a) for a in argv])


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, toy_model):
    """Synthetic data CSV plus a saved toy checkpoint for command tests."""
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "prices.csv"
    assert run("synth", "--out", data, "--n-series", 4, "--n-days", 320,
               "--mu", 7e-4, "--sigma", 0.009, "--seed", 42) == 0
    ckpt = ws / "model.ckpt"
    toy_model.save(ckpt)
    return ws, data, ckpt


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("synth", "--out", a, "--n-series", 2, "--n-days", 150, "--seed", 9) == 0
    assert run("synth", "--out", b, "--n-series", 2, "--n-days", 150, "--seed", 9) == 0
    assert digest(a) == digest(b)


def test_train_writes_outputs_and_is_deterministic(tmp_path, workspace):
    _, data, _ = workspace
    outs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        assert run("train", "--data", data, "--outdir", outdir, "--epochs", 2,
                   "--min-length", 300, "--lr", 0.05, "--seed", 5) == 0
        assert (outdir / "model.ckpt").exists()
        assert (outdir / "training_log.csv").exists()
        assert (outdir / "run_manifest.json").exists()
        outs.append(outdir)
    for fname in ("model.ckpt", "training_log.csv", "run_manifest.json"):
        assert digest(outs[0] / fname) == digest(outs[1] / fname), fname


def test_train_missing_data_path_is_usage_error(tmp_path):
    assert run("train", "--data", tmp_path / "nope.csv", "--outdir", tmp_path / "o") == 2


def test_malformed_data_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("ticker,date,adjprc\nAAA,2021-01-04,-5\n")
    assert run("train", "--data", bad, "--outdir", tmp_path / "o") == 3


def test_numerical_failure_maps_to_exit_4(tmp_path, workspace):
    from slopestrike.forecaster import NhitsModel

    _, data, ckpt = workspace
    broken = NhitsModel.load(ckpt)
    broken.params["b0.w1"].data[:] = np.nan
    bad_ckpt = tmp_path / "broken.ckpt"
    broken.save(bad_ckpt)
    assert run("attack", "--data", data, "--checkpoint", bad_ckpt,
               "--outdir", tmp_path / "o", "--methods", "gsa", "--iters", 2,
               "--tickers", "SYN000", "--no-plots") == 4


def test_attack_checks_the_last_step_prices(tmp_path, workspace, capsys):
    # FGSM's one step of 150 % of the median price leaves the positive range
    _, data, ckpt = workspace
    code = run("attack", "--data", data, "--checkpoint", ckpt, "--outdir", tmp_path / "o",
               "--methods", "fgsm", "--eps-pct", 150, "--tickers", "SYN000", "--no-plots")
    err = capsys.readouterr().err
    assert code == 4
    assert err == "numerical failure: FGSM: prices became non-positive at iteration 0\n"


def test_attack_on_a_short_series_is_one_line_data_error(tmp_path, workspace, capsys):
    from slopestrike import dataio
    _, _, ckpt = workspace
    short = dataio.synth_gbm(1, 120, 80.0, 4e-4, 0.01, seed=4)[0].head(119)
    data = tmp_path / "short.csv"
    dataio.write_series_csv([dataio.PriceSeries("SHORT", short.dates, short.adjprc)], data)
    code = run("attack", "--data", data, "--checkpoint", ckpt, "--outdir", tmp_path / "o",
               "--methods", "bim", "--iters", 1, "--no-plots")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error: SHORT:") and "120 days" in err
    assert len(err.strip().splitlines()) == 1


def test_attack_reports_and_determinism(tmp_path, workspace):
    _, data, ckpt = workspace
    outs = []
    for name in ("a1", "a2"):
        outdir = tmp_path / name
        assert run("attack", "--data", data, "--checkpoint", ckpt, "--outdir", outdir,
                   "--methods", "gsa,lssa", "--eps-pct", "0.0,2.0", "--iters", 5,
                   "--tickers", "SYN000,SYN001", "--seed", 3) == 0
        outs.append(outdir)
    report = (outs[0] / "attack_report.csv").read_text().splitlines()
    assert report[0] == "ticker,method,eps_pct,mae,rmse,mape,gen_slope,ls_slope"
    # 2 tickers x (1 normal + 2 methods x 2 eps)
    assert len(report) == 1 + 2 * 5
    assert digest(outs[0] / "attack_report.csv") == digest(outs[1] / "attack_report.csv")
    assert digest(outs[0] / "attack_aggregate.csv") == digest(outs[1] / "attack_aggregate.csv")
    trace = outs[0] / "traces" / "trace_SYN000_GSA_2.csv"
    assert trace.exists()
    assert trace.read_text().splitlines()[0] == "iter,loss,slope"
    assert (outs[0] / "overlay_SYN000_GSA_2.svg").exists()


def test_attack_file_names_encode_any_ticker(tmp_path, workspace):
    _, data, ckpt = workspace
    odd = {"SYN001": "BRK/B", "SYN002": "AT&T", "SYN003": "A B"}
    renamed = tmp_path / "odd.csv"
    lines = data.read_text().splitlines(keepends=True)
    renamed.write_text("".join(odd[line[:6]] + line[6:] if line[:6] in odd else line
                               for line in lines))
    tickers = ["SYN000", *odd.values()]
    out, plain = tmp_path / "odd", tmp_path / "plain"
    for path, names, outdir in ((renamed, tickers, out), (data, ["SYN000"], plain)):
        assert run("attack", "--data", path, "--checkpoint", ckpt, "--outdir", outdir,
                   "--methods", "gsa", "--iters", 1, "--tickers", ",".join(names)) == 0
    assert (out / "run_manifest.json").is_file()
    for svg in out.glob("overlay_*.svg"):
        ET.parse(svg)
    for prefix, suffix, where in (("overlay_", ".svg", out), ("trace_", ".csv", out / "traces")):
        stems = sorted(p.name[len(prefix):-len(f"_GSA_2{suffix}")] for p in where.iterdir()
                       if p.name.startswith(prefix))
        assert sorted(map(urllib.parse.unquote, stems)) == sorted(tickers)
    with open(out / "attack_report.csv", newline="") as fh:
        normal = [row[0] for row in csv.reader(fh) if row[1] == "normal"]
    assert sorted(normal) == sorted(tickers)
    for name in ("overlay_SYN000_GSA_2.svg", "traces/trace_SYN000_GSA_2.csv"):
        assert (out / name).read_bytes() == (plain / name).read_bytes()


def test_attack_eps_zero_rows_match_normal(tmp_path, workspace):
    _, data, ckpt = workspace
    outdir = tmp_path / "a0"
    assert run("attack", "--data", data, "--checkpoint", ckpt, "--outdir", outdir,
               "--methods", "gsa", "--eps-pct", "0.0", "--iters", 3,
               "--tickers", "SYN000", "--no-plots") == 0
    lines = (outdir / "attack_report.csv").read_text().splitlines()[1:]
    rows = [l.split(",") for l in lines]
    normal = [r for r in rows if r[1] == "normal"][0]
    attacked = [r for r in rows if r[1] == "GSA"][0]
    assert normal[3:] == attacked[3:]


def test_attack_aggregate_means_match_report(tmp_path, workspace):
    _, data, ckpt = workspace
    outdir = tmp_path / "agg"
    assert run("attack", "--data", data, "--checkpoint", ckpt, "--outdir", outdir,
               "--methods", "gsa", "--eps-pct", "1.0", "--iters", 4, "--no-plots") == 0
    rows = [l.split(",") for l in (outdir / "attack_report.csv").read_text().splitlines()[1:]]
    gsa_mae = [float(r[3]) for r in rows if r[1] == "GSA"]
    agg = [l.split(",") for l in (outdir / "attack_aggregate.csv").read_text().splitlines()[1:]]
    agg_gsa = [r for r in agg if r[0] == "GSA"][0]
    assert abs(float(agg_gsa[2]) - np.mean(gsa_mae)) < 1e-9


def test_log_level_info_shows_early_stop(tmp_path, workspace, capsys):
    # a rate too small to move any weight keeps the validation loss flat, so
    # patience 1 stops at epoch 2 (a rate of 0 is a usage error)
    _, data, _ = workspace
    argv = ("train", "--data", data, "--outdir", tmp_path / "o", "--epochs", 3,
            "--min-length", 300, "--lr", 1e-300, "--patience", 1, "--seed", 5)
    assert run(*argv) == 0
    assert "early stop" not in capsys.readouterr().err
    log = logging.getLogger("slopestrike")
    before = (log.level, list(log.handlers))
    assert run("--log-level", "info", *argv) == 0
    assert "INFO slopestrike.forecaster: early stop at epoch 2" in capsys.readouterr().err
    assert (log.level, log.handlers) == before  # the command's logging set-up is undone


def test_unknown_log_level_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("--log-level", "verbose", "synth", "--out", tmp_path / "a.csv")
    assert exc.value.code == 2
    assert "--log-level" in capsys.readouterr().err


def test_eval_generates_once(tmp_path, workspace, monkeypatch):
    from slopestrike import agan
    _, data, ckpt = workspace
    gan_dir = tmp_path / "gan"
    assert run("gan", "train", "--data", data, "--checkpoint", ckpt, "--outdir", gan_dir,
               "--ticker", "SYN001", "--samples-per-epoch", 32, "--epochs-per-block", "1",
               "--alpha", "0.25", "--seed", 3) == 0
    calls = []
    real_generate = agan.generate
    monkeypatch.setattr(agan, "generate",
                        lambda *a, **k: calls.append(a) or real_generate(*a, **k))
    assert run("eval", "--data", data, "--bundle", gan_dir / "gan.ckpt",
               "--checkpoint", ckpt, "--outdir", tmp_path / "eval", "--ticker", "SYN001",
               "--n", 20, "--seed", 6) == 0
    assert len(calls) == 1
    assert (tmp_path / "eval" / "returns_hist.svg").exists()


def test_attack_unknown_method_usage_error(tmp_path, workspace, capsys):
    _, data, ckpt = workspace
    code = run("attack", "--data", data, "--checkpoint", ckpt,
               "--outdir", tmp_path / "x", "--methods", "warp")
    assert code == 2
    assert "valid" in capsys.readouterr().err


def test_defend_manifest_cycle(tmp_path, workspace):
    ws, data, ckpt = workspace
    deploy = tmp_path / "deploy"
    deploy.mkdir()
    shutil.copy(ckpt, deploy / "model.ckpt")
    (deploy / "config.ini").write_text("[train]\nepochs=2\n")
    # names the manifest's own format uses: the root line's key and its separator
    (deploy / "ROOT").write_text("root\n")
    (deploy / "tab\tname.txt").write_text("tab\n")
    mf = tmp_path / "deploy.manifest"
    assert run("defend", "build-manifest", deploy, "--out", mf) == 0
    assert run("defend", "verify", deploy, mf) == 0
    (deploy / "config.ini").write_text("[train]\nepochs=3\n")
    assert run("defend", "verify", deploy, mf) == 3
    # a name with a line break cannot be written to a manifest line
    (deploy / "new\nline.txt").write_text("x\n")
    assert run("defend", "build-manifest", deploy, "--out", tmp_path / "nl.manifest") == 3
    assert not (tmp_path / "nl.manifest").exists()


def _tree_with_outside_target(tmp_path):
    deploy, outside = tmp_path / "deploy", tmp_path / "outside"
    deploy.mkdir()
    outside.mkdir()
    (deploy / "config.ini").write_text("[train]\nepochs=2\n")
    (outside / "f.txt").write_text("v1\n")
    return deploy, outside


def test_build_manifest_rejects_symlinks(tmp_path, capsys):
    # a link's target can be rewritten outside the tree, so a manifest that
    # skipped links would still verify afterwards
    deploy, outside = _tree_with_outside_target(tmp_path)
    (deploy / "flink").symlink_to(outside / "f.txt")
    (deploy / "link").symlink_to(outside, target_is_directory=True)
    mf = tmp_path / "deploy.manifest"
    assert run("defend", "build-manifest", deploy, "--out", mf) == 3
    assert "'flink'" in capsys.readouterr().err and not mf.exists()


def test_verify_fails_on_a_symlink_added_after_the_manifest(tmp_path, capsys):
    deploy, outside = _tree_with_outside_target(tmp_path)
    mf = tmp_path / "deploy.manifest"
    assert run("defend", "build-manifest", deploy, "--out", mf) == 0
    assert run("defend", "verify", deploy, mf) == 0
    (deploy / "link").symlink_to(outside, target_is_directory=True)
    capsys.readouterr()
    assert run("defend", "verify", deploy, mf) == 3
    assert "'link'" in capsys.readouterr().err


def test_build_manifest_out_inside_the_hashed_directory_is_usage_error(tmp_path, capsys):
    deploy = tmp_path / "deploy"
    deploy.mkdir()
    (deploy / "config.ini").write_text("[train]\nepochs=2\n")
    for out in (deploy / "manifest.txt", deploy / "sub" / ".." / "sub" / "m.txt",
                tmp_path / "." / "deploy" / "m.txt"):
        assert run("defend", "build-manifest", deploy, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "inside the directory" in err
    assert sorted(p.name for p in deploy.iterdir()) == ["config.ini"]


def test_defend_train_and_classify(tmp_path, workspace):
    _, data, ckpt = workspace
    outdir = tmp_path / "def"
    assert run("defend", "train", "--data", data, "--checkpoint", ckpt,
               "--outdir", outdir, "--method", "GSA", "--epochs", 5,
               "--lr", 0.01, "--attack-iters", 3, "--seed", 1) == 0
    assert (outdir / "discriminator.ckpt").exists()
    report = (outdir / "defense_report.csv").read_text().splitlines()
    assert report[0].startswith("set,tp,tn,fp,fn")
    # the report's accuracy is predict_labelled's on the same holdout,
    # rebuilt here: the seed's permutation, 30 % of the 4 series, the same attack
    from slopestrike import dataio, defense
    from slopestrike.attacks import AttackConfig, run_attack
    from slopestrike.forecaster import NhitsModel
    series = dataio.load_csv(data)
    hold = sorted(np.random.default_rng(1).permutation(len(series))[:1].tolist())
    model = NhitsModel.load(ckpt)
    real = [series[i].adjprc[:300] for i in hold]
    adv = [run_attack(series[i].head(300), model,
                      AttackConfig("GSA", eps_pct=2.0, iters=3)).x_adv.adjprc for i in hold]
    clf = defense.Discriminator.load(outdir / "discriminator.ckpt")
    accuracy = float(report[1].split(",")[5])
    labels, preds = defense.predict_labelled(clf, real, adv)
    assert accuracy == 100.0 * float(np.mean(preds == labels))
    probs = tmp_path / "probs.csv"
    assert run("defend", "classify", "--model", outdir / "discriminator.ckpt",
               "--data", data, "--out", probs) == 0
    lines = probs.read_text().splitlines()
    assert lines[0] == "ticker,prob_adversarial"
    assert len(lines) == 5
    for line in lines[1:]:
        assert 0.0 <= float(line.split(",")[1]) <= 1.0


def test_gan_train_generate_eval_cycle(tmp_path, workspace):
    _, data, ckpt = workspace
    outdir = tmp_path / "gan"
    assert run("gan", "train", "--data", data, "--checkpoint", ckpt,
               "--outdir", outdir, "--ticker", "SYN002",
               "--samples-per-epoch", 32, "--epochs-per-block", "5",
               "--alpha", "0.25", "--seed", 4) == 0
    bundle = outdir / "gan.ckpt"
    assert bundle.exists() and (outdir / "gan_log.csv").exists()

    out_csv = tmp_path / "intervals.csv"
    assert run("gan", "generate", "--bundle", bundle, "--data", data,
               "--ticker", "SYN002", "--n", 5, "--out", out_csv, "--seed", 2) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "interval_id,day,scaled_log_return"
    assert len(lines) == 1 + 5 * 99

    evaldir = tmp_path / "eval"
    assert run("eval", "--data", data, "--bundle", bundle, "--checkpoint", ckpt,
               "--outdir", evaldir, "--ticker", "SYN002", "--n", 30, "--seed", 6) == 0
    moments = (evaldir / "moments.csv").read_text().splitlines()
    assert moments[0] == "data,mu,sigma,iqr,skew,kurtosis,mmd"
    assert moments[1].startswith("Real") and moments[2].startswith("A-GAN")
    assert float(moments[2].split(",")[-1]) >= 0.0
    assert (evaldir / "slopes.csv").exists()
    assert (evaldir / "returns_hist.svg").exists()


def test_eval_real_vs_real_mmd_near_zero(tmp_path, workspace):
    # identical real samples on both sides -> MMD ~ 0
    from slopestrike import agan, dataio
    series = dataio.load_csv(workspace[1])[0]
    ivs = agan.sample_intervals(series, 50, seed=0)
    real = np.stack([iv.log_returns for iv in ivs])
    from slopestrike.metrics import mmd
    assert mmd(real, real.copy()) < 1e-12


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SLOPESTRIKE_SEED", "77")
    a = tmp_path / "a.csv"
    assert run("synth", "--out", a, "--n-series", 1, "--n-days", 150) == 0
    monkeypatch.delenv("SLOPESTRIKE_SEED")
    b = tmp_path / "b.csv"
    assert run("synth", "--out", b, "--n-series", 1, "--n-days", 150, "--seed", 77) == 0
    assert digest(a) == digest(b)


def test_config_file_with_flag_override(tmp_path, workspace):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nn-series = 3\nn-days = 150\nseed = 11\n")
    a = tmp_path / "a.csv"
    assert run("--config", cfg, "synth", "--out", a) == 0
    assert sum(1 for _ in open(a)) == 1 + 3 * 150
    b = tmp_path / "b.csv"
    assert run("--config", cfg, "synth", "--out", b, "--n-series", 1) == 0
    assert sum(1 for _ in open(b)) == 1 + 1 * 150


ROWS = [(path, row) for path, cmd in cli.COMMANDS.items() if cmd.section
        for row in cmd.rows + (("seed", int, 0),)]
COMMAND_ARGV = {  # each command's inputs; the row test stubs the handler, so no file is read
    ("synth",): ("synth", "--out", "a.csv"),
    ("train",): ("train", "--data", "p.csv", "--outdir", "."),
    ("attack",): ("attack", "--data", "p.csv", "--checkpoint", "m.ckpt", "--outdir", "."),
    ("defend", "train"): ("defend", "train", "--data", "p.csv", "--checkpoint", "m.ckpt",
                          "--outdir", "."),
    ("gan", "train"): ("gan", "train", "--data", "p.csv", "--checkpoint", "m.ckpt", "--outdir", "."),
    ("gan", "generate"): ("gan", "generate", "--bundle", "g.ckpt", "--data", "p.csv",
                          "--out", "x.csv"),
    ("eval",): ("eval", "--data", "p.csv", "--bundle", "g.ckpt", "--outdir", "."),
}


@pytest.mark.parametrize("line, key", [
    ("n-series = abc", "n-series"), ("n-series = 5%", "n-series"), ("seed = x1", "seed"),
])
def test_bad_config_value_exits_2_naming_file_section_and_key(tmp_path, line, key, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[synth]\nn-days = 150\n{line}\n")
    code = run("--config", cfg, "synth", "--out", tmp_path / "a.csv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1
    assert str(cfg) in err and "[synth]" in err and key in err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("path, row", ROWS, ids=[f"{'-'.join(p)}:{r[0]}" for p, r in ROWS])
def test_every_settings_row_resolves_from_config_and_flag(tmp_path, monkeypatch, capsys,
                                                          path, row):
    """Every settings row: a config value is honoured, its flag overrides it, a bad one exits 2."""
    flag, cast, default, *bounds = row
    key, section, argv = flag.replace("-", "_"), cli.COMMANDS[path].section, COMMAND_ARGV[path]
    seen = []
    monkeypatch.setitem(cli.COMMANDS, path,
                        cli.COMMANDS[path]._replace(handler=lambda s: seen.append(s) or 0))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLOPESTRIKE_SEED", raising=False)
    cfg = tmp_path / "run.ini"

    def resolved(value, *flags):
        cfg.write_text(f"[{section}]\n{flag} = {value}\n")
        assert run("--config", cfg, *argv, *flags) == 0
        got = seen.pop()[key]
        if "--outdir" in argv:  # the manifest holds the resolved row
            assert json.loads(Path("run_manifest.json").read_text())["settings"][key] == got
        return got

    if cast is bool:
        assert resolved("no") is False and resolved("yes") is True
        assert resolved("yes", f"--no-{flag}") is False
    else:
        text, flag_text = {int: ("7", "9"), float: ("0.5", "0.25"), str: ("A,B", "C")}[cast]
        if bounds and cast is int:  # values inside the row's bounds
            text, flag_text = (str(bounds[0].lo + int(v)) for v in (text, flag_text))
        assert resolved(text) == cast(text) != default
        assert resolved(text, f"--{flag}", flag_text) == cast(flag_text)
    for bad in ("5%", "abc") if cast in (int, float) else ("5%",):
        cfg.write_text(f"[{section}]\n{flag} = {bad}\n")
        code = run("--config", cfg, *argv)
        err = capsys.readouterr().err
        assert code == 2 and not seen
        assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1
        assert f"{cfg} [{section}] {flag}: " in err


@pytest.mark.parametrize("text, words", [
    ("n-series = 3\n", "no section headers"),
    ("[synth]\nn-series = 3\nn-series = 4\n", "already exists"),
])
def test_unparsable_config_exits_2_naming_the_file(tmp_path, text, words, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    code = run("--config", cfg, "synth", "--out", tmp_path / "a.csv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1
    assert str(cfg) in err and words in err
    assert not (tmp_path / "a.csv").exists()


def test_split_without_training_series_is_data_error(tmp_path, workspace, capsys):
    _, data, ckpt = workspace  # 4 usable series; a 0.9 share takes all of them
    code = run("train", "--data", data, "--outdir", tmp_path / "o", "--min-length", 300,
               "--val-fraction", 0.9)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "no training series" in err
    assert not (tmp_path / "o" / "model.ckpt").exists()
    # the discriminator's holdout too, before any series is attacked
    code = run("defend", "train", "--data", data, "--checkpoint", ckpt,
               "--outdir", tmp_path / "d", "--holdout", 0.9)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "no training series" in err
    assert not (tmp_path / "d" / "discriminator.ckpt").exists()


def test_defend_train_checks_every_length_before_the_first_attack(tmp_path, workspace,
                                                                  capsys, monkeypatch):
    from slopestrike import dataio
    _, _, ckpt = workspace
    long_ones = dataio.synth_gbm(3, 320, 80.0, 4e-4, 0.01, seed=3)
    short = dataio.synth_gbm(1, 200, 80.0, 4e-4, 0.01, seed=4)[0]
    data = tmp_path / "short_last.csv"
    dataio.write_series_csv(long_ones + [dataio.PriceSeries("ZZZ", short.dates, short.adjprc)],
                            data)

    def no_attack(*args, **kwargs):
        raise AssertionError("a series was attacked before every length was checked")

    monkeypatch.setattr(cli, "run_attack", no_attack)
    code = run("defend", "train", "--data", data, "--checkpoint", ckpt,
               "--outdir", tmp_path / "d")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "ZZZ: need 300 days" in err


def test_corrupt_inputs_exit_3_with_one_line_message(tmp_path, workspace, capsys):
    _, data, ckpt = workspace
    flipped = tmp_path / "flipped.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    flipped.write_bytes(bytes(blob))

    lines = data.read_text().splitlines()
    saturday = tmp_path / "saturday.csv"  # 2020-01-10 is a Friday, the 11th a Saturday
    saturday.write_text("\n".join(line.replace("SYN000,2020-01-10,", "SYN000,2020-01-11,")
                                  for line in lines) + "\n")
    cases = [(flipped, data, "checksum mismatch"), (ckpt, saturday, "weekend date 2020-01-11")]
    first = next(k for k, line in enumerate(lines) if line.startswith("SYN000,"))
    for bad in ("nan", "inf"):
        rows = list(lines)
        rows[first] = ",".join(rows[first].split(",")[:2] + [bad])
        path = tmp_path / f"{bad}.csv"
        path.write_text("\n".join(rows) + "\n")
        cases.append((ckpt, path, f"non-finite adjprc {bad}"))

    for ckpt_path, data_path, words in cases:
        code = run("attack", "--data", data_path, "--checkpoint", ckpt_path,
                   "--outdir", tmp_path / "o", "--methods", "gsa", "--iters", 1,
                   "--tickers", "SYN000", "--no-plots")
        err = capsys.readouterr().err
        assert code == 3, words
        assert err.startswith("data error:") and words in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def _broken_checkpoints(tmp_path, good, unknown_key, reshape):
    """An unknown config key and a mis-shaped array, each saved next to ``good``."""
    from slopestrike import dataio
    arrays, arch = dataio.load_checkpoint(good)
    unknown = tmp_path / f"unknown_{good.name}"
    dataio.save_checkpoint(arrays, unknown, {**arch, "config": {**arch["config"], unknown_key: 3}})
    name, cut = reshape
    wrong_shape = tmp_path / f"wrong_shape_{good.name}"
    dataio.save_checkpoint({**arrays, name: cut(arrays[name])}, wrong_shape, arch)
    return [(unknown, unknown_key), (wrong_shape, "shapes")]


def _assert_one_line_data_errors(cases, commands, capsys):
    for bad, words in cases:
        for argv in commands(bad):
            code = run(*argv)
            err = capsys.readouterr().err
            assert code == 3, (argv[0], words)
            assert err.startswith("data error:") and words in err
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_gan_checkpoint_with_bad_generator_exits_3(tmp_path, workspace, capsys):
    """Every model kind's checkpoint is checked the same way: kind, config, names and shapes."""
    from slopestrike import agan, dataio, defense
    _, data, ckpt = workspace
    cfg = agan.GanConfig()
    bundle = agan.GanBundle(agan.TcnGenerator(cfg), agan.MlpCritic(cfg), cfg, (-0.05, 0.05))
    good = tmp_path / "gan.ckpt"
    bundle.save(good)
    arrays, arch = dataio.load_checkpoint(good)
    zero_kernel = tmp_path / "zero_kernel.ckpt"
    dataio.save_checkpoint(arrays, zero_kernel,
                           {**arch, "config": {**arch["config"], "gen_kernels": [3, 0, 5, 3]}})
    no_bounds = tmp_path / "no_bounds.ckpt"
    dataio.save_checkpoint(arrays, no_bounds, {k: v for k, v in arch.items() if k != "scale_bounds"})
    leaky = resaved_with(good, tmp_path / "leaky.ckpt", leaky_slope=0.1)  # the GAN fixes 0.2
    cases = [(zero_kernel, "gen_kernels"), (no_bounds, "scale bounds"), (leaky, "leaky_slope=0.1")]
    cases += _broken_checkpoints(tmp_path, good, "gen_width", ("g.tcn1.w", lambda a: a[:, :, :3]))
    _assert_one_line_data_errors(cases, lambda bad: (
        ("gan", "generate", "--bundle", bad, "--data", data, "--ticker", "SYN000",
         "--n", 2, "--out", tmp_path / "x.csv"),
        ("eval", "--data", data, "--bundle", bad, "--checkpoint", ckpt,
         "--outdir", tmp_path / "eval", "--ticker", "SYN000", "--n", 5)), capsys)

    arrays, arch = dataio.load_checkpoint(ckpt)
    no_features = tmp_path / "no_features.ckpt"  # older checkpoints saved this field
    dataio.save_checkpoint(arrays, no_features,
                           {**arch, "config": {**arch["config"], "use_features": False}})
    cases = _broken_checkpoints(tmp_path, ckpt, "hidden_width", ("b0.w1", lambda a: a[:-1]))
    cases.append((no_features, "use_features=False"))
    _assert_one_line_data_errors(cases, lambda bad: (
        ("attack", "--data", data, "--checkpoint", bad, "--outdir", tmp_path / "o",
         "--methods", "gsa", "--iters", 1, "--tickers", "SYN000", "--no-plots"),), capsys)

    clf = tmp_path / "clf.ckpt"
    defense.Discriminator(defense.DiscriminatorConfig()).save(clf)
    cases = _broken_checkpoints(tmp_path, clf, "conv_width", ("conv1.w", lambda a: a[:, :, :3]))
    narrow = resaved_with(clf, tmp_path / "narrow.ckpt", conv_channels=[16, 32, 8])
    cases.append((narrow, "conv_channels=[16, 32, 8]"))
    _assert_one_line_data_errors(cases, lambda bad: (
        ("defend", "classify", "--model", bad, "--data", data, "--out", tmp_path / "p.csv"),),
        capsys)


def _with_header(good, dst, edit):
    """The checkpoint ``good`` with its JSON header replaced by ``edit(header)``,
    saved at ``dst`` under a valid CRC-32."""
    body = good.read_bytes()[:-4]
    sep = body.index(b"\n\x00")
    body = json.dumps(edit(json.loads(body[:sep]))).encode() + body[sep:]
    dst.write_bytes(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))
    return dst


def _first_shape(header, shape):
    header["arrays"][0]["shape"] = shape
    return header


@pytest.mark.parametrize("edit,words", [
    (lambda h: {k: v for k, v in h.items() if k != "arrays"}, "KeyError('arrays')"),
    (lambda h: [h], "header is not a JSON object"),
    (lambda h: _first_shape(h, ["x"]), "malformed array list in header"),
    (lambda h: _first_shape(h, [-4, -16]), "negative array size"),
    (lambda h: {**h, "arch": ["nhits"]}, "non-object arch"),
], ids=["no-arrays-key", "list-header", "non-integer-shape", "negative-shape", "list-arch"])
def test_malformed_checkpoint_headers_exit_3(tmp_path, workspace, capsys, edit, words):
    _, data, ckpt = workspace
    bad = _with_header(ckpt, tmp_path / "bad.ckpt", edit)
    _assert_one_line_data_errors([(bad, words)], lambda bad: (
        ("attack", "--data", data, "--checkpoint", bad, "--outdir", tmp_path / "o",
         "--methods", "gsa", "--iters", 1, "--tickers", "SYN000", "--no-plots"),), capsys)


def test_out_parent_directories_are_made(tmp_path, workspace):
    from slopestrike import agan, defense
    _, data, _ = workspace
    cfg = agan.GanConfig()
    bundle = tmp_path / "gan.ckpt"
    agan.GanBundle(agan.TcnGenerator(cfg), agan.MlpCritic(cfg), cfg, (-0.05, 0.05)).save(bundle)
    clf = tmp_path / "clf.ckpt"
    defense.Discriminator(defense.DiscriminatorConfig()).save(clf)
    deploy = tmp_path / "deploy"
    deploy.mkdir()
    (deploy / "config.ini").write_text("[train]\nepochs=2\n")
    new = tmp_path / "new" / "deeper"
    for argv, out in ((("synth", "--n-series", 1, "--n-days", 150), new / "prices.csv"),
                      (("defend", "classify", "--model", clf, "--data", data), new / "probs.csv"),
                      (("gan", "generate", "--bundle", bundle, "--data", data, "--ticker", "SYN000",
                        "--n", 2), new / "gen.csv"),
                      (("defend", "build-manifest", deploy), new / "deploy.manifest")):
        assert run(*argv, "--out", out) == 0, argv[0]
        assert out.is_file()
        shutil.rmtree(tmp_path / "new")
    manifest = tmp_path / "m" / "deploy.manifest"
    assert run("defend", "build-manifest", deploy, "--out", manifest) == 0
    assert run("defend", "verify", deploy, manifest) == 0


def test_run_manifest_records_input_digests(tmp_path, monkeypatch):
    data, ckpt = tmp_path / "p.csv", tmp_path / "m.ckpt"
    data.write_bytes(b"ticker,date,adjprc\nA,2021-03-01,1.5\n")
    ckpt.write_bytes(b"weights")
    for path in (("train",), ("attack",)):
        monkeypatch.setitem(cli.COMMANDS, path, cli.COMMANDS[path]._replace(handler=lambda s: 0))
    assert run("train", "--data", data, "--outdir", tmp_path) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["inputs_sha256"] == {"data": hashlib.sha256(data.read_bytes()).hexdigest()}
    assert run("attack", "--data", data, "--checkpoint", ckpt, "--outdir", tmp_path) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["inputs_sha256"] == {"data": digest(data), "checkpoint": digest(ckpt)}


@pytest.mark.parametrize("argv, words", [
    (("synth", "--n-series", "0"), "n-series must be >= 1, got 0"),
    (("synth", "--n-series", "-2"), "n-series must be >= 1, got -2"),
    (("synth", "--n-days", "1"), "n-days must be >= 120, got 1"),
    (("eval", "--n", "0"), "n must be >= 2, got 0"),
    (("gan", "generate", "--n", "0"), "n must be >= 1, got 0"),
    (("defend", "train", "--holdout", "1.0"), "holdout must be in (0, 1), got 1"),
    (("defend", "train", "--epochs", "0"), "epochs must be >= 1, got 0"),
    # the MMD compares two intervals or more, so one interval is a usage error
    (("eval", "--n", "1"), "n must be >= 2, got 1"),
    # each trainer's step settings: a patience of 0 stopped after one epoch,
    # and a negative rate overflowed into a numerical failure
    (("train", "--patience", "0"), "early_stop_patience must be >= 1, got 0"),
    (("train", "--lr", "-5"), "lr must be > 0, got -5.0"),
    (("train", "--lr", "0"), "lr must be > 0, got 0.0"),
    (("train", "--lr", "nan"), "lr must be > 0, got nan"),
    (("train", "--weight-decay", "-1e-4"), "weight_decay must be >= 0, got -0.0001"),
    (("defend", "train", "--lr", "0"), "lr must be > 0, got 0.0"),
    (("gan", "train", "--lr-g", "0"), "lr-g must be > 0, got 0.0"),
    (("gan", "train", "--lr-c", "-1"), "lr-c must be > 0, got -1.0"),
])
def test_out_of_range_settings_exit_2_before_creating_or_reading(tmp_path, argv, words, capsys):
    missing = tmp_path / "missing"  # no input file exists: the settings are checked first
    out = tmp_path / "out"
    trained = ["--data", missing / "p.csv", "--checkpoint", missing / "m.ckpt", "--outdir", out]
    inputs = {"synth": ["--out", out / "prices.csv"],
              "train": ["--data", missing / "p.csv", "--outdir", out],
              "eval": ["--data", missing / "p.csv", "--bundle", missing / "g.ckpt",
                       "--outdir", out],
              "generate": ["--bundle", missing / "g.ckpt", "--data", missing / "p.csv",
                           "--out", out / "x.csv"],
              "defend": trained, "gan": trained}[argv[1] if argv[1] == "generate" else argv[0]]
    code = run(*argv, *inputs)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and words in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_run_manifest_records_versions_blas_and_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setitem(cli.COMMANDS, ("train",),
                        cli.COMMANDS[("train",)]._replace(handler=lambda s: 0))
    assert run("train", "--data", tmp_path / "p.csv", "--outdir", tmp_path) == 0
    env = json.loads((tmp_path / "run_manifest.json").read_text())["environment"]
    assert env["slopestrike"] == cli.__version__ and env["numpy"] == np.__version__
    assert env["python"].count(".") == 2
    assert env["blas"]["name"] and env["blas"]["version"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] == "unset"


@pytest.mark.parametrize("argv, words", [
    (("attack", "--eps-pct", "abc"), "eps-pct"),
    (("attack", "--eps-pct", "-1"), "eps_pct"),
    (("attack", "--direction", "5"), "target_dir"),
    (("attack", "--iters", "0"), "iters"),
    (("defend", "train", "--eps-pct", "-1"), "eps_pct"),
    (("defend", "train", "--attack-iters", "0"), "iters"),
    (("train", "--epochs", "0"), "epochs must be >= 1"),
    (("train", "--batch-size", "0"), "batch_size must be >= 1"),
    (("train", "--val-fraction", "1.0"), "val-fraction"),
    (("gan", "train", "--epochs-per-block", "x,2"), "epochs-per-block"),
    (("gan", "train", "--epochs-per-block", "2", "--alpha", "-1"), "alpha must be positive"),
    (("gan", "train", "--samples-per-epoch", "0"), "samples-per-epoch"),
    (("gan", "train", "--epochs-per-block=-1,0", "--alpha", "0.3,0.3"),
     "epochs-per-block must hold positive ints"),
    (("gan", "train", "--epochs-per-block", "2,0", "--alpha", "0.3,0.3"),
     "epochs-per-block must hold positive ints"),
    # a comma list whose first item is negative is a value, not an option
    (("gan", "train", "--epochs-per-block", "-1,0", "--alpha", "0.3,0.3"),
     "epochs-per-block must hold positive ints"),
    (("attack", "--eps-pct", "-1,2"), "eps_pct"),
    (("gan", "train", "--epochs-per-block", "2,2", "--alpha", "-0.1,0.2"),
     "alpha must be positive"),
])
def test_bad_attack_settings_exit_2_before_loading(tmp_path, argv, words, capsys):
    missing = tmp_path / "missing"  # no input file exists: the settings are checked first
    inputs = ["--data", missing / "prices.csv", "--outdir", tmp_path / "out"]
    if argv[0] != "train":
        inputs += ["--checkpoint", missing / "model.ckpt"]
    code = run(*argv, *inputs)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and words in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_a_ticker_with_a_comma_is_selected_whole(tmp_path, capsys):
    from slopestrike import agan, dataio, defense
    base = dataio.synth_gbm(3, 320, 80.0, 4e-4, 0.01, seed=3)
    both = tmp_path / "both.csv"  # "A,B" beside "A" and "B"
    dataio.write_series_csv([dataio.PriceSeries(t, s.dates, s.adjprc)
                             for t, s in zip(("A,B", "A", "B"), base)], both)
    cfg = agan.GanConfig()
    bundle = tmp_path / "gan.ckpt"
    agan.GanBundle(agan.TcnGenerator(cfg), agan.MlpCritic(cfg), cfg, (-0.05, 0.05)).save(bundle)
    clf = tmp_path / "clf.ckpt"
    defense.Discriminator(defense.DiscriminatorConfig()).save(clf)
    assert run("gan", "generate", "--bundle", bundle, "--data", both, "--ticker", "A,B",
               "--n", 2, "--out", tmp_path / "gen.csv") == 0
    assert "conditioned on A,B;" in capsys.readouterr().out
    probs = tmp_path / "probs.csv"
    assert run("defend", "classify", "--model", clf, "--data", both, "--tickers", "A,B",
               "--out", probs) == 0
    assert [r["ticker"] for r in csv.DictReader(probs.open())] == ["A,B"]
    # where no ticker is "A,B", the selector is a list of two
    two = tmp_path / "two.csv"
    dataio.write_series_csv([dataio.PriceSeries(t, s.dates, s.adjprc)
                             for t, s in zip(("A", "B"), base)], two)
    assert run("defend", "classify", "--model", clf, "--data", two, "--tickers", "A,B",
               "--out", probs) == 0
    assert [r["ticker"] for r in csv.DictReader(probs.open())] == ["A", "B"]
    capsys.readouterr()
    # --ticker names one series: two is a usage error, not a run on the first
    assert run("gan", "generate", "--bundle", bundle, "--data", two, "--ticker", "A,B",
               "--n", 2, "--out", tmp_path / "gen2.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'A,B' selects 2" in err
    assert not (tmp_path / "gen2.csv").exists()
