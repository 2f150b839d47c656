import numpy as np
import pytest

from slopestrike import dataio
from slopestrike.dataio import (
    CheckpointError, DataError, load_csv, save_checkpoint, load_checkpoint, synth_gbm,
)


def write(tmp_path, text, name="prices.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_minimal_two_row_file(tmp_path):
    p = write(tmp_path, "ticker,date,adjprc\nAAA,2021-01-04,10.0\nAAA,2021-01-05,11.0\n")
    series = load_csv(p)
    assert len(series) == 1 and series[0].ticker == "AAA" and len(series[0]) == 2


def test_duplicate_date_rejected(tmp_path):
    p = write(tmp_path, "ticker,date,adjprc\nAAA,2021-01-04,10.0\nAAA,2021-01-04,11.0\n")
    with pytest.raises(DataError, match="2021-01-04"):
        load_csv(p)


def test_malformed_row_reports_line_number(tmp_path):
    p = write(tmp_path, "ticker,date,adjprc\nAAA,2021-01-04,10.0\nAAA,notadate,11.0\n")
    with pytest.raises(DataError, match=":3"):
        load_csv(p)


def test_non_positive_price_rejected(tmp_path):
    p = write(tmp_path, "ticker,date,adjprc\nAAA,2021-01-04,-3.0\n")
    with pytest.raises(DataError, match="non-positive"):
        load_csv(p)


def test_multi_ticker_roundtrip_preserves_rows(tmp_path):
    series = synth_gbm(3, 700, 50.0, 0.0002, 0.01, seed=5)
    path = tmp_path / "multi.csv"
    dataio.write_series_csv(series, path)
    # independent line-count oracle
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 700
    loaded = load_csv(path)
    assert [s.ticker for s in loaded] == [s.ticker for s in series]
    for a, b in zip(loaded, series):
        assert len(a) == 700
        assert a.dates == b.dates
        assert np.allclose(a.adjprc, b.adjprc, rtol=1e-9)


def test_gbm_zero_vol_zero_drift_constant():
    s = synth_gbm(1, 120, 42.0, 0.0, 0.0, seed=0)[0]
    assert np.allclose(s.adjprc, 42.0, atol=1e-12)


def test_gbm_zero_vol_drift_closed_form():
    s = synth_gbm(1, 120, 10.0, 0.001, 0.0, seed=0)[0]
    assert abs(s.adjprc[99] - 10.0 * np.exp(0.099)) < 1e-9


def test_gbm_log_return_moments_match_parameters():
    mu, sigma = 5e-4, 0.02
    s = synth_gbm(1, 10_000, 100.0, mu, sigma, seed=123)[0]
    lr = np.diff(np.log(s.adjprc))
    assert abs(np.std(lr) - sigma) / sigma < 0.05
    # per-step mean is mu - sigma^2/2; tolerance ~3 standard errors
    expected_mean = mu - 0.5 * sigma * sigma
    assert abs(lr.mean() - expected_mean) < 3 * sigma / np.sqrt(len(lr))


def test_gbm_bad_s0():
    with pytest.raises(DataError):
        synth_gbm(1, 120, -1.0, 0.0, 0.01, seed=0)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    arrays = {"w1": rng.normal(size=(7, 3)), "b": rng.normal(size=(3,)),
              "scalar": np.array(3.14159)}
    path = tmp_path / "model.ckpt"
    save_checkpoint(arrays, path, arch={"kind": "toy", "hidden": 3})
    loaded, arch = load_checkpoint(path)
    assert arch == {"kind": "toy", "hidden": 3}
    for k in arrays:
        assert loaded[k].dtype == np.float64
        assert np.array_equal(loaded[k], np.asarray(arrays[k], dtype=np.float64))


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint({"w": np.ones((4, 4))}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bitflip_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint({"w": np.ones((4, 4))}, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint({"w": np.ones(2)}, path)
    blob = path.read_bytes()
    tampered = blob.replace(b'"format_version": 1', b'"format_version": 9')
    # re-seal so only the version check trips
    import zlib
    body = tampered[:-4]
    path.write_bytes(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(dataio.CheckpointVersionError):
        load_checkpoint(path)
