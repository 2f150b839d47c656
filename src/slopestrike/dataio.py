"""Ingestion, synthetic price generation and checkpoint persistence."""

from __future__ import annotations

import csv
import datetime as dt
import json
import zlib
from dataclasses import dataclass

import numpy as np

CSV_HEADER = ("ticker", "date", "adjprc")


class DataError(Exception):
    """Malformed input data (parse failures, constraint violations)."""


class CheckpointError(Exception):
    """Unreadable or inconsistent checkpoint file."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an unsupported format version."""


@dataclass
class PriceSeries:
    """One stock recording: ordered (date, adjusted price) pairs."""

    ticker: str
    dates: list[dt.date]
    adjprc: np.ndarray

    def __post_init__(self):
        self.adjprc = np.asarray(self.adjprc, dtype=np.float64)
        if len(self.dates) != len(self.adjprc):
            raise DataError(f"{self.ticker}: {len(self.dates)} dates vs {len(self.adjprc)} prices")
        if np.any(self.adjprc <= 0.0):
            raise DataError(f"{self.ticker}: non-positive adjprc")
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                raise DataError(f"{self.ticker}: dates not strictly increasing at {b}")

    def __len__(self) -> int:
        return len(self.adjprc)

    def head(self, n: int) -> "PriceSeries":
        return PriceSeries(self.ticker, self.dates[:n], self.adjprc[:n].copy())


def load_csv(path) -> list[PriceSeries]:
    """Parse a ``ticker,date,adjprc`` CSV into one series per ticker.

    Rows are sorted by date per ticker; duplicate (ticker, date) pairs and
    non-finite or non-positive prices are rejected with the offending line number.
    """
    rows: dict[str, list[tuple[dt.date, float]]] = {}
    seen: set[tuple[str, str]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            ticker, date_str, price_str = (c.strip() for c in row)
            key = (ticker, date_str)
            if key in seen:
                raise DataError(f"{path}:{lineno}: duplicate entry for {ticker} on {date_str}")
            seen.add(key)
            try:
                date = dt.date.fromisoformat(date_str)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad date '{date_str}'") from exc
            try:
                price = float(price_str)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad price '{price_str}'") from exc
            if not np.isfinite(price):
                raise DataError(f"{path}:{lineno}: non-finite adjprc {price_str}")
            if price <= 0.0:
                raise DataError(f"{path}:{lineno}: non-positive adjprc {price_str}")
            rows.setdefault(ticker, []).append((date, price))
    if not rows:
        raise DataError(f"{path}: no data rows")
    series = []
    for ticker in sorted(rows):
        entries = sorted(rows[ticker], key=lambda e: e[0])
        series.append(PriceSeries(ticker, [e[0] for e in entries],
                                  np.array([e[1] for e in entries])))
    return series


def business_days(start: dt.date, n: int) -> list[dt.date]:
    """n consecutive weekdays beginning at the first weekday >= start."""
    days = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def synth_gbm(n_series: int, n_days: int, s0: float, mu: float, sigma: float,
              seed: int) -> list[PriceSeries]:
    """Geometric Brownian motion price paths on consecutive weekdays.

    p_t = p_{t-1} * exp((mu - sigma^2/2) + sigma * z_t) with z_t standard
    normal from the seeded generator.
    """
    if s0 <= 0.0:
        raise DataError(f"s0 must be positive, got {s0}")
    if sigma < 0.0:
        raise DataError(f"sigma must be non-negative, got {sigma}")
    if n_days < 120:
        raise DataError(f"n_days must be >= 120 (encoder 100 + horizon 20), got {n_days}")
    rng = np.random.default_rng(seed)
    dates = business_days(dt.date(2020, 1, 6), n_days)
    out = []
    for i in range(n_series):
        z = rng.standard_normal(n_days - 1)
        log_steps = (mu - 0.5 * sigma * sigma) + sigma * z
        prices = s0 * np.exp(np.concatenate([[0.0], np.cumsum(log_steps)]))
        out.append(PriceSeries(f"SYN{i:03d}", list(dates), prices))
    return out


# ---------------------------------------------------------------------------
# checkpoints: {header JSON}\n\0 + raw little-endian float64 blobs + CRC-32
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1
_HEADER_SEP = b"\n\x00"


def save_checkpoint(arrays: dict[str, np.ndarray], path, arch: dict | None = None) -> None:
    """Write named float64 arrays with a JSON header and a CRC-32 trailer."""
    header = {
        "format_version": FORMAT_VERSION,
        "arch": arch or {},
        "arrays": [{"name": k, "shape": list(np.asarray(v).shape)} for k, v in arrays.items()],
    }
    body = json.dumps(header, sort_keys=True).encode("utf-8") + _HEADER_SEP
    for v in arrays.values():
        body += np.ascontiguousarray(v, dtype="<f8").tobytes()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(crc.to_bytes(4, "little"))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (arrays, arch). Verifies CRC and version."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    body, trailer = blob[:-4], blob[-4:]
    if (zlib.crc32(body) & 0xFFFFFFFF) != int.from_bytes(trailer, "little"):
        raise CheckpointError(f"{path}: checksum mismatch (corrupt or truncated)")
    sep = body.find(_HEADER_SEP)
    if sep < 0:
        raise CheckpointError(f"{path}: missing header separator")
    try:
        header = json.loads(body[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header") from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    arrays: dict[str, np.ndarray] = {}
    offset = sep + len(_HEADER_SEP)
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = body[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: array '{entry['name']}' truncated")
        arrays[entry["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise CheckpointError(f"{path}: {len(body) - offset} trailing bytes after arrays")
    return arrays, header.get("arch", {})


def write_series_csv(series: list[PriceSeries], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in series:
            for d, p in zip(s.dates, s.adjprc):
                writer.writerow([s.ticker, d.isoformat(), f"{p:.10g}"])
