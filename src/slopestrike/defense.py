"""Defences: an adversarial-input discriminator and a directory integrity manifest.

The discriminator is a small CNN over per-series standardised 300-day price
windows; it outputs the probability that the window was tampered with.  The
manifest is a sorted list of SHA-256 file digests plus a root digest, used to
detect any modification of a deployed model directory before inference.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import save_checkpoint, load_checkpoint, CheckpointError
from .forecaster import NumericalError

logger = logging.getLogger(__name__)

PROB_EPS = 1e-7  # BCE clamp


@dataclass
class DiscriminatorConfig:
    conv_channels: tuple[int, int, int] = (16, 32, 16)
    kernel: int = 5
    dropout: float = 0.2
    lr: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 32
    epochs: int = 200
    input_length: int = 300

    def __post_init__(self):
        self.conv_channels = tuple(int(c) for c in self.conv_channels)
        if len(self.conv_channels) != 3:
            raise ValueError("conv_channels must list exactly 3 conv layers")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0,1), got {self.dropout}")


def _standardise(x: np.ndarray) -> np.ndarray:
    mu = x.mean()
    sd = x.std()
    return (x - mu) / (sd + 1e-8)


class Discriminator:
    """Three conv blocks (conv -> relu -> maxpool -> dropout) and a linear head."""

    def __init__(self, config: DiscriminatorConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        chans = (1,) + config.conv_channels
        k = config.kernel
        self.params: dict[str, Tensor] = {}
        length = config.input_length
        for i in range(3):
            fan_in = chans[i] * k
            s = 1.0 / np.sqrt(fan_in)
            self.params[f"conv{i}.w"] = ad.Tensor(rng.uniform(-s, s, (chans[i + 1], chans[i], k)),
                                                  requires_grad=True)
            self.params[f"conv{i}.b"] = ad.Tensor(np.zeros(chans[i + 1]), requires_grad=True)
            length //= 2  # maxpool(2) after each conv (causal padding keeps length)
        self._flat_dim = chans[-1] * length
        s = 1.0 / np.sqrt(self._flat_dim)
        self.params["head.w"] = ad.Tensor(rng.uniform(-s, s, (self._flat_dim, 1)), requires_grad=True)
        self.params["head.b"] = ad.Tensor(np.zeros(1), requires_grad=True)

    def arch(self) -> dict:
        from dataclasses import asdict
        return {"model": "discriminator", "config": asdict(self.config)}

    def save(self, path) -> None:
        save_checkpoint({k: v.data for k, v in self.params.items()}, path, self.arch())

    @classmethod
    def load(cls, path) -> "Discriminator":
        arrays, arch = load_checkpoint(path)
        if arch.get("model") != "discriminator":
            raise CheckpointError(f"{path}: not a discriminator checkpoint")
        cfg_dict = dict(arch["config"])
        cfg_dict["conv_channels"] = tuple(cfg_dict["conv_channels"])
        clf = cls(DiscriminatorConfig(**cfg_dict))
        if set(arrays) != set(clf.params):
            raise CheckpointError(f"{path}: parameter names do not match architecture")
        for k, v in arrays.items():
            clf.params[k] = ad.Tensor(v, requires_grad=True)
        return clf

    def logits(self, batch: Tensor, dropout_rng=None) -> Tensor:
        """batch: (B, input_length) standardised series -> (B, 1) raw logits."""
        B = batch.shape[0]
        h = ad.reshape(batch, (B, 1, self.config.input_length))
        for i in range(3):
            h = ad.conv1d(h, self.params[f"conv{i}.w"])
            h = ad.channel_bias(h, self.params[f"conv{i}.b"])
            h = ad.relu(h)
            h = ad.maxpool1d(h, 2)
            if dropout_rng is not None and self.config.dropout > 0.0:
                keep = 1.0 - self.config.dropout
                mask = (dropout_rng.random(h.shape) < keep) / keep
                h = ad.mul(h, ad.constant(mask))
        h = ad.reshape(h, (B, self._flat_dim))
        return ad.affine(h, self.params["head.w"], self.params["head.b"])

    def probabilities(self, batch: np.ndarray) -> np.ndarray:
        with ad.no_record():
            p = ad.sigmoid(self.logits(ad.constant(batch)))
        return p.data.reshape(-1).copy()


def classify(classifier: Discriminator, series: np.ndarray) -> float:
    """Probability that a single raw 300-day series is adversarial."""
    x = np.asarray(series, dtype=np.float64).reshape(-1)
    need = classifier.config.input_length
    if x.shape != (need,):
        raise ValueError(f"series must have length {need}, got {x.shape}")
    return float(classifier.probabilities(_standardise(x)[None, :])[0])


def _bce(logits: Tensor, labels: np.ndarray) -> Tensor:
    p = ad.clamp(ad.sigmoid(logits), PROB_EPS, 1.0 - PROB_EPS)
    y = ad.constant(labels.reshape(-1, 1))
    return ad.mul(ad.tmean(ad.add(ad.mul(y, ad.tlog(p)),
                                  ad.mul(ad.sub(1.0, y), ad.tlog(ad.sub(1.0, p))))), -1.0)


def train_discriminator(real: list[np.ndarray], attacked: list[np.ndarray],
                        config: DiscriminatorConfig, seed: int = 0):
    """Binary cross-entropy training; real labelled 0, attacked labelled 1.

    Inputs are raw price windows of the configured length; standardisation is
    applied per series.  Returns (classifier, curve) with per-epoch mean loss.
    """
    if not real or not attacked:
        raise ValueError("both classes must be non-empty")
    ratio = max(len(real), len(attacked)) / min(len(real), len(attacked))
    if ratio > 10.0:
        logger.warning("class imbalance %.1f:1 between real and attacked sets", ratio)
    n = config.input_length
    for x in list(real) + list(attacked):
        if np.asarray(x).reshape(-1).shape != (n,):
            raise ValueError(f"every window must have length {n}")
    X = np.stack([_standardise(np.asarray(x, dtype=np.float64).reshape(-1))
                  for x in list(real) + list(attacked)])
    y = np.concatenate([np.zeros(len(real)), np.ones(len(attacked))])

    clf = Discriminator(config, seed=seed)
    rng = np.random.default_rng(seed)
    curve: list[tuple[int, float]] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(X))
        total, count = 0.0, 0
        for i in range(0, len(order), config.batch_size):
            idx = order[i:i + config.batch_size]
            logits = clf.logits(ad.constant(X[idx]), dropout_rng=rng)
            loss = _bce(logits, y[idx])
            lval = loss.item()
            if not np.isfinite(lval):
                raise NumericalError(f"discriminator loss non-finite at epoch {epoch}")
            ad.sgd_step(clf.params, loss, config.lr, config.weight_decay)
            total += lval * len(idx)
            count += len(idx)
        curve.append((epoch, total / max(count, 1)))
    return clf, curve


def discriminator_accuracy(clf: Discriminator, real: list[np.ndarray],
                           attacked: list[np.ndarray]) -> float:
    X = np.stack([_standardise(np.asarray(x, dtype=np.float64).reshape(-1))
                  for x in list(real) + list(attacked)])
    y = np.concatenate([np.zeros(len(real)), np.ones(len(attacked))])
    pred = (clf.probabilities(X) >= 0.5).astype(int)
    return float(np.mean(pred == y))


# ---------------------------------------------------------------------------
# integrity manifest
# ---------------------------------------------------------------------------

ROOT_KEY = "ROOT"


@dataclass
class IntegrityManifest:
    entries: list[tuple[str, str]]  # (posix relative path, sha256 hex), sorted
    root_digest: str


@dataclass
class Verdict:
    ok: bool
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    modified: list[str] = field(default_factory=list)


def _digest_file(path: Path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


def _root_of(entries: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for rel, dig in entries:
        h.update(f"{rel}\t{dig}\n".encode("utf-8"))
    return h.hexdigest()


def build_manifest(directory) -> IntegrityManifest:
    """Hash every regular file under the directory, sorted by relative path."""
    base = Path(directory)
    if not base.is_dir():
        raise OSError(f"not a directory: {base}")
    entries = []
    for p in sorted(base.rglob("*")):
        if p.is_file() and not p.is_symlink():
            entries.append((p.relative_to(base).as_posix(), _digest_file(p)))
    entries.sort()
    return IntegrityManifest(entries, _root_of(entries))


def verify_manifest(directory, manifest: IntegrityManifest) -> Verdict:
    """Re-hash the tree and report added / removed / modified paths."""
    current = build_manifest(directory)
    want = dict(manifest.entries)
    got = dict(current.entries)
    added = sorted(set(got) - set(want))
    removed = sorted(set(want) - set(got))
    modified = sorted(p for p in set(want) & set(got) if want[p] != got[p])
    ok = not (added or removed or modified) and current.root_digest == manifest.root_digest
    return Verdict(ok, added, removed, modified)


def write_manifest(manifest: IntegrityManifest, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rel, dig in manifest.entries:
            fh.write(f"{rel}\t{dig}\n")
        fh.write(f"{ROOT_KEY}\t{manifest.root_digest}\n")


def read_manifest(path) -> IntegrityManifest:
    entries: list[tuple[str, str]] = []
    root = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: malformed manifest line")
            if parts[0] == ROOT_KEY:
                root = parts[1]
            else:
                entries.append((parts[0], parts[1]))
    if root is None:
        raise ValueError(f"{path}: missing {ROOT_KEY} line")
    if _root_of(entries) != root:
        raise ValueError(f"{path}: root digest does not match entries")
    return IntegrityManifest(entries, root)
