"""Defences: an adversarial-input discriminator and a directory integrity manifest.

The discriminator is a small CNN over per-series standardised 300-day price
windows, the windows the attacks perturb; it outputs the probability that the
window was tampered with.  Its architecture is fixed: only the learning rate
and the epoch count are settings.  It is one recorded op over the generator's
causal conv and the forecaster's first-max pool (``Discriminator.logits``).
The manifest is a sorted list of SHA-256 file digests plus a root digest, used
to detect any modification of a deployed model directory before inference.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .attacks import ATTACK_WINDOW
from .autodiff import Tensor
from .dataio import save_checkpoint, load_model_checkpoint
from .forecaster import NumericalError, standardise

logger = logging.getLogger(__name__)

PROB_EPS = 1e-7  # BCE clamp


@dataclass
class DiscriminatorConfig:
    conv_channels: ClassVar[tuple[int, int, int]] = (16, 32, 16)
    kernel: ClassVar[int] = 5
    dropout: ClassVar[float] = 0.2
    weight_decay: ClassVar[float] = 1e-5
    batch_size: ClassVar[int] = 32
    input_length: ClassVar[int] = ATTACK_WINDOW  # it scores the windows the attacks perturb
    lr: float = 1e-4
    epochs: int = 200

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


def _standardised_windows(windows, length: int) -> np.ndarray:
    """Raw windows, each standardised on its own, stacked: (n, length)."""
    rows = [np.asarray(x, dtype=np.float64).reshape(-1) for x in windows]
    for x in rows:
        if x.shape != (length,):
            raise ValueError(f"every window must have length {length}, got {x.shape[0]}")
    return standardise(np.stack(rows), 1)[0]


def _labels(real, attacked) -> np.ndarray:
    """Real windows first, labelled 0, then attacked ones, labelled 1."""
    return np.concatenate([np.zeros(len(real), dtype=int), np.ones(len(attacked), dtype=int)])


class Discriminator:
    """Three conv blocks (conv -> relu -> maxpool -> dropout) and a linear head."""

    def __init__(self, config: DiscriminatorConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        chans = (1,) + config.conv_channels
        k = config.kernel
        self.params: dict[str, Tensor] = {}
        for i in range(3):
            fan_in = chans[i] * k
            s = 1.0 / np.sqrt(fan_in)
            self.params[f"conv{i}.w"] = ad.Tensor(rng.uniform(-s, s, (chans[i + 1], chans[i], k)),
                                                  requires_grad=True)
            self.params[f"conv{i}.b"] = ad.Tensor(np.zeros(chans[i + 1]), requires_grad=True)
        flat_dim = chans[-1] * (config.input_length // 8)  # each block halves the length
        s = 1.0 / np.sqrt(flat_dim)
        self.params["head.w"] = ad.Tensor(rng.uniform(-s, s, (flat_dim, 1)), requires_grad=True)
        self.params["head.b"] = ad.Tensor(np.zeros(1), requires_grad=True)

    def arch(self) -> dict:
        return {"model": "discriminator", "config": asdict(self.config)}

    def save(self, path) -> None:
        save_checkpoint({k: v.data for k, v in self.params.items()}, path, self.arch())

    @classmethod
    def load(cls, path) -> "Discriminator":
        def build(config):
            clf = cls(config)
            return clf, {"": clf.params}

        return load_model_checkpoint(path, "discriminator", "discriminator",
                                     DiscriminatorConfig, build)[0]

    def logits(self, batch: np.ndarray, dropout_rng=None) -> Tensor:
        """(B, input_length) standardised windows -> (B, 1) raw logits, as one op.

        Recorded as ``cnn_discriminator``, the weights its only parents.  Rows
        are time-major, as in the generator's op.  Each block is a causal conv,
        bias, ReLU, first-max pool over step pairs (an odd last step is dropped)
        and, with ``dropout_rng``, dropout, its mask drawn channels-first.
        """
        B, T = batch.shape
        weights = tuple(self.params.values())  # conv0.w, conv0.b, ..., head.w, head.b
        keep = ad.records(weights)  # without a node nothing is kept for the vjp
        taps = ad.tap_shifts(self.config.kernel, 1, B, T // 4)  # the last block holds all
        p = 1.0 - self.config.dropout
        h, saved = np.ascontiguousarray(batch.T).reshape(T * B, 1), []
        for i in range(3):
            z = ad.causal_conv(h, weights[2 * i].data, weights[2 * i + 1].data, taps)
            relu = z > 0.0
            z *= relu
            T, C = T // 2, z.shape[1]
            pairs = z[:2 * T * B].reshape(T, 2, B * C)  # steps 2t and 2t+1 of each column
            pooled, arg = ad.pool_taps(pairs.transpose(0, 2, 1), keep)
            drop = 1.0  # no dropout
            if dropout_rng is not None:
                drop = (dropout_rng.random((B, C, T)) < p) / p
                drop = drop.transpose(2, 0, 1).reshape(T * B, C)
            if keep:
                saved.append((h, relu, arg, drop))
            h = pooled.reshape(T * B, C) * drop
        flat = h.reshape(T, B, C).transpose(1, 2, 0).reshape(B, C * T)
        head_w = weights[6].data

        def vjp(g, need):
            grads = [None] * len(weights)
            if need[6]:
                grads[6] = Tensor(flat.T @ g.data)
            if need[7]:
                grads[7] = Tensor(g.data.sum(axis=0))
            gh = (g.data @ head_w.T).reshape(B, C, T).transpose(2, 0, 1).reshape(T * B, C)
            for i in reversed(range(3)):
                if not any(need[:2 * i + 2]):
                    break  # nothing at or below this block is asked for
                x, relu, arg, drop = saved[i]
                routed = ad.pool_taps_vjp((gh * drop).reshape(arg.shape), arg, 2)
                gz = np.zeros(relu.shape)  # an odd last step gets no gradient
                pairs = gz[:2 * len(arg) * B].reshape(len(arg), 2, -1)  # a view of gz
                pairs.transpose(0, 2, 1)[...] = routed
                gz *= relu
                *gwb, gh = ad.causal_conv_vjp(gz, x, weights[2 * i].data, taps,
                                              (*need[2 * i:2 * i + 2], any(need[:2 * i])))
                grads[2 * i:2 * i + 2] = [None if a is None else Tensor(a) for a in gwb]
            return tuple(grads)

        return ad.custom_op("cnn_discriminator", flat @ head_w + weights[7].data, weights, vjp)

    def probabilities(self, batch: np.ndarray) -> np.ndarray:
        with ad.no_record():
            p = ad.sigmoid(self.logits(batch))
        return p.data.reshape(-1).copy()


def classify(classifier: Discriminator, windows) -> np.ndarray:
    """Probability that each raw window (of the input length) is adversarial,
    from one batched pass: (n,)."""
    return classifier.probabilities(_standardised_windows(windows, classifier.config.input_length))


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
    X = _standardised_windows(list(real) + list(attacked), config.input_length)
    y = _labels(real, attacked)

    clf = Discriminator(config, seed=seed)
    rng = np.random.default_rng(seed)
    curve: list[tuple[int, float]] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(X))
        total, count = 0.0, 0
        for i in range(0, len(order), config.batch_size):
            idx = order[i:i + config.batch_size]
            logits = clf.logits(X[idx], dropout_rng=rng)
            loss = _bce(logits, y[idx])
            lval = loss.item()
            if not np.isfinite(lval):
                raise NumericalError(f"discriminator loss non-finite at epoch {epoch}")
            ad.sgd_step(clf.params, loss, config.lr, config.weight_decay)
            total += lval * len(idx)
            count += len(idx)
        curve.append((epoch, total / max(count, 1)))
    return clf, curve


def predict_labelled(clf: Discriminator, real: list[np.ndarray],
                     attacked: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Labels (attacked 1) and predictions (1 where p >= 0.5) of raw windows, in one pass."""
    probs = classify(clf, list(real) + list(attacked))
    return _labels(real, attacked), (probs >= 0.5).astype(int)


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


def digest_file(path: Path) -> str:
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
    """Hash every regular file under the directory, sorted by relative path; a
    symbolic link raises, as its target can change outside the tree."""
    base = Path(directory)
    if not base.is_dir():
        raise OSError(f"not a directory: {base}")
    entries = []
    for p in sorted(base.rglob("*")):
        if p.is_symlink():
            raise ValueError(f"{p.relative_to(base).as_posix()!r}: a manifest cannot "
                             "hold a symbolic link")
        if p.is_file():
            rel = p.relative_to(base).as_posix()
            if "\n" in rel or "\r" in rel:
                raise ValueError(f"{rel!r}: a manifest line cannot hold a line break")
            entries.append((rel, digest_file(p)))
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
    """A ``write_manifest`` file: the root is its last line, and each line splits at
    its last tab, as a file name may hold a tab and a digest holds none."""
    rows: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            rel, tab, dig = line.rpartition("\t")
            if not tab:
                raise ValueError(f"{path}:{lineno}: malformed manifest line")
            rows.append((rel, dig))
    if not rows or rows[-1][0] != ROOT_KEY:
        raise ValueError(f"{path}: missing {ROOT_KEY} line")
    entries, root = rows[:-1], rows[-1][1]
    if _root_of(entries) != root:
        raise ValueError(f"{path}: root digest does not match entries")
    return IntegrityManifest(entries, root)
