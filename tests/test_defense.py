import re

import numpy as np
import pytest

from slopestrike import autodiff as ad
from slopestrike.dataio import CheckpointError
from slopestrike.defense import (
    Discriminator, DiscriminatorConfig, build_manifest, classify,
    predict_labelled, read_manifest, train_discriminator,
    verify_manifest, write_manifest,
)
from slopestrike.forecaster import NhitsConfig, NhitsModel
from slopestrike.metrics import confusion
from helpers import discriminator_reference, max_rel_err, resaved_with


# ---------------------------------------------------------------------------
# integrity manifest
# ---------------------------------------------------------------------------

def _make_tree(root, n_files=20):
    paths = []
    for i in range(n_files):
        sub = root / (f"pkg{i % 3}" if i % 3 else ".")
        sub.mkdir(exist_ok=True)
        p = sub / f"file{i:02d}.bin"
        p.write_bytes(bytes([i]) * (50 + i))
        paths.append(p)
    return paths


def test_unmodified_tree_passes(tmp_path):
    _make_tree(tmp_path)
    manifest = build_manifest(tmp_path)
    assert len(manifest.entries) == 20
    verdict = verify_manifest(tmp_path, manifest)
    assert verdict.ok and not (verdict.added or verdict.removed or verdict.modified)


def test_every_single_file_tamper_detected(tmp_path):
    files = _make_tree(tmp_path)
    manifest = build_manifest(tmp_path)
    for p in files:
        original = p.read_bytes()
        flipped = bytearray(original)
        flipped[0] ^= 0x01
        p.write_bytes(bytes(flipped))
        verdict = verify_manifest(tmp_path, manifest)
        rel = p.relative_to(tmp_path).as_posix()
        assert not verdict.ok
        assert verdict.modified == [rel]
        assert not verdict.added and not verdict.removed
        p.write_bytes(original)
    assert verify_manifest(tmp_path, manifest).ok


def test_added_and_removed_files_detected(tmp_path):
    files = _make_tree(tmp_path)
    manifest = build_manifest(tmp_path)
    extra = tmp_path / "pkg1" / "sneaky.py"
    extra.write_text("x = 1\n")
    verdict = verify_manifest(tmp_path, manifest)
    assert not verdict.ok and verdict.added == ["pkg1/sneaky.py"]
    extra.unlink()
    files[0].unlink()
    verdict = verify_manifest(tmp_path, manifest)
    assert not verdict.ok and verdict.removed == [files[0].relative_to(tmp_path).as_posix()]


def test_manifest_serialisation_roundtrip(tmp_path):
    # beside the plain tree: a top-level file named as the root line's key, and
    # a file name with a tab, the manifest's separator
    for i, extra in enumerate((None, "ROOT", "tab\tname.bin")):
        tree = tmp_path / f"tree{i}"
        tree.mkdir()
        _make_tree(tree)
        if extra is not None:
            (tree / extra).write_bytes(b"extra")
        manifest = build_manifest(tree)
        out = tmp_path / f"tree{i}.manifest"
        write_manifest(manifest, out)
        loaded = read_manifest(out)
        assert loaded == manifest
        assert verify_manifest(tree, loaded).ok


def test_manifest_rejects_a_file_name_with_a_line_break(tmp_path):
    _make_tree(tmp_path)
    for name in ("new\nline.bin", "carriage\rreturn.bin"):
        odd = tmp_path / "pkg1" / name
        odd.write_bytes(b"x")
        with pytest.raises(ValueError, match=re.escape(repr(f"pkg1/{name}"))):
            build_manifest(tmp_path)
        odd.unlink()


def test_manifest_root_mismatch_rejected(tmp_path):
    _make_tree(tmp_path)
    out = tmp_path.parent / "bad.manifest"
    write_manifest(build_manifest(tmp_path), out)
    lines = out.read_text().splitlines()
    lines[0] = lines[0].rsplit("\t", 1)[0] + "\t" + "0" * 64
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="root digest"):
        read_manifest(out)


def test_manifest_entries_sorted(tmp_path):
    _make_tree(tmp_path)
    manifest = build_manifest(tmp_path)
    assert manifest.entries == sorted(manifest.entries)


# ---------------------------------------------------------------------------
# discriminator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def separable_task():
    rng = np.random.default_rng(0)
    real = [np.full(300, 50.0) + rng.normal(0, 0.3, 300) for _ in range(40)]
    adv = [np.linspace(50, 70, 300) + rng.normal(0, 0.3, 300) for _ in range(40)]
    return real, adv


@pytest.fixture(scope="module")
def toy_classifier(separable_task):
    real, adv = separable_task
    cfg = DiscriminatorConfig(epochs=30, lr=0.01)
    clf, curve = train_discriminator(real[:30], adv[:30], cfg, seed=1)
    return clf, curve


def test_separable_toy_training_accuracy(separable_task, toy_classifier):
    real, adv = separable_task
    clf, curve = toy_classifier
    assert curve[-1][1] < curve[0][1]
    labels, preds = predict_labelled(clf, real[:30], adv[:30])
    assert np.mean(preds == labels) >= 0.95


def test_heldout_accuracy_at_least_90(separable_task, toy_classifier):
    real, adv = separable_task
    clf, _ = toy_classifier
    labels, preds = predict_labelled(clf, real[30:], adv[30:])
    assert np.mean(preds == labels) >= 0.90


def test_weight_decay_reaches_exactly_the_weight_tensors():
    # sgd_step decays every parameter with ndim > 1: for both trained models
    # these are exactly the ".w*" entries, and no bias
    for params in (Discriminator(DiscriminatorConfig()).params, NhitsModel(NhitsConfig()).params):
        decayed = {k for k, p in params.items() if p.ndim > 1}
        assert decayed == {k for k in params if k.rsplit(".", 1)[1].startswith("w")}


def test_probability_bounds_on_random_inputs(toy_classifier):
    clf, _ = toy_classifier
    rng = np.random.default_rng(5)
    for _ in range(10):
        batch = rng.normal(50, 10, (100, 300))
        probs = clf.probabilities(batch)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def test_classify_deterministic(toy_classifier, separable_task):
    clf, _ = toy_classifier
    real, _ = separable_task
    assert np.array_equal(classify(clf, real[:3]), classify(clf, real[:3]))


def test_classify_batch_matches_one_window_at_a_time(toy_classifier, separable_task):
    clf, _ = toy_classifier
    real, adv = separable_task
    windows = real[:3] + adv[:2]
    one_at_a_time = [classify(clf, [x])[0] for x in windows]
    assert max_rel_err(classify(clf, windows), one_at_a_time) < 1e-12


def test_classify_wrong_length_rejected(toy_classifier):
    clf, _ = toy_classifier
    with pytest.raises(ValueError, match="length 300"):
        classify(clf, [np.ones(300), np.ones(200)])


def test_output_stable_under_tiny_noise(toy_classifier, separable_task):
    clf, _ = toy_classifier
    real, _ = separable_task
    rng = np.random.default_rng(9)
    noise = rng.normal(0, 1e-13, 300)
    noise -= noise.mean()
    assert abs(classify(clf, [real[0]])[0] - classify(clf, [real[0] + noise])[0]) < 1e-8


def test_shuffled_labels_give_near_zero_kappa():
    rng = np.random.default_rng(11)
    pool = [50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 300))) for _ in range(60)]
    labels = rng.integers(0, 2, 60)
    train_real = [pool[i] for i in range(40) if labels[i] == 0]
    train_adv = [pool[i] for i in range(40) if labels[i] == 1]
    clf, _ = train_discriminator(train_real, train_adv,
                                 DiscriminatorConfig(epochs=15, lr=0.01), seed=2)
    hold = np.stack([(x - x.mean()) / (x.std() + 1e-8) for x in pool[40:]])
    preds = (clf.probabilities(hold) >= 0.5).astype(int)
    rep = confusion(labels[40:], preds)
    assert abs(rep.kappa) < 10.0


def test_class_imbalance_warning(caplog):
    rng = np.random.default_rng(3)
    real = [rng.normal(50, 1, 300) for _ in range(22)]
    adv = [rng.normal(50, 1, 300) for _ in range(2)]
    with caplog.at_level("WARNING"):
        train_discriminator(real, adv, DiscriminatorConfig(epochs=1, lr=0.01), seed=0)
    assert any("imbalance" in r.message for r in caplog.records)


def test_discriminator_checkpoint_roundtrip(tmp_path, toy_classifier, separable_task):
    clf, _ = toy_classifier
    real, _ = separable_task
    path = tmp_path / "discriminator.ckpt"
    clf.save(path)
    loaded = Discriminator.load(path)
    assert np.array_equal(classify(loaded, real[:3]), classify(clf, real[:3]))


def test_checkpoint_naming_the_fixed_settings_loads(tmp_path, toy_classifier, separable_task):
    # an older version saved these settings in every discriminator checkpoint,
    # at the values the discriminator now fixes
    legacy = dict(conv_channels=[16, 32, 16], kernel=5, dropout=0.2, weight_decay=1e-5,
                  batch_size=32, input_length=300)
    clf, _ = toy_classifier
    real, adv = separable_task
    path = tmp_path / "discriminator.ckpt"
    clf.save(path)
    old = resaved_with(path, tmp_path / "old.ckpt", **legacy)
    windows = real[:3] + adv[:3]
    assert np.array_equal(classify(Discriminator.load(old), windows), classify(clf, windows))
    other = resaved_with(path, tmp_path / "other.ckpt",
                         **{**legacy, "kernel": 3, "conv_channels": [16, 32, 8]})
    with pytest.raises(CheckpointError,
                       match=r"conv_channels=\[16, 32, 8\], kernel=3 are not supported"):
        Discriminator.load(other)


def _discriminator_inputs(B, seed):
    """A discriminator with every parameter random (biases included), (B, 300)
    windows and (B, 1) loss weights."""
    clf = Discriminator(DiscriminatorConfig(), seed=seed)
    rng = np.random.default_rng(seed)
    for p in clf.params.values():
        p.data = rng.uniform(-0.6, 0.6, p.shape)
    return clf, rng.standard_normal((B, 300)), rng.normal(size=(B, 1))


def _discriminator_run(logits, clf, weights):
    """Logits and the gradients of sum(logits * weights) for every parameter."""
    out = logits()
    grads = ad.gradients(ad.tsum(ad.mul(out, ad.constant(weights))), list(clf.params.values()))
    return out, [g.data for g in grads]


def test_discriminator_op_matches_primitive_reference():
    clf, X, weights = _discriminator_inputs(12, seed=51)
    out, grads = _discriminator_run(lambda: clf.logits(X, np.random.default_rng(3)),
                                    clf, weights)
    ref, ref_grads = _discriminator_run(
        lambda: discriminator_reference(clf, X, np.random.default_rng(3)), clf, weights)
    assert out.node.kind == "cnn_discriminator" and out.shape == (12, 1)
    # relative to the largest entry: single entries may nearly cancel
    assert np.max(np.abs(out.data - ref.data)) < 1e-12 * np.max(np.abs(ref.data))
    assert len(grads) == 8
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_discriminator_op_matches_directional_finite_differences():
    # a few random directions per parameter; the dropout masks are the same in
    # every evaluation, and the network is piecewise linear, so the central
    # difference is exact up to rounding wherever no ReLU or max flips
    clf, X, weights = _discriminator_inputs(3, seed=52)
    _, grads = _discriminator_run(lambda: clf.logits(X, np.random.default_rng(4)), clf, weights)
    rng = np.random.default_rng(53)

    def loss():
        with ad.no_record():
            return float(np.sum(clf.logits(X, np.random.default_rng(4)).data * weights))

    h = 1e-6
    for p, g in zip(clf.params.values(), grads):
        base = p.data
        for _ in range(3):
            v = rng.standard_normal(p.shape)
            p.data = base + h * v
            up = loss()
            p.data = base - h * v
            down = loss()
            p.data = base
            fd, want = (up - down) / (2 * h), float(np.sum(g * v))
            assert abs(fd - want) < 1e-6 * max(abs(want), 1.0)


def test_classify_records_nothing_and_a_training_step_one_op(toy_classifier, separable_task, monkeypatch):
    clf, _ = toy_classifier
    real, adv = separable_task
    kinds = []

    class CountingNode(ad.Node):
        __slots__ = ()

        def __init__(self, kind, *rest):
            kinds.append(kind)
            super().__init__(kind, *rest)

    monkeypatch.setattr(ad, "Node", CountingNode)
    classify(clf, real[:3] + adv[:3])
    clf.probabilities(np.ones((2, 300)))
    assert kinds == []
    # a training step records the discriminator as one node, 11 with the loss
    train_discriminator(real[:3], adv[:3], DiscriminatorConfig(epochs=1, lr=0.01), seed=0)
    assert kinds.count("cnn_discriminator") == 1 and len(kinds) == 11


def test_discriminator_head_gradient_stops_at_the_head():
    # the op has no input gradient, and asking for the head alone stops the
    # sweep at the head: no block below it forms a gradient
    clf, X, weights = _discriminator_inputs(4, seed=54)
    _, full = _discriminator_run(lambda: clf.logits(X), clf, weights)
    out = clf.logits(X)
    assert len(out.node.parents) == len(clf.params)
    results, vjp = [], out.node.vjp
    out.node.vjp = lambda g, need: results.append(vjp(g, need)) or results[-1]
    head = [clf.params["head.w"], clf.params["head.b"]]
    grads = ad.gradients(ad.tsum(ad.mul(out, ad.constant(weights))), head)
    assert all(g is None for g in results[0][:-2])
    for got, want in zip(grads, full[-2:]):
        assert np.array_equal(got.data, want)


@pytest.mark.parametrize("field, value", [("epochs", 0), ("epochs", -3)])
def test_config_rejects_non_positive_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        DiscriminatorConfig(**{field: value})
