import numpy as np
import pytest

from slopestrike.defense import (
    Discriminator, DiscriminatorConfig, build_manifest, classify,
    discriminator_accuracy, read_manifest, train_discriminator,
    verify_manifest, write_manifest,
)
from slopestrike.forecaster import NhitsConfig, NhitsModel
from slopestrike.metrics import confusion


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
    _make_tree(tmp_path)
    manifest = build_manifest(tmp_path)
    out = tmp_path.parent / "tree.manifest"
    write_manifest(manifest, out)
    loaded = read_manifest(out)
    assert loaded == manifest


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
    assert discriminator_accuracy(clf, real[:30], adv[:30]) >= 0.95


def test_heldout_accuracy_at_least_90(separable_task, toy_classifier):
    real, adv = separable_task
    clf, _ = toy_classifier
    assert discriminator_accuracy(clf, real[30:], adv[30:]) >= 0.90


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
    assert classify(clf, real[0]) == classify(clf, real[0])


def test_classify_wrong_length_rejected(toy_classifier):
    clf, _ = toy_classifier
    with pytest.raises(ValueError, match="length 300"):
        classify(clf, np.ones(200))


def test_output_stable_under_tiny_noise(toy_classifier, separable_task):
    clf, _ = toy_classifier
    real, _ = separable_task
    rng = np.random.default_rng(9)
    noise = rng.normal(0, 1e-13, 300)
    noise -= noise.mean()
    assert abs(classify(clf, real[0]) - classify(clf, real[0] + noise)) < 1e-8


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
    assert classify(loaded, real[0]) == classify(clf, real[0])
