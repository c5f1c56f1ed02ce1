"""Parser, subsetting, scaling, and batching tests."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srelu_defense.data import (
    CIFAR_RECORD_BYTES,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    UNIT_RANGE,
    BatchIterator,
    DataFormatError,
    LabeledImageSet,
    dump_cifar10_bin,
    dump_mnist_idx,
    load_cifar10_bin,
    load_mnist_idx,
    scale_pixels,
    take_first,
)

from helpers import idx_fixture_bytes, synthetic_digits


@pytest.fixture
def idx_files(tmp_path):
    img_blob, lbl_blob = idx_fixture_bytes()
    images = tmp_path / "imgs"
    labels = tmp_path / "lbls"
    images.write_bytes(img_blob)
    labels.write_bytes(lbl_blob)
    return images, labels


def cifar_fixture_record():
    label = 3
    red = np.arange(1024) % 256
    green = (np.arange(1024) * 2) % 256
    blue = np.full(1024, 17)
    planes = np.concatenate([red, green, blue]).astype(np.uint8)
    return bytes([label]) + planes.tobytes(), label, red, green, blue


# ---------------------------------------------------------------------------
# IDX


def test_idx_fixture_exact_values(idx_files):
    ds = load_mnist_idx(*idx_files)
    assert ds.images.shape == (2, 1, 2, 2)
    expected = np.array([0, 51, 102, 255, 10, 20, 30, 40], dtype=np.float32) / 255
    np.testing.assert_array_equal(ds.images.reshape(-1), expected.astype(np.float32))
    np.testing.assert_array_equal(ds.labels, [7, 0])


def test_idx_roundtrip_bytes(idx_files):
    ds = load_mnist_idx(*idx_files)
    img_blob, lbl_blob = dump_mnist_idx(ds)
    assert img_blob == idx_files[0].read_bytes()
    assert lbl_blob == idx_files[1].read_bytes()


def test_idx_rejects_swapped_magic(tmp_path, idx_files):
    _, lbl_blob = idx_fixture_bytes()
    bad = tmp_path / "bad"
    bad.write_bytes(lbl_blob)  # label magic in the image slot
    with pytest.raises(DataFormatError, match="magic"):
        load_mnist_idx(bad, idx_files[1])
    with pytest.raises(DataFormatError, match="magic"):
        load_mnist_idx(idx_files[0], idx_files[0])


def test_idx_rejects_count_mismatch(tmp_path, idx_files):
    lbl = struct.pack(">2I", IDX_LABELS_MAGIC, 3) + bytes([1, 2, 3])
    bad = tmp_path / "lbl3"
    bad.write_bytes(lbl)
    with pytest.raises(DataFormatError, match="count"):
        load_mnist_idx(idx_files[0], bad)


def test_idx_rejects_truncated_images(tmp_path, idx_files):
    blob = idx_files[0].read_bytes()
    bad = tmp_path / "trunc"
    bad.write_bytes(blob[:-3])
    with pytest.raises(DataFormatError, match="length"):
        load_mnist_idx(bad, idx_files[1])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_idx_roundtrip_random(seed, rows, cols):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    pixels = rng.integers(0, 256, size=(n, 1, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.int64)
    ds = LabeledImageSet(pixels.astype(np.float32) / 255, labels, "rand")
    img_blob, lbl_blob = dump_mnist_idx(ds)
    header = struct.unpack(">4I", img_blob[:16])
    assert header == (IDX_IMAGES_MAGIC, n, rows, cols)
    assert img_blob[16:] == pixels.tobytes()
    assert lbl_blob[8:] == labels.astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# CIFAR-10


def test_cifar_single_record_fixture(tmp_path):
    blob, label, red, green, blue = cifar_fixture_record()
    path = tmp_path / "batch.bin"
    path.write_bytes(blob)
    ds = load_cifar10_bin([path])
    assert ds.images.shape == (1, 3, 32, 32)
    assert ds.labels[0] == label
    np.testing.assert_array_equal(ds.images[0, 0].reshape(-1) * 255, red)
    np.testing.assert_array_equal(ds.images[0, 1].reshape(-1) * 255, green)
    np.testing.assert_array_equal(ds.images[0, 2].reshape(-1) * 255, blue)


def test_cifar_roundtrip(tmp_path):
    blob, *_ = cifar_fixture_record()
    path = tmp_path / "batch.bin"
    path.write_bytes(blob * 3)
    ds = load_cifar10_bin([path])
    assert dump_cifar10_bin(ds) == blob * 3


def test_cifar_rejects_bad_length(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x00" * 3072)
    with pytest.raises(DataFormatError, match="multiple"):
        load_cifar10_bin([path])


def test_cifar_rejects_label_out_of_range(tmp_path):
    blob, *_ = cifar_fixture_record()
    path = tmp_path / "label.bin"
    path.write_bytes(bytes([10]) + blob[1:])
    with pytest.raises(DataFormatError, match="label"):
        load_cifar10_bin([path])


def test_cifar_concatenates_batches_in_order(tmp_path):
    blob, *_ = cifar_fixture_record()
    second = bytes([5]) + blob[1:]
    p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
    p1.write_bytes(blob)
    p2.write_bytes(second)
    ds = load_cifar10_bin([p1, p2])
    np.testing.assert_array_equal(ds.labels, [3, 5])


# ---------------------------------------------------------------------------
# subsetting and scaling


def test_take_first_full_and_empty():
    ds = synthetic_digits(12, seed=0)
    full = take_first(ds, 12)
    np.testing.assert_array_equal(full.images, ds.images)
    assert take_first(ds, 0).n == 0
    with pytest.raises(ValueError, match="cannot take"):
        take_first(ds, 13)


def test_take_first_preserves_order():
    ds = synthetic_digits(20, seed=1)
    sub = take_first(ds, 7)
    np.testing.assert_array_equal(sub.images, ds.images[:7])
    np.testing.assert_array_equal(sub.labels, ds.labels[:7])


def test_scale_pixels_identity():
    ds = synthetic_digits(4, seed=2)
    out = scale_pixels(ds, 1.0, clip=True)
    np.testing.assert_array_equal(out.images, ds.images)
    assert out.pixel_range == UNIT_RANGE


def test_scale_pixels_clip_and_noclip():
    images = np.full((1, 1, 2, 2), 0.6, dtype=np.float32)
    ds = LabeledImageSet(images, np.array([0]), "t")
    clipped = scale_pixels(ds, 2.0, clip=True)
    np.testing.assert_allclose(clipped.images, 1.0)
    assert clipped.pixel_range == UNIT_RANGE and clipped.name == "t[x2:clip]"
    raw = scale_pixels(ds, 2.0, clip=False)
    np.testing.assert_allclose(raw.images, 1.2)
    assert raw.pixel_range == (0.0, 2.0) and raw.name == "t[x2:noclip]"


def test_scale_pixels_noclip_range_holds_an_inexact_factor():
    # 0.3 has no exact float32 value; the brightest pixel lands on float32(0.3)
    ds = synthetic_digits(4, seed=2)
    ds.images[0, 0, 0, 0] = 1.0
    raw = scale_pixels(ds, 0.3, clip=False)
    assert raw.pixel_range == (0.0, 0.3) and raw.name == "synth[x0.3:noclip]"
    assert raw.images.max() == np.float32(0.3)


def test_scale_pixels_rejects_negative():
    ds = synthetic_digits(2, seed=3)
    with pytest.raises(ValueError, match="positive"):
        scale_pixels(ds, -1.0, clip=True)
    with pytest.raises(ValueError, match="positive"):
        scale_pixels(ds, 0.0, clip=False)


@pytest.mark.parametrize("clip", [True, False])
def test_scale_pixels_rejects_nan(clip):
    ds = synthetic_digits(2, seed=3)
    with pytest.raises(ValueError, match="positive"):
        scale_pixels(ds, float("nan"), clip=clip)


def test_unit_range_validation():
    with pytest.raises(ValueError, match="outside"):
        LabeledImageSet(np.full((1, 1, 1, 1), 1.5, dtype=np.float32), np.array([0]), "x")
    wide = np.full((1, 1, 1, 1), 2.5, dtype=np.float32)
    assert LabeledImageSet(wide, np.array([0]), "x", pixel_range=(0.0, 2.5)).n == 1
    with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
        LabeledImageSet(wide, np.array([0]), "x", pixel_range=(0.0, 2.0))
    with pytest.raises(ValueError, match="outside"):
        LabeledImageSet(np.full((1, 1, 1, 1), 0.5, dtype=np.float32), np.array([0]), "x",
                        pixel_range=(0.6, 1.0))
    with pytest.raises(ValueError, match="labels"):
        LabeledImageSet(np.zeros((1, 1, 1, 1), dtype=np.float32), np.array([11]), "x")
    with pytest.raises(ValueError, match="count"):
        LabeledImageSet(np.zeros((2, 1, 1, 1), dtype=np.float32), np.array([1]), "x")


# ---------------------------------------------------------------------------
# batching


def test_iterator_covers_all_once_in_epoch_order():
    ds = synthetic_digits(10, seed=4)
    it = BatchIterator(ds, batch_size=3)
    batches = list(it.epoch_batches(0))
    assert [len(lbl) for _, lbl in batches] == [3, 3, 3, 1]
    order = it.epoch_indices(0)
    assert sorted(order) == list(range(10))
    np.testing.assert_array_equal(np.concatenate([lbl for _, lbl in batches]),
                                  ds.labels[order])
    np.testing.assert_array_equal(np.concatenate([img for img, _ in batches]),
                                  ds.images[order])


def test_shuffle_is_deterministic_per_seed_and_epoch():
    ds = synthetic_digits(32, seed=5)
    a = BatchIterator(ds, 8, seed=9)
    b = BatchIterator(ds, 8, seed=9)
    np.testing.assert_array_equal(a.epoch_indices(0), b.epoch_indices(0))
    np.testing.assert_array_equal(a.epoch_indices(3), b.epoch_indices(3))
    assert not np.array_equal(a.epoch_indices(0), a.epoch_indices(1))
    assert sorted(a.epoch_indices(1)) == list(range(32))
    c = BatchIterator(ds, 8, seed=10)
    assert not np.array_equal(a.epoch_indices(0), c.epoch_indices(0))


def test_iterator_validation():
    ds = synthetic_digits(4, seed=6)
    with pytest.raises(ValueError, match="batch size"):
        BatchIterator(ds, 0)
