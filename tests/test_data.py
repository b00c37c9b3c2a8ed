"""Binary format loaders, synthetic generator statistics, coding, augmentation."""

import struct

import numpy as np
import pytest

from dtasnn.data import (CIFAR10_FILE_BYTES, CIFAR10_MEAN, CIFAR10_STD, FormatError,
                         SynthSpec, augment, direct_code, gen_synthetic,
                         load_cifar10_binary, load_idx, normalize_cifar,
                         parse_cifar_records)


def make_cifar_record(label, value):
    return bytes([label]) + bytes([value]) * 3072


def write_idx_pair(tmp_path, images, labels):
    """Craft IDX files: big-endian magic and dims, raw uint8 payloads."""
    n, h, w = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return img_path, lab_path


class TestCifarRecords:
    def test_two_record_fixture_round_trip(self):
        raw = make_cifar_record(7, 0) + make_cifar_record(2, 128)
        pixels, labels = parse_cifar_records(raw)
        assert labels.tolist() == [7, 2]
        assert pixels.shape == (2, 3, 32, 32)
        np.testing.assert_allclose(pixels[1], 128.0 / 255.0)

    def test_all_255_record_scales_to_one(self):
        pixels, _ = parse_cifar_records(make_cifar_record(0, 255))
        np.testing.assert_array_equal(pixels, 1.0)

    def test_partial_record_rejected(self):
        with pytest.raises(FormatError, match="3073"):
            parse_cifar_records(b"\x00" * 100)

    def test_truncated_file_reports_expected_bytes(self, tmp_path):
        d = tmp_path / "cifar"
        d.mkdir()
        for i in range(1, 6):
            (d / f"data_batch_{i}.bin").write_bytes(b"\x00" * CIFAR10_FILE_BYTES)
        (d / "test_batch.bin").write_bytes(b"\x00" * (CIFAR10_FILE_BYTES - 1))
        with pytest.raises(FormatError, match="30730000"):
            load_cifar10_binary(d, train=False)

    def test_missing_batch_named(self, tmp_path):
        with pytest.raises(FormatError, match="data_batch_1"):
            load_cifar10_binary(tmp_path, train=True)

    def test_full_loader_values_and_normalization(self, tmp_path):
        d = tmp_path / "cifar"
        d.mkdir()
        record = make_cifar_record(3, 255)
        filler = make_cifar_record(0, 0) * 9999
        for i in range(1, 6):
            (d / f"data_batch_{i}.bin").write_bytes(record + filler)
        (d / "test_batch.bin").write_bytes(record + filler)
        tx, ty = load_cifar10_binary(d, train=True)
        vx, vy = load_cifar10_binary(d, train=False)
        assert tx.shape == (50000, 3, 32, 32)
        assert ty[0] == 3 and vy[0] == 3
        want = (1.0 - CIFAR10_MEAN) / CIFAR10_STD
        np.testing.assert_allclose(vx[0, :, 0, 0], want, rtol=1e-5)

    def test_normalization_constants(self):
        x = np.zeros((1, 3, 2, 2), dtype=np.float32)
        out = normalize_cifar(x)
        np.testing.assert_allclose(out[0, :, 0, 0], -CIFAR10_MEAN / CIFAR10_STD,
                                   rtol=1e-6)


class TestIdx:
    def test_round_trip_exact(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(2, 5, 4)).astype(np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [3, 9])
        x, y = load_idx(img, lab)
        assert x.shape == (2, 1, 5, 4)
        np.testing.assert_allclose(x[:, 0] * 255.0, images, atol=1e-4)
        assert y.tolist() == [3, 9]

    def test_big_endian_dimension_parsing(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0])
        # dimension bytes 0x0000001C must parse as 28
        assert img.read_bytes()[8:12] == b"\x00\x00\x00\x1c"
        x, _ = load_idx(img, lab)
        assert x.shape == (1, 1, 28, 28)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0])
        blob = bytearray(img.read_bytes())
        blob[3] = 0x42
        img.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_idx(img, lab)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_truncated_header(self, tmp_path, which):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        target = img if which == "images" else lab
        target.write_bytes(target.read_bytes()[:6])
        with pytest.raises(FormatError, match="truncated header"):
            load_idx(img, lab)

    @pytest.mark.parametrize("which,header", [
        # 116 bytes whose header declares 60000^3 pixels
        ("images", (0x00000803, 60000, 60000, 60000)),
        # a declared size past any buffer numpy can allocate
        ("images", (0x00000803, 2**32 - 1, 2**32 - 1, 2**32 - 1)),
        ("labels", (0x00000801, 2**32 - 1)),
    ], ids=["images", "images_max", "labels"])
    def test_oversized_header_is_format_error(self, tmp_path, which, header):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        target = img if which == "images" else lab
        target.write_bytes(struct.pack(f">{len(header)}I", *header) + bytes(100))
        with pytest.raises(FormatError, match=f"{target.name}: truncated"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0])
        with pytest.raises(FormatError, match="labels"):
            load_idx(img, lab)


class TestDirectCode:
    def test_single_step_adds_axis_only(self, rng):
        x = rng.random((3, 4, 4)).astype(np.float32)
        out = direct_code(x, 1)
        assert out.shape == (1, 3, 4, 4)
        np.testing.assert_array_equal(out[0], x)

    def test_is_read_only_view_of_image(self, rng):
        x = rng.random((3, 4, 4)).astype(np.float32)
        out = direct_code(x, 6)
        assert out.shape == (6, 3, 4, 4)
        assert np.shares_memory(out, x)
        assert not out.flags.writeable

    def test_all_slices_bitwise_equal(self, rng):
        x = rng.random((2, 3, 3)).astype(np.float32)
        out = direct_code(x, 5)
        for t in range(5):
            np.testing.assert_array_equal(out[t], x)

    def test_sum_over_time(self, rng):
        x = rng.random((1, 2, 2)).astype(np.float32)
        np.testing.assert_allclose(direct_code(x, 4).sum(axis=0), 4.0 * x, rtol=1e-6)


class TestSynthetic:
    def test_deterministic_extremes_match_signature(self):
        spec = SynthSpec(classes=2, time_steps=6, channels=1, height=2, width=2,
                         rate_on=1.0, rate_off=0.0, seed=0)
        samples = gen_synthetic(spec, 10)
        for s in samples:
            marginal = s.input.max(axis=(1, 2, 3))
            want = np.zeros(6)
            want[list(spec.temporal_signature[s.label])] = 1.0
            np.testing.assert_array_equal(marginal, want)
            assert set(np.unique(s.input)) <= {0.0, 1.0}

    def test_balanced_counts_with_remainder(self):
        spec = SynthSpec(classes=3, time_steps=6, seed=0)
        samples = gen_synthetic(spec, 10)
        counts = [sum(1 for s in samples if s.label == c) for c in range(3)]
        assert counts == [4, 3, 3]  # later classes get one fewer

    def test_aggregate_rate_within_binomial_bounds(self):
        spec = SynthSpec(classes=2, time_steps=6, channels=2, height=8, width=8,
                         rate_on=0.9, rate_off=0.05, seed=3)
        samples = gen_synthetic(spec, 200)
        spikes = np.stack([s.input for s in samples])
        n = spikes.size
        # half the steps fire at rate_on, half at rate_off in each class
        expected = 0.5 * spec.rate_on + 0.5 * spec.rate_off
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(spikes.mean() - expected) < 3 * sigma

    def test_seeded_reproducibility(self):
        spec = SynthSpec(seed=11)
        a = gen_synthetic(spec, 8)
        b = gen_synthetic(spec, 8)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.input, sb.input)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(rate_on=0.2, rate_off=0.5)

    def test_identical_signatures_are_indistinguishable(self):
        # control task: same signature for both classes leaves chance accuracy
        from dtasnn.network import NetworkSpec, build
        from dtasnn.training import TrainConfig, evaluate, train
        sig = ((0, 1, 2), (0, 1, 2))
        spec = SynthSpec(classes=2, time_steps=6, channels=2, height=6, width=6,
                         temporal_signature=sig, seed=0)
        train_set = gen_synthetic(spec, 64)
        test_set = gen_synthetic(SynthSpec(classes=2, time_steps=6, channels=2,
                                           height=6, width=6,
                                           temporal_signature=sig, seed=1), 64)
        net = build(NetworkSpec(time_steps=6, in_channels=2, stem_channels=4,
                                stages=((4, 1, 1),), num_classes=2), seed=0)
        cfg = TrainConfig(batch_size=16, epochs=4, lr0=0.05, seed=0)
        train(net, train_set, [], cfg)
        acc = evaluate(net, test_set, batch_size=16).accuracy
        assert acc <= 0.66  # must not significantly beat the 0.5 Bayes rate

    @pytest.mark.parametrize("override, field", [
        ({"time_steps": 0}, "time_steps"),
        ({"height": -2, "width": -2}, "height"),
    ])
    def test_bad_geometry_rejected(self, override, field):
        with pytest.raises(ValueError, match=field):
            SynthSpec(**override)


class TestAugment:
    def test_no_pad_no_flip_is_identity(self, rng):
        x = rng.random((3, 8, 8)).astype(np.float32)
        out = augment(x, pad=0, flip_prob=0.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_forced_flip_is_involution(self, rng):
        x = rng.random((3, 6, 6)).astype(np.float32)
        r1, r2 = np.random.default_rng(0), np.random.default_rng(0)
        once = augment(x, pad=0, flip_prob=1.0, rng=r1)
        twice = augment(once, pad=0, flip_prob=1.0, rng=r2)
        np.testing.assert_array_equal(twice, x)

    def test_crop_is_a_window_of_the_padded_image(self, rng):
        x = rng.random((1, 5, 5)).astype(np.float32)
        pad = 2
        padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        windows = [padded[:, dy:dy + 5, dx:dx + 5]
                   for dy in range(2 * pad + 1) for dx in range(2 * pad + 1)]
        for seed in range(20):
            out = augment(x, pad=pad, flip_prob=0.0, rng=np.random.default_rng(seed))
            assert any(np.array_equal(out, wdw) for wdw in windows)

    def test_deterministic_given_seed(self, rng):
        x = rng.random((3, 8, 8)).astype(np.float32)
        a = augment(x, 4, 0.5, np.random.default_rng(42))
        b = augment(x, 4, 0.5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_negative_pad_rejected(self, rng):
        with pytest.raises(ValueError):
            augment(np.zeros((1, 2, 2), dtype=np.float32), -1, 0.0,
                    np.random.default_rng(0))
