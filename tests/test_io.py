"""Binary format, config file, and snapshot round-trip tests."""

import re
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from leafaudio import io as leafio
from leafaudio.errors import CorruptSnapshot
from leafaudio.frontend import FeatureMap, FrontendConfig
from leafaudio.io import (
    apply_config,
    load_params,
    metrics_csv,
    parse_config_file,
    read_feature_file,
    save_params,
    write_feature_file,
)
from leafaudio.params import ParamSet, init_params


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((100, 40)).astype(np.float32)
        fm = FeatureMap(values, 100.0)
        path = tmp_path / "x.leaf"
        write_feature_file(path, fm)
        back = read_feature_file(path)
        assert np.array_equal(back.values, values)
        assert back.frame_rate == 100.0

    def test_header_layout(self, tmp_path):
        fm = FeatureMap(np.zeros((3, 2), dtype=np.float32), 100.0)
        path = tmp_path / "h.leaf"
        write_feature_file(path, fm)
        blob = path.read_bytes()
        assert blob[:4] == b"LEAF"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 3
        assert int.from_bytes(blob[12:16], "little") == 2
        assert int.from_bytes(blob[16:20], "little") == 100
        assert len(blob) == 20 + 4 * 6

    def test_time_major_payload(self, tmp_path):
        values = np.arange(6, dtype=np.float32).reshape(3, 2)
        path = tmp_path / "tm.leaf"
        write_feature_file(path, FeatureMap(values, 50.0))
        payload = np.frombuffer(path.read_bytes()[20:], dtype="<f4")
        np.testing.assert_array_equal(payload, [0, 1, 2, 3, 4, 5])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.leaf"
        path.write_bytes(b"WAVE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_feature_file(path)

    @pytest.mark.parametrize("blob, message", [
        (b"LEAF" + b"\x00" * 10, "truncated header"),
        (struct.pack("<4sIIII", b"LEAF", 2, 1, 1, 100) + b"\x00" * 4, "unsupported version 2"),
        (struct.pack("<4sIIII", b"LEAF", 1, 3, 2, 100) + b"\x00" * 20, "truncated payload"),
    ], ids=["header", "version", "payload"])
    def test_rejects_malformed_file(self, blob, message, tmp_path):
        path = tmp_path / "bad.leaf"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_feature_file(path)

    def test_identical_writes_are_byte_identical(self, tmp_path):
        values = np.random.default_rng(1).standard_normal((7, 3)).astype(np.float32)
        a, b = tmp_path / "a.leaf", tmp_path / "b.leaf"
        write_feature_file(a, FeatureMap(values, 100.0))
        write_feature_file(b, FeatureMap(values, 100.0))
        assert a.read_bytes() == b.read_bytes()


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        params = init_params(FrontendConfig(), 4, dtype=np.float32)
        save_params(tmp_path / "snap", params)
        back = load_params(tmp_path / "snap")
        assert set(back) == set(params)
        for key in params:
            assert np.array_equal(back[key], params[key]), key

    def test_manifest_checksum_detects_corruption(self, tmp_path):
        params = ParamSet({"eta": np.linspace(0, 0.5, 8, dtype=np.float32)})
        save_params(tmp_path / "snap", params)
        target = tmp_path / "snap" / "eta.leaf"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load_params(tmp_path / "snap")

    @pytest.mark.parametrize("damage", [
        "missing manifest", "missing block", "malformed line", "length", "payload byte",
        "header byte", "manifest byte", "swapped shape", "nan value", "inf value",
    ])
    def test_damage_is_corrupt_snapshot(self, damage, tmp_path):
        save_params(tmp_path, ParamSet({"eta": np.linspace(0, 0.5, 8, dtype=np.float32)}))
        manifest, block = tmp_path / "manifest.txt", tmp_path / "eta.leaf"
        if damage == "missing manifest":
            manifest.unlink()
        elif damage == "missing block":
            block.unlink()
        elif damage == "malformed line":
            manifest.write_text(manifest.read_text().replace(",8,", ",eight,"))
        elif damage == "length":
            manifest.write_text(manifest.read_text().replace(",8,", ",9,"))
        elif damage in ("nan value", "inf value"):  # a block whose checksum holds
            bad = np.nan if damage == "nan value" else -np.inf
            save_params(tmp_path, ParamSet({"eta": np.array([0.1, bad, 0.3], dtype=np.float32)}))
        elif damage == "swapped shape":  # (8, 1) -> (1, 8): same length, valid header
            blob = block.read_bytes()
            block.write_bytes(blob[:8] + blob[12:16] + blob[8:12] + blob[16:])
        else:
            target, at = {"payload byte": (block, -1), "header byte": (block, 0),
                          "manifest byte": (manifest, 0)}[damage]
            blob = bytearray(target.read_bytes())
            blob[at] ^= 0xFF
            target.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshot):
            load_params(tmp_path)

    def test_values_are_the_bytes_that_were_checksummed(self, tmp_path, monkeypatch):
        # the block is swapped for another valid one right after its checksum
        # is taken: the values loaded are still the checksummed ones
        eta = np.linspace(0, 0.5, 8, dtype=np.float32)
        save_params(tmp_path / "other", ParamSet({"eta": eta + 1.0}))
        save_params(tmp_path / "snap", ParamSet({"eta": eta}))
        block, other = tmp_path / "snap" / "eta.leaf", (tmp_path / "other" / "eta.leaf").read_bytes()

        def crc32_then_swap(data):
            block.write_bytes(other)
            return zlib.crc32(data)

        monkeypatch.setattr(leafio, "zlib", SimpleNamespace(crc32=crc32_then_swap))
        assert np.array_equal(load_params(tmp_path / "snap")["eta"], eta)

    def test_matrix_shape_preserved(self, tmp_path):
        params = ParamSet({"head0_weights": np.ones((5, 3), dtype=np.float32)})
        save_params(tmp_path / "m", params)
        assert load_params(tmp_path / "m")["head0_weights"].shape == (5, 3)


class TestConfigFile:
    def test_parse_and_overlay(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment\nn_filters = 20\nfilter_len=201\ncompression = log\nfmin = 30\n\n")
        raw = parse_config_file(path)
        cfg = apply_config(raw, FrontendConfig())
        assert cfg.n_filters == 20
        assert cfg.filter_len == 201
        assert cfg.compression == "log"
        assert cfg.pool_stride == 160  # untouched default
        assert cfg.fmin == 30.0
        assert cfg.n_fft == 512

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestMetricsCsv:
    def test_format(self):
        rows = [{"step": 50, "task_id": 0, "loss": 1.25, "accuracy": 0.5}]
        text = metrics_csv(rows)
        assert text == "step,task_id,loss,accuracy\n50,0,1.25,0.5\n"
