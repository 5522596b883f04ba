"""Binary feature files, key=value config files, and model snapshots.

Feature file layout (little-endian): magic ``LEAF``, u32 version = 1,
u32 frame count M, u32 channel count N, u32 frame rate, then M*N float32
values in time-major order.  Snapshots store each parameter vector in the
same container (frame rate 0) plus a manifest of name, length, and the
CRC32 of the whole block file, header included.  A block is parsed from
the very bytes its checksum was taken over; a missing file, a block that
disagrees with the manifest or a non-finite value fails to load with
``CorruptSnapshot``.

A config file's keys are ``FrontendConfig`` field names; any other key is
rejected.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .errors import CorruptSnapshot
from .frontend import FeatureMap, FrontendConfig
from .params import ParamSet

MAGIC = b"LEAF"
VERSION = 1
HEADER = struct.Struct("<4sIIII")


def write_feature_file(path, feature_map: FeatureMap) -> None:
    data = np.ascontiguousarray(feature_map.values, dtype="<f4")
    m, n = data.shape
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, m, n, round(feature_map.frame_rate)))
        fh.write(data.tobytes())


def read_feature_file(path) -> FeatureMap:
    values, frame_rate = _parse(Path(path).read_bytes(), path)
    return FeatureMap(values, float(frame_rate))


def _parse(blob: bytes, path):
    """The (M, N) float32 values and the frame rate in the bytes ``blob``
    of the file ``path``; bytes past the payload are ignored."""
    if len(blob) < HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, m, n, frame_rate = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    payload = blob[HEADER.size: HEADER.size + 4 * m * n]
    if len(payload) != 4 * m * n:
        raise ValueError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f4").reshape(m, n), frame_rate


def _write_array(path, array: np.ndarray) -> bytes:
    """Write one block; returns the file's bytes."""
    data = np.ascontiguousarray(array, dtype="<f4")
    if data.ndim == 1:
        data = data[:, None]
    blob = HEADER.pack(MAGIC, VERSION, data.shape[0], data.shape[1], 0) + data.tobytes()
    Path(path).write_bytes(blob)
    return blob


def save_params(directory, params: ParamSet) -> None:
    """Write one binary block per parameter plus a checksummed manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, value in params.items():
        checksum = zlib.crc32(_write_array(directory / f"{name}.leaf", value)) & 0xFFFFFFFF
        lines.append(f"{name},{value.size},{checksum:08x}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n", newline="\n")


def load_params(directory) -> ParamSet:
    """Read a snapshot; a missing or damaged file, or a non-finite value,
    raises CorruptSnapshot."""
    directory = Path(directory)
    # a damaged byte decodes to U+FFFD, so its line fails one of the checks below
    manifest = _read_snapshot_file(directory / "manifest.txt").decode(errors="replace")
    values = {}
    for line in manifest.strip().splitlines():
        try:
            name, length, checksum = line.split(",")
            length = int(length)
        except ValueError:
            raise CorruptSnapshot(f"{directory / 'manifest.txt'}: malformed line {line!r}") from None
        path = directory / f"{name}.leaf"
        blob = _read_snapshot_file(path)
        if f"{zlib.crc32(blob) & 0xFFFFFFFF:08x}" != checksum:
            raise CorruptSnapshot(f"{path}: checksum mismatch")
        try:
            value = _parse(blob, path)[0].astype(np.float32)
        except ValueError as err:
            raise CorruptSnapshot(str(err)) from None
        if value.size != length:
            raise CorruptSnapshot(f"{path}: length mismatch")
        if not np.all(np.isfinite(value)):
            raise CorruptSnapshot(f"{path}: non-finite value")
        values[name] = value[:, 0] if value.shape[1] == 1 else value
    return ParamSet(values)


def _read_snapshot_file(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise CorruptSnapshot(f"{path}: missing") from None


def parse_config_file(path) -> dict:
    """Flat key=value lines; blank lines and #-comments allowed."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def apply_config(raw: dict, cfg: FrontendConfig) -> FrontendConfig:
    """Overlay file keys on ``cfg``, each parsed with the type of its field's
    default; a key that is not a FrontendConfig field, or a value that does
    not parse, raises ValueError naming the key."""
    defaults = {f.name: f.default for f in fields(FrontendConfig)}
    values = {}
    for key, value in raw.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}; keys are {', '.join(defaults)}")
        kind = type(defaults[key])
        try:
            values[key] = kind(value)
        except ValueError:
            raise ValueError(f"config key {key!r}: cannot parse {value!r} as {kind.__name__}") from None
    return replace(cfg, **values)


def metrics_csv(metrics: list[dict]) -> str:
    """Training log as ``step,task_id,loss,accuracy`` text."""
    lines = ["step,task_id,loss,accuracy"]
    for row in metrics:
        lines.append(f"{row['step']},{row['task_id']},{row['loss']:.8g},{row['accuracy']:.6g}")
    return "\n".join(lines) + "\n"
