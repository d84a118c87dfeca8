"""Binary checkpoint format plus the PGM and CSV emitters.

Checkpoint layout (little-endian throughout):

    magic "WWRN" | u32 version | u32 config length | config UTF-8 bytes
    | u32 record count
    | per record: u32 name length | name UTF-8 | u32 rank | rank * u32 dims
                  | float32 payload
    | u32 CRC32 of every preceding byte

The config block lists every ``ModelConfig`` field once, in field order, as
one ``key=value`` line each, written and read by config.py's codec. A block
that omits, repeats, reorders or adds a key, or holds a blank line, is a
FormatError, since it alone names the model's wavelet stage.

The records are exactly the entries of ``model.state_layout`` for the stored
config, in its order: the parameters, then the batch norm running statistics
as ``buffer:<name>``, so a load reproduces the saved model's forward bit for
bit. A load accepts no other record set: a missing, extra, repeated,
reordered or reshaped record is a FormatError.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import fields

import numpy as np

from .config import _section, parse_pairs, split_items, to_text
from .errors import ConfigError, DimensionError, FormatError, UnsupportedBaseError
from .model import Model, ModelConfig, check_state

MAGIC = b"WWRN"
VERSION = 2

_FIELDS = tuple(f.name for f in fields(ModelConfig))
_SCHEMA = _section("", ModelConfig(), _FIELDS)


def _config_to_text(cfg: ModelConfig) -> str:
    return to_text((key, getattr(cfg, key)) for key in _FIELDS)


def _config_from_text(text: str) -> ModelConfig:
    try:
        pairs = split_items(text.splitlines())
        keys = tuple(key for key, _ in pairs)
        if keys != _FIELDS:
            raise ConfigError(f"keys {keys} are not the ModelConfig fields {_FIELDS} in order")
        return ModelConfig(**parse_pairs(pairs, _SCHEMA))
    except ConfigError as exc:
        raise FormatError(f"invalid model config in checkpoint: {exc}") from exc


def save_checkpoint(model: Model, path) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    config = _config_to_text(model.cfg).encode("utf-8")
    chunks.append(struct.pack("<I", len(config)))
    chunks.append(config)

    records = list(model.state_arrays())
    chunks.append(struct.pack("<I", len(records)))
    for name, arr in records:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    payload = b"".join(chunks)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    with open(path, "wb") as f:
        f.write(payload)
        f.write(struct.pack("<I", crc))


class _Reader:
    """Sequential reads of a memoryview: each read is a view, not a copy."""

    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated checkpoint while reading {what}", offset=self.pos)
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, n, what):
        start = self.pos
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not UTF-8", offset=start + exc.start) from None


def load_checkpoint(path) -> Model:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint: {exc}") from exc
    if len(blob) < 4:
        raise FormatError("file too small for magic", offset=0)
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}", offset=0)
    if len(blob) < 8:
        raise FormatError("truncated before version", offset=4)

    # one view of the file: the CRC, the header and every record read it
    # in place
    body = memoryview(blob)[:-4]
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}",
            offset=len(blob) - 4,
        )

    r = _Reader(body)
    r.take(4, "magic")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    config_len = r.u32("config length")
    cfg = _config_from_text(r.text(config_len, "config block"))

    count = r.u32("record count")
    items = []
    for _ in range(count):
        name_len = r.u32("name length")
        name = r.text(name_len, "name")
        rank = r.u32("rank")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, "dims"))
        size = math.prod(dims)  # a Python int: huge dims fail as truncation, not overflow
        start = r.pos
        payload = r.take(4 * size, f"payload of {name}")
        try:
            # a read-only view: load_state_arrays copies it into the model
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError as exc:  # a rank numpy cannot represent
            raise FormatError(f"record {name!r}: {exc}", offset=start) from None
        items.append((name, arr))
    if r.pos != len(r.blob):
        raise FormatError("trailing bytes after last record", offset=r.pos)

    # the file passed its CRC, so a model it cannot describe is a format
    # error of the file, not a configuration error of the caller; the layout
    # check runs first and is bounded by the records, so a config naming a
    # huge model fails before anything of its size is built
    try:
        check_state(cfg, items)
        model = Model(cfg)
    except (DimensionError, UnsupportedBaseError) as exc:
        raise FormatError(f"checkpoint does not describe a valid model: {exc}") from exc
    return model.load_state_arrays(items)


# -- result emission ----------------------------------------------------------------


def write_pgm(path, matrix) -> None:
    """8-bit binary PGM (P5), min-max scaled."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise FormatError("PGM needs a 2-D matrix")
    lo, hi = float(m.min()), float(m.max())
    scaled = np.zeros_like(m) if hi - lo < 1e-12 else (m - lo) / (hi - lo)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(pixels.tobytes())


CSV_SCHEMA_VERSION = 1


def format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.8g}"
    return str(value)


def write_csv(path, name, header, rows) -> None:
    """Comma-separated table with a versioned schema comment line."""
    lines = [f"# wavetrain-csv v{CSV_SCHEMA_VERSION} {name}"]
    lines.append(",".join(header))
    for row in rows:
        if len(row) != len(header):
            raise FormatError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
