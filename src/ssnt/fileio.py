"""Persistence: the tensor container format, run manifests and
diagnostics CSV export.

Tensor container layout (all integers little-endian):

    bytes 0..4    magic ``SSNT1``
    bytes 5..6    format version (uint16, currently 1)
    bytes 7..30   dims n1, n2, n3 (three uint64)
    payload       n1*n2*n3 float64 values, slice-major order
                  (k slowest, then i, then j)
    trailer       uint64 FNV-1a checksum of the payload bytes

The checksum is the standard byte-serial FNV-1a, computed in numpy:
200 MB/s on a 2-core x86-64 VM, against 6 MB/s for a Python loop over
the bytes.  XOR with a byte changes only the low byte ``l`` of the
state, and the low byte evolves on its own:
``l' = ((l ^ b) * 0xB3) mod 256``, 0xB3 being the prime's low byte.
As 0xB3 is odd, bit j of a product is bit j of ``l ^ b`` XOR a function
of the bits below j.  So the low bytes of a 256 KiB block come out of
eight in-place passes over preallocated buffers, one per bit: with
bits < j of ``l`` known, bit j of ``(l ^ b) * 0xB3`` is whether bit j
flips from one low byte to the next, and a packed prefix XOR of those
flips gives bit j of every ``l``.  With them ``h ^ b = h + d`` for the
known ``d = (l ^ b) - l``, and the state after ``m`` bytes is
``h * P^m + sum_i d_i * P^(m - i)`` mod 2^64: one wrapping uint64 dot
product per 64 KiB.

Writes go through a temp file and an atomic rename.  Numeric text
output uses the shortest round-trip decimal representation.
"""

import csv
import functools
import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

MAGIC = b"SSNT1"
FORMAT_VERSION = 1
MANIFEST_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_CHUNK = 1 << 16  # bytes per wrapping dot product
_BLOCK = 1 << 18  # bytes per low-byte solve


class FormatError(Exception):
    """Malformed tensor file; ``reason`` is one of magic, version,
    dims, checksum."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@functools.cache
def _powers():
    """P^_CHUNK, ..., P^2, P^1 mod 2^64 (uint64 array arithmetic wraps)."""
    p = np.full(_CHUNK, _FNV_PRIME, dtype=np.uint64)
    np.multiply.accumulate(p[::-1], out=p[::-1])
    return p


def fnv1a64(data):
    """64-bit FNV-1a hash of a byte buffer."""
    buf = np.frombuffer(data, dtype=np.uint8)
    powers = _powers()
    size = min(_BLOCK, -buf.size // 64 * -64)  # buffers sized to the data
    low, x = np.empty(size, np.uint8), np.empty(size, np.uint8)
    flips, shifted = np.empty(size // 64, np.uint64), np.empty(size // 64, np.uint64)
    d64 = np.empty(min(size, _CHUNK), np.int64)
    h = _FNV_OFFSET
    for start in range(0, buf.size, _BLOCK):
        b = buf[start:start + _BLOCK]
        m = b.size
        if m % 64:
            b = np.concatenate([b, np.zeros(-m % 64, np.uint8)])
        n = b.size
        l, xb, v, sh = low[:n], x[:n], flips[:n // 64], shifted[:n // 64]
        l.fill(0)
        for j in range(8):
            # l holds bits < j, so bit j of (l ^ b) * 0xB3 is the flip of
            # bit j from each low byte to the next.
            np.bitwise_xor(l, b, out=xb)
            xb *= np.uint8(_FNV_PRIME & 0xFF)
            xb &= np.uint8(1 << j)
            w = np.packbits(xb, bitorder="little").view("<u8")
            v[...] = w
            w[0] ^= (h >> j) & 1  # the start bit
            for s in (1, 2, 4, 8, 16, 32):  # prefix XOR within each word
                np.left_shift(w, s, out=sh)
                w ^= sh
            np.right_shift(w, 63, out=sh)  # then carry each word's parity on
            np.bitwise_xor.accumulate(sh, out=sh)
            w[1:] ^= np.negative(sh, out=sh)[:-1]  # all ones after an odd prefix
            w ^= v  # bit j of the low byte before each byte, not after
            bits = np.unpackbits(w.view(np.uint8), bitorder="little")
            bits *= np.uint8(1 << j)  # ten times faster than a uint8 <<
            l |= bits
        for i in range(0, m, _CHUNK):
            k = min(_CHUNK, m - i)
            np.bitwise_xor(l[i:i + k], b[i:i + k], out=xb[:k])
            d = d64[:k]
            d[...] = np.subtract(xb[:k], l[i:i + k], dtype=np.int16)
            tail = int(np.dot(d.view(np.uint64), powers[_CHUNK - k:]))
            h = (h * int(powers[_CHUNK - k]) + tail) & _MASK64
    return h


def _atomic_write(path, *buffers):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ssnt-tmp-")
    except OSError as exc:  # name the requested path, not the temp file
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            for buf in buffers:
                fh.write(buf)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, t):
    """Serialize a third-order tensor (bit-exact round trip)."""
    t = np.asarray(t, dtype="<f8")
    if t.ndim != 3:
        raise ValueError("only third-order tensors are stored")
    if 0 in t.shape:
        raise ValueError(f"a tensor with a zero dimension cannot be stored, got dims {t.shape}")
    n1, n2, n3 = t.shape
    payload = np.ascontiguousarray(t.transpose(2, 0, 1))
    header = MAGIC + struct.pack("<H", FORMAT_VERSION) + struct.pack("<QQQ", n1, n2, n3)
    trailer = struct.pack("<Q", fnv1a64(payload))
    _atomic_write(path, header, payload, trailer)


def read_tensor(path):
    """Read a tensor container into a C-contiguous array, verifying
    magic, version, dims and checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 31 or blob[:5] != MAGIC:
        raise FormatError("magic", "not a tensor container")
    (version,) = struct.unpack("<H", blob[5:7])
    if version != FORMAT_VERSION:
        raise FormatError("version", f"unsupported version {version}")
    n1, n2, n3 = struct.unpack("<QQQ", blob[7:31])
    if n1 == 0 or n2 == 0 or n3 == 0:
        raise FormatError("dims", "zero dimension")
    expected = n1 * n2 * n3 * 8
    if len(blob) != 31 + expected + 8:
        raise FormatError("dims", f"payload length {len(blob) - 39} != {expected}")
    payload = memoryview(blob)[31:31 + expected]  # a view: no copy of the payload
    (stored,) = struct.unpack("<Q", blob[31 + expected:])
    if fnv1a64(payload) != stored:
        raise FormatError("checksum", "payload corrupted")
    flat = np.frombuffer(payload, dtype="<f8")
    # A C-ordered copy: numpy reductions run in memory order, so a tensor
    # read from a file must sum like the same values built in memory.
    return np.array(flat.reshape(n3, n1, n2).transpose(1, 2, 0), dtype=np.float64, order="C")


@dataclass
class RunManifest:
    """Reproducibility record of one CLI run.

    The config snapshot plus the seed suffice to re-run the command and
    reproduce the outputs; the manifest round-trips losslessly through
    JSON (floats keep their shortest round-trip form).
    """

    command: str
    config: dict
    seed: int
    started: str
    finished: str
    outputs: dict
    diagnostics_csv: str | None = None
    metrics: dict | None = None
    normalization: dict | None = None
    version: int = MANIFEST_VERSION

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))

    def save(self, path):
        _atomic_write(path, self.to_json().encode() + b"\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


DIAGNOSTICS_HEADER = (
    "iteration",
    "rel_err_weights",
    "rel_err_V",
    "loss_total",
    "loss_lowrank",
    "loss_fidelity",
    "tv_penalty",
)


def export_diagnostics(history, path):
    """Write per-iteration diagnostics as CSV; empty history is an error
    and creates no file."""
    if not history:
        raise ValueError("empty diagnostics history")
    write_csv(
        path,
        DIAGNOSTICS_HEADER,
        (
            (d.iteration, d.rel_err_weights, d.rel_err_v, d.loss.total,
             d.loss.l1_lowrank, d.loss.l2_fidelity, d.loss.tv_penalty)
            for d in history
        ),
    )


def read_diagnostics(path):
    """Parse a diagnostics CSV back into plain row dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            parsed = {"iteration": int(row["iteration"])}
            for key in DIAGNOSTICS_HEADER[1:]:
                parsed[key] = float(row[key])
            rows.append(parsed)
    return rows


def write_csv(path, header, rows):
    """Atomic CSV writer with round-trip float formatting; a ``None``
    header writes the rows alone."""

    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [] if header is None else [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    _atomic_write(path, ("\n".join(lines) + "\n").encode())
