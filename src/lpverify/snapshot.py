"""Bit-exact field snapshot I/O (format "LPF1").

Layout: a 64-byte header followed by the raw coefficient payload.

    bytes 0-3    magic b"LPF1"
    bytes 4-7    format version, u32 LE (currently 1)
    bytes 8-11   n, u32 LE
    bytes 12-15  component count, u32 LE
    bytes 16-23  box length, f64 LE
    bytes 24-31  flags, u64 LE (bit 0 real-valued, bit 1 mean-zero,
                 bit 2 divergence-free)
    bytes 32-63  reserved, zero

Each component is n^3 complex values as interleaved f64 LE pairs in
C order (last axis fastest) and FFT-standard frequency order.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import SnapshotFormatError
from .spectral import SpectralField, TorusGrid, VectorField

MAGIC = b"LPF1"
VERSION = 1
HEADER_BYTES = 64

_FLAG_REAL = 1
_FLAG_MEAN_ZERO = 2
_FLAG_DIV_FREE = 4


def snapshot_write(u: VectorField, path: str | Path) -> None:
    """Write a vector field losslessly; round trips bit-identically."""
    g = u.grid
    flags = 0
    if all(c.real_valued for c in u.components):
        flags |= _FLAG_REAL
    if all(c.mean_zero for c in u.components):
        flags |= _FLAG_MEAN_ZERO
    if u.div_free:
        flags |= _FLAG_DIV_FREE
    header = struct.pack(
        "<4sIIIdQ", MAGIC, VERSION, g.n, len(u.components), g.box_length, flags
    )
    header += b"\x00" * (HEADER_BYTES - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        for c in u.components:
            fh.write(np.ascontiguousarray(c.coeffs, dtype="<c16").tobytes())


def _read_header(fh) -> dict:
    """Parse and validate the header of a snapshot opened for binary reading.

    Checks the magic, version and component count, and that the file holds
    exactly the payload the header announces; leaves ``fh`` at the payload.
    """
    header = fh.read(HEADER_BYTES)
    if len(header) < HEADER_BYTES:
        raise SnapshotFormatError("truncated header")
    magic, version, n, ncomp, box_length, flags = struct.unpack("<4sIIIdQ", header[:32])
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"unknown snapshot version {version}")
    if ncomp != 3:
        raise SnapshotFormatError(f"expected 3 components, found {ncomp}")
    payload = ncomp * n**3 * 16
    size = os.fstat(fh.fileno()).st_size - HEADER_BYTES
    if size < payload:
        raise SnapshotFormatError("truncated payload")
    if size > payload:
        raise SnapshotFormatError("trailing bytes after payload")
    return {
        "magic": magic.decode(),
        "version": version,
        "n": n,
        "components": ncomp,
        "box_length": box_length,
        "real_valued": bool(flags & _FLAG_REAL),
        "mean_zero": bool(flags & _FLAG_MEAN_ZERO),
        "div_free": bool(flags & _FLAG_DIV_FREE),
        "payload_bytes": payload,
    }


def snapshot_read(path: str | Path) -> VectorField:
    with open(path, "rb") as fh:
        head = _read_header(fh)
        n = head["n"]
        grid = TorusGrid(n, head["box_length"])
        comps = []
        for _ in range(head["components"]):
            raw = fh.read(n**3 * 16)
            coeffs = np.frombuffer(raw, dtype="<c16").reshape(n, n, n).astype(np.complex128)
            comps.append(
                SpectralField(
                    grid, coeffs, real_valued=head["real_valued"], mean_zero=head["mean_zero"]
                )
            )
    return VectorField(tuple(comps), div_free=head["div_free"])  # type: ignore[arg-type]
