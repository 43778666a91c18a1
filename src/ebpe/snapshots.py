"""Binary state snapshots with a bit-exact round trip.

Layout (little endian): magic "EBPE", version byte 0x01, a flags byte
(bit 0: a surface-noise channel follows the prognostic blocks; the other
bits must be zero), u32 (Nx, Ny, Nz), f64 time, then row-major f64
blocks in fixed order v1, v2, T, rho and optionally Z_rho.  The first
three are `State.fields` as stored, written and read as one block.  The
rho block repeats T's top level (`State.rho`, a view of it), and a file
where the two differ is rejected; a resumed run checks the grid
(`timestep.start_run`).  No compression: restart must reproduce runs
bit for bit.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .timestep import State

MAGIC = b"EBPE"
VERSION = 1
FLAG_Z_RHO = 0x01

_HEADER = struct.Struct("<4sBBIIId")


class SnapshotError(ValueError):
    """Corrupt, truncated or mismatched snapshot file."""


def write_snapshot(state: State, path, z_rho: np.ndarray | None = None) -> None:
    nx, ny, nlev = state.T.shape
    nz = nlev - 1
    flags = FLAG_Z_RHO if z_rho is not None else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, flags, nx, ny, nz, state.t))
        for block in (state.fields, state.rho):  # v1, v2, T, then rho
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
        if z_rho is not None:
            fh.write(np.ascontiguousarray(z_rho, dtype="<f8").tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise SnapshotError(f"truncated snapshot: {what} ({len(buf)}/{count} bytes)")
    return buf


def read_snapshot(path) -> tuple[State, np.ndarray | None]:
    """Read a snapshot; the returned state carries step = 0 (set by the caller
    from time and step size when resuming a run)."""
    with open(path, "rb") as fh:
        header = _read_exact(fh, _HEADER.size, "header")
        magic, version, flags, nx, ny, nz, t = _HEADER.unpack(header)
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        if flags & ~FLAG_Z_RHO:
            raise SnapshotError(f"unknown snapshot flag bits 0x{flags & ~FLAG_Z_RHO:02x}")
        nlev = nz + 1
        # size the arrays only once the file is known to hold exactly them
        n_blocks = 3 * nlev + (2 if flags & FLAG_Z_RHO else 1)
        expected = _HEADER.size + 8 * nx * ny * n_blocks
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise SnapshotError(
                f"truncated snapshot: header ({nx},{ny},{nz}) implies "
                f"{expected} bytes, file has {size}"
            )
        if size > expected:
            raise SnapshotError("snapshot has trailing bytes past the field blocks")

        def block(shape, what):
            n = int(np.prod(shape))
            raw = _read_exact(fh, 8 * n, what)
            return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

        # v1, v2, T in file order are the state's fields
        fields = block((3, nx, ny, nlev), "v1, v2, T")
        rho = block((nx, ny), "rho")
        z_rho = None
        if flags & FLAG_Z_RHO:
            z_rho = block((nx, ny), "Z_rho")
    state = State(fields, t=t, step=0)
    if rho.tobytes() != state.rho.tobytes():
        raise SnapshotError(
            "snapshot rho block is not the top level of T (max|T(.,1) - rho| = "
            f"{np.abs(state.rho - rho).max():.3e})")
    return state, z_rho
