"""Packed bit array over integer-encoded states.

Backs the visited sets for conjugacy-orbit sweeps and semigroup
closures: one bit per possible encoding, so membership and batch
marking stay cheap even at 9**9 states (about 46 MiB).

Bit i lives in byte i >> 3 at position i & 7.  Padding bits past nbits
are kept set so scans and popcounts never see them.
"""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_LOWEST_ZERO = np.array(
    [next((b for b in range(8) if not (i >> b) & 1), 8) for i in range(256)],
    dtype=np.uint8,
)
_SCAN_CHUNK = 1 << 16


class Bitmap:
    """Fixed-size bit array with vectorized batch operations."""

    __slots__ = ("nbits", "data")

    def __init__(self, nbits: int):
        if nbits < 1:
            raise ValueError("nbits must be positive")
        self.nbits = nbits
        self.data = np.zeros((nbits + 7) // 8, dtype=np.uint8)
        self._set_padding()

    def _set_padding(self) -> None:
        extra = self.data.shape[0] * 8 - self.nbits
        if extra:
            mask = (0xFF << (8 - extra)) & 0xFF
            self.data[-1] |= mask

    def test(self, i: int) -> bool:
        return bool(self.data[i >> 3] & (1 << (i & 7)))

    def test_batch(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return (self.data[idx >> 3] & (np.uint8(1) << (idx & 7).astype(np.uint8))) != 0

    def set_batch(self, idx: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        byte, bit = idx >> 3, np.uint8(1) << (idx & 7).astype(np.uint8)
        if not (idx[1:] > idx[:-1]).all():
            # bitwise_or.at handles duplicate byte indices, plain |= would drop them
            np.bitwise_or.at(self.data, byte, bit)
        elif idx.size:
            # strictly ascending: each byte index is one run, ORed in once
            first = np.empty(idx.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(byte[1:], byte[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            self.data[byte[starts]] |= np.bitwise_or.reduceat(bit, starts)

    def filter_unset(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return idx[~self.test_batch(idx)]

    def popcount(self) -> int:
        # a chunk at a time, so the byte counts never take a copy of the bitmap
        total = sum(
            int(_POPCOUNT8[self.data[i : i + _SCAN_CHUNK]].sum(dtype=np.int64))
            for i in range(0, self.data.shape[0], _SCAN_CHUNK)
        )
        return total - (self.data.shape[0] * 8 - self.nbits)

    # the sweep walk calls this past a fully marked span of candidates
    def next_unset(self, start: int = 0) -> int | None:
        """Least unset bit index >= start, or None."""
        if start >= self.nbits:
            return None
        byte = start >> 3
        # partial leading byte: mask off bits below start
        first = int(self.data[byte]) | ((1 << (start & 7)) - 1)
        if first != 0xFF:
            return (byte << 3) + int(_LOWEST_ZERO[first])
        byte += 1
        n = self.data.shape[0]
        while byte < n:
            end = min(byte + _SCAN_CHUNK, n)
            window = self.data[byte:end]
            holes = np.flatnonzero(window != 0xFF)
            if holes.size:
                b = byte + int(holes[0])
                return (b << 3) + int(_LOWEST_ZERO[self.data[b]])
            byte = end
        return None

    def tobytes(self) -> bytes:
        return self.data.tobytes()

    def readinto(self, fh: BinaryIO) -> bool:
        """Read the bytes tobytes wrote from fh into this bitmap, in place.

        True when fh held exactly the bitmap's length from its position on.
        """
        exact = fh.readinto(self.data) == self.data.shape[0] and not fh.read(1)
        self._set_padding()
        return exact

    def __len__(self) -> int:
        return self.nbits
