import io
import random

import numpy as np

from normgroups.bitset import Bitmap


def test_basic_set_test():
    bm = Bitmap(100)
    assert not bm.test(5)
    bm.set_batch(np.array([5], dtype=np.int64))
    assert bm.test(5)
    assert not bm.test(4) and not bm.test(6)
    bm.set_batch(np.array([5], dtype=np.int64))
    assert bm.test(5)
    assert bm.popcount() == 1


def test_batch_ops_match_reference():
    # batches with repeats, and strictly ascending ones (every other
    # batch, and an empty one), which set_batch ORs in one run per byte
    rng = random.Random(3)
    nbits = 1000
    bm = Bitmap(nbits)
    ref = set()
    for i in range(21):
        idx = np.array([rng.randrange(nbits) for _ in range(50 if i < 20 else 0)], dtype=np.int64)
        if i % 2:
            idx = np.unique(idx)
        got = bm.test_batch(idx)
        assert got.tolist() == [i in ref for i in idx.tolist()]
        bm.set_batch(idx)
        ref.update(idx.tolist())
        assert bm.popcount() == len(ref)
    unset = bm.filter_unset(np.arange(nbits))
    assert set(unset.tolist()) == set(range(nbits)) - ref


def test_duplicate_byte_indices_all_stick():
    bm = Bitmap(64)
    # bits 0..7 share one byte; a plain fancy-index |= would lose most of them
    bm.set_batch(np.arange(8, dtype=np.int64))
    assert all(bm.test(i) for i in range(8))
    assert bm.popcount() == 8


def test_next_unset_scans():
    nbits = 70000
    bm = Bitmap(nbits)
    assert bm.next_unset(0) == 0
    bm.set_batch(np.arange(nbits, dtype=np.int64))
    assert bm.next_unset(0) is None
    bm2 = Bitmap(nbits)
    bm2.set_batch(np.arange(65536, dtype=np.int64))
    assert bm2.next_unset(0) == 65536
    assert bm2.next_unset(65540) == 65540
    assert bm2.next_unset(nbits - 1) == nbits - 1
    assert bm2.next_unset(nbits) is None


def test_next_unset_within_partial_byte():
    bm = Bitmap(16)
    bm.set_batch(np.array([9], dtype=np.int64))
    assert bm.next_unset(9) == 10
    assert bm.next_unset(8) == 8


def test_padding_never_counted():
    bm = Bitmap(13)
    assert bm.popcount() == 0
    bm.set_batch(np.arange(13, dtype=np.int64))
    assert bm.popcount() == 13
    assert bm.next_unset() is None


def test_serialization_roundtrip():
    rng = random.Random(9)
    bm = Bitmap(999)
    bm.set_batch(np.array([rng.randrange(999) for _ in range(200)], dtype=np.int64))
    back = Bitmap(999)
    assert back.readinto(io.BytesIO(bm.tobytes()))
    assert back.popcount() == bm.popcount()
    assert np.array_equal(back.data, bm.data)
    # a short or a long input is refused
    assert not Bitmap(999).readinto(io.BytesIO(bm.tobytes()[:-1]))
    assert not Bitmap(999).readinto(io.BytesIO(bm.tobytes() + b"\0"))
