"""The vectorized CRC/hash kernels are bit-exact vs the scalar engine.

The scalar :class:`~repro.switch.crc.CrcEngine` is the reference
semantics; :mod:`repro.kernels.crc` must agree for every Rocksoft
parameter set (width <= 64, refin/refout, init/xorout) and every batch
shape, because the translator's vector lanes place bytes in remote
memory at the addresses these hashes pick.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")
import numpy as np

from repro.kernels import crc as kcrc
from repro.switch import crc as scrc

BATCH_SIZES = (1, 7, 64, 1000)

keys = st.binary(min_size=0, max_size=48)
key_lists = st.lists(keys, min_size=1, max_size=80)


@st.composite
def random_polys(draw) -> scrc.CrcPoly:
    width = draw(st.integers(min_value=3, max_value=64))
    mask = (1 << width) - 1
    poly = draw(st.integers(min_value=1, max_value=mask)) | 1
    return scrc.CrcPoly(
        width=width, poly=poly,
        init=draw(st.integers(min_value=0, max_value=mask)),
        refin=draw(st.booleans()), refout=draw(st.booleans()),
        xorout=draw(st.integers(min_value=0, max_value=mask)))


def assert_crc_many_matches(poly: scrc.CrcPoly, batch: list) -> None:
    engine = scrc.CrcEngine(poly)
    packed, lengths = kcrc.pack_keys(batch)
    got = kcrc.crc_many(poly, packed, lengths)
    expected = [engine.compute(key) for key in batch]
    assert [int(v) for v in got] == expected


class TestCrcMany:
    @pytest.mark.parametrize("poly", [
        scrc.CRC32, scrc.CRC32C, scrc.CRC16, scrc.CRC16_CCITT,
        scrc.CRC64_XZ,
    ])
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_standard_polynomials(self, poly, n):
        rng = np.random.default_rng(7 * n + poly.width)
        batch = [bytes(rng.integers(0, 256, size=int(length),
                                    dtype=np.uint8))
                 for length in rng.integers(0, 48, size=n)]
        assert_crc_many_matches(poly, batch)

    @given(random_polys(), key_lists)
    @settings(max_examples=60, deadline=None)
    def test_random_polynomials(self, poly, batch):
        assert_crc_many_matches(poly, batch)

    @given(key_lists, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_seeded_engine(self, batch, seed):
        engine = scrc.CrcEngine(scrc.CRC32, seed=seed)
        packed, lengths = kcrc.pack_keys(batch)
        got = kcrc.crc_many(scrc.CRC32, packed, lengths, seed=seed)
        assert [int(v) for v in got] == [engine.compute(k) for k in batch]

    def test_compute_many_entrypoint_both_paths(self):
        engine = scrc.CrcEngine(scrc.CRC16_CCITT)
        batch = [bytes([i] * (i % 9)) for i in range(64)]
        expected = [engine.compute(key) for key in batch]
        for keys in (batch, batch[:2]):
            packed, lengths = kcrc.pack_keys(keys)
            got = kcrc.crc_many(scrc.CRC16_CCITT, packed, lengths)
            assert [int(v) for v in got] == expected[:len(keys)]


class TestHashLanes:
    @pytest.mark.parametrize("width_bits", [16, 32, 48, 64])
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_lanes_match_hash_family(self, width_bits, n):
        rng = np.random.default_rng(width_bits + n)
        batch = [bytes(rng.integers(0, 256, size=int(length),
                                    dtype=np.uint8))
                 for length in rng.integers(1, 32, size=n)]
        depth = 5
        fns = scrc.hash_family(depth, width_bits=width_bits)
        packed, lengths = kcrc.pack_keys(batch)
        lanes = kcrc.hash_lanes(depth, packed, lengths,
                                width_bits=width_bits)
        assert lanes.shape == (depth, n)
        for lane, fn in enumerate(fns):
            assert [int(v) for v in lanes[lane]] == \
                [fn(key) for key in batch]

    @given(key_lists, st.integers(min_value=0, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_single_lane_offsets(self, batch, start):
        fn = scrc.hash_family(start + 1)[start]
        packed, lengths = kcrc.pack_keys(batch)
        (got,) = kcrc.hash_lanes_at((start,), packed, lengths)
        assert [int(v) for v in got] == [fn(key) for key in batch]


    @pytest.mark.parametrize("width_bits", [16, 32, 64])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 16])
    def test_equal_length_keys_of_any_width(self, width_bits, length):
        # Equal-length batches skip the per-key length mask; the scalar
        # family is the oracle.
        rng = np.random.default_rng(length)
        batch = [bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
                 for _ in range(33)]
        lanes = kcrc.hash_lanes_at((0, 3, 17), *kcrc.pack_keys(batch),
                                   width_bits)
        for lane, index in zip(lanes, (0, 3, 17)):
            fn = scrc.hash_family(index + 1, width_bits=width_bits)[index]
            assert lane.tolist() == [fn(key) for key in batch]

    @given(key_lists, st.sampled_from([8, 32, 48]),
           st.lists(st.integers(0, 120), min_size=1, max_size=7,
                    unique=True))
    @settings(max_examples=60, deadline=None)
    def test_byte_strings_hash_like_the_packed_matrix(self, batch,
                                                      width_bits, indices):
        # ``lengths=None``: the keys themselves, one zlib call each and
        # the other lanes by linearity — ragged and equal lengths alike.
        packed = kcrc.hash_lanes_at(indices, *kcrc.pack_keys(batch),
                                    width_bits)
        direct = kcrc.hash_lanes_at(indices, batch, None, width_bits)
        assert direct.dtype == packed.dtype
        assert direct.tolist() == packed.tolist()

    def test_hash_input_packs_only_large_batches(self):
        few = [bytes([i]) * 4 for i in range(kcrc.PACK_ABOVE)]
        assert kcrc.hash_input(few) == (few, None)
        many = few + [b"more"]
        packed, lengths = kcrc.hash_input(many)
        assert packed.shape == (len(many), 4)
        assert kcrc.hash_lanes(2, packed, lengths).tolist() \
            == kcrc.hash_lanes(2, many).tolist()


class TestPackKeys:
    def test_pad_to_shorter_than_longest_rejected(self):
        with pytest.raises(ValueError):
            kcrc.pack_keys([b"abcdef"], pad_to=3)

    def test_lengths_and_padding(self):
        packed, lengths = kcrc.pack_keys([b"ab", b"", b"abcd"], pad_to=6)
        assert packed.shape == (3, 6)
        assert list(lengths) == [2, 0, 4]
        assert bytes(packed[0]) == b"ab\x00\x00\x00\x00"
        assert bytes(packed[2]) == b"abcd\x00\x00"
