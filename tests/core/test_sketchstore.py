"""Sketch store: column-major layout and reads."""

import pytest

from repro.rdma.memory import ProtectionDomain
from repro.core.stores.sketchstore import SketchLayout, SketchStore
from repro.switch.crc import hash_family


def make_store(width=16, depth=4):
    probe = SketchLayout(base_addr=0, width=width, depth=depth)
    pd = ProtectionDomain()
    region = pd.register(probe.region_bytes)
    layout = SketchLayout(base_addr=region.addr, width=width, depth=depth)
    return SketchStore(region, layout)


class TestLayout:
    def test_column_addressing(self):
        layout = SketchLayout(base_addr=100, width=8, depth=4)
        assert layout.column_addr(0) == 100
        assert layout.column_addr(3) == 100 + 3 * 16

    def test_column_bounds(self):
        layout = SketchLayout(base_addr=0, width=8, depth=4)
        with pytest.raises(IndexError):
            layout.column_addr(8)

    def test_encode_columns_contiguous(self):
        layout = SketchLayout(base_addr=0, width=8, depth=2)
        payload = layout.encode_columns([(1, 2), (3, 4)])
        assert payload == b"\x00\x00\x00\x01\x00\x00\x00\x02" \
                          b"\x00\x00\x00\x03\x00\x00\x00\x04"

    def test_encode_depth_mismatch_rejected(self):
        layout = SketchLayout(base_addr=0, width=8, depth=2)
        with pytest.raises(ValueError):
            layout.encode_columns([(1, 2, 3)])

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            SketchLayout(base_addr=0, width=0, depth=1)


class TestReads:
    def test_column_roundtrip(self):
        store = make_store(width=4, depth=3)
        payload = store.layout.encode_columns([(7, 8, 9)])
        store.region.local_write(2 * store.layout.column_bytes, payload)
        assert store.column(2) == (7, 8, 9)

    def test_matrix_shape(self):
        store = make_store(width=4, depth=3)
        matrix = store.matrix()
        assert len(matrix) == 3
        assert all(len(row) == 4 for row in matrix)

    def test_point_query_is_row_minimum(self):
        store = make_store(width=8, depth=2)
        hashes = hash_family(2)
        key = b"flow"
        cols = [hashes[0](key) % 8, hashes[1](key) % 8]
        # Row 0 counter = 5, row 1 counter = 3 -> estimate 3.
        for row, (col, value) in enumerate(zip(cols, (5, 3))):
            offset = col * store.layout.column_bytes + row * 4
            store.region.local_write(offset,
                                     value.to_bytes(4, "big"))
        assert store.point_query(key, hashes) == 3

    def test_counters_view_equals_the_per_column_unpack(self):
        """``counters()`` is the region seen through a dtype; the loop
        over :meth:`column` is what ``matrix()`` used to be."""
        import random

        store = make_store(width=37, depth=5)
        rng = random.Random(7)
        store.region.local_write(
            0, bytes(rng.randrange(256)
                     for _ in range(store.layout.region_bytes)))
        unpacked = [[] for _ in range(store.layout.depth)]
        for j in range(store.layout.width):
            for r, value in enumerate(store.column(j)):
                unpacked[r].append(value)
        counters = store.counters()
        assert counters.shape == (37, 5)
        assert counters.T.tolist() == unpacked == store.matrix()
        assert all(type(value) is int
                   for row in store.matrix() for value in row)
        # A view, not a copy: a later write shows through.
        store.region.local_write(0, (0xDEADBEEF).to_bytes(4, "big"))
        assert int(counters[0, 0]) == 0xDEADBEEF

    def test_point_query_reads_cells_not_the_matrix(self, monkeypatch):
        store = make_store(width=8, depth=3)
        hashes = hash_family(3)
        key = b"flow"
        for row, value in enumerate((9, 4, 6)):
            offset = ((hashes[row](key) % 8) * store.layout.column_bytes
                      + row * 4)
            store.region.local_write(offset, value.to_bytes(4, "big"))
        monkeypatch.setattr(
            store, "matrix",
            lambda: pytest.fail("point_query rebuilt the matrix"))
        estimate = store.point_query(key, hashes)
        assert estimate == 4 and type(estimate) is int
        # A shorter family probes only its rows, as zip always did.
        assert store.point_query(key, hashes[:1]) == 9
