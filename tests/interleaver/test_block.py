"""Functional block interleavers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interleaver.block import BlockInterleaver, TriangularInterleaver
from repro.interleaver.stream import sequential_symbols


class TestBlockInterleaver:
    def test_frame_size(self):
        assert BlockInterleaver(4, 6).frame_symbols == 24

    def test_rows_columns_semantics(self):
        """Write row-wise, read column-wise: 2x3 example by hand."""
        interleaver = BlockInterleaver(2, 3)
        frame = np.array([0, 1, 2, 10, 11, 12])
        out = interleaver.interleave(frame)
        assert out.tolist() == [0, 10, 1, 11, 2, 12]

    def test_identity_roundtrip(self):
        interleaver = BlockInterleaver(8, 16)
        frame = sequential_symbols(interleaver.frame_symbols)
        recovered = interleaver.deinterleave(interleaver.interleave(frame))
        assert np.array_equal(recovered, frame)

    def test_rejects_wrong_size(self):
        interleaver = BlockInterleaver(4, 4)
        with pytest.raises(ValueError):
            interleaver.interleave(np.zeros(15, dtype=np.uint16))

    def test_batched_frames(self):
        interleaver = BlockInterleaver(3, 5)
        frames = np.arange(30).reshape(2, 15)
        out = interleaver.interleave(frames)
        assert out.shape == (2, 15)
        assert np.array_equal(interleaver.deinterleave(out), frames)

    def test_permutation_is_bijection(self):
        interleaver = BlockInterleaver(7, 9)
        perm = interleaver.permutation()
        assert sorted(perm.tolist()) == list(range(63))

    def test_consecutive_outputs_from_distinct_rows(self):
        """The SRAM-stage property: any `rows` consecutive outputs hit
        `rows` different input rows (code words)."""
        rows, cols = 8, 12
        interleaver = BlockInterleaver(rows, cols)
        row_of_input = np.repeat(np.arange(rows), cols)
        out = interleaver.interleave(row_of_input)
        for start in range(0, rows * cols, rows):
            window = out[start:start + rows]
            assert len(set(window.tolist())) == rows

    @settings(max_examples=20, deadline=None)
    @given(rows=st.integers(2, 12), cols=st.integers(2, 12), seed=st.integers(0, 2**31))
    def test_property_roundtrip(self, rows, cols, seed):
        interleaver = BlockInterleaver(rows, cols)
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 8, size=rows * cols, dtype=np.uint16)
        assert np.array_equal(
            interleaver.deinterleave(interleaver.interleave(frame)), frame
        )


class TestTriangularInterleaver:
    def test_frame_size(self):
        assert TriangularInterleaver(10).frame_symbols == 55

    def test_identity_roundtrip(self):
        interleaver = TriangularInterleaver(32)
        frame = sequential_symbols(interleaver.frame_symbols)
        recovered = interleaver.deinterleave(interleaver.interleave(frame))
        assert np.array_equal(recovered, frame)

    def test_hand_example_n3(self):
        """Triangle n=3: write (0,0)(0,1)(0,2)(1,0)(1,1)(2,0), read
        column-wise (0,0)(1,0)(2,0)(0,1)(1,1)(0,2)."""
        interleaver = TriangularInterleaver(3)
        frame = np.array([0, 1, 2, 3, 4, 5])
        assert interleaver.interleave(frame).tolist() == [0, 3, 5, 1, 4, 2]

    def test_permutation_bijection(self):
        interleaver = TriangularInterleaver(17)
        assert sorted(interleaver.permutation().tolist()) == list(range(153))

    def test_burst_dispersion(self):
        """A run of n consecutive channel symbols lands in n different
        input rows: the triangular property that spreads fades."""
        n = 16
        interleaver = TriangularInterleaver(n)
        # Tag every input symbol with its row index.
        from repro.interleaver.triangular import TriangularIndexSpace
        space = TriangularIndexSpace(n)
        row_tag = np.array([i for i, j in space.write_order()])
        out = interleaver.interleave(row_tag)
        # Any window of up-to-n consecutive *output* symbols within one
        # column of the triangle touches distinct rows.
        start = 0
        for j in range(n):
            height = space.col_length(j)
            window = out[start:start + height]
            assert len(set(window.tolist())) == height
            start += height

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**31))
    def test_property_roundtrip(self, n, seed):
        interleaver = TriangularInterleaver(n)
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 8, size=interleaver.frame_symbols, dtype=np.uint16)
        assert np.array_equal(
            interleaver.deinterleave(interleaver.interleave(frame)), frame
        )


def _permutation_by_walking_orders(space):
    """Reference: look every read-order cell up in a write-order dict."""
    write_slot = {cell: slot for slot, cell in enumerate(space.write_order())}
    return np.array([write_slot[cell] for cell in space.read_order()],
                    dtype=np.int64)


class TestPermutationMatchesOrders:
    """The columnar permutation build equals the per-cell order walk."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 32, 48, 101])
    def test_triangular(self, n):
        from repro.interleaver.triangular import TriangularIndexSpace
        expected = _permutation_by_walking_orders(TriangularIndexSpace(n))
        perm = TriangularInterleaver(n).permutation()
        assert perm.dtype == np.int64
        assert np.array_equal(perm, expected)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 9), (9, 1), (2, 3),
                                           (4, 24), (13, 7)])
    def test_block(self, rows, cols):
        from repro.interleaver.triangular import RectangularIndexSpace
        expected = _permutation_by_walking_orders(
            RectangularIndexSpace(rows, cols))
        perm = BlockInterleaver(rows, cols).permutation()
        assert perm.dtype == np.int64
        assert np.array_equal(perm, expected)
