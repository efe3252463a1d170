"""Differential tests: the batched channel/decoder path is bit-identical
to the per-frame path (the channel-side mirror of
``tests/integration/test_vectorized_equivalence.py``).

Every test runs two generators from the same seed — one through the
scalar per-frame API, one through the 2-D batch API — and requires
exact equality: same RNG consumption order, same masks, same
``DecodingReport`` fields, same aggregate ``DownlinkResult``.
"""

import numpy as np
import pytest

from repro.channel.burst_stats import (
    burst_profile,
    errors_per_codeword,
    errors_per_codeword_frames,
    frame_burst_profiles,
)
from repro.channel import _samplerc
from repro.channel.codeword import CodewordConfig, decode_mask, decode_masks
from repro.channel.gilbert_elliott import (
    BAD,
    GilbertElliottChannel,
    GilbertElliottParams,
)
from repro.interleaver.two_stage import TwoStageConfig, TwoStageInterleaver
from repro.system.downlink import OpticalDownlink

# >= 20 seeded parameter sets spanning sparse/dense fades, short/long
# dwells, clean and noisy good states.
PARAM_SETS = [
    (seed, GilbertElliottParams(p_g2b=p_g2b, p_b2g=p_b2g,
                                p_bad=p_bad, p_good=p_good))
    for seed, p_g2b, p_b2g, p_bad, p_good in [
        (101, 6.7e-5, 1 / 60.0, 0.7, 0.0),
        (102, 6.7e-5, 1 / 60.0, 0.7, 0.001),
        (103, 2.7e-5, 1 / 150.0, 0.5, 0.0),
        (104, 1.0e-3, 1 / 20.0, 0.9, 0.0),
        (105, 1.0e-3, 1 / 20.0, 0.9, 0.01),
        (106, 0.01, 0.1, 0.6, 0.0),
        (107, 0.01, 0.1, 0.6, 0.05),
        (108, 0.05, 0.5, 0.5, 0.0),
        (109, 0.2, 0.3, 0.8, 0.0),
        (110, 0.5, 0.5, 1.0, 0.0),
        (111, 1.0, 1.0, 0.7, 0.0),
        (112, 1e-6, 1e-4, 0.7, 0.0),
        (113, 1e-4, 1e-3, 0.3, 0.0),
        (114, 3e-4, 1 / 90.0, 0.7, 0.0),
        (115, 3e-4, 1 / 90.0, 0.7, 0.002),
        (116, 5e-5, 1 / 40.0, 0.7, 0.0),
        (117, 5e-5, 1 / 40.0, 0.4, 0.0),
        (118, 2e-4, 1 / 75.0, 0.95, 0.0),
        (119, 8e-4, 1 / 30.0, 0.7, 0.1),
        (120, 1e-3, 1 / 500.0, 0.7, 0.0),
        (121, 0.1, 0.05, 0.7, 0.0),
        (122, 6.7e-5, 1 / 60.0, 0.0, 0.0),
    ]
]
PARAM_IDS = [f"seed{seed}" for seed, _ in PARAM_SETS]


def _channel_pair(seed, params):
    return (GilbertElliottChannel(params, np.random.default_rng(seed)),
            GilbertElliottChannel(params, np.random.default_rng(seed)))


class TestChannelMasks:
    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_state_masks_match_sequential(self, seed, params):
        batched, sequential = _channel_pair(seed, params)
        got = batched.state_masks(257, 9)
        expected = np.stack([sequential.state_mask(257) for _ in range(9)])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_error_masks_match_sequential(self, seed, params):
        batched, sequential = _channel_pair(seed, params)
        got = batched.error_masks(311, 8)
        expected = np.stack([sequential.error_mask(311) for _ in range(8)])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_error_positions_match_masks(self, seed, params):
        batched, sequential = _channel_pair(seed, params)
        frame_idx, sym_idx = batched.error_positions(311, 8)
        expected = np.nonzero(
            np.stack([sequential.error_mask(311) for _ in range(8)]))
        assert np.array_equal(frame_idx, expected[0])
        assert np.array_equal(sym_idx, expected[1])

    def test_state_continues_across_batches(self):
        params = GilbertElliottParams(p_g2b=1e-3, p_b2g=1 / 200.0, p_bad=0.7)
        batched, sequential = _channel_pair(7, params)
        first = batched.error_masks(100, 3)
        second = batched.error_masks(100, 3)
        expected = np.stack([sequential.error_mask(100) for _ in range(6)])
        assert np.array_equal(np.vstack([first, second]), expected)

    def test_zero_frames_and_zero_count(self):
        params = GilbertElliottParams(p_g2b=0.01, p_b2g=0.1)
        channel = GilbertElliottChannel(params, np.random.default_rng(0))
        assert channel.error_masks(10, 0).shape == (0, 10)
        assert channel.error_masks(0, 4).shape == (4, 0)

    def test_rejects_negative_arguments(self):
        params = GilbertElliottParams(p_g2b=0.01, p_b2g=0.1)
        channel = GilbertElliottChannel(params, np.random.default_rng(0))
        with pytest.raises(ValueError):
            channel.error_masks(-1, 3)
        with pytest.raises(ValueError):
            channel.state_masks(5, -2)


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


def _sparse_dense_twins(params, seed, bit_generator=np.random.PCG64):
    return tuple(
        GilbertElliottChannel(params, np.random.Generator(bit_generator(seed)))
        for _ in range(2))


def _same_state(left, right):
    """Deep equality of ``bit_generator.state`` dicts (some hold arrays)."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _same_state(left[key], right[key]) for key in left)
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def _assert_sparse_matches_dense(sparse, dense, count, frames):
    frame_idx, sym_idx = sparse.error_positions(count, frames)
    expected = np.nonzero(dense.error_masks(count, frames))
    assert np.array_equal(frame_idx, expected[0])
    assert np.array_equal(sym_idx, expected[1])
    assert frame_idx.dtype == expected[0].dtype
    assert sym_idx.dtype == expected[1].dtype
    assert _same_state(sparse.rng.bit_generator.state,
                       dense.rng.bit_generator.state)
    return frame_idx, sym_idx


class TestSparseFadeSampling:
    """error_positions' fade-span path against the dense mask oracle.

    With ``p_good == 0`` the sparse path draws uniforms only inside
    fades and jumps (PCG64) or draws and discards (everything else)
    over the rest; positions *and* the generator state afterwards must
    match ``np.nonzero(error_masks(...))`` on a twin generator.
    """

    SPARSE = GilbertElliottParams(p_g2b=6.7e-5, p_b2g=1 / 60.0, p_bad=0.7)
    DENSE_FADES = GilbertElliottParams(p_g2b=0.01, p_b2g=0.1, p_bad=0.6)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                             ids=lambda g: g.__name__)
    @pytest.mark.parametrize("params", [SPARSE, DENSE_FADES],
                             ids=["sparse", "dense"])
    def test_bit_generators(self, bit_generator, params):
        sparse, dense = _sparse_dense_twins(params, 11, bit_generator)
        for count, frames in ((4704, 16), (311, 8), (1, 40)):
            _assert_sparse_matches_dense(sparse, dense, count, frames)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                             ids=lambda g: g.__name__)
    def test_largest_campaign_frame(self, bit_generator):
        # n=48 two-stage frame: 1176 elements x 4 symbols, one full chunk.
        sparse, dense = _sparse_dense_twins(self.SPARSE, 3, bit_generator)
        frame_idx, _ = _assert_sparse_matches_dense(sparse, dense, 4704, 128)
        assert frame_idx.size > 0

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.integers(0, 7, size=3, dtype=np.uint16),
        lambda rng: rng.integers(0, 1 << 20, dtype=np.uint32),
        lambda rng: rng.integers(0, 7, size=4, dtype=np.uint8),
    ], ids=["uint16x3", "uint32", "uint8x4"])
    def test_pcg64_with_buffered_half(self, draw):
        sparse, dense = _sparse_dense_twins(self.DENSE_FADES, 5)
        draw(sparse.rng)
        draw(dense.rng)
        _assert_sparse_matches_dense(sparse, dense, 500, 12)
        # The buffered half survives the call and feeds the next draw.
        assert np.array_equal(sparse.rng.integers(0, 1000, 5, dtype=np.uint16),
                              dense.rng.integers(0, 1000, 5, dtype=np.uint16))
        _assert_sparse_matches_dense(sparse, dense, 500, 12)

    def test_after_corrupt(self):
        sparse, dense = _sparse_dense_twins(self.DENSE_FADES, 9)
        symbols = np.zeros(37, dtype=np.uint8)
        assert np.array_equal(sparse.corrupt(symbols), dense.corrupt(symbols))
        _assert_sparse_matches_dense(sparse, dense, 300, 10)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64],
                             ids=lambda g: g.__name__)
    def test_fades_cross_frame_and_batch_boundaries(self, bit_generator):
        # Mean fade 500 symbols over 64-symbol frames: fades span many
        # frames and the uneven chunks cut through them.
        params = GilbertElliottParams(p_g2b=1e-3, p_b2g=1 / 500.0, p_bad=0.7)
        sparse, dense = _sparse_dense_twins(params, 21, bit_generator)
        hit_frames = 0
        for frames in (3, 5, 1, 7, 16, 2, 40):
            frame_idx, _ = _assert_sparse_matches_dense(
                sparse, dense, 64, frames)
            hit_frames += np.unique(frame_idx).size
        assert hit_frames > 20

    @pytest.mark.parametrize("p_g2b,p_b2g", [
        (0.5, 1.0), (1.0, 1.0), (1 / 3, 1.0), (0.4, 0.5), (0.9, 0.05)])
    def test_geometric_search_branch(self, p_g2b, p_b2g):
        # NumPy draws geometrics with p >= 1/3 by sequential search
        # (a variable number of uniforms per dwell).
        params = GilbertElliottParams(p_g2b=p_g2b, p_b2g=p_b2g, p_bad=0.5)
        sparse, dense = _sparse_dense_twins(params, 4)
        for _ in range(3):
            _assert_sparse_matches_dense(sparse, dense, 97, 6)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox],
                             ids=lambda g: g.__name__)
    def test_alternating_entry_points(self, bit_generator):
        channel, oracle = _sparse_dense_twins(self.DENSE_FADES, 13,
                                              bit_generator)
        for step in range(6):
            if step % 2:
                assert np.array_equal(channel.error_masks(211, 5),
                                      oracle.error_masks(211, 5))
            else:
                _assert_sparse_matches_dense(channel, oracle, 211, 5)
        assert channel._state == oracle._state

    @pytest.mark.parametrize("count,frames", [(0, 4), (10, 0), (0, 0)])
    def test_empty_batches(self, count, frames):
        sparse, dense = _sparse_dense_twins(self.DENSE_FADES, 2)
        frame_idx, sym_idx = _assert_sparse_matches_dense(
            sparse, dense, count, frames)
        assert frame_idx.size == sym_idx.size == 0

    def test_rejects_negative_arguments(self):
        channel = GilbertElliottChannel(self.SPARSE, np.random.default_rng(0))
        with pytest.raises(ValueError):
            channel.error_positions(-1, 3)
        with pytest.raises(ValueError):
            channel.error_positions(5, -2)


@pytest.fixture
def native_sampler():
    """Skip unless the compiled channel sampler loads (CI asserts it)."""
    if not _samplerc.available():
        pytest.skip("native channel sampler unavailable")


@pytest.fixture
def python_loop(monkeypatch):
    """``python_loop(fn)`` runs ``fn()`` with the native sampler forced off."""
    def run(fn):
        with monkeypatch.context() as forced:
            forced.setattr(_samplerc, "load", lambda: None)
            return fn()
    return run


@pytest.fixture
def native_calls(monkeypatch):
    """Count the compiled sampler's calls (one per batch, plus regrowths)."""
    real = _samplerc.load()
    calls = []

    def counting(*args):
        result = real(*args)
        calls.append(result)
        return result

    monkeypatch.setattr(_samplerc, "load", lambda: counting)
    return calls


@pytest.mark.usefixtures("native_sampler")
class TestNativeSampler:
    """The compiled sparse sampler against the Python dwell loop.

    Twin PCG64 channels from one seed: one samples natively, the other
    runs ``error_positions``' Python loop with the native path forced
    off.  Positions, dtypes, ``bit_generator.state`` (buffered 32-bit
    half included) and the chain state must all be equal.
    """

    SPARSE = TestSparseFadeSampling.SPARSE
    DENSE_FADES = TestSparseFadeSampling.DENSE_FADES

    @staticmethod
    def _twins(params, seed, state=None):
        twins = _channel_pair(seed, params)
        if state is not None:
            for channel in twins:
                channel._state = state
        return twins

    @staticmethod
    def _assert_same(native, oracle, python_loop, count, frames):
        got = native.error_positions(count, frames)
        expected = python_loop(lambda: oracle.error_positions(count, frames))
        for left, right in zip(got, expected):
            assert np.array_equal(left, right)
            assert left.dtype == right.dtype
        assert _same_state(native.rng.bit_generator.state,
                           oracle.rng.bit_generator.state)
        assert native._state == oracle._state
        return got

    @pytest.mark.parametrize("seed,params", [
        (seed, params) for seed, params in PARAM_SETS
        if params.p_good == 0.0], ids=lambda v: getattr(v, "p_g2b", v))
    def test_fresh_generator(self, seed, params, python_loop):
        native, oracle = self._twins(params, seed)
        for count, frames in ((4704, 16), (311, 8), (1, 40), (64, 33)):
            self._assert_same(native, oracle, python_loop, count, frames)

    def test_largest_campaign_frame_is_one_call(self, python_loop,
                                                native_calls):
        native, oracle = self._twins(self.SPARSE, 3)
        frame_idx, _ = self._assert_same(native, oracle, python_loop,
                                         4704, 128)
        assert frame_idx.size > 0
        assert native_calls == [128]

    @pytest.mark.parametrize("draw,buffered", [
        (lambda rng: rng.integers(0, 7, size=3, dtype=np.uint16), 0),
        (lambda rng: rng.integers(0, 1 << 20, dtype=np.uint32), 1),
        (lambda rng: rng.integers(0, 7, size=4, dtype=np.uint8), 1),
    ], ids=["uint16x3", "uint32", "uint8x4"])
    def test_buffered_half(self, draw, buffered, python_loop):
        native, oracle = self._twins(self.DENSE_FADES, 5)
        draw(native.rng)
        draw(oracle.rng)
        assert native.rng.bit_generator.state["has_uint32"] == buffered
        self._assert_same(native, oracle, python_loop, 500, 12)
        # The buffered half survives the call and feeds the next draw.
        assert np.array_equal(native.rng.integers(0, 1000, 5, dtype=np.uint16),
                              oracle.rng.integers(0, 1000, 5, dtype=np.uint16))
        self._assert_same(native, oracle, python_loop, 500, 12)

    def test_after_corrupt(self, python_loop):
        native, oracle = self._twins(self.DENSE_FADES, 9)
        symbols = np.zeros(37, dtype=np.uint8)
        assert np.array_equal(native.corrupt(symbols),
                              python_loop(lambda: oracle.corrupt(symbols)))
        self._assert_same(native, oracle, python_loop, 300, 10)

    @pytest.mark.parametrize("p_g2b,p_b2g", [
        (0.5, 1.0), (1.0, 1.0), (1 / 3, 1.0), (0.4, 0.5), (0.9, 0.05),
        (0.01, 1.0)])
    def test_search_branch_and_dwells_ending_at_the_frame_end(
            self, p_g2b, p_b2g, python_loop):
        # p >= 1/3 draws by sequential search; p_b2g = 1 makes one-symbol
        # fades, and p = 1 dwells end exactly at the frame end.
        params = GilbertElliottParams(p_g2b=p_g2b, p_b2g=p_b2g, p_bad=0.5)
        native, oracle = self._twins(params, 4)
        for count in (97, 1, 2, 64):
            self._assert_same(native, oracle, python_loop, count, 6)

    @pytest.mark.parametrize("p_g2b", [1e-18, 1e-300])
    def test_huge_dwell_does_not_overflow(self, p_g2b, python_loop):
        # The good dwell after the first fade is ~1e18 symbols (1e-18) or
        # clamped to INT64_MAX (1e-300) while the position is past 0.
        params = GilbertElliottParams(p_g2b=p_g2b, p_b2g=0.05, p_bad=0.7)
        native, oracle = self._twins(params, 6, state=BAD)
        frame_idx, _ = self._assert_same(native, oracle, python_loop, 64, 5)
        assert frame_idx.size > 0
        self._assert_same(native, oracle, python_loop, 64, 5)
        assert native._state != BAD

    def test_fades_cross_frame_and_batch_boundaries(self, python_loop):
        # Mean fade 500 symbols over 64-symbol frames: fades span many
        # frames and the uneven batches cut through them.
        params = GilbertElliottParams(p_g2b=1e-3, p_b2g=1 / 500.0, p_bad=0.7)
        native, oracle = self._twins(params, 21)
        hit_frames = 0
        for frames in (3, 5, 1, 7, 16, 2, 40):
            frame_idx, _ = self._assert_same(native, oracle, python_loop,
                                             64, frames)
            hit_frames += np.unique(frame_idx).size
        assert hit_frames > 20

    def test_hits_beyond_the_estimate_regrow_the_buffer(self, python_loop,
                                                        native_calls):
        # Expected hits are ~0, but the chain starts in a fade of mean
        # 10,000 symbols: every frame is hit and the buffer must regrow.
        params = GilbertElliottParams(p_g2b=1e-9, p_b2g=1e-4, p_bad=0.9)
        native, oracle = self._twins(params, 8, state=BAD)
        frame_idx, _ = self._assert_same(native, oracle, python_loop,
                                         100, 40)
        assert frame_idx.size > 1000
        assert len(native_calls) > 1
        assert native_calls[-1] == 40

    @pytest.mark.parametrize("count,frames", [(0, 4), (10, 0), (0, 0)])
    def test_empty_batches(self, count, frames, python_loop):
        native, oracle = self._twins(self.DENSE_FADES, 2)
        frame_idx, sym_idx = self._assert_same(native, oracle, python_loop,
                                               count, frames)
        assert frame_idx.size == sym_idx.size == 0
        self._assert_same(native, oracle, python_loop, 50, 3)

    def test_alternating_entry_points(self, python_loop):
        native, oracle = self._twins(self.DENSE_FADES, 13)
        for step in range(9):
            if step % 3 == 1:
                assert np.array_equal(native.error_masks(211, 5),
                                      oracle.error_masks(211, 5))
            elif step % 3 == 2:
                assert np.array_equal(native.state_masks(211, 4),
                                      oracle.state_masks(211, 4))
            else:
                self._assert_same(native, oracle, python_loop, 211, 5)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS[1:],
                             ids=lambda g: g.__name__)
    def test_other_bit_generators_take_the_python_loop(self, bit_generator,
                                                       monkeypatch):
        monkeypatch.setattr(_samplerc, "load", lambda: pytest.fail(
            f"{bit_generator.__name__} must not reach the native sampler"))
        sparse, dense = _sparse_dense_twins(self.DENSE_FADES, 17,
                                            bit_generator)
        _assert_sparse_matches_dense(sparse, dense, 311, 8)

    def test_default_campaign_cells(self, python_loop):
        from repro.store.jobs import grid_from_spec
        from repro.system.campaign import evaluate_cell

        grid = grid_from_spec({})
        assert len(grid) == 162
        native = [evaluate_cell(cell) for cell in grid]
        forced = python_loop(lambda: [evaluate_cell(cell) for cell in grid])
        assert native == forced


class TestBatchedDecoding:
    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_decode_masks_match_per_frame(self, seed, params):
        channel = GilbertElliottChannel(params, np.random.default_rng(seed))
        masks = channel.error_masks(312, 6)
        config = CodewordConfig(n_symbols=24, t_correctable=2)
        batched = decode_masks(masks, config)
        expected = [decode_mask(row, config) for row in masks]
        assert batched == expected

    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_errors_per_codeword_frames_match(self, seed, params):
        channel = GilbertElliottChannel(params, np.random.default_rng(seed))
        masks = channel.error_masks(310, 5)  # 310 = 12*25 + 10: partial tail
        got = errors_per_codeword_frames(masks, 25)
        expected = np.stack([errors_per_codeword(row, 25) for row in masks])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_frame_burst_profiles_match(self, seed, params):
        channel = GilbertElliottChannel(params, np.random.default_rng(seed))
        masks = channel.error_masks(311, 7)
        got = frame_burst_profiles(masks)
        expected = [burst_profile(row) for row in masks]
        assert got == expected

    def test_empty_and_full_masks(self):
        config = CodewordConfig(n_symbols=8, t_correctable=1)
        empty = np.zeros((3, 32), dtype=bool)
        full = np.ones((3, 32), dtype=bool)
        for masks in (empty, full):
            assert decode_masks(masks, config) == [
                decode_mask(row, config) for row in masks]
            assert frame_burst_profiles(masks) == [
                burst_profile(row) for row in masks]


class TestBatchedTwoStage:
    CONFIGS = [
        TwoStageConfig(triangle_n=8, symbols_per_element=4, codeword_symbols=36),
        TwoStageConfig(triangle_n=15, symbols_per_element=4, codeword_symbols=24),
        TwoStageConfig(triangle_n=3, symbols_per_element=1, codeword_symbols=6),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: f"n{c.triangle_n}")
    def test_frames_methods_match_per_frame(self, config):
        interleaver = TwoStageInterleaver(config)
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 255, size=(6, interleaver.frame_symbols),
                              dtype=np.uint8)
        batched = interleaver.interleave_frames(frames)
        expected = np.stack([interleaver.interleave(row) for row in frames])
        assert np.array_equal(batched, expected)
        back = interleaver.deinterleave_frames(batched)
        assert np.array_equal(back, frames)

    def test_permutation_realizes_interleave(self):
        interleaver = TwoStageInterleaver(self.CONFIGS[0])
        data = np.random.default_rng(2).integers(
            0, 1000, size=interleaver.frame_symbols)
        assert np.array_equal(interleaver.interleave(data),
                              data[interleaver.permutation()])
        assert np.array_equal(interleaver.deinterleave(data),
                              data[interleaver.inverse_permutation()])

    def test_frames_shape_check(self):
        interleaver = TwoStageInterleaver(self.CONFIGS[0])
        with pytest.raises(ValueError, match="last axis"):
            interleaver.interleave_frames(np.zeros((2, 3)))


class TestBatchedDownlink:
    """run_batched == run, the end-to-end differential guarantee."""

    SCENARIOS = [
        (seed, n, p_good)
        for seed in (1, 7, 99, 2024)
        for n in (15, 32, 48)
        for p_good in (0.0, 0.004)
    ]

    @staticmethod
    def _downlink(seed, n, p_good):
        return OpticalDownlink(
            TwoStageConfig(triangle_n=n, symbols_per_element=4,
                           codeword_symbols=24),
            CodewordConfig(n_symbols=24, t_correctable=2),
            GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                                 p_bad=0.7, p_good=p_good),
            rng=np.random.default_rng(seed),
        )

    @pytest.mark.parametrize("seed,n,p_good", SCENARIOS)
    def test_run_batched_equals_run(self, seed, n, p_good):
        reference = self._downlink(seed, n, p_good).run(40)
        batched = self._downlink(seed, n, p_good).run_batched(40)
        assert batched == reference

    def test_chunking_does_not_change_results(self):
        reference = self._downlink(3, 32, 0.0).run_batched(50, batch_frames=50)
        for batch_frames in (1, 7, 16, 49, 128):
            assert self._downlink(3, 32, 0.0).run_batched(
                50, batch_frames=batch_frames) == reference

    def test_run_batched_rejects_bad_arguments(self):
        downlink = self._downlink(0, 15, 0.0)
        with pytest.raises(ValueError):
            downlink.run_batched(0)
        with pytest.raises(ValueError):
            downlink.run_batched(10, batch_frames=0)
