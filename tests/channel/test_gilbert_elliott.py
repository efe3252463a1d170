"""Gilbert–Elliott channel statistics."""

import numpy as np
import pytest

from repro.channel.gilbert_elliott import (
    GilbertElliottChannel,
    GilbertElliottParams,
    coherence_params,
)


class TestParams:
    def test_stationary_distribution(self):
        params = GilbertElliottParams(p_g2b=0.01, p_b2g=0.09)
        assert params.stationary_bad == pytest.approx(0.1)

    def test_mean_durations(self):
        params = GilbertElliottParams(p_g2b=0.001, p_b2g=0.01)
        assert params.mean_fade_symbols == pytest.approx(100.0)
        assert params.mean_gap_symbols == pytest.approx(1000.0)

    def test_average_error_rate(self):
        params = GilbertElliottParams(p_g2b=0.01, p_b2g=0.09, p_bad=0.5, p_good=0.0)
        assert params.average_symbol_error_rate == pytest.approx(0.05)

    @pytest.mark.parametrize("field,value", [
        ("p_g2b", 0.0), ("p_g2b", 1.5), ("p_b2g", -0.1),
        ("p_bad", 1.0001), ("p_good", -0.5),
    ])
    def test_rejects_bad_probabilities(self, field, value):
        kwargs = dict(p_g2b=0.01, p_b2g=0.1, p_bad=0.5, p_good=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            GilbertElliottParams(**kwargs)


class TestCoherenceParams:
    def test_fade_length(self):
        params = coherence_params(symbols_per_coherence_time=500, fade_fraction=0.05)
        assert params.mean_fade_symbols == pytest.approx(500.0)
        assert params.stationary_bad == pytest.approx(0.05)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            coherence_params(0.5, 0.1)
        with pytest.raises(ValueError):
            coherence_params(100, 0.0)
        with pytest.raises(ValueError):
            coherence_params(100, 1.0)


class TestChannelSampling:
    def _channel(self, seed=1, **kwargs):
        defaults = dict(p_g2b=0.002, p_b2g=0.02, p_bad=0.5, p_good=0.0)
        defaults.update(kwargs)
        return GilbertElliottChannel(GilbertElliottParams(**defaults),
                                     rng=np.random.default_rng(seed))

    def test_mask_shape(self):
        assert self._channel().state_mask(1000).shape == (1000,)

    def test_empirical_bad_fraction(self):
        channel = self._channel()
        mask = channel.state_mask(400_000)
        expected = channel.params.stationary_bad
        assert mask.mean() == pytest.approx(expected, rel=0.25)

    def test_empirical_fade_length(self):
        channel = self._channel()
        mask = channel.state_mask(400_000)
        padded = np.concatenate(([False], mask, [False]))
        changes = np.flatnonzero(padded[1:] != padded[:-1])
        lengths = changes[1::2] - changes[0::2]
        assert lengths.mean() == pytest.approx(channel.params.mean_fade_symbols, rel=0.25)

    def test_errors_only_in_fades_when_good_is_clean(self):
        channel = self._channel()
        fades = channel.state_mask(50_000)
        channel2 = self._channel()
        errors = channel2.error_mask(50_000)
        # Same seed: fades align; with p_good=0 every error is in a fade.
        assert not (errors & ~fades).any()

    def test_state_continuity_across_calls(self):
        """A fade spanning two calls is not cut at the boundary."""
        channel = self._channel(seed=3, p_g2b=0.5, p_b2g=0.001)
        first = channel.state_mask(100)
        second = channel.state_mask(100)
        joined = np.concatenate([first, second])
        # With mean fade 1000 symbols the chain is almost surely in a
        # fade at the boundary of the two calls.
        assert joined[99] == joined[100]

    def test_error_rate_matches_closed_form(self):
        channel = self._channel(p_bad=0.4)
        mask = channel.error_mask(400_000)
        expected = channel.params.average_symbol_error_rate
        assert mask.mean() == pytest.approx(expected, rel=0.3)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            self._channel().state_mask(-1)


class TestCorrupt:
    def test_corrupted_symbols_change(self):
        channel = GilbertElliottChannel(
            GilbertElliottParams(p_g2b=0.9, p_b2g=0.1, p_bad=1.0),
            rng=np.random.default_rng(5),
        )
        symbols = np.zeros(1000, dtype=np.uint16)
        corrupted = channel.corrupt(symbols, bits_per_symbol=3)
        changed = corrupted != symbols
        assert changed.sum() > 500
        assert corrupted[changed].min() >= 1
        assert corrupted.max() < 8

    def test_clean_channel_is_identity(self):
        channel = GilbertElliottChannel(
            GilbertElliottParams(p_g2b=0.001, p_b2g=1.0, p_bad=0.0, p_good=0.0),
            rng=np.random.default_rng(5),
        )
        symbols = np.arange(100, dtype=np.uint16) % 8
        assert np.array_equal(channel.corrupt(symbols), symbols)

    def test_rejects_bad_width(self):
        channel = GilbertElliottChannel(
            GilbertElliottParams(p_g2b=0.1, p_b2g=0.1))
        with pytest.raises(ValueError):
            channel.corrupt(np.zeros(10, dtype=np.uint16), bits_per_symbol=0)

    @pytest.mark.parametrize("dtype,bits", [
        (np.uint8, 9), (np.int8, 9), (np.uint16, 17), (np.int64, 17)])
    def test_rejects_width_beyond_symbol_dtype(self, dtype, bits):
        rng = np.random.default_rng(5)
        channel = GilbertElliottChannel(
            GilbertElliottParams(p_g2b=0.1, p_b2g=0.1), rng=rng)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="wider than the"):
            channel.corrupt(np.zeros(10, dtype=dtype), bits_per_symbol=bits)
        assert rng.bit_generator.state == before  # rejected before any draw

    @pytest.mark.parametrize("dtype,bits", [
        (np.uint8, 8), (np.int8, 8), (np.uint16, 16), (np.int64, 16)])
    def test_accepts_full_symbol_width(self, dtype, bits):
        channel = GilbertElliottChannel(
            GilbertElliottParams(p_g2b=0.9, p_b2g=0.1, p_bad=1.0),
            rng=np.random.default_rng(5))
        symbols = np.zeros(200, dtype=dtype)
        corrupted = channel.corrupt(symbols, bits_per_symbol=bits)
        assert corrupted.dtype == symbols.dtype
        assert (corrupted != symbols).sum() > 100
