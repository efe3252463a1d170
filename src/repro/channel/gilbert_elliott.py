"""Gilbert–Elliott burst-error channel.

Free-space optical downlinks from LEO satellites suffer long error
bursts: atmospheric scintillation fades the received power for spans
on the order of the channel coherence time (> 2 ms, i.e. hundreds of
kilobits at 100 Gbit/s).  The standard tractable model for such a
channel is the two-state Gilbert–Elliott Markov chain:

* **good** state: symbols are hit independently with probability
  ``p_good`` (near zero);
* **bad** state (deep fade): symbols are hit with probability
  ``p_bad`` (large);
* per-symbol transition probabilities ``p_g2b`` and ``p_b2g`` set the
  expected fade spacing (``1/p_g2b``) and fade duration (``1/p_b2g``).

The chain's stationary bad-state probability and average symbol error
rate are exposed in closed form for test cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.channel import _samplerc

GOOD = 0
BAD = 1


@dataclass(frozen=True)
class GilbertElliottParams:
    """Channel parameters.

    Attributes:
        p_g2b: per-symbol probability of entering a fade.
        p_b2g: per-symbol probability of leaving a fade (mean fade
            length is ``1 / p_b2g`` symbols).
        p_bad: symbol error probability inside a fade.
        p_good: symbol error probability outside fades.
    """

    p_g2b: float
    p_b2g: float
    p_bad: float = 0.5
    p_good: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_g2b", "p_b2g"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name in ("p_bad", "p_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def stationary_bad(self) -> float:
        """Stationary probability of the bad state."""
        return self.p_g2b / (self.p_g2b + self.p_b2g)

    @property
    def mean_fade_symbols(self) -> float:
        """Expected fade duration in symbols."""
        return 1.0 / self.p_b2g

    @property
    def mean_gap_symbols(self) -> float:
        """Expected good-state run length in symbols."""
        return 1.0 / self.p_g2b

    @property
    def average_symbol_error_rate(self) -> float:
        """Long-run symbol error probability."""
        bad = self.stationary_bad
        return bad * self.p_bad + (1.0 - bad) * self.p_good


def coherence_params(
    symbols_per_coherence_time: float,
    fade_fraction: float,
    p_bad: float = 0.5,
    p_good: float = 0.0,
) -> GilbertElliottParams:
    """Derive chain parameters from physical link numbers.

    Args:
        symbols_per_coherence_time: mean fade duration in symbols
            (channel coherence time x symbol rate; the paper quotes
            > 2 ms coherence at > 100 Gbit/s).
        fade_fraction: long-run fraction of time spent in a fade.
        p_bad: symbol error probability inside fades.
        p_good: symbol error probability outside fades.
    """
    if symbols_per_coherence_time <= 1.0:
        raise ValueError("coherence time must exceed one symbol")
    if not 0.0 < fade_fraction < 1.0:
        raise ValueError(f"fade_fraction must be in (0, 1), got {fade_fraction}")
    p_b2g = 1.0 / symbols_per_coherence_time
    # stationary_bad = p_g2b / (p_g2b + p_b2g) = fade_fraction
    p_g2b = fade_fraction * p_b2g / (1.0 - fade_fraction)
    return GilbertElliottParams(p_g2b=p_g2b, p_b2g=p_b2g, p_bad=p_bad, p_good=p_good)


class GilbertElliottChannel:
    """Samples error masks from the Gilbert–Elliott chain.

    The state sequence is generated vectorized: state dwell times are
    geometric, so the chain is simulated as alternating geometric run
    lengths rather than per-symbol coin flips.
    """

    def __init__(self, params: GilbertElliottParams,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.params = params
        self.rng = rng or np.random.default_rng()
        self._state = BAD if self.rng.random() < params.stationary_bad else GOOD
        self._batch_buffers: Optional[Tuple[Tuple[int, int], NDArray[np.bool_], NDArray[np.float64]]] = None  # (shape, fades, draws) scratch reuse
        self._native = _samplerc.NativeSampler()

    def _fade_runs(self, count: int, runs: List[Tuple[int, int]]) -> None:
        """Advance the chain over one frame and record its fades.

        ``runs`` is cleared and refilled with the frame's fade runs as
        half-open ``(start, end)`` symbol spans in ascending order.

        This is the sampling core of every Python entry point: the draw
        order (one geometric per dwell, truncated dwells redrawn next
        frame) is part of the reproducibility contract.  The native
        sampler of :mod:`repro.channel._samplerc` runs a C port of this
        loop, held to it by a differential battery that compares
        positions and generator state bit for bit.
        """
        del runs[:]
        params = self.params
        geometric = self.rng.geometric
        position = 0
        state = self._state
        while position < count:
            run = geometric(params.p_b2g if state == BAD else params.p_g2b)
            end = position + run
            if state == BAD:
                runs.append((position, min(end, count)))
            if end > count:
                # Dwell continues into the next call.
                break
            position = end
            state = BAD if state == GOOD else GOOD
        self._state = state

    def _fill_state_row(self, row: NDArray[np.bool_],
                        runs: List[Tuple[int, int]]) -> None:
        """Fill ``row`` with one frame's fade mask, advancing the chain."""
        self._fade_runs(row.size, runs)
        row[:] = False
        for start, end in runs:
            row[start:end] = True

    def state_mask(self, count: int) -> NDArray[np.bool_]:
        """Boolean array: ``True`` where the channel is in a fade."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        mask = np.empty(count, dtype=bool)
        self._fill_state_row(mask, [])
        return mask

    def state_masks(self, count: int, frames: int) -> NDArray[np.bool_]:
        """Fade masks for ``frames`` consecutive frames, shape ``(frames, count)``.

        Row ``f`` is bit-identical to the ``f``-th sequential
        :meth:`state_mask` call on the same generator state: the chain
        (and its dwell carry-over) continues across rows exactly as it
        does across calls.
        """
        _check_batch(count, frames)
        masks = np.empty((frames, count), dtype=bool)
        runs: List[Tuple[int, int]] = []
        for f in range(frames):
            self._fill_state_row(masks[f], runs)
        return masks

    def error_mask(self, count: int) -> NDArray[np.bool_]:
        """Boolean array: ``True`` where a symbol is corrupted."""
        params = self.params
        fades = self.state_mask(count)
        draws = self.rng.random(count)
        probabilities = np.where(fades, params.p_bad, params.p_good)
        errors: NDArray[np.bool_] = draws < probabilities
        return errors

    def _sample_batch(
            self, count: int,
            frames: int) -> Tuple[NDArray[np.bool_], NDArray[np.float64]]:
        """Dense fade masks and uniform draws for a frame batch.

        RNG consumption is frame-sequential — geometric dwells, then the
        frame's uniforms, identical to per-frame :meth:`error_mask`
        calls — which is what makes the batched entry points
        bit-identical to the scalar ones.
        """
        _check_batch(count, frames)
        # Scratch buffers are reused across same-shaped batches (the
        # chunk loop of a campaign cell): refilling warm pages is much
        # cheaper than faulting in fresh ones every chunk.  They never
        # escape — every public entry point returns derived arrays.
        shape = (frames, count)
        if self._batch_buffers is None or self._batch_buffers[0] != shape:
            self._batch_buffers = (
                shape,
                np.empty(shape, dtype=bool),
                np.empty(shape, dtype=np.float64),
            )
        _, fades, draws = self._batch_buffers
        runs: List[Tuple[int, int]] = []
        for f in range(frames):
            self._fill_state_row(fades[f], runs)
            if count:
                self.rng.random(out=draws[f])
        return fades, draws

    def _combine_errors(self, fades: NDArray[np.bool_],
                        draws: NDArray[np.float64]) -> NDArray[np.bool_]:
        """Error mask from fade mask + uniforms, in boolean space.

        Same predicate as error_mask's ``draws < where(fades, p_bad,
        p_good)``, but combined without the float64 probability array —
        that would be the largest temporary of the whole batch, an 8x
        wider memory stream than the bool masks.
        """
        params = self.params
        errors = np.less(draws, params.p_bad)
        errors &= fades
        if params.p_good > 0.0:
            good_hits = np.less(draws, params.p_good)
            good_hits &= ~fades
            errors |= good_hits
        return errors

    def error_masks(self, count: int, frames: int) -> NDArray[np.bool_]:
        """Error masks for ``frames`` consecutive frames, shape ``(frames, count)``.

        The batched form of :meth:`error_mask`: row ``f`` is
        bit-identical to the ``f``-th sequential :meth:`error_mask` call
        from the same generator state (property-tested in
        ``tests/channel/test_batched_channel.py``), while the threshold
        comparison runs once over the whole 2-D batch.
        """
        fades, draws = self._sample_batch(count, frames)
        return self._combine_errors(fades, draws)

    def error_positions(
            self, count: int,
            frames: int) -> Tuple[NDArray[Any], NDArray[Any]]:
        """Sparse coordinates of corrupted symbols across a frame batch.

        Returns ``(frame_idx, sym_idx)`` arrays in row-major order,
        exactly ``np.nonzero(self.error_masks(count, frames))`` from the
        same generator state, which ends in the same state too.  This is
        the campaign engine's channel entry point.

        When ``p_good == 0`` only symbols inside a fade can be hit, so
        the batch is never built densely: each frame's fade runs come
        from the dwell sampler, uniforms are drawn only inside them, and
        the generator is moved past the uniforms of every stretch
        between fades without producing them.  The per-symbol cost then
        scales with the fade fraction, not with the frame length.

        On a PCG64 generator (the campaign's ``default_rng``) the whole
        batch is one call into the compiled sampler of
        :mod:`repro.channel._samplerc`.  Without it (no C compiler, no
        NumPy ``libnpyrandom.a``) and on other bit generators the same
        walk runs in Python, frame by frame: a PCG64 ``advance`` jump
        over each gap, or a draw-and-discard into a scratch row for
        other generators and for a PCG64 holding a buffered 32-bit
        half.  Both give the same positions and end state.
        """
        params = self.params
        if params.p_good > 0.0:
            frame_idx, sym_idx = np.nonzero(
                self._combine_errors(*self._sample_batch(count, frames)))
            return frame_idx, sym_idx
        _check_batch(count, frames)
        native = self._native.positions(
            self.rng.bit_generator, self._state, params.p_g2b, params.p_b2g,
            params.p_bad, count, frames)
        if native is not None:
            frame_idx, sym_idx, self._state = native
            return frame_idx, sym_idx
        skip = _uniform_skipper(self.rng, count)
        random = self.rng.random
        runs: List[Tuple[int, int]] = []
        span_frames: List[int] = []
        span_starts: List[int] = []
        span_lengths: List[int] = []
        draws: List[NDArray[np.float64]] = []
        for f in range(frames):
            self._fade_runs(count, runs)
            position = 0
            for start, end in runs:
                if start > position:
                    skip(start - position)
                draws.append(random(end - start))
                span_frames.append(f)
                span_starts.append(start)
                span_lengths.append(end - start)
                position = end
            if count > position:
                skip(count - position)
        if not draws:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        starts = np.array(span_starts, dtype=np.intp)
        lengths = np.array(span_lengths, dtype=np.intp)
        # Fade symbols packed span after span: packed index k of span s
        # is symbol k - packed_start[s] + starts[s] of frame span_frames[s].
        packed_starts = np.cumsum(lengths) - lengths
        frame_idx = np.repeat(np.array(span_frames, dtype=np.intp), lengths)
        sym_idx = np.arange(packed_starts[-1] + lengths[-1], dtype=np.intp)
        sym_idx += np.repeat(starts - packed_starts, lengths)
        hits = np.concatenate(draws) < params.p_bad
        return frame_idx[hits], sym_idx[hits]

    def corrupt(self, symbols: NDArray[Any],
                bits_per_symbol: int = 3) -> NDArray[Any]:
        """Apply the channel to a symbol stream.

        Corrupted symbols are XOR-flipped with a uniformly random
        non-zero pattern, guaranteeing the symbol value changes.

        Raises:
            ValueError: if ``bits_per_symbol`` is below 1 or wider than
                the symbol dtype (a flip pattern would not fit a symbol).
        """
        if bits_per_symbol < 1:
            raise ValueError(f"bits_per_symbol must be >= 1, got {bits_per_symbol}")
        flip_dtype = symbols.dtype if symbols.dtype.kind == "u" else np.dtype(np.uint16)
        width = min(8 * symbols.dtype.itemsize, 8 * flip_dtype.itemsize)
        if bits_per_symbol > width:
            raise ValueError(
                f"bits_per_symbol={bits_per_symbol} is wider than the "
                f"{width}-bit {symbols.dtype} symbols")
        mask = self.error_mask(symbols.size)
        flips = self.rng.integers(1, 1 << bits_per_symbol, size=symbols.size,
                                  dtype=flip_dtype)
        corrupted = symbols.copy()
        corrupted[mask] ^= flips[mask]
        return corrupted


def _check_batch(count: int, frames: int) -> None:
    """Reject negative batch dimensions."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if frames < 0:
        raise ValueError(f"frames must be >= 0, got {frames}")


def _uniform_skipper(rng: np.random.Generator,
                     count: int) -> Callable[[int], Any]:
    """Return ``skip(n)``, which moves ``rng`` past ``n`` uniforms of at most ``count``.

    After ``skip(n)`` the generator is in exactly the state
    ``rng.random(n)`` would leave it in.  On PCG64 one float64 uniform
    is one 64-bit step, so ``skip`` is the O(log n) jump
    ``bit_generator.advance``.  That jump also clears the buffered
    32-bit half a narrow integer draw may leave behind (``has_uint32``
    and ``uinteger``), so a generator holding one — like any other bit
    generator, whose ``advance`` (where it has one) counts different
    units — draws the uniforms into a reused scratch row and discards
    them instead.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is np.random.PCG64:
        state = bit_generator.state
        if not (state["has_uint32"] or state["uinteger"]):
            return bit_generator.advance
    scratch = np.empty(count, dtype=np.float64)
    random = rng.random

    def discard(n: int) -> None:
        random(out=scratch[:n])

    return discard
