"""Campaign hot path: batched channel/decoder vs. the per-frame loop.

The acceptance bar for the Monte Carlo campaign engine: at 1000 frames
the batched path (2-D mask sampling, sparse position decode through the
precomputed two-stage permutation) must be >= 5x faster than the
per-frame ``run_frame`` loop while producing bit-identical results
(equality is asserted here on the full aggregate, and per-field in
``tests/channel/test_batched_channel.py``).

The speedup grows as frames shrink: per-frame overhead is fixed per
frame while the batched cost is dominated by the RNG stream, which both
paths must consume identically.  The assertion therefore runs on the
campaign's small default cell (triangle 15); larger cells are reported
in ``extra_info``.

A second gate isolates the channel stage: on the default grid's
largest frame, the sparse fade-span sampler behind
``error_positions`` must be >= 3x faster than scanning the dense
``error_masks`` batch, while returning the same positions and leaving
the generator in the same state.
"""

import math
import time

import numpy as np
import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottChannel, GilbertElliottParams
from repro.interleaver.two_stage import TwoStageConfig
from repro.system.campaign import campaign_grid, run_campaign
from repro.system.downlink import OpticalDownlink

FRAMES = 1000
CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)
#: Densest channel of the default campaign grid (0.8 % of symbols in
#: fades, mean fade 90 symbols): the sparse sampler's worst default case.
DENSEST_CHANNEL = GilbertElliottParams(p_g2b=0.008 / 0.992 / 90.0,
                                       p_b2g=1 / 90.0, p_bad=0.7)
#: Largest default frame: triangle 48 -> 1176 elements x 4 symbols.
LARGEST_FRAME_SYMBOLS = 4704
SAMPLER_CHUNKS = 8
SAMPLER_REQUIRED_SPEEDUP = 3.0


def _downlink(triangle_n, seed=3):
    return OpticalDownlink(
        TwoStageConfig(triangle_n=triangle_n, symbols_per_element=4,
                       codeword_symbols=24),
        CODE,
        CHANNEL,
        rng=np.random.default_rng(seed),
    )


def _best_of(make_runner, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        runner = make_runner()
        start = time.perf_counter()
        result = runner()
        best = min(best, time.perf_counter() - start)
    return best, result


def _interleaved_best(sides, rounds=3):
    """Best wall-clock per side: a warmup round, then interleaved rounds.

    Same pattern as ``bench_controller``: every timed round runs all
    sides back to back, so host noise degrades whole rounds rather than
    one contender, and the best round per side discards it.
    """
    for fn in sides:
        fn()
    best = [math.inf] * len(sides)
    for _ in range(rounds):
        for k, fn in enumerate(sides):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def _sampler_pass(sparse):
    """``SAMPLER_CHUNKS`` campaign-sized chunks of the largest frame."""
    channel = GilbertElliottChannel(DENSEST_CHANNEL, np.random.default_rng(3))
    chunks = []
    for _ in range(SAMPLER_CHUNKS):
        if sparse:
            chunks.append(channel.error_positions(
                LARGEST_FRAME_SYMBOLS, OpticalDownlink.BATCH_FRAMES))
        else:
            chunks.append(np.nonzero(channel.error_masks(
                LARGEST_FRAME_SYMBOLS, OpticalDownlink.BATCH_FRAMES)))
    return chunks, channel.rng.bit_generator.state


@pytest.mark.paper_artifact("campaign hot path speedup")
def test_batched_channel_speedup(benchmark):
    speedups = {}
    for triangle_n in (15, 32, 48):
        per_frame_s, reference = _best_of(
            lambda n=triangle_n: lambda: _downlink(n).run(FRAMES))
        batched_s, outcome = _best_of(
            lambda n=triangle_n: lambda: _downlink(n).run_batched(FRAMES))
        assert outcome == reference, "batched path must be bit-identical"
        speedups[triangle_n] = per_frame_s / batched_s
        benchmark.extra_info[f"per_frame_ms_n{triangle_n}"] = round(
            per_frame_s * 1e3, 1)
        benchmark.extra_info[f"batched_ms_n{triangle_n}"] = round(
            batched_s * 1e3, 1)
        benchmark.extra_info[f"speedup_n{triangle_n}"] = round(
            speedups[triangle_n], 1)

    # Time the asserted configuration once more under the harness.
    benchmark.pedantic(_downlink(15).run_batched, args=(FRAMES,),
                       rounds=1, iterations=1)
    if not benchmark.disabled:  # smoke runs only check for rot, not timing
        assert speedups[15] >= 5.0, (
            f"batched path only {speedups[15]:.1f}x faster at 1000 frames; "
            f"all: { {n: round(s, 1) for n, s in speedups.items()} }"
        )


@pytest.mark.paper_artifact("campaign channel sampler speedup")
def test_sparse_fade_sampler_speedup(benchmark):
    """error_positions vs np.nonzero(error_masks(...)) on the largest frame."""
    sparse_chunks, sparse_state = _sampler_pass(True)
    dense_chunks, dense_state = _sampler_pass(False)
    assert sparse_state == dense_state, "generator must end in the same state"
    for (frames_s, symbols_s), (frames_d, symbols_d) in zip(sparse_chunks,
                                                            dense_chunks):
        assert np.array_equal(frames_s, frames_d)
        assert np.array_equal(symbols_s, symbols_d)
    benchmark.extra_info["error_symbols"] = sum(
        chunk[0].size for chunk in sparse_chunks)
    benchmark.pedantic(_sampler_pass, args=(True,), rounds=1, iterations=1)
    if benchmark.disabled:  # smoke runs only check for rot, not timing
        return

    sparse_s, dense_s = _interleaved_best(
        (lambda: _sampler_pass(True), lambda: _sampler_pass(False)))
    speedup = dense_s / sparse_s
    benchmark.extra_info["sparse_ms"] = round(sparse_s * 1e3, 2)
    benchmark.extra_info["dense_ms"] = round(dense_s * 1e3, 2)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= SAMPLER_REQUIRED_SPEEDUP, (
        f"sparse fade sampler only {speedup:.1f}x faster than the dense scan")


@pytest.mark.paper_artifact("campaign throughput")
def test_campaign_100_cells(benchmark):
    """A >= 100-cell campaign (the CLI acceptance grid) end to end."""
    channels = [
        GilbertElliottParams(p_g2b=fraction / (1 - fraction) / length,
                             p_b2g=1.0 / length, p_bad=0.7)
        for length in (40.0, 60.0, 90.0)
        for fraction in (0.002, 0.004, 0.008)
    ]
    interleavers = [
        TwoStageConfig(triangle_n=n, symbols_per_element=4, codeword_symbols=24)
        for n in (15, 32)
    ]
    cells = campaign_grid(channels, interleavers, [CODE], range(6), frames=200)
    assert len(cells) >= 100
    results = benchmark.pedantic(run_campaign, args=(cells,),
                                 rounds=1, iterations=1)
    benchmark.extra_info["cells"] = len(results)
    benchmark.extra_info["frames"] = sum(r.cell.frames for r in results)
    benchmark.extra_info["codewords"] = sum(r.codewords for r in results)
    failed = sum(r.failed_interleaved for r in results)
    benchmark.extra_info["pooled_interleaved_cwer"] = round(
        failed / sum(r.codewords for r in results), 6)
    assert len(results) == len(cells)
