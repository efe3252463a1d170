"""Native sparse sampler behind ``GilbertElliottChannel.error_positions``.

With ``p_good == 0`` only symbols inside a fade can be hit, so
:meth:`~repro.channel.gilbert_elliott.GilbertElliottChannel.error_positions`
walks each frame's fade spans instead of building the dense batch.  In
Python that walk costs a few microseconds per frame even when the frame
holds no fade, which is most frames.  This module runs the whole frame
batch in one C call: the dwell draws of ``_fade_runs``, the uniforms
inside each fade compared with ``p_bad``, the generator jumps over the
stretches between fades, and the emission of the hit coordinates.

The result is bit-identical to the Python loop, generator state
included, by construction rather than by a second implementation of the
distributions:

* the C side implements PCG64 itself (the 128-bit LCG step, the XSL-RR
  output, ``next_double = (next64 >> 11) * 2**-53`` and the O(log n)
  LCG jump), wraps it in NumPy's public ``bitgen_t`` and calls NumPy's
  own ``random_geometric`` from ``numpy/random/lib/libnpyrandom.a``,
  the function ``Generator.geometric`` calls;
* the state moves in and out through the public
  ``bit_generator.state`` dict (``state``, ``inc``, ``has_uint32``,
  ``uinteger``);
* a jump over ``n`` uniforms is ``n`` LCG steps and leaves the buffered
  32-bit half untouched.  That is what the Python path does for every
  PCG64 state: with a buffered half it draws and discards the uniforms,
  which keeps the half, and with a clear buffer ``advance`` has nothing
  to clear;
* a dwell ends inside the frame when ``run <= count - position``,
  never ``position + run <= count``: ``random_geometric`` returns up to
  ``INT64_MAX`` for tiny ``p``, so the sum could overflow.

The object is built and cached by :mod:`repro._native`; its name hashes
the source, the archive's path and the NumPy version, so a NumPy upgrade
can never load an object linked against the old ``random_geometric``.
:meth:`NativeSampler.positions` returns ``None`` (and the caller runs the
Python loop, which stays the differential oracle) when the generator is
not PCG64, when there is no C compiler or no ``libnpyrandom.a``, or on
a platform whose ``intp`` is not 64 bits wide.
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Callable, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro._native import NativeFunction

SOURCE = r"""
#include <stdint.h>

/* NumPy's public bit-generator interface (numpy/random/bitgen.h).  It is
 * declared here rather than included because NumPy's headers pull in
 * Python.h. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* From libnpyrandom.a: the sampler behind Generator.geometric. */
int64_t random_geometric(bitgen_t *bitgen_state, double p);

typedef unsigned __int128 u128;

typedef struct {
    u128 state;
    u128 inc;
    uint64_t has_uint32;
    uint64_t uinteger;
} pcg64_t;

#define PCG_MULT ((((u128)0x2360ED051FC65DA4ULL) << 64) | 0x4385DF649FCCF645ULL)
#define BAD 1
/* Jumps read their step count in hex digits: at most 16 for 64 bits. */
#define DIGITS 16

/* An affine map of the LCG state: state -> mult * state + plus.  Every
 * run of steps is one, and runs compose in any order. */
typedef struct {
    u128 mult;
    u128 plus;
} map_t;

static inline u128 apply(map_t map, u128 state) {
    return map.mult * state + map.plus;
}

static inline map_t compose(map_t outer, map_t inner) {
    map_t map = {outer.mult * inner.mult, outer.mult * inner.plus + outer.plus};
    return map;
}

/* PCG64's XSL-RR output of a state. */
static inline uint64_t output(u128 state) {
    uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

static inline double uniform(u128 state) {
    return (double)(output(state) >> 11) * (1.0 / 9007199254740992.0);
}

static inline uint64_t pcg_next64(pcg64_t *rng) {
    rng->state = rng->state * PCG_MULT + rng->inc;
    return output(rng->state);
}

static uint64_t next_uint64(void *st) { return pcg_next64((pcg64_t *)st); }

static double next_double(void *st) {
    pcg64_t *rng = (pcg64_t *)st;
    rng->state = rng->state * PCG_MULT + rng->inc;
    return uniform(rng->state);
}

static uint32_t next_uint32(void *st) {
    pcg64_t *rng = (pcg64_t *)st;
    uint64_t next;
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return (uint32_t)rng->uinteger;
    }
    next = pcg_next64(rng);
    rng->has_uint32 = 1;
    rng->uinteger = next >> 32;
    return (uint32_t)next;
}

/* jumps[w][d] = the map of d * 16**w steps, for every hex digit of a
 * step count up to `limit`. */
static void build_jumps(map_t jumps[][16], u128 inc, uint64_t limit) {
    map_t unit = {PCG_MULT, inc}; /* 16**w steps */
    int w = 0, d;
    do {
        jumps[w][0].mult = 1;
        jumps[w][0].plus = 0;
        for (d = 1; d < 16; ++d)
            jumps[w][d] = compose(unit, jumps[w][d - 1]);
        unit = compose(unit, jumps[w][15]);
        ++w;
        limit >>= 4;
    } while (limit > 0 && w < DIGITS);
}

/* The state moved `delta` steps at once (numpy's pcg_advance_lcg_128,
 * digit by digit).  The buffered 32-bit half is left as it is. */
static inline void jump(pcg64_t *rng, uint64_t delta, map_t jumps[][16]) {
    int w;
    for (w = 0; delta > 0; ++w, delta >>= 4)
        rng->state = apply(jumps[w][delta & 15], rng->state);
}

/* Workspace slots (keep in sync with the W_* constants in Python). */
enum { W_STATE_HI, W_STATE_LO, W_INC_HI, W_INC_LO, W_HAS_UINT32, W_UINTEGER,
       W_CHAIN, W_FRAME, W_HITS, W_COUNT, W_FRAMES, W_CAPACITY, W_RUNS };

/* Frames [work[W_FRAME], work[W_FRAMES]) of one batch of `count`-symbol
 * frames.  The workspace holds the PCG64 state as words, the chain state,
 * the next frame and the hits written so far (all read and written back),
 * the batch shape and the output capacity, then room for one frame's fade
 * starts and ends.  Before each frame the output must have room for
 * `count` more hits, else the call returns early and the caller grows
 * the output and re-enters.  Returns the next frame. */
int64_t sample_positions(uint64_t *work, int64_t *frame_out, int64_t *sym_out,
                         double p_g2b, double p_b2g, double p_bad) {
    pcg64_t rng;
    bitgen_t bitgen = {&rng, next_uint64, next_uint32, next_double, next_uint64};
    map_t jumps[DIGITS][16], frame_jump, two;
    int64_t state = (int64_t)work[W_CHAIN], f = (int64_t)work[W_FRAME];
    int64_t n_out = (int64_t)work[W_HITS], count = (int64_t)work[W_COUNT];
    int64_t frames = (int64_t)work[W_FRAMES];
    int64_t capacity = (int64_t)work[W_CAPACITY];
    int64_t *run_starts = (int64_t *)work + W_RUNS;
    int64_t *run_ends = run_starts + count;
    uint64_t digits;
    int w;
    rng.state = ((u128)work[W_STATE_HI] << 64) | work[W_STATE_LO];
    rng.inc = ((u128)work[W_INC_HI] << 64) | work[W_INC_LO];
    rng.has_uint32 = work[W_HAS_UINT32];
    rng.uinteger = work[W_UINTEGER];
    build_jumps(jumps, rng.inc, (uint64_t)count);
    two = jumps[0][2];
    frame_jump = jumps[0][0];
    for (w = 0, digits = (uint64_t)count; digits > 0; ++w, digits >>= 4)
        frame_jump = compose(jumps[w][digits & 15], frame_jump);
    for (; f < frames; ++f) {
        int64_t n_runs = 0, position = 0, r;
        if (capacity - n_out < count)
            break;
        /* The dwell draws of the frame (GilbertElliottChannel._fade_runs). */
        while (position < count) {
            int64_t run = random_geometric(&bitgen, state == BAD ? p_b2g : p_g2b);
            int64_t room = count - position;
            if (state == BAD) {
                run_starts[n_runs] = position;
                run_ends[n_runs] = run > room ? count : position + run;
                ++n_runs;
            }
            if (run > room)
                break; /* the dwell continues into the next frame */
            position += run;
            state = state == BAD ? 0 : BAD;
        }
        /* Uniforms inside the fades, jumps over the stretches between. */
        if (n_runs == 0) {
            rng.state = apply(frame_jump, rng.state);
            continue;
        }
        position = 0;
        for (r = 0; r < n_runs; ++r) {
            int64_t i = run_starts[r], end = run_ends[r];
            jump(&rng, (uint64_t)(i - position), jumps);
            /* Each slot is written always and kept only on a hit: the
             * frame's room check covers the spare write.  Two lanes two
             * steps apart keep two 128-bit multiplies in flight. */
            if (end - i >= 4) {
                u128 lane0 = rng.state * PCG_MULT + rng.inc;
                u128 lane1 = lane0 * PCG_MULT + rng.inc;
                for (; end - i >= 2; i += 2) {
                    frame_out[n_out] = f;
                    sym_out[n_out] = i;
                    n_out += uniform(lane0) < p_bad;
                    frame_out[n_out] = f;
                    sym_out[n_out] = i + 1;
                    n_out += uniform(lane1) < p_bad;
                    rng.state = lane1;
                    lane0 = apply(two, lane0);
                    lane1 = apply(two, lane1);
                }
            }
            for (; i < end; ++i) {
                frame_out[n_out] = f;
                sym_out[n_out] = i;
                n_out += next_double(&rng) < p_bad;
            }
            position = end;
        }
        jump(&rng, (uint64_t)(count - position), jumps);
    }
    work[W_STATE_HI] = (uint64_t)(rng.state >> 64);
    work[W_STATE_LO] = (uint64_t)rng.state;
    work[W_HAS_UINT32] = rng.has_uint32;
    work[W_UINTEGER] = rng.uinteger;
    work[W_CHAIN] = (uint64_t)state;
    work[W_FRAME] = (uint64_t)f;
    work[W_HITS] = (uint64_t)n_out;
    return f;
}
"""

_MASK64 = (1 << 64) - 1
#: Workspace slots shared with the C side (the ``W_*`` enum of
#: :data:`SOURCE`); one frame's fade starts and ends follow them.
(W_STATE_HI, W_STATE_LO, W_INC_HI, W_INC_LO, W_HAS_UINT32, W_UINTEGER,
 W_CHAIN, W_FRAME, W_HITS, W_COUNT, W_FRAMES, W_CAPACITY, W_RUNS) = range(13)
#: The native path writes ``int64_t`` coordinates straight into ``intp``.
_INTP_BYTES = np.dtype(np.intp).itemsize


def archive_path() -> str:
    """Path of NumPy's static ``libnpyrandom.a`` (it may not exist)."""
    return os.path.join(os.path.dirname(np.__file__), "random", "lib",
                        "libnpyrandom.a")


def sampler_function(numpy_version: str, archive: str) -> NativeFunction:
    """The sampler object linked against ``archive`` of ``numpy_version``."""
    return NativeFunction(
        "sampler", SOURCE, "sample_positions", ctypes.c_int64,
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double,
         ctypes.c_double, ctypes.c_double],
        what="native channel sampler",
        fallback="the Python dwell loop (same results, slower)",
        archives=(archive,), key=(numpy_version,))


#: The sampler for the NumPy this process runs.
SAMPLER = sampler_function(np.__version__, archive_path())


def load() -> Optional[Callable[..., int]]:
    """Return the compiled ``sample_positions`` function, or ``None``."""
    return SAMPLER.load()


def available() -> bool:
    """Whether the compiled sampler can be used in this process."""
    return load() is not None


class NativeSampler:
    """One channel's native sampling calls, with reused buffers.

    The workspace (see the ``W_*`` slots) and the hit buffer grow to the
    largest batch seen and are reused, with their addresses, across
    calls.  They never escape; the returned arrays are copies.
    """

    def __init__(self) -> None:
        # Empty until the first batch: a null hit buffer is never
        # written, since a batch that needs none has no symbols.
        self._work = np.empty(0, dtype=np.uint64)
        self._work_at = 0
        self._out = np.empty((2, 0), dtype=np.intp)
        self._out_at = 0

    def _grow_work(self, count: int) -> None:
        """Workspace for frames of up to ``count`` symbols."""
        self._work = np.empty(W_RUNS + 2 * count, dtype=np.uint64)
        self._work_at = self._work.ctypes.data

    def _grow_out(self, capacity: int, written: int) -> None:
        """Hit buffer of ``capacity`` slots keeping the first ``written``."""
        out = np.empty((2, capacity), dtype=np.intp)
        if written:
            out[:, :written] = self._out[:, :written]
        self._out = out
        self._out_at = out.ctypes.data

    def positions(
            self, bit_generator: Any, state: int, p_g2b: float, p_b2g: float,
            p_bad: float, count: int, frames: int,
    ) -> Optional[Tuple[NDArray[np.intp], NDArray[np.intp], int]]:
        """Hit coordinates of a ``p_good == 0`` frame batch, in one C call.

        Returns ``(frame_idx, sym_idx, state)``: the hits in row-major
        order and the chain state after the batch, exactly what the
        Python dwell loop of ``error_positions`` returns from the same
        generator, which ends in the same state too.  Returns ``None``,
        touching nothing, when the native path cannot run (see the
        module docstring).
        """
        if type(bit_generator) is not np.random.PCG64 or _INTP_BYTES != 8:
            return None
        sample = load()
        if sample is None:
            return None
        if self._work.size < W_RUNS + 2 * count:
            self._grow_work(count)
        # Twice the expected hits plus one worst-case frame: one call in
        # the usual case, and every call has room for at least one frame.
        expected = frames * count * p_bad * p_g2b / (p_g2b + p_b2g)
        needed = min(frames * count, 2 * int(expected) + count)
        if self._out.shape[1] < needed:
            self._grow_out(needed, 0)
        rng_state = bit_generator.state
        pcg = rng_state["state"]
        work = self._work
        work[:W_RUNS] = (pcg["state"] >> 64, pcg["state"] & _MASK64,
                         pcg["inc"] >> 64, pcg["inc"] & _MASK64,
                         rng_state["has_uint32"], rng_state["uinteger"],
                         state, 0, 0, count, frames, self._out.shape[1])
        while True:
            capacity = self._out.shape[1]
            if sample(self._work_at, self._out_at, self._out_at + 8 * capacity,
                      p_g2b, p_b2g, p_bad) == frames:
                break
            self._grow_out(2 * capacity, int(work[W_HITS]))
            work[W_CAPACITY] = 2 * capacity
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": (int(work[W_STATE_HI]) << 64)
                      | int(work[W_STATE_LO]),
                      "inc": pcg["inc"]},
            "has_uint32": int(work[W_HAS_UINT32]),
            "uinteger": int(work[W_UINTEGER]),
        }
        hits = self._out[:, :int(work[W_HITS])].copy()
        return hits[0], hits[1], int(work[W_CHAIN])
