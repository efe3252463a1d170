"""Native backend for the batch-advance scheduling kernel.

The kernel's hot loop (:mod:`repro.dram.kernel`) is this compiled
*segment loop*.  One call runs a whole phase over the flat int64 state
tables: the initial intake, then the admit / refresh / eval / commit /
arbitrate / pop cycle until the queues drain.  It returns to Python
early only when the fixed-size command-record tape needs draining, and
then only between commands or refresh events, so the wrapper drains it
and re-enters.  The loop carries every rule set of the general engine:
refresh (REFab over every bank or REFpb round-robin, from the interval,
duration and mode config slots and the next-deadline and next-bank
scalar slots, which the wrapper reads from and writes back to the
:class:`~repro.dram.refresh.RefreshScheduler` it mirrors), the
auto-close streak cap (closed-page, FR-FCFS-cap) and, for mixed
sources, the tRTW/tWTR direction-turnaround rules.  It records the
shared command codes of :mod:`repro.dram.commands` directly.

The object is built from one translation unit with the system C
compiler at first use (cached per source hash under the user's temp
directory, override with ``REPRO_KERNELC_CACHE``) and loaded through
the standard library's ``ctypes``, so it needs no third-party
package.  A cached object is loaded only from a directory and file
owned by the current user that nobody else can write; otherwise the
object is built afresh in a private temporary directory.  Nothing is
built or loaded at import time.  Without a compiler :func:`load`
returns ``None`` and :func:`repro.dram.kernel.make_scheduler` picks
the general engine; a compiler that exists but fails the build also
warns once, naming the shared-object path and the compiler's last
stderr lines.

All arithmetic is exact int64: timestamps in this project stay below
``10**15`` picoseconds and the far-future sentinel is ``10**18``, so no
intermediate sum can overflow.  The one C-vs-Python arithmetic
difference, truncating vs flooring ``%``, is handled by the
``QUANTIZE`` helper which reproduces Python's floor-mod for negative
operands (the issue-slot bound is legitimately negative before the
first CAS of a phase).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import warnings
from shutil import which
from typing import Callable, Optional

from repro.dram.commands import (CODE_ACT, CODE_PRE, CODE_RD, CODE_REF_ALL,
                                 CODE_REF_BANK, CODE_WR)

#: Scalar-slot indices shared with the C side (keep in sync with the
#: ``S_*`` enum in :data:`SOURCE`).  ``S_LAST_DIR`` is -1 before the
#: first CAS of a mixed run, then 1 (read) or 0 (write).
(S_LAST_CAS, S_LAST_ACT, S_LAST_ACT_BG, S_FAW_IDX, S_BUS_FREE,
 S_LAST_DATA_END, S_POS, S_QUEUED, S_N_REQUESTS, S_HITS, S_MISSES,
 S_EMPTIES, S_ACTS, S_PRES, S_RESCAN_ALL, S_REF_DEADLINE, S_REF_BANK,
 S_REFS, S_READY_COUNT, S_HEAP_SIZE, S_FRESH_COUNT, S_REC_COUNT, S_READS,
 S_WRITES, S_TURNAROUNDS, S_LAST_DIR, S_LAST_RD_CMD, S_LAST_WR_DATA_END,
 S_LAST_WR_BG) = range(29)
N_SCALARS = 29

#: Config-slot indices shared with the C side (``C_*`` enum).
#: ``C_CAP`` is the auto-close row-hit streak cap (0 = rows stay open);
#: ``C_MIXED`` selects the per-request direction column and the
#: turnaround rules; ``C_REF_MODE`` is one of the ``REF_*`` modes below,
#: with the interval ``C_TREFI`` and the per-event duration ``C_TRFC``.
(C_N_BANKS, C_BANK_GROUPS, C_TCK, C_QUANT, C_TRP, C_TRCD, C_TRAS,
 C_TRRD_S, C_TRRD_L, C_TFAW, C_TCCD_S, C_TCCD_L, C_TWR, C_TRTP,
 C_IS_READ, C_CL, C_CWL, C_BURST, C_QUEUE_DEPTH, C_PER_BANK_DEPTH,
 C_RECORD, C_N, C_REC_CAP, C_CAP, C_MIXED, C_TRTW, C_TWTR_S,
 C_TWTR_L, C_REF_MODE, C_TREFI, C_TRFC) = range(31)
N_CFG = 31

#: Refresh modes (``C_REF_MODE``): refresh off, REFab over every bank,
#: REFpb over one bank in round-robin order.
REF_OFF = 0
REF_ALL_BANK = 1
REF_PER_BANK = 2

#: Segment-exit reasons returned by ``run_segment``.
EXIT_DONE = 0
EXIT_RECORD_FULL = 1
EXIT_DEADLOCK = 2

SOURCE = r"""
#include <stdint.h>

#define FAR_PAST   (-1000000000000000LL)
#define FAR_FUTURE (1000000000000000000LL)

enum { S_LAST_CAS, S_LAST_ACT, S_LAST_ACT_BG, S_FAW_IDX, S_BUS_FREE,
  S_LAST_DATA_END, S_POS, S_QUEUED, S_N_REQUESTS, S_HITS, S_MISSES,
  S_EMPTIES, S_ACTS, S_PRES, S_RESCAN_ALL, S_REF_DEADLINE, S_REF_BANK,
  S_REFS, S_READY_COUNT, S_HEAP_SIZE, S_FRESH_COUNT, S_REC_COUNT, S_READS,
  S_WRITES, S_TURNAROUNDS, S_LAST_DIR, S_LAST_RD_CMD, S_LAST_WR_DATA_END,
  S_LAST_WR_BG };

enum { C_N_BANKS, C_BANK_GROUPS, C_TCK, C_QUANT, C_TRP, C_TRCD, C_TRAS,
  C_TRRD_S, C_TRRD_L, C_TFAW, C_TCCD_S, C_TCCD_L, C_TWR, C_TRTP,
  C_IS_READ, C_CL, C_CWL, C_BURST, C_QUEUE_DEPTH, C_PER_BANK_DEPTH,
  C_RECORD, C_N, C_REC_CAP, C_CAP, C_MIXED, C_TRTW, C_TWTR_S,
  C_TWTR_L, C_REF_MODE, C_TREFI, C_TRFC };

enum { REF_OFF, REF_ALL_BANK, REF_PER_BANK };

enum { EXIT_DONE, EXIT_RECORD_FULL, EXIT_DEADLOCK };

/* Recorded command codes: repro.dram.commands.CODE_OF, substituted
 * before compiling. */
enum { CMD_ACT = @CODE_ACT@, CMD_PRE = @CODE_PRE@, CMD_RD = @CODE_RD@,
  CMD_WR = @CODE_WR@, CMD_REF_ALL = @CODE_REF_ALL@,
  CMD_REF_BANK = @CODE_REF_BANK@ };

/* Python floor-mod quantization: round v up to the command-clock grid.
 * C's % truncates toward zero; Python's floors, and the issue-slot
 * bound is negative before the first CAS of a phase, so the remainder
 * must be normalized into [0, tck). */
static inline int64_t quantize(int64_t v, int64_t tck) {
    int64_t r = v % tck;
    if (r < 0) r += tck;
    if (r) v += tck - r;
    return v;
}

#define RECORD(t, code, bank, row, col, id) do { \
    int64_t *r_ = rec + rec_count * 6; \
    r_[0] = (t); r_[1] = (code); r_[2] = (bank); \
    r_[3] = (row); r_[4] = (col); r_[5] = (id); \
    rec_count++; \
} while (0)

/* Deferred-activation entries, 5 int64 columns per slot (same fields
 * as the general engine's heap tuples).  The store is an unsorted
 * array: entries carry distinct banks, so (act_ready, bank) is a total
 * order and min-extraction visits entries in exactly the order the
 * general engine's binary heap pops them. */
#define H_T(i)   heap[(i) * 5 + 0]
#define H_B(i)   heap[(i) * 5 + 1]
#define H_P(i)   heap[(i) * 5 + 2]
#define H_E(i)   heap[(i) * 5 + 3]
#define H_R(i)   heap[(i) * 5 + 4]

/* Every argument is a flat int64 array.  `heap` holds n_banks + 2
 * entries and `commit_idx` n_banks slots (at most one deferred
 * activation per bank), so the loop has no bank-count limit.  `dirs`
 * (1 = read, 0 = write, by request sequence number) is read only for
 * mixed runs and `streak` (column accesses since each bank's ACT) only
 * under an auto-close cap. */
int64_t run_segment(const int64_t *cfg, int64_t *sc,
    const int64_t *banks, const int64_t *rows, const int64_t *cols,
    const int64_t *dirs, const int64_t *qseqs, const int64_t *qstart,
    int64_t *head, int64_t *adm, int64_t *bstate,
    int64_t *open_row, int64_t *act_time, int64_t *cas_allowed,
    int64_t *pre_allowed, int64_t *act_allowed, int64_t *streak,
    const int64_t *bg_of, int64_t *last_cas_bg, int64_t *faw_ring,
    int64_t *fresh, int64_t *heap, int64_t *commit_idx, int64_t *rec)
{
    const int64_t n_banks = cfg[C_N_BANKS];
    const int64_t tck = cfg[C_TCK];
    const int64_t quant = cfg[C_QUANT];
    const int64_t trp = cfg[C_TRP];
    const int64_t trcd = cfg[C_TRCD];
    const int64_t tras = cfg[C_TRAS];
    const int64_t trrd_s = cfg[C_TRRD_S];
    const int64_t trrd_l = cfg[C_TRRD_L];
    const int64_t tfaw = cfg[C_TFAW];
    const int64_t tccd_s = cfg[C_TCCD_S];
    const int64_t tccd_l = cfg[C_TCCD_L];
    const int64_t twr = cfg[C_TWR];
    const int64_t trtp = cfg[C_TRTP];
    const int64_t is_read = cfg[C_IS_READ];
    const int64_t cl = cfg[C_CL];
    const int64_t cwl = cfg[C_CWL];
    const int64_t latency = is_read ? cl : cwl;
    const int64_t burst = cfg[C_BURST];
    const int64_t queue_depth = cfg[C_QUEUE_DEPTH];
    const int64_t per_bank_depth = cfg[C_PER_BANK_DEPTH];
    const int64_t do_record = cfg[C_RECORD];
    const int64_t nreq = cfg[C_N];
    const int64_t rec_cap = cfg[C_REC_CAP];
    const int64_t cap = cfg[C_CAP];
    const int64_t mixed = cfg[C_MIXED];
    const int64_t trtw = cfg[C_TRTW];
    const int64_t twtr_s = cfg[C_TWTR_S];
    const int64_t twtr_l = cfg[C_TWTR_L];
    const int64_t ref_mode = cfg[C_REF_MODE];
    const int64_t trefi = cfg[C_TREFI];
    const int64_t trfc = cfg[C_TRFC];

    int64_t last_cas = sc[S_LAST_CAS];
    int64_t last_act = sc[S_LAST_ACT];
    int64_t last_act_bg = sc[S_LAST_ACT_BG];
    int64_t faw_idx = sc[S_FAW_IDX];
    int64_t bus_free = sc[S_BUS_FREE];
    int64_t last_data_end = sc[S_LAST_DATA_END];
    int64_t pos = sc[S_POS];
    int64_t queued = sc[S_QUEUED];
    int64_t n_requests = sc[S_N_REQUESTS];
    int64_t hits = sc[S_HITS];
    int64_t misses = sc[S_MISSES];
    int64_t empties = sc[S_EMPTIES];
    int64_t acts = sc[S_ACTS];
    int64_t pres = sc[S_PRES];
    int64_t rescan_all = sc[S_RESCAN_ALL];
    int64_t ref_deadline = sc[S_REF_DEADLINE];
    int64_t ref_bank = sc[S_REF_BANK];
    int64_t refs = sc[S_REFS];
    int64_t ready_count = sc[S_READY_COUNT];
    int64_t heap_size = sc[S_HEAP_SIZE];
    int64_t fresh_count = sc[S_FRESH_COUNT];
    int64_t rec_count = sc[S_REC_COUNT];
    int64_t reads = sc[S_READS];
    int64_t writes = sc[S_WRITES];
    int64_t turnarounds = sc[S_TURNAROUNDS];
    int64_t last_dir = sc[S_LAST_DIR];
    int64_t last_rd_cmd = sc[S_LAST_RD_CMD];
    int64_t last_wr_data_end = sc[S_LAST_WR_DATA_END];
    int64_t last_wr_bg = sc[S_LAST_WR_BG];

    int64_t exit_reason = EXIT_DONE;

    for (;;) {
        /* ---- admission: the stream head enters the queue window
         * until it is full or the head's bank FIFO is at its depth.
         * The first pass is the phase's initial intake; a re-entry
         * after a tape drain admits nothing, since every iteration
         * ends with the window at this fixed point. ---------------- */
        while (queued < queue_depth && pos < nreq) {
            int64_t b = banks[pos];
            if (adm[b] - head[b] >= per_bank_depth) break;
            if (adm[b] == head[b]) {
                bstate[b] = 1;
                fresh[fresh_count++] = b;
            }
            adm[b]++; pos++; queued++;
        }
        if (!queued) { exit_reason = EXIT_DONE; break; }

        /* ---- refresh: every deadline the last CAS has reached, in
         * order (one CAS gap can jump several).  REFab precharges
         * every open bank, REFpb the round-robin bank; the REF issues
         * once they are all precharged, quantized, and blocks their
         * activations for tRFC.  An event records at most n_banks
         * PREs and its REF; the tape drains between events, never
         * inside one. ----------------------------------------------- */
        while (ref_mode != REF_OFF && last_cas >= ref_deadline) {
            if (do_record && rec_cap - rec_count < n_banks + 1) break;
            int64_t first = 0, end = n_banks;
            if (ref_mode == REF_PER_BANK) {
                first = ref_bank; end = first + 1;
                ref_bank = (ref_bank + 1) % n_banks;
            }
            int64_t ref_time = ref_deadline;
            ref_deadline += trefi;
            for (int64_t b = first; b < end; b++) {
                int64_t bank_free_at = act_allowed[b];
                if (open_row[b] >= 0) {
                    int64_t t_pre = pre_allowed[b];
                    if (quant) t_pre = quantize(t_pre, tck);
                    if (do_record) RECORD(t_pre, CMD_PRE, b, -1, -1, -1);
                    pres++;
                    open_row[b] = -1;
                    bank_free_at = t_pre + trp;
                }
                if (bank_free_at > ref_time) ref_time = bank_free_at;
            }
            if (quant) ref_time = quantize(ref_time, tck);
            for (int64_t b = first; b < end; b++) {
                if (bstate[b] == 2) { bstate[b] = 1; ready_count--; }
                act_allowed[b] = ref_time + trfc;
            }
            rescan_all = 1;  /* cached deferral times are stale now */
            refs++;
            if (do_record) {
                if (ref_mode == REF_ALL_BANK)
                    RECORD(ref_time, CMD_REF_ALL, -1, -1, -1, -1);
                else
                    RECORD(ref_time, CMD_REF_BANK, first, -1, -1, -1);
            }
        }
        if (ref_mode != REF_OFF && last_cas >= ref_deadline) {
            exit_reason = EXIT_RECORD_FULL; break;
        }
        /* One iteration records at most 2 * n_banks + 2 commands: a
         * PRE/ACT pair per committed bank, the CAS and its auto-PRE. */
        if (do_record && rec_cap - rec_count < 2 * n_banks + 2) {
            exit_reason = EXIT_RECORD_FULL; break;
        }

        /* ---- eager per-bank row management ------------------------- */
        if (rescan_all) {
            rescan_all = 0;
            fresh_count = 0;
            heap_size = 0;
            for (int64_t b = 0; b < n_banks; b++) {
                if (bstate[b] != 1) continue;
                int64_t row = rows[qseqs[qstart[b] + head[b]]];
                int64_t current = open_row[b];
                if (current == row) {
                    bstate[b] = 2; ready_count++; hits++;
                } else if (current < 0) {
                    H_T(heap_size) = act_allowed[b]; H_B(heap_size) = b;
                    H_P(heap_size) = -1; H_E(heap_size) = 1;
                    H_R(heap_size) = row; heap_size++;
                } else {
                    int64_t t_pre = pre_allowed[b];
                    if (quant) t_pre = quantize(t_pre, tck);
                    H_T(heap_size) = t_pre + trp; H_B(heap_size) = b;
                    H_P(heap_size) = t_pre; H_E(heap_size) = 0;
                    H_R(heap_size) = row; heap_size++;
                }
            }
        } else if (fresh_count) {
            /* The general engine visits fresh banks in sorted order,
             * but eval touches no shared timeline state, so per-bank
             * outcomes are order-independent; heap extraction is by
             * (act_ready, bank), not insertion order. */
            for (int64_t i = 0; i < fresh_count; i++) {
                int64_t b = fresh[i];
                int64_t row = rows[qseqs[qstart[b] + head[b]]];
                int64_t current = open_row[b];
                if (current == row) {
                    bstate[b] = 2; ready_count++; hits++;
                } else if (current < 0) {
                    H_T(heap_size) = act_allowed[b]; H_B(heap_size) = b;
                    H_P(heap_size) = -1; H_E(heap_size) = 1;
                    H_R(heap_size) = row; heap_size++;
                } else {
                    int64_t t_pre = pre_allowed[b];
                    if (quant) t_pre = quantize(t_pre, tck);
                    H_T(heap_size) = t_pre + trp; H_B(heap_size) = b;
                    H_P(heap_size) = t_pre; H_E(heap_size) = 0;
                    H_R(heap_size) = row; heap_size++;
                }
            }
            fresh_count = 0;
        }

        /* ---- deferred-activation commits --------------------------- */
        if (heap_size) {
            int64_t n_commit = 0;
            for (int64_t i = 0; i < heap_size; i++)
                if (H_T(i) <= bus_free) commit_idx[n_commit++] = i;
            if (!n_commit && !ready_count) {
                /* Forced single commit: the earliest (act_ready, bank)
                 * entry, exactly the heap's root. */
                int64_t mi = 0;
                for (int64_t i = 1; i < heap_size; i++)
                    if (H_T(i) < H_T(mi) ||
                        (H_T(i) == H_T(mi) && H_B(i) < H_B(mi))) mi = i;
                commit_idx[n_commit++] = mi;
            }
            if (n_commit) {
                /* Group commits happen in bank order (the engine sorts
                 * its batch by bank). */
                for (int64_t i = 1; i < n_commit; i++) {
                    int64_t ci = commit_idx[i];
                    int64_t j = i - 1;
                    while (j >= 0 && H_B(commit_idx[j]) > H_B(ci)) {
                        commit_idx[j + 1] = commit_idx[j]; j--;
                    }
                    commit_idx[j + 1] = ci;
                }
                for (int64_t i = 0; i < n_commit; i++) {
                    int64_t ci = commit_idx[i];
                    int64_t act_ready = H_T(ci);
                    int64_t b = H_B(ci);
                    int64_t t_pre = H_P(ci);
                    int64_t is_empty = H_E(ci);
                    int64_t row = H_R(ci);
                    if (is_empty) {
                        empties++;
                    } else {
                        misses++; pres++;
                        if (do_record) RECORD(t_pre, CMD_PRE, b, -1, -1, -1);
                    }
                    int64_t bg = bg_of[b];
                    int64_t t_act = act_ready;
                    if (last_act != FAR_PAST) {
                        int64_t spacing = (bg == last_act_bg) ? trrd_l
                                                              : trrd_s;
                        int64_t t = last_act + spacing;
                        if (t > t_act) t_act = t;
                    }
                    {
                        int64_t t = faw_ring[faw_idx] + tfaw;
                        if (t > t_act) t_act = t;
                    }
                    if (quant) t_act = quantize(t_act, tck);
                    faw_ring[faw_idx] = t_act;
                    faw_idx = (faw_idx + 1) & 3;
                    last_act = t_act;
                    last_act_bg = bg;
                    acts++;
                    if (do_record) RECORD(t_act, CMD_ACT, b, row, -1, -1);
                    open_row[b] = row;
                    act_time[b] = t_act;
                    cas_allowed[b] = t_act + trcd;
                    pre_allowed[b] = t_act + tras;
                    streak[b] = 0;
                    bstate[b] = 2;
                    ready_count++;
                }
                /* Compact the committed entries out of the store. */
                int64_t w = 0;
                for (int64_t i = 0; i < heap_size; i++) {
                    int64_t committed = 0;
                    for (int64_t j = 0; j < n_commit; j++)
                        if (commit_idx[j] == i) { committed = 1; break; }
                    if (committed) continue;
                    if (w != i) {
                        H_T(w) = H_T(i); H_B(w) = H_B(i); H_P(w) = H_P(i);
                        H_E(w) = H_E(i); H_R(w) = H_R(i);
                    }
                    w++;
                }
                heap_size = w;
            }
        }

        /* ---- CAS arbitration: min-reductions over the ready heads -- */
        int64_t chosen = -1;
        int64_t t_cas = 0;
        int64_t req_read = is_read;
        if (!mixed) {
            /* Homogeneous: the oldest head achieving the global bound
             * issues at the bound, else the strictly earliest slot
             * (ties to the oldest) at its own slot. */
            int64_t bound = last_cas + tccd_s;
            {
                int64_t t = bus_free - latency;
                if (t > bound) bound = t;
            }
            if (quant) bound = quantize(bound, tck);
            int64_t best_seq = FAR_FUTURE;
            int64_t best_pb = FAR_FUTURE;
            int64_t best_pb_seq = FAR_FUTURE;
            int64_t best_pb_bank = -1;
            for (int64_t b = 0; b < n_banks; b++) {
                if (bstate[b] != 2) continue;
                int64_t sq = qseqs[qstart[b] + head[b]];
                int64_t pb = cas_allowed[b];
                int64_t t = last_cas_bg[bg_of[b]] + tccd_l;
                if (t > pb) pb = t;
                if (pb <= bound) {
                    if (sq < best_seq) { best_seq = sq; chosen = b; }
                } else if (pb < best_pb ||
                           (pb == best_pb && sq < best_pb_seq)) {
                    best_pb = pb; best_pb_seq = sq; best_pb_bank = b;
                }
            }
            if (chosen >= 0) {
                t_cas = bound;
            } else if (best_pb_bank >= 0) {
                chosen = best_pb_bank;
                t_cas = best_pb;
                if (quant) t_cas = quantize(t_cas, tck);
            }
        } else {
            /* Mixed: every head's quantized slot under the turnaround
             * rules (tRTW after the last read command, tWTR_S/L after
             * the last write data); the lexicographic minimum of
             * (slot, seq) wins -- the general engine's oldest-first
             * walk keeps the first strictly-earliest slot. */
            int64_t best_seq = FAR_FUTURE;
            t_cas = FAR_FUTURE;
            for (int64_t b = 0; b < n_banks; b++) {
                if (bstate[b] != 2) continue;
                int64_t sq = qseqs[qstart[b] + head[b]];
                int64_t b_read = dirs[sq];
                int64_t bg = bg_of[b];
                int64_t slot = cas_allowed[b];
                int64_t t = last_cas + tccd_s;
                if (t > slot) slot = t;
                t = last_cas_bg[bg] + tccd_l;
                if (t > slot) slot = t;
                t = bus_free - (b_read ? cl : cwl);
                if (t > slot) slot = t;
                if (b_read) {
                    if (last_wr_data_end != FAR_PAST) {
                        t = last_wr_data_end
                            + (bg == last_wr_bg ? twtr_l : twtr_s);
                        if (t > slot) slot = t;
                    }
                } else if (last_rd_cmd != FAR_PAST) {
                    t = last_rd_cmd + trtw;
                    if (t > slot) slot = t;
                }
                if (quant) slot = quantize(slot, tck);
                if (slot < t_cas || (slot == t_cas && sq < best_seq)) {
                    t_cas = slot; best_seq = sq; chosen = b;
                    req_read = b_read;
                }
            }
        }
        if (chosen < 0) { exit_reason = EXIT_DEADLOCK; break; }

        /* ---- pop, timeline update, admission ----------------------- */
        int64_t hidx = qstart[chosen] + head[chosen];
        int64_t p_seq = qseqs[hidx];
        head[chosen]++;
        queued--;
        int64_t closing = 0;
        if (cap) {
            int64_t s = streak[chosen] + 1;
            if (s >= cap) { closing = 1; s = 0; }
            streak[chosen] = s;
        }
        if (adm[chosen] == head[chosen]) {
            bstate[chosen] = 0; ready_count--;
        } else if (!closing && rows[qseqs[hidx + 1]] == open_row[chosen]) {
            hits++;
        } else {
            bstate[chosen] = 1; ready_count--;
            fresh[fresh_count++] = chosen;
        }
        {
            int64_t bg = bg_of[chosen];
            int64_t data_end = t_cas + (req_read ? cl : cwl) + burst;
            last_cas = t_cas;
            last_cas_bg[bg] = t_cas;
            bus_free = data_end;
            last_data_end = data_end;
            if (mixed) {
                if (last_dir >= 0 && last_dir != req_read) turnarounds++;
                last_dir = req_read;
                if (req_read) {
                    reads++;
                    last_rd_cmd = t_cas;
                } else {
                    writes++;
                    last_wr_data_end = data_end;
                    last_wr_bg = bg;
                }
            }
            int64_t t = req_read ? t_cas + trtp : data_end + twr;
            if (t > pre_allowed[chosen]) pre_allowed[chosen] = t;
        }
        if (do_record)
            RECORD(t_cas, req_read ? CMD_RD : CMD_WR, chosen, rows[p_seq],
                   cols[p_seq], n_requests);
        n_requests++;
        if (closing) {
            /* Auto-precharge at the precharge-ready time (tRAS / tRTP /
             * tWR already folded into pre_allowed above). */
            int64_t t_pre = pre_allowed[chosen];
            if (quant) t_pre = quantize(t_pre, tck);
            if (do_record) RECORD(t_pre, CMD_PRE, chosen, -1, -1, -1);
            pres++;
            open_row[chosen] = -1;
            act_allowed[chosen] = t_pre + trp;
        }
    }

    sc[S_LAST_CAS] = last_cas;
    sc[S_LAST_ACT] = last_act;
    sc[S_LAST_ACT_BG] = last_act_bg;
    sc[S_FAW_IDX] = faw_idx;
    sc[S_BUS_FREE] = bus_free;
    sc[S_LAST_DATA_END] = last_data_end;
    sc[S_POS] = pos;
    sc[S_QUEUED] = queued;
    sc[S_N_REQUESTS] = n_requests;
    sc[S_HITS] = hits;
    sc[S_MISSES] = misses;
    sc[S_EMPTIES] = empties;
    sc[S_ACTS] = acts;
    sc[S_PRES] = pres;
    sc[S_RESCAN_ALL] = rescan_all;
    sc[S_REF_DEADLINE] = ref_deadline;
    sc[S_REF_BANK] = ref_bank;
    sc[S_REFS] = refs;
    sc[S_READY_COUNT] = ready_count;
    sc[S_HEAP_SIZE] = heap_size;
    sc[S_FRESH_COUNT] = fresh_count;
    sc[S_REC_COUNT] = rec_count;
    sc[S_READS] = reads;
    sc[S_WRITES] = writes;
    sc[S_TURNAROUNDS] = turnarounds;
    sc[S_LAST_DIR] = last_dir;
    sc[S_LAST_RD_CMD] = last_rd_cmd;
    sc[S_LAST_WR_DATA_END] = last_wr_data_end;
    sc[S_LAST_WR_BG] = last_wr_bg;
    return exit_reason;
}
"""
for _placeholder, _code in (("@CODE_ACT@", CODE_ACT), ("@CODE_PRE@", CODE_PRE),
                            ("@CODE_RD@", CODE_RD), ("@CODE_WR@", CODE_WR),
                            ("@CODE_REF_ALL@", CODE_REF_ALL),
                            ("@CODE_REF_BANK@", CODE_REF_BANK)):
    SOURCE = SOURCE.replace(_placeholder, str(_code))

#: Arguments of ``run_segment``, every one an ``int64_t *``.
N_ARGS = 24

#: Compiler stderr lines quoted by the failed-build warning.
_STDERR_TAIL_LINES = 8

_loaded: Optional[Callable[..., int]] = None
_load_attempted = False


def _so_name() -> str:
    """Shared-object file name for the current source (per hash)."""
    digest = hashlib.sha256(SOURCE.encode("utf-8")).hexdigest()[:20]
    return f"kernel-{digest}.so"


def _cache_path() -> str:
    """Shared-object path in the per-user cache directory."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    root = os.environ.get("REPRO_KERNELC_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-kernelc-{uid}")
    return os.path.join(root, _so_name())


def _is_private(path: str, is_dir: bool) -> bool:
    """Whether ``path`` is a real directory / regular file (not a
    symlink) owned by the current user and writable by no one else."""
    if not hasattr(os, "getuid"):
        return False
    try:
        st = os.lstat(path)
    except OSError:
        return False
    is_kind = stat.S_ISDIR if is_dir else stat.S_ISREG
    return (is_kind(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _trusted_cache_path() -> Optional[str]:
    """The cached object's path if the cache can be trusted, else ``None``.

    The cache directory is created ``0o700``.  A directory or object
    that another user owns or could have written is never loaded.
    """
    so_path = _cache_path()
    directory = os.path.dirname(so_path)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
    except OSError:
        return None
    if not _is_private(directory, is_dir=True):
        return None
    if os.path.lexists(so_path) and not _is_private(so_path, is_dir=False):
        return None
    return so_path


def _warn_build_failed(so_path: str, detail: str) -> None:
    """The one loud signal that the native scheduler is off."""
    warnings.warn(
        f"native scheduling kernel {so_path} could not be built; "
        f"using the general engine (same results, slower): {detail}",
        RuntimeWarning, stacklevel=2)


def _compile(so_path: str) -> bool:
    """Compile :data:`SOURCE` to ``so_path``; ``False`` on any failure.

    No compiler is a quiet ``False``; a compiler that fails warns.
    """
    compiler = which("cc") or which("gcc")
    if compiler is None:
        return False
    c_path = so_path + f".{os.getpid()}.c"
    tmp_so = so_path + f".{os.getpid()}.tmp"
    try:
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(SOURCE)
        proc = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path],
            capture_output=True)
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            tail = "\n".join(stderr.splitlines()[-_STDERR_TAIL_LINES:])
            _warn_build_failed(
                so_path, f"{compiler} exited {proc.returncode}\n{tail}")
            return False
        os.replace(tmp_so, so_path)  # atomic vs concurrent builders
        return True
    except OSError as exc:
        _warn_build_failed(so_path, str(exc))
        return False
    finally:
        for leftover in (c_path, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def load() -> Optional[Callable[..., int]]:
    """Return the compiled ``run_segment`` function, or ``None``.

    Builds the shared object on first use.  The result is cached for
    the process; a failed attempt is not retried.
    """
    global _loaded, _load_attempted
    if _load_attempted:
        return _loaded
    _load_attempted = True
    so_path = _trusted_cache_path()
    private_dir = None
    if so_path is None:
        try:
            private_dir = tempfile.mkdtemp(prefix="repro-kernelc-")
        except OSError as exc:
            _warn_build_failed(_cache_path(), str(exc))
            return None
        so_path = os.path.join(private_dir, _so_name())
    try:
        if not os.path.exists(so_path) and not _compile(so_path):
            return None
        try:
            run_segment = ctypes.CDLL(so_path).run_segment
        except (OSError, AttributeError) as exc:
            _warn_build_failed(so_path, str(exc))
            return None
    finally:
        if private_dir is not None:
            # The mapped object outlives its file; nothing is left behind.
            shutil.rmtree(private_dir, ignore_errors=True)
    run_segment.restype = ctypes.c_int64
    run_segment.argtypes = [ctypes.c_void_p] * N_ARGS
    _loaded = run_segment
    return _loaded


def available() -> bool:
    """Whether the compiled segment loop can be used in this process."""
    return load() is not None
