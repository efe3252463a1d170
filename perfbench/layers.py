"""Layer spans of the traced run and the per-layer metrics built from them.

:data:`TARGETS` names the public library entry points the traced run
wraps, one span name per layer.  :func:`pass_layers` folds the spans and
counts of one traced pass into the per-layer metrics that
``BENCHMARK.json`` declares.  Every ``*_s`` figure is a self time (the
span minus its child spans), except ``e2e.cell_s``, which is the whole
``run_e2e`` span, and ``e2e.self_s``, which subtracts only the channel
and scheduler children.  Self times of one pass add up to the pass:
``sweep.other_s`` is what no layer span covers.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Mapping, Sequence

from spans import Span, Target, Tracer, self_times

#: Span names the benchmark opens itself, around each operation.
ROOT_SPANS = ("cell", "campaign.cold", "campaign.warm")
#: Root span of the serial campaign pass that only feeds layer metrics.
SERIAL_ROOT = "campaign.serial"

#: Span name -> per-layer metric that collects its self time.
SELF_METRIC = {
    "cell": "sweep.other_s",
    "campaign.cold": "sweep.other_s",
    "campaign.warm": "sweep.other_s",
    "mapping.addr": "mapping.addr_s",
    "dram.sched": "dram.sched_s",
    "energy": "energy.recount_s",
    "e2e.cell": "e2e.bridge_s",
    "channel.downlink": "channel.downlink_s",
    "channel.sample": "channel.sample_s",
    "channel.decode": "channel.decode_s",
    "store.write": "store.write_s",
    "store.read": "store.read_s",
}

#: Exact counts reported as they were counted.
COUNT_METRICS = (
    "mapping.bursts", "dram.bursts", "dram.activates", "dram.refreshes",
    "dram.fallback_phases", "dram.commands_recorded", "mixed.turnarounds",
    "channel.frames", "store.hits", "store.misses",
)


def _observe_dram(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    stats = result.stats
    tracer.count("dram.phases")
    tracer.count("dram.bursts", stats.requests)
    tracer.count("dram.page_hits", stats.page_hits)
    tracer.count("dram.activates", stats.activates)
    tracer.count("dram.refreshes", stats.refreshes)
    tracer.count("dram.commands_recorded", len(getattr(result, "commands", ())))
    tracer.count("dram.fallback_phases", int(bool(getattr(stats, "kernel_fallback", False))))
    tracer.count("mixed.turnarounds", getattr(result, "turnarounds", 0))


def _observe_chunk(tracer: Tracer, args: tuple, kwargs: dict, chunk: Any) -> None:
    tracer.count("mapping.bursts", len(chunk[0]))


def _observe_frames(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("channel.frames", kwargs.get("frames", args[1] if len(args) > 1 else 0))


def _observe_read(tracer: Tracer, args: tuple, kwargs: dict, payload: Any) -> None:
    tracer.count("store.misses" if payload is None else "store.hits")


#: Public entry points wrapped in the traced run, one layer each.
TARGETS = (
    Target("repro.dram.engine:SchedulingEngine.run", "dram.sched", _observe_dram),
    Target("repro.dram.kernel:KernelEngine.run", "dram.sched", _observe_dram),
    Target("repro.mapping.base:InterleaverMapping.write_addresses_array", "mapping.addr",
           _observe_chunk, iterator=True),
    Target("repro.mapping.base:InterleaverMapping.read_addresses_array", "mapping.addr",
           _observe_chunk, iterator=True),
    Target("repro.dram.energy:energy_from_tally", "energy"),
    Target("repro.dram.energy:energy_from_commands", "energy"),
    Target("repro.dram.energy:combine_interleaver_reports", "energy"),
    Target("repro.system.e2e:run_e2e", "e2e.cell"),
    Target("repro.system.downlink:OpticalDownlink.run_batched", "channel.downlink",
           _observe_frames),
    Target("repro.channel.gilbert_elliott:GilbertElliottChannel.error_positions",
           "channel.sample"),
    Target("repro.channel.codeword:report_from_counts", "channel.decode"),
    Target("repro.store.store:ResultStore.write", "store.write"),
    Target("repro.store.store:ResultStore.read", "store.read", _observe_read),
    Target("repro.system.campaign:evaluate_cell", "campaign.cell"),
)


def _is_channel_or_dram(span: Span) -> bool:
    return span.name.startswith(("channel.", "dram."))


def pass_layers(spans: Sequence[Span], counts: Mapping[str, float],
                scale: Callable[[str], float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Args:
        spans: every span the pass recorded (the serial campaign pass
            included; its spans feed the channel and pool figures).
        counts: the pass's exact counts.
        scale: host-speed scale of an operation id (see ``run.py``).

    Returns:
        Host times in seconds, counts as counted, plus ``pass_s`` (the
        pass's root spans), ``self_sum_s`` (every self time of the
        pass, which adds up to ``pass_s``), ``pool_wall_s`` (the pooled
        cold campaign call) and ``serial_cells_s`` (campaign cells
        evaluated serially).
    """
    selfs = self_times(spans)
    e2e_selfs = self_times(spans, _is_channel_or_dram)
    by_id = {span.span_id: span for span in spans}
    out: Counter = Counter()
    for span in spans:
        factor = scale(span.op)
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        serial = root.name == SERIAL_ROOT
        if span.name in ROOT_SPANS:
            out["pass_s"] += span.duration * factor
        if not serial:
            out["self_sum_s"] += selfs[span.span_id] * factor
        if span.name == "campaign.cold":
            out["pool_wall_s"] += span.duration * factor
        metric = SELF_METRIC.get(span.name)
        if metric is not None and (not serial or metric.startswith("channel.")):
            out[metric] += selfs[span.span_id] * factor
        if span.name == "e2e.cell":
            out["e2e.cell_s"] += span.duration * factor
            out["e2e.self_s"] += e2e_selfs[span.span_id] * factor
        if span.name == "campaign.cell" and serial:
            out["serial_cells_s"] += span.duration * factor
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    requests = counts.get("dram.bursts", 0)
    out["dram.row_hit_ratio"] = counts.get("dram.page_hits", 0) / requests if requests else 0.0
    out["dram.ns_per_burst"] = out["dram.sched_s"] / requests * 1e9 if requests else 0.0
    return dict(out)
