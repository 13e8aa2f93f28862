"""Trace exporters: Chrome trace-event JSON, NDJSON metrics, text summary.

The Chrome trace-event format is the lingua franca of timeline viewers —
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev) both load it
directly.  The export draws two process groups:

* **pid 1 — wall clock**: one thread track per lane (``main`` plus one
  per pool worker), timestamps from ``perf_counter``.  A pool's
  ``compute_column`` spans, one per block column of a multiply, sit in
  the worker lanes under the main lane's ``columns`` span.
* **pid 2 — simulated clock**: the same spans re-plotted at their
  simulated-seconds coordinates (spans without a simulated interval are
  omitted).  This is the modeled machine's view — the per-stage
  breakdowns of the paper's Figs. 1/5/8 read off these tracks.

Metric events ride along as counter events on the wall timeline, and the
text summary (:func:`summarize`) gives the no-viewer-needed digest:
per-category span totals, worker lanes, link overlap evidence, and counter
totals.
"""

from __future__ import annotations

import json
from collections import defaultdict

from .metrics import MetricEvent, _jsonable, write_metrics_ndjson
from .tracer import MAIN_LANE, Span, Tracer

#: Microseconds per second (trace-event timestamps are in µs).
_US = 1e6


def _lane_tids(spans: list[Span]) -> dict[str, int]:
    """Stable lane -> tid mapping: main first, workers in first-seen order."""
    tids: dict[str, int] = {}
    for s in spans:
        if s.lane not in tids:
            tids[s.lane] = len(tids)
    if MAIN_LANE in tids and tids[MAIN_LANE] != 0:
        # Force main onto tid 0 so it tops the track list.
        other = [ln for ln in tids if ln != MAIN_LANE]
        tids = {MAIN_LANE: 0, **{ln: i + 1 for i, ln in enumerate(other)}}
    return tids


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The trace-event list for one tracer (no file I/O)."""
    spans = sorted(tracer.spans, key=lambda s: s.t0_wall)
    tids = _lane_tids(spans)
    t0 = min((s.t0_wall for s in spans), default=0.0)
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1,
         "args": {"name": "wall clock"}},
        {"ph": "M", "name": "process_name", "pid": 2,
         "args": {"name": "simulated clock"}},
    ]
    for lane, tid in tids.items():
        for pid in (1, 2):
            events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": lane}}
            )
    for s in spans:
        args = _jsonable(s.attrs)
        if s.t0_sim is not None:
            args = {**args, "t0_sim": s.t0_sim, "t1_sim": s.t1_sim}
        common = {
            "name": s.name,
            "cat": s.cat,
            "pid": 1,
            "tid": tids[s.lane],
            "args": args,
        }
        if s.t1_wall > s.t0_wall:
            events.append(
                {**common, "ph": "X", "ts": (s.t0_wall - t0) * _US,
                 "dur": s.wall_seconds * _US}
            )
        else:
            events.append(
                {**common, "ph": "i", "s": "t", "ts": (s.t0_wall - t0) * _US}
            )
        if s.t0_sim is not None and s.t1_sim is not None:
            sim_common = {**common, "pid": 2}
            if s.t1_sim > s.t0_sim:
                events.append(
                    {**sim_common, "ph": "X", "ts": s.t0_sim * _US,
                     "dur": (s.t1_sim - s.t0_sim) * _US}
                )
            else:
                events.append(
                    {**sim_common, "ph": "i", "s": "t",
                     "ts": s.t0_sim * _US}
                )
    for m in tracer.metrics:
        if isinstance(m.value, (int, float)) and not isinstance(m.value, bool):
            events.append(
                {"ph": "C", "name": m.name, "pid": 1, "tid": 0,
                 "ts": (m.t_wall - t0) * _US, "args": {"value": m.value}}
            )
    return events


def write_chrome_trace(tracer: Tracer, path) -> int:
    """Write the Perfetto-loadable JSON; returns the event count."""
    events = chrome_trace_events(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        fh.write("\n")
    return len(events)


def write_metrics(tracer: Tracer, path) -> int:
    """Write the tracer's metric stream as NDJSON (line count returned)."""
    return write_metrics_ndjson(tracer.metrics, path)


# ---------------------------------------------------------------------------
# Link overlap evidence and the text summary
# ---------------------------------------------------------------------------


def merge_report(tracer: Tracer) -> dict | None:
    """Wall-clock share of the merge phase.

    Returns ``None`` for traces without any merge span; otherwise a dict:

    * ``main_seconds`` — wall time inside main-lane ``merge`` /
      ``finish_merge`` spans (the pricing pass of the stage products and
      their merge events; the numeric merges run inside each block
      column's task, under the multiply's ``columns`` span);
    * ``window_seconds`` — the trace's overall wall window;
    * ``share`` — the merge spans' share of that window.
    """
    main = [
        s for s in tracer.spans
        if s.cat == "summa" and s.name in ("merge", "finish_merge")
        and s.lane == MAIN_LANE
    ]
    if not main:
        return None
    timed = [s for s in tracer.spans if s.t1_wall > s.t0_wall]
    window = (
        max(s.t1_wall for s in timed) - min(s.t0_wall for s in timed)
        if timed
        else 0.0
    )
    main_s = sum(s.wall_seconds for s in main)
    return {
        "main_seconds": main_s,
        "window_seconds": window,
        "share": main_s / window if window > 0 else 0.0,
    }


def link_overlap_report(tracer: Tracer) -> dict | None:
    """Simulated-clock overlap between link traffic and rank-clock work.

    The static pipeline schedule posts its transfers on per-row/column
    **link lanes** (``link:row:i`` / ``link:col:j``) as
    ``broadcast.async`` spans — ``p2p.async`` where the hybrid transport
    sends a column group point to point — carrying pure simulated
    intervals and the ``phase`` and ``stage`` that posted them.  Replaying
    the posts in order, this report intersects them with the simulated
    windows of the compute spans on the ordinary lanes, counting each
    window the transfers the engine counts there:

    * ``compute_overlap_seconds`` — link seconds under each stage's
      ``merge`` span (the pricing of its products and their merges),
      counting the transfers posted so far for that stage or a later
      one: the stage's own, and those of the next stage already posted
      under the double buffer.  This equals the run's
      ``bcast_overlap_seconds``;
    * ``prune_overlap_seconds`` — link seconds under the per-column
      ``prune.column`` wrap-up windows of phase p, counting only the
      transfers of later phases posted before the window (phase p+1's
      first stages, draining while phase p finalizes and prunes).  Phase
      p's own transfers are consumed by then, so this equals the run's
      ``prune_bcast_overlap_seconds``.

    Returns ``None`` when the trace has no link-lane spans (synchronous
    schedule, or tracing off during the expansions).  All figures derive
    from simulated coordinates only, so they are identical at every
    worker count.
    """

    def on_link(s: Span) -> bool:
        return (
            s.name in ("broadcast.async", "p2p.async")
            and (s.lane or "").startswith("link:")
            and s.t0_sim is not None and s.t1_sim is not None
        )

    transfers = [s for s in tracer.spans if on_link(s)]
    if not transfers:
        return None

    def node(s: Span) -> tuple:
        return (s.attrs["phase"], s.attrs.get("stage", 0))

    def overlap(posted: list[Span], window: Span) -> float:
        return sum(
            max(0.0, min(b.t1_sim, window.t1_sim)
                - max(b.t0_sim, window.t0_sim))
            for b in posted
        )

    # A post that goes back in (phase, stage) order opens the next
    # multiply.  Each window consumes the posts before its own node.
    compute_s = prune_s = 0.0
    pending: list[Span] = []
    last = None
    for s in sorted(tracer.spans, key=lambda s: s.id):
        if on_link(s) and "phase" in s.attrs:
            if last is not None and node(s) < last:
                pending = []
            last = node(s)
            pending.append(s)
        elif s.cat != "summa" or s.t0_sim is None or s.t1_sim is None:
            continue
        elif s.name == "merge":
            pending = [b for b in pending if node(b) >= node(s)]
            compute_s += overlap(pending, s)
        elif s.name == "prune.column":
            p = s.attrs["phase"]
            pending = [b for b in pending if b.attrs["phase"] > p]
            prune_s += overlap(pending, s)
    return {
        "links": len({s.lane for s in transfers}),
        "transfers": len(transfers),
        "link_sim_seconds": sum(s.t1_sim - s.t0_sim for s in transfers),
        "compute_overlap_seconds": compute_s,
        "prune_overlap_seconds": prune_s,
    }


def summarize(tracer: Tracer) -> str:
    """Human-readable digest of a trace (the ``tools/run_trace.py`` view)."""
    lines = []
    spans = tracer.spans
    lines.append(
        f"trace: {len(spans)} spans, {len(tracer.metrics)} metric events, "
        f"{len(tracer.lanes())} lanes"
    )
    by_cat: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.t1_wall > s.t0_wall:
            by_cat[f"{s.cat}/{s.name}"].append(s)
    if by_cat:
        lines.append("")
        lines.append(f"{'span':<28}{'count':>7}{'wall total':>13}"
                     f"{'sim total':>13}")
        for key in sorted(
            by_cat, key=lambda k: -sum(s.wall_seconds for s in by_cat[k])
        ):
            group = by_cat[key]
            wall = sum(s.wall_seconds for s in group)
            sims = [s.sim_seconds for s in group if s.sim_seconds is not None]
            sim = f"{sum(sims):>11.4f}s" if sims else f"{'-':>12}"
            lines.append(
                f"{key:<28}{len(group):>7}{wall * 1e3:>11.1f}ms{sim}"
            )
    worker_lanes = [ln for ln in tracer.lanes() if ln != MAIN_LANE]
    if worker_lanes:
        lines.append("")
        lines.append(f"worker lanes: {len(worker_lanes)}")
    link = link_overlap_report(tracer)
    if link is not None:
        lines.append("")
        lines.append(
            f"link lanes: {link['links']} carrying {link['transfers']} "
            f"async transfer(s), {link['link_sim_seconds'] * 1e3:.2f}ms "
            "simulated on the wires"
        )
        lines.append(
            f"transfer/compute overlap: "
            f"{link['compute_overlap_seconds'] * 1e3:.2f}ms under merge "
            f"spans; prune/transfer overlap: "
            f"{link['prune_overlap_seconds'] * 1e3:.2f}ms under prune spans"
        )
    merge = merge_report(tracer)
    if merge is not None:
        lines.append("")
        lines.append(
            f"merge phase: {merge['main_seconds'] * 1e3:.1f}ms main-lane "
            f"({merge['share'] * 100:.1f}% of the wall window)"
        )
    if tracer.counters:
        lines.append("")
        for name in sorted(tracer.counters):
            lines.append(f"counter {name}: {tracer.counters[name]}")
    return "\n".join(lines)


__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "write_metrics",
    "link_overlap_report",
    "merge_report",
    "summarize",
    "MetricEvent",
    "write_metrics_ndjson",
]
