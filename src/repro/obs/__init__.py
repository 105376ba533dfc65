"""Observability layer: engine events, metrics, sync-round stats, export.

The subsystem is strictly *passive*: installing a sink or a metrics
registry never draws randomness, never advances simulated time, and never
changes scheduling — a seeded simulation produces bit-identical results
with and without observability enabled (tested in
``tests/simmpi/test_obs_determinism.py``).

Entry points:

* :mod:`repro.obs.events` — the :class:`EventSink` protocol, typed event
  records emitted by the engine/communicator, and ready-made sinks.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with per-rank
  labels and job-level aggregation.
* :mod:`repro.obs.sync_stats` — per-round instrumentation of the clock
  synchronization algorithms (RTTs per fit point, fit residuals, slopes).
* :mod:`repro.obs.chrome_trace` — Chrome trace-event JSON export
  (Perfetto/about:tracing), with optional logical-clock remapping.
* :mod:`repro.obs.timeseries` — bounded, decimating per-rank telemetry
  series (clock error, drift model, resync age, NIC backlog) + markers.
* :mod:`repro.obs.health` — anomaly detectors over the telemetry bank
  producing typed findings and a per-run verdict.
* :mod:`repro.obs.report` — self-contained HTML + JSON run reports.
* :mod:`repro.obs.spans` — causal span/edge recorder (message edges,
  sync-phase spans, block intervals) over the event stream.
* :mod:`repro.obs.causal` — critical-path extraction, per-level latency
  attribution, and round-depth measurement over recorded spans.
"""

from repro.obs.events import (
    CollectiveEnter,
    CollectiveExit,
    CountingSink,
    EventSink,
    MsgDeliver,
    MsgSend,
    NicQueue,
    PhaseBegin,
    PhaseEnd,
    ProcBlock,
    ProcWake,
    RecordingSink,
    TeeSink,
    default_sink,
    get_default_sink,
    set_default_sink,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_metrics,
    format_summary,
    get_default_metrics,
    set_default_metrics,
)
from repro.obs.sync_stats import (
    FitpointSample,
    SyncRoundRecord,
    SyncStatsCollector,
)
from repro.obs.timeseries import (
    TimeSeries,
    TimeSeriesBank,
    default_timeseries,
    get_default_timeseries,
    set_default_timeseries,
)
from repro.obs.health import (
    HealthFinding,
    HealthThresholds,
    HealthVerdict,
    evaluate_health,
)
from repro.obs.report import build_report, render_html, write_report
from repro.obs.spans import MessageEdge, PhaseSpan, SpanRecorder

__all__ = [
    "CollectiveEnter",
    "CollectiveExit",
    "Counter",
    "CountingSink",
    "EventSink",
    "FitpointSample",
    "Gauge",
    "HealthFinding",
    "HealthThresholds",
    "HealthVerdict",
    "Histogram",
    "MessageEdge",
    "MetricsRegistry",
    "MsgDeliver",
    "MsgSend",
    "NicQueue",
    "PhaseBegin",
    "PhaseEnd",
    "PhaseSpan",
    "ProcBlock",
    "ProcWake",
    "RecordingSink",
    "SpanRecorder",
    "SyncRoundRecord",
    "SyncStatsCollector",
    "TeeSink",
    "TimeSeries",
    "TimeSeriesBank",
    "build_report",
    "default_metrics",
    "default_sink",
    "default_timeseries",
    "evaluate_health",
    "format_summary",
    "get_default_metrics",
    "get_default_sink",
    "get_default_timeseries",
    "render_html",
    "set_default_metrics",
    "set_default_sink",
    "set_default_timeseries",
    "write_report",
]
