"""Closed-loop and open-loop passes through the streaming service.

Both passes submit the same chunks, tenant-interleaved (chunk 0 of every
tenant, then chunk 1, ...), to a fresh
:class:`~repro.service.StreamingDetectionService` with ``block``
backpressure.

- The **closed loop** submits as fast as backpressure admits; its
  throughput is event cells over the time from the first submit to
  ``join``.
- The **open loop** submits submission ``i`` when it is due, at
  ``start + i * cells_per_chunk / rate`` for one fixed absolute ``rate``.
  A window's latency runs from when the chunk completing it was due to
  when the service emitted it, so a stall also counts against the
  windows queued behind it.  How late the generator itself ran is
  recorded beside it.

The benchmark's main thread is the only generator thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry
from repro.service import StreamingDetectionService

#: Samples per submitted chunk.
CHUNK_SAMPLES = 24
#: Bound on the shard's ingest queue, in chunks.
QUEUE_DEPTH = 16
#: Shard workers; with the generator thread this needs two cores.
SHARDS = 1


def chunk_log(log, samples: int = CHUNK_SAMPLES) -> list[dict]:
    """A log as a list of ``{sensor: [state, ...]}`` blocks."""
    columns = {name: list(log[name].events) for name in log.sensors}
    return [
        {name: column[start : start + samples] for name, column in columns.items()}
        for start in range(0, log.num_samples, samples)
    ]


def interleave(streams: dict[str, list[dict]]) -> list[tuple[str, int, dict]]:
    """``(tenant, chunk index, chunk)`` in submission order."""
    longest = max(len(chunks) for chunks in streams.values())
    return [
        (tenant, index, chunks[index])
        for index in range(longest)
        for tenant, chunks in streams.items()
        if index < len(chunks)
    ]


def chunk_cells(chunk: dict) -> int:
    return sum(len(column) for column in chunk.values())


@dataclass
class PassResult:
    """What one pass submitted and what the service emitted."""

    seconds: float
    cells: int
    submitted: int
    dropped: int
    quarantined: int
    feeds: dict[str, list]  # tenant -> WindowScore list, stream order
    submit_times: dict[str, list[float]]  # tenant -> submit times, chunk order
    fleet_windows: list  # FleetWindow list, canonical order
    service: StreamingDetectionService
    latencies_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)


class StreamRunner:
    """Runs passes over one graph with one detector configuration."""

    def __init__(self, graph, detector_options: dict, window_span: int) -> None:
        self.graph = graph
        self.options = detector_options
        self.window_span = window_span

    def service(self, tenants) -> StreamingDetectionService:
        return StreamingDetectionService(
            self.graph,
            list(tenants),
            num_shards=SHARDS,
            queue_depth=QUEUE_DEPTH,
            backpressure="block",
            metrics=MetricsRegistry(),
            **self.options,
        )

    def _finish(self, service, order, seconds, submit_times) -> PassResult:
        feed = service.merged_feed()
        service.close()
        metrics = service.metrics
        feeds: dict[str, list] = {tenant: [] for tenant in service.tenants}
        for fleet_window in feed:
            feeds[fleet_window.tenant].append(fleet_window.window)
        return PassResult(
            seconds=seconds,
            cells=sum(chunk_cells(chunk) for _, _, chunk in order),
            submitted=len(order),
            dropped=int(metrics.value("service.dropped", 0)),
            # The chunk that poisons a tenant is lost as well as the
            # ones dropped after it.
            quarantined=int(metrics.value("service.quarantined_chunks", 0))
            + len(service.errors),
            feeds=feeds,
            submit_times=submit_times,
            fleet_windows=feed,
            service=service,
        )

    def closed_loop(self, streams, service=None) -> PassResult:
        order = interleave(streams)
        service = service or self.service(streams)
        submit_times = {tenant: [] for tenant in streams}
        start = time.perf_counter()
        for tenant, _, chunk in order:
            submit_times[tenant].append(time.perf_counter())
            service.submit(tenant, chunk)
        service.join()
        seconds = time.perf_counter() - start
        return self._finish(service, order, seconds, submit_times)

    def open_loop(self, streams, rate: float) -> PassResult:
        """Submit on a fixed schedule of ``rate`` event cells per second."""
        order = interleave(streams)
        service = self.service(streams)
        submit_times = {tenant: [] for tenant in streams}
        due: dict[tuple[str, int], float] = {}
        lag_ms = []
        start = time.perf_counter() + 0.01
        offset = 0.0
        for tenant, index, chunk in order:
            when = start + offset
            offset += chunk_cells(chunk) / rate
            pause = when - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            now = time.perf_counter()
            lag_ms.append(max(0.0, now - when) * 1000.0)
            due[(tenant, index)] = when
            submit_times[tenant].append(now)
            service.submit(tenant, chunk)
        service.join()
        seconds = time.perf_counter() - start
        result = self._finish(service, order, seconds, submit_times)
        # A window's emission time is its chunk's enqueue time plus the
        # ingest-to-emit latency the shard stamped on it.
        for fleet_window in result.fleet_windows:
            window = fleet_window.window
            last_sample = window.start_sample + self.window_span - 1
            index = last_sample // CHUNK_SAMPLES
            emitted = submit_times[fleet_window.tenant][index] + fleet_window.latency_seconds
            result.latencies_ms.append(
                (emitted - due[(fleet_window.tenant, index)]) * 1000.0
            )
        result.lag_ms = lag_ms
        return result
