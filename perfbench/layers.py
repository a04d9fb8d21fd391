"""Per-layer metrics of the traced run, read back from its spans.

A metric covers the traced set-up plus one round: the set-up's share is
taken once, the round's share is the median over the traced rounds.
Spans on the shard worker threads are placed in a round by their start
time.
"""

from __future__ import annotations

import statistics

from tracing import SpanIndex

#: Per-layer metric name -> unit; BENCHMARK.json lists the same.
LAYER_UNITS = {
    "datasets.ingest_s": "s",
    "lang.sentences_s": "s",
    "translation.model_fit_s": "s",
    "translation.cohorts": "count",
    "translation.dev_translate_s": "s",
    "translation.dev_bleu_s": "s",
    "translation.test_translate_s": "s",
    "translation.test_bleu_s": "s",
    "translation.translate_calls": "count",
    "translation.bleu_calls": "count",
    "pipeline.pair_train_s": "s",
    "pipeline.pairs_trained": "count",
    "pipeline.pairs_cached": "count",
    "pipeline.pairs_skipped": "count",
    "pipeline.store_write_s": "s",
    "pipeline.store_read_s": "s",
    "pipeline.warm_start_s": "s",
    "graph.valid_pairs": "count",
    "detection.batch_window_ms": "ms",
    "detection.online_window_ms": "ms",
    "detection.online_eps": "events/s",
    "service.queue_wait_ms": "ms",
    "service.queue_depth_max": "count",
    "service.score_ms": "ms",
    "stream.generator_lag_ms": "ms",
    "bench.trace_overhead_s": "s",
}

#: Time metrics read straight from spans: metric -> (span names, excluded).
_SPAN_TIMES = {
    "datasets.ingest_s": (("datasets.ingest",), ()),
    "lang.sentences_s": (("lang.sentences",), ()),
    # A batched cohort scores its own dev set; that time is reported
    # under the dev metrics, not twice.
    "translation.model_fit_s": (
        ("translation.model_fit",),
        ("translation.dev_translate", "translation.dev_bleu"),
    ),
    "translation.dev_translate_s": (("translation.dev_translate",), ()),
    "translation.dev_bleu_s": (("translation.dev_bleu",), ()),
    "translation.test_translate_s": (("translation.test_translate",), ()),
    "translation.test_bleu_s": (("translation.test_bleu",), ()),
    "pipeline.pair_train_s": (("pipeline.pair_train",), ()),
    "pipeline.store_write_s": (("pipeline.store_write",), ()),
    "pipeline.store_read_s": (("pipeline.store_read",), ()),
    "pipeline.warm_start_s": (("pipeline.warm_start",), ()),
}
_TRANSLATE = ("translation.dev_translate", "translation.test_translate")
_BLEU = ("translation.dev_bleu", "translation.test_bleu")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _queue_waits(stream, push_starts) -> list[float]:
    """Submit -> ``push_chunk`` start, matched per tenant in FIFO order."""
    waits = []
    for shard in stream.service.shards.values():
        for tenant, detector in shard.detectors.items():
            starts = push_starts.get(id(detector), [])
            submits = stream.submit_times.get(tenant, [])
            waits += [(b - a) * 1000.0 for a, b in zip(submits, starts)]
    return waits


def _queue_depth_max(stream, push_starts) -> int:
    """Most chunks waiting in one shard's queue when a chunk was submitted."""
    deepest = 0
    for shard in stream.service.shards.values():
        submits = sorted(t for tenant in shard.detectors for t in stream.submit_times[tenant])
        starts = sorted(
            t for detector in shard.detectors.values() for t in push_starts.get(id(detector), [])
        )
        started = 0
        for position, submitted in enumerate(submits):
            while started < len(starts) and starts[started] <= submitted:
                started += 1
            deepest = max(deepest, position - started)
    return deepest


def layer_metrics(recorder, setup_window, round_windows, rounds, setup_builds,
                  replay, overhead_s: float) -> tuple[dict[str, float], dict]:
    """The per-layer metrics and the self-time breakdown of every span."""
    index = SpanIndex(recorder.spans)
    values: dict[str, float] = {}

    def setup_plus_round(measure) -> float:
        return measure(setup_window) + _median(measure(w) for w in round_windows)

    for metric, (names, exclude) in _SPAN_TIMES.items():
        values[metric] = setup_plus_round(
            lambda w, names=names, exclude=exclude: index.seconds(names, w, exclude)
        )
    values["translation.translate_calls"] = setup_plus_round(
        lambda w: index.count(_TRANSLATE, w)
    )
    values["translation.bleu_calls"] = setup_plus_round(lambda w: index.count(_BLEU, w))

    def build_counts(field) -> float:
        setup = sum(field(report) for report in setup_builds)
        return setup + _median(sum(field(b) for b in r.builds) for r in rounds)

    values["translation.cohorts"] = build_counts(lambda b: b.cohorts)
    values["pipeline.pairs_trained"] = build_counts(lambda b: len(b.completed))
    values["pipeline.pairs_cached"] = build_counts(lambda b: len(b.cached))
    values["pipeline.pairs_skipped"] = build_counts(lambda b: len(b.skipped))
    values["graph.valid_pairs"] = _median(r.valid_pairs for r in rounds)
    values["detection.batch_window_ms"] = _median(
        index.seconds(("detection.batch",), w) * 1000.0 / r.batch_windows
        for w, r in zip(round_windows, rounds)
    )

    online_seconds = index.seconds(("detection.online",), replay["window"])
    values["detection.online_window_ms"] = online_seconds * 1000.0 / replay["windows"]
    values["detection.online_eps"] = replay["cells"] / online_seconds

    # Queue figures come from the open loop: the closed loop fills the
    # queue to its bound by construction.
    push_starts = recorder.push_starts
    values["service.queue_wait_ms"] = _median(
        _median(_queue_waits(r.open, push_starts)) for r in rounds
    )
    values["service.queue_depth_max"] = max(
        _queue_depth_max(r.open, push_starts) for r in rounds
    )
    values["service.score_ms"] = _median(
        _median(index.durations_ms("service.score", w)) for w in round_windows
    )
    values["stream.generator_lag_ms"] = _median(max(r.open.lag_ms) for r in rounds)
    values["bench.trace_overhead_s"] = overhead_s
    return values, index.breakdown()
