"""The three workloads: inputs, set-up, one timed round, and checks.

Every workload follows one journey — build the relationship graph
(Algorithm 1), score a finished test log in batch (Algorithm 2), and
serve the test stream live through the streaming service — sized so
that a different part dominates each:

- ``plant-batch``: the ``large`` scale tier (24 sensors, 24 days of 192
  samples, split 8/4/12 days).  Fit and batch detect over 506 pairs
  dominate; the stream passes replay only the first test day.
- ``fleet-stream``: seven tenants, one per fault scenario, sharing one
  pooled graph that set-up fits cold into a fresh artifact store and
  warm-starts from it.  The stream passes over all seven test periods
  dominate.
- ``nmt-fit``: an 8-sensor plant fitted with the seq2seq engine and the
  batched trainer.  Training steps and greedy decoding dominate.

A workload's inputs are a pure function of the seed.  Set-up writes them
to CSV under the run's work directory and ingests them in chunks, so the
program only ever sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.scale import SCALE_TIERS
from repro.datasets.plant import PlantConfig, generate_plant_dataset
from repro.detection.anomaly import AnomalyDetector
from repro.graph.mvrg import MultivariateRelationshipGraph
from repro.graph.ranges import ScoreRange
from repro.lang import LanguageConfig
from repro.lang.corpus import filter_constant_sensors
from repro.lang.events import MultivariateEventLog
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.config import FrameworkConfig
from repro.pipeline.framework import AnalyticsFramework
from repro.scenarios import generate_scenario, harness_framework_config
from repro.scenarios.generators import ScenarioParams, scenario_names
from repro.service import warm_start_graph
from repro.translation.seq2seq import NMTConfig

from reference import (
    Checks,
    check_algorithm2,
    check_dev_scores,
    check_feed_matches_batch,
    check_test_scores,
    expected_windows,
)
from stream import PassResult, StreamRunner, chunk_log

#: Rows per chunk when set-up ingests a CSV.
INGEST_CHUNK = 256


@dataclass
class Round:
    """One timed round's timings and outputs."""

    detect_s: list[float]  # one per batch detect in the round
    closed: PassResult
    open: PassResult
    valid_pairs: int
    batch_windows: int
    fit_s: float | None = None
    builds: list = field(default_factory=list)  # BuildReports of this round
    outputs: dict = field(default_factory=dict)  # kept for the checks


class Accounting:
    """Operations attempted and failed, by kind."""

    KINDS = ("pairs", "windows", "chunks", "checks")

    def __init__(self) -> None:
        self.attempted = dict.fromkeys(self.KINDS, 0)
        self.failed = dict.fromkeys(self.KINDS, 0)

    def add(self, kind: str, attempted: int, failed: int) -> None:
        self.attempted[kind] += attempted
        self.failed[kind] += failed

    def build(self, report) -> None:
        """Pairs scheduled vs skipped in one Algorithm 1 build."""
        scheduled = (
            len(report.completed)
            + len(report.cached)
            + len(report.resumed)
            + len(report.skipped)
            + len(report.pruned)
        )
        self.add("pairs", scheduled, len(report.skipped))

    def stream(self, result: PassResult, expected: dict[str, int]) -> None:
        """Windows expected vs emitted per tenant; chunks vs lost."""
        for tenant, count in expected.items():
            emitted = len(result.feeds.get(tenant, ()))
            self.add("windows", count, max(0, count - emitted))
        self.add("chunks", result.submitted, result.dropped + result.quarantined)


class Workload:
    """Shared scaffolding; subclasses define inputs, rounds and checks."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3
    #: Open-loop offered load, event cells per second.
    rate = 0.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorder = None  # a SpanRecorder during the traced run
        self.setup_fit_s: list[float] = []
        self.setup_builds: list = []
        self.digests: dict[str, str] = {}

    def phase(self, name: str):
        """A ``bench.*`` span in the traced run, nothing otherwise."""
        return nullcontext() if self.recorder is None else self.recorder.span(name)

    def ingest(self, log, stem: str):
        """Write ``log`` to CSV and ingest it back in chunks."""
        path = self.workdir / f"{stem}.csv"
        log.to_csv(path)
        return MultivariateEventLog.from_csv(path, chunk_size=INGEST_CHUNK), path

    @staticmethod
    def detector_options(config: FrameworkConfig) -> dict:
        return {
            "score_range": config.detection_range,
            "threshold": config.threshold_strategy,
            "quantile": config.threshold_quantile,
            "margin": config.margin,
        }

    # Subclass interface ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def replay(self):
        """``(graph, detector options, streams)`` for the online replay."""
        raise NotImplementedError

    def check(self, rounds: list[Round], checks: Checks) -> None:
        raise NotImplementedError

    def expected_stream_windows(self) -> dict[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up holds open."""


class _FrameworkWorkload(Workload):
    """plant-batch and nmt-fit: one plant log, fit + detect each round."""

    setups = 5
    #: Test samples replayed through the stream passes.
    stream_samples = 0

    def framework_config(self) -> FrameworkConfig:
        raise NotImplementedError

    def generate(self):
        raise NotImplementedError

    def split(self, log):
        raise NotImplementedError

    def setup(self) -> None:
        generated = self.generate()
        log, self.csv = self.ingest(generated, "plant")
        self.generated = generated
        self.chunked = log
        self.train, self.dev, self.test = self.split(log)
        self.stream_log = self.test.slice(0, self.stream_samples)

    def streams(self) -> dict[str, list[dict]]:
        return {self.name: chunk_log(self.stream_log)}

    def expected_stream_windows(self) -> dict[str, int]:
        language = self.framework_config().language
        return {self.name: expected_windows(language, self.stream_log.num_samples)}

    def round(self) -> Round:
        config = self.framework_config()
        framework = AnalyticsFramework(config)
        with self.phase("bench.fit"):
            start = time.perf_counter()
            framework.fit(self.train, self.dev)
            fit_s = time.perf_counter() - start
        result, first_s = self.detect(framework)
        self.last_graph = framework.graph
        runner = StreamRunner(
            framework.graph,
            self.detector_options(config),
            config.language.samples_per_sentence(),
        )
        with self.phase("bench.stream_closed"):
            closed = runner.closed_loop(self.streams())
        # Detect again between the stream passes, as fleet-stream does,
        # to sample the host across the round.  This call reuses the
        # framework's memoized sentence encoding (about 1% of detect).
        again, second_s = self.detect(framework)
        with self.phase("bench.stream_open"):
            opened = runner.open_loop(self.streams(), self.rate)
        return Round(
            fit_s=fit_s,
            detect_s=[first_s, second_s],
            closed=closed,
            open=opened,
            valid_pairs=result.num_valid_pairs,
            batch_windows=result.num_windows + again.num_windows,
            builds=[framework.build_report],
            outputs={"framework": framework, "result": result, "again": again},
        )

    def detect(self, framework):
        with self.phase("bench.detect"):
            start = time.perf_counter()
            result = framework.detect(self.test)
            return result, time.perf_counter() - start

    def replay(self):
        config = self.framework_config()
        return (
            self.last_graph,
            self.detector_options(config),
            self.streams(),
        )

    def check(self, rounds: list[Round], checks: Checks) -> None:
        config = self.framework_config()
        framework = rounds[-1].outputs["framework"]
        result = rounds[-1].outputs["result"]
        graph = framework.graph
        checks.run(
            "rounds agree",
            lambda: None
            if all(
                (r.outputs[key].test_scores == result.test_scores).all()
                and r.outputs[key].valid_pairs == result.valid_pairs
                for r in rounds
                for key in ("result", "again")
            )
            else "test scores differ between rounds",
        )
        checks.run("reference BLEU, dev", lambda: check_dev_scores(graph, self.dev))
        checks.run(
            "reference BLEU, test", lambda: check_test_scores(graph, result, self.test)
        )
        checks.run(
            "algorithm 2",
            lambda: check_algorithm2(
                graph,
                result,
                config.detection_range,
                config.threshold_strategy,
                config.threshold_quantile,
                config.margin,
            ),
        )
        checks.run(
            "window count",
            lambda: None
            if result.num_windows
            == framework.windows_per_sample_count(self.test.num_samples)
            else f"{result.num_windows} windows, expected "
            f"{framework.windows_per_sample_count(self.test.num_samples)}",
        )
        expected = self.expected_stream_windows()[self.name]
        for index, done in enumerate(rounds):
            batch = done.outputs["result"]
            for label, stream in (("closed", done.closed), ("open", done.open)):
                checks.run(
                    f"round {index} {label}-loop feed == batch",
                    lambda stream=stream, batch=batch: check_feed_matches_batch(
                        stream.feeds[self.name], batch, expected
                    ),
                )


class PlantBatch(_FrameworkWorkload):
    name = "plant-batch"
    tier = SCALE_TIERS["large"]
    stream_samples = 384  # the first two test days
    rate = 2000.0

    def framework_config(self) -> FrameworkConfig:
        return harness_framework_config()

    def generate(self):
        return generate_plant_dataset(self.tier.plant_config(self.seed)).log

    def split(self, log):
        per_day = self.tier.samples_per_day
        train_end = self.tier.train_days * per_day
        dev_end = (self.tier.train_days + self.tier.dev_days) * per_day
        return (
            log.slice(0, train_end),
            log.slice(train_end, dev_end),
            log.slice(dev_end, self.tier.total_samples),
        )

    def check(self, rounds: list[Round], checks: Checks) -> None:
        resident = MultivariateEventLog.from_csv(self.csv)
        digests = {
            "generated": self.generated.frame.digest(),
            "chunked": self.chunked.frame.digest(),
            "resident": resident.frame.digest(),
        }
        self.digests = {"plant": digests["generated"]}
        checks.run(
            "ingest digests",
            lambda: None if len(set(digests.values())) == 1 else f"digests {digests}",
        )
        super().check(rounds, checks)


#: nmt-fit's plant: the training-throughput benchmark's 8-sensor plant,
#: with a longer test period so batch detect is long enough to time.
NMT_TRAIN_DAYS, NMT_DEV_DAYS, NMT_TEST_DAYS = 10, 3, 34
NMT_LANGUAGE = LanguageConfig(word_size=6, word_stride=1, sentence_length=8, sentence_stride=8)
NMT_STEPS = 80
#: Pairs retrained with the looped engine to check the batched engine.
NMT_LOOPED_SAMPLE = 2


def nmt_config() -> NMTConfig:
    base = NMTConfig.small(seed=0)
    return NMTConfig(**{**base.__dict__, "training_steps": NMT_STEPS})


class NmtFit(_FrameworkWorkload):
    name = "nmt-fit"
    stream_samples = 192  # the first two test days
    rate = 300.0

    def framework_config(self) -> FrameworkConfig:
        # Every pair with a nonzero dev score is monitored, so detect
        # decodes with every trained model and no seed leaves the
        # detector without valid pairs.
        return FrameworkConfig(
            language=NMT_LANGUAGE,
            engine="seq2seq",
            nmt=nmt_config(),
            train_engine="batched",
            detection_range=ScoreRange(0.0, 100.0, inclusive_high=True),
        )

    def generate(self):
        # The plant's rare-event sensor is constant over the training
        # days on some seeds (2 of seeds 1-10), which drops it and 12 of
        # the 42 pairs.  The plant seed is the first of seed, seed +
        # 10000, ... whose training days keep it, so every run trains
        # the same pairs' worth of work.
        days = NMT_TRAIN_DAYS + NMT_DEV_DAYS + NMT_TEST_DAYS
        for attempt in range(64):
            config = PlantConfig(
                num_sensors=8, days=days, samples_per_day=96, num_components=4,
                seed=self.seed + 10_000 * attempt,
            )
            log = generate_plant_dataset(config).log
            _, discarded = filter_constant_sensors(log.slice(0, NMT_TRAIN_DAYS * 96))
            if len(discarded) == 1:  # only the plant's constant sensor
                return log
        raise RuntimeError(f"no 7-sensor plant found from seed {self.seed}")

    def split(self, log):
        train_end = NMT_TRAIN_DAYS * 96
        dev_end = (NMT_TRAIN_DAYS + NMT_DEV_DAYS) * 96
        return (
            log.slice(0, train_end),
            log.slice(train_end, dev_end),
            log.slice(dev_end, log.num_samples),
        )

    def check(self, rounds: list[Round], checks: Checks) -> None:
        self.digests = {"plant": self.generated.frame.digest()}
        checks.run(
            "ingest digest",
            lambda: None
            if self.chunked.frame.digest() == self.digests["plant"]
            else "chunked ingest differs from the generated log",
        )
        super().check(rounds, checks)
        graph = rounds[-1].outputs["framework"].graph
        pairs = sorted(graph.relationships)
        sample = random.Random(self.seed).sample(pairs, min(NMT_LOOPED_SAMPLE, len(pairs)))

        def looped_matches() -> "str | None":
            looped = MultivariateRelationshipGraph.build(
                self.train,
                self.dev,
                config=NMT_LANGUAGE,
                engine="seq2seq",
                nmt_config=nmt_config(),
                pairs=sample,
            )
            for pair in sample:
                mine, theirs = looped[pair], graph[pair]
                if mine.score != theirs.score or not (
                    mine.dev_sentence_scores == theirs.dev_sentence_scores
                ).all():
                    return (
                        f"pair {pair}: looped {mine.score!r} != batched {theirs.score!r}"
                    )
            return None

        checks.run("looped == batched", looped_matches)


#: fleet-stream's scenario shape: every tenant shares it and the seed,
#: so their train/dev periods are identical and differ only in the
#: fault injected into the test day.
FLEET_PARAMS = ScenarioParams(
    num_sensors=16, days=9, samples_per_day=96, num_components=4,
    train_days=6, dev_days=2,
)


class FleetStream(Workload):
    name = "fleet-stream"
    rate = 1500.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # Every pair with a nonzero dev score is monitored: how many
        # pairs land in a narrower BLEU band swings with the seed (108
        # to 145 of 342 in [60, 100] over seeds 1-10 on a 20-sensor
        # fleet), and the work per window with it.
        self.config = dataclasses.replace(
            harness_framework_config(),
            detection_range=ScoreRange(0.0, 100.0, inclusive_high=True),
        )
        self.pending_service = None
        self.setup_count = 0

    def _slice(self, log):
        per_day = FLEET_PARAMS.samples_per_day
        train_end = FLEET_PARAMS.train_days * per_day
        return (
            log.slice(0, train_end),
            log.slice(train_end, FLEET_PARAMS.test_start),
            log.slice(FLEET_PARAMS.test_start, FLEET_PARAMS.total_samples),
        )

    def setup(self) -> None:
        self.close()
        self.tenants = scenario_names()
        self.generated, self.chunked, self.splits = {}, {}, {}
        for tenant in self.tenants:
            log = generate_scenario(tenant, params=FLEET_PARAMS, seed=self.seed).log
            self.generated[tenant] = log
            self.chunked[tenant] = self.ingest(log, tenant)[0]
            self.splits[tenant] = self._slice(self.chunked[tenant])
        train, dev, _ = self.splits[self.tenants[0]]
        self.train, self.dev = train, dev
        self.setup_count += 1
        store_dir = self.workdir / f"store-{self.setup_count}"
        store = ArtifactStore(store_dir)
        start = time.perf_counter()
        cold = AnalyticsFramework(self.config).fit(train, dev, cache_dir=store)
        self.setup_fit_s.append(time.perf_counter() - start)
        with self.phase("pipeline.warm_start"):
            self.graph = warm_start_graph(self.config, train, dev, store)
        self.setup_builds += [cold.build_report, self.graph.build_report]
        self.cold_scores = cold.graph.scores()
        self.warm_report = self.graph.build_report
        shutil.rmtree(store_dir, ignore_errors=True)
        self.runner = StreamRunner(
            self.graph,
            self.detector_options(self.config),
            self.config.language.samples_per_sentence(),
        )
        self.pending_service = self.runner.service(self.tenants)

    def close(self) -> None:
        if self.pending_service is not None:
            self.pending_service.close()
            self.pending_service = None

    def streams(self) -> dict[str, list[dict]]:
        return {tenant: chunk_log(self.splits[tenant][2]) for tenant in self.tenants}

    def expected_stream_windows(self) -> dict[str, int]:
        count = expected_windows(self.config.language, FLEET_PARAMS.test_samples)
        return dict.fromkeys(self.tenants, count)

    def detect_all(self):
        """Batch detect over every tenant's test log; results and seconds."""
        config = self.config
        detector = AnomalyDetector(
            self.graph,
            config.detection_range,
            margin=config.margin,
            threshold=config.threshold_strategy,
            quantile=config.threshold_quantile,
        )
        with self.phase("bench.detect"):
            start = time.perf_counter()
            results = {
                tenant: detector.detect(self.splits[tenant][2]) for tenant in self.tenants
            }
            return results, time.perf_counter() - start

    def round(self) -> Round:
        # Batch detect is short, so it runs twice a round, once before
        # each stream pass, to sample the host across the round.
        results, first_s = self.detect_all()
        service, self.pending_service = self.pending_service, None
        with self.phase("bench.stream_closed"):
            closed = self.runner.closed_loop(self.streams(), service)
        again, second_s = self.detect_all()
        with self.phase("bench.stream_open"):
            opened = self.runner.open_loop(self.streams(), self.rate)
        return Round(
            detect_s=[first_s, second_s],
            closed=closed,
            open=opened,
            valid_pairs=results[self.tenants[0]].num_valid_pairs,
            batch_windows=2 * sum(r.num_windows for r in results.values()),
            outputs={"results": results, "again": again},
        )

    def replay(self):
        return self.graph, self.detector_options(self.config), self.streams()

    def check(self, rounds: list[Round], checks: Checks) -> None:
        config = self.config
        graph = self.graph
        self.digests = {t: log.frame.digest() for t, log in self.generated.items()}
        checks.run(
            "ingest digests",
            lambda: next(
                (
                    f"tenant {tenant}: chunked ingest differs from the generated log"
                    for tenant in self.tenants
                    if self.chunked[tenant].frame.digest() != self.digests[tenant]
                ),
                None,
            ),
        )

        def shared_training_period() -> "str | None":
            train, dev, _ = self.splits[self.tenants[0]]
            for tenant in self.tenants[1:]:
                other_train, other_dev, _ = self.splits[tenant]
                if (other_train.frame.digest(), other_dev.frame.digest()) != (
                    train.frame.digest(),
                    dev.frame.digest(),
                ):
                    return f"tenant {tenant} has a different train/dev period"
            return None

        checks.run("tenants share train/dev", shared_training_period)
        checks.run(
            "warm start trains 0 pairs",
            lambda: None
            if self.warm_report.num_trained == 0
            and self.graph.scores() == self.cold_scores
            else f"warm start trained {self.warm_report.num_trained} pair(s)",
        )
        checks.run("reference BLEU, dev", lambda: check_dev_scores(graph, self.dev))
        last = rounds[-1].outputs["results"]

        def detects_agree() -> "str | None":
            for done in rounds:
                for results in (done.outputs["results"], done.outputs["again"]):
                    for tenant, result in results.items():
                        if not (result.test_scores == last[tenant].test_scores).all():
                            return f"tenant {tenant}: test scores differ between detects"
            return None

        checks.run("detects agree", detects_agree)
        expected = self.expected_stream_windows()
        for tenant in self.tenants:
            result = last[tenant]
            test = self.splits[tenant][2]
            checks.run(
                f"{tenant}: reference BLEU, test",
                lambda result=result, test=test: check_test_scores(graph, result, test),
            )
            checks.run(
                f"{tenant}: algorithm 2",
                lambda result=result: check_algorithm2(
                    graph,
                    result,
                    config.detection_range,
                    config.threshold_strategy,
                    config.threshold_quantile,
                    config.margin,
                ),
            )
            windows = AnalyticsFramework(config).windows_per_sample_count(test.num_samples)
            checks.run(
                f"{tenant}: window count",
                lambda result=result, windows=windows: None
                if result.num_windows == windows
                else f"{result.num_windows} windows, expected {windows}",
            )
        for index, done in enumerate(rounds):
            for label, stream in (("closed", done.closed), ("open", done.open)):
                checks.run(
                    f"round {index} {label}-loop: nothing dropped or quarantined",
                    lambda stream=stream: None
                    if stream.dropped == 0 and stream.quarantined == 0
                    else f"{stream.dropped} dropped, {stream.quarantined} quarantined",
                )
                for tenant in self.tenants:
                    batch = done.outputs["results"][tenant]
                    checks.run(
                        f"round {index} {label}-loop {tenant}: feed == batch",
                        lambda stream=stream, tenant=tenant, batch=batch: (
                            check_feed_matches_batch(
                                stream.feeds[tenant], batch, expected[tenant]
                            )
                        ),
                    )


WORKLOADS = {cls.name: cls for cls in (PlantBatch, FleetStream, NmtFit)}
