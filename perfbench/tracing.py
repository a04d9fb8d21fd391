"""Spans around calls into the program's layers, for the traced run.

The traced run installs wrappers around public functions of each layer
(``install``), runs the workload, and removes them again (``remove``).
Every wrapped call records one span — name, start, end, parent — in
memory; spans are written out once, when the run ends.  Nothing here
changes what the wrapped functions compute.

Span names are the layer names of the per-layer metrics:

==============================  =============================================
span                            wrapped call
==============================  =============================================
``datasets.ingest``             ``MultivariateEventLog.from_csv``
``lang.sentences``              ``MultiLanguageCorpus.fit``,
                                ``SensorLanguage.sentences_for``
``translation.model_fit``       ``NGramTranslator.fit``,
                                ``Seq2SeqTranslator.fit``,
                                ``BatchedPairTrainer.train_cohort``
``translation.dev_translate``   a translator's ``translate`` inside
                                ``PairExecutor.run``
``translation.test_translate``  a translator's ``translate`` elsewhere
``translation.dev_bleu``        ``corpus_bleu`` / ``sentence_bleu`` inside
                                ``PairExecutor.run``
``translation.test_bleu``       ``corpus_bleu`` / ``sentence_bleu`` elsewhere
``pipeline.pair_train``         ``PairExecutor.run``
``pipeline.store_write``        ``ArtifactStore.save``
``pipeline.store_read``         ``ArtifactStore.load``
``detection.batch``             ``AnomalyDetector.detect``
``detection.online``            ``OnlineAnomalyDetector.push_chunk`` on the
                                benchmark's own thread (the replay)
``service.score``               ``OnlineAnomalyDetector.push_chunk`` on a
                                shard worker thread
==============================  =============================================

The benchmark opens its own spans (``bench.*``, ``pipeline.warm_start``)
around its phases with :meth:`SpanRecorder.span`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread")
_PAIR_TRAIN = "pipeline.pair_train"
_BLEU_SPANS = ("translation.dev_bleu", "translation.test_bleu")


class SpanRecorder:
    """In-memory spans, one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, thread)
        self.push_starts: dict[int, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(open_name == name for _, open_name in self._stack())

    def innermost(self) -> "str | None":
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        return span_id, name, parent, time.perf_counter()

    def end(self, token: tuple) -> None:
        finish = time.perf_counter()
        span_id, name, parent, start = token
        self._stack().pop()
        self.spans.append(
            (span_id, name, start, finish, parent, threading.get_ident())
        )

    @contextmanager
    def span(self, name: str):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: a field-name header, then one
        ``[id, name, start, end, parent, thread]`` list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            stream.write(json.dumps({"fields": list(SPAN_FIELDS)}) + "\n")
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


class Instrumentation:
    """Installs span wrappers on the program's public functions."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: list[tuple[object, str, object]] = []

    # -- patching helpers ------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _method(self, cls, attribute: str, name) -> None:
        """Wrap a plain method; ``name`` is a string or ``f(self) -> str``."""
        original = cls.__dict__[attribute]
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = recorder.begin(name if isinstance(name, str) else name())
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(token)

        self._patch(cls, attribute, wrapper)

    def _classmethod(self, cls, attribute: str, name: str) -> None:
        original = cls.__dict__[attribute].__func__
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(owner, *args, **kwargs):
            token = recorder.begin(name)
            try:
                return original(owner, *args, **kwargs)
            finally:
                recorder.end(token)

        self._patch(cls, attribute, classmethod(wrapper))

    def _bleu(self, function):
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            # sentence_bleu calls corpus_bleu: count the outer call only.
            if recorder.innermost() in _BLEU_SPANS:
                return function(*args, **kwargs)
            token = recorder.begin(
                "translation.dev_bleu"
                if recorder.inside(_PAIR_TRAIN)
                else "translation.test_bleu"
            )
            try:
                return function(*args, **kwargs)
            finally:
                recorder.end(token)

        return wrapper

    # -- the layers --------------------------------------------------------
    def install(self) -> None:
        from repro.detection.anomaly import AnomalyDetector
        from repro.detection.online import OnlineAnomalyDetector
        from repro.lang.corpus import MultiLanguageCorpus, SensorLanguage
        from repro.lang.events import MultivariateEventLog
        from repro.pipeline.artifacts import ArtifactStore
        from repro.pipeline.executor import PairExecutor
        from repro.translation import bleu
        from repro.translation.batched import BatchedPairTrainer
        from repro.translation.ngram import NGramTranslator
        from repro.translation.seq2seq import Seq2SeqTranslator

        recorder = self.recorder

        def translate_span() -> str:
            return (
                "translation.dev_translate"
                if recorder.inside(_PAIR_TRAIN)
                else "translation.test_translate"
            )

        self._classmethod(MultivariateEventLog, "from_csv", "datasets.ingest")
        self._classmethod(MultiLanguageCorpus, "fit", "lang.sentences")
        self._method(SensorLanguage, "sentences_for", "lang.sentences")
        for translator in (NGramTranslator, Seq2SeqTranslator):
            self._method(translator, "fit", "translation.model_fit")
            self._method(translator, "translate", translate_span)
        self._method(BatchedPairTrainer, "train_cohort", "translation.model_fit")
        self._method(PairExecutor, "run", _PAIR_TRAIN)
        self._method(ArtifactStore, "save", "pipeline.store_write")
        self._method(ArtifactStore, "load", "pipeline.store_read")
        self._method(AnomalyDetector, "detect", "detection.batch")

        original_push = OnlineAnomalyDetector.__dict__["push_chunk"]

        @functools.wraps(original_push)
        def push_chunk(detector, chunk):
            on_shard = threading.current_thread().name.startswith("repro-shard-")
            token = recorder.begin("service.score" if on_shard else "detection.online")
            recorder.push_starts[id(detector)].append(token[3])
            try:
                return original_push(detector, chunk)
            finally:
                recorder.end(token)

        self._patch(OnlineAnomalyDetector, "push_chunk", push_chunk)

        # BLEU is a module function that callers bind at import time, so
        # each binding of it in the program's modules is wrapped.
        originals = {id(bleu.corpus_bleu), id(bleu.sentence_bleu)}
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute in ("corpus_bleu", "sentence_bleu"):
                function = module.__dict__.get(attribute)
                if function is not None and id(function) in originals:
                    if id(function) not in wrappers:
                        wrappers[id(function)] = self._bleu(function)
                    self._patch(module, attribute, wrappers[id(function)])

    def remove(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
class SpanIndex:
    """Spans indexed by id, parent and name, for the read-back queries."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span[1]].append(span)
            if span[4] is not None:
                self.children[span[4]].append(span)

    def _selected(self, names, within):
        """Spans called one of ``names``, starting in ``within``, and not
        nested inside another span of ``names``."""
        for name in names:
            for span in self.by_name.get(name, ()):
                if within is not None and not within[0] <= span[2] < within[1]:
                    continue
                parent = self.by_id.get(span[4])
                nested = False
                while parent is not None:
                    if parent[1] in names:
                        nested = True
                        break
                    parent = self.by_id.get(parent[4])
                if not nested:
                    yield span

    def _covered(self, span, exclude) -> float:
        total = 0.0
        for child in self.children.get(span[0], ()):
            if child[1] in exclude:
                total += child[3] - child[2]
            else:
                total += self._covered(child, exclude)
        return total

    def seconds(self, names, within=None, exclude=()) -> float:
        """Time covered by spans called one of ``names``.

        ``within`` limits the sum to spans starting in ``[start, end)``;
        ``exclude`` subtracts the time of descendant spans with those
        names (so a model fit that scores its own dev set is not counted
        twice).
        """
        return sum(
            (span[3] - span[2]) - (self._covered(span, exclude) if exclude else 0.0)
            for span in self._selected(tuple(names), within)
        )

    def count(self, names, within=None) -> int:
        return sum(1 for _ in self._selected(tuple(names), within))

    def durations_ms(self, name, within) -> list[float]:
        return [
            (span[3] - span[2]) * 1000.0
            for span in self.by_name.get(name, ())
            if within[0] <= span[2] < within[1]
        ]

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover.
        """
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span[1], {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            duration = span[3] - span[2]
            children = sum(c[3] - c[2] for c in self.children.get(span[0], ()))
            row["calls"] += 1
            row["seconds"] += duration
            row["self_seconds"] += duration - children
        return dict(sorted(table.items(), key=lambda item: -item[1]["self_seconds"]))
