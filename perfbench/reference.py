"""Reference computations the benchmark checks the program against.

Nothing here calls into the program's BLEU or detection code.  The BLEU
below is written from its definition:

- modified n-gram precision with clipped counts, orders 1 to 4;
- effective order: only orders with at least one candidate n-gram count,
  each weighted ``1 / (number of such orders)``;
- add-one smoothing of a zero match count above order 1 (Lin & Och);
- a zero unigram match count gives a score of 0, smoothed or not;
- brevity penalty ``exp(1 - r / c)`` for a candidate shorter than its
  reference, 0 for an empty candidate.

Algorithm 2 is recomputed from the graph's public fields (pair scores
and per-sentence development BLEU), and window counts from the language
geometry.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

MAX_ORDER = 4

#: Absolute tolerance between a reference BLEU and the program's (0-100
#: scale).  Both sum the same integer statistics; only the order of a
#: handful of float operations can differ.
BLEU_TOLERANCE = 1e-9


@functools.lru_cache(maxsize=1 << 16)
def _grams(sentence: tuple, order: int) -> Counter:
    # Cached: a reference sentence is scored against every pair that
    # targets its sensor.  Callers only read the counts.
    return Counter(
        tuple(sentence[i : i + order]) for i in range(len(sentence) - order + 1)
    )


def reference_corpus_bleu(
    candidates: Sequence[Sequence], references: Sequence[Sequence], smooth: bool = True
) -> float:
    """Smoothed corpus BLEU on the 0-100 scale, from the definition."""
    matched = [0] * (MAX_ORDER + 1)
    total = [0] * (MAX_ORDER + 1)
    for candidate, reference in zip(candidates, references, strict=True):
        for order in range(1, MAX_ORDER + 1):
            cand = _grams(tuple(candidate), order)
            ref = _grams(tuple(reference), order)
            total[order] += sum(cand.values())
            matched[order] += sum(min(n, ref[g]) for g, n in cand.items())
    orders = [order for order in range(1, MAX_ORDER + 1) if total[order] > 0]
    if not orders:
        return 0.0
    log_sum = 0.0
    for order in orders:
        hits, count = matched[order], total[order]
        if hits == 0:
            if order == 1 or not smooth:
                return 0.0
            hits, count = 1, count + 1
        log_sum += math.log(hits / count) / len(orders)
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    penalty = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * penalty * math.exp(log_sum)


def reference_sentence_bleu(candidate: Sequence, reference: Sequence) -> float:
    return reference_corpus_bleu([candidate], [reference], smooth=True)


class Checks:
    """Counts checks run and failed; keeps the first failures' messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name: str, check: Callable[[], "str | None"]) -> None:
        """Run one check; it returns ``None`` on success or a message."""
        self.attempted += 1
        try:
            problem = check()
        except Exception as error:  # a crashing check is a failed check
            problem = f"raised {type(error).__name__}: {error}"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{name}: {problem}")


def check_dev_scores(graph, dev_log) -> "str | None":
    """Every pair's dev score equals the reference corpus BLEU.

    Translations come from each pair model's public ``translate`` over
    the development sentences of its source sensor.
    """
    corpus = graph.corpus
    sentences = {}
    for rel in graph:
        for name in (rel.source, rel.target):
            if name not in sentences:
                sentences[name] = corpus[name].sentences_for(dev_log[name])
        source, target = sentences[rel.source], sentences[rel.target]
        count = min(len(source), len(target))
        translations = rel.model.translate(source[:count])
        expected = reference_corpus_bleu(translations, target[:count])
        if abs(expected - rel.score) > BLEU_TOLERANCE:
            return (
                f"pair {rel.source}->{rel.target}: dev score {rel.score!r} "
                f"!= reference {expected!r}"
            )
    return None


def check_test_scores(graph, result, test_log) -> "str | None":
    """Every ``(window, pair)`` test score equals the reference BLEU."""
    corpus = graph.corpus
    windows = result.num_windows
    sentences = {}
    for column, (source, target) in enumerate(result.valid_pairs):
        for name in (source, target):
            if name not in sentences:
                sentences[name] = corpus[name].sentences_for(test_log[name])
        translations = graph[(source, target)].model.translate(
            sentences[source][:windows]
        )
        for window in range(windows):
            expected = reference_sentence_bleu(
                translations[window], sentences[target][window]
            )
            actual = result.test_scores[window, column]
            if abs(expected - actual) > BLEU_TOLERANCE:
                return (
                    f"pair {source}->{target} window {window}: "
                    f"{actual!r} != reference {expected!r}"
                )
    return None


def reference_thresholds(graph, pairs, strategy: str, quantile: float, margin: float):
    """Break thresholds ``T(i, j) - margin`` from the graph's public fields."""
    values = []
    for pair in pairs:
        rel = graph[pair]
        dev = rel.dev_sentence_scores
        if strategy == "train" or dev is None:
            value = rel.score
        elif strategy == "dev-min":
            value = float(np.min(dev))
        else:
            value = float(np.quantile(dev, quantile))
        values.append(value - margin)
    return np.asarray(values)


def check_algorithm2(graph, result, score_range, strategy, quantile, margin):
    """Valid pairs, alerts and ``a_t`` recomputed from the graph's fields."""
    pairs = [
        (rel.source, rel.target)
        for rel in graph
        if rel.score != 0.0 and score_range.contains(rel.score)
    ]
    if pairs != list(result.valid_pairs):
        return f"valid pairs differ: {len(pairs)} expected, {result.num_valid_pairs} got"
    thresholds = reference_thresholds(graph, pairs, strategy, quantile, margin)
    alerts = result.test_scores < thresholds[None, :]
    if not np.array_equal(alerts, result.alerts):
        return f"{int((alerts != result.alerts).sum())} alert cells differ"
    scores = alerts.sum(axis=1) / len(pairs)
    if not np.allclose(scores, result.anomaly_scores, rtol=0.0, atol=1e-12):
        return "anomaly scores a_t differ from broken/valid pair counts"
    return None


def expected_windows(language, num_samples: int) -> int:
    """Windows a log of ``num_samples`` yields under a language config."""
    if num_samples < language.word_size:
        return 0
    words = (num_samples - language.word_size) // language.word_stride + 1
    if words < language.sentence_length:
        return 0
    return (words - language.sentence_length) // language.effective_sentence_stride + 1


def check_feed_matches_batch(windows, result, limit: int) -> "str | None":
    """A stream's windows equal the batch result's, window for window.

    ``windows`` are one tenant's :class:`WindowScore` objects in stream
    order; ``limit`` is how many windows the stream should have emitted.
    """
    if len(windows) != limit:
        return f"{len(windows)} windows emitted, {limit} expected"
    for position, window in enumerate(windows):
        if window.window_index != position:
            return f"window {position} arrived as index {window.window_index}"
        expected = result.anomaly_scores[position]
        if abs(window.anomaly_score - expected) > 1e-12:
            return (
                f"window {position}: online a_t {window.anomaly_score!r} "
                f"!= batch {expected!r}"
            )
        if set(window.broken_pairs) != set(result.broken_pairs(position)):
            return f"window {position}: broken-pair sets differ"
    return None
