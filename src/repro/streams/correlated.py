"""Cross-stream correlated event worlds for the paper's motivating examples.

The paper's introduction motivates m-way joins with two applications:

* **Example 1** — tracking objects across ``m`` video/sensor sources: the
  same object appears in each source with a per-source lag (nonaligned
  streams), represented as a numeric feature vector per sighting.
* **Example 2** — finding similar news items from CNN / Reuters / BBC:
  stories break once and each outlet publishes a noisy weighted-keyword
  version shortly after (almost aligned streams).

Both require *coordinated* generation across streams — a shared world emits
events, and each stream observes them with its own lag and noise.  The
worlds below produce per-stream tuple traces replayable through
:class:`repro.streams.trace.TraceSource`.
"""

from __future__ import annotations

import numpy as np

from .tuples import StreamTuple


class TopicWorld:
    """News-story world (paper Example 2).

    Stories break as a Poisson process.  Each story has a sparse keyword
    weight vector; each news source publishes its own noisy rendition after
    a per-source delay plus jitter.  Sources may also publish unrelated
    "filler" items that match nothing.

    Args:
        num_streams: number of news sources (``m``).
        story_rate: stories per second in the shared world.
        vocabulary: number of distinct keywords.
        keywords_per_story: how many keywords a story activates.
        source_delays: mean publication delay per source (seconds); its
            spread across sources is what makes the streams nonaligned.
        jitter_std: per-publication Gaussian jitter on the delay.
        noise: weight perturbation applied to each source's rendition.
        filler_rate: per-source rate of unrelated items.
        rng: numpy generator or seed.
    """

    def __init__(
        self,
        num_streams: int = 3,
        story_rate: float = 20.0,
        vocabulary: int = 500,
        keywords_per_story: int = 8,
        source_delays: tuple[float, ...] | None = None,
        jitter_std: float = 0.5,
        noise: float = 0.05,
        filler_rate: float = 5.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_streams < 2:
            raise ValueError("need at least two streams")
        if source_delays is None:
            source_delays = tuple(2.0 * i for i in range(num_streams))
        if len(source_delays) != num_streams:
            raise ValueError("one delay per stream required")
        self.num_streams = num_streams
        self.story_rate = float(story_rate)
        self.vocabulary = int(vocabulary)
        self.keywords_per_story = int(keywords_per_story)
        self.source_delays = tuple(float(d) for d in source_delays)
        self.jitter_std = float(jitter_std)
        self.noise = float(noise)
        self.filler_rate = float(filler_rate)
        self._rng = np.random.default_rng(rng)

    def _story_vector(self) -> dict[int, float]:
        words = self._rng.choice(
            self.vocabulary, size=self.keywords_per_story, replace=False
        )
        weights = self._rng.dirichlet(np.ones(self.keywords_per_story))
        return {int(w): float(wt) for w, wt in zip(words, weights)}

    def _perturb(self, vector: dict[int, float]) -> dict[int, float]:
        out = {}
        for word, weight in vector.items():
            bumped = weight * (1.0 + self.noise * self._rng.standard_normal())
            out[word] = max(1e-6, float(bumped))
        total = sum(out.values())
        return {w: wt / total for w, wt in out.items()}

    def generate(self, until: float) -> list[list[StreamTuple]]:
        """Return per-stream tuple traces over ``[0, until)``."""
        traces: list[list[tuple[float, dict[int, float]]]] = [
            [] for _ in range(self.num_streams)
        ]
        t = 0.0
        while True:
            t += self._rng.exponential(1.0 / self.story_rate)
            if t >= until:
                break
            story = self._story_vector()
            for i in range(self.num_streams):
                delay = self.source_delays[i] + abs(
                    self.jitter_std * self._rng.standard_normal()
                )
                publish = t + delay
                if publish < until:
                    traces[i].append((publish, self._perturb(story)))
        for i in range(self.num_streams):
            count = self._rng.poisson(self.filler_rate * until)
            for _ in range(count):
                ts = float(self._rng.uniform(0, until))
                traces[i].append((ts, self._story_vector()))
        return [
            [
                StreamTuple(value=val, timestamp=ts, stream=i, seq=seq)
                for seq, (ts, val) in enumerate(sorted(tr, key=lambda p: p[0]))
            ]
            for i, tr in enumerate(traces)
        ]


class ObjectWorld:
    """Moving-object world (paper Example 1).

    Objects enter a corridor of ``m`` cameras and pass each one in turn;
    camera ``i`` sees the object at ``entry + i * transit``.  Each sighting
    yields a feature vector (the object's appearance) plus per-camera noise,
    so a distance-based similarity join across camera streams re-identifies
    the object.  The per-camera transit time is the nonaligned lag of the
    paper's Example 1.

    Args:
        num_streams: number of cameras.
        object_rate: objects entering per second.
        transit: mean seconds between consecutive cameras.
        feature_dim: appearance feature dimension.
        noise: per-camera observation noise (std).
        rng: numpy generator or seed.
    """

    def __init__(
        self,
        num_streams: int = 3,
        object_rate: float = 10.0,
        transit: float = 4.0,
        feature_dim: int = 4,
        noise: float = 0.02,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_streams < 2:
            raise ValueError("need at least two streams")
        if transit <= 0:
            raise ValueError("transit must be positive")
        self.num_streams = num_streams
        self.object_rate = float(object_rate)
        self.transit = float(transit)
        self.feature_dim = int(feature_dim)
        self.noise = float(noise)
        self._rng = np.random.default_rng(rng)

    def generate(self, until: float) -> list[list[StreamTuple]]:
        """Return per-stream (per-camera) sighting traces over [0, until)."""
        traces: list[list[tuple[float, np.ndarray]]] = [
            [] for _ in range(self.num_streams)
        ]
        t = 0.0
        while True:
            t += self._rng.exponential(1.0 / self.object_rate)
            if t >= until:
                break
            appearance = self._rng.uniform(0, 100, size=self.feature_dim)
            for cam in range(self.num_streams):
                seen = t + cam * self.transit * float(
                    self._rng.uniform(0.9, 1.1)
                )
                if seen < until:
                    observed = appearance + self.noise * self._rng.standard_normal(
                        self.feature_dim
                    )
                    traces[cam].append((seen, observed))
        return [
            [
                StreamTuple(value=val, timestamp=ts, stream=i, seq=seq)
                for seq, (ts, val) in enumerate(sorted(tr, key=lambda p: p[0]))
            ]
            for i, tr in enumerate(traces)
        ]
