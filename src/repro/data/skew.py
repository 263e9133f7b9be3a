"""Zipf-skewed value sampling (Chaudhuri–Narasayya generator stand-in).

The degree of skew is adjusted by the Zipf parameter ``z``: value ``i`` (of
``n`` values) is drawn with probability proportional to ``1 / i**z``.  ``z=0``
is the uniform distribution; the paper's skew settings Z0–Z4 correspond to
``z ∈ {0, 0.25, 0.5, 0.75, 1.0}``.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Sequence

#: Mapping from the paper's skew labels to Zipf parameters.
SKEW_LEVELS = {"Z0": 0.0, "Z1": 0.25, "Z2": 0.5, "Z3": 0.75, "Z4": 1.0}


class ZipfSampler:
    """Samples integers ``1..n`` under a Zipf distribution with parameter ``z``.

    Args:
        n: number of distinct values.
        z: Zipf skew parameter (0 = uniform).
        rng: randomness source; a fresh seeded one is created if omitted.

    Attributes:
        cumulative: the cumulative distribution over ``1..n``; value ``i`` is
            ``bisect_left(cumulative, u) + 1`` for a uniform ``u`` in ``[0, 1)``.
    """

    def __init__(self, n: int, z: float, rng: random.Random | None = None) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if z < 0:
            raise ValueError("z must be >= 0")
        self.n = n
        self.z = z
        self._rng = rng or random.Random(0)
        weights = [1.0 / (i ** z) for i in range(1, n + 1)]
        total = sum(weights)
        self.cumulative = list(itertools.accumulate(w / total for w in weights))
        # Guard against floating point undershoot at the tail.
        self.cumulative[-1] = 1.0

    def sample(self) -> int:
        """Draw one value in ``1..n``."""
        u = self._rng.random()
        return bisect.bisect_left(self.cumulative, u) + 1

    def probability(self, value: int) -> float:
        """Probability of drawing ``value`` (1-based)."""
        if not 1 <= value <= self.n:
            return 0.0
        low = self.cumulative[value - 2] if value >= 2 else 0.0
        return self.cumulative[value - 1] - low


def zipf_choice(values: Sequence, z: float, rng: random.Random) -> object:
    """Pick one element of ``values`` with Zipf(z) weight on its position."""
    sampler = ZipfSampler(len(values), z, rng)
    return values[sampler.sample() - 1]


def skew_parameter(label_or_value: str | float) -> float:
    """Resolve a skew setting given either a label ("Z3") or a number (0.75)."""
    if isinstance(label_or_value, str):
        try:
            return SKEW_LEVELS[label_or_value.upper()]
        except KeyError as exc:
            raise ValueError(f"unknown skew label: {label_or_value!r}") from exc
    return float(label_or_value)
