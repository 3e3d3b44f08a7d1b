"""Unbounded streaming workloads: arrivals as pure functions of the round.

The finite generators in this package draw a whole horizon of batches up
front (one numpy call per color) and materialize an
:class:`~repro.core.instance.Instance`.  A *streaming* source cannot do
either — it may run for millions of rounds — so this module generates
batch sizes as a **pure function of ``(seed, round, color)``** built on
the splitmix64 finalizer:

* No workload state: there is no generator cursor to persist — a
  checkpoint of a streaming run carries no workload state at all, and a
  resumed run trivially replays the identical arrivals.
* Random access: the ingestion layer asks for round ``k``'s batch
  directly; no round needs to be drawn before any other.
* O(block) memory: :meth:`RateLimitedStream.batch_counts` draws the
  aligned :data:`BLOCK_ROUNDS`-round block holding ``k`` in one numpy
  pass per distinct delay bound and keeps that one block's counts as a
  memo — a cache of the pure function, never checkpointed, so a fresh
  law (a resumed run's) draws the same counts.

The sizes are exact ``Binomial(D_ℓ, load)`` draws (a sum of ``D_ℓ``
Bernoulli trials), matching :func:`repro.workloads.random_batched.
random_rate_limited`'s per-boundary law, with ``load`` quantized to
1/65536: the draw of color ℓ in round ``k`` is seeded with
``mix(seed, (k << 20) | ℓ)``, and its trial ``i`` passes when 16-bit
lane ``i mod 4`` of the word ``mix(draw seed, i // 4)`` is below the
threshold — four trials per 64-bit mix.  ``uint64`` arithmetic wraps
exactly like the reduction mod 2**64, so the numpy pass computes the
same words as the scalar definition, which the tests keep as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.cost import CostModel
from repro.core.instance import BatchMode, ProblemSpec

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: Probability quantum: one Bernoulli trial consumes a 16-bit slice.
_P_SCALE = 65536
#: Rounds per memoized block: :meth:`RateLimitedStream.batch_counts`
#: draws the aligned block holding the asked round, one numpy pass per
#: distinct delay bound.
BLOCK_ROUNDS = 1024
#: Hash words per draw in one pass.  A bound of at most the block takes
#: one pass; a larger bound (at most one draw per color in a block) draws
#: its trials in chunks, so a pass's arrays stay O(colors × block).
_CHUNK_WORDS = BLOCK_ROUNDS // 4


def _mix64(seeds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """splitmix64 of ``seed * golden + value + golden`` for each pair of
    the broadcast ``uint64`` arrays; their arithmetic wraps exactly like
    a reduction mod 2**64."""
    z = seeds * np.uint64(_GOLDEN) + (values + np.uint64(_GOLDEN))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _seed_array(seed: int) -> np.ndarray:
    """A law's seed as a one-element ``uint64`` array (mod 2**64)."""
    return np.array([seed & _MASK], dtype=np.uint64)


def _binomials(seeds: np.ndarray, trials: int, threshold: int) -> np.ndarray:
    """One exact ``Binomial(trials, threshold / 65536)`` count per seed.

    Trial ``i`` passes when 16-bit lane ``i % 4`` (lowest first) of
    ``_mix64(seed, i // 4)`` is below ``threshold``.
    """
    if threshold <= 0:
        return np.zeros(seeds.size, dtype=np.int64)
    if threshold >= _P_SCALE:
        return np.full(seeds.size, trials, dtype=np.int64)
    counts = np.zeros(seeds.size, dtype=np.int64)
    words = -(-trials // 4)
    for first in range(0, words, _CHUNK_WORDS):
        index = np.arange(first, min(words, first + _CHUNK_WORDS), dtype=np.uint64)
        z = _mix64(seeds[:, None], index)
        lanes = z.astype("<u8", copy=False).view("<u2")[:, : trials - 4 * first]
        counts += np.count_nonzero(lanes < threshold, axis=1)
    return counts


def streaming_bounds(
    num_colors: int,
    *,
    seed: int,
    bound_choices: Sequence[int] = (8, 16, 32, 64),
) -> dict[int, int]:
    """Deterministic per-color delay bounds (hash-picked, seed-stable)."""
    if num_colors <= 0:
        raise ValueError("num_colors must be positive")
    choices = sorted(bound_choices)
    colors = np.arange(num_colors, dtype=np.uint64)
    words = _mix64(_seed_array(seed), colors + np.uint64(0x10000))
    return {
        color: choices[word % len(choices)]
        for color, word in enumerate(words.tolist())
    }


@dataclass(frozen=True)
class RateLimitedStream:
    """A ``[Δ | 1 | D_ℓ | D_ℓ]`` rate-limited arrival law, unbounded.

    ``batch_counts(k)`` returns the ``(color, count)`` pairs arriving in
    round ``k``: at every integral multiple of ``D_ℓ``, color ℓ receives
    ``Binomial(D_ℓ, load)`` jobs — never exceeding the rate limit.  The
    law is a pure function of ``(seed, k)``; see the module docstring.
    """

    delay_bounds: Mapping[int, int]
    reconfig_cost: int
    load: float = 0.5
    seed: int = 0
    spec: ProblemSpec = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load must lie in [0, 1]")
        object.__setattr__(
            self,
            "spec",
            ProblemSpec(
                dict(self.delay_bounds),
                CostModel(self.reconfig_cost),
                BatchMode.RATE_LIMITED,
                require_power_of_two=all(
                    (b & (b - 1)) == 0 for b in self.delay_bounds.values()
                ),
            ),
        )
        object.__setattr__(self, "_threshold", round(self.load * _P_SCALE))
        # The memo, one attribute so a reader never sees half an update:
        # (block index, {round offset in the block: (color, count) pairs}).
        object.__setattr__(self, "_block", (-1, {}))

    def batch_counts(self, round_index: int) -> list[tuple[int, int]]:
        """``(color, count)`` pairs arriving in ``round_index``, in spec
        color order; a fresh list on every call."""
        if round_index < 0:
            raise IndexError(f"rounds are nonnegative, got {round_index}")
        block, offset = divmod(round_index, BLOCK_ROUNDS)
        memo = self._block
        if memo[0] != block:
            memo = (block, self._draw_block(block))
            object.__setattr__(self, "_block", memo)
        return list(memo[1].get(offset, ()))

    def _draw_block(self, block: int) -> dict[int, tuple[tuple[int, int], ...]]:
        """The nonzero counts of one block's rounds, by round offset."""
        start = block * BLOCK_ROUNDS
        colors = list(self.spec.delay_bounds)
        by_bound: dict[int, list[int]] = {}
        for index, bound in enumerate(self.spec.delay_bounds.values()):
            by_bound.setdefault(bound, []).append(index)
        # Draw seeds are _mix64(seed, (k << 20) | color), with k << 20
        # split into the block's start and the round's offset.
        seed = _seed_array(self.seed)
        round_term = np.uint64((start << 20) & _MASK)
        offsets, members, counts = [], [], []
        for bound, indices in by_bound.items():
            rounds = np.arange(-start % bound, BLOCK_ROUNDS, bound, dtype=np.uint64)
            bits = np.array([colors[i] & _MASK for i in indices], dtype=np.uint64)
            values = ((rounds << np.uint64(20)) + round_term)[:, None] | bits
            seeds = _mix64(seed, values).ravel()
            counts.append(_binomials(seeds, bound, self._threshold))
            offsets.append(np.repeat(rounds, len(indices)))
            members.append(np.tile(indices, rounds.size))
        count = np.concatenate(counts)
        drawn = np.flatnonzero(count)
        if not drawn.size:
            return {}
        offset = np.concatenate(offsets)[drawn]
        member = np.concatenate(members)[drawn]
        order = np.lexsort((member, offset))
        drawn, offset, member = drawn[order], offset[order], member[order]
        pairs = list(
            zip(map(colors.__getitem__, member.tolist()), count[drawn].tolist())
        )
        edges = [0, *(np.flatnonzero(np.diff(offset)) + 1).tolist(), len(pairs)]
        return {
            off: tuple(pairs[first:stop])
            for off, first, stop in zip(offset[edges[:-1]].tolist(), edges, edges[1:])
        }


def rate_limited_stream(
    num_colors: int,
    delta: int,
    *,
    seed: int,
    load: float = 0.5,
    bound_choices: Sequence[int] = (8, 16, 32, 64),
) -> RateLimitedStream:
    """Convenience constructor mirroring ``random_rate_limited``'s shape."""
    bounds = streaming_bounds(num_colors, seed=seed, bound_choices=bound_choices)
    return RateLimitedStream(bounds, delta, load=load, seed=seed)
