"""The rate-limited stream law against its scalar definition.

``RateLimitedStream.batch_counts`` draws a whole block of rounds in one
numpy pass per delay bound and memoizes it.  The scalar law below is the
definition it must reproduce exactly: the draw of color ``c`` in round
``k`` is seeded with ``mix(seed, (k << 20) | c)`` and is a sum of ``D_c``
Bernoulli trials, trial ``i`` passing when 16-bit lane ``i % 4`` of
``mix(draw seed, i // 4)`` is below ``round(load * 65536)``.  It shares
no code with production.
"""

from __future__ import annotations

import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import rate_limited_source
from repro.workloads.streaming import (
    BLOCK_ROUNDS,
    RateLimitedStream,
    streaming_bounds,
)

_MASK = (1 << 64) - 1


def _mix64(seed: int, value: int) -> int:
    z = (seed * 0x9E3779B97F4A7C15 + value + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _binomial(seed: int, trials: int, threshold: int) -> int:
    """Exact ``Binomial(trials, threshold / 65536)`` from hash slices."""
    count = 0
    word = 0
    for i in range(trials):
        lane = i & 3
        if lane == 0:
            word = _mix64(seed, i >> 2)
        if (word >> (16 * lane)) & 0xFFFF < threshold:
            count += 1
    return count


def oracle_counts(law: RateLimitedStream, round_index: int) -> list[tuple[int, int]]:
    """The per-round law: ``(color, count)`` in spec order, zeros left out."""
    threshold = round(law.load * 65536)
    out = []
    for color, bound in law.delay_bounds.items():
        if round_index % bound:
            continue
        draw_seed = _mix64(law.seed, (round_index << 20) | color)
        count = _binomial(draw_seed, bound, threshold)
        if count:
            out.append((color, count))
    return out


SEEDS = st.sampled_from([0, 1, -1, -(2**63) - 5, 2**64, 2**64 + 3, 2**70 + 11]) | (
    st.integers(min_value=-(2**80), max_value=2**80)
)
LOADS = st.sampled_from([0.0, 1 / 65536, 0.5, 1.0])
BOUND_SETS = st.lists(
    st.sampled_from([1, 3, 8, 64, 1023, 1024, 1025, 65536]),
    min_size=1,
    max_size=4,
)
#: Sparse color ids; some of them at or past bit 20, where they OR into
#: the round's bits of the draw seed.
COLOR_IDS = st.integers(min_value=0, max_value=2**22) | st.sampled_from(
    [2**20, 2**20 + 3, 5 << 20, 2**64 + 9]
)
#: Where the asked rounds cluster: block edges, rounds near 2**40, and
#: rounds whose ``k << 20`` passes 2**64 (it wraps, as in the scalar law).
ANCHORS = st.sampled_from(
    [
        0,
        BLOCK_ROUNDS,
        7 * BLOCK_ROUNDS,
        64 * BLOCK_ROUNDS,
        2**40 - BLOCK_ROUNDS,
        2**40,
        2**44 - BLOCK_ROUNDS,
        2**64,
    ]
)
ORDERS = st.sampled_from(["ascending", "descending", "shuffled", "repeated"])


@st.composite
def laws_and_rounds(draw):
    bounds = draw(BOUND_SETS)
    colors = draw(
        st.lists(COLOR_IDS, min_size=len(bounds), max_size=len(bounds), unique=True)
    )
    law = RateLimitedStream(
        dict(zip(colors, bounds)), 4, load=draw(LOADS), seed=draw(SEEDS)
    )
    rounds = set()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        anchor = draw(ANCHORS)
        # Rounds on either side of the anchor's block edge ...
        edge = (anchor - 1, anchor, anchor + 1, anchor + BLOCK_ROUNDS - 1)
        rounds.update(k for k in edge if k >= 0)
        rounds.add(anchor + draw(st.integers(min_value=0, max_value=3 * BLOCK_ROUNDS)))
        # ... and each bound's multiples nearest the anchor, which draw.
        for bound in set(bounds):
            below = anchor - anchor % bound
            rounds.update(k for k in (below - bound, below, below + bound) if k >= 0)
    order = sorted(rounds)
    how = draw(ORDERS)
    if how == "descending":
        order.reverse()
    elif how == "shuffled":
        random.Random(draw(st.integers(0, 2**32))).shuffle(order)
    elif how == "repeated":
        order = [k for k in order for _ in range(2)] + order
    return law, order


class TestAgainstTheScalarLaw:
    @settings(max_examples=60, deadline=None)
    @given(laws_and_rounds())
    def test_batch_counts_equal_the_oracle(self, case):
        law, rounds = case
        for k in rounds:
            assert law.batch_counts(k) == oracle_counts(law, k), k

    @pytest.mark.parametrize("start", [0, 2**44 - BLOCK_ROUNDS, 2**64])
    def test_consecutive_ledger_segments(self, start):
        # The benchmark's stream: six colors at each of 8, 16, 32 and 64.
        bounds = {color: (8, 16, 32, 64)[color % 4] for color in range(24)}
        law = RateLimitedStream(bounds, 32, load=0.5, seed=2**64 + 17)
        for k in range(start, start + 3 * BLOCK_ROUNDS):
            assert law.batch_counts(k) == oracle_counts(law, k), k

    def test_source_serves_the_law(self):
        source = rate_limited_source(6, 8, seed=-3, load=0.6, bound_choices=(8, 16))
        law = RateLimitedStream(
            source.spec.delay_bounds, 8, load=0.6, seed=-3
        )
        for k in range(0, 2 * BLOCK_ROUNDS, 8):
            assert source.batch(k) == dict(oracle_counts(law, k))

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 + 5, 2**70 + 11])
    def test_bounds_are_hash_picked(self, seed):
        choices = (3, 8, 16, 64, 1025)
        expected = {
            color: choices[_mix64(seed, 0x10000 + color) % len(choices)]
            for color in range(40)
        }
        assert streaming_bounds(40, seed=seed, bound_choices=choices) == expected

    def test_negative_round_refused(self):
        law = RateLimitedStream({0: 8}, 2)
        with pytest.raises(IndexError, match="nonnegative"):
            law.batch_counts(-1)


class TestMemo:
    def test_mutated_result_does_not_leak(self):
        law = RateLimitedStream({0: 8, 5: 16}, 2, load=1.0, seed=9)
        first = law.batch_counts(16)
        assert first == [(0, 8), (5, 16)]
        first.append((7, 1))
        first[0] = (0, 0)
        assert law.batch_counts(16) == [(0, 8), (5, 16)]
        assert law.batch_counts(16) is not law.batch_counts(16)

    def test_drawn_law_equals_a_fresh_one(self):
        def make():
            return RateLimitedStream({0: 8, 1: 64, 2**21: 3}, 4, load=0.5, seed=-7)

        law = make()
        for k in (0, 5 * BLOCK_ROUNDS + 3, 2**40):
            law.batch_counts(k)
        fresh = make()
        assert law == fresh
        assert repr(law) == repr(fresh)
        copy = pickle.loads(pickle.dumps(law))
        assert copy == fresh
        for k in (0, 24, 2**40 + 63, 2**40 + BLOCK_ROUNDS):
            assert copy.batch_counts(k) == fresh.batch_counts(k)

    def test_block_draw_memory_is_flat_in_the_bound(self):
        def peak(bound: int) -> int:
            law = RateLimitedStream({c: bound for c in range(24)}, 2, seed=5)
            tracemalloc.start()
            try:
                law.batch_counts(0)  # round 0 draws every color
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(64), peak(65536)
        assert large <= 2 * small, (small, large)
