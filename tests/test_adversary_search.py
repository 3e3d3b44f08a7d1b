"""Tests of the randomized adversary search."""

from dataclasses import replace

import pytest

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.analysis.adversary_search import (
    ScoreCache,
    SearchConfig,
    search_adversary,
)

QUICK = SearchConfig(
    num_colors=3,
    bounds=(2, 4),
    horizon=24,
    delta=2,
    num_resources=8,
    offline_resources=1,
    iterations=40,
    restarts=2,
    seed=0,
)


def test_search_produces_valid_instance():
    result = search_adversary(DeltaLRUEDF, QUICK)
    assert result.best_instance.spec.batch_mode.value == "rate_limited"
    assert result.evaluations > 0
    assert result.best_ratio >= 0


def test_trajectory_is_monotone_within_restart():
    result = search_adversary(DeltaLRUEDF, QUICK)
    per_restart = QUICK.iterations // QUICK.restarts
    for start in range(0, len(result.trajectory), per_restart):
        chunk = result.trajectory[start : start + per_restart]
        assert chunk == sorted(chunk)


def test_search_is_deterministic():
    a = search_adversary(DeltaLRUEDF, QUICK)
    b = search_adversary(DeltaLRUEDF, QUICK)
    assert a.best_ratio == b.best_ratio
    assert a.trajectory == b.trajectory


def test_pure_schemes_score_no_better_than_their_adversaries():
    """The hill climber finds worse inputs for the pure schemes than for
    the combination (a weak, fast form of the paper's separation)."""
    combined = search_adversary(DeltaLRUEDF, QUICK)
    worst_pure = max(
        search_adversary(DeltaLRU, QUICK).best_ratio,
        search_adversary(EDF, QUICK).best_ratio,
    )
    # Not a strict theorem at this tiny scale, but the combination should
    # never be the most attackable of the three.
    assert combined.best_ratio <= worst_pure + 1.0


class TestSharedCache:
    def test_results_bit_identical_to_per_restart_mode(self):
        # A cache hit returns exactly what recomputation would, so the
        # cross-restart cache may only change the hit rate — never the
        # trajectory, the best ratio, or the winning instance.
        base = search_adversary(DeltaLRUEDF, QUICK)
        shared = search_adversary(
            DeltaLRUEDF, replace(QUICK, shared_cache=True)
        )
        assert shared.best_ratio == base.best_ratio
        assert shared.trajectory == base.trajectory
        assert [
            (job.arrival, job.color, job.delay_bound)
            for job in shared.best_instance.sequence
        ] == [
            (job.arrival, job.color, job.delay_bound)
            for job in base.best_instance.sequence
        ]

    def test_hit_rate_never_drops_and_telemetry_is_reported(self):
        base = search_adversary(DeltaLRUEDF, QUICK)
        shared = search_adversary(
            DeltaLRUEDF, replace(QUICK, shared_cache=True)
        )
        assert shared.shared_cache and not base.shared_cache
        # Mutations revisit inputs, so even per-restart caching hits.
        assert base.score_cache_hits > 0
        assert shared.score_cache_hits >= base.score_cache_hits
        assert shared.score_cache_hit_rate >= base.score_cache_hit_rate
        # Both runs report the wall-clock telemetry the delta comparison
        # is built on.
        assert base.wall_clock_seconds > 0
        assert shared.wall_clock_seconds > 0
        assert shared.score_cache_miss_seconds >= 0
        assert shared.score_cache_saved_seconds >= 0

    def test_merge_from_keeps_existing_entries(self):
        ours = ScoreCache()
        theirs = ScoreCache()
        assert ours.online_cost(("k",), lambda: 1) == 1
        assert theirs.online_cost(("k",), lambda: 1) == 1
        assert theirs.offline_cost(("j",), lambda: 7) == 7
        ours.merge_from(theirs)
        # Existing entry kept, new entry absorbed — no recompute either way.
        assert ours.online_cost(("k",), lambda: 99) == 1
        assert ours.offline_cost(("j",), lambda: 99) == 7


def test_upper_denominator_mode():
    config = SearchConfig(
        num_colors=3,
        bounds=(2, 4),
        horizon=24,
        delta=2,
        num_resources=8,
        offline_resources=1,
        iterations=20,
        restarts=1,
        seed=1,
        denominator="upper",
    )
    result = search_adversary(DeltaLRUEDF, config)
    assert result.best_ratio >= 0


class TestConfigValidation:
    def test_misspelled_denominator_rejected(self):
        # "uper" used to fall through to the combined lower bound.
        with pytest.raises(ValueError, match="denominator"):
            SearchConfig(denominator="uper")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0),
            ("iterations", -5),
            ("horizon", 0),
            ("horizon", -8),
            ("num_colors", 0),
            ("mutations_per_step", -1),
            ("num_resources", 0),
            ("offline_resources", 0),
            ("bounds", ()),
            ("bounds", (2, 0)),
        ],
    )
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_smallest_valid_values_accepted(self):
        config = SearchConfig(
            num_colors=1,
            bounds=(1,),
            horizon=1,
            num_resources=2,  # ΔLRU-EDF runs its resources in pairs
            iterations=0,
            restarts=1,
            mutations_per_step=0,
        )
        result = search_adversary(DeltaLRUEDF, config)
        assert result.evaluations == 1
