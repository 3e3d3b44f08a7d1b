"""Experiment registry: id -> runner.

Each entry also records a ``quick`` parameter override used by tests and
the ``--quick`` CLI flag, so the full suite stays runnable in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.inputs import UnknownIdError
from repro.experiments import (
    e_ablation,
    e_appendix_a,
    e_appendix_b,
    e_lemmas,
    e_motivation,
    e_scaling,
    e_theorem1,
    e_theorem2,
    e_theorem3,
    e_uniform,
    e_adversary,
    e_sensitivity,
    e_punctual,
    e_changeover,
)
from repro.experiments.base import ExperimentReport


@dataclass(frozen=True)
class Experiment:
    """A registered experiment and its parameter presets."""

    experiment_id: str
    title: str
    runner: Callable[..., ExperimentReport]
    quick_params: dict[str, Any] = field(default_factory=dict)

    def run(self, *, quick: bool = False, **overrides: Any) -> ExperimentReport:
        params = dict(self.quick_params) if quick else {}
        params.update(overrides)
        return self.runner(**params)


EXPERIMENTS: dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in (
        Experiment(
            "EXP-A",
            "Appendix A: ΔLRU is not resource competitive",
            e_appendix_a.run,
            quick_params={"j_values": (5, 6, 7)},
        ),
        Experiment(
            "EXP-B",
            "Appendix B: EDF is not resource competitive",
            e_appendix_b.run,
            quick_params={"gaps": (1, 2, 3)},
        ),
        Experiment(
            "EXP-T1",
            "Theorem 1: ΔLRU-EDF resource competitiveness",
            e_theorem1.run,
            quick_params={"seeds": (0,), "horizon": 32, "delta_values": (2,)},
        ),
        Experiment(
            "EXP-T2",
            "Theorem 2: Distribute resource competitiveness",
            e_theorem2.run,
            quick_params={"seeds": (0,), "horizon": 32, "delta_values": (2,)},
        ),
        Experiment(
            "EXP-T3",
            "Theorem 3: VarBatch resource competitiveness",
            e_theorem3.run,
            quick_params={"seeds": (0,), "horizon": 48},
        ),
        Experiment(
            "EXP-L",
            "Lemmas 3.1-3.4: inequality audits",
            e_lemmas.run,
            quick_params={"seeds": (0, 1), "horizon": 32},
        ),
        Experiment(
            "EXP-ABL",
            "ΔLRU-EDF design ablations",
            e_ablation.run,
            quick_params={
                "seeds": (0,),
                "horizon": 32,
                "fractions": (0.0, 0.5, 1.0),
                "augmentations": (2, 8),
            },
        ),
        Experiment(
            "EXP-M",
            "Introduction scenario: thrashing vs underutilization",
            e_motivation.run,
            quick_params={"horizon": 512},
        ),
        Experiment(
            "EXP-S",
            "Simulator throughput scaling",
            e_scaling.run,
            # Quick cells are a subset of the full grids; their costs
            # and rounds executed are pinned in tests/test_golden.py.
            quick_params={
                "grid": ((8, 4, 256), (16, 8, 256)),
                "general_grid": ((16, 16, 512),),
            },
        ),
        Experiment(
            "EXP-ADV",
            "Automated adversary search per scheme",
            e_adversary.run,
            quick_params={
                "iterations": 60,
                "restarts": 2,
                "horizon": 24,
                "num_colors": 3,
                "seeds": (0,),
            },
        ),
        Experiment(
            "EXP-SEN",
            "Δ × load sensitivity grid for ΔLRU-EDF",
            e_sensitivity.run,
            quick_params={
                "delta_values": (2, 4),
                "loads": (0.4, 0.8),
                "seeds": (0,),
                "horizon": 48,
            },
        ),
        Experiment(
            "EXP-P",
            "Lemma 5.3: punctualization factors on exact optima",
            e_punctual.run,
            quick_params={"seeds": (0, 1), "horizon": 16},
        ),
        Experiment(
            "EXP-C",
            "Extension: changeover-time crossover (agility vs commitment)",
            e_changeover.run,
            quick_params={"changeover_times": (0, 2, 8), "horizon": 128},
        ),
        Experiment(
            "EXP-U",
            "Extension: uniform delay / variable drop costs ([14] track)",
            e_uniform.run,
            quick_params={
                "cache_sizes": (2, 4),
                "cyclic_rounds": 100,
                "horizon": 128,
                "seeds": (0,),
            },
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (case-insensitive); an unknown id
    raises :class:`~repro.core.inputs.UnknownIdError`, a ``KeyError``."""
    try:
        return EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise UnknownIdError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        ) from None


def run_experiment(
    experiment_id: str, *, quick: bool = False, **overrides: Any
) -> ExperimentReport:
    """Run a registered experiment, with quick presets and overrides."""
    return get_experiment(experiment_id).run(quick=quick, **overrides)
