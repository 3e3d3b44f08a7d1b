"""Offline algorithms: the OFF side of every competitive ratio.

The paper's OFF is an *optimal offline algorithm* whose existence is
assumed; to measure ratios we need computable stand-ins on both sides:

* :mod:`repro.offline.optimal` — exact optimum for small instances
  (certifies the online algorithms' constants in tests): one solver, a
  banded layered forward DP, plus the exhaustive search as a test
  oracle;
* :mod:`repro.offline.bruteforce` — a second, independent oracle that
  enumerates configurations with no state merging, for micro instances;
* :mod:`repro.offline.lower_bounds` — certified combinatorial lower
  bounds on OFF (per-color, Par-EDF drops, capacity windows), so measured
  competitive ratios are *upper bounds* on the true ratio;
* :mod:`repro.offline.heuristic` — hindsight schedules upper-bounding
  OFF (used as the denominator in the adversarial experiments, where a
  small OFF makes the online ratio *larger*);
* :mod:`repro.offline.handcrafted` — the explicit OFF schedules of
  Appendices A and B, built event-by-event and feasibility-checked.
"""

from repro.offline.handcrafted import (
    appendix_a_offline_schedule,
    appendix_b_offline_schedule,
)
from repro.offline.lower_bounds import (
    ColorPhaseBound,
    IntervalPackingRelaxation,
    capacity_lower_bound,
    combined_lower_bound,
    par_edf_drop_lower_bound,
    per_color_lower_bound,
    warm_start_incumbent,
)
from repro.offline.optimal import (
    OptimalResult,
    SearchSpaceExceeded,
    optimal_offline,
    optimal_offline_exhaustive,
)
from repro.offline.heuristic import LookaheadPolicy, best_offline_heuristic

__all__ = [
    "appendix_a_offline_schedule",
    "appendix_b_offline_schedule",
    "capacity_lower_bound",
    "combined_lower_bound",
    "par_edf_drop_lower_bound",
    "per_color_lower_bound",
    "ColorPhaseBound",
    "IntervalPackingRelaxation",
    "warm_start_incumbent",
    "OptimalResult",
    "SearchSpaceExceeded",
    "optimal_offline",
    "optimal_offline_exhaustive",
    "LookaheadPolicy",
    "best_offline_heuristic",
]
