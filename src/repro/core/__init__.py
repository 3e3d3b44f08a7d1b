"""Core problem model for reconfigurable resource scheduling.

This package implements Section 2 of the paper: unit jobs with per-color
delay bounds, request sequences, problem instances in the
``[reconfig | drop | delay | batch]`` notation, schedules, cost accounting,
round/block arithmetic, and a schedule feasibility verifier.

The core layer is pure data plus validation; it knows nothing about any
particular scheduling algorithm.
"""

from repro.core.job import BLACK, Job
from repro.core.rounds import (
    Block,
    block,
    block_index,
    block_of,
    half_block,
    half_block_index,
    is_multiple,
    is_power_of_two,
    next_multiple,
    next_power_of_two,
    prev_multiple,
)
from repro.core.cost import CostBreakdown, CostModel
from repro.core.instance import (
    BatchMode,
    Instance,
    ProblemSpec,
    RequestSequence,
)
from repro.core.schedule import Execution, Reconfiguration, Schedule
from repro.core.events import Trace
from repro.core.validation import ScheduleError, ValidationReport, verify_schedule

__all__ = [
    "BLACK",
    "Job",
    "Block",
    "block",
    "block_index",
    "block_of",
    "half_block",
    "half_block_index",
    "is_multiple",
    "is_power_of_two",
    "next_multiple",
    "next_power_of_two",
    "prev_multiple",
    "CostBreakdown",
    "CostModel",
    "BatchMode",
    "Instance",
    "ProblemSpec",
    "RequestSequence",
    "Execution",
    "Reconfiguration",
    "Schedule",
    "Trace",
    "ScheduleError",
    "ValidationReport",
    "verify_schedule",
]
