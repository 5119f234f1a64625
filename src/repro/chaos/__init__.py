"""Adversarial network chaos: seeded adversaries, campaigns, shrinking.

See :mod:`repro.chaos.adversaries` for the adversary catalog and
:mod:`repro.chaos.campaign` for the schedule source and shrinker; the
sweep, verdict and artifact format are :mod:`repro.faults.campaign`'s.
"""

from repro.chaos.adversaries import (
    ACTION_KINDS,
    ChaosEngine,
    ChaosSchedule,
    generate_schedule,
    validate_action,
)
from repro.chaos.campaign import (
    CHAOS_VARIANTS,
    chaos_spec,
    replay_chaos_artifact,
    run_chaos_campaign,
    run_chaos_cell,
    run_chaos_schedule,
    shrink_schedule,
)

__all__ = [
    "ACTION_KINDS",
    "CHAOS_VARIANTS",
    "ChaosEngine",
    "ChaosSchedule",
    "chaos_spec",
    "generate_schedule",
    "replay_chaos_artifact",
    "run_chaos_campaign",
    "run_chaos_cell",
    "run_chaos_schedule",
    "shrink_schedule",
    "validate_action",
]
