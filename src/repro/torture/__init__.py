"""Deterministic crash-point torture harness.

Explores every crash site a workload exposes — each forced log write
and each message send/delivery, per node, pre- and post-effect —
across the four presumption configs and their optimization variants,
judging every restart recovery with the campaign verdict of
:mod:`repro.faults.campaign`.  See docs/TORTURE.md and
``repro-2pc torture``.
"""

from repro.torture.harness import (
    record_sites,
    replay_artifact,
    run_cell,
    run_site,
    torture_sweep,
)
from repro.torture.sites import ArmedCrash, SiteRecorder, arm_crash

__all__ = [
    "ArmedCrash",
    "SiteRecorder",
    "arm_crash",
    "record_sites",
    "replay_artifact",
    "run_cell",
    "run_site",
    "torture_sweep",
]
