"""Seeded chaos campaigns with shrinking counterexamples.

For every cell (presumption config x optimization variant) the
campaign runs N seeded chaos schedules against the cell's fixed
four-node workload, and each run gets the campaign's one verdict
(:func:`repro.faults.campaign.judge`) — the same one every torture
replay and fuzz run gets.

The grid, runner, verdict, sweep and artifacts are
:mod:`repro.faults.campaign`'s; this module is chaos's fault source.
A failing schedule is **shrunk** — greedy adversary-kind removal, then
event bisection, then single-action removal, each candidate re-run to
confirm the failure persists — and written as a minimal replayable
JSON artifact consumed by ``repro-2pc chaos --replay``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos.adversaries import (
    ACTION_KINDS,
    ChaosEngine,
    ChaosSchedule,
    generate_schedule,
)
from repro.core.cluster import Cluster
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.faults.campaign import (
    Cell,
    Report,
    Run,
    Trial,
    cell_config,
    cell_seed,
    save_artifact,
    sweep,
)
from repro.lrm.operations import read_op, write_op
from repro.net.latency import UniformLatency

#: The grid required by the campaign: every presumption x the four
#: non-degradation optimization variants.
CHAOS_VARIANTS: Tuple[str, ...] = ("baseline", "read-only", "last-agent",
                                   "group-commit")

#: Schedules per cell by default: 13 x 16 cells = 208 >= 200.
DEFAULT_SCHEDULES = 13

ScheduleLike = Union[ChaosSchedule, Sequence[Dict]]


# ----------------------------------------------------------------------
# Cell construction
# ----------------------------------------------------------------------
def chaos_spec(config_name: str, variant: str) -> TransactionSpec:
    """The cell's fixed workload: a chain (n0 <- n1 <- n2) plus a
    direct leaf (n0 <- n3), so duplication and reordering hit a
    cascaded coordinator, a deep subordinate and a flat one."""
    participants = [
        ParticipantSpec(node="n0", ops=[write_op("a", 1)]),
        ParticipantSpec(node="n1", parent="n0", ops=[write_op("b", 2)]),
        ParticipantSpec(node="n2", parent="n1", ops=[write_op("c", 3)]),
        ParticipantSpec(node="n3", parent="n0", ops=[write_op("d", 4)]),
    ]
    if variant == "read-only":
        participants[3].ops = [read_op("shared")]
    elif variant == "last-agent":
        participants[3].last_agent = True
    return TransactionSpec(participants=participants,
                           txn_id=f"chaos-{config_name}-{variant}")


def _build_chaos_cell(config_name: str, variant: str,
                      run_seed: int) -> Tuple[Cluster, TransactionSpec]:
    config = cell_config(config_name, variant)
    spec = chaos_spec(config_name, variant)
    cluster = Cluster(config, nodes=[p.node for p in spec.participants],
                      seed=run_seed, latency=UniformLatency(0.5, 2.0))
    return cluster, spec


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _as_schedule(schedule: ScheduleLike) -> ChaosSchedule:
    if isinstance(schedule, ChaosSchedule):
        return schedule
    return ChaosSchedule(schedule)


def run_chaos_schedule(config_name: str, variant: str, run_seed: int,
                       schedule: ScheduleLike, index: int = 0,
                       instrument=None) -> Run:
    """Run one cell workload under one chaos schedule and judge it."""
    plan = _as_schedule(schedule)
    trial = Trial(*_build_chaos_cell(config_name, variant, run_seed),
                  instrument=instrument)
    engine = ChaosEngine(plan).install(trial.cluster)
    trial.run()
    fired = len(engine.fired)
    return trial.result(
        f"schedule#{index} (seed {run_seed}, {len(plan)} actions, "
        f"{fired} fired)",
        {"index": index, "seed": run_seed, "schedule": plan.to_list(),
         "fired": fired})


def run_chaos_cell(config_name: str, variant: str, seed: int,
                   schedules: int = DEFAULT_SCHEDULES) -> Cell:
    """Run one cell: N generated schedules, each judged independently."""
    spec = chaos_spec(config_name, variant)
    nodes = [p.node for p in spec.participants]
    runs = []
    for index in range(schedules):
        run_seed = cell_seed(seed, f"chaos/{config_name}/{variant}/{index}")
        runs.append(run_chaos_schedule(config_name, variant, run_seed,
                                       generate_schedule(run_seed, nodes),
                                       index=index))
    fired = sum(run.fault["fired"] for run in runs)
    return Cell(config_name, variant, seed, runs,
                summary=(f"{len(runs)} schedules, {fired} adversary "
                         f"actions fired"))


def run_chaos_campaign(configs: Optional[Sequence[str]] = None,
                       variants: Optional[Sequence[str]] = None,
                       seed: int = 0,
                       schedules: int = DEFAULT_SCHEDULES,
                       workers: Optional[int] = None,
                       shrink: bool = True,
                       artifact_dir: Optional[str] = None) -> Report:
    """Run the campaign grid, cells sharded over the process pool.

    ``workers=1`` and ``workers=N`` campaigns are bit-identical.
    Failing schedules are shrunk in-process after the sweep
    (deterministic re-runs); with ``artifact_dir`` each failure writes
    a minimal replayable artifact.
    """
    cells = sweep("chaos", run_chaos_cell, configs, variants,
                  CHAOS_VARIANTS, seed, workers, schedules)
    report = Report(
        seed, cells,
        header=(f"chaos campaign: {len(cells)} cells, "
                f"{sum(len(cell.runs) for cell in cells)} seeded "
                f"schedules (seed {seed})"),
        units=("schedules", "schedules"))
    if shrink or artifact_dir is not None:
        for cell, run in report.failures():
            run_seed = run.fault["seed"]
            minimal = shrink_schedule(cell.config_name, cell.variant,
                                      run_seed, run.fault["schedule"])
            report.shrunk[(cell.name, run.fault["index"])] = minimal
            run.notes.append(
                f"shrunk to {ChaosSchedule(minimal).describe()}")
            if artifact_dir is not None:
                save_artifact(artifact_dir, "chaos", cell.config_name,
                              cell.variant, run_seed,
                              {"schedule": minimal}, run.verdict,
                              run.violations,
                              spec=chaos_spec(cell.config_name,
                                              cell.variant))
    return report


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _still_fails(config_name: str, variant: str, run_seed: int,
                 actions: List[Dict]) -> bool:
    return not run_chaos_schedule(config_name, variant, run_seed,
                                  actions).ok


def shrink_schedule(config_name: str, variant: str, run_seed: int,
                    schedule: ScheduleLike) -> List[Dict]:
    """Minimize a failing schedule; every candidate is re-run.

    Greedy adversary-kind removal first (drop whole classes of
    interference), then event bisection (halves), then single-action
    removal to a fixpoint.  The result still fails — it is the minimal
    counterexample the artifact records.
    """
    current = _as_schedule(schedule).to_list()
    for kind in ACTION_KINDS:
        candidate = [a for a in current if a["kind"] != kind]
        if len(candidate) < len(current) and _still_fails(
                config_name, variant, run_seed, candidate):
            current = candidate
    changed = True
    while changed and len(current) > 1:
        changed = False
        half = len(current) // 2
        for part in (current[:half], current[half:]):
            if part and len(part) < len(current) and _still_fails(
                    config_name, variant, run_seed, part):
                current = part
                changed = True
                break
    changed = True
    while changed and current:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            if _still_fails(config_name, variant, run_seed, candidate):
                current = candidate
                changed = True
                break
    return current


def replay_chaos_artifact(data: Dict, instrument=None) -> Run:
    """Re-run the exact schedule a failure artifact describes."""
    return run_chaos_schedule(data["config"], data["variant"],
                              int(data["seed"]), data["schedule"],
                              instrument=instrument)
